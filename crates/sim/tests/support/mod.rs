//! `RefSession`: S-CORE written down from the paper, naively, as the one
//! oracle `model.rs` holds the product against. It shares no machinery
//! with the product: rates are a sorted map, the allocation a vector,
//! Eq. (2) is summed afresh on every read, Theorem 1 takes Lemma 3 as two
//! such sums, capacity and the §V-C NIC probe are plain sums, the token
//! is a vector walked linearly, and forecasts come from an
//! `EwmaForecaster` of its own. Where the best gain lies within 1e-9·C(A)
//! of another gain or of `c_m`, the model takes the product's pick if it
//! is one of the tied ones, and counts a near-tie.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use score_core::AdmissionError;
use score_sim::{ForecastSpec, PolicyKind, Scenario};
use score_topology::{ServerId, Topology, VmId};
use score_traffic::{EwmaForecaster, RateForecaster};

/// What one token hold did; `gain` is the move's ΔC at current rates,
/// and `fits` each candidate with its verdict of the capacity probe: the
/// first refusing check, in the order liveness, slot, RAM, CPU, NIC.
#[derive(Debug, Clone, PartialEq)]
pub struct RefHold {
    pub holder: u32,
    pub from: u32,
    pub to: Option<u32>,
    pub next: Option<u32>,
    pub gain: f64,
    pub preemptive: bool,
    pub candidates: usize,
    pub fits: Vec<(u32, Result<(), AdmissionError>)>,
    pub near_tie: bool,
}

type Rates = BTreeMap<(u32, u32), f64>;

pub struct RefSession {
    sc: Scenario,
    topo: Arc<dyn Topology>,
    /// `prefix[ℓ] = Σ_{i≤ℓ} c_i`.
    prefix: Vec<f64>,
    /// λ(u, v) for `u < v`; a pair without traffic has no entry.
    pub rates: Rates,
    /// Server of every VM id ever placed, and whether it is live.
    pub alloc: Vec<u32>,
    pub live: Vec<bool>,
    up: Vec<bool>,
    /// Host-tier capacity left by `LinkDegrade`.
    pub nic_factor: f64,
    /// Token members in ascending id, with the level HLF stores for each.
    token: Vec<(u32, u8)>,
    pub holder: Option<u32>,
    checked: BTreeSet<u32>,
    estimates: BTreeMap<u32, f64>,
    rng: StdRng,
    forecaster: Option<EwmaForecaster>,
    /// The next hold: `None` while the token stops, ∞ once time is up.
    pub next_hold: Option<f64>,
}

impl RefSession {
    pub fn new(sc: &Scenario, topo: Arc<dyn Topology>, alloc: Vec<u32>, pairs: &Rates) -> Self {
        let c = sc.engine.weights().weights().to_vec();
        let n = alloc.len() as u32;
        let mut model = RefSession {
            prefix: (0..=c.len()).map(|l| c[..l].iter().sum()).collect(),
            rng: StdRng::seed_from_u64(sc.seed),
            next_hold: Some(sc.timing.token_hold_s.max(1e-6)),
            up: vec![true; topo.num_servers()],
            live: vec![true; n as usize],
            token: (0..n).map(|id| (id, 0)).collect(),
            holder: (n > 0).then_some(0),
            rates: Rates::new(),
            nic_factor: 1.0,
            checked: BTreeSet::new(),
            estimates: BTreeMap::new(),
            forecaster: None,
            sc: sc.clone(),
            topo,
            alloc,
        };
        if let ForecastSpec::Ewma { alpha, horizon_s } = sc.forecast {
            model.forecaster = (horizon_s > 0.0).then(|| EwmaForecaster::new(alpha));
        }
        for (&(u, v), &r) in pairs {
            model.set_rate(u, v, r, 0.0);
        }
        model
    }

    /// `Vu` as `(peer, λ)`, in ascending peer id as the map is sorted.
    fn peers(&self, u: u32) -> Vec<(u32, f64)> {
        let mine = self.rates.iter().filter(|(p, _)| p.0 == u || p.1 == u);
        mine.map(|(&(a, b), &r)| (a + b - u, r)).collect()
    }

    fn level(&self, a: u32, b: u32) -> usize {
        self.topo.level(ServerId::new(a), ServerId::new(b)).index()
    }

    /// Eq. (2): `C_A = 2 Σ λ(u, v) Σ_{i≤ℓ(u,v)} c_i` over every pair.
    fn cost_of(&self, rates: &Rates, alloc: &[u32]) -> f64 {
        let at = |v: u32| alloc[v as usize];
        let cost = |(&(u, v), &r): (&(u32, u32), &f64)| r * self.prefix[self.level(at(u), at(v))];
        2.0 * rates.iter().map(cost).sum::<f64>()
    }

    pub fn cost(&self) -> f64 {
        self.cost_of(&self.rates, &self.alloc)
    }

    fn moved(&self, vm: u32, to: u32) -> Vec<u32> {
        let mut moved = self.alloc.clone();
        moved[vm as usize] = to;
        moved
    }

    /// Traffic crossing each host's NIC under `alloc`.
    pub fn nic_loads(&self, alloc: &[u32]) -> Vec<f64> {
        let mut load = vec![0.0; self.up.len()];
        for (&(u, v), &r) in &self.rates {
            let (su, sv) = (alloc[u as usize], alloc[v as usize]);
            if su != sv {
                load[su as usize] += r;
                load[sv as usize] += r;
            }
        }
        load
    }

    /// The live VMs on `s`, in ascending id.
    fn on(&self, s: u32) -> Vec<u32> {
        let here = |&v: &u32| self.live[v as usize] && self.alloc[v as usize] == s;
        (0..self.alloc.len() as u32).filter(here).collect()
    }

    /// Can `s` take one more VM: up, with a slot, RAM and CPU left? The
    /// CPU of the VMs already there is summed one VM at a time.
    fn admission(&self, s: u32) -> Result<(), AdmissionError> {
        let (server, vm) = (&self.sc.resources.server, &self.sc.resources.vm);
        let n = self.on(s).len() as u32;
        let cpu: f64 = (0..n).map(|_| vm.cpu_cores).sum();
        if !self.up[s as usize] {
            Err(AdmissionError::HostDown)
        } else if n >= server.vm_slots {
            Err(AdmissionError::NoSlot)
        } else if (n + 1) * vm.ram_mb > server.ram_mb {
            Err(AdmissionError::Ram)
        } else if cpu + vm.cpu_cores > server.cpu_cores + 1e-9 {
            Err(AdmissionError::Cpu)
        } else {
            Ok(())
        }
    }

    /// The placement rule: most free slots, lowest id first.
    fn place_target(&self) -> Option<u32> {
        let slots = self.sc.resources.server.vm_slots;
        let rank = |&s: &u32| (slots.saturating_sub(self.on(s).len() as u32), Reverse(s));
        let admitting = (0..self.up.len() as u32).filter(|&s| self.admission(s).is_ok());
        admitting.max_by_key(rank)
    }

    /// Admission, then the §V-C probe of the NIC load `vm` would bring.
    fn fits(&self, vm: u32, s: u32) -> Result<(), AdmissionError> {
        let nic = self.sc.resources.server.nic_bps * self.nic_factor;
        let cap = self.sc.engine.score().bandwidth_threshold * nic;
        self.admission(s)?;
        if self.nic_loads(&self.moved(vm, s))[s as usize] > cap + 1e-9 {
            return Err(AdmissionError::Bandwidth);
        }
        Ok(())
    }

    /// The rate decisions score: `max(current, forecast)` when forecasting.
    fn expected(&self, u: u32, v: u32, r: f64, t: f64) -> f64 {
        let (h, u, v) = (self.sc.forecast.horizon_s(), VmId::new(u), VmId::new(v));
        self.forecaster
            .as_ref()
            .map_or(r, |f| f.predict(u, v, t, h).max(r))
    }

    /// One token hold at the next hold time. `product` is the product's
    /// pick for this hold, taken only when the model's own is a near-tie.
    pub fn hold(&mut self, product: Option<u32>) -> Option<RefHold> {
        let (Some(t), Some(u)) = (self.next_hold.filter(|t| t.is_finite()), self.holder) else {
            self.next_hold = Some(f64::INFINITY);
            return None;
        };
        let (from, score) = (self.alloc[u as usize], self.sc.engine.score());
        let mut scored = self.rates.clone();
        // Peers' servers "from highest to lowest communication levels",
        // heavier pairs first, each server once.
        let mut ranked = Vec::new();
        for (p, r) in self.peers(u) {
            let (s, rate) = (self.alloc[p as usize], self.expected(u, p, r, t));
            scored.insert((u.min(p), u.max(p)), rate);
            ranked.push((Reverse(self.level(from, s)), Reverse(rate.to_bits()), p, s));
        }
        ranked.sort();
        let mut seen = BTreeSet::from([from]);
        let candidates: Vec<u32> = ranked
            .iter()
            .map(|e| e.3)
            .filter(|&s| seen.insert(s))
            .collect();
        let (now, before) = (self.cost(), self.cost_of(&scored, &self.alloc));
        let (tol, cm) = (1e-9 * now.max(before), score.migration_cost);
        // Theorem 1: the feasible target with the largest ΔC, if > c_m.
        let fits: Vec<(u32, Result<(), AdmissionError>)> =
            candidates.iter().map(|&s| (s, self.fits(u, s))).collect();
        let (mut options, mut own, mut top) = (Vec::new(), None, f64::NEG_INFINITY);
        for &(s, _) in fits.iter().filter(|f| f.1.is_ok()) {
            let gain = before - self.cost_of(&scored, &self.moved(u, s));
            options.push((s, gain));
            if gain > top {
                (own, top) = (Some(s), gain);
            }
        }
        let close = |&&(_, g): &&(u32, f64)| g >= top - tol && g > cm - tol;
        let mut ties: Vec<_> = options.iter().filter(close).map(|o| Some(o.0)).collect();
        ties.extend((top <= cm + tol).then_some(None));
        let near_tie = ties.len() > 1 && ties.contains(&product);
        let to = if near_tie {
            product
        } else {
            own.filter(|_| top > cm)
        };
        let gain = to.map_or(0.0, |s| now - self.cost_of(&self.rates, &self.moved(u, s)));
        self.alloc[u as usize] = to.unwrap_or(from);
        let next = self.next_holder(u, t);
        let hop = self.sc.timing.token_hold_s + self.sc.timing.token_pass_s;
        (self.holder, self.next_hold) = (next, next.map(|_| t + hop));
        Some(RefHold {
            holder: u,
            from,
            to,
            next,
            gain,
            preemptive: self.forecaster.is_some() && to.is_some() && gain <= cm,
            candidates: candidates.len(),
            fits,
            near_tie,
        })
    }

    /// The policy's next holder, from `u`'s view after its decision.
    fn next_holder(&mut self, u: u32, t: f64) -> Option<u32> {
        let here = self.alloc[u as usize];
        let mut view = Vec::new();
        let fcf = self.sc.policy == PolicyKind::ForecastCostFirst;
        for (p, r) in self.peers(u) {
            let r = if fcf { self.expected(u, p, r, t) } else { r };
            view.push((p, r, self.level(here, self.alloc[p as usize])));
        }
        let mut others: Vec<u32> = self.token.iter().map(|e| e.0).collect();
        others.retain(|&id| id != u);
        match self.sc.policy {
            // The next id up, wrapping.
            PolicyKind::RoundRobin => self.after(u),
            // Uniform among the other members.
            PolicyKind::Random if others.is_empty() => None,
            PolicyKind::Random => Some(others[self.rng.gen_range(0..others.len())]),
            // Algorithm 1: store own level, raise peers'; then the first
            // unchecked VM at that level after the holder, else the lowest
            // id a level down, else the highest; else restart the round.
            PolicyKind::HighestLevelFirst => {
                let own = view.iter().map(|p| p.2 as u8).max().unwrap_or(0);
                for e in &mut self.token {
                    match view.iter().find(|p| p.0 == e.0) {
                        _ if e.0 == u => e.1 = own,
                        Some(p) => e.1 = e.1.max(p.2 as u8),
                        None => {}
                    }
                }
                self.checked.insert(u);
                let mut open = self.token.clone();
                open.retain(|e| !self.checked.contains(&e.0));
                let at = |l: u8| move |e: &&(u32, u8)| e.1 == l;
                let mut ring = (open.iter().filter(|e| e.0 > u)).chain(&open);
                let lower = || (0..own).rev().find_map(|l| open.iter().find(at(l)));
                let highest =
                    |es: &[(u32, u8)]| es.iter().max_by_key(|e| (e.1, Reverse(e.0))).copied();
                let found = ring.find(at(own)).or_else(lower).copied();
                if let Some(z) = found.or_else(|| highest(&open)) {
                    return Some(z.0);
                }
                self.checked.clear();
                let max = self.token.iter().map(|e| e.1).max()?;
                let restart = self.token.iter().find(|e| e.1 == max && e.0 != u);
                restart.map(|e| e.0).or_else(|| self.after(u))
            }
            // Highest Eq.-(1) estimate first: exact for the holder, the
            // largest pair cost seen for a peer; Fcf prices the envelope.
            PolicyKind::HighestCostFirst | PolicyKind::ForecastCostFirst => {
                let own: f64 = view.iter().map(|&(_, r, l)| r * self.prefix[l]).sum();
                self.estimates.insert(u, 2.0 * own);
                for &(p, r, l) in &view {
                    let pair = 2.0 * r * self.prefix[l];
                    if self.estimates.get(&p).unwrap_or(&0.0) < &pair {
                        self.estimates.insert(p, pair);
                    }
                }
                self.checked.insert(u);
                let mut open = others.clone();
                open.retain(|id| !self.checked.contains(id));
                self.costliest(&open).or_else(|| {
                    self.checked.clear();
                    self.costliest(&others)
                })
            }
        }
    }

    /// The highest cost estimate among `ids`, lowest id among equals.
    fn costliest(&self, ids: &[u32]) -> Option<u32> {
        let est = |v: &u32| *self.estimates.get(v).unwrap_or(&0.0);
        let by = |a: &u32, b: &u32| est(a).partial_cmp(&est(b)).unwrap().then(b.cmp(a));
        ids.iter().copied().max_by(by)
    }

    /// The next member up from `v`, wrapping; never `v` itself.
    fn after(&self, v: u32) -> Option<u32> {
        let next = self.token.iter().find(|e| e.0 > v).or(self.token.first());
        next.map(|e| e.0).filter(|&id| id != v)
    }

    /// `SetRate` between two live VMs (0 silences the pair).
    pub fn set_rate(&mut self, u: u32, v: u32, rate: f64, now: f64) {
        let old = self.rates.insert((u.min(v), u.max(v)), rate);
        self.rates.retain(|_, &mut r| r != 0.0);
        if old.unwrap_or(0.0) == rate {
            return;
        }
        if let Some(f) = &mut self.forecaster {
            f.observe_updates(&mut [(VmId::new(u), VmId::new(v), rate)].into_iter(), now);
        }
    }

    /// `ScalePair` re-rates a pair with traffic; it creates none.
    pub fn scale_pair(&mut self, u: u32, v: u32, factor: f64, now: f64) {
        if let Some(&old) = self.rates.get(&(u.min(v), u.max(v))) {
            self.set_rate(u, v, (old * factor).min(f64::MAX), now);
        }
    }

    /// `ScaleAll`: every rate times `factor`.
    pub fn scale_all(&mut self, factor: f64, now: f64) {
        if factor == 1.0 {
            return;
        }
        self.rates
            .values_mut()
            .for_each(|r| *r = (*r * factor).min(f64::MAX));
        if let Some(f) = &mut self.forecaster {
            f.observe_scale(factor, now);
        }
    }

    /// A new VM with no traffic, on `server` or by the placement rule.
    /// A stopped token chain starts again one hop from `now`.
    pub fn place(&mut self, server: Option<u32>, now: f64) -> Option<(u32, u32)> {
        let target = match server {
            Some(s) => (s < self.up.len() as u32 && self.admission(s).is_ok()).then_some(s)?,
            None => self.place_target()?,
        };
        let id = self.alloc.len() as u32;
        self.alloc.push(target);
        self.live.push(true);
        self.token.push((id, 0));
        self.holder = self.holder.or(Some(id));
        let hop = self.sc.timing.token_hold_s + self.sc.timing.token_pass_s;
        self.next_hold = self.next_hold.or(Some(now + hop));
        Some((id, target))
    }

    /// Departures: their pairs go silent and they leave the token; a
    /// departing holder hands over to the next surviving id up.
    pub fn remove(&mut self, dead: &[u32], now: f64) {
        for &v in dead {
            for (p, _) in self.peers(v) {
                self.set_rate(v, p, 0.0, now);
            }
            self.live[v as usize] = false;
        }
        self.token.retain(|e| !dead.contains(&e.0));
        if let Some(h) = self.holder.filter(|h| dead.contains(h)) {
            self.holder = self.after(h);
        }
    }

    /// Hosts crash in order; their VMs, lowest id first, are re-placed by
    /// the placement rule, or retired if no host admits them.
    pub fn crash(&mut self, servers: &[u32], now: f64) -> (Vec<(u32, u32)>, Vec<u32>) {
        let (mut evacuated, mut retired) = (Vec::new(), Vec::new());
        for &s in servers {
            if !std::mem::replace(&mut self.up[s as usize], false) {
                continue;
            }
            for v in self.on(s) {
                let Some(to) = self.place_target() else {
                    retired.push(v);
                    continue;
                };
                self.alloc[v as usize] = to;
                evacuated.push((v, to));
            }
        }
        self.remove(&retired, now);
        (evacuated, retired)
    }
}
