//! The model suite: a running `Session` against `RefSession`, the naive
//! S-CORE written from the paper (`support/mod.rs`).
//!
//! Each case draws a fabric (a ≤ 160-host canonical tree, a k = 4 or
//! k = 6 fat-tree, or a star), one of the five policies with the EWMA
//! forecast on or off, `c_m` zero or positive, a NIC threshold, a
//! workload whose hub VMs have ≥ 24 peers, so decisions land on both
//! sides of `KERNEL_MIN_CANDIDATES`, and the resource that caps a host:
//! its slots, its RAM or its CPU. It then
//! runs a random program of `step`, `advance_to`, `SetRate`,
//! `ScalePair`, `ScaleAll`, `place_vm`, `remove_vm`, `HostCrash`,
//! `RackFail`, `LinkDegrade` and `LinkRestore` on both.
//!
//! Checked at every hold: the holder, the time, `(vm, from, to)`, the
//! next holder, the candidate count, each candidate's capacity verdict
//! with the resource that refused it (the product's `Cluster::can_host` on a clone taken before the hold,
//! so its own probes' memo traffic stays unobserved), the current-TM gain
//! and the pre-emptive flag, and for a reactive move the kernel's score
//! against `LocalView::delta_for`, bit for bit. Checked after every op:
//! the pair map, the allocation and liveness, the cost to 1e-9
//! relative, every host's NIC load (against the model, and against a cold
//! clone's sweep within what the two sums round), and (debug builds)
//! `Session::check_invariants()`. A near-tie (see `RefSession::hold`)
//! is settled by the product's pick and counted.

mod support;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use score_core::engine::KERNEL_MIN_CANDIDATES;
use score_core::{AdmissionError, LocalView, ScoreConfig, ServerSpec, VmSpec};
use score_sim::{EngineSpec, ForecastSpec, PolicyKind, Scenario, Session, TimingSpec};
use score_topology::{RackId, ServerId, VmId};
use score_trace::TraceEvent;
use score_traffic::CbrLoad;
use score_xen::PreCopyModel;
use std::collections::BTreeMap;
use std::sync::Arc;
use support::RefSession;

/// Cases per fabric: every policy, forecast off then on.
const CASES: u32 = 10;

/// The sessions' cost-sampling interval.
const SAMPLE_S: f64 = 10.0;

#[derive(Debug, Clone, Copy)]
enum Fabric {
    Tree,
    FatTree,
    Star,
}

#[derive(Debug, Clone)]
enum Op {
    Step(usize),
    Advance(f64),
    SetRate(usize, usize, f64),
    ScalePair(usize, usize, f64),
    ScaleAll(f64),
    Place(Option<u32>),
    Remove(usize),
    HostCrash(u32),
    RackFail(u32),
    LinkDegrade(u32, f64),
    LinkRestore(u32),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // `prop_oneof!` is uniform: holds are listed three times, and a rack
    // failure, which takes a whole rack of hosts, is one draw in eight
    // of its arm.
    prop_oneof![
        (1usize..12).prop_map(Op::Step),
        (1usize..12).prop_map(Op::Step),
        (0.0f64..3.0).prop_map(Op::Advance),
        (0usize..1000, 0usize..1000, 1e5f64..5e7).prop_map(|(a, b, r)| Op::SetRate(a, b, r)),
        (0usize..1000, 0usize..1000).prop_map(|(a, b)| Op::SetRate(a, b, 0.0)),
        (0usize..1000, 0usize..1000, 0.0f64..3.0).prop_map(|(a, b, f)| Op::ScalePair(a, b, f)),
        (0.5f64..2.0).prop_map(Op::ScaleAll),
        (0u32..2, 0u32..1000).prop_map(|(any, s)| Op::Place((any == 1).then_some(s))),
        (0usize..1000).prop_map(Op::Remove),
        (0u32..1000).prop_map(Op::HostCrash),
        (0u32..8, 0u32..1000).prop_map(|(p, r)| if p == 0 { Op::RackFail(r) } else { Op::Step(4) }),
        (0u32..3, 0.3f64..1.0).prop_map(|(t, f)| Op::LinkDegrade(t, f)),
        (0u32..3).prop_map(Op::LinkRestore),
    ]
}

/// What a case counts, summed over the suite.
#[derive(Debug, Default)]
struct Tally {
    holds: usize,
    bucketed: usize,
    near_ties: usize,
    moves: usize,
    preemptive: usize,
    /// Reactive migrations on the bucketed side whose bits were checked.
    bits: usize,
    /// Cases whose hosts RAM, or CPU, caps below their slots.
    ram_bound: usize,
    cpu_bound: usize,
    /// Candidates the capacity probe refused for want of a slot, of RAM
    /// and of CPU.
    refused: [usize; 3],
}

/// Every fourth VM a hub drawing 24–31 peers, the others 1–3.
fn workload(rng: &mut StdRng, n: u32) -> Vec<(u32, u32, f64)> {
    let mut pairs = BTreeMap::new();
    for v in 0..n {
        let (degree, scale) = if v % 4 == 0 {
            (rng.gen_range(24..32u32), 3e7)
        } else {
            (rng.gen_range(1..4u32), 1e7)
        };
        for _ in 0..degree {
            let p = rng.gen_range(0..n);
            if p != v {
                let rate = scale * rng.gen_range(0.01f64..1.0);
                pairs.insert((v.min(p), v.max(p)), rate);
            }
        }
    }
    pairs.into_iter().map(|((u, v), r)| (u, v, r)).collect()
}

fn setup(fabric: Fabric, case: u32, rng: &mut StdRng, tally: &mut Tally) -> (Session, RefSession) {
    let kind = PolicyKind::all()[case as usize % 5];
    let forecast = (case / 5) % 2 == 1;
    let builder = Scenario::builder();
    let (builder, hosts) = match fabric {
        Fabric::Tree => {
            let (racks, per) = ([8, 16][rng.gen_range(0..2)], rng.gen_range(4..=10u32));
            (builder.canonical_tree(racks, per), racks * per)
        }
        Fabric::FatTree if case.is_multiple_of(2) => (builder.fat_tree(4), 16),
        Fabric::FatTree => (builder.fat_tree(6), 54),
        Fabric::Star => {
            let hosts = rng.gen_range(20..48u32);
            (builder.star(hosts), hosts)
        }
    };
    let slots = [4, 6, 16][rng.gen_range(0..3)];
    let n = (hosts * slots / 3).clamp(30, 96);
    let server = ServerSpec {
        vm_slots: slots,
        ram_mb: 256 * slots,
        cpu_cores: 8.0,
        nic_bps: 1e9,
    };
    let vm = VmSpec::paper_default();
    let score = ScoreConfig {
        migration_cost: if rng.gen_bool(0.5) {
            0.0
        } else {
            10f64.powf(rng.gen_range(6.0..8.5))
        },
        bandwidth_threshold: [1.0, 0.6, 0.35][rng.gen_range(0..3)],
    };
    let mut engine = EngineSpec::custom();
    if let EngineSpec::Custom { score: s, .. } = &mut engine {
        *s = score;
    }
    let ewma = (rng.gen_range(0.3..1.0), rng.gen_range(5.0..60.0));
    let timing = TimingSpec {
        t_end_s: 1e5,
        sample_interval_s: SAMPLE_S,
        token_hold_s: 0.08,
        token_pass_s: 0.02,
    };
    let seed = rng.gen();
    let pairs = workload(rng, n);
    let scenario = builder
        .explicit_pairs(n, pairs.clone())
        .workload_seed(seed)
        .server_spec(server)
        .vm_spec(vm)
        .policy(kind)
        .engine(engine)
        .forecast(if forecast {
            ForecastSpec::Ewma {
                alpha: ewma.0,
                horizon_s: ewma.1,
            }
        } else {
            ForecastSpec::None
        })
        .timing(timing)
        .seed(seed)
        .build();
    let session = bind_resources(scenario, slots, rng, tally);
    let alloc = session.cluster().allocation();
    let alloc = (0..n)
        .map(|v| alloc.server_of(VmId::new(v)).get())
        .collect();
    let pairs = pairs.into_iter().map(|(u, v, r)| ((u, v), r)).collect();
    let model = RefSession::new(
        session.scenario(),
        Arc::clone(session.topo()),
        alloc,
        &pairs,
    );
    (session, model)
}

/// Draws the resource that caps a host and materializes the case. The
/// initial placement fills hosts at random up to their slots. When no
/// host is full, a coin lowers every host's RAM, or its CPU (with a VM
/// demand of 0.3 cores, which no binary fraction holds), until a host
/// admits exactly as many VMs as the fullest one holds: fewer than its
/// slots, so the probe refuses for RAM or CPU, and no fewer, so the
/// placement stands as drawn. The cap sits a fraction of one VM's demand
/// below the next VM. A case with a full host stays capped by slots.
fn bind_resources(
    mut scenario: Scenario,
    slots: u32,
    rng: &mut StdRng,
    tally: &mut Tally,
) -> Session {
    let probe = scenario.session().expect("the case materializes");
    let (alloc, hosts) = (probe.cluster().allocation(), probe.topo().num_servers());
    let fullest = (0..hosts as u32)
        .map(|s| alloc.vms_on(ServerId::new(s)).len() as u32)
        .max()
        .unwrap_or(0);
    if fullest < slots {
        let (cap, resources) = (fullest, &mut scenario.resources);
        if rng.gen_bool(0.5) {
            let ram = resources.vm.ram_mb;
            resources.server.ram_mb = ram * cap + rng.gen_range(0..ram);
            tally.ram_bound += 1;
        } else {
            resources.vm.cpu_cores = 0.3;
            resources.server.cpu_cores = 0.3 * f64::from(cap) + rng.gen_range(0.06..0.24);
            tally.cpu_bound += 1;
        }
    }
    scenario.session().expect("the case materializes")
}

/// The product and the model side by side, with the session's other
/// events: sample ticks, and migration completions timed by the same
/// seeded pre-copy draws the session makes. `advance_to(t)` runs one
/// hold past `t` when such an event is due by `t`.
struct World {
    session: Session,
    model: RefSession,
    tally: Tally,
    cm: f64,
    /// The NIC threshold of the capacity probe.
    threshold: f64,
    forecast: bool,
    precopy: PreCopyModel,
    draws: StdRng,
    next_sample: f64,
    completions: Vec<f64>,
    /// `ScaleAll`s applied so far.
    scales: u32,
}

impl World {
    /// One hold on both sides; false once the product's clock stopped.
    fn step(&mut self) -> bool {
        let (due, tol) = (self.model.next_hold, 1e-9 * self.model.cost());
        // The holder's view before it decides, for the kernel's bits.
        let (cluster, traffic) = (self.session.cluster(), self.session.traffic());
        let observe =
            |h| LocalView::observe(VmId::new(h), cluster.allocation(), traffic, cluster.topo());
        let view = self
            .model
            .holder
            .filter(|&h| h < traffic.num_vms())
            .map(observe);
        // The capacity verdict on every peer's server, from a clone: the
        // product probes only the candidates that could win.
        let cold = cluster.clone();
        let admits: BTreeMap<u32, Result<(), AdmissionError>> = view
            .iter()
            .flat_map(|v| v.peers.iter().map(move |p| (v.vm, p.server)))
            .map(|(vm, s)| (s.get(), cold.can_host(traffic, s, vm, self.threshold)))
            .collect();
        let outcome = self.session.step();
        let pick = outcome.and_then(|o| o.decision.target.map(|s| s.get()));
        let (o, h) = match (outcome, self.model.hold(pick)) {
            (None, None) => return false,
            (Some(o), Some(h)) => (o, h),
            (o, h) => panic!("product {o:?} vs model {h:?}"),
        };
        let t = self.session.now_s();
        assert_eq!(Some(t), due, "hold time");
        self.popped(t);
        let d = o.decision;
        if let Some(s) = d.target {
            let sample = self.precopy.migrate(CbrLoad::IDLE, &mut self.draws);
            self.completions.push(t + sample.total_time_s);
            // Reactive: the kernel scored the chosen target exactly as the
            // per-candidate Lemma-3 sweep does, so the cutoff between the
            // two can never change a decision.
            if !self.forecast {
                let weights = self.session.cost_model().weights();
                let sweep =
                    view.expect("a holder")
                        .delta_for(s, weights, self.session.topo().as_ref());
                assert_eq!(
                    sweep.to_bits(),
                    d.predicted_gain.to_bits(),
                    "kernel vs sweep at {t}"
                );
                self.tally.bits += usize::from(h.candidates >= KERNEL_MIN_CANDIDATES);
            }
        }
        let ours = (
            o.holder.get(),
            o.source.get(),
            pick,
            o.next.map(|v| v.get()),
        );
        assert_eq!(
            ours,
            (h.holder, h.from, h.to, h.next),
            "holder, from, to, next at {t}"
        );
        assert_eq!(d.evaluated, h.candidates, "candidates at {t}");
        for &(s, fits) in &h.fits {
            assert_eq!(admits.get(&s), Some(&fits), "admission of srv{s} at {t}");
            let refused = match fits {
                Err(AdmissionError::NoSlot) => 0,
                Err(AdmissionError::Ram) => 1,
                Err(AdmissionError::Cpu) => 2,
                _ => continue,
            };
            self.tally.refused[refused] += 1;
        }
        assert!(
            (d.gain - h.gain).abs() <= tol,
            "gain {} vs {}",
            d.gain,
            h.gain
        );
        if (h.gain - self.cm).abs() > tol {
            assert_eq!(d.preemptive, h.preemptive, "pre-emptive flag at {t}");
        }
        self.tally.holds += 1;
        self.tally.bucketed += usize::from(h.candidates >= KERNEL_MIN_CANDIDATES);
        self.tally.near_ties += usize::from(h.near_tie);
        self.tally.moves += usize::from(h.to.is_some());
        self.tally.preemptive += usize::from(h.preemptive);
        true
    }

    /// Every non-hold event up to `t` has been popped.
    fn popped(&mut self, t: f64) {
        while self.next_sample <= t {
            self.next_sample += SAMPLE_S;
        }
        self.completions.retain(|&c| c > t);
    }

    fn advance_to(&mut self, until: f64) {
        while self.model.next_hold.is_some_and(|t| t <= until) {
            self.step();
        }
        let due = self.next_sample <= until || self.completions.iter().any(|&c| c <= until);
        if due && !self.step() {
            self.popped(f64::INFINITY);
        }
        self.session.advance_to(until);
    }
}

fn check(session: &Session, model: &RefSession, scales: u32) {
    let pairs = session.traffic().pairs();
    assert_eq!(pairs.len(), model.rates.len(), "pair count");
    for (&(u, v, r), (&key, &want)) in pairs.iter().zip(&model.rates) {
        assert_eq!((u.get(), v.get()), key, "pair set");
        assert!(
            (r - want).abs() <= 1e-12 * want,
            "rate of {key:?}: {r} vs {want}"
        );
    }
    let cluster = session.cluster();
    for (v, &s) in model.alloc.iter().enumerate() {
        let id = VmId::new(v as u32);
        assert_eq!(cluster.is_active(id), model.live[v], "liveness of {id}");
        if model.live[v] {
            assert_eq!(cluster.allocation().server_of(id).get(), s, "host of {id}");
        }
    }
    let (got, want) = (session.current_cost(), model.cost());
    assert!(
        (got - want).abs() <= 1e-9 * got.max(want),
        "cost {got} vs {want}"
    );
    // The public read is a sweep: it equals a cold clone's fresh sweep up
    // to the rounding of both sums (at most one per external row and per
    // VM on the host) and of the `ScaleAll`s it was multiplied through by.
    // A migration folded into it shows here long before it reaches 1e-9
    // once the host's load cancels.
    let cold = cluster.clone();
    let loads = model.nic_loads(&model.alloc);
    let mut terms = vec![0u32; loads.len()];
    for &s in &model.alloc {
        terms[s as usize] += 1;
    }
    for &(u, v) in model.rates.keys() {
        let (su, sv) = (model.alloc[u as usize], model.alloc[v as usize]);
        if su != sv {
            terms[su as usize] += 1;
            terms[sv as usize] += 1;
        }
    }
    for (s, want) in loads.into_iter().enumerate() {
        let server = ServerId::new(s as u32);
        let got = cluster.host_external_load(session.traffic(), server);
        assert!(
            (got - want).abs() <= 1e-9 * got.max(want),
            "NIC load of srv{s}: {got} vs {want}"
        );
        let swept = cold.host_external_load(session.traffic(), server);
        let rounding = f64::from(2 * terms[s] + 4 * scales + 2) * f64::EPSILON;
        assert!(
            (got - swept).abs() <= rounding * swept,
            "NIC load of srv{s}: {got} is no sweep of {swept}"
        );
    }
    #[cfg(debug_assertions)]
    session.check_invariants();
}

impl World {
    fn apply(&mut self, op: &Op) {
        let now = self.session.now_s();
        let model = &mut self.model;
        let live: Vec<u32> = (0..model.alloc.len() as u32)
            .filter(|&v| model.live[v as usize])
            .collect();
        let pair = |a: usize, b: usize| (live[a % live.len()], live[b % live.len()]);
        let session = &mut self.session;
        let servers = session.topo().num_servers() as u32;
        match *op {
            Op::Step(n) => {
                for _ in 0..n {
                    if !self.step() {
                        break;
                    }
                }
            }
            Op::Advance(dt) => self.advance_to(now + dt),
            Op::SetRate(a, b, rate) => {
                let (u, v) = pair(a, b);
                if u != v {
                    session
                        .apply_trace_event(&TraceEvent::SetRate { u, v, rate })
                        .unwrap();
                    model.set_rate(u, v, rate, now);
                }
            }
            Op::ScalePair(a, b, factor) => {
                let (u, v) = pair(a, b);
                session
                    .apply_trace_event(&TraceEvent::ScalePair { u, v, factor })
                    .unwrap();
                model.scale_pair(u, v, factor, now);
            }
            Op::ScaleAll(factor) => {
                session
                    .apply_trace_event(&TraceEvent::ScaleAll { factor })
                    .unwrap();
                model.scale_all(factor, now);
                self.scales += 1;
            }
            Op::Place(server) => {
                let server = server.map(|s| s % servers);
                let placed = session.place_vm(server.map(ServerId::new)).ok();
                let placed = placed.map(|(v, s)| (v.get(), s.get()));
                assert_eq!(placed, model.place(server, now), "placement on {server:?}");
            }
            Op::Remove(pick) if live.len() > 3 => {
                let v = live[pick % live.len()];
                session.remove_vm(VmId::new(v)).unwrap();
                model.remove(&[v], now);
            }
            Op::Remove(_) => {}
            Op::HostCrash(s) => self.crash(
                TraceEvent::HostCrash {
                    server: s % servers,
                },
                &[s % servers],
            ),
            Op::RackFail(r) => {
                let r = r % session.topo().num_racks() as u32;
                let hosts: Vec<u32> = session.topo().servers_in_rack(RackId::new(r)).collect();
                self.crash(TraceEvent::RackFail { rack: r }, &hosts);
            }
            Op::LinkDegrade(tier, factor) => {
                session
                    .apply_fault(&TraceEvent::LinkDegrade { tier, factor })
                    .unwrap();
                if tier == 0 {
                    model.nic_factor = factor;
                }
            }
            Op::LinkRestore(tier) => {
                session
                    .apply_fault(&TraceEvent::LinkRestore { tier })
                    .unwrap();
                if tier == 0 {
                    model.nic_factor = 1.0;
                }
            }
        }
    }

    fn crash(&mut self, event: TraceEvent, hosts: &[u32]) {
        let now = self.session.now_s();
        let outcome = self.session.apply_fault(&event).unwrap();
        let evacuated = outcome
            .evacuated
            .iter()
            .map(|&(v, s)| (v.get(), s.get()))
            .collect();
        let retired = outcome.unplaceable.iter().map(|v| v.get()).collect();
        assert_eq!(
            (evacuated, retired),
            self.model.crash(hosts, now),
            "{event:?}"
        );
    }
}

fn drive(fabric: Fabric, case: u32, tally: &mut Tally) {
    let name = format!("model_{fabric:?}");
    let mut rng = proptest::case_rng(&name, case);
    let ops = prop::collection::vec(op_strategy(), 30..60).sample(&mut rng);
    let (session, model) = setup(fabric, case, &mut rng, tally);
    let scenario = session.scenario();
    let mut world = World {
        cm: scenario.engine.score().migration_cost,
        threshold: scenario.engine.score().bandwidth_threshold,
        forecast: scenario.forecast.is_active(),
        precopy: PreCopyModel::new(scenario.engine.precopy()),
        draws: StdRng::seed_from_u64(scenario.seed),
        next_sample: 0.0,
        completions: Vec::new(),
        scales: 0,
        tally: std::mem::take(tally),
        session,
        model,
    };
    let start = world.tally.holds;
    check(&world.session, &world.model, 0);
    for (i, op) in ops.iter().enumerate() {
        eprintln!("{fabric:?} case {case} op {i}: {op:?}");
        world.apply(op);
        check(&world.session, &world.model, world.scales);
    }
    let holds = world.session.report().token_holds;
    assert_eq!(holds, world.tally.holds - start, "holds");
    *tally = world.tally;
}

/// Runs every case of one fabric and checks that both sides of the
/// kernel cutoff carried holds.
fn suite(fabric: Fabric) {
    let mut tally = Tally::default();
    for case in 0..CASES {
        drive(fabric, case, &mut tally);
    }
    eprintln!("{fabric:?}: {tally:?}");
    assert!(
        tally.bucketed * 10 >= tally.holds,
        "bucketed share {tally:?}"
    );
    assert!(tally.bucketed < tally.holds, "no hold below the cutoff");
    assert!(
        tally.refused[1] > 0 && tally.refused[2] > 0,
        "RAM and CPU each refused a candidate {tally:?}"
    );
}

#[test]
fn canonical_tree_matches_the_model() {
    suite(Fabric::Tree);
}

#[test]
fn fat_trees_match_the_model() {
    suite(Fabric::FatTree);
}

#[test]
fn star_matches_the_model() {
    suite(Fabric::Star);
}
