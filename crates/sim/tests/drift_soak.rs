//! Drift soak for the float accounts a session keeps beside its one
//! traffic matrix: 10⁷ mixed events at 2,560 hosts — sparse deltas,
//! token holds with their migrations, churn, `ScaleAll`s and a bounded
//! number of faults — with every account measured against a
//! from-scratch reference every 10⁵ events:
//!
//! * the cost ledger's running `C_A` against a full Eq.-(2) pass;
//! * the cluster's memoised per-host external loads as the account holds
//!   them (`Cluster::memoised_external_load`) — multiplied through by
//!   every `ScaleAll`, folded by every migration, re-derived only when a
//!   patch or churn drops them or a read re-sweeps them — against a cold
//!   `Cluster::clone()`, which re-sums every host from the TM; every
//!   folded memo's interval must hold that sum, and the widest relative
//!   bound is printed beside the drift;
//! * the TM's composed lazy `ScaleAll` factor against a reference map
//!   that multiplies every pair by each factor in turn.
//!
//! Each relative drift must stay ≤ 1e-9 at every checkpoint. The curve
//! is printed with `--nocapture` (ARCHITECTURE "CostLedger invariants"
//! records it). Ignored by default: it runs for seconds in release and
//! far longer in debug, so CI runs it in release under a timeout:
//!
//! ```text
//! cargo test --release -p score-sim --test drift_soak -- --ignored --nocapture
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use score_sim::{PolicyKind, Scenario, Session};
use score_topology::{ServerId, VmId};
use score_trace::{scaled_rate, TraceEvent};
use std::collections::HashMap;

const EVENTS: u64 = 10_000_000;
const CHECK_EVERY: u64 = 100_000;
const FAULT_EVERY: u64 = 1_000_000;
const BOUND: f64 = 1e-9;

/// Canonical `(u, v)` with `u < v` → rate, scaled pair by pair.
type Reference = HashMap<(u32, u32), f64>;

fn key(u: u32, v: u32) -> (u32, u32) {
    (u.min(v), u.max(v))
}

/// One checkpoint: the relative drift of each account.
#[derive(Debug, Clone, Copy)]
struct Drift {
    ledger: f64,
    ext_load: f64,
    factor: f64,
    /// The widest relative bound of a folded NIC memo (printed, not a
    /// drift: each interval must hold its host's sum).
    bound: f64,
}

impl Drift {
    fn measure(session: &Session, reference: &Reference) -> Drift {
        let traffic = session.traffic();
        assert_eq!(
            traffic.num_pairs(),
            reference.len(),
            "pair population diverged"
        );
        let cluster = session.cluster();
        let fresh = session
            .cost_model()
            .total_cost(cluster.allocation(), traffic, cluster.topo());
        let ledger = (session.current_cost() - fresh).abs() / fresh;
        let cold = cluster.clone();
        let (mut ext_load, mut bound) = (0.0f64, 0.0f64);
        for s in 0..cluster.allocation().num_servers() {
            let s = ServerId::new(s);
            let Some((memo, radius)) = cluster.memoised_external_load(traffic, s) else {
                continue;
            };
            let swept = cold.host_external_load(traffic, s);
            assert!(
                (memo - swept).abs() <= radius || radius == 0.0,
                "{s}: the memo {memo} ± {radius} does not hold the sum {swept}"
            );
            ext_load = ext_load.max(relative(memo, swept));
            bound = bound.max(radius / memo);
        }
        let mut factor = 0.0f64;
        for (&(u, v), &want) in reference {
            let got = traffic.rate(VmId::new(u), VmId::new(v));
            factor = factor.max(relative(got, want));
        }
        Drift {
            ledger,
            ext_load,
            factor,
            bound,
        }
    }

    fn max(self) -> f64 {
        self.ledger.max(self.ext_load).max(self.factor)
    }
}

/// `|got − want| / want`; two zeros agree, a nonzero against zero does not.
fn relative(got: f64, want: f64) -> f64 {
    if got == want {
        0.0
    } else {
        (got - want).abs() / want.abs()
    }
}

/// A live VM with at least one peer, and one of those peers.
fn live_pair(session: &Session, live: &[u32], rng: &mut StdRng) -> Option<(u32, u32)> {
    let u = live[rng.gen_range(0..live.len())];
    let peers = session.traffic().peers(VmId::new(u));
    let degree = peers.len();
    (degree > 0).then(|| {
        let (v, _) = peers.clone().nth(rng.gen_range(0..degree)).unwrap();
        (u, v.get())
    })
}

/// The run's `n`-th `ScaleAll` (from 1): one step along a diurnal
/// envelope, so every 1,000 scales the factors multiply back to 1 and
/// rates stay far from saturation.
fn scale_all(session: &mut Session, reference: &mut Reference, n: u64) {
    let envelope = |i: u64| 1.0 + 0.5 * (std::f64::consts::TAU * i as f64 / 1000.0).sin();
    let factor = envelope(n) / envelope(n - 1);
    session.apply_traffic_scale(factor).unwrap();
    for r in reference.values_mut() {
        *r = scaled_rate(*r, factor);
    }
}

fn set_rate(session: &mut Session, reference: &mut Reference, u: u32, v: u32, rate: f64) {
    session
        .apply_traffic_deltas(&[(VmId::new(u), VmId::new(v), rate)])
        .unwrap();
    if rate == 0.0 {
        reference.remove(&key(u, v));
    } else {
        reference.insert(key(u, v), rate);
    }
}

/// Drops every reference pair of `vm`, read off the session's store
/// before the VM's pairs are zeroed.
fn forget_vm(session: &Session, reference: &mut Reference, vm: u32) {
    for (peer, _) in session.traffic().peers(VmId::new(vm)) {
        reference.remove(&key(vm, peer.get()));
    }
}

#[test]
#[ignore = "drift soak: 10^7 events at 2,560 hosts; CI runs it in release under a timeout"]
fn ten_million_events_keep_every_account_within_1e9() {
    let mut scenario = Scenario::builder()
        .canonical_tree(128, 20)
        .sparse_traffic(17)
        .policy(PolicyKind::HighestLevelFirst)
        .build();
    scenario.seed = 17;
    scenario.timing.t_end_s = 1e12;
    let mut session = scenario.session().unwrap();
    let mut reference: Reference = session
        .traffic()
        .pairs()
        .iter()
        .map(|&(u, v, r)| ((u.get(), v.get()), r))
        .collect();
    let mut live: Vec<u32> = (0..session.traffic().num_vms()).collect();
    let mut rng = StdRng::seed_from_u64(17);
    let (mut scales, mut migrations, mut evacuations, mut faults) = (0u64, 0u64, 0u64, 0u64);
    let (mut placed, mut removed, mut burst) = (0u64, 0u64, 0u32);
    let mut curve = Vec::new();
    let rate = |rng: &mut StdRng| rng.gen_range(1e3..5e6);

    for event in 1..=EVENTS {
        if event % FAULT_EVERY == 0 {
            // A bounded storm: a NIC degradation, its restore, and a
            // host crash with its evacuations, once per 10^6 events.
            let fault = match (event / FAULT_EVERY) % 3 {
                1 => TraceEvent::LinkDegrade {
                    tier: 0,
                    factor: 0.8,
                },
                2 => TraceEvent::HostCrash {
                    server: live_host(&session, &live, &mut rng),
                },
                _ => TraceEvent::LinkRestore { tier: 0 },
            };
            let outcome = session.apply_fault(&fault).unwrap();
            evacuations += outcome.evacuated.len() as u64;
            for vm in outcome.unplaceable {
                let vm = vm.get();
                reference.retain(|&(u, v), _| u != vm && v != vm);
                live.retain(|&l| l != vm);
            }
            faults += 1;
        } else if burst > 0 {
            burst -= 1;
            scales += 1;
            scale_all(&mut session, &mut reference, scales);
        } else {
            match rng.gen_range(0..4000u32) {
                // Re-rate an existing pair.
                0..=999 => {
                    if let Some((u, v)) = live_pair(&session, &live, &mut rng) {
                        let r = rate(&mut rng);
                        set_rate(&mut session, &mut reference, u, v, r);
                    }
                }
                // Add a pair (or re-rate one the draw happens to hit).
                1000..=1599 => {
                    let u = live[rng.gen_range(0..live.len())];
                    let v = live[rng.gen_range(0..live.len())];
                    if u != v {
                        let r = rate(&mut rng);
                        set_rate(&mut session, &mut reference, u, v, r);
                    }
                }
                // Remove an existing pair.
                1600..=2199 => {
                    if let Some((u, v)) = live_pair(&session, &live, &mut rng) {
                        set_rate(&mut session, &mut reference, u, v, 0.0);
                    }
                }
                // Scale one existing pair.
                2200..=2399 => {
                    if let Some((u, v)) = live_pair(&session, &live, &mut rng) {
                        let factor = rng.gen_range(0.5..2.0);
                        session
                            .apply_trace_event(&TraceEvent::ScalePair { u, v, factor })
                            .unwrap();
                        let r = reference.get_mut(&key(u, v)).unwrap();
                        *r = scaled_rate(*r, factor);
                    }
                }
                // One token hold, which may migrate its holder.
                2400..=3979 => {
                    let outcome = session.step().expect("the horizon is never reached");
                    migrations += u64::from(outcome.decision.migrates());
                }
                3980..=3987 => {
                    let (vm, _) = session.place_vm(None).unwrap();
                    live.push(vm.get());
                    placed += 1;
                }
                3988..=3995 => {
                    let vm = live.swap_remove(rng.gen_range(0..live.len()));
                    forget_vm(&session, &mut reference, vm);
                    session.remove_vm(VmId::new(vm)).unwrap();
                    removed += 1;
                }
                // A run of 1–64 back-to-back `ScaleAll`s (this event the
                // first): with no absolute write between them to settle
                // it, the store's pending factor and the cached NIC
                // loads compose every factor of the run.
                _ => {
                    burst = rng.gen_range(0..64u32);
                    scales += 1;
                    scale_all(&mut session, &mut reference, scales);
                }
            }
        }
        if event % CHECK_EVERY == 0 {
            let drift = Drift::measure(&session, &reference);
            println!(
                "events {event:>9}  ledger {:.3e}  ext_load {:.3e}  factor {:.3e}  bound {:.3e}",
                drift.ledger, drift.ext_load, drift.factor, drift.bound
            );
            curve.push((event, drift));
        }
    }

    let worst = curve.iter().map(|&(_, d)| d.max()).fold(0.0, f64::max);
    println!(
        "{scales} scales, {migrations} migrations, {evacuations} evacuations, \
         {faults} faults, {placed} placed, {removed} removed, {} pairs live; \
         worst drift {worst:.3e}",
        reference.len()
    );
    for (event, drift) in &curve {
        assert!(
            drift.max() <= BOUND,
            "an account drifted past {BOUND} by event {event}: {drift:?}"
        );
    }
    assert!(scales > 0 && migrations > 0 && evacuations > 0 && placed > 0 && removed > 0);
}

/// A server that is up and hosts a live VM, so its crash evacuates.
fn live_host(session: &Session, live: &[u32], rng: &mut StdRng) -> u32 {
    let alloc = session.cluster().allocation();
    loop {
        let server = alloc.server_of(VmId::new(live[rng.gen_range(0..live.len())]));
        if session.cluster().host_is_up(server) {
            return server.get();
        }
    }
}
