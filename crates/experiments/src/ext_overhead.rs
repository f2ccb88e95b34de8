//! Extension experiment: control-plane overhead, measured from the ring.
//!
//! The paper argues S-CORE's coordination is cheap: the token is 5 bytes
//! per VM (§V-B2), and per decision the holder resolves each peer's
//! location (§V-B4) and probes the capacity of each candidate server
//! (§V-B5). This experiment runs one token iteration — `n` holds of
//! `Session::step` — at increasing DC scale and sums, over those holds,
//! the token bytes passed on, the location probes (the holder's peers)
//! and the capacity probes (the candidates its decision evaluated). It
//! expresses the total as transmission time on a 1 Gb/s control network.
//! The token grows linearly with the VM count; an iteration passes it
//! once per VM, so an iteration's bytes grow quadratically.
//!
//! The capacity probes counted are the ones the paper's protocol sends,
//! one per ranked candidate. The simulator itself calls `can_host` only
//! on a candidate whose score could make it the choice: that saving is
//! the simulator's, not the protocol's wire's.

use score_core::Token;
use score_sim::{Scenario, TimingSpec};
use score_topology::VmId;
use std::fmt::Write as _;

use crate::write_result;

/// Bytes of one location exchange: an 8 B request naming the peer VM
/// and an 8 B reply carrying the address of its host's dom0.
const LOCATION_EXCHANGE_BYTES: u64 = 16;

/// Bytes of one capacity exchange: an 8 B request and a 12 B reply
/// carrying the host's free slots and free RAM.
const CAPACITY_EXCHANGE_BYTES: u64 = 20;

/// Overhead for one population size.
#[derive(Debug, Clone, Copy)]
pub struct OverheadPoint {
    /// VM population.
    pub vms: u32,
    /// Token wire size in bytes.
    pub token_bytes: usize,
    /// Location probes sent in the iteration: the holders' peer counts.
    pub location_probes: u64,
    /// Capacity probes sent in the iteration: the candidate servers the
    /// holders' decisions evaluated, one probe each as the paper's
    /// protocol sends them.
    pub capacity_probes: u64,
    /// Control bytes for one full iteration (token passes + probes).
    pub iteration_bytes: u64,
    /// Seconds to transmit those bytes at 1 Gb/s.
    pub iteration_tx_s: f64,
}

/// The scenario measured at `vms` VMs: a canonical tree of `vms / 40`
/// racks × 20 hosts at 2 VMs per host, a sparse TM, HLF, and a horizon
/// that fits one iteration twice over.
pub(crate) fn scenario(vms: u32) -> Scenario {
    let timing = TimingSpec::paper_default();
    let hold_s = timing.token_hold_s + timing.token_pass_s;
    Scenario::builder()
        .canonical_tree(vms / 40, 20)
        .sparse_traffic(7)
        .seed(7)
        .horizon(2.0 * f64::from(vms) * hold_s)
        .build()
}

/// Runs one iteration of [`scenario`]`(vms)` and sums its control traffic.
fn measure(vms: u32) -> OverheadPoint {
    let mut session = scenario(vms).session().expect("scenario is feasible");
    let holds = session.cluster().num_vms();
    // Fault-free, the membership is fixed: every hop carries this token.
    let token_bytes = Token::for_vms((0..holds).map(VmId::new)).encoded_len();
    let (mut location_probes, mut capacity_probes) = (0u64, 0u64);
    for _ in 0..holds {
        let outcome = session.step().expect("the horizon fits one iteration");
        location_probes += session.traffic().degree(outcome.holder) as u64;
        capacity_probes += outcome.decision.evaluated as u64;
    }
    let iteration_bytes = u64::from(holds) * token_bytes as u64
        + location_probes * LOCATION_EXCHANGE_BYTES
        + capacity_probes * CAPACITY_EXCHANGE_BYTES;
    OverheadPoint {
        vms,
        token_bytes,
        location_probes,
        capacity_probes,
        iteration_bytes,
        iteration_tx_s: iteration_bytes as f64 * 8.0 / 1e9,
    }
}

/// Runs the measurement and writes `ext_control_overhead.csv`.
pub fn run(paper_scale: bool) -> (Vec<OverheadPoint>, String) {
    let sizes: &[u32] = if paper_scale {
        &[1_000, 10_000, 100_000, 1_000_000]
    } else {
        &[1_000, 10_000, 100_000]
    };
    let mut csv = String::from(
        "vms,token_bytes,location_probes,capacity_probes,iteration_bytes,iteration_tx_s\n",
    );
    let mut summary = String::from("Extension — control-plane overhead per iteration\n");
    let _ = writeln!(
        summary,
        "  {:>9} {:>12} {:>12} {:>12} {:>16} {:>14}",
        "VMs", "token (B)", "loc. probes", "cap. probes", "iteration (B)", "tx @1Gb/s (s)"
    );
    let points: Vec<OverheadPoint> = sizes.iter().map(|&n| measure(n)).collect();
    for p in &points {
        let _ = writeln!(
            csv,
            "{},{},{},{},{},{:.4}",
            p.vms,
            p.token_bytes,
            p.location_probes,
            p.capacity_probes,
            p.iteration_bytes,
            p.iteration_tx_s
        );
        let _ = writeln!(
            summary,
            "  {:>9} {:>12} {:>12} {:>12} {:>16} {:>14.3}",
            p.vms,
            p.token_bytes,
            p.location_probes,
            p.capacity_probes,
            p.iteration_bytes,
            p.iteration_tx_s
        );
    }
    let big = points.last().expect("at least one size");
    let _ = writeln!(
        summary,
        "  (the token grows linearly at 5 B/VM; an iteration passes it once per VM, \
         so its bytes grow quadratically: {:.0} s of one 1 Gb/s link at {} VMs)",
        big.iteration_tx_s, big.vms
    );
    let path = write_result("ext_control_overhead.csv", &csv);
    let _ = writeln!(summary, "  -> {}", path.display());
    (points, summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_is_linear_and_an_iteration_is_quadratic() {
        let (points, summary) = run(false);
        assert_eq!(points.len(), 3);
        for p in &points {
            assert_eq!(p.token_bytes, p.vms as usize * 5, "5 bytes per VM");
            assert!(p.location_probes > 0 && p.capacity_probes > 0);
        }
        // n hops of a 5n-byte token: 10x VMs → ~100x iteration bytes.
        for pair in points.windows(2) {
            let growth = pair[1].iteration_bytes as f64 / pair[0].iteration_bytes as f64;
            assert!(
                (90.0..=110.0).contains(&growth),
                "{} → {} VMs multiplies iteration bytes by {growth:.1}",
                pair[0].vms,
                pair[1].vms
            );
        }
        let big = points.last().unwrap();
        assert!(
            big.iteration_tx_s < 600.0,
            "100k-VM iteration transmits in {:.0} s",
            big.iteration_tx_s
        );
        assert!(summary.contains("grow quadratically"));
    }
}
