//! Fig. 5a — flow-table operation times for type-1 and type-2 flow sets.
//!
//! The paper stress-tests dom0's flow table with up to one million
//! simultaneous flows: type 1 has all-unique source IPs; type 2 groups
//! 1000 flows per source IP. It reports that add/lookup/delete "all
//! require less time on a flow table with a type 2 flow set" and that a
//! realistic production workload (~100 concurrent flows) needs well under
//! 100 ms.

use score_flowtable::{paper_type2_flows, type1_flows, FlowTable};
use std::fmt::Write as _;
use std::time::Instant;

use crate::write_result;

/// Timing of one (size, type) cell.
#[derive(Debug, Clone, Copy)]
pub struct OpTiming {
    /// Number of flows.
    pub n: usize,
    /// 1 or 2.
    pub flow_type: u8,
    /// Seconds to add all `n` flows.
    pub add_s: f64,
    /// Seconds to look up all `n` flows.
    pub lookup_s: f64,
    /// Seconds to delete all `n` flows.
    pub delete_s: f64,
}

/// Flow-set sizes exercised (the paper sweeps 10⁰..10⁶).
fn paper_sizes(paper_scale: bool) -> Vec<usize> {
    if paper_scale {
        vec![1, 10, 100, 1_000, 10_000, 100_000, 1_000_000]
    } else {
        vec![1, 10, 100, 1_000, 10_000, 100_000]
    }
}

fn time_ops(keys: &[score_flowtable::FlowKey], flow_type: u8) -> OpTiming {
    let mut table = FlowTable::with_capacity(keys.len());
    let t0 = Instant::now();
    for (i, &k) in keys.iter().enumerate() {
        table.record(k, 1500, 1, i as f64 * 1e-6);
    }
    let add_s = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let mut found = 0usize;
    for k in keys {
        if table.get(k).is_some() {
            found += 1;
        }
    }
    let lookup_s = t0.elapsed().as_secs_f64();
    assert_eq!(found, keys.len(), "all inserted flows must be found");

    let t0 = Instant::now();
    for k in keys {
        table.remove(k);
    }
    let delete_s = t0.elapsed().as_secs_f64();
    assert!(table.is_empty());

    OpTiming {
        n: keys.len(),
        flow_type,
        add_s,
        lookup_s,
        delete_s,
    }
}

/// Runs the sweep and writes `fig5a_flowtable_ops.csv`.
pub fn run(paper_scale: bool) -> (Vec<OpTiming>, String) {
    let mut rows = Vec::new();
    for n in paper_sizes(paper_scale) {
        rows.push(time_ops(&type1_flows(n), 1));
        rows.push(time_ops(&paper_type2_flows(n), 2));
    }
    let mut csv = String::from("n,flow_type,add_s,lookup_s,delete_s\n");
    let mut summary = String::from("Fig. 5a — flow-table operations (seconds for N ops)\n");
    let _ = writeln!(
        summary,
        "  {:>9} {:>4} {:>10} {:>10} {:>10}",
        "N", "type", "add", "lookup", "delete"
    );
    for r in &rows {
        let _ = writeln!(
            csv,
            "{},{},{:.6},{:.6},{:.6}",
            r.n, r.flow_type, r.add_s, r.lookup_s, r.delete_s
        );
        let _ = writeln!(
            summary,
            "  {:>9} {:>4} {:>10.4} {:>10.4} {:>10.4}",
            r.n, r.flow_type, r.add_s, r.lookup_s, r.delete_s
        );
    }
    let path = write_result("fig5a_flowtable_ops.csv", &csv);
    let _ = writeln!(summary, "  -> {}", path.display());
    (rows, summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hundred_flow_workload_is_fast() {
        // The paper's claim: a realistic 100-concurrent-flow workload needs
        // well under 100 ms for any operation.
        let t1 = time_ops(&type1_flows(100), 1);
        assert!(
            t1.add_s < 0.1 && t1.lookup_s < 0.1 && t1.delete_s < 0.1,
            "{t1:?}"
        );
    }

    #[test]
    fn timings_grow_with_n() {
        let small = time_ops(&type1_flows(1_000), 1);
        let large = time_ops(&type1_flows(100_000), 1);
        assert!(large.add_s > small.add_s);
    }

    #[test]
    fn runs_and_writes_csv() {
        let (rows, summary) = run(false);
        assert_eq!(rows.len(), 2 * paper_sizes(false).len());
        assert!(summary.contains("Fig. 5a"));
    }
}
