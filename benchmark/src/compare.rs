//! `compare A.json B.json`: judges every (workload, end-to-end metric)
//! of result file B against A by the bound the benchmark fixes.

use crate::metrics::{EndToEnd, END_TO_END};
use crate::stats::{median, quartiles};
use serde_json::Value;
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Improved,
    /// The run-to-run spread is wider than the bound and the two sets
    /// of runs overlap: the data cannot tell a change from noise.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Improved => "improved",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges the samples of `b` (the change) against `a` (the parent).
pub fn judge(metric: &EndToEnd, a: &[f64], b: &[f64]) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    // Positive when B is worse.
    let worse_by = if metric.higher_is_better {
        ma - mb
    } else {
        mb - ma
    };
    if worse_by.abs() <= metric.floor || ma == 0.0 {
        return Verdict::Ok;
    }
    let relative = worse_by / ma.abs();
    let iqr = |v: &[f64]| {
        let (q1, q3) = quartiles(v);
        q3 - q1
    };
    let spread = iqr(a).max(iqr(b)) / ma.abs();
    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let max = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let (b_all_worse, b_all_better) = if metric.higher_is_better {
        (max(b) < min(a), min(b) > max(a))
    } else {
        (min(b) > max(a), max(b) < min(a))
    };
    if spread > metric.bound && !b_all_worse && !b_all_better {
        return Verdict::Unresolved;
    }
    if relative > metric.bound {
        Verdict::Regressed
    } else if relative < -metric.bound {
        Verdict::Improved
    } else {
        Verdict::Ok
    }
}

fn load(path: &Path) -> Result<Value, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    serde_json::parse_value_str(&text).map_err(|e| format!("parsing {}: {e}", path.display()))
}

fn workloads(file: &Value) -> Result<&[Value], String> {
    file.get("workloads")
        .and_then(Value::as_array)
        .ok_or_else(|| "result file has no `workloads` array".to_string())
}

fn samples(workload: &Value, metric: &str) -> Option<Vec<f64>> {
    let m = workload.get("metrics")?.get(metric)?;
    let listed: Vec<f64> = m
        .get("samples")
        .and_then(Value::as_array)
        .map(|s| s.iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default();
    if listed.is_empty() {
        Some(vec![m.get("value")?.as_f64()?])
    } else {
        Some(listed)
    }
}

fn failed_ratio(workload: &Value) -> f64 {
    let count = |key| workload.get(key).and_then(Value::as_f64).unwrap_or(0.0);
    count("failed") / count("attempted").max(1.0)
}

/// Prints the comparison table. Returns `Ok(true)` when nothing
/// regressed and no workload of B failed more often than in A.
pub fn compare_files(a: &Path, b: &Path) -> Result<bool, String> {
    let (file_a, file_b) = (load(a)?, load(b)?);
    let mut clean = true;
    println!(
        "{:<20} {:<12} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "change", "bound"
    );
    for wa in workloads(&file_a)? {
        let name = wa.get("name").and_then(Value::as_str).unwrap_or("?");
        let Some(wb) = workloads(&file_b)?
            .iter()
            .find(|w| w.get("name").and_then(Value::as_str) == Some(name))
        else {
            println!("{name:<20} missing from B");
            clean = false;
            continue;
        };
        for metric in &END_TO_END {
            let (Some(sa), Some(sb)) = (samples(wa, metric.name), samples(wb, metric.name)) else {
                continue;
            };
            let verdict = judge(metric, &sa, &sb);
            clean &= verdict != Verdict::Regressed;
            let (ma, mb) = (median(&sa), median(&sb));
            let ((a1, a3), (b1, b3)) = (quartiles(&sa), quartiles(&sb));
            println!(
                "{name:<20} {:<12} {ma:>14.6} {mb:>14.6} {:>+7.2}% {:>5.1}%  {}  \
                 A[{a1:.6}, {a3:.6}] n={}  B[{b1:.6}, {b3:.6}] n={}",
                metric.name,
                (mb - ma) / ma * 100.0,
                metric.bound * 100.0,
                verdict.label(),
                sa.len(),
                sb.len(),
            );
        }
        let (fa, fb) = (failed_ratio(wa), failed_ratio(wb));
        if fb > fa {
            println!("{name:<20} failed_ratio rose from {fa} to {fb}");
            clean = false;
        }
        if wa.get("digest") != wb.get("digest") {
            println!("{name:<20} sim_digest differs: the two runs did not do the same work");
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::end_to_end;

    fn metric(name: &str) -> &'static EndToEnd {
        end_to_end(name).unwrap()
    }

    #[test]
    fn direction_decides_what_worse_means() {
        let wall = metric("wall_s");
        assert_eq!(judge(wall, &[1.0; 3], &[1.3; 3]), Verdict::Regressed);
        assert_eq!(judge(wall, &[1.0; 3], &[0.7; 3]), Verdict::Improved);
        assert_eq!(judge(wall, &[1.0; 3], &[1.1; 3]), Verdict::Ok);
        let ops = metric("ops_per_s");
        assert_eq!(judge(ops, &[100.0; 3], &[70.0; 3]), Verdict::Regressed);
        assert_eq!(judge(ops, &[100.0; 3], &[130.0; 3]), Verdict::Improved);
        assert_eq!(judge(ops, &[100.0; 3], &[90.0; 3]), Verdict::Ok);
    }

    #[test]
    fn absolute_floor_overrides_the_percentage() {
        let setup = metric("setup_s");
        // 4 ms → 8 ms doubles, but stays under the 10 ms floor.
        assert_eq!(judge(setup, &[0.004; 3], &[0.008; 3]), Verdict::Ok);
        // 0.5 s → 0.7 s is +40 % and 200 ms.
        assert_eq!(judge(setup, &[0.5; 3], &[0.7; 3]), Verdict::Regressed);
    }

    #[test]
    fn wide_overlapping_runs_are_unresolved() {
        let wall = metric("wall_s");
        let noisy_a = [0.6, 0.8, 1.0, 1.2, 1.5];
        let noisy_b = [0.9, 1.1, 1.3, 1.5, 1.8];
        assert_eq!(judge(wall, &noisy_a, &noisy_b), Verdict::Unresolved);
        // Equally wide, but every run of B is slower than every run of A.
        let apart = [1.7, 1.9, 2.0, 2.2, 2.5];
        assert_eq!(judge(wall, &noisy_a, &apart), Verdict::Regressed);
        let faster = [0.2, 0.3, 0.4, 0.4, 0.5];
        assert_eq!(judge(wall, &noisy_a, &faster), Verdict::Improved);
    }

    #[test]
    fn single_sample_metrics_compare_by_value() {
        let heap = metric("peak_heap_mb");
        assert_eq!(judge(heap, &[229.0], &[229.0]), Verdict::Ok);
        assert_eq!(judge(heap, &[229.0], &[236.0]), Verdict::Ok);
        assert_eq!(judge(heap, &[229.0], &[245.0]), Verdict::Regressed);
    }
}
