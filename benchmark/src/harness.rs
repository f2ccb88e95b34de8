//! What every workload shares: the shape of one rep, the digest that
//! must repeat, and the facts recorded about the host.

use crate::spans::Tracer;
use std::collections::BTreeMap;

/// Facts a rep or a probe learned about one layer, by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// What one run of a workload did, independent of how fast: identical
/// across reps and across sets at one seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Digest {
    pub holds: u64,
    pub migrations: u64,
    pub final_cost_bits: u64,
    /// FNV-1a of the report JSON with the wall-clock `apply_ns_*`
    /// fields zeroed.
    pub report_hash: u64,
}

impl Digest {
    pub fn to_json(&self) -> String {
        format!(
            "{{\"holds\":{},\"migrations\":{},\"final_cost_bits\":\"{:016x}\",\"report_hash\":\"{:016x}\"}}",
            self.holds, self.migrations, self.final_cost_bits, self.report_hash
        )
    }
}

/// One rep of a workload.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Spec → ready-to-run.
    pub setup_s: f64,
    /// The timed body: run + report + serialize.
    pub wall_s: f64,
    /// Time inside the run call alone, the denominator of `ops_per_s`.
    pub run_s: f64,
    /// Units of work attempted (holds, delta batches, request lines).
    pub ops: u64,
    /// Units that did not complete as expected.
    pub failed: u64,
    pub cost_ratio: f64,
    pub digest: Digest,
    /// Output checks this rep failed, in words.
    pub failures: Vec<String>,
    /// Per-rep layer facts (counts, sizes, probe timings).
    pub facts: Layers,
    /// Per-request service times in nanoseconds (daemon only).
    pub latencies_ns: Vec<u32>,
}

/// A benchmark workload. `decomposed` selects the form that calls each
/// crate's public functions one by one (what the traced run times);
/// otherwise the rep makes the same calls a user of the library would.
/// Both forms must produce the same digest.
pub trait Workload {
    fn rep(&mut self, tr: &mut Tracer, decomposed: bool) -> Result<Rep, String>;

    /// Output checks that need more than one rep's data; run once,
    /// untimed, after the timed reps. Returns the failures in words.
    fn final_checks(&mut self) -> Vec<String> {
        Vec::new()
    }

    /// Layer probes of the traced run: extra passes that isolate one
    /// layer each. `run_s` is the median time inside the run call over
    /// the untraced reps.
    fn probes(&mut self, tr: &mut Tracer, run_s: f64, out: &mut Layers) -> Result<(), String>;
}

pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Peak resident set of this process in MB (`VmHWM`), 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kb / 1024.0)
        })
        .unwrap_or(0.0)
}

/// Host facts every result file carries.
pub struct HostInfo {
    pub host_cores: usize,
    pub rustc: String,
    pub commit: String,
}

impl HostInfo {
    pub fn collect() -> Self {
        let stdout_of = |program: &str, args: &[&str]| {
            std::process::Command::new(program)
                .args(args)
                .output()
                .ok()
                .filter(|o| o.status.success())
                .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        };
        HostInfo {
            host_cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc: stdout_of("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
            // Only ask git when the working directory is itself a
            // repository root, so a plain checkout never makes git walk
            // up into directories that are not ours.
            commit: std::path::Path::new(".git")
                .exists()
                .then(|| stdout_of("git", &["rev-parse", "--short", "HEAD"]))
                .flatten()
                .unwrap_or_else(|| "unknown".into()),
        }
    }
}
