//! In-memory spans around the calls the benchmark makes into each
//! crate. Recording happens here, in the benchmark's own files; the
//! product crates are not instrumented.
//!
//! A [`Tracer`] always *times* what it wraps — the end-to-end run needs
//! `setup_s`, `wall_s` and the time inside the run call — but it only
//! *records* spans when enabled, which is what the traced run turns on.

use crate::stats::median;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed call: `parent` is the id of the enclosing span (0 = a
/// root), ids are unique within a process and start at 1.
#[derive(Debug, Clone)]
pub struct Span {
    pub rep: u32,
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    rep: u32,
    open: Vec<u32>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that times but records nothing.
    pub fn disabled() -> Self {
        Tracer {
            enabled: false,
            epoch: Instant::now(),
            rep: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Starts the next rep; spans recorded from here on carry its index.
    pub fn next_rep(&mut self) {
        self.rep += 1;
    }

    /// Runs `f`, returning its result and its duration in seconds. When
    /// enabled, the call becomes a span under the innermost open one.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        if !self.enabled {
            let start = Instant::now();
            let out = f(self);
            return (out, start.elapsed().as_secs_f64());
        }
        let index = self.spans.len();
        let id = index as u32 + 1;
        self.spans.push(Span {
            rep: self.rep,
            id,
            parent: self.open.last().copied().unwrap_or(0),
            name,
            start_ns: 0,
            end_ns: 0,
        });
        self.open.push(id);
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = f(self);
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.open.pop();
        self.spans[index].start_ns = start_ns;
        self.spans[index].end_ns = end_ns;
        (out, (end_ns - start_ns) as f64 / 1e9)
    }

    /// Nanoseconds since the tracer was made, the clock spans use.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a span from `marks[0]` to the last mark under the
    /// innermost open span, tiled exactly by one child per consecutive
    /// pair of marks — for hot loops, where a clock read per boundary
    /// is all the caller can afford. No-op when disabled.
    pub fn record_tiled(&mut self, name: &'static str, children: &[&'static str], marks: &[u64]) {
        assert_eq!(
            children.len() + 1,
            marks.len(),
            "one child per pair of marks"
        );
        if !self.enabled {
            return;
        }
        let id = self.spans.len() as u32 + 1;
        let mut push = |id, parent, name, at: usize, to: usize| {
            self.spans.push(Span {
                rep: self.rep,
                id,
                parent,
                name,
                start_ns: marks[at],
                end_ns: marks[to],
            });
        };
        push(
            id,
            self.open.last().copied().unwrap_or(0),
            name,
            0,
            children.len(),
        );
        for (i, child) in children.iter().enumerate() {
            push(id + 1 + i as u32, id, child, i, i + 1);
        }
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Median over reps of the summed duration of the spans called
    /// `name` in each rep (0 when no rep has one).
    pub fn median_total_s(&self, name: &str) -> f64 {
        self.median_per_rep(name, |i| self.spans[i].end_ns - self.spans[i].start_ns)
    }

    /// Median over reps of the self time of the spans called `name`:
    /// duration minus what their direct children cover.
    pub fn median_self_s(&self, name: &str) -> f64 {
        let self_ns = self_times_ns(&self.spans);
        self.median_per_rep(name, |i| self_ns[i])
    }

    fn median_per_rep(&self, name: &str, ns_of: impl Fn(usize) -> u64) -> f64 {
        let mut per_rep: BTreeMap<u32, f64> = BTreeMap::new();
        for (i, s) in self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
        {
            *per_rep.entry(s.rep).or_default() += ns_of(i) as f64 / 1e9;
        }
        median(&per_rep.into_values().collect::<Vec<_>>())
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"workload\":\"{workload}\",\"rep\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.rep, s.id, s.parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of every span, index-aligned with `spans`.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if s.parent != 0 {
            let parent = s.parent as usize - 1;
            own[parent] = own[parent].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_times_without_recording() {
        let mut tr = Tracer::disabled();
        let (v, secs) = tr.time("outer", |tr| tr.time("inner", |_| 7).0);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn spans_nest_and_self_times_sum_to_the_root() {
        let mut tr = Tracer::disabled();
        tr.set_enabled(true);
        tr.next_rep();
        tr.time("body", |tr| {
            tr.time("a", |_| std::hint::black_box((0..1000).sum::<u64>()));
            tr.time("b", |tr| {
                tr.time("c", |_| ());
            });
        });
        let spans = tr.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, 0);
        assert_eq!(spans[1].parent, spans[0].id);
        assert_eq!(spans[3].parent, spans[2].id);
        for s in &spans[1..] {
            let p = &spans[s.parent as usize - 1];
            assert!(p.start_ns <= s.start_ns && s.end_ns <= p.end_ns);
        }
        let total: u64 = self_times_ns(spans).iter().sum();
        assert_eq!(total, spans[0].end_ns - spans[0].start_ns);
        assert!(tr.median_total_s("body") >= tr.median_self_s("body"));
    }

    #[test]
    fn tiled_spans_leave_their_parent_no_self_time() {
        let mut tr = Tracer::disabled();
        tr.record_tiled("request", &["parse", "apply"], &[1, 2, 3]);
        assert!(tr.spans().is_empty(), "disabled tracers record nothing");
        tr.set_enabled(true);
        tr.time("body", |tr| {
            tr.record_tiled("request", &["parse", "apply"], &[10, 14, 30]);
        });
        let spans = tr.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, spans[0].id);
        assert_eq!(
            (spans[2].parent, spans[3].parent),
            (spans[1].id, spans[1].id)
        );
        assert_eq!((spans[3].start_ns, spans[3].end_ns), (14, 30));
        assert_eq!(self_times_ns(spans)[1], 0);
    }
}
