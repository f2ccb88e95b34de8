//! JSONL persistence for traces: one header line (population, duration,
//! base TM) followed by one JSON object per event. The line-oriented
//! format appends cleanly (a recorder can stream events as they happen)
//! and diffs readably, unlike a single nested document.
//!
//! ```text
//! {"num_vms":4,"end_s":100.0,"base":[[0,1,2000000.0]]}
//! {"time_s":25.0,"event":{"SetRate":{"u":0,"v":1,"rate":8000000.0}}}
//! {"time_s":50.0,"event":{"Marker":{"label":"evening"}}}
//! ```
//!
//! A file is written whole only by [`replace_file`] ([`Trace::save`]),
//! so a crash leaves the old file or the new one, never a prefix. An
//! append-only log written a line at a time may still end in a torn
//! line; [`Trace::load_log`] drops it.

use crate::trace::{TimedEvent, Trace, TraceError};
use serde::{Deserialize, Serialize};
use std::fs::File;
use std::io::Write as _;
use std::path::Path;

/// The first line of a JSONL trace stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct TraceHeader {
    num_vms: u32,
    end_s: f64,
    base: Vec<(u32, u32, f64)>,
}

/// Appends one JSONL line per event to `out`: the lines
/// [`Trace::to_jsonl`] writes after its header, for a writer that streams
/// them as they are recorded.
pub fn write_event_lines(out: &mut String, events: &[TimedEvent]) {
    for ev in events {
        ev.write_compact(out);
        out.push('\n');
    }
}

/// Replaces the file at `path` with `contents` in one atomic step: the
/// bytes go to the sibling `<name>.tmp`, which is synced and renamed over
/// `path`, and the directory is synced so the rename survives a crash. A
/// reader, or a restart after a crash, finds the old file or the new one.
/// A `path` that names something other than a regular file (a device
/// such as `/dev/stdout`, a pipe) holds no contents to lose and is
/// written through instead.
///
/// # Errors
///
/// Propagates I/O errors. Whatever fails, a regular file at `path` holds
/// its old contents or the new ones, whole.
pub fn replace_file(path: &Path, contents: &[u8]) -> std::io::Result<()> {
    if std::fs::metadata(path).is_ok_and(|m| !m.is_file()) {
        return std::fs::write(path, contents);
    }
    let mut tmp_name = path.file_name().unwrap_or_default().to_os_string();
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    let written = File::create(&tmp).and_then(|mut file| {
        file.write_all(contents)?;
        file.sync_all()
    });
    if let Err(e) = written.and_then(|()| std::fs::rename(&tmp, path)) {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    File::open(dir)?.sync_all()
}

impl Trace {
    /// Serializes the trace to JSONL (header line + one line per event).
    pub fn to_jsonl(&self) -> String {
        let header = TraceHeader {
            num_vms: self.num_vms(),
            end_s: self.end_s(),
            base: self.base().to_vec(),
        };
        let mut out = String::new();
        header.write_compact(&mut out);
        out.push('\n');
        write_event_lines(&mut out, self.events());
        out
    }

    /// Parses a trace from JSONL, validating the result.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Parse`] on malformed lines and the usual
    /// validation errors on semantically invalid streams. Blank lines
    /// are skipped.
    pub fn from_jsonl(text: &str) -> Result<Self, TraceError> {
        let mut lines = text
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty());
        let (line, header_text) = lines.next().ok_or(TraceError::Parse {
            line: 1,
            reason: "empty stream".into(),
        })?;
        let header: TraceHeader =
            serde_json::from_str(header_text).map_err(|e| TraceError::Parse {
                line: line + 1,
                reason: e.to_string(),
            })?;
        let mut events = Vec::new();
        for (line, text) in lines {
            let ev: TimedEvent = serde_json::from_str(text).map_err(|e| TraceError::Parse {
                line: line + 1,
                reason: e.to_string(),
            })?;
            events.push(ev);
        }
        Trace::new(header.num_vms, header.end_s, header.base, events)
    }

    /// Writes the trace as JSONL to `path`, replacing any file there in
    /// one atomic step ([`replace_file`]).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        replace_file(path, self.to_jsonl().as_bytes())
    }

    /// Loads and validates a JSONL trace from `path`.
    ///
    /// # Errors
    ///
    /// Returns an I/O error as `TraceError::Parse` on unreadable files,
    /// and the usual parse/validation errors otherwise.
    pub fn load(path: &Path) -> Result<Self, TraceError> {
        let text = std::fs::read_to_string(path).map_err(|e| unreadable(path, e))?;
        Trace::from_jsonl(&text)
    }

    /// Loads an append-only JSONL log, which a crash may have left in
    /// the middle of an append: every byte after the last newline is a
    /// torn line and is dropped, and the whole lines before it load as
    /// [`Trace::load`] would load them. A log without a whole header line
    /// is an error.
    ///
    /// # Errors
    ///
    /// As [`Trace::load`], plus [`TraceError::Parse`] when the whole
    /// lines are not UTF-8.
    pub fn load_log(path: &Path) -> Result<Self, TraceError> {
        let mut bytes = std::fs::read(path).map_err(|e| unreadable(path, e))?;
        let whole = bytes
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |last| last + 1);
        bytes.truncate(whole);
        let text = String::from_utf8(bytes).map_err(|e| TraceError::Parse {
            line: 0,
            reason: format!("{} is not UTF-8: {e}", path.display()),
        })?;
        Trace::from_jsonl(&text)
    }
}

/// The parse error [`Trace::load`] and [`Trace::load_log`] report for a
/// file they cannot read.
fn unreadable(path: &Path, e: std::io::Error) -> TraceError {
    TraceError::Parse {
        line: 0,
        reason: format!("cannot read {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceEvent;

    fn sample() -> Trace {
        Trace::builder(6, 300.0)
            .base_pair(0, 1, 2e6)
            .base_pair(3, 4, 5e5)
            .set_rate(50.0, 0, 1, 8e6)
            .scale_pair(100.0, 3, 4, 2.0)
            .event(
                150.0,
                TraceEvent::Marker {
                    label: "evening".into(),
                },
            )
            .scale_all(200.0, 0.25)
            .build()
            .unwrap()
    }

    #[test]
    fn jsonl_round_trip_is_identity() {
        let t = sample();
        let text = t.to_jsonl();
        assert_eq!(text.lines().count(), 1 + t.num_events());
        let back = Trace::from_jsonl(&text).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn blank_lines_are_tolerated() {
        let t = sample();
        let padded = t.to_jsonl().replace('\n', "\n\n");
        assert_eq!(Trace::from_jsonl(&padded).unwrap(), t);
    }

    #[test]
    fn malformed_lines_carry_line_numbers() {
        let mut text = sample().to_jsonl();
        text.push_str("not json\n");
        match Trace::from_jsonl(&text) {
            Err(TraceError::Parse { line, .. }) => assert_eq!(line, 6),
            other => panic!("expected parse error, got {other:?}"),
        }
        assert!(matches!(
            Trace::from_jsonl(""),
            Err(TraceError::Parse { line: 1, .. })
        ));
    }

    #[test]
    fn invalid_streams_fail_validation() {
        // Duration tampered to zero.
        let text = sample().to_jsonl().replacen("300.0", "0.0", 1);
        assert!(matches!(
            Trace::from_jsonl(&text),
            Err(TraceError::BadDuration(_))
        ));
    }

    #[test]
    fn save_and_load() {
        let t = sample();
        let path = std::env::temp_dir().join("score_trace_test.jsonl");
        std::fs::write(
            &path,
            "an older, longer file that the save replaces whole\n".repeat(40),
        )
        .unwrap();
        t.save(&path).unwrap();
        let back = Trace::load(&path).unwrap();
        assert_eq!(back, t);
        assert!(!path.with_file_name("score_trace_test.jsonl.tmp").exists());
        std::fs::remove_file(&path).ok();
        assert!(Trace::load(&path).is_err());
    }

    #[test]
    fn a_log_loads_its_whole_lines_and_drops_a_torn_tail() {
        let t = sample();
        let text = t.to_jsonl();
        let path =
            std::env::temp_dir().join(format!("score_trace_log_{}.jsonl", std::process::id()));
        let last_line = text[..text.len() - 1].rfind('\n').unwrap() + 1;
        for (cut, events) in [
            (text.len(), 4),
            (text.len() - 1, 3),
            (last_line + 5, 3),
            (last_line, 3),
        ] {
            std::fs::write(&path, &text.as_bytes()[..cut]).unwrap();
            let loaded = Trace::load_log(&path).unwrap();
            assert_eq!(loaded.events(), &t.events()[..events], "cut at {cut}");
        }
        let header = text.find('\n').unwrap();
        for cut in [0, header] {
            std::fs::write(&path, &text.as_bytes()[..cut]).unwrap();
            assert!(
                Trace::load_log(&path).is_err(),
                "a torn header at {cut} loaded"
            );
        }
        std::fs::remove_file(&path).ok();
    }
}
