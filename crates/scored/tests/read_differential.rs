//! Differential oracle for the request path's reader, on random input:
//! `serde_json::from_str::<T>` (fields read straight off the text) and
//! `T::from_value(&parse_value_str(..)?)` (the tree every line went
//! through before) must accept the same lines and decode them to the
//! same value — for random protocol values as they are serialized, and
//! after random damage. `shims/serde_json/tests/read.rs` walks the same
//! oracle exhaustively over a fixed corpus; this one brings the breadth.

use proptest::prelude::*;
use score_scored::{Request, Response};
use score_trace::{TimedEvent, TraceEvent};
use serde::{Deserialize, Serialize, Value};
use std::fmt::Debug;

/// Tenant names, marker labels and payload strings: the JSON-significant
/// characters, escapes-to-be, and text beyond ASCII and the BMP.
fn any_text() -> impl Strategy<Value = String> {
    const ALPHABET: [&str; 16] = [
        "a", "Z", "0", " ", "\"", "\\", "/", "\n", "\t", "\u{1}", "{", "]", ",", ":", "é", "🦀",
    ];
    prop::collection::vec(0usize..ALPHABET.len(), 0..8)
        .prop_map(|picks| picks.into_iter().map(|i| ALPHABET[i]).collect())
}

/// Rates and factors: zeros, negatives, integers-as-floats, the extremes.
fn any_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        -1e9f64..1e9,
        0.0f64..1.0,
        (0u8..8).prop_map(|i| [
            0.0,
            -0.0,
            1.0,
            1e300,
            -1e-300,
            f64::MAX,
            5e-324,
            4294967296.0
        ][usize::from(i)]),
    ]
}

fn any_u32() -> impl Strategy<Value = u32> {
    prop_oneof![0u32..8, 0u32..100_000, Just(u32::MAX)]
}

fn any_event() -> impl Strategy<Value = TraceEvent> {
    prop_oneof![
        (any_u32(), any_u32(), any_f64()).prop_map(|(u, v, rate)| TraceEvent::SetRate {
            u,
            v,
            rate
        }),
        (any_u32(), any_u32(), any_f64()).prop_map(|(u, v, factor)| TraceEvent::ScalePair {
            u,
            v,
            factor
        }),
        any_f64().prop_map(|factor| TraceEvent::ScaleAll { factor }),
        any_text().prop_map(|label| TraceEvent::Marker { label }),
        (any_u32(), any_u32()).prop_map(|(vm, server)| TraceEvent::PlaceVm { vm, server }),
        any_u32().prop_map(|vm| TraceEvent::RemoveVm { vm }),
        any_u32().prop_map(|server| TraceEvent::HostCrash { server }),
        any_u32().prop_map(|rack| TraceEvent::RackFail { rack }),
        (0u32..4, any_f64()).prop_map(|(tier, factor)| TraceEvent::LinkDegrade { tier, factor }),
        (0u32..4).prop_map(|tier| TraceEvent::LinkRestore { tier }),
    ]
}

fn any_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        any_text().prop_map(|tenant| Request::Attach { tenant }),
        any_u32().prop_map(|server| Request::Place {
            server: Some(server)
        }),
        Just(Request::Place { server: None }),
        any_u32().prop_map(|vm| Request::Remove { vm }),
        prop::collection::vec(any_event(), 0..5).prop_map(|events| Request::Traffic { events }),
        prop::collection::vec(any_event(), 0..3).prop_map(|events| Request::Fault { events }),
        (0u8..6).prop_map(|i| [
            Request::Report,
            Request::Stats,
            Request::Pause,
            Request::Resume,
            Request::Subscribe,
            Request::Shutdown
        ][usize::from(i)]
        .clone()),
    ]
}

fn any_response() -> impl Strategy<Value = Response> {
    prop_oneof![
        (any_text(), any_u32(), any_f64()).prop_map(|(tenant, num_vms, now_s)| {
            Response::Attached {
                tenant,
                num_vms,
                now_s,
            }
        }),
        (any_u32(), any_u32(), any_f64()).prop_map(|(vm, server, at_s)| Response::Placed {
            vm,
            server,
            at_s
        }),
        (any_u32(), any_f64()).prop_map(|(vm, at_s)| Response::Removed { vm, at_s }),
        (any_u32(), any_u32(), any_f64()).prop_map(|(events, n, at_s)| Response::Faulted {
            events,
            hosts_failed: n,
            evacuations: u64::from(n) << 20,
            unplaceable: u64::MAX,
            at_s,
        }),
        (any_u32(), any_f64()).prop_map(|(events, at_s)| Response::Applied {
            events,
            pairs_changed: u64::from(events) * 3,
            at_s,
        }),
        // A JSON document carried as a string: every `"` escaped.
        any_request().prop_map(|req| Response::Report {
            json: serde_json::to_string(&req).unwrap()
        }),
        any_text().prop_map(|line| Response::Trace { line }),
        Just(Response::ShuttingDown),
        (any_text(), any_text()).prop_map(|(code, message)| Response::Error { code, message }),
    ]
}

/// One way of damaging a line, steered by `seed`.
fn damage(line: &str, kind: u8, seed: usize) -> String {
    const OVERWRITES: &[u8] = b"\"\\{}[],:0-e.n tx";
    let boundary = |mut at: usize| {
        while !line.is_char_boundary(at) {
            at -= 1;
        }
        at
    };
    let at = boundary(seed % (line.len() + 1));
    let rest = line[at..].chars().next().map_or(at, |c| at + c.len_utf8());
    let over = OVERWRITES[seed / 7 % OVERWRITES.len()] as char;
    match kind {
        0 => line.to_string(),
        1 => line[..at].to_string(),
        2 => format!("{}{over}{}", &line[..at], &line[rest..]),
        3 => format!("{}{}", &line[..at], &line[rest..]),
        4 => format!("{}{over}{}", &line[..at], &line[at..]),
        5 => format!(" \t{line}\r\n"),
        6 => format!("{line}{over}"),
        _ => {
            // Object keys reversed everywhere, and in one object the first
            // key repeated last with a value of the wrong type or a
            // stranger key in front: a struct shrugs both off, an enum's
            // one-tag object must refuse them — either way, both readers.
            let mut tree = serde_json::parse_value_str(line).unwrap();
            let mut objects = 0;
            shuffle_keys(&mut tree, &mut objects, usize::MAX);
            shuffle_keys(&mut tree, &mut 0, seed % objects.max(1));
            let mut shuffled = String::new();
            serde::json::write_value(&mut shuffled, &tree, None, 0);
            shuffled
        }
    }
}

/// Reverses every object's keys, counting the objects in `seen`; the
/// `chosen`-th also gets a repeat of its first key and a stranger.
fn shuffle_keys(v: &mut Value, seen: &mut usize, chosen: usize) {
    match v {
        Value::Array(items) => items
            .iter_mut()
            .for_each(|item| shuffle_keys(item, seen, chosen)),
        Value::Object(pairs) => {
            pairs.reverse();
            if *seen == chosen {
                if let Some((key, _)) = pairs.first().cloned() {
                    pairs.push((key, Value::Array(vec![Value::Null])));
                }
                if chosen.is_multiple_of(2) {
                    pairs.insert(0, ("stranger".into(), Value::Object(Vec::new())));
                }
            }
            *seen += 1;
            pairs
                .iter_mut()
                .for_each(|(_, item)| shuffle_keys(item, seen, chosen));
        }
        _ => {}
    }
}

/// Both readers on `line`: the same verdict, the same value.
fn check<T: Deserialize + PartialEq + Debug>(line: &str) -> Result<(), String> {
    let direct = serde_json::from_str::<T>(line);
    let tree = serde_json::parse_value_str(line).and_then(|tree| T::from_value(&tree));
    match (&direct, &tree) {
        (Ok(a), Ok(b)) if a == b => Ok(()),
        (Err(_), Err(_)) => Ok(()),
        _ => Err(format!(
            "readers disagree on {line:?}: direct {direct:?}, tree {tree:?}"
        )),
    }
}

/// The serialized value round-trips, and every damaged form of its line
/// gets the same treatment from both readers.
fn differential<T>(value: &T, damages: &[(u8, usize)]) -> Result<(), String>
where
    T: Serialize + Deserialize + PartialEq + Debug,
{
    let line = serde_json::to_string(value).unwrap();
    let back = serde_json::from_str::<T>(&line);
    prop_assert_eq!(back.as_ref(), Ok(value));
    for &(kind, seed) in damages {
        check::<T>(&damage(&line, kind, seed))?;
    }
    Ok(())
}

fn any_damages() -> impl Strategy<Value = Vec<(u8, usize)>> {
    prop::collection::vec((0u8..8, 0usize..1 << 20), 24)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn requests_read_the_same_either_way(req in any_request(), damages in any_damages()) {
        differential(&req, &damages)?;
    }

    #[test]
    fn responses_read_the_same_either_way(resp in any_response(), damages in any_damages()) {
        differential(&resp, &damages)?;
    }

    #[test]
    fn trace_lines_read_the_same_either_way(
        time_s in any_f64(),
        event in any_event(),
        damages in any_damages(),
    ) {
        differential(&event, &damages)?;
        differential(&TimedEvent { time_s, event }, &damages)?;
    }
}
