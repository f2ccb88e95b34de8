//! `from_str` reads a typed value straight off the text
//! (`Deserialize::read_compact`); `parse_value_str` still builds the tree
//! that `from_value` and the hand-written impls read. These tests pin the
//! first to the second: over the documents the workspace puts on a wire
//! or in a file, and over every way of damaging them that could tell the
//! two apart, `from_str::<T>(s)` and `T::from_value(&parse_value_str(s)?)`
//! accept the same texts and decode them to the same value. The
//! tokenizer's own limits (nesting depth, surrogate pairs) are pinned at
//! the end.

use score_scored::{Request, Response};
use score_sim::Scenario;
use score_trace::{TimedEvent, Trace, TraceEvent};
use score_traffic::TrafficIntensity;
use serde::{Deserialize, Serialize, Value};
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Debug;

/// How a value was read before `read_compact`: text → tree → value.
fn through_the_tree<T: Deserialize>(s: &str) -> Result<T, serde::Error> {
    T::from_value(&serde_json::parse_value_str(s)?)
}

/// Asserts both readers give the same verdict on `s` — and the same
/// value, if they accept it. Returns whether they accepted.
#[track_caller]
fn agree<T: Deserialize + PartialEq + Debug>(s: &str) -> bool {
    match (serde_json::from_str::<T>(s), through_the_tree::<T>(s)) {
        (Ok(direct), Ok(tree)) => {
            assert_eq!(direct, tree, "decoded values differ on {s:?}");
            true
        }
        (Err(_), Err(_)) => false,
        (direct, tree) => panic!(
            "from_str and from_value disagree on {s:?}:\n  direct: {direct:?}\n  tree:   {tree:?}"
        ),
    }
}

/// A `Value::Str` or object key starting with this is written out as the
/// rest of it, verbatim: how a damaged token gets into a rendered tree.
const RAW: char = '\u{1}';

fn raw(text: &str) -> Value {
    Value::Str(format!("{RAW}{text}"))
}

/// Compact JSON of `v`, [`RAW`] strings spliced in as they are.
fn render(v: &Value, out: &mut String) {
    let text = |s: &str, out: &mut String| match s.strip_prefix(RAW) {
        Some(verbatim) => out.push_str(verbatim),
        None => serde::json::write_str(out, s),
    };
    match v {
        Value::Str(s) => text(s, out),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                out.push_str(if i == 0 { "" } else { "," });
                render(item, out);
            }
            out.push(']');
        }
        Value::Object(pairs) => {
            out.push('{');
            for (i, (key, item)) in pairs.iter().enumerate() {
                out.push_str(if i == 0 { "" } else { "," });
                text(key, out);
                out.push(':');
                render(item, out);
            }
            out.push('}');
        }
        scalar => serde::json::write_value(out, scalar, None, 0),
    }
}

/// Every tree that differs from `v` in exactly one node, that node
/// replaced by each of `edit(node)`.
fn one_node_edited(v: &Value, edit: &dyn Fn(&Value) -> Vec<Value>) -> Vec<Value> {
    let mut out = edit(v);
    match v {
        Value::Array(items) => {
            for (i, item) in items.iter().enumerate() {
                for edited in one_node_edited(item, edit) {
                    let mut copy = items.clone();
                    copy[i] = edited;
                    out.push(Value::Array(copy));
                }
            }
        }
        Value::Object(pairs) => {
            for (i, (_, item)) in pairs.iter().enumerate() {
                for edited in one_node_edited(item, edit) {
                    let mut copy = pairs.clone();
                    copy[i].1 = edited;
                    out.push(Value::Object(copy));
                }
            }
        }
        _ => {}
    }
    out
}

/// What a duplicated or unknown key may carry: each JSON kind, one of
/// them nested, so a skipped value is exercised as deep as a kept one.
fn junk() -> Vec<Value> {
    vec![
        Value::Null,
        Value::Int(7),
        Value::Str("x\n".into()),
        Value::Array(vec![Value::Object(vec![(
            "k".into(),
            Value::Array(vec![Value::Float(0.5), Value::Bool(true)]),
        )])]),
        // Malformed where only the skipping code looks.
        raw("[1,]"),
        raw(r#""\ud800""#),
        raw(r#"{"a" 1}"#),
        raw("1e"),
    ]
}

/// Key order, repeats, strangers, absences and spellings of one object.
fn key_games(v: &Value) -> Vec<Value> {
    let Value::Object(pairs) = v else {
        return Vec::new();
    };
    let mut out = vec![Value::Object(Vec::new())];
    let mut reversed = pairs.clone();
    reversed.reverse();
    out.push(Value::Object(reversed));
    for filler in junk() {
        for key in pairs.iter().map(|(k, _)| k.as_str()).chain(["zz", ""]) {
            let mut after = pairs.clone();
            after.push((key.to_string(), filler.clone()));
            out.push(Value::Object(after));
            let mut before = pairs.clone();
            before.insert(0, (key.to_string(), filler.clone()));
            out.push(Value::Object(before));
        }
    }
    for i in 0..pairs.len() {
        let mut without = pairs.clone();
        let (key, value) = without.remove(i);
        out.push(Value::Object(without.clone()));
        // The same key spelt with an escape, and a near miss.
        if let Some(first) = key.chars().next().filter(char::is_ascii) {
            let escaped = format!("{RAW}\"\\u{:04x}{}\"", first as u32, &key[1..]);
            let mut spelt = without.clone();
            spelt.insert(i, (escaped, value.clone()));
            out.push(Value::Object(spelt));
        }
        without.insert(i, (format!("{key} "), value));
        out.push(Value::Object(without));
    }
    out
}

/// Numbers in the other kind's position, at the edges of each width,
/// and spellings only the tokenizer can judge.
fn number_games(v: &Value) -> Vec<Value> {
    if !matches!(v, Value::Int(_) | Value::Float(_)) {
        return Vec::new();
    }
    let mut out = vec![
        Value::Int(1),
        Value::Float(1.0),
        Value::Float(1.5),
        Value::Int(-1),
        Value::Int(256),
        Value::Int(1 << 32),
        Value::Int(i128::from(u64::MAX) + 1),
        Value::Int(i128::MAX),
        Value::Null,
        Value::Str("1".into()),
        Value::Array(vec![Value::Int(1)]),
    ];
    out.extend(
        [
            "1e999",
            "-1e999",
            "-0",
            "-0.0",
            "1E2",
            "0.5e-1",
            "1e+2",
            "01",
            "1.",
            "-.5",
            ".5",
            "-",
            "+1",
            "1e",
            "1-2",
            "0x10",
            "1_000",
            "170141183460469231731687303715884105728",
            "NaN",
            "Infinity",
            "nul",
            "nullx",
            "tru",
            " 2 ",
        ]
        .map(raw),
    );
    out
}

/// Escapes, surrogate pairs and their malformations, in place of a string.
fn string_games(v: &Value) -> Vec<Value> {
    if !matches!(v, Value::Str(_)) {
        return Vec::new();
    }
    let mut out = vec![Value::Null, Value::Int(3), Value::Array(Vec::new())];
    out.extend(
        [
            r#""\u0041\ud83e\udd80\n\/\b\f\r\t\"\\ é""#,
            r#""\uD83E\uDD80""#,
            r#""\ud800""#,
            r#""\ud800x""#,
            r#""\ud800\n""#,
            r#""\ud800\u0041""#,
            r#""\ud800\ud800""#,
            r#""\ud800\u0000""#,
            r#""\udc00""#,
            r#""\udfff\ud800""#,
            r#""\u12""#,
            r#""\u12g4""#,
            r#""\u+041""#,
            r#""\x""#,
            r#""\""#,
            r#""a"#,
            r#""a\"#,
            r#""a\u00"#,
            "\"tab\tnewline\nraw\"",
            r#"'a'"#,
            r#""""#,
        ]
        .map(raw),
    );
    out
}

/// `doc` with one byte missing, overwritten or cut off — every offset.
fn byte_damage(doc: &str, out: &mut Vec<String>) {
    const OVERWRITES: &[u8] = b"\"\\{}[],:0-e.n tx";
    for at in 0..=doc.len() {
        if doc.is_char_boundary(at) {
            out.push(doc[..at].to_string());
        }
    }
    for (at, &byte) in doc.as_bytes().iter().enumerate() {
        if !byte.is_ascii() {
            continue;
        }
        out.push(format!("{}{}", &doc[..at], &doc[at + 1..]));
        for &over in OVERWRITES.iter().filter(|&&over| over != byte) {
            out.push(format!("{}{}{}", &doc[..at], over as char, &doc[at + 1..]));
        }
    }
}

/// Every text the suite derives from one well-formed document.
fn damaged(doc: &str) -> Vec<String> {
    let tree = serde_json::parse_value_str(doc).unwrap();
    let mut out = Vec::new();
    byte_damage(doc, &mut out);
    let mut pretty = String::new();
    serde::json::write_value(&mut pretty, &tree, Some(2), 0);
    out.push(format!(" \t\r\n{pretty}\n\t "));
    for garbage in ["x", "{}", ",", "]", "}", "null", "\"", "\u{a0}", "\0"] {
        out.push(format!("{doc}{garbage}"));
        out.push(format!("{doc} {garbage}"));
        out.push(format!("{garbage}{doc}"));
    }
    for games in [key_games, number_games, string_games] {
        for edited in one_node_edited(&tree, &games) {
            let mut text = String::new();
            render(&edited, &mut text);
            out.push(text);
        }
    }
    out
}

/// Runs the whole suite over `samples` of one type. The well-formed
/// documents must round-trip; of the damaged ones some must still be
/// accepted (reordered, repeated and unknown keys are), or the suite
/// would be comparing two refusals all day.
#[track_caller]
fn differential<T: Serialize + Deserialize + PartialEq + Debug>(samples: &[T]) {
    let (mut texts, mut accepted) = (0usize, 0usize);
    for sample in samples {
        let doc = serde_json::to_string(sample).unwrap();
        assert_eq!(
            serde_json::from_str::<T>(&doc).as_ref(),
            Ok(sample),
            "round trip of {doc}"
        );
        assert!(agree::<T>(&doc));
        for text in damaged(&doc) {
            texts += 1;
            accepted += usize::from(agree::<T>(&text));
        }
    }
    assert!(
        accepted > 0 && accepted < texts,
        "{accepted} of {texts} damaged texts accepted"
    );
}

const AWKWARD: &str = "q\"uote b\\ackslash \n\r\t \u{1f} é ∞ 🦀";

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Unit;

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Newtype(u32);

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Pair(i64, String);

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Empty {}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Named {
    id: Newtype,
    unit: Unit,
    pair: Pair,
    empty: Empty,
    out: Option<f64>,
    r#type: bool,
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
enum Shape {
    Unit,
    Other,
    Newtype(f64),
    Tuple(u8, Option<Box<Shape>>),
    Struct { out: String, nested: Vec<Shape> },
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
enum OnlyUnits {
    A,
    B,
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
enum OnlyTagged {
    A(u8),
    B { x: i8 },
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Containers {
    samples: Option<Vec<(u32, f64)>>,
    fixed: [u8; 2],
    queue: VecDeque<Newtype>,
    boxed: Box<Shape>,
    map: BTreeMap<u32, String>,
    letter: char,
    wide: (i128, u128, usize),
    single: (f32,),
}

fn named() -> Named {
    Named {
        id: Newtype(1),
        unit: Unit,
        pair: Pair(-2, AWKWARD.into()),
        empty: Empty {},
        out: Some(0.25),
        r#type: true,
    }
}

#[test]
fn derived_structs_read_like_the_tree() {
    differential(&[Unit]);
    differential(&[Newtype(7)]);
    differential(&[Pair(-3, "x".into())]);
    differential(&[Empty {}]);
    differential(&[
        named(),
        Named {
            out: None,
            ..named()
        },
    ]);
}

#[test]
fn derived_enums_read_like_the_tree() {
    differential(&[
        Shape::Unit,
        Shape::Other,
        Shape::Newtype(0.5),
        Shape::Tuple(9, None),
        Shape::Tuple(1, Some(Box::new(Shape::Unit))),
        Shape::Struct {
            out: AWKWARD.into(),
            nested: vec![
                Shape::Unit,
                Shape::Tuple(1, Some(Box::new(Shape::Newtype(-1e-9)))),
                Shape::Struct {
                    out: String::new(),
                    nested: Vec::new(),
                },
            ],
        },
    ]);
    differential(&[OnlyUnits::A, OnlyUnits::B]);
    differential(&[OnlyTagged::A(3), OnlyTagged::B { x: -4 }]);
    // A unit variant spelt as an object, a data-carrying one as a string.
    for text in [
        r#"{"Unit":null}"#,
        r#"{"Unit":{}}"#,
        r#""Newtype""#,
        r#"{"Newtype":0.5,"Newtype":0.5}"#,
        r#"{}"#,
        r#"[]"#,
        r#"{"A":null}"#,
        r#""B""#,
    ] {
        assert!(!agree::<Shape>(text), "{text}");
        assert!(!agree::<OnlyTagged>(text), "{text}");
    }
}

#[test]
fn std_containers_read_like_the_tree() {
    differential(&[
        Containers {
            samples: Some(vec![(1, 0.5), (u32::MAX, -2.0)]),
            fixed: [0, 255],
            queue: VecDeque::from([Newtype(1), Newtype(2)]),
            boxed: Box::new(Shape::Newtype(3.0)),
            map: [(1, "a".to_string()), (2, AWKWARD.to_string())].into(),
            letter: 'é',
            wide: (i128::MIN, 1 << 100, usize::MAX),
            single: (0.5,),
        },
        Containers {
            samples: None,
            fixed: [1, 2],
            queue: VecDeque::new(),
            boxed: Box::new(Shape::Unit),
            map: BTreeMap::new(),
            letter: '"',
            wide: (0, 0, 0),
            single: (-1.0,),
        },
    ]);
    differential(&[Some(Some(3u8)), None]);
    differential(&[vec![Some("a".to_string()), None]]);
}

#[test]
fn requests_read_like_the_tree() {
    differential(&[
        Request::Attach {
            tenant: AWKWARD.into(),
        },
        Request::Place { server: Some(3) },
        Request::Place { server: None },
        Request::Remove { vm: 7 },
        Request::Traffic {
            events: vec![
                TraceEvent::SetRate {
                    u: 0,
                    v: 1,
                    rate: 2.5e6,
                },
                TraceEvent::ScaleAll { factor: 1.25 },
            ],
        },
        Request::Fault {
            events: vec![TraceEvent::HostCrash { server: 12 }],
        },
        Request::Report,
        Request::Shutdown,
    ]);
    // The tolerant spellings `Request` takes beyond what it writes.
    for text in [
        r#"{"Place": {}}"#,
        r#"{"Place": {"server": null, "note": [1, {"a": "b"}]}}"#,
        r#"{"Place": {"server": 1, "server": "x"}}"#,
        r#"{"Remove": {"vm": 2, "vm": 3}}"#,
        r#"{"Traffic": {"x": 1, "events": []}}"#,
    ] {
        assert!(agree::<Request>(text), "{text}");
    }
    for text in [
        r#"{"Place": 7}"#,
        r#"{"Place": "rack-3"}"#,
        r#"{"Place": [1]}"#,
        r#"{"Place": null}"#,
        r#"{"Place": {"server": "x"}}"#,
        r#"{"Place": {}, "Remove": {"vm": 1}}"#,
        r#"{"Place": {}, "Place": {}}"#,
        r#"{"Report": {}}"#,
        r#"{"Report": null}"#,
        r#""Place""#,
        r#"{"Frobnicate":{}}"#,
        r#"{"Place":{"#,
        "",
    ] {
        assert!(!agree::<Request>(text), "{text}");
    }
}

#[test]
fn responses_read_like_the_tree() {
    differential(&[
        Response::Attached {
            tenant: AWKWARD.into(),
            num_vms: 32,
            now_s: 0.0,
        },
        Response::Placed {
            vm: 1,
            server: 2,
            at_s: 3.5,
        },
        Response::Faulted {
            events: 1,
            hosts_failed: 2,
            evacuations: 3,
            unplaceable: 4,
            at_s: 5.5,
        },
        Response::Report {
            json: r#"{"holds":12,"nested":{"a":[1,2]}}"#.into(),
        },
        Response::ShuttingDown,
        Response::error("bad_request", AWKWARD),
    ]);
}

#[test]
fn trace_lines_read_like_the_tree() {
    let events = [
        TraceEvent::SetRate {
            u: 0,
            v: 1,
            rate: 2.5e6,
        },
        TraceEvent::ScalePair {
            u: 2,
            v: 3,
            factor: 0.1,
        },
        TraceEvent::ScaleAll { factor: 1.0 / 3.0 },
        TraceEvent::Marker {
            label: AWKWARD.into(),
        },
        TraceEvent::PlaceVm { vm: 4, server: 5 },
        TraceEvent::RemoveVm { vm: 6 },
        TraceEvent::HostCrash { server: 7 },
        TraceEvent::RackFail { rack: 8 },
        TraceEvent::LinkDegrade {
            tier: 2,
            factor: 0.5,
        },
        TraceEvent::LinkRestore { tier: 2 },
    ];
    let lines: Vec<TimedEvent> = events
        .iter()
        .enumerate()
        .map(|(i, event)| TimedEvent {
            time_s: i as f64 * 0.5,
            event: event.clone(),
        })
        .collect();
    differential(&events);
    differential(&lines);
}

#[test]
fn a_scenario_reads_like_the_tree() {
    // `Scenario` is hand-written, so it reads through the tree either
    // way; what this pins is that the default `read_compact` is that
    // path, damage and all. One small document: the suite is quadratic
    // in its length.
    let trace = Trace::builder(4, 10.0)
        .base_pair(0, 1, 1e6)
        .event(1.0, TraceEvent::Marker { label: "m".into() })
        .build()
        .unwrap();
    differential(&[Scenario::builder().literal_trace(trace).build()]);
    let json = Scenario::small_fattree(TrafficIntensity::Dense, 9).to_json();
    assert!(agree::<Scenario>(&json));
}

/// `depth` arrays (or `{"a":` objects) around a `null`.
fn nested(depth: usize, open: &str, close: &str) -> String {
    format!("{}null{}", open.repeat(depth), close.repeat(depth))
}

/// A self-nesting type, so typed reading recurses as deep as the text.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Nest(Vec<Nest>);

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Skipper {
    keep: u8,
}

#[test]
fn nesting_stops_at_128_levels() {
    for (open, close) in [("[", "]"), (r#"{"a":"#, "}")] {
        assert!(serde_json::parse_value_str(&nested(128, open, close)).is_ok());
        assert!(serde_json::parse_value_str(&nested(129, open, close)).is_err());
        // Unclosed, as a hostile line would be: an error, not a stack
        // overflow, whichever reader meets it.
        for depth in [129, 1_000_000] {
            let hostile = open.repeat(depth);
            assert!(serde_json::parse_value_str(&hostile).is_err());
            assert!(serde_json::from_str::<Request>(&hostile).is_err());
            assert!(serde_json::from_str::<Nest>(&hostile).is_err());
            assert!(serde_json::from_str::<Skipper>(&format!(r#"{{"x":{hostile}"#)).is_err());
        }
        // The unknown-key skip counts the same levels as the tree: one
        // is spent on the struct's own object.
        let skipped = |depth| format!(r#"{{"x":{},"keep":1}}"#, nested(depth, open, close));
        assert_eq!(
            serde_json::from_str::<Skipper>(&skipped(127)),
            Ok(Skipper { keep: 1 })
        );
        assert!(agree::<Skipper>(&skipped(127)));
        assert!(!agree::<Skipper>(&skipped(128)));
    }
    // So does typed reading.
    let arrays = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
    assert!(agree::<Nest>(&arrays(128)));
    assert!(!agree::<Nest>(&arrays(129)));
}

#[test]
fn surrogate_pairs_decode_or_fail_cleanly() {
    assert_eq!(
        serde_json::from_str::<String>(r#""\ud83e\udd80""#).as_deref(),
        Ok("🦀")
    );
    // A high half followed by anything but a low half used to overflow
    // (a panic in debug builds, a wrong character in release).
    for text in [
        r#""\ud800\u0000""#,
        r#""\ud800\ud800""#,
        r#""\udbff\ue000""#,
    ] {
        assert!(serde_json::from_str::<String>(text).is_err(), "{text}");
        assert!(serde_json::parse_value_str(text).is_err(), "{text}");
    }
}
