//! `to_string` writes compact JSON straight into the output string
//! (`Serialize::write_compact`); `to_value` still builds the tree that
//! `to_string_pretty`, `Deserialize` and the hand-written impls use. These
//! tests pin the first to the compact rendering of the second, shape by
//! shape for the derive and type by type for everything the workspace
//! puts on a wire or in a results file.

use score_scored::Response;
use score_sim::{
    ForecastStats, MatrixReport, PolicyKind, RecoveryStats, RunReport, Scenario, ScenarioMatrix,
};
use score_trace::{Trace, TraceEvent};
use score_traffic::TrafficIntensity;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt::Debug;

/// The compact rendering of `x.to_value()`.
fn tree_json<T: Serialize>(x: &T) -> String {
    let mut out = String::new();
    serde::json::write_value(&mut out, &x.to_value(), None, 0);
    out
}

/// Asserts the streamed bytes equal the tree's, and returns them.
fn streamed<T: Serialize + Debug>(x: &T) -> String {
    let json = serde_json::to_string(x).unwrap();
    assert_eq!(json, tree_json(x), "{x:?}");
    json
}

const AWKWARD: &str = "q\"uote b\\ackslash \n\r\t \u{1}\u{1f} é ∞ 🦀";
/// `AWKWARD` as JSON must spell it.
const AWKWARD_JSON: &str = r#""q\"uote b\\ackslash \n\r\t \u0001\u001f é ∞ 🦀""#;

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
    Newtype(f64),
    Tuple(u8, Option<Box<Shape>>),
    Struct { out: String, nested: Vec<Shape> },
}

#[test]
fn derived_shapes_stream_like_the_tree() {
    assert_eq!(streamed(&Unit), "null");
    assert_eq!(streamed(&Newtype(7)), "7");
    assert_eq!(streamed(&Pair(-3, "x".into())), r#"[-3,"x"]"#);
    assert_eq!(streamed(&Empty {}), "{}");
    let named = Named {
        id: Newtype(1),
        unit: Unit,
        pair: Pair(2, AWKWARD.into()),
        empty: Empty {},
        out: None,
        r#type: true,
    };
    let json = streamed(&named);
    assert_eq!(
        json,
        format!(
            r#"{{"id":1,"unit":null,"pair":[2,{AWKWARD_JSON}],"empty":{{}},"out":null,"r#type":true}}"#
        )
    );
    assert_eq!(serde_json::from_str::<Named>(&json).unwrap(), named);

    assert_eq!(streamed(&Shape::Unit), r#""Unit""#);
    assert_eq!(streamed(&Shape::Newtype(0.5)), r#"{"Newtype":0.5}"#);
    assert_eq!(streamed(&Shape::Tuple(9, None)), r#"{"Tuple":[9,null]}"#);
    let nested = Shape::Struct {
        out: AWKWARD.into(),
        nested: vec![
            Shape::Unit,
            Shape::Tuple(1, Some(Box::new(Shape::Newtype(f64::NAN)))),
            Shape::Struct {
                out: String::new(),
                nested: Vec::new(),
            },
        ],
    };
    let json = streamed(&nested);
    assert!(json.ends_with(
        r#""nested":["Unit",{"Tuple":[1,{"Newtype":null}]},{"Struct":{"out":"","nested":[]}}]}}"#
    ));
}

#[test]
fn std_impls_stream_like_the_tree() {
    assert_eq!(
        streamed(&(1u128 << 100, i128::MIN, -1i8, usize::MAX)),
        format!("[{},{},-1,{}]", 1u128 << 100, i128::MIN, usize::MAX)
    );
    assert_eq!(
        streamed(&[0.1f64 + 0.2, 1e300, -0.0, 5e-324, 1.0, f64::INFINITY]),
        "[0.30000000000000004,1e300,-0.0,5e-324,1.0,null]"
    );
    assert_eq!(streamed(&0.1f32), "0.10000000149011612");
    assert_eq!(
        streamed(&(true, 'é', '"', AWKWARD)),
        tree_json(&(true, "é", "\"", AWKWARD))
    );
    assert_eq!(streamed(&Some(Some(3u8))), "3");
    assert_eq!(streamed(&Vec::<u8>::new()), "[]");
    assert_eq!(streamed(&VecDeque::from([(1u8,), (2,)])), "[[1],[2]]");
    assert_eq!(streamed(&&[Box::new(1u8), Box::new(2)][..]), "[1,2]");
    assert_eq!(
        streamed(&(1u8, (2u8, 3u8), [4u8; 2], "5", 6.5f64)),
        r#"[1,[2,3],[4,4],"5",6.5]"#
    );
    // Maps keep the tree path (they sort by rendered key).
    let hash: HashMap<(u32, u32), f64> = (0..40).map(|i| ((i * 7 % 11, i), f64::from(i))).collect();
    let btree: BTreeMap<String, Vec<Shape>> = [(AWKWARD.to_string(), vec![Shape::Unit])].into();
    streamed(&(hash, btree));
}

fn small_report() -> RunReport {
    let mut session = Scenario::small_fattree(TrafficIntensity::Medium, 5)
        .session()
        .unwrap();
    session.run(2);
    session.report()
}

#[test]
fn run_report_streams_like_the_tree() {
    let mut report = small_report();
    assert!(!report.migrations.is_empty() && !report.link_utilization.core.is_empty());
    let json = streamed(&report);
    assert_eq!(RunReport::from_json(&json).unwrap(), report);

    // Non-finite samples become `null`; non-default forecast/recovery
    // blocks and an empty migration list keep their shape.
    report.cost_series.push((f64::NAN, f64::INFINITY));
    report.final_cost = f64::NEG_INFINITY;
    report.migrations.clear();
    report.forecast = ForecastStats {
        preempted: 3,
        reactive: 4,
        error_samples: 5,
        mae: 0.25,
        bias: -1e-9,
    };
    report.recovery = RecoveryStats {
        faults_injected: 2,
        hosts_down: 1,
        evacuations: 6,
        unplaceable_vms: 0,
        time_to_stable_s: 12.5,
        slo_violating_s: 40.0,
    };
    let json = streamed(&report);
    assert!(json.contains(r#"[null,null]],"initial_cost""#));
    assert!(json.contains(r#""final_cost":null,"migrations":[],"#));
    assert!(json.contains(
        r#""forecast":{"preempted":3,"reactive":4,"error_samples":5,"mae":0.25,"bias":-1e-9}"#
    ));
}

#[test]
fn matrix_report_streams_like_the_tree() {
    let matrix: MatrixReport =
        ScenarioMatrix::new(Scenario::small_canonical(TrafficIntensity::Sparse, 3))
            .intensities([TrafficIntensity::Sparse, TrafficIntensity::Dense])
            .policies([PolicyKind::HighestLevelFirst, PolicyKind::Random])
            .iterations(1)
            .run()
            .unwrap();
    assert_eq!(matrix.cells.len(), 4);
    let json = streamed(&matrix);
    assert_eq!(json, matrix.to_json());
    assert_eq!(MatrixReport::from_json(&json).unwrap(), matrix);
}

#[test]
fn scenario_streams_like_the_tree() {
    // A literal trace puts nested enums (workload → trace spec → events),
    // a hand-written-free `Trace` and an awkward marker label inside the
    // scenario; the default topology carries `capacities: None`.
    let trace = Trace::builder(4, 10.0)
        .base_pair(0, 1, 1e6)
        .marker(1.0, AWKWARD)
        .scale_all(2.0, 1.5)
        .build()
        .unwrap();
    let scenario = Scenario::builder().literal_trace(trace).build();
    let json = streamed(&scenario);
    assert_eq!(json, scenario.to_json());
    assert!(json.contains(r#""capacities":null"#));
    assert!(json.contains(&format!(r#"{{"Marker":{{"label":{AWKWARD_JSON}}}}}"#)));
    assert_eq!(Scenario::from_json(&json).unwrap(), scenario);
    streamed(&Scenario::small_fattree(TrafficIntensity::Dense, 9));
}

#[test]
fn every_trace_event_streams_like_the_tree() {
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
    for event in &events {
        let json = streamed(event);
        assert_eq!(&serde_json::from_str::<TraceEvent>(&json).unwrap(), event);
    }
    assert_eq!(
        streamed(&events[2]),
        r#"{"ScaleAll":{"factor":0.3333333333333333}}"#
    );
}

#[test]
fn every_response_streams_like_the_tree() {
    let report_json = small_report().to_json();
    let responses = [
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
        Response::Removed { vm: 1, at_s: 4.5 },
        Response::Faulted {
            events: 1,
            hosts_failed: 2,
            evacuations: 3,
            unplaceable: 4,
            at_s: 5.5,
        },
        Response::Applied {
            events: 2,
            pairs_changed: 9,
            at_s: 6.5,
        },
        // A JSON document carried as a string: every `"` escaped.
        Response::Report {
            json: report_json.clone(),
        },
        Response::Stats {
            json: r#"{"holds":12}"#.into(),
        },
        Response::Paused { at_s: 7.5 },
        Response::Resumed { at_s: 8.5 },
        Response::Subscribed { tenant: "t".into() },
        Response::Trace {
            line: r#"{"t":1.0,"ev":{"RemoveVm":{"vm":6}}}"#.into(),
        },
        Response::ShuttingDown,
        Response::error("bad_request", AWKWARD),
    ];
    for response in &responses {
        let json = streamed(response);
        assert_eq!(json, score_scored::response_line(response));
        assert_eq!(&serde_json::from_str::<Response>(&json).unwrap(), response);
    }
    assert_eq!(streamed(&Response::ShuttingDown), r#""ShuttingDown""#);
}
