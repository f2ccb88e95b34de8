//! Scale guard for the serving path's churn: a request costs what it
//! touches, not what the tenant's id space has grown to.
//!
//! A million `Place` / `Remove` pairs keep the live set of a 160-host
//! tenant constant while the highest id ever issued climbs to 10⁶. With
//! the token's membership maintained in place that is under a second of
//! work (0.8 s on the 2-vCPU build host); when every change re-derived
//! a table sized by the highest id it was O(10¹²) slot writes — 74 s on
//! the same host. CI runs this in release under `timeout`; it is
//! `#[ignore]`d because a debug build re-checks the token's invariants
//! after every change.

use score_scored::{parse_request, Request, TenantEngine};
use score_sim::{Scenario, TopologySpec};
use std::fmt::Write as _;

#[test]
#[ignore = "scale guard: CI runs it in release under `timeout 20`"]
fn a_million_place_remove_pairs_cost_what_they_touch() {
    let scenario = Scenario::builder()
        .topology(TopologySpec::small_canonical())
        .sparse_traffic(7)
        .seed(7)
        .horizon(1e9)
        .build();
    let mut engine = TenantEngine::new("churn", scenario, 1.0, None).unwrap();
    let initial = engine.session().traffic().num_vms();
    let live = engine.session().cluster().num_active();
    let mut line = String::new();
    for i in 0..1_000_000u32 {
        let Ok(Request::Place { server }) = parse_request(r#"{"Place":{}}"#) else {
            panic!("Place must parse");
        };
        let (vm, _, _) = engine.place(server).unwrap();
        assert_eq!(vm, initial + i, "ids are dense and only grow");
        line.clear();
        let _ = write!(line, r#"{{"Remove":{{"vm":{vm}}}}}"#);
        let Ok(Request::Remove { vm }) = parse_request(&line) else {
            panic!("Remove must parse");
        };
        engine.remove(vm).unwrap();
    }
    assert_eq!(engine.session().cluster().num_active(), live);
    assert_eq!(engine.session().traffic().num_vms(), initial + 1_000_000);
    assert_eq!(engine.session().ledger_resyncs(), 0);
}
