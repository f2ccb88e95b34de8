//! The `scored` wire protocol: line-delimited JSON over a Unix or TCP
//! socket.
//!
//! Every line a client sends is one [`Request`]; every line the daemon
//! writes back is one [`Response`]. Both are externally tagged
//! (`{"Place": {...}}`, `"Report"`), the same serde convention the
//! trace JSONL format uses — so a `Traffic` request embeds
//! [`score_trace::TraceEvent`]s verbatim, and the audit log a daemon
//! session records is *the same encoding* a synthetic churn trace uses.
//!
//! Malformed input never tears a connection down: a line that fails to
//! parse (or is not UTF-8) produces a structured [`Response::Error`]
//! (code `parse`), a line over the daemon's 1 MiB cap one with code
//! `too-long`, and the connection keeps serving.

use score_trace::TraceEvent;
use serde::json::Reader;
use serde::{Deserialize, Serialize, Value};

/// One client request line.
///
/// | request     | payload                                   | effect |
/// |-------------|-------------------------------------------|--------|
/// | `Attach`    | `{"tenant": "name"}`                      | bind the connection to a tenant namespace (created on first attach) |
/// | `Place`     | `{"server": 3}` or `{}`                   | admit a new VM (daemon picks the host when `server` is omitted or `null`; the payload must be an object) |
/// | `Remove`    | `{"vm": 7}`                               | retire a live VM |
/// | `Traffic`   | `{"events": [{"SetRate": {...}}, ...]}`   | apply rate deltas (`SetRate` / `ScalePair` / `ScaleAll`) |
/// | `Fault`     | `{"events": [{"HostCrash": {...}}, ...]}` | inject fault events (`HostCrash` / `RackFail` / `LinkDegrade` / `LinkRestore`); the daemon re-plans around them |
/// | `Report`    | —                                         | canonical `RunReport` JSON of the tenant |
/// | `Stats`     | —                                         | live metrics snapshot (registry JSON + decision-journal tail) |
/// | `Pause`     | —                                         | freeze the tenant's event clock |
/// | `Resume`    | —                                         | unfreeze it |
/// | `Subscribe` | —                                         | stream every later mutation + trace line to this connection |
/// | `Shutdown`  | —                                         | drain, persist artifacts, stop the daemon |
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum Request {
    /// Bind this connection to the named tenant (created on first use).
    Attach {
        /// Tenant namespace; one independent cluster/session each.
        tenant: String,
    },
    /// Admit a new VM, on `server` or the daemon's deterministic pick.
    Place {
        /// Explicit host, or `None`/omitted for the placement manager's
        /// most-free-slots choice.
        server: Option<u32>,
    },
    /// Retire a live VM.
    Remove {
        /// The VM to remove.
        vm: u32,
    },
    /// Apply traffic deltas, encoded as trace events.
    Traffic {
        /// `SetRate` / `ScalePair` / `ScaleAll` events; churn and
        /// markers are rejected (churn arrives as `Place` / `Remove`).
        events: Vec<TraceEvent>,
    },
    /// Inject fault events at the next drained boundary: the tenant
    /// evacuates crashed hosts through the deterministic re-planning
    /// pipeline and records only the faults in its audit log.
    Fault {
        /// `HostCrash` / `RackFail` / `LinkDegrade` / `LinkRestore`
        /// events; anything else is rejected.
        events: Vec<TraceEvent>,
    },
    /// Take the tenant's canonical report.
    Report,
    /// Take a live metrics snapshot: every counter/gauge/histogram in
    /// the daemon's registry plus the tail of the decision journal.
    /// Unlike `Report`, the snapshot is wall-clock flavored and daemon
    /// wide (per-tenant series are label-scoped, not table-scoped).
    Stats,
    /// Freeze the tenant's event clock (mutations still apply).
    Pause,
    /// Unfreeze the tenant's event clock.
    Resume,
    /// Stream subsequent mutations and trace lines to this connection.
    Subscribe,
    /// Gracefully drain every tenant and stop the daemon.
    Shutdown,
}

// Deserialization is hand-written (instead of derived) so optional
// payload fields may simply be *omitted* — `{"Place": {}}` — which the
// field-exact derive would reject. `from_value` and `read_compact` apply
// the same rules, to a parsed tree and to the text: a bare string is a
// payload-free request; an object holds exactly one tag, whose payload
// must be an object, read for the first occurrence of the one field the
// tag takes, every other key ignored.
impl Deserialize for Request {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        if let Some(tag) = v.as_str() {
            return bare_request(tag);
        }
        let obj = v
            .as_object()
            .ok_or_else(|| serde::Error::custom("expected a request string or object"))?;
        let [(tag, inner)] = obj else {
            return Err(one_tag_only());
        };
        let field = |name: &str| -> Result<Option<&Value>, serde::Error> {
            let fields = inner.as_object().ok_or_else(|| not_an_object(tag))?;
            Ok(fields.iter().find(|(key, _)| key == name).map(|(_, v)| v))
        };
        let need = |name: &str| required(field(name)?, name);
        match tag.as_str() {
            "Attach" => Ok(Request::Attach {
                tenant: Deserialize::from_value(need("tenant")?)?,
            }),
            "Place" => Ok(Request::Place {
                server: match field("server")? {
                    Some(server) => Deserialize::from_value(server)?,
                    None => None,
                },
            }),
            "Remove" => Ok(Request::Remove {
                vm: Deserialize::from_value(need("vm")?)?,
            }),
            "Traffic" => Ok(Request::Traffic {
                events: Deserialize::from_value(need("events")?)?,
            }),
            "Fault" => Ok(Request::Fault {
                events: Deserialize::from_value(need("events")?)?,
            }),
            other => Err(bad_tag(other)),
        }
    }

    fn read_compact(reader: &mut Reader<'_>) -> Result<Self, serde::Error> {
        match reader.peek() {
            Some(b'"') => bare_request(&reader.str()?),
            Some(b'{') => {
                reader.begin_object()?;
                let tag = reader.next_key(true)?.ok_or_else(one_tag_only)?;
                let request = match &*tag {
                    "Attach" => Request::Attach {
                        tenant: required(read_field(reader, &tag, "tenant")?, "tenant")?,
                    },
                    "Place" => Request::Place {
                        server: read_field::<Option<u32>>(reader, &tag, "server")?.flatten(),
                    },
                    "Remove" => Request::Remove {
                        vm: required(read_field(reader, &tag, "vm")?, "vm")?,
                    },
                    "Traffic" => Request::Traffic {
                        events: required(read_field(reader, &tag, "events")?, "events")?,
                    },
                    "Fault" => Request::Fault {
                        events: required(read_field(reader, &tag, "events")?, "events")?,
                    },
                    other => return Err(bad_tag(other)),
                };
                if reader.next_key(false)?.is_some() {
                    return Err(one_tag_only());
                }
                Ok(request)
            }
            _ => Err(serde::Error::custom("expected a request string or object")),
        }
    }
}

/// Reads the payload of `tag` — an object — for its first `name` field;
/// every other key is checked and skipped, a repeat of `name` included.
fn read_field<T: Deserialize>(
    reader: &mut Reader<'_>,
    tag: &str,
    name: &str,
) -> Result<Option<T>, serde::Error> {
    if reader.peek() != Some(b'{') {
        return Err(not_an_object(tag));
    }
    reader.begin_object()?;
    let mut field = None;
    let mut first = true;
    while let Some(key) = reader.next_key(first)? {
        first = false;
        if field.is_none() && key == name {
            field = Some(T::read_compact(reader)?);
        } else {
            reader.skip_value()?;
        }
    }
    Ok(field)
}

fn bare_request(tag: &str) -> Result<Request, serde::Error> {
    match tag {
        "Report" => Ok(Request::Report),
        "Stats" => Ok(Request::Stats),
        "Pause" => Ok(Request::Pause),
        "Resume" => Ok(Request::Resume),
        "Subscribe" => Ok(Request::Subscribe),
        "Shutdown" => Ok(Request::Shutdown),
        other => Err(serde::Error::custom(format!("unknown request `{other}`"))),
    }
}

/// The error for an object tag that names no request with a payload.
fn bad_tag(tag: &str) -> serde::Error {
    match bare_request(tag) {
        Ok(_) => serde::Error::custom(format!(
            "request `{tag}` carries no payload; send the bare string"
        )),
        Err(unknown) => unknown,
    }
}

fn one_tag_only() -> serde::Error {
    serde::Error::custom("expected exactly one request tag per line")
}

fn not_an_object(tag: &str) -> serde::Error {
    serde::Error::custom(format!("{tag} payload must be an object"))
}

fn required<T>(field: Option<T>, name: &str) -> Result<T, serde::Error> {
    field.ok_or_else(|| serde::Error::custom(format!("missing field `{name}`")))
}

/// One daemon response (or subscriber stream) line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// The connection is bound to a tenant.
    Attached {
        /// The tenant namespace.
        tenant: String,
        /// Live VMs in the tenant's cluster.
        num_vms: u32,
        /// The tenant's event-clock time.
        now_s: f64,
    },
    /// A VM was admitted.
    Placed {
        /// The new VM's id (dense, stable for the tenant's lifetime).
        vm: u32,
        /// The host it landed on.
        server: u32,
        /// Event-clock time of the mutation (a drained boundary).
        at_s: f64,
    },
    /// A VM was retired.
    Removed {
        /// The removed VM.
        vm: u32,
        /// Event-clock time of the mutation.
        at_s: f64,
    },
    /// Fault events were injected and re-planned around.
    Faulted {
        /// Fault events accepted from the request.
        events: u32,
        /// Hosts newly marked down across the batch.
        hosts_failed: u32,
        /// VMs force-evacuated to surviving hosts.
        evacuations: u64,
        /// VMs retired because no live host could admit them.
        unplaceable: u64,
        /// Event-clock time of the mutation (a drained boundary).
        at_s: f64,
    },
    /// Traffic deltas were applied.
    Applied {
        /// Events accepted from the request.
        events: u32,
        /// Pairs whose rate actually changed.
        pairs_changed: u64,
        /// Event-clock time of the mutation.
        at_s: f64,
    },
    /// The canonical report (wall-clock-free, byte-stable under
    /// replay), embedded as a JSON string so its bytes survive
    /// re-serialization untouched.
    Report {
        /// Canonical `RunReport` JSON.
        json: String,
    },
    /// A live metrics snapshot, embedded as a JSON string (same
    /// convention as `Report`): `{"metrics": {...}, "journal": [...]}`
    /// with the registry snapshot and the decision-journal tail.
    Stats {
        /// Snapshot JSON (`metrics` + `journal` keys).
        json: String,
    },
    /// The tenant clock froze.
    Paused {
        /// Time it froze at.
        at_s: f64,
    },
    /// The tenant clock resumed.
    Resumed {
        /// Time it resumed at.
        at_s: f64,
    },
    /// This connection now streams the tenant's mutations.
    Subscribed {
        /// The tenant being observed.
        tenant: String,
    },
    /// One recorded audit-log line, streamed to subscribers — exactly
    /// the JSONL the tenant's trace file receives.
    Trace {
        /// A serialized `TimedEvent` line.
        line: String,
    },
    /// The daemon is draining and will exit.
    ShuttingDown,
    /// A request failed; the connection stays open.
    Error {
        /// Machine-readable class: `parse`, `too-long`, `detached`,
        /// `placement`, `unknown-vm`, `bad-event`, `bad-request`,
        /// `internal`, `tenant-failed` (a request panicked the tenant's
        /// worker), `busy` (the connection cap; the connection closes).
        code: String,
        /// Human-readable detail.
        message: String,
    },
}

impl Response {
    /// Builds the structured error response for `code`/`message`.
    pub fn error(code: &str, message: impl Into<String>) -> Self {
        Response::Error {
            code: code.to_string(),
            message: message.into(),
        }
    }
}

/// Parses one request line; a failure becomes the `parse` error
/// response the daemon writes back (the connection survives).
pub fn parse_request(line: &str) -> Result<Request, Response> {
    serde_json::from_str::<Request>(line.trim())
        .map_err(|e| Response::error("parse", format!("bad request line: {e}")))
}

/// Serializes one response as a protocol line (no trailing newline).
pub fn response_line(resp: &Response) -> String {
    serde_json::to_string(resp).expect("responses always serialize")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(req: &Request) {
        let line = serde_json::to_string(req).unwrap();
        let back = parse_request(&line).unwrap();
        assert_eq!(&back, req, "request line: {line}");
    }

    #[test]
    fn every_request_round_trips() {
        round_trip(&Request::Attach {
            tenant: "edge-pod".into(),
        });
        round_trip(&Request::Place { server: Some(3) });
        round_trip(&Request::Place { server: None });
        round_trip(&Request::Remove { vm: 7 });
        round_trip(&Request::Traffic {
            events: vec![
                TraceEvent::SetRate {
                    u: 0,
                    v: 1,
                    rate: 2.5e6,
                },
                TraceEvent::ScalePair {
                    u: 1,
                    v: 2,
                    factor: 0.5,
                },
                TraceEvent::ScaleAll { factor: 1.25 },
            ],
        });
        round_trip(&Request::Fault {
            events: vec![
                TraceEvent::HostCrash { server: 12 },
                TraceEvent::RackFail { rack: 3 },
                TraceEvent::LinkDegrade {
                    tier: 0,
                    factor: 0.5,
                },
                TraceEvent::LinkRestore { tier: 0 },
            ],
        });
        round_trip(&Request::Report);
        round_trip(&Request::Stats);
        round_trip(&Request::Pause);
        round_trip(&Request::Resume);
        round_trip(&Request::Subscribe);
        round_trip(&Request::Shutdown);
    }

    #[test]
    fn omitted_optional_fields_parse() {
        assert_eq!(
            parse_request(r#"{"Place": {}}"#).unwrap(),
            Request::Place { server: None }
        );
        assert_eq!(
            parse_request(r#"{"Place": {"server": null}}"#).unwrap(),
            Request::Place { server: None }
        );
    }

    #[test]
    fn every_response_round_trips() {
        let responses = vec![
            Response::Attached {
                tenant: "t".into(),
                num_vms: 64,
                now_s: 1.5,
            },
            Response::Placed {
                vm: 64,
                server: 3,
                at_s: 2.0,
            },
            Response::Removed { vm: 2, at_s: 2.5 },
            Response::Faulted {
                events: 2,
                hosts_failed: 6,
                evacuations: 11,
                unplaceable: 1,
                at_s: 2.75,
            },
            Response::Applied {
                events: 3,
                pairs_changed: 2,
                at_s: 3.0,
            },
            Response::Report {
                json: "{\"x\":1}".into(),
            },
            Response::Stats {
                json: "{\"metrics\":{},\"journal\":[]}".into(),
            },
            Response::Paused { at_s: 4.0 },
            Response::Resumed { at_s: 5.0 },
            Response::Subscribed { tenant: "t".into() },
            Response::Trace {
                line: "{\"time_s\":1.0}".into(),
            },
            Response::ShuttingDown,
            Response::error("parse", "nope"),
        ];
        for resp in responses {
            let line = response_line(&resp);
            let back: Response = serde_json::from_str(&line).unwrap();
            assert_eq!(back, resp, "response line: {line}");
        }
    }

    #[test]
    fn malformed_lines_become_structured_errors() {
        for bad in [
            "",
            "not json",
            "42",
            r#"{"Nope": {}}"#,
            r#"{"Place": {}, "Remove": {}}"#,
            r#"{"Remove": {}}"#,
            r#"{"Place": 7}"#,
            r#"{"Place": "rack-3"}"#,
            r#"{"Place": [1]}"#,
            r#"{"Report": {}}"#,
            r#"{"Stats": {}}"#,
            "\"Nope\"",
        ] {
            match parse_request(bad) {
                Err(Response::Error { code, .. }) => assert_eq!(code, "parse", "line: {bad}"),
                other => panic!("line {bad:?} must fail as a parse error, got {other:?}"),
            }
        }
    }
}
