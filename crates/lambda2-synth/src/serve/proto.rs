//! The serve wire protocol: JSON requests and responses.
//!
//! One frame (see [`super::frame`]) carries one JSON document. Requests
//! name an operation (`synth`, `ping`, `stats`, `shutdown`) and, for
//! `synth`, a problem in either `.l2` surface syntax (`"problem"`) or a
//! structured JSON form (`"problem_json"`). Responses always carry a
//! `"status"` field; every request — including malformed ones — gets
//! exactly one response, so clients never hang on bad input.
//!
//! The parser is total: any byte sequence produces either a [`Request`]
//! or a rendered error, never a panic. Unknown fields are ignored
//! (forward compatibility); an unknown `"v"` or `"op"` is an error, and
//! so is the removed `"portfolio"` field.

use crate::govern::{Attempt, SearchReport};
use crate::obs::json::{self, Json};
use crate::problem::Problem;

/// Protocol version spoken by this build. Mismatched requests are
/// rejected with a structured error, not dropped.
pub const PROTO_VERSION: u64 = 1;

/// The operation a request asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReqOp {
    /// Synthesize a program for the carried problem.
    Synth,
    /// Liveness probe.
    Ping,
    /// Server counters snapshot.
    Stats,
    /// Begin a graceful drain.
    Shutdown,
}

/// A parsed request.
#[derive(Clone, Debug)]
pub struct Request {
    /// The operation.
    pub op: ReqOp,
    /// Client-assigned correlation id, echoed verbatim in the response.
    pub id: Option<String>,
    /// `.l2` source of the problem (`synth` only).
    pub problem_source: Option<String>,
    /// Structured problem (`synth` only), mutually exclusive with
    /// `problem_source`.
    pub problem_json: Option<JsonProblem>,
    /// Per-request deadline; the server caps it at its own maximum.
    pub timeout_ms: Option<u64>,
    /// Test hook: a failpoint site to arm (Panic, one fire) before the
    /// search runs. Honored only in builds with the `failpoints` feature;
    /// ignored otherwise.
    pub failpoint: Option<String>,
}

/// A problem in structured JSON form: every value rendered in the surface
/// syntax the parser round-trips.
#[derive(Clone, Debug)]
pub struct JsonProblem {
    /// Problem name.
    pub name: String,
    /// `(name, rendered type)` parameter list.
    pub params: Vec<(String, String)>,
    /// Rendered return type.
    pub returns: String,
    /// `(rendered inputs, rendered output)` examples.
    pub examples: Vec<(Vec<String>, String)>,
}

impl JsonProblem {
    /// Runs the problem builder's full validation.
    ///
    /// # Errors
    ///
    /// The first builder error, rendered.
    pub fn build(&self) -> Result<Problem, String> {
        let mut b = Problem::builder(self.name.as_str());
        for (name, ty) in &self.params {
            b = b.param(name, ty);
        }
        b = b.returns(&self.returns);
        for (inputs, output) in &self.examples {
            let refs: Vec<&str> = inputs.iter().map(String::as_str).collect();
            b = b.example(&refs, output);
        }
        b.build().map_err(|e| e.to_string())
    }
}

/// Parses one request frame.
///
/// # Errors
///
/// A rendered message describing the first problem found — invalid UTF-8,
/// invalid JSON, a non-object document, a missing/unknown `op`, a version
/// mismatch, or a malformed `problem_json`.
pub fn parse_request(payload: &[u8]) -> Result<Request, String> {
    let text = std::str::from_utf8(payload).map_err(|e| format!("payload is not UTF-8: {e}"))?;
    let doc = json::parse(text).map_err(|e| format!("payload is not valid JSON: {e}"))?;
    if !matches!(doc, Json::Obj(_)) {
        return Err("request must be a JSON object".into());
    }
    if let Some(v) = doc.get("v") {
        match v.as_u64() {
            Some(PROTO_VERSION) => {}
            Some(other) => {
                return Err(format!(
                    "unsupported protocol version {other} (this server speaks {PROTO_VERSION})"
                ))
            }
            None => return Err("\"v\" must be an integer".into()),
        }
    }
    let op = match doc.get("op").and_then(Json::as_str) {
        Some("synth") => ReqOp::Synth,
        Some("ping") => ReqOp::Ping,
        Some("stats") => ReqOp::Stats,
        Some("shutdown") => ReqOp::Shutdown,
        Some(other) => return Err(format!("unknown op \"{other}\"")),
        None => return Err("request has no \"op\" field".into()),
    };
    // A removed field, rejected rather than ignored: a client asking for
    // the concurrent ladder must not silently get a different one.
    if doc.get("portfolio").is_some() {
        return Err(
            "\"portfolio\" is no longer supported; the server runs its configured \
                    retry ladder"
                .into(),
        );
    }
    let id = doc.get("id").and_then(Json::as_str).map(ToOwned::to_owned);
    if doc.get("problem").is_some() && doc.get("problem_json").is_some() {
        return Err("\"problem\" and \"problem_json\" are mutually exclusive".into());
    }
    let problem_source = doc
        .get("problem")
        .and_then(Json::as_str)
        .map(ToOwned::to_owned);
    let problem_json = match doc.get("problem_json") {
        Some(j) => Some(parse_json_problem(j)?),
        None => None,
    };
    if op == ReqOp::Synth && problem_source.is_none() && problem_json.is_none() {
        return Err("synth request carries neither \"problem\" nor \"problem_json\"".into());
    }
    Ok(Request {
        op,
        id,
        problem_source,
        problem_json,
        timeout_ms: doc.get("timeout_ms").and_then(Json::as_u64),
        failpoint: doc
            .get("failpoint")
            .and_then(Json::as_str)
            .map(ToOwned::to_owned),
    })
}

fn parse_json_problem(j: &Json) -> Result<JsonProblem, String> {
    let name = j
        .get("name")
        .and_then(Json::as_str)
        .ok_or("problem_json has no \"name\"")?
        .to_owned();
    let mut params = Vec::new();
    for p in j
        .get("params")
        .and_then(Json::as_arr)
        .ok_or("problem_json has no \"params\" array")?
    {
        let pair = p.as_arr().ok_or("each param must be [name, type]")?;
        let [n, t] = pair else {
            return Err("each param must be [name, type]".into());
        };
        params.push((
            n.as_str().ok_or("param name must be a string")?.to_owned(),
            t.as_str().ok_or("param type must be a string")?.to_owned(),
        ));
    }
    let returns = j
        .get("returns")
        .and_then(Json::as_str)
        .ok_or("problem_json has no \"returns\"")?
        .to_owned();
    let mut examples = Vec::new();
    for e in j
        .get("examples")
        .and_then(Json::as_arr)
        .ok_or("problem_json has no \"examples\" array")?
    {
        let inputs = e
            .get("inputs")
            .and_then(Json::as_arr)
            .ok_or("each example needs an \"inputs\" array")?
            .iter()
            .map(|v| {
                v.as_str()
                    .map(ToOwned::to_owned)
                    .ok_or("example inputs must be rendered strings")
            })
            .collect::<Result<Vec<String>, _>>()?;
        let output = e
            .get("output")
            .and_then(Json::as_str)
            .ok_or("each example needs an \"output\" string")?
            .to_owned();
        examples.push((inputs, output));
    }
    Ok(JsonProblem {
        name,
        params,
        returns,
        examples,
    })
}

/// Response statuses, as wire strings.
pub mod status {
    /// Request handled; for `synth`, a program was found.
    pub const OK: &str = "ok";
    /// Synthesis terminated without a program (timeout, exhaustion, …).
    pub const UNSOLVED: &str = "unsolved";
    /// The request itself failed: malformed, rejected, or crashed.
    pub const ERROR: &str = "error";
    /// Load-shed at admission; retry after the carried hint.
    pub const OVERLOADED: &str = "overloaded";
    /// The server is draining and accepts no new work.
    pub const SHUTTING_DOWN: &str = "shutting_down";
}

fn base(status: &str, id: Option<&str>) -> Vec<(String, Json)> {
    vec![
        ("v".to_owned(), PROTO_VERSION.into()),
        ("status".to_owned(), status.into()),
        (
            "id".to_owned(),
            match id {
                Some(s) => s.into(),
                None => Json::Null,
            },
        ),
    ]
}

/// Builds an `error` response.
pub fn resp_error(id: Option<&str>, message: &str) -> Json {
    let mut pairs = base(status::ERROR, id);
    pairs.push(("error".to_owned(), message.into()));
    Json::Obj(pairs)
}

/// Builds an `overloaded` load-shed response with a retry hint.
pub fn resp_overloaded(id: Option<&str>, retry_after_ms: u64, queue_depth: usize) -> Json {
    let mut pairs = base(status::OVERLOADED, id);
    pairs.push(("retry_after_ms".to_owned(), retry_after_ms.into()));
    pairs.push(("queue_depth".to_owned(), queue_depth.into()));
    Json::Obj(pairs)
}

/// Builds a `shutting_down` rejection.
pub fn resp_shutting_down(id: Option<&str>) -> Json {
    Json::Obj(base(status::SHUTTING_DOWN, id))
}

/// Builds the `ping` reply.
pub fn resp_pong(id: Option<&str>) -> Json {
    let mut pairs = base(status::OK, id);
    pairs.push(("pong".to_owned(), true.into()));
    Json::Obj(pairs)
}

/// Builds an `ok` acknowledgment for a `shutdown` request.
pub fn resp_draining(id: Option<&str>) -> Json {
    let mut pairs = base(status::OK, id);
    pairs.push(("draining".to_owned(), true.into()));
    Json::Obj(pairs)
}

/// Builds an `ok` envelope around a server-counters object.
pub fn resp_stats(id: Option<&str>, server: Json) -> Json {
    let mut pairs = base(status::OK, id);
    pairs.push(("server".to_owned(), server));
    Json::Obj(pairs)
}

/// Stamps the server-assigned request ID onto a response object.
///
/// Distinct from the client-assigned `"id"` correlation field: `req_id`
/// is minted by the server (`c<conn>-r<n>`), appears on *every* reply,
/// and is the join key for the access log, per-served-job corpus records,
/// and slow-trace filenames. Applied once at the connection loop so no
/// response builder can forget it. Non-object responses (which the
/// protocol never produces) pass through untouched.
pub fn tag_req_id(resp: Json, req_id: &str) -> Json {
    match resp {
        Json::Obj(mut pairs) => {
            pairs.push(("req_id".to_owned(), req_id.into()));
            Json::Obj(pairs)
        }
        other => other,
    }
}

fn attempts_json(report: &SearchReport) -> Json {
    Json::Arr(report.attempts.iter().map(Attempt::to_json).collect())
}

/// Builds the response for a finished synthesis: `ok` with the program
/// when solved, `unsolved` with the terminal error otherwise. Either way
/// the attempt ladder, merged stats, and queueing delay ride along — the
/// fields the determinism bridge and p99 attribution need.
pub fn resp_report(id: Option<&str>, report: &SearchReport, queue_wait_ms: f64) -> Json {
    let mut pairs = match &report.outcome {
        Ok(s) => {
            let mut p = base(status::OK, id);
            p.push(("program".to_owned(), s.program.to_string().into()));
            p.push(("cost".to_owned(), s.cost.into()));
            p
        }
        Err(e) => {
            let mut p = base(status::UNSOLVED, id);
            p.push(("error".to_owned(), e.to_string().into()));
            p
        }
    };
    pairs.push((
        "elapsed_ms".to_owned(),
        Json::Float(report.elapsed.as_secs_f64() * 1e3),
    ));
    pairs.push(("queue_wait_ms".to_owned(), Json::Float(queue_wait_ms)));
    pairs.push(("attempts".to_owned(), attempts_json(report)));
    pairs.push(("stats".to_owned(), report.stats.to_json()));
    Json::Obj(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_minimal_synth_request() {
        let req = parse_request(
            br#"{"v":1,"op":"synth","id":"r1","problem":"(problem p)","timeout_ms":250}"#,
        )
        .unwrap();
        assert_eq!(req.op, ReqOp::Synth);
        assert_eq!(req.id.as_deref(), Some("r1"));
        assert_eq!(req.problem_source.as_deref(), Some("(problem p)"));
        assert_eq!(req.timeout_ms, Some(250));
    }

    #[test]
    fn parses_a_json_problem() {
        let req = parse_request(
            br#"{"op":"synth","problem_json":{"name":"evens","params":[["l","[int]"]],
                 "returns":"[int]","examples":[{"inputs":["[1 2 3 4]"],"output":"[2 4]"},
                 {"inputs":["[]"],"output":"[]"},{"inputs":["[5 6]"],"output":"[6]"}]}}"#,
        )
        .unwrap();
        let jp = req.problem_json.expect("structured problem");
        assert_eq!(jp.name, "evens");
        let problem = jp.build().unwrap();
        assert_eq!(problem.examples().len(), 3);
    }

    #[test]
    fn rejects_malformed_requests_with_messages() {
        for (payload, needle) in [
            (&b"\xff\xfe"[..], "UTF-8"),
            (b"not json", "JSON"),
            (b"[1,2]", "object"),
            (br#"{"op":"dance"}"#, "unknown op"),
            (br#"{"v":9,"op":"ping"}"#, "version"),
            (br#"{"op":"synth"}"#, "neither"),
            (
                br#"{"op":"synth","problem":"x","problem_json":{}}"#,
                "mutually exclusive",
            ),
            (br#"{}"#, "no \"op\""),
            (
                br#"{"op":"synth","problem":"x","portfolio":true}"#,
                "\"portfolio\" is no longer supported",
            ),
        ] {
            let err = parse_request(payload).unwrap_err();
            assert!(err.contains(needle), "`{err}` should mention `{needle}`");
        }
    }

    #[test]
    fn req_id_tagging_is_additive_and_distinct_from_client_id() {
        let tagged = tag_req_id(resp_pong(Some("client-7")), "c3-r2");
        assert_eq!(tagged.get("req_id").unwrap().as_str(), Some("c3-r2"));
        assert_eq!(tagged.get("id").unwrap().as_str(), Some("client-7"));
        let parsed = json::parse(&tagged.to_string()).unwrap();
        assert_eq!(parsed.get("req_id").unwrap().as_str(), Some("c3-r2"));
        assert_eq!(tag_req_id(Json::Null, "c1-r1"), Json::Null);
    }

    #[test]
    fn responses_are_parseable_and_carry_status() {
        let r = resp_overloaded(Some("q"), 120, 8);
        let parsed = json::parse(&r.to_string()).unwrap();
        assert_eq!(parsed.get("status").unwrap().as_str(), Some("overloaded"));
        assert_eq!(parsed.get("retry_after_ms").unwrap().as_u64(), Some(120));
        assert_eq!(parsed.get("queue_depth").unwrap().as_u64(), Some(8));
        let e = resp_error(None, "boom");
        assert_eq!(e.get("id"), Some(&Json::Null));
        assert_eq!(e.get("error").unwrap().as_str(), Some("boom"));
        assert_eq!(
            resp_pong(Some("p")).get("pong").unwrap().as_bool(),
            Some(true)
        );
        assert_eq!(
            resp_shutting_down(None).get("status").unwrap().as_str(),
            Some(status::SHUTTING_DOWN)
        );
    }
}
