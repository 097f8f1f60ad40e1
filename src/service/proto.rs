//! Wire protocol of `plasticine-run serve`: line-delimited JSON.
//!
//! Every request is one JSON object on one line; every response is one
//! JSON object on one line. Requests carry an optional `id` of any JSON
//! shape, echoed verbatim on the response so clients can match
//! out-of-order completions (worker threads finish in whatever order the
//! simulations do).
//!
//! The `status` field of a response is the CLI exit-code contract
//! ([`ExitStatus`]) spelled as a string (`ok`, `runtime`, `usage`,
//! `compile`, `deadlock`, `fault_exhaustion`, `cycle_budget`), plus two
//! service-only statuses that have no one-shot CLI equivalent:
//! `overloaded` (the admission queue was full and the request was shed)
//! and `shutting_down` (the daemon is draining). Both service-only
//! statuses report `code` [`SERVICE_UNAVAILABLE`].

use plasticine_json::Json;
use plasticine_sim::{ExitStatus, StepMode};

/// `code` reported with the service-only `overloaded` / `shutting_down`
/// statuses. Deliberately outside the 0–6 CLI range: a shed request never
/// ran, so it has no exit-code-class outcome.
pub const SERVICE_UNAVAILABLE: i64 = 7;

/// A request operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Compile a benchmark through the shared cache (optionally writing
    /// the artifact server-side).
    Compile,
    /// Compile and simulate one benchmark; the response embeds the same
    /// stats object the one-shot CLI writes with `--stats-json`.
    Run,
    /// Run a list of benchmarks sequentially under one deadline.
    Batch,
    /// Report live server metrics. Control-plane: answered inline on the
    /// connection thread, never queued or shed.
    Stats,
    /// Queue a benchmark as a multi-tenant fabric tenant (`rows` ×
    /// `channels` partition request). Answered inline with the tenant id;
    /// the scheduler admits it best-fit when a band frees up.
    Submit,
    /// List every submitted tenant with its phase, band, progress, and
    /// (once done) solo-identical stats. Control-plane.
    Tenants,
    /// Checkpoint a running tenant off the fabric and requeue it
    /// (`tenant` field). Control-plane; replies once the eviction lands.
    Evict,
    /// Drain in-flight requests and exit. Control-plane; the response is
    /// the final stats report, sent after the drain completes.
    Shutdown,
}

impl Op {
    /// Wire name of the operation.
    pub fn as_str(self) -> &'static str {
        match self {
            Op::Compile => "compile",
            Op::Run => "run",
            Op::Batch => "batch",
            Op::Stats => "stats",
            Op::Submit => "submit",
            Op::Tenants => "tenants",
            Op::Evict => "evict",
            Op::Shutdown => "shutdown",
        }
    }
}

/// A parsed request. Absent optional fields fall back to the server's
/// command-line defaults (`--scale`, `--step-mode`, …).
#[derive(Debug, Clone)]
pub struct Request {
    /// Client-chosen correlation id, echoed verbatim.
    pub id: Option<Json>,
    /// What to do.
    pub op: Op,
    /// Benchmark name for `compile` / `run`.
    pub bench: Option<String>,
    /// Benchmark names for `batch` (`["GEMM", ...]` or `"all"`).
    pub benches: Vec<String>,
    /// Problem-size multiplier.
    pub scale: Option<usize>,
    /// Fault spec in the CLI `--faults` syntax.
    pub faults: Option<String>,
    /// `event` or `cycle`.
    pub step: Option<StepMode>,
    /// Cycle budget for this request.
    pub max_cycles: Option<u64>,
    /// `compile` only: server-side path to write the artifact to.
    pub out: Option<String>,
    /// `submit` only: fabric rows the tenant's partition needs.
    pub rows: Option<usize>,
    /// `submit` only: DRAM-channel share (defaults to 1).
    pub channels: Option<usize>,
    /// `evict` only: the tenant id to evict.
    pub tenant: Option<u64>,
    /// `submit` only: fault-timeline spec in the CLI `--fault-timeline`
    /// syntax, sampled against the tenant's channel share.
    pub timeline: Option<String>,
}

/// A request line that did not parse: what is known of it, for the
/// `usage` reply.
#[derive(Debug, Clone)]
pub struct BadRequest {
    /// The request's `id`, when the line was JSON and carried one.
    pub id: Option<Json>,
    /// The request's op, when it named a known one.
    pub op: Option<Op>,
    /// What is wrong, ready to ship back.
    pub message: String,
}

impl BadRequest {
    /// The `usage` error reply: it echoes the id, and names the op when
    /// the op parsed (`"?"` otherwise), so a client matching replies by op
    /// can tell which request failed.
    pub fn response(&self) -> Json {
        let op = self.op.map_or("?", Op::as_str);
        error_response(&self.id, op, ExitStatus::Usage, &self.message)
    }
}

/// Parses one request line.
pub fn parse_request(line: &str) -> Result<Request, BadRequest> {
    let j = Json::parse(line).map_err(|e| BadRequest {
        id: None,
        op: None,
        message: format!("bad request JSON: {e}"),
    })?;
    let id = j.get("id").cloned();
    let bad = |op: Option<Op>, message: String| BadRequest {
        id: id.clone(),
        op,
        message,
    };
    let op = match j.get("op").and_then(Json::as_str) {
        Some("compile") => Op::Compile,
        Some("run") => Op::Run,
        Some("batch") => Op::Batch,
        Some("stats") => Op::Stats,
        Some("submit") => Op::Submit,
        Some("tenants") => Op::Tenants,
        Some("evict") => Op::Evict,
        Some("shutdown") => Op::Shutdown,
        Some(other) => return Err(bad(None, format!("unknown op `{other}`"))),
        None => return Err(bad(None, "missing `op` field".to_string())),
    };
    let err = |m: String| bad(Some(op), m);
    let str_field = |k: &str| -> Result<Option<String>, BadRequest> {
        match j.get(k) {
            None => Ok(None),
            Some(v) => v
                .as_str()
                .map(|s| Some(s.to_string()))
                .ok_or_else(|| err(format!("`{k}` must be a string"))),
        }
    };
    let bench = str_field("bench")?;
    let mut benches = Vec::new();
    match j.get("benches") {
        None => {}
        Some(Json::Arr(items)) => {
            for it in items {
                match it.as_str() {
                    Some(s) => benches.push(s.to_string()),
                    None => return Err(err("`benches` entries must be strings".to_string())),
                }
            }
        }
        Some(v) => match v.as_str() {
            Some(s) => benches.push(s.to_string()),
            None => {
                return Err(err(
                    "`benches` must be an array of strings or a string".to_string()
                ))
            }
        },
    }
    let scale = match j.get("scale") {
        None => None,
        Some(v) => Some(
            v.as_usize()
                .filter(|&n| n >= 1)
                .ok_or_else(|| err("`scale` must be a positive integer".to_string()))?,
        ),
    };
    // Unknown fields are otherwise ignored. `threads` is refused so that a
    // client asking for parallelism inside one run learns where parallelism
    // is, instead of silently running serially.
    if j.get("threads").is_some() {
        return Err(err(
            "`threads` is not a request field: one simulation runs serially; \
             run jobs in parallel with `batch --jobs` or serve `--workers`"
                .to_string(),
        ));
    }
    let max_cycles = match j.get("max_cycles") {
        None => None,
        Some(v) => Some(
            v.as_u64()
                .filter(|&n| n >= 1)
                .ok_or_else(|| err("`max_cycles` must be a positive integer".to_string()))?,
        ),
    };
    let step = match j.get("step_mode").map(|v| v.as_str()) {
        None => None,
        Some(Some("event")) => Some(StepMode::Event),
        Some(Some("cycle")) => Some(StepMode::Cycle),
        _ => return Err(err("`step_mode` must be `event` or `cycle`".to_string())),
    };
    let faults = str_field("faults")?;
    let out = str_field("out")?;
    let timeline = str_field("timeline")?;
    let rows = match j.get("rows") {
        None => None,
        Some(v) => Some(
            v.as_usize()
                .filter(|&n| n >= 1)
                .ok_or_else(|| err("`rows` must be a positive integer".to_string()))?,
        ),
    };
    let channels = match j.get("channels") {
        None => None,
        Some(v) => Some(
            v.as_usize()
                .filter(|&n| n >= 1)
                .ok_or_else(|| err("`channels` must be a positive integer".to_string()))?,
        ),
    };
    let tenant = match j.get("tenant") {
        None => None,
        Some(v) => Some(
            v.as_u64()
                .ok_or_else(|| err("`tenant` must be a non-negative integer".to_string()))?,
        ),
    };
    Ok(Request {
        id,
        op,
        bench,
        benches,
        scale,
        faults,
        step,
        max_cycles,
        out,
        rows,
        channels,
        tenant,
        timeline,
    })
}

/// Starts a response object: `id` (when the request carried one), `op`,
/// `status`, `code`. Callers append op-specific payload fields.
pub fn response_head(id: &Option<Json>, op: &str, status: &str, code: i64) -> Vec<(String, Json)> {
    let mut pairs = Vec::with_capacity(8);
    if let Some(id) = id {
        pairs.push(("id".to_string(), id.clone()));
    }
    pairs.push(("op".to_string(), Json::from(op)));
    pairs.push(("status".to_string(), Json::from(status)));
    pairs.push(("code".to_string(), Json::from(code)));
    pairs
}

/// A complete error response.
pub fn error_response(id: &Option<Json>, op: &str, status: ExitStatus, message: &str) -> Json {
    let mut pairs = response_head(id, op, status.name(), i64::from(status.code()));
    pairs.push(("error".to_string(), Json::from(message)));
    Json::Obj(pairs)
}

/// The typed shed response: the admission queue was full, the request was
/// rejected immediately (never queued unboundedly), try again later.
pub fn overloaded_response(id: &Option<Json>, op: &str, depth: usize) -> Json {
    let mut pairs = response_head(id, op, "overloaded", SERVICE_UNAVAILABLE);
    pairs.push((
        "error".to_string(),
        Json::from(format!(
            "admission queue full (depth {depth}); request shed"
        )),
    ));
    Json::Obj(pairs)
}

/// The response to data-plane requests that arrive after shutdown began.
pub fn shutting_down_response(id: &Option<Json>, op: &str) -> Json {
    let mut pairs = response_head(id, op, "shutting_down", SERVICE_UNAVAILABLE);
    pairs.push((
        "error".to_string(),
        Json::from("server is draining; request rejected"),
    ));
    Json::Obj(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_run_request() {
        let r = parse_request(
            r#"{"id": 7, "op": "run", "bench": "GEMM", "scale": 2,
                "max_cycles": 1000, "step_mode": "cycle", "faults": "drop=0.1,seed=3"}"#,
        )
        .unwrap();
        assert_eq!(r.op, Op::Run);
        assert_eq!(r.bench.as_deref(), Some("GEMM"));
        assert_eq!(r.scale, Some(2));
        assert_eq!(r.max_cycles, Some(1000));
        assert_eq!(r.step, Some(StepMode::Cycle));
        assert_eq!(r.faults.as_deref(), Some("drop=0.1,seed=3"));
        assert_eq!(r.id.unwrap().as_i64(), Some(7));
    }

    #[test]
    fn a_threads_field_is_a_usage_error_naming_job_parallelism() {
        let e =
            parse_request(r#"{"id": 8, "op": "run", "bench": "GEMM", "threads": 4}"#).unwrap_err();
        assert_eq!(e.id.unwrap().as_i64(), Some(8));
        for needle in ["`threads`", "batch --jobs", "--workers"] {
            assert!(e.message.contains(needle), "{}", e.message);
        }
    }

    #[test]
    fn parses_tenant_ops() {
        let r = parse_request(r#"{"op": "submit", "bench": "GEMM", "rows": 4, "channels": 2}"#)
            .unwrap();
        assert_eq!(r.op, Op::Submit);
        assert_eq!(r.rows, Some(4));
        assert_eq!(r.channels, Some(2));
        let r = parse_request(r#"{"op": "evict", "tenant": 3}"#).unwrap();
        assert_eq!(r.op, Op::Evict);
        assert_eq!(r.tenant, Some(3));
        assert_eq!(
            parse_request(r#"{"op": "tenants"}"#).unwrap().op,
            Op::Tenants
        );
        let e = parse_request(r#"{"op": "submit", "bench": "GEMM", "rows": 0}"#).unwrap_err();
        assert!(e.message.contains("rows"), "{}", e.message);
    }

    #[test]
    fn bad_requests_keep_their_id_for_the_error_reply() {
        let e = parse_request(r#"{"id": "x1", "op": "fly"}"#).unwrap_err();
        assert_eq!(e.id.unwrap().as_str(), Some("x1"));
        assert!(e.message.contains("unknown op"), "{}", e.message);
        let e = parse_request("{ not json").unwrap_err();
        assert!(e.id.is_none());
        let e = parse_request(r#"{"op": "run", "scale": 0}"#).unwrap_err();
        assert!(e.message.contains("scale"), "{}", e.message);
    }

    #[test]
    fn usage_replies_name_the_op_when_it_parsed() {
        let reply = |line: &str| parse_request(line).unwrap_err().response();
        let r = reply(r#"{"id": 1, "op": "run", "bench": "GEMM", "scale": 0}"#);
        assert_eq!(r.get("op").unwrap().as_str(), Some("run"));
        assert_eq!(r.get("status").unwrap().as_str(), Some("usage"));
        assert_eq!(r.get("id").unwrap().as_i64(), Some(1));
        for line in ["{ not json", r#"{"id": 2, "op": "fly"}"#, r#"{"id": 3}"#] {
            let r = reply(line);
            assert_eq!(r.get("op").unwrap().as_str(), Some("?"), "{line}");
            assert_eq!(r.get("status").unwrap().as_str(), Some("usage"), "{line}");
        }
    }

    #[test]
    fn responses_echo_ids_and_carry_the_status_contract() {
        let id = Some(Json::from(3u64));
        let r = error_response(&id, "run", ExitStatus::Deadlock, "stuck");
        assert_eq!(r.get("id").unwrap().as_u64(), Some(3));
        assert_eq!(r.get("status").unwrap().as_str(), Some("deadlock"));
        assert_eq!(r.get("code").unwrap().as_i64(), Some(4));
        let r = overloaded_response(&None, "run", 8);
        assert_eq!(r.get("status").unwrap().as_str(), Some("overloaded"));
        assert_eq!(r.get("code").unwrap().as_i64(), Some(SERVICE_UNAVAILABLE));
        assert!(r.get("id").is_none());
    }
}
