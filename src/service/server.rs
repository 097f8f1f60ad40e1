//! The long-lived daemon: admission control, worker pool, transports,
//! graceful drain.
//!
//! ## Robustness by construction
//!
//! Every data-plane request (`compile`/`run`/`batch`) executes on a
//! dedicated attempt thread under `catch_unwind` with a wall-clock
//! deadline measured from *admission* — the same containment machinery as
//! the batch supervisor. A panicking request becomes a typed `runtime`
//! response; a hung request is abandoned at its deadline and becomes a
//! typed `runtime` response; in both cases the worker thread survives and
//! keeps serving.
//!
//! ## Admission control
//!
//! The request queue is bounded (`--queue-depth`). A request that arrives
//! while the queue is full is shed *immediately* with a typed
//! `overloaded` response — the daemon never queues unboundedly, so memory
//! stays flat no matter how hard clients push. Control-plane requests
//! (`stats`, `shutdown`) bypass the queue and are answered on the
//! connection thread, so observability keeps working under overload.
//!
//! ## Graceful degradation
//!
//! A `run` that fails with transient-fault exhaustion is retried with
//! bounded exponential backoff (jittered deterministically from the fault
//! seed so synchronized workers do not stampede), then — still failing —
//! degraded: the program's largest parallelization factor is halved and
//! the run re-attempted through the shared compile cache, repeating until
//! it succeeds or no parallelism is left. A degraded success reports
//! `recovery: "compile_degraded"` with the reduction notes.
//!
//! ## Shutdown
//!
//! `shutdown` (or stdin EOF when stdio is the only transport) stops
//! admission, drains queued and in-flight requests (each bounded by its
//! deadline), joins the workers, and sends the final stats report as the
//! shutdown response.

use super::fabric::{self, FabricScheduler, SubmitSpec};
use super::metrics::{Metrics, TenantEvent};
use super::proto::{
    error_response, overloaded_response, parse_request, response_head, shutting_down_response, Op,
    Request,
};
use super::{checkpoint_path, env_lists_bench, jittered_backoff_ms, stats_with_bench};
use plasticine_arch::{
    FaultMap, FaultSpec, FaultTimeline, FaultTimelineSpec, PlasticineParams, Topology,
};
use plasticine_compiler::{Bitstream, CompileCache, CompileOptions};
use plasticine_json::Json;
use plasticine_ppir::{Machine, Program};
use plasticine_sim::{
    simulate, simulate_checkpointed, Checkpoint, CheckpointPolicy, ExitStatus, SimError,
    SimOptions, SimResult, StepMode,
};
use plasticine_workloads::{all, by_name, Bench, Scale};
use std::collections::VecDeque;
use std::io::{BufRead, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Per-request option defaults, set on the `serve` command line and
/// overridable per request (except the checkpoint settings, which are
/// operator policy).
#[derive(Debug, Clone)]
pub struct RequestDefaults {
    /// Problem-size multiplier when a request names none.
    pub scale: usize,
    /// Step mode when a request names none.
    pub step: StepMode,
    /// Simulator threads per request when a request names none.
    pub threads: usize,
    /// Cycle budget when a request names none (`None` = simulator
    /// default).
    pub max_cycles: Option<u64>,
    /// Fault spec applied when a request carries none.
    pub faults: Option<FaultSpec>,
    /// Cadence for periodic checkpoints of served simulations.
    pub checkpoint_every: Option<u64>,
    /// Where served simulations checkpoint. Setting either checkpoint
    /// field opts every served `run` into the auto-checkpoint path:
    /// budget/watchdog failures and deadline-abandoned requests leave
    /// resumable snapshots behind (cycle-stamped history files plus the
    /// legacy `<dir>/<bench>.ckpt.json` slot, which always holds the
    /// newest snapshot — concurrent same-bench requests share it,
    /// last-writer-wins).
    pub checkpoint_dir: Option<String>,
    /// How many cycle-stamped auto-checkpoints to retain per benchmark
    /// (`--checkpoint-keep`; older ones are pruned atomically).
    pub checkpoint_keep: usize,
}

impl Default for RequestDefaults {
    fn default() -> RequestDefaults {
        RequestDefaults {
            scale: 1,
            step: StepMode::default(),
            threads: 1,
            max_cycles: None,
            faults: None,
            checkpoint_every: None,
            checkpoint_dir: None,
            checkpoint_keep: 3,
        }
    }
}

/// Daemon configuration (the `serve` command line).
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Worker threads executing data-plane requests.
    pub workers: usize,
    /// Admission-queue depth; requests beyond it are shed with
    /// `overloaded`.
    pub queue_depth: usize,
    /// Per-request wall-clock deadline, measured from admission.
    pub deadline: Duration,
    /// Extra attempts for a `run` failing with fault exhaustion, before
    /// degrading.
    pub retries: u32,
    /// Unix-socket path to listen on, in addition to stdin/stdout.
    pub socket: Option<PathBuf>,
    /// Per-request defaults.
    pub defaults: RequestDefaults,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        let workers = std::thread::available_parallelism().map_or(2, |n| n.get());
        ServeOptions {
            workers,
            queue_depth: 2 * workers.max(2),
            deadline: Duration::from_millis(60_000),
            retries: 2,
            socket: None,
            defaults: RequestDefaults::default(),
        }
    }
}

/// A connection's write half; responses from any worker serialize through
/// the mutex, one line per response.
#[derive(Clone)]
struct Reply(Arc<Mutex<Box<dyn Write + Send>>>);

impl Reply {
    fn new(w: Box<dyn Write + Send>) -> Reply {
        Reply(Arc::new(Mutex::new(w)))
    }

    fn send(&self, j: &Json) {
        let mut g = self.0.lock().unwrap();
        // A torn-down client is not a daemon error; drop the response.
        let _ = writeln!(g, "{}", j.compact());
        let _ = g.flush();
    }
}

/// An admitted data-plane request.
struct Job {
    req: Request,
    reply: Reply,
    enqueued: Instant,
}

/// The bounded admission queue. `push` never blocks: a full queue is an
/// immediate, typed rejection — that is the whole point.
struct Queue {
    depth: usize,
    inner: Mutex<(VecDeque<Box<Job>>, bool)>,
    cv: Condvar,
}

impl Queue {
    fn new(depth: usize) -> Queue {
        Queue {
            depth,
            inner: Mutex::new((VecDeque::new(), false)),
            cv: Condvar::new(),
        }
    }

    /// Admits a job, or hands it back when the queue is full or closed.
    fn push(&self, job: Box<Job>) -> Result<(), Box<Job>> {
        let mut g = self.inner.lock().unwrap();
        if g.1 || g.0.len() >= self.depth {
            return Err(job);
        }
        g.0.push_back(job);
        self.cv.notify_one();
        Ok(())
    }

    /// Blocks for the next job; `None` once closed *and* drained, which
    /// is the workers' exit signal.
    fn pop(&self) -> Option<Box<Job>> {
        let mut g = self.inner.lock().unwrap();
        loop {
            if let Some(j) = g.0.pop_front() {
                return Some(j);
            }
            if g.1 {
                return None;
            }
            g = self.cv.wait(g).unwrap();
        }
    }

    fn close(&self) {
        self.inner.lock().unwrap().1 = true;
        self.cv.notify_all();
    }

    fn len(&self) -> usize {
        self.inner.lock().unwrap().0.len()
    }
}

/// Who asked for shutdown (the final stats response goes to them; `None`
/// reply means stdin EOF initiated it).
struct ShutdownReq {
    id: Option<Json>,
    reply: Option<Reply>,
}

struct Shared {
    params: PlasticineParams,
    opts: ServeOptions,
    cache: CompileCache,
    metrics: Metrics,
    fabric: FabricScheduler,
    queue: Queue,
    shutting_down: AtomicBool,
    stop_accept: AtomicBool,
    signal: Mutex<Option<ShutdownReq>>,
    signal_cv: Condvar,
}

impl Shared {
    /// Begins the drain. `is_request` distinguishes a real `shutdown`
    /// request (a duplicate gets a typed `shutting_down` rejection) from
    /// stdin EOF (not a request; a redundant EOF is silent).
    fn initiate_shutdown(&self, id: Option<Json>, reply: Option<Reply>, is_request: bool) {
        self.shutting_down.store(true, Ordering::SeqCst);
        let mut g = self.signal.lock().unwrap();
        if g.is_none() {
            *g = Some(ShutdownReq { id, reply });
            self.signal_cv.notify_all();
        } else if is_request {
            if let Some(r) = reply {
                // Second shutdown while the first drains: typed rejection.
                r.send(&shutting_down_response(&id, "shutdown"));
            }
        }
    }

    fn wait_shutdown(&self) -> ShutdownReq {
        let mut g = self.signal.lock().unwrap();
        loop {
            if let Some(req) = g.take() {
                return req;
            }
            g = self.signal_cv.wait(g).unwrap();
        }
    }

    fn stats_snapshot(&self) -> Json {
        self.metrics
            .snapshot(self.queue.len(), self.cache.hits(), self.cache.misses())
    }
}

/// A failed request, carrying the exit-status class its `status`/`code`
/// fields mirror.
struct Failure {
    status: ExitStatus,
    message: String,
}

impl Failure {
    fn new(status: ExitStatus, message: impl Into<String>) -> Failure {
        Failure {
            status,
            message: message.into(),
        }
    }

    fn from_sim(e: SimError) -> Failure {
        Failure {
            status: ExitStatus::from(&e),
            message: e.to_string(),
        }
    }
}

/// Runs the daemon until a `shutdown` request (or stdin EOF with no
/// socket configured) completes its drain. Returns the final stats
/// payload.
///
/// # Errors
///
/// Returns `Err` only for startup failures (unusable socket path); once
/// serving, request failures become typed responses, never daemon exits.
pub fn serve(params: &PlasticineParams, opts: ServeOptions) -> Result<Json, String> {
    let socket_path = opts.socket.clone();
    let listener = match &socket_path {
        Some(p) => Some(bind_socket(p)?),
        None => None,
    };
    let worker_count = opts.workers;
    let shared = Arc::new(Shared {
        params: params.clone(),
        queue: Queue::new(opts.queue_depth),
        opts,
        cache: CompileCache::new(),
        metrics: Metrics::new(),
        fabric: FabricScheduler::new(params),
        shutting_down: AtomicBool::new(false),
        stop_accept: AtomicBool::new(false),
        signal: Mutex::new(None),
        signal_cv: Condvar::new(),
    });
    let workers: Vec<_> = (0..worker_count)
        .map(|_| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || worker_loop(&shared))
        })
        .collect();
    let fabric_handle = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || {
            fabric::scheduler_loop(
                &shared.fabric,
                &shared.params,
                &shared.cache,
                &shared.metrics,
            )
        })
    };
    let accept_handle = listener.map(|l| {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || accept_loop(&shared, l))
    });
    {
        let shared = Arc::clone(&shared);
        // Detached: blocked in `read_line` until EOF or process exit.
        std::thread::spawn(move || stdin_loop(&shared));
    }
    eprintln!(
        "serve: ready ({} workers, queue depth {}, deadline {}ms{})",
        worker_count,
        shared.opts.queue_depth,
        shared.opts.deadline.as_millis(),
        match &socket_path {
            Some(p) => format!(", socket {}", p.display()),
            None => String::new(),
        }
    );
    let sig = shared.wait_shutdown();
    // Drain: admission already rejects (shutting_down is set); close the
    // queue so workers exit once the backlog — each request bounded by
    // its deadline — is gone.
    shared.stop_accept.store(true, Ordering::SeqCst);
    shared.queue.close();
    shared.fabric.stop();
    let mut joined = 0usize;
    for h in workers {
        if h.join().is_ok() {
            joined += 1;
        }
    }
    let _ = fabric_handle.join();
    if let Some(h) = accept_handle {
        let _ = h.join();
    }
    if let Some(p) = &socket_path {
        let _ = std::fs::remove_file(p);
    }
    let final_stats = shared.stats_snapshot();
    if let Some(reply) = &sig.reply {
        let mut pairs = response_head(&sig.id, "shutdown", "ok", 0);
        pairs.push(("stats".to_string(), final_stats.clone()));
        pairs.push(("workers_joined".to_string(), Json::from(joined)));
        pairs.push(("workers_total".to_string(), Json::from(worker_count)));
        reply.send(&Json::Obj(pairs));
    }
    eprintln!(
        "serve: drained; {joined}/{worker_count} workers joined; final stats: {}",
        final_stats.compact()
    );
    Ok(final_stats)
}

#[cfg(unix)]
fn bind_socket(path: &std::path::Path) -> Result<std::os::unix::net::UnixListener, String> {
    use std::os::unix::net::{UnixListener, UnixStream};
    if path.exists() {
        // A live daemon answers a connect; a stale socket file (crashed
        // daemon) refuses it and is safe to reclaim.
        match UnixStream::connect(path) {
            Ok(_) => {
                return Err(format!(
                    "--socket {}: another daemon is already listening",
                    path.display()
                ))
            }
            Err(_) => {
                std::fs::remove_file(path).map_err(|e| {
                    format!("--socket {}: removing stale socket: {e}", path.display())
                })?;
            }
        }
    }
    UnixListener::bind(path).map_err(|e| format!("--socket {}: {e}", path.display()))
}

#[cfg(not(unix))]
fn bind_socket(path: &std::path::Path) -> Result<std::convert::Infallible, String> {
    Err(format!(
        "--socket {}: unix sockets are not supported on this platform",
        path.display()
    ))
}

#[cfg(unix)]
fn accept_loop(shared: &Arc<Shared>, listener: std::os::unix::net::UnixListener) {
    // Nonblocking + poll so the loop can observe `stop_accept` without a
    // self-connect dance.
    let _ = listener.set_nonblocking(true);
    loop {
        if shared.stop_accept.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let shared = Arc::clone(shared);
                std::thread::spawn(move || {
                    let _ = stream.set_nonblocking(false);
                    let Ok(read_half) = stream.try_clone() else {
                        return;
                    };
                    let reply = Reply::new(Box::new(stream));
                    let reader = std::io::BufReader::new(read_half);
                    for line in reader.lines() {
                        let Ok(line) = line else { break };
                        handle_line(&shared, &line, &reply);
                    }
                });
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

#[cfg(not(unix))]
fn accept_loop(_shared: &Arc<Shared>, _listener: std::convert::Infallible) {}

fn stdin_loop(shared: &Arc<Shared>) {
    let stdin = std::io::stdin();
    let reply = Reply::new(Box::new(std::io::stdout()));
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        handle_line(shared, &line, &reply);
    }
    // EOF. When stdio is the only transport the client is gone and the
    // daemon would serve nobody: drain and exit. With a socket configured
    // (daemonized start, stdin < /dev/null), keep serving.
    if shared.opts.socket.is_none() {
        shared.initiate_shutdown(None, Some(reply), false);
    }
}

/// One request line: parse, dispatch control-plane ops inline, admit
/// data-plane ops to the bounded queue (or shed).
fn handle_line(shared: &Arc<Shared>, line: &str, reply: &Reply) {
    if line.trim().is_empty() {
        return;
    }
    let req = match parse_request(line) {
        Ok(r) => r,
        Err((id, msg)) => {
            shared.metrics.record_inline("usage");
            reply.send(&error_response(&id, "?", ExitStatus::Usage, &msg));
            return;
        }
    };
    match req.op {
        Op::Stats => {
            let mut pairs = response_head(&req.id, "stats", "ok", 0);
            pairs.push(("stats".to_string(), shared.stats_snapshot()));
            pairs.push(("fabric_health".to_string(), shared.fabric.health_json()));
            reply.send(&Json::Obj(pairs));
        }
        Op::Shutdown => shared.initiate_shutdown(req.id.clone(), Some(reply.clone()), true),
        Op::Submit => {
            if shared.shutting_down.load(Ordering::SeqCst) {
                shared.metrics.record_shed("shutting_down");
                reply.send(&shutting_down_response(&req.id, "submit"));
                return;
            }
            match submit_tenant(shared, &req) {
                Ok(pairs) => {
                    shared.metrics.record_inline("ok");
                    let mut head = response_head(&req.id, "submit", "ok", 0);
                    head.extend(pairs);
                    reply.send(&Json::Obj(head));
                }
                Err(f) => {
                    shared.metrics.record_inline(f.status.name());
                    reply.send(&error_response(&req.id, "submit", f.status, &f.message));
                }
            }
        }
        Op::Tenants => {
            let mut pairs = response_head(&req.id, "tenants", "ok", 0);
            pairs.push(("tenants".to_string(), shared.fabric.tenants_json()));
            reply.send(&Json::Obj(pairs));
        }
        Op::Evict => {
            let resp = match req.tenant {
                None => error_response(
                    &req.id,
                    "evict",
                    ExitStatus::Usage,
                    "`evict` requires a `tenant` field",
                ),
                Some(id) => {
                    // Bounded wait on the connection thread: the eviction
                    // lands at the tenant's next quantum boundary.
                    let wait = shared.opts.deadline.min(Duration::from_secs(30));
                    match shared.fabric.request_evict(id as usize, wait) {
                        Ok(pairs) => {
                            let mut head = response_head(&req.id, "evict", "ok", 0);
                            head.extend(pairs);
                            Json::Obj(head)
                        }
                        Err(msg) => error_response(&req.id, "evict", ExitStatus::Runtime, &msg),
                    }
                }
            };
            reply.send(&resp);
        }
        Op::Compile | Op::Run | Op::Batch => {
            let op = req.op.as_str();
            if shared.shutting_down.load(Ordering::SeqCst) {
                shared.metrics.record_shed("shutting_down");
                reply.send(&shutting_down_response(&req.id, op));
                return;
            }
            let job = Box::new(Job {
                req,
                reply: reply.clone(),
                enqueued: Instant::now(),
            });
            if let Err(job) = shared.queue.push(job) {
                shared.metrics.record_shed("overloaded");
                job.reply
                    .send(&overloaded_response(&job.req.id, op, shared.queue.depth));
            }
        }
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    while let Some(job) = shared.queue.pop() {
        shared.metrics.begin();
        let enqueued = job.enqueued;
        let resp = execute_job(shared, job.req);
        let status = resp
            .get("status")
            .and_then(Json::as_str)
            .unwrap_or("runtime")
            .to_string();
        // Account the request as finished *before* replying: a client
        // that sees its response and immediately polls `stats` must not
        // find its own request still in flight.
        shared.metrics.finish(&status, enqueued.elapsed());
        job.reply.send(&resp);
    }
}

/// Effective options of one run/compile, request fields over server
/// defaults.
struct Eff {
    bench: Bench,
    faults: FaultMap,
    seed: u64,
    step: StepMode,
    threads: usize,
    max_cycles: Option<u64>,
}

/// Validates a `submit` request and queues the tenant with the fabric
/// scheduler. Answered inline — the heavy work (compile, simulate) runs
/// on the scheduler thread.
fn submit_tenant(shared: &Shared, req: &Request) -> Result<Vec<(String, Json)>, Failure> {
    let name = req
        .bench
        .as_deref()
        .ok_or_else(|| Failure::new(ExitStatus::Usage, "`submit` requires a `bench` field"))?;
    let rows = req
        .rows
        .ok_or_else(|| Failure::new(ExitStatus::Usage, "`submit` requires a `rows` field"))?;
    let d = &shared.opts.defaults;
    let scale = req.scale.unwrap_or(d.scale);
    // Resolve to the canonical name now so a typo fails the submission,
    // not the scheduler thread later.
    let bench = by_name(name, Scale(scale)).ok_or_else(|| {
        Failure::new(
            ExitStatus::Runtime,
            format!("unknown benchmark `{name}` (try `plasticine-run list`)"),
        )
    })?;
    let channels = req.channels.unwrap_or(1);
    // Sample the tenant's fault-arrival schedule now so a malformed spec
    // fails the submission, not the scheduler thread later. Channel
    // failures are sampled against the tenant's private share.
    let timeline = match &req.timeline {
        Some(s) => {
            let tspec: FaultTimelineSpec = s
                .parse()
                .map_err(|e| Failure::new(ExitStatus::Usage, format!("timeline: {e}")))?;
            let topo = Topology::new(&shared.params);
            FaultTimeline::sample(&topo, &tspec, channels)
        }
        None => FaultTimeline::default(),
    };
    let spec = SubmitSpec {
        bench: bench.name.clone(),
        scale,
        rows,
        channels,
        step: req.step.unwrap_or(d.step),
        threads: req.threads.unwrap_or(d.threads),
        max_cycles: req.max_cycles.or(d.max_cycles),
        timeline,
    };
    let bench_name = spec.bench.clone();
    let (rows, channels) = (spec.rows, spec.channels);
    let id = shared
        .fabric
        .submit(spec)
        .map_err(|m| Failure::new(ExitStatus::Usage, m))?;
    shared
        .metrics
        .record_tenant(&bench_name, TenantEvent::Submitted);
    Ok(vec![
        ("tenant".to_string(), Json::from(id)),
        ("bench".to_string(), Json::from(bench_name)),
        ("rows".to_string(), Json::from(rows)),
        ("channels".to_string(), Json::from(channels)),
        ("state".to_string(), Json::from("queued")),
    ])
}

fn resolve_faults(shared: &Shared, req: &Request) -> Result<(FaultMap, u64), Failure> {
    let spec = match &req.faults {
        Some(s) => Some(
            s.parse::<FaultSpec>()
                .map_err(|e| Failure::new(ExitStatus::Usage, format!("faults: {e}")))?,
        ),
        None => shared.opts.defaults.faults.clone(),
    };
    Ok(match spec {
        Some(spec) => {
            let topo = Topology::new(&shared.params);
            let channels = plasticine_dram::DramConfig::default().channels;
            let seed = spec.seed;
            (FaultMap::sample(&topo, &spec, channels), seed)
        }
        None => (FaultMap::default(), 0),
    })
}

fn resolve_bench(shared: &Shared, req: &Request, name: &str) -> Result<Eff, Failure> {
    let d = &shared.opts.defaults;
    let scale = req.scale.unwrap_or(d.scale);
    let bench = by_name(name, Scale(scale)).ok_or_else(|| {
        // Mirrors the one-shot CLI, where an unknown benchmark is
        // exit 1, not a usage error.
        Failure::new(
            ExitStatus::Runtime,
            format!("unknown benchmark `{name}` (try `plasticine-run list`)"),
        )
    })?;
    let (faults, seed) = resolve_faults(shared, req)?;
    Ok(Eff {
        bench,
        faults,
        seed,
        step: req.step.unwrap_or(d.step),
        threads: req.threads.unwrap_or(d.threads),
        max_cycles: req.max_cycles.or(d.max_cycles),
    })
}

/// Executes one queued job, producing the full response object. Never
/// panics out: everything heavy runs contained.
fn execute_job(shared: &Arc<Shared>, req: Request) -> Json {
    let op = req.op.as_str();
    let id = req.id.clone();
    let result = match req.op {
        Op::Run => execute_run(shared, &req),
        Op::Compile => execute_compile(shared, &req),
        Op::Batch => execute_batch(shared, &req),
        // Control-plane ops are answered in `handle_line`, never queued.
        Op::Stats | Op::Shutdown | Op::Submit | Op::Tenants | Op::Evict => {
            return error_response(&id, op, ExitStatus::Usage, "control-plane op was queued")
        }
    };
    match result {
        Ok(payload) => {
            let mut pairs = response_head(&id, op, "ok", 0);
            pairs.extend(payload);
            Json::Obj(pairs)
        }
        Err(f) => error_response(&id, op, f.status, &f.message),
    }
}

/// Runs `f` on its own thread under `catch_unwind`, bounded by what is
/// left of the request's deadline. On timeout the attempt thread is
/// abandoned (it holds nothing the daemon needs) and the request reports
/// a typed runtime failure — the batch supervisor's containment, per
/// request.
fn contained<T: Send + 'static>(
    deadline: Duration,
    enqueued: Instant,
    f: impl FnOnce() -> Result<T, Failure> + Send + 'static,
) -> Result<T, Failure> {
    let Some(remaining) = deadline.checked_sub(enqueued.elapsed()) else {
        return Err(Failure::new(
            ExitStatus::Runtime,
            format!(
                "deadline exceeded after {}ms before execution began (queued too long)",
                deadline.as_millis()
            ),
        ));
    };
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        let res = catch_unwind(AssertUnwindSafe(f));
        let _ = tx.send(res);
    });
    match rx.recv_timeout(remaining) {
        Ok(res) => {
            let _ = handle.join();
            res.unwrap_or_else(|panic| {
                let msg = panic
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                Err(Failure::new(
                    ExitStatus::Runtime,
                    format!("worker panicked: {msg}"),
                ))
            })
        }
        Err(_) => Err(Failure::new(
            ExitStatus::Runtime,
            format!(
                "deadline exceeded after {}ms (request abandoned)",
                deadline.as_millis()
            ),
        )),
    }
}

/// What one successful simulation reports back.
struct RunOutcome {
    result: SimResult,
    compile_degraded: Vec<String>,
    resumed_from: Option<u64>,
    retries: u32,
    recovery: Option<String>,
    recovery_notes: Vec<String>,
}

/// One compile+simulate+verify attempt, through the shared cache.
/// `prog_override` carries a parallelization-reduced program on the
/// degradation path.
fn run_once(
    shared: &Shared,
    eff: &Eff,
    prog_override: Option<&Program>,
) -> Result<RunOutcome, Failure> {
    let program = prog_override.unwrap_or(&eff.bench.program);
    let copts = CompileOptions {
        faults: eff.faults.clone(),
        ..CompileOptions::new()
    };
    let cached = shared
        .cache
        .compile_degraded(program, &shared.params, &copts)
        .map_err(|e| Failure::new(ExitStatus::Compile, e.to_string()))?;
    let (out, prog, degraded) = &*cached;
    let mut m = Machine::new(prog);
    eff.bench.load(&mut m);
    let mut opts = SimOptions {
        faults: eff.faults.clone(),
        step: eff.step,
        threads: eff.threads,
        ..SimOptions::default()
    };
    if let Some(n) = eff.max_cycles {
        opts.max_cycles = n;
    }
    let d = &shared.opts.defaults;
    let checkpointing = d.checkpoint_every.is_some() || d.checkpoint_dir.is_some();
    let mut resumed_from = None;
    let r = if checkpointing {
        let dir = d.checkpoint_dir.as_deref().unwrap_or(".");
        let ckpt_path = checkpoint_path(dir, &eff.bench.name);
        // A checkpoint left by an interrupted earlier request (or a
        // previous daemon incarnation) resumes when it matches this exact
        // job; a stale or foreign snapshot is ignored.
        let resume = match Checkpoint::load(&ckpt_path) {
            Ok(c) if c.matches(prog, &out.config, &opts).is_ok() => {
                resumed_from = Some(c.cycle);
                Some(c)
            }
            _ => None,
        };
        let policy = CheckpointPolicy {
            every: d.checkpoint_every,
            on_error: true,
        };
        let r = simulate_checkpointed(
            prog,
            out,
            &mut m,
            &opts,
            policy,
            resume.as_ref(),
            &mut |c| {
                if let Err(e) = super::emit_checkpoint(dir, &eff.bench.name, d.checkpoint_keep, c) {
                    eprintln!("serve: {}: checkpoint write failed: {e}", eff.bench.name);
                }
            },
        )
        .map_err(Failure::from_sim)?;
        let _ = std::fs::remove_file(&ckpt_path);
        r
    } else {
        simulate(prog, out, &mut m, &opts).map_err(Failure::from_sim)?
    };
    eff.bench
        .verify(&m)
        .map_err(|e| Failure::new(ExitStatus::Runtime, e))?;
    Ok(RunOutcome {
        result: r,
        compile_degraded: degraded.clone(),
        resumed_from,
        retries: 0,
        recovery: None,
        recovery_notes: Vec::new(),
    })
}

/// The full run pipeline: attempt, bounded jittered retry on fault
/// exhaustion, then reduced-parallelization degradation.
fn run_pipeline(shared: &Shared, eff: &Eff) -> Result<RunOutcome, Failure> {
    // The CI/test fault hooks the batch supervisor uses, honored here so
    // panic and hang containment can be driven deterministically.
    if env_lists_bench("PLASTICINE_TEST_PANIC", &eff.bench.name) {
        panic!(
            "injected panic in `{}` (PLASTICINE_TEST_PANIC)",
            eff.bench.name
        );
    }
    if env_lists_bench("PLASTICINE_TEST_HANG", &eff.bench.name) {
        loop {
            std::thread::sleep(Duration::from_secs(3600));
        }
    }
    let mut attempt = 0u32;
    let mut result = run_once(shared, eff, None);
    loop {
        match &result {
            Err(f) if f.status == ExitStatus::FaultExhaustion && attempt < shared.opts.retries => {
                attempt += 1;
                let ms = jittered_backoff_ms(eff.seed, &eff.bench.name, attempt);
                std::thread::sleep(Duration::from_millis(ms));
                result = run_once(shared, eff, None);
            }
            _ => break,
        }
    }
    if let Ok(out) = &mut result {
        out.retries = attempt;
        return result;
    }
    let Err(f) = &result else { unreachable!() };
    if f.status != ExitStatus::FaultExhaustion {
        return result;
    }
    // Graceful degradation: halve the largest parallelization factor and
    // re-run, repeating until the run survives or no parallelism is left.
    // Fewer in-flight requests per cycle means fewer chances for the
    // injected drop stream to exhaust a retry budget.
    let mut prog = eff.bench.program.clone();
    let mut notes = Vec::new();
    while let Some((reduced, note)) = prog.with_reduced_par() {
        prog = reduced;
        notes.push(note);
        match run_once(shared, eff, Some(&prog)) {
            Ok(mut out) => {
                out.retries = attempt;
                out.recovery = Some("compile_degraded".to_string());
                out.recovery_notes = notes;
                return Ok(out);
            }
            Err(f2) if f2.status == ExitStatus::FaultExhaustion => continue,
            Err(f2) => return Err(f2),
        }
    }
    result
}

fn outcome_payload(bench: &Bench, out: &RunOutcome) -> Vec<(String, Json)> {
    let mut pairs = vec![
        ("bench".to_string(), Json::from(bench.name.clone())),
        ("cycles".to_string(), Json::from(out.result.cycles)),
        ("verified".to_string(), Json::from(true)),
    ];
    if !out.compile_degraded.is_empty() {
        pairs.push((
            "degraded".to_string(),
            Json::Arr(
                out.compile_degraded
                    .iter()
                    .map(|n| Json::from(n.as_str()))
                    .collect(),
            ),
        ));
    }
    if let Some(c) = out.resumed_from {
        pairs.push(("resumed_from".to_string(), Json::from(c)));
    }
    if out.retries > 0 {
        pairs.push(("retries".to_string(), Json::from(out.retries)));
    }
    if let Some(r) = &out.recovery {
        pairs.push(("recovery".to_string(), Json::from(r.as_str())));
        pairs.push((
            "recovery_notes".to_string(),
            Json::Arr(
                out.recovery_notes
                    .iter()
                    .map(|n| Json::from(n.as_str()))
                    .collect(),
            ),
        ));
    }
    pairs
}

fn execute_run(shared: &Arc<Shared>, req: &Request) -> Result<Vec<(String, Json)>, Failure> {
    let name = req
        .bench
        .as_deref()
        .ok_or_else(|| Failure::new(ExitStatus::Usage, "`run` requires a `bench` field"))?;
    let eff = resolve_bench(shared, req, name)?;
    let enqueued = Instant::now();
    let deadline = shared.opts.deadline;
    let shared2 = Arc::clone(shared);
    let out = contained(deadline, enqueued, move || {
        let eff = eff;
        run_pipeline(&shared2, &eff).map(|o| (eff, o))
    })?;
    let (eff, out) = out;
    let mut pairs = outcome_payload(&eff.bench, &out);
    // The exact object the one-shot CLI writes with `--stats-json`:
    // byte-identical by construction (same compile, same options, same
    // deterministic kernel).
    pairs.push((
        "stats".to_string(),
        stats_with_bench(&eff.bench, &out.result),
    ));
    Ok(pairs)
}

fn execute_compile(shared: &Arc<Shared>, req: &Request) -> Result<Vec<(String, Json)>, Failure> {
    let name = req
        .bench
        .as_deref()
        .ok_or_else(|| Failure::new(ExitStatus::Usage, "`compile` requires a `bench` field"))?;
    let eff = resolve_bench(shared, req, name)?;
    let out_path = req.out.clone();
    let deadline = shared.opts.deadline;
    let shared2 = Arc::clone(shared);
    contained(deadline, Instant::now(), move || {
        if env_lists_bench("PLASTICINE_TEST_PANIC", &eff.bench.name) {
            panic!(
                "injected panic in `{}` (PLASTICINE_TEST_PANIC)",
                eff.bench.name
            );
        }
        let copts = CompileOptions {
            faults: eff.faults.clone(),
            ..CompileOptions::new()
        };
        let cached = shared2
            .cache
            .compile_degraded(&eff.bench.program, &shared2.params, &copts)
            .map_err(|e| Failure::new(ExitStatus::Compile, e.to_string()))?;
        let (out, _, degraded) = &*cached;
        let artifact = Bitstream::new(&eff.bench.program, out.clone(), degraded.clone());
        let (pcu, pmu, ag) = out.config.utilization();
        let mut pairs = vec![
            ("bench".to_string(), Json::from(eff.bench.name.clone())),
            ("pcus".to_string(), Json::from(out.config.usage.pcus)),
            ("pmus".to_string(), Json::from(out.config.usage.pmus)),
            ("ags".to_string(), Json::from(out.config.usage.ags)),
            ("links".to_string(), Json::from(out.config.links.len())),
            ("util_pcu".to_string(), Json::from(pcu)),
            ("util_pmu".to_string(), Json::from(pmu)),
            ("util_ag".to_string(), Json::from(ag)),
            ("content_hash".to_string(), Json::hex(artifact.content_hash)),
        ];
        if !degraded.is_empty() {
            pairs.push((
                "degraded".to_string(),
                Json::Arr(degraded.iter().map(|n| Json::from(n.as_str())).collect()),
            ));
        }
        if let Some(path) = &out_path {
            artifact.save(std::path::Path::new(path)).map_err(|e| {
                Failure::new(ExitStatus::Runtime, format!("saving artifact {path}: {e}"))
            })?;
            pairs.push(("out".to_string(), Json::from(path.as_str())));
        }
        Ok(pairs)
    })
}

fn execute_batch(shared: &Arc<Shared>, req: &Request) -> Result<Vec<(String, Json)>, Failure> {
    if req.benches.is_empty() {
        return Err(Failure::new(
            ExitStatus::Usage,
            "`batch` requires a `benches` list (names or \"all\")",
        ));
    }
    // Resolve every name up front so typos fail fast, before any work.
    let mut effs: Vec<Eff> = Vec::new();
    for name in &req.benches {
        if name == "all" {
            let scale = req.scale.unwrap_or(shared.opts.defaults.scale);
            for b in all(Scale(scale)) {
                let name = b.name.clone();
                effs.push(resolve_bench(shared, req, &name)?);
            }
        } else {
            effs.push(resolve_bench(shared, req, name)?);
        }
    }
    let deadline = shared.opts.deadline;
    let shared2 = Arc::clone(shared);
    contained(deadline, Instant::now(), move || {
        let mut results = Vec::new();
        let (mut ok, mut failed) = (0u64, 0u64);
        let mut first_failure: Option<ExitStatus> = None;
        for eff in &effs {
            // Contain each benchmark separately so one panicking job
            // yields a typed per-bench failure instead of sinking the
            // whole batch response.
            let res = catch_unwind(AssertUnwindSafe(|| run_pipeline(&shared2, eff)))
                .unwrap_or_else(|panic| {
                    let msg = panic
                        .downcast_ref::<&str>()
                        .map(|s| (*s).to_string())
                        .or_else(|| panic.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic payload".to_string());
                    Err(Failure::new(
                        ExitStatus::Runtime,
                        format!("worker panicked: {msg}"),
                    ))
                });
            match res {
                Ok(out) => {
                    ok += 1;
                    let mut pairs = vec![
                        ("bench".to_string(), Json::from(eff.bench.name.clone())),
                        ("status".to_string(), Json::from("ok")),
                        ("code".to_string(), Json::from(0u64)),
                        ("cycles".to_string(), Json::from(out.result.cycles)),
                    ];
                    if let Some(r) = &out.recovery {
                        pairs.push(("recovery".to_string(), Json::from(r.as_str())));
                    }
                    results.push(Json::Obj(pairs));
                }
                Err(f) => {
                    failed += 1;
                    first_failure.get_or_insert(f.status);
                    results.push(Json::obj([
                        ("bench", Json::from(eff.bench.name.clone())),
                        ("status", Json::from(f.status.name())),
                        ("code", Json::from(i64::from(f.status.code()))),
                        ("error", Json::from(f.message)),
                    ]));
                }
            }
        }
        if let Some(status) = first_failure {
            return Err(Failure::new(
                status,
                format!(
                    "{failed} of {} jobs failed; see `results`: {}",
                    results.len(),
                    Json::Arr(results).compact()
                ),
            ));
        }
        Ok(vec![
            ("ok".to_string(), Json::from(ok)),
            ("failed".to_string(), Json::from(failed)),
            ("results".to_string(), Json::Arr(results)),
        ])
    })
}
