//! The `serve_mix` workload: the in-process `serve` daemon on a Unix
//! socket, 2 workers, driven by a closed loop of 2 client connections.
//! Both match the two cores of the host the baseline was measured on.
//! The only clients in the repository (its service tests and the CI
//! serve smoke) send a request and wait for its reply, hence a closed
//! loop. The request mix itself is chosen, not observed (see `stream`).

use crate::check::{Expected, Tally};
use crate::ops::{count_passes, simulate_split, Dram, OpSpec};
use crate::report::{peak_rss_mb, Outcome, Service};
use crate::spans::Tracer;
use crate::stats::{percentile, sorted};
use crate::stream::{fault_spec, stream, ReqOp, Request, BLOCK};
use crate::workload::{Config, Workload};
use plasticine::arch::{FaultMap, FaultSpec, PlasticineParams, Topology};
use plasticine::compiler::{CompileCache, CompileOptions};
use plasticine::dram::DramConfig;
use plasticine::json::Json;
use plasticine::service::{serve, RequestDefaults, ServeOptions};
use plasticine::sim::SimOptions;
use plasticine::workloads::{all, Scale};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const WORKERS: usize = 2;
const CLIENTS: usize = 2;
/// Daemon start-ups whose median is `setup_s`.
const SETUP_REPS: usize = 3;
/// Requests generated up front; far more than a run sends.
const MAX_REQUESTS: usize = 100 * BLOCK;
/// A run always completes this many requests, however slow the host.
const MIN_REQUESTS: usize = 2 * BLOCK;

/// One client connection.
struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Client {
    fn connect(sock: &Path) -> Result<Client, String> {
        let writer = UnixStream::connect(sock).map_err(|e| format!("connect: {e}"))?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
        Ok(Client { reader, writer })
    }

    /// Sends one request line and waits for its reply.
    fn call(&mut self, line: &str) -> Result<Json, String> {
        self.send(line)?;
        self.receive()
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        writeln!(self.writer, "{line}").map_err(|e| format!("send: {e}"))
    }

    fn receive(&mut self) -> Result<Json, String> {
        let mut reply = String::new();
        match self.reader.read_line(&mut reply) {
            Ok(0) => Err("daemon closed the connection".to_string()),
            Ok(_) => Json::parse(&reply).map_err(|e| format!("reply: {e}")),
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

/// A daemon running on its own thread.
struct Daemon {
    sock: PathBuf,
    handle: JoinHandle<Result<Json, String>>,
}

impl Daemon {
    fn start(params: &PlasticineParams, sock: &Path) -> Result<Daemon, String> {
        let opts = ServeOptions {
            workers: WORKERS,
            queue_depth: 8,
            deadline: Duration::from_secs(120),
            retries: 2,
            socket: Some(sock.to_path_buf()),
            defaults: RequestDefaults::default(),
        };
        let params = params.clone();
        let handle = std::thread::spawn(move || serve(&params, opts));
        let t = Instant::now();
        while UnixStream::connect(sock).is_err() {
            if handle.is_finished() {
                return Err(match handle.join() {
                    Ok(Err(e)) => e,
                    _ => "daemon exited before listening".to_string(),
                });
            }
            if t.elapsed() > Duration::from_secs(30) {
                return Err("daemon did not listen within 30 s".to_string());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Ok(Daemon {
            sock: sock.to_path_buf(),
            handle,
        })
    }

    /// Sends `op` for every (bench, scale) that `run` requests use, one
    /// (bench, scale) at a time, on `conns` connections at once. A
    /// pristine `compile` on one connection fills the compile cache. A
    /// `run` on [`WORKERS`] connections warms the rest of the path on
    /// every worker: each takes one copy, so each worker's allocator
    /// arena serves every request, and the memory high-water mark does
    /// not depend on which worker happened to serve the largest ones.
    fn warm(&self, op: ReqOp, conns: usize, exp: &Expected, tally: &mut Tally) {
        let clients: Result<Vec<Client>, String> =
            (0..conns).map(|_| Client::connect(&self.sock)).collect();
        let mut clients = match clients {
            Ok(c) => c,
            Err(e) => return tally.record(Err(e)),
        };
        for (i, o) in Workload::ServeMix.ops().into_iter().enumerate() {
            let req = Request {
                index: i as u64,
                bench: o.bench,
                scale: o.scale,
                op,
            };
            let sent: Vec<_> = clients.iter_mut().map(|c| c.send(&req.line())).collect();
            for (c, sent) in clients.iter_mut().zip(sent) {
                let reply = sent.and_then(|()| c.receive());
                tally.record(check_reply(&req, reply, exp));
            }
        }
    }

    /// Drains the daemon and joins it; every worker must have joined.
    fn shutdown(self) -> Result<(), String> {
        let reply = Client::connect(&self.sock)?.call("{\"op\":\"shutdown\"}");
        let served = self
            .handle
            .join()
            .map_err(|_| "daemon thread panicked".to_string())?;
        served?;
        let reply = reply?;
        let joined = reply.get("workers_joined").and_then(Json::as_u64);
        match joined {
            Some(n) if n == WORKERS as u64 => Ok(()),
            _ => Err(format!("daemon drain: {}", reply.compact())),
        }
    }
}

fn ok_status(reply: &Json) -> Result<(), String> {
    match reply.get("status").and_then(Json::as_str) {
        Some("ok") => Ok(()),
        _ => Err(format!("reply not ok: {}", reply.compact())),
    }
}

fn served_key(req: &Request) -> String {
    OpSpec {
        bench: req.bench,
        scale: req.scale,
        dram: Dram::Paper,
    }
    .key()
}

/// A reply is correct when its status is `ok` and, for a `run`, its
/// output was verified and its stats match the pinned digest.
fn check_reply(req: &Request, reply: Result<Json, String>, exp: &Expected) -> Result<(), String> {
    let j = reply.map_err(|e| format!("request {}: {e}", req.index))?;
    ok_status(&j)?;
    if req.op != ReqOp::Run {
        return Ok(());
    }
    if j.get("verified") != Some(&Json::Bool(true)) {
        return Err(format!("request {}: output not verified", req.index));
    }
    let stats = j
        .get("stats")
        .ok_or_else(|| format!("request {}: reply has no stats", req.index))?;
    exp.check(&served_key(req), &stats.pretty())
}

/// Completion instant and latency (s) of each request, in completion
/// order, and the checks.
fn closed_loop(
    sock: &Path,
    reqs: &[Request],
    window: Duration,
    exp: &Expected,
) -> (Instant, Vec<(Instant, f64)>, Tally) {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let per_client: Vec<(Vec<(Instant, f64)>, Tally)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let mut samples = Vec::new();
                    let mut tally = Tally::default();
                    let mut client = match Client::connect(sock) {
                        Ok(c) => c,
                        Err(e) => {
                            tally.record(Err(e));
                            return (samples, tally);
                        }
                    };
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= reqs.len() || (i >= MIN_REQUESTS && start.elapsed() >= window) {
                            return (samples, tally);
                        }
                        let t0 = Instant::now();
                        let reply = client.call(&reqs[i].line());
                        let done = Instant::now();
                        samples.push((done, (done - t0).as_secs_f64()));
                        tally.record(check_reply(&reqs[i], reply, exp));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client panicked"))
            .collect()
    });
    let mut samples = Vec::new();
    let mut tally = Tally::default();
    for (s, t) in per_client {
        samples.extend(s);
        tally.merge(t);
    }
    samples.sort_by_key(|&(done, _)| done);
    (start, samples, tally)
}

/// Wall time of each successive [`BLOCK`] completions.
fn block_walls(start: Instant, samples: &[(Instant, f64)]) -> Vec<f64> {
    let mut prev = start;
    samples
        .chunks_exact(BLOCK)
        .map(|c| {
            let end = c[BLOCK - 1].0;
            let wall = (end - prev).as_secs_f64();
            prev = end;
            wall
        })
        .collect()
}

/// The daemon's `stats`, reduced to what the layer metrics need.
fn service_stats(sock: &Path, client_p50_ms: f64) -> Result<Service, String> {
    let reply = Client::connect(sock)?.call("{\"op\":\"stats\"}")?;
    ok_status(&reply)?;
    let stats = reply.get("stats").ok_or("stats reply has no stats")?;
    let n = |k: &str| stats.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    let lookups = n("cache_hits") + n("cache_misses");
    Ok(Service {
        cache_hit_ratio: if lookups > 0.0 {
            n("cache_hits") / lookups
        } else {
            0.0
        },
        shed: n("shed") as u64,
        client_overhead_ratio: (client_p50_ms - n("latency_p50_ms")) / client_p50_ms,
    })
}

/// Replays `block` in process, one request at a time, through the layers
/// a served request passes: `all(Scale)`, the compile cache, and the
/// split simulation.
fn replay(
    tr: &mut Tracer,
    block: &[Request],
    params: &PlasticineParams,
    cache: &CompileCache,
    exp: &Expected,
) -> Tally {
    let mut tally = Tally::default();
    for req in block {
        let kind = if req.op == ReqOp::Run {
            "run"
        } else {
            "compile"
        };
        let root = tr.enter(format!("op {kind} {}", served_key(req)));
        let outcome = replay_one(tr, req, params, cache, exp);
        tr.exit(root);
        tally.record(outcome);
    }
    tally
}

fn replay_one(
    tr: &mut Tracer,
    req: &Request,
    params: &PlasticineParams,
    cache: &CompileCache,
    exp: &Expected,
) -> Result<(), String> {
    let bench = tr.span("workloads.build", || {
        all(Scale(req.scale))
            .into_iter()
            .find(|b| b.name == req.bench)
    });
    let b = bench.ok_or_else(|| format!("unknown bench {}", req.bench))?;
    let id = tr.enter("compiler.compile");
    let faults = match req.op {
        ReqOp::Compile {
            fault_seed: Some(seed),
        } => {
            let spec: FaultSpec = fault_spec(seed).parse().expect("fault spec is well-formed");
            let channels = DramConfig::default().channels;
            FaultMap::sample(&Topology::new(params), &spec, channels)
        }
        _ => FaultMap::default(),
    };
    let opts = CompileOptions {
        faults,
        ..CompileOptions::new()
    };
    let misses = cache.misses();
    let cached = cache.compile_degraded(&b.program, params, &opts);
    tr.exit(id);
    let cached = cached.map_err(|e| format!("{}: {e}", req.bench))?;
    if cache.misses() > misses {
        count_passes(tr, id, &cached.0);
    }
    if req.op != ReqOp::Run {
        return Ok(());
    }
    let (out, prog, _) = &*cached;
    let opts = SimOptions::default();
    simulate_split(tr, &b, prog, out, &opts, None, &served_key(req), exp)
}

/// Runs the `serve_mix` workload.
///
/// Untraced: a daemon start-up through a warmed compile cache, a warm-up
/// pass of runs (after which the memory high-water mark is taken), the
/// closed loop for `cfg.seconds`, then `SETUP_REPS - 1` more start-ups
/// for `setup_s` alone. Traced: one start-up, the closed loop for half
/// the time (for the daemon's own numbers), then in-process replays of
/// whole blocks of the same stream for the other half (at least one
/// block).
///
/// # Errors
///
/// When the daemon does not start.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let params = PlasticineParams::paper_final();
    let exp = Expected::committed();
    let reqs = stream(cfg.seed, MAX_REQUESTS);
    let sock = cfg.dir.join("d.sock");
    let mut o = Outcome::default();
    let window = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let reps = if cfg.trace { 1 } else { SETUP_REPS };
    for rep in 0..reps {
        let t = Instant::now();
        let daemon = Daemon::start(&params, &sock)?;
        daemon.warm(ReqOp::Compile { fault_seed: None }, 1, &exp, &mut o.tally);
        o.setup_s.push(t.elapsed().as_secs_f64());
        // The first daemon is the measured one: a drained daemon leaves
        // memory behind in its workers' allocator arenas, which would
        // inflate a later daemon's high-water mark by a varying amount.
        if rep == 0 {
            daemon.warm(ReqOp::Run, WORKERS, &exp, &mut o.tally);
            o.peak_rss_mb = peak_rss_mb().unwrap_or(f64::NAN);
            let (start, samples, tally) =
                closed_loop(&sock, &reqs, Duration::from_secs_f64(window), &exp);
            o.tally.merge(tally);
            o.op_s = samples.iter().map(|&(_, lat)| lat).collect();
            o.pass_s = block_walls(start, &samples);
            if cfg.trace {
                let client_p50_ms = percentile(&sorted(&o.op_s), 0.5) * 1e3;
                match service_stats(&sock, client_p50_ms) {
                    Ok(s) => o.service = s,
                    Err(e) => o.tally.record(Err(e)),
                }
            }
        }
        o.tally.record(daemon.shutdown());
    }

    if cfg.trace {
        let cache = CompileCache::new();
        for op in Workload::ServeMix.ops() {
            let b = crate::ops::construct(op.bench, op.scale);
            if let Err(e) = cache.compile_degraded(&b.program, &params, &CompileOptions::new()) {
                o.tally.record(Err(e.to_string()));
            }
        }
        let mut tr = Tracer::new();
        let t = Instant::now();
        for block in reqs.chunks(BLOCK) {
            let first = tr.spans().len();
            o.tally.merge(replay(&mut tr, block, &params, &cache, &exp));
            o.pass_spans.push(first..tr.spans().len());
            if t.elapsed().as_secs_f64() >= cfg.seconds - window {
                break;
            }
        }
        o.spans = tr.spans().to_vec();
    }
    Ok(o)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_walls_count_whole_blocks_only() {
        let start = Instant::now();
        let samples: Vec<(Instant, f64)> = (1..=(2 * BLOCK + 5) as u64)
            .map(|i| (start + Duration::from_millis(i * 10), 0.01))
            .collect();
        let walls = block_walls(start, &samples);
        assert_eq!(walls.len(), 2);
        assert!((walls[0] - 0.32).abs() < 1e-9 && (walls[1] - 0.32).abs() < 1e-9);
    }
}
