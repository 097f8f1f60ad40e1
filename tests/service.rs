//! Integration tests for `plasticine-run serve`, driven through the real
//! binary over its Unix socket.
//!
//! The headline scenarios are the ones the daemon exists for: a panicking
//! and a deadline-exceeding request in one session must yield typed error
//! responses while later requests succeed with stats byte-identical to
//! the one-shot CLI; and a saturated admission queue must shed with typed
//! `overloaded` responses and consistent counters.

#![cfg(unix)]

use plasticine::json::Json;
use plasticine::workloads::{all, Scale};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_plasticine-run")
}

/// Fresh scratch directory per test (no tempdir crate; the target dir is
/// already ours to write under).
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

struct Daemon {
    child: Child,
    sock: PathBuf,
}

impl Daemon {
    /// Starts `plasticine-run serve --socket …` and waits for the socket
    /// to accept connections. stdin is `/dev/null` (immediate EOF), which
    /// must NOT shut the daemon down while a socket is configured.
    fn start(dir: &Path, args: &[&str], envs: &[(&str, &str)]) -> Daemon {
        let sock = dir.join("serve.sock");
        let mut c = Command::new(bin());
        c.arg("serve")
            .arg("--socket")
            .arg(&sock)
            .args(args)
            .current_dir(dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::from(
                std::fs::File::create(dir.join("serve.stderr")).unwrap(),
            ));
        for (k, v) in envs {
            c.env(k, v);
        }
        let child = c.spawn().expect("spawning plasticine-run serve");
        let deadline = Instant::now() + Duration::from_secs(60);
        while UnixStream::connect(&sock).is_err() {
            assert!(
                Instant::now() < deadline,
                "daemon never opened its socket; stderr: {}",
                std::fs::read_to_string(dir.join("serve.stderr")).unwrap_or_default()
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        Daemon { child, sock }
    }

    fn connect(&self) -> Client {
        let stream = UnixStream::connect(&self.sock).expect("connecting to daemon socket");
        let reader = BufReader::new(stream.try_clone().unwrap());
        Client {
            reader,
            writer: stream,
            pending: Vec::new(),
        }
    }

    /// Sends `shutdown` on a fresh connection, checks the final response,
    /// and waits for the process to exit 0.
    fn shutdown(mut self, dir: &Path) -> Json {
        let mut c = self.connect();
        c.send(r#"{"id": "bye", "op": "shutdown"}"#);
        let resp = c.recv();
        assert_eq!(resp.get("status").unwrap().as_str(), Some("ok"), "{resp:?}");
        assert!(
            resp.get("stats").is_some(),
            "shutdown response should carry final stats: {resp:?}"
        );
        let deadline = Instant::now() + Duration::from_secs(60);
        let status = loop {
            if let Some(s) = self.child.try_wait().unwrap() {
                break s;
            }
            assert!(Instant::now() < deadline, "daemon did not exit after drain");
            std::thread::sleep(Duration::from_millis(20));
        };
        let err = std::fs::read_to_string(dir.join("serve.stderr")).unwrap_or_default();
        assert_eq!(status.code(), Some(0), "daemon exit; stderr: {err}");
        assert!(
            err.contains("workers joined"),
            "drain summary should report joined workers: {err}"
        );
        resp
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    /// Responses read while waiting for a specific id (worker threads
    /// complete out of order, so lines interleave across requests).
    pending: Vec<Json>,
}

impl Client {
    fn send(&mut self, line: &str) {
        writeln!(self.writer, "{line}").expect("writing request");
    }

    fn recv_raw(&mut self) -> Json {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("reading response");
        assert!(n > 0, "daemon closed the connection");
        Json::parse(&line).expect("response is JSON")
    }

    fn recv(&mut self) -> Json {
        if self.pending.is_empty() {
            self.recv_raw()
        } else {
            self.pending.remove(0)
        }
    }

    /// The response whose `id` is the string `id`, buffering any others
    /// that arrive first.
    fn recv_id(&mut self, id: &str) -> Json {
        let matches = |r: &Json| r.get("id").and_then(Json::as_str) == Some(id);
        if let Some(pos) = self.pending.iter().position(matches) {
            return self.pending.remove(pos);
        }
        loop {
            let r = self.recv_raw();
            if matches(&r) {
                return r;
            }
            self.pending.push(r);
        }
    }

    /// One request, one response (only safe with no other outstanding
    /// requests on this connection).
    fn ask(&mut self, line: &str) -> Json {
        self.send(line);
        self.recv()
    }
}

fn status_of(resp: &Json) -> (&str, i64) {
    (
        resp.get("status").and_then(Json::as_str).unwrap(),
        resp.get("code").and_then(Json::as_i64).unwrap(),
    )
}

/// The one-shot CLI's `--stats-json` output for a benchmark, as written
/// to disk.
fn oneshot_stats(dir: &Path, bench: &str) -> String {
    let file = format!("{}.oneshot.json", bench.to_ascii_lowercase());
    let o = Command::new(bin())
        .args(["run", bench, "--stats-json", &file])
        .current_dir(dir)
        .output()
        .expect("spawning one-shot run");
    assert_eq!(
        o.status.code(),
        Some(0),
        "one-shot {bench}: {}",
        String::from_utf8_lossy(&o.stderr)
    );
    std::fs::read_to_string(dir.join(&file)).unwrap()
}

/// The daemon must survive a panicking request AND a deadline-exceeding
/// request in one session, answering both with typed errors; a subsequent
/// `run` must succeed with stats byte-identical to the one-shot CLI.
#[test]
fn daemon_survives_panic_and_deadline_with_typed_errors() {
    let dir = scratch("svc-isolation");
    let daemon = Daemon::start(
        &dir,
        &["--workers", "1", "--deadline-ms", "3000"],
        &[
            ("PLASTICINE_TEST_PANIC", "GEMM"),
            ("PLASTICINE_TEST_HANG", "BFS"),
        ],
    );
    let mut c = daemon.connect();

    let resp = c.ask(r#"{"id": 1, "op": "run", "bench": "GEMM"}"#);
    assert_eq!(status_of(&resp), ("runtime", 1), "{resp:?}");
    assert!(
        resp.get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("panicked"),
        "{resp:?}"
    );
    assert_eq!(resp.get("id").unwrap().as_i64(), Some(1));

    let resp = c.ask(r#"{"id": 2, "op": "run", "bench": "BFS"}"#);
    assert_eq!(status_of(&resp), ("runtime", 1), "{resp:?}");
    assert!(
        resp.get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("deadline exceeded"),
        "{resp:?}"
    );

    // The same worker thread keeps serving: a healthy request after both
    // failures succeeds, byte-identical to the one-shot CLI.
    let resp = c.ask(r#"{"id": 3, "op": "run", "bench": "InnerProduct"}"#);
    assert_eq!(status_of(&resp), ("ok", 0), "{resp:?}");
    assert_eq!(resp.get("verified").unwrap().as_bool(), Some(true));
    assert_eq!(
        resp.get("stats").unwrap().pretty(),
        oneshot_stats(&dir, "InnerProduct"),
        "served stats must equal the one-shot CLI --stats-json output"
    );

    let stats = c.ask(r#"{"op": "stats"}"#);
    let by = stats
        .get("stats")
        .unwrap()
        .get("by_status")
        .unwrap()
        .clone();
    assert_eq!(by.get("runtime").and_then(Json::as_u64), Some(2), "{by:?}");
    assert_eq!(by.get("ok").and_then(Json::as_u64), Some(1), "{by:?}");

    daemon.shutdown(&dir);
}

/// Every served workload's stats object is byte-identical to what the
/// one-shot CLI writes with `--stats-json` — the daemon is a cache in
/// front of the same deterministic pipeline, never a different one.
#[test]
fn served_stats_are_byte_identical_to_the_oneshot_cli_for_all_workloads() {
    let dir = scratch("svc-identity");
    let names: Vec<String> = all(Scale(1)).into_iter().map(|b| b.name).collect();
    let daemon = Daemon::start(&dir, &["--workers", "4", "--queue-depth", "32"], &[]);
    let mut c = daemon.connect();
    for (i, name) in names.iter().enumerate() {
        c.send(&format!(r#"{{"id": {i}, "op": "run", "bench": "{name}"}}"#));
    }
    // Workers finish out of order; collect responses and match by id.
    let mut by_id: Vec<Option<Json>> = vec![None; names.len()];
    for _ in 0..names.len() {
        let resp = c.recv();
        let id = resp.get("id").and_then(Json::as_usize).unwrap();
        by_id[id] = Some(resp);
    }
    for (name, resp) in names.iter().zip(by_id) {
        let resp = resp.expect("response for every request");
        assert_eq!(status_of(&resp), ("ok", 0), "{name}: {resp:?}");
        assert_eq!(
            resp.get("stats").unwrap().pretty(),
            oneshot_stats(&dir, name),
            "{name}: served stats must equal the one-shot CLI output"
        );
    }
    // Second identical sweep: all compiles must now hit the shared cache.
    for (i, name) in names.iter().enumerate() {
        c.send(&format!(r#"{{"id": {i}, "op": "run", "bench": "{name}"}}"#));
    }
    for _ in 0..names.len() {
        let resp = c.recv();
        assert_eq!(status_of(&resp), ("ok", 0), "{resp:?}");
    }
    let final_stats = daemon.shutdown(&dir);
    let s = final_stats.get("stats").unwrap();
    assert_eq!(
        s.get("cache_hits").and_then(Json::as_u64),
        Some(names.len() as u64),
        "second sweep should be all cache hits: {s:?}"
    );
}

/// A saturated admission queue sheds immediately with a typed
/// `overloaded` response, the shed counter matches, and control-plane
/// `stats` keeps answering throughout.
#[test]
fn saturated_queue_sheds_with_typed_overloaded_responses() {
    let dir = scratch("svc-shed");
    let daemon = Daemon::start(
        &dir,
        &[
            "--workers",
            "1",
            "--queue-depth",
            "2",
            "--deadline-ms",
            "3000",
        ],
        &[("PLASTICINE_TEST_HANG", "GEMM")],
    );
    let mut c = daemon.connect();
    let mut poll = 0u32;
    let mut stats_poll = |c: &mut Client| -> Json {
        poll += 1;
        let id = format!("poll-{poll}");
        c.send(&format!(r#"{{"id": "{id}", "op": "stats"}}"#));
        c.recv_id(&id).get("stats").unwrap().clone()
    };
    // Occupy the single worker with a hanging request, then fill the
    // two-deep queue behind it.
    c.send(r#"{"id": "h", "op": "run", "bench": "GEMM"}"#);
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let s = stats_poll(&mut c);
        if s.get("in_flight").and_then(Json::as_u64) == Some(1) {
            break;
        }
        assert!(Instant::now() < deadline, "worker never picked up the job");
        std::thread::sleep(Duration::from_millis(20));
    }
    c.send(r#"{"id": "q1", "op": "run", "bench": "GEMM"}"#);
    c.send(r#"{"id": "q2", "op": "run", "bench": "GEMM"}"#);
    loop {
        let s = stats_poll(&mut c);
        if s.get("queue_len").and_then(Json::as_u64) == Some(2) {
            break;
        }
        assert!(Instant::now() < deadline, "queue never filled");
        std::thread::sleep(Duration::from_millis(20));
    }
    // Queue full: the next data-plane request is shed immediately with
    // the typed response — even a cheap one that would finish quickly.
    c.send(r#"{"id": "shed-me", "op": "run", "bench": "InnerProduct"}"#);
    let resp = c.recv_id("shed-me");
    assert_eq!(status_of(&resp), ("overloaded", 7), "{resp:?}");
    assert!(
        resp.get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("queue full"),
        "{resp:?}"
    );
    let s = stats_poll(&mut c);
    assert_eq!(s.get("shed").and_then(Json::as_u64), Some(1), "{s:?}");
    assert_eq!(
        s.get("by_status")
            .unwrap()
            .get("overloaded")
            .and_then(Json::as_u64),
        Some(1),
        "shed counter and by_status must agree: {s:?}"
    );
    // Drain: the hung job is abandoned at its deadline; the queued ones
    // expire (their deadlines started at admission). All three answer
    // with typed errors, then shutdown completes with exit 0.
    for id in ["h", "q1", "q2"] {
        let resp = c.recv_id(id);
        assert_eq!(status_of(&resp), ("runtime", 1), "{resp:?}");
        assert!(
            resp.get("error")
                .unwrap()
                .as_str()
                .unwrap()
                .contains("deadline exceeded"),
            "{resp:?}"
        );
    }
    daemon.shutdown(&dir);
}

/// Requests with a missing or unknown benchmark, or malformed JSON, are
/// typed errors mirroring the CLI exit-code contract — and never disturb
/// later requests on the same connection.
#[test]
fn protocol_errors_are_typed_and_nonfatal() {
    let dir = scratch("svc-proto");
    let daemon = Daemon::start(&dir, &["--workers", "1"], &[]);
    let mut c = daemon.connect();
    let resp = c.ask("this is not json");
    assert_eq!(status_of(&resp), ("usage", 2), "{resp:?}");
    let resp = c.ask(r#"{"op": "levitate"}"#);
    assert_eq!(status_of(&resp), ("usage", 2), "{resp:?}");
    let resp = c.ask(r#"{"op": "run"}"#);
    assert_eq!(status_of(&resp), ("usage", 2), "{resp:?}");
    let resp = c.ask(r#"{"op": "run", "bench": "Nonsense"}"#);
    assert_eq!(status_of(&resp), ("runtime", 1), "{resp:?}");
    let resp = c.ask(r#"{"op": "run", "bench": "InnerProduct", "scale": 0}"#);
    assert_eq!(status_of(&resp), ("usage", 2), "{resp:?}");
    let resp = c.ask(r#"{"op": "run", "bench": "InnerProduct"}"#);
    assert_eq!(status_of(&resp), ("ok", 0), "{resp:?}");
    daemon.shutdown(&dir);
}

/// `batch` over the socket: per-bench containment (a panicking job is a
/// typed entry, not a sunk response) and an overall status mirroring the
/// first failure.
#[test]
fn served_batch_contains_per_bench_failures() {
    let dir = scratch("svc-batch");
    let daemon = Daemon::start(
        &dir,
        &["--workers", "1", "--deadline-ms", "60000"],
        &[("PLASTICINE_TEST_PANIC", "GEMM")],
    );
    let mut c = daemon.connect();
    let resp = c.ask(r#"{"op": "batch", "benches": ["InnerProduct", "GEMM", "TPCHQ6"]}"#);
    assert_eq!(status_of(&resp), ("runtime", 1), "{resp:?}");
    let err = resp.get("error").unwrap().as_str().unwrap();
    assert!(err.contains("1 of 3 jobs failed"), "{err}");
    assert!(err.contains("panicked"), "{err}");
    // Healthy batch afterwards on the same daemon.
    let resp = c.ask(r#"{"op": "batch", "benches": ["InnerProduct", "TPCHQ6"]}"#);
    assert_eq!(status_of(&resp), ("ok", 0), "{resp:?}");
    assert_eq!(resp.get("ok").and_then(Json::as_u64), Some(2));
    assert_eq!(resp.get("failed").and_then(Json::as_u64), Some(0));
    daemon.shutdown(&dir);
}

/// The multi-tenant ops end to end: `submit` places tenants on disjoint
/// fabric bands, `tenants` reports their lifecycle, `evict` checkpoints
/// a running tenant and requeues it — and every tenant (including the
/// preempted one) finishes with stats byte-identical to the partitioned
/// one-shot CLI on a band of the same geometry.
#[test]
fn submitted_tenants_match_partitioned_oneshot_and_survive_eviction() {
    let dir = scratch("svc-tenants");
    // GEMM parks at a quantum boundary after its first quantum, and BFS
    // waits for admission, until the eviction below lands: GEMM is still
    // running when the evict arrives however fast or loaded the host is,
    // and BFS then takes the band GEMM vacated.
    let daemon = Daemon::start(&dir, &[], &[("PLASTICINE_TEST_HOLD", "GEMM")]);
    let mut c = daemon.connect();

    for (id, bench) in [("t0", "GEMM"), ("t1", "BFS")] {
        let r = c.ask(&format!(
            r#"{{"id": "{id}", "op": "submit", "bench": "{bench}", "rows": 3, "channels": 1}}"#
        ));
        assert_eq!(status_of(&r), ("ok", 0), "{r:?}");
    }

    // Bad submissions and evictions are typed, inline, and nonfatal.
    let r = c.ask(r#"{"id": "no-bench", "op": "submit", "rows": 3}"#);
    assert_eq!(status_of(&r), ("usage", 2), "{r:?}");
    let r = c.ask(r#"{"id": "no-such", "op": "evict", "tenant": 99}"#);
    assert_eq!(status_of(&r), ("runtime", 1), "{r:?}");

    let deadline = Instant::now() + Duration::from_secs(240);
    let tenant = |c: &mut Client, i: usize| -> Json {
        let r = c.ask(r#"{"id": "ls", "op": "tenants"}"#);
        assert_eq!(status_of(&r), ("ok", 0), "{r:?}");
        r.get("tenants").unwrap().as_arr().unwrap()[i].clone()
    };
    let state_of = |t: &Json| t.get("state").unwrap().as_str().unwrap().to_string();

    // Evict GEMM mid-run: the eviction lands at a quantum boundary, the
    // checkpointed tenant goes back on the queue, and the scheduler
    // resumes it on whatever same-geometry band is free.
    while state_of(&tenant(&mut c, 0)) != "running" {
        assert!(Instant::now() < deadline, "GEMM was never placed");
        std::thread::sleep(Duration::from_millis(10));
    }
    let r = c.ask(r#"{"id": "ev", "op": "evict", "tenant": 0}"#);
    assert_eq!(status_of(&r), ("ok", 0), "{r:?}");
    assert_eq!(
        r.get("resumable").and_then(Json::as_bool),
        Some(true),
        "evicted tenant must carry a checkpoint: {r:?}"
    );

    loop {
        let states: Vec<String> = (0..2).map(|i| state_of(&tenant(&mut c, i))).collect();
        if states.iter().all(|s| s == "done") {
            break;
        }
        if let Some(i) = states.iter().position(|s| s == "failed") {
            panic!("tenant {i} failed: {:?}", tenant(&mut c, i));
        }
        assert!(
            Instant::now() < deadline,
            "tenants never finished: {states:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    let t0 = tenant(&mut c, 0);
    assert!(
        t0.get("preemptions").and_then(Json::as_u64).unwrap_or(0) >= 1,
        "the evicted tenant must record its preemption: {t0:?}"
    );

    // Byte-identity against the partitioned one-shot CLI. The offset is
    // irrelevant — aggregate stats are translation-invariant, so even a
    // tenant resumed on a different band matches the 3@0/1 reference.
    for (i, bench) in [(0usize, "GEMM"), (1, "BFS")] {
        let served = tenant(&mut c, i)
            .get("stats")
            .expect("done tenant carries stats")
            .pretty();
        let file = format!("{}.band.json", bench.to_ascii_lowercase());
        let o = Command::new(bin())
            .args(["run", bench, "--partition", "3@0/1", "--stats-json", &file])
            .current_dir(&dir)
            .output()
            .expect("spawning partitioned one-shot run");
        assert_eq!(
            o.status.code(),
            Some(0),
            "one-shot {bench}: {}",
            String::from_utf8_lossy(&o.stderr)
        );
        let solo = std::fs::read_to_string(dir.join(&file)).unwrap();
        assert_eq!(
            served, solo,
            "{bench}: a served tenant's stats must match the partitioned one-shot CLI"
        );
    }

    daemon.shutdown(&dir);
}
