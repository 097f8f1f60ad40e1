//! Plasticine-as-a-service: the crash-isolated `plasticine-run serve`
//! daemon.
//!
//! A long-lived process that accepts line-delimited JSON requests over
//! stdin/stdout and (optionally) a Unix socket, sharing one compile cache
//! across every client. See [`proto`] for the wire format, [`server`] for
//! admission control, containment, and drain semantics, and DESIGN.md §13
//! for the full protocol narrative.
//!
//! The helpers at this level ([`stats_with_bench`], [`checkpoint_path`],
//! the [`emit_checkpoint`]/[`latest_checkpoint`]/[`prune_checkpoints`]
//! retention family, [`env_lists_bench`], [`jittered_backoff_ms`],
//! [`contain`]) are shared between the
//! daemon and the one-shot CLI binary so their behavior cannot drift
//! apart — the byte-identity contract (a served `run`'s stats equal the
//! one-shot `--stats-json` output) depends on it.

pub mod fabric;
pub mod metrics;
pub mod proto;
mod server;

pub use server::{serve, RequestDefaults, ServeOptions};

use plasticine_arch::FaultRng;
use plasticine_json::hash::fnv1a_str;
use plasticine_json::Json;
use plasticine_sim::SimResult;
use plasticine_workloads::Bench;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::Duration;

/// The stats snapshot written by `--stats-json` and embedded in served
/// `run` responses, with the benchmark name prepended. Both consumers
/// call this one function, so the two outputs are byte-identical by
/// construction.
pub fn stats_with_bench(bench: &Bench, r: &SimResult) -> Json {
    let mut stats = r.stats_json();
    if let Json::Obj(pairs) = &mut stats {
        pairs.insert(0, ("bench".to_string(), Json::from(bench.name.clone())));
    }
    stats
}

/// The legacy single-slot checkpoint path: `<dir>/<bench>.ckpt.json`.
/// Kept as a resume fallback so snapshots written by older builds still
/// load; new emissions go to cycle-stamped files ([`checkpoint_file`])
/// pruned by [`prune_checkpoints`].
pub fn checkpoint_path(dir: &str, bench: &str) -> PathBuf {
    Path::new(dir).join(format!("{}.ckpt.json", bench.to_ascii_lowercase()))
}

/// A cycle-stamped auto-checkpoint: `<dir>/<bench>-c<cycle:012>.ckpt.json`.
/// The zero-padded stamp makes lexical order equal cycle order, so
/// retention and "latest" scans need no parsing beyond the prefix.
pub fn checkpoint_file(dir: &str, bench: &str, cycle: u64) -> PathBuf {
    Path::new(dir).join(format!(
        "{}-c{cycle:012}.ckpt.json",
        bench.to_ascii_lowercase()
    ))
}

/// Writes a checkpoint through a temp file + rename so a crash mid-write
/// can never leave a torn snapshot under the final name.
pub fn save_checkpoint_atomic(c: &plasticine_sim::Checkpoint, path: &Path) -> Result<(), String> {
    let tmp = path.with_extension("json.tmp");
    c.save(&tmp).map_err(|e| e.to_string())?;
    std::fs::rename(&tmp, path).map_err(|e| format!("renaming {}: {e}", path.display()))
}

/// Every cycle-stamped checkpoint for `bench` in `dir`, sorted oldest
/// first (lexical order = cycle order).
fn stamped_checkpoints(dir: &str, bench: &str) -> Vec<PathBuf> {
    let prefix = format!("{}-c", bench.to_ascii_lowercase());
    let mut found: Vec<PathBuf> = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with(&prefix) && n.ends_with(".ckpt.json"))
        })
        .collect();
    found.sort();
    found
}

/// The newest resumable checkpoint for `bench` in `dir`: the highest
/// cycle-stamped file, falling back to the legacy fixed-name slot.
pub fn latest_checkpoint(dir: &str, bench: &str) -> Option<PathBuf> {
    if let Some(p) = stamped_checkpoints(dir, bench).pop() {
        return Some(p);
    }
    let legacy = checkpoint_path(dir, bench);
    legacy.exists().then_some(legacy)
}

/// Persists one auto-checkpoint emission with bounded retention: writes
/// the cycle-stamped history file, refreshes the legacy fixed-name slot
/// (the newest snapshot always wins there — it is what
/// `--resume <bench>.ckpt.json`, batch resume, and older tooling read),
/// and prunes history beyond `keep`. Both writes go through a temp file +
/// rename, so a crash mid-emission never leaves a torn snapshot. Returns
/// the stamped path.
pub fn emit_checkpoint(
    dir: &str,
    bench: &str,
    keep: usize,
    c: &plasticine_sim::Checkpoint,
) -> Result<PathBuf, String> {
    let stamped = checkpoint_file(dir, bench, c.cycle);
    save_checkpoint_atomic(c, &stamped)?;
    let legacy = checkpoint_path(dir, bench);
    let tmp = legacy.with_extension("json.new");
    std::fs::copy(&stamped, &tmp)
        .map_err(|e| format!("copying {} -> {}: {e}", stamped.display(), tmp.display()))?;
    std::fs::rename(&tmp, &legacy).map_err(|e| format!("renaming {}: {e}", legacy.display()))?;
    prune_checkpoints(dir, bench, keep);
    Ok(stamped)
}

/// Bounds `--checkpoint-dir` growth: deletes all but the newest `keep`
/// cycle-stamped checkpoints for `bench` (each removal is an atomic
/// unlink; a concurrently-vanished file is not an error). `keep == 0` is
/// clamped to 1 — pruning must never delete the snapshot just written.
/// Returns how many files were removed.
pub fn prune_checkpoints(dir: &str, bench: &str, keep: usize) -> usize {
    let keep = keep.max(1);
    let files = stamped_checkpoints(dir, bench);
    let excess = files.len().saturating_sub(keep);
    files[..excess]
        .iter()
        .filter(|p| std::fs::remove_file(p).is_ok())
        .count()
}

/// Is `bench` named in the comma-separated env var `var`? Test hook used
/// by the supervisor and service CI jobs to inject a panicking and a
/// hanging worker.
pub fn env_lists_bench(var: &str, bench: &str) -> bool {
    std::env::var(var).is_ok_and(|v| v.split(',').any(|n| n.trim().eq_ignore_ascii_case(bench)))
}

/// Backoff before retry `attempt` (1-based) of the job named `key`:
/// `50ms << min(attempt-1, 6)` plus a deterministic jitter in
/// `[0, base/2]` drawn from a [`FaultRng`] seeded by
/// `(seed, key, attempt)`. The jitter desynchronizes workers that fail in
/// lockstep (same fault spec, same wall-clock) without sacrificing
/// reproducibility: the same seed, job, and attempt always wait the same
/// number of milliseconds.
pub fn jittered_backoff_ms(seed: u64, key: &str, attempt: u32) -> u64 {
    let base = 50u64 << u64::from(attempt - 1).min(6);
    let mut rng = FaultRng::new(seed ^ fnv1a_str(key) ^ u64::from(attempt));
    base + rng.below(base / 2 + 1)
}

/// Why a [`contain`]ed call produced no value.
#[derive(Debug)]
pub enum Escape {
    /// It panicked; the payload's message.
    Panicked(String),
    /// It outlived its time limit and was abandoned.
    TimedOut,
}

/// Runs `f` on its own thread under `catch_unwind`, waiting at most
/// `limit` for it (for ever when `None`). On timeout the thread is
/// abandoned: it must hold nothing the caller needs, and the process
/// reaps it at exit. A panic comes back as its message, so one failing
/// job or request cannot take down the batch or the daemon; each caller
/// maps an [`Escape`] to its own failure type.
pub fn contain<T: Send + 'static>(
    limit: Option<Duration>,
    f: impl FnOnce() -> T + Send + 'static,
) -> Result<T, Escape> {
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        let _ = tx.send(catch_unwind(AssertUnwindSafe(f)));
    });
    let received = match limit {
        Some(limit) => rx.recv_timeout(limit).map_err(|_| Escape::TimedOut)?,
        None => rx.recv().map_err(|_| Escape::TimedOut)?,
    };
    let _ = handle.join();
    received.map_err(|panic| Escape::Panicked(panic_message(&*panic)))
}

/// The message a panic was raised with, or a placeholder for a payload
/// that is not a string.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_is_jittered_and_deterministic() {
        let a1 = jittered_backoff_ms(3, "GEMM", 1);
        let a2 = jittered_backoff_ms(3, "GEMM", 2);
        let a3 = jittered_backoff_ms(3, "GEMM", 3);
        // Base doubles 50 → 100 → 200; jitter adds at most base/2, so the
        // sequence is strictly increasing and bounded.
        assert!((50..=75).contains(&a1), "{a1}");
        assert!((100..=150).contains(&a2), "{a2}");
        assert!((200..=300).contains(&a3), "{a3}");
        // Deterministic: same (seed, key, attempt) → same wait.
        assert_eq!(a1, jittered_backoff_ms(3, "GEMM", 1));
        // Different jobs (or seeds) desynchronize.
        assert!(
            jittered_backoff_ms(3, "GEMM", 1) != jittered_backoff_ms(3, "BFS", 1)
                || jittered_backoff_ms(3, "GEMM", 2) != jittered_backoff_ms(3, "BFS", 2),
            "jitter failed to separate two jobs across two attempts"
        );
    }

    #[test]
    fn backoff_shift_saturates() {
        // Attempt 40 must not overflow the shift; cap is 50 << 6.
        let b = jittered_backoff_ms(0, "x", 40);
        assert!((3200..=4800).contains(&b), "{b}");
    }
}
