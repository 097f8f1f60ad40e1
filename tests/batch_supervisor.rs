//! Integration tests for the `plasticine-run batch` supervisor and the
//! checkpoint/usage surface of the CLI, driven through the real binary.
//!
//! The headline scenario is the one the feature exists for: a batch where
//! one job panics and one hangs must still complete every other job,
//! journal the failures with their exit codes, and — re-invoked with the
//! same journal — skip the completed jobs.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

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

fn run(args: &[&str], envs: &[(&str, &str)], cwd: &Path) -> Output {
    let mut c = Command::new(bin());
    c.args(args).current_dir(cwd);
    for (k, v) in envs {
        c.env(k, v);
    }
    c.output().expect("spawning plasticine-run")
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).into_owned()
}

fn stderr(o: &Output) -> String {
    String::from_utf8_lossy(&o.stderr).into_owned()
}

#[test]
fn bad_arguments_exit_usage_with_a_message() {
    let dir = scratch("usage");
    // Satellite contract: every malformed value is exit 2 (Usage) with a
    // message naming the flag, never a panic or a silent clamp.
    for (args, needle) in [
        (vec!["batch", "all", "--jobs", "0"], "--jobs"),
        (vec!["batch", "all", "--jobs", "-3"], "--jobs"),
        (
            vec!["batch", "all", "--checkpoint-every", "0"],
            "--checkpoint-every",
        ),
        (
            vec!["batch", "all", "--checkpoint-every", "-5"],
            "--checkpoint-every",
        ),
        (
            vec![
                "batch",
                "all",
                "--checkpoint-every",
                "99999999999999999999999999",
            ],
            "--checkpoint-every",
        ),
        (
            vec!["run", "InnerProduct", "--checkpoint-every", "0"],
            "--checkpoint-every",
        ),
        (vec!["batch", "all", "--timeout", "0"], "--timeout"),
        (vec!["batch", "all", "--retries", "x"], "--retries"),
        // One simulation runs serially; parallelism is `batch --jobs`.
        (vec!["run", "InnerProduct", "--threads", "2"], "--threads"),
        (vec!["batch", "all", "--threads", "2"], "--threads"),
        (
            vec!["run", "InnerProduct", "--max-cycles", "0"],
            "--max-cycles",
        ),
        (
            // Checkpointing runs untraced, so combining them is refused.
            vec![
                "run",
                "InnerProduct",
                "--trace",
                "t.json",
                "--checkpoint-every",
                "100",
            ],
            "--trace",
        ),
        (vec!["run", "all", "--resume", "x.ckpt.json"], "--resume"),
    ] {
        let o = run(&args, &[], &dir);
        assert_eq!(
            o.status.code(),
            Some(2),
            "`{}` should exit 2 (usage), got {:?}\nstderr: {}",
            args.join(" "),
            o.status.code(),
            stderr(&o)
        );
        assert!(
            stderr(&o).contains(needle),
            "`{}` stderr should mention {needle}: {}",
            args.join(" "),
            stderr(&o)
        );
    }
}

#[test]
fn supervisor_contains_panics_and_timeouts_and_journals_them() {
    let dir = scratch("supervisor");
    let benches = ["InnerProduct", "GEMM", "BFS", "TPCHQ6"];
    let mut args = vec!["batch"];
    args.extend(benches);
    args.extend(["--jobs", "2", "--timeout", "5", "--journal", "j.json"]);
    let o = run(
        &args,
        &[
            ("PLASTICINE_TEST_PANIC", "GEMM"),
            ("PLASTICINE_TEST_HANG", "BFS"),
        ],
        &dir,
    );
    // Both failures are runtime-class; the batch itself must not panic or
    // hang, and the healthy jobs must complete and verify.
    assert_eq!(o.status.code(), Some(1), "stderr: {}", stderr(&o));
    let out = stdout(&o);
    for good in ["InnerProduct", "TPCHQ6"] {
        assert!(
            out.contains(&format!("{good} ")) && out.contains("[verified]"),
            "{good} should have completed:\n{out}"
        );
    }
    assert!(
        out.contains("2 ok, 2 failed"),
        "summary should count 2 ok / 2 failed:\n{out}"
    );
    let err = stderr(&o);
    assert!(
        err.contains("panicked") && err.contains("timed out"),
        "failure report should show both failure classes:\n{err}"
    );

    let journal = std::fs::read_to_string(dir.join("j.json")).unwrap();
    assert!(journal.contains("\"status\": \"done\""), "{journal}");
    assert!(
        journal.contains("worker panicked") && journal.contains("timed out"),
        "journal should record both failure messages:\n{journal}"
    );

    // Re-invoking with the same journal and no failure injection: the two
    // completed jobs are skipped, the two failed ones re-run and pass.
    let o = run(&args, &[], &dir);
    assert_eq!(o.status.code(), Some(0), "stderr: {}", stderr(&o));
    let out = stdout(&o);
    assert!(
        out.contains("InnerProduct: skipped (journal: already done)"),
        "completed jobs should be skipped on re-run:\n{out}"
    );
    assert!(
        out.contains("2 ok, 0 failed, 2 skipped"),
        "re-run summary:\n{out}"
    );

    // Third invocation: everything is in the journal now.
    let o = run(&args, &[], &dir);
    assert!(stdout(&o).contains("0 ok, 0 failed, 4 skipped"));
}

#[test]
fn fault_exhaustion_is_retried_with_bounded_attempts() {
    let dir = scratch("retries");
    // drop=0.95 with a 1-retry DRAM budget exhausts deterministically
    // (seeded RNG); the supervisor's bounded retry re-runs the job the
    // requested number of times and then reports exit 5.
    let o = run(
        &[
            "batch",
            "InnerProduct",
            "--faults",
            "drop=0.95,retries=1,seed=7",
            "--retries",
            "2",
            "--journal",
            "j.json",
        ],
        &[],
        &dir,
    );
    assert_eq!(o.status.code(), Some(5), "stderr: {}", stderr(&o));
    let journal = std::fs::read_to_string(dir.join("j.json")).unwrap();
    assert!(
        journal.contains("\"attempts\": 3") && journal.contains("\"code\": 5"),
        "journal should show 3 attempts ending in exit 5:\n{journal}"
    );
    let err = stderr(&o);
    assert!(
        err.contains("retrying"),
        "supervisor should announce retries:\n{err}"
    );
}

#[test]
fn fail_fast_stops_scheduling_after_the_first_failure() {
    let dir = scratch("failfast");
    let o = run(
        &[
            "batch",
            "GEMM",
            "InnerProduct",
            "TPCHQ6",
            "BFS",
            "--jobs",
            "1",
            "--fail-fast",
        ],
        &[("PLASTICINE_TEST_PANIC", "GEMM")],
        &dir,
    );
    assert_eq!(o.status.code(), Some(1), "stderr: {}", stderr(&o));
    let out = stdout(&o);
    // With one worker, the panicking first job must prevent the rest from
    // being claimed at all.
    assert!(
        out.contains("0 ok, 1 failed, 0 skipped, 3 not run"),
        "fail-fast summary:\n{out}"
    );
}

#[test]
fn cli_checkpoint_resume_stats_are_bit_identical() {
    let dir = scratch("cli-roundtrip");
    let o = run(
        &["run", "InnerProduct", "--stats-json", "base.json"],
        &[],
        &dir,
    );
    assert_eq!(o.status.code(), Some(0), "stderr: {}", stderr(&o));
    let o = run(
        &[
            "run",
            "InnerProduct",
            "--checkpoint-every",
            "300",
            "--checkpoint-dir",
            ".",
            "--stats-json",
            "ckpt.json",
        ],
        &[],
        &dir,
    );
    assert_eq!(o.status.code(), Some(0), "stderr: {}", stderr(&o));
    assert!(
        stdout(&o).contains("checkpoint at cycle"),
        "a cadence checkpoint should be announced:\n{}",
        stdout(&o)
    );
    let o = run(
        &[
            "run",
            "InnerProduct",
            "--resume",
            "innerproduct.ckpt.json",
            "--stats-json",
            "resumed.json",
        ],
        &[],
        &dir,
    );
    assert_eq!(o.status.code(), Some(0), "stderr: {}", stderr(&o));
    assert!(stdout(&o).contains("resuming from cycle"));
    let base = std::fs::read_to_string(dir.join("base.json")).unwrap();
    assert_eq!(
        base,
        std::fs::read_to_string(dir.join("ckpt.json")).unwrap(),
        "checkpoint emission must not perturb stats"
    );
    assert_eq!(
        base,
        std::fs::read_to_string(dir.join("resumed.json")).unwrap(),
        "resumed stats must be byte-identical"
    );
}

/// Through the real binary, a batch job's stats are byte-identical to a
/// plain `run` of the same bench.
#[test]
fn batch_stats_match_a_single_run_through_the_cli() {
    let dir = scratch("batch-vs-run");
    let o = run(
        &["run", "InnerProduct", "--stats-json", "base.json"],
        &[],
        &dir,
    );
    assert_eq!(o.status.code(), Some(0), "stderr: {}", stderr(&o));
    let base = std::fs::read_to_string(dir.join("base.json")).unwrap();
    let o = run(
        &[
            "batch",
            "InnerProduct",
            "--jobs",
            "1",
            "--stats-json",
            "batch.json",
        ],
        &[],
        &dir,
    );
    assert_eq!(o.status.code(), Some(0), "stderr: {}", stderr(&o));
    assert_eq!(
        base,
        std::fs::read_to_string(dir.join("batch-innerproduct.json")).unwrap(),
        "batch must match the single run"
    );
}

#[test]
fn budget_failure_auto_checkpoints_and_resumes_with_a_bigger_budget() {
    let dir = scratch("budget");
    let o = run(
        &[
            "run",
            "GEMM",
            "--max-cycles",
            "500",
            "--checkpoint-dir",
            ".",
        ],
        &[],
        &dir,
    );
    assert_eq!(
        o.status.code(),
        Some(6),
        "tiny budget should exit 6: {}",
        stderr(&o)
    );
    assert!(
        dir.join("gemm.ckpt.json").exists(),
        "budget failure should leave an auto-checkpoint"
    );
    let o = run(
        &[
            "run",
            "GEMM",
            "--resume",
            "gemm.ckpt.json",
            "--stats-json",
            "resumed.json",
        ],
        &[],
        &dir,
    );
    assert_eq!(o.status.code(), Some(0), "stderr: {}", stderr(&o));
    let o = run(&["run", "GEMM", "--stats-json", "base.json"], &[], &dir);
    assert_eq!(o.status.code(), Some(0), "stderr: {}", stderr(&o));
    assert_eq!(
        std::fs::read_to_string(dir.join("base.json")).unwrap(),
        std::fs::read_to_string(dir.join("resumed.json")).unwrap(),
        "resume across a budget failure must match the uninterrupted run"
    );
}

/// Journal writes are atomic (temp file + rename): a truncated journal —
/// the artifact of a pre-atomic-write crash — is a typed runtime error
/// with a message naming the journal, never a panic; and the temp file
/// never survives a flush.
#[test]
fn truncated_journal_is_a_typed_error_and_writes_are_atomic() {
    let dir = scratch("journal-atomic");
    // A journal cut off mid-write, as a kill during a plain
    // `fs::write` could have left behind.
    std::fs::write(dir.join("j.json"), "{\"version\": 1, \"jobs\": [\n").unwrap();
    let o = run(&["batch", "InnerProduct", "--journal", "j.json"], &[], &dir);
    assert_eq!(
        o.status.code(),
        Some(1),
        "corrupt journal should exit 1 (runtime), got {:?}\nstderr: {}",
        o.status.code(),
        stderr(&o)
    );
    assert!(
        stderr(&o).contains("journal"),
        "stderr should name the journal:\n{}",
        stderr(&o)
    );

    // A stale temp file from an interrupted flush is harmless: the next
    // batch overwrites and renames it away.
    std::fs::remove_file(dir.join("j.json")).unwrap();
    std::fs::write(dir.join("j.json.tmp"), "garbage from a dead writer").unwrap();
    let o = run(&["batch", "InnerProduct", "--journal", "j.json"], &[], &dir);
    assert_eq!(o.status.code(), Some(0), "stderr: {}", stderr(&o));
    let journal = std::fs::read_to_string(dir.join("j.json")).unwrap();
    assert!(journal.contains("\"status\": \"done\""), "{journal}");
    assert!(
        !dir.join("j.json.tmp").exists(),
        "the temp file must be renamed over the journal, not left behind"
    );
}

/// `--checkpoint-dir` ergonomics: a missing (even nested) directory is
/// created up front; an unusable path is a usage error (exit 2) before
/// any simulation starts, not a mid-run surprise.
#[test]
fn checkpoint_dir_is_created_and_validated_up_front() {
    let dir = scratch("ckpt-dir");
    let o = run(
        &[
            "run",
            "InnerProduct",
            "--checkpoint-every",
            "300",
            "--checkpoint-dir",
            "nested/ckpt/dir",
        ],
        &[],
        &dir,
    );
    assert_eq!(o.status.code(), Some(0), "stderr: {}", stderr(&o));
    assert!(
        dir.join("nested/ckpt/dir").is_dir(),
        "a missing nested checkpoint dir should be created"
    );

    // A path that runs through an existing *file* cannot become a
    // directory: typed usage error naming the flag, before any work.
    std::fs::write(dir.join("occupied"), "a file").unwrap();
    for cmd in [
        vec![
            "run",
            "InnerProduct",
            "--checkpoint-every",
            "300",
            "--checkpoint-dir",
            "occupied/sub",
        ],
        vec![
            "batch",
            "InnerProduct",
            "--checkpoint-every",
            "300",
            "--checkpoint-dir",
            "occupied/sub",
        ],
    ] {
        let o = run(&cmd, &[], &dir);
        assert_eq!(
            o.status.code(),
            Some(2),
            "`{}` should exit 2 (usage): {}",
            cmd.join(" "),
            stderr(&o)
        );
        assert!(
            stderr(&o).contains("--checkpoint-dir"),
            "stderr should name the flag:\n{}",
            stderr(&o)
        );
    }
}

#[test]
fn resuming_against_the_wrong_bench_is_a_usage_error() {
    let dir = scratch("wrong-bench");
    let o = run(
        &[
            "run",
            "InnerProduct",
            "--checkpoint-every",
            "300",
            "--checkpoint-dir",
            ".",
        ],
        &[],
        &dir,
    );
    assert_eq!(o.status.code(), Some(0), "stderr: {}", stderr(&o));
    let o = run(
        &["run", "GEMM", "--resume", "innerproduct.ckpt.json"],
        &[],
        &dir,
    );
    assert_eq!(
        o.status.code(),
        Some(2),
        "wrong-program resume should exit 2 (usage): {}",
        stderr(&o)
    );
    assert!(
        stderr(&o).contains("does not match"),
        "stderr should explain the mismatch: {}",
        stderr(&o)
    );
}
