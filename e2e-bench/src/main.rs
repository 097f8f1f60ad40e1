//! `e2e`: runs one benchmark workload, or compares result files.
//!
//! ```sh
//! e2e --workload NAME --seed N [--seconds S] [--trace 0|1] [--out FILE] [--spans FILE]
//! e2e --bless
//! e2e compare A.json... -- B.json...
//! ```
//!
//! A run prints each metric as `workload metric value unit n=samples`,
//! then, as its last line, the result object
//! `{"correct", "attempted", "failed", "metrics"}`. `--out` also writes
//! that object, with the workload and seed, for `compare`. `--trace 1`
//! reports the per-layer metrics instead of the end-to-end ones, and
//! `--spans` writes the recorded spans. `--bless` re-pins the stats
//! digests. A trailing `--bench` (added by `cargo bench`) is ignored.

use plasticine::json::Json;
use plasticine_e2e_bench::check::{self, Tally};
use plasticine_e2e_bench::compare::{add_result, rules, table, Samples};
use plasticine_e2e_bench::report::{end_to_end, per_layer, result_json};
use plasticine_e2e_bench::spans;
use plasticine_e2e_bench::workload::{bless, run_batch, Config, Workload};
use plasticine_e2e_bench::{serve, BENCHMARK_JSON};
use std::path::PathBuf;

const USAGE: &str = "usage: e2e --workload NAME --seed N [--seconds S] [--trace 0|1] \
[--out FILE] [--spans FILE]\n       e2e --bless\n       e2e compare A.json... -- B.json...\n\
workloads: dense_compute, sparse_remote, resume, serve_mix";

/// Default measured window, matching `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

fn usage(msg: &str) -> i32 {
    eprintln!("e2e: {msg}\n{USAGE}");
    2
}

fn main() {
    let args: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| a != "--bench")
        .collect();
    let code = match args.first().map(String::as_str) {
        Some("compare") => compare_main(&args[1..]),
        _ => run_main(&args),
    };
    std::process::exit(code);
}

fn compare_main(args: &[String]) -> i32 {
    let Some(split) = args.iter().position(|a| a == "--") else {
        return usage("compare needs `--` between the two sides");
    };
    let (a, b) = (&args[..split], &args[split + 1..]);
    if a.is_empty() || b.is_empty() {
        return usage("compare needs result files on both sides");
    }
    match compare_files(a, b) {
        Ok((text, regressed)) => {
            print!("{text}");
            i32::from(regressed)
        }
        Err(e) => {
            eprintln!("e2e compare: {e}");
            1
        }
    }
}

/// The comparison table of two sets of result files, and whether any
/// metric regressed.
fn compare_files(a: &[String], b: &[String]) -> Result<(String, bool), String> {
    let load = |paths: &[String]| -> Result<Samples, String> {
        let mut s = Samples::new();
        for p in paths {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
            add_result(&mut s, &text).map_err(|e| format!("{p}: {e}"))?;
        }
        Ok(s)
    };
    let decl =
        std::fs::read_to_string(BENCHMARK_JSON).map_err(|e| format!("{BENCHMARK_JSON}: {e}"))?;
    Ok(table(&load(a)?, &load(b)?, &rules(&decl)?))
}

/// Parsed run flags.
struct Flags {
    workload: Option<Workload>,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    spans: Option<PathBuf>,
    bless: bool,
}

fn parse(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags {
        workload: None,
        seed: None,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
        spans: None,
        bless: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--bless" {
            f.bless = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => {
                f.workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => f.seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                f.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(bad)?
            }
            "--trace" => {
                f.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => f.out = Some(PathBuf::from(value)),
            "--spans" => f.spans = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(f)
}

fn run_main(args: &[String]) -> i32 {
    let f = match parse(args) {
        Ok(f) => f,
        Err(e) => return usage(&e),
    };
    if f.bless {
        return match bless() {
            Ok(exp) => match std::fs::write(check::PATH, exp.to_text()) {
                Ok(()) => {
                    println!("pinned {} digests in {}", exp.0.len(), check::PATH);
                    0
                }
                Err(e) => {
                    eprintln!("e2e: writing {}: {e}", check::PATH);
                    1
                }
            },
            Err(e) => {
                eprintln!("e2e --bless: {e}");
                1
            }
        };
    }
    let (Some(w), Some(seed)) = (f.workload, f.seed) else {
        return usage("--workload and --seed are required");
    };
    // Checkpoints and the daemon socket live under the working directory;
    // the path stays short because Unix socket paths are limited.
    let dir = PathBuf::from(".bench_tmp").join(format!("{}-{}", w.name(), std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("e2e: creating {}: {e}", dir.display());
        return 1;
    }
    let cfg = Config {
        seed,
        seconds: f.seconds,
        trace: f.trace,
        dir: dir.clone(),
    };
    let outcome = match w {
        Workload::ServeMix => serve::run(&cfg),
        _ => Ok(run_batch(w, &cfg)),
    };
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(".bench_tmp");
    let o = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("e2e: {}: {e}", w.name());
            return 1;
        }
    };
    let metrics = if f.trace {
        per_layer(&o)
    } else {
        end_to_end(&o)
    };
    for m in &metrics {
        println!("{} {} {} {} n={}", w.name(), m.name, m.value, m.unit, m.n);
    }
    let result = result_json(&metrics, &o.tally);
    let mut writes = Vec::new();
    if let (Some(path), true) = (&f.spans, f.trace) {
        writes.push((path, spans::to_json(&o.spans).pretty()));
    }
    if let Some(path) = &f.out {
        let mut record = vec![
            ("workload".to_string(), Json::from(w.name())),
            ("seed".to_string(), Json::from(seed)),
            ("trace".to_string(), Json::from(f.trace)),
        ];
        record.extend(result.as_obj().unwrap_or_default().iter().cloned());
        writes.push((path, Json::Obj(record).pretty()));
    }
    for (path, text) in writes {
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("e2e: writing {}: {e}", path.display());
            return 1;
        }
    }
    println!("{}", result.compact());
    report_failures(&o.tally)
}

fn report_failures(t: &Tally) -> i32 {
    match &t.first_error {
        None => 0,
        Some(e) => {
            eprintln!(
                "e2e: {} of {} operations failed; first: {e}",
                t.failed, t.attempted
            );
            1
        }
    }
}
