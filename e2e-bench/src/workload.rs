//! The four workloads and the batch runner.

use crate::check::{Expected, Pinned};
use crate::ops::{prepare, run_op, run_plain, run_resume, run_traced, Dram, OpSpec, BENCHES};
use crate::report::{peak_rss_mb, Outcome};
use crate::spans::Tracer;
use crate::stream::SCALES;
use plasticine::arch::PlasticineParams;
use plasticine::json::hash::fnv1a_str;
use plasticine::workloads::util::hash_u64;
use std::path::PathBuf;
use std::time::Instant;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Compute-bound apps under the paper's DRAM: the interpreter
    /// dominates.
    DenseCompute,
    /// Memory-bound apps under far DRAM: the timing kernel dominates.
    SparseRemote,
    /// Checkpointing runs and resumes from the middle snapshot.
    Resume,
    /// The `serve` daemon under a closed loop of two clients.
    ServeMix,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::DenseCompute,
        Workload::SparseRemote,
        Workload::Resume,
        Workload::ServeMix,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DenseCompute => "dense_compute",
            Workload::SparseRemote => "sparse_remote",
            Workload::Resume => "resume",
            Workload::ServeMix => "serve_mix",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The operations of one pass; for `serve_mix`, every (bench, scale)
    /// its `run` requests ask for.
    ///
    /// Each batch workload has an odd number of operations of clearly
    /// different cost, so the latency median falls inside one
    /// operation's samples rather than between two.
    pub fn ops(self) -> Vec<OpSpec> {
        let op = |bench, scale, dram| OpSpec { bench, scale, dram };
        match self {
            // GEMM at scale 8 rather than 16: at 16 one run takes ~8 s,
            // which leaves too few passes in a run to take a median of.
            Workload::DenseCompute => vec![
                op("GEMM", 8, Dram::Paper),
                op("OuterProduct", 16, Dram::Paper),
                op("CNN", 16, Dram::Paper),
                op("GDA", 16, Dram::Paper),
                op("BlackScholes", 16, Dram::Paper),
            ],
            // Scale 64 is the largest that works: at 256 SMDV runs out of
            // PMUs and BFS trips the watchdog under far DRAM.
            Workload::SparseRemote => vec![
                op("SMDV", 64, Dram::Remote),
                op("BFS", 64, Dram::Remote),
                op("PageRank", 64, Dram::Remote),
            ],
            Workload::Resume => vec![
                op("GEMM", 4, Dram::Paper),
                op("PageRank", 64, Dram::Remote),
                op("BFS", 64, Dram::Remote),
            ],
            // GEMM is served at scale 4 only (see `stream`).
            Workload::ServeMix => BENCHES
                .iter()
                .flat_map(|&b| match b {
                    "GEMM" => vec![op(b, 4, Dram::Paper)],
                    _ => SCALES.map(|s| op(b, s, Dram::Paper)).to_vec(),
                })
                .collect(),
        }
    }
}

/// How to run a workload.
#[derive(Debug, Clone)]
pub struct Config {
    /// Seeds operation order (batch) or the request stream (serve).
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Split operations into layer spans.
    pub trace: bool,
    /// Scratch directory for checkpoints and the daemon socket.
    pub dir: PathBuf,
}

/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 9;

/// Runs a batch workload: `SETUP_REPS` set-ups (build, compile and load
/// every operation), one warm-up pass in declaration order (after which
/// the memory high-water mark is taken), then timed passes until
/// `cfg.seconds` have passed (at least three; two when traced, since a
/// traced pass is slower). The seed rotates the operation order within
/// each pass.
pub fn run_batch(w: Workload, cfg: &Config) -> Outcome {
    let params = PlasticineParams::paper_final();
    let exp = Expected::committed();
    let ops = w.ops();
    let resume = w == Workload::Resume;
    let mut o = Outcome::default();
    if !cfg.trace {
        for _ in 0..SETUP_REPS {
            let t = Instant::now();
            for op in &ops {
                if let Err(e) = prepare(op, &params) {
                    o.tally.record(Err(e));
                }
            }
            o.setup_s.push(t.elapsed().as_secs_f64());
        }
    }
    let run_op = |op: &OpSpec| {
        if resume {
            run_resume(op, &params, &exp, &cfg.dir)
        } else {
            run_plain(op, &params, &exp)
        }
    };
    for op in &ops {
        o.tally.record(run_op(op));
    }
    o.peak_rss_mb = peak_rss_mb().unwrap_or(f64::NAN);
    let min_passes = if cfg.trace { 2 } else { 3 };
    let resume_dir = resume.then_some(cfg.dir.as_path());
    let mut tr = Tracer::new();
    o.per_op_s = vec![Vec::new(); ops.len()];
    let start = Instant::now();
    let mut pass = 0u64;
    while o.pass_s.len() < min_passes || start.elapsed().as_secs_f64() < cfg.seconds {
        let rot = (hash_u64(pass, cfg.seed) % ops.len() as u64) as usize;
        let first = tr.spans().len();
        let t = Instant::now();
        for i in (0..ops.len()).map(|i| (i + rot) % ops.len()) {
            let t_op = Instant::now();
            let r = if cfg.trace {
                run_traced(&mut tr, &ops[i], &params, &exp, resume_dir)
            } else {
                run_op(&ops[i])
            };
            let secs = t_op.elapsed().as_secs_f64();
            o.op_s.push(secs);
            o.per_op_s[i].push(secs);
            o.tally.record(r);
        }
        o.pass_s.push(t.elapsed().as_secs_f64());
        o.pass_spans.push(first..tr.spans().len());
        pass += 1;
    }
    o.spans = tr.spans().to_vec();
    o
}

/// Runs every operation any workload performs once and pins its stats
/// digest and cycle count.
///
/// # Errors
///
/// On a compile, simulation or verification failure.
pub fn bless() -> Result<Expected, String> {
    let params = PlasticineParams::paper_final();
    let mut exp = Expected::default();
    for op in Workload::ALL.into_iter().flat_map(Workload::ops) {
        let key = op.key();
        if exp.0.contains_key(&key) {
            continue;
        }
        let (stats, cycles) = run_op(&op, &params)?;
        let digest = fnv1a_str(&stats);
        exp.0.insert(key, Pinned { digest, cycles });
    }
    Ok(exp)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip_and_every_op_is_pinned() {
        let exp = Expected::committed();
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            for op in w.ops() {
                assert!(exp.get(&op.key()).is_ok(), "{} unpinned", op.key());
            }
        }
        assert_eq!(Workload::ServeMix.ops().len(), 25);
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn registry_builds_each_named_bench() {
        for name in BENCHES {
            assert_eq!(crate::ops::construct(name, 1).name, name);
        }
    }
}
