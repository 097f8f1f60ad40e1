//! One operation of a batch workload, run either whole (as a user runs
//! it, for the end-to-end metrics) or split into its layers under a
//! [`Tracer`] (for the per-layer metrics).

use crate::check::Expected;
use crate::spans::Tracer;
use plasticine::arch::PlasticineParams;
use plasticine::compiler::{compile, CompileOutput, PassId};
use plasticine::dram::DramConfig;
use plasticine::ppir::{Machine, Program, TraceRecorder};
use plasticine::service::stats_with_bench;
use plasticine::sim::{
    simulate, simulate_checkpointed, Advance, Checkpoint, CheckpointPolicy, Node, SimKernel,
    SimModel, SimOptions, SimResult,
};
use plasticine::workloads::{cnn, dense, gemm, ml, sparse, Bench, Scale};
use std::path::{Path, PathBuf};

/// The 13 Table-4 benches, in `plasticine_workloads::all` order.
pub const BENCHES: [&str; 13] = [
    "InnerProduct",
    "OuterProduct",
    "BlackScholes",
    "TPCHQ6",
    "GEMM",
    "GDA",
    "LogReg",
    "SGD",
    "Kmeans",
    "CNN",
    "SMDV",
    "PageRank",
    "BFS",
];

/// Builds one bench (program, inputs and host golden) without building
/// the other twelve.
///
/// # Panics
///
/// On a name outside [`BENCHES`].
pub fn construct(name: &str, scale: usize) -> Bench {
    let f: fn(Scale) -> Bench = match name {
        "InnerProduct" => dense::inner_product,
        "OuterProduct" => dense::outer_product,
        "BlackScholes" => dense::black_scholes,
        "TPCHQ6" => dense::tpchq6,
        "GEMM" => gemm::gemm,
        "GDA" => ml::gda,
        "LogReg" => ml::logreg,
        "SGD" => ml::sgd,
        "Kmeans" => ml::kmeans,
        "CNN" => cnn::cnn,
        "SMDV" => sparse::smdv,
        "PageRank" => sparse::pagerank,
        "BFS" => sparse::bfs,
        _ => panic!("unknown bench `{name}`"),
    };
    f(Scale(scale))
}

/// The DRAM configuration an operation simulates under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dram {
    /// The paper's 4×DDR3-1600 with the fabric at 1 GHz (the default, and
    /// what `serve` runs).
    Paper,
    /// The same DRAM seen from a fabric clocked 96× faster: every access
    /// costs thousands of fabric cycles, so the run is memory-bound.
    Remote,
}

impl Dram {
    /// Name used in digest keys.
    pub fn name(self) -> &'static str {
        match self {
            Dram::Paper => "paper",
            Dram::Remote => "remote",
        }
    }

    /// Simulation options: event stepping on one thread.
    pub fn options(self) -> SimOptions {
        match self {
            Dram::Paper => SimOptions::default(),
            Dram::Remote => SimOptions {
                dram: DramConfig {
                    core_ghz: 96.0,
                    ..DramConfig::default()
                },
                ..SimOptions::default()
            },
        }
    }
}

/// One (bench, scale, DRAM) operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpSpec {
    /// Bench name.
    pub bench: &'static str,
    /// Problem scale.
    pub scale: usize,
    /// DRAM configuration.
    pub dram: Dram,
}

impl OpSpec {
    /// Digest key, `BENCH@SCALE/dram`.
    pub fn key(&self) -> String {
        format!("{}@{}/{}", self.bench, self.scale, self.dram.name())
    }
}

/// The stats text an operation is checked by: `stats_with_bench`, pretty.
pub fn stats_text(b: &Bench, r: &SimResult) -> String {
    stats_with_bench(b, r).pretty()
}

fn loaded<'p>(b: &Bench, prog: &'p Program) -> Machine<'p> {
    let mut m = Machine::new(prog);
    b.load(&mut m);
    m
}

/// Everything before the simulation: build, compile, and a loaded machine.
///
/// # Errors
///
/// On a compile failure.
pub fn prepare(op: &OpSpec, params: &PlasticineParams) -> Result<(), String> {
    let b = construct(op.bench, op.scale);
    let out = compile(&b.program, params).map_err(|e| format!("{}: {e}", op.key()))?;
    std::hint::black_box((&out, loaded(&b, &b.program)));
    Ok(())
}

/// Runs `op` as the `run` command does: build → compile → load →
/// simulate → stats → verify. Returns the stats text and cycle count.
///
/// # Errors
///
/// On a compile, simulation or verification failure.
pub fn run_op(op: &OpSpec, params: &PlasticineParams) -> Result<(String, u64), String> {
    let key = op.key();
    let b = construct(op.bench, op.scale);
    let out = compile(&b.program, params).map_err(|e| format!("{key}: {e}"))?;
    let mut m = loaded(&b, &b.program);
    let r = simulate(&b.program, &out, &mut m, &op.dram.options())
        .map_err(|e| format!("{key}: {e}"))?;
    let stats = stats_text(&b, &r);
    b.verify(&m)?;
    Ok((stats, r.cycles))
}

/// [`run_op`], checked against the pinned digest.
///
/// # Errors
///
/// On any failure or mismatch.
pub fn run_plain(op: &OpSpec, params: &PlasticineParams, exp: &Expected) -> Result<(), String> {
    let (stats, _) = run_op(op, params)?;
    exp.check(&op.key(), &stats)
}

/// Checkpoint cadence for `key`: an eighth of its pinned cycle count.
///
/// # Errors
///
/// When `key` is not pinned.
fn cadence(exp: &Expected, key: &str) -> Result<u64, String> {
    Ok((exp.get(key)?.cycles / 8).max(1))
}

fn ckpt_path(dir: &Path, b: &Bench, cycle: u64) -> PathBuf {
    dir.join(format!(
        "{}-c{cycle:012}.ckpt.json",
        b.name.to_ascii_lowercase()
    ))
}

/// Checkpoint files one operation wrote; removed when dropped.
#[derive(Default)]
struct Snapshots(Vec<PathBuf>);

impl Snapshots {
    fn middle(&self, key: &str) -> Result<&Path, String> {
        self.0
            .get(self.0.len() / 2)
            .map(PathBuf::as_path)
            .ok_or_else(|| format!("{key}: finished before the first checkpoint"))
    }
}

impl Drop for Snapshots {
    fn drop(&mut self) {
        for p in &self.0 {
            let _ = std::fs::remove_file(p);
        }
    }
}

/// The batch-resume path: a checkpointing run that saves every snapshot
/// to `dir`, then a resume from the middle snapshot. Both legs must
/// reproduce the uninterrupted run's pinned stats.
///
/// # Errors
///
/// On any failure or mismatch in either leg.
pub fn run_resume(
    op: &OpSpec,
    params: &PlasticineParams,
    exp: &Expected,
    dir: &Path,
) -> Result<(), String> {
    let key = op.key();
    let every = cadence(exp, &key)?;
    let b = construct(op.bench, op.scale);
    let out = compile(&b.program, params).map_err(|e| format!("{key}: {e}"))?;
    let opts = op.dram.options();
    let mut saved = Snapshots::default();
    let mut save_err = None;
    let mut m = loaded(&b, &b.program);
    let policy = CheckpointPolicy {
        every: Some(every),
        on_error: false,
    };
    let r = simulate_checkpointed(&b.program, &out, &mut m, &opts, policy, None, &mut |c| {
        let path = ckpt_path(dir, &b, c.cycle);
        match c.save(&path) {
            Ok(()) => saved.0.push(path),
            Err(e) => {
                save_err.get_or_insert(e.to_string());
            }
        }
    })
    .map_err(|e| format!("{key}: {e}"))?;
    if let Some(e) = save_err {
        return Err(format!("{key}: {e}"));
    }
    b.verify(&m)?;
    exp.check(&key, &stats_text(&b, &r))?;
    let ck = Checkpoint::load(saved.middle(&key)?).map_err(|e| format!("{key}: {e}"))?;
    let mut m2 = loaded(&b, &b.program);
    let r2 = simulate_checkpointed(
        &b.program,
        &out,
        &mut m2,
        &opts,
        CheckpointPolicy::default(),
        Some(&ck),
        &mut |_| {},
    )
    .map_err(|e| format!("{key} (resumed): {e}"))?;
    b.verify(&m2)?;
    exp.check(&key, &stats_text(&b, &r2))
}

/// Compiles inside a `compiler.compile` span that also counts the
/// partition, place and route pass times (ns).
pub fn compile_traced(
    tr: &mut Tracer,
    b: &Bench,
    params: &PlasticineParams,
) -> Result<CompileOutput, String> {
    let id = tr.enter("compiler.compile");
    let out = compile(&b.program, params);
    tr.exit(id);
    let out = out.map_err(|e| format!("{}: {e}", b.name))?;
    count_passes(tr, id, &out);
    Ok(out)
}

/// Adds `out`'s partition, place and route times to span `id`.
pub fn count_passes(tr: &mut Tracer, id: usize, out: &CompileOutput) {
    for (pass, key) in [
        (PassId::Partition, "partition_ns"),
        (PassId::Place, "place_ns"),
        (PassId::Route, "route_ns"),
    ] {
        let ns = u64::try_from(out.timings.of(pass).as_nanos()).unwrap_or(u64::MAX);
        tr.count(id, key, ns);
    }
}

/// `simulate` split into its layers (§4.2's two stages):
///
/// 1. `ppir.interp`: the functional interpreter recording its work trace,
///    on a separately loaded machine;
/// 2. `sim.model_build` and `sim.tree_build` on that trace;
/// 3. `sim.kernel_new`, which repeats 1–2 and sets up the resources;
/// 4. `sim.advance` to completion;
/// 5. `sim.finish`, `sim.stats_encode`, `workloads.verify`.
///
/// With a `resume` directory (the `resume` workload), step 4 advances in
/// segments of an eighth of the run with a `sim.checkpoint_save` to that
/// directory at each pause, and a 6th step follows: `sim.checkpoint_load`
/// of the middle snapshot and `sim.resume` from it to completion, whose
/// stats must match too.
///
/// # Errors
///
/// On any failure or stats mismatch.
#[allow(clippy::too_many_arguments)]
pub fn simulate_split(
    tr: &mut Tracer,
    b: &Bench,
    prog: &Program,
    out: &CompileOutput,
    opts: &SimOptions,
    resume: Option<&Path>,
    key: &str,
    exp: &Expected,
) -> Result<(), String> {
    let err = |e: &dyn std::fmt::Display| format!("{key}: {e}");
    let mut probe = tr.span("ppir.load", || loaded(b, prog));
    let id = tr.enter("ppir.interp");
    let mut rec = TraceRecorder::new();
    let ran = probe.run_traced(&mut rec);
    tr.exit(id);
    ran.map_err(|e| err(&e))?;
    let trace = rec.into_trace();
    tr.count(id, "leaves", trace.leaf_count());
    tr.count(id, "trips", trace.total_trips());
    drop(probe);
    let model = tr.span("sim.model_build", || SimModel::build(prog, out));
    tr.span("sim.tree_build", || {
        drop(std::hint::black_box(Node::build(trace, &model, &mut 1)));
    });

    let mut m = tr.span("ppir.load", || loaded(b, prog));
    let k = tr.span("sim.kernel_new", || {
        SimKernel::new(prog, out, &mut m, opts, false, None)
    });
    let mut k = k.map_err(|e| err(&e))?;
    let mut saved = Snapshots::default();
    let every = resume.map(|_| cadence(exp, key)).transpose()?;
    loop {
        let id = tr.enter("sim.advance");
        let step = k.advance(every.map(|e| k.now() + e), None);
        tr.exit(id);
        let (Some(dir), Advance::Paused) = (resume, step.map_err(|e| err(&e))?) else {
            break;
        };
        let id = tr.enter("sim.checkpoint_save");
        let path = ckpt_path(dir, b, k.now());
        let wrote = k.checkpoint().save(&path);
        tr.exit(id);
        wrote.map_err(|e| err(&e))?;
        let bytes = std::fs::metadata(&path).map_or(0, |md| md.len());
        tr.count(id, "bytes", bytes);
        saved.0.push(path);
    }
    let id = tr.enter("sim.finish");
    let (r, _) = k.finish();
    tr.exit(id);
    tr.count(id, "cycles", r.cycles);
    tr.count(id, "dram_requests", r.dram.reads + r.dram.writes);
    let stats = tr.span("sim.stats_encode", || stats_text(b, &r));
    tr.span("workloads.verify", || b.verify(&m))?;
    exp.check(key, &stats)?;
    if resume.is_none() {
        return Ok(());
    }

    let mid = saved.middle(key)?;
    let ck = tr.span("sim.checkpoint_load", || Checkpoint::load(mid));
    let ck = ck.map_err(|e| err(&e))?;
    let mut m2 = tr.span("ppir.load", || loaded(b, prog));
    let r2 = tr.span("sim.resume", || {
        let mut k = SimKernel::new(prog, out, &mut m2, opts, false, Some(&ck))?;
        k.advance(None, None)?;
        Ok::<_, plasticine::sim::SimError>(k.finish().0)
    });
    let r2 = r2.map_err(|e| err(&e))?;
    let stats = tr.span("sim.stats_encode", || stats_text(b, &r2));
    tr.span("workloads.verify", || b.verify(&m2))?;
    exp.check(key, &stats)
}

/// One batch operation under the tracer: an operation span around
/// `workloads.build`, `compiler.compile` and [`simulate_split`], which
/// checkpoints to and resumes from `resume` when given.
///
/// # Errors
///
/// On any failure or stats mismatch.
pub fn run_traced(
    tr: &mut Tracer,
    op: &OpSpec,
    params: &PlasticineParams,
    exp: &Expected,
    resume: Option<&Path>,
) -> Result<(), String> {
    let key = op.key();
    let root = tr.enter(format!("op {key}"));
    let outcome = build_and_split(tr, op, params, exp, resume);
    tr.exit(root);
    outcome
}

fn build_and_split(
    tr: &mut Tracer,
    op: &OpSpec,
    params: &PlasticineParams,
    exp: &Expected,
    resume: Option<&Path>,
) -> Result<(), String> {
    let b = tr.span("workloads.build", || construct(op.bench, op.scale));
    let out = compile_traced(tr, &b, params)?;
    let opts = op.dram.options();
    simulate_split(tr, &b, &b.program, &out, &opts, resume, &op.key(), exp)
}
