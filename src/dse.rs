//! Resumable multi-objective design-space search (`plasticine-run dse
//! search`).
//!
//! The Figure 7 machinery in `plasticine-models` sweeps one PCU
//! parameter at a time against the area model alone. This module runs
//! the full pipeline per candidate: enumerate a [`DseGrid`] of
//! `PlasticineParams` points, compile every selected benchmark for each
//! point through a shared [`CompileCache`], simulate it, price the chip
//! with the area and power models, and fold the survivors into a Pareto
//! frontier over {perf, area, perf-per-W} with dominated configurations
//! pruned incrementally.
//!
//! ## Determinism
//!
//! Point evaluation is independent per point and the simulator is
//! byte-identical at any thread count, so the only ordering freedom is
//! which worker evaluates which point. Results are collected by
//! enumeration index and the frontier is rebuilt from those indexed
//! results, so the frontier — and the whole report — is identical
//! across worker counts.
//!
//! ## Resume
//!
//! Progress is journaled through the shared [`Journal`] (atomic
//! temp+rename writes). Each point+workload-mix gets a stable key;
//! `done` entries carry the measured objectives as exact f64 bit
//! patterns, so a resumed search rebuilds its frontier byte-identically
//! without re-simulating finished points. `infeasible` entries are
//! final (the design cannot change between invocations); `failed` and
//! interrupted `running` entries are re-run.
//!
//! ## Typed skips
//!
//! A point that cannot be built is not a failure of the search: invalid
//! parameters, a program that does not fit even after
//! `compile_degraded`'s parallelization reduction, a deadlocked
//! schedule, or a blown cycle budget all mark the point
//! [`JobStatus::Infeasible`] and the search continues. Only
//! verification mismatches and I/O errors are real failures, and the
//! search exits with the first failed point's exit-code class.

use crate::arch::{DseGrid, DsePoint};
use crate::compiler::{CompileCache, CompileOptions};
use crate::journal::{JobStatus, Journal, JournalEntry};
use crate::json::decode::hex_of;
use crate::json::{hash::fnv1a_str, Json};
use crate::models::dse::{FrontierPoint, Objectives, ParetoFrontier};
use crate::models::{AreaModel, PowerModel};
use crate::ppir::Machine;
use crate::sim::{simulate, ExitStatus, SimOptions, StepMode};
use crate::workloads::{Bench, Scale};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Everything the search needs besides the workload mix.
#[derive(Debug, Clone)]
pub struct SearchConfig {
    /// The candidate grid (cross product of all axes).
    pub grid: DseGrid,
    /// Workload scale the mix is instantiated at.
    pub scale: Scale,
    /// Worker threads evaluating points concurrently.
    pub jobs: usize,
    /// Time-advance strategy for every simulation.
    pub step: StepMode,
    /// Per-simulation cycle budget (a blown budget is a typed skip).
    pub max_cycles: u64,
    /// Cap on *new* evaluations this invocation; pending points beyond
    /// the cap are reported as not-run and picked up on the next
    /// invocation. This is how tests interrupt a search mid-flight
    /// deterministically.
    pub limit: Option<usize>,
    /// Named workload mixes (`dense`, `sparse`, `ml`) scored in the same
    /// pass: every point is still compiled and simulated once per
    /// selected benchmark, but each mix re-weights those shared
    /// measurements into its own objectives and Pareto frontier, and the
    /// report adds the robust-across-mixes intersection. Empty (the
    /// default) scores only the union of the selected benchmarks,
    /// exactly as before.
    pub mixes: Vec<String>,
}

impl Default for SearchConfig {
    fn default() -> SearchConfig {
        SearchConfig {
            grid: DseGrid::default(),
            scale: Scale(1),
            jobs: 1,
            step: StepMode::Event,
            max_cycles: SimOptions::default().max_cycles,
            limit: None,
            mixes: Vec::new(),
        }
    }
}

/// The benchmarks a named workload mix covers, following the paper's
/// application classes: `dense` is the tiled linear-algebra and
/// streaming kernels, `sparse` the pointer-chasing graph/SpMV kernels,
/// `ml` the iterative training and inference workloads.
pub fn mix_members(name: &str) -> Option<&'static [&'static str]> {
    match name {
        "dense" => Some(&[
            "InnerProduct",
            "OuterProduct",
            "BlackScholes",
            "TPCHQ6",
            "GEMM",
        ]),
        "sparse" => Some(&["SMDV", "PageRank", "BFS"]),
        "ml" => Some(&["GDA", "LogReg", "SGD", "Kmeans", "CNN"]),
        _ => None,
    }
}

/// Resolves mix names to indices into the selected benchmark list. Every
/// mix member must be present: a mix scored over a partial member set
/// would silently mean something different between invocations.
fn resolve_mixes(names: &[String], benches: &[Bench]) -> Result<Vec<(String, Vec<usize>)>, String> {
    names
        .iter()
        .map(|name| {
            let members = mix_members(name).ok_or_else(|| {
                format!("unknown workload mix `{name}` (known mixes: dense, sparse, ml)")
            })?;
            let idx = members
                .iter()
                .map(|m| {
                    benches.iter().position(|b| b.name == *m).ok_or_else(|| {
                        format!(
                            "mix `{name}` includes {m}, which is not in the selected \
                                 benchmarks (select `all` when using --mixes)"
                        )
                    })
                })
                .collect::<Result<Vec<usize>, String>>()?;
            Ok((name.clone(), idx))
        })
        .collect()
}

/// Measured outcome of a feasible point: the objectives over the whole
/// selected benchmark set, plus each configured named mix's objectives
/// over the shared per-benchmark measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct DonePoint {
    /// Objectives over every selected benchmark (the union mix).
    pub obj: Objectives,
    /// Per-named-mix objectives, in [`SearchConfig::mixes`] order (empty
    /// when no named mixes are configured).
    pub mixes: Vec<(String, Objectives)>,
}

/// Final disposition of one design point.
#[derive(Debug, Clone, PartialEq)]
pub enum PointOutcome {
    /// Compiled, simulated, and verified on every benchmark in the mix.
    Done(DonePoint),
    /// The design cannot run this mix (typed skip, final): invalid
    /// parameters, compile failure after degradation, deadlock, cycle
    /// budget, or fault exhaustion.
    Infeasible {
        /// Exit-code class of the first problem encountered.
        code: i32,
        /// What made the point infeasible.
        message: String,
    },
    /// A real failure (verification mismatch, I/O error). Re-run on the
    /// next invocation.
    Failed {
        /// Exit-code class.
        code: i32,
        /// What failed.
        message: String,
    },
    /// Not attempted this invocation (`limit` exhausted).
    NotRun,
}

/// The cumulative result of a search invocation: every grid point's
/// disposition (including those restored from the journal) plus the
/// frontier over all `Done` points.
#[derive(Debug)]
pub struct SearchReport {
    /// Per-point outcomes in enumeration order.
    pub points: Vec<(DsePoint, PointOutcome)>,
    /// Non-dominated `Done` points (over the union objectives).
    pub frontier: ParetoFrontier,
    /// One frontier per configured named mix, in [`SearchConfig::mixes`]
    /// order.
    pub mix_frontiers: Vec<(String, ParetoFrontier)>,
    /// Labels of the points on *every* named mix's frontier — the
    /// designs that are robust across workload mixes — in enumeration
    /// order. Empty when no named mixes are configured.
    pub robust: Vec<String>,
    /// How many points were evaluated fresh this invocation (as opposed
    /// to restored from the journal).
    pub evaluated_now: usize,
}

impl SearchReport {
    /// Counts of (done, infeasible, failed, not-run) points.
    pub fn counts(&self) -> (usize, usize, usize, usize) {
        let mut c = (0, 0, 0, 0);
        for (_, o) in &self.points {
            match o {
                PointOutcome::Done(_) => c.0 += 1,
                PointOutcome::Infeasible { .. } => c.1 += 1,
                PointOutcome::Failed { .. } => c.2 += 1,
                PointOutcome::NotRun => c.3 += 1,
            }
        }
        c
    }

    /// The exit-code class of the invocation: the first failed point's
    /// class in enumeration order, `Ok` otherwise (infeasible points and
    /// not-run points are not failures).
    pub fn exit_code(&self) -> i32 {
        for (_, o) in &self.points {
            if let PointOutcome::Failed { code, .. } = o {
                return *code;
            }
        }
        ExitStatus::Ok.code()
    }

    /// The cumulative report as JSON. Deterministic: identical across
    /// worker counts, and identical whether the search ran cold or was
    /// resumed from a journal (objectives round-trip as exact bits).
    pub fn to_json(&self, benches: &[Bench], cfg: &SearchConfig) -> Json {
        let (done, infeasible, failed, not_run) = self.counts();
        let points: Vec<Json> = self
            .points
            .iter()
            .map(|(p, o)| {
                let mut fields = vec![("point", Json::from(p.label()))];
                match o {
                    PointOutcome::Done(d) => {
                        fields.push(("status", Json::from("done")));
                        fields.push(("perf", Json::from(d.obj.perf)));
                        fields.push(("area_mm2", Json::from(d.obj.area_mm2)));
                        fields.push(("perf_per_w", Json::from(d.obj.perf_per_w)));
                        if !d.mixes.is_empty() {
                            fields.push((
                                "mixes",
                                Json::Obj(
                                    d.mixes
                                        .iter()
                                        .map(|(n, obj)| {
                                            (
                                                n.clone(),
                                                Json::obj([
                                                    ("perf", Json::from(obj.perf)),
                                                    ("area_mm2", Json::from(obj.area_mm2)),
                                                    ("perf_per_w", Json::from(obj.perf_per_w)),
                                                ]),
                                            )
                                        })
                                        .collect(),
                                ),
                            ));
                        }
                    }
                    PointOutcome::Infeasible { code, message } => {
                        fields.push(("status", Json::from("infeasible")));
                        fields.push(("code", Json::from(*code as u64)));
                        fields.push(("message", Json::from(message.clone())));
                    }
                    PointOutcome::Failed { code, message } => {
                        fields.push(("status", Json::from("failed")));
                        fields.push(("code", Json::from(*code as u64)));
                        fields.push(("message", Json::from(message.clone())));
                    }
                    PointOutcome::NotRun => {
                        fields.push(("status", Json::from("not-run")));
                    }
                }
                Json::obj(fields)
            })
            .collect();
        let frontier_json = |f: &ParetoFrontier| -> Json {
            Json::Arr(
                f.entries()
                    .iter()
                    .map(|e| {
                        Json::obj([
                            ("point", Json::from(e.id.clone())),
                            ("perf", Json::from(e.obj.perf)),
                            ("area_mm2", Json::from(e.obj.area_mm2)),
                            ("perf_per_w", Json::from(e.obj.perf_per_w)),
                        ])
                    })
                    .collect(),
            )
        };
        let frontier = frontier_json(&self.frontier);
        let mut fields = vec![
            ("version", Json::from(1u64)),
            (
                "benches",
                Json::Arr(benches.iter().map(|b| Json::from(b.name.clone())).collect()),
            ),
            ("scale", Json::from(cfg.scale.0 as u64)),
            (
                "counts",
                Json::obj([
                    ("done", Json::from(done as u64)),
                    ("infeasible", Json::from(infeasible as u64)),
                    ("failed", Json::from(failed as u64)),
                    ("not_run", Json::from(not_run as u64)),
                ]),
            ),
            ("points", Json::Arr(points)),
            ("frontier", frontier),
        ];
        if !self.mix_frontiers.is_empty() {
            fields.push((
                "mixes",
                Json::Arr(
                    self.mix_frontiers
                        .iter()
                        .map(|(name, f)| {
                            Json::obj([
                                ("name", Json::from(name.clone())),
                                ("frontier", frontier_json(f)),
                            ])
                        })
                        .collect(),
                ),
            ));
            fields.push((
                "robust",
                Json::Arr(self.robust.iter().map(|l| Json::from(l.clone())).collect()),
            ));
        }
        Json::obj(fields)
    }
}

/// Stable identity of one (design point, workload mix) evaluation across
/// invocations. Everything that can change the measured objectives is
/// hashed in: the point itself, the benchmark programs, the scale, the
/// step mode, and the cycle budget.
fn point_key(point: &DsePoint, bench_sig: &str, cfg: &SearchConfig) -> String {
    let mut desc = format!(
        "dse|{}|{}|{}|{:?}|{}",
        point.label(),
        bench_sig,
        cfg.scale.0,
        cfg.step,
        cfg.max_cycles
    );
    // Named mixes change what the journal payload must hold, so they are
    // part of the evaluation's identity. Mix-less searches keep their
    // historical keys.
    if !cfg.mixes.is_empty() {
        desc.push_str("|mixes=");
        desc.push_str(&cfg.mixes.join(","));
    }
    format!("{:016x}", fnv1a_str(&desc))
}

/// Encodes measured objectives as exact f64 bit patterns for the
/// journal, so a resumed search reproduces them bit-for-bit. Per-mix
/// objectives ride along under a `mixes` sub-object.
fn encode_objectives(d: &DonePoint) -> Json {
    let one = |obj: &Objectives| {
        vec![
            ("perf".to_string(), Json::hex(obj.perf.to_bits())),
            ("area_mm2".to_string(), Json::hex(obj.area_mm2.to_bits())),
            (
                "perf_per_w".to_string(),
                Json::hex(obj.perf_per_w.to_bits()),
            ),
        ]
    };
    let mut fields = one(&d.obj);
    if !d.mixes.is_empty() {
        fields.push((
            "mixes".to_string(),
            Json::Obj(
                d.mixes
                    .iter()
                    .map(|(n, obj)| (n.clone(), Json::Obj(one(obj))))
                    .collect(),
            ),
        ));
    }
    Json::Obj(fields)
}

fn decode_one(data: &Json) -> Option<Objectives> {
    Some(Objectives {
        perf: f64::from_bits(hex_of(data, "perf").ok()?),
        area_mm2: f64::from_bits(hex_of(data, "area_mm2").ok()?),
        perf_per_w: f64::from_bits(hex_of(data, "perf_per_w").ok()?),
    })
}

/// Decodes a `done` payload against the configured mix list; a payload
/// missing any required mix (e.g. written before that mix existed) is
/// rejected so the point is re-evaluated.
fn decode_objectives(data: &Json, mixes: &[String]) -> Option<DonePoint> {
    let obj = decode_one(data)?;
    let per_mix = mixes
        .iter()
        .map(|name| {
            let sub = data.get("mixes")?.get(name)?;
            Some((name.clone(), decode_one(sub)?))
        })
        .collect::<Option<Vec<_>>>()?;
    Some(DonePoint {
        obj,
        mixes: per_mix,
    })
}

/// Compiles, simulates, verifies, and prices one design point against
/// the whole mix. Perf and perf-per-W are geometric means across the
/// mix (each benchmark counts equally regardless of its absolute
/// runtime); area is the priced chip area of the point. Named mixes
/// reuse the same per-benchmark measurements — one compile + simulate
/// per benchmark no matter how many mixes score it.
fn evaluate(
    point: &DsePoint,
    benches: &[Bench],
    mix_sets: &[(String, Vec<usize>)],
    cache: &CompileCache,
    cfg: &SearchConfig,
) -> PointOutcome {
    let params = match point.params() {
        Ok(p) => p,
        Err(e) => {
            return PointOutcome::Infeasible {
                code: ExitStatus::Compile.code(),
                message: format!("invalid parameters: {e}"),
            }
        }
    };
    let copts = CompileOptions::new();
    let mut opts = SimOptions {
        step: cfg.step,
        max_cycles: cfg.max_cycles,
        ..SimOptions::default()
    };
    opts.dram.channels = point.dram_channels;
    // Per-benchmark (1/seconds, 1/(seconds*watts)) log-measurements, the
    // shared raw material every mix's geomean is folded from.
    let mut ln_measured: Vec<(f64, f64)> = Vec::with_capacity(benches.len());
    for bench in benches {
        let compiled = match cache.compile_degraded(&bench.program, &params, &copts) {
            Ok(c) => c,
            Err(e) => {
                return PointOutcome::Infeasible {
                    code: ExitStatus::Compile.code(),
                    message: format!("{}: {e}", bench.name),
                }
            }
        };
        let (out, prog, _degraded) = &*compiled;
        let mut m = Machine::new(prog);
        bench.load(&mut m);
        let r = match simulate(prog, out, &mut m, &opts) {
            Ok(r) => r,
            Err(e) => {
                let code = ExitStatus::from(&e);
                let message = format!("{}: {e}", bench.name);
                // The design deadlocking or blowing its budget on this
                // mix is a property of the design point — a typed skip,
                // stable across re-runs. Anything else is a real error.
                return match code {
                    ExitStatus::Deadlock
                    | ExitStatus::CycleBudget
                    | ExitStatus::FaultExhaustion => PointOutcome::Infeasible {
                        code: code.code(),
                        message,
                    },
                    _ => PointOutcome::Failed {
                        code: code.code(),
                        message,
                    },
                };
            }
        };
        if let Err(e) = bench.verify(&m) {
            return PointOutcome::Failed {
                code: ExitStatus::Runtime.code(),
                message: format!("{}: verification: {e}", bench.name),
            };
        }
        let seconds = r.seconds(params.clock_ghz);
        let watts = PowerModel::new().estimate(&r, &out.config).total_w;
        ln_measured.push(((1.0 / seconds).ln(), (1.0 / (seconds * watts)).ln()));
    }
    let area = AreaModel::new().chip(&params).total;
    let geomean = |idx: &mut dyn Iterator<Item = usize>| -> Objectives {
        let (mut ln_perf, mut ln_ppw, mut n) = (0.0f64, 0.0f64, 0usize);
        for i in idx {
            ln_perf += ln_measured[i].0;
            ln_ppw += ln_measured[i].1;
            n += 1;
        }
        let n = n as f64;
        Objectives {
            perf: (ln_perf / n).exp(),
            area_mm2: area,
            perf_per_w: (ln_ppw / n).exp(),
        }
    };
    PointOutcome::Done(DonePoint {
        obj: geomean(&mut (0..benches.len())),
        mixes: mix_sets
            .iter()
            .map(|(name, idx)| (name.clone(), geomean(&mut idx.iter().copied())))
            .collect(),
    })
}

fn final_entry(key: &str, point: &DsePoint, outcome: &PointOutcome, attempts: u32) -> JournalEntry {
    let (status, code, message, data) = match outcome {
        PointOutcome::Done(d) => (JobStatus::Done, 0, String::new(), encode_objectives(d)),
        PointOutcome::Infeasible { code, message } => {
            (JobStatus::Infeasible, *code, message.clone(), Json::Null)
        }
        PointOutcome::Failed { code, message } => {
            (JobStatus::Failed, *code, message.clone(), Json::Null)
        }
        PointOutcome::NotRun => unreachable!("not-run points are never journaled"),
    };
    JournalEntry {
        key: key.to_string(),
        bench: point.label(),
        status,
        code,
        attempts,
        message,
        data,
    }
}

/// Runs (or resumes) the search: restores final outcomes from the
/// journal, evaluates up to `cfg.limit` pending points across
/// `cfg.jobs` workers, journals every state change, and folds all
/// `Done` points into the frontier.
///
/// # Errors
///
/// Returns a message for setup problems (empty grid axis, empty mix);
/// per-point problems are typed outcomes, not errors.
pub fn search(
    benches: &[Bench],
    cfg: &SearchConfig,
    journal: &mut Journal,
) -> Result<SearchReport, String> {
    cfg.grid.validate().map_err(|e| e.to_string())?;
    if benches.is_empty() {
        return Err("no benchmarks selected for the workload mix".into());
    }
    let mix_sets = resolve_mixes(&cfg.mixes, benches)?;
    let points = cfg.grid.enumerate();
    let bench_sig: String = benches
        .iter()
        .map(|b| format!("{}:{:016x}", b.name, b.program.stable_hash()))
        .collect::<Vec<_>>()
        .join(",");
    let keys: Vec<String> = points
        .iter()
        .map(|p| point_key(p, &bench_sig, cfg))
        .collect();

    // Restore final outcomes; collect pending indices in enumeration
    // order. `done` and `infeasible` are final; `failed` retries;
    // `running` was interrupted.
    let mut outcomes: Vec<PointOutcome> = vec![PointOutcome::NotRun; points.len()];
    let mut restored: Vec<bool> = vec![false; points.len()];
    let mut prior_attempts: Vec<u32> = vec![0; points.len()];
    let mut pending: Vec<usize> = Vec::new();
    for (i, key) in keys.iter().enumerate() {
        match journal.find(key) {
            Some(e) if e.status == JobStatus::Done => {
                match decode_objectives(&e.data, &cfg.mixes) {
                    Some(d) => {
                        outcomes[i] = PointOutcome::Done(d);
                        restored[i] = true;
                    }
                    // A done entry without decodable objectives predates the
                    // data payload or was hand-edited: re-evaluate.
                    None => {
                        prior_attempts[i] = e.attempts;
                        pending.push(i);
                    }
                }
            }
            Some(e) if e.status == JobStatus::Infeasible => {
                outcomes[i] = PointOutcome::Infeasible {
                    code: e.code,
                    message: e.message.clone(),
                };
                restored[i] = true;
            }
            Some(e) => {
                prior_attempts[i] = e.attempts;
                pending.push(i);
            }
            None => pending.push(i),
        }
    }

    // `limit` bounds fresh work per invocation; the cap is applied to
    // the enumeration-ordered pending list, so which points run is
    // independent of the worker count.
    let budget = cfg.limit.unwrap_or(pending.len()).min(pending.len());
    let work: Vec<usize> = pending[..budget].to_vec();

    let cache = CompileCache::new();
    let journal_mx = Mutex::new(journal);
    let results: Mutex<Vec<Option<PointOutcome>>> = Mutex::new(vec![None; work.len()]);
    let next = AtomicUsize::new(0);
    let workers = cfg.jobs.max(1).min(work.len().max(1));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let w = next.fetch_add(1, Ordering::Relaxed);
                let Some(&i) = work.get(w) else { return };
                let point = &points[i];
                let attempts = prior_attempts[i] + 1;
                journal_mx.lock().unwrap().set(JournalEntry {
                    key: keys[i].clone(),
                    bench: point.label(),
                    status: JobStatus::Running,
                    code: 0,
                    attempts,
                    message: String::new(),
                    data: Json::Null,
                });
                let outcome = evaluate(point, benches, &mix_sets, &cache, cfg);
                journal_mx
                    .lock()
                    .unwrap()
                    .set(final_entry(&keys[i], point, &outcome, attempts));
                results.lock().unwrap()[w] = Some(outcome);
            });
        }
    });
    let results = results.into_inner().unwrap();
    let mut evaluated_now = 0;
    for (w, &i) in work.iter().enumerate() {
        if let Some(o) = &results[w] {
            outcomes[i] = o.clone();
            evaluated_now += 1;
        }
    }

    // Frontier insertion in enumeration order. The frontier is
    // insertion-order independent, but a fixed order makes the stored
    // entry sequence (and thus the report bytes) deterministic too.
    let mut frontier = ParetoFrontier::new();
    let mut mix_frontiers: Vec<(String, ParetoFrontier)> = cfg
        .mixes
        .iter()
        .map(|n| (n.clone(), ParetoFrontier::new()))
        .collect();
    for (i, o) in outcomes.iter().enumerate() {
        if let PointOutcome::Done(d) = o {
            frontier.insert(FrontierPoint {
                id: points[i].label(),
                obj: d.obj,
            });
            for (name, obj) in &d.mixes {
                let (_, f) = mix_frontiers
                    .iter_mut()
                    .find(|(n, _)| n == name)
                    .expect("mix objectives always come from cfg.mixes");
                f.insert(FrontierPoint {
                    id: points[i].label(),
                    obj: *obj,
                });
            }
        }
    }
    // The robust set: points every mix keeps on its frontier. Enumeration
    // order keeps the list deterministic.
    let robust: Vec<String> = if mix_frontiers.is_empty() {
        Vec::new()
    } else {
        points
            .iter()
            .map(|p| p.label())
            .filter(|l| {
                mix_frontiers
                    .iter()
                    .all(|(_, f)| f.entries().iter().any(|e| &e.id == l))
            })
            .collect()
    };
    let _ = restored;
    Ok(SearchReport {
        points: points.into_iter().zip(outcomes).collect(),
        frontier,
        mix_frontiers,
        robust,
        evaluated_now,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::GridMix;
    use crate::workloads::all;

    fn tiny_cfg() -> SearchConfig {
        SearchConfig {
            grid: DseGrid {
                lanes: vec![16, 8],
                stages: vec![6],
                mixes: vec![GridMix::Checkerboard],
                scratchpad_kb: vec![256],
                dram_channels: vec![4, 2],
            },
            scale: Scale(1),
            jobs: 2,
            ..SearchConfig::default()
        }
    }

    fn mix(names: &[&str]) -> Vec<Bench> {
        all(Scale(1))
            .into_iter()
            .filter(|b| names.contains(&b.name.as_str()))
            .collect()
    }

    #[test]
    fn objectives_round_trip_through_journal_bits() {
        let obj = Objectives {
            perf: 1_234.567_891_011,
            area_mm2: 102.3,
            perf_per_w: 0.000_123_456,
        };
        let plain = DonePoint {
            obj,
            mixes: Vec::new(),
        };
        assert_eq!(
            decode_objectives(&encode_objectives(&plain), &[]),
            Some(plain.clone())
        );
        assert_eq!(decode_objectives(&Json::Null, &[]), None);

        // Per-mix objectives ride along and round-trip exactly.
        let with_mixes = DonePoint {
            obj,
            mixes: vec![(
                "dense".to_string(),
                Objectives {
                    perf: 2.0,
                    area_mm2: 102.3,
                    perf_per_w: 0.5,
                },
            )],
        };
        let data = encode_objectives(&with_mixes);
        assert_eq!(
            decode_objectives(&data, &["dense".to_string()]),
            Some(with_mixes)
        );
        // A payload missing a required mix is rejected → re-evaluated.
        assert_eq!(
            decode_objectives(&encode_objectives(&plain), &["dense".to_string()]),
            None
        );
        // Extra mixes in the payload do not disturb a mix-less decode.
        assert_eq!(decode_objectives(&data, &[]), Some(plain));
    }

    #[test]
    fn point_keys_separate_mixes_and_budgets() {
        let cfg = tiny_cfg();
        let p = cfg.grid.enumerate()[0];
        let k1 = point_key(&p, "Dot:abc", &cfg);
        let k2 = point_key(&p, "GEMM:def", &cfg);
        let mut cfg2 = cfg.clone();
        cfg2.max_cycles = 1;
        let k3 = point_key(&p, "Dot:abc", &cfg2);
        assert_ne!(k1, k2);
        assert_ne!(k1, k3);
        assert_eq!(k1, point_key(&p, "Dot:abc", &cfg));
    }

    #[test]
    fn search_emits_nonempty_frontier_and_journals_done_points() {
        let benches = mix(&["InnerProduct"]);
        let cfg = tiny_cfg();
        let mut journal = Journal::load(None).unwrap();
        let report = search(&benches, &cfg, &mut journal).unwrap();
        let (done, infeasible, failed, not_run) = report.counts();
        assert_eq!(done + infeasible + failed + not_run, 4);
        assert_eq!(failed, 0, "{:?}", report.points);
        assert_eq!(not_run, 0);
        assert!(!report.frontier.is_empty());
        assert_eq!(report.exit_code(), 0);
        assert_eq!(journal.entries().len(), done + infeasible);
    }

    #[test]
    fn limit_caps_fresh_work_and_resume_completes_identically() {
        let benches = mix(&["InnerProduct"]);
        let mut cfg = tiny_cfg();
        let mut journal = Journal::load(None).unwrap();

        // Full cold run for reference.
        let full = search(&benches, &cfg, &mut Journal::load(None).unwrap()).unwrap();

        // First invocation: only 2 of 4 points.
        cfg.limit = Some(2);
        let first = search(&benches, &cfg, &mut journal).unwrap();
        assert_eq!(first.evaluated_now, 2);
        assert_eq!(first.counts().3, 2, "two points must be left not-run");

        // Second invocation: picks up the rest, restores the first two.
        cfg.limit = None;
        let second = search(&benches, &cfg, &mut journal).unwrap();
        assert_eq!(second.evaluated_now, 2);
        assert_eq!(second.counts().3, 0);
        assert_eq!(
            second.to_json(&benches, &cfg).pretty(),
            full.to_json(&benches, &cfg).pretty(),
            "resumed report must be byte-identical to the cold run"
        );
    }

    #[test]
    fn named_mixes_share_one_pass_and_resume_byte_identically() {
        let benches = all(Scale(1));
        let cfg = SearchConfig {
            grid: DseGrid {
                lanes: vec![16],
                stages: vec![6],
                mixes: vec![GridMix::Checkerboard],
                scratchpad_kb: vec![256],
                dram_channels: vec![4],
            },
            mixes: vec!["dense".into(), "sparse".into(), "ml".into()],
            ..SearchConfig::default()
        };
        let mut journal = Journal::load(None).unwrap();
        let report = search(&benches, &cfg, &mut journal).unwrap();
        assert_eq!(report.counts().0, 1, "{:?}", report.points);
        assert_eq!(report.mix_frontiers.len(), 3);
        for (name, f) in &report.mix_frontiers {
            assert_eq!(f.len(), 1, "mix `{name}` must keep the only point");
        }
        assert_eq!(report.robust.len(), 1, "the only point is robust");
        let PointOutcome::Done(d) = &report.points[0].1 else {
            panic!("point must be done");
        };
        assert_eq!(d.mixes.len(), 3);
        // Each mix geomeans a different benchmark subset, so the
        // objectives differ from the union and from each other.
        assert!(d.mixes.iter().any(|(_, o)| o.perf != d.obj.perf));
        // The journal payload carries every mix.
        let entry = journal.entries()[0].clone();
        assert_eq!(entry.status, JobStatus::Done);
        assert!(entry.data.get("mixes").is_some());
        // Resuming restores the per-mix objectives without re-evaluating.
        let resumed = search(&benches, &cfg, &mut journal).unwrap();
        assert_eq!(resumed.evaluated_now, 0);
        assert_eq!(
            resumed.to_json(&benches, &cfg).pretty(),
            report.to_json(&benches, &cfg).pretty()
        );
    }

    #[test]
    fn mix_setup_errors_are_reported() {
        let benches = all(Scale(1));
        let mut cfg = SearchConfig {
            mixes: vec!["warehouse".into()],
            ..tiny_cfg()
        };
        let err = search(&benches, &cfg, &mut Journal::load(None).unwrap()).unwrap_err();
        assert!(err.contains("unknown workload mix"), "{err}");

        cfg.mixes = vec!["sparse".into()];
        let narrow = mix(&["InnerProduct"]);
        let err = search(&narrow, &cfg, &mut Journal::load(None).unwrap()).unwrap_err();
        assert!(err.contains("not in the selected"), "{err}");
    }

    #[test]
    fn infeasible_points_are_typed_not_failures() {
        let benches = mix(&["InnerProduct"]);
        let cfg = SearchConfig {
            grid: DseGrid {
                // 12 lanes is not a power of two: params-invalid.
                lanes: vec![12],
                stages: vec![6],
                mixes: vec![GridMix::Checkerboard],
                scratchpad_kb: vec![256],
                dram_channels: vec![4],
            },
            ..SearchConfig::default()
        };
        let mut journal = Journal::load(None).unwrap();
        let report = search(&benches, &cfg, &mut journal).unwrap();
        assert_eq!(report.counts(), (0, 1, 0, 0));
        assert_eq!(report.exit_code(), 0, "typed skips are not failures");
        assert!(report.frontier.is_empty());
        assert_eq!(
            journal.entries()[0].status,
            JobStatus::Infeasible,
            "infeasible outcome must be journaled as final"
        );
    }
}
