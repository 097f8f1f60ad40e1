//! `plasticine-run` — command-line driver for the full stack.
//!
//! ```sh
//! plasticine-run list
//! plasticine-run run GEMM --scale 4
//! plasticine-run run GEMM --trace gemm.json --stats-json gemm-stats.json
//! plasticine-run run all --faults pcu=6,pmu=6,links=5,seed=42
//! plasticine-run compile BFS --out bfs-cfg.json
//! plasticine-run run BFS --config bfs-cfg.json --stats-json bfs-stats.json
//! plasticine-run batch all --jobs 4 --stats-json stats.json
//! ```
//!
//! Exit codes are the [`ExitStatus`] contract: 0 success, 1 runtime
//! failure (bad data, I/O, verification), 2 usage error, 3 compilation
//! failure (including insufficient degraded fabric), 4 deadlock,
//! 5 transient-fault exhaustion, 6 cycle budget exceeded, 8 fabric
//! degraded by an online fault arrival (the exit leaves a resumable
//! auto-checkpoint when a checkpoint dir is set).

use plasticine::arch::{
    DseGrid, FaultMap, FaultSpec, FaultTimeline, FaultTimelineSpec, GridMix, MachineConfig,
    Partition, PartitionTable, PlasticineParams, Topology,
};
use plasticine::chaos::{self, SoakMode};
use plasticine::compiler::{compile_degraded, Bitstream, CompileCache, CompileOptions};
use plasticine::dse::{PointOutcome, SearchReport};
use plasticine::fpga::FpgaModel;
use plasticine::journal::{JobStatus, Journal, JournalEntry};
use plasticine::json::Json;
use plasticine::models::PowerModel;
use plasticine::ppir::Machine;
use plasticine::service::{
    checkpoint_path, contain, emit_checkpoint, env_lists_bench, jittered_backoff_ms,
    stats_with_bench, Escape, RequestDefaults, ServeOptions,
};
use plasticine::sim::{
    simulate, simulate_checkpointed, simulate_traced, Checkpoint, CheckpointPolicy, ExitStatus,
    MultiSim, SimError, SimOptions, SimResult, StepMode, TenantId, UnitKind, UnitStats,
};
use plasticine::workloads::{all, by_name, Bench, Scale};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  plasticine-run list\n  plasticine-run run <benchmark|all> [--scale N] [--config FILE] [--partition ROWS@Y0[/CH]] [--trace FILE] [--stats-json FILE] [--units] [--faults SPEC] [--step-mode MODE] [--max-cycles N] [--checkpoint-every N] [--checkpoint-dir DIR] [--checkpoint-keep N] [--resume FILE] [--fault-timeline SPEC] [--heal]\n  plasticine-run compile <benchmark> [--scale N] [--faults SPEC] [--partition ROWS@Y0[/CH]] [--out FILE] [--bitstream FILE]\n  plasticine-run multi <NAME=ROWS[@Y0][/CH]...> [--scale N] [--step-mode MODE] [--max-cycles N] [--quantum N] [--evict IDX] [--stats-json FILE]\n  plasticine-run batch <benchmark...|all> [--scale N] [--jobs N] [--stats-json FILE] [--faults SPEC] [--step-mode MODE] [--max-cycles N] [--timeout SECS] [--retries N] [--journal FILE] [--fail-fast] [--checkpoint-every N] [--checkpoint-dir DIR] [--checkpoint-keep N]\n  plasticine-run dse search <benchmark...|all> [--scale N] [--lanes L1,L2] [--stages S1,S2] [--mix M1,M2] [--mixes NAME1,NAME2] [--scratchpad-kb K1,K2] [--channels C1,C2] [--jobs N] [--step-mode MODE] [--max-cycles N] [--limit N] [--journal FILE] [--out FILE]\n  plasticine-run serve [--workers N] [--queue-depth N] [--deadline-ms N] [--socket PATH] [--retries N] [--scale N] [--faults SPEC] [--step-mode MODE] [--max-cycles N] [--checkpoint-every N] [--checkpoint-dir DIR] [--checkpoint-keep N]\n  plasticine-run chaos [benchmark...|all] [--seeds N] [--scale N] [--step-mode MODE] [--modes M1,M2] [--out FILE]\n\nrun options:\n  --config FILE      load a serialized artifact (`compile --out`) instead of compiling\n  --partition ROWS@Y0[/CH]  compile and run on a horizontal band: ROWS fabric\n                     rows starting at row Y0 owning CH DRAM channels\n                     (default 1); with --config, the flag must match the\n                     partition the artifact was compiled for (a mismatch\n                     is a usage error) and the simulated DRAM shrinks to\n                     the band's channel share, so the stats are\n                     byte-identical to the same tenant co-located under\n                     `multi`\n  --trace FILE       write a Chrome trace-viewer JSON (chrome://tracing, ui.perfetto.dev)\n  --stats-json FILE  write a machine-readable stats snapshot\n  --units            print the per-unit stall breakdown table\n  --faults SPEC      inject faults, e.g. pcu=3,pmu=2,links=5,banks=4,chan=1,seed=42\n                     (hard faults; transient rates: lane=P,sram=P,drop=P,retries=N)\n  --step-mode MODE   `event` (default: skip quiescent cycles) or `cycle`\n                     (step every cycle); statistics are bit-identical\n  --max-cycles N     cycle budget (default 500000000); exceeding it exits 6\n  --checkpoint-every N  write a checkpoint every N simulated cycles\n  --checkpoint-dir DIR  where checkpoints go (default `.`); enabling any\n                     checkpointing also auto-checkpoints on cycle-budget and\n                     deadlock failures, so those cycles can be resumed\n  --checkpoint-keep N  cycle-stamped auto-checkpoints retained per benchmark\n                     (default 3; older ones are pruned atomically — the\n                     fixed `<bench>.ckpt.json` slot always holds the newest)\n  --resume FILE      resume from a checkpoint instead of starting at cycle 0\n                     (stats are bit-identical to an uninterrupted run)\n  --fault-timeline SPEC  schedule online fault arrivals, e.g.\n                     units=2,links=1,banks=1,esc=1,horizon=4096,seed=7,band=4@0,detect=8\n                     (sampled deterministically; an arrival that impacts the\n                     running program exits 8 `fabric degraded` with a\n                     resumable auto-checkpoint when a checkpoint dir is set)\n  --heal             self-heal through degraded exits instead of exiting 8:\n                     absorb the arrivals, relocate to the lowest healthy\n                     pattern-equivalent band, resume the degrade checkpoint\n                     there; final stats are byte-identical to resuming the\n                     checkpoint on that band manually (requires --partition;\n                     incompatible with --config/--trace/--resume and the\n                     checkpointing flags)\n  (checkpointing and --trace are mutually exclusive)\n(with `run all`, the benchmark name is inserted into each output file name)\n\ncompile options:\n  --out FILE         write the full compile artifact (config + placement +\n                     analysis, versioned and content-hashed) for `run --config`\n  --bitstream FILE   write only the machine configuration\n  --partition ROWS@Y0[/CH]  confine placement and routing to the band; the\n                     partition is recorded in the artifact, and the same\n                     geometry at a different Y0 yields a relocated,\n                     hash-distinct bitstream\n\nmulti options:\n  co-locate several programs on one chip, each on its own disjoint band\n  with its own DRAM-channel share, under deterministic weighted\n  round-robin channel arbitration; every tenant's stats are byte-identical\n  to running it alone via `run --partition` on the same band\n  NAME=ROWS[/CH]     tenant spec: bench NAME on a best-fit band of ROWS rows\n                     owning CH channels (default 1); NAME=ROWS@Y0[/CH] pins\n                     the band at row Y0 instead\n  --quantum N        cycles per arbitration credit: each round a tenant\n                     advances CH x N cycles (default 2048); stats are\n                     quantum-independent\n  --evict IDX        after one round, evict tenant IDX (checkpoint at its\n                     quantum boundary, free its band) and resume it as a new\n                     tenant — final stats match an uninterrupted run\n  --stats-json FILE  per-tenant stats snapshots (bench name inserted into\n                     the file name)\n\nbatch options:\n  --jobs N           concurrent jobs (default: available cores)\n  --timeout SECS     per-job wall-clock limit; a job past it is abandoned and\n                     reported as timed out while the rest of the batch continues\n  --retries N        re-run a job that fails with transient-fault exhaustion up\n                     to N extra times (exponential backoff between attempts)\n  --journal FILE     append-style progress journal; a re-invoked batch with the\n                     same journal skips completed jobs and, with a checkpoint\n                     dir, resumes interrupted ones mid-run\n  --fail-fast        stop scheduling new jobs after the first failure (the\n                     default runs everything and prints a failure report)\n  (workers share one compile cache; output order is deterministic)\n\ndse search options:\n  a resumable multi-objective search over the PlasticineParams design\n  space: each grid point (cross product of the axis lists below) is\n  compiled + simulated against the chosen workload mix and priced with\n  the area/power models; the output is the Pareto frontier over\n  perf / area / perf-per-W (dominated points pruned incrementally)\n  --lanes L1,L2      candidate PCU SIMD lane counts (default 8,16)\n  --stages S1,S2     candidate PCU pipeline stage counts (default 5,6)\n  --mix M1,M2        candidate grid mixes: `checkerboard`/`cb` or\n                     `pmuheavy`/`ph` (default checkerboard)\n  --mixes NAME1,NAME2  score named workload mixes (`dense`, `sparse`, `ml`)\n                     in the same pass: every point is still compiled and\n                     simulated once per workload, but each mix re-weights\n                     the shared measurements into its own objectives and\n                     Pareto frontier, and the report adds the\n                     robust-across-mixes intersection\n  --scratchpad-kb K1,K2  candidate per-PMU scratchpad KiB (default 128,256)\n  --channels C1,C2   candidate DRAM channel counts (default 2,4)\n  --limit N          evaluate at most N new points this invocation; the\n                     rest are reported `not run` and picked up when the\n                     same --journal is passed again\n  --journal FILE     progress journal (shared format with `batch`); done\n                     points are restored with their exact measured\n                     objectives, so a resumed search emits a frontier\n                     byte-identical to an uninterrupted one\n  --out FILE         write the cumulative report (all points + frontier)\n                     as JSON; deterministic across worker counts\n  points the design cannot run (invalid params, does not fit even after\n  degradation, deadlock, cycle budget) are typed `infeasible` skips, not\n  failures; the exit code reflects only real failures\n\nserve options:\n  a long-lived daemon: line-delimited JSON requests on stdin (responses on\n  stdout) and, with --socket, on a Unix socket shared by many clients;\n  ops: compile, run, batch, stats, shutdown, plus the multi-tenant\n  scheduler ops submit (queue a program onto a free partition), tenants\n  (list tenant states), and evict (checkpoint + requeue a resident)\n  (see DESIGN.md sections 13 and 15)\n  --workers N        worker threads executing requests (default: cores)\n  --queue-depth N    admission-queue bound (default: 2x workers); requests\n                     beyond it are shed with a typed `overloaded` response\n  --deadline-ms N    per-request wall-clock deadline measured from admission\n                     (default 60000); a request past it is abandoned with a\n                     typed error while the daemon keeps serving\n  --retries N        re-run a request failing with fault exhaustion up to N\n                     extra times (jittered backoff), then degrade its\n                     parallelization until it fits the surviving fabric\n  (the remaining flags set per-request defaults; response `status` strings\n  mirror the exit codes below, plus service-only `overloaded` and\n  `shutting_down` with code 7)\n\nchaos options:\n  a deterministic chaos soak: every pinned seed replays a random fault\n  timeline against one workload on one surface (solo self-healing run,\n  two co-resident `multi` tenants, or a live fabric scheduler) and checks\n  the robustness invariants — no panics, typed statuses only, healed\n  stats byte-identical to a manual resume, co-resident isolation intact\n  (exit 0 only when every iteration holds them)\n  --seeds N          iterations; seeds are pinned 1..=N (default 20)\n  --modes M1,M2      surfaces to rotate through: solo, multi, sched\n                     (default all three)\n  --out FILE         write the machine-readable soak report as JSON\n\nexit codes: 0 ok, 1 runtime, 2 usage, 3 compile, 4 deadlock, 5 fault exhaustion,\n            6 cycle budget exceeded, 8 fabric degraded"
    );
    ExitStatus::Usage.into()
}

/// Parsed command-line flags (strict: unknown flags and malformed values
/// are usage errors).
#[derive(Default)]
struct Flags {
    scale: usize,
    trace: Option<String>,
    stats: Option<String>,
    units: bool,
    faults: Option<FaultSpec>,
    bitstream: Option<String>,
    out: Option<String>,
    config: Option<String>,
    jobs: usize,
    step: StepMode,
    max_cycles: Option<u64>,
    checkpoint_every: Option<u64>,
    checkpoint_dir: Option<String>,
    resume: Option<String>,
    timeout: Option<u64>,
    retries: u32,
    journal: Option<String>,
    fail_fast: bool,
    workers: usize,
    queue_depth: usize,
    deadline_ms: Option<u64>,
    socket: Option<String>,
    lanes: Option<Vec<usize>>,
    stages: Option<Vec<usize>>,
    mixes: Option<Vec<GridMix>>,
    scratchpad_kb: Option<Vec<usize>>,
    channels: Option<Vec<usize>>,
    limit: Option<usize>,
    partition: Option<Partition>,
    workload_mixes: Option<Vec<String>>,
    quantum: Option<u64>,
    evict: Option<usize>,
    fault_timeline: Option<FaultTimelineSpec>,
    heal: bool,
    checkpoint_keep: Option<usize>,
    seeds: Option<u64>,
    modes: Option<Vec<SoakMode>>,
}

/// `--lanes 8,16` → `[8, 16]`; every element must be a positive integer.
fn parse_usize_list(v: &str, flag: &str) -> Result<Vec<usize>, String> {
    v.split(',')
        .map(|s| {
            s.trim()
                .parse::<usize>()
                .ok()
                .filter(|&n| n >= 1)
                .ok_or_else(|| {
                    format!(
                        "{flag} requires a comma-separated list of positive integers, got `{v}`"
                    )
                })
        })
        .collect()
}

/// `--jobs N`, or every available core when the flag is absent.
fn jobs_or_cores(jobs: usize) -> usize {
    if jobs > 0 {
        jobs
    } else {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }
}

fn parse_flags(args: &[String], allowed: &[&str]) -> Result<Flags, String> {
    let mut f = Flags {
        scale: 1,
        ..Flags::default()
    };
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        if !allowed.contains(&a) {
            return Err(format!("unknown option `{a}`"));
        }
        if a == "--units" || a == "--fail-fast" || a == "--heal" {
            f.units |= a == "--units";
            f.fail_fast |= a == "--fail-fast";
            f.heal |= a == "--heal";
            i += 1;
            continue;
        }
        let v = match args.get(i + 1) {
            Some(v) if !v.starts_with("--") => v.clone(),
            _ => return Err(format!("{a} requires a value")),
        };
        match a {
            "--scale" => {
                f.scale = v
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("--scale requires a positive integer, got `{v}`"))?;
            }
            "--jobs" => {
                f.jobs = v
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("--jobs requires a positive integer, got `{v}`"))?;
            }
            "--max-cycles" => {
                f.max_cycles =
                    Some(v.parse::<u64>().ok().filter(|&n| n >= 1).ok_or_else(|| {
                        format!("--max-cycles requires a positive integer, got `{v}`")
                    })?);
            }
            "--checkpoint-every" => {
                // `0` would checkpoint every cycle boundary forever and a
                // negative or overflowing value fails the u64 parse; all
                // are usage errors, not silent clamps.
                f.checkpoint_every =
                    Some(v.parse::<u64>().ok().filter(|&n| n >= 1).ok_or_else(|| {
                        format!("--checkpoint-every requires a positive integer, got `{v}`")
                    })?);
            }
            "--timeout" => {
                f.timeout = Some(v.parse::<u64>().ok().filter(|&n| n >= 1).ok_or_else(|| {
                    format!("--timeout requires a positive number of seconds, got `{v}`")
                })?);
            }
            "--retries" => {
                f.retries = v
                    .parse::<u32>()
                    .map_err(|_| format!("--retries requires a non-negative integer, got `{v}`"))?;
            }
            "--workers" => {
                f.workers =
                    v.parse::<usize>().ok().filter(|&n| n >= 1).ok_or_else(|| {
                        format!("--workers requires a positive integer, got `{v}`")
                    })?;
            }
            "--queue-depth" => {
                f.queue_depth = v.parse::<usize>().ok().filter(|&n| n >= 1).ok_or_else(|| {
                    format!("--queue-depth requires a positive integer, got `{v}`")
                })?;
            }
            "--deadline-ms" => {
                f.deadline_ms =
                    Some(v.parse::<u64>().ok().filter(|&n| n >= 1).ok_or_else(|| {
                        format!("--deadline-ms requires a positive integer, got `{v}`")
                    })?);
            }
            "--lanes" => f.lanes = Some(parse_usize_list(&v, "--lanes")?),
            "--stages" => f.stages = Some(parse_usize_list(&v, "--stages")?),
            "--scratchpad-kb" => f.scratchpad_kb = Some(parse_usize_list(&v, "--scratchpad-kb")?),
            "--channels" => f.channels = Some(parse_usize_list(&v, "--channels")?),
            "--mix" => {
                f.mixes = Some(
                    v.split(',')
                        .map(|s| {
                            s.trim()
                                .parse::<GridMix>()
                                .map_err(|e| format!("--mix: {e}"))
                        })
                        .collect::<Result<Vec<GridMix>, String>>()?,
                );
            }
            "--limit" => {
                f.limit =
                    Some(v.parse::<usize>().ok().filter(|&n| n >= 1).ok_or_else(|| {
                        format!("--limit requires a positive integer, got `{v}`")
                    })?);
            }
            "--partition" => {
                f.partition = Some(
                    v.parse::<Partition>()
                        .map_err(|e| format!("--partition: {e}"))?,
                );
            }
            "--mixes" => {
                f.workload_mixes = Some(
                    v.split(',')
                        .map(|s| s.trim().to_string())
                        .filter(|s| !s.is_empty())
                        .collect(),
                );
            }
            "--quantum" => {
                f.quantum =
                    Some(v.parse::<u64>().ok().filter(|&n| n >= 1).ok_or_else(|| {
                        format!("--quantum requires a positive integer, got `{v}`")
                    })?);
            }
            "--evict" => {
                f.evict = Some(
                    v.parse::<usize>()
                        .map_err(|_| format!("--evict requires a tenant index, got `{v}`"))?,
                );
            }
            "--checkpoint-keep" => {
                f.checkpoint_keep =
                    Some(v.parse::<usize>().ok().filter(|&n| n >= 1).ok_or_else(|| {
                        format!("--checkpoint-keep requires a positive integer, got `{v}`")
                    })?);
            }
            "--seeds" => {
                f.seeds =
                    Some(v.parse::<u64>().ok().filter(|&n| n >= 1).ok_or_else(|| {
                        format!("--seeds requires a positive integer, got `{v}`")
                    })?);
            }
            "--modes" => {
                f.modes = Some(
                    v.split(',')
                        .map(|s| {
                            SoakMode::parse(s).ok_or_else(|| {
                                format!("--modes: `{s}` is not solo, multi, or sched")
                            })
                        })
                        .collect::<Result<Vec<SoakMode>, String>>()?,
                );
            }
            "--fault-timeline" => {
                f.fault_timeline = Some(
                    v.parse::<FaultTimelineSpec>()
                        .map_err(|e| format!("--fault-timeline: {e}"))?,
                );
            }
            "--socket" => f.socket = Some(v),
            "--trace" => f.trace = Some(v),
            "--stats-json" => f.stats = Some(v),
            "--bitstream" => f.bitstream = Some(v),
            "--out" => f.out = Some(v),
            "--config" => f.config = Some(v),
            "--checkpoint-dir" => f.checkpoint_dir = Some(v),
            "--resume" => f.resume = Some(v),
            "--journal" => f.journal = Some(v),
            "--faults" => {
                f.faults = Some(
                    v.parse::<FaultSpec>()
                        .map_err(|e| format!("--faults: {e}"))?,
                );
            }
            "--step-mode" => {
                f.step = match v.as_str() {
                    "event" => StepMode::Event,
                    "cycle" => StepMode::Cycle,
                    _ => {
                        return Err(format!(
                            "--step-mode requires `event` or `cycle`, got `{v}`"
                        ))
                    }
                };
            }
            _ => unreachable!("flag list and match arms agree"),
        }
        i += 2;
    }
    Ok(f)
}

/// Validates `--checkpoint-dir` up front: creates the directory when
/// missing and proves it is writable with a probe file, so a long run
/// cannot simulate for an hour before discovering its first checkpoint
/// has nowhere to go. Failures are usage errors (exit 2), reported before
/// any work starts.
fn ensure_checkpoint_dir(dir: &str) -> Result<(), String> {
    std::fs::create_dir_all(dir)
        .map_err(|e| format!("--checkpoint-dir {dir}: cannot create directory: {e}"))?;
    let probe = Path::new(dir).join(".ckpt-probe.tmp");
    std::fs::write(&probe, b"probe")
        .map_err(|e| format!("--checkpoint-dir {dir}: directory is not writable: {e}"))?;
    let _ = std::fs::remove_file(&probe);
    Ok(())
}

/// `trace.json` + `GEMM` → `trace-gemm.json` (for `run all` output files).
fn per_bench_path(path: &str, bench: &str) -> String {
    let bench = bench.to_ascii_lowercase();
    match path.rsplit_once('.') {
        Some((stem, ext)) => format!("{stem}-{bench}.{ext}"),
        None => format!("{path}-{bench}"),
    }
}

/// Prints the cycle breakdown: one aggregate row per unit kind, and
/// per-unit rows when `per_unit` is set. The `recov` column is the
/// fault-recovery overlay (cycles re-doing squashed work), not a fifth
/// class.
fn print_units(units: &UnitStats, per_unit: bool) {
    let pct = |v: u64, t: u64| {
        if t == 0 {
            0.0
        } else {
            100.0 * v as f64 / t as f64
        }
    };
    println!(
        "  {:<18} {:>3} {:>7} {:>7} {:>7} {:>7} {:>9}",
        "unit", "n", "busy%", "ctrl%", "mem%", "idle%", "recov"
    );
    for kind in [UnitKind::Pcu, UnitKind::Pmu, UnitKind::Ag] {
        let n = units.units.iter().filter(|u| u.kind == kind).count();
        if n == 0 {
            continue;
        }
        let a = units.aggregate(kind);
        let t = a.total();
        println!(
            "  {:<18} {:>3} {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}% {:>9}",
            kind.as_str(),
            n,
            pct(a.busy, t),
            pct(a.ctrl_stall, t),
            pct(a.mem_stall, t),
            pct(a.idle, t),
            a.recovery,
        );
    }
    if per_unit {
        for u in &units.units {
            let c = &u.cycles;
            let t = c.total();
            println!(
                "    {:<16} {:>3} {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}% {:>9}",
                u.label,
                u.kind.as_str(),
                pct(c.busy, t),
                pct(c.ctrl_stall, t),
                pct(c.mem_stall, t),
                pct(c.idle, t),
                c.recovery,
            );
        }
    }
}

struct RunConfig {
    config: Option<String>,
    trace: Option<String>,
    stats: Option<String>,
    units: bool,
    faults: FaultMap,
    step: StepMode,
    max_cycles: Option<u64>,
    checkpoint_every: Option<u64>,
    checkpoint_dir: Option<String>,
    checkpoint_keep: usize,
    resume: Option<String>,
    partition: Option<Partition>,
    timeline: Option<FaultTimelineSpec>,
    heal: bool,
}

/// A failed run, carrying the exit status it maps to.
struct RunFailure {
    code: ExitStatus,
    message: String,
}

impl RunFailure {
    fn other(message: String) -> RunFailure {
        RunFailure {
            code: ExitStatus::Runtime,
            message,
        }
    }

    fn from_sim(e: SimError) -> RunFailure {
        RunFailure {
            code: ExitStatus::from(&e),
            message: e.to_string(),
        }
    }
}

/// One-line result summary (cycles, utilization, power, FPGA speedup).
fn summary_line(
    bench: &Bench,
    params: &PlasticineParams,
    out: &plasticine::compiler::CompileOutput,
    r: &SimResult,
) -> String {
    let (pcu, pmu, ag) = out.config.utilization();
    let power = PowerModel::new().estimate(r, &out.config);
    let fpga = FpgaModel::new().estimate(&bench.fpga);
    let speedup = fpga.seconds / r.seconds(params.clock_ghz);
    format!(
        "{:<14} {:>10} cycles  util pcu/pmu/ag {:>4.0}%/{:>4.0}%/{:>4.0}%  {:>5.1} W  vs FPGA {:>6.1}x  [verified]",
        bench.name,
        r.cycles,
        100.0 * pcu,
        100.0 * pmu,
        100.0 * ag,
        power.total_w,
        speedup,
    )
}

/// Loads a `compile --out` artifact and recovers the exact program it was
/// compiled from (replaying the degradation log against the benchmark's
/// pristine program).
fn load_artifact(
    path: &str,
    bench: &Bench,
) -> Result<
    (
        plasticine::compiler::CompileOutput,
        plasticine::ppir::Program,
    ),
    RunFailure,
> {
    let b = Bitstream::load(std::path::Path::new(path))
        .map_err(|e| RunFailure::other(format!("loading {path}: {e}")))?;
    if !b.matches_program(&bench.program) {
        return Err(RunFailure::other(format!(
            "{path} was not compiled from `{}` at this scale (artifact program \
             `{}`, hash {:016x})",
            bench.name, b.program_name, b.program_hash
        )));
    }
    let prog = b
        .recover_program(&bench.program)
        .map_err(|e| RunFailure::other(format!("{path}: {e}")))?;
    for note in &b.degradations {
        println!("  degraded: {note}");
    }
    Ok((b.output, prog))
}

fn run_one(bench: &Bench, params: &PlasticineParams, cfg: &RunConfig) -> Result<(), RunFailure> {
    let (out, prog) = match &cfg.config {
        Some(path) => {
            let loaded = load_artifact(path, bench)?;
            // A partition-mismatched artifact is a usage error, not a
            // runtime one: the caller asked to run on a band the bitstream
            // was not compiled for, and silently honoring either side
            // would violate the placement the artifact encodes.
            if let Some(requested) = &cfg.partition {
                if loaded.0.config.partition != cfg.partition {
                    let artifact = match &loaded.0.config.partition {
                        Some(p) => p.to_string(),
                        None => "the whole fabric".to_string(),
                    };
                    return Err(RunFailure {
                        code: ExitStatus::Usage,
                        message: format!(
                            "--partition {requested} does not match {path}: the \
                             artifact was compiled for {artifact} (recompile \
                             with `compile --partition`, or drop the flag to \
                             use the artifact's own partition)",
                        ),
                    });
                }
            }
            loaded
        }
        None => {
            let copts = CompileOptions {
                faults: cfg.faults.clone(),
                partition: cfg.partition,
                ..CompileOptions::new()
            };
            let (out, prog, degraded) =
                compile_degraded(&bench.program, params, &copts).map_err(|e| RunFailure {
                    code: ExitStatus::Compile,
                    message: e.to_string(),
                })?;
            for note in &degraded {
                println!("  degraded: {note}");
            }
            (out, prog)
        }
    };
    let mut m = Machine::new(&prog);
    bench.load(&mut m);
    let mut opts = SimOptions {
        faults: cfg.faults.clone(),
        step: cfg.step,
        ..SimOptions::default()
    };
    if let Some(n) = cfg.max_cycles {
        opts.max_cycles = n;
    }
    // A partitioned run owns only its band's share of the DRAM channels;
    // shrinking the simulated channel count is what makes a solo run on a
    // band byte-identical to the same tenant co-located under `multi`.
    if let Some(p) = cfg.partition.or(out.config.partition) {
        opts.dram.channels = p.channels;
    }
    // The timeline samples after the channel override so a partitioned
    // run draws the exact arrivals the service-side scheduler would for
    // the same band — the byte-identity contracts depend on it.
    if let Some(spec) = &cfg.timeline {
        opts.timeline = FaultTimeline::sample(&Topology::new(params), spec, opts.dram.channels);
        println!("  fault timeline: {}", opts.timeline.summary());
    }
    if cfg.heal {
        let band = cfg
            .partition
            .expect("`run` validates that --heal requires --partition");
        let h = chaos::run_healed(bench, params, band, &opts, 16).map_err(RunFailure::from_sim)?;
        println!("{}", summary_line(bench, params, &out, &h.result));
        if h.heals > 0 {
            let bands: Vec<String> = h.bands.iter().map(Partition::to_string).collect();
            println!(
                "  healed {} degraded exit(s) ({} migration(s)) at cycle(s) {:?}; bands {}",
                h.heals,
                h.migrations,
                h.degrade_cycles,
                bands.join(" -> "),
            );
        }
        if let Some(path) = &cfg.stats {
            std::fs::write(path, stats_with_bench(bench, &h.result).pretty())
                .map_err(|e| RunFailure::other(format!("writing {path}: {e}")))?;
            println!("  stats written to {path}");
        }
        return Ok(());
    }
    let checkpointing = cfg.checkpoint_every.is_some() || cfg.checkpoint_dir.is_some();
    let sim_res = if checkpointing || cfg.resume.is_some() {
        let resume = match &cfg.resume {
            Some(path) => {
                let c = Checkpoint::load(Path::new(path))
                    .map_err(|e| RunFailure::from_sim(SimError::Checkpoint(e)))?;
                println!("  resuming from cycle {} ({path})", c.cycle);
                Some(c)
            }
            None => None,
        };
        let dir = cfg.checkpoint_dir.as_deref().unwrap_or(".");
        let policy = CheckpointPolicy {
            every: cfg.checkpoint_every,
            // Any checkpointing flag also opts into auto-checkpoints at
            // cycle-budget and deadlock failures, so those simulated
            // cycles survive the error and can be resumed with bigger
            // limits.
            on_error: checkpointing,
        };
        simulate_checkpointed(
            &prog,
            &out,
            &mut m,
            &opts,
            policy,
            resume.as_ref(),
            &mut |c| match emit_checkpoint(dir, &bench.name, cfg.checkpoint_keep, c) {
                Ok(stamped) => println!(
                    "  checkpoint at cycle {} written to {}",
                    c.cycle,
                    stamped.display()
                ),
                // A failed write must not kill a healthy run: report it
                // and keep simulating.
                Err(e) => eprintln!("  checkpoint write failed: {e}"),
            },
        )
        .map(|r| (r, None))
    } else if cfg.trace.is_some() {
        simulate_traced(&prog, &out, &mut m, &opts).map(|(r, t)| (r, Some(t)))
    } else {
        simulate(&prog, &out, &mut m, &opts).map(|r| (r, None))
    };
    let (r, trace): (SimResult, Option<_>) = match sim_res {
        Ok(x) => x,
        Err(SimError::Deadlock(report)) => {
            // The diagnosis embeds the trace up to the deadlock (with
            // instant markers on the blocked units): still write it out.
            if let (Some(path), Some(t)) = (&cfg.trace, &report.trace) {
                let json = t.chrome_trace(&prog);
                match std::fs::write(path, json.pretty()) {
                    Ok(()) => eprintln!("deadlock trace written to {path}"),
                    Err(e) => eprintln!("writing {path}: {e}"),
                }
            }
            return Err(RunFailure::from_sim(SimError::Deadlock(report)));
        }
        Err(e) => return Err(RunFailure::from_sim(e)),
    };
    bench.verify(&m).map_err(RunFailure::other)?;
    println!("{}", summary_line(bench, params, &out, &r));
    if cfg.faults.has_hard_faults() || cfg.faults.transient.any() {
        let f = &r.faults;
        println!(
            "  faults: {}  recovered: ecc={} parity={} lane={} drops={} retries={} (+{} cy backoff, {} recovery cy)",
            cfg.faults.summary(),
            f.ecc_corrected,
            f.parity_replays,
            f.lane_replays,
            f.dram_dropped,
            f.dram_retries,
            f.dram_retry_wait_cycles,
            f.recovery_cycles,
        );
    }
    if cfg.units {
        print_units(&r.units, true);
    }
    if let (Some(path), Some(trace)) = (&cfg.trace, &trace) {
        let json = trace.chrome_trace(&prog);
        std::fs::write(path, json.pretty())
            .map_err(|e| RunFailure::other(format!("writing {path}: {e}")))?;
        println!("  trace ({} events) written to {path}", trace.events.len());
    }
    if let Some(path) = &cfg.stats {
        std::fs::write(path, stats_with_bench(bench, &r).pretty())
            .map_err(|e| RunFailure::other(format!("writing {path}: {e}")))?;
        println!("  stats written to {path}");
    }
    Ok(())
}

/// Batch-supervisor options (everything after the benchmark list).
#[derive(Clone)]
struct BatchConfig {
    jobs: usize,
    faults: FaultMap,
    step: StepMode,
    stats: Option<String>,
    max_cycles: Option<u64>,
    timeout: Option<Duration>,
    retries: u32,
    journal: Option<String>,
    fail_fast: bool,
    checkpoint_every: Option<u64>,
    checkpoint_dir: Option<String>,
    checkpoint_keep: usize,
}

/// Stable identity of a batch job across invocations: the same bench at
/// the same scale under the same fault map and step mode hashes to the
/// same key, so a re-invoked batch can match journal entries to jobs.
fn job_key(bench: &Bench, faults: &FaultMap, step: StepMode) -> String {
    let desc = format!(
        "{}|{:016x}|{}|{:?}",
        bench.name,
        bench.program.stable_hash(),
        faults.summary(),
        step
    );
    format!("{:016x}", plasticine::json::hash::fnv1a_str(&desc))
}

/// One `batch` work item: compile through the shared cache, simulate
/// (checkpointing and resuming per the batch config), verify. Returns the
/// text to print, buffered so worker output can be emitted in
/// deterministic order.
fn batch_one(
    bench: &Bench,
    params: &PlasticineParams,
    cache: &CompileCache,
    cfg: &BatchConfig,
) -> Result<String, RunFailure> {
    // Failure-path test hooks (see `env_lists_bench`): CI injects one
    // panicking and one hanging job and asserts the supervisor contains
    // both while the rest of the batch completes.
    if env_lists_bench("PLASTICINE_TEST_PANIC", &bench.name) {
        panic!("injected panic in `{}` (PLASTICINE_TEST_PANIC)", bench.name);
    }
    if env_lists_bench("PLASTICINE_TEST_HANG", &bench.name) {
        loop {
            std::thread::sleep(Duration::from_secs(3600));
        }
    }
    let copts = CompileOptions {
        faults: cfg.faults.clone(),
        ..CompileOptions::new()
    };
    let cached = cache
        .compile_degraded(&bench.program, params, &copts)
        .map_err(|e| RunFailure {
            code: ExitStatus::Compile,
            message: e.to_string(),
        })?;
    let (out, prog, degraded) = &*cached;
    let mut m = Machine::new(prog);
    bench.load(&mut m);
    let mut opts = SimOptions {
        faults: cfg.faults.clone(),
        step: cfg.step,
        ..SimOptions::default()
    };
    if let Some(n) = cfg.max_cycles {
        opts.max_cycles = n;
    }
    let mut text = String::new();
    let checkpointing = cfg.checkpoint_every.is_some() || cfg.checkpoint_dir.is_some();
    let r = if checkpointing {
        let dir = cfg.checkpoint_dir.as_deref().unwrap_or(".");
        let ckpt_path = checkpoint_path(dir, &bench.name);
        // An interrupted earlier invocation may have left a checkpoint:
        // resume from it when it matches this exact job, otherwise start
        // fresh (a stale or foreign snapshot is a note, not an error).
        let resume = match Checkpoint::load(&ckpt_path) {
            Ok(c) => match c.matches(prog, &out.config, &opts) {
                Ok(()) => {
                    let _ = writeln!(
                        text,
                        "  resuming from cycle {} ({})",
                        c.cycle,
                        ckpt_path.display()
                    );
                    Some(c)
                }
                Err(e) => {
                    let _ = writeln!(text, "  ignoring stale checkpoint: {e}");
                    None
                }
            },
            Err(_) => None,
        };
        let policy = CheckpointPolicy {
            every: cfg.checkpoint_every,
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
                if let Err(e) = emit_checkpoint(dir, &bench.name, cfg.checkpoint_keep, c) {
                    eprintln!("{}: checkpoint write failed: {e}", bench.name);
                }
            },
        )
        .map_err(RunFailure::from_sim)?;
        // The job finished: its checkpoint is spent.
        let _ = std::fs::remove_file(&ckpt_path);
        r
    } else {
        simulate(prog, out, &mut m, &opts).map_err(RunFailure::from_sim)?
    };
    bench.verify(&m).map_err(RunFailure::other)?;
    for note in degraded {
        let _ = writeln!(text, "  degraded: {note}");
    }
    let _ = write!(text, "{}", summary_line(bench, params, out, &r));
    if let Some(path) = &cfg.stats {
        let path = per_bench_path(path, &bench.name);
        std::fs::write(&path, stats_with_bench(bench, &r).pretty())
            .map_err(|e| RunFailure::other(format!("writing {path}: {e}")))?;
        let _ = write!(text, "\n  stats written to {path}");
    }
    Ok(text)
}

/// Runs one job attempt under [`contain`] so the supervisor can enforce a
/// wall-clock limit and absorb panics; either becomes a runtime failure.
/// An abandoned attempt holds no lock the batch needs.
fn run_attempt(
    bench: &Bench,
    params: &PlasticineParams,
    cache: &Arc<CompileCache>,
    cfg: &BatchConfig,
) -> Result<String, RunFailure> {
    let (b, p, ca, cf) = (
        bench.clone(),
        params.clone(),
        Arc::clone(cache),
        cfg.clone(),
    );
    match contain(cfg.timeout, move || batch_one(&b, &p, &ca, &cf)) {
        Ok(res) => res,
        Err(Escape::Panicked(msg)) => Err(RunFailure::other(format!("worker panicked: {msg}"))),
        Err(Escape::TimedOut) => Err(RunFailure::other(format!(
            "timed out after {}s (worker abandoned)",
            cfg.timeout.unwrap_or_default().as_secs()
        ))),
    }
}

/// A job's attempt loop: bounded retry with exponential backoff, applied
/// only to transient-fault exhaustion (the one failure class the fault
/// model itself calls transient). Returns the final result and how many
/// attempts it took.
fn supervise_job(
    bench: &Bench,
    params: &PlasticineParams,
    cache: &Arc<CompileCache>,
    cfg: &BatchConfig,
) -> (Result<String, RunFailure>, u32) {
    let mut attempt = 0u32;
    loop {
        attempt += 1;
        let res = run_attempt(bench, params, cache, cfg);
        match &res {
            Err(f) if f.code == ExitStatus::FaultExhaustion && attempt <= cfg.retries => {
                // Jittered so concurrent jobs that exhausted in lockstep
                // (same fault spec, same wall-clock) do not retry in
                // lockstep too; deterministic per (seed, bench, attempt).
                let backoff = Duration::from_millis(jittered_backoff_ms(
                    cfg.faults.transient.seed,
                    &bench.name,
                    attempt,
                ));
                eprintln!(
                    "{}: fault exhaustion (attempt {attempt}), retrying in {}ms",
                    bench.name,
                    backoff.as_millis()
                );
                std::thread::sleep(backoff);
            }
            _ => return (res, attempt),
        }
    }
}

/// Per-job outcome the supervisor reports on.
enum JobOutcome {
    Ok(String),
    /// The journal says a previous invocation already completed this job.
    Skipped,
    Failed(RunFailure, u32),
}

/// Runs the batch over `cfg.jobs` worker threads sharing one compile
/// cache. Workers pull indices from a shared counter; results are
/// collected by index and printed in input order, so output is identical
/// regardless of scheduling. Every job runs under the supervisor
/// (panic containment, wall-clock timeout, bounded retry, journaling);
/// failures are collected into a structured report instead of aborting
/// the batch, unless `--fail-fast` stops scheduling after the first. The
/// exit status is the first (by input order) failure's.
fn run_batch(benches: &[Bench], params: &PlasticineParams, cfg: &BatchConfig) -> ExitCode {
    let journal = match Journal::load(cfg.journal.as_deref()) {
        Ok(j) => Mutex::new(j),
        Err(e) => {
            eprintln!("{e}");
            return ExitStatus::Runtime.into();
        }
    };
    let cache = Arc::new(CompileCache::new());
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let results: Mutex<Vec<Option<JobOutcome>>> =
        Mutex::new((0..benches.len()).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..cfg.jobs.min(benches.len()) {
            scope.spawn(|| loop {
                if stop.load(Ordering::Relaxed) {
                    return;
                }
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(bench) = benches.get(i) else {
                    return;
                };
                let key = job_key(bench, &cfg.faults, cfg.step);
                {
                    let mut j = journal.lock().unwrap();
                    if j.find(&key).is_some_and(|e| e.status == JobStatus::Done) {
                        results.lock().unwrap()[i] = Some(JobOutcome::Skipped);
                        continue;
                    }
                    j.set(JournalEntry {
                        key: key.clone(),
                        bench: bench.name.clone(),
                        status: JobStatus::Running,
                        code: 0,
                        attempts: 0,
                        message: String::new(),
                        data: Json::Null,
                    });
                }
                let (res, attempts) = supervise_job(bench, params, &cache, cfg);
                let outcome = match res {
                    Ok(text) => {
                        journal.lock().unwrap().set(JournalEntry {
                            key,
                            bench: bench.name.clone(),
                            status: JobStatus::Done,
                            code: 0,
                            attempts,
                            message: String::new(),
                            data: Json::Null,
                        });
                        JobOutcome::Ok(text)
                    }
                    Err(f) => {
                        journal.lock().unwrap().set(JournalEntry {
                            key,
                            bench: bench.name.clone(),
                            status: JobStatus::Failed,
                            code: f.code.code(),
                            attempts,
                            message: f.message.clone(),
                            data: Json::Null,
                        });
                        if cfg.fail_fast {
                            stop.store(true, Ordering::Relaxed);
                        }
                        JobOutcome::Failed(f, attempts)
                    }
                };
                results.lock().unwrap()[i] = Some(outcome);
            });
        }
    });
    let results = results.into_inner().unwrap();
    let mut status = ExitStatus::Ok;
    let (mut ok, mut skipped, mut not_run) = (0usize, 0usize, 0usize);
    let mut failures: Vec<String> = Vec::new();
    for (bench, res) in benches.iter().zip(results) {
        match res {
            Some(JobOutcome::Ok(text)) => {
                println!("{text}");
                ok += 1;
            }
            Some(JobOutcome::Skipped) => {
                println!("{}: skipped (journal: already done)", bench.name);
                skipped += 1;
            }
            Some(JobOutcome::Failed(f, attempts)) => {
                eprintln!("{}: {}", bench.name, f.message);
                failures.push(format!(
                    "  {} exit {} after {attempts} attempt{}: {}",
                    bench.name,
                    f.code.code(),
                    if attempts == 1 { "" } else { "s" },
                    f.message
                ));
                if status == ExitStatus::Ok {
                    status = f.code;
                }
            }
            // `--fail-fast` stopped the schedule before this job was
            // claimed.
            None => not_run += 1,
        }
    }
    println!(
        "batch: {} jobs, {ok} ok, {} failed, {skipped} skipped, {not_run} not run, \
         compile cache {} hits / {} misses",
        benches.len(),
        failures.len(),
        cache.hits(),
        cache.misses()
    );
    if !failures.is_empty() {
        eprintln!("failures:");
        for line in &failures {
            eprintln!("{line}");
        }
    }
    status.into()
}

/// Materializes the fault map a spec describes for the current machine.
fn fault_map(spec: &Option<FaultSpec>, params: &PlasticineParams) -> FaultMap {
    match spec {
        Some(spec) => {
            let topo = Topology::new(params);
            let channels = plasticine::dram::DramConfig::default().channels;
            FaultMap::sample(&topo, spec, channels)
        }
        None => FaultMap::default(),
    }
}

/// Per-point lines, cumulative counts, and the frontier table for
/// `dse search`. Output order follows grid enumeration order, so it is
/// deterministic at any worker count.
fn print_dse_report(report: &SearchReport) {
    for (p, o) in &report.points {
        match o {
            PointOutcome::Done(d) => println!(
                "{:<18} perf {:>11.4e}  area {:>7.1} mm2  perf/W {:>11.4e}",
                p.label(),
                d.obj.perf,
                d.obj.area_mm2,
                d.obj.perf_per_w
            ),
            PointOutcome::Infeasible { message, .. } => {
                println!("{:<18} infeasible: {message}", p.label());
            }
            PointOutcome::Failed { message, .. } => {
                println!("{:<18} FAILED: {message}", p.label());
            }
            PointOutcome::NotRun => println!("{:<18} not run (--limit)", p.label()),
        }
    }
    let (done, infeasible, failed, not_run) = report.counts();
    println!(
        "\n{done} done, {infeasible} infeasible, {failed} failed, {not_run} not run \
         ({} evaluated this invocation)",
        report.evaluated_now
    );
    println!("Pareto frontier ({} points):", report.frontier.len());
    for e in report.frontier.entries() {
        println!(
            "  {:<16} perf {:>11.4e}  area {:>7.1} mm2  perf/W {:>11.4e}",
            e.id, e.obj.perf, e.obj.area_mm2, e.obj.perf_per_w
        );
    }
    for (name, f) in &report.mix_frontiers {
        println!("{name} frontier ({} points):", f.len());
        for e in f.entries() {
            println!(
                "  {:<16} perf {:>11.4e}  area {:>7.1} mm2  perf/W {:>11.4e}",
                e.id, e.obj.perf, e.obj.area_mm2, e.obj.perf_per_w
            );
        }
    }
    if !report.mix_frontiers.is_empty() {
        println!("robust across mixes ({} points):", report.robust.len());
        for l in &report.robust {
            println!("  {l}");
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let params = PlasticineParams::paper_final();
    match args.first().map(String::as_str) {
        Some("list") => {
            if args.len() > 1 {
                eprintln!("`list` takes no arguments");
                return usage();
            }
            for b in all(Scale(1)) {
                println!("{}", b.name);
            }
            ExitCode::SUCCESS
        }
        Some("run") => {
            let Some(name) = args.get(1) else {
                return usage();
            };
            if name.starts_with("--") {
                eprintln!("`run` requires a benchmark name before options");
                return usage();
            }
            let flags = match parse_flags(
                &args[2..],
                &[
                    "--scale",
                    "--config",
                    "--trace",
                    "--stats-json",
                    "--units",
                    "--faults",
                    "--step-mode",
                    "--max-cycles",
                    "--checkpoint-every",
                    "--checkpoint-dir",
                    "--checkpoint-keep",
                    "--resume",
                    "--partition",
                    "--fault-timeline",
                    "--heal",
                ],
            ) {
                Ok(f) => f,
                Err(e) => {
                    eprintln!("{e}");
                    return usage();
                }
            };
            if let Some(p) = &flags.partition {
                if let Err(e) = p.validate(&params) {
                    eprintln!("{e}");
                    return usage();
                }
            }
            if flags.config.is_some() && name == "all" {
                eprintln!("--config loads one artifact and cannot be combined with `run all`");
                return usage();
            }
            if flags.resume.is_some() && name == "all" {
                eprintln!("--resume loads one checkpoint and cannot be combined with `run all`");
                return usage();
            }
            if flags.trace.is_some()
                && (flags.checkpoint_every.is_some()
                    || flags.checkpoint_dir.is_some()
                    || flags.resume.is_some())
            {
                eprintln!(
                    "--trace cannot be combined with checkpointing: a trace cannot be \
                     reconstructed across an interrupted run"
                );
                return usage();
            }
            if flags.heal {
                if flags.partition.is_none() {
                    eprintln!(
                        "--heal requires --partition: healing relocates the run between \
                         pattern-equivalent bands, so it must start on one"
                    );
                    return usage();
                }
                if flags.fault_timeline.is_none() {
                    eprintln!("--heal requires --fault-timeline: there is nothing to heal from");
                    return usage();
                }
                if flags.config.is_some()
                    || flags.trace.is_some()
                    || flags.resume.is_some()
                    || flags.checkpoint_every.is_some()
                    || flags.checkpoint_dir.is_some()
                {
                    eprintln!(
                        "--heal recompiles and resumes internally and cannot be combined \
                         with --config, --trace, --resume, or the checkpointing flags"
                    );
                    return usage();
                }
            }
            if let Some(dir) = &flags.checkpoint_dir {
                if let Err(e) = ensure_checkpoint_dir(dir) {
                    eprintln!("{e}");
                    return ExitStatus::Usage.into();
                }
            }
            let scale = Scale(flags.scale);
            let benches = if name == "all" {
                all(scale)
            } else {
                match by_name(name, scale) {
                    Some(b) => vec![b],
                    None => {
                        eprintln!("unknown benchmark `{name}` (try `plasticine-run list`)");
                        return ExitCode::FAILURE;
                    }
                }
            };
            let faults = fault_map(&flags.faults, &params);
            if flags.faults.is_some() {
                println!("fault map: {}", faults.summary());
            }
            let many = benches.len() > 1;
            for b in &benches {
                let cfg = RunConfig {
                    config: flags.config.clone(),
                    trace: flags.trace.as_ref().map(|p| {
                        if many {
                            per_bench_path(p, &b.name)
                        } else {
                            p.clone()
                        }
                    }),
                    stats: flags.stats.as_ref().map(|p| {
                        if many {
                            per_bench_path(p, &b.name)
                        } else {
                            p.clone()
                        }
                    }),
                    units: flags.units,
                    faults: faults.clone(),
                    step: flags.step,
                    max_cycles: flags.max_cycles,
                    checkpoint_every: flags.checkpoint_every,
                    checkpoint_dir: flags.checkpoint_dir.clone(),
                    checkpoint_keep: flags.checkpoint_keep.unwrap_or(3),
                    resume: flags.resume.clone(),
                    partition: flags.partition,
                    timeline: flags.fault_timeline.clone(),
                    heal: flags.heal,
                };
                if let Err(e) = run_one(b, &params, &cfg) {
                    eprintln!("{}: {}", b.name, e.message);
                    return e.code.into();
                }
            }
            ExitCode::SUCCESS
        }
        Some("multi") => {
            let specs: Vec<&String> = args[1..]
                .iter()
                .take_while(|a| !a.starts_with("--"))
                .collect();
            if specs.len() < 2 {
                eprintln!("`multi` requires at least two NAME=ROWS[@Y0][/CHANNELS] tenant specs");
                return usage();
            }
            let flags = match parse_flags(
                &args[1 + specs.len()..],
                &[
                    "--scale",
                    "--step-mode",
                    "--max-cycles",
                    "--quantum",
                    "--evict",
                    "--stats-json",
                ],
            ) {
                Ok(f) => f,
                Err(e) => {
                    eprintln!("{e}");
                    return usage();
                }
            };
            let scale = Scale(flags.scale);
            // Claim bands in spec order: explicit `ROWS@Y0` specs insert at
            // their offset, bare `ROWS` specs take the best-fit gap.
            let mut table = PartitionTable::new(&params);
            let mut placed: Vec<(Bench, Partition)> = Vec::new();
            for s in &specs {
                let Some((name, geom)) = s.split_once('=') else {
                    eprintln!("`{s}` is not NAME=ROWS[@Y0][/CHANNELS]");
                    return usage();
                };
                let Some(bench) = by_name(name, scale) else {
                    eprintln!("unknown benchmark `{name}` (try `plasticine-run list`)");
                    return ExitCode::FAILURE;
                };
                // Tenant names are the per-tenant identity everywhere
                // downstream (stats files, eviction messages): a duplicate
                // would silently alias two tenants, so reject it up front
                // like an overlapping band.
                if placed.iter().any(|(b, _)| b.name == bench.name) {
                    eprintln!(
                        "duplicate tenant `{}`: each tenant needs a distinct benchmark",
                        bench.name
                    );
                    return usage();
                }
                let band = if geom.contains('@') {
                    let p: Partition = match geom.parse() {
                        Ok(p) => p,
                        Err(e) => {
                            eprintln!("{name}: {e}");
                            return usage();
                        }
                    };
                    if let Err(e) = p.validate(&params) {
                        eprintln!("{name}: {e}");
                        return usage();
                    }
                    if let Err(e) = table.insert(p) {
                        eprintln!("{name}: {e}");
                        return usage();
                    }
                    p
                } else {
                    let (rows_s, channels) = match geom.split_once('/') {
                        Some((r, c)) => match c.parse::<usize>().ok().filter(|&n| n >= 1) {
                            Some(ch) => (r, ch),
                            None => {
                                eprintln!("{name}: `{c}` is not a channel count");
                                return usage();
                            }
                        },
                        None => (geom, 1),
                    };
                    let Some(rows) = rows_s.parse::<usize>().ok().filter(|&n| n >= 1) else {
                        eprintln!("{name}: `{rows_s}` is not a row count");
                        return usage();
                    };
                    match table.allocate(rows, channels) {
                        Some(p) => p,
                        None => {
                            eprintln!(
                                "{name}: no free band of {rows} rows / {channels} channels \
                                 ({} rows and {} channels left)",
                                table.free_rows(),
                                table.free_channels()
                            );
                            return usage();
                        }
                    }
                };
                placed.push((bench, band));
            }
            let quantum = flags.quantum.unwrap_or(2048);
            let mut ms = MultiSim::new(params.coalescing_units, quantum);
            let mut meta: Vec<(Bench, plasticine::compiler::CompileOutput)> = Vec::new();
            let admit = |ms: &mut MultiSim,
                         bench: &Bench,
                         band: Partition,
                         resume: Option<&Checkpoint>|
             -> Result<
                (TenantId, plasticine::compiler::CompileOutput),
                (String, ExitStatus),
            > {
                let copts = CompileOptions {
                    partition: Some(band),
                    ..CompileOptions::new()
                };
                let (out, prog, degraded) = compile_degraded(&bench.program, &params, &copts)
                    .map_err(|e| (format!("{}: {e}", bench.name), ExitStatus::Compile))?;
                for note in &degraded {
                    println!("  {}: degraded: {note}", bench.name);
                }
                let mut opts = SimOptions {
                    step: flags.step,
                    ..SimOptions::default()
                };
                if let Some(n) = flags.max_cycles {
                    opts.max_cycles = n;
                }
                // The tenant simulates against exactly its channel share —
                // the same override a solo `run --partition` applies, which
                // is what makes the two byte-identical.
                opts.dram.channels = band.channels;
                let mut m = Machine::new(&prog);
                bench.load(&mut m);
                let id = ms
                    .admit(&bench.name, &prog, &out, &mut m, &opts, resume)
                    .map_err(|e| (format!("{}: {e}", bench.name), ExitStatus::from(&e)))?;
                // Simulation is two-phase: the functional interpreter ran to
                // completion inside admit, so the output is checkable now,
                // before a single timing cycle.
                bench
                    .verify(&m)
                    .map_err(|e| (format!("{}: {e}", bench.name), ExitStatus::Runtime))?;
                Ok((id, out))
            };
            for (bench, band) in placed {
                match admit(&mut ms, &bench, band, None) {
                    Ok((id, out)) => {
                        println!("tenant {}: {} on {band}", id.0, bench.name);
                        meta.push((bench, out));
                    }
                    Err((msg, code)) => {
                        eprintln!("{msg}");
                        return code.into();
                    }
                }
            }
            if let Some(idx) = flags.evict {
                if idx >= meta.len() {
                    eprintln!("--evict {idx}: tenants are numbered 0..{}", meta.len());
                    return usage();
                }
                // Let every tenant make one round of progress so the
                // eviction checkpoint is mid-flight, then check the
                // resume round-trips.
                if let Err((tid, e)) = ms.round() {
                    eprintln!("{}: {e}", meta[tid.0].0.name);
                    return ExitStatus::from(&e).into();
                }
                match ms.evict(TenantId(idx)) {
                    Some(ckpt) => {
                        let band = meta[idx]
                            .1
                            .config
                            .partition
                            .expect("multi tenants have bands");
                        println!(
                            "tenant {idx}: {} evicted at cycle {} ({band} freed)",
                            meta[idx].0.name, ckpt.cycle
                        );
                        table.release(&band);
                        // Resume only on a band the checkpointed bitstream
                        // relocates onto (offset congruent modulo the grid
                        // mix's vertical period).
                        let new_band = table
                            .allocate_compatible(band.rows, band.channels, band.y0, params.mix)
                            .expect("the freed band itself is still compatible and fits");
                        let bench = meta[idx].0.clone();
                        match admit(&mut ms, &bench, new_band, Some(&ckpt)) {
                            Ok((id, out)) => {
                                println!(
                                    "tenant {}: {} resumed from cycle {} on {new_band}",
                                    id.0, bench.name, ckpt.cycle
                                );
                                meta.push((bench, out));
                            }
                            Err((msg, code)) => {
                                eprintln!("{msg}");
                                return code.into();
                            }
                        }
                    }
                    None => println!("tenant {idx}: finished before the eviction point"),
                }
            }
            if let Err((tid, e)) = ms.run() {
                eprintln!("{}: {e}", ms.tenants()[tid.0].name());
                return ExitStatus::from(&e).into();
            }
            for (i, t) in ms.tenants().iter().enumerate() {
                let (bench, out) = &meta[i];
                if t.is_evicted() {
                    println!(
                        "tenant {i}: {:<14} evicted at cycle {} (resumed above)",
                        t.name(),
                        t.now()
                    );
                    continue;
                }
                let r = t.result().expect("run() settles every live tenant");
                println!("tenant {i}: {}", summary_line(bench, &params, out, r));
                if let Some(p) = &flags.stats {
                    let path = per_bench_path(p, &bench.name);
                    if let Err(e) = std::fs::write(&path, stats_with_bench(bench, r).pretty()) {
                        eprintln!("writing {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                    println!("  stats written to {path}");
                }
            }
            ExitCode::SUCCESS
        }
        Some("compile") => {
            let Some(name) = args.get(1) else {
                return usage();
            };
            if name.starts_with("--") {
                eprintln!("`compile` requires a benchmark name before options");
                return usage();
            }
            let flags = match parse_flags(
                &args[2..],
                &["--scale", "--faults", "--bitstream", "--out", "--partition"],
            ) {
                Ok(f) => f,
                Err(e) => {
                    eprintln!("{e}");
                    return usage();
                }
            };
            if let Some(p) = &flags.partition {
                if let Err(e) = p.validate(&params) {
                    eprintln!("{e}");
                    return usage();
                }
            }
            let Some(bench) = by_name(name, Scale(flags.scale)) else {
                eprintln!("unknown benchmark `{name}`");
                return ExitCode::FAILURE;
            };
            let faults = fault_map(&flags.faults, &params);
            if flags.faults.is_some() {
                println!("fault map: {}", faults.summary());
            }
            let copts = CompileOptions {
                faults,
                partition: flags.partition,
                ..CompileOptions::new()
            };
            let (out, degraded) = match compile_degraded(&bench.program, &params, &copts) {
                Ok((o, _, degraded)) => {
                    for note in &degraded {
                        println!("  degraded: {note}");
                    }
                    (o, degraded)
                }
                Err(e) => {
                    eprintln!("{}: {e}", bench.name);
                    return ExitStatus::Compile.into();
                }
            };
            let cfg: &MachineConfig = &out.config;
            let (pcu, pmu, ag) = cfg.utilization();
            println!(
                "{}: {} PCUs, {} PMUs, {} AGs, {} links  util pcu/pmu/ag {:.0}%/{:.0}%/{:.0}%",
                bench.name,
                cfg.usage.pcus,
                cfg.usage.pmus,
                cfg.usage.ags,
                cfg.links.len(),
                100.0 * pcu,
                100.0 * pmu,
                100.0 * ag,
            );
            println!("pass timings:\n{}", out.timings.summary());
            if let Some(path) = &flags.bitstream {
                if let Err(e) = cfg.save(std::path::Path::new(path)) {
                    eprintln!("saving bitstream: {e}");
                    return ExitCode::FAILURE;
                }
                println!("bitstream written to {path}");
            }
            if let Some(path) = &flags.out {
                let artifact = Bitstream::new(&bench.program, out, degraded);
                if let Err(e) = artifact.save(std::path::Path::new(path)) {
                    eprintln!("saving artifact: {e}");
                    return ExitCode::FAILURE;
                }
                println!(
                    "artifact written to {path} (content hash {:016x})",
                    artifact.content_hash
                );
            }
            ExitCode::SUCCESS
        }
        Some("batch") => {
            let names: Vec<&String> = args[1..]
                .iter()
                .take_while(|a| !a.starts_with("--"))
                .collect();
            if names.is_empty() {
                eprintln!("`batch` requires benchmark names (or `all`) before options");
                return usage();
            }
            let flags = match parse_flags(
                &args[1 + names.len()..],
                &[
                    "--scale",
                    "--jobs",
                    "--stats-json",
                    "--faults",
                    "--step-mode",
                    "--max-cycles",
                    "--timeout",
                    "--retries",
                    "--journal",
                    "--fail-fast",
                    "--checkpoint-every",
                    "--checkpoint-dir",
                    "--checkpoint-keep",
                ],
            ) {
                Ok(f) => f,
                Err(e) => {
                    eprintln!("{e}");
                    return usage();
                }
            };
            if let Some(dir) = &flags.checkpoint_dir {
                if let Err(e) = ensure_checkpoint_dir(dir) {
                    eprintln!("{e}");
                    return ExitStatus::Usage.into();
                }
            }
            let scale = Scale(flags.scale);
            let mut benches = Vec::new();
            for name in names {
                if name == "all" {
                    benches.extend(all(scale));
                } else {
                    match by_name(name, scale) {
                        Some(b) => benches.push(b),
                        None => {
                            eprintln!("unknown benchmark `{name}` (try `plasticine-run list`)");
                            return ExitCode::FAILURE;
                        }
                    }
                }
            }
            let faults = fault_map(&flags.faults, &params);
            if flags.faults.is_some() {
                println!("fault map: {}", faults.summary());
            }
            let cfg = BatchConfig {
                jobs: jobs_or_cores(flags.jobs),
                faults,
                step: flags.step,
                stats: flags.stats.clone(),
                max_cycles: flags.max_cycles,
                timeout: flags.timeout.map(Duration::from_secs),
                retries: flags.retries,
                journal: flags.journal.clone(),
                fail_fast: flags.fail_fast,
                checkpoint_every: flags.checkpoint_every,
                checkpoint_dir: flags.checkpoint_dir.clone(),
                checkpoint_keep: flags.checkpoint_keep.unwrap_or(3),
            };
            run_batch(&benches, &params, &cfg)
        }
        Some("dse") => {
            if args.get(1).map(String::as_str) != Some("search") {
                eprintln!("`dse` requires the `search` subcommand");
                return usage();
            }
            let names: Vec<&String> = args[2..]
                .iter()
                .take_while(|a| !a.starts_with("--"))
                .collect();
            if names.is_empty() {
                eprintln!("`dse search` requires benchmark names (or `all`) before options");
                return usage();
            }
            let flags = match parse_flags(
                &args[2 + names.len()..],
                &[
                    "--scale",
                    "--jobs",
                    "--step-mode",
                    "--max-cycles",
                    "--journal",
                    "--out",
                    "--limit",
                    "--lanes",
                    "--stages",
                    "--mix",
                    "--mixes",
                    "--scratchpad-kb",
                    "--channels",
                ],
            ) {
                Ok(f) => f,
                Err(e) => {
                    eprintln!("{e}");
                    return usage();
                }
            };
            let scale = Scale(flags.scale);
            let mut benches = Vec::new();
            for name in names {
                if name == "all" {
                    benches.extend(all(scale));
                } else {
                    match by_name(name, scale) {
                        Some(b) => benches.push(b),
                        None => {
                            eprintln!("unknown benchmark `{name}` (try `plasticine-run list`)");
                            return ExitCode::FAILURE;
                        }
                    }
                }
            }
            let defaults = DseGrid::default();
            let grid = DseGrid {
                lanes: flags.lanes.unwrap_or(defaults.lanes),
                stages: flags.stages.unwrap_or(defaults.stages),
                mixes: flags.mixes.unwrap_or(defaults.mixes),
                scratchpad_kb: flags.scratchpad_kb.unwrap_or(defaults.scratchpad_kb),
                dram_channels: flags.channels.unwrap_or(defaults.dram_channels),
            };
            let cfg = plasticine::dse::SearchConfig {
                grid,
                scale,
                jobs: jobs_or_cores(flags.jobs),
                step: flags.step,
                max_cycles: flags.max_cycles.unwrap_or(SimOptions::default().max_cycles),
                limit: flags.limit,
                mixes: flags.workload_mixes.clone().unwrap_or_default(),
            };
            let mut journal = match Journal::load(flags.journal.as_deref()) {
                Ok(j) => j,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitStatus::Usage.into();
                }
            };
            let report = match plasticine::dse::search(&benches, &cfg, &mut journal) {
                Ok(r) => r,
                // Setup problems (empty grid axis, empty mix) are usage
                // errors, reported before any work starts.
                Err(e) => {
                    eprintln!("{e}");
                    return ExitStatus::Usage.into();
                }
            };
            print_dse_report(&report);
            if let Some(path) = &flags.out {
                let text = report.to_json(&benches, &cfg).pretty() + "\n";
                if let Err(e) = std::fs::write(path, text) {
                    eprintln!("writing {path}: {e}");
                    return ExitStatus::Runtime.into();
                }
            }
            // `code()` is always in 0..=6, so the cast is lossless.
            ExitCode::from(report.exit_code() as u8)
        }
        Some("chaos") => {
            let names: Vec<&String> = args[1..]
                .iter()
                .take_while(|a| !a.starts_with("--"))
                .collect();
            let flags = match parse_flags(
                &args[1 + names.len()..],
                &["--seeds", "--scale", "--step-mode", "--modes", "--out"],
            ) {
                Ok(f) => f,
                Err(e) => {
                    eprintln!("{e}");
                    return usage();
                }
            };
            let mut cfg = chaos::SoakConfig {
                scale: flags.scale,
                step: flags.step,
                ..chaos::SoakConfig::default()
            };
            if let Some(n) = flags.seeds {
                cfg.seeds = n;
            }
            if let Some(modes) = &flags.modes {
                cfg.modes = modes.clone();
            }
            let scale = Scale(flags.scale);
            if names.iter().any(|n| n.as_str() == "all") {
                cfg.benches = all(scale).into_iter().map(|b| b.name).collect();
            } else if !names.is_empty() {
                let mut benches = Vec::new();
                for name in &names {
                    match by_name(name, scale) {
                        // Store the canonical name so reports and rotation
                        // are case-independent of what the user typed.
                        Some(b) => benches.push(b.name),
                        None => {
                            eprintln!("unknown benchmark `{name}` (try `plasticine-run list`)");
                            return ExitCode::FAILURE;
                        }
                    }
                }
                cfg.benches = benches;
            }
            println!(
                "chaos soak: {} seeds over {} ({} mode(s))",
                cfg.seeds,
                cfg.benches.join(", "),
                cfg.modes.len(),
            );
            let report = chaos::soak(&params, &cfg);
            for it in &report.iterations {
                let detail = match &it.violation {
                    Some(v) => format!("  VIOLATION: {v}"),
                    None if it.heals > 0 => {
                        format!("  ({} heal(s), {} migration(s))", it.heals, it.migrations)
                    }
                    None => String::new(),
                };
                println!(
                    "  seed {:>3}  {:<6} {:<14} {}{detail}",
                    it.seed, it.mode, it.bench, it.status,
                );
            }
            println!(
                "{} iterations: {} healed, {} panics, {} violations -> {}",
                report.iterations.len(),
                report.healed(),
                report.panics(),
                report.violations(),
                if report.passed() { "PASS" } else { "FAIL" },
            );
            if let Some(path) = &flags.out {
                let text = report.to_json().pretty() + "\n";
                if let Err(e) = std::fs::write(path, text) {
                    eprintln!("writing {path}: {e}");
                    return ExitStatus::Runtime.into();
                }
                println!("report written to {path}");
            }
            if report.passed() {
                ExitCode::SUCCESS
            } else {
                ExitStatus::Runtime.into()
            }
        }
        Some("serve") => {
            let flags = match parse_flags(
                &args[1..],
                &[
                    "--workers",
                    "--queue-depth",
                    "--deadline-ms",
                    "--socket",
                    "--retries",
                    "--scale",
                    "--faults",
                    "--step-mode",
                    "--max-cycles",
                    "--checkpoint-every",
                    "--checkpoint-dir",
                    "--checkpoint-keep",
                ],
            ) {
                Ok(f) => f,
                Err(e) => {
                    eprintln!("{e}");
                    return usage();
                }
            };
            if let Some(dir) = &flags.checkpoint_dir {
                if let Err(e) = ensure_checkpoint_dir(dir) {
                    eprintln!("{e}");
                    return ExitStatus::Usage.into();
                }
            }
            let mut opts = ServeOptions::default();
            if flags.workers > 0 {
                opts.workers = flags.workers;
            }
            if flags.queue_depth > 0 {
                opts.queue_depth = flags.queue_depth;
            }
            if let Some(ms) = flags.deadline_ms {
                opts.deadline = Duration::from_millis(ms);
            }
            opts.retries = flags.retries;
            opts.socket = flags.socket.as_ref().map(PathBuf::from);
            opts.defaults = RequestDefaults {
                scale: flags.scale,
                step: flags.step,
                max_cycles: flags.max_cycles,
                faults: flags.faults.clone(),
                checkpoint_every: flags.checkpoint_every,
                checkpoint_dir: flags.checkpoint_dir.clone(),
                checkpoint_keep: flags.checkpoint_keep.unwrap_or(3),
            };
            match plasticine::service::serve(&params, opts) {
                Ok(_) => ExitCode::SUCCESS,
                // Startup failures only (unusable socket path): once the
                // daemon is serving, request failures are typed responses,
                // never daemon exits.
                Err(e) => {
                    eprintln!("{e}");
                    ExitStatus::Usage.into()
                }
            }
        }
        _ => usage(),
    }
}
