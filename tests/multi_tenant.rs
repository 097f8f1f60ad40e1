//! The multi-tenant headline invariant, end to end: a tenant co-located
//! with others on a partitioned chip produces stats byte-identical to
//! running alone on a dedicated fabric of its partition's geometry, in
//! both step modes — and a preempted tenant (checkpoint, evict, resume)
//! finishes with the same bytes as an uninterrupted one, even when resumed
//! at a different band offset.

use plasticine::arch::{Partition, PlasticineParams};
use plasticine::compiler::{compile_degraded, CompileOptions, CompileOutput};
use plasticine::ppir::{Machine, Program};
use plasticine::sim::{simulate, MultiSim, SimOptions, StepMode, TenantId};
use plasticine::workloads::{all, Bench, Scale};

fn params() -> PlasticineParams {
    PlasticineParams::paper_final()
}

fn opts(step: StepMode, channels: usize) -> SimOptions {
    let mut o = SimOptions {
        step,
        ..SimOptions::default()
    };
    // A partitioned tenant simulates against exactly its channel share.
    o.dram.channels = channels;
    o
}

fn compile_on(bench: &Bench, band: Partition) -> (CompileOutput, Program) {
    let copts = CompileOptions {
        partition: Some(band),
        ..CompileOptions::new()
    };
    let (out, prog, _degraded) =
        compile_degraded(&bench.program, &params(), &copts).expect("bench compiles on its band");
    (out, prog)
}

/// The reference: the bench alone on a dedicated fabric of the band's
/// geometry.
fn solo_stats(bench: &Bench, band: Partition, step: StepMode) -> String {
    let (out, prog) = compile_on(bench, band);
    let mut m = Machine::new(&prog);
    bench.load(&mut m);
    let o = opts(step, band.channels);
    let r = simulate(&prog, &out, &mut m, &o).expect("solo run succeeds");
    bench.verify(&m).expect("solo run verifies");
    r.stats_json().pretty()
}

/// Co-locates `group` on disjoint 2-row bands (1 channel each), runs to
/// completion, and checks every tenant's stats against its solo
/// reference, byte for byte.
fn isolation(step: StepMode) {
    let p = params();
    let benches = all(Scale(1));
    for group in benches.chunks(4) {
        let mut ms = MultiSim::new(p.coalescing_units, 1024);
        let mut bands = Vec::new();
        for (i, bench) in group.iter().enumerate() {
            let band = Partition::new(2 * i, 2, 1);
            let (out, prog) = compile_on(bench, band);
            let mut m = Machine::new(&prog);
            bench.load(&mut m);
            let o = opts(step, band.channels);
            ms.admit(&bench.name, &prog, &out, &mut m, &o, None)
                .expect("tenant admits");
            // Two-phase simulation: the functional result exists already.
            bench.verify(&m).expect("tenant verifies");
            bands.push(band);
        }
        ms.run().expect("co-located group completes");
        for (i, t) in ms.tenants().iter().enumerate() {
            let multi = t.result().expect("tenant done").stats_json().pretty();
            let solo = solo_stats(&group[i], bands[i], step);
            assert_eq!(
                multi, solo,
                "{} co-located on {} must match its solo run ({step:?})",
                group[i].name, bands[i]
            );
        }
    }
}

#[test]
fn colocated_stats_match_solo_event_mode_1_thread() {
    isolation(StepMode::Event);
}

#[test]
fn colocated_stats_match_solo_cycle_mode_1_thread() {
    isolation(StepMode::Cycle);
}

/// Runs GEMM+BFS co-located; optionally preempts BFS after one round and
/// resumes it from the checkpoint on `resume_band`. Returns the final
/// (GEMM, BFS) stats.
fn gemm_bfs(preempt: Option<Partition>) -> (String, String) {
    let p = params();
    let benches = all(Scale(1));
    let gemm = benches.iter().find(|b| b.name == "GEMM").unwrap();
    let bfs = benches.iter().find(|b| b.name == "BFS").unwrap();
    let gemm_band = Partition::new(0, 3, 1);
    let bfs_band = Partition::new(3, 3, 1);

    let mut ms = MultiSim::new(p.coalescing_units, 1024);
    for (bench, band) in [(gemm, gemm_band), (bfs, bfs_band)] {
        let (out, prog) = compile_on(bench, band);
        let mut m = Machine::new(&prog);
        bench.load(&mut m);
        ms.admit(
            &bench.name,
            &prog,
            &out,
            &mut m,
            &opts(StepMode::Event, band.channels),
            None,
        )
        .expect("tenant admits");
    }
    let mut bfs_slot = 1;
    if let Some(resume_band) = preempt {
        ms.round().expect("first round completes");
        let ckpt = ms.evict(TenantId(1)).expect("BFS is live and evictable");
        assert!(ckpt.cycle > 0, "eviction lands after simulated progress");
        // The checkpoint's config hash is offset-normalized, so a
        // bitstream for any pattern-equivalent band (same height, offset
        // of the same checkerboard parity) accepts it.
        let (out, prog) = compile_on(bfs, resume_band);
        let mut m = Machine::new(&prog);
        bfs.load(&mut m);
        let id = ms
            .admit(
                &bfs.name,
                &prog,
                &out,
                &mut m,
                &opts(StepMode::Event, resume_band.channels),
                Some(&ckpt),
            )
            .expect("evicted tenant resumes");
        bfs_slot = id.0;
    }
    ms.run().expect("all tenants complete");
    let stats = |i: usize| {
        ms.tenants()[i]
            .result()
            .expect("tenant done")
            .stats_json()
            .pretty()
    };
    (stats(0), stats(bfs_slot))
}

#[test]
fn preemption_round_trips_byte_identical_stats() {
    let (gemm_ref, bfs_ref) = gemm_bfs(None);

    // Evict + resume on the same band: both tenants' final stats must be
    // byte-identical to the uninterrupted run.
    let (gemm_same, bfs_same) = gemm_bfs(Some(Partition::new(3, 3, 1)));
    assert_eq!(gemm_same, gemm_ref, "non-preempted tenant is untouched");
    assert_eq!(bfs_same, bfs_ref, "preempted tenant round-trips exactly");

    // Relocated resume: the freed band's geometry at a different offset.
    // Aggregate stats are translation-invariant, so the bytes still
    // match.
    let (gemm_moved, bfs_moved) = gemm_bfs(Some(Partition::new(5, 3, 1)));
    assert_eq!(gemm_moved, gemm_ref);
    assert_eq!(bfs_moved, bfs_ref, "relocated resume round-trips exactly");
}
