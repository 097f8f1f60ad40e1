//! Property-based tests for the area/power models and DSE.

use plasticine_arch::{
    DramAlloc, MachineConfig, PcuParams, PlasticineParams, PmuParams, ResourceUsage,
};
use plasticine_models::dse::{sweep, PcuParamKind, SweepSpec};
use plasticine_models::{AreaModel, PowerModel};
use plasticine_sim::{Activity, SimResult};
use proptest::prelude::*;

fn pcu_params() -> impl Strategy<Value = PcuParams> {
    (
        prop::sample::select(vec![4usize, 8, 16, 32]),
        1usize..=16,
        2usize..=16,
        1usize..=16,
        1usize..=6,
        1usize..=10,
        1usize..=6,
    )
        .prop_map(|(lanes, stages, regs, si, so, vi, vo)| PcuParams {
            lanes,
            stages,
            regs_per_stage: regs,
            scalar_ins: si,
            scalar_outs: so,
            vector_ins: vi,
            vector_outs: vo,
            fifo_depth: 16,
            counters: 4,
        })
}

fn cfg() -> MachineConfig {
    MachineConfig {
        params: PlasticineParams::paper_final(),
        program_name: "t".into(),
        units: vec![],
        links: vec![],
        alloc: DramAlloc::default(),
        usage: ResourceUsage::default(),
        partition: None,
    }
}

fn result(a: Activity, cycles: u64) -> SimResult {
    SimResult {
        cycles,
        activity: a,
        dram: plasticine_dram::DramStats::default(),
        coalesce: plasticine_dram::CoalesceStats::default(),
        units: plasticine_sim::UnitStats::default(),
        faults: plasticine_sim::FaultStats::default(),
    }
}

proptest! {
    #[test]
    fn pcu_area_is_positive_and_monotone_in_stages(p in pcu_params()) {
        let m = AreaModel::new();
        let a = m.pcu(&p).total();
        prop_assert!(a > 0.0);
        let mut bigger = p;
        bigger.stages += 1;
        prop_assert!(m.pcu(&bigger).total() > a);
    }

    #[test]
    fn pcu_area_is_monotone_in_every_field(p in pcu_params()) {
        let m = AreaModel::new();
        let base = m.pcu(&p).total();
        for bump in 0..5 {
            let mut b = p;
            match bump {
                0 => b.regs_per_stage += 1,
                1 => b.scalar_ins += 1,
                2 => b.vector_ins += 1,
                3 => b.lanes *= 2,
                _ => b.fifo_depth += 8,
            }
            prop_assert!(m.pcu(&b).total() >= base, "bump {bump}");
        }
    }

    #[test]
    fn pmu_area_dominated_by_sram(bank_kb in 4usize..=64, banks in prop::sample::select(vec![4usize, 8, 16, 32])) {
        let m = AreaModel::new();
        let p = PmuParams { bank_kb, banks, ..PmuParams::paper_final() };
        let a = m.pmu(&p);
        prop_assert!(a.total() > 0.0);
        if bank_kb * banks >= 64 {
            prop_assert!(a.scratchpad / a.total() > 0.5);
        }
    }

    #[test]
    fn chip_area_scales_with_grid(cols in 4usize..24, rows in 2usize..12) {
        let m = AreaModel::new();
        let mut p = PlasticineParams::paper_final();
        p.cols = cols;
        p.rows = rows;
        let a = m.chip(&p);
        let mut p2 = p.clone();
        p2.cols += 2;
        let a2 = m.chip(&p2);
        prop_assert!(a2.total > a.total);
        prop_assert!((a.pcus_total - a.pcu.total() * p.num_pcus() as f64).abs() < 1e-9);
    }

    #[test]
    fn power_is_monotone_in_activity(fu in 0u64..10_000_000, sram in 0u64..10_000_000,
                                     cycles in 1_000u64..1_000_000) {
        let m = PowerModel::new();
        let c = cfg();
        let a = Activity {
            fu_ops: fu,
            sram_reads: sram,
            ..Default::default()
        };
        let p1 = m.estimate(&result(a, cycles), &c);
        let mut a2 = a;
        a2.fu_ops += 1_000;
        let p2 = m.estimate(&result(a2, cycles), &c);
        prop_assert!(p2.total_w >= p1.total_w);
        prop_assert!(p1.total_w >= p1.static_w);
        // Energy consistency: total power × time = energy.
        let seconds = cycles as f64 / 1e9;
        prop_assert!((p1.energy_mj - p1.total_w * seconds * 1e3).abs() < 1e-9);
    }

    #[test]
    fn power_stays_below_peak_for_sane_activity(cycles in 10_000u64..1_000_000) {
        let m = PowerModel::new();
        let c = cfg();
        // Full-throttle activity: every FU slot busy every cycle.
        let p = &c.params;
        let fus = (p.num_pcus() * p.pcu.lanes * p.pcu.stages) as u64;
        let a = Activity {
            fu_ops: fus * cycles,
            sram_reads: (p.num_pmus() * p.pmu.banks) as u64 * cycles,
            reg_traffic: fus * cycles,
            ..Default::default()
        };
        let est = m.estimate(&result(a, cycles), &c);
        let peak = m.peak_power(&c);
        prop_assert!(est.total_w <= peak * 1.35, "est {} peak {}", est.total_w, peak);
    }
}

#[test]
fn sweep_overheads_are_normalized() {
    // A small synthetic app: 10-op chain.
    use plasticine_compiler::{VOp, VSrc, VirtualDesign, VirtualPcu};
    use plasticine_ppir::CtrlId;
    let ops = (0..10)
        .map(|i| VOp {
            srcs: if i == 0 {
                vec![VSrc::VecIn(0)]
            } else {
                vec![VSrc::Op(i - 1)]
            },
            heavy: false,
        })
        .collect::<Vec<_>>();
    let design = VirtualDesign {
        pcus: vec![VirtualPcu {
            name: "p".into(),
            ctrl: CtrlId(0),
            outputs: vec![VSrc::Op(9)],
            ops,
            vec_ins: 1,
            scal_ins: 0,
            vec_outs: 1,
            scal_outs: 0,
            reduction_lanes: 0,
            lanes: 16,
            copies: 1,
        }],
        pmus: vec![],
        ags: vec![],
        outers: vec![],
    };
    let spec = SweepSpec {
        target: PcuParamKind::Stages,
        values: (4..=16).collect(),
        fixed: vec![],
    };
    let rows = sweep(&[("x".into(), design)], &spec, &AreaModel::new());
    let overheads: Vec<f64> = rows[0].points.iter().filter_map(|p| p.overhead).collect();
    assert!(!overheads.is_empty());
    let min = overheads.iter().copied().fold(f64::INFINITY, f64::min);
    assert!(min.abs() < 1e-12, "minimum must normalize to zero");
    assert!(overheads.iter().all(|&o| o >= -1e-12));
}
