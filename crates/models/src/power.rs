//! Activity-based power model (28 nm, 1 GHz).
//!
//! The paper profiles unit power with Synopsys PrimeTime on RTL traces and
//! reports "static power for the entire chip and dynamic power for utilized
//! units" (§4.2). We reproduce the methodology with an event-energy model:
//! the simulator's activity counters (ALU ops, scratchpad words, network
//! word-hops, DRAM lines, control events) are priced with representative
//! 28 nm event energies, calibrated against two published anchors — the
//! 49 W maximum chip power at full utilization and the 10.7–42.6 W range
//! of Table 7.

use crate::area::AreaModel;
use plasticine_arch::MachineConfig;
use plasticine_sim::SimResult;

/// Event energies in picojoules.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyConstants {
    /// One 32-bit FU operation (FP add/mul class).
    pub fu_op_pj: f64,
    /// Extra energy of an iterative (transcendental) op.
    pub heavy_extra_pj: f64,
    /// One 32-bit scratchpad word read or written.
    pub sram_word_pj: f64,
    /// One 32-bit pipeline-register traversal.
    pub reg_pj: f64,
    /// One 32-bit word moved one switch hop.
    pub net_word_hop_pj: f64,
    /// One control-network event.
    pub ctrl_pj: f64,
    /// Memory-controller energy per 64-byte line (excluding DRAM devices,
    /// which are off-chip).
    pub dram_line_pj: f64,
    /// Leakage power density over the whole chip, W/mm².
    pub leakage_w_per_mm2: f64,
}

impl Default for EnergyConstants {
    fn default() -> EnergyConstants {
        EnergyConstants {
            fu_op_pj: 3.4,
            heavy_extra_pj: 22.0,
            sram_word_pj: 6.0,
            reg_pj: 0.35,
            net_word_hop_pj: 1.8,
            ctrl_pj: 1.0,
            dram_line_pj: 600.0,
            leakage_w_per_mm2: 0.085,
        }
    }
}

/// Power estimate for one run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PowerEstimate {
    /// Dynamic power of utilized units, W.
    pub dynamic_w: f64,
    /// Whole-chip static power, W.
    pub static_w: f64,
    /// Total, W.
    pub total_w: f64,
    /// Total energy, mJ.
    pub energy_mj: f64,
}

/// The power model.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PowerModel {
    /// Event energies.
    pub k: EnergyConstants,
    /// Area model supplying the leakage base.
    pub area: AreaModel,
}

impl PowerModel {
    /// Model with default constants.
    pub fn new() -> PowerModel {
        PowerModel::default()
    }

    /// Prices a simulation result on a configuration.
    pub fn estimate(&self, r: &SimResult, cfg: &MachineConfig) -> PowerEstimate {
        let a = &r.activity;
        let k = &self.k;
        let energy_pj = a.fu_ops as f64 * k.fu_op_pj
            + a.heavy_ops as f64 * k.heavy_extra_pj
            + (a.sram_reads + a.sram_writes) as f64 * k.sram_word_pj
            + a.reg_traffic as f64 * k.reg_pj
            + a.net_word_hops as f64 * k.net_word_hop_pj
            + a.ctrl_msgs as f64 * k.ctrl_pj
            + (r.dram.reads + r.dram.writes) as f64 * k.dram_line_pj;
        let seconds = r.cycles as f64 / (cfg.params.clock_ghz * 1e9);
        let dynamic_w = if seconds > 0.0 {
            energy_pj * 1e-12 / seconds
        } else {
            0.0
        };
        let chip = self.area.chip(&cfg.params);
        let static_w = k.leakage_w_per_mm2 * chip.total;
        let total_w = dynamic_w + static_w;
        PowerEstimate {
            dynamic_w,
            static_w,
            total_w,
            energy_mj: total_w * seconds * 1e3,
        }
    }

    /// The chip's maximum power: every FU, register, scratchpad port, and
    /// network link active every cycle (the paper's "maximum power of 49 W
    /// at a 1 GHz clock").
    pub fn peak_power(&self, cfg: &MachineConfig) -> f64 {
        let p = &cfg.params;
        let k = &self.k;
        let fus = (p.num_pcus() * p.pcu.lanes * p.pcu.stages) as f64;
        let pmu_words = (p.num_pmus() * p.pmu.banks) as f64; // words/cycle
        let net_words = (((p.cols + 1) * (p.rows + 1)) as f64) * p.pcu.lanes as f64;
        // One register traversal per FU per cycle; not every register
        // toggles every cycle even at peak.
        let regs = fus;
        // Events per cycle × pJ = pJ/cycle; at 1 cycle/ns that is mW.
        let pj_per_cycle = fus * k.fu_op_pj
            + pmu_words * 2.0 * k.sram_word_pj
            + regs * k.reg_pj
            + net_words * k.net_word_hop_pj
            + 0.8 * k.dram_line_pj; // 4 channels × 0.2 lines/cycle
        let dynamic = pj_per_cycle * p.clock_ghz * 1e-3;
        dynamic + k.leakage_w_per_mm2 * self.area.chip(p).total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plasticine_arch::{DramAlloc, PlasticineParams, ResourceUsage};
    use plasticine_sim::Activity;

    fn empty_cfg() -> MachineConfig {
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

    fn result(activity: Activity, cycles: u64) -> SimResult {
        SimResult {
            cycles,
            activity,
            dram: plasticine_dram::DramStats::default(),
            coalesce: plasticine_dram::CoalesceStats::default(),
            units: plasticine_sim::UnitStats::default(),
            faults: plasticine_sim::FaultStats::default(),
        }
    }

    #[test]
    fn idle_chip_draws_static_power_only() {
        let m = PowerModel::new();
        let e = m.estimate(&result(Activity::default(), 1000), &empty_cfg());
        assert!(e.dynamic_w < 1e-9);
        // Static power is the Table 7 floor (~10 W for SGD at 10.7 W).
        assert!(
            e.static_w > 8.0 && e.static_w < 11.0,
            "static {}",
            e.static_w
        );
    }

    #[test]
    fn peak_power_matches_paper_49w() {
        let m = PowerModel::new();
        let peak = m.peak_power(&empty_cfg());
        assert!((peak - 49.0).abs() < 6.0, "peak {peak}");
    }

    #[test]
    fn busier_runs_draw_more_power() {
        let m = PowerModel::new();
        let light = Activity {
            fu_ops: 1_000,
            ..Default::default()
        };
        let mut heavy = light;
        heavy.fu_ops = 1_000_000;
        let cfg = empty_cfg();
        let pl = m.estimate(&result(light, 10_000), &cfg);
        let ph = m.estimate(&result(heavy, 10_000), &cfg);
        assert!(ph.total_w > pl.total_w);
        assert!(ph.energy_mj > pl.energy_mj);
    }

    #[test]
    fn energy_scales_with_time_at_fixed_power() {
        let m = PowerModel::new();
        let cfg = empty_cfg();
        let e1 = m.estimate(&result(Activity::default(), 1000), &cfg);
        let e2 = m.estimate(&result(Activity::default(), 2000), &cfg);
        assert!((e2.energy_mj / e1.energy_mj - 2.0).abs() < 1e-9);
    }
}
