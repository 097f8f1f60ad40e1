//! # plasticine-workloads — the Table 4 benchmark suite
//!
//! The thirteen applications the paper evaluates (§4.1), written as
//! parallel-pattern programs against [`plasticine_ppir`], each bundled with
//! a deterministic input generator, a host-computed golden result, and an
//! [`AppProfile`] characterization for the FPGA baseline model.
//!
//! Sizes follow Table 4's structure (sparsity E\[NNZ\] = 60 for SMDV,
//! E\[edges\] = 8 for BFS, dimension ratios for the ML kernels) but are
//! scaled down by default so cycle-accurate simulation stays tractable;
//! pass a larger [`Scale`] to approach the paper's sizes.
//!
//! # Examples
//!
//! ```
//! use plasticine_workloads::{dense, Scale};
//! use plasticine_ppir::Machine;
//!
//! let bench = dense::inner_product(Scale::tiny());
//! let mut m = Machine::new(&bench.program);
//! bench.load(&mut m);
//! m.run().unwrap();
//! bench.verify(&m).unwrap();
//! ```

#![warn(missing_docs)]

pub mod cnn;
pub mod dense;
pub mod gemm;
pub mod ml;
pub mod sparse;
pub mod util;

use plasticine_fpga::AppProfile;
use plasticine_ppir::{DramId, Elem, Machine, Program, RegId};

/// Problem-size multiplier. `tiny` keeps unit tests fast; `small` is the
/// default for the reported experiments; larger scales approach Table 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale(pub usize);

impl Scale {
    /// Smallest size that still exercises every code path.
    pub fn tiny() -> Scale {
        Scale(1)
    }

    /// Default experiment size.
    pub fn small() -> Scale {
        Scale(4)
    }

    /// Larger runs for the benchmark harness.
    pub fn large() -> Scale {
        Scale(16)
    }
}

/// A benchmark: program + inputs + golden outputs + FPGA characterization.
#[derive(Debug, Clone)]
pub struct Bench {
    /// Display name (Table 4 spelling).
    pub name: String,
    /// The validated pattern program.
    pub program: Program,
    /// Input data per DRAM buffer.
    pub inputs: Vec<(DramId, Vec<Elem>)>,
    /// Expected DRAM contents after execution.
    pub expect_drams: Vec<(DramId, Vec<Elem>)>,
    /// Expected register values after execution.
    pub expect_regs: Vec<(RegId, Elem)>,
    /// Workload characterization for the FPGA baseline.
    pub fpga: AppProfile,
}

/// Relative tolerance for floating-point comparisons. The interpreter and
/// host goldens evaluate in the same order with the same `f32` ops, so the
/// tolerance only absorbs genuinely benign differences.
const REL_TOL: f32 = 1e-4;

fn close(a: f32, b: f32) -> bool {
    if a == b {
        return true;
    }
    let denom = a.abs().max(b.abs()).max(1.0);
    (a - b).abs() / denom < REL_TOL
}

impl Bench {
    /// Loads the input data into a machine.
    pub fn load(&self, m: &mut Machine) {
        for (id, data) in &self.inputs {
            m.write_dram(*id, data);
        }
    }

    /// Verifies a finished machine against the goldens.
    ///
    /// # Errors
    ///
    /// Returns a description of the first mismatch.
    pub fn verify(&self, m: &Machine) -> Result<(), String> {
        for (id, want) in &self.expect_drams {
            let got = m.dram_data(*id);
            if got.len() < want.len() {
                return Err(format!("{}: buffer {:?} too short", self.name, id));
            }
            for (i, (g, w)) in got.iter().zip(want).enumerate() {
                let ok = match (g, w) {
                    (Elem::I32(a), Elem::I32(b)) => a == b,
                    (Elem::F32(a), Elem::F32(b)) => close(*a, *b),
                    _ => false,
                };
                if !ok {
                    return Err(format!(
                        "{}: dram {:?}[{}]: got {g}, want {w}",
                        self.name, id, i
                    ));
                }
            }
        }
        for (id, want) in &self.expect_regs {
            let got = m.reg(*id);
            let ok = match (got, want) {
                (Elem::I32(a), Elem::I32(b)) => a == *b,
                (Elem::F32(a), Elem::F32(b)) => close(a, *b),
                _ => false,
            };
            if !ok {
                return Err(format!(
                    "{}: reg {:?}: got {got}, want {want}",
                    self.name, id
                ));
            }
        }
        Ok(())
    }

    /// Runs the program on the host interpreter and verifies it (the
    /// functional smoke test every benchmark must pass).
    ///
    /// # Errors
    ///
    /// Returns interpreter failures or golden mismatches.
    pub fn run_and_verify(&self) -> Result<Machine<'_>, String> {
        let mut m = Machine::new(&self.program);
        self.load(&mut m);
        m.run().map_err(|e| format!("{}: {e}", self.name))?;
        self.verify(&m)?;
        Ok(m)
    }
}

/// Builds a benchmark at a scale.
type Builder = fn(Scale) -> Bench;

/// The thirteen benchmarks of Table 4, by name, in table order.
const REGISTRY: [(&str, Builder); 13] = [
    ("InnerProduct", dense::inner_product),
    ("OuterProduct", dense::outer_product),
    ("BlackScholes", dense::black_scholes),
    ("TPCHQ6", dense::tpchq6),
    ("GEMM", gemm::gemm),
    ("GDA", ml::gda),
    ("LogReg", ml::logreg),
    ("SGD", ml::sgd),
    ("Kmeans", ml::kmeans),
    ("CNN", cnn::cnn),
    ("SMDV", sparse::smdv),
    ("PageRank", sparse::pagerank),
    ("BFS", sparse::bfs),
];

/// All thirteen benchmarks of Table 4 at one scale.
pub fn all(scale: Scale) -> Vec<Bench> {
    REGISTRY.iter().map(|(_, build)| build(scale)).collect()
}

/// The benchmark named `name` (Table 4 spelling, any case) at `scale`, or
/// `None` for an unknown name. Only that benchmark is built.
pub fn by_name(name: &str, scale: Scale) -> Option<Bench> {
    REGISTRY
        .iter()
        .find(|(n, _)| n.eq_ignore_ascii_case(name))
        .map(|(_, build)| build(scale))
}

/// The dense subset (used by experiments that exclude sparse apps).
pub fn dense_suite(scale: Scale) -> Vec<Bench> {
    vec![
        dense::inner_product(scale),
        dense::outer_product(scale),
        dense::black_scholes(scale),
        dense::tpchq6(scale),
        gemm::gemm(scale),
        ml::gda(scale),
        ml::logreg(scale),
        ml::sgd(scale),
        ml::kmeans(scale),
        cnn::cnn(scale),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_the_benches_names() {
        for (bench, (name, _)) in all(Scale::tiny()).iter().zip(REGISTRY) {
            assert_eq!(bench.name, name);
        }
    }

    #[test]
    fn by_name_ignores_case_and_builds_the_same_bench() {
        let b = by_name("gemm", Scale::tiny()).expect("GEMM is registered");
        let want = gemm::gemm(Scale::tiny());
        assert_eq!(b.name, "GEMM");
        assert_eq!(b.program, want.program);
        assert_eq!(b.inputs, want.inputs);
        assert!(by_name("no-such-bench", Scale::tiny()).is_none());
    }
}
