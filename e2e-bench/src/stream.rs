//! The `serve_mix` request stream.
//!
//! The mix is chosen, not measured: nothing in the repository sends serve
//! traffic outside its tests, so there is no observed mix to copy. It is
//! chosen to cover every bench at a small and a large scale, and to make
//! some requests miss the compile cache. Changing it changes what
//! `serve_mix` measures.
//!
//! The stream is a sequence of blocks of [`BLOCK`] requests. Every block
//! holds the same multiset, shuffled by the seed, so two seeds differ in
//! request order and fault seeds but not in the work they ask for, which
//! keeps run-to-run spread low:
//!
//! * 26 `run`s: each of the 13 benches at scale 4 and at scale 16, except
//!   that GEMM runs at scale 4 in both slots (at scale 16 one GEMM run
//!   takes ~8 s and would swamp the mix);
//! * 6 `compile`s (~20%), 3 at each scale, of seed-chosen benches, each
//!   with a fresh fault spec so it always misses the compile cache.

use crate::ops::BENCHES;
use plasticine::json::Json;
use plasticine::workloads::util::hash_u64;

/// Requests per block.
pub const BLOCK: usize = 32;

/// The scales served requests use.
pub const SCALES: [usize; 2] = [4, 16];

/// What one request asks the daemon to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReqOp {
    /// Simulate and verify; the reply carries the stats.
    Run,
    /// Compile, around a fault map sampled from `pcu=4,pmu=4,links=4`
    /// and this seed when there is one.
    Compile {
        /// Seed of the fault spec; `None` compiles for a pristine fabric.
        fault_seed: Option<u64>,
    },
}

/// One request of the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Position in the stream; sent as the request `id`.
    pub index: u64,
    /// Bench name.
    pub bench: &'static str,
    /// Problem scale.
    pub scale: usize,
    /// Operation.
    pub op: ReqOp,
}

impl Request {
    /// The request as one protocol line (without the newline).
    pub fn line(&self) -> String {
        let mut pairs = vec![
            ("id", Json::from(self.index)),
            (
                "op",
                Json::from(match self.op {
                    ReqOp::Run => "run",
                    ReqOp::Compile { .. } => "compile",
                }),
            ),
            ("bench", Json::from(self.bench)),
            ("scale", Json::from(self.scale)),
        ];
        if let ReqOp::Compile {
            fault_seed: Some(seed),
        } = self.op
        {
            pairs.push(("faults", Json::from(fault_spec(seed))));
        }
        Json::obj(pairs).compact()
    }
}

/// The fault spec a `compile` request with fault seed `seed` carries.
pub fn fault_spec(seed: u64) -> String {
    format!("pcu=4,pmu=4,links=4,seed={seed}")
}

/// Block `b` of the stream for `seed`.
pub fn block(seed: u64, b: u64) -> Vec<Request> {
    // Distinct salts per use keep the draws independent.
    let draw = |salt: u64, j: u64| hash_u64(b * 1_000 + salt * 100 + j, seed);
    let mut reqs = Vec::with_capacity(BLOCK);
    for name in BENCHES {
        for scale in SCALES {
            let scale = if name == "GEMM" { 4 } else { scale };
            reqs.push((name, scale, ReqOp::Run));
        }
    }
    for j in 0..6u64 {
        let name = BENCHES[(draw(1, j) % BENCHES.len() as u64) as usize];
        let scale = SCALES[(j % 2) as usize];
        let op = ReqOp::Compile {
            fault_seed: Some(draw(2, j)),
        };
        reqs.push((name, scale, op));
    }
    // Fisher-Yates.
    for i in (1..reqs.len()).rev() {
        let k = (draw(3, i as u64) % (i as u64 + 1)) as usize;
        reqs.swap(i, k);
    }
    reqs.into_iter()
        .enumerate()
        .map(|(i, (bench, scale, op))| Request {
            index: b * BLOCK as u64 + i as u64,
            bench,
            scale,
            op,
        })
        .collect()
}

/// The first `n` requests of the stream for `seed`.
pub fn stream(seed: u64, n: usize) -> Vec<Request> {
    (0u64..).flat_map(|b| block(seed, b)).take(n).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn stream_is_deterministic_per_seed() {
        assert_eq!(stream(1, 400), stream(1, 400));
        assert_ne!(stream(1, 400), stream(2, 400));
        let ids: Vec<u64> = stream(3, 100).iter().map(|r| r.index).collect();
        assert_eq!(ids, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn four_hundred_requests_cover_benches_scales_and_ops() {
        let s = stream(1, 400);
        let benches: BTreeSet<_> = s.iter().map(|r| r.bench).collect();
        assert_eq!(benches.len(), 13);
        let scales: BTreeSet<_> = s.iter().map(|r| r.scale).collect();
        assert_eq!(scales, BTreeSet::from(SCALES));
        let compiles = s
            .iter()
            .filter(|r| matches!(r.op, ReqOp::Compile { .. }))
            .count();
        assert!(compiles > 0 && compiles < 400);
        assert!(s
            .iter()
            .all(|r| r.op != ReqOp::Run || r.bench != "GEMM" || r.scale == 4));
    }

    #[test]
    fn blocks_share_one_multiset() {
        let key = |r: &Request| (r.bench, r.scale, matches!(r.op, ReqOp::Run));
        let runs = |seed| {
            let mut v: Vec<_> = block(seed, 0)
                .iter()
                .filter(|r| r.op == ReqOp::Run)
                .map(key)
                .collect();
            v.sort();
            v
        };
        assert_eq!(runs(1), runs(99));
        assert_eq!(block(5, 2).len(), BLOCK);
        let line = block(5, 0)
            .into_iter()
            .find(|r| r.op != ReqOp::Run)
            .expect("a compile per block")
            .line();
        assert!(
            line.contains("\"faults\":\"pcu=4,pmu=4,links=4,seed="),
            "{line}"
        );
    }
}
