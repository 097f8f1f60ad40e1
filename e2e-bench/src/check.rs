//! Output checking: pinned stats digests and the failed-operation tally.
//!
//! `expected/e2e_digests.json` pins, for every (bench, scale, DRAM config)
//! any workload runs, the FNV-1a hash of the pretty-printed
//! `stats_with_bench` object and the run's cycle count. An operation
//! whose stats hash differs, whose output fails verification, or whose
//! served reply is not `ok` counts as failed.

use plasticine::json::hash::fnv1a_str;
use plasticine::json::Json;
use std::collections::BTreeMap;

/// The committed digests, compiled in so a run reads no file for them.
pub const COMMITTED: &str = include_str!("../expected/e2e_digests.json");

/// Where `--bless` writes the digests.
pub const PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/expected/e2e_digests.json");

/// What a correct run of one key produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pinned {
    /// `fnv1a_str` of the pretty-printed stats.
    pub digest: u64,
    /// Simulated cycles.
    pub cycles: u64,
}

/// Pinned results by key (`BENCH@SCALE/dram`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Expected(pub BTreeMap<String, Pinned>);

impl Expected {
    /// Parses the digest file.
    ///
    /// # Errors
    ///
    /// Describes the first malformed entry.
    pub fn parse(text: &str) -> Result<Expected, String> {
        let j = Json::parse(text).map_err(|e| e.to_string())?;
        let mut map = BTreeMap::new();
        for (key, v) in j.as_obj().ok_or("digest file must be an object")? {
            let digest = v.get("digest").and_then(Json::as_hex);
            let cycles = v.get("cycles").and_then(Json::as_u64);
            let (Some(digest), Some(cycles)) = (digest, cycles) else {
                return Err(format!("{key}: needs a hex `digest` and integer `cycles`"));
            };
            map.insert(key.clone(), Pinned { digest, cycles });
        }
        Ok(Expected(map))
    }

    /// The committed digests.
    ///
    /// # Panics
    ///
    /// If the committed file is malformed.
    pub fn committed() -> Expected {
        Expected::parse(COMMITTED).expect("expected/e2e_digests.json is well-formed")
    }

    /// The file text for these digests.
    pub fn to_text(&self) -> String {
        Json::obj(self.0.iter().map(|(k, p)| {
            (
                k.clone(),
                Json::obj([
                    ("digest", Json::hex(p.digest)),
                    ("cycles", Json::from(p.cycles)),
                ]),
            )
        }))
        .pretty()
    }

    /// The pinned result for `key`.
    ///
    /// # Errors
    ///
    /// When `key` is not pinned.
    pub fn get(&self, key: &str) -> Result<Pinned, String> {
        self.0
            .get(key)
            .copied()
            .ok_or_else(|| format!("{key}: no pinned digest (run with --bless)"))
    }

    /// Checks pretty-printed stats against the digest pinned for `key`.
    ///
    /// # Errors
    ///
    /// On a missing key or a digest mismatch.
    pub fn check(&self, key: &str, stats_pretty: &str) -> Result<(), String> {
        let want = self.get(key)?.digest;
        let got = fnv1a_str(stats_pretty);
        if got == want {
            Ok(())
        } else {
            Err(format!(
                "{key}: stats digest {got:016x}, pinned {want:016x}"
            ))
        }
    }
}

/// Attempted and failed operations of a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed any check.
    pub failed: u64,
    /// The first failure, for the error report.
    pub first_error: Option<String>,
}

impl Tally {
    /// Counts one operation with its outcome.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            eprintln!("FAILED: {e}");
            self.first_error.get_or_insert(e);
        }
    }

    /// Adds another tally's counts.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_error.is_none() {
            self.first_error = other.first_error;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrupted_digest_counts_as_failed_operation() {
        let stats = "{\n  \"bench\": \"X\"\n}\n";
        let good = Pinned {
            digest: fnv1a_str(stats),
            cycles: 10,
        };
        let mut exp = Expected::default();
        exp.0.insert("X@1/paper".into(), good);
        let mut tally = Tally::default();
        tally.record(exp.check("X@1/paper", stats));
        assert_eq!((tally.attempted, tally.failed), (1, 0));

        exp.0.insert(
            "X@1/paper".into(),
            Pinned {
                digest: good.digest ^ 1,
                ..good
            },
        );
        tally.record(exp.check("X@1/paper", stats));
        tally.record(exp.check("Y@1/paper", stats));
        assert_eq!((tally.attempted, tally.failed), (3, 2));
        assert!(tally.first_error.as_deref().unwrap().contains("digest"));
    }

    #[test]
    fn digest_file_roundtrips_and_committed_file_parses() {
        let mut exp = Expected::default();
        exp.0.insert(
            "GEMM@4/paper".into(),
            Pinned {
                digest: u64::MAX,
                cycles: 78_760,
            },
        );
        assert_eq!(Expected::parse(&exp.to_text()), Ok(exp));
        assert!(Expected::parse("{\"a\": {\"digest\": 1}}").is_err());
        assert!(!Expected::committed().0.is_empty());
    }
}
