//! Versioned, content-hashed simulation checkpoints.
//!
//! A [`Checkpoint`] captures the full timing-side state of a run at a
//! cycle boundary — the control tree's per-invocation FSMs, the dense
//! `Resources` bookkeeping, in-flight DRAM transactions and retry queues,
//! stall-attribution accumulators, and the fault-injection RNG stream.
//! The functional side (scratchpad and DRAM *data*) is deliberately not
//! serialized: simulation is two-phase, so a resume re-runs the
//! deterministic functional interpreter, rebuilds an identical fresh
//! schedule tree, and overlays the snapshot. Resuming from cycle `N`
//! therefore produces bit-identical final [`SimResult`](crate::SimResult)
//! stats to an uninterrupted run, in both step modes.
//!
//! The artifact follows the `compiler::artifact` conventions: a `version`
//! field, hex-string `u64` hashes, and a `content_hash` (shared FNV-1a
//! over the compact payload encoding) verified on decode. Three guard
//! hashes pin what the checkpoint may resume against:
//!
//! * `program_hash` — the program actually simulated (post-degradation),
//! * `config_hash` — the placed-and-routed [`MachineConfig`], so a
//!   checkpoint cannot resume against the wrong bitstream. The config is
//!   [normalized](MachineConfig::normalized) (translated to partition
//!   offset 0) before hashing, so an evicted tenant may resume on any
//!   *pattern-equivalent* band of its original geometry — one whose
//!   offset is congruent modulo the grid mix's vertical period (same
//!   parity on the checkerboard), where relocation is exactly a vertical
//!   translation, which the hash deliberately ignores. A band at an
//!   incompatible offset covers a different PCU/PMU site pattern,
//!   compiles to a genuinely different bitstream, and is refused,
//! * `options_hash` — the determinism-relevant simulation options (DRAM
//!   config, coalescing, fault map, credit cap). `max_cycles`,
//!   `stall_limit`, and the step mode are deliberately *excluded*: the
//!   main use of an auto-checkpoint taken on `CycleBudgetExceeded` or a
//!   watchdog deadlock is resuming with a bigger budget, and the two step
//!   modes are bit-identical by construction.

use crate::{SimOptions, StepMode};
use plasticine_arch::MachineConfig;
use plasticine_json::decode::{field, hex_of, str_of, u64_of};
use plasticine_json::hash::fnv1a;
use plasticine_json::Json;
use plasticine_ppir::{stable_hash_of, Program};
use std::path::Path;

/// Current checkpoint format version. Version 2 added the healing overlay
/// (`heal` per unit, `healing_cycles`) and the ECC escalation window
/// (`ecc`) to the resources snapshot, and folded the fault timeline into
/// the options guard. Version 3 dropped two fields that are not state:
/// the per-cycle `begin_cols` flag, which the next `begin_cycle`
/// overwrites before anything reads it, and the per-job element sequence
/// numbers (`next_elem_seq`), which a transfer's own request count gives.
pub const VERSION: u32 = 3;

/// Why a checkpoint could not be decoded or resumed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// Malformed JSON, or a missing / ill-typed / out-of-range field.
    Format(String),
    /// The file declares a format version this build does not support.
    Version {
        /// Version found in the file.
        found: u32,
        /// Version this build writes.
        expected: u32,
    },
    /// The stored content hash does not match the payload — the file was
    /// corrupted or hand-edited.
    Corrupt {
        /// Hash stored in the file.
        stored: u64,
        /// Hash recomputed over the payload.
        computed: u64,
    },
    /// The checkpoint was taken from a different program, bitstream, or
    /// simulation options than the resume attempt.
    Mismatch(String),
    /// Filesystem error while loading or saving.
    Io(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Format(m) => write!(f, "bad checkpoint: {m}"),
            CheckpointError::Version { found, expected } => write!(
                f,
                "unsupported checkpoint version {found} (this build reads version {expected})"
            ),
            CheckpointError::Corrupt { stored, computed } => write!(
                f,
                "checkpoint content hash mismatch: stored {stored:016x}, computed {computed:016x}"
            ),
            CheckpointError::Mismatch(m) => write!(f, "checkpoint does not match this run: {m}"),
            CheckpointError::Io(m) => write!(f, "checkpoint I/O error: {m}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// When the simulator writes checkpoints.
#[derive(Debug, Clone, Copy, Default)]
pub struct CheckpointPolicy {
    /// Emit a checkpoint at the first eligible cycle boundary at or past
    /// every multiple of this many cycles. In `StepMode::Cycle` the
    /// cadence is exact; in `StepMode::Event` quiescent spans are skipped
    /// in bulk, so the checkpoint lands on the first full iteration past
    /// the due cycle.
    pub every: Option<u64>,
    /// Emit a final checkpoint when the run fails with
    /// `CycleBudgetExceeded` or a watchdog-diagnosed deadlock, so the
    /// simulated cycles survive the failure (resume with a bigger
    /// `max_cycles` / `stall_limit`).
    pub on_error: bool,
}

/// A resumable snapshot of a simulation at a cycle boundary.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Format version ([`VERSION`]).
    pub version: u32,
    /// Name of the simulated program.
    pub program_name: String,
    /// [`Program::stable_hash`] of the program actually simulated.
    pub program_hash: u64,
    /// Stable hash of the placed-and-routed [`MachineConfig`], normalized
    /// to partition offset 0 (offset-independent: see the module docs).
    pub config_hash: u64,
    /// Stable hash of the determinism-relevant [`SimOptions`] (see the
    /// module docs for what is excluded and why).
    pub options_hash: u64,
    /// Step mode the checkpointing run used (informational — both modes
    /// are bit-identical, so a resume may use either).
    pub step: StepMode,
    /// Cycle the snapshot was taken at.
    pub cycle: u64,
    /// FNV-1a over the compact payload encoding, verified on decode.
    pub content_hash: u64,
    /// Last cycle the run loop observed global progress (watchdog state).
    pub(crate) last_progress: u64,
    /// [`Resources`](crate::Resources) snapshot.
    pub(crate) resources: Json,
    /// Schedule-tree snapshot.
    pub(crate) tree: Json,
}

/// The options-guard hash: DRAM config, coalescing, fault map, fault
/// timeline, and credit cap — everything that steers the deterministic
/// event stream. Budgets (`max_cycles`, `stall_limit`) and the step mode
/// are excluded so a budget-failure checkpoint can resume with bigger
/// limits. The timeline is included because resuming under a different
/// arrival schedule would diverge from the interrupted run — and because
/// requiring the *same* schedule is what makes a healed resume bit-identical
/// to a manual one.
pub(crate) fn options_guard_hash(opts: &SimOptions) -> u64 {
    stable_hash_of(&(
        &opts.dram,
        opts.coalescing,
        &opts.faults,
        &opts.timeline,
        opts.credit_cap,
    ))
}

impl Checkpoint {
    /// Assembles a checkpoint and computes its content hash.
    pub(crate) fn new(
        p: &Program,
        config: &MachineConfig,
        opts: &SimOptions,
        cycle: u64,
        last_progress: u64,
        resources: Json,
        tree: Json,
    ) -> Checkpoint {
        let mut c = Checkpoint {
            version: VERSION,
            program_name: p.name().to_string(),
            program_hash: p.stable_hash(),
            config_hash: stable_hash_of(&config.normalized()),
            options_hash: options_guard_hash(opts),
            step: opts.step,
            cycle,
            content_hash: 0,
            last_progress,
            resources,
            tree,
        };
        c.content_hash = fnv1a(c.payload_json().compact().as_bytes());
        c
    }

    /// Checks the guard hashes against a resume attempt.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Mismatch`] naming the first guard that differs.
    pub fn matches(
        &self,
        p: &Program,
        config: &MachineConfig,
        opts: &SimOptions,
    ) -> Result<(), CheckpointError> {
        if self.program_hash != p.stable_hash() {
            return Err(CheckpointError::Mismatch(format!(
                "program hash {:016x} was checkpointed from `{}`, not this program \
                 (hash {:016x}) — same bench name, scale, and fault map required",
                self.program_hash,
                self.program_name,
                p.stable_hash()
            )));
        }
        if self.config_hash != stable_hash_of(&config.normalized()) {
            return Err(CheckpointError::Mismatch(
                "bitstream (machine configuration) differs from the checkpointing run \
                 (pattern-equivalent bands — same height, offset congruent modulo the \
                 grid mix's vertical period — are interchangeable; others are not)"
                    .to_string(),
            ));
        }
        if self.options_hash != options_guard_hash(opts) {
            return Err(CheckpointError::Mismatch(
                "simulation options (DRAM config, coalescing, faults, or credit cap) \
                 differ from the checkpointing run"
                    .to_string(),
            ));
        }
        Ok(())
    }

    /// Everything except the content hash, in canonical field order.
    fn payload_json(&self) -> Json {
        Json::obj([
            ("version", Json::from(u64::from(self.version))),
            ("program_name", Json::from(self.program_name.as_str())),
            ("program_hash", Json::hex(self.program_hash)),
            ("config_hash", Json::hex(self.config_hash)),
            ("options_hash", Json::hex(self.options_hash)),
            (
                "step",
                Json::from(match self.step {
                    StepMode::Event => "event",
                    StepMode::Cycle => "cycle",
                }),
            ),
            ("cycle", Json::from(self.cycle)),
            ("last_progress", Json::from(self.last_progress)),
            ("resources", self.resources.clone()),
            ("tree", self.tree.clone()),
        ])
    }

    /// Serializes the checkpoint (content hash first, then the payload).
    pub fn encode(&self) -> String {
        let mut fields = vec![("content_hash".to_string(), Json::hex(self.content_hash))];
        match self.payload_json() {
            Json::Obj(m) => fields.extend(m),
            _ => unreachable!("payload is an object"),
        }
        Json::Obj(fields).pretty()
    }

    /// Parses a checkpoint and verifies its content hash.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Format`] on malformed input,
    /// [`CheckpointError::Version`] on an unsupported version, and
    /// [`CheckpointError::Corrupt`] when the stored content hash does not
    /// match the payload.
    pub fn decode(text: &str) -> Result<Checkpoint, CheckpointError> {
        let j = Json::parse(text).map_err(|e| CheckpointError::Format(e.to_string()))?;
        let fmt = CheckpointError::Format;
        let version = u64_of(&j, "version").map_err(fmt)?;
        let version = u32::try_from(version)
            .map_err(|_| CheckpointError::Format("version out of range".to_string()))?;
        if version != VERSION {
            return Err(CheckpointError::Version {
                found: version,
                expected: VERSION,
            });
        }
        let step = match str_of(&j, "step").map_err(fmt)? {
            "event" => StepMode::Event,
            "cycle" => StepMode::Cycle,
            s => return Err(CheckpointError::Format(format!("unknown step mode `{s}`"))),
        };
        let mut c = Checkpoint {
            version,
            program_name: str_of(&j, "program_name").map_err(fmt)?.to_string(),
            program_hash: hex_of(&j, "program_hash").map_err(fmt)?,
            config_hash: hex_of(&j, "config_hash").map_err(fmt)?,
            options_hash: hex_of(&j, "options_hash").map_err(fmt)?,
            step,
            cycle: u64_of(&j, "cycle").map_err(fmt)?,
            content_hash: hex_of(&j, "content_hash").map_err(fmt)?,
            last_progress: u64_of(&j, "last_progress").map_err(fmt)?,
            resources: field(&j, "resources").map_err(fmt)?.clone(),
            tree: field(&j, "tree").map_err(fmt)?.clone(),
        };
        let computed = fnv1a(c.payload_json().compact().as_bytes());
        if computed != c.content_hash {
            return Err(CheckpointError::Corrupt {
                stored: c.content_hash,
                computed,
            });
        }
        c.content_hash = computed;
        Ok(c)
    }

    /// Writes the encoded checkpoint to a file.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] on filesystem failure.
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        std::fs::write(path, self.encode() + "\n")
            .map_err(|e| CheckpointError::Io(format!("writing {}: {e}", path.display())))
    }

    /// Reads and decodes a checkpoint file.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] on filesystem failure, plus every
    /// [`decode`](Self::decode) error.
    pub fn load(path: &Path) -> Result<Checkpoint, CheckpointError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CheckpointError::Io(format!("reading {}: {e}", path.display())))?;
        Checkpoint::decode(&text)
    }
}
