//! # plasticine-dram — cycle-level DDR3 memory-system model
//!
//! A DRAMSim2-equivalent timing model of the memory system evaluated in the
//! Plasticine paper (§3.4, §4.2): four DDR3-1600 channels (51.2 GB/s
//! theoretical peak), each with per-bank state machines, JEDEC-style timing
//! constraints (tRCD/CAS/tRP/tRAS/tRC/tRRD/tFAW/tWTR/tRTP/refresh), an
//! FR-FCFS command scheduler with a starvation guard, and an address
//! coalescing unit that merges sparse element accesses into line bursts
//! (gather/scatter support).
//!
//! The model is *timing only*: it schedules request ids and addresses.
//! Data movement is performed functionally by the simulator crate when a
//! [`Completion`] arrives, keeping the two concerns — when a burst finishes
//! vs. what bytes it carried — cleanly separated.
//!
//! # Examples
//!
//! ```
//! use plasticine_dram::{DramConfig, DramSystem, MemRequest};
//!
//! let mut mem = DramSystem::new(DramConfig::default());
//! mem.push(MemRequest { id: 0, addr: 0x1000, is_write: false }).unwrap();
//! let mut completions = Vec::new();
//! while completions.is_empty() {
//!     completions = mem.tick();
//! }
//! assert_eq!(completions[0].addr, 0x1000);
//! ```

#![warn(missing_docs)]

mod channel;
mod coalesce;
mod config;
mod system;

pub use channel::{ChannelStats, Completion, MemRequest};
pub use coalesce::{CoalesceStats, CoalescingUnit, ElemCompletion, ElemRequest};
pub use config::{DramConfig, Location, Timing};
pub use system::{lines_for_range, DramStats, DramSystem, QueueFull};
