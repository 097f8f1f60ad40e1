//! DRAM device and controller configuration.
//!
//! Defaults model the paper's memory system: four DDR3-1600 channels with a
//! theoretical peak of 51.2 GB/s (§4.2), simulated in the accelerator's
//! 1 GHz core-clock domain.

/// Timing parameters in nanoseconds (JEDEC DDR3-1600 CL11 class).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// Activate to internal read/write delay (tRCD).
    pub t_rcd_ns: f64,
    /// Read command to first data (CAS latency).
    pub t_cas_ns: f64,
    /// Write command to first data (CAS write latency).
    pub t_cwd_ns: f64,
    /// Precharge to activate delay (tRP).
    pub t_rp_ns: f64,
    /// Activate to precharge minimum (tRAS).
    pub t_ras_ns: f64,
    /// Activate to activate, same bank (tRC).
    pub t_rc_ns: f64,
    /// Activate to activate, different banks same rank (tRRD).
    pub t_rrd_ns: f64,
    /// Four-activate window per rank (tFAW).
    pub t_faw_ns: f64,
    /// Column command to column command (tCCD) — also the data burst time.
    pub t_burst_ns: f64,
    /// Write recovery before precharge (tWR).
    pub t_wr_ns: f64,
    /// Write-to-read turnaround (tWTR).
    pub t_wtr_ns: f64,
    /// Read-to-precharge (tRTP).
    pub t_rtp_ns: f64,
    /// Average refresh interval (tREFI).
    pub t_refi_ns: f64,
    /// Refresh cycle time (tRFC).
    pub t_rfc_ns: f64,
}

impl Default for Timing {
    fn default() -> Timing {
        // DDR3-1600 (tCK = 1.25 ns), 11-11-11, 4 Gb parts.
        Timing {
            t_rcd_ns: 13.75,
            t_cas_ns: 13.75,
            t_cwd_ns: 10.0,
            t_rp_ns: 13.75,
            t_ras_ns: 35.0,
            t_rc_ns: 48.75,
            t_rrd_ns: 6.25,
            t_faw_ns: 40.0,
            t_burst_ns: 5.0, // burst of 8 on a 64-bit bus at 1600 MT/s
            t_wr_ns: 15.0,
            t_wtr_ns: 7.5,
            t_rtp_ns: 7.5,
            t_refi_ns: 7800.0,
            t_rfc_ns: 260.0,
        }
    }
}

/// Full memory-system configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct DramConfig {
    /// Independent DDR channels (the paper uses 4).
    pub channels: usize,
    /// Ranks per channel.
    pub ranks: usize,
    /// Banks per rank (DDR3: 8).
    pub banks: usize,
    /// Row size in bytes (columns × device width × devices = page size).
    pub row_bytes: u64,
    /// Transfer granularity in bytes (one burst: 64 B).
    pub line_bytes: u64,
    /// Request-queue depth per channel.
    pub queue_depth: usize,
    /// Core clock frequency the accelerator runs at, in GHz. Timing
    /// parameters are converted from nanoseconds to core cycles.
    pub core_ghz: f64,
    /// Device timing.
    pub timing: Timing,
    /// Enable periodic refresh (tREFI/tRFC).
    pub refresh: bool,
    /// Age in core cycles after which the scheduler stops reordering past a
    /// request (FR-FCFS starvation guard).
    ///
    /// It is counted in core cycles, not nanoseconds, so a faster fabric
    /// shortens it: at `core_ghz = 96` the default 2048 cycles are ≈21 ns,
    /// under two tRCDs, and FR-FCFS serves the oldest request almost
    /// always. Scaling it with the clock would change simulated stats.
    pub max_age: u64,
}

impl Default for DramConfig {
    fn default() -> DramConfig {
        DramConfig {
            channels: 4,
            ranks: 2,
            banks: 8,
            row_bytes: 8192,
            line_bytes: 64,
            queue_depth: 32,
            core_ghz: 1.0,
            timing: Timing::default(),
            refresh: true,
            max_age: 2048,
        }
    }
}

impl DramConfig {
    /// Converts nanoseconds to core-clock cycles (rounded up).
    pub fn ns_to_cycles(&self, ns: f64) -> u64 {
        (ns * self.core_ghz).ceil() as u64
    }

    /// Peak bandwidth across all channels in bytes per core cycle.
    pub fn peak_bytes_per_cycle(&self) -> f64 {
        // One line per t_burst per channel.
        let burst_cycles = self.ns_to_cycles(self.timing.t_burst_ns) as f64;
        self.channels as f64 * self.line_bytes as f64 / burst_cycles
    }

    /// Peak bandwidth in GB/s.
    pub fn peak_gbps(&self) -> f64 {
        self.peak_bytes_per_cycle() * self.core_ghz
    }
}

/// Physical location of a line: `(channel, rank, bank, row, column-line)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Location {
    /// Channel index.
    pub channel: usize,
    /// Rank index within the channel.
    pub rank: usize,
    /// Bank index within the rank.
    pub bank: usize,
    /// Row index within the bank.
    pub row: u64,
    /// Line index within the row.
    pub col: u64,
}

impl DramConfig {
    /// Maps a byte address to its physical location.
    ///
    /// Mapping (low → high bits): line offset, channel, column, bank, rank,
    /// row. Interleaving lines across channels spreads dense streams over
    /// all channels; keeping columns below banks gives dense streams long
    /// row hits within each bank.
    pub fn map(&self, byte_addr: u64) -> Location {
        let line = byte_addr / self.line_bytes;
        let channel = (line % self.channels as u64) as usize;
        let rest = line / self.channels as u64;
        let lines_per_row = self.row_bytes / self.line_bytes;
        let col = rest % lines_per_row;
        let rest = rest / lines_per_row;
        let bank = (rest % self.banks as u64) as usize;
        let rest = rest / self.banks as u64;
        let rank = (rest % self.ranks as u64) as usize;
        let row = rest / self.ranks as u64;
        Location {
            channel,
            rank,
            bank,
            row,
            col,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_peak_bandwidth_matches_paper() {
        let cfg = DramConfig::default();
        // 4 × DDR3-1600 = 51.2 GB/s theoretical peak (§4.2).
        assert!(
            (cfg.peak_gbps() - 51.2).abs() < 0.1,
            "got {}",
            cfg.peak_gbps()
        );
    }

    #[test]
    fn ns_conversion_rounds_up() {
        let cfg = DramConfig::default();
        assert_eq!(cfg.ns_to_cycles(13.75), 14);
        assert_eq!(cfg.ns_to_cycles(5.0), 5);
    }

    #[test]
    fn consecutive_lines_interleave_channels() {
        let cfg = DramConfig::default();
        for i in 0..16u64 {
            let loc = cfg.map(i * 64);
            assert_eq!(loc.channel, (i % 4) as usize);
        }
    }

    #[test]
    fn dense_stream_stays_in_row_within_channel() {
        let cfg = DramConfig::default();
        // Lines 0, 4, 8, ... map to channel 0; they should walk columns of
        // one row before moving to the next bank/row.
        let lines_per_row = cfg.row_bytes / cfg.line_bytes;
        let first = cfg.map(0);
        for i in 1..lines_per_row {
            let loc = cfg.map(i * 4 * 64);
            assert_eq!(loc.channel, 0);
            assert_eq!(loc.row, first.row);
            assert_eq!(loc.bank, first.bank);
            assert_eq!(loc.col, i);
        }
        // The next line after a full row moves to a different bank.
        let next = cfg.map(lines_per_row * 4 * 64);
        assert_ne!(next.bank, first.bank);
    }

    #[test]
    fn map_is_injective_over_a_window() {
        let cfg = DramConfig::default();
        let mut seen = std::collections::HashSet::new();
        for i in 0..4096u64 {
            assert!(seen.insert(cfg.map(i * 64)), "collision at line {i}");
        }
    }
}
