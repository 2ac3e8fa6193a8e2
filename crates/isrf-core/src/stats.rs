//! Simulation statistics.
//!
//! Three counter groups mirror the paper's three measurement figures:
//!
//! * [`Breakdown`] — where execution time went (Figure 12's four stacked
//!   components).
//! * [`MemTraffic`] — off-chip bytes moved (Figure 11).
//! * [`SrfTraffic`] — SRF words moved by access class (Figure 13).
//!
//! [`RunStats`] bundles all three for one benchmark run on one machine
//! configuration.

use std::fmt;

use crate::snap::{Dec, Enc, SnapError};

/// Execution-time breakdown in cycles (the stacked components of Figure 12).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Breakdown {
    /// Cycles spent executing main-loop bodies of kernels.
    pub kernel_loop: u64,
    /// Cycles stalled waiting for memory (or cache) transfers.
    pub mem_stall: u64,
    /// Cycles stalled waiting for SRF accesses (arbitration failures, bank
    /// and sub-array conflicts, stream-buffer starvation).
    pub srf_stall: u64,
    /// Kernel overheads: pre/post-loop code, software-pipeline fill and
    /// drain, and inter-lane load imbalance.
    pub overhead: u64,
}

impl Breakdown {
    /// Total cycles across all components.
    pub fn total(&self) -> u64 {
        self.kernel_loop + self.mem_stall + self.srf_stall + self.overhead
    }

    /// Each component as a fraction of `base_total` (used to normalize
    /// Figure 12 against the `Base` configuration).
    pub fn normalized_to(&self, base_total: u64) -> [f64; 4] {
        let d = base_total.max(1) as f64;
        [
            self.kernel_loop as f64 / d,
            self.mem_stall as f64 / d,
            self.srf_stall as f64 / d,
            self.overhead as f64 / d,
        ]
    }
}

impl fmt::Display for Breakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "loop {} + mem {} + srf {} + ovh {} = {} cycles",
            self.kernel_loop,
            self.mem_stall,
            self.srf_stall,
            self.overhead,
            self.total()
        )
    }
}

/// Off-chip memory traffic counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemTraffic {
    /// Bytes read from DRAM.
    pub bytes_read: u64,
    /// Bytes written to DRAM.
    pub bytes_written: u64,
    /// Bytes served by the on-chip cache (hits), zero on cache-less configs.
    pub cache_hit_bytes: u64,
}

impl MemTraffic {
    /// Write the counters into a snapshot encoder.
    pub fn encode_state(&self, e: &mut Enc) {
        e.u64(self.bytes_read);
        e.u64(self.bytes_written);
        e.u64(self.cache_hit_bytes);
    }

    /// Read counters written by [`MemTraffic::encode_state`].
    pub fn decode_state(d: &mut Dec) -> Result<Self, SnapError> {
        Ok(MemTraffic {
            bytes_read: d.u64()?,
            bytes_written: d.u64()?,
            cache_hit_bytes: d.u64()?,
        })
    }

    /// Total off-chip bytes moved.
    pub fn total(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }

    /// This run's off-chip traffic as a fraction of `base`'s (Figure 11).
    pub fn normalized_to(&self, base: &MemTraffic) -> f64 {
        self.total() as f64 / base.total().max(1) as f64
    }
}

impl fmt::Display for MemTraffic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} B read + {} B written (cache hits {} B)",
            self.bytes_read, self.bytes_written, self.cache_hit_bytes
        )
    }
}

/// SRF traffic by access class, in words (Figure 13 reports these divided by
/// main-loop cycles as sustained words/cycle/lane).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SrfTraffic {
    /// Words moved by sequential block accesses.
    pub seq_words: u64,
    /// Words moved by in-lane indexed accesses.
    pub inlane_words: u64,
    /// Words moved by cross-lane indexed accesses.
    pub crosslane_words: u64,
}

impl SrfTraffic {
    /// Total SRF words moved.
    pub fn total(&self) -> u64 {
        self.seq_words + self.inlane_words + self.crosslane_words
    }

    /// Sustained bandwidth demand in words per cycle per lane over `cycles`
    /// on an `lanes`-lane machine, per class `[seq, crosslane, inlane]`
    /// (the stacking order of Figure 13).
    pub fn per_cycle_per_lane(&self, cycles: u64, lanes: usize) -> [f64; 3] {
        let d = (cycles.max(1) as f64) * lanes as f64;
        [
            self.seq_words as f64 / d,
            self.crosslane_words as f64 / d,
            self.inlane_words as f64 / d,
        ]
    }
}

impl fmt::Display for SrfTraffic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} seq + {} in-lane + {} cross-lane words",
            self.seq_words, self.inlane_words, self.crosslane_words
        )
    }
}

/// Complete statistics for one benchmark run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunStats {
    /// Total machine cycles simulated.
    pub cycles: u64,
    /// Execution-time breakdown.
    pub breakdown: Breakdown,
    /// Off-chip traffic.
    pub mem: MemTraffic,
    /// SRF traffic by class.
    pub srf: SrfTraffic,
    /// Cycles spent inside kernel main loops (denominator for Figure 13).
    pub main_loop_cycles: u64,
}

impl RunStats {
    /// Write every counter into a snapshot encoder.
    pub fn encode_state(&self, e: &mut Enc) {
        e.u64(self.cycles);
        e.u64(self.breakdown.kernel_loop);
        e.u64(self.breakdown.mem_stall);
        e.u64(self.breakdown.srf_stall);
        e.u64(self.breakdown.overhead);
        self.mem.encode_state(e);
        e.u64(self.srf.seq_words);
        e.u64(self.srf.inlane_words);
        e.u64(self.srf.crosslane_words);
        e.u64(self.main_loop_cycles);
    }

    /// Read counters written by [`RunStats::encode_state`].
    pub fn decode_state(d: &mut Dec) -> Result<Self, SnapError> {
        Ok(RunStats {
            cycles: d.u64()?,
            breakdown: Breakdown {
                kernel_loop: d.u64()?,
                mem_stall: d.u64()?,
                srf_stall: d.u64()?,
                overhead: d.u64()?,
            },
            mem: MemTraffic::decode_state(d)?,
            srf: SrfTraffic {
                seq_words: d.u64()?,
                inlane_words: d.u64()?,
                crosslane_words: d.u64()?,
            },
            main_loop_cycles: d.u64()?,
        })
    }

    /// What accrued since `start`, an earlier reading of these counters.
    pub fn since(&self, start: &RunStats) -> RunStats {
        let (b, m, s) = (&start.breakdown, &start.mem, &start.srf);
        RunStats {
            cycles: self.cycles - start.cycles,
            breakdown: Breakdown {
                kernel_loop: self.breakdown.kernel_loop - b.kernel_loop,
                mem_stall: self.breakdown.mem_stall - b.mem_stall,
                srf_stall: self.breakdown.srf_stall - b.srf_stall,
                overhead: self.breakdown.overhead - b.overhead,
            },
            mem: MemTraffic {
                bytes_read: self.mem.bytes_read - m.bytes_read,
                bytes_written: self.mem.bytes_written - m.bytes_written,
                cache_hit_bytes: self.mem.cache_hit_bytes - m.cache_hit_bytes,
            },
            srf: SrfTraffic {
                seq_words: self.srf.seq_words - s.seq_words,
                inlane_words: self.srf.inlane_words - s.inlane_words,
                crosslane_words: self.srf.crosslane_words - s.crosslane_words,
            },
            main_loop_cycles: self.main_loop_cycles - start.main_loop_cycles,
        }
    }

    /// Speedup of this run relative to `base` (ratio of total cycles).
    pub fn speedup_over(&self, base: &RunStats) -> f64 {
        base.cycles as f64 / self.cycles.max(1) as f64
    }
}

/// Host work one machine has done since it was built, counted the way
/// [`RunStats`] counts the simulated machine: a host-side change shows as a
/// count no timer blurs. Debug builds only; never serialized.
#[cfg(debug_assertions)]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HostWork {
    /// FIFO heads the indexed arbiter examined.
    pub heads: u64,
    /// Transfers the memory service walk visited, served or not.
    pub visits: u64,
    /// Words the memory channel served.
    pub words: u64,
    /// DRAM bursts the memory channel opened for uncached words, each
    /// charged `burst_words` of credit.
    pub bursts: u64,
    /// Kernel micro-ops fired (one per op and iteration, all lanes).
    pub ops: u64,
}

impl fmt::Display for RunStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} cycles [{}]; mem {}; srf {}",
            self.cycles, self.breakdown, self.mem, self.srf
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Breakdown {
        Breakdown {
            kernel_loop: 600,
            mem_stall: 200,
            srf_stall: 100,
            overhead: 100,
        }
    }

    #[test]
    fn breakdown_totals_and_normalization() {
        let b = sample();
        assert_eq!(b.total(), 1000);
        let n = b.normalized_to(2000);
        assert_eq!(n, [0.3, 0.1, 0.05, 0.05]);
        assert!((n.iter().sum::<f64>() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn mem_traffic_normalization() {
        let base = MemTraffic {
            bytes_read: 800,
            bytes_written: 200,
            cache_hit_bytes: 0,
        };
        let isrf = MemTraffic {
            bytes_read: 40,
            bytes_written: 10,
            cache_hit_bytes: 0,
        };
        assert!((isrf.normalized_to(&base) - 0.05).abs() < 1e-12);
    }

    #[test]
    fn normalization_handles_zero_base() {
        let z = MemTraffic::default();
        assert_eq!(z.normalized_to(&z), 0.0);
        assert_eq!(Breakdown::default().normalized_to(0), [0.0; 4]);
    }

    #[test]
    fn srf_bandwidth_per_lane() {
        let t = SrfTraffic {
            seq_words: 8000,
            inlane_words: 4000,
            crosslane_words: 2000,
        };
        let [seq, xl, il] = t.per_cycle_per_lane(1000, 8);
        assert!((seq - 1.0).abs() < 1e-12);
        assert!((il - 0.5).abs() < 1e-12);
        assert!((xl - 0.25).abs() < 1e-12);
    }

    #[test]
    fn speedup() {
        let base = RunStats {
            cycles: 4110,
            ..RunStats::default()
        };
        let isrf = RunStats {
            cycles: 1000,
            ..RunStats::default()
        };
        assert!((isrf.speedup_over(&base) - 4.11).abs() < 1e-12);
    }

    #[test]
    fn run_stats_since_an_earlier_reading() {
        let start = RunStats {
            cycles: 10,
            breakdown: sample(),
            mem: MemTraffic {
                bytes_read: 64,
                bytes_written: 32,
                cache_hit_bytes: 16,
            },
            srf: SrfTraffic {
                seq_words: 8,
                inlane_words: 4,
                crosslane_words: 2,
            },
            main_loop_cycles: 5,
        };
        assert_eq!(start.since(&start), RunStats::default());
        assert_eq!(start.since(&RunStats::default()), start);
        let mut later = start;
        later.cycles += 7;
        later.breakdown.srf_stall += 3;
        later.mem.cache_hit_bytes += 8;
        later.srf.crosslane_words += 1;
        let delta = later.since(&start);
        assert_eq!(
            (
                delta.cycles,
                delta.breakdown.srf_stall,
                delta.breakdown.total()
            ),
            (7, 3, 3)
        );
        assert_eq!((delta.mem.cache_hit_bytes, delta.srf.total()), (8, 1));
    }
}
