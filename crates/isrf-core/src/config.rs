//! Machine configuration.
//!
//! [`MachineConfig`] describes a complete stream processor in the style of
//! the Imagine/Merrimac machines: `N` lanes, each pairing an SRF bank with a
//! compute cluster, a stream memory system backed by off-chip DRAM, and
//! (for the `Cache` configuration) an on-chip vector cache between the SRF
//! and DRAM.
//!
//! [`MachineConfig::preset`] builds the four evaluation configurations from
//! Table 2/Table 3 of the paper:
//!
//! | Config | SRF          | Indexing                     | Backing store |
//! |--------|--------------|------------------------------|---------------|
//! | Base   | sequential   | none                         | DRAM          |
//! | ISRF1  | indexed      | 1 word/cycle/lane in-lane    | DRAM          |
//! | ISRF4  | indexed      | 4 words/cycle/lane in-lane   | DRAM          |
//! | Cache  | sequential   | none                         | cache + DRAM  |
//!
//! A value is a field only where an experiment varies it: Section 5.4
//! sweeps sub-array counts, address-FIFO sizes, network ports and the
//! address/data separations, and the differential suite's perturbation grid
//! adds DRAM latency, bandwidth and burst size, stream-buffer depth and
//! sequential SRF latency (Filter also sizes its scratchpad). The rest of
//! Table 3 is fixed by the paper and is a `const` here; an indexed SRF
//! always has the cross-lane crossbar.

use std::fmt;
use std::str::FromStr;

use crate::word::WORD_BYTES;

/// The four machine configurations evaluated in the paper (Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConfigName {
    /// Sequential SRF backed by off-chip DRAM.
    Base,
    /// Indexed SRF, one indexed word per cycle per lane (no sub-banking).
    Isrf1,
    /// Indexed SRF, up to four indexed words per cycle per lane.
    Isrf4,
    /// Sequential SRF backed by an on-chip cache and off-chip DRAM.
    Cache,
}

impl ConfigName {
    /// All four configurations, in the order the paper's figures present
    /// them.
    pub const ALL: [ConfigName; 4] = [
        ConfigName::Base,
        ConfigName::Isrf1,
        ConfigName::Isrf4,
        ConfigName::Cache,
    ];
}

impl fmt::Display for ConfigName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ConfigName::Base => "Base",
            ConfigName::Isrf1 => "ISRF1",
            ConfigName::Isrf4 => "ISRF4",
            ConfigName::Cache => "Cache",
        };
        f.pad(s)
    }
}

impl FromStr for ConfigName {
    type Err = ConfigError;

    /// The inverse of `Display`, in any ASCII case.
    fn from_str(s: &str) -> Result<Self, ConfigError> {
        ConfigName::ALL
            .into_iter()
            .find(|c| c.to_string().eq_ignore_ascii_case(s))
            .ok_or_else(|| {
                ConfigError::new(format!("unknown config {s:?} (Base|ISRF1|ISRF4|Cache)"))
            })
    }
}

/// Error returned when a [`MachineConfig`] is internally inconsistent or a
/// string names no [`ConfigName`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    message: String,
}

impl ConfigError {
    fn new(message: impl Into<String>) -> Self {
        ConfigError {
            message: message.into(),
        }
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid machine configuration: {}", self.message)
    }
}

impl std::error::Error for ConfigError {}

/// System clock in GHz (Table 3).
pub const CLOCK_GHZ: f64 = 1.0;

/// Fully pipelined arithmetic units per cluster, each supporting integer
/// and floating-point add and multiply (Section 5).
pub const FU_COUNT: usize = 4;

/// Unpipelined dividers per cluster (Section 5).
pub const DIVIDER_COUNT: usize = 1;

/// Latency of an explicit inter-cluster network transfer, in cycles.
pub const COMM_LATENCY: u32 = 2;

/// Per-operation-class latencies, in cycles.
///
/// The exact values are not given in the paper; [`OP_LATENCIES`] follows
/// the published Imagine pipeline depths. The reproduction's conclusions
/// depend on their relative order (divide ≫ multiply > add ≥ simple ops),
/// not the absolute values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpLatencies {
    /// Integer add/sub/logic/shift/compare.
    pub int_alu: u32,
    /// Integer multiply.
    pub int_mul: u32,
    /// Floating-point add/subtract/compare.
    pub fp_add: u32,
    /// Floating-point multiply.
    pub fp_mul: u32,
    /// Divide (integer or float); occupies the unpipelined divider.
    pub divide: u32,
    /// Select / move / bit-field extract.
    pub select: u32,
    /// Scratchpad read or write.
    pub scratch: u32,
    /// Stream-buffer read or write as seen by the cluster.
    pub sb_access: u32,
}

/// The cluster's operation latencies, in cycles.
pub const OP_LATENCIES: OpLatencies = OpLatencies {
    int_alu: 2,
    int_mul: 4,
    fp_add: 3,
    fp_mul: 4,
    divide: 16,
    select: 1,
    scratch: 2,
    sb_access: 1,
};

/// Total SRF capacity in bytes across all banks (Table 3).
pub const SRF_BYTES: usize = 128 * 1024;

/// Words accessed per lane by one sequential SRF access (`m` = 4).
pub const SEQ_ACCESS_WORDS: usize = 4;

/// In-lane indexed access latency, address to data, absent conflicts
/// (Table 3).
pub const INLANE_LATENCY: u32 = 4;

/// Cross-lane indexed access latency absent conflicts (Table 3).
pub const CROSSLANE_LATENCY: u32 = 6;

/// Fixed per-invocation kernel overhead in cycles: sequencer dispatch plus
/// pre/post-loop kernel code (part of the "kernel overheads" component of
/// Figure 12).
pub const KERNEL_DISPATCH_CYCLES: u32 = 32;

/// Peak cross-lane indexed bandwidth in words per cycle per lane: the paper
/// evaluates only fully connected crossbars, one index per cluster per cycle
/// to any bank ("sparse interconnects" are Section 7's future work). The
/// indexed arbiter, the static cost floor and Table 3 read it.
pub const CROSSLANE_WORDS_PER_CYCLE: usize = 1;

/// Capabilities added by indexed-SRF support (absent on `Base`/`Cache`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexedSrfConfig {
    /// Entries in each per-lane, per-stream address FIFO.
    pub addr_fifo_entries: usize,
    /// Peak in-lane indexed bandwidth in words per cycle per lane
    /// (1 for ISRF1 — no sub-banking — and `s` = 4 for ISRF4).
    pub inlane_words_per_cycle: usize,
    /// Cross-lane network ports per SRF bank (Figure 18 sweeps 1/2/4).
    pub network_ports_per_bank: usize,
}

impl IndexedSrfConfig {
    /// The ISRF1 indexing parameters from Table 3.
    pub fn isrf1() -> Self {
        IndexedSrfConfig {
            addr_fifo_entries: 8,
            inlane_words_per_cycle: 1,
            network_ports_per_bank: 1,
        }
    }

    /// The ISRF4 indexing parameters from Table 3.
    pub fn isrf4() -> Self {
        IndexedSrfConfig {
            inlane_words_per_cycle: 4,
            ..IndexedSrfConfig::isrf1()
        }
    }
}

/// SRF organization (Section 4.1–4.2).
#[derive(Debug, Clone, PartialEq)]
pub struct SrfConfig {
    /// Sub-arrays per bank (`s` = 4). Determines peak in-lane indexed
    /// parallelism when sub-banked access is enabled.
    pub subarrays: usize,
    /// Sequential SRF access latency in cycles.
    pub seq_latency: u32,
    /// Stream-buffer capacity per lane per stream, in words.
    pub stream_buffer_words: usize,
    /// Indexed-access support; `None` for sequential-only SRFs.
    pub indexed: Option<IndexedSrfConfig>,
}

impl SrfConfig {
    /// Sequential-only SRF with the paper's Table 3 parameters.
    pub fn sequential() -> Self {
        SrfConfig {
            subarrays: 4,
            seq_latency: 3,
            stream_buffer_words: 8,
            indexed: None,
        }
    }

    /// Total capacity in words.
    pub fn capacity_words(&self) -> usize {
        SRF_BYTES / WORD_BYTES as usize
    }

    /// Words per bank for an `lanes`-lane machine.
    pub fn bank_words(&self, lanes: usize) -> usize {
        self.capacity_words() / lanes
    }

    /// Words per sub-array for an `lanes`-lane machine.
    pub fn subarray_words(&self, lanes: usize) -> usize {
        self.bank_words(lanes) / self.subarrays
    }

    /// Peak sequential SRF bandwidth in words per cycle across all lanes.
    pub fn seq_words_per_cycle(&self, lanes: usize) -> usize {
        lanes * SEQ_ACCESS_WORDS
    }
}

/// Off-chip DRAM channel model.
#[derive(Debug, Clone, PartialEq)]
pub struct DramConfig {
    /// Peak sustained bandwidth in gigabytes per second (9.14 in Table 3).
    pub peak_gbytes_per_sec: f64,
    /// Unloaded access latency in processor cycles. Not specified in the
    /// paper; chosen to be representative of 2003-era DRAM behind a memory
    /// controller. Benchmarks tolerate it via stream-level pipelining, so
    /// results are insensitive to the exact value.
    pub latency_cycles: u32,
    /// Minimum transfer granularity in words: touching any word of a burst
    /// consumes a full burst of bandwidth. Sequential streams amortize
    /// bursts perfectly; random single-word gathers pay `burst_words`x.
    /// Default 1: the Imagine-line streaming memory system uses memory
    /// access scheduling to sustain near-peak throughput even on
    /// single-word gathers, and the paper's Figure 11 counts demand words.
    /// Raise it to study less capable memory controllers.
    pub burst_words: u32,
}

impl Default for DramConfig {
    fn default() -> Self {
        DramConfig {
            peak_gbytes_per_sec: 9.14,
            latency_cycles: 100,
            burst_words: 1,
        }
    }
}

impl DramConfig {
    /// Peak bandwidth in words per processor cycle at [`CLOCK_GHZ`].
    pub fn words_per_cycle(&self) -> f64 {
        self.peak_gbytes_per_sec / (WORD_BYTES as f64) / CLOCK_GHZ
    }
}

/// On-chip vector cache (the `Cache` configuration, Table 3).
#[derive(Debug, Clone, PartialEq)]
pub struct CacheConfig {
    /// Capacity in bytes (128 KB).
    pub capacity_bytes: usize,
    /// Set associativity (4).
    pub associativity: usize,
    /// Independent banks (4).
    pub banks: usize,
    /// Line size in words (2 — short lines per the vector-cache studies the
    /// paper cites).
    pub line_words: usize,
    /// Peak cache bandwidth in gigabytes per second (16).
    pub peak_gbytes_per_sec: f64,
    /// Hit latency in cycles.
    pub hit_latency: u32,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            capacity_bytes: 128 * 1024,
            associativity: 4,
            banks: 4,
            line_words: 2,
            peak_gbytes_per_sec: 16.0,
            hit_latency: 8,
        }
    }
}

impl CacheConfig {
    /// Peak bandwidth in words per processor cycle at [`CLOCK_GHZ`].
    pub fn words_per_cycle(&self) -> f64 {
        self.peak_gbytes_per_sec / (WORD_BYTES as f64) / CLOCK_GHZ
    }

    /// Number of sets per bank.
    pub fn sets_per_bank(&self) -> usize {
        let lines = self.capacity_bytes / (self.line_words * WORD_BYTES as usize);
        lines / self.associativity / self.banks
    }
}

/// Compile-time scheduling defaults used by the kernel scheduler
/// (Section 5.1: fixed address/data separation of 6 cycles in-lane and
/// 20 cycles cross-lane).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleConfig {
    /// Cycles between indexed address issue and data read, in-lane streams.
    pub inlane_addr_data_separation: u32,
    /// Cycles between indexed address issue and data read, cross-lane.
    pub crosslane_addr_data_separation: u32,
}

impl Default for ScheduleConfig {
    fn default() -> Self {
        ScheduleConfig {
            inlane_addr_data_separation: 6,
            crosslane_addr_data_separation: 20,
        }
    }
}

/// A complete machine description.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Which named configuration this is (used for reporting).
    pub name: ConfigName,
    /// Number of lanes (SRF bank + compute cluster pairs).
    pub lanes: usize,
    /// Words of cluster-local scratchpad memory per lane (Imagine provides
    /// a small scratchpad; the `Filter` baseline depends on it and sizes
    /// it to its block).
    pub scratchpad_words: usize,
    /// SRF organization.
    pub srf: SrfConfig,
    /// Off-chip DRAM channel.
    pub dram: DramConfig,
    /// On-chip cache, present only on the `Cache` configuration.
    pub cache: Option<CacheConfig>,
    /// Kernel-scheduling defaults.
    pub sched: ScheduleConfig,
}

impl MachineConfig {
    /// Build one of the paper's four machine configurations (Table 2/3).
    ///
    /// ```
    /// use isrf_core::config::{ConfigName, MachineConfig};
    /// let base = MachineConfig::preset(ConfigName::Base);
    /// assert!(base.srf.indexed.is_none() && base.cache.is_none());
    /// let cache = MachineConfig::preset(ConfigName::Cache);
    /// assert!(cache.cache.is_some());
    /// ```
    pub fn preset(name: ConfigName) -> Self {
        let mut m = MachineConfig {
            name,
            lanes: 8,
            scratchpad_words: 256,
            srf: SrfConfig::sequential(),
            dram: DramConfig::default(),
            cache: None,
            sched: ScheduleConfig::default(),
        };
        match name {
            ConfigName::Base => {}
            ConfigName::Isrf1 => m.srf.indexed = Some(IndexedSrfConfig::isrf1()),
            ConfigName::Isrf4 => m.srf.indexed = Some(IndexedSrfConfig::isrf4()),
            ConfigName::Cache => m.cache = Some(CacheConfig::default()),
        }
        m
    }

    /// Peak compute rate in GFLOP/s (`lanes × FUs × clock`): 32 in Table 3.
    pub fn peak_gflops(&self) -> f64 {
        self.lanes as f64 * FU_COUNT as f64 * CLOCK_GHZ
    }

    /// True when the SRF supports indexed access.
    pub fn has_indexed_srf(&self) -> bool {
        self.srf.indexed.is_some()
    }

    /// Check internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] describing the first violated invariant:
    /// zero lanes, SRF capacity not divisible into banks/sub-arrays,
    /// indexed bandwidth exceeding the sub-array count, an indexed machine
    /// wider than the arbiter's 64-lane / 64-sub-array masks, zero-sized
    /// buffers/FIFOs, or a DRAM or cache bandwidth that is not finite and
    /// positive.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.lanes == 0 {
            return Err(ConfigError::new("machine must have at least one lane"));
        }
        check_bandwidth("DRAM", self.dram.peak_gbytes_per_sec)?;
        let srf = &self.srf;
        if !srf.capacity_words().is_multiple_of(self.lanes) {
            return Err(ConfigError::new(format!(
                "SRF capacity ({} words) must divide evenly into {} banks",
                srf.capacity_words(),
                self.lanes
            )));
        }
        if srf.subarrays == 0 || !srf.bank_words(self.lanes).is_multiple_of(srf.subarrays) {
            return Err(ConfigError::new(
                "bank capacity must divide evenly into sub-arrays",
            ));
        }
        if srf.stream_buffer_words == 0 {
            return Err(ConfigError::new("stream buffers must be nonzero"));
        }
        if let Some(idx) = &srf.indexed {
            if self.lanes > 64 || srf.subarrays > 64 {
                return Err(ConfigError::new(format!(
                    "indexed arbitration tracks lanes and sub-arrays in 64-bit masks; \
                     {} lanes of {} sub-arrays do not fit",
                    self.lanes, srf.subarrays
                )));
            }
            if idx.addr_fifo_entries == 0 {
                return Err(ConfigError::new("address FIFOs must be nonzero"));
            }
            if idx.inlane_words_per_cycle == 0 {
                return Err(ConfigError::new("indexed bandwidth must be nonzero"));
            }
            if idx.inlane_words_per_cycle > srf.subarrays {
                return Err(ConfigError::new(format!(
                    "in-lane indexed bandwidth ({}/cycle) cannot exceed the \
                     {} sub-arrays per bank",
                    idx.inlane_words_per_cycle, srf.subarrays
                )));
            }
            if idx.network_ports_per_bank == 0 {
                return Err(ConfigError::new(
                    "cross-lane indexing requires at least one network port per bank",
                ));
            }
        }
        if let Some(cache) = &self.cache {
            if cache.capacity_bytes == 0
                || cache.associativity == 0
                || cache.banks == 0
                || cache.line_words == 0
            {
                return Err(ConfigError::new("cache parameters must be nonzero"));
            }
            check_bandwidth("cache", cache.peak_gbytes_per_sec)?;
            if cache.sets_per_bank() == 0 {
                return Err(ConfigError::new(
                    "cache must have at least one set per bank",
                ));
            }
        }
        Ok(())
    }
}

/// Memory credit accrues at `gbytes_per_sec`: at zero or below no word is
/// ever served, and NaN serves every word at once.
fn check_bandwidth(what: &str, gbytes_per_sec: f64) -> Result<(), ConfigError> {
    if gbytes_per_sec.is_finite() && gbytes_per_sec > 0.0 {
        return Ok(());
    }
    Err(ConfigError::new(format!(
        "{what} bandwidth ({gbytes_per_sec} GB/s) must be finite and positive"
    )))
}

/// A configuration name stands for its preset wherever a machine
/// description is taken by value.
impl From<ConfigName> for MachineConfig {
    fn from(name: ConfigName) -> Self {
        MachineConfig::preset(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_table3() {
        for name in ConfigName::ALL {
            let m = MachineConfig::preset(name);
            m.validate().expect("preset must validate");
            assert_eq!(m.lanes, 8);
            assert_eq!(m.peak_gflops(), 32.0);
            assert_eq!(m.srf.capacity_words() * WORD_BYTES as usize, 128 * 1024);
            assert_eq!(m.srf.seq_words_per_cycle(m.lanes), 32);
            assert_eq!(m.srf.seq_latency, 3);
            assert_eq!(m.srf.stream_buffer_words, 8);
            assert!((m.dram.peak_gbytes_per_sec - 9.14).abs() < 1e-9);
        }
    }

    #[test]
    fn config_names_parse_in_any_case_and_pad_when_displayed() {
        for name in ConfigName::ALL {
            let shown = name.to_string();
            let mixed: String = shown
                .chars()
                .enumerate()
                .map(|(i, c)| match i % 2 {
                    0 => c.to_ascii_lowercase(),
                    _ => c.to_ascii_uppercase(),
                })
                .collect();
            for s in [
                shown.clone(),
                shown.to_lowercase(),
                shown.to_uppercase(),
                mixed,
            ] {
                assert_eq!(s.parse::<ConfigName>(), Ok(name), "{s}");
            }
        }
        let err = "isrf2".parse::<ConfigName>().expect_err("no such config");
        assert!(err.to_string().contains("Base|ISRF1|ISRF4|Cache"), "{err}");
        assert_eq!(format!("[{:<6}]", ConfigName::Base), "[Base  ]");
        assert_eq!(format!("[{:>6}]", ConfigName::Isrf4), "[ ISRF4]");
    }

    #[test]
    fn isrf_presets_differ_only_in_inlane_bandwidth() {
        let m1 = MachineConfig::preset(ConfigName::Isrf1);
        let m4 = MachineConfig::preset(ConfigName::Isrf4);
        let i1 = m1.srf.indexed.unwrap();
        let i4 = m4.srf.indexed.unwrap();
        assert_eq!(i1.inlane_words_per_cycle, 1);
        assert_eq!(i4.inlane_words_per_cycle, 4);
        assert_eq!(
            IndexedSrfConfig {
                inlane_words_per_cycle: 1,
                ..i4
            },
            i1
        );
        assert_eq!(i1.addr_fifo_entries, 8);
    }

    #[test]
    fn cache_preset_matches_table3() {
        let m = MachineConfig::preset(ConfigName::Cache);
        let c = m.cache.unwrap();
        assert_eq!(c.capacity_bytes, 128 * 1024);
        assert_eq!(c.associativity, 4);
        assert_eq!(c.banks, 4);
        assert_eq!(c.line_words, 2);
        assert_eq!(c.words_per_cycle(), 4.0);
        // 128 KB / (2 words * 4 B) = 16384 lines; /4 ways /4 banks = 1024 sets.
        assert_eq!(c.sets_per_bank(), 1024);
    }

    #[test]
    fn dram_bandwidth_in_words() {
        let d = DramConfig::default();
        let wpc = d.words_per_cycle();
        assert!((wpc - 2.285).abs() < 0.001, "got {wpc}");
    }

    #[test]
    fn srf_geometry() {
        let srf = SrfConfig::sequential();
        assert_eq!(srf.capacity_words(), 32768);
        assert_eq!(srf.bank_words(8), 4096);
        assert_eq!(srf.subarray_words(8), 1024);
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let mut m = MachineConfig::preset(ConfigName::Base);
        m.lanes = 0;
        assert!(m.validate().is_err());

        let mut m = MachineConfig::preset(ConfigName::Isrf4);
        m.srf.indexed.as_mut().unwrap().inlane_words_per_cycle = 8;
        assert!(m.validate().is_err(), "indexed bw beyond sub-arrays");

        let mut m = MachineConfig::preset(ConfigName::Base);
        m.lanes = 3; // 32768 words do not divide into 3 banks
        assert!(m.validate().is_err());

        let mut m = MachineConfig::preset(ConfigName::Cache);
        m.cache.as_mut().unwrap().associativity = 0;
        assert!(m.validate().is_err());

        // A bandwidth at which memory never (or instantly) serves a word.
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let mut m = MachineConfig::preset(ConfigName::Cache);
            m.dram.peak_gbytes_per_sec = bad;
            assert!(m.validate().is_err(), "DRAM at {bad} GB/s");

            let mut m = MachineConfig::preset(ConfigName::Cache);
            m.cache.as_mut().unwrap().peak_gbytes_per_sec = bad;
            assert!(m.validate().is_err(), "cache at {bad} GB/s");
        }
    }

    #[test]
    fn indexed_machines_must_fit_the_arbiter_masks() {
        // 128 banks of 256 words, 4 sub-arrays each: fine sequentially...
        let mut m = MachineConfig::preset(ConfigName::Base);
        m.lanes = 128;
        m.validate().expect("sequential SRFs have no mask limit");
        // ...but the indexed arbiter keeps one bit per lane.
        let mut m = MachineConfig::preset(ConfigName::Isrf4);
        m.lanes = 128;
        let err = m.validate().expect_err("128 lanes overflow the lane masks");
        assert!(err.to_string().contains("64-bit masks"), "{err}");
        // Likewise one bit per sub-array of a bank.
        let mut m = MachineConfig::preset(ConfigName::Isrf4);
        m.srf.subarrays = 128;
        let err = m
            .validate()
            .expect_err("128 sub-arrays overflow a bank's mask");
        assert!(err.to_string().contains("64-bit masks"), "{err}");
        m.srf.subarrays = 64;
        m.validate().expect("64 sub-arrays of 64 words still fit");
    }

    #[test]
    fn config_names_display() {
        let shown: Vec<String> = ConfigName::ALL.iter().map(|c| c.to_string()).collect();
        assert_eq!(shown, ["Base", "ISRF1", "ISRF4", "Cache"]);
    }
}
