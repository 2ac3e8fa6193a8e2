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
//! All parameters are plain public fields so experiments can sweep them (the
//! parameter studies of Section 5.4 vary sub-array counts, FIFO sizes,
//! network ports and address/data separations).

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

/// Functional-unit and local-storage description of one compute cluster.
///
/// All four paper configurations use identical clusters: four fully
/// pipelined units supporting integer and floating-point add and multiply,
/// plus a single unpipelined divider (Section 5).
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Fully pipelined arithmetic units per cluster.
    pub fu_count: usize,
    /// Unpipelined dividers per cluster.
    pub divider_count: usize,
    /// Words of cluster-local scratchpad memory (Imagine provides a small
    /// scratchpad; the `Filter` baseline depends on it).
    pub scratchpad_words: usize,
    /// Operation latencies in cycles.
    pub latency: OpLatencies,
    /// Latency of an explicit inter-cluster network transfer.
    pub comm_latency: u32,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            fu_count: 4,
            divider_count: 1,
            scratchpad_words: 256,
            latency: OpLatencies::default(),
            comm_latency: 2,
        }
    }
}

/// Per-operation-class latencies, in cycles.
///
/// The exact values are not given in the paper; these defaults follow the
/// published Imagine pipeline depths and may be swept freely — the
/// reproduction's conclusions depend on their relative order (divide ≫
/// multiply > add ≥ simple ops), not the absolute values.
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

impl Default for OpLatencies {
    fn default() -> Self {
        OpLatencies {
            int_alu: 2,
            int_mul: 4,
            fp_add: 3,
            fp_mul: 4,
            divide: 16,
            select: 1,
            scratch: 2,
            sb_access: 1,
        }
    }
}

/// Topology of the cross-lane index/data interconnect. The paper's
/// evaluation uses fully connected crossbars (like Imagine's inter-cluster
/// network) and leaves "the impact of sparse interconnects for the address
/// and data networks" to future work (Section 7); [`CrossLaneTopology::Ring`]
/// realizes that study: bisection-limited issue plus hop latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CrossLaneTopology {
    /// Fully connected crossbar (the paper's design).
    #[default]
    Crossbar,
    /// Bidirectional ring: cheap wiring, limited bisection.
    Ring,
}

/// Capabilities added by indexed-SRF support (absent on `Base`/`Cache`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexedSrfConfig {
    /// Entries in each per-lane, per-stream address FIFO.
    pub addr_fifo_entries: usize,
    /// Peak in-lane indexed bandwidth in words per cycle per lane
    /// (1 for ISRF1 — no sub-banking — and `s` = 4 for ISRF4).
    pub inlane_words_per_cycle: usize,
    /// Peak cross-lane indexed bandwidth in words per cycle per lane.
    pub crosslane_words_per_cycle: usize,
    /// In-lane indexed access latency, address to data, absent conflicts.
    pub inlane_latency: u32,
    /// Cross-lane indexed access latency absent conflicts.
    pub crosslane_latency: u32,
    /// Whether cross-lane indexed access is supported at all.
    pub crosslane: bool,
    /// Cross-lane network ports per SRF bank (Figure 18 sweeps 1/2/4).
    pub network_ports_per_bank: usize,
    /// Interconnect topology for cross-lane accesses.
    pub crosslane_topology: CrossLaneTopology,
}

impl IndexedSrfConfig {
    /// The ISRF1 indexing parameters from Table 3.
    pub fn isrf1() -> Self {
        IndexedSrfConfig {
            addr_fifo_entries: 8,
            inlane_words_per_cycle: 1,
            crosslane_words_per_cycle: 1,
            inlane_latency: 4,
            crosslane_latency: 6,
            crosslane: true,
            network_ports_per_bank: 1,
            crosslane_topology: CrossLaneTopology::Crossbar,
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
    /// Total SRF capacity in bytes across all banks (128 KB in the paper).
    pub capacity_bytes: usize,
    /// Words accessed per lane by one sequential SRF access (`m` = 4).
    pub words_per_seq_access: usize,
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
            capacity_bytes: 128 * 1024,
            words_per_seq_access: 4,
            subarrays: 4,
            seq_latency: 3,
            stream_buffer_words: 8,
            indexed: None,
        }
    }

    /// Total capacity in words.
    pub fn capacity_words(&self) -> usize {
        self.capacity_bytes / WORD_BYTES as usize
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
        lanes * self.words_per_seq_access
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
    /// Peak bandwidth in words per processor cycle at `clock_ghz`.
    pub fn words_per_cycle(&self, clock_ghz: f64) -> f64 {
        self.peak_gbytes_per_sec / (WORD_BYTES as f64) / clock_ghz
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
    /// Peak bandwidth in words per processor cycle at `clock_ghz`.
    pub fn words_per_cycle(&self, clock_ghz: f64) -> f64 {
        self.peak_gbytes_per_sec / (WORD_BYTES as f64) / clock_ghz
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
    /// System clock in GHz.
    pub clock_ghz: f64,
    /// Compute cluster description.
    pub cluster: ClusterConfig,
    /// SRF organization.
    pub srf: SrfConfig,
    /// Off-chip DRAM channel.
    pub dram: DramConfig,
    /// On-chip cache, present only on the `Cache` configuration.
    pub cache: Option<CacheConfig>,
    /// Kernel-scheduling defaults.
    pub sched: ScheduleConfig,
    /// Fixed per-invocation kernel overhead in cycles: sequencer dispatch
    /// plus pre/post-loop kernel code (part of the "kernel overheads"
    /// component of Figure 12).
    pub kernel_dispatch_cycles: u32,
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
            clock_ghz: 1.0,
            cluster: ClusterConfig::default(),
            srf: SrfConfig::sequential(),
            dram: DramConfig::default(),
            cache: None,
            sched: ScheduleConfig::default(),
            kernel_dispatch_cycles: 32,
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
        self.lanes as f64 * self.cluster.fu_count as f64 * self.clock_ghz
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
    /// wider than the arbiter's 64-lane / 64-sub-array masks, or zero-sized
    /// buffers/FIFOs.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.lanes == 0 {
            return Err(ConfigError::new("machine must have at least one lane"));
        }
        if self.clock_ghz <= 0.0 {
            return Err(ConfigError::new("clock must be positive"));
        }
        if self.cluster.fu_count == 0 {
            return Err(ConfigError::new("clusters need at least one FU"));
        }
        let srf = &self.srf;
        if srf.capacity_words() == 0 || !srf.capacity_words().is_multiple_of(self.lanes) {
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
        if srf.words_per_seq_access == 0 {
            return Err(ConfigError::new("sequential access width must be nonzero"));
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
            if idx.crosslane && idx.network_ports_per_bank == 0 {
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
            if cache.sets_per_bank() == 0 {
                return Err(ConfigError::new(
                    "cache must have at least one set per bank",
                ));
            }
        }
        Ok(())
    }
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
            assert_eq!(m.clock_ghz, 1.0);
            assert_eq!(m.peak_gflops(), 32.0);
            assert_eq!(m.srf.capacity_bytes, 128 * 1024);
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
        assert_eq!(i1.crosslane_words_per_cycle, i4.crosslane_words_per_cycle);
        assert_eq!(i1.inlane_latency, 4);
        assert_eq!(i1.crosslane_latency, 6);
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
        assert_eq!(c.words_per_cycle(1.0), 4.0);
        // 128 KB / (2 words * 4 B) = 16384 lines; /4 ways /4 banks = 1024 sets.
        assert_eq!(c.sets_per_bank(), 1024);
    }

    #[test]
    fn dram_bandwidth_in_words() {
        let d = DramConfig::default();
        let wpc = d.words_per_cycle(1.0);
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
        m.srf.capacity_bytes = 1000; // 250 words, not divisible by 8 banks
        assert!(m.validate().is_err());

        let mut m = MachineConfig::preset(ConfigName::Cache);
        m.cache.as_mut().unwrap().associativity = 0;
        assert!(m.validate().is_err());
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
