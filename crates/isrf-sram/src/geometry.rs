//! Physical SRF geometry shared by the area and energy models.

/// Which SRF design is being costed (Section 4.6's three design points plus
/// the sequential baseline).
///
/// The variants are cumulative in hardware structure:
/// `Sequential ⊂ Inlane1 ⊂ Inlane4 ⊂ CrossLane`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SrfVariant {
    /// Conventional sequentially accessed SRF (Figure 6): one row decoder
    /// shared across all banks, hierarchical bitlines, 128-bit block access
    /// per bank.
    Sequential,
    /// ISRF1: a dedicated row decoder per bank so each lane may access a
    /// different row; one indexed word per cycle per lane.
    Inlane1,
    /// ISRF4 (Figure 7): adds per-sub-array predecode/row-decode, an 8:1
    /// column multiplexer per sub-array, and per-sub-array address busses,
    /// allowing up to `s` independent one-word accesses per bank per cycle.
    Inlane4,
    /// ISRF4 plus cross-lane access: a dedicated index network (fully
    /// connected crossbar) and SRF-side network ports (Figure 8(c)).
    CrossLane,
}

impl SrfVariant {
    /// All variants in increasing hardware order.
    pub const ALL: [SrfVariant; 4] = [
        SrfVariant::Sequential,
        SrfVariant::Inlane1,
        SrfVariant::Inlane4,
        SrfVariant::CrossLane,
    ];
}

/// Physical organization of the SRF SRAM (Figure 6/7).
///
/// The paper's 128 KB example: 8 banks of 16 KB, each split into 4
/// sub-arrays of 4 KB organized as 128 rows x 256 columns, with a 2:1
/// column mux for the 128-bit sequential block access and an additional 8:1
/// mux path for 32-bit indexed access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SrfGeometry {
    /// Number of banks (= lanes).
    pub banks: usize,
    /// Sub-arrays per bank (`s`).
    pub subarrays_per_bank: usize,
    /// Rows per sub-array.
    pub rows: usize,
    /// Columns (bitlines) per sub-array.
    pub cols: usize,
    /// Word width in bits.
    pub word_bits: usize,
    /// Words per sequential block access per bank (`m`).
    pub seq_access_words: usize,
}

impl SrfGeometry {
    /// The paper's 128 KB, 8-bank, 4-sub-array geometry.
    pub fn paper_default() -> Self {
        SrfGeometry {
            banks: 8,
            subarrays_per_bank: 4,
            rows: 128,
            cols: 256,
            word_bits: 32,
            seq_access_words: 4,
        }
    }

    /// Total capacity in bits.
    pub fn capacity_bits(&self) -> usize {
        self.banks * self.subarrays_per_bank * self.rows * self.cols
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bits() / 8
    }

    /// Bits transferred by one sequential block access in one bank.
    pub fn seq_access_bits(&self) -> usize {
        self.seq_access_words * self.word_bits
    }

    /// Column-mux degree for indexed (single-word) access: how many columns
    /// share one output bit when reading a single word from a sub-array.
    pub fn indexed_mux_degree(&self) -> usize {
        (self.cols / self.word_bits).max(1)
    }

    /// Column-mux degree for the sequential block-access path.
    pub fn seq_mux_degree(&self) -> usize {
        (self.cols / self.seq_access_bits()).max(1)
    }

    /// Address bits needed to select a word within a bank.
    pub fn bank_addr_bits(&self) -> u32 {
        let words = (self.subarrays_per_bank * self.rows * self.cols / self.word_bits).max(2);
        (words as f64).log2().ceil() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isrf_core::config::{ConfigName, MachineConfig, SEQ_ACCESS_WORDS, SRF_BYTES};

    #[test]
    fn paper_geometry_is_128kb() {
        let g = SrfGeometry::paper_default();
        assert_eq!(g.capacity_bytes(), 128 * 1024);
        assert_eq!(g.seq_access_bits(), 128);
        assert_eq!(g.indexed_mux_degree(), 8, "8:1 mux per Figure 7");
        assert_eq!(g.seq_mux_degree(), 2);
        assert_eq!(g.bank_addr_bits(), 12); // 4096 words per bank
    }

    #[test]
    fn paper_geometry_is_the_preset_srf() {
        let g = SrfGeometry::paper_default();
        assert_eq!(g.capacity_bytes(), SRF_BYTES);
        assert_eq!(g.seq_access_words, SEQ_ACCESS_WORDS);
        for name in ConfigName::ALL {
            let m = MachineConfig::preset(name);
            assert_eq!((g.banks, g.subarrays_per_bank), (m.lanes, m.srf.subarrays));
        }
    }
}
