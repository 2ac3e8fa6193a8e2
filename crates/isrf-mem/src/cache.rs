//! The on-chip vector cache of the `Cache` configuration (Table 3).
//!
//! Organization: 128 KB, 4-way set associative, 4 independent banks,
//! 2-word (8-byte) lines, LRU replacement, write-allocate/write-back.
//! Short lines follow the vector-cache studies the paper cites (\[22, 23\]):
//! with little spatial locality in gathered streams, long lines waste
//! bandwidth.
//!
//! The cache is a *timing and traffic* model: data lives in
//! [`crate::memory::Memory`]; the cache tracks only tags, so a probe
//! reports hit/miss and any dirty eviction, which the memory system turns
//! into DRAM traffic.

use isrf_core::config::CacheConfig;
use isrf_core::snap::{Dec, Enc, SnapError};

use crate::Divisor;

/// Result of one word-granularity cache probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeResult {
    /// The word was present (no DRAM fill needed).
    pub hit: bool,
    /// A dirty line was evicted (DRAM writeback needed).
    pub writeback: bool,
}

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    tag: u32,
    valid: bool,
    dirty: bool,
    /// Higher = more recently used.
    lru: u64,
}

/// Tag-only simulation of the banked, set-associative vector cache.
#[derive(Debug, Clone)]
pub struct VectorCache {
    line_words: usize,
    banks: usize,
    sets_per_bank: usize,
    ways: usize,
    /// Every line in one allocation, bank-major: way `w` of set `s` of bank
    /// `b` is `lines[(b * sets_per_bank + s) * ways + w]`.
    lines: Vec<Line>,
    use_counter: u64,
    hits: u64,
    misses: u64,
    /// `line_words`, `banks` and `sets_per_bank` as divisors of a probe's
    /// address.
    div: [Divisor; 3],
}

impl VectorCache {
    /// Build a cache from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero-sized parameters (use
    /// [`isrf_core::MachineConfig::validate`] first).
    pub fn new(cfg: &CacheConfig) -> Self {
        let sets_per_bank = cfg.sets_per_bank();
        assert!(sets_per_bank > 0, "cache must have at least one set");
        VectorCache {
            line_words: cfg.line_words,
            banks: cfg.banks,
            sets_per_bank,
            ways: cfg.associativity,
            lines: vec![Line::default(); cfg.banks * sets_per_bank * cfg.associativity],
            use_counter: 0,
            hits: 0,
            misses: 0,
            div: [cfg.line_words, cfg.banks, sets_per_bank].map(|d| Divisor::new(d as u32)),
        }
    }

    /// Words per line.
    pub fn line_words(&self) -> usize {
        self.line_words
    }

    /// Set associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Hits observed so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses observed so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit rate over all probes (0 if never probed).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Which bank serves `word_addr` (line-interleaved across banks).
    pub fn bank_of(&self, word_addr: u32) -> usize {
        self.locate(word_addr).0
    }

    /// The `(bank, set, tag)` of `word_addr`: line `word_addr / line_words`
    /// is interleaved across banks, then across a bank's sets.
    fn locate(&self, word_addr: u32) -> (usize, usize, u32) {
        let [line_words, banks, sets] = self.div;
        let (line, _) = line_words.div_rem(word_addr);
        let (in_bank, bank) = banks.div_rem(line);
        let (tag, set) = sets.div_rem(in_bank);
        (bank as usize, set as usize, tag)
    }

    /// Probe (and update) the cache for a word access.
    ///
    /// On a miss the line is allocated (write-allocate for stores), evicting
    /// the LRU way; the result reports whether the victim was dirty.
    pub fn probe(&mut self, word_addr: u32, write: bool) -> ProbeResult {
        let (bank, set_idx, tag) = self.locate(word_addr);
        self.use_counter += 1;
        let counter = self.use_counter;
        let at = (bank * self.sets_per_bank + set_idx) * self.ways;
        let set = &mut self.lines[at..at + self.ways];

        if let Some(line) = set.iter_mut().find(|l| l.valid && l.tag == tag) {
            line.lru = counter;
            line.dirty |= write;
            self.hits += 1;
            return ProbeResult {
                hit: true,
                writeback: false,
            };
        }

        // Miss: evict LRU (invalid lines have lru 0 and win).
        self.misses += 1;
        let victim = set
            .iter_mut()
            .min_by_key(|l| if l.valid { l.lru } else { 0 })
            .expect("cache sets are non-empty");
        let writeback = victim.valid && victim.dirty;
        *victim = Line {
            tag,
            valid: true,
            dirty: write,
            lru: counter,
        };
        ProbeResult {
            hit: false,
            writeback,
        }
    }

    /// Serialize the dynamic cache state (tags, LRU stamps, statistics).
    /// Geometry is not written: the decoder's cache must already be built
    /// from the same configuration.
    pub(crate) fn encode_state(&self, e: &mut Enc) {
        e.u64(self.use_counter);
        e.u64(self.hits);
        e.u64(self.misses);
        e.usize(self.banks);
        e.usize(self.sets_per_bank);
        e.usize(self.ways);
        for line in &self.lines {
            e.u32(line.tag);
            e.bool(line.valid);
            e.bool(line.dirty);
            e.u64(line.lru);
        }
    }

    /// Overwrite the dynamic cache state from [`VectorCache::encode_state`]
    /// bytes. Fails with [`SnapError::Mismatch`] when the recorded geometry
    /// differs from this cache's.
    pub(crate) fn decode_state(&mut self, d: &mut Dec) -> Result<(), SnapError> {
        let use_counter = d.u64()?;
        let hits = d.u64()?;
        let misses = d.u64()?;
        let (banks, sets_per_bank, ways) = (d.usize()?, d.usize()?, d.usize()?);
        if (banks, sets_per_bank, ways) != (self.banks, self.sets_per_bank, self.ways) {
            return Err(SnapError::Mismatch(format!(
                "cache geometry {banks}x{sets_per_bank}x{ways} != \
                 {}x{}x{}",
                self.banks, self.sets_per_bank, self.ways
            )));
        }
        self.use_counter = use_counter;
        self.hits = hits;
        self.misses = misses;
        for line in &mut self.lines {
            line.tag = d.u32()?;
            line.valid = d.bool()?;
            line.dirty = d.bool()?;
            line.lru = d.u64()?;
        }
        Ok(())
    }

    /// Invalidate all contents and reset statistics.
    pub fn flush(&mut self) {
        self.lines.fill(Line::default());
        self.use_counter = 0;
        self.hits = 0;
        self.misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cache() -> VectorCache {
        // 4 banks * 2 sets * 2 ways * 2-word lines = 32 words.
        VectorCache::new(&CacheConfig {
            capacity_bytes: 32 * 4,
            associativity: 2,
            banks: 4,
            line_words: 2,
            peak_gbytes_per_sec: 16.0,
            hit_latency: 8,
        })
    }

    #[test]
    fn paper_cache_geometry() {
        let c = VectorCache::new(&CacheConfig::default());
        assert_eq!(c.sets_per_bank, 1024);
        assert_eq!(c.ways(), 4);
    }

    /// Shift and mask place a line where the division form does, on the
    /// preset (all powers of two) and on three banks of 3 sets, where
    /// `locate` divides. The lock-step test of the memory system shares
    /// this cache with its reference, so only this test holds the mapping.
    #[test]
    fn locate_matches_the_division_form() {
        let three_banks = CacheConfig {
            capacity_bytes: 3 * 3 * 2 * 4 * 4,
            associativity: 2,
            banks: 3,
            line_words: 4,
            ..CacheConfig::default()
        };
        for cfg in [CacheConfig::default(), three_banks] {
            let c = VectorCache::new(&cfg);
            let sets = cfg.sets_per_bank();
            let addrs = (0..5000u32).chain([u32::MAX - 1, u32::MAX, 0x3F_FFFF, 1 << 31]);
            for a in addrs {
                let line = a as usize / cfg.line_words;
                let want = (
                    line % cfg.banks,
                    (line / cfg.banks) % sets,
                    (line / cfg.banks / sets) as u32,
                );
                assert_eq!(c.locate(a), want, "address {a} on {cfg:?}");
            }
        }
    }

    #[test]
    fn first_touch_misses_then_hits() {
        let mut c = small_cache();
        assert!(!c.probe(0, false).hit);
        assert!(c.probe(0, false).hit);
        assert!(c.probe(1, false).hit, "same 2-word line");
        assert!(!c.probe(2, false).hit, "next line");
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 2);
    }

    #[test]
    fn line_interleaving_across_banks() {
        let c = small_cache();
        assert_eq!(c.bank_of(0), 0);
        assert_eq!(c.bank_of(1), 0);
        assert_eq!(c.bank_of(2), 1);
        assert_eq!(c.bank_of(8), 0);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = small_cache();
        // All these map to bank 0, set 0: line addresses 0, 8, 16 (stride
        // banks*sets*line_words = 16 words).
        c.probe(0, false);
        c.probe(16, false);
        c.probe(0, false); // touch 0 again so 16 is LRU
        c.probe(32, false); // evicts 16
        assert!(c.probe(0, false).hit);
        assert!(!c.probe(16, false).hit, "16 was evicted");
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = small_cache();
        c.probe(0, true); // dirty
        c.probe(16, false);
        let r = c.probe(32, false); // evicts line 0 (LRU, dirty)
        assert!(!r.hit);
        assert!(r.writeback);
        // Clean eviction does not write back.
        let r = c.probe(48, false);
        assert!(!r.writeback);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = small_cache();
        c.probe(0, false);
        c.probe(0, true); // hit, now dirty
        c.probe(16, false);
        let r = c.probe(32, false); // evict line 0
        assert!(r.writeback);
    }

    #[test]
    fn flush_resets() {
        let mut c = small_cache();
        c.probe(0, true);
        c.flush();
        assert_eq!(c.hits() + c.misses(), 0);
        assert!(!c.probe(0, false).hit);
        assert!(!c.probe(32, false).writeback, "dirty state cleared");
    }

    #[test]
    fn hit_rate() {
        let mut c = small_cache();
        assert_eq!(c.hit_rate(), 0.0);
        c.probe(0, false);
        c.probe(0, false);
        assert!((c.hit_rate() - 0.5).abs() < 1e-12);
    }
}
