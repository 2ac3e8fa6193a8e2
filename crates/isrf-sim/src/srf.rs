//! SRF storage: banked, sub-arrayed, software-managed.
//!
//! The SRF holds `capacity / lanes` words per bank. Software allocates
//! *ranges* — per-bank word intervals present at the same offset in every
//! bank — and lays streams out across them.
//!
//! ## Stream layout convention
//!
//! A stream over a range stores its data **record-interleaved**: record `r`
//! lives in bank `r mod N`, at per-bank word offset
//! `base + (r / N) * record_words`. Consecutive records of one bank are
//! contiguous, so a sequential block access (`m` contiguous words per bank)
//! fetches the next `m / record_words` records of every lane at once —
//! exactly the hardware's wide single-ported access. With `record_words ==
//! 1` this is plain word interleaving.

use isrf_core::config::MachineConfig;
use isrf_core::snap::{Dec, Enc, SnapError};
use isrf_core::Word;

use crate::stream::StreamBinding;

/// A per-bank word interval, replicated at the same offset in every bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SrfRange {
    /// Starting word offset within each bank.
    pub base: u32,
    /// Words reserved per bank.
    pub words_per_bank: u32,
}

impl SrfRange {
    /// Total capacity of the range in words across all banks.
    pub fn total_words(&self, lanes: usize) -> u32 {
        self.words_per_bank * lanes as u32
    }
}

/// Banked SRF storage with a simple bump allocator for ranges.
#[derive(Debug, Clone)]
pub struct Srf {
    lanes: usize,
    bank_words: u32,
    subarray_words: u32,
    /// `log2(subarray_words)` when it is a power of two, letting
    /// [`Srf::subarray_of`] shift instead of divide on the hot path.
    subarray_shift: Option<u32>,
    /// Every bank in one lane-major allocation: word `offset` of bank
    /// `lane` is `data[lane * bank_words + offset]`.
    data: Vec<Word>,
    next_free: u32,
}

/// Walks a binding's words in stream order, yielding each word's `(bank,
/// per-bank offset)`. Only positioning ([`StreamWalk::new`]) and the step
/// from one run of a windowed binding to the next divide; within a run the
/// bank rotates and the offset advances by increments. The walk does not
/// stop at the binding's end: past it, it continues the run/stride pattern.
#[derive(Debug, Clone)]
pub(crate) struct StreamWalk {
    /// The binding walked.
    pub(crate) b: StreamBinding,
    lanes: u32,
    /// Range record the current run starts at.
    run_start: u32,
    /// Records left in the current run, the current one included.
    run_left: u32,
    /// Bank of the current record, per-bank offset of its first word, and
    /// the word within it that comes next.
    lane: u32,
    off: u32,
    word: u32,
}

impl StreamWalk {
    /// Position a walk over `b` at its stream word `k`.
    pub(crate) fn new(b: &StreamBinding, lanes: usize, k: u32) -> Self {
        let record = k / b.record_words;
        let mut w = StreamWalk {
            b: *b,
            lanes: lanes as u32,
            run_start: b.start_record + (record / b.run_records) * b.stride_records,
            run_left: 0,
            lane: 0,
            off: 0,
            word: k % b.record_words,
        };
        w.enter_run(record % b.run_records);
        w
    }

    /// Point at record `skip` of the run starting at `run_start`.
    fn enter_run(&mut self, skip: u32) {
        let record = self.run_start + skip;
        self.run_left = self.b.run_records - skip;
        self.lane = record % self.lanes;
        self.off = self.b.range.base + (record / self.lanes) * self.b.record_words;
    }

    /// The `(bank, per-bank offset)` of the word the walk stands at; then
    /// advance to the next.
    #[inline]
    pub(crate) fn step(&mut self) -> (usize, u32) {
        let at = (self.lane as usize, self.off + self.word);
        self.word += 1;
        if self.word == self.b.record_words {
            self.word = 0;
            self.run_left -= 1;
            self.lane += 1;
            if self.run_left == 0 {
                self.run_start += self.b.stride_records;
                self.enter_run(0);
            } else if self.lane == self.lanes {
                self.lane = 0;
                self.off += self.b.record_words;
            }
        }
        at
    }
}

impl Srf {
    /// Build the SRF for a machine configuration.
    pub fn new(cfg: &MachineConfig) -> Self {
        let bank_words = cfg.srf.bank_words(cfg.lanes) as u32;
        let subarray_words = cfg.srf.subarray_words(cfg.lanes) as u32;
        Srf {
            lanes: cfg.lanes,
            bank_words,
            subarray_words,
            subarray_shift: subarray_words
                .is_power_of_two()
                .then(|| subarray_words.trailing_zeros()),
            data: vec![0; bank_words as usize * cfg.lanes],
            next_free: 0,
        }
    }

    /// Number of banks/lanes.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Words per bank.
    pub fn bank_words(&self) -> u32 {
        self.bank_words
    }

    /// Words per sub-array.
    pub fn subarray_words(&self) -> u32 {
        self.subarray_words
    }

    /// Which sub-array a per-bank word offset falls in.
    pub fn subarray_of(&self, offset: u32) -> usize {
        match self.subarray_shift {
            Some(s) => (offset >> s) as usize,
            None => (offset / self.subarray_words) as usize,
        }
    }

    /// Number of sub-arrays per bank.
    pub fn subarrays(&self) -> usize {
        (self.bank_words / self.subarray_words) as usize
    }

    /// Allocate a range of `words_per_bank` words in every bank.
    ///
    /// # Panics
    ///
    /// Panics when the SRF is out of space — stream programs are sized by
    /// the caller (strip-mining exists precisely to make working sets fit).
    pub fn alloc(&mut self, words_per_bank: u32) -> SrfRange {
        assert!(
            self.next_free + words_per_bank <= self.bank_words,
            "SRF overflow: {} + {} > {} words per bank",
            self.next_free,
            words_per_bank,
            self.bank_words
        );
        let r = SrfRange {
            base: self.next_free,
            words_per_bank,
        };
        self.next_free += words_per_bank;
        r
    }

    /// Release all allocations (contents are preserved; ranges handed out
    /// earlier must no longer be used).
    pub fn free_all(&mut self) {
        self.next_free = 0;
    }

    /// Words per bank still unallocated.
    pub fn free_words(&self) -> u32 {
        self.bank_words - self.next_free
    }

    /// Read bank `lane` at `offset`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn read(&self, lane: usize, offset: u32) -> Word {
        self.bank(lane)[offset as usize]
    }

    /// Write bank `lane` at `offset`.
    #[inline]
    pub fn write(&mut self, lane: usize, offset: u32, value: Word) {
        self.bank_mut(lane)[offset as usize] = value;
    }

    /// The words of bank `lane`.
    #[inline]
    pub(crate) fn bank(&self, lane: usize) -> &[Word] {
        &self.data[lane * self.bank_words as usize..][..self.bank_words as usize]
    }

    /// The words of bank `lane`, mutably.
    #[inline]
    pub(crate) fn bank_mut(&mut self, lane: usize) -> &mut [Word] {
        &mut self.data[lane * self.bank_words as usize..][..self.bank_words as usize]
    }

    /// Write `data` over the leading words of binding `b`, in stream order
    /// (a completed load landing, test set-up).
    pub fn write_stream(&mut self, b: &StreamBinding, data: &[Word]) {
        let mut walk = StreamWalk::new(b, self.lanes, 0);
        for &v in data {
            let (lane, off) = walk.step();
            self.write(lane, off, v);
        }
    }

    /// Append the `b.words()` words of binding `b` to `out`, in stream
    /// order (store staging, gather indices, result read-back).
    pub fn read_stream(&self, b: &StreamBinding, out: &mut Vec<Word>) {
        let mut walk = StreamWalk::new(b, self.lanes, 0);
        out.reserve(b.words() as usize);
        for _ in 0..b.words() {
            let (lane, off) = walk.step();
            out.push(self.read(lane, off));
        }
    }

    /// Serialize the dynamic SRF state: bank contents and the allocator
    /// high-water mark. Geometry is recorded only for validation — the
    /// decoder's SRF must already be built from the same configuration.
    pub(crate) fn encode_state(&self, e: &mut Enc) {
        e.u32(self.next_free);
        e.usize(self.lanes);
        e.u32(self.bank_words);
        for &w in &self.data {
            e.u32(w);
        }
    }

    /// Overwrite the dynamic SRF state from [`Srf::encode_state`] bytes.
    pub(crate) fn decode_state(&mut self, d: &mut Dec) -> Result<(), SnapError> {
        let next_free = d.u32()?;
        let (lanes, bank_words) = (d.usize()?, d.u32()?);
        if (lanes, bank_words) != (self.lanes, self.bank_words) {
            return Err(SnapError::Mismatch(format!(
                "SRF geometry {lanes} lanes x {bank_words} words != {} x {}",
                self.lanes, self.bank_words
            )));
        }
        self.next_free = next_free;
        for w in &mut self.data {
            *w = d.u32()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isrf_core::config::ConfigName;

    fn srf() -> Srf {
        Srf::new(&MachineConfig::preset(ConfigName::Isrf4))
    }

    #[test]
    fn geometry() {
        let s = srf();
        assert_eq!(s.lanes(), 8);
        assert_eq!(s.bank_words(), 4096);
        assert_eq!(s.subarray_words(), 1024);
        assert_eq!(s.subarray_of(0), 0);
        assert_eq!(s.subarray_of(1023), 0);
        assert_eq!(s.subarray_of(1024), 1);
        assert_eq!(s.subarray_of(4095), 3);
    }

    #[test]
    fn alloc_is_bump_and_bounded() {
        let mut s = srf();
        let a = s.alloc(1000);
        let b = s.alloc(3000);
        assert_eq!(a.base, 0);
        assert_eq!(b.base, 1000);
        assert_eq!(s.free_words(), 96);
        s.free_all();
        assert_eq!(s.free_words(), 4096);
    }

    #[test]
    #[should_panic(expected = "SRF overflow")]
    fn alloc_overflow_panics() {
        let mut s = srf();
        s.alloc(5000);
    }

    /// Where stream word `w` of `rw`-word records over `range` lives.
    fn locate(range: SrfRange, rw: u32, w: u32) -> (usize, u32) {
        StreamWalk::new(&StreamBinding::whole(range, rw, 8192), 8, w).step()
    }

    #[test]
    fn word_interleaved_layout() {
        let r = SrfRange {
            base: 100,
            words_per_bank: 64,
        };
        // record_words = 1: word w -> lane w % 8, offset base + w/8.
        assert_eq!(locate(r, 1, 0), (0, 100));
        assert_eq!(locate(r, 1, 7), (7, 100));
        assert_eq!(locate(r, 1, 8), (0, 101));
        assert_eq!(locate(r, 1, 17), (1, 102));
    }

    #[test]
    fn record_interleaved_layout() {
        let r = SrfRange {
            base: 0,
            words_per_bank: 64,
        };
        // 2-word records: record r -> lane r % 8.
        assert_eq!(locate(r, 2, 0), (0, 0));
        assert_eq!(locate(r, 2, 1), (0, 1));
        assert_eq!(locate(r, 2, 2), (1, 0));
        assert_eq!(locate(r, 2, 16), (0, 2));
        assert_eq!(locate(r, 2, 17), (0, 3));
    }

    #[test]
    fn write_and_read_roundtrip() {
        let mut s = srf();
        let b = StreamBinding::whole(s.alloc(16), 4, 25);
        let data: Vec<Word> = (0..100).collect();
        s.write_stream(&b, &data);
        let mut back = Vec::new();
        s.read_stream(&b, &mut back);
        assert_eq!(back, data);
        // Spot-check physical placement: record 9 (words 36..40) in lane 1.
        assert_eq!(s.read(1, b.range.base + 4), 36);
    }

    #[test]
    fn walk_steps_where_positioning_lands() {
        // Whole, strided and periodic (stride 0) windows, on 8 and 4
        // lanes: stepping from word 0 must pass through exactly the places
        // the closed form `base + record / lanes * rw + word`, bank
        // `record % lanes`, gives for every stream word.
        let range = SrfRange {
            base: 40,
            words_per_bank: 512,
        };
        let bindings = [
            StreamBinding::whole(range, 1, 70),
            StreamBinding::whole(range, 4, 19).slice(5, 11),
            StreamBinding::windowed(range, 2, 16, 8, 24, 5),
            StreamBinding::windowed(range, 1, 8, 16, 0, 3),
        ];
        for b in bindings {
            for lanes in [8u32, 4] {
                let mut walk = StreamWalk::new(&b, lanes as usize, 0);
                for k in 0..b.words() + 3 {
                    let record = b.absolute_record(k / b.record_words);
                    let off = range.base + record / lanes * b.record_words + k % b.record_words;
                    let expect = ((record % lanes) as usize, off);
                    assert_eq!(walk.step(), expect, "{b:?} word {k}");
                    let mut positioned = StreamWalk::new(&b, lanes as usize, k);
                    assert_eq!(positioned.step(), expect, "{b:?} positioned at {k}");
                }
            }
        }
    }

    #[test]
    #[should_panic]
    fn out_of_bank_offsets_panic() {
        srf().read(3, 4096);
    }

    #[test]
    fn fft_column_locality() {
        // The 2D-FFT property the ISRF version relies on: a 64x64 complex
        // array stored as 2-word records, element (row, col) = record
        // row*64+col, puts every element of column c in lane c % 8.
        let r = SrfRange {
            base: 0,
            words_per_bank: 1024,
        };
        for col in 0..64u32 {
            for row in 0..64u32 {
                let rec = row * 64 + col;
                let (lane, _) = locate(r, 2, rec * 2);
                assert_eq!(lane, (col % 8) as usize);
            }
        }
    }
}
