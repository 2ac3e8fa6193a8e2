//! Functional off-chip memory: a flat, word-addressed store.
//!
//! Timing is modelled separately by [`crate::system::MemorySystem`]; this
//! type only holds data. Addresses are word addresses (not bytes), matching
//! the 32-bit word machine.

use isrf_core::snap::{read_sections, write_sections, Dec, Enc, SnapError};
use isrf_core::Word;

/// Words per lazily-allocated chunk (256 KB). Benchmarks place their
/// regions at well-separated bases across a large address space; chunking
/// keeps the cost of touching a high address proportional to the data
/// actually written instead of the span below it.
const CHUNK_WORDS: usize = 1 << 16;

/// A flat, word-addressed functional memory.
///
/// Backed by demand-allocated fixed-size chunks: unwritten regions (and
/// the gaps between benchmark data regions) cost nothing, reads of
/// unbacked locations return zero.
#[derive(Debug, Clone, Default)]
pub struct Memory {
    chunks: Vec<Option<Box<[Word]>>>,
    /// High-water mark: one past the highest address ever written.
    len: usize,
}

impl Memory {
    /// Maximum supported word address (64 M words = 256 MB), a guard
    /// against runaway addresses from buggy kernels.
    pub const MAX_WORDS: usize = 64 << 20;

    /// Create an empty memory.
    pub fn new() -> Self {
        Memory::default()
    }

    /// Number of words currently backed (high-water mark of writes).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The chunk holding `addr`, allocated (zeroed) on first touch.
    fn chunk_mut(&mut self, addr: usize) -> &mut [Word] {
        assert!(
            addr < Self::MAX_WORDS,
            "word address {addr:#x} out of range"
        );
        let c = addr / CHUNK_WORDS;
        if c >= self.chunks.len() {
            self.chunks.resize_with(c + 1, || None);
        }
        self.chunks[c].get_or_insert_with(|| vec![0; CHUNK_WORDS].into_boxed_slice())
    }

    /// Read the word at `addr` (unwritten locations read as zero).
    #[inline]
    pub fn read(&self, addr: u32) -> Word {
        let a = addr as usize;
        match self.chunks.get(a / CHUNK_WORDS) {
            Some(Some(chunk)) => chunk[a % CHUNK_WORDS],
            _ => 0,
        }
    }

    /// Write `value` at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` exceeds [`Memory::MAX_WORDS`].
    #[inline]
    pub fn write(&mut self, addr: u32, value: Word) {
        let a = addr as usize;
        self.chunk_mut(a)[a % CHUNK_WORDS] = value;
        self.len = self.len.max(a + 1);
    }

    /// Read `data.len()` consecutive words starting at `base`, a chunk's
    /// slice at a time (zeros where no chunk is backed).
    pub fn read_block_into(&self, base: u32, mut data: &mut [Word]) {
        let mut a = base as usize;
        while !data.is_empty() {
            let off = a % CHUNK_WORDS;
            let n = data.len().min(CHUNK_WORDS - off);
            let (head, rest) = std::mem::take(&mut data).split_at_mut(n);
            match self.chunks.get(a / CHUNK_WORDS) {
                Some(Some(chunk)) => head.copy_from_slice(&chunk[off..off + n]),
                _ => head.fill(0),
            }
            (data, a) = (rest, a + n);
        }
    }

    /// Read `count` consecutive words starting at `base`.
    pub fn read_block(&self, base: u32, count: usize) -> Vec<Word> {
        let mut v = vec![0; count];
        self.read_block_into(base, &mut v);
        v
    }

    /// Write a block of consecutive words starting at `base`.
    pub fn write_block(&mut self, base: u32, data: &[Word]) {
        let mut src = data;
        let mut a = base as usize;
        while !src.is_empty() {
            let off = a % CHUNK_WORDS;
            let n = src.len().min(CHUNK_WORDS - off);
            self.chunk_mut(a)[off..off + n].copy_from_slice(&src[..n]);
            src = &src[n..];
            a += n;
        }
        self.len = self.len.max(base as usize + data.len());
    }

    /// Number of chunks currently backed by storage (the touched set —
    /// sparse gaps between written regions allocate nothing).
    pub fn touched_chunks(&self) -> usize {
        self.chunks.iter().filter(|c| c.is_some()).count()
    }

    /// Serialize the memory image sparsely: only touched chunks are
    /// written, each as its own `c<index>` section after a `meta` section
    /// carrying the high-water mark and touched-chunk count.
    pub fn encode_state(&self) -> Vec<u8> {
        let mut secs: Vec<(String, Vec<u8>)> = Vec::new();
        let mut meta = Enc::new();
        meta.usize(self.len);
        meta.usize(self.touched_chunks());
        secs.push(("meta".into(), meta.into_bytes()));
        for (i, chunk) in self.chunks.iter().enumerate() {
            if let Some(chunk) = chunk {
                let mut ce = Enc::new();
                for &w in chunk.iter() {
                    ce.u32(w);
                }
                secs.push((format!("c{i}"), ce.into_bytes()));
            }
        }
        let mut e = Enc::new();
        write_sections(&mut e, &secs);
        e.into_bytes()
    }

    /// Replace this memory's contents with a snapshot produced by
    /// [`Memory::encode_state`]. Untouched chunks stay unallocated.
    pub fn decode_state(&mut self, bytes: &[u8]) -> Result<(), SnapError> {
        let secs = read_sections(bytes)?;
        let Some(meta) = secs.first().filter(|s| s.name == "meta") else {
            return Err(SnapError::Mismatch("memory snapshot missing meta".into()));
        };
        let mut md = Dec::new(&meta.bytes);
        let len = md.usize()?;
        let touched = md.usize()?;
        md.finish()?;
        if touched != secs.len() - 1 {
            return Err(SnapError::Mismatch(format!(
                "memory snapshot claims {touched} chunks but carries {}",
                secs.len() - 1
            )));
        }
        let mut fresh = Memory {
            chunks: Vec::new(),
            len,
        };
        for sec in &secs[1..] {
            let idx: usize = sec
                .name
                .strip_prefix('c')
                .and_then(|s| s.parse().ok())
                .filter(|&i| i < Self::MAX_WORDS / CHUNK_WORDS)
                .ok_or_else(|| {
                    SnapError::Mismatch(format!("bad memory chunk section {:?}", sec.name))
                })?;
            let mut cd = Dec::new(&sec.bytes);
            let mut chunk = vec![0; CHUNK_WORDS].into_boxed_slice();
            for w in chunk.iter_mut() {
                *w = cd.u32()?;
            }
            cd.finish()?;
            if idx >= fresh.chunks.len() {
                fresh.chunks.resize_with(idx + 1, || None);
            }
            fresh.chunks[idx] = Some(chunk);
        }
        *self = fresh;
        Ok(())
    }

    /// Gather the words at the given addresses, in order.
    pub fn gather(&self, addrs: &[u32]) -> Vec<Word> {
        addrs.iter().map(|&a| self.read(a)).collect()
    }

    /// Scatter `data[i]` to `addrs[i]`.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn scatter(&mut self, addrs: &[u32], data: &[Word]) {
        assert_eq!(addrs.len(), data.len(), "scatter length mismatch");
        for (&a, &d) in addrs.iter().zip(data) {
            self.write(a, d);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_reads_zero() {
        let m = Memory::new();
        assert_eq!(m.read(12345), 0);
        assert!(m.is_empty());
    }

    #[test]
    fn write_then_read() {
        let mut m = Memory::new();
        m.write(10, 42);
        assert_eq!(m.read(10), 42);
        assert_eq!(m.read(9), 0);
        assert_eq!(m.len(), 11);
    }

    #[test]
    fn block_roundtrip() {
        let mut m = Memory::new();
        m.write_block(100, &[1, 2, 3]);
        assert_eq!(m.read_block(100, 3), vec![1, 2, 3]);
        assert_eq!(m.read_block(99, 5), vec![0, 1, 2, 3, 0]);
    }

    #[test]
    fn block_crosses_chunk_boundary() {
        let mut m = Memory::new();
        let base = (CHUNK_WORDS - 2) as u32;
        m.write_block(base, &[7, 8, 9, 10]);
        assert_eq!(m.read_block(base, 4), vec![7, 8, 9, 10]);
        assert_eq!(m.len(), CHUNK_WORDS + 2);
        // Per-word reads resolve the same data across the boundary.
        assert_eq!(m.read(base + 3), 10);
    }

    #[test]
    fn sparse_writes_do_not_back_the_gap() {
        let mut m = Memory::new();
        m.write(0, 1);
        m.write((Memory::MAX_WORDS - 1) as u32, 2);
        assert_eq!(m.len(), Memory::MAX_WORDS);
        assert_eq!(m.read(Memory::MAX_WORDS as u32 / 2), 0);
        // Only two chunks are actually allocated.
        let backed = m.chunks.iter().filter(|c| c.is_some()).count();
        assert_eq!(backed, 2);
    }

    #[test]
    fn reads_straddling_chunk_boundaries_resolve_per_chunk() {
        let mut m = Memory::new();
        // Back only the chunk *below* the boundary; the straddling read
        // must mix real data with zeros from the unbacked side.
        let base = (CHUNK_WORDS - 2) as u32;
        m.write(base, 5);
        m.write(base + 1, 6);
        assert_eq!(m.read_block(base, 4), vec![5, 6, 0, 0]);
        assert_eq!(m.touched_chunks(), 1);
        // Now back only the chunk above and read across again.
        m.write(base + 2, 7);
        assert_eq!(m.read_block(base, 4), vec![5, 6, 7, 0]);
        assert_eq!(m.touched_chunks(), 2);
    }

    /// A block read copies chunk slices: across a boundary, through a whole
    /// unbacked chunk and into a backed one, it reads what word-by-word
    /// reads do.
    #[test]
    fn block_read_spans_backed_and_unbacked_chunks() {
        let mut m = Memory::new();
        let c = CHUNK_WORDS as u32;
        m.write_block(c - 3, &[1, 2, 3, 4, 5]);
        m.write_block(3 * c, &[6, 7]);
        let base = c - 4;
        let words = 2 * c as usize + 8;
        let want: Vec<Word> = (0..words as u32).map(|i| m.read(base + i)).collect();
        assert_eq!(m.read_block(base, words), want);
        assert_eq!(&want[..6], [0, 1, 2, 3, 4, 5]);
        assert_eq!(&want[words - 4..], [6, 7, 0, 0]);
        assert_eq!(m.touched_chunks(), 3, "chunk 2 stays unbacked");
        let mut dirty = vec![9; words];
        m.read_block_into(base, &mut dirty);
        assert_eq!(dirty, want, "unbacked words are zeroed, not left");
    }

    #[test]
    fn snapshot_round_trips_sparse_high_base_region() {
        let mut m = Memory::new();
        let high = (Memory::MAX_WORDS - CHUNK_WORDS) as u32;
        m.write_block(high, &[11, 22, 33]);
        m.write(3, 44);
        let bytes = m.encode_state();
        let mut back = Memory::new();
        back.decode_state(&bytes).unwrap();
        assert_eq!(back.len(), m.len());
        assert_eq!(back.read(3), 44);
        assert_eq!(back.read_block(high, 3), vec![11, 22, 33]);
        assert_eq!(back.read(high / 2), 0, "gap stays zero");
        // The gap stays unallocated after restore, too.
        assert_eq!(back.touched_chunks(), 2);
        // Re-serializing the restored image is byte-identical.
        assert_eq!(back.encode_state(), bytes);
    }

    #[test]
    fn snapshot_chunk_count_matches_touched_set() {
        let mut m = Memory::new();
        m.write(0, 1);
        m.write((3 * CHUNK_WORDS + 17) as u32, 2);
        m.write((9 * CHUNK_WORDS) as u32, 3);
        assert_eq!(m.touched_chunks(), 3);
        let secs = read_sections(&m.encode_state()).unwrap();
        // One meta section plus exactly one section per touched chunk.
        assert_eq!(secs.len(), 1 + m.touched_chunks());
        let names: Vec<&str> = secs.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["meta", "c0", "c3", "c9"]);
        let mut md = Dec::new(&secs[0].bytes);
        assert_eq!(md.usize().unwrap(), m.len());
        assert_eq!(md.usize().unwrap(), 3);
    }

    #[test]
    fn snapshot_of_empty_memory_round_trips() {
        let m = Memory::new();
        let bytes = m.encode_state();
        let mut back = Memory::new();
        back.write(5, 9); // stale contents must be discarded
        back.decode_state(&bytes).unwrap();
        assert!(back.is_empty());
        assert_eq!(back.read(5), 0);
        assert_eq!(back.touched_chunks(), 0);
    }

    #[test]
    fn corrupt_memory_snapshot_is_rejected() {
        let mut m = Memory::new();
        m.write(1, 2);
        let bytes = m.encode_state();
        assert!(m.decode_state(&bytes[..bytes.len() - 1]).is_err());
        assert!(m.decode_state(&[0u8; 4]).is_err());
        // A chunk index past the address space is refused before the chunk
        // table is sized for it.
        let mut secs: Vec<(String, Vec<u8>)> = read_sections(&bytes)
            .unwrap()
            .into_iter()
            .map(|s| (s.name, s.bytes))
            .collect();
        secs[1].0 = format!("c{}", 1u64 << 40);
        let mut e = Enc::new();
        write_sections(&mut e, &secs);
        assert!(m.decode_state(&e.into_bytes()).is_err());
    }

    #[test]
    fn gather_scatter_roundtrip() {
        let mut m = Memory::new();
        let addrs = [5u32, 1000, 70000, 5];
        m.scatter(&addrs, &[10, 20, 30, 40]);
        // Later scatter entries win on duplicate addresses.
        assert_eq!(m.gather(&addrs), vec![40, 20, 30, 40]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_write_panics() {
        let mut m = Memory::new();
        m.write(Memory::MAX_WORDS as u32, 1);
    }

    #[test]
    #[should_panic(expected = "scatter length mismatch")]
    fn scatter_length_mismatch_panics() {
        let mut m = Memory::new();
        m.scatter(&[1, 2], &[3]);
    }
}
