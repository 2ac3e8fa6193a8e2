//! Runtime state of machine-level streams during a kernel invocation.
//!
//! Each kernel stream slot is bound to an SRF-resident stream described by
//! a [`StreamBinding`]. A sequential or conditional slot runs as one
//! [`Port`]: the stream descriptor's address walk plus a stream buffer (8
//! words per lane per stream in the paper) behind the one stage-1 SRF
//! arbiter, which moves a block of `m` words per lane on each grant while
//! clusters pop or push one word per access. Indexed streams keep per-lane
//! address FIFOs instead (`indexed.rs`), whose heads are expanded to
//! single-word accesses by the hardware counters described in Section 4.4.
//!
//! A port is a set of *ways*, each an address walk, the words it has left
//! to move and a ring. Sequential streams and per-lane conditional
//! substreams have one way per lane, walking that lane's bank; conditional
//! streams have one global way through the stream in order across the
//! banks, because their elements go to whichever lanes assert their
//! condition. The direction decides only whether a grant moves words
//! SRF → ring or ring → SRF, and the shape of the ways only which way a
//! lane's word belongs to.
//!
//! ## State layout
//!
//! Every buffer here is bounded, so a port owns flat power-of-two rings
//! addressed by free-running counts, the layout indexed streams use, and
//! the kernel moves whole rows (DESIGN.md, "Sequential-path state
//! layout").

use isrf_core::snap::{Dec, Enc, SnapError};
use isrf_core::Word;
use isrf_kernel::ir::StreamKind;

use crate::srf::{Srf, SrfRange, StreamWalk};

/// A machine-level stream: an SRF range plus interpretation.
///
/// A binding may *window* its range: the `k`-th stream record maps to
/// range record `start_record + (k / run_records) * stride_records +
/// (k % run_records)` — contiguous runs of `run_records` records separated
/// by `stride_records`. This expresses the strided access patterns stream
/// machines support in their stream descriptors (e.g. the half-input
/// streams of a constant-geometry FFT stage).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamBinding {
    /// SRF range holding the stream data.
    pub range: SrfRange,
    /// Words per record.
    pub record_words: u32,
    /// Stream length in records (sequential/conditional streams), or the
    /// number of addressable records (indexed streams).
    pub records: u32,
    /// First record of the range this stream covers (lets several
    /// sequential streams window one region, e.g. the FFT half-streams).
    pub start_record: u32,
    /// Records per contiguous run (`records` for an unwindowed stream).
    pub run_records: u32,
    /// Range records between run starts (`run_records` when unwindowed).
    pub stride_records: u32,
}

impl StreamBinding {
    /// Bind a whole range: `records` records of `record_words` starting at
    /// record 0.
    pub fn whole(range: SrfRange, record_words: u32, records: u32) -> Self {
        StreamBinding {
            range,
            record_words,
            records,
            start_record: 0,
            run_records: records.max(1),
            stride_records: records.max(1),
        }
    }

    /// Bind a strided window: `runs` runs of `run` records, run `i`
    /// starting at range record `start + i * stride`.
    pub fn windowed(
        range: SrfRange,
        record_words: u32,
        start: u32,
        run: u32,
        stride: u32,
        runs: u32,
    ) -> Self {
        // stride == 0 is a *periodic* window: every run re-reads the same
        // records (used for repeating constant streams like FFT twiddles).
        assert!(
            run > 0 && (stride == 0 || stride >= run),
            "runs must not overlap"
        );
        StreamBinding {
            range,
            record_words,
            records: run * runs,
            start_record: start,
            run_records: run,
            stride_records: stride,
        }
    }

    /// Narrow a contiguous binding to `records` starting at record
    /// `start` of the range.
    pub fn slice(&self, start: u32, records: u32) -> StreamBinding {
        let mut b = *self;
        b.start_record = start;
        b.records = records;
        b.run_records = records.max(1);
        b.stride_records = records.max(1);
        b
    }

    /// Stream length in words.
    pub fn words(&self) -> u32 {
        self.records * self.record_words
    }

    /// Range record index of the `k`-th stream record.
    pub fn absolute_record(&self, k: u32) -> u32 {
        self.start_record + (k / self.run_records) * self.stride_records + k % self.run_records
    }
}

/// Slot of `count` in lane `lane`'s ring of `1 << shift` entries.
#[inline]
pub(crate) fn slot(lane: usize, count: u32, shift: u32) -> usize {
    (lane << shift) | (count as usize & ((1 << shift) - 1))
}

/// Free-running (wrapping) push/pop counts of one ring: a ring slot is a
/// count masked to the ring length, the occupancy their difference.
#[derive(Debug, Clone, Copy, Default)]
struct RingCur {
    push: u32,
    pop: u32,
}

impl RingCur {
    fn len(self) -> u32 {
        self.push.wrapping_sub(self.pop)
    }
}

/// One ring of `cap` words per way (`1 << shift >= cap` slots each) in a
/// single way-major allocation; input rings keep each word's arrival
/// cycle beside it.
#[derive(Debug, Clone)]
struct Rings {
    words: Vec<Word>,
    /// Arrival cycles, slot for slot; empty for an output ring.
    at: Vec<u64>,
    shift: u32,
    cap: u32,
}

impl Rings {
    fn new(ways: usize, cap: usize, timed: bool) -> Self {
        let cap = u32::try_from(cap).expect("stream buffer capacity fits a u32 count");
        let shift = cap.next_power_of_two().trailing_zeros();
        Rings {
            words: vec![0; ways << shift],
            at: vec![0; if timed { ways << shift } else { 0 }],
            shift,
            cap,
        }
    }

    #[inline]
    fn push(&mut self, way: usize, r: &mut RingCur, at: u64, word: Word) {
        let s = slot(way, r.push, self.shift);
        self.words[s] = word;
        if let Some(t) = self.at.get_mut(s) {
            *t = at;
        }
        r.push = r.push.wrapping_add(1);
    }

    /// Slot of the `i`-th oldest word of way `way`'s ring.
    #[inline]
    fn nth(&self, way: usize, r: RingCur, i: u32) -> usize {
        slot(way, r.pop.wrapping_add(i), self.shift)
    }

    /// Serialize one ring: occupancy, then its words oldest first, each
    /// behind its arrival cycle if the ring keeps them.
    fn encode(&self, way: usize, r: RingCur, e: &mut Enc) {
        e.usize(r.len() as usize);
        for i in 0..r.len() {
            let s = self.nth(way, r, i);
            if let Some(&t) = self.at.get(s) {
                e.u64(t);
            }
            e.u32(self.words[s]);
        }
    }

    /// Refill way `way`'s ring from [`Rings::encode`] bytes.
    fn decode(&mut self, way: usize, d: &mut Dec) -> Result<RingCur, SnapError> {
        let n = d.usize()?;
        if n > self.cap as usize {
            return Err(SnapError::Mismatch(format!(
                "{n} buffered words overflow a {}-word stream buffer",
                self.cap
            )));
        }
        let mut r = RingCur::default();
        for _ in 0..n {
            let at = if self.at.is_empty() { 0 } else { d.u64()? };
            self.push(way, &mut r, at, d.u32()?);
        }
        Ok(r)
    }
}

/// One way of a [`Port`]: the walk standing at its next SRF word, the
/// words it has left to move, and its ring's counts.
#[derive(Debug, Clone)]
struct Way {
    walk: StreamWalk,
    left: u32,
    ring: RingCur,
}

impl Way {
    /// A way at the start of `b`, interleaved over `lanes` banks.
    fn new(b: &StreamBinding, lanes: usize) -> Self {
        Way {
            walk: StreamWalk::new(b, lanes, 0),
            left: b.words(),
            ring: RingCur::default(),
        }
    }

    /// Would a grant of up to `unit` words move anything here? The one
    /// rule: an input asks while it has words left and a free slot, an
    /// output once it holds a whole unit or, on `flush`, any word.
    #[inline]
    fn wants(&self, writes: bool, cap: u32, unit: u32, flush: bool) -> bool {
        let len = self.ring.len();
        match writes {
            false => self.left > 0 && len < cap,
            true => len >= unit || flush && len > 0,
        }
    }
}

/// One way per lane over the records the lane owns.
///
/// For an unwindowed binding with `start % lanes == 0`, lane `l` owns
/// stream records `l, l+N, l+2N, …`. Windowed bindings must keep the lane
/// pattern aligned: `lanes` must divide `start_record`, `run_records` and
/// `stride_records`, so that stream record `k` still lands in lane
/// `k % lanes` (asserted here). Either way the lane's records are
/// themselves a binding over its one bank, in records of that bank, which
/// its way walks as bank 0 of one.
fn lane_ways(b: &StreamBinding, lanes: usize) -> Vec<Way> {
    let n = lanes as u32;
    let windowed = b.run_records < b.records;
    // Windowed: keep record->lane assignment equal to k % lanes.
    assert!(
        !windowed
            || b.start_record.is_multiple_of(n)
                && b.run_records.is_multiple_of(n)
                && b.stride_records.is_multiple_of(n),
        "windowed stream must be lane-aligned (start/run/stride divisible by {n})"
    );
    let way = |l| {
        // Lane of stream record k is absolute_record(k) % n. For aligned
        // windows this equals (start + k) % n; scan for this lane's first k.
        let first = (0..n.min(b.records)).find(|&k| b.absolute_record(k) % n == l);
        let records = first.map_or(0, |f| (b.records - f).div_ceil(n));
        let mut local = StreamBinding::whole(b.range, b.record_words, records);
        local.start_record = b.absolute_record(first.unwrap_or(0)) / n;
        if windowed {
            (local.run_records, local.stride_records) = (b.run_records / n, b.stride_records / n);
        }
        Way::new(&local, 1)
    };
    (0..n).map(way).collect()
}

/// A sequential or conditional stream's port: its ways and their rings.
///
/// A sequential stream or a per-lane conditional substream (`CondLaneIn`)
/// has one way per lane, and lane `l`'s words are way `l`'s. A conditional
/// stream (`CondIn`, `CondOut`) has one global way of `lanes × cap` words,
/// and the `i`-th lane asserting its condition in a row takes its `i`-th
/// word or slot. A grant moves up to a *unit* per way: `m` words, or
/// `lanes × m` for a global way.
#[derive(Debug, Clone)]
pub struct Port {
    kind: StreamKind,
    /// Grants move ring → SRF (the kernel writes the stream), not SRF → ring.
    writes: bool,
    /// One way serves every lane.
    global: bool,
    lanes: usize,
    ways: Vec<Way>,
    buf: Rings,
    /// Input ways a grant would fetch for.
    wanting: u32,
}

impl Port {
    /// The port of a `kind` stream over `binding` on a `lanes`-lane
    /// machine, with stream buffers of `cap` words per lane.
    ///
    /// # Panics
    ///
    /// Panics on an indexed kind, or on a windowed binding of a per-lane
    /// kind whose start, run or stride the lane count does not divide.
    pub fn new(kind: StreamKind, binding: StreamBinding, lanes: usize, cap: usize) -> Self {
        assert!(!kind.is_indexed(), "an indexed stream has no port");
        let global = matches!(kind, StreamKind::CondIn | StreamKind::CondOut);
        let ways = match global {
            true => vec![Way::new(&binding, lanes)],
            false => lane_ways(&binding, lanes),
        };
        let mut p = Port {
            kind,
            writes: kind.writes(),
            global,
            lanes,
            buf: Rings::new(ways.len(), cap * lanes / ways.len(), !kind.writes()),
            ways,
            wanting: 0,
        };
        p.recount();
        p
    }

    /// Count the input ways a grant would fetch for (the input rule reads
    /// no unit).
    fn recount(&mut self) {
        let (writes, cap) = (self.writes, self.buf.cap);
        let wanting = self
            .ways
            .iter()
            .filter(|w| !writes && w.wants(false, cap, 0, false));
        self.wanting = wanting.count() as u32;
    }

    /// The kind of stream this port serves.
    pub fn kind(&self) -> StreamKind {
        self.kind
    }

    /// The way lane `lane`'s words belong to: its own, or the global way 0.
    #[inline]
    fn way(&self, lane: usize) -> usize {
        lane * usize::from(!self.global)
    }

    /// A way's unit for grants of `m` words per lane.
    fn unit(&self, m: usize) -> u32 {
        let lanes = if self.global { self.lanes } else { 1 };
        u32::try_from(m.saturating_mul(lanes)).unwrap_or(u32::MAX)
    }

    /// Whether a grant of `m` words per lane would move anything: an input
    /// asks while a way has words left and a free slot, an output once a
    /// way holds a whole unit or, on `flush`, any word (`Way::wants`). An
    /// input counts its wanting ways as they change; an output's ways fill
    /// and drain together (every lane pushes each row into its own way, and
    /// a global port has one), so its first way answers for all.
    pub fn wants_grant(&self, m: usize, flush: bool) -> bool {
        match self.writes {
            false => self.wanting > 0,
            true => self.ways[0].wants(true, self.buf.cap, self.unit(m), flush),
        }
    }

    /// Apply one SRF grant of up to `m` words per lane: every way that
    /// wants it moves up to a unit, an input's from the SRF into its ring
    /// (each word arriving at cycle `arrive`), an output's from its ring
    /// into the SRF. Returns the words moved (for traffic accounting).
    pub fn grant(&mut self, srf: &mut Srf, m: usize, flush: bool, arrive: u64) -> u64 {
        let unit = self.unit(m);
        let Port {
            writes,
            ways,
            buf,
            wanting,
            ..
        } = self;
        let mut moved = 0;
        *wanting = 0;
        for (way, w) in ways.iter_mut().enumerate() {
            if !w.wants(*writes, buf.cap, unit, flush) {
                continue;
            }
            // A lane's way walks its own bank as bank 0 of one; the global
            // way, way 0, walks every bank.
            if *writes {
                let n = w.ring.len().min(unit);
                // Overproduced words (the kernel wrote more than the
                // binding holds) are dropped: callers size bindings to
                // iterations.
                let kept = n.min(w.left);
                for i in 0..kept {
                    let (bank, off) = w.walk.step();
                    srf.write(way + bank, off, buf.words[buf.nth(way, w.ring, i)]);
                }
                w.ring.pop = w.ring.pop.wrapping_add(n);
                (w.left, moved) = (w.left - kept, moved + kept);
            } else {
                let n = unit.min(buf.cap - w.ring.len()).min(w.left);
                for _ in 0..n {
                    let (bank, off) = w.walk.step();
                    buf.push(way, &mut w.ring, arrive, srf.read(way + bank, off));
                }
                (w.left, moved) = (w.left - n, moved + n);
                *wanting += u32::from(w.wants(false, buf.cap, unit, flush));
            }
        }
        u64::from(moved)
    }

    /// The first lane asserting `cond` (every lane, without one) that a
    /// whole-row pop or push would have to wait for at `now`: an input
    /// lane whose word is still in flight, or not yet fetched while its way
    /// has words left (a done lane never waits); an output lane whose slot
    /// is past its way's capacity.
    pub fn blocked_lane(&self, cond: Option<&[Word]>, now: u64) -> Option<usize> {
        // Words that earlier asserting lanes take from a global way.
        let mut before = 0;
        for lane in 0..self.lanes {
            if cond.is_some_and(|c| c[lane] == 0) {
                continue;
            }
            let way = self.way(lane);
            let (w, i) = (&self.ways[way], if self.global { before } else { 0 });
            before += 1;
            let waits = match self.writes {
                false if i < w.ring.len() => self.buf.at[self.buf.nth(way, w.ring, i)] > now,
                false => w.left > 0,
                true => w.ring.len() + i >= self.buf.cap,
            };
            if waits {
                return Some(lane);
            }
        }
        None
    }

    /// Pop one word into `out` for every lane asserting `cond` (every lane,
    /// without one) whose way holds one, in lane order; the other lanes
    /// (condition false, or done: reads past the end of a lane's data, or
    /// of a conditional stream, return zero instead of stalling, so lanes
    /// with less data stay occupied until the last lane finishes — the
    /// load-imbalance behavior the paper describes) get zero. No asserting
    /// lane may be blocked ([`Port::blocked_lane`]).
    pub fn pop_row(&mut self, cond: Option<&[Word]>, out: &mut [Word]) {
        debug_assert!(!self.writes && out.len() == self.lanes);
        for (lane, o) in out.iter_mut().enumerate() {
            *o = 0;
            let way = self.way(lane);
            let w = &mut self.ways[way];
            if cond.is_none_or(|c| c[lane] != 0) && w.ring.len() > 0 {
                *o = self.buf.words[self.buf.nth(way, w.ring, 0)];
                // The freed slot may make the way want a grant again.
                let was = w.wants(false, self.buf.cap, 0, false);
                w.ring.pop = w.ring.pop.wrapping_add(1);
                self.wanting += u32::from(!was && w.wants(false, self.buf.cap, 0, false));
            }
        }
    }

    /// Push `row[l]` of every lane `l` asserting `cond` (every lane,
    /// without one) into its way, in lane order. No asserting lane may be
    /// blocked ([`Port::blocked_lane`]).
    pub fn push_row(&mut self, cond: Option<&[Word]>, row: &[Word]) {
        debug_assert!(self.writes && row.len() == self.lanes);
        for (lane, &word) in row.iter().enumerate() {
            if cond.is_none_or(|c| c[lane] != 0) {
                let way = self.way(lane);
                self.buf.push(way, &mut self.ways[way].ring, 0, word);
            }
        }
    }

    /// Words buffered for lane `lane`'s way (ready or still in their SRF
    /// access latency) — distinguishes a starved buffer from one whose data
    /// is merely in flight when attributing stalls.
    pub fn buffered_words(&self, lane: usize) -> usize {
        self.ways[self.way(lane)].ring.len() as usize
    }

    /// True unless an output still holds words for the SRF.
    pub fn drained(&self) -> bool {
        !self.writes || self.ways.iter().all(|w| w.ring.len() == 0)
    }

    /// Serialize the dynamic state: the cursors, then every way's ring. A
    /// per-lane port writes its way count and each way's words left; a
    /// global port the words it has moved. The binding and capacities come
    /// from the constructor on decode.
    pub fn encode_state(&self, e: &mut Enc) {
        if !self.global {
            e.usize(self.ways.len());
        }
        for w in &self.ways {
            let moved = w.walk.b.words() - w.left;
            e.u32(if self.global { moved } else { w.left });
        }
        for (way, w) in self.ways.iter().enumerate() {
            self.buf.encode(way, w.ring, e);
        }
    }

    /// Overwrite the dynamic state from [`Port::encode_state`] bytes.
    pub fn decode_state(&mut self, d: &mut Dec) -> Result<(), SnapError> {
        let n = self.ways.len();
        if !self.global && d.usize()? != n {
            return Err(SnapError::Mismatch(format!("lane cursor count != {n}")));
        }
        let lanes = if self.global { self.lanes } else { 1 };
        for w in &mut self.ways {
            let (words, at) = (w.walk.b.words(), d.u32()?);
            let left = match self.global {
                true => words.checked_sub(at),
                false => (at <= words).then_some(at),
            };
            let Some(left) = left else {
                return Err(SnapError::Mismatch(format!(
                    "stream cursor at {at} of {words} words"
                )));
            };
            w.walk = StreamWalk::new(&w.walk.b, lanes, words - left);
            w.left = left;
        }
        for (way, w) in self.ways.iter_mut().enumerate() {
            w.ring = self.buf.decode(way, d)?;
        }
        // An output's ways fill and drain together.
        let len = self.ways[0].ring.len();
        if self.writes && self.ways.iter().any(|w| w.ring.len() != len) {
            let msg = "output lanes buffer unequal numbers of words";
            return Err(SnapError::Mismatch(msg.into()));
        }
        self.recount();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isrf_core::config::{ConfigName, MachineConfig};
    use StreamKind::{CondIn, CondOut, SeqIn, SeqOut};

    fn srf_with_stream(record_words: u32, records: u32) -> (Srf, StreamBinding) {
        let mut srf = Srf::new(&MachineConfig::preset(ConfigName::Base));
        let words = records * record_words;
        let range = srf.alloc(words.div_ceil(8).max(1) + record_words);
        let b = StreamBinding::whole(range, record_words, records);
        let data: Vec<Word> = (0..words).collect();
        srf.write_stream(&b, &data);
        (srf, b)
    }

    /// Pop one word of `lane` alone.
    fn pop(s: &mut Port, lane: usize) -> Word {
        let mut cond = [0; 8];
        cond[lane] = 1;
        let mut out = [0; 8];
        s.pop_row(Some(&cond), &mut out);
        out[lane]
    }

    #[test]
    fn seq_in_pops_lane_elements_in_order() {
        let (mut srf, b) = srf_with_stream(1, 32);
        let mut s = Port::new(SeqIn, b, 8, 8);
        assert!(s.wants_grant(4, false));
        s.grant(&mut srf, 4, false, 0);
        // Lane 0 sees words 0, 8, 16, 24; lane 3 sees 3, 11, ...
        assert_eq!(s.blocked_lane(None, 0), None);
        assert_eq!(pop(&mut s, 0), 0);
        assert_eq!(pop(&mut s, 0), 8);
        assert_eq!(pop(&mut s, 3), 3);
        assert_eq!(pop(&mut s, 3), 11);
        // A whole row: every lane's next word.
        let mut row = [0; 8];
        s.pop_row(None, &mut row);
        assert_eq!(row, [16, 1, 2, 19, 4, 5, 6, 7]);
    }

    #[test]
    fn seq_in_latency_delays_availability() {
        let (mut srf, b) = srf_with_stream(1, 8);
        let mut s = Port::new(SeqIn, b, 8, 8);
        assert_eq!(s.blocked_lane(Some(&[1; 8]), 0), Some(0), "starved");
        s.grant(&mut srf, 4, false, 10 + 3);
        assert_eq!(s.blocked_lane(Some(&[1; 8]), 12), Some(0), "in flight");
        assert_eq!(s.blocked_lane(Some(&[0, 0, 1, 0, 0, 0, 0, 0]), 12), Some(2));
        assert_eq!(s.blocked_lane(None, 13), None);
    }

    #[test]
    fn seq_in_respects_buffer_capacity() {
        let (mut srf, b) = srf_with_stream(1, 800);
        let mut s = Port::new(SeqIn, b, 8, 8);
        let m1 = s.grant(&mut srf, 4, false, 0);
        let m2 = s.grant(&mut srf, 4, false, 0);
        assert_eq!(m1 + m2, 64, "two grants of 4 words x 8 lanes");
        let m3 = s.grant(&mut srf, 4, false, 0);
        assert_eq!(m3, 0, "buffers are full at 8 words per lane");
        assert!(!s.wants_grant(4, false));
        pop(&mut s, 5);
        assert!(s.wants_grant(4, false), "lane 5 has room again");
    }

    #[test]
    fn seq_in_exhaustion_and_tail() {
        // 10 records on 8 lanes: lanes 0 and 1 get 2 records, rest 1.
        let (mut srf, b) = srf_with_stream(1, 10);
        let mut s = Port::new(SeqIn, b, 8, 8);
        while s.wants_grant(4, false) {
            s.grant(&mut srf, 4, false, 0);
        }
        let mut row = [0; 8];
        s.pop_row(None, &mut row);
        assert_eq!(row, [0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(s.buffered_words(7), 0, "lane 7 has exactly one record");
        assert_eq!(s.buffered_words(1), 1);
        assert_eq!(s.blocked_lane(None, 0), None, "done lanes never block");
        s.pop_row(None, &mut row);
        assert_eq!(
            row,
            [8, 9, 0, 0, 0, 0, 0, 0],
            "reads past a lane's end are 0"
        );
        assert!(!s.wants_grant(4, false) && (0..8).all(|l| s.buffered_words(l) == 0));
    }

    #[test]
    fn seq_in_records_are_lane_local() {
        let (mut srf, b) = srf_with_stream(4, 16);
        let mut s = Port::new(SeqIn, b, 8, 8);
        s.grant(&mut srf, 4, false, 0);
        // Lane 2 owns record 2 = words 8..12.
        assert_eq!(pop(&mut s, 2), 8);
        assert_eq!(pop(&mut s, 2), 9);
        assert_eq!(pop(&mut s, 2), 10);
        assert_eq!(pop(&mut s, 2), 11);
    }

    #[test]
    fn seq_in_start_record_windows_the_range() {
        let (mut srf, mut b) = srf_with_stream(1, 64);
        b.start_record = 32;
        b.records = 16;
        let mut s = Port::new(SeqIn, b, 8, 8);
        s.grant(&mut srf, 4, false, 0);
        // Record 32 belongs to lane 0 and holds word value 32.
        assert_eq!(pop(&mut s, 0), 32);
        assert_eq!(pop(&mut s, 1), 33);
    }

    #[test]
    fn seq_out_roundtrip() {
        let (mut srf, b) = srf_with_stream(1, 16);
        let mut s = Port::new(SeqOut, b, 8, 8);
        s.push_row(None, &[100, 101, 102, 103, 104, 105, 106, 107]);
        s.push_row(None, &[200, 201, 202, 203, 204, 205, 206, 207]);
        assert!(!s.wants_grant(4, false), "blocks of 4 not yet full");
        assert!(s.wants_grant(4, true));
        s.grant(&mut srf, 4, true, 0);
        assert!(s.drained());
        // Record r -> lane r%8: stream word 3 came from lane 3's first push.
        assert_eq!(srf.read(3, b.range.base), 103);
        assert_eq!(srf.read(3, b.range.base + 1), 203);
    }

    #[test]
    fn seq_out_backpressure() {
        let (_, b) = srf_with_stream(1, 100);
        let mut s = Port::new(SeqOut, b, 8, 4);
        for _ in 0..4 {
            assert_eq!(s.blocked_lane(None, 0), None, "every lane can push");
            s.push_row(None, &[1; 8]);
        }
        assert_eq!(s.blocked_lane(None, 0), Some(0));
    }

    #[test]
    fn cond_in_global_order() {
        let (mut srf, b) = srf_with_stream(1, 16);
        let mut s = Port::new(CondIn, b, 8, 8);
        s.grant(&mut srf, 4, false, 0);
        // Three asserting lanes find three words ready.
        assert_eq!(s.blocked_lane(Some(&[1, 1, 1, 0, 0, 0, 0, 0]), 0), None);
        let mut row = [9; 8];
        s.pop_row(Some(&[0, 1, 1, 0, 0, 7, 0, 0]), &mut row);
        assert_eq!(row, [0, 0, 1, 0, 0, 2, 0, 0]);
        s.pop_row(Some(&[1, 0, 0, 0, 0, 0, 0, 1]), &mut row);
        assert_eq!(row, [3, 0, 0, 0, 0, 0, 0, 4]);
        let w = &s.ways[0];
        assert_eq!(w.left + w.ring.len(), 11, "words not yet consumed");
    }

    #[test]
    fn cond_out_writes_stream_order() {
        let (mut srf, b) = srf_with_stream(1, 8);
        let mut s = Port::new(CondOut, b, 8, 8);
        s.push_row(Some(&[1, 0, 1, 0, 0, 0, 0, 1]), &[9, 1, 8, 1, 1, 1, 1, 7]);
        s.grant(&mut srf, 8, true, 0);
        assert_eq!(b.words() - s.ways[0].left, 3, "words written");
        assert_eq!(srf.read(0, b.range.base), 9);
        assert_eq!(srf.read(2, b.range.base), 7);
        assert!(s.drained());
    }
}
