//! Runtime state of machine-level streams during a kernel invocation.
//!
//! Each kernel stream slot is bound to an SRF-resident stream described by
//! a [`StreamBinding`]. During execution the binding gets a per-invocation
//! runtime state holding the stream buffers (8 words per lane per stream in
//! the paper), the per-stream address FIFOs of indexed streams, and the
//! cursors tracking progress through the stream.
//!
//! Sequential streams exchange `m` words per lane with the SRF on each
//! port grant; clusters pop/push one word per access. Conditional streams
//! keep a *global* buffer because elements are distributed dynamically to
//! whichever lanes assert their condition. Indexed streams keep per-lane
//! address FIFOs whose heads are expanded to single-word accesses by the
//! hardware counters described in Section 4.4.
//!
//! ## State layout
//!
//! Every buffer here is bounded, so each state owns flat power-of-two
//! rings addressed by free-running counts, the layout indexed streams use,
//! and the kernel moves whole rows (DESIGN.md, "Sequential-path state
//! layout").

use isrf_core::snap::{Dec, Enc, SnapError};
use isrf_core::Word;

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

/// One ring of `cap` words per lane (`1 << shift >= cap` slots each) in a
/// single lane-major allocation; input rings keep each word's arrival
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
    fn new(lanes: usize, cap: usize, timed: bool) -> Self {
        let cap = u32::try_from(cap).expect("stream buffer capacity fits a u32 count");
        let shift = cap.next_power_of_two().trailing_zeros();
        Rings {
            words: vec![0; lanes << shift],
            at: vec![0; if timed { lanes << shift } else { 0 }],
            shift,
            cap,
        }
    }

    #[inline]
    fn push(&mut self, lane: usize, r: &mut RingCur, at: u64, word: Word) {
        let s = slot(lane, r.push, self.shift);
        self.words[s] = word;
        if let Some(t) = self.at.get_mut(s) {
            *t = at;
        }
        r.push = r.push.wrapping_add(1);
    }

    /// Slot of the `i`-th oldest word of lane `lane`'s ring.
    #[inline]
    fn nth(&self, lane: usize, r: RingCur, i: u32) -> usize {
        slot(lane, r.pop.wrapping_add(i), self.shift)
    }

    /// Serialize one ring: occupancy, then its words oldest first, each
    /// behind its arrival cycle if the ring keeps them.
    fn encode(&self, lane: usize, r: RingCur, e: &mut Enc) {
        e.usize(r.len() as usize);
        for i in 0..r.len() {
            let s = self.nth(lane, r, i);
            if let Some(&t) = self.at.get(s) {
                e.u64(t);
            }
            e.u32(self.words[s]);
        }
    }

    /// Refill lane `lane`'s ring from [`Rings::encode`] bytes.
    fn decode(&mut self, lane: usize, d: &mut Dec) -> Result<RingCur, SnapError> {
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
            self.push(lane, &mut r, at, d.u32()?);
        }
        Ok(r)
    }
}

/// Per-lane word cursor over the records a lane owns.
///
/// For an unwindowed binding with `start % lanes == 0`, lane `l` owns
/// stream records `l, l+N, l+2N, …`. Windowed bindings must keep the lane
/// pattern aligned: `lanes` must divide `start_record`, `run_records` and
/// `stride_records`, so that stream record `k` still lands in lane
/// `k % lanes` (asserted at construction). Either way the lane's records
/// are themselves a binding over its one bank, in records of that bank,
/// which `walk` steps through by increments.
#[derive(Debug, Clone)]
struct LaneCursor {
    walk: StreamWalk,
    /// Words remaining for this lane.
    remaining: u32,
}

fn lane_cursors(b: &StreamBinding, lanes: usize) -> Vec<LaneCursor> {
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
    let cursor = |l| {
        // Lane of stream record k is absolute_record(k) % n. For aligned
        // windows this equals (start + k) % n; scan for this lane's first k.
        let first = (0..n.min(b.records)).find(|&k| b.absolute_record(k) % n == l);
        let records = first.map_or(0, |f| (b.records - f).div_ceil(n));
        let mut local = StreamBinding::whole(b.range, b.record_words, records);
        local.start_record = b.absolute_record(first.unwrap_or(0)) / n;
        if windowed {
            (local.run_records, local.stride_records) = (b.run_records / n, b.stride_records / n);
        }
        LaneCursor {
            walk: StreamWalk::new(&local, 1, 0),
            remaining: local.words(),
        }
    };
    (0..n).map(cursor).collect()
}

/// Serialize a cursor set (count-prefixed for validation on decode): per
/// lane the words it has left, which place its walk.
fn encode_cursors<'a>(cursors: impl ExactSizeIterator<Item = &'a LaneCursor>, e: &mut Enc) {
    e.usize(cursors.len());
    cursors.for_each(|c| e.u32(c.remaining));
}

/// Move a cursor set to where [`encode_cursors`] bytes say.
fn decode_cursors<'a>(
    cursors: impl ExactSizeIterator<Item = &'a mut LaneCursor>,
    d: &mut Dec,
) -> Result<(), SnapError> {
    let n = cursors.len();
    if d.usize()? != n {
        return Err(SnapError::Mismatch(format!("lane cursor count != {n}")));
    }
    for c in cursors {
        let (local, remaining) = (c.walk.b, d.u32()?);
        let Some(used) = local.words().checked_sub(remaining) else {
            return Err(SnapError::Mismatch(format!(
                "lane cursor with {remaining} of {} words left",
                local.words()
            )));
        };
        c.walk = StreamWalk::new(&local, 1, used);
        c.remaining = remaining;
    }
    Ok(())
}

impl LaneCursor {
    /// Per-bank SRF offset of the next word, then advance.
    #[inline]
    fn step(&mut self) -> usize {
        debug_assert!(self.remaining > 0);
        self.remaining -= 1;
        self.walk.step().1 as usize
    }
}

/// One lane of a sequential input: its cursor and its ring's counts.
#[derive(Debug, Clone)]
struct InLane {
    cur: LaneCursor,
    ring: RingCur,
}

impl InLane {
    /// Would a grant fetch for this lane: words remaining, room for them?
    fn wants(&self, cap: u32) -> bool {
        self.cur.remaining > 0 && self.ring.len() < cap
    }

    /// Must a pop at `now` wait: the oldest word still in flight, or none
    /// buffered with words still to fetch (a done lane never waits)?
    fn waits(&self, lane: usize, buf: &Rings, now: u64) -> bool {
        if self.ring.len() > 0 {
            buf.at[buf.nth(lane, self.ring, 0)] > now
        } else {
            self.cur.remaining > 0
        }
    }
}

/// Sequential input stream state.
#[derive(Debug, Clone)]
pub struct SeqInState {
    /// The binding this state reads.
    pub binding: StreamBinding,
    lanes: Vec<InLane>,
    buf: Rings,
    /// Lanes a grant would fetch for.
    wanting: u32,
}

impl SeqInState {
    /// Create the runtime state for `binding` on an `lanes`-lane machine.
    pub fn new(binding: StreamBinding, lanes: usize, buf_cap: usize) -> Self {
        let ring = RingCur::default();
        let cursors = lane_cursors(&binding, lanes).into_iter();
        let mut s = SeqInState {
            binding,
            lanes: cursors.map(|cur| InLane { cur, ring }).collect(),
            buf: Rings::new(lanes, buf_cap, true),
            wanting: 0,
        };
        s.recount();
        s
    }

    /// Count the lanes a grant would fetch for.
    fn recount(&mut self) {
        let wanting = self.lanes.iter().filter(|l| l.wants(self.buf.cap));
        self.wanting = wanting.count() as u32;
    }

    /// Whether an SRF grant would make progress.
    pub fn wants_grant(&self) -> bool {
        self.wanting > 0
    }

    /// Apply one SRF grant: fetch up to `m` words per lane; returns words
    /// moved (for traffic accounting).
    pub fn grant(&mut self, srf: &Srf, m: usize, now: u64, latency: u64) -> u64 {
        let m = u32::try_from(m).unwrap_or(u32::MAX);
        let mut moved = 0;
        self.wanting = 0;
        for (lane, l) in self.lanes.iter_mut().enumerate() {
            let n = m.min(self.buf.cap - l.ring.len()).min(l.cur.remaining);
            let bank = srf.bank(lane);
            for _ in 0..n {
                self.buf
                    .push(lane, &mut l.ring, now + latency, bank[l.cur.step()]);
            }
            moved += u64::from(n);
            self.wanting += u32::from(l.wants(self.buf.cap));
        }
        moved
    }

    /// The first lane asserting `cond` (every lane, without one) that can
    /// neither pop at `now` nor is done: the lane a whole-row pop would
    /// have to wait for.
    pub fn blocked_lane(&self, cond: Option<&[Word]>, now: u64) -> Option<usize> {
        match cond {
            Some(c) => self.first_waiting(c.iter().map(|&c| c != 0), now),
            None => self.first_waiting(std::iter::repeat(true), now),
        }
    }

    /// [`SeqInState::blocked_lane`] with the lanes' conditions as `asserts`.
    fn first_waiting(&self, asserts: impl Iterator<Item = bool>, now: u64) -> Option<usize> {
        let mut lanes = self.lanes.iter().zip(asserts).enumerate();
        lanes.position(|(lane, (l, a))| a && l.waits(lane, &self.buf, now))
    }

    /// Pop one word into `out` for every lane asserting `cond` (every lane,
    /// without one) that holds one; the other lanes (condition false, or
    /// done: reads past the end of a lane's data return zero instead of
    /// stalling, so lanes with less data stay occupied until the last lane
    /// finishes — the load-imbalance behavior the paper describes) get
    /// zero. No asserting lane may be blocked ([`SeqInState::blocked_lane`]).
    pub fn pop_row(&mut self, cond: Option<&[Word]>, out: &mut [Word]) {
        debug_assert!(cond.is_none_or(|c| c.len() == self.lanes.len()));
        debug_assert!(out.len() == self.lanes.len());
        match cond {
            Some(c) => self.pop_lanes(c.iter().map(|&c| c != 0), out),
            None => self.pop_lanes(std::iter::repeat(true), out),
        }
    }

    /// [`SeqInState::pop_row`] with the lanes' conditions as `asserts`.
    fn pop_lanes(&mut self, asserts: impl Iterator<Item = bool>, out: &mut [Word]) {
        let lanes = self.lanes.iter_mut().zip(asserts).zip(out);
        for (lane, ((l, a), o)) in lanes.enumerate() {
            *o = 0;
            if a && l.ring.len() > 0 {
                *o = self.buf.words[self.buf.nth(lane, l.ring, 0)];
                // A full ring kept the lane from wanting a grant.
                self.wanting += u32::from(l.cur.remaining > 0 && !l.wants(self.buf.cap));
                l.ring.pop = l.ring.pop.wrapping_add(1);
            }
        }
    }

    /// Words buffered for lane `l` (ready or still in their SRF access
    /// latency) — distinguishes a starved buffer from one whose data is
    /// merely in flight when attributing stalls.
    pub fn buffered_words(&self, lane: usize) -> usize {
        self.lanes[lane].ring.len() as usize
    }

    /// Serialize the dynamic state (cursors and buffered words). The
    /// binding and capacities come from the constructor on decode.
    pub fn encode_state(&self, e: &mut Enc) {
        encode_cursors(self.lanes.iter().map(|l| &l.cur), e);
        for (lane, l) in self.lanes.iter().enumerate() {
            self.buf.encode(lane, l.ring, e);
        }
    }

    /// Overwrite the dynamic state from [`SeqInState::encode_state`] bytes.
    pub fn decode_state(&mut self, d: &mut Dec) -> Result<(), SnapError> {
        decode_cursors(self.lanes.iter_mut().map(|l| &mut l.cur), d)?;
        for (lane, l) in self.lanes.iter_mut().enumerate() {
            l.ring = self.buf.decode(lane, d)?;
        }
        self.recount();
        Ok(())
    }
}

/// Sequential output stream state. The kernel pushes a word for every
/// lane at once and a grant drains every lane alike, so all lanes buffer
/// the same number of words: one pair of counts serves them all.
#[derive(Debug, Clone)]
pub struct SeqOutState {
    /// The binding this state writes.
    pub binding: StreamBinding,
    cursors: Vec<LaneCursor>,
    ring: RingCur,
    buf: Rings,
}

impl SeqOutState {
    /// Create the runtime state.
    pub fn new(binding: StreamBinding, lanes: usize, buf_cap: usize) -> Self {
        SeqOutState {
            binding,
            cursors: lane_cursors(&binding, lanes),
            ring: RingCur::default(),
            buf: Rings::new(lanes, buf_cap, false),
        }
    }

    /// Whether a grant would drain anything. When `flush` is false only
    /// full `m`-word blocks are drained (the hardware writes whole blocks);
    /// after the kernel finishes, partial blocks flush too.
    pub fn wants_grant(&self, m: usize, flush: bool) -> bool {
        let len = self.ring.len() as usize;
        len >= m || (flush && len > 0)
    }

    /// Apply one SRF grant: drain up to `m` words per lane into the SRF.
    pub fn grant(&mut self, srf: &mut Srf, m: usize, flush: bool) -> u64 {
        if !self.wants_grant(m, flush) {
            return 0;
        }
        let n = self.ring.len().min(u32::try_from(m).unwrap_or(u32::MAX));
        let mut moved = 0;
        for (lane, c) in self.cursors.iter_mut().enumerate() {
            // Overproduced words (the kernel wrote more than the binding
            // holds) are dropped: callers size bindings to iterations.
            let kept = n.min(c.remaining);
            let bank = srf.bank_mut(lane);
            for i in 0..kept {
                bank[c.step()] = self.buf.words[self.buf.nth(lane, self.ring, i)];
            }
            moved += u64::from(kept);
        }
        self.ring.pop = self.ring.pop.wrapping_add(n);
        moved
    }

    /// Can every lane accept a word?
    pub fn can_push(&self) -> bool {
        self.ring.len() < self.buf.cap
    }

    /// Push `row[l]` from every lane `l`'s cluster.
    pub fn push_row(&mut self, row: &[Word]) {
        debug_assert!(self.can_push() && row.len() == self.cursors.len());
        for (lane, &w) in row.iter().enumerate() {
            // Every lane's ring takes its word at the one shared count.
            self.buf.push(lane, &mut { self.ring }, 0, w);
        }
        self.ring.push = self.ring.push.wrapping_add(1);
    }

    /// True when all buffered output has been written to the SRF.
    pub fn drained(&self) -> bool {
        self.ring.len() == 0
    }

    /// Serialize the dynamic state (cursors and buffered words).
    pub fn encode_state(&self, e: &mut Enc) {
        encode_cursors(self.cursors.iter(), e);
        for lane in 0..self.cursors.len() {
            self.buf.encode(lane, self.ring, e);
        }
    }

    /// Overwrite the dynamic state from [`SeqOutState::encode_state`] bytes.
    pub fn decode_state(&mut self, d: &mut Dec) -> Result<(), SnapError> {
        decode_cursors(self.cursors.iter_mut(), d)?;
        for lane in 0..self.cursors.len() {
            let ring = self.buf.decode(lane, d)?;
            if lane > 0 && ring.len() != self.ring.len() {
                let msg = "output lanes buffer unequal numbers of words";
                return Err(SnapError::Mismatch(msg.into()));
            }
            self.ring = ring;
        }
        Ok(())
    }
}

/// The stream-order half of a conditional stream: a single global cursor
/// (stream words moved to or from the SRF so far), the walk standing at
/// the next one, and the counts of the one global ring.
#[derive(Debug, Clone)]
struct GlobalCursor {
    lanes: usize,
    moved: u32,
    walk: StreamWalk,
    ring: RingCur,
}

impl GlobalCursor {
    fn new(binding: &StreamBinding, lanes: usize) -> Self {
        GlobalCursor {
            lanes,
            moved: 0,
            walk: StreamWalk::new(binding, lanes, 0),
            ring: RingCur::default(),
        }
    }

    /// Words of `binding` not yet moved.
    fn left(&self, binding: &StreamBinding) -> u32 {
        binding.words() - self.moved
    }

    /// Serialize the cursor and the words `buf`, its ring, holds.
    fn encode(&self, buf: &Rings, e: &mut Enc) {
        e.u32(self.moved);
        buf.encode(0, self.ring, e);
    }

    /// Move to where [`GlobalCursor::encode`] bytes say, refilling `buf`.
    fn decode(&mut self, b: &StreamBinding, buf: &mut Rings, d: &mut Dec) -> Result<(), SnapError> {
        let moved = d.u32()?;
        if moved > b.words() {
            return Err(SnapError::Mismatch(format!(
                "conditional stream at word {moved} of {}",
                b.words()
            )));
        }
        (self.moved, self.ring) = (moved, buf.decode(0, d)?);
        self.walk = StreamWalk::new(b, self.lanes, moved);
        Ok(())
    }
}

/// Conditional input stream state (\[16\]): a single global cursor; elements
/// go to whichever lanes assert their condition, in lane order.
#[derive(Debug, Clone)]
pub struct CondInState {
    /// The binding this state reads.
    pub binding: StreamBinding,
    at: GlobalCursor,
    buf: Rings,
}

impl CondInState {
    /// Create the runtime state; capacity scales with lanes since the
    /// buffer is global.
    pub fn new(binding: StreamBinding, lanes: usize, per_lane_cap: usize) -> Self {
        CondInState {
            binding,
            at: GlobalCursor::new(&binding, lanes),
            buf: Rings::new(1, per_lane_cap * lanes, true),
        }
    }

    /// Whether an SRF grant would make progress.
    pub fn wants_grant(&self) -> bool {
        self.at.left(&self.binding) > 0 && self.at.ring.len() < self.buf.cap
    }

    /// Fetch the next block of words (up to `lanes * m`) in stream order.
    pub fn grant(&mut self, srf: &Srf, block_words: usize, now: u64, latency: u64) -> u64 {
        let room = (self.buf.cap - self.at.ring.len()).min(self.at.left(&self.binding));
        let n = room.min(u32::try_from(block_words).unwrap_or(u32::MAX));
        for _ in 0..n {
            let (lane, off) = self.at.walk.step();
            self.buf
                .push(0, &mut self.at.ring, now + latency, srf.read(lane, off));
        }
        self.at.moved += n;
        u64::from(n)
    }

    /// Are `k` words ready at `now`?
    pub fn can_pop(&self, k: usize, now: u64) -> bool {
        self.at.ring.len() as usize >= k
            && (0..k as u32).all(|i| self.buf.at[self.buf.nth(0, self.at.ring, i)] <= now)
    }

    /// Hand the next stream words, in lane order, to the lanes asserting
    /// `cond`; the other lanes, and asserting lanes once the buffer runs
    /// out (the stream's end), get zero.
    pub fn pop_row(&mut self, cond: &[Word], out: &mut [Word]) {
        for (&c, o) in cond.iter().zip(out) {
            *o = 0;
            if c != 0 && self.at.ring.len() > 0 {
                *o = self.buf.words[self.buf.nth(0, self.at.ring, 0)];
                self.at.ring.pop = self.at.ring.pop.wrapping_add(1);
            }
        }
    }

    /// Words of the stream not yet consumed (fetched or not).
    pub fn remaining_words(&self) -> u32 {
        self.at.left(&self.binding) + self.at.ring.len()
    }

    /// Serialize the dynamic state (cursor and buffered words).
    pub fn encode_state(&self, e: &mut Enc) {
        self.at.encode(&self.buf, e);
    }

    /// Overwrite the dynamic state from [`CondInState::encode_state`] bytes.
    pub fn decode_state(&mut self, d: &mut Dec) -> Result<(), SnapError> {
        self.at.decode(&self.binding, &mut self.buf, d)
    }
}

/// Conditional output stream state: lanes asserting their condition append
/// in lane order; a global buffer drains to the SRF in stream order.
#[derive(Debug, Clone)]
pub struct CondOutState {
    /// The binding this state writes.
    pub binding: StreamBinding,
    at: GlobalCursor,
    buf: Rings,
}

impl CondOutState {
    /// Create the runtime state.
    pub fn new(binding: StreamBinding, lanes: usize, per_lane_cap: usize) -> Self {
        CondOutState {
            binding,
            at: GlobalCursor::new(&binding, lanes),
            buf: Rings::new(1, per_lane_cap * lanes, false),
        }
    }

    /// Room for `k` more words?
    pub fn can_push(&self, k: usize) -> bool {
        self.at.ring.len() as usize + k <= self.buf.cap as usize
    }

    /// Append, in lane order, `row[l]` of every lane `l` asserting `cond`.
    pub fn push_row(&mut self, cond: &[Word], row: &[Word]) {
        for (_, &w) in cond.iter().zip(row).filter(|(&c, _)| c != 0) {
            debug_assert!(self.can_push(1));
            self.buf.push(0, &mut self.at.ring, 0, w);
        }
    }

    /// Whether a grant would drain anything.
    pub fn wants_grant(&self, block_words: usize, flush: bool) -> bool {
        let len = self.at.ring.len() as usize;
        len >= block_words || (flush && len > 0)
    }

    /// Drain up to a block into the SRF.
    pub fn grant(&mut self, srf: &mut Srf, block_words: usize, flush: bool) -> u64 {
        if !self.wants_grant(block_words, flush) {
            return 0;
        }
        let n = (self.at.ring.len()).min(u32::try_from(block_words).unwrap_or(u32::MAX));
        // Overproduced words are dropped.
        let kept = n.min(self.at.left(&self.binding));
        for i in 0..kept {
            let (lane, off) = self.at.walk.step();
            srf.write(lane, off, self.buf.words[self.buf.nth(0, self.at.ring, i)]);
        }
        self.at.ring.pop = self.at.ring.pop.wrapping_add(n);
        self.at.moved += kept;
        u64::from(kept)
    }

    /// Words written to the SRF so far.
    pub fn written(&self) -> u32 {
        self.at.moved
    }

    /// True when all buffered output has drained.
    pub fn drained(&self) -> bool {
        self.at.ring.len() == 0
    }

    /// Serialize the dynamic state (cursor and buffered words).
    pub fn encode_state(&self, e: &mut Enc) {
        self.at.encode(&self.buf, e);
    }

    /// Overwrite the dynamic state from [`CondOutState::encode_state`] bytes.
    pub fn decode_state(&mut self, d: &mut Dec) -> Result<(), SnapError> {
        self.at.decode(&self.binding, &mut self.buf, d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isrf_core::config::{ConfigName, MachineConfig};

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
    fn pop(s: &mut SeqInState, lane: usize) -> Word {
        let mut cond = [0; 8];
        cond[lane] = 1;
        let mut out = [0; 8];
        s.pop_row(Some(&cond), &mut out);
        out[lane]
    }

    #[test]
    fn seq_in_pops_lane_elements_in_order() {
        let (srf, b) = srf_with_stream(1, 32);
        let mut s = SeqInState::new(b, 8, 8);
        assert!(s.wants_grant());
        s.grant(&srf, 4, 0, 0);
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
        let (srf, b) = srf_with_stream(1, 8);
        let mut s = SeqInState::new(b, 8, 8);
        assert_eq!(s.blocked_lane(Some(&[1; 8]), 0), Some(0), "starved");
        s.grant(&srf, 4, 10, 3);
        assert_eq!(s.blocked_lane(Some(&[1; 8]), 12), Some(0), "in flight");
        assert_eq!(s.blocked_lane(Some(&[0, 0, 1, 0, 0, 0, 0, 0]), 12), Some(2));
        assert_eq!(s.blocked_lane(None, 13), None);
    }

    #[test]
    fn seq_in_respects_buffer_capacity() {
        let (srf, b) = srf_with_stream(1, 800);
        let mut s = SeqInState::new(b, 8, 8);
        let m1 = s.grant(&srf, 4, 0, 0);
        let m2 = s.grant(&srf, 4, 0, 0);
        assert_eq!(m1 + m2, 64, "two grants of 4 words x 8 lanes");
        let m3 = s.grant(&srf, 4, 0, 0);
        assert_eq!(m3, 0, "buffers are full at 8 words per lane");
        assert!(!s.wants_grant());
        pop(&mut s, 5);
        assert!(s.wants_grant(), "lane 5 has room again");
    }

    #[test]
    fn seq_in_exhaustion_and_tail() {
        // 10 records on 8 lanes: lanes 0 and 1 get 2 records, rest 1.
        let (srf, b) = srf_with_stream(1, 10);
        let mut s = SeqInState::new(b, 8, 8);
        while s.wants_grant() {
            s.grant(&srf, 4, 0, 0);
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
        assert!(!s.wants_grant() && (0..8).all(|l| s.buffered_words(l) == 0));
    }

    #[test]
    fn seq_in_records_are_lane_local() {
        let (srf, b) = srf_with_stream(4, 16);
        let mut s = SeqInState::new(b, 8, 8);
        s.grant(&srf, 4, 0, 0);
        // Lane 2 owns record 2 = words 8..12.
        assert_eq!(pop(&mut s, 2), 8);
        assert_eq!(pop(&mut s, 2), 9);
        assert_eq!(pop(&mut s, 2), 10);
        assert_eq!(pop(&mut s, 2), 11);
    }

    #[test]
    fn seq_in_start_record_windows_the_range() {
        let (srf, mut b) = srf_with_stream(1, 64);
        b.start_record = 32;
        b.records = 16;
        let mut s = SeqInState::new(b, 8, 8);
        s.grant(&srf, 4, 0, 0);
        // Record 32 belongs to lane 0 and holds word value 32.
        assert_eq!(pop(&mut s, 0), 32);
        assert_eq!(pop(&mut s, 1), 33);
    }

    #[test]
    fn seq_out_roundtrip() {
        let (mut srf, b) = srf_with_stream(1, 16);
        let mut s = SeqOutState::new(b, 8, 8);
        s.push_row(&[100, 101, 102, 103, 104, 105, 106, 107]);
        s.push_row(&[200, 201, 202, 203, 204, 205, 206, 207]);
        assert!(!s.wants_grant(4, false), "blocks of 4 not yet full");
        assert!(s.wants_grant(4, true));
        s.grant(&mut srf, 4, true);
        assert!(s.drained());
        // Record r -> lane r%8: stream word 3 came from lane 3's first push.
        assert_eq!(srf.read(3, b.range.base), 103);
        assert_eq!(srf.read(3, b.range.base + 1), 203);
    }

    #[test]
    fn seq_out_backpressure() {
        let (_, b) = srf_with_stream(1, 100);
        let mut s = SeqOutState::new(b, 8, 4);
        for _ in 0..4 {
            assert!(s.can_push());
            s.push_row(&[1; 8]);
        }
        assert!(!s.can_push());
    }

    #[test]
    fn cond_in_global_order() {
        let (srf, b) = srf_with_stream(1, 16);
        let mut s = CondInState::new(b, 8, 8);
        s.grant(&srf, 32, 0, 0);
        assert!(s.can_pop(3, 0));
        let mut row = [9; 8];
        s.pop_row(&[0, 1, 1, 0, 0, 7, 0, 0], &mut row);
        assert_eq!(row, [0, 0, 1, 0, 0, 2, 0, 0]);
        s.pop_row(&[1, 0, 0, 0, 0, 0, 0, 1], &mut row);
        assert_eq!(row, [3, 0, 0, 0, 0, 0, 0, 4]);
        assert_eq!(s.remaining_words(), 11);
    }

    #[test]
    fn cond_out_writes_stream_order() {
        let (mut srf, b) = srf_with_stream(1, 8);
        let mut s = CondOutState::new(b, 8, 8);
        s.push_row(&[1, 0, 1, 0, 0, 0, 0, 1], &[9, 1, 8, 1, 1, 1, 1, 7]);
        s.grant(&mut srf, 64, true);
        assert_eq!(s.written(), 3);
        assert_eq!(srf.read(0, b.range.base), 9);
        assert_eq!(srf.read(2, b.range.base), 7);
        assert!(s.drained());
    }
}
