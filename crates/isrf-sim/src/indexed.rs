//! Indexed SRF access machinery (Sections 4.2, 4.4, 4.5).
//!
//! Clusters push *record* addresses into per-stream, per-lane address
//! FIFOs. Counters at each FIFO head expand records into single-word
//! accesses. When the global (stage-1) arbiter grants the SRF port to the
//! indexed streams, local (stage-2) arbitration in each lane assigns FIFO
//! heads to sub-arrays:
//!
//! * **In-lane** (`ISRF1`/`ISRF4`): up to `inlane_words_per_cycle` accesses
//!   per lane per cycle, each to a distinct sub-array, at most one access
//!   per stream per cycle (the implementation restriction the paper notes
//!   in Section 5.3 — ISRF1 and ISRF4 differ only for kernels with more
//!   than one indexed stream). Conflicting accesses serialize; only FIFO
//!   heads arbitrate, so a blocked head stalls the requests behind it
//!   (head-of-line blocking, visible in Figure 17).
//! * **Cross-lane**: each cluster sends at most one index per cycle over
//!   the index network; each *bank* accepts at most `network_ports_per_bank`
//!   cross-lane accesses per cycle, and the returning data shares the
//!   inter-cluster network, where explicit communications have priority.
//!
//! Read data arrives `inlane_latency`/`crosslane_latency` cycles later into
//! the stream's data buffer, from which the cluster's split data-read op
//! pops it in issue order.
//!
//! ## State layout
//!
//! Both FIFOs of a stream are bounded, so a stream owns flat lane-major
//! rings rather than per-lane queues (DESIGN.md, "Indexed-stream state
//! layout"). The unit of arbitration is the **cursor** (`LaneCur`): ring
//! counts and cached head target of one lane — or, on an in-lane stream
//! whose lanes have had one history so far, of all of them. Such a lane
//! touches only its own bank, so equal histories give equal outcomes: one
//! decision, head advance, arrival and pop per row, the data words alone
//! moving per lane. The cursor splits into one per lane, for good, at the
//! first row whose lanes differ, the first per-lane call (`push_addr`,
//! `push_write_word`, `pop_data`, a budgeted arrival tick), on
//! `decode_state`, or when an in-lane stream served beside it has split.
//!
//! Three lane masks keep the arbiter off heads that cannot issue: `room`
//! (data ring not full), per bank `want` (lanes whose head targets it) and
//! `flying` (a word in flight). Each is updated where the state changes,
//! and a rejection has no side effect but its trace event, so skipping a
//! head outside `room` or wanting a bank whose ports ran out — under a
//! tracer, reporting it with the reason read off the masks — decides what
//! examining it would have.

use isrf_core::config::{CrossLaneTopology, MachineConfig};
use isrf_core::snap::{Dec, Enc, SnapError};
use isrf_core::stats::SrfTraffic;
use isrf_core::Word;
use isrf_trace::{IdxRejectReason as Why, TraceEvent, Tracer};

use crate::srf::Srf;
use crate::stream::{slot, StreamBinding};

/// Flavor of an indexed stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdxKind {
    /// In-lane read (`idxl_istream`): addresses are lane-local record
    /// indices into the lane's own bank region.
    InLaneRead,
    /// In-lane write (`idxl_ostream`).
    InLaneWrite,
    /// Cross-lane read (`idx_istream`): addresses are global record
    /// indices; record `r` lives in bank `r mod N`.
    CrossLaneRead,
}

/// Ring cursors and cached head target of one lane of one stream — or,
/// while an in-lane stream is shared, of all its lanes. The cursors are
/// free-running counts (wrapping `u32`): a ring slot is the count masked
/// to the ring's power-of-two length, an occupancy the difference of two
/// counts.
#[derive(Debug, Clone, Copy, Default)]
struct LaneCur {
    /// Records pushed into / retired from the address FIFO.
    a_push: u32,
    a_pop: u32,
    /// Words of the FIFO head already issued to the SRAM.
    head_word: u32,
    /// Data words issued to the SRAM, arrived, and popped by the cluster:
    /// `d_pop..d_land` are ready, `d_land..d_push` still in flight.
    d_push: u32,
    d_land: u32,
    d_pop: u32,
    /// Arrival cycle of the oldest in-flight word (`u64::MAX` when none).
    front: u64,
    /// Target of the next word of the FIFO head (valid while the FIFO is
    /// non-empty): clamped per-bank offset, sub-array and, cross-lane,
    /// bank (an in-lane lane's bank is the lane).
    off: u32,
    bank: u8,
    sub: u8,
}

/// A lane with empty FIFOs and nothing in flight.
fn idle() -> LaneCur {
    let front = u64::MAX;
    LaneCur {
        front,
        ..LaneCur::default()
    }
}

/// `(x / by, x % by)`, by shift and mask when `shift = log2(by)` is known.
fn div_rem(x: u32, by: u32, shift: Option<u32>) -> (u32, u32) {
    match shift {
        Some(s) => (x >> s, x & (by - 1)),
        None => (x / by, x % by),
    }
}

/// Runtime state of one indexed stream across all lanes.
#[derive(Debug, Clone)]
pub struct IdxState {
    /// The SRF binding addressed by this stream.
    pub binding: StreamBinding,
    /// Stream flavor.
    pub kind: IdxKind,
    /// One cursor for all lanes while shared, one per lane once split:
    /// cursor `i` stands for the `span` lanes from `i`, the mask
    /// `group << i`, and keeps its records and arrival cycles in lane `i`'s
    /// rings.
    cur: Vec<LaneCur>,
    span: usize,
    group: u64,
    /// Address rings (`1 << a_shift >= fifo_cap` records per lane): each
    /// queued record index with, on write streams, the word to write there.
    addr: Vec<(u32, Word)>,
    /// Data rings (`1 << d_shift >= buf_cap` words per lane) with each
    /// word's arrival cycle.
    data: Vec<Word>,
    ready_at: Vec<u64>,
    a_shift: u32,
    d_shift: u32,
    fifo_cap: u32,
    buf_cap: u32,
    /// Geometry for head targets: lane count, bank and sub-array sizes.
    n_lanes: u32,
    lane_shift: Option<u32>,
    bank_words: u32,
    sub_words: u32,
    sub_shift: Option<u32>,
    /// Lanes whose address FIFO holds a record / is full / whose data ring
    /// holds an arrived word / has room for one more / one in flight.
    addr_nonempty: u64,
    addr_full: u64,
    data_ready: u64,
    room: u64,
    flying: u64,
    /// Per bank, the lanes whose FIFO head targets it (cross-lane streams;
    /// empty in-lane, where lane `l` wants bank `l`).
    want: Vec<u64>,
    /// No in-flight word arrives before this cycle; `u64::MAX` exactly
    /// when nothing is in flight.
    next_arrival: u64,
    /// Scratch of one [`service_indexed`] pass: lanes whose head may still
    /// issue, and for a tracer the verdict on a cursor's head — `(bank,
    /// sub-array, hops, FIFO occupancy after)` of an access, or why not.
    open: u64,
    seen: Option<Verdict>,
}

impl IdxState {
    /// Create the state for `lanes` lanes with the configured FIFO and
    /// stream-buffer capacities.
    pub fn new(binding: StreamBinding, kind: IdxKind, lanes: usize, m: &MachineConfig) -> Self {
        let idx = m
            .srf
            .indexed
            .as_ref()
            .expect("indexed stream on a machine without indexed SRF support");
        assert!((1..=MAX_BANKS).contains(&lanes), "lane masks hold 64 lanes");
        let write = kind == IdxKind::InLaneWrite;
        assert!(
            !write || binding.record_words == 1,
            "indexed write streams use word-granular addresses"
        );
        let (fifo_cap, buf_cap) = (idx.addr_fifo_entries, m.srf.stream_buffer_words);
        let a_shift = fifo_cap.next_power_of_two().trailing_zeros();
        let d_shift = buf_cap.next_power_of_two().trailing_zeros();
        let sub_words = m.srf.subarray_words(m.lanes) as u32;
        let log2 = |x: u32| x.is_power_of_two().then(|| x.trailing_zeros());
        let cross = kind == IdxKind::CrossLaneRead;
        let span = if cross { 1 } else { lanes };
        IdxState {
            binding,
            kind,
            cur: vec![idle(); lanes / span],
            span,
            group: u64::MAX >> (64 - span),
            addr: vec![(0, 0); lanes << a_shift],
            data: vec![0; lanes << d_shift],
            ready_at: vec![0; lanes << d_shift],
            a_shift,
            d_shift,
            fifo_cap: fifo_cap as u32,
            buf_cap: buf_cap as u32,
            n_lanes: lanes as u32,
            lane_shift: log2(lanes as u32),
            bank_words: m.srf.bank_words(m.lanes) as u32,
            sub_words,
            sub_shift: log2(sub_words),
            addr_nonempty: 0,
            addr_full: 0,
            data_ready: 0,
            room: u64::MAX >> (64 - lanes),
            flying: 0,
            want: vec![0; if cross { lanes } else { 0 }],
            next_arrival: u64::MAX,
            open: 0,
            seen: None,
        }
    }

    /// Every lane of the stream, as a mask.
    fn all(&self) -> u64 {
        u64::MAX >> (64 - self.n_lanes)
    }

    /// The one-way split: every lane gets its own copy of the shared
    /// cursor, of its queued record indices and of its arrival cycles
    /// (write and data words are per lane already). Nothing observable
    /// changes; from here on the lanes may.
    fn split(&mut self) {
        if self.span == 1 {
            return;
        }
        let shared = self.cur[0];
        self.cur.resize(self.n_lanes as usize, shared);
        for lane in 1..self.n_lanes as usize {
            for k in 0..1 << self.a_shift {
                self.addr[(lane << self.a_shift) | k].0 = self.addr[k].0;
            }
            self.ready_at
                .copy_within(..1 << self.d_shift, lane << self.d_shift);
        }
        (self.span, self.group) = (1, 1);
    }

    /// Recompute cursor `i`'s cached head target. An out-of-range index
    /// is clamped to the bank's last word — for the sub-array lookup and
    /// the SRAM access alike — so buggy kernels fail loudly in functional
    /// checks, not with a slice-index panic here.
    #[inline]
    fn retarget(&mut self, i: usize) {
        let c = &mut self.cur[i];
        let record = self.addr[slot(i, c.a_pop, self.a_shift)].0;
        let (row, bank) = if self.kind == IdxKind::CrossLaneRead {
            div_rem(record, self.n_lanes, self.lane_shift)
        } else {
            (record, i as u32)
        };
        let b = &self.binding;
        let off = u64::from(b.range.base)
            + u64::from(row) * u64::from(b.record_words)
            + u64::from(c.head_word);
        debug_assert!(
            off < u64::from(b.range.base) + u64::from(b.range.words_per_bank),
            "indexed record {record} out of range"
        );
        c.off = off.min(u64::from(self.bank_words) - 1) as u32;
        c.bank = bank as u8;
        c.sub = div_rem(c.off, self.sub_words, self.sub_shift).0 as u8;
        if let Some(w) = self.want.get_mut(bank as usize) {
            *w |= 1 << i;
        }
    }

    /// Append `record` to cursor `i`'s address ring; returns its count.
    #[inline]
    fn enqueue(&mut self, i: usize, record: u32) -> u32 {
        debug_assert!(self.can_push_addr(i));
        let (c, lanes) = (&mut self.cur[i], self.group << i);
        let at = c.a_push;
        self.addr[slot(i, at, self.a_shift)].0 = record;
        c.a_push = at.wrapping_add(1);
        let len = c.a_push.wrapping_sub(c.a_pop);
        self.addr_nonempty |= lanes;
        if len == self.fifo_cap {
            self.addr_full |= lanes;
        }
        if len == 1 {
            self.retarget(i);
        }
        at
    }

    /// Room in lane `l`'s address FIFO?
    pub fn can_push_addr(&self, lane: usize) -> bool {
        self.addr_full & (1 << lane) == 0
    }

    /// Is any lane's address FIFO full (a whole-row push must stall)?
    pub(crate) fn any_addr_full(&self) -> bool {
        self.addr_full != 0
    }

    /// Queue a read-record address from lane `l`'s cluster.
    pub fn push_addr(&mut self, lane: usize, record: u32) {
        debug_assert!(self.kind != IdxKind::InLaneWrite);
        self.split();
        self.enqueue(lane, record);
    }

    /// Queue a single-word write at `record` from lane `l` (indexed write
    /// bindings are word-granular).
    pub fn push_write_word(&mut self, lane: usize, record: u32, word: Word) {
        debug_assert_eq!(self.kind, IdxKind::InLaneWrite);
        self.split();
        let at = self.enqueue(lane, record);
        self.addr[slot(lane, at, self.a_shift)].1 = word;
    }

    /// Queue one record per lane — with, on a write stream, the word each
    /// lane writes there (`words` is empty on a read stream; every lane
    /// must have room, [`IdxState::can_push_addr`]). A shared cursor takes
    /// a row whose lanes agree as one record and splits at the first that
    /// does not.
    pub fn push_row(&mut self, records: &[u32], words: &[Word]) {
        debug_assert_eq!(words.is_empty(), self.kind != IdxKind::InLaneWrite);
        if self.span > 1 {
            if records.iter().all(|&r| r == records[0]) {
                let at = self.enqueue(0, records[0]);
                for (lane, &w) in words.iter().enumerate() {
                    self.addr[slot(lane, at, self.a_shift)].1 = w;
                }
                return;
            }
            self.split();
        }
        for (lane, &record) in records.iter().enumerate() {
            let at = slot(lane, self.enqueue(lane, record), self.a_shift);
            if let Some(&w) = words.get(lane) {
                self.addr[at].1 = w;
            }
        }
    }

    /// Is a data word ready for lane `l`?
    pub fn can_pop_data(&self, lane: usize) -> bool {
        self.data_ready & (1 << lane) != 0
    }

    /// Is a data word ready in every lane (a whole-row pop can proceed)?
    pub(crate) fn all_data_ready(&self) -> bool {
        self.data_ready == self.all()
    }

    /// Pop the next ready data word for lane `l`.
    ///
    /// # Panics
    ///
    /// Panics if no data is ready.
    pub fn pop_data(&mut self, lane: usize) -> Word {
        assert!(self.can_pop_data(lane), "no indexed data ready");
        self.split();
        let c = &mut self.cur[lane];
        let w = self.data[slot(lane, c.d_pop, self.d_shift)];
        c.d_pop = c.d_pop.wrapping_add(1);
        self.data_ready &= !(u64::from(c.d_pop == c.d_land) << lane);
        self.room |= 1 << lane;
        w
    }

    /// Pop one ready word per lane into `out` (a slot per lane; every lane
    /// must have one, [`IdxState::can_pop_data`]).
    pub fn pop_row(&mut self, out: &mut [Word]) {
        assert!(self.all_data_ready() && out.len() == self.n_lanes as usize);
        let mut emptied = 0;
        if self.span == 1 {
            for (lane, (c, o)) in self.cur.iter_mut().zip(out).enumerate() {
                *o = self.data[slot(lane, c.d_pop, self.d_shift)];
                c.d_pop = c.d_pop.wrapping_add(1);
                emptied |= u64::from(c.d_pop == c.d_land) << lane;
            }
        } else {
            let c = &mut self.cur[0];
            for (lane, o) in out.iter_mut().enumerate() {
                *o = self.data[slot(lane, c.d_pop, self.d_shift)];
            }
            c.d_pop = c.d_pop.wrapping_add(1);
            if c.d_pop == c.d_land {
                emptied = self.group;
            }
        }
        self.data_ready &= !emptied;
        self.room = self.all();
    }

    /// Mark arrived in-flight words ready.
    #[inline]
    pub fn tick_arrivals(&mut self, now: u64) {
        self.tick_arrivals_budgeted(now, &mut { usize::MAX });
    }

    /// Mark arrived in-flight words ready, walking only the cursors with a
    /// word in flight and consuming one unit of `budget` per word, lanes
    /// ascending (cross-lane returns share the inter-cluster data network
    /// with explicit communications, which have priority; a queued return
    /// simply waits for a free slot). A budget short of `usize::MAX` tells
    /// lanes apart, so a shared cursor splits.
    #[inline(always)]
    pub fn tick_arrivals_budgeted(&mut self, now: u64, budget: &mut usize) {
        if now < self.next_arrival {
            return; // nothing lands: the common per-cycle case
        }
        if self.span > 1 && *budget < usize::MAX {
            self.split();
        }
        let (mut next, mut walk) = (u64::MAX, self.flying);
        while walk != 0 {
            let i = walk.trailing_zeros() as usize;
            let lanes = self.group << i;
            walk &= !lanes;
            let c = &mut self.cur[i];
            while c.front <= now && *budget > 0 {
                c.d_land = c.d_land.wrapping_add(1);
                *budget -= 1;
                self.data_ready |= lanes;
                c.front = if c.d_land == c.d_push {
                    self.flying &= !lanes;
                    u64::MAX
                } else {
                    self.ready_at[slot(i, c.d_land, self.d_shift)]
                };
            }
            next = next.min(c.front);
        }
        self.next_arrival = next;
    }

    /// Any address still queued or being expanded?
    pub fn pending_addresses(&self) -> bool {
        self.addr_nonempty != 0
    }

    /// All queues empty (used to detect kernel-drain completion)?
    pub fn drained(&self) -> bool {
        self.addr_nonempty == 0 && self.next_arrival == u64::MAX
    }

    /// The words just written at cursor `i`'s `d_push` slots are in flight
    /// until cycle `ready`.
    #[inline]
    fn land(&mut self, i: usize, ready: u64) {
        let (c, lanes) = (&mut self.cur[i], self.group << i);
        self.ready_at[slot(i, c.d_push, self.d_shift)] = ready;
        if c.d_land == c.d_push {
            c.front = ready;
            self.flying |= lanes;
        }
        c.d_push = c.d_push.wrapping_add(1);
        if c.d_push.wrapping_sub(c.d_pop) >= self.buf_cap {
            self.room &= !lanes;
        }
        self.next_arrival = self.next_arrival.min(ready);
    }

    /// One word of cursor `i`'s FIFO head was issued: advance its
    /// expansion counter, retire the record when complete, and retarget.
    /// Returns the FIFO occupancy afterwards.
    #[inline]
    fn advance_head(&mut self, i: usize) -> u32 {
        let (c, lanes) = (&mut self.cur[i], self.group << i);
        if let Some(w) = self.want.get_mut(c.bank as usize) {
            *w &= !lanes;
        }
        c.head_word += 1;
        if c.head_word == self.binding.record_words {
            c.head_word = 0;
            c.a_pop = c.a_pop.wrapping_add(1);
            self.addr_full &= !lanes;
            if c.a_pop == c.a_push {
                self.addr_nonempty &= !lanes;
                return 0;
            }
        }
        let len = c.a_push.wrapping_sub(c.a_pop);
        self.retarget(i);
        len
    }

    /// Serialize the dynamic state: every lane's address FIFO (with write
    /// payloads), head-expansion cursor, in-flight words, and ready data —
    /// the same bytes whether the lanes share a cursor or not.
    pub fn encode_state(&self, e: &mut Enc) {
        let write = self.kind == IdxKind::InLaneWrite;
        let (mut entries, mut flying) = (0, 0);
        e.usize(self.n_lanes as usize);
        for lane in 0..self.n_lanes as usize {
            let i = lane.min(self.cur.len() - 1);
            let c = &self.cur[i];
            let reqs = c.a_push.wrapping_sub(c.a_pop);
            e.usize(reqs as usize);
            for k in 0..reqs {
                let count = c.a_pop.wrapping_add(k);
                e.u32(self.addr[slot(i, count, self.a_shift)].0);
                e.u8(u8::from(write));
                if write {
                    e.u32(self.addr[slot(lane, count, self.a_shift)].1);
                }
            }
            e.u32(c.head_word);
            let inflight = c.d_push.wrapping_sub(c.d_land);
            e.usize(inflight as usize);
            for k in 0..inflight {
                let count = c.d_land.wrapping_add(k);
                e.u64(self.ready_at[slot(i, count, self.d_shift)]);
                e.u32(self.data[slot(lane, count, self.d_shift)]);
            }
            let ready = c.d_land.wrapping_sub(c.d_pop);
            e.usize(ready as usize);
            for k in 0..ready {
                e.u32(self.data[slot(lane, c.d_pop.wrapping_add(k), self.d_shift)]);
            }
            entries += reqs as usize;
            flying += inflight as usize;
        }
        e.usize(entries);
        e.usize(flying);
    }

    /// Overwrite the dynamic state from [`IdxState::encode_state`] bytes
    /// by replaying them as pushes and issues on an emptied, split stream.
    pub fn decode_state(&mut self, d: &mut Dec) -> Result<(), SnapError> {
        let mismatch = |what: &str| Err(SnapError::Mismatch(format!("indexed stream {what}")));
        let lanes = self.n_lanes as usize;
        if d.usize()? != lanes {
            return mismatch("lane count differs");
        }
        self.cur = vec![idle(); lanes];
        (self.span, self.group) = (1, 1);
        (self.addr_nonempty, self.addr_full, self.data_ready) = (0, 0, 0);
        (self.room, self.flying) = (self.all(), 0);
        self.want.fill(0);
        self.next_arrival = u64::MAX;
        for lane in 0..lanes {
            let reqs = d.usize()?;
            if reqs > self.fifo_cap as usize {
                return mismatch("address FIFO overflows its capacity");
            }
            for _ in 0..reqs {
                let at = slot(lane, self.enqueue(lane, d.u32()?), self.a_shift);
                match (d.u8()?, self.kind == IdxKind::InLaneWrite) {
                    (0, false) => {}
                    (1, true) => self.addr[at].1 = d.u32()?,
                    (t, _) => return mismatch(&format!("request tag {t} unsupported")),
                }
            }
            self.cur[lane].head_word = d.u32()?;
            if self.cur[lane].head_word >= self.binding.record_words {
                return mismatch("head cursor exceeds the record");
            }
            if reqs > 0 {
                self.retarget(lane);
            }
            // In-flight words precede the ready ones in the frame but
            // follow them in the ring: they are issued from count 0, and
            // the ready words count down from it.
            let inflight = d.usize()?;
            for _ in 0..inflight.min(self.buf_cap as usize) {
                let ready = d.u64()?;
                self.data[slot(lane, self.cur[lane].d_push, self.d_shift)] = d.u32()?;
                self.land(lane, ready);
            }
            let ready = d.usize()?;
            if inflight.saturating_add(ready) > self.buf_cap as usize {
                return mismatch("data buffer overflows its capacity");
            }
            self.cur[lane].d_pop = 0u32.wrapping_sub(ready as u32);
            for i in 0..ready as u32 {
                self.data[slot(lane, i.wrapping_sub(ready as u32), self.d_shift)] = d.u32()?;
            }
            self.data_ready |= u64::from(ready > 0) << lane;
            self.room &= !(u64::from(inflight + ready == self.buf_cap as usize) << lane);
        }
        // The frame's occupancy totals repeat what the queues just said.
        d.usize()?;
        d.usize()?;
        Ok(())
    }
}

/// Arbitration parameters extracted from the machine configuration.
#[derive(Debug, Clone, Copy)]
pub struct IdxParams {
    /// Lanes in the machine.
    pub lanes: usize,
    /// Peak in-lane indexed accesses per lane per cycle (1 or `s`).
    pub inlane_words_per_cycle: usize,
    /// Peak cross-lane issues per lane per cycle.
    pub crosslane_words_per_cycle: usize,
    /// In-lane access latency.
    pub inlane_latency: u64,
    /// Cross-lane access latency.
    pub crosslane_latency: u64,
    /// Cross-lane network ports per SRF bank.
    pub network_ports_per_bank: usize,
    /// Cross-lane interconnect topology.
    pub topology: CrossLaneTopology,
}

impl IdxParams {
    /// Extract from a machine configuration.
    ///
    /// # Panics
    ///
    /// Panics when the machine has no indexed SRF support.
    pub fn from_machine(m: &MachineConfig) -> Self {
        let idx = m.srf.indexed.as_ref().expect("machine lacks indexed SRF");
        IdxParams {
            lanes: m.lanes,
            inlane_words_per_cycle: idx.inlane_words_per_cycle,
            crosslane_words_per_cycle: idx.crosslane_words_per_cycle,
            inlane_latency: idx.inlane_latency as u64,
            crosslane_latency: idx.crosslane_latency as u64,
            network_ports_per_bank: idx.network_ports_per_bank,
            topology: idx.crosslane_topology,
        }
    }
}

/// Extra cycles a cross-lane access pays on a sparse interconnect:
/// crossbars deliver in one traversal; rings pay one cycle per hop beyond
/// the first (shortest direction).
pub fn topology_extra_latency(
    topology: CrossLaneTopology,
    from: usize,
    to: usize,
    lanes: usize,
) -> u64 {
    match topology {
        CrossLaneTopology::Crossbar => 0,
        CrossLaneTopology::Ring => {
            let d = from.abs_diff(to);
            (d.min(lanes - d).saturating_sub(1)) as u64
        }
    }
}

/// Per-cycle global cross-lane grant budget of the interconnect: a
/// crossbar can move one access per lane; a bidirectional ring is
/// bisection-limited to 4 concurrent traversals.
pub fn topology_issue_budget(topology: CrossLaneTopology, lanes: usize) -> usize {
    match topology {
        CrossLaneTopology::Crossbar => lanes,
        CrossLaneTopology::Ring => 4.min(lanes),
    }
}

/// Upper bound on SRF banks (and sub-arrays per bank) supported by the
/// lane masks and the per-cycle occupancy masks in [`service_indexed`]
/// (one `u64` of sub-array bits per bank, on the stack);
/// `MachineConfig::validate` rejects wider indexed machines.
const MAX_BANKS: usize = 64;

/// FIFO heads [`service_indexed`] has examined in this process: the
/// arbiter's work, pinned per point by `tests/idx_work.rs`. Debug builds
/// only — the build users run does not count.
#[cfg(debug_assertions)]
pub static HEADS_EXAMINED: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// The verdict on a FIFO head — `(bank, sub-array, hops, FIFO occupancy
/// after)` of an access, or why it was rejected.
type Verdict = Result<(u8, u8, u8, u8), Why>;

/// The trace event for `verdict` on lane `lane`'s head of stream `stream`.
#[inline(always)]
fn event(st: &IdxState, stream: usize, lane: usize, verdict: Verdict) -> TraceEvent {
    let crosslane = st.kind == IdxKind::CrossLaneRead;
    let (stream, lane) = (stream as u8, lane as u8);
    match verdict {
        Ok((bank, subarray, hops, fifo_after)) => TraceEvent::IdxAccess {
            stream,
            lane,
            bank: if crosslane { bank } else { lane },
            subarray,
            write: st.kind == IdxKind::InLaneWrite,
            crosslane,
            hops,
            fifo_after,
        },
        Err(reason) => TraceEvent::IdxReject {
            stream,
            lane,
            crosslane,
            reason,
        },
    }
}

/// One cycle of stage-2 (local) arbitration and SRAM access for all
/// indexed streams. Call when stage-1 grants the port to the indexed
/// group. Cross-lane *issue* uses the dedicated index network and is never
/// blocked by explicit communication; only the data *returns* contend for
/// the shared network (see [`IdxState::tick_arrivals_budgeted`]). `rr` is
/// a persistent round-robin pointer over streams. Every access served and
/// every rejected FIFO head is reported to `tracer` (budget exhaustion is
/// not a rejection — the head was never considered).
pub fn service_indexed(
    states: &mut [IdxState],
    srf: &mut Srf,
    now: u64,
    p: &IdxParams,
    rr: &mut usize,
    traffic: &mut SrfTraffic,
    tracer: &mut Tracer,
) {
    if states.is_empty() {
        return;
    }
    let start = if *rr < states.len() {
        *rr
    } else {
        *rr % states.len()
    };
    // Sub-array occupancy per bank for this cycle, shared between in-lane
    // and cross-lane accesses — the SRAM is single-ported per sub-array.
    let mut busy = [0u64; MAX_BANKS];
    // Per pass (in-lane `[0]`, cross-lane `[1]`), the lanes with a head and
    // with one that may issue.
    let (mut heads, mut open) = ([0u64; 2], [0u64; 2]);
    let (mut span, mut widest) = (usize::MAX, 0);
    for st in states.iter_mut() {
        st.open = st.addr_nonempty & st.room;
        if st.kind == IdxKind::CrossLaneRead {
            if p.network_ports_per_bank == 0 {
                st.open = 0; // no port: every bank is closed from the start
            }
            heads[1] |= st.addr_nonempty;
            open[1] |= st.open;
        } else {
            heads[0] |= st.addr_nonempty;
            open[0] |= st.open;
            (span, widest) = (span.min(st.span), widest.max(st.span));
        }
    }
    // A tracer hears of the heads that cannot issue too.
    let lanes = if tracer.enabled() { heads } else { open };
    if span < widest {
        // Lanes of a split stream may occupy different sub-arrays, so the
        // streams arbitrating beside it stop being lane-uniform too.
        states.iter_mut().for_each(IdxState::split);
        span = 1;
    }
    // One loop, compiled for the three shapes it runs in (a run-time `span`
    // cost sort and rijndael a fifth of their host time).
    if span == 1 {
        service_pass(
            states, srf, now, p, start, false, 1, lanes[0], &mut busy, traffic, tracer,
        );
    } else {
        service_pass(
            states, srf, now, p, start, false, span, lanes[0], &mut busy, traffic, tracer,
        );
    }
    service_pass(
        states, srf, now, p, start, true, 1, lanes[1], &mut busy, traffic, tracer,
    );
    *rr = if start + 1 < states.len() {
        start + 1
    } else {
        0
    };
}

/// Arbitrate the FIFO heads of the in-lane (or, with `cross`, cross-lane)
/// streams: cursors ascending — all lanes at once while every in-lane
/// stream shares its cursor — and streams round-robin from `rr`. In-lane,
/// a lane serves up to `inlane_words_per_cycle` accesses to distinct
/// sub-arrays, at most one per stream; cross-lane, each lane offers one
/// index per cycle and a bank accepts `network_ports_per_bank`. Only heads
/// in their stream's `open` mask are examined, and when a bank's last port
/// goes every head that wants it leaves in one `and`; a tracer has the
/// others walked too, for their `IdxReject`, and hears a shared cursor's
/// verdicts lane by lane, so events stay lane-major.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn service_pass(
    states: &mut [IdxState],
    srf: &mut Srf,
    now: u64,
    p: &IdxParams,
    rr: usize,
    cross: bool,
    span: usize,
    mut lanes: u64,
    busy: &mut [u64; MAX_BANKS],
    traffic: &mut SrfTraffic,
    tracer: &mut Tracer,
) {
    if lanes == 0 {
        return;
    }
    let mine = |st: &IdxState| (st.kind == IdxKind::CrossLaneRead) == cross;
    let (n, traced) = (states.len(), tracer.enabled());
    // The `k`-th stream in round-robin order.
    let nth = |k: usize| if rr + k < n { rr + k } else { rr + k - n };
    // Cross-lane accesses each bank has accepted this cycle (the issue
    // budget is at most one per lane, so a byte cannot overflow).
    let mut ports_used = [0u8; MAX_BANKS];
    let (per_lane, mut global, latency) = if cross {
        let global = topology_issue_budget(p.topology, p.lanes);
        (p.crosslane_words_per_cycle, global, p.crosslane_latency)
    } else {
        (p.inlane_words_per_cycle, usize::MAX, p.inlane_latency)
    };
    while lanes != 0 && global != 0 {
        let i = lanes.trailing_zeros() as usize;
        lanes &= !((u64::MAX >> (64 - span)) << i);
        let mut issues = per_lane;
        for k in 0..n {
            if issues == 0 || global == 0 {
                break;
            }
            let st = &mut states[nth(k)];
            if !mine(st) || st.addr_nonempty & (1 << i) == 0 {
                continue;
            }
            let mut closed = None;
            let verdict = if st.open & (1 << i) == 0 {
                // Masked out, the head waits: no room to land the data,
                // else the bank's network ports are exhausted.
                Err(if st.room & (1 << i) == 0 {
                    Why::DataBufferFull
                } else {
                    Why::BankPortBusy
                })
            } else {
                #[cfg(debug_assertions)]
                HEADS_EXAMINED.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let c = &st.cur[i];
                let (sub, off, a_pop, d_push) = (c.sub, c.off, c.a_pop, c.d_push);
                let bank = if cross { c.bank as usize } else { i };
                if busy[bank] & (1 << sub) != 0 {
                    Err(Why::SubarrayConflict)
                } else {
                    busy[bank] |= 1 << sub;
                    issues -= 1;
                    let mut hops = 0;
                    if cross {
                        global -= 1;
                        ports_used[bank] += 1;
                        if ports_used[bank] as usize >= p.network_ports_per_bank {
                            closed = Some(bank);
                        }
                        traffic.crosslane_words += 1;
                        hops = topology_extra_latency(p.topology, i, bank, p.lanes);
                    } else {
                        traffic.inlane_words += span as u64;
                    }
                    if st.kind == IdxKind::InLaneWrite {
                        for lane in i..i + span {
                            srf.write(lane, off, st.addr[slot(lane, a_pop, st.a_shift)].1);
                        }
                    } else {
                        for lane in i..i + span {
                            let from = if cross { bank } else { lane };
                            st.data[slot(lane, d_push, st.d_shift)] = srf.read(from, off);
                        }
                        st.land(i, now + latency + hops);
                    }
                    Ok((bank as u8, sub, hops as u8, st.advance_head(i) as u8))
                }
            };
            if traced && span == 1 {
                tracer.emit(now, event(st, nth(k), i, verdict));
            } else if traced {
                st.seen = Some(verdict); // all lanes' events, after this cursor's loop
            }
            if let Some(bank) = closed {
                // The bank is shut for the cycle: every head that wants it,
                // this stream's included, drops out of the pass.
                let mut open = 0;
                for st in states.iter_mut().filter(|st| mine(st)) {
                    st.open &= !st.want[bank];
                    open |= st.open;
                }
                if !traced {
                    lanes &= open;
                }
            }
        }
        let occupied = busy[i];
        busy[i..i + span].fill(occupied);
        if traced && span > 1 {
            for lane in i..i + span {
                for (k, st) in (0..n).map(|k| (nth(k), &states[nth(k)])) {
                    if let Some(seen) = st.seen {
                        tracer.emit(now, event(st, k, lane, seen));
                    }
                }
            }
            states.iter_mut().for_each(|st| st.seen = None);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::srf::SrfRange;
    use isrf_core::config::ConfigName;

    fn setup(kind: IdxKind) -> (Srf, IdxState, IdxParams, MachineConfig) {
        let m = MachineConfig::preset(ConfigName::Isrf4);
        let mut srf = Srf::new(&m);
        let range = srf.alloc(4096);
        // Fill lane-local pattern: lane l offset o holds l*10000 + o.
        for l in 0..8 {
            for o in 0..4096u32 {
                srf.write(l, o, l as u32 * 10_000 + o);
            }
        }
        let b = StreamBinding::whole(range, 1, 4096);
        let st = IdxState::new(b, kind, 8, &m);
        let p = IdxParams::from_machine(&m);
        (srf, st, p, m)
    }

    fn run_cycles(
        states: &mut [IdxState],
        srf: &mut Srf,
        p: &IdxParams,
        from: u64,
        cycles: u64,
    ) -> SrfTraffic {
        let mut traffic = SrfTraffic::default();
        let mut rr = 0;
        for now in from..from + cycles {
            for s in states.iter_mut() {
                s.tick_arrivals(now);
            }
            service_indexed(
                states,
                srf,
                now,
                p,
                &mut rr,
                &mut traffic,
                &mut Tracer::Null,
            );
        }
        for s in states.iter_mut() {
            s.tick_arrivals(from + cycles + 100);
        }
        traffic
    }

    #[test]
    fn inlane_read_returns_after_latency() {
        let (mut srf, mut st, p, _) = setup(IdxKind::InLaneRead);
        st.push_addr(0, 42);
        let mut states = [st];
        let mut traffic = SrfTraffic::default();
        let mut rr = 0;
        service_indexed(
            &mut states,
            &mut srf,
            0,
            &p,
            &mut rr,
            &mut traffic,
            &mut Tracer::Null,
        );
        assert_eq!(traffic.inlane_words, 1);
        states[0].tick_arrivals(3);
        assert!(!states[0].can_pop_data(0), "latency is 4");
        states[0].tick_arrivals(4);
        assert!(states[0].can_pop_data(0));
        assert_eq!(states[0].pop_data(0), 42);
    }

    #[test]
    fn single_stream_is_limited_to_one_word_per_cycle() {
        // Even on ISRF4, one stream issues at most one access per cycle.
        let (mut srf, mut st, p, _) = setup(IdxKind::InLaneRead);
        for r in 0..8 {
            st.push_addr(0, (r % 4) * 1024 + r / 4); // neighbours differ in sub-array
        }
        let mut states = [st];
        let t = run_cycles(&mut states, &mut srf, &p, 0, 4);
        assert_eq!(t.inlane_words, 4, "one per cycle for a single stream");
    }

    #[test]
    fn four_streams_reach_four_words_per_cycle() {
        let (mut srf, st0, p, m) = setup(IdxKind::InLaneRead);
        let b = st0.binding;
        let mut states = vec![st0];
        for _ in 0..3 {
            states.push(IdxState::new(b, IdxKind::InLaneRead, 8, &m));
        }
        // Each stream targets its own sub-array: no conflicts.
        for (i, s) in states.iter_mut().enumerate() {
            for k in 0..4 {
                s.push_addr(0, (i as u32) * 1024 + k);
            }
        }
        let t = run_cycles(&mut states, &mut srf, &p, 0, 4);
        assert_eq!(t.inlane_words, 16, "4 streams x 4 cycles");
    }

    #[test]
    fn subarray_conflicts_serialize() {
        let (mut srf, st0, p, m) = setup(IdxKind::InLaneRead);
        let b = st0.binding;
        let mut states = vec![st0, IdxState::new(b, IdxKind::InLaneRead, 8, &m)];
        // Both streams target sub-array 0.
        states[0].push_addr(0, 5);
        states[1].push_addr(0, 7);
        let mut traffic = SrfTraffic::default();
        let mut rr = 0;
        service_indexed(
            &mut states,
            &mut srf,
            0,
            &p,
            &mut rr,
            &mut traffic,
            &mut Tracer::Null,
        );
        assert_eq!(traffic.inlane_words, 1, "conflict: only one issues");
        service_indexed(
            &mut states,
            &mut srf,
            1,
            &p,
            &mut rr,
            &mut traffic,
            &mut Tracer::Null,
        );
        assert_eq!(
            traffic.inlane_words, 2,
            "the delayed access issues next cycle"
        );
    }

    #[test]
    fn isrf1_serves_one_access_per_lane() {
        let m = MachineConfig::preset(ConfigName::Isrf1);
        let mut srf = Srf::new(&m);
        let range = srf.alloc(4096);
        let b = StreamBinding::whole(range, 1, 4096);
        let mut states = vec![
            IdxState::new(b, IdxKind::InLaneRead, 8, &m),
            IdxState::new(b, IdxKind::InLaneRead, 8, &m),
        ];
        states[0].push_addr(0, 0); // sub-array 0
        states[1].push_addr(0, 1024); // sub-array 1: no conflict, but ISRF1
        let p = IdxParams::from_machine(&m);
        let mut traffic = SrfTraffic::default();
        let mut rr = 0;
        service_indexed(
            &mut states,
            &mut srf,
            0,
            &p,
            &mut rr,
            &mut traffic,
            &mut Tracer::Null,
        );
        assert_eq!(traffic.inlane_words, 1, "ISRF1: one indexed word per lane");
    }

    #[test]
    fn record_expansion_issues_word_per_cycle() {
        let (mut srf, _, p, m) = setup(IdxKind::InLaneRead);
        let range = SrfRange {
            base: 0,
            words_per_bank: 4096,
        };
        let b = StreamBinding::whole(range, 4, 1024);
        let mut st = IdxState::new(b, IdxKind::InLaneRead, 8, &m);
        st.push_addr(2, 10); // record 10 = lane-local words 40..44
        let mut states = [st];
        let t = run_cycles(&mut states, &mut srf, &p, 0, 6);
        assert_eq!(t.inlane_words, 4, "one record = 4 word accesses");
        let got: Vec<Word> = (0..4).map(|_| states[0].pop_data(2)).collect();
        assert_eq!(got, [20_040, 20_041, 20_042, 20_043]);
        assert!(states[0].drained());
    }

    #[test]
    fn fifo_capacity_backpressure() {
        let (_, mut st, _, _) = setup(IdxKind::InLaneRead);
        for r in 0..8 {
            assert!(st.can_push_addr(3));
            st.push_addr(3, r);
        }
        assert!(!st.can_push_addr(3), "FIFO holds 8 entries");
    }

    #[test]
    fn data_buffer_reservation_limits_inflight() {
        let (mut srf, mut st, p, _) = setup(IdxKind::InLaneRead);
        for r in 0..8 {
            st.push_addr(0, r);
        }
        let mut states = [st];
        let mut traffic = SrfTraffic::default();
        let mut rr = 0;
        // Never tick arrivals: in-flight + data accumulate to buf_cap = 8,
        // then issuing must stop.
        for now in 0..32 {
            service_indexed(
                &mut states,
                &mut srf,
                now,
                &p,
                &mut rr,
                &mut traffic,
                &mut Tracer::Null,
            );
        }
        assert_eq!(traffic.inlane_words, 8);
    }

    #[test]
    fn inlane_write_commits_to_srf() {
        let (mut srf, _, p, m) = setup(IdxKind::InLaneRead);
        let range = SrfRange {
            base: 100,
            words_per_bank: 256,
        };
        let b = StreamBinding::whole(range, 1, 256);
        let mut st = IdxState::new(b, IdxKind::InLaneWrite, 8, &m);
        st.push_write_word(5, 6, 77);
        st.push_write_word(5, 7, 88);
        let mut states = [st];
        run_cycles(&mut states, &mut srf, &p, 0, 3);
        assert_eq!(srf.read(5, 106), 77);
        assert_eq!(srf.read(5, 107), 88);
        assert!(states[0].drained());
    }

    /// The snapshot layout is pinned byte for byte: per lane the address
    /// FIFO (`record`, tag 0 for a read / tag 1 plus the word for a write),
    /// the head cursor, in-flight `(cycle, word)` pairs, ready words; then
    /// the two occupancy totals.
    #[test]
    fn snapshot_bytes_are_pinned_and_tag_2_is_rejected() {
        let (mut srf, _, p, m) = setup(IdxKind::InLaneRead);
        let range = SrfRange {
            base: 100,
            words_per_bank: 256,
        };
        let b = StreamBinding::whole(range, 1, 256);
        let mut wr = IdxState::new(b, IdxKind::InLaneWrite, 8, &m);
        wr.push_write_word(1, 6, 77);
        let mut rd = IdxState::new(b, IdxKind::InLaneRead, 8, &m);
        for r in [3, 4, 5] {
            rd.push_addr(1, r);
        }
        let mut states = [rd];
        let (mut traffic, mut rr) = (SrfTraffic::default(), 0);
        // Issue record 3 at cycle 0 (lands at 4) and record 4 at cycle 5.
        for now in [0, 5] {
            states[0].tick_arrivals(now);
            service_indexed(
                &mut states,
                &mut srf,
                now,
                &p,
                &mut rr,
                &mut traffic,
                &mut Tracer::Null,
            );
        }
        let lane =
            |e: &mut Enc, reqs: &[(u32, Option<Word>)], flying: &[(u64, Word)], ready: &[Word]| {
                e.usize(reqs.len());
                for &(record, w) in reqs {
                    e.u32(record);
                    e.u8(u8::from(w.is_some()));
                    if let Some(w) = w {
                        e.u32(w);
                    }
                }
                e.u32(0);
                e.usize(flying.len());
                for &(t, w) in flying {
                    e.u64(t);
                    e.u32(w);
                }
                e.usize(ready.len());
                for &w in ready {
                    e.u32(w);
                }
            };
        for (st, reqs, flying, ready) in [
            (&wr, &[(6, Some(77))][..], &[][..], &[][..]),
            (
                &states[0],
                &[(5, None)][..],
                &[(9, 10_104)][..],
                &[10_103][..],
            ),
        ] {
            let mut want = Enc::new();
            want.usize(8);
            for l in 0..8 {
                if l == 1 {
                    lane(&mut want, reqs, flying, ready);
                } else {
                    lane(&mut want, &[], &[], &[]);
                }
            }
            want.usize(reqs.len());
            want.usize(flying.len());
            let mut got = Enc::new();
            st.encode_state(&mut got);
            assert_eq!(got.into_bytes(), want.into_bytes());
        }
        // Tag 2 was the multi-word write payload; no stream produces it.
        let mut e = Enc::new();
        wr.encode_state(&mut e);
        let mut bytes = e.into_bytes();
        let empty_lane = 8 + 4 + 8 + 8; // FIFO length, head cursor, in-flight, ready
        let tag_at = 8 + empty_lane + 8 + 4; // lane count, lane 0, lane 1's length and record
        assert_eq!(bytes[tag_at], 1, "the queued write's tag byte");
        bytes[tag_at] = 2;
        let err = wr.decode_state(&mut Dec::new(&bytes)).unwrap_err();
        assert!(matches!(err, SnapError::Mismatch(_)), "{err}");
    }

    /// A dynamic index past the end of the bank is clamped once, so the
    /// sub-array lookup and the SRAM access agree on the bank's last word
    /// (debug builds assert instead).
    #[cfg(not(debug_assertions))]
    #[test]
    fn out_of_range_indices_are_clamped_not_panicking() {
        let (mut srf, _, p, m) = setup(IdxKind::InLaneRead);
        let whole = SrfRange {
            base: 0,
            words_per_bank: 4096,
        };
        let mut inl = IdxState::new(
            StreamBinding::whole(whole, 1, 4096),
            IdxKind::InLaneRead,
            8,
            &m,
        );
        let mut xl = IdxState::new(
            StreamBinding::whole(whole, 1, 32768),
            IdxKind::CrossLaneRead,
            8,
            &m,
        );
        let mut wr = IdxState::new(
            StreamBinding::whole(whole, 1, 4096),
            IdxKind::InLaneWrite,
            8,
            &m,
        );
        inl.push_addr(2, 4096); // first word past the bank
        inl.push_addr(3, u32::MAX);
        xl.push_addr(0, 8 * 4096 + 5); // row 4096 of bank 5
        xl.push_addr(1, u32::MAX);
        wr.push_write_word(6, 1 << 20, 0xABCD);
        let mut states = [inl, xl, wr];
        let t = run_cycles(&mut states, &mut srf, &p, 0, 16);
        assert_eq!((t.inlane_words, t.crosslane_words), (3, 2));
        assert_eq!(states[0].pop_data(2), 20_000 + 4095);
        assert_eq!(states[0].pop_data(3), 30_000 + 4095);
        assert_eq!(states[1].pop_data(0), 50_000 + 4095);
        assert_eq!(states[1].pop_data(1), 70_000 + 4095, "u32::MAX % 8 == 7");
        assert_eq!(srf.read(6, 4095), 0xABCD);
    }

    #[test]
    fn crosslane_read_routes_to_owning_bank() {
        let (mut srf, _, p, m) = setup(IdxKind::InLaneRead);
        let range = SrfRange {
            base: 0,
            words_per_bank: 4096,
        };
        let b = StreamBinding::whole(range, 1, 32768);
        let mut st = IdxState::new(b, IdxKind::CrossLaneRead, 8, &m);
        // Lane 0 asks for global record 13 -> bank 5, offset 1.
        st.push_addr(0, 13);
        let mut states = [st];
        let t = run_cycles(&mut states, &mut srf, &p, 0, 8);
        assert_eq!(t.crosslane_words, 1);
        assert_eq!(states[0].pop_data(0), 50_001);
    }

    #[test]
    fn crosslane_bank_port_contention() {
        let (mut srf, _, p, m) = setup(IdxKind::InLaneRead);
        let range = SrfRange {
            base: 0,
            words_per_bank: 4096,
        };
        let b = StreamBinding::whole(range, 1, 32768);
        let mut st = IdxState::new(b, IdxKind::CrossLaneRead, 8, &m);
        // All 8 lanes request records in bank 0 (records ≡ 0 mod 8) at
        // different sub-arrays — the single network port serializes them.
        for lane in 0..8 {
            st.push_addr(lane, (lane as u32) * 8 * 512);
        }
        let mut states = [st];
        let mut traffic = SrfTraffic::default();
        let mut rr = 0;
        service_indexed(
            &mut states,
            &mut srf,
            0,
            &p,
            &mut rr,
            &mut traffic,
            &mut Tracer::Null,
        );
        assert_eq!(traffic.crosslane_words, 1, "one port per bank per cycle");
        for now in 1..8 {
            service_indexed(
                &mut states,
                &mut srf,
                now,
                &p,
                &mut rr,
                &mut traffic,
                &mut Tracer::Null,
            );
        }
        assert_eq!(traffic.crosslane_words, 8);
    }

    #[test]
    fn comm_priority_delays_crosslane_returns() {
        let (mut srf, _, p, m) = setup(IdxKind::InLaneRead);
        let range = SrfRange {
            base: 0,
            words_per_bank: 4096,
        };
        let b = StreamBinding::whole(range, 1, 32768);
        let mut st = IdxState::new(b, IdxKind::CrossLaneRead, 8, &m);
        st.push_addr(0, 9);
        let mut states = [st];
        let mut traffic = SrfTraffic::default();
        let mut rr = 0;
        // Issue proceeds even while explicit comm owns the data network:
        // the index network is dedicated.
        service_indexed(
            &mut states,
            &mut srf,
            0,
            &p,
            &mut rr,
            &mut traffic,
            &mut Tracer::Null,
        );
        assert_eq!(traffic.crosslane_words, 1);
        // The return waits for a free network slot: zero budget keeps the
        // data queued past its latency; one slot delivers it.
        let mut none = 0usize;
        states[0].tick_arrivals_budgeted(100, &mut none);
        assert!(!states[0].can_pop_data(0));
        let mut one = 1usize;
        states[0].tick_arrivals_budgeted(100, &mut one);
        assert!(states[0].can_pop_data(0));
        assert_eq!(one, 0);
    }

    #[test]
    fn crosslane_and_inlane_share_subarrays() {
        let (mut srf, _, p, m) = setup(IdxKind::InLaneRead);
        let range = SrfRange {
            base: 0,
            words_per_bank: 4096,
        };
        let b = StreamBinding::whole(range, 1, 32768);
        let mut inl = IdxState::new(b, IdxKind::InLaneRead, 8, &m);
        let mut xl = IdxState::new(b, IdxKind::CrossLaneRead, 8, &m);
        // Lane 0 in-lane reads offset 3 (sub-array 0 of bank 0); lane 1
        // cross-lane reads record 8 -> bank 0 offset 1 (also sub-array 0).
        inl.push_addr(0, 3);
        xl.push_addr(1, 8);
        let mut states = [inl, xl];
        let mut traffic = SrfTraffic::default();
        let mut rr = 0;
        service_indexed(
            &mut states,
            &mut srf,
            0,
            &p,
            &mut rr,
            &mut traffic,
            &mut Tracer::Null,
        );
        assert_eq!(traffic.inlane_words, 1);
        assert_eq!(
            traffic.crosslane_words, 0,
            "cross-lane loses the sub-array to the in-lane access"
        );
        service_indexed(
            &mut states,
            &mut srf,
            1,
            &p,
            &mut rr,
            &mut traffic,
            &mut Tracer::Null,
        );
        assert_eq!(traffic.crosslane_words, 1);
    }
}
