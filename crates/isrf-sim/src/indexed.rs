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
//! rings rather than per-lane queues: an address ring and **one** data
//! ring whose words become ready when the lane's `d_land` count passes
//! them (DESIGN.md, "Indexed-stream state layout"). Lane bitmasks answer
//! the kernel's whole-row questions, and each lane caches its FIFO head's
//! `(bank, sub-array, offset)`, recomputed only when the head changes.

use isrf_core::config::{CrossLaneTopology, MachineConfig};
use isrf_core::snap::{Dec, Enc, SnapError};
use isrf_core::stats::SrfTraffic;
use isrf_core::Word;
use isrf_trace::{IdxRejectReason, TraceEvent, Tracer};

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

/// Ring cursors and cached head target of one lane of one stream. The
/// cursors are free-running counts (wrapping `u32`): a ring slot is the
/// count masked to the ring's power-of-two length, an occupancy the
/// difference of two counts.
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
    /// non-empty): clamped per-bank offset, bank and sub-array.
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
    cur: Vec<LaneCur>,
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
    /// holds an arrived word.
    addr_nonempty: u64,
    addr_full: u64,
    data_ready: u64,
    /// No in-flight word arrives before this cycle; `u64::MAX` exactly
    /// when nothing is in flight.
    next_arrival: u64,
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
        IdxState {
            binding,
            kind,
            cur: vec![idle(); lanes],
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
            next_arrival: u64::MAX,
        }
    }

    /// Recompute lane `lane`'s cached head target. An out-of-range index
    /// is clamped to the bank's last word — for the sub-array lookup and
    /// the SRAM access alike — so buggy kernels fail loudly in functional
    /// checks, not with a slice-index panic here.
    #[inline]
    fn retarget(&mut self, lane: usize) {
        let c = &mut self.cur[lane];
        let record = self.addr[slot(lane, c.a_pop, self.a_shift)].0;
        let (row, bank) = if self.kind == IdxKind::CrossLaneRead {
            div_rem(record, self.n_lanes, self.lane_shift)
        } else {
            (record, lane as u32)
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
    }

    /// Append `record` to lane `lane`'s address ring; returns its slot.
    #[inline]
    fn enqueue(&mut self, lane: usize, record: u32) -> usize {
        debug_assert!(self.can_push_addr(lane));
        let c = &mut self.cur[lane];
        let at = slot(lane, c.a_push, self.a_shift);
        self.addr[at].0 = record;
        c.a_push = c.a_push.wrapping_add(1);
        let len = c.a_push.wrapping_sub(c.a_pop);
        self.addr_nonempty |= 1 << lane;
        self.addr_full |= u64::from(len == self.fifo_cap) << lane;
        if len == 1 {
            self.retarget(lane);
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
        self.enqueue(lane, record);
    }

    /// Queue a single-word write at `record` from lane `l` (indexed write
    /// bindings are word-granular).
    pub fn push_write_word(&mut self, lane: usize, record: u32, word: Word) {
        debug_assert_eq!(self.kind, IdxKind::InLaneWrite);
        let at = self.enqueue(lane, record);
        self.addr[at].1 = word;
    }

    /// Is a data word ready for lane `l`?
    pub fn can_pop_data(&self, lane: usize) -> bool {
        self.data_ready & (1 << lane) != 0
    }

    /// Is a data word ready in every lane (a whole-row pop can proceed)?
    pub(crate) fn all_data_ready(&self) -> bool {
        self.data_ready == u64::MAX >> (64 - self.n_lanes)
    }

    /// Pop the next ready data word for lane `l`.
    ///
    /// # Panics
    ///
    /// Panics if no data is ready.
    pub fn pop_data(&mut self, lane: usize) -> Word {
        assert!(self.can_pop_data(lane), "no indexed data ready");
        let c = &mut self.cur[lane];
        let w = self.data[slot(lane, c.d_pop, self.d_shift)];
        c.d_pop = c.d_pop.wrapping_add(1);
        self.data_ready &= !(u64::from(c.d_pop == c.d_land) << lane);
        w
    }

    /// Pop one ready word per lane into `out` (a slot per lane; requires
    /// [`IdxState::all_data_ready`]).
    pub(crate) fn pop_row(&mut self, out: &mut [Word]) {
        assert!(self.all_data_ready() && out.len() == self.cur.len());
        let mut emptied = 0;
        for (lane, (c, o)) in self.cur.iter_mut().zip(out).enumerate() {
            *o = self.data[slot(lane, c.d_pop, self.d_shift)];
            c.d_pop = c.d_pop.wrapping_add(1);
            emptied |= u64::from(c.d_pop == c.d_land) << lane;
        }
        self.data_ready &= !emptied;
    }

    /// Mark arrived in-flight words ready.
    pub fn tick_arrivals(&mut self, now: u64) {
        self.tick_arrivals_budgeted(now, &mut { usize::MAX });
    }

    /// Mark arrived in-flight words ready, consuming one unit of `budget`
    /// per word (cross-lane returns share the inter-cluster data network
    /// with explicit communications, which have priority; a queued return
    /// simply waits for a free slot).
    pub fn tick_arrivals_budgeted(&mut self, now: u64, budget: &mut usize) {
        if now < self.next_arrival {
            return; // nothing lands: the common per-cycle case
        }
        let mut next = u64::MAX;
        for (lane, c) in self.cur.iter_mut().enumerate() {
            while c.front <= now && *budget > 0 {
                c.d_land = c.d_land.wrapping_add(1);
                *budget -= 1;
                self.data_ready |= 1 << lane;
                c.front = if c.d_land == c.d_push {
                    u64::MAX
                } else {
                    self.ready_at[slot(lane, c.d_land, self.d_shift)]
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

    /// Put `w`, read for lane `lane`, in flight until cycle `ready`.
    #[inline]
    fn land(&mut self, lane: usize, ready: u64, w: Word) {
        let c = &mut self.cur[lane];
        let at = slot(lane, c.d_push, self.d_shift);
        self.data[at] = w;
        self.ready_at[at] = ready;
        if c.d_land == c.d_push {
            c.front = ready;
        }
        c.d_push = c.d_push.wrapping_add(1);
        self.next_arrival = self.next_arrival.min(ready);
    }

    /// One word of lane `lane`'s FIFO head was issued: advance its
    /// expansion counter, retire the record when complete, and retarget.
    /// Returns the FIFO occupancy afterwards.
    #[inline]
    fn advance_head(&mut self, lane: usize) -> u32 {
        let c = &mut self.cur[lane];
        c.head_word += 1;
        if c.head_word == self.binding.record_words {
            c.head_word = 0;
            c.a_pop = c.a_pop.wrapping_add(1);
            self.addr_full &= !(1 << lane);
            if c.a_pop == c.a_push {
                self.addr_nonempty &= !(1 << lane);
                return 0;
            }
        }
        let len = c.a_push.wrapping_sub(c.a_pop);
        self.retarget(lane);
        len
    }

    /// Serialize the dynamic state: every lane's address FIFO (with write
    /// payloads), head-expansion cursor, in-flight words, and ready data.
    pub fn encode_state(&self, e: &mut Enc) {
        let write = self.kind == IdxKind::InLaneWrite;
        let (mut entries, mut flying) = (0, 0);
        e.usize(self.cur.len());
        for (lane, c) in self.cur.iter().enumerate() {
            let reqs = c.a_push.wrapping_sub(c.a_pop);
            e.usize(reqs as usize);
            for i in 0..reqs {
                let at = slot(lane, c.a_pop.wrapping_add(i), self.a_shift);
                e.u32(self.addr[at].0);
                e.u8(u8::from(write));
                if write {
                    e.u32(self.addr[at].1);
                }
            }
            e.u32(c.head_word);
            let inflight = c.d_push.wrapping_sub(c.d_land);
            e.usize(inflight as usize);
            for i in 0..inflight {
                let at = slot(lane, c.d_land.wrapping_add(i), self.d_shift);
                e.u64(self.ready_at[at]);
                e.u32(self.data[at]);
            }
            let ready = c.d_land.wrapping_sub(c.d_pop);
            e.usize(ready as usize);
            for i in 0..ready {
                e.u32(self.data[slot(lane, c.d_pop.wrapping_add(i), self.d_shift)]);
            }
            entries += reqs as usize;
            flying += inflight as usize;
        }
        e.usize(entries);
        e.usize(flying);
    }

    /// Overwrite the dynamic state from [`IdxState::encode_state`] bytes
    /// by replaying them as pushes and issues on an emptied stream.
    pub fn decode_state(&mut self, d: &mut Dec) -> Result<(), SnapError> {
        let mismatch = |what: &str| Err(SnapError::Mismatch(format!("indexed stream {what}")));
        if d.usize()? != self.cur.len() {
            return mismatch("lane count differs");
        }
        self.cur.fill(idle());
        (self.addr_nonempty, self.addr_full, self.data_ready) = (0, 0, 0);
        self.next_arrival = u64::MAX;
        for lane in 0..self.cur.len() {
            let reqs = d.usize()?;
            if reqs > self.fifo_cap as usize {
                return mismatch("address FIFO overflows its capacity");
            }
            for _ in 0..reqs {
                let at = self.enqueue(lane, d.u32()?);
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
                self.land(lane, ready, d.u32()?);
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
    service_pass::<false>(states, srf, now, p, start, &mut busy, traffic, tracer);
    service_pass::<true>(states, srf, now, p, start, &mut busy, traffic, tracer);
    *rr = if start + 1 < states.len() {
        start + 1
    } else {
        0
    };
}

/// Arbitrate the FIFO heads of the in-lane (or, with `CROSS`, cross-lane)
/// streams: lanes ascending, streams round-robin from `rr`, visiting only
/// lanes where some such stream has a head. In-lane, a lane serves up to
/// `inlane_words_per_cycle` accesses to distinct sub-arrays, at most one
/// per stream. Cross-lane, each lane offers one index per cycle over the
/// dedicated index network and banks accept up to
/// `network_ports_per_bank`.
#[allow(clippy::too_many_arguments)]
fn service_pass<const CROSS: bool>(
    states: &mut [IdxState],
    srf: &mut Srf,
    now: u64,
    p: &IdxParams,
    rr: usize,
    busy: &mut [u64; MAX_BANKS],
    traffic: &mut SrfTraffic,
    tracer: &mut Tracer,
) {
    let mine = |st: &IdxState| (st.kind == IdxKind::CrossLaneRead) == CROSS;
    let mut lanes = (states.iter().filter(|st| mine(st))).fold(0, |m, st| m | st.addr_nonempty);
    if lanes == 0 {
        return;
    }
    // Cross-lane accesses each bank has accepted this cycle (the issue
    // budget is at most one per lane, so a byte cannot overflow).
    let mut ports_used = [0u8; MAX_BANKS];
    let (per_lane, mut global) = if CROSS {
        let global = topology_issue_budget(p.topology, p.lanes);
        (p.crosslane_words_per_cycle, global)
    } else {
        (p.inlane_words_per_cycle, usize::MAX)
    };
    while lanes != 0 && global != 0 {
        let lane = lanes.trailing_zeros() as usize;
        lanes &= lanes - 1;
        let mut issues = per_lane;
        for k in 0..states.len() {
            if issues == 0 || global == 0 {
                break;
            }
            let si = if rr + k < states.len() {
                rr + k
            } else {
                rr + k - states.len()
            };
            let st = &mut states[si];
            if !mine(st) || st.addr_nonempty & (1 << lane) == 0 {
                continue;
            }
            let c = &st.cur[lane];
            let (bank, sub, off, a_pop) = (c.bank as usize, c.sub, c.off, c.a_pop);
            let write = st.kind == IdxKind::InLaneWrite;
            // No room to land the data / bank's network ports exhausted /
            // sub-array taken: the head waits (head-of-line).
            let full = !write && c.d_push.wrapping_sub(c.d_pop) >= st.buf_cap;
            let no_port = CROSS && ports_used[bank] as usize >= p.network_ports_per_bank;
            if full || no_port || busy[bank] & (1 << sub) != 0 {
                let reason = if full {
                    IdxRejectReason::DataBufferFull
                } else if no_port {
                    IdxRejectReason::BankPortBusy
                } else {
                    IdxRejectReason::SubarrayConflict
                };
                let (stream, lane) = (si as u8, lane as u8);
                tracer.emit(
                    now,
                    TraceEvent::IdxReject {
                        stream,
                        lane,
                        crosslane: CROSS,
                        reason,
                    },
                );
                continue;
            }
            busy[bank] |= 1 << sub;
            issues -= 1;
            let mut hops = 0;
            if CROSS {
                ports_used[bank] += 1;
                global -= 1;
                traffic.crosslane_words += 1;
                hops = topology_extra_latency(p.topology, lane, bank, p.lanes);
            } else {
                traffic.inlane_words += 1;
            }
            if write {
                srf.write(bank, off, st.addr[slot(lane, a_pop, st.a_shift)].1);
            } else {
                let latency = if CROSS {
                    p.crosslane_latency + hops
                } else {
                    p.inlane_latency
                };
                st.land(lane, now + latency, srf.read(bank, off));
            }
            let fifo_after = st.advance_head(lane) as u8;
            tracer.emit(
                now,
                TraceEvent::IdxAccess {
                    stream: si as u8,
                    lane: lane as u8,
                    bank: bank as u8,
                    subarray: sub,
                    write,
                    crosslane: CROSS,
                    hops: hops as u8,
                    fifo_after,
                },
            );
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
