//! The stream memory controller: whole-stream transfers under bandwidth
//! limits.
//!
//! Stream memory operations move entire streams between the SRF and
//! off-chip memory ("a single instruction loads or stores an entire
//! stream"). [`MemorySystem`] accepts such transfers, serves their words
//! cycle by cycle under the DRAM (and, on the `Cache` configuration, cache)
//! bandwidth budgets using leaky-bucket credits, and reports completion so
//! the stream-level program executor can overlap transfers with kernel
//! execution.
//!
//! Data moves functionally at request time (the stream-level executor
//! enforces stream dependences, so no transfer observes a racing one);
//! *timing* — and the off-chip-traffic accounting behind Figure 11 —
//! resolves over subsequent [`MemorySystem::tick`] calls.
//!
//! In-flight transfers live in a slab: a [`TransferId`] carries both a
//! stable sequential id (stamped into traces) and its slab slot, so the
//! machine model keeps O(1) side tables without hashing, and completions
//! drain through [`MemorySystem::pop_ready`] in deterministic
//! (completion-time, id) order instead of a per-cycle scan.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use isrf_core::config::MachineConfig;
use isrf_core::snap::{read_sections, write_sections, Dec, Enc, SnapError};
// `not(doctest)` wherever `HostWork` is named: rustdoc collects release
// doctests with debug assertions on, against an isrf-core built without.
#[cfg(all(debug_assertions, not(doctest)))]
use isrf_core::stats::HostWork;
use isrf_core::stats::MemTraffic;
use isrf_core::word::WORD_BYTES;
use isrf_core::Word;

use isrf_trace::{TraceEvent, Tracer};

use crate::cache::VectorCache;
use crate::memory::Memory;
use crate::Divisor;

/// Handle for an in-flight or completed stream transfer.
///
/// Ids are handed out sequentially ([`TransferId::raw`] is the number
/// trace events carry); internally each id also pins the slab slot the
/// transfer occupies while live, which [`TransferId::slot`] exposes for
/// O(1) side tables. Slots are reused after [`MemorySystem::pop_ready`]
/// retires a transfer; a generation counter keeps stale ids harmless.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TransferId {
    raw: u64,
    slot: u32,
    gen: u32,
}

impl TransferId {
    /// The underlying sequential id, as stamped into trace events.
    pub fn raw(self) -> u64 {
        self.raw
    }

    /// The slab slot this transfer occupies while live. Stable from
    /// issue until [`MemorySystem::pop_ready`] returns the id; reused
    /// afterwards, so index side tables only for live transfers.
    pub fn slot(self) -> usize {
        self.slot as usize
    }
}

/// Address pattern of a stream memory operation: a run of consecutive
/// words, or a list of word addresses (gather/scatter) that a program and
/// every transfer issued from it share.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AddrPattern {
    /// `words` consecutive words from `base`.
    Contiguous {
        /// First word address.
        base: u32,
        /// Number of words.
        words: u32,
    },
    /// Arbitrary word addresses (gather/scatter).
    Indexed(
        /// Word address of each element, in stream order.
        Arc<[u32]>,
    ),
}

impl AddrPattern {
    /// Convenience constructor for [`AddrPattern::Contiguous`].
    pub fn contiguous(base: u32, words: u32) -> Self {
        AddrPattern::Contiguous { base, words }
    }

    /// Number of words the pattern touches.
    pub fn len(&self) -> usize {
        match self {
            AddrPattern::Contiguous { words, .. } => *words as usize,
            AddrPattern::Indexed(addrs) => addrs.len(),
        }
    }

    /// True for a zero-length pattern.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `i`-th word address of the pattern, in stream order.
    ///
    /// # Panics
    ///
    /// Panics when `i >= self.len()`.
    pub fn addr_at(&self, i: usize) -> u32 {
        match self {
            AddrPattern::Contiguous { base, words } => {
                assert!(i < *words as usize);
                base + i as u32
            }
            AddrPattern::Indexed(addrs) => addrs[i],
        }
    }

    /// The word addresses in stream order, with one `match` for the whole
    /// pattern rather than one per word.
    pub fn addrs(&self) -> impl Iterator<Item = u32> + '_ {
        let (base, words, list): (u32, u32, &[u32]) = match self {
            AddrPattern::Contiguous { base, words } => (*base, *words, &[]),
            AddrPattern::Indexed(addrs) => (0, 0, addrs),
        };
        (0..words)
            .map(move |i| base + i)
            .chain(list.iter().copied())
    }

    /// Materialize the word addresses in stream order.
    pub fn to_addrs(&self) -> Vec<u32> {
        self.addrs().collect()
    }

    /// DRAM bursts of `burst_words` words a transfer of this pattern opens
    /// when [`MemorySystem`] serves it uncached: one at its first word and
    /// one at every word outside the burst of the word before it, each
    /// charged `burst_words` of credit by `serve_one`. A run opens each
    /// burst it spans once, so it is counted in closed form; a list is
    /// walked once.
    pub fn burst_openings(&self, burst_words: u32) -> u64 {
        match self {
            AddrPattern::Contiguous { words: 0, .. } => 0,
            AddrPattern::Contiguous { base, words } => {
                let b = u64::from(burst_words.max(1));
                let (first, last) = (u64::from(*base), u64::from(*base) + u64::from(*words) - 1);
                last / b - first / b + 1
            }
            AddrPattern::Indexed(addrs) => {
                let burst = Divisor::new(burst_words.max(1));
                let mut open = None;
                let opens = |&&a: &&u32| {
                    let b = Some(burst.div_rem(a).0);
                    std::mem::replace(&mut open, b) != b
                };
                addrs.iter().filter(opens).count() as u64
            }
        }
    }
}

#[derive(Debug)]
struct Inflight {
    id: TransferId,
    pattern: AddrPattern,
    cursor: usize,
    write: bool,
    cacheable: bool,
    touched_dram: bool,
    /// DRAM burst most recently opened by this transfer (burst-aligned
    /// address / burst_words); words within it are bandwidth-free.
    last_burst: Option<u32>,
    /// The word at `cursor`: its address and its burst. Stepped as the
    /// cursor moves, derived at enqueue and decode, never serialized.
    next_addr: u32,
    next_burst: u32,
}

impl Inflight {
    /// The next word rides the burst this transfer has open, so it is
    /// served whatever the DRAM credit.
    fn rides_open_burst(&self) -> bool {
        !self.cacheable && self.last_burst == Some(self.next_burst)
    }

    /// Move past the word just served: the address steps by one, or is
    /// read from the list. False when no word is left.
    fn step(&mut self, burst: Divisor) -> bool {
        self.cursor += 1;
        if self.cursor == self.pattern.len() {
            return false;
        }
        self.next_addr = match &self.pattern {
            AddrPattern::Contiguous { .. } => self.next_addr + 1,
            AddrPattern::Indexed(addrs) => addrs[self.cursor],
        };
        self.next_burst = burst.div_rem(self.next_addr).0;
        true
    }
}

/// Lifecycle of a slab slot's current occupant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotState {
    /// Words still being served by the channel.
    Serving,
    /// All words served; waiting out the access latency until
    /// `complete_at`.
    Latency {
        /// First cycle at which the data is usable.
        complete_at: u64,
    },
    /// Popped via [`MemorySystem::pop_ready`]; the slot is on the free
    /// list.
    Retired,
}

#[derive(Debug)]
struct Slot {
    gen: u32,
    state: SlotState,
}

/// The stream memory system: functional memory + DRAM channel (+ optional
/// vector cache) + transfer scheduling.
#[derive(Debug)]
pub struct MemorySystem {
    now: u64,
    mem: Memory,
    dram_words_per_cycle: f64,
    dram_credit: f64,
    dram_latency: u64,
    burst_words: u32,
    /// `burst_words` as the divisor of an address (1 in every preset).
    burst: Divisor,
    cache: Option<VectorCache>,
    cache_words_per_cycle: f64,
    cache_credit: f64,
    cache_hit_latency: u64,
    /// Transfers being served, in round-robin order starting at index
    /// `rr` and wrapping: service rotates by moving `rr`, not the entries.
    inflight: Vec<Inflight>,
    rr: usize,
    /// Transfers in `inflight` whose next word rides an open burst, and those
    /// that bypass the cache: kept where a transfer is enqueued, served,
    /// finished or decoded, so the walk knows without a scan when to stop.
    riding: usize,
    uncached: usize,
    slots: Vec<Slot>,
    free_slots: Vec<u32>,
    /// Transfers waiting out their latency (or already usable but not yet
    /// popped), ordered by (completion cycle, sequential id).
    ready: BinaryHeap<Reverse<(u64, u64, u32, u32)>>,
    next_id: u64,
    traffic: MemTraffic,
    served_last_tick: u64,
    #[cfg(all(debug_assertions, not(doctest)))]
    work: HostWork,
}

impl MemorySystem {
    /// Build the memory system for a machine configuration.
    pub fn new(cfg: &MachineConfig) -> Self {
        let cache = cfg.cache.as_ref().map(VectorCache::new);
        let burst_words = cfg.dram.burst_words.max(1);
        MemorySystem {
            now: 0,
            mem: Memory::new(),
            dram_words_per_cycle: cfg.dram.words_per_cycle(),
            dram_credit: 0.0,
            dram_latency: cfg.dram.latency_cycles as u64,
            burst_words,
            burst: Divisor::new(burst_words),
            cache_words_per_cycle: cfg
                .cache
                .as_ref()
                .map(|c| c.words_per_cycle())
                .unwrap_or(0.0),
            cache_credit: 0.0,
            cache_hit_latency: cfg
                .cache
                .as_ref()
                .map(|c| c.hit_latency as u64)
                .unwrap_or(0),
            cache,
            inflight: Vec::new(),
            rr: 0,
            riding: 0,
            uncached: 0,
            slots: Vec::new(),
            free_slots: Vec::new(),
            ready: BinaryHeap::new(),
            next_id: 0,
            traffic: MemTraffic::default(),
            served_last_tick: 0,
            #[cfg(all(debug_assertions, not(doctest)))]
            work: HostWork::default(),
        }
    }

    /// Current cycle count of this memory system's clock.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// The functional memory.
    pub fn memory(&self) -> &Memory {
        &self.mem
    }

    /// Mutable access to the functional memory (for laying out benchmark
    /// data before a run).
    pub fn memory_mut(&mut self) -> &mut Memory {
        &mut self.mem
    }

    /// Off-chip traffic accumulated so far.
    pub fn traffic(&self) -> MemTraffic {
        self.traffic
    }

    /// The vector cache, when configured.
    pub fn cache(&self) -> Option<&VectorCache> {
        self.cache.as_ref()
    }

    /// True while any transfer is still being served or waiting out its
    /// latency.
    pub fn busy(&self) -> bool {
        !self.inflight.is_empty() || self.ready.iter().any(|&Reverse((t, ..))| t > self.now)
    }

    fn alloc_id(&mut self) -> TransferId {
        let raw = self.next_id;
        self.next_id += 1;
        let slot = match self.free_slots.pop() {
            Some(s) => {
                let entry = &mut self.slots[s as usize];
                entry.gen = entry.gen.wrapping_add(1);
                entry.state = SlotState::Serving;
                s
            }
            None => {
                self.slots.push(Slot {
                    gen: 0,
                    state: SlotState::Serving,
                });
                (self.slots.len() - 1) as u32
            }
        };
        TransferId {
            raw,
            slot,
            gen: self.slots[slot as usize].gen,
        }
    }

    fn finish_serving(&mut self, id: TransferId, complete_at: u64) {
        self.slots[id.slot as usize].state = SlotState::Latency { complete_at };
        self.ready
            .push(Reverse((complete_at, id.raw, id.slot, id.gen)));
    }

    /// Begin a stream load. Data is returned immediately for functional
    /// use; the transfer is *timing*-complete only once
    /// [`MemorySystem::is_complete`] reports so.
    ///
    /// `cacheable` marks streams with temporal-locality potential; the
    /// paper's `Cache` configuration caches only those to avoid pollution.
    /// The flag is ignored when no cache is configured. An indexed
    /// transfer holds `pattern`'s list, not a copy of it.
    pub fn start_read(
        &mut self,
        pattern: &AddrPattern,
        cacheable: bool,
    ) -> (TransferId, Vec<Word>) {
        let data = match pattern {
            AddrPattern::Contiguous { base, words } => self.mem.read_block(*base, *words as usize),
            AddrPattern::Indexed(addrs) => self.mem.gather(addrs),
        };
        let id = self.enqueue(pattern.clone(), false, cacheable);
        (id, data)
    }

    /// Begin a stream store of `data` following `pattern`.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` differs from the pattern length.
    pub fn start_write(
        &mut self,
        pattern: &AddrPattern,
        data: &[Word],
        cacheable: bool,
    ) -> TransferId {
        assert_eq!(pattern.len(), data.len(), "store data length mismatch");
        match pattern {
            AddrPattern::Contiguous { base, .. } => self.mem.write_block(*base, data),
            AddrPattern::Indexed(addrs) => self.mem.scatter(addrs, data),
        }
        self.enqueue(pattern.clone(), true, cacheable)
    }

    fn enqueue(&mut self, pattern: AddrPattern, write: bool, cacheable: bool) -> TransferId {
        let id = self.alloc_id();
        if pattern.is_empty() {
            self.finish_serving(id, self.now);
            return id;
        }
        // The newcomer is last in round-robin order.
        self.inflight.rotate_left(self.rr);
        self.rr = 0;
        self.push_inflight(Inflight {
            id,
            pattern,
            cursor: 0,
            write,
            cacheable: cacheable && self.cache.is_some(),
            touched_dram: false,
            last_burst: None,
            next_addr: 0,
            next_burst: 0,
        });
        id
    }

    /// Append `t` to the walk, standing at the word its cursor names, and
    /// count it in `riding` and `uncached`.
    fn push_inflight(&mut self, mut t: Inflight) {
        t.next_addr = t.pattern.addr_at(t.cursor);
        t.next_burst = self.burst.div_rem(t.next_addr).0;
        self.riding += usize::from(t.rides_open_burst());
        self.uncached += usize::from(!t.cacheable);
        self.inflight.push(t);
    }

    /// True once transfer `id`'s data is usable (all words served and the
    /// access latency has elapsed). Transfers retired via
    /// [`MemorySystem::pop_ready`] stay complete forever.
    pub fn is_complete(&self, id: TransferId) -> bool {
        let slot = &self.slots[id.slot as usize];
        if slot.gen != id.gen {
            // The slot moved on to a younger transfer: `id` was retired.
            return true;
        }
        match slot.state {
            SlotState::Serving => false,
            SlotState::Latency { complete_at } => self.now >= complete_at,
            SlotState::Retired => true,
        }
    }

    /// Pop the next transfer whose data became usable, retiring it and
    /// freeing its slab slot for reuse. Transfers drain in deterministic
    /// (completion cycle, issue id) order. Returns `None` when nothing
    /// (more) is ready this cycle.
    #[inline]
    pub fn pop_ready(&mut self) -> Option<TransferId> {
        let &Reverse((complete_at, raw, slot, gen)) = self.ready.peek()?;
        if complete_at > self.now {
            return None;
        }
        self.ready.pop();
        let entry = &mut self.slots[slot as usize];
        debug_assert_eq!(entry.gen, gen, "ready heap out of sync with slab");
        entry.state = SlotState::Retired;
        self.free_slots.push(slot);
        Some(TransferId { raw, slot, gen })
    }

    /// Number of transfers still being served word-by-word.
    pub fn inflight_count(&self) -> usize {
        self.inflight.len()
    }

    /// Words served by the most recent [`MemorySystem::tick`] (used by the
    /// machine model to account SRF-port occupancy of memory transfers).
    pub fn words_served_last_tick(&self) -> u64 {
        self.served_last_tick
    }

    /// What the service walk has done since this system was built: its
    /// visits, words served and bursts opened, `heads` left zero (debug
    /// builds only; a snapshot neither saves nor restores it).
    #[cfg(all(debug_assertions, not(doctest)))]
    pub fn work(&self) -> HostWork {
        self.work
    }

    /// Advance one cycle: replenish bandwidth credits and serve words of
    /// in-flight transfers round-robin.
    pub fn tick(&mut self) {
        self.tick_traced(&mut Tracer::Null);
    }

    /// [`MemorySystem::tick`], emitting transfer/cache events into
    /// `tracer`. Inlined: an idle cycle only refills the credits.
    #[inline]
    pub fn tick_traced(&mut self, tracer: &mut Tracer) {
        self.now += 1;
        self.served_last_tick = 0;
        // Leaky-bucket credits: accumulate up to a small burst so that
        // fractional words/cycle average out, without unbounded bursts
        // after idle periods.
        let dram_cap = (self.dram_words_per_cycle * 4.0).max(4.0);
        self.dram_credit = (self.dram_credit + self.dram_words_per_cycle).min(dram_cap);
        if self.cache.is_some() {
            let cache_cap = (self.cache_words_per_cycle * 4.0).max(4.0);
            self.cache_credit = (self.cache_credit + self.cache_words_per_cycle).min(cache_cap);
        }
        if !self.inflight.is_empty() {
            self.serve(tracer);
        }
    }

    /// The service walk of one cycle, with transfers in flight.
    fn serve(&mut self, tracer: &mut Tracer) {
        // Serve as many words as credits allow, rotating across transfers.
        // The extra rotation makes the marginal (fractional-credit) word
        // alternate between transfers instead of always favoring the first.
        // Transfers are served where they sit: the walk visits them from
        // `rr` on, wrapping, and removing a finished one keeps the order.
        self.rr += 1;
        if self.rr == self.inflight.len() {
            self.rr = 0;
        }
        // The walk ends the moment no visit could serve a word — a visit
        // that cannot returns before it touches any state, so the ones not
        // made are unobservable. A word is servable when it rides an open
        // burst; otherwise only while there is DRAM credit, and through the
        // cache only while there is cache credit too.
        let mut i = self.rr;
        while self.riding > 0
            || self.dram_credit > 0.0 && (self.uncached > 0 || self.cache_credit > 0.0)
        {
            #[cfg(all(debug_assertions, not(doctest)))]
            {
                self.work.visits += 1;
            }
            if self.serve_one(i, tracer) {
                let t = self.inflight.remove(i);
                let latency = if t.touched_dram || !t.cacheable {
                    self.dram_latency
                } else {
                    self.cache_hit_latency
                };
                self.finish_serving(t.id, self.now + latency);
                tracer.emit(self.now, TraceEvent::TransferServed { id: t.id.raw() });
                self.uncached -= usize::from(!t.cacheable);
                self.rr -= usize::from(i < self.rr);
                if self.rr == self.inflight.len() {
                    self.rr = 0;
                }
                if self.inflight.is_empty() {
                    break;
                }
            } else if self.riding != 1
                || self.dram_credit > 0.0
                || !self.inflight[i].rides_open_burst()
            {
                // With DRAM credit out, a lone rider is all a round serves.
                i += 1;
            }
            if i == self.inflight.len() {
                i = 0;
            }
        }
    }

    /// Serialize every piece of dynamic state — clock, credits, functional
    /// memory, cache contents, the in-flight transfer slab and the ready
    /// queue — as a section list (`sys`, `data`, and `cache` when
    /// configured). Rate and latency parameters are not written; they are
    /// rebuilt from the configuration by [`MemorySystem::new`].
    pub fn encode_state(&self) -> Vec<u8> {
        let mut sys = Enc::new();
        sys.u64(self.now);
        sys.f64(self.dram_credit);
        sys.f64(self.cache_credit);
        sys.u64(self.served_last_tick);
        sys.u64(self.next_id);
        self.traffic.encode_state(&mut sys);
        sys.usize(self.inflight.len());
        let (before, from) = self.inflight.split_at(self.rr);
        for t in from.iter().chain(before) {
            sys.u64(t.id.raw);
            sys.u32(t.id.slot);
            sys.u32(t.id.gen);
            match &t.pattern {
                AddrPattern::Contiguous { base, words } => {
                    sys.u8(0);
                    sys.u32(*base);
                    sys.u32(*words);
                }
                AddrPattern::Indexed(addrs) => {
                    sys.u8(2);
                    sys.words(addrs);
                }
            }
            sys.usize(t.cursor);
            sys.bool(t.write);
            sys.bool(t.cacheable);
            sys.bool(t.touched_dram);
            match t.last_burst {
                Some(b) => {
                    sys.bool(true);
                    sys.u32(b);
                }
                None => sys.bool(false),
            }
        }
        sys.usize(self.slots.len());
        for s in &self.slots {
            sys.u32(s.gen);
            match s.state {
                SlotState::Serving => sys.u8(0),
                SlotState::Latency { complete_at } => {
                    sys.u8(1);
                    sys.u64(complete_at);
                }
                SlotState::Retired => sys.u8(2),
            }
        }
        sys.words(&self.free_slots);
        // The heap iterates in arbitrary order; sort for deterministic
        // bytes (the ordering is recovered by re-pushing on decode).
        let mut ready: Vec<(u64, u64, u32, u32)> = self.ready.iter().map(|&Reverse(t)| t).collect();
        ready.sort_unstable();
        sys.usize(ready.len());
        for (at, raw, slot, gen) in ready {
            sys.u64(at);
            sys.u64(raw);
            sys.u32(slot);
            sys.u32(gen);
        }

        let mut secs: Vec<(&str, Vec<u8>)> = vec![("sys", sys.into_bytes())];
        secs.push(("data", self.mem.encode_state()));
        if let Some(cache) = &self.cache {
            let mut ce = Enc::new();
            cache.encode_state(&mut ce);
            secs.push(("cache", ce.into_bytes()));
        }
        let mut e = Enc::new();
        write_sections(&mut e, &secs);
        e.into_bytes()
    }

    /// Overwrite this system's dynamic state from
    /// [`MemorySystem::encode_state`] bytes. `self` must have been built
    /// for the same machine configuration (in particular, cache presence
    /// and geometry must match).
    pub fn decode_state(&mut self, bytes: &[u8]) -> Result<(), SnapError> {
        let secs = read_sections(bytes)?;
        let find = |name: &str| secs.iter().find(|s| s.name == name);
        let sys_sec = find("sys")
            .ok_or_else(|| SnapError::Mismatch("memory-system snapshot missing sys".into()))?;
        let data_sec = find("data")
            .ok_or_else(|| SnapError::Mismatch("memory-system snapshot missing data".into()))?;
        match (find("cache"), &mut self.cache) {
            (Some(sec), Some(cache)) => {
                let mut cd = Dec::new(&sec.bytes);
                cache.decode_state(&mut cd)?;
                cd.finish()?;
            }
            (None, None) => {}
            (Some(_), None) => {
                return Err(SnapError::Mismatch(
                    "snapshot has a cache but this configuration does not".into(),
                ))
            }
            (None, Some(_)) => {
                return Err(SnapError::Mismatch(
                    "this configuration has a cache but the snapshot does not".into(),
                ))
            }
        }
        self.mem.decode_state(&data_sec.bytes)?;

        let mut d = Dec::new(&sys_sec.bytes);
        self.now = d.u64()?;
        self.dram_credit = d.f64()?;
        self.cache_credit = d.f64()?;
        self.served_last_tick = d.u64()?;
        self.next_id = d.u64()?;
        self.traffic = MemTraffic::decode_state(&mut d)?;
        let n_inflight = d.usize()?;
        self.inflight.clear();
        (self.rr, self.riding, self.uncached) = (0, 0, 0);
        for _ in 0..n_inflight {
            let id = TransferId {
                raw: d.u64()?,
                slot: d.u32()?,
                gen: d.u32()?,
            };
            let pattern = match d.u8()? {
                0 => AddrPattern::contiguous(d.u32()?, d.u32()?),
                2 => AddrPattern::Indexed(d.words()?.into()),
                t => {
                    return Err(SnapError::Mismatch(format!("bad pattern tag {t}")));
                }
            };
            let cursor = d.usize()?;
            let write = d.bool()?;
            let cacheable = d.bool()?;
            let touched_dram = d.bool()?;
            let last_burst = if d.bool()? { Some(d.u32()?) } else { None };
            if cursor >= pattern.len() {
                return Err(SnapError::Mismatch(format!(
                    "in-flight transfer {} has no word left to serve",
                    id.raw
                )));
            }
            self.push_inflight(Inflight {
                id,
                pattern,
                cursor,
                write,
                cacheable,
                touched_dram,
                last_burst,
                next_addr: 0,
                next_burst: 0,
            });
        }
        let n_slots = d.usize()?;
        self.slots.clear();
        for _ in 0..n_slots {
            let gen = d.u32()?;
            let state = match d.u8()? {
                0 => SlotState::Serving,
                1 => SlotState::Latency {
                    complete_at: d.u64()?,
                },
                2 => SlotState::Retired,
                t => return Err(SnapError::Mismatch(format!("bad slot-state tag {t}"))),
            };
            self.slots.push(Slot { gen, state });
        }
        self.free_slots = d.words()?;
        let n_ready = d.usize()?;
        self.ready.clear();
        for _ in 0..n_ready {
            let entry = (d.u64()?, d.u64()?, d.u32()?, d.u32()?);
            self.ready.push(Reverse(entry));
        }
        d.finish()
    }

    /// Serve the next word of in-flight transfer `i` if the credits allow
    /// (if they do not, nothing has been touched), and step it to the word
    /// after, keeping `riding` current. True when that was its last word.
    fn serve_one(&mut self, i: usize, tracer: &mut Tracer) -> bool {
        let t = &mut self.inflight[i];
        let rode = t.rides_open_burst();
        if t.cacheable {
            // Gate on both budgets: a hit consumes only cache bandwidth,
            // but a miss charges DRAM for the fill, and the DRAM debt must
            // be paid down before further cacheable words are served.
            if self.cache_credit <= 0.0 || self.dram_credit <= 0.0 {
                return false;
            }
            // Charge the cache access; a miss additionally charges DRAM for
            // the line fill (and writeback). Credits may go briefly
            // negative, which preserves long-run bandwidth while avoiding a
            // probe-then-rollback dance on the stateful cache.
            self.cache_credit -= 1.0;
            let cache = self.cache.as_mut().expect("cacheable implies cache");
            let line_words = cache.line_words() as u64;
            let probe = cache.probe(t.next_addr, t.write);
            if tracer.enabled() {
                tracer.emit(
                    self.now,
                    TraceEvent::CacheProbe {
                        hit: probe.hit,
                        writeback: probe.writeback,
                    },
                );
            }
            if probe.hit {
                self.traffic.cache_hit_bytes += WORD_BYTES;
            } else {
                // A line fill is one DRAM transaction: it costs at least a
                // full burst of bandwidth even for a short line.
                let fill_cost = (self.burst_words as u64).max(line_words) as f64;
                t.touched_dram = true;
                self.dram_credit -= fill_cost;
                self.traffic.bytes_read += line_words * WORD_BYTES;
                if probe.writeback {
                    self.dram_credit -= fill_cost;
                    self.traffic.bytes_written += line_words * WORD_BYTES;
                }
            }
        } else {
            // Burst accounting: opening a new burst pays `burst_words` of
            // bandwidth; further words of the same burst ride along free.
            if !rode {
                if self.dram_credit <= 0.0 {
                    return false;
                }
                self.dram_credit -= self.burst_words as f64;
                t.last_burst = Some(t.next_burst);
                #[cfg(all(debug_assertions, not(doctest)))]
                {
                    self.work.bursts += 1;
                }
            }
            t.touched_dram = true;
            if t.write {
                self.traffic.bytes_written += WORD_BYTES;
            } else {
                self.traffic.bytes_read += WORD_BYTES;
            }
        }
        self.served_last_tick += 1;
        #[cfg(all(debug_assertions, not(doctest)))]
        {
            self.work.words += 1;
        }
        let more = t.step(self.burst);
        self.riding = self.riding + usize::from(more && t.rides_open_burst()) - usize::from(rode);
        !more
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isrf_core::config::ConfigName;

    fn base_system() -> MemorySystem {
        MemorySystem::new(&MachineConfig::preset(ConfigName::Base))
    }

    fn burst4_system() -> MemorySystem {
        let mut cfg = MachineConfig::preset(ConfigName::Base);
        cfg.dram.burst_words = 4;
        MemorySystem::new(&cfg)
    }

    fn cache_system() -> MemorySystem {
        MemorySystem::new(&MachineConfig::preset(ConfigName::Cache))
    }

    /// `count` records of `words` words, record `i` from
    /// `base + i * stride`, as a list.
    fn records(base: u32, words: u32, stride: u32, count: u32) -> AddrPattern {
        let n = words * count;
        AddrPattern::Indexed(
            (0..n)
                .map(|i| base + i / words * stride + i % words)
                .collect(),
        )
    }

    fn run_until_complete(sys: &mut MemorySystem, id: TransferId, max: u64) -> u64 {
        let start = sys.now();
        while !sys.is_complete(id) {
            sys.tick();
            assert!(
                sys.now() - start < max,
                "transfer did not complete in {max} cycles"
            );
        }
        sys.now() - start
    }

    #[test]
    fn pattern_lengths_and_addresses() {
        assert_eq!(AddrPattern::contiguous(10, 3).to_addrs(), [10, 11, 12]);
        assert_eq!(records(0, 2, 10, 3).to_addrs(), [0, 1, 10, 11, 20, 21]);
        let g = AddrPattern::Indexed([5, 1, 5].into());
        assert_eq!(g.len(), 3);
        assert_eq!(g.addr_at(2), 5);
        assert!(AddrPattern::contiguous(0, 0).is_empty());
    }

    #[test]
    fn read_returns_data_immediately_and_times_later() {
        let mut sys = base_system();
        sys.memory_mut().write_block(100, &[7, 8, 9]);
        let (id, data) = sys.start_read(&AddrPattern::contiguous(100, 3), false);
        assert_eq!(data, [7, 8, 9]);
        assert!(!sys.is_complete(id));
        let cycles = run_until_complete(&mut sys, id, 1000);
        // 3 words at ~2.285 words/cycle, plus 100 cycles latency.
        assert!((100..110).contains(&cycles), "took {cycles}");
        assert_eq!(sys.traffic().bytes_read, 12);
    }

    #[test]
    fn bandwidth_limits_long_transfers() {
        let mut sys = base_system();
        let words = 8192u32;
        let (id, _) = sys.start_read(&AddrPattern::contiguous(0, words), false);
        let cycles = run_until_complete(&mut sys, id, 100_000);
        let ideal = words as f64 / 2.285;
        let serve = cycles as f64 - 100.0; // subtract latency
        assert!(
            (serve - ideal).abs() / ideal < 0.02,
            "served {words} words in {serve} cycles, ideal {ideal:.0}"
        );
    }

    #[test]
    fn concurrent_transfers_share_bandwidth_fairly() {
        let mut sys = base_system();
        let (a, _) = sys.start_read(&AddrPattern::contiguous(0, 2000), false);
        let (b, _) = sys.start_read(&AddrPattern::contiguous(10_000, 2000), false);
        let ca = run_until_complete(&mut sys, a, 100_000);
        // Both should finish at roughly the same time (round-robin).
        let cb_extra = run_until_complete(&mut sys, b, 100_000);
        assert!(cb_extra < 20, "b finished {cb_extra} cycles after a");
        let ideal = 4000.0 / 2.285;
        assert!((ca as f64 - 100.0 - ideal).abs() / ideal < 0.05);
    }

    #[test]
    fn write_updates_memory_and_counts_traffic() {
        let mut sys = base_system();
        let id = sys.start_write(&AddrPattern::contiguous(50, 2), &[1, 2], false);
        assert_eq!(sys.memory().read(51), 2);
        run_until_complete(&mut sys, id, 1000);
        assert_eq!(sys.traffic().bytes_written, 8);
    }

    #[test]
    fn gather_traffic_counts_every_word() {
        let mut sys = base_system();
        // Gathering the same address repeatedly still pays per-word DRAM
        // traffic (this is exactly the replication cost the ISRF removes).
        let (id, _) = sys.start_read(&AddrPattern::Indexed([7; 64].into()), false);
        run_until_complete(&mut sys, id, 10_000);
        assert_eq!(sys.traffic().bytes_read, 64 * 4);
    }

    /// A transfer holds its pattern's list, not a copy: one more owner
    /// while it is served, none once it retires.
    #[test]
    fn transfers_share_their_list() {
        let mut sys = base_system();
        let list: Arc<[u32]> = (0..64).rev().collect();
        let (id, _) = sys.start_read(&AddrPattern::Indexed(Arc::clone(&list)), false);
        assert_eq!(Arc::strong_count(&list), 2);
        run_until_complete(&mut sys, id, 10_000);
        assert_eq!(sys.pop_ready(), Some(id));
        assert_eq!(Arc::strong_count(&list), 1);
    }

    #[test]
    fn zero_length_transfer_completes_immediately() {
        let mut sys = base_system();
        let (id, data) = sys.start_read(&AddrPattern::contiguous(0, 0), false);
        assert!(data.is_empty());
        assert!(sys.is_complete(id));
        assert!(!sys.busy());
    }

    #[test]
    fn cache_hits_eliminate_dram_traffic() {
        let mut sys = cache_system();
        let (a, _) = sys.start_read(&AddrPattern::contiguous(0, 128), true);
        run_until_complete(&mut sys, a, 10_000);
        let after_first = sys.traffic();
        // 128 words / 2-word lines = 64 misses = 512 bytes read; the second
        // word of each line hits (256 bytes of hits).
        assert_eq!(after_first.bytes_read, 512);
        assert_eq!(after_first.cache_hit_bytes, 256);
        let (b, _) = sys.start_read(&AddrPattern::contiguous(0, 128), true);
        run_until_complete(&mut sys, b, 10_000);
        let after_second = sys.traffic();
        assert_eq!(after_second.bytes_read, 512, "second pass hits in cache");
        assert_eq!(after_second.cache_hit_bytes, 256 + 512);
    }

    #[test]
    fn cached_rereads_complete_faster_than_dram() {
        let mut sys = cache_system();
        let (a, _) = sys.start_read(&AddrPattern::contiguous(0, 512), true);
        let cold = run_until_complete(&mut sys, a, 100_000);
        let (b, _) = sys.start_read(&AddrPattern::contiguous(0, 512), true);
        let warm = run_until_complete(&mut sys, b, 100_000);
        assert!(
            warm * 2 < cold,
            "warm reread ({warm}) should be much faster than cold ({cold})"
        );
    }

    #[test]
    fn non_cacheable_streams_bypass_cache() {
        let mut sys = cache_system();
        let (a, _) = sys.start_read(&AddrPattern::contiguous(0, 64), false);
        run_until_complete(&mut sys, a, 10_000);
        assert_eq!(
            sys.cache().unwrap().hits() + sys.cache().unwrap().misses(),
            0
        );
        assert_eq!(sys.traffic().bytes_read, 256);
    }

    #[test]
    fn dirty_evictions_write_back() {
        let mut sys = cache_system();
        // Write 128 KB + one extra line through the cache, then evict by
        // streaming a second 128 KB region: evictions of dirty lines must
        // produce write traffic.
        let words = 32 * 1024u32;
        let id = sys.start_write(
            &AddrPattern::contiguous(0, words),
            &vec![1; words as usize],
            true,
        );
        run_until_complete(&mut sys, id, 1_000_000);
        let (id2, _) = sys.start_read(&AddrPattern::contiguous(words, words), true);
        run_until_complete(&mut sys, id2, 1_000_000);
        // All dirty lines evicted: 128 KB written back.
        assert_eq!(sys.traffic().bytes_written, words as u64 * 4);
    }

    #[test]
    fn random_gathers_pay_burst_granularity() {
        let mut sys = burst4_system();
        // 512 random words, each in its own burst: 512 bursts x 4 words of
        // bandwidth = 2048 credits, ~4x slower than a contiguous load.
        let addrs = AddrPattern::Indexed((0..512u32).map(|i| i * 16).collect());
        let (g, _) = sys.start_read(&addrs, false);
        let gather_cycles = run_until_complete(&mut sys, g, 100_000);
        let mut sys2 = burst4_system();
        let (c, _) = sys2.start_read(&AddrPattern::contiguous(0, 512), false);
        let seq_cycles = run_until_complete(&mut sys2, c, 100_000);
        let gather_serve = gather_cycles as f64 - 100.0;
        let seq_serve = seq_cycles as f64 - 100.0;
        assert!(
            gather_serve / seq_serve > 3.5 && gather_serve / seq_serve < 4.5,
            "gather {gather_serve} vs seq {seq_serve}"
        );
        // Demand traffic still counts words, not bursts (Figure 11 metric).
        assert_eq!(sys.traffic().bytes_read, 512 * 4);
    }

    #[test]
    fn strided_two_word_records_pay_half_burst_waste() {
        let mut sys = burst4_system();
        // 2-word records at stride 64: each record opens a fresh burst.
        let (g, _) = sys.start_read(&records(0, 2, 64, 256), false);
        let cycles = run_until_complete(&mut sys, g, 100_000);
        let serve = cycles as f64 - 100.0;
        let ideal = 512.0 / 2.285; // if bandwidth were perfectly used
        assert!(
            serve / ideal > 1.8 && serve / ideal < 2.2,
            "strided served in {serve}, ideal {ideal}"
        );
    }

    #[test]
    fn busy_reflects_latency_tail() {
        let mut sys = base_system();
        let (_, _) = sys.start_read(&AddrPattern::contiguous(0, 1), false);
        sys.tick(); // word served this cycle
        assert!(sys.busy(), "still waiting out DRAM latency");
        for _ in 0..200 {
            sys.tick();
        }
        assert!(!sys.busy());
    }

    #[test]
    fn pop_ready_drains_in_completion_order_and_reuses_slots() {
        let mut sys = base_system();
        // Short transfer completes before the long one despite issuing
        // second; pop order follows completion time, not issue order.
        let (long, _) = sys.start_read(&AddrPattern::contiguous(0, 2000), false);
        let (short, _) = sys.start_read(&AddrPattern::contiguous(8000, 2), false);
        let mut popped = Vec::new();
        for _ in 0..10_000 {
            sys.tick();
            while let Some(id) = sys.pop_ready() {
                popped.push(id);
            }
            if popped.len() == 2 {
                break;
            }
        }
        assert_eq!(popped, [short, long]);
        assert!(!sys.busy());
        // Both slots are free again: the next two transfers reuse them
        // (in reverse-free order) with fresh raw ids.
        let used: Vec<usize> = popped.iter().map(|id| id.slot()).collect();
        let (c, _) = sys.start_read(&AddrPattern::contiguous(0, 1), false);
        let (d, _) = sys.start_read(&AddrPattern::contiguous(0, 1), false);
        assert_eq!(c.raw(), 2);
        assert_eq!(d.raw(), 3);
        let mut reused: Vec<usize> = vec![c.slot(), d.slot()];
        reused.sort_unstable();
        let mut used_sorted = used.clone();
        used_sorted.sort_unstable();
        assert_eq!(reused, used_sorted, "slots are reused after retirement");
        // Stale ids from before the reuse still read as complete.
        assert!(sys.is_complete(popped[0]));
        assert!(sys.is_complete(popped[1]));
        assert!(!sys.is_complete(c));
    }

    #[test]
    fn snapshot_mid_transfer_resumes_identically() {
        for make in [base_system as fn() -> MemorySystem, cache_system] {
            let mut straight = make();
            straight.memory_mut().write_block(0, &[9; 600]);
            let (_, _) = straight.start_read(&AddrPattern::contiguous(0, 500), true);
            let _ = straight.start_write(&records(4096, 2, 8, 50), &[3; 100], false);
            for _ in 0..40 {
                straight.tick();
            }
            // Snapshot mid-service and restore into a fresh same-config
            // system; ticking both onward must stay byte-identical.
            let snap = straight.encode_state();
            let mut resumed = make();
            resumed.decode_state(&snap).unwrap();
            assert_eq!(resumed.encode_state(), snap, "re-encode is stable");
            for _ in 0..400 {
                straight.tick();
                resumed.tick();
                assert_eq!(
                    straight.pop_ready(),
                    resumed.pop_ready(),
                    "completion order diverged"
                );
            }
            assert_eq!(straight.encode_state(), resumed.encode_state());
            assert_eq!(straight.traffic(), resumed.traffic());
        }
    }

    /// A tick ends only once no transfer rides an open burst, so every
    /// snapshot `encode_state` writes counts none; one made by hand may, and
    /// `decode_state` must count it, or the walk would stop short of its
    /// free words (and miscount them when it serves one).
    #[test]
    fn decode_counts_a_transfer_riding_an_open_burst() {
        let mut sys = base_system();
        let (id, _) = sys.start_read(&AddrPattern::Indexed([7, 7, 7, 9].into()), false);
        sys.inflight[0].last_burst = Some(7);
        let mut restored = base_system();
        restored.decode_state(&sys.encode_state()).unwrap();
        assert_eq!((restored.riding, restored.uncached), (1, 1));
        // Without DRAM credit the three words at address 7 are served; the
        // fourth must open a burst.
        restored.dram_credit = -10.0;
        restored.tick();
        assert_eq!(restored.words_served_last_tick(), 3);
        assert_eq!((restored.riding, restored.inflight[0].cursor), (0, 3));
        assert!(!restored.is_complete(id));
    }

    /// With DRAM credit out and two transfers riding open bursts, the walk
    /// still alternates between them, so the one with fewer free words
    /// left finishes first though the other is visited first. (Only a lone
    /// rider is served without going round.)
    #[test]
    fn riders_alternate_once_credit_is_out() {
        let mut sys = base_system();
        let (b, _) = sys.start_read(&AddrPattern::Indexed([6].into()), false);
        let (a, _) = sys.start_read(&AddrPattern::Indexed([5, 5, 5].into()), false);
        for (t, burst) in sys.inflight.iter_mut().zip([6, 5]) {
            t.last_burst = Some(burst);
        }
        (sys.riding, sys.dram_credit) = (2, -10.0);
        let mut tracer = Tracer::recording(16);
        sys.tick_traced(&mut tracer);
        let rec = tracer.recorder().expect("recording");
        let served: Vec<u64> = (rec.ring().iter())
            .filter_map(|(_, e)| match e {
                TraceEvent::TransferServed { id } => Some(*id),
                _ => None,
            })
            .collect();
        assert_eq!(served, [b.raw(), a.raw()]);
        assert_eq!(sys.words_served_last_tick(), 4);
    }

    #[test]
    fn snapshot_rejects_cache_mismatch() {
        let with_cache = cache_system().encode_state();
        let mut plain = base_system();
        let err = plain.decode_state(&with_cache).unwrap_err();
        assert!(matches!(err, SnapError::Mismatch(_)), "{err}");
    }

    /// The service schedule is pinned: three concurrent transfers — a
    /// contiguous read that finishes while the others are mid-service, a
    /// write of two-word records paying burst granularity, a cacheable
    /// gather — must serve the words per tick, complete at the cycles,
    /// count the traffic and leave the state bytes that the
    /// `pop_front`/`push_back` service loop did (table generated at c6876bf, the commit before the loop
    /// served transfers in place).
    #[test]
    fn service_schedule_is_pinned() {
        let mut cfg = MachineConfig::preset(ConfigName::Cache);
        cfg.dram.burst_words = 4;
        let mut sys = MemorySystem::new(&cfg);
        let (contig, _) = sys.start_read(&AddrPattern::contiguous(64, 9), false);
        let spread = sys.start_write(&records(4096, 2, 16, 12), &[5; 24], false);
        let gather = AddrPattern::Indexed((0..40u32).map(|i| (i * 37) % 64 + 9000).collect());
        let (gather, _) = sys.start_read(&gather, true);
        let ids = [contig, spread, gather];
        let mut served = Vec::new();
        let mut done_at = [0u64; 3];
        while sys.busy() {
            sys.tick();
            if sys.inflight_count() > 0 || sys.words_served_last_tick() > 0 {
                served.push(sys.words_served_last_tick());
            }
            for (at, id) in done_at.iter_mut().zip(ids) {
                if *at == 0 && sys.is_complete(id) {
                    *at = sys.now();
                }
            }
        }
        assert_eq!(
            served,
            [
                2, 1, 0, 2, 0, 4, 0, 1, 4, 0, 1, 0, 2, 0, 1, 1, 0, 1, 0, 1, 0, 1, 2, 0, 2, 0, 2, 0,
                2, 1, 0, 1, 0, 1, 0, 1, 2, 0, 2, 0, 2, 0, 2, 1, 0, 1, 0, 1, 0, 1, 2, 0, 1, 0, 1, 0,
                1, 1, 0, 1, 0, 2, 0, 2, 2, 0, 2, 0, 2, 0, 2, 2, 0, 2, 0, 2, 0, 2
            ]
        );
        assert_eq!(done_at, [115, 151, 178]);
        let traffic = sys.traffic();
        assert_eq!(
            (
                traffic.bytes_read,
                traffic.bytes_written,
                traffic.cache_hit_bytes
            ),
            (276, 96, 40)
        );
        let bytes = sys.encode_state();
        assert_eq!(
            (bytes.len(), isrf_core::snap::fnv1a(&bytes)),
            (491905, 0xa6f6_1292_9854_c291)
        );
    }
}
