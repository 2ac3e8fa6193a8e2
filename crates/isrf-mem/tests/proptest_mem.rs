//! Property tests for the memory system: traffic accounting, functional
//! gather/scatter consistency, bandwidth bounds, and the service schedule
//! in lock-step against [`reference`], the round loop it replaced.

use isrf_core::config::{ConfigName, MachineConfig};
use isrf_core::snap::{read_sections, Dec, SnapError};
use isrf_core::stats::MemTraffic;
use isrf_mem::{AddrPattern, Memory, MemorySystem};
use isrf_trace::{TraceEvent, Tracer};
use proptest::prelude::*;

/// The memory controller's timing side as it stood when a tick walked
/// whole rounds over the in-flight transfers — every one of them visited,
/// its address recomputed and divided into a burst, until a full round
/// served nothing: the executable specification of credit arithmetic,
/// round-robin order, completion times and events. `tick` and `serve_one`
/// are that loop verbatim, over materialized address lists.
mod reference {
    use isrf_core::config::MachineConfig;
    use isrf_core::stats::MemTraffic;
    use isrf_mem::VectorCache;
    use isrf_trace::{TraceEvent, Tracer};

    pub struct Transfer {
        pub id: u64,
        addrs: Vec<u32>,
        write: bool,
        cacheable: bool,
        pub cursor: usize,
        touched_dram: bool,
        pub last_burst: Option<u32>,
    }

    pub struct Controller {
        pub now: u64,
        dram_words_per_cycle: f64,
        pub dram_credit: f64,
        dram_latency: u64,
        burst_words: u32,
        cache: Option<VectorCache>,
        cache_words_per_cycle: f64,
        pub cache_credit: f64,
        cache_hit_latency: u64,
        /// In round-robin order from index `rr`, wrapping.
        pub inflight: Vec<Transfer>,
        pub rr: usize,
        /// Cycle each issued transfer's data is usable from, once served.
        pub complete_at: Vec<Option<u64>>,
        popped: Vec<bool>,
        pub traffic: MemTraffic,
        pub served_last_tick: u64,
    }

    impl Controller {
        pub fn new(cfg: &MachineConfig) -> Self {
            let cache = cfg.cache.as_ref();
            Controller {
                now: 0,
                dram_words_per_cycle: cfg.dram.words_per_cycle(),
                dram_credit: 0.0,
                dram_latency: cfg.dram.latency_cycles as u64,
                burst_words: cfg.dram.burst_words.max(1),
                cache_words_per_cycle: cache.map_or(0.0, |c| c.words_per_cycle()),
                cache_credit: 0.0,
                cache_hit_latency: cache.map_or(0, |c| c.hit_latency as u64),
                cache: cache.map(VectorCache::new),
                inflight: Vec::new(),
                rr: 0,
                complete_at: Vec::new(),
                popped: Vec::new(),
                traffic: MemTraffic::default(),
                served_last_tick: 0,
            }
        }

        pub fn enqueue(&mut self, addrs: Vec<u32>, write: bool, cacheable: bool) {
            let id = self.complete_at.len() as u64;
            self.complete_at.push(addrs.is_empty().then_some(self.now));
            self.popped.push(false);
            if addrs.is_empty() {
                return;
            }
            // The newcomer is last in round-robin order.
            self.inflight.rotate_left(self.rr);
            self.rr = 0;
            self.inflight.push(Transfer {
                id,
                addrs,
                write,
                cacheable: cacheable && self.cache.is_some(),
                cursor: 0,
                touched_dram: false,
                last_burst: None,
            });
        }

        /// The next usable transfer in (completion cycle, issue id) order.
        pub fn pop_ready(&mut self) -> Option<u64> {
            let usable = |id: &usize| {
                !self.popped[*id] && self.complete_at[*id].is_some_and(|t| t <= self.now)
            };
            let id = (0..self.complete_at.len())
                .filter(usable)
                .min_by_key(|&id| (self.complete_at[id], id))?;
            self.popped[id] = true;
            Some(id as u64)
        }

        pub fn tick(&mut self, tracer: &mut Tracer) {
            self.now += 1;
            self.served_last_tick = 0;
            let dram_cap = (self.dram_words_per_cycle * 4.0).max(4.0);
            self.dram_credit = (self.dram_credit + self.dram_words_per_cycle).min(dram_cap);
            if self.cache.is_some() {
                let cache_cap = (self.cache_words_per_cycle * 4.0).max(4.0);
                self.cache_credit = (self.cache_credit + self.cache_words_per_cycle).min(cache_cap);
            }

            if self.inflight.is_empty() {
                return;
            }
            let mut inflight = std::mem::take(&mut self.inflight);
            self.rr = (self.rr + 1) % inflight.len();
            loop {
                let mut progressed = false;
                let mut i = self.rr;
                for _ in 0..inflight.len() {
                    let t = &mut inflight[i];
                    progressed |= self.serve_one(t, tracer);
                    if t.cursor < t.addrs.len() {
                        i += 1;
                    } else {
                        let latency = if t.touched_dram || !t.cacheable {
                            self.dram_latency
                        } else {
                            self.cache_hit_latency
                        };
                        self.complete_at[t.id as usize] = Some(self.now + latency);
                        tracer.emit(self.now, TraceEvent::TransferServed { id: t.id });
                        inflight.remove(i);
                        self.rr -= usize::from(i < self.rr);
                    }
                    if i == inflight.len() {
                        i = 0;
                    }
                }
                self.rr %= inflight.len().max(1);
                if !progressed || inflight.is_empty() {
                    break;
                }
            }
            self.inflight = inflight;
        }

        fn serve_one(&mut self, t: &mut Transfer, tracer: &mut Tracer) -> bool {
            if t.cursor >= t.addrs.len() {
                return false;
            }
            let addr = t.addrs[t.cursor];
            if t.cacheable {
                if self.cache_credit <= 0.0 || self.dram_credit <= 0.0 {
                    return false;
                }
                self.cache_credit -= 1.0;
                let cache = self.cache.as_mut().expect("cacheable implies cache");
                let line_words = cache.line_words() as u64;
                let probe = cache.probe(addr, t.write);
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
                    self.traffic.cache_hit_bytes += 4;
                } else {
                    let fill_cost = (self.burst_words as u64).max(line_words) as f64;
                    t.touched_dram = true;
                    self.dram_credit -= fill_cost;
                    self.traffic.bytes_read += line_words * 4;
                    if probe.writeback {
                        self.dram_credit -= fill_cost;
                        self.traffic.bytes_written += line_words * 4;
                    }
                }
            } else {
                let burst = addr / self.burst_words;
                if t.last_burst == Some(burst) {
                    // Same burst: no additional bandwidth.
                } else {
                    if self.dram_credit <= 0.0 {
                        return false;
                    }
                    self.dram_credit -= self.burst_words as f64;
                    t.last_burst = Some(burst);
                }
                t.touched_dram = true;
                if t.write {
                    self.traffic.bytes_written += 4;
                } else {
                    self.traffic.bytes_read += 4;
                }
            }
            t.cursor += 1;
            self.served_last_tick += 1;
            true
        }
    }
}

/// What a snapshot shows of the controller's timing state: the bits of the
/// two credits, and the transfers in service as `(raw id, cursor, open
/// burst)` in round-robin order.
type TimingState = (u64, u64, Vec<(u64, usize, Option<u32>)>);

/// Read [`TimingState`] back out of `MemorySystem::encode_state`'s `sys`
/// section (layout in `system.rs`).
fn timing_state(sys: &MemorySystem) -> TimingState {
    let sections = read_sections(&sys.encode_state()).expect("a section list");
    assert_eq!(sections[0].name, "sys");
    let mut d = Dec::new(&sections[0].bytes);
    let mut parse = || -> Result<TimingState, SnapError> {
        d.u64()?; // clock
        let (dram, cache) = (d.f64()?.to_bits(), d.f64()?.to_bits());
        d.u64()?; // words served last tick
        d.u64()?; // next id
        MemTraffic::decode_state(&mut d)?;
        let mut serving = Vec::new();
        for _ in 0..d.usize()? {
            let raw = d.u64()?;
            d.bytes(8)?; // slot, generation
            let pattern_words = match d.u8()? {
                0 => 2, // base, length
                _ => d.usize()?,
            };
            d.bytes(4 * pattern_words)?;
            let cursor = d.usize()?;
            d.bytes(3)?; // write, cacheable, touched DRAM
            let open = if d.bool()? { Some(d.u32()?) } else { None };
            serving.push((raw, cursor, open));
        }
        Ok((dram, cache, serving))
    };
    parse().expect("a well-formed snapshot")
}

fn finish(sys: &mut MemorySystem, id: isrf_mem::TransferId) -> u64 {
    let start = sys.now();
    while !sys.is_complete(id) {
        sys.tick();
        assert!(sys.now() - start < 1_000_000, "transfer stuck");
    }
    sys.now() - start
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Demand traffic counts exactly 4 bytes per word, reads round-trip
    /// memory contents, and serve time respects the bandwidth bound.
    #[test]
    fn gather_roundtrip_and_accounting(
        addrs in prop::collection::vec(0u32..100_000, 1..300),
        burst in 1u32..8,
    ) {
        let mut cfg = MachineConfig::preset(ConfigName::Base);
        cfg.dram.burst_words = burst;
        let mut sys = MemorySystem::new(&cfg);
        for (i, &a) in addrs.iter().enumerate() {
            sys.memory_mut().write(a, i as u32 ^ 0xABCD);
        }
        let (id, data) = sys.start_read(&AddrPattern::Indexed(addrs.as_slice().into()), false);
        // Functional: last write to each address wins.
        for (i, &a) in addrs.iter().enumerate() {
            let last = addrs.iter().rposition(|&x| x == a).unwrap();
            prop_assert_eq!(data[i], last as u32 ^ 0xABCD);
        }
        let cycles = finish(&mut sys, id);
        prop_assert_eq!(sys.traffic().bytes_read, addrs.len() as u64 * 4);
        // Bandwidth bound: at most ~2.285 demand words per cycle.
        let serve = cycles.saturating_sub(cfg.dram.latency_cycles as u64).max(1);
        prop_assert!(addrs.len() as f64 / serve as f64 <= 2.4);
    }

    /// Scatter then contiguous read-back returns what was written.
    #[test]
    fn scatter_then_readback(
        base in 0u32..1000,
        data in prop::collection::vec(any::<u32>(), 1..200),
    ) {
        let cfg = MachineConfig::preset(ConfigName::Base);
        let mut sys = MemorySystem::new(&cfg);
        let n = data.len() as u32;
        let addrs = AddrPattern::Indexed((0..n).map(|i| base + i * 3).collect());
        let w = sys.start_write(&addrs, &data, false);
        finish(&mut sys, w);
        let (r, got) = sys.start_read(&addrs, false);
        prop_assert_eq!(got, data);
        finish(&mut sys, r);
        prop_assert_eq!(sys.traffic().bytes_written, n as u64 * 4);
    }

    /// Cached re-reads never increase DRAM read traffic beyond the
    /// footprint's worth of line fills, and cache hits are real.
    #[test]
    fn cache_traffic_bounded_by_footprint(
        words in 1u32..2000,
        passes in 2u32..4,
    ) {
        let cfg = MachineConfig::preset(ConfigName::Cache);
        let mut sys = MemorySystem::new(&cfg);
        for _ in 0..passes {
            let (id, _) = sys.start_read(&AddrPattern::contiguous(0, words), true);
            finish(&mut sys, id);
        }
        let line = cfg.cache.as_ref().unwrap().line_words as u64;
        let lines = (words as u64).div_ceil(line);
        prop_assert_eq!(sys.traffic().bytes_read, lines * line * 4);
        prop_assert!(sys.cache().unwrap().hits() > 0);
    }

    /// Transfer-slab lifecycle over a random batch of transfers:
    /// sequential raw ids, deterministic (completion-time, id) pop order,
    /// full drain at program end, and slot reuse only after retirement.
    #[test]
    fn slab_id_reuse_completion_order_and_drain(
        lens in prop::collection::vec(0u32..400, 1..24),
        pop_each_cycle in any::<bool>(),
    ) {
        let cfg = MachineConfig::preset(ConfigName::Base);
        let mut sys = MemorySystem::new(&cfg);
        let mut live: Vec<isrf_mem::TransferId> = Vec::new();
        let mut popped: Vec<isrf_mem::TransferId> = Vec::new();
        let mut max_slot = 0usize;
        for (i, &len) in lens.iter().enumerate() {
            let (id, data) = sys.start_read(&AddrPattern::contiguous(i as u32 * 512, len), false);
            prop_assert_eq!(id.raw(), i as u64, "raw ids are sequential");
            prop_assert_eq!(data.len(), len as usize);
            // A live slot is never handed to two transfers at once.
            for l in &live {
                prop_assert_ne!(l.slot(), id.slot(), "slot reused while live");
            }
            live.push(id);
            max_slot = max_slot.max(id.slot());
            // Interleave some service so early transfers retire and donate
            // their slots to later ones.
            for _ in 0..150 {
                sys.tick();
                if pop_each_cycle {
                    while let Some(done) = sys.pop_ready() {
                        live.retain(|l| l != &done);
                        popped.push(done);
                    }
                }
            }
        }
        // Program end: run the channel dry and drain every completion.
        let mut guard = 0;
        while sys.busy() {
            sys.tick();
            guard += 1;
            prop_assert!(guard < 2_000_000, "memory system never went idle");
        }
        sys.tick(); // transfers completing exactly at the last busy cycle
        while let Some(done) = sys.pop_ready() {
            live.retain(|l| l != &done);
            popped.push(done);
        }
        prop_assert!(live.is_empty(), "drain left transfers unpopped: {live:?}");
        prop_assert_eq!(popped.len(), lens.len());
        prop_assert!(sys.pop_ready().is_none());
        // Every popped id reads complete forever, even after slot reuse.
        for id in &popped {
            prop_assert!(sys.is_complete(*id));
        }
        // Slot reuse actually happened whenever transfers outnumbered the
        // peak number of concurrently live ones.
        prop_assert!(max_slot < lens.len());
    }

    /// Popping mid-flight never reorders completions: ids always come out
    /// sorted by the cycle their data became usable, ties by issue order.
    #[test]
    fn pop_order_is_completion_then_issue(
        lens in prop::collection::vec(0u32..120, 2..12),
    ) {
        let cfg = MachineConfig::preset(ConfigName::Base);
        let mut sys = MemorySystem::new(&cfg);
        let ids: Vec<_> = lens
            .iter()
            .enumerate()
            .map(|(i, &len)| sys.start_read(&AddrPattern::contiguous(i as u32 * 256, len), false).0)
            .collect();
        let mut order: Vec<(u64, u64)> = Vec::new(); // (pop cycle, raw id)
        let mut guard = 0;
        while order.len() < ids.len() {
            sys.tick();
            while let Some(done) = sys.pop_ready() {
                order.push((sys.now(), done.raw()));
            }
            guard += 1;
            prop_assert!(guard < 1_000_000, "transfers stuck");
        }
        let mut sorted = order.clone();
        sorted.sort();
        prop_assert_eq!(&order, &sorted, "pops left (cycle, id) order");
    }
    /// The O(words served) walk keeps the round loop's schedule. Random
    /// issue schedules of contiguous transfers and of lists, some of
    /// records with gaps between, some with runs of repeated addresses so
    /// words ride an open burst even at one-word bursts — reads and
    /// writes, cacheable or not, on Base and Cache with bursts of one to
    /// four words, enqueued mid-flight and finishing mid-round: after
    /// every tick the credits are equal to the bit, the same words were
    /// served to the same transfers in the same round-robin order, the
    /// same traffic was counted, the same events emitted, and the same
    /// transfers complete and pop in the same order. Once, at cycle `restore_at`, the system is replaced by one
    /// decoded from its snapshot, which must carry on as if nothing
    /// happened: the count of uncached transfers, and each transfer's next
    /// address and burst, are rebuilt there, not read back. (No transfer
    /// rides an open burst between ticks; `system.rs`'s unit tests decode
    /// one that does.)
    #[test]
    fn service_matches_the_round_loop(
        cache in any::<bool>(),
        burst in 1u32..=4,
        issues in prop::collection::vec(
            (0u64..40, 0u8..3, 0u32..90, 0u32..5000, 1u32..4, (any::<bool>(), any::<bool>())),
            1..14,
        ),
        restore_at in 0u64..160,
    ) {
        let mut cfg = MachineConfig::preset(if cache { ConfigName::Cache } else { ConfigName::Base });
        cfg.dram.burst_words = burst;
        // A 32-line cache: the transfers evict each other's lines, dirty
        // ones included, and a snapshot a tick stays cheap.
        if let Some(c) = &mut cfg.cache {
            c.capacity_bytes = 256;
        }
        let mut sys = MemorySystem::new(&cfg);
        let mut old = reference::Controller::new(&cfg);
        let (mut trace, mut old_trace) = (Tracer::recording(1 << 16), Tracer::recording(1 << 16));
        let events_from = |t: &Tracer, from: usize| -> Vec<(u64, TraceEvent)> {
            t.recorder().expect("recording").ring().iter().skip(from).cloned().collect()
        };
        let mut seen = 0;
        let mut ids = Vec::new();
        let mut pending = issues.iter();
        let mut next = pending.next();
        let mut wait = next.map_or(0, |i| i.0);
        let mut guard = 0;
        while next.is_some() || sys.busy() {
            while let Some(&(_, kind, len, base, run, (write, cacheable))) = next.filter(|_| wait == 0) {
                let pattern = match kind {
                    0 => AddrPattern::contiguous(base, len),
                    1 => {
                        // Records of one to three words with gaps between.
                        let (words, stride) = (1 + len % 3, 7 + base % 9);
                        let n = len / 3 * words;
                        AddrPattern::Indexed((0..n).map(|i| base + i / words * stride + i % words).collect())
                    }
                    _ => AddrPattern::Indexed((0..len).map(|i| base + (i / run * 37) % 61).collect()),
                };
                let id = if write {
                    let id = sys.start_write(&pattern, &vec![1; pattern.len()], cacheable);
                    // Timing never reads the functional image: dropping it
                    // keeps it out of every snapshot.
                    *sys.memory_mut() = Memory::new();
                    id
                } else {
                    sys.start_read(&pattern, cacheable).0
                };
                ids.push(id);
                old.enqueue(pattern.to_addrs(), write, cacheable);
                next = pending.next();
                wait = next.map_or(0, |i| i.0);
            }
            if old.now == restore_at {
                let mut restored = MemorySystem::new(&cfg);
                restored.decode_state(&sys.encode_state()).expect("its own snapshot");
                sys = restored;
            }
            sys.tick_traced(&mut trace);
            old.tick(&mut old_trace);
            wait = wait.saturating_sub(1);
            prop_assert_eq!(sys.words_served_last_tick(), old.served_last_tick, "cycle {}", old.now);
            prop_assert_eq!(sys.traffic(), old.traffic);
            let (from_rr, to_rr) = old.inflight.split_at(old.rr);
            let serving = to_rr.iter().chain(from_rr).map(|t| (t.id, t.cursor, t.last_burst)).collect();
            let old_state = (old.dram_credit.to_bits(), old.cache_credit.to_bits(), serving);
            prop_assert_eq!(timing_state(&sys), old_state, "cycle {}", old.now);
            let events = events_from(&trace, seen);
            prop_assert_eq!(&events, &events_from(&old_trace, seen), "cycle {}", old.now);
            seen += events.len();
            for (id, at) in ids.iter().zip(&old.complete_at) {
                let done = at.is_some_and(|t| old.now >= t);
                prop_assert_eq!(sys.is_complete(*id), done, "transfer {} at {}", id.raw(), old.now);
            }
            loop {
                let (popped, old_popped) = (sys.pop_ready(), old.pop_ready());
                prop_assert_eq!(popped.map(|id| id.raw()), old_popped, "cycle {}", old.now);
                if popped.is_none() {
                    break;
                }
            }
            guard += 1;
            prop_assert!(guard < 100_000, "never drained");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The channel opens, for a pattern served alone and uncached on an
    /// idle system, the bursts `AddrPattern::burst_openings` counts without
    /// serving it: runs of every length from zero, across burst boundaries,
    /// and lists that repeat an address, step on and step back.
    #[cfg(debug_assertions)]
    #[test]
    fn the_channel_opens_the_bursts_the_pattern_counts(
        (contiguous, base, words) in (any::<bool>(), 0u32..64, 0u32..200),
        steps in prop::collection::vec((0u32..3, 1u32..12), 0..200),
        (burst, write) in (0usize..5, any::<bool>()),
    ) {
        let mut cfg = MachineConfig::preset(ConfigName::Base);
        cfg.dram.burst_words = [1, 2, 3, 4, 8][burst];
        let pattern = if contiguous {
            AddrPattern::contiguous(base, words)
        } else {
            // 0 repeats the address before, 1 steps on by `k`, 2 steps back.
            let mut at = 500 + base;
            let list = steps.iter().map(|&(how, k)| {
                at = [at, at + k, at.saturating_sub(k)][how as usize];
                at
            });
            AddrPattern::Indexed(list.collect())
        };
        let mut sys = MemorySystem::new(&cfg);
        let id = if write {
            sys.start_write(&pattern, &vec![0; pattern.len()], false)
        } else {
            sys.start_read(&pattern, false).0
        };
        finish(&mut sys, id);
        prop_assert_eq!(sys.work().bursts, pattern.burst_openings(cfg.dram.burst_words));
    }
}
