//! Property tests for the memory system: traffic accounting, functional
//! gather/scatter consistency, bandwidth bounds, and the service schedule
//! against [`reference`], the rotate-the-queue controller it replaced.

use isrf_core::config::{ConfigName, MachineConfig};
use isrf_mem::{AddrPattern, MemorySystem};
use proptest::prelude::*;

/// The memory controller's timing side as it stood when every served
/// word popped its transfer off the front of a queue and pushed it on the
/// back: the executable specification of credit arithmetic, round-robin
/// order and completion times.
mod reference {
    use std::collections::VecDeque;

    use isrf_core::config::MachineConfig;
    use isrf_core::stats::MemTraffic;
    use isrf_mem::VectorCache;

    pub struct Transfer {
        pub id: usize,
        pub addrs: Vec<u32>,
        pub write: bool,
        pub cacheable: bool,
        cursor: usize,
        touched_dram: bool,
        last_burst: Option<u32>,
    }

    pub struct Controller {
        pub now: u64,
        dram_words_per_cycle: f64,
        dram_credit: f64,
        dram_latency: u64,
        burst_words: u32,
        cache: Option<VectorCache>,
        cache_words_per_cycle: f64,
        cache_credit: f64,
        cache_hit_latency: u64,
        pub inflight: VecDeque<Transfer>,
        /// Cycle each issued transfer's data is usable from, once served.
        pub complete_at: Vec<Option<u64>>,
        pub traffic: MemTraffic,
        pub served_last_tick: u64,
    }

    impl Controller {
        pub fn new(cfg: &MachineConfig) -> Self {
            let cache = cfg.cache.as_ref();
            Controller {
                now: 0,
                dram_words_per_cycle: cfg.dram.words_per_cycle(cfg.clock_ghz),
                dram_credit: 0.0,
                dram_latency: cfg.dram.latency_cycles as u64,
                burst_words: cfg.dram.burst_words.max(1),
                cache_words_per_cycle: cache.map_or(0.0, |c| c.words_per_cycle(cfg.clock_ghz)),
                cache_credit: 0.0,
                cache_hit_latency: cache.map_or(0, |c| c.hit_latency as u64),
                cache: cache.map(VectorCache::new),
                inflight: VecDeque::new(),
                complete_at: Vec::new(),
                traffic: MemTraffic::default(),
                served_last_tick: 0,
            }
        }

        pub fn enqueue(&mut self, addrs: Vec<u32>, write: bool, cacheable: bool) {
            let id = self.complete_at.len();
            self.complete_at.push(addrs.is_empty().then_some(self.now));
            if !addrs.is_empty() {
                self.inflight.push_back(Transfer {
                    id,
                    addrs,
                    write,
                    cacheable: cacheable && self.cache.is_some(),
                    cursor: 0,
                    touched_dram: false,
                    last_burst: None,
                });
            }
        }

        pub fn tick(&mut self) {
            self.now += 1;
            self.served_last_tick = 0;
            let dram_cap = (self.dram_words_per_cycle * 4.0).max(4.0);
            self.dram_credit = (self.dram_credit + self.dram_words_per_cycle).min(dram_cap);
            if self.cache.is_some() {
                let cache_cap = (self.cache_words_per_cycle * 4.0).max(4.0);
                self.cache_credit = (self.cache_credit + self.cache_words_per_cycle).min(cache_cap);
            }
            if self.inflight.len() > 1 {
                let t = self.inflight.pop_front().expect("len > 1");
                self.inflight.push_back(t);
            }
            'serve: loop {
                let mut progressed = false;
                for _ in 0..self.inflight.len() {
                    let Some(mut t) = self.inflight.pop_front() else {
                        break 'serve;
                    };
                    if self.serve_one(&mut t) {
                        progressed = true;
                    }
                    if t.cursor >= t.addrs.len() {
                        let latency = if t.touched_dram || !t.cacheable {
                            self.dram_latency
                        } else {
                            self.cache_hit_latency
                        };
                        self.complete_at[t.id] = Some(self.now + latency);
                    } else {
                        self.inflight.push_back(t);
                    }
                }
                if !progressed {
                    break;
                }
            }
        }

        fn serve_one(&mut self, t: &mut Transfer) -> bool {
            let addr = t.addrs[t.cursor];
            if t.cacheable {
                if self.cache_credit <= 0.0 || self.dram_credit <= 0.0 {
                    return false;
                }
                self.cache_credit -= 1.0;
                let cache = self.cache.as_mut().expect("cacheable implies cache");
                let line_words = cache.line_words() as u64;
                let probe = cache.probe(addr, t.write);
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
                if t.last_burst != Some(burst) {
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
        let (id, data) = sys.start_read(&AddrPattern::Indexed(addrs.clone()), false);
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
        let addrs: Vec<u32> = (0..n).map(|i| base + i * 3).collect();
        let w = sys.start_write(&AddrPattern::Indexed(addrs.clone()), &data, false);
        finish(&mut sys, w);
        let (r, got) = sys.start_read(&AddrPattern::Indexed(addrs), false);
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
        prop_assert!(sys.next_completion_time().is_none());
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
    /// In-place service keeps the old schedule: over random issue
    /// schedules of contiguous, strided and gathered transfers, reads and
    /// writes, cacheable or not, on Base and Cache with one- and four-word
    /// bursts, every tick serves the words the rotating queue served,
    /// completes what it completed, and counts the traffic it counted.
    #[test]
    fn service_matches_the_rotating_queue(
        cache in any::<bool>(),
        burst4 in any::<bool>(),
        issues in prop::collection::vec(
            (0u64..40, 0u8..3, 0u32..90, 0u32..5000, any::<bool>(), any::<bool>()),
            1..14,
        ),
    ) {
        let mut cfg = MachineConfig::preset(if cache { ConfigName::Cache } else { ConfigName::Base });
        cfg.dram.burst_words = if burst4 { 4 } else { 1 };
        let mut sys = MemorySystem::new(&cfg);
        let mut old = reference::Controller::new(&cfg);
        let mut ids = Vec::new();
        let mut pending = issues.iter();
        let mut next = pending.next();
        let mut wait = next.map_or(0, |i| i.0);
        let mut guard = 0;
        while next.is_some() || sys.busy() {
            while let Some(&(_, kind, len, base, write, cacheable)) = next.filter(|_| wait == 0) {
                let pattern = match kind {
                    0 => AddrPattern::contiguous(base, len),
                    1 => AddrPattern::strided(base, 1 + len % 3, 7 + base % 9, len / 3),
                    _ => AddrPattern::Indexed((0..len).map(|i| base + (i * 37) % 61).collect()),
                };
                let id = if write {
                    sys.start_write(&pattern, &vec![1; pattern.len()], cacheable)
                } else {
                    sys.start_read(&pattern, cacheable).0
                };
                ids.push(id);
                old.enqueue(pattern.to_addrs(), write, cacheable);
                next = pending.next();
                wait = next.map_or(0, |i| i.0);
            }
            sys.tick();
            old.tick();
            wait = wait.saturating_sub(1);
            prop_assert_eq!(sys.words_served_last_tick(), old.served_last_tick, "cycle {}", old.now);
            prop_assert_eq!(sys.inflight_count(), old.inflight.len());
            prop_assert_eq!(sys.traffic(), old.traffic);
            for (id, at) in ids.iter().zip(&old.complete_at) {
                let done = at.is_some_and(|t| old.now >= t);
                prop_assert_eq!(sys.is_complete(*id), done, "transfer {} at {}", id.raw(), old.now);
            }
            guard += 1;
            prop_assert!(guard < 100_000, "never drained");
        }
    }
}
