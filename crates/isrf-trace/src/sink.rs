//! Event sinks: where the simulator's instrumentation lands.
//!
//! The simulator holds a [`Tracer`] — a two-variant enum rather than a
//! trait object so the disabled path is a single inlined discriminant
//! check with no indirect call. Call sites gate any event construction
//! that allocates or computes on [`Tracer::enabled`]:
//!
//! ```
//! use isrf_trace::{TraceEvent, Tracer};
//! let mut t = Tracer::recording(1024);
//! if t.enabled() {
//!     t.emit(7, TraceEvent::IdxGroupGrant);
//! }
//! assert_eq!(t.recorder().unwrap().ring().len(), 1);
//! ```

use crate::audit::AuditAccumulator;
use crate::event::{CycleAttr, IdxRejectReason, StallReason, TraceEvent};
use crate::metrics::{Histogram, MetricsRegistry};
use std::collections::VecDeque;

/// A bounded FIFO of stamped events; the oldest are dropped once `cap` is
/// reached (the drop count is kept).
#[derive(Debug, Clone, Default)]
pub struct RingBuffer {
    cap: usize,
    events: VecDeque<(u64, TraceEvent)>,
    dropped: u64,
}

impl RingBuffer {
    /// A ring holding at most `cap` events (`cap == 0` keeps nothing).
    pub fn new(cap: usize) -> Self {
        RingBuffer {
            cap,
            events: VecDeque::with_capacity(cap.min(4096)),
            dropped: 0,
        }
    }

    /// Events currently held.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// No events held.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The held events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &(u64, TraceEvent)> {
        self.events.iter()
    }

    /// The last `n` events, oldest first, rendered one per line as
    /// `"  @<cycle> <event>"` — the trace tail attached to differential
    /// failure reports.
    pub fn tail_lines(&self, n: usize) -> Vec<String> {
        self.events
            .iter()
            .skip(self.events.len().saturating_sub(n))
            .map(|(c, ev)| format!("  @{c} {ev}"))
            .collect()
    }

    /// Record `ev`, stamped with the machine cycle it occurred on.
    pub fn record(&mut self, cycle: u64, ev: TraceEvent) {
        if self.cap == 0 {
            self.dropped += 1;
            return;
        }
        if self.events.len() == self.cap {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back((cycle, ev));
    }
}

/// Fixed-slot counters updated on every event — the hot-path side of the
/// metrics registry (no string keys, no maps).
#[derive(Debug, Clone, Default)]
pub struct Counters {
    /// Cycles per Figure-12 attribution, indexed by [`CycleAttr::index`].
    pub cycle_attr: [u64; CycleAttr::COUNT],
    /// Kernel stall cycles per reason, indexed by [`StallReason::index`].
    pub stall_reason: [u64; StallReason::COUNT],
    /// Indexed-arbiter rejections per reason, indexed by
    /// [`IdxRejectReason::index`].
    pub idx_reject: [u64; IdxRejectReason::COUNT],
    /// Kernels dispatched.
    pub kernels: u64,
    /// Stage-1 sequential/conditional grants.
    pub seq_grants: u64,
    /// Words moved by sequential/conditional grants.
    pub seq_words: u64,
    /// Stage-1 grants to the indexed group.
    pub idx_group_grants: u64,
    /// In-lane indexed accesses served.
    pub idx_inlane: u64,
    /// Cross-lane indexed accesses served.
    pub idx_crosslane: u64,
    /// Indexed writes (in-lane scatter) among the above.
    pub idx_writes: u64,
    /// Total extra interconnect hops across cross-lane accesses.
    pub idx_hops: u64,
    /// Cycles the SRF port was pre-empted by a memory transfer.
    pub port_preemptions: u64,
    /// Memory transfers issued.
    pub transfers: u64,
    /// Words across issued transfers.
    pub transfer_words: u64,
    /// Vector-cache hits / misses / writebacks observed.
    pub cache_hits: u64,
    /// Vector-cache misses.
    pub cache_misses: u64,
    /// Vector-cache dirty-line writebacks.
    pub cache_writebacks: u64,
}

/// A recording sink: ring buffer + fixed-slot counters + occupancy
/// histograms + the streaming stall-attribution audit, all fed from one
/// event stream.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    ring: RingBuffer,
    counters: Counters,
    audit: AuditAccumulator,
    fifo_occupancy: Histogram,
    transfer_words: Histogram,
    crosslane_hops: Histogram,
}

impl Recorder {
    /// A recorder whose ring keeps the last `ring_cap` events. Counters,
    /// histograms and the audit observe every event regardless of ring
    /// evictions.
    pub fn new(ring_cap: usize) -> Self {
        Recorder {
            ring: RingBuffer::new(ring_cap),
            ..Recorder::default()
        }
    }

    /// The bounded raw-event window.
    pub fn ring(&self) -> &RingBuffer {
        &self.ring
    }

    /// The fixed-slot counters.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// The streaming stall-attribution audit.
    pub fn audit(&self) -> &AuditAccumulator {
        &self.audit
    }

    /// Build the hierarchical metrics registry from the recorded counters
    /// and histograms. Names are dot paths: `cycles.<attr>`,
    /// `kernel.stall.<reason>`, `srf.seq.*`, `srf.idx.*`, `mem.*`.
    pub fn registry(&self) -> MetricsRegistry {
        let c = &self.counters;
        let mut r = MetricsRegistry::new();
        for a in CycleAttr::ALL {
            r.set(&format!("cycles.{}", a.as_str()), c.cycle_attr[a.index()]);
        }
        for (i, reason) in [
            StallReason::SeqInStarved,
            StallReason::SeqInLatency,
            StallReason::SeqOutFull,
            StallReason::CondInStarved,
            StallReason::CondOutFull,
            StallReason::AddrFifoFull,
            StallReason::IdxDataNotReady,
        ]
        .into_iter()
        .enumerate()
        {
            r.set(
                &format!("kernel.stall.{}", reason.as_str()),
                c.stall_reason[i],
            );
        }
        for (i, reason) in [
            IdxRejectReason::SubarrayConflict,
            IdxRejectReason::BankPortBusy,
            IdxRejectReason::DataBufferFull,
        ]
        .into_iter()
        .enumerate()
        {
            r.set(
                &format!("srf.idx.reject.{}", reason.as_str()),
                c.idx_reject[i],
            );
        }
        r.set("kernel.dispatched", c.kernels);
        r.set("srf.seq.grants", c.seq_grants);
        r.set("srf.seq.words", c.seq_words);
        r.set("srf.idx.group_grants", c.idx_group_grants);
        r.set("srf.idx.inlane.accesses", c.idx_inlane);
        r.set("srf.idx.crosslane.accesses", c.idx_crosslane);
        r.set("srf.idx.writes", c.idx_writes);
        r.set("srf.idx.crosslane.extra_hops", c.idx_hops);
        r.set("srf.port.preemptions", c.port_preemptions);
        r.set("mem.transfers", c.transfers);
        r.set("mem.transfer.words", c.transfer_words);
        r.set("mem.cache.hits", c.cache_hits);
        r.set("mem.cache.misses", c.cache_misses);
        r.set("mem.cache.writebacks", c.cache_writebacks);
        r.set("trace.ring.dropped", self.ring.dropped());
        r.put_histogram("srf.idx.fifo_occupancy", self.fifo_occupancy.clone());
        r.put_histogram("mem.transfer.words.dist", self.transfer_words.clone());
        r.put_histogram("srf.idx.crosslane.hops.dist", self.crosslane_hops.clone());
        r
    }

    /// Record `ev`, stamped with the machine cycle it occurred on.
    pub fn record(&mut self, cycle: u64, ev: TraceEvent) {
        self.audit.observe(&ev);
        let c = &mut self.counters;
        match &ev {
            TraceEvent::Cycle(a) => c.cycle_attr[a.index()] += 1,
            TraceEvent::KernelStart { .. } => c.kernels += 1,
            TraceEvent::KernelEnd { .. } => {}
            TraceEvent::PortPreempted => c.port_preemptions += 1,
            TraceEvent::SeqGrant { words, .. } => {
                c.seq_grants += 1;
                c.seq_words += u64::from(*words);
            }
            TraceEvent::IdxGroupGrant => c.idx_group_grants += 1,
            TraceEvent::IdxAccess {
                write,
                crosslane,
                hops,
                fifo_after,
                ..
            } => {
                if *crosslane {
                    c.idx_crosslane += 1;
                    c.idx_hops += u64::from(*hops);
                    self.crosslane_hops.observe(u64::from(*hops));
                } else {
                    c.idx_inlane += 1;
                }
                if *write {
                    c.idx_writes += 1;
                }
                self.fifo_occupancy.observe(u64::from(*fifo_after));
            }
            TraceEvent::IdxReject { reason, .. } => c.idx_reject[reason.index()] += 1,
            TraceEvent::KernelStall { reason, .. } => c.stall_reason[reason.index()] += 1,
            TraceEvent::TransferStart { words, .. } => {
                c.transfers += 1;
                c.transfer_words += u64::from(*words);
                self.transfer_words.observe(u64::from(*words));
            }
            TraceEvent::TransferServed { .. } | TraceEvent::TransferDone { .. } => {}
            TraceEvent::CacheProbe { hit, writeback } => {
                if *hit {
                    c.cache_hits += 1;
                } else {
                    c.cache_misses += 1;
                }
                if *writeback {
                    c.cache_writebacks += 1;
                }
            }
        }
        self.ring.record(cycle, ev);
    }
}

/// The tracer handle the simulator owns. [`Tracer::Null`] is the default
/// and costs one inlined discriminant check per instrumentation site.
#[derive(Debug, Default)]
pub enum Tracer {
    /// Tracing off: events are neither constructed nor recorded.
    #[default]
    Null,
    /// Tracing on: events feed the boxed [`Recorder`].
    On(Box<Recorder>),
}

impl Tracer {
    /// A recording tracer whose ring keeps the last `ring_cap` events.
    pub fn recording(ring_cap: usize) -> Self {
        Tracer::On(Box::new(Recorder::new(ring_cap)))
    }

    /// Whether call sites should construct and emit events.
    #[inline]
    pub fn enabled(&self) -> bool {
        matches!(self, Tracer::On(_))
    }

    /// Record `ev` at `cycle`. A no-op on [`Tracer::Null`]; call sites
    /// whose event construction is itself costly should gate on
    /// [`Tracer::enabled`] first.
    #[inline]
    pub fn emit(&mut self, cycle: u64, ev: TraceEvent) {
        if let Tracer::On(rec) = self {
            rec.record(cycle, ev);
        }
    }

    /// The recorder, when tracing is on.
    pub fn recorder(&self) -> Option<&Recorder> {
        match self {
            Tracer::Null => None,
            Tracer::On(rec) => Some(rec),
        }
    }

    /// Consume the tracer, returning the recorder when tracing was on.
    pub fn into_recorder(self) -> Option<Recorder> {
        match self {
            Tracer::Null => None,
            Tracer::On(rec) => Some(*rec),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_is_disabled_and_silent() {
        let mut t = Tracer::Null;
        assert!(!t.enabled());
        t.emit(0, TraceEvent::IdxGroupGrant);
        assert!(t.recorder().is_none());
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let mut ring = RingBuffer::new(2);
        for c in 0..5u64 {
            ring.record(c, TraceEvent::Cycle(CycleAttr::Advance));
        }
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.dropped(), 3);
        let cycles: Vec<u64> = ring.iter().map(|(c, _)| *c).collect();
        assert_eq!(cycles, vec![3, 4]);
        let tail = ring.tail_lines(8);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0], "  @3 cycle advance");
    }

    #[test]
    fn recorder_counters_survive_ring_eviction() {
        let mut t = Tracer::recording(1);
        for c in 0..10u64 {
            t.emit(c, TraceEvent::Cycle(CycleAttr::SrfStall));
        }
        t.emit(10, TraceEvent::SeqGrant { slot: 0, words: 16 });
        let rec = t.into_recorder().unwrap();
        assert_eq!(rec.ring().len(), 1);
        assert_eq!(rec.counters().cycle_attr[CycleAttr::SrfStall.index()], 10);
        assert_eq!(rec.counters().seq_words, 16);
        assert_eq!(rec.audit().attr_cycles(CycleAttr::SrfStall), 10);
    }

    #[test]
    fn registry_names_are_stable() {
        let mut t = Tracer::recording(16);
        t.emit(
            0,
            TraceEvent::IdxAccess {
                stream: 0,
                lane: 1,
                bank: 3,
                subarray: 0,
                write: false,
                crosslane: true,
                hops: 2,
                fifo_after: 5,
            },
        );
        t.emit(
            1,
            TraceEvent::IdxReject {
                stream: 0,
                lane: 1,
                crosslane: true,
                reason: IdxRejectReason::BankPortBusy,
            },
        );
        t.emit(
            2,
            TraceEvent::CacheProbe {
                hit: true,
                writeback: false,
            },
        );
        let r = t.recorder().unwrap().registry();
        assert_eq!(r.counter("srf.idx.crosslane.accesses"), 1);
        assert_eq!(r.counter("srf.idx.crosslane.extra_hops"), 2);
        assert_eq!(r.counter("srf.idx.reject.bank_port_busy"), 1);
        assert_eq!(r.counter("mem.cache.hits"), 1);
        assert_eq!(r.histogram("srf.idx.fifo_occupancy").unwrap().count(), 1);
    }
}
