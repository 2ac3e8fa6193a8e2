//! The typed event taxonomy emitted by the simulator.
//!
//! Events are deliberately flat and small: every field is a plain integer
//! or a short enum, so recording one is a few stores and the whole stream
//! can be post-processed (metrics, audit, Chrome export) without touching
//! simulator types. The only allocation is the kernel name on the rare
//! [`TraceEvent::KernelStart`].

use std::fmt;

/// Figure-12 attribution of one machine cycle while a program runs.
///
/// The machine emits exactly one [`TraceEvent::Cycle`] wherever it updates
/// its [`isrf_core::stats::Breakdown`], with the same classification, so
/// the event stream can be audited against the counters cycle for cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CycleAttr {
    /// Kernel dispatch overhead (sequencer issuing the kernel).
    Dispatch,
    /// The kernel advanced one cycle of its schedule. Split into loop body
    /// vs software-pipeline fill/drain only at kernel end (see
    /// [`TraceEvent::KernelEnd`]).
    Advance,
    /// The kernel stalled on an SRF condition.
    SrfStall,
    /// No kernel could run and memory transfers were in flight.
    MemStall,
    /// The kernel finished firing and is draining output buffers.
    Flush,
    /// The kernel's completion cycle (accounted as overhead).
    KernelFinish,
    /// Waiting on nothing measurable (zero-length dependence chains).
    Idle,
}

impl CycleAttr {
    /// Number of variants (sizes fixed-slot counter arrays).
    pub const COUNT: usize = 7;

    /// All variants, in counter-slot order.
    pub const ALL: [CycleAttr; CycleAttr::COUNT] = [
        CycleAttr::Dispatch,
        CycleAttr::Advance,
        CycleAttr::SrfStall,
        CycleAttr::MemStall,
        CycleAttr::Flush,
        CycleAttr::KernelFinish,
        CycleAttr::Idle,
    ];

    /// Stable counter-slot index of this attribution.
    pub fn index(self) -> usize {
        match self {
            CycleAttr::Dispatch => 0,
            CycleAttr::Advance => 1,
            CycleAttr::SrfStall => 2,
            CycleAttr::MemStall => 3,
            CycleAttr::Flush => 4,
            CycleAttr::KernelFinish => 5,
            CycleAttr::Idle => 6,
        }
    }

    /// Short lower-case name (metrics keys, trace track names).
    pub fn as_str(self) -> &'static str {
        match self {
            CycleAttr::Dispatch => "dispatch",
            CycleAttr::Advance => "advance",
            CycleAttr::SrfStall => "srf_stall",
            CycleAttr::MemStall => "mem_stall",
            CycleAttr::Flush => "flush",
            CycleAttr::KernelFinish => "kernel_finish",
            CycleAttr::Idle => "idle",
        }
    }
}

/// Why a kernel cycle stalled: the first blocking condition found, in
/// schedule order (the machine stalls whole-cycle, so one reason per
/// stall cycle).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallReason {
    /// A sequential/conditional-lane input buffer is empty (starved for
    /// SRF grants).
    SeqInStarved,
    /// Input data is buffered but still in its SRF access latency.
    SeqInLatency,
    /// A sequential output buffer is full (waiting for a drain grant).
    SeqOutFull,
    /// The shared conditional-input buffer cannot supply enough words.
    CondInStarved,
    /// The shared conditional-output buffer is full.
    CondOutFull,
    /// An indexed address FIFO is full (head-of-line blocking).
    AddrFifoFull,
    /// Indexed read data has not returned yet.
    IdxDataNotReady,
}

impl StallReason {
    /// Number of variants.
    pub const COUNT: usize = 7;

    /// All variants, in counter-slot order.
    pub const ALL: [StallReason; StallReason::COUNT] = [
        StallReason::SeqInStarved,
        StallReason::SeqInLatency,
        StallReason::SeqOutFull,
        StallReason::CondInStarved,
        StallReason::CondOutFull,
        StallReason::AddrFifoFull,
        StallReason::IdxDataNotReady,
    ];

    /// Stable counter-slot index.
    pub fn index(self) -> usize {
        match self {
            StallReason::SeqInStarved => 0,
            StallReason::SeqInLatency => 1,
            StallReason::SeqOutFull => 2,
            StallReason::CondInStarved => 3,
            StallReason::CondOutFull => 4,
            StallReason::AddrFifoFull => 5,
            StallReason::IdxDataNotReady => 6,
        }
    }

    /// Short lower-case name.
    pub fn as_str(self) -> &'static str {
        match self {
            StallReason::SeqInStarved => "seq_in_starved",
            StallReason::SeqInLatency => "seq_in_latency",
            StallReason::SeqOutFull => "seq_out_full",
            StallReason::CondInStarved => "cond_in_starved",
            StallReason::CondOutFull => "cond_out_full",
            StallReason::AddrFifoFull => "addr_fifo_full",
            StallReason::IdxDataNotReady => "idx_data_not_ready",
        }
    }
}

/// Why the stage-2 indexed arbiter rejected a FIFO head this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdxRejectReason {
    /// The target sub-array already serves another access this cycle.
    SubarrayConflict,
    /// The target bank's cross-lane network ports are exhausted.
    BankPortBusy,
    /// The stream's data buffer has no room to land the read.
    DataBufferFull,
}

impl IdxRejectReason {
    /// Number of variants.
    pub const COUNT: usize = 3;

    /// All variants, in counter-slot order.
    pub const ALL: [IdxRejectReason; IdxRejectReason::COUNT] = [
        IdxRejectReason::SubarrayConflict,
        IdxRejectReason::BankPortBusy,
        IdxRejectReason::DataBufferFull,
    ];

    /// Stable counter-slot index.
    pub fn index(self) -> usize {
        match self {
            IdxRejectReason::SubarrayConflict => 0,
            IdxRejectReason::BankPortBusy => 1,
            IdxRejectReason::DataBufferFull => 2,
        }
    }

    /// Short lower-case name.
    pub fn as_str(self) -> &'static str {
        match self {
            IdxRejectReason::SubarrayConflict => "subarray_conflict",
            IdxRejectReason::BankPortBusy => "bank_port_busy",
            IdxRejectReason::DataBufferFull => "data_buffer_full",
        }
    }
}

/// One structured trace event. Cycle stamps live alongside the event in
/// the sink (`(cycle, TraceEvent)` pairs), not inside it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A kernel was dispatched: program op index and kernel name.
    KernelStart {
        /// Program op index.
        op: u32,
        /// Kernel name.
        name: Box<str>,
    },
    /// A kernel completed, with its run counters. `body_cycles` is
    /// `iters × II`; the machine attributes `min(body, advance)` advanced
    /// cycles to the loop body and the rest to fill/drain overhead.
    KernelEnd {
        /// Program op index.
        op: u32,
        /// Steady-state loop-body cycles (`iters × II`).
        body_cycles: u64,
        /// Cycles in which the schedule advanced.
        advance_cycles: u64,
        /// Cycles stalled on SRF conditions.
        stall_cycles: u64,
        /// Cycles draining output buffers after the last fire.
        flush_cycles: u64,
    },
    /// Figure-12 attribution of this machine cycle.
    Cycle(CycleAttr),
    /// A memory transfer claimed the SRF port this cycle, pre-empting
    /// kernel stream grants.
    PortPreempted,
    /// Stage-1 arbitration granted the port to one sequential or
    /// conditional stream slot, which moved `words` words.
    SeqGrant {
        /// Kernel stream-slot index.
        slot: u8,
        /// Words moved by the grant.
        words: u16,
    },
    /// Stage-1 arbitration granted the port to the indexed group.
    IdxGroupGrant,
    /// One indexed SRAM access performed by the stage-2 arbiter.
    IdxAccess {
        /// Indexed-stream index (order of declaration among indexed
        /// streams).
        stream: u8,
        /// Requesting lane.
        lane: u8,
        /// SRF bank accessed (equals `lane` for in-lane accesses).
        bank: u8,
        /// Sub-array within the bank.
        subarray: u8,
        /// Write access (in-lane scatter)?
        write: bool,
        /// Cross-lane access over the index network?
        crosslane: bool,
        /// Address-FIFO occupancy of `(stream, lane)` after the access.
        fifo_after: u8,
    },
    /// The stage-2 arbiter could not serve a pending FIFO head.
    IdxReject {
        /// Indexed-stream index.
        stream: u8,
        /// Requesting lane.
        lane: u8,
        /// Cross-lane request?
        crosslane: bool,
        /// Why it was rejected.
        reason: IdxRejectReason,
    },
    /// The kernel stalled this cycle; first blocking condition found.
    KernelStall {
        /// Kernel stream-slot index that blocked.
        slot: u8,
        /// The blocking condition.
        reason: StallReason,
    },
    /// A memory transfer was issued.
    TransferStart {
        /// Program op index.
        op: u32,
        /// Memory-system transfer id.
        id: u64,
        /// Words moved.
        words: u32,
        /// Store (vs load)?
        write: bool,
        /// Routed through the vector cache?
        cacheable: bool,
    },
    /// A transfer's last word was served; its access latency now runs.
    TransferServed {
        /// Memory-system transfer id.
        id: u64,
    },
    /// A transfer completed (data usable, dependences release).
    TransferDone {
        /// Program op index.
        op: u32,
        /// Memory-system transfer id.
        id: u64,
    },
    /// One word-granularity vector-cache probe.
    CacheProbe {
        /// The word was present.
        hit: bool,
        /// A dirty line was evicted.
        writeback: bool,
    },
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceEvent::KernelStart { op, name } => write!(f, "kernel-start op={op} {name}"),
            TraceEvent::KernelEnd {
                op,
                body_cycles,
                advance_cycles,
                stall_cycles,
                flush_cycles,
            } => write!(
                f,
                "kernel-end op={op} body={body_cycles} advance={advance_cycles} \
                 stall={stall_cycles} flush={flush_cycles}"
            ),
            TraceEvent::Cycle(a) => write!(f, "cycle {}", a.as_str()),
            TraceEvent::PortPreempted => write!(f, "srf-port preempted by memory"),
            TraceEvent::SeqGrant { slot, words } => {
                write!(f, "seq-grant slot={slot} words={words}")
            }
            TraceEvent::IdxGroupGrant => write!(f, "idx-group grant"),
            TraceEvent::IdxAccess {
                stream,
                lane,
                bank,
                subarray,
                write,
                crosslane,
                fifo_after,
            } => write!(
                f,
                "idx-{} stream={stream} lane={lane} bank={bank} sub={subarray}{} fifo={fifo_after}",
                if *write { "write" } else { "read" },
                if *crosslane { " crosslane" } else { "" },
            ),
            TraceEvent::IdxReject {
                stream,
                lane,
                crosslane,
                reason,
            } => write!(
                f,
                "idx-reject stream={stream} lane={lane}{} {}",
                if *crosslane { " crosslane" } else { "" },
                reason.as_str()
            ),
            TraceEvent::KernelStall { slot, reason } => {
                write!(f, "kernel-stall slot={slot} {}", reason.as_str())
            }
            TraceEvent::TransferStart {
                op,
                id,
                words,
                write,
                cacheable,
            } => write!(
                f,
                "transfer-start op={op} id={id} {} {words}w{}",
                if *write { "store" } else { "load" },
                if *cacheable { " cacheable" } else { "" }
            ),
            TraceEvent::TransferServed { id } => write!(f, "transfer-served id={id}"),
            TraceEvent::TransferDone { op, id } => write!(f, "transfer-done op={op} id={id}"),
            TraceEvent::CacheProbe { hit, writeback } => write!(
                f,
                "cache-{}{}",
                if *hit { "hit" } else { "miss" },
                if *writeback { " writeback" } else { "" }
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attr_indices_are_dense_and_stable() {
        for (i, a) in CycleAttr::ALL.iter().enumerate() {
            assert_eq!(a.index(), i);
        }
        for (i, r) in StallReason::ALL.iter().enumerate() {
            assert_eq!(r.index(), i);
        }
        for (i, r) in IdxRejectReason::ALL.iter().enumerate() {
            assert_eq!(r.index(), i);
        }
    }

    #[test]
    fn display_is_compact() {
        let e = TraceEvent::IdxAccess {
            stream: 1,
            lane: 2,
            bank: 5,
            subarray: 3,
            write: false,
            crosslane: true,
            fifo_after: 4,
        };
        assert_eq!(
            e.to_string(),
            "idx-read stream=1 lane=2 bank=5 sub=3 crosslane fifo=4"
        );
        assert_eq!(
            TraceEvent::Cycle(CycleAttr::SrfStall).to_string(),
            "cycle srf_stall"
        );
    }
}
