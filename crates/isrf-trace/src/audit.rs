//! Stall-attribution audit: reconstruct the Figure-12 [`Breakdown`] from
//! the event stream and cross-check it against the simulator's counters.
//!
//! The accumulator is streaming and O(1): it observes every event as it is
//! recorded, so the audit stays exact even when the ring buffer holding
//! raw events is bounded and drops old entries.
//!
//! Reconstruction rules (mirroring `Machine::run`'s accounting):
//!
//! - `srf_stall` = count of `Cycle(SrfStall)`
//! - `mem_stall` = count of `Cycle(MemStall)`
//! - `kernel_loop` = Σ over `KernelEnd` of `min(body_cycles, advance_cycles)`
//! - `overhead` = count of `Cycle(Dispatch | Flush | KernelFinish | Idle)`
//!   + Σ over `KernelEnd` of `advance_cycles − min(body_cycles, advance_cycles)`
//!
//! The machine attributes each advanced cycle to `kernel_loop` or
//! `overhead` only when the kernel retires (the loop-body/fill-drain split
//! needs the final iteration count), so the audit does the same.
//!
//! Note the four components are compared individually and never against
//! the raw cycle count: the cycle in which the final memory transfer of a
//! program completes legitimately receives no attribution, so
//! `Breakdown::total()` may undercount `RunStats::cycles` by design.

use crate::event::{CycleAttr, TraceEvent};
use isrf_core::stats::Breakdown;
use std::fmt;

/// One component mismatch found by [`AuditAccumulator::verify`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditMismatch {
    /// Breakdown component name (`kernel_loop`, `mem_stall`, `srf_stall`,
    /// `overhead`) or internal consistency check name.
    pub component: &'static str,
    /// Value reconstructed from the event stream.
    pub derived: u64,
    /// Value reported by the simulator's counters.
    pub reported: u64,
}

impl fmt::Display for AuditMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: events say {}, counters say {}",
            self.component, self.derived, self.reported
        )
    }
}

/// Streaming reconstruction of the Figure-12 breakdown from trace events.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AuditAccumulator {
    attr: [u64; CycleAttr::COUNT],
    kernel_loop: u64,
    fill_drain: u64,
    kernel_advance: u64,
    kernel_stall: u64,
    kernels_started: u64,
    kernels_ended: u64,
}

impl AuditAccumulator {
    /// A fresh accumulator.
    pub fn new() -> Self {
        AuditAccumulator::default()
    }

    /// Feed one event. Call for every event recorded, in order.
    pub fn observe(&mut self, ev: &TraceEvent) {
        match ev {
            TraceEvent::Cycle(a) => self.attr[a.index()] += 1,
            TraceEvent::KernelStart { .. } => self.kernels_started += 1,
            TraceEvent::KernelEnd {
                body_cycles,
                advance_cycles,
                stall_cycles,
                ..
            } => {
                let body = (*body_cycles).min(*advance_cycles);
                self.kernel_loop += body;
                self.fill_drain += *advance_cycles - body;
                self.kernel_advance += *advance_cycles;
                self.kernel_stall += *stall_cycles;
                self.kernels_ended += 1;
            }
            _ => {}
        }
    }

    /// Cycles attributed to `a` so far.
    pub fn attr_cycles(&self, a: CycleAttr) -> u64 {
        self.attr[a.index()]
    }

    /// The breakdown reconstructed from the events observed so far.
    ///
    /// Only meaningful once every dispatched kernel has retired (advanced
    /// cycles are split into loop body vs fill/drain at `KernelEnd`).
    pub fn derived(&self) -> Breakdown {
        Breakdown {
            kernel_loop: self.kernel_loop,
            mem_stall: self.attr[CycleAttr::MemStall.index()],
            srf_stall: self.attr[CycleAttr::SrfStall.index()],
            overhead: self.attr[CycleAttr::Dispatch.index()]
                + self.attr[CycleAttr::Flush.index()]
                + self.attr[CycleAttr::KernelFinish.index()]
                + self.attr[CycleAttr::Idle.index()]
                + self.fill_drain,
        }
    }

    /// Cross-check the reconstruction against the simulator's counters.
    ///
    /// Returns every mismatch found (empty = audit passed). Besides the
    /// four breakdown components this also checks internal stream
    /// consistency: per-cycle `Advance`/`SrfStall` events must agree with
    /// the per-kernel totals reported at `KernelEnd`, and every dispatched
    /// kernel must have retired.
    pub fn verify(&self, reported: &Breakdown) -> Vec<AuditMismatch> {
        let d = self.derived();
        let mut out = Vec::new();
        let mut check = |component, derived, reported| {
            if derived != reported {
                out.push(AuditMismatch {
                    component,
                    derived,
                    reported,
                });
            }
        };
        check("kernel_loop", d.kernel_loop, reported.kernel_loop);
        check("mem_stall", d.mem_stall, reported.mem_stall);
        check("srf_stall", d.srf_stall, reported.srf_stall);
        check("overhead", d.overhead, reported.overhead);
        check(
            "cycle(advance) vs kernel-end advance totals",
            self.attr[CycleAttr::Advance.index()],
            self.kernel_advance,
        );
        check(
            "cycle(srf_stall) vs kernel-end stall totals",
            self.attr[CycleAttr::SrfStall.index()],
            self.kernel_stall,
        );
        check(
            "kernels started vs ended",
            self.kernels_started,
            self.kernels_ended,
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernel_end(body: u64, advance: u64, stall: u64) -> TraceEvent {
        TraceEvent::KernelEnd {
            op: 0,
            body_cycles: body,
            advance_cycles: advance,
            stall_cycles: stall,
            flush_cycles: 0,
        }
    }

    #[test]
    fn reconstructs_breakdown_from_synthetic_stream() {
        let mut a = AuditAccumulator::new();
        a.observe(&TraceEvent::KernelStart {
            op: 0,
            name: "k".into(),
        });
        // 2 dispatch, 10 advance (8 body + 2 fill/drain), 3 srf stall,
        // 1 finish, then 4 mem stall and 1 idle.
        for _ in 0..2 {
            a.observe(&TraceEvent::Cycle(CycleAttr::Dispatch));
        }
        for _ in 0..10 {
            a.observe(&TraceEvent::Cycle(CycleAttr::Advance));
        }
        for _ in 0..3 {
            a.observe(&TraceEvent::Cycle(CycleAttr::SrfStall));
        }
        a.observe(&kernel_end(8, 10, 3));
        a.observe(&TraceEvent::Cycle(CycleAttr::KernelFinish));
        for _ in 0..4 {
            a.observe(&TraceEvent::Cycle(CycleAttr::MemStall));
        }
        a.observe(&TraceEvent::Cycle(CycleAttr::Idle));

        let expect = Breakdown {
            kernel_loop: 8,
            mem_stall: 4,
            srf_stall: 3,
            overhead: 2 + 1 + 1 + 2, // dispatch + finish + idle + fill/drain
        };
        assert_eq!(a.derived(), expect);
        assert!(a.verify(&expect).is_empty());
    }

    #[test]
    fn verify_reports_each_mismatch() {
        let mut a = AuditAccumulator::new();
        a.observe(&TraceEvent::Cycle(CycleAttr::SrfStall));
        // Stall cycle with no matching KernelEnd totals and a breakdown
        // that disagrees on two components.
        let wrong = Breakdown {
            kernel_loop: 5,
            mem_stall: 0,
            srf_stall: 0,
            overhead: 0,
        };
        let errs = a.verify(&wrong);
        let components: Vec<_> = errs.iter().map(|e| e.component).collect();
        assert!(components.contains(&"kernel_loop"));
        assert!(components.contains(&"srf_stall"));
        assert!(components.contains(&"cycle(srf_stall) vs kernel-end stall totals"));
        let shown = errs[0].to_string();
        assert!(shown.contains("events say"), "{shown}");
    }

    #[test]
    fn short_kernel_splits_advance_into_fill_drain() {
        // advance < body (early-terminated conditional kernel): the whole
        // advance count is loop body, nothing goes to overhead.
        let mut a = AuditAccumulator::new();
        a.observe(&TraceEvent::KernelStart {
            op: 1,
            name: "k".into(),
        });
        for _ in 0..5 {
            a.observe(&TraceEvent::Cycle(CycleAttr::Advance));
        }
        a.observe(&kernel_end(9, 5, 0));
        let d = a.derived();
        assert_eq!(d.kernel_loop, 5);
        assert_eq!(d.overhead, 0);
    }
}
