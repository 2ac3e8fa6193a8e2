//! Cycle-attributed instrumentation for the indexed-SRF simulator.
//!
//! This crate is the observability layer of the workspace: the simulator
//! (`isrf-sim`, `isrf-mem`) emits typed [`TraceEvent`]s into a
//! [`Tracer`], and everything downstream — metrics, audits, trace files —
//! is a pure function of that event stream.
//!
//! - [`event`] — the event taxonomy: per-cycle Figure-12 attribution
//!   ([`CycleAttr`]), kernel stall reasons ([`StallReason`]),
//!   indexed-arbiter rejections ([`IdxRejectReason`]), SRF grants, memory
//!   transfer lifecycle, cache probes.
//! - [`sink`] — where events land: the bounded [`RingBuffer`], the
//!   fixed-slot [`Recorder`] around it, and the [`Tracer`] handle the
//!   simulator owns (an enum, zero-cost when `Null`).
//! - [`metrics`] — the hierarchical [`MetricsRegistry`] of dot-path-named
//!   counters and power-of-two [`Histogram`]s, built from a recorder.
//! - [`audit`] — [`AuditAccumulator`]: streaming reconstruction of the
//!   Figure-12 [`isrf_core::stats::Breakdown`] from events, cross-checked
//!   component-for-component against the simulator's own counters.
//! - [`chrome`] — Chrome trace-event JSON export (open in
//!   `chrome://tracing` or Perfetto).
//! - [`timeline`] — a plain-text strip-chart renderer.
//! - [`json`] — the workspace's JSON codec: string escaping for the
//!   hand-rolled emitters and the [`json::Json`] value model and parser.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod chrome;
pub mod event;
pub mod json;
pub mod metrics;
pub mod sink;
pub mod timeline;

pub use audit::{AuditAccumulator, AuditMismatch};
pub use event::{CycleAttr, IdxRejectReason, StallReason, TraceEvent};
pub use metrics::{Histogram, MetricsRegistry};
pub use sink::{Counters, Recorder, RingBuffer, Tracer};
