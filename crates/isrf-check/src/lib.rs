//! Differential checking for the indexed-SRF simulator.
//!
//! The cycle-accurate [`isrf_sim::Machine`] interleaves memory transfers,
//! SRF-port arbitration and modulo-scheduled kernels; a timing bug there
//! can silently corrupt data while every benchmark still "runs". This
//! crate provides the oracle and harness that keep it honest:
//!
//! * [`refexec::RefMachine`] — a timing-free *reference executor* that
//!   interprets a [`isrf_sim::StreamProgram`] using only the ISA
//!   semantics: program ops in dependence order, kernels iteration by
//!   iteration in operation order. No schedules, buffers, arbitration or
//!   latencies are consulted, so agreement with the machine validates the
//!   timing model's functional transparency.
//! * [`diff`] — runs a prepared machine and its reference twin over the
//!   same program and compares final memory and SRF contents word for
//!   word, plus the indexed-access counts against [`isrf_core::stats`].
//! * [`sweep`] — a deterministic parallel driver fanning independent
//!   simulation points across OS threads, with results in input order so
//!   parallel and serial sweeps are byte-identical.
//! * [`bisect`] — when two machines that should agree don't, binary-search
//!   over cycle-granular state snapshots for the first diverging cycle and
//!   a structural diff of what differs (DESIGN.md §12).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bisect;
pub mod diff;
pub mod refexec;
pub mod sweep;

pub use bisect::{first_divergence, BisectError, Divergence, PerturbAt};
pub use diff::{run_differential, DiffError, DiffFailure, DiffOutcome};
pub use refexec::{RefCounts, RefMachine};
pub use sweep::{run_parallel, run_serial};
