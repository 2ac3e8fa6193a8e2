//! Benchmarks reproducing the HPCA 2004 indexed-SRF evaluation.
//!
//! Each benchmark module builds the paper's workload for the machine it is
//! given (the presets `Base`, `ISRF1`, `ISRF4`, `Cache`, or any valid
//! 8-lane config) in one function, `plan(&MachineConfig, params)`, which
//! returns a [`common::Plan`]: what a static analysis reads — config, SRF
//! allocation, kernels, the measured program, output regions and the
//! `VerifyEnv`, a setup program's fills included — plus a *load* stage
//! that generates the host data, writes the memory image and runs any
//! setup program. [`common::Plan::load`] runs the load and returns a
//! [`common::Prepared`]: machine, stream program, output regions, and the
//! app's *functional check* against an independent reference
//! implementation; each module's `prepare` is its `plan`, then the load.
//! The caller runs it — [`common::Prepared::run_checked`] returns the
//! [`isrf_core::RunStats`] behind Figures 11–13 — and [`plan_app`] /
//! [`prepare_app`] hold the Small/Paper sizes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aes;
pub mod bfs;
pub mod common;
pub mod fft2d;
pub mod filter;
mod gather;
pub mod igraph;
pub mod registry;
pub mod rijndael;
pub mod sort;
pub mod spmv;
pub mod stencil;

pub use registry::{plan_app, prepare_app, Profile, APPS};
