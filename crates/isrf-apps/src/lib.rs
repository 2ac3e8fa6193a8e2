//! Benchmarks reproducing the HPCA 2004 indexed-SRF evaluation.
//!
//! Each benchmark module has one entry point, `prepare(&MachineConfig,
//! params)`, which builds the paper's workload for the machine it is given
//! (the presets `Base`, `ISRF1`, `ISRF4`, `Cache`, or any valid 8-lane
//! config) and returns it as a [`common::Prepared`]: machine, stream
//! program, output regions, and the app's *functional check* against an
//! independent reference implementation. The caller runs it —
//! [`common::Prepared::run_checked`] returns the [`isrf_core::RunStats`]
//! behind Figures 11–13 — and [`prepare_app`] holds the Small/Paper sizes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aes;
pub mod bfs;
pub mod common;
pub mod fft2d;
pub mod filter;
mod gather;
pub mod histogram;
pub mod igraph;
pub mod micro;
pub mod registry;
pub mod rijndael;
pub mod sort;
pub mod spmv;
pub mod stencil;

pub use registry::{prepare_app, Profile, APPS};
