//! Shared vocabulary for the indexed-SRF stream processor reproduction.
//!
//! This crate holds the types that every other crate in the workspace speaks:
//!
//! * [`word`] — the 32-bit machine word and integer/float reinterpretation
//!   helpers (stream processors in the Imagine line are 32-bit word machines).
//! * [`config`] — the full machine description, including the four evaluation
//!   configurations of the paper (Table 2/3): `Base`, `ISRF1`, `ISRF4` and
//!   `Cache`.
//! * [`stats`] — cycle accounting (the execution-time breakdown of Figure 12),
//!   off-chip traffic counters (Figure 11) and SRF bandwidth counters
//!   (Figure 13).
//! * [`memo`] — [`Memo`], the one bounded, recency-aware memo behind every
//!   host-side cache (schedules, tapes, host data, verdicts, results).
//! * [`snap`] — the versioned, content-hashed binary codec behind the
//!   simulator's cycle-granular snapshot/resume machinery (DESIGN.md §12).
//!
//! # Example
//!
//! ```
//! use isrf_core::config::{ConfigName, MachineConfig};
//!
//! let m = MachineConfig::preset(ConfigName::Isrf4);
//! assert_eq!(m.lanes, 8);
//! assert_eq!(m.srf.capacity_words(), 32 * 1024);
//! assert_eq!(m.srf.indexed.as_ref().unwrap().inlane_words_per_cycle, 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod memo;
pub mod snap;
pub mod stats;
pub mod word;

pub use config::{ConfigName, MachineConfig};
pub use memo::Memo;
pub use stats::{Breakdown, MemTraffic, RunStats, SrfTraffic};
pub use word::Word;
