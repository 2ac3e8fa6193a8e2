//! Memory substrate for the indexed-SRF stream processor.
//!
//! Stream processors tolerate long memory latencies by issuing stream-sized
//! transfers — sequential, gather (indexed load) and scatter (indexed
//! store) — that overlap with kernel execution. This crate models
//! everything below the SRF:
//!
//! * [`memory::Memory`] — the functional, word-addressed off-chip store.
//! * [`cache::VectorCache`] — the on-chip cache of the paper's `Cache`
//!   configuration (128 KB, 4-way, 4 banks, 2-word lines, LRU), used as a
//!   timing/traffic filter in front of DRAM.
//! * [`system::MemorySystem`] — the stream memory controller: accepts
//!   whole-stream transfer requests, serves them word-by-word under DRAM
//!   and cache bandwidth limits, and accounts off-chip traffic
//!   (Figure 11's metric).
//!
//! # Example
//!
//! ```
//! use isrf_core::config::{ConfigName, MachineConfig};
//! use isrf_mem::{AddrPattern, MemorySystem};
//!
//! let m = MachineConfig::preset(ConfigName::Base);
//! let mut mem = MemorySystem::new(&m);
//! mem.memory_mut().write_block(0, &[1, 2, 3, 4]);
//! let (id, data) = mem.start_read(&AddrPattern::contiguous(0, 4), false);
//! assert_eq!(data, [1, 2, 3, 4]);
//! while !mem.is_complete(id) {
//!     mem.tick();
//! }
//! assert_eq!(mem.traffic().bytes_read, 16);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod memory;
pub mod system;

pub use cache::VectorCache;
pub use memory::Memory;
pub use system::{AddrPattern, MemorySystem, TransferId};

/// Division by a divisor fixed at construction: shift and mask when it is
/// a power of two (every preset's burst, line, bank and set counts), `/`
/// and `%` otherwise.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Divisor(u32, Option<u32>);

impl Divisor {
    pub(crate) fn new(d: u32) -> Self {
        Divisor(d, d.is_power_of_two().then(|| d.trailing_zeros()))
    }

    /// `(x / d, x % d)`.
    pub(crate) fn div_rem(self, x: u32) -> (u32, u32) {
        match self.1 {
            Some(s) => (x >> s, x & (self.0 - 1)),
            None => (x / self.0, x % self.0),
        }
    }
}
