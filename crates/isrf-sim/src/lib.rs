//! Cycle-level functional + timing simulator of an indexed-SRF stream
//! processor.
//!
//! This crate is the paper's primary artifact rebuilt in Rust: an
//! Imagine-style stream processor whose stream register file supports
//! explicitly indexed access — in-lane and cross-lane — alongside the
//! conventional wide sequential access.
//!
//! Module map (bottom-up):
//!
//! * [`srf`] — banked, sub-arrayed SRF storage with record-interleaved
//!   stream layout.
//! * [`stream`] — the one port (address walk plus stream buffer) of
//!   sequential and conditional streams.
//! * [`indexed`] — address FIFOs, record expansion, two-stage arbitration
//!   and cross-lane routing (Sections 4.2–4.5).
//! * [`exec`] — lock-step SIMD execution of modulo-scheduled kernels,
//!   functional and cycle-timed.
//! * [`program`] — stream-level programs (loads/gathers, kernels,
//!   stores/scatters with explicit dependences).
//! * [`machine`] — the top-level machine and its one run loop,
//!   [`Machine::step`]: runs programs in resumable slices, overlaps memory
//!   with kernels, attributes every cycle to the Figure 12 breakdown, and
//!   fails with a typed [`SimError`] ([`Machine::run`] and
//!   [`Machine::run_for`] are `step` with the error turned into a panic).
//!   The machine never verifies a program: [`Machine::verify_env`] hands
//!   the caller the [`VerifyEnv`] that `isrf-verify`'s analyzer reads.
//! * `snapshot` — the cycle-granular snapshot codec behind
//!   [`Machine::save_state`] / [`Machine::restore_state`], which pause a
//!   run and resume it elsewhere.
//!
//! # Example: the paper's table-lookup kernel end to end
//!
//! ```
//! use std::sync::Arc;
//! use isrf_core::config::{ConfigName, MachineConfig};
//! use isrf_kernel::ir::{KernelBuilder, StreamKind};
//! use isrf_kernel::sched::{schedule, SchedParams};
//! use isrf_mem::AddrPattern;
//! use isrf_sim::machine::Machine;
//! use isrf_sim::program::StreamProgram;
//!
//! let cfg = MachineConfig::preset(ConfigName::Isrf4);
//! let mut machine = Machine::new(cfg.clone())?;
//!
//! // out[i] = in[i] + LUT[in[i]]
//! let mut b = KernelBuilder::new("lookup");
//! let s_in = b.stream("in", StreamKind::SeqIn);
//! let s_lut = b.stream("LUT", StreamKind::IdxInRead);
//! let s_out = b.stream("out", StreamKind::SeqOut);
//! let a = b.seq_read(s_in);
//! let v = b.idx_load(s_lut, a);
//! let c = b.add(a, v);
//! b.seq_write(s_out, c);
//! let kernel = Arc::new(b.build()?);
//! let sched = schedule(&kernel, &SchedParams::from_machine(&cfg))?;
//!
//! // Memory layout: a 256-entry table replicated per lane, and 64 inputs.
//! let lut = machine.alloc_stream(1, 256 * 8);
//! let input = machine.alloc_stream(1, 64);
//! let output = machine.alloc_stream(1, 64);
//! for i in 0..256u32 {
//!     for lane in 0..8 {
//!         machine.mem_mut().memory_mut().write(i * 8 + lane, 1000 + i);
//!     }
//! }
//! for i in 0..64u32 {
//!     machine.mem_mut().memory_mut().write(4096 + i, i % 256);
//! }
//!
//! let mut p = StreamProgram::new();
//! let l1 = p.load(AddrPattern::contiguous(0, 256 * 8), lut, false, &[]);
//! let l2 = p.load(AddrPattern::contiguous(4096, 64), input, false, &[]);
//! let k = p.kernel(Arc::clone(&kernel), sched, vec![input, lut, output], 8, &[l1, l2]);
//! p.store(output, AddrPattern::contiguous(8192, 64), false, &[k]);
//!
//! let stats = machine.run(&p);
//! assert!(stats.cycles > 0);
//! assert_eq!(machine.mem().memory().read(8192), 0 + 1000);
//! assert_eq!(machine.mem().memory().read(8192 + 9), 9 + 1009);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exec;
pub mod indexed;
pub mod machine;
pub mod program;
mod snapshot;
pub mod srf;
pub mod stream;
pub mod tape;

pub use exec::{ExecEngine, KernelRun, Phase};
pub use machine::{Machine, SimError, VerifyEnv};
pub use program::{ProgOp, ProgOpId, StreamProgram};
pub use srf::{Srf, SrfRange};
pub use stream::StreamBinding;
pub use tape::{cached_tape, tape_cache_stats, CompiledTape};
