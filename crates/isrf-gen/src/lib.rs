//! Random verifier-clean stream programs for the workspace's tests: one
//! generator, many consumers.
//!
//! * [`Recipe`]: one random kernel body (every pure ALU opcode, `Comm`
//!   permutations, loop-carried operands, an in-lane table lookup) in a
//!   load → kernel → store program, on any lane count.
//! * [`Spec`]: strip-mined programs in the shape the stream compiler emits:
//!   per strip a load (contiguous or in runs of repeated addresses, an index
//!   load and a gather beside it, side gathers nothing waits for), zero to
//!   three chained kernels and a store, over single or double buffers,
//!   cacheable or not, thousands of strips long if asked, with at most one
//!   seeded defect.
//!
//! Both produce a [`Generated`]: the program and the machine facts the
//! verifier needs beside it, worked out without a machine (SRF ranges come
//! from a bump allocator), so a 20 000-op program costs what its ops cost.
//! [`Generated::materialise`] builds the machine those facts describe. The
//! caller verifies `(cfg, env, program)` first: this crate does not depend
//! on `isrf-verify`, whose own unit tests use it. [`Recipe::corpus`] and
//! [`Spec::corpus`] are fixed samples; the vendored proptest seeds its
//! generator from a name, so a corpus is the same on every run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod kernels;
mod strips;

use isrf_core::config::MachineConfig;
use isrf_core::Word;
use isrf_sim::{Machine, SrfRange, StreamBinding, StreamProgram, VerifyEnv};
use proptest::strategy::Strategy;
use proptest::test_runner::TestRng;

pub use kernels::Recipe;
pub use strips::{Defect, Spec};

/// A generated program with what a machine must hold before it runs.
pub struct Generated {
    /// The machine the program is for.
    pub cfg: MachineConfig,
    /// Words allocated per bank, and the one table interval that holds data
    /// before the program runs.
    pub env: VerifyEnv,
    /// The program.
    pub program: StreamProgram,
    /// Memory the program reads, `(address, words)`.
    pub inputs: Vec<(u32, Vec<Word>)>,
    /// Memory its stores write, `(address, words)`.
    pub outputs: Vec<(u32, u32)>,
    /// [`Spec`] only: program op of every lookup invocation with, when a
    /// kernel of the same strip produced its input, that producer's op.
    pub lookups: Vec<(usize, Option<usize>)>,
    /// [`Spec`] only: the (earlier, later) op pair [`Defect::DropDep`] left
    /// unordered.
    pub dropped: Option<(usize, usize)>,
}

impl Generated {
    /// A fresh machine holding what the program expects to find: the SRF
    /// allocated up to `env.allocated_words_per_bank`, a table written over
    /// every interval `env.filled` names (so `verify_env()` equals `env`),
    /// and `inputs` in memory. It does not verify: check `(cfg, env,
    /// program)` before. Read the results from `outputs`.
    pub fn materialise(&self) -> Machine {
        let mut m = Machine::new(self.cfg.clone()).expect("generated for a valid configuration");
        m.srf_mut().alloc(self.env.allocated_words_per_bank);
        let lanes = self.cfg.lanes as u32;
        for &(base, end) in &self.env.filled {
            let range = SrfRange {
                base,
                words_per_bank: end - base,
            };
            let records = range.words_per_bank * lanes;
            let table: Vec<Word> = (0..records).map(|i| i.wrapping_mul(0x9e37_79b9)).collect();
            m.write_stream(&StreamBinding::whole(range, 1, records), &table);
        }
        for (at, words) in &self.inputs {
            m.mem_mut().memory_mut().write_block(*at, words);
        }
        m
    }
}

/// What the SRF's bump allocator hands out (`Machine::alloc_stream` of
/// one-word records), without an SRF.
struct Bump {
    lanes: u32,
    next: u32,
}

impl Bump {
    fn alloc(&mut self, records: u32) -> StreamBinding {
        let range = SrfRange {
            base: self.next,
            words_per_bank: records.div_ceil(self.lanes),
        };
        self.next += range.words_per_bank;
        StreamBinding::whole(range, 1, records)
    }

    /// The verifier's view once everything is allocated: `table`, written
    /// before the program runs, is the only data.
    fn env(&self, table: Option<StreamBinding>) -> VerifyEnv {
        VerifyEnv {
            allocated_words_per_bank: self.next,
            filled: table
                .map(|t| (t.range.base, t.range.base + t.range.words_per_bank))
                .into_iter()
                .collect(),
        }
    }
}

/// `words` words of mixed pattern: small ints, negatives, and words that
/// decode to interesting floats.
fn mixed(words: u32) -> Vec<Word> {
    (0..words)
        .map(|i| (i ^ 0x3f00_0000).wrapping_mul(2654435761))
        .collect()
}

/// `n` draws of `strategy` from the generator seeded by `name`.
fn corpus<S: Strategy>(strategy: &S, name: &str, n: usize) -> Vec<S::Value> {
    let mut rng = TestRng::deterministic(name);
    (0..n).map(|_| strategy.sample(&mut rng)).collect()
}
