//! First-divergence bisection over machine snapshots (DESIGN.md §12).
//!
//! Given two machines that *should* be indistinguishable — two builds, or
//! one machine with a deliberately injected fault —
//! [`first_divergence`] runs them in lockstep through the same program and
//! binary-searches over [`isrf_sim::Machine::save_state`] snapshots for
//! the first cycle at which their architectural state differs, returning a
//! structural diff (which section — SRF bank, memory chunk, stream buffer,
//! FIFO — and which word) of that cycle.
//!
//! The search walks forward in chunks: step both machines `chunk` cycles,
//! compare snapshot bytes (snapshots of identical state are byte-identical
//! by construction), and on the first mismatch rewind both machines to the
//! last equal snapshot and halve the chunk. When the chunk reaches one
//! cycle the mismatch cycle is exact. Cost is `O(T + log T · chunk)`
//! simulated cycles rather than the `O(T)` snapshots a per-cycle scan
//! would take.

use isrf_core::snap::SnapError;
use isrf_core::Word;
use isrf_sim::snapshot::{diff_snapshots, SnapshotDiff};
use isrf_sim::{Machine, SimError, StreamProgram};

/// Why a bisection stopped without an answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BisectError {
    /// A snapshot failed to restore or to diff — only possible when the two
    /// machines were built from different configurations or programs.
    Snap(SnapError),
    /// One of the machines could not advance the program (a deadlocked
    /// kernel on a perturbed configuration, say).
    Sim(SimError),
}

impl std::fmt::Display for BisectError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BisectError::Snap(e) => e.fmt(f),
            BisectError::Sim(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for BisectError {}

impl From<SnapError> for BisectError {
    fn from(e: SnapError) -> Self {
        BisectError::Snap(e)
    }
}

impl From<SimError> for BisectError {
    fn from(e: SimError) -> Self {
        BisectError::Sim(e)
    }
}

/// A deliberate single-word SRF perturbation, applied to the second
/// machine when the lockstep run crosses `cycle`. Used by the negative
/// tests that prove the bisector localizes an injected divergence.
#[derive(Debug, Clone, Copy)]
pub struct PerturbAt {
    /// Machine cycle (counted from the start of the program run) after
    /// which the perturbation is applied.
    pub cycle: u64,
    /// SRF bank to corrupt.
    pub lane: usize,
    /// Per-bank word offset to corrupt.
    pub offset: u32,
    /// XOR mask applied to the word.
    pub xor: Word,
}

/// Where two lockstep machines first disagree.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// First cycle (from run start) at which the snapshots differ.
    pub cycle: u64,
    /// Structural diff of the two snapshots at that cycle.
    pub diffs: Vec<SnapshotDiff>,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "first diverging cycle: {}", self.cycle)?;
        for d in &self.diffs {
            writeln!(f, "  {d}")?;
        }
        Ok(())
    }
}

/// One machine being stepped through the bisection.
struct Side<'m> {
    m: &'m mut Machine,
    /// Cycles consumed from run start.
    at: u64,
    /// The run completed (`step` returned stats); no further stepping.
    done: bool,
    perturb: Option<PerturbAt>,
}

impl Side<'_> {
    /// Advance `cycles` forward from `self.at`, applying the injected
    /// perturbation when the step crosses its cycle.
    fn step(&mut self, program: &StreamProgram, cycles: u64) -> Result<(), SimError> {
        let target = self.at + cycles;
        if let Some(p) = self.perturb {
            // Split the step at the injection point so the perturbation
            // lands exactly after cycle `p.cycle`.
            if self.at < p.cycle && p.cycle <= target {
                self.advance(program, p.cycle - self.at)?;
                let w = self.m.srf().read(p.lane, p.offset);
                self.m.srf_mut().write(p.lane, p.offset, w ^ p.xor);
                return self.step(program, target - p.cycle);
            }
        }
        self.advance(program, cycles)
    }

    fn advance(&mut self, program: &StreamProgram, cycles: u64) -> Result<(), SimError> {
        if !self.done && cycles > 0 && self.m.step(program, cycles)?.is_some() {
            self.done = true;
        }
        self.at += cycles;
        Ok(())
    }

    fn restore(&mut self, program: &StreamProgram, snap: &[u8], at: u64) -> Result<(), SnapError> {
        self.m.restore_state(program, snap)?;
        self.at = at;
        // `mid_run()` is false both before the first cycle and after the
        // last; only the latter means the run completed.
        self.done = at > 0 && !self.m.mid_run();
        Ok(())
    }
}

/// Find the first cycle at which machines `a` and `b` — both positioned at
/// the start of `program` (or restored to the same mid-run point) —
/// diverge in architectural state, stepping in chunks of at most
/// `initial_chunk` cycles.
///
/// `perturb_b` optionally injects a single-word SRF corruption into `b`
/// at a chosen cycle (negative testing: the bisector must report exactly
/// that cycle, provided the corrupted word's effect persists in state).
///
/// Returns `Ok(None)` when both machines complete the program with
/// byte-identical snapshots at every compared cycle, `Ok(Some(d))` with
/// the exact first diverging cycle and a structural state diff otherwise.
/// Both machines are left near the divergence point (or at completion).
///
/// # Errors
///
/// [`BisectError::Snap`] if a snapshot fails to restore — only possible
/// when the two machines were built from different configurations or
/// programs — and [`BisectError::Sim`] with the [`SimError`] of a machine
/// that cannot advance the program.
pub fn first_divergence(
    a: &mut Machine,
    b: &mut Machine,
    program: &StreamProgram,
    initial_chunk: u64,
    perturb_b: Option<PerturbAt>,
) -> Result<Option<Divergence>, BisectError> {
    let mut sa = Side {
        m: a,
        at: 0,
        done: false,
        perturb: None,
    };
    let mut sb = Side {
        m: b,
        at: 0,
        done: false,
        perturb: perturb_b,
    };
    let mut chunk = initial_chunk.max(1);

    // Starting states must agree (a divergence "at cycle 0" means the two
    // machines were prepared differently).
    let mut last_equal_a = sa.m.save_state(program);
    let mut last_equal_b = sb.m.save_state(program);
    if last_equal_a != last_equal_b {
        let diffs = diff_snapshots(&last_equal_a, &last_equal_b)?;
        return Ok(Some(Divergence { cycle: 0, diffs }));
    }
    let mut equal_at = sa.at;

    loop {
        if sa.done && sb.done {
            return Ok(None);
        }
        sa.step(program, chunk)?;
        sb.step(program, chunk)?;
        let na = sa.m.save_state(program);
        let nb = sb.m.save_state(program);
        if na == nb {
            last_equal_a = na;
            last_equal_b = nb;
            equal_at = sa.at;
            continue;
        }
        if chunk == 1 {
            let diffs = diff_snapshots(&na, &nb)?;
            return Ok(Some(Divergence {
                cycle: equal_at + 1,
                diffs,
            }));
        }
        // Rewind to the last agreed state and narrow the step.
        sa.restore(program, &last_equal_a, equal_at)?;
        sb.restore(program, &last_equal_b, equal_at)?;
        chunk = (chunk / 2).max(1);
    }
}
