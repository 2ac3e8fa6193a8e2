//! Differential execution: cycle-accurate machine vs reference executor.

use std::{fmt, panic, thread};

use isrf_core::stats::RunStats;
use isrf_core::Word;
use isrf_sim::machine::{Machine, SimError};
use isrf_sim::program::StreamProgram;
use isrf_trace::{Recorder, Tracer};
use isrf_verify::Verifier;

use crate::refexec::{RefCounts, RefMachine};

/// How many trailing trace events a [`DiffFailure`] carries.
const TRACE_TAIL: usize = 32;

/// How many memory and SRF word divergences a [`DiffFailure`] lists.
const MAX_ERRORS: usize = 32;

/// Words compared at a time: a block that matches on both sides is never
/// walked word by word.
const BLOCK: usize = 1 << 12;

/// Where a differential run diverged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiffError {
    /// The static verifier rejected the program before it ran:
    /// `(code, rendered diagnostic)`.
    Verify(String, String),
    /// The machine could not run the program to completion: the rendered
    /// [`isrf_sim::SimError`] (a deadlocked kernel, say).
    Sim(String),
    /// An output-region memory word differs: `(addr, machine, reference)`.
    Memory(u32, u32, u32),
    /// An SRF word differs: `(lane, offset, machine, reference)`.
    Srf(usize, u32, u32, u32),
    /// In-lane indexed word counts differ: `(machine, reference)`.
    InlaneCount(u64, u64),
    /// Cross-lane indexed word counts differ: `(machine, reference)`.
    CrosslaneCount(u64, u64),
    /// The trace-event audit disagrees with the machine's reported
    /// Figure-12 cycle breakdown.
    Audit(String),
}

impl fmt::Display for DiffError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiffError::Verify(_, rendered) => write!(f, "static verification: {rendered}"),
            DiffError::Sim(rendered) => write!(f, "simulation failed: {rendered}"),
            DiffError::Memory(addr, m, r) => {
                write!(f, "memory[{addr:#x}]: machine {m:#x} != reference {r:#x}")
            }
            DiffError::Srf(lane, off, m, r) => write!(
                f,
                "srf[lane {lane}][{off:#x}]: machine {m:#x} != reference {r:#x}"
            ),
            DiffError::InlaneCount(m, r) => {
                write!(f, "in-lane indexed words: machine {m} != reference {r}")
            }
            DiffError::CrosslaneCount(m, r) => {
                write!(f, "cross-lane indexed words: machine {m} != reference {r}")
            }
            DiffError::Audit(msg) => write!(f, "cycle-attribution audit: {msg}"),
        }
    }
}

/// A failed differential run: every divergence found, plus the last few
/// trace events leading up to the end of the run for post-mortem context.
#[derive(Debug, Clone)]
pub struct DiffFailure {
    /// The divergences, in scan order (verification, simulation failure,
    /// memory, SRF, counts, audit).
    pub errors: Vec<DiffError>,
    /// The final `TRACE_TAIL` recorded events, already rendered one per
    /// line as `  @<cycle> <event>`.
    pub trace_tail: Vec<String>,
}

impl fmt::Display for DiffFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} divergence(s):", self.errors.len())?;
        for e in &self.errors {
            writeln!(f, "  {e}")?;
        }
        if !self.trace_tail.is_empty() {
            writeln!(f, "last {} trace events:", self.trace_tail.len())?;
            for line in &self.trace_tail {
                writeln!(f, "{line}")?;
            }
        }
        Ok(())
    }
}

/// Result of a successful differential run.
#[derive(Debug, Clone)]
pub struct DiffOutcome {
    /// The cycle-accurate machine's stats for the run.
    pub stats: RunStats,
    /// The reference executor's indexed word counts (already checked
    /// against `stats.srf`).
    pub counts: RefCounts,
}

/// Run `program` on both the machine and a reference snapshot of it, then
/// compare final state. [`Verifier::verify`] runs first, whatever machine
/// is passed in; its diagnostics become [`DiffError::Verify`] entries and
/// the program is never simulated. A program the machine then fails on is a
/// [`DiffError::Sim`] carrying the trace tail. On a completed run the
/// comparison covers:
///
/// * every word of every `(base, words)` output region in memory,
/// * the entire remaining memory image (stores land functionally at issue
///   on every configuration, so the images must be identical),
/// * the entire SRF,
/// * the machine's indexed SRF word counts against the reference's.
///
/// The machine additionally runs under a recording [`Tracer`]: the one the
/// caller installed, which stays installed and holds the whole run, or
/// else one kept for the run alone. The event-stream audit must
/// reconstruct the machine's reported Figure-12 cycle breakdown exactly,
/// and any failure report carries the last few trace events for context.
///
/// The two sides share nothing until the comparison, so they run at once:
/// the machine steps on a scoped worker thread while the reference runs on
/// the calling thread. The machine is the side that moves because peak
/// memory rose less that way round than the other (EXPERIMENTS.md, "The
/// oracle's two sides at once"). A panic on the worker is raised again on
/// the caller with its own message.
///
/// # Errors
///
/// Returns every divergence found (memory first, then SRF, then counts,
/// then audit), or the machine stats and reference counts on agreement.
pub fn run_differential(
    machine: &mut Machine,
    program: &StreamProgram,
    outputs: &[(u32, u32)],
) -> Result<DiffOutcome, DiffFailure> {
    // Static verification first, in any build: the diagnostics name the
    // cause where a failed simulation only names the symptom.
    if let Err(e) = Verifier::new().verify(machine.config(), &machine.verify_env(), program) {
        return Err(DiffFailure {
            errors: e
                .diagnostics
                .iter()
                .take(MAX_ERRORS)
                .map(|d| DiffError::Verify(d.code.clone(), d.to_string()))
                .collect(),
            trace_tail: Vec::new(),
        });
    }
    run_both(machine, program, outputs)
}

/// The rest of [`run_differential`], once the program has verified: both
/// sides run at once, then [`compare`].
fn run_both(
    machine: &mut Machine,
    program: &StreamProgram,
    outputs: &[(u32, u32)],
) -> Result<DiffOutcome, DiffFailure> {
    let mut reference = RefMachine::from_machine(machine);
    let own = !machine.tracer().enabled();
    if own {
        machine.set_tracer(Tracer::recording(TRACE_TAIL));
    }
    let ran = thread::scope(|s| {
        let worker = s.spawn(|| machine.step(program, u64::MAX));
        reference.run(program);
        worker.join().unwrap_or_else(|e| panic::resume_unwind(e))
    });
    let tracer = machine.take_tracer();
    let recorder = tracer.recorder().expect("recording tracer was installed");
    let result = compare(machine, &reference, outputs, ran, recorder);
    if !own {
        machine.set_tracer(tracer);
    }
    result
}

/// The rest of [`run_both`], once both sides have run: the machine's
/// outcome `ran`, recorded by `recorder`, against `reference`.
fn compare(
    machine: &Machine,
    reference: &RefMachine,
    outputs: &[(u32, u32)],
    ran: Result<Option<RunStats>, SimError>,
    recorder: &Recorder,
) -> Result<DiffOutcome, DiffFailure> {
    let stats = match ran {
        Ok(stats) => stats.expect("an unbounded step completes or fails"),
        Err(e) => {
            return Err(DiffFailure {
                errors: vec![DiffError::Sim(e.to_string())],
                trace_tail: recorder.ring().tail_lines(TRACE_TAIL),
            })
        }
    };

    // Output regions first, so the report leads with the words callers
    // actually consume, then a linear scan of the full memory image (a
    // mismatch inside an output region may appear twice; both scans cap).
    let mut errors = Vec::new();
    let (mm, rm) = (machine.mem().memory(), reference.mem());
    let mut regions = outputs.to_vec();
    regions.push((0, mm.len().max(rm.len()) as u32));
    let mut uncapped = regions.iter().all(|&(base, words)| {
        let fill = |at, m: &mut [Word], r: &mut [Word]| {
            mm.read_block_into(at, m);
            rm.read_block_into(at, r);
        };
        diff_blocks(base, words, fill, DiffError::Memory, &mut errors)
    });
    // Then the SRF bank by bank, filled a word at a time: `Srf` lends
    // other crates words, not bank slices.
    let (ms, rs) = (machine.srf(), reference.srf());
    for lane in 0..machine.config().lanes {
        let fill = |at, m: &mut [Word], r: &mut [Word]| {
            for (off, (m, r)) in (at..).zip(m.iter_mut().zip(r)) {
                (*m, *r) = (ms.read(lane, off), rs.read(lane, off));
            }
        };
        let error = |off, m, r| DiffError::Srf(lane, off, m, r);
        uncapped = uncapped && diff_blocks(0, ms.bank_words(), fill, error, &mut errors);
    }

    let counts = reference.counts();
    if stats.srf.inlane_words != counts.inlane_words {
        errors.push(DiffError::InlaneCount(
            stats.srf.inlane_words,
            counts.inlane_words,
        ));
    }
    if stats.srf.crosslane_words != counts.crosslane_words {
        errors.push(DiffError::CrosslaneCount(
            stats.srf.crosslane_words,
            counts.crosslane_words,
        ));
    }

    for m in recorder.audit().verify(&stats.breakdown) {
        errors.push(DiffError::Audit(m.to_string()));
    }

    if errors.is_empty() {
        Ok(DiffOutcome { stats, counts })
    } else {
        Err(DiffFailure {
            errors,
            trace_tail: recorder.ring().tail_lines(TRACE_TAIL),
        })
    }
}

/// Compare words `base..base + words` of the machine's image and the
/// reference's a block of [`BLOCK`] words at a time, `fill(at, machine,
/// reference)` reading both sides of the block at `at`. Only a block that
/// differs is walked word by word, each differing word pushing
/// `error(addr, machine, reference)` onto `errors`. Returns `false` once
/// `errors` holds [`MAX_ERRORS`].
fn diff_blocks(
    base: u32,
    words: u32,
    fill: impl Fn(u32, &mut [Word], &mut [Word]),
    error: impl Fn(u32, Word, Word) -> DiffError,
    errors: &mut Vec<DiffError>,
) -> bool {
    let (mut m, mut r) = ([0; BLOCK], [0; BLOCK]);
    let end = base as u64 + words as u64;
    for at in (base as u64..end).step_by(BLOCK) {
        let n = (end - at).min(BLOCK as u64) as usize;
        let (m, r) = (&mut m[..n], &mut r[..n]);
        fill(at as u32, m, r);
        if m == r {
            continue;
        }
        for (addr, (&m, &r)) in (at as u32..).zip(m.iter().zip(r.iter())) {
            if m != r {
                errors.push(error(addr, m, r));
                if errors.len() >= MAX_ERRORS {
                    return false;
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use isrf_core::config::{ConfigName, MachineConfig};
    use isrf_kernel::ir::{KernelBuilder, StreamKind};
    use isrf_kernel::sched::Schedule;
    use isrf_trace::Recorder;

    use super::*;

    /// The block-wise compare lists what a word-by-word scan does, in its
    /// order: an output region's divergence first (and again in the full
    /// scan), one word on each side of a block boundary, one in a memory
    /// chunk only the machine ever wrote, then an SRF word. Past
    /// `MAX_ERRORS` the list stops at the cap and the SRF goes unscanned.
    #[test]
    fn compare_lists_seeded_divergences_as_a_word_by_word_scan_does() {
        let mut m = Machine::new(MachineConfig::preset(ConfigName::Base)).unwrap();
        let b = BLOCK as u32;
        let image: Vec<u32> = (1..=3 * b).collect();
        m.mem_mut().memory_mut().write_block(0, &image);
        let reference = RefMachine::from_machine(&m);
        // 2.5 Mi words up: a 64 Ki-word chunk the reference never backed.
        let far = 40 << 16;
        for (addr, v) in [(100, 7), (b - 1, 8), (b, 9), (far + 3, 10)] {
            m.mem_mut().memory_mut().write(addr, v);
        }
        m.srf_mut().write(5, 17, 11);
        let outputs = [(96, 8)];
        let errors = |m: &Machine| {
            let ran = Ok(Some(RunStats::default()));
            compare(m, &reference, &outputs, ran, &Recorder::new(TRACE_TAIL))
                .expect_err("seeded divergences")
                .errors
        };
        use DiffError::{Memory, Srf};
        assert_eq!(
            errors(&m),
            [
                Memory(100, 7, 101),
                Memory(100, 7, 101),
                Memory(b - 1, 8, b),
                Memory(b, 9, b + 1),
                Memory(far + 3, 10, 0),
                Srf(5, 17, 11, 0),
            ]
        );

        // Forty more, every other word of the third block: the list stops
        // at the cap, 28 of them in.
        for k in 0..40 {
            m.mem_mut().memory_mut().write(2 * b + 2 * k, 0);
        }
        let mut want = vec![
            Memory(100, 7, 101),
            Memory(100, 7, 101),
            Memory(b - 1, 8, b),
            Memory(b, 9, b + 1),
        ];
        want.extend((0..28).map(|k| Memory(2 * b + 2 * k, 0, 2 * b + 2 * k + 1)));
        assert_eq!(want.len(), MAX_ERRORS);
        assert_eq!(errors(&m), want);
    }

    /// `out[i] = in[i] + LUT[in[i]]` under a hand-built schedule (II 1, one
    /// op per cycle) that pops the indexed data 17 cycles after pushing its
    /// address: 16 records outstanding against an 8-entry FIFO and an 8-word
    /// buffer, the wedge `isrf-verify` calls V501. The reference executor
    /// consults no schedule, so it runs the program to the end.
    fn wedged_lookup() -> (Machine, StreamProgram) {
        let mut m = Machine::new(MachineConfig::preset(ConfigName::Isrf4)).unwrap();
        let mut b = KernelBuilder::new("lookup");
        let s_in = b.stream("in", StreamKind::SeqIn);
        let s_lut = b.stream("LUT", StreamKind::IdxInRead);
        let s_out = b.stream("out", StreamKind::SeqOut);
        let a = b.seq_read(s_in);
        let v = b.idx_load(s_lut, a);
        let c = b.add(a, v);
        b.seq_write(s_out, c);
        let kernel = Arc::new(b.build().unwrap());
        // Ops in order: seq_read, idx_addr, idx_read, add, seq_write.
        let sched = Schedule {
            ii: 1,
            slots: vec![0, 1, 18, 19, 20],
            span: 21,
            completion: 21,
        };
        assert_eq!(kernel.ops.len(), sched.slots.len());
        let input = m.alloc_stream(1, 512);
        let lut = m.alloc_stream(1, 512);
        let output = m.alloc_stream(1, 512);
        let indices: Vec<u32> = (0..512).map(|k| k * 7 % 64).collect();
        m.write_stream(&input, &indices);
        m.write_stream(&lut, &(0..512).collect::<Vec<u32>>());
        let mut p = StreamProgram::new();
        p.kernel(kernel, sched, vec![input, lut, output], 64, &[]);
        (m, p)
    }

    /// A bare `Machine::new` carries nothing that verifies, yet the wedge
    /// comes back as the verifier's V501 and the machine never moves.
    #[test]
    fn a_wedging_program_is_rejected_before_the_machine_moves() {
        let (mut m, p) = wedged_lookup();
        let failure = run_differential(&mut m, &p, &[]).expect_err("the schedule wedges");
        assert!(!failure.errors.is_empty());
        for e in &failure.errors {
            assert!(
                matches!(e, DiffError::Verify(code, _) if code.as_str() == "V501"),
                "{failure}"
            );
        }
        assert!(failure.trace_tail.is_empty());
        assert_eq!(m.now(), 0);
        assert!(!m.mid_run());
    }

    /// Past verification, the machine must come back from the wedge with a
    /// typed failure, not unwind through the caller.
    #[test]
    fn a_deadlocked_machine_is_a_diff_failure_with_its_trace_tail() {
        let (mut m, p) = wedged_lookup();
        let failure = run_both(&mut m, &p, &[]).expect_err("the schedule wedges");
        let [DiffError::Sim(msg)] = failure.errors.as_slice() else {
            panic!("expected one simulation failure, got {failure}");
        };
        assert!(
            msg.contains("deadlock") && msg.contains("`lookup`"),
            "{msg}"
        );
        // The tail is the recorder's last events: the wedged cycles.
        assert_eq!(failure.trace_tail.len(), TRACE_TAIL);
        let last = failure.trace_tail.last().unwrap();
        assert!(last.contains(&format!("@{}", m.now())), "{last}");
        assert!(m.mid_run(), "the machine is parked for the post-mortem");
    }
}
