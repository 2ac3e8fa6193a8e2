//! Differential execution: cycle-accurate machine vs reference executor.

use std::fmt;

use isrf_core::stats::RunStats;
use isrf_sim::machine::Machine;
use isrf_sim::program::StreamProgram;
use isrf_trace::Tracer;

use crate::refexec::{RefCounts, RefMachine};

/// How many trailing trace events a [`DiffFailure`] carries.
const TRACE_TAIL: usize = 32;

/// Where a differential run diverged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiffError {
    /// The machine's static verifier rejected the program before it ran:
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
/// compare final state. The machine's installed static verifier (if any)
/// runs first; its diagnostics become [`DiffError::Verify`] entries and the
/// program is never simulated. A program the machine then fails on is a
/// [`DiffError::Sim`] carrying the trace tail. On a completed run the
/// comparison covers:
///
/// * every word of every `(base, words)` output region in memory,
/// * the entire remaining memory image (stores land functionally at issue
///   on every configuration, so the images must be identical),
/// * the entire SRF,
/// * the machine's indexed SRF word counts against the reference's.
///
/// The machine additionally runs under a recording [`Tracer`]; the
/// event-stream audit must reconstruct the machine's reported Figure-12
/// cycle breakdown exactly, and any failure report carries the last few
/// trace events for context.
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
    if let Err(e) = machine.verify_program(program) {
        return Err(DiffFailure {
            errors: e
                .diagnostics
                .iter()
                .take(32)
                .map(|d| DiffError::Verify(d.code.clone(), d.to_string()))
                .collect(),
            trace_tail: Vec::new(),
        });
    }
    let mut reference = RefMachine::from_machine(machine);
    reference.run(program);
    let prev = machine.set_tracer(Tracer::recording(TRACE_TAIL));
    let ran = machine.step(program, u64::MAX);
    let recorder = machine
        .set_tracer(prev)
        .into_recorder()
        .expect("recording tracer was installed");
    let stats = match ran {
        Ok(stats) => stats.expect("an unbounded step completes or fails"),
        Err(e) => {
            return Err(DiffFailure {
                errors: vec![DiffError::Sim(e.to_string())],
                trace_tail: recorder.ring().tail_lines(TRACE_TAIL),
            })
        }
    };

    let mut errors = Vec::new();
    const MAX_ERRORS: usize = 32;

    // Output regions first, so the report leads with the words callers
    // actually consume, then a linear scan of the full memory image (a
    // mismatch inside an output region may appear twice; both scans cap).
    let mem_words = machine.mem().memory().len().max(reference.mem().len()) as u32;
    let mut regions: Vec<(u32, u32)> = outputs.to_vec();
    regions.push((0, mem_words));
    'mem: for &(base, words) in &regions {
        for k in 0..words {
            let addr = base + k;
            let m = machine.mem().memory().read(addr);
            let r = reference.mem().read(addr);
            if m != r {
                errors.push(DiffError::Memory(addr, m, r));
                if errors.len() >= MAX_ERRORS {
                    break 'mem;
                }
            }
        }
    }

    if errors.len() < MAX_ERRORS {
        'srf: for lane in 0..machine.config().lanes {
            for off in 0..machine.srf().bank_words() {
                let m = machine.srf().read(lane, off);
                let r = reference.srf().read(lane, off);
                if m != r {
                    errors.push(DiffError::Srf(lane, off, m, r));
                    if errors.len() >= MAX_ERRORS {
                        break 'srf;
                    }
                }
            }
        }
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

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use isrf_core::config::{ConfigName, MachineConfig};
    use isrf_kernel::ir::{KernelBuilder, StreamKind};
    use isrf_kernel::sched::Schedule;

    use super::*;

    /// `out[i] = in[i] + LUT[in[i]]` under a hand-built schedule (II 1, one
    /// op per cycle) that pops the indexed data 17 cycles after pushing its
    /// address: 16 records outstanding against an 8-entry FIFO and an 8-word
    /// buffer, the wedge `isrf-verify` calls V501. The reference executor
    /// consults no schedule, so it runs the program to the end; the machine
    /// must come back with a typed failure, not unwind through the caller.
    #[test]
    fn a_deadlocked_machine_is_a_diff_failure_with_its_trace_tail() {
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

        let failure = run_differential(&mut m, &p, &[]).expect_err("the schedule wedges");
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
