//! Point execution: turn a [`PointSpec`] into a running machine, advance
//! it in bounded slices, checkpoint it, and collect the outcome.
//!
//! Named apps go through [`isrf_apps::prepare_app`]; inline kernels go
//! through a canonical source harness (deterministic input fill, one
//! kernel invocation, outputs read back from the SRF). Both paths share
//! the process-global schedule and tape memos, so a warm server compiles
//! each distinct kernel exactly once no matter how many jobs reference it.

use std::sync::Arc;

use isrf_apps::common::Prepared;
use isrf_apps::{prepare_app, Profile};
use isrf_core::config::MachineConfig;
use isrf_core::stats::RunStats;
use isrf_core::Word;
use isrf_kernel::ir::StreamKind;
use isrf_kernel::sched::{schedule_cached, SchedParams};
use isrf_sim::{Diagnostic, Machine, ProgramVerifier, SimError, StreamBinding, StreamProgram};
use isrf_trace::{chrome, Tracer};
use isrf_verify::Verifier;

use crate::spec::{AppRef, PointSpec};
use crate::Json;

/// How a finished point's output words are located.
#[derive(Debug)]
enum OutputSel {
    /// A memory region `(base, words)` (named apps).
    Mem(u32, u32),
    /// An SRF stream (source-harness output streams), with its label.
    Stream(StreamBinding),
}

/// The result of one completed point.
#[derive(Debug, Clone)]
pub struct PointOutcome {
    /// The machine's stats for the run.
    pub stats: RunStats,
    /// Labeled output words: `mem@<base>` regions for named apps, stream
    /// names for source kernels.
    pub outputs: Vec<(String, Vec<Word>)>,
    /// Chrome trace JSON, when tracing was requested.
    pub trace_json: Option<String>,
}

impl PointOutcome {
    /// Render as the wire JSON object (the trace ships separately).
    pub fn to_json(&self) -> Json {
        let b = &self.stats.breakdown;
        Json::Obj(vec![
            ("cycles".into(), Json::u64(self.stats.cycles)),
            (
                "main_loop_cycles".into(),
                Json::u64(self.stats.main_loop_cycles),
            ),
            (
                "breakdown".into(),
                Json::Obj(vec![
                    ("kernel_loop".into(), Json::u64(b.kernel_loop)),
                    ("mem_stall".into(), Json::u64(b.mem_stall)),
                    ("srf_stall".into(), Json::u64(b.srf_stall)),
                    ("overhead".into(), Json::u64(b.overhead)),
                ]),
            ),
            (
                "mem".into(),
                Json::Obj(vec![
                    ("bytes_read".into(), Json::u64(self.stats.mem.bytes_read)),
                    (
                        "bytes_written".into(),
                        Json::u64(self.stats.mem.bytes_written),
                    ),
                ]),
            ),
            (
                "srf".into(),
                Json::Obj(vec![
                    ("seq_words".into(), Json::u64(self.stats.srf.seq_words)),
                    (
                        "inlane_words".into(),
                        Json::u64(self.stats.srf.inlane_words),
                    ),
                    (
                        "crosslane_words".into(),
                        Json::u64(self.stats.srf.crosslane_words),
                    ),
                ]),
            ),
            (
                "outputs".into(),
                Json::Arr(
                    self.outputs
                        .iter()
                        .map(|(name, words)| {
                            Json::Obj(vec![
                                ("name".into(), Json::str(name.clone())),
                                (
                                    "words".into(),
                                    Json::Arr(
                                        words.iter().map(|&w| Json::u64(u64::from(w))).collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Why [`PointRunner::run`] returned without an outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stopped {
    /// `keep_going` declined the next slice: the machine is paused
    /// cycle-exactly (checkpoint with [`PointRunner::checkpoint`], or call
    /// `run` again to continue).
    Paused,
    /// The simulation failed; the machine stays parked where it did.
    Failed(SimError),
}

/// A point being executed: machine + program + output selectors.
pub struct PointRunner {
    machine: Machine,
    program: StreamProgram,
    outputs: Vec<(String, OutputSel)>,
    trace: bool,
}

impl PointRunner {
    /// Prepare a fresh runner for `spec`.
    ///
    /// # Errors
    ///
    /// A rendered message for anything the submission can cause: parse or
    /// lowering failures of inline source, scheduling failure, or static
    /// verification diagnostics.
    pub fn new(spec: &PointSpec, trace: bool) -> Result<PointRunner, String> {
        let mut runner = Self::build(spec)?;
        // Verify up front on both paths so a hazardous program surfaces as
        // a structured failure instead of a worker panic mid-simulation.
        runner
            .machine
            .verify_program(&runner.program)
            .map_err(|e| format!("static verification failed: {e}"))?;
        runner.trace = trace;
        if trace {
            runner.machine.set_tracer(Tracer::recording(1 << 20));
        }
        Ok(runner)
    }

    /// Prepare a runner and restore a checkpoint into it (drain/restart
    /// path). The tracer is installed *after* the restore, so a resumed
    /// trace covers post-restore events only.
    ///
    /// # Errors
    ///
    /// As [`PointRunner::new`], plus snapshot decode/mismatch failures.
    pub fn resume(spec: &PointSpec, trace: bool, snapshot: &[u8]) -> Result<PointRunner, String> {
        let mut runner = PointRunner::new(spec, false)?;
        runner.machine.take_tracer();
        runner
            .machine
            .restore_state(&runner.program, snapshot)
            .map_err(|e| format!("checkpoint restore failed: {e}"))?;
        if trace {
            runner.machine.set_tracer(Tracer::recording(1 << 20));
        }
        runner.trace = trace;
        Ok(runner)
    }

    /// Construct machine + program for `spec` without verifying or
    /// installing a tracer. Shared between execution
    /// ([`PointRunner::new`]) and pre-admission analysis
    /// ([`analyze_point`]) so the two can never drift apart.
    fn build(spec: &PointSpec) -> Result<PointRunner, String> {
        match &spec.app {
            AppRef::Named(name) => {
                // The app's host check is dropped here: a job returns
                // its words, it does not judge them.
                let Prepared {
                    machine,
                    program,
                    outputs,
                    ..
                } = prepare_app(name, spec.config, spec.profile);
                Ok(PointRunner {
                    machine,
                    program,
                    outputs: outputs
                        .iter()
                        .map(|&(base, words)| {
                            (format!("mem@{base:#x}"), OutputSel::Mem(base, words))
                        })
                        .collect(),
                    trace: false,
                })
            }
            AppRef::Source {
                src,
                records_per_lane,
                table_records_per_lane,
                seed,
            } => Self::from_source(src, *records_per_lane, *table_records_per_lane, *seed, spec),
        }
    }

    fn from_source(
        src: &str,
        records_per_lane: u32,
        table_records_per_lane: u32,
        seed: u32,
        spec: &PointSpec,
    ) -> Result<PointRunner, String> {
        // `Paper` quadruples the workload for inline kernels.
        let rpl = match spec.profile {
            Profile::Small => records_per_lane,
            Profile::Paper => records_per_lane.saturating_mul(4).min(4096),
        };
        let kernel = Arc::new(isrf_lang::parse_kernel(src).map_err(|e| format!("{e}"))?);
        let mut machine = isrf_apps::common::machine(&MachineConfig::preset(spec.config));
        let lanes = machine.config().lanes as u32;
        let sched = schedule_cached(&kernel, &SchedParams::from_machine(machine.config()))
            .map_err(|e| format!("scheduling failed: {e}"))?;

        let mut bindings = Vec::new();
        let mut outputs = Vec::new();
        for (i, decl) in kernel.streams.iter().enumerate() {
            let records = match decl.kind {
                StreamKind::IdxInRead | StreamKind::IdxCrossRead => table_records_per_lane * lanes,
                _ => rpl * lanes,
            };
            let b = machine.alloc_stream(1, records);
            match decl.kind {
                StreamKind::SeqIn
                | StreamKind::CondIn
                | StreamKind::CondLaneIn
                | StreamKind::IdxInRead
                | StreamKind::IdxCrossRead => {
                    let salt = seed.wrapping_add(i as u32).wrapping_mul(0x9e37_79b9);
                    let data: Vec<Word> = (0..b.words())
                        .map(|k| k.wrapping_mul(2654435761).wrapping_add(salt))
                        .collect();
                    machine.write_stream(&b, &data);
                }
                StreamKind::SeqOut | StreamKind::CondOut | StreamKind::IdxInWrite => {
                    outputs.push((decl.name.clone(), OutputSel::Stream(b)));
                }
            }
            bindings.push(b);
        }

        let mut program = StreamProgram::new();
        program.kernel(kernel, sched, bindings, u64::from(rpl), &[]);
        Ok(PointRunner {
            machine,
            program,
            outputs,
            trace: false,
        })
    }

    /// Cycles simulated so far on this machine (progress reporting).
    pub fn cycles(&self) -> u64 {
        self.machine.now()
    }

    /// Advance in [`Machine::step`] slices of `chunk` cycles (at least 1)
    /// while `keep_going` approves. `keep_going` receives the machine's
    /// current cycle (for progress reporting) and is consulted before every
    /// slice, including the first — an already-cancelled job never
    /// simulates a cycle — so a pause lands on an exact cycle boundary.
    ///
    /// # Errors
    ///
    /// [`Stopped::Paused`] the first time `keep_going` declines,
    /// [`Stopped::Failed`] with the machine's typed error.
    pub fn run(
        &mut self,
        chunk: u64,
        mut keep_going: impl FnMut(u64) -> bool,
    ) -> Result<PointOutcome, Stopped> {
        let stats = loop {
            if !keep_going(self.machine.now()) {
                return Err(Stopped::Paused);
            }
            let slice = self.machine.step(&self.program, chunk.max(1));
            if let Some(stats) = slice.map_err(Stopped::Failed)? {
                break stats;
            }
        };
        let trace_json = if self.trace {
            let recorder = self
                .machine
                .take_tracer()
                .into_recorder()
                .expect("recording tracer was installed");
            Some(chrome::export(recorder.ring().iter()))
        } else {
            None
        };
        let outputs = self
            .outputs
            .iter()
            .map(|(name, sel)| {
                let words = match sel {
                    OutputSel::Mem(base, words) => self
                        .machine
                        .mem()
                        .memory()
                        .read_block(*base, *words as usize),
                    OutputSel::Stream(b) => self.machine.read_stream(b),
                };
                (name.clone(), words)
            })
            .collect();
        Ok(PointOutcome {
            stats,
            outputs,
            trace_json,
        })
    }

    /// Serialize the paused machine (see [`Machine::save_state`]).
    pub fn checkpoint(&self) -> Vec<u8> {
        self.machine.save_state(&self.program)
    }
}

/// Statically analyze `spec` without simulating a cycle: build the same
/// machine + program a worker would run and hand them to the whole-program
/// verifier. `Ok(())` means the point is admissible; `Err` carries one
/// wire-ready JSON object per finding. Build failures (parse, lowering,
/// scheduling) are reported as a single `E000`/`build` pseudo-diagnostic
/// so every rejection reaches the client in the same structured shape.
///
/// This is the server's pre-admission gate (`POST /jobs` rejects with
/// `422` before anything is queued); workers still re-verify in
/// [`PointRunner::new`] as defense in depth.
///
/// # Errors
///
/// The structured diagnostics that make the point inadmissible.
pub fn analyze_point(spec: &PointSpec) -> Result<(), Vec<Json>> {
    let runner = match PointRunner::build(spec) {
        Ok(r) => r,
        Err(msg) => {
            return Err(vec![Json::Obj(vec![
                ("code".into(), Json::str("E000")),
                ("check".into(), Json::str("build")),
                ("message".into(), Json::str(msg)),
            ])])
        }
    };
    let diags = Verifier::new().verify(
        runner.machine.config(),
        &runner.machine.verify_env(),
        &runner.program,
    );
    if diags.is_empty() {
        Ok(())
    } else {
        Err(diags.iter().map(Diagnostic::to_json).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isrf_core::config::ConfigName;
    use isrf_sim::ExecEngine;

    fn sort_spec() -> PointSpec {
        PointSpec {
            app: AppRef::Named("sort".into()),
            config: ConfigName::Isrf4,
            profile: Profile::Small,
            engine: ExecEngine::Tape,
        }
    }

    #[test]
    fn named_point_runs_and_matches_direct() {
        let mut r = PointRunner::new(&sort_spec(), false).unwrap();
        let out = r.run(10_000, |_| true).unwrap();
        // Direct run through the same preparation path.
        let mut pr = prepare_app("sort", ConfigName::Isrf4, Profile::Small);
        let stats = pr.machine.run(&pr.program);
        assert_eq!(out.stats, stats);
        for ((_, got), &(base, words)) in out.outputs.iter().zip(&pr.outputs) {
            let want = pr.machine.mem().memory().read_block(base, words as usize);
            assert_eq!(*got, want);
        }
    }

    #[test]
    fn pause_checkpoint_resume_is_cycle_exact() {
        let spec = sort_spec();
        let mut straight = PointRunner::new(&spec, false).unwrap();
        let full = straight.run(5_000, |_| true).unwrap();

        let mut first = PointRunner::new(&spec, false).unwrap();
        let mut slices = 0;
        let paused = first.run(full.stats.cycles / 3, |_| {
            slices += 1;
            slices <= 1
        });
        assert_eq!(paused.unwrap_err(), Stopped::Paused);
        let snap = first.checkpoint();
        let mut resumed = PointRunner::resume(&spec, false, &snap).unwrap();
        let out = resumed.run(1 << 20, |_| true).unwrap();
        assert_eq!(out.stats, full.stats);
        assert_eq!(out.outputs, full.outputs);
    }

    #[test]
    fn source_kernel_computes_expected_words() {
        let spec = PointSpec {
            app: AppRef::Source {
                src: "kernel triple(istream<int> in, ostream<int> out) {\n\
                      int a, c;\n while (!eos(in)) { in >> a; c = a * 3 + 1; out << c; } }"
                    .into(),
                records_per_lane: 8,
                table_records_per_lane: 4,
                seed: 7,
            },
            config: ConfigName::Base,
            profile: Profile::Small,
            engine: ExecEngine::Tape,
        };
        let mut r = PointRunner::new(&spec, false).unwrap();
        let out = r.run(10_000, |_| true).unwrap();
        assert_eq!(out.outputs.len(), 1);
        let (name, words) = &out.outputs[0];
        assert_eq!(name, "out");
        let salt = 7u32.wrapping_mul(0x9e37_79b9);
        for (k, &w) in words.iter().enumerate() {
            let a = (k as u32).wrapping_mul(2654435761).wrapping_add(salt);
            assert_eq!(w, a.wrapping_mul(3).wrapping_add(1));
        }
    }

    #[test]
    fn bad_source_is_a_structured_error() {
        let spec = PointSpec {
            app: AppRef::Source {
                src: "kernel oops(".into(),
                records_per_lane: 8,
                table_records_per_lane: 4,
                seed: 0,
            },
            config: ConfigName::Base,
            profile: Profile::Small,
            engine: ExecEngine::Tape,
        };
        assert!(PointRunner::new(&spec, false).is_err());
    }
}
