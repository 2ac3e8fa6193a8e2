//! Point execution: turn a [`PointSpec`] into a running machine, advance
//! it in bounded slices, checkpoint it, and collect the outcome.
//!
//! Every point is a plan plus a load ([`isrf_apps::common::Plan`]). Named
//! apps are planned by [`isrf_apps::plan_app`]; inline kernels by a
//! canonical source harness (deterministic input fill, one kernel
//! invocation, outputs read back from the SRF). Admission
//! ([`analyze_point`]) verifies the plan and builds no data; a worker
//! ([`PointRunner::new`]) verifies the same plan, then loads it, so a
//! refused program never has its data built. Both paths share the
//! process-global schedule and tape memos, so a warm server compiles each
//! distinct kernel exactly once no matter how many jobs reference it.

use std::sync::Arc;

use isrf_apps::common::{Plan, Prepared};
use isrf_apps::{plan_app, Profile};
use isrf_core::config::MachineConfig;
use isrf_core::stats::RunStats;
use isrf_core::Word;
use isrf_kernel::ir::StreamKind;
use isrf_kernel::sched::{schedule_cached, SchedParams};
use isrf_sim::{Machine, SimError, StreamBinding, StreamProgram};
use isrf_trace::{chrome, Tracer};
use isrf_verify::{Diagnostic, Verifier, VerifyError};

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
    /// Prepare a fresh runner for `spec`: plan it, verify the plan, then
    /// load it.
    ///
    /// # Errors
    ///
    /// A rendered message for anything the submission can cause: parse or
    /// lowering failures of inline source, scheduling failure, or static
    /// verification diagnostics.
    pub fn new(spec: &PointSpec, trace: bool) -> Result<PointRunner, String> {
        let (plan, outputs) = plan(spec)?;
        // Verify up front on both paths so a hazardous program surfaces as
        // a structured failure instead of a worker panic mid-simulation.
        verify(&plan).map_err(|e| format!("static verification failed: {e}"))?;
        // The app's host check is dropped here: a job returns its words,
        // it does not judge them.
        let Prepared {
            mut machine,
            program,
            ..
        } = plan.load();
        if trace {
            machine.set_tracer(Tracer::recording(1 << 20));
        }
        Ok(PointRunner {
            machine,
            program,
            outputs,
            trace,
        })
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

/// [`Verifier::verify`] on what a plan's machine and program hold.
fn verify(plan: &Plan) -> Result<(), VerifyError> {
    let m = &plan.machine;
    Verifier::new().verify(m.config(), &m.verify_env(), &plan.program)
}

/// The plan of `spec` and where its outputs are read. Shared between
/// execution ([`PointRunner::new`]) and pre-admission analysis
/// ([`analyze_point`]) so the two can never drift apart.
fn plan(spec: &PointSpec) -> Result<(Plan, Vec<(String, OutputSel)>), String> {
    match &spec.app {
        AppRef::Named(name) => {
            let plan = plan_app(name, spec.config, spec.profile);
            let outputs = plan
                .outputs
                .iter()
                .map(|&(base, words)| (format!("mem@{base:#x}"), OutputSel::Mem(base, words)))
                .collect();
            Ok((plan, outputs))
        }
        AppRef::Source {
            src,
            records_per_lane,
            table_records_per_lane,
            seed,
        } => plan_source(src, *records_per_lane, *table_records_per_lane, *seed, spec),
    }
}

/// The source harness: one invocation of the kernel `src` over streams of
/// `records_per_lane` records (`table_records_per_lane` for indexed
/// tables); the load fills its inputs with words derived from `seed`.
fn plan_source(
    src: &str,
    records_per_lane: u32,
    table_records_per_lane: u32,
    seed: u32,
    spec: &PointSpec,
) -> Result<(Plan, Vec<(String, OutputSel)>), String> {
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
    let mut inputs = Vec::new();
    let mut outputs = Vec::new();
    for (i, decl) in kernel.streams.iter().enumerate() {
        let records = match decl.kind {
            StreamKind::IdxInRead | StreamKind::IdxCrossRead => table_records_per_lane * lanes,
            _ => rpl * lanes,
        };
        let b = machine.alloc_stream(1, records);
        if decl.kind.writes() {
            outputs.push((decl.name.clone(), OutputSel::Stream(b)));
        } else {
            machine.note_filled(&b);
            inputs.push((b, seed.wrapping_add(i as u32).wrapping_mul(0x9e37_79b9)));
        }
        bindings.push(b);
    }

    let mut program = StreamProgram::new();
    program.kernel(kernel, sched, bindings, u64::from(rpl), &[]);
    let load = move |m: &mut Machine| load_inputs(m, &inputs);
    Ok((Plan::new(machine, program, vec![], load, |_| {}), outputs))
}

/// The source harness's load stage: input stream `b` salted `salt` holds
/// `k * 2654435761 + salt` at word `k`.
fn load_inputs(m: &mut Machine, inputs: &[(StreamBinding, u32)]) {
    for (b, salt) in inputs {
        let data: Vec<Word> = (0..b.words())
            .map(|k| k.wrapping_mul(2654435761).wrapping_add(*salt))
            .collect();
        m.write_stream(b, &data);
    }
}

/// Statically analyze `spec` without simulating a cycle: plan the point a
/// worker would run — config, SRF allocation, program, `VerifyEnv`, but
/// no memory image, no input data and no setup program run — and hand it
/// to [`Verifier::verify`]. `Ok(())` means the point is admissible; `Err`
/// carries one [`Diagnostic::to_json`] object per finding. Build failures
/// (parse, lowering, scheduling) are reported as a single `E000`/`build`
/// [`Diagnostic`], so every rejection reaches the client in the same
/// structured shape.
///
/// This is the server's pre-admission gate (`POST /jobs` rejects with
/// `422` before anything is queued); workers still re-verify in
/// [`PointRunner::new`] as defense in depth.
///
/// # Errors
///
/// The structured diagnostics that make the point inadmissible.
pub fn analyze_point(spec: &PointSpec) -> Result<(), Vec<Json>> {
    let verdict = match plan(spec) {
        Ok((plan, _)) => verify(&plan),
        Err(message) => Err(VerifyError {
            diagnostics: vec![Diagnostic {
                code: "E000".into(),
                check: "build".into(),
                message,
                ..Diagnostic::default()
            }],
        }),
    };
    verdict.map_err(|e| e.diagnostics.iter().map(Diagnostic::to_json).collect())
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
        // The direct run through the same preparation path, as
        // `tests/golden/points.digest` commits it: full stats and words.
        let digest = isrf_check::points_digest();
        let direct = isrf_check::Columns::find(&digest, "sort ISRF4 Small");
        let mut enc = isrf_core::snap::Enc::new();
        out.stats.encode_state(&mut enc);
        let stats = format!("{:016x}", isrf_core::snap::fnv1a(&enc.into_bytes()));
        assert_eq!(stats, direct.get("stats"));
        let words = out.outputs.iter().flat_map(|(_, w)| w.iter().copied());
        assert_eq!(isrf_check::words_digest(words), direct.get("out"));
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

    /// A cold job keys the schedule memo and the tape memo on its kernel's
    /// hash, and both read the value the kernel stored when it was built:
    /// its content is walked once, where each memo used to walk it again.
    #[cfg(debug_assertions)]
    #[test]
    fn a_cold_job_walks_its_kernel_once() {
        use isrf_kernel::sched::schedule_cache_stats;
        use isrf_sim::tape_cache_stats;

        let spec = PointSpec {
            app: AppRef::Source {
                src: "kernel walked_once(istream<int> in, ostream<int> out) {\n\
                      int a, c;\n while (!eos(in)) { in >> a; c = a * 5 - 3; out << c; } }"
                    .into(),
                records_per_lane: 8,
                table_records_per_lane: 4,
                seed: 11,
            },
            config: ConfigName::Isrf1,
            profile: Profile::Small,
            engine: ExecEngine::Tape,
        };
        let looked_up = || {
            let [(sh, sm), (th, tm)] = [schedule_cache_stats(), tape_cache_stats()];
            (sh + sm, th + tm)
        };
        let before = looked_up();
        let mut r = PointRunner::new(&spec, false).unwrap();
        r.run(10_000, |_| true).unwrap();
        let after = looked_up();
        assert!(after.0 > before.0 && after.1 > before.1, "both memos keyed");
        let kernels = (0..r.program.len()).filter_map(|i| match r.program.node(i).0 {
            isrf_sim::ProgOp::Kernel { kernel, .. } => Some(kernel),
            _ => None,
        });
        let walks: Vec<u32> = kernels.map(|k| k.hash_walks()).collect();
        assert_eq!(walks, [1]);
    }

    fn inline(src: &str) -> PointSpec {
        PointSpec {
            app: AppRef::Source {
                src: src.into(),
                records_per_lane: 8,
                table_records_per_lane: 4,
                seed: 1,
            },
            config: ConfigName::Isrf4,
            profile: Profile::Small,
            engine: ExecEngine::Tape,
        }
    }

    /// Admission's answers, pinned to what they were when analysis still
    /// built every point's data: every named point admits, and a hazardous
    /// and an unparsable source come back as the same JSON, byte for byte.
    #[test]
    fn analyze_point_answers_as_it_did_before_plans() {
        for profile in [Profile::Small, Profile::Paper] {
            for app in isrf_apps::APPS {
                for config in ConfigName::ALL {
                    let spec = PointSpec {
                        app: AppRef::Named(app.into()),
                        config,
                        profile,
                        engine: ExecEngine::Tape,
                    };
                    assert_eq!(analyze_point(&spec), Ok(()), "{app}/{config}/{profile:?}");
                }
            }
        }
        let hazard = inline(
            "kernel hazard(istream<int> in, idxl_istream<int> T, ostream<int> out) {\n  \
             int x, t;\n  while (!eos(in)) {\n    in >> x;\n    T[100] >> t;\n    \
             out << x + t;\n  }\n}\n",
        );
        let json = |spec| Json::Arr(analyze_point(spec).unwrap_err()).render();
        assert_eq!(
            json(&hazard),
            r#"[{"code":"V303","check":"indexed","message":"index into stream `T` is provably out of bounds: value in [100, 100] but valid records are 0..=3","prog_op":0,"kernel":"hazard","line":5}]"#
        );
        assert_eq!(
            json(&inline("kernel oops(istream<int> in) { € }")),
            r#"[{"code":"E000","check":"build","message":"line 1: unexpected character `€`"}]"#
        );
        assert_eq!(
            PointRunner::new(&hazard, false).err().as_deref(),
            Some(
                "static verification failed: program failed verification with 1 finding(s):\n  \
                 V303 [indexed] program op 0 kernel `hazard` op 2 (line 5): index into stream \
                 `T` is provably out of bounds: value in [100, 100] but valid records are 0..=3\n"
            )
        );
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
