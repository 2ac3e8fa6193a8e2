//! `admit_cold`: time to verdict — everything before the first simulated
//! cycle.
//!
//! Two classes of job, each sized to about half of the wall time:
//!
//! * a source of the seeded family through `PointRunner::new` and an
//!   eight-records-per-lane `run`, rotating over the four presets. Every
//!   source is new to the process, so parsing, lowering, modulo scheduling,
//!   tape compilation and verification all run and no memo hits. Indexed
//!   sources on Base and Cache must be refused with V301; every other
//!   output word is checked against the family's native evaluator.
//! * a Paper-size named point through `analyze_point`: preparation plus
//!   whole-program verification, no simulation.
//!
//! A pass is every family shape on every preset, [`FAMILY_SWEEPS`] times
//! over, plus every named point, in a seeded order with seeded constants: every
//! pass does the same work on sources no earlier pass has shown the memos.

use isrf_apps::{prepare_app, Profile, APPS};
use isrf_core::config::{ConfigName, MachineConfig};
use isrf_core::stats::RunStats;
use isrf_kernel::sched::{schedule, schedule_cache_stats, SchedParams};
use isrf_serve::{analyze_point, AppRef, PointRunner, PointSpec};
use isrf_sim::{cached_tape, tape_cache_stats, ExecEngine};
use isrf_verify::Verifier;

use crate::family::{generate, Rng, Source, LANES, SHAPES};
use crate::metrics::{median, tail, Metrics, RunResult};
use crate::spans::{self, Recorder, JOB};
use crate::yardstick::{slowdown, PassTimes, Yardstick};
use crate::{hit_ratio, Plan, SETUP_ROUNDS};

/// Passes per second of `--seconds` at the commit the benchmark was sized
/// on (a pass took 0.62 s there).
fn passes(plan: &Plan) -> u64 {
    plan.scale(1.6).max(3)
}

/// Family sources per shape and preset in a pass: enough that the family
/// carries about two fifths of a pass's time and the named points the rest.
const FAMILY_SWEEPS: u64 = 5;

/// A yardstick burst goes before every so many jobs: some thirty a pass.
const JOBS_PER_BURST: usize = 16;

/// Rng sub-streams: constants of the jobs' sources, of the probes' sibling
/// sources, and the order of a pass.
const JOBS: u64 = 1 << 32;
const SIBLINGS: u64 = 2 << 32;
const ORDER: u64 = 3 << 32;

enum Item {
    Family { source: Source, config: ConfigName },
    Named { spec: PointSpec },
}

/// The items of pass `pass`, in order, each with its slot: its place in the
/// pass before shuffling, which names the same shape and preset, or the
/// same named point, in every pass.
fn items(seed: u64, pass: u64) -> Vec<(usize, Item)> {
    let mut items = Vec::new();
    let mut slot = 0;
    for _ in 0..FAMILY_SWEEPS {
        for shape in SHAPES {
            for config in ConfigName::ALL {
                let id = pass * 1000 + slot;
                let source = generate(shape, id, slot as u32, &mut Rng::new(seed, JOBS + id));
                items.push(Item::Family { source, config });
                slot += 1;
            }
        }
    }
    for app in APPS {
        for config in ConfigName::ALL {
            items.push(Item::Named {
                spec: PointSpec {
                    app: AppRef::Named(app.to_string()),
                    config,
                    profile: Profile::Paper,
                    engine: ExecEngine::Tape,
                },
            });
        }
    }
    let mut items: Vec<(usize, Item)> = items.into_iter().enumerate().collect();
    Rng::new(seed, ORDER + pass).shuffle(&mut items);
    items
}

/// Set-up: put every named point through `Verifier::report` directly. That is the
/// oracle of the named jobs (each must come out clean, so `analyze_point`
/// must admit it), it leaves the apps' own kernels scheduled, and its cost
/// model says how many bytes the analyzed programs move off chip.
fn setup(rec: &mut Recorder, yard: &mut Yardstick, res: &mut RunResult) -> u64 {
    let mut static_bytes = 0;
    for app in APPS {
        for config in ConfigName::ALL {
            yard.burst(rec);
            let (pr, _) = rec.span("isrf-apps.prepare_app", |_| {
                prepare_app(app, config, Profile::Paper)
            });
            let (report, _) = rec.span("isrf-verify.report", |_| {
                Verifier::new().report(pr.machine.config(), &pr.machine.verify_env(), &pr.program)
            });
            res.check(report.diagnostics.is_empty(), || {
                format!(
                    "{app}/{config}: the verifier finds {:?}",
                    report.diagnostics
                )
            });
            static_bytes += 4 * report.cost.mem_words;
        }
    }
    static_bytes
}

/// One family job: build the point, run it if it may run, diff the output
/// words. `Ok(None)` is an indexed source correctly refused on a machine
/// without an indexed SRF; `Ok(Some(..))` the stats of a correct run and the
/// host nanoseconds inside `PointRunner::run`.
fn family_job(
    source: &Source,
    config: ConfigName,
    rec: &mut Recorder,
) -> Result<Option<(RunStats, u64)>, String> {
    let what = || format!("{:?} on {config}", source.shape);
    let spec = source.point(config);
    let (runner, _) = rec.span("isrf-serve.runner_new", |_| PointRunner::new(&spec, false));
    let refuse = source.shape.indexed() && !MachineConfig::preset(config).has_indexed_srf();
    match runner {
        Err(e) if refuse && e.contains("V301") => Ok(None),
        Err(e) => Err(format!("{}: refused with {e}", what())),
        Ok(_) if refuse => Err(format!("{}: admitted an indexed kernel", what())),
        Ok(mut runner) => {
            let (out, ns) = rec.span("isrf-serve.runner_run", |_| {
                runner
                    .run(1 << 20, |_| true)
                    .expect("nothing pauses the run")
            });
            let (same, _) = rec.span("bench.diff", |_| {
                out.outputs.len() == 1 && out.outputs[0].1 == source.expect
            });
            if same {
                Ok(Some((out.stats, ns)))
            } else {
                Err(format!(
                    "{}: output differs from the native evaluator",
                    what()
                ))
            }
        }
    }
}

pub fn run(plan: &Plan) -> (RunResult, Recorder) {
    let mut res = RunResult::default();
    let mut rec = Recorder::new(plan.traced, plan.epoch);
    let mut yard = Yardstick::new();
    let n_passes = passes(plan);

    let mut setups = Vec::new();
    let mut static_bytes = 0;
    for _ in 0..SETUP_ROUNDS {
        let (bytes, ns) = rec.span("setup", |rec| setup(rec, &mut yard, &mut res));
        static_bytes = bytes;
        setups.push(ns as f64 / 1e9 / slowdown(&yard.take_bursts()));
    }

    let (sched0, tape0) = (schedule_cache_stats(), tape_cache_stats());
    let mut times = PassTimes::default();
    let mut pass_cycles = Vec::new();
    let mut ran = Vec::new();
    let mut probes = Probes::default();
    let mut job = 0;
    for pass in 0..n_passes {
        // Generated pass by pass, outside the timed window, so the sources
        // of a whole run never sit in memory beside the memos they fill.
        let items = &items(plan.seed, pass);
        let (mut cycles, mut in_run_ns, mut jobs_ns) = (0u64, 0u64, 0u64);
        for (n, (_, item)) in items.iter().enumerate() {
            if n % JOBS_PER_BURST == 0 {
                yard.burst(&mut rec);
            }
            job += 1;
            rec.set_job(job);
            let (outcome, wall) = rec.span(JOB, |rec| match item {
                Item::Family { source, config } => family_job(source, *config, rec),
                Item::Named { spec } => rec
                    .span("isrf-serve.analyze_point", |_| analyze_point(spec))
                    .0
                    .map(|()| None)
                    .map_err(|diags| format!("{:?} on {}: {diags:?}", spec.app, spec.config)),
            });
            rec.set_job(0);
            res.check(outcome.is_ok(), || outcome.clone().unwrap_err());
            if let Ok(Some((stats, ns))) = outcome {
                cycles += stats.cycles;
                in_run_ns += ns;
                ran.push(stats);
            }
            jobs_ns += wall;
            times.job(wall as f64 / 1e6);
        }
        times.close_pass(
            &yard.take_bursts(),
            jobs_ns as f64 / 1e9,
            cycles,
            in_run_ns as f64 / 1e9,
        );
        pass_cycles.push(cycles);
        if plan.traced {
            probes.run(plan, pass, items, &mut rec);
        }
    }
    let (sched1, tape1) = (schedule_cache_stats(), tape_cache_stats());
    // The shapes, not the constants, decide what a pass simulates.
    res.check(pass_cycles.windows(2).all(|w| w[0] == w[1]), || {
        format!("passes simulate different cycle counts: {pass_cycles:?}")
    });

    let simulated_bytes: u64 = ran
        .iter()
        .map(|s| s.mem.bytes_read + s.mem.bytes_written)
        .sum();
    let m = &mut res.metrics;
    res.notes.extend(times.report(&setups, m));
    m.set("sim_cycles", pass_cycles[0] as f64);
    // The family's streams live in the SRF, so the simulated jobs move
    // nothing off chip; the named jobs are analyzed, not simulated, and
    // what they move is the verifier's static count.
    m.set(
        "offchip_bytes",
        (static_bytes + simulated_bytes / n_passes) as f64,
    );
    res.notes
        .push("offchip_bytes is the verifier's static count".into());

    m.set_sim_counters(ran.iter(), n_passes);
    m.set(
        "isrf-kernel.sched_cache_hit_ratio",
        hit_ratio(sched0, sched1),
    );
    m.set("isrf-sim.tape_cache_hit_ratio", hit_ratio(tape0, tape1));
    if plan.traced {
        let us_p50 =
            |rec: &Recorder, name: &str| median(&spans::durations(rec.spans(), name)) / 1e3;
        m.set(
            "isrf-sim.run_share",
            spans::share_of_jobs(rec.spans(), "isrf-serve.runner_run"),
        );
        m.set("bench.layer_coverage", spans::layer_coverage(rec.spans()));
        m.set("bench.traced_jobs_per_s", times.jobs_per_s());
        m.set(
            "isrf-serve.analyze_us_p50",
            us_p50(&rec, "isrf-serve.analyze_point"),
        );
        m.set(
            "isrf-serve.runner_new_us_p50",
            us_p50(&rec, "isrf-serve.runner_new"),
        );
        m.set(
            "isrf-serve.runner_run_us_p50",
            us_p50(&rec, "isrf-serve.runner_run"),
        );
        probes.report(m);
    }
    (res, rec)
}

/// Traced run only: the front-end layers one by one. `PointRunner::new`
/// hides them behind one call, so each is timed through its own public
/// function on a *sibling* of every job's source — same shape, other
/// constants — which leaves the jobs' memo entries alone.
#[derive(Default)]
struct Probes {
    parse_us: Vec<f64>,
    sched_us: Vec<f64>,
    tape_us: Vec<f64>,
    report_us: Vec<f64>,
    prepare_us: Vec<f64>,
    ops: u64,
    ii_sum: u64,
    mismatches: u64,
}

impl Probes {
    fn run(&mut self, plan: &Plan, pass: u64, items: &[(usize, Item)], rec: &mut Recorder) {
        rec.span("probes", |rec| {
            for (n, item) in items {
                match item {
                    Item::Family { source, config } => {
                        let id = pass * 1000 + *n as u64;
                        let sibling = generate(
                            source.shape,
                            id,
                            source.data_seed,
                            &mut Rng::new(plan.seed, SIBLINGS + id),
                        );
                        let (kernel, ns) = rec.span("isrf-lang.parse_kernel", |_| {
                            isrf_lang::parse_kernel(&sibling.src).expect("family sources parse")
                        });
                        self.parse_us.push(ns as f64 / 1e3);
                        let params = SchedParams::from_machine(&MachineConfig::preset(*config));
                        let (sched, ns) = rec.span("isrf-kernel.schedule", |_| {
                            schedule(&kernel, &params).expect("family kernels schedule")
                        });
                        self.sched_us.push(ns as f64 / 1e3);
                        self.ops += kernel.ops.len() as u64;
                        self.ii_sum += u64::from(sched.ii);
                        let (tape, ns) = rec.span("isrf-sim.cached_tape", |_| {
                            cached_tape(&kernel, &sched, LANES as usize)
                        });
                        std::hint::black_box(tape);
                        self.tape_us.push(ns as f64 / 1e3);
                    }
                    Item::Named { spec } => {
                        let AppRef::Named(app) = &spec.app else {
                            unreachable!("named items name an app");
                        };
                        let (pr, ns) = rec.span("isrf-apps.prepare_app", |_| {
                            prepare_app(app, spec.config, spec.profile)
                        });
                        self.prepare_us.push(ns as f64 / 1e3);
                        let (report, ns) = rec.span("isrf-verify.report", |_| {
                            Verifier::new().report(
                                pr.machine.config(),
                                &pr.machine.verify_env(),
                                &pr.program,
                            )
                        });
                        self.report_us.push(ns as f64 / 1e3);
                        self.mismatches += u64::from(!report.diagnostics.is_empty());
                    }
                }
            }
        });
    }

    fn report(&self, m: &mut Metrics) {
        m.set("isrf-lang.parse_us_p50", median(&self.parse_us));
        m.set("isrf-kernel.schedule_us_p50", median(&self.sched_us));
        m.set(
            "isrf-kernel.schedule_us_per_op",
            self.sched_us.iter().sum::<f64>() / self.ops as f64,
        );
        m.set("isrf-kernel.ii_sum", self.ii_sum as f64);
        m.set("isrf-sim.tape_compile_us_p50", median(&self.tape_us));
        m.set("isrf-apps.prepare_us_p50", median(&self.prepare_us));
        m.set("isrf-verify.report_us_p50", median(&self.report_us));
        m.set("isrf-verify.report_us_p99", tail(&self.report_us).0);
        m.set("isrf-verify.verdict_mismatch", self.mismatches as f64);
    }
}
