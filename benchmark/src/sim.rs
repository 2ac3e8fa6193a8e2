//! `sim_seq` and `sim_idx`: the eight Paper-size apps on two machine
//! configurations each, pass after pass.
//!
//! A job is `prepare_app` → `Machine::run` → output readback → word diff
//! against what the set-up's `run_differential` (machine against
//! `RefMachine`, word for word) left in memory. `sim_seq` runs Base and
//! Cache, where no indexed access exists; `sim_idx` runs ISRF1 and ISRF4,
//! where the address FIFOs, the arbiter and the cross-lane network carry
//! the kernels. A pass is every point once, in a seeded order, so every
//! pass simulates the same cycles.

use isrf_apps::{prepare_app, Profile, APPS};
use isrf_check::{run_differential, RefMachine};
use isrf_core::config::ConfigName;
use isrf_core::stats::RunStats;
use isrf_core::Word;
use isrf_kernel::sched::schedule_cache_stats;
use isrf_sim::tape_cache_stats;
use isrf_trace::{chrome, Tracer};
use isrf_verify::Verifier;

use crate::family::Rng;
use crate::metrics::{median, tail, RunResult};
use crate::spans::{self, Recorder, JOB};
use crate::yardstick::{slowdown, PassTimes, Yardstick};
use crate::{hit_ratio, Plan, SETUP_ROUNDS};

/// Passes per second of `--seconds` at the commit the benchmark was sized
/// on (a `sim_seq` pass took 0.63 s there, a `sim_idx` pass 1.1 s).
fn passes(indexed: bool, plan: &Plan) -> u64 {
    let per_second = if indexed { 0.9 } else { 1.6 };
    plan.scale(per_second).max(3)
}

/// One point and what a correct run of it produces.
struct Point {
    app: &'static str,
    config: ConfigName,
    stats: RunStats,
    outputs: Vec<Vec<Word>>,
}

fn read_outputs(pr: &isrf_apps::common::Prepared) -> Vec<Vec<Word>> {
    pr.outputs
        .iter()
        .map(|&(base, words)| pr.machine.mem().memory().read_block(base, words as usize))
        .collect()
}

/// The oracle pass: every point through `run_differential`.
fn oracle(
    configs: [ConfigName; 2],
    rec: &mut Recorder,
    yard: &mut Yardstick,
    res: &mut RunResult,
) -> Vec<Point> {
    let mut points = Vec::new();
    for app in APPS {
        for config in configs {
            yard.burst(rec);
            let (mut pr, _) = rec.span("isrf-apps.prepare_app", |_| {
                prepare_app(app, config, Profile::Paper)
            });
            let (diff, _) = rec.span("isrf-check.run_differential", |_| {
                run_differential(&mut pr.machine, &pr.program, &pr.outputs)
            });
            let stats = match diff {
                Ok(outcome) => outcome.stats,
                Err(e) => {
                    res.check(false, || {
                        format!("{app}/{config} diverges from RefMachine: {e}")
                    });
                    continue;
                }
            };
            res.check(true, String::new);
            points.push(Point {
                app,
                config,
                stats,
                outputs: read_outputs(&pr),
            });
        }
    }
    points
}

pub fn run(configs: [ConfigName; 2], plan: &Plan) -> (RunResult, Recorder) {
    let indexed = configs.contains(&ConfigName::Isrf1);
    let mut res = RunResult::default();
    let mut rec = Recorder::new(plan.traced, plan.epoch);
    let mut yard = Yardstick::new();

    let mut setups = Vec::new();
    let mut points = Vec::new();
    let mut prepare_cold_ms = 0.0;
    for round in 0..SETUP_ROUNDS {
        let before = rec.spans().len();
        let (p, ns) = rec.span("setup", |rec| oracle(configs, rec, &mut yard, &mut res));
        if round == 0 {
            // The process's first prepare of each point: schedules and
            // tapes are compiled here and memoized for the rest of the run.
            prepare_cold_ms = spans::durations(&rec.spans()[before..], "isrf-apps.prepare_app")
                .iter()
                .sum::<f64>()
                / 1e6;
        }
        points = p;
        setups.push(ns as f64 / 1e9 / slowdown(&yard.take_bursts()));
    }
    let divergences = res.failed;

    let measured_from = rec.spans().len();
    let (sched0, tape0) = (schedule_cache_stats(), tape_cache_stats());
    let n_passes = passes(indexed, plan);
    let mut times = PassTimes::default();
    // Host nanoseconds inside `Machine::run`, per point, one sample a pass.
    let mut run_ns: Vec<Vec<f64>> = vec![Vec::new(); points.len()];
    let mut job = 0;
    for pass in 0..n_passes {
        let mut order: Vec<usize> = (0..points.len()).collect();
        Rng::new(plan.seed, pass).shuffle(&mut order);
        let (mut cycles, mut in_run_ns, mut jobs_ns) = (0u64, 0u64, 0u64);
        for i in order {
            let p = &points[i];
            yard.burst(&mut rec);
            job += 1;
            rec.set_job(job);
            let ((ok, ns), wall) = rec.span(JOB, |rec| {
                let (mut pr, _) = rec.span("isrf-apps.prepare_app", |_| {
                    prepare_app(p.app, p.config, Profile::Paper)
                });
                let (stats, ns) = rec.span("isrf-sim.run", |_| pr.machine.run(&pr.program));
                let (outputs, _) = rec.span("isrf-sim.readback", |_| read_outputs(&pr));
                let (ok, _) = rec.span("bench.diff", |_| stats == p.stats && outputs == p.outputs);
                (ok, ns)
            });
            rec.set_job(0);
            res.check(ok, || {
                format!("{}/{} differs from the oracle run", p.app, p.config)
            });
            cycles += p.stats.cycles;
            in_run_ns += ns;
            jobs_ns += wall;
            run_ns[i].push(ns as f64);
            times.job(wall as f64 / 1e6);
        }
        times.close_pass(
            &yard.take_bursts(),
            jobs_ns as f64 / 1e9,
            cycles,
            in_run_ns as f64 / 1e9,
        );
    }
    let (sched1, tape1) = (schedule_cache_stats(), tape_cache_stats());

    let sum = |f: fn(&RunStats) -> u64| points.iter().map(|p| f(&p.stats)).sum::<u64>() as f64;
    let m = &mut res.metrics;
    res.notes.extend(times.report(&setups, m));
    m.set("sim_cycles", sum(|s| s.cycles));
    m.set(
        "offchip_bytes",
        sum(|s| s.mem.bytes_read + s.mem.bytes_written),
    );
    for config in configs {
        let of_config = |f: &dyn Fn(usize) -> f64| -> f64 {
            (0..points.len())
                .filter(|&i| points[i].config == config)
                .map(f)
                .sum()
        };
        let ns = of_config(&|i| median(&run_ns[i]));
        let cycles = of_config(&|i| points[i].stats.cycles as f64);
        m.set(&format!("isrf-sim.run_ns_per_cycle.{config}"), ns / cycles);
    }
    m.set_sim_counters(points.iter().map(|p| &p.stats), 1);
    m.set(
        "isrf-kernel.sched_cache_hit_ratio",
        hit_ratio(sched0, sched1),
    );
    m.set("isrf-sim.tape_cache_hit_ratio", hit_ratio(tape0, tape1));
    m.set("isrf-apps.prepare_cold_ms", prepare_cold_ms);
    m.set("isrf-check.divergences", divergences as f64);
    if plan.traced {
        let prepares = spans::durations(&rec.spans()[measured_from..], "isrf-apps.prepare_app");
        m.set("isrf-apps.prepare_us_p50", median(&prepares) / 1e3);
        m.set(
            "isrf-sim.run_share",
            spans::share_of_jobs(rec.spans(), "isrf-sim.run"),
        );
        m.set("bench.layer_coverage", spans::layer_coverage(rec.spans()));
        m.set("bench.traced_jobs_per_s", times.jobs_per_s());
        probes(&points, &run_ns, &mut rec, &mut res);
    }
    (res, rec)
}

/// Traced run only: the layers a job does not call, timed one by one
/// through their public functions on every point.
fn probes(points: &[Point], run_ns: &[Vec<f64>], rec: &mut Recorder, res: &mut RunResult) {
    let mut report_us = Vec::new();
    let (mut floor, mut cycles, mut mismatches) = (0u64, 0u64, 0u64);
    let (mut ref_ns, mut traced_ns, mut untraced_ns) = (0u64, 0u64, 0.0);
    let (mut events, mut exported, mut export_ns) = (0u64, 0u64, 0u64);
    rec.span("probes", |rec| {
        for (p, untraced) in points.iter().zip(run_ns) {
            let mut pr = prepare_app(p.app, p.config, Profile::Paper);
            let (report, ns) = rec.span("isrf-verify.report", |_| {
                Verifier::new().report(pr.machine.config(), &pr.machine.verify_env(), &pr.program)
            });
            report_us.push(ns as f64 / 1e3);
            floor += report.cost.cycle_floor;
            cycles += p.stats.cycles;
            // Every shipped program is clean, and the static floor is sound.
            if !report.diagnostics.is_empty() || report.cost.cycle_floor > p.stats.cycles {
                mismatches += 1;
            }

            let ((), ns) = rec.span("isrf-check.ref_run", |_| {
                RefMachine::from_machine(&pr.machine).run(&pr.program);
            });
            ref_ns += ns;

            pr.machine.set_tracer(Tracer::recording(1 << 20));
            let (stats, ns) = rec.span("isrf-sim.run_traced", |_| pr.machine.run(&pr.program));
            res.check(stats == p.stats, || {
                format!("{}/{} changes under a recording tracer", p.app, p.config)
            });
            traced_ns += ns;
            untraced_ns += median(untraced);
            let recorder = pr
                .machine
                .take_tracer()
                .into_recorder()
                .expect("recording tracer was installed");
            let ring = recorder.ring();
            events += ring.len() as u64 + ring.dropped();
            let (json, ns) = rec.span("isrf-trace.export", |_| chrome::export(ring.iter()));
            std::hint::black_box(json);
            exported += ring.len() as u64;
            export_ns += ns;
        }
    });
    let m = &mut res.metrics;
    m.set("isrf-verify.report_us_p50", median(&report_us));
    m.set("isrf-verify.report_us_p99", tail(&report_us).0);
    m.set("isrf-verify.verdict_mismatch", mismatches as f64);
    m.set(
        "isrf-verify.floor_recovery_pct",
        100.0 * floor as f64 / cycles as f64,
    );
    m.set("isrf-check.ref_ns_per_cycle", ref_ns as f64 / cycles as f64);
    m.set(
        "isrf-trace.record_overhead_pct",
        100.0 * (traced_ns as f64 / untraced_ns - 1.0),
    );
    m.set("isrf-trace.events", events as f64);
    m.set(
        "isrf-trace.export_ms_per_mevent",
        export_ns as f64 / exported as f64,
    );
}
