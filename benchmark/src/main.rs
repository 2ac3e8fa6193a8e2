//! The repo's benchmark: four workloads over the whole job pipeline, with
//! named end-to-end and per-layer metrics (see `README.md` beside this
//! package and `BENCHMARK.json` at the repo root).
//!
//! ```text
//! isrf-benchmark --workload W --seed N --seconds S --trace 0|1
//! isrf-benchmark [--workload W] [--seed N] [--seconds S] [--traced] [--repeat K]
//! ```
//!
//! The first form, which `--trace` selects, is one run of one workload in
//! this process, as the driver calls it: it prints every metric by name
//! and, as its last line, the result object. The second form runs each
//! workload in a fresh child process (so peak RSS and the process-global
//! memos start clean), `K` times over, and prints per metric the minimum,
//! median, maximum and spread against its bound; with `--traced` every
//! workload also runs traced.

mod admit;
mod family;
mod metrics;
mod serve;
mod sim;
mod spans;
mod yardstick;

use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use isrf_core::config::ConfigName;
use isrf_serve::Json;

use metrics::{median, MetricDef, RunResult, END_TO_END, PER_LAYER, WORKLOADS};

/// The seed used when none is given. Claims are checked on
/// [`HELD_OUT_SEED`] as well, which no one tunes against.
pub const DEFAULT_SEED: u64 = 20040214;
pub const HELD_OUT_SEED: u64 = 19771030;
/// `run_seconds` of `BENCHMARK.json`.
pub const DEFAULT_SECONDS: u64 = 20;
/// Set-up is repeated and its median reported, so `setup_s` is steady.
pub const SETUP_ROUNDS: usize = 3;

/// What one run is asked to do.
pub struct Plan {
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    /// Shared time zero of every span recorder.
    pub epoch: Instant,
}

impl Plan {
    /// Units of fixed work for a run: `per_second` units for each second
    /// asked for, a quarter of that when traced. The work depends on
    /// nothing else, so the exact counters repeat from run to run.
    pub fn scale(&self, per_second: f64) -> u64 {
        let units = per_second * self.seconds as f64;
        (if self.traced { units / 4.0 } else { units }).round() as u64
    }
}

/// Hit ratio of a `(hits, misses)` memo between two readings.
pub fn hit_ratio(before: (u64, u64), after: (u64, u64)) -> f64 {
    let hits = after.0 - before.0;
    let misses = after.1 - before.1;
    hits as f64 / (hits + misses).max(1) as f64
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    /// `--trace 0|1`: one run in this process, traced or not.
    trace: Option<bool>,
    /// `--traced`: also run every workload traced.
    traced: bool,
    repeat: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: None,
        traced: false,
        repeat: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value("--workload")?;
                if !WORKLOADS.iter().any(|&(name, _)| name == w) {
                    return Err(format!("unknown workload {w}"));
                }
                args.workload = Some(w);
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s| (1..=60).contains(s))
                    .ok_or("--seconds must be a whole number from 1 to 60")?;
            }
            "--repeat" => {
                args.repeat = Some(
                    value("--repeat")?
                        .parse()
                        .ok()
                        .filter(|&k| k >= 1)
                        .ok_or("--repeat must be at least 1")?,
                );
            }
            "--trace" => {
                args.trace = Some(match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            "--traced" => args.traced = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn run_workload(name: &str, plan: &Plan) -> RunResult {
    let (mut result, recorders) = match name {
        "sim_seq" => one(sim::run([ConfigName::Base, ConfigName::Cache], plan)),
        "sim_idx" => one(sim::run([ConfigName::Isrf1, ConfigName::Isrf4], plan)),
        "admit_cold" => one(admit::run(plan)),
        "serve_mix" => serve::run(plan),
        other => unreachable!("workload {other} passed validation"),
    };
    if plan.traced {
        let threads: Vec<&[spans::Span]> = recorders.iter().map(|r| r.spans()).collect();
        let path = format!("benchmark/out/trace_{name}.json");
        let written = std::fs::create_dir_all("benchmark/out")
            .and_then(|()| std::fs::write(&path, spans::render_json(name, &threads)));
        match written {
            Ok(()) => println!("# spans written to {path}"),
            Err(e) => eprintln!("cannot write {path}: {e}"),
        }
    }
    let verified = result.attempted - result.failed;
    result.metrics.set(
        "verified_ratio",
        verified as f64 / result.attempted.max(1) as f64,
    );
    result
}

fn one((result, recorder): (RunResult, spans::Recorder)) -> (RunResult, Vec<spans::Recorder>) {
    (result, vec![recorder])
}

/// The metric values of one child run, from its result line.
struct ChildRun {
    correct: bool,
    values: Vec<(String, f64)>,
}

fn spawn_child(workload: &str, args: &Args, traced: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("{e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    let doc = Json::parse(line).map_err(|e| format!("{workload}: no result line ({e})"))?;
    let Some(Json::Obj(metrics)) = doc.get("metrics") else {
        return Err(format!("{workload}: result line has no metrics"));
    };
    Ok(ChildRun {
        correct: out.status.success() && doc.get("correct").and_then(Json::as_bool) == Some(true),
        values: metrics
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect(),
    })
}

/// What the runs of `list` read for metric `name`.
fn values_of(list: &[ChildRun], name: &str) -> Vec<f64> {
    list.iter()
        .filter_map(|r| r.values.iter().find(|(k, _)| k == name).map(|kv| kv.1))
        .collect()
}

/// Run every chosen workload `repeat` times in child processes and print
/// the summary. Returns whether every run was correct.
fn parent(args: &Args) -> Result<bool, String> {
    let repeat = args.repeat.unwrap_or(1);
    let workloads: Vec<&str> = WORKLOADS
        .iter()
        .map(|&(name, _)| name)
        .filter(|name| args.workload.as_deref().is_none_or(|w| w == *name))
        .collect();
    let mut all_correct = true;
    let mut json = vec![format!(
        "\"seed\": {}, \"seconds\": {}, \"repeat\": {repeat}",
        args.seed, args.seconds
    )];
    println!(
        "seed {}  seconds {}  repeat {repeat}  threads {}  (check claims on seed {HELD_OUT_SEED} too)",
        args.seed,
        args.seconds,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    for workload in workloads {
        let mut runs: Vec<(bool, Vec<ChildRun>)> = vec![(false, Vec::new())];
        if args.traced {
            runs.push((true, Vec::new()));
        }
        for rep in 0..repeat {
            for (traced, list) in &mut runs {
                eprintln!(
                    "{workload}: run {} of {repeat}, trace {}",
                    rep + 1,
                    *traced as u8
                );
                let run = spawn_child(workload, args, *traced)?;
                all_correct &= run.correct;
                list.push(run);
            }
        }
        println!("\n== {workload} ==");
        println!(
            "{:<40} {:>14} {:>14} {:>14} {:<10} spread/bound",
            "metric", "min", "median", "max", "unit"
        );
        let mut rows = Vec::new();
        for (traced, list) in &runs {
            let defs: &[MetricDef] = if *traced { &PER_LAYER } else { &END_TO_END };
            for d in defs {
                let v = values_of(list, d.name);
                let (min, max) = v
                    .iter()
                    .fold((f64::MAX, f64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
                let med = median(&v);
                // As the driver takes it: between the quartiles, once there
                // are runs enough to have quartiles; else the full range.
                let width = if v.len() >= 4 {
                    let (q1, q3) = metrics::quartiles(&v);
                    q3 - q1
                } else {
                    max - min
                };
                let spread = if med == 0.0 { 0.0 } else { width / med.abs() };
                let verdict = match d.bound {
                    // `setup_s` may spread; only its median is held to the bound.
                    Some(b) if spread > b && d.name != "setup_s" => {
                        format!("{spread:.4}/{b} FLAG: spread exceeds bound")
                    }
                    Some(b) => format!("{spread:.4}/{b}"),
                    None => format!("{spread:.4}"),
                };
                println!(
                    "{:<40} {min:>14.4} {med:>14.4} {max:>14.4} {:<10} {verdict}",
                    d.name, d.unit
                );
                rows.push(format!(
                    "\"{}\": {{\"unit\": \"{}\", \"min\": {}, \"median\": {}, \"max\": {}}}",
                    d.name,
                    d.unit,
                    metrics::json_number(min),
                    metrics::json_number(med),
                    metrics::json_number(max)
                ));
            }
        }
        if let [(_, plain), (_, traced)] = runs.as_slice() {
            let rate = |list: &[ChildRun], name: &str| median(&values_of(list, name));
            let overhead =
                100.0 * (1.0 - rate(traced, "bench.traced_jobs_per_s") / rate(plain, "jobs_per_s"));
            println!("{:<40} {overhead:>44.4} %", "trace_overhead_pct");
            rows.push(format!(
                "\"trace_overhead_pct\": {{\"unit\": \"%\", \"median\": {}}}",
                metrics::json_number(overhead)
            ));
        }
        json.push(format!("\"{workload}\": {{{}}}", rows.join(", ")));
    }
    let path = "benchmark/out/results.json";
    std::fs::create_dir_all("benchmark/out")
        .and_then(|()| std::fs::write(path, format!("{{{}}}\n", json.join(", "))))
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    println!("\nwritten to {path}");
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("isrf-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let ok = match (args.trace, &args.workload, args.repeat, args.traced) {
        (Some(traced), Some(workload), None, false) => {
            let plan = Plan {
                seed: args.seed,
                seconds: args.seconds,
                traced,
                epoch: Instant::now(),
            };
            let result = run_workload(workload, &plan);
            print!("{}", result.table(traced));
            println!("{}", result.result_line(traced));
            result.failed == 0
        }
        (Some(_), ..) => {
            eprintln!(
                "isrf-benchmark: --trace 0|1 runs one workload once; give --workload and neither \
                 --repeat nor --traced"
            );
            return ExitCode::from(2);
        }
        (None, ..) => match parent(&args) {
            Ok(ok) => ok,
            Err(e) => {
                eprintln!("isrf-benchmark: {e}");
                false
            }
        },
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
