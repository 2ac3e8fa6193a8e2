//! Statically verify every application × configuration point.
//!
//! Usage: `verify [app|all] [config|all] [--paper] [--report FILE]
//! [--check FILE] [--cycles] [--explain CODE]`
//!
//! Builds each benchmark exactly as the harness would run it, then runs the
//! `isrf-verify` analyzer over the prepared program instead of simulating
//! it. Prints every diagnostic and exits non-zero if any point fails — the
//! CI gate proving all shipped programs are hazard-free on all four paper
//! configurations.
//!
//! Modes beyond the plain gate:
//!
//! * `--report FILE` — write the full analyzer report (diagnostics,
//!   warnings, static cycle floor) for every point as canonical JSON to
//!   `FILE` (`-` for stdout).
//! * `--check FILE` — regenerate the report and diff it against the
//!   committed golden `FILE`; exit non-zero on drift.
//! * `--cycles` — additionally *simulate* each point and check the static
//!   cycle floor is a true lower bound (and not uselessly loose: floor ≥
//!   `MIN_FLOOR_PCT`% of the simulated cycles).
//! * `--explain CODE` — print the rule behind a diagnostic code, then any
//!   findings with that code across the selected points, including the
//!   derived intervals and dataflow path notes.
//!
//! Apps: `fft2d rijndael sort filter igraph spmv stencil bfs`. Configs:
//! `base isrf1 isrf4 cache`.

use std::sync::Arc;

use isrf_apps::APPS;
use isrf_bench::{prepare_app, select_points, Profile};
use isrf_core::config::ConfigName;
use isrf_sim::Diagnostic;
use isrf_trace::json::Json;
use isrf_verify::{explain, Report, Verifier};

/// The static floor must recover at least this percentage of the simulated
/// cycle count on every app × config point (both profiles). Committed so
/// CI catches the model drifting uselessly loose, not just unsound.
const MIN_FLOOR_PCT: u64 = 10;

fn usage() -> ! {
    eprintln!(
        "usage: verify [app|all] [config|all] [--paper] [--report FILE] [--check FILE] \
         [--cycles] [--explain CODE]\n  apps: {}  all\n  \
         configs: base isrf1 isrf4 cache all",
        APPS.join(" ")
    );
    std::process::exit(2);
}

fn obj<const N: usize>(fields: [(&str, Json); N]) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// One analyzer point as a JSON object (keys in fixed order, streams
/// elided — the golden tracks program-level behavior).
fn point_json(app: &str, cfg: ConfigName, report: &Report) -> Json {
    let findings = |ds: &[Diagnostic]| Json::Arr(ds.iter().map(Diagnostic::to_json).collect());
    let c = &report.cost;
    let kernels = c.kernels.iter().map(|k| {
        obj([
            ("name", Json::str(k.name.as_str())),
            ("prog_op", Json::u64(k.prog_op as u64)),
            ("iters", Json::u64(k.iters)),
            ("ii", Json::u64(k.ii.into())),
            ("floor", Json::u64(k.floor)),
            ("schedule_floor", Json::u64(k.schedule_floor)),
            ("port_floor", Json::u64(k.port_floor)),
            (
                "inlane_pressure_pct",
                Json::u64(k.inlane_pressure_pct.into()),
            ),
            (
                "crosslane_pressure_pct",
                Json::u64(k.crosslane_pressure_pct.into()),
            ),
        ])
    });
    obj([
        ("app", Json::str(app)),
        ("config", Json::str(cfg.to_string())),
        ("diagnostics", findings(&report.diagnostics)),
        ("warnings", findings(&report.warnings)),
        ("cycle_floor", Json::u64(c.cycle_floor)),
        ("kernel_floor", Json::u64(c.kernel_floor)),
        ("mem_words", Json::u64(c.mem_words)),
        ("mem_floor", Json::u64(c.mem_floor)),
        ("kernels", Json::Arr(kernels.collect())),
    ])
}

struct Point {
    app: &'static str,
    cfg: ConfigName,
    report: Report,
}

fn analyze(points: &[(&'static str, ConfigName)], profile: Profile) -> Vec<Point> {
    let verifier = Verifier::new();
    points
        .iter()
        .map(|&(app, cfg)| {
            let pr = prepare_app(app, cfg, profile);
            let report =
                verifier.report(pr.machine.config(), &pr.machine.verify_env(), &pr.program);
            Point { app, cfg, report }
        })
        .collect()
}

/// The golden report: a hand-laid frame with one compactly rendered point
/// per line, so a drifted point is one line of a diff.
fn render_report(points: &[Point], profile: Profile) -> String {
    let profile = match profile {
        Profile::Small => "small",
        Profile::Paper => "paper",
    };
    let rows: Vec<String> = points
        .iter()
        .map(|p| format!("    {}", point_json(p.app, p.cfg, &p.report)))
        .collect();
    let mut s = String::from("{\n  \"profile\": ");
    Json::str(profile).render_into(&mut s);
    s.push_str(",\n  \"points\": [\n");
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ]\n}\n");
    s
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut report_to: Option<String> = None;
    let mut check_against: Option<String> = None;
    let mut cycles = false;
    let mut explain_code: Option<String> = None;
    let (points, profile) = select_points(&args, |flag, rest| {
        match flag {
            "--report" => report_to = Some(rest.next()?.clone()),
            "--check" => check_against = Some(rest.next()?.clone()),
            "--cycles" => cycles = true,
            "--explain" => explain_code = Some(rest.next()?.clone()),
            _ => return None,
        }
        Some(())
    })
    .unwrap_or_else(|| usage());

    if let Some(code) = &explain_code {
        let code = code.to_uppercase();
        match explain(&code) {
            Some(rule) => println!("{code}: {rule}\n"),
            None => {
                eprintln!("unknown diagnostic code `{code}`");
                std::process::exit(2);
            }
        }
        let mut hits = 0;
        for p in analyze(&points, profile) {
            for d in p.report.diagnostics.iter().chain(&p.report.warnings) {
                if d.code != code {
                    continue;
                }
                hits += 1;
                println!("{} on {}: {d}", p.app, p.cfg);
                for note in &d.notes {
                    println!("    note: {note}");
                }
            }
        }
        if hits == 0 {
            println!(
                "no {code} findings across {} point(s) — the rule above is the check",
                points.len()
            );
        }
        return;
    }

    if report_to.is_some() || check_against.is_some() {
        let points = analyze(&points, profile);
        let rendered = render_report(&points, profile);
        if let Some(path) = &report_to {
            if path == "-" {
                print!("{rendered}");
            } else {
                std::fs::write(path, &rendered).unwrap_or_else(|e| {
                    eprintln!("cannot write {path}: {e}");
                    std::process::exit(1);
                });
                println!(
                    "wrote analyzer report for {} point(s) to {path}",
                    points.len()
                );
            }
        }
        if let Some(path) = &check_against {
            let golden = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("cannot read golden report {path}: {e}");
                std::process::exit(1);
            });
            if golden != rendered {
                let first_diff = golden
                    .lines()
                    .zip(rendered.lines())
                    .position(|(a, b)| a != b)
                    .map(|i| i + 1)
                    .unwrap_or_else(|| golden.lines().count().min(rendered.lines().count()) + 1);
                eprintln!(
                    "analyzer report drifted from {path} (first differing line {first_diff}); \
                     regenerate with `verify --report {path}` and review the diff"
                );
                std::process::exit(1);
            }
            println!("analyzer report matches {path} ({} point(s))", points.len());
        }
        return;
    }

    let mut failures = 0;
    for &(app, cfg) in &points {
        let mut pr = prepare_app(app, cfg, profile);
        // Install the analyzer explicitly: a machine without one would
        // verify vacuously, and this gate must never pass vacuously.
        pr.machine.set_verifier(Some(Arc::new(Verifier::new())));
        match pr.machine.verify_program(&pr.program) {
            Ok(()) => {
                if !cycles {
                    println!("{app} on {cfg}: clean ({} program op(s))", pr.program.len());
                }
            }
            Err(e) => {
                failures += 1;
                println!("{app} on {cfg}: {} finding(s)", e.diagnostics.len());
                for d in &e.diagnostics {
                    println!("  {d}");
                }
                continue;
            }
        }
        if !cycles {
            continue;
        }
        // Cross-validate the static floor against the simulation.
        let floor = isrf_verify::cost_model(pr.machine.config(), &pr.program).cycle_floor;
        let sim = pr.machine.run(&pr.program).cycles;
        let pct = (floor * 100).checked_div(sim).unwrap_or(100);
        let ok = floor <= sim && pct >= MIN_FLOOR_PCT;
        println!(
            "{app} on {cfg}: floor {floor} <= simulated {sim} ({pct}%){}",
            if ok { "" } else { "  UNSOUND OR TOO LOOSE" }
        );
        if !ok {
            failures += 1;
        }
    }
    if failures > 0 {
        eprintln!("{failures} point(s) failed static verification");
        std::process::exit(1);
    }
}
