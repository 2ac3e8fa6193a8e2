//! Statically verify every application × configuration point.
//!
//! Usage: `verify [app|all] [config|all] [--paper] [--report]
//! [--explain CODE]`
//!
//! Plans each benchmark exactly as the harness would run it
//! (`isrf_apps::plan_app`: no data loaded), then runs the `isrf-verify`
//! analyzer over the planned program instead of simulating it. Prints
//! every diagnostic and exits non-zero if any point has one.
//!
//! * `--report` — print the full analyzer report (diagnostics, warnings,
//!   static cycle floor) for every point as canonical JSON. At both
//!   profiles it is committed as `results/VERIFY_report{,_paper}.json` and
//!   held there by `crates/bench/tests/analyzer.rs`.
//! * `--explain CODE` — print the rule behind a diagnostic code, then any
//!   findings with that code across the selected points, including the
//!   derived intervals and dataflow path notes.
//!
//! Apps: `fft2d rijndael sort filter igraph spmv stencil bfs`. Configs:
//! `base isrf1 isrf4 cache`.

use isrf_apps::{plan_app, APPS};
use isrf_bench::{select_points, Profile};
use isrf_core::config::ConfigName;
use isrf_trace::json::Json;
use isrf_verify::{explain, Diagnostic, Report, Verifier};

fn usage() -> ! {
    eprintln!(
        "usage: verify [app|all] [config|all] [--paper] [--report] [--explain CODE]\n  \
         apps: {}  all\n  configs: base isrf1 isrf4 cache all",
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
    ops: usize,
    report: Report,
}

fn analyze(points: &[(&'static str, ConfigName)], profile: Profile) -> Vec<Point> {
    let verifier = Verifier::new();
    points
        .iter()
        .map(|&(app, cfg)| {
            let pr = plan_app(app, cfg, profile);
            let report =
                verifier.report(pr.machine.config(), &pr.machine.verify_env(), &pr.program);
            Point {
                app,
                cfg,
                ops: pr.program.len(),
                report,
            }
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
    let mut report = false;
    let mut explain_code: Option<String> = None;
    let (points, profile) = select_points(&args, |flag, rest| {
        match flag {
            "--report" => report = true,
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

    if report {
        print!("{}", render_report(&analyze(&points, profile), profile));
        return;
    }

    let mut failures = 0;
    for p in analyze(&points, profile) {
        let found = &p.report.diagnostics;
        if found.is_empty() {
            println!("{} on {}: clean ({} program op(s))", p.app, p.cfg, p.ops);
            continue;
        }
        failures += 1;
        println!("{} on {}: {} finding(s)", p.app, p.cfg, found.len());
        for d in found {
            println!("  {d}");
        }
    }
    if failures > 0 {
        eprintln!("{failures} point(s) failed static verification");
        std::process::exit(1);
    }
}
