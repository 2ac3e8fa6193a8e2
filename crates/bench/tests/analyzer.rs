//! The static analyzer on every shipped app × config point, at both sizing
//! profiles: the `verify` binary's `--report`, driven as a user would, must
//! find no diagnostic and reproduce the committed golden
//! (`results/VERIFY_report{,_paper}.json`) byte for byte; and the static
//! cycle floor must be a sound and useful lower bound on simulation
//! (`-- --nocapture` prints each point's floor and simulated cycles). The
//! simulated cycles are the committed ones of `tests/golden/points.digest`,
//! so the floor tests prepare each point but run none.

use std::path::Path;
use std::process::Command;

use isrf_apps::{plan_app, Profile, APPS};
use isrf_check::{golden, points_digest, run_parallel, Columns};
use isrf_core::config::ConfigName;
use isrf_trace::json::Json;

/// The static floor must recover at least this percentage of the simulated
/// cycle count on every point, so a model drifting uselessly loose fails
/// here, not only an unsound one.
const MIN_FLOOR_PCT: u64 = 10;

fn report_matches_golden(args: &[&str], file: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_verify"))
        .args(["all", "all", "--report"])
        .args(args)
        .output()
        .expect("verify runs");
    assert!(out.status.success(), "verify exited with {}", out.status);
    let text = String::from_utf8(out.stdout).expect("verify prints UTF-8");
    let report = Json::parse(&text).expect("the report is JSON");
    let points = report.get("points").and_then(Json::as_arr);
    let points = points.expect("the report lists its points");
    assert_eq!(points.len(), APPS.len() * ConfigName::ALL.len());
    for p in points {
        let found = p.get("diagnostics").and_then(Json::as_arr);
        assert_eq!(found.map(<[Json]>::len), Some(0), "{}", p.render());
    }
    golden(
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../results")
            .join(file),
        &text,
    );
}

#[test]
fn report_matches_golden_small() {
    report_matches_golden(&[], "VERIFY_report.json");
}

#[test]
fn report_matches_golden_paper() {
    report_matches_golden(&["--paper"], "VERIFY_report_paper.json");
}

fn floor_is_sound_and_tight(profile: Profile) {
    let digest = points_digest();
    let points: Vec<(&str, ConfigName)> = APPS
        .iter()
        .chain(&["IG_SCL", "IG_DMS", "IG_DCS"])
        .flat_map(|&app| ConfigName::ALL.map(|cfg| (app, cfg)))
        .collect();
    let failed: Vec<String> = run_parallel(&points, |&(app, cfg)| {
        let pr = plan_app(app, cfg, profile);
        let floor = isrf_verify::cost_model(pr.machine.config(), &pr.program).cycle_floor;
        let sim = Columns::find(&digest, &format!("{app} {cfg} {profile:?}")).u64("cycles");
        let pct = (floor * 100).checked_div(sim).unwrap_or(100);
        println!("{app:<8} {cfg:<5} floor {floor:>8} of {sim:>8} simulated ({pct}%)");
        (floor > sim || pct < MIN_FLOOR_PCT)
            .then(|| format!("{app} on {cfg}: floor {floor}, simulated {sim}"))
    })
    .into_iter()
    .flatten()
    .collect();
    assert!(
        failed.is_empty(),
        "the static floor must lie in [{MIN_FLOOR_PCT}%, 100%] of the simulated cycles:\n{}",
        failed.join("\n")
    );
}

#[test]
fn static_floor_is_sound_and_tight_small() {
    floor_is_sound_and_tight(Profile::Small);
}

#[test]
fn static_floor_is_sound_and_tight_paper() {
    floor_is_sound_and_tight(Profile::Paper);
}
