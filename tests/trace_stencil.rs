//! Golden Chrome-trace test for the smallest 5-point stencil pass on the
//! indexed configuration: the exporter output is byte-identical to the
//! checked-in golden file, the span structure reflects the halo-block
//! load / kernel / strided-store pipeline, and the Figure-12 cycle
//! attribution reconstructed from the event stream matches the machine's
//! reported breakdown.
//!
//! Regenerate the golden file after an intentional exporter or simulator
//! change with `UPDATE_GOLDEN=1 cargo test --test trace_stencil`.

use isrf::core::config::ConfigName;
use isrf::core::stats::RunStats;
use isrf::trace::json::Json;
use isrf::trace::{chrome, Recorder, Tracer};
use isrf_apps::stencil::{self, StencilParams, COLS, STRIP_ROWS};

/// One 5-point strip (32×64 grid) on ISRF4 under a recording tracer.
fn traced_stencil() -> (Recorder, RunStats) {
    let params = StencilParams {
        rows: STRIP_ROWS,
        ..StencilParams::default()
    };
    let mut pr = stencil::prepare_pass(&ConfigName::Isrf4.into(), &params, 5);
    pr.machine.set_tracer(Tracer::recording(1 << 18));
    let stats = pr.machine.run(&pr.program);
    let rec = pr
        .machine
        .take_tracer()
        .into_recorder()
        .expect("recording tracer");
    (rec, stats)
}

fn export(rec: &Recorder) -> String {
    let events: Vec<_> = rec.ring().iter().cloned().collect();
    chrome::export(&events)
}

#[test]
fn stencil5_chrome_export_matches_golden_file() {
    let (rec, _stats) = traced_stencil();
    let got = export(&rec);
    Json::parse(&got).expect("exporter emits valid JSON");
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/stencil5_isrf4.trace.json"
    );
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(path)
        .expect("golden file exists (regenerate with UPDATE_GOLDEN=1)");
    assert_eq!(got, want, "trace output drifted from the golden file");
}

#[test]
fn stencil5_trace_structure_and_audit() {
    let (rec, stats) = traced_stencil();
    let out = export(&rec);

    // Timestamps are monotone.
    let ts: Vec<i64> = out
        .lines()
        .filter_map(|l| {
            let i = l.find("\"ts\":")?;
            let rest = &l[i + 5..];
            let end = rest.find([',', '}']).unwrap_or(rest.len());
            rest[..end].trim().parse().ok()
        })
        .collect();
    assert!(!ts.is_empty());
    assert!(ts.windows(2).all(|w| w[0] <= w[1]), "ts monotone");

    // One strip = one kernel span, one halo-block load (8 lane blocks of
    // 6 rows × 64 cols), one strip store (32 rows × 64 cols).
    assert_eq!(
        out.matches("\"name\":\"stencil5_isrf\"").count(),
        1,
        "exactly one kernel span"
    );
    assert_eq!(out.matches("\"load 3072w").count(), 1);
    let store_words = STRIP_ROWS * COLS;
    assert_eq!(out.matches(&format!("\"store {store_words}w")).count(), 1);
    assert!(out.contains("\"process_name\""), "metadata emitted");

    // The event-stream audit reconstructs the machine's Figure-12 cycle
    // breakdown exactly.
    let mismatches = rec.audit().verify(&stats.breakdown);
    assert!(mismatches.is_empty(), "audit mismatches: {mismatches:?}");
}
