//! Snapshot/resume check: pause a benchmark run mid-flight at cycle
//! granularity, serialize the complete machine state, restore it into a
//! *fresh* machine, resume, and require the stitched run to be
//! byte-identical to an uninterrupted one — same `RunStats`, same recorded
//! trace stream, same output memory (DESIGN.md §12).
//!
//! Usage:
//!
//! * `snapshot [APP CONFIG]...` — pairs of benchmark app and configuration
//!   (`Base|ISRF1|ISRF4|Cache`); defaults to `sort ISRF4`, the CI point.
//! * `snapshot negative` — prove the harness has teeth: run two copies of
//!   the CI point in lockstep, inject a single-word SRF corruption at a
//!   known mid-run cycle into one of them, and require the first-divergence
//!   bisector to report exactly that cycle with the damage localized to
//!   the `srf` snapshot section.
//!
//! Exits nonzero on any mismatch (or, for `negative`, any mislocalization).

use isrf_check::{first_divergence, PerturbAt};
use isrf_core::config::ConfigName;
use isrf_core::stats::RunStats;
use isrf_core::Word;
use isrf_sim::Machine;
use isrf_trace::{TraceEvent, Tracer};

fn parse_config(s: &str) -> ConfigName {
    ConfigName::ALL
        .into_iter()
        .find(|c| format!("{c}").eq_ignore_ascii_case(s))
        .unwrap_or_else(|| {
            eprintln!("unknown configuration {s:?} (expected one of Base|ISRF1|ISRF4|Cache)");
            std::process::exit(2);
        })
}

struct Observed {
    stats: RunStats,
    events: Vec<(u64, TraceEvent)>,
    outputs: Vec<(u32, Vec<Word>)>,
}

fn prepare(app: &str, cfg: ConfigName) -> isrf_apps::common::Prepared {
    isrf_bench::prepare_app(app, cfg, isrf_bench::Profile::Small)
}

fn drain_events(m: &mut Machine) -> Vec<(u64, TraceEvent)> {
    m.take_tracer()
        .into_recorder()
        .expect("recording tracer")
        .ring()
        .iter()
        .cloned()
        .collect()
}

fn read_outputs(m: &Machine, outputs: &[(u32, u32)]) -> Vec<(u32, Vec<Word>)> {
    outputs
        .iter()
        .map(|&(base, words)| (base, m.mem().memory().read_block(base, words as usize)))
        .collect()
}

/// One uninterrupted run with a recording tracer.
fn straight(app: &str, cfg: ConfigName) -> Observed {
    let mut pr = prepare(app, cfg);
    pr.machine.set_tracer(Tracer::recording(1 << 20));
    let stats = pr.machine.run(&pr.program);
    let events = drain_events(&mut pr.machine);
    let outputs = read_outputs(&pr.machine, &pr.outputs);
    Observed {
        stats,
        events,
        outputs,
    }
}

/// Run to cycle `at`, snapshot, restore into a fresh machine, resume to
/// completion, and stitch the two trace halves together.
fn paused(app: &str, cfg: ConfigName, at: u64) -> (Observed, usize) {
    let mut pr = prepare(app, cfg);
    pr.machine.set_tracer(Tracer::recording(1 << 20));
    assert!(
        pr.machine.run_for(&pr.program, at).is_none(),
        "{app} {cfg} finished before the pause cycle {at}"
    );
    let snapshot = pr.machine.save_state(&pr.program);
    let mut events = drain_events(&mut pr.machine);

    let mut fresh = prepare(app, cfg);
    fresh
        .machine
        .restore_state(&fresh.program, &snapshot)
        .expect("snapshot restores into an identically prepared machine");
    fresh.machine.set_tracer(Tracer::recording(1 << 20));
    let stats = fresh
        .machine
        .run_for(&fresh.program, u64::MAX)
        .expect("resumed run completes");
    events.extend(drain_events(&mut fresh.machine));
    let outputs = read_outputs(&fresh.machine, &fresh.outputs);
    (
        Observed {
            stats,
            events,
            outputs,
        },
        snapshot.len(),
    )
}

/// Compare straight vs. snapshot/resume for one point.
fn check(app: &str, cfg: ConfigName) -> bool {
    let base = straight(app, cfg);
    let at = base.stats.cycles / 2;
    let (resumed, snap_bytes) = paused(app, cfg, at);
    let mut ok = true;

    if base.stats != resumed.stats {
        ok = false;
        eprintln!(
            "  stats mismatch:\n    straight: {:?}\n    resumed:  {:?}",
            base.stats, resumed.stats
        );
    }
    if base.events.len() != resumed.events.len() {
        ok = false;
        eprintln!(
            "  trace length mismatch: straight {} events, resumed {}",
            base.events.len(),
            resumed.events.len()
        );
    }
    if let Some(i) = base
        .events
        .iter()
        .zip(&resumed.events)
        .position(|(a, b)| a != b)
    {
        ok = false;
        eprintln!(
            "  trace diverges at event {i}:\n    straight: {:?}\n    resumed:  {:?}",
            base.events[i], resumed.events[i]
        );
    }
    for ((addr, a), (_, b)) in base.outputs.iter().zip(&resumed.outputs) {
        if let Some(i) = (0..a.len()).find(|&i| a[i] != b[i]) {
            ok = false;
            eprintln!(
                "  output memory diverges at {:#x}: straight {:#010x}, resumed {:#010x}",
                addr + i as u32,
                a[i],
                b[i]
            );
        }
    }
    println!(
        "{} {:<8} {:<6} paused at {:>7}/{:<7}, {:>7}-byte snapshot, {:>6} events",
        if ok { "PASS" } else { "FAIL" },
        app,
        format!("{cfg}"),
        at,
        base.stats.cycles,
        snap_bytes,
        base.events.len(),
    );
    ok
}

/// Negative mode: the bisector must localize an injected single-word SRF
/// corruption to exactly the cycle it was injected at.
fn negative(app: &str, cfg: ConfigName) -> bool {
    let total = {
        let mut pr = prepare(app, cfg);
        pr.machine.run(&pr.program).cycles
    };
    let mut a = prepare(app, cfg);
    let b = prepare(app, cfg);
    let (mut bm, bp) = (b.machine, b.program);
    // Corrupt the first SRF word above the allocator high-water mark: no
    // stream transfer ever touches it, so the damage persists in
    // architectural state from the injection cycle onward.
    let srf = bm.srf();
    assert!(srf.free_words() > 0, "{app} {cfg} fills the entire SRF");
    let offset = srf.bank_words() - srf.free_words();
    let inject = total / 2;
    let perturb = PerturbAt {
        cycle: inject,
        lane: 0,
        offset,
        xor: 0x5a5a_5a5a,
    };
    let found = first_divergence(&mut a.machine, &mut bm, &bp, 256, Some(perturb))
        .expect("lockstep snapshots restore");
    let ok = match &found {
        Some(d) if d.cycle == inject && d.diffs.iter().any(|x| x.path == "srf") => true,
        Some(d) => {
            eprintln!("  expected divergence at cycle {inject} in `srf`, got:\n{d}");
            false
        }
        None => {
            eprintln!("  injected corruption at cycle {inject} went undetected");
            false
        }
    };
    println!(
        "{} {:<8} {:<6} bisected injected fault at cycle {:>7}/{:<7} (srf bank 0 word {})",
        if ok { "PASS" } else { "FAIL" },
        app,
        format!("{cfg}"),
        inject,
        total,
        offset,
    );
    ok
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("negative") {
        if !negative("sort", ConfigName::Isrf4) {
            eprintln!("bisector localization FAILED");
            std::process::exit(1);
        }
        return;
    }
    let points: Vec<(String, ConfigName)> = if args.is_empty() {
        vec![("sort".into(), ConfigName::Isrf4)]
    } else {
        if !args.len().is_multiple_of(2) {
            eprintln!("usage: snapshot [negative | APP CONFIG...]");
            std::process::exit(2);
        }
        args.chunks(2)
            .map(|p| (p[0].clone(), parse_config(&p[1])))
            .collect()
    };
    let mut all_ok = true;
    for (app, cfg) in &points {
        all_ok &= check(app, *cfg);
    }
    if !all_ok {
        eprintln!("snapshot/resume differential FAILED");
        std::process::exit(1);
    }
    println!(
        "snapshot/resume differential: all {} point(s) identical",
        points.len()
    );
}
