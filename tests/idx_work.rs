//! The simulator's own work, pinned per point beside its cycles: every app
//! on every configuration at both profiles, one line of
//! `tests/golden/hostwork.digest` each — simulated cycles, then the
//! machine's `HostWork` (FIFO heads the indexed arbiter examined, transfers
//! the memory service walk visited, words the channel served, kernel
//! micro-ops fired) and the indexed events a recording tracer hears.
//! Counted in debug builds only; the build users run does not count. A time
//! drifts with the machine; a count cannot, so a change that makes the
//! simulator do more for the same cycles fails here whatever the clock
//! says. Each point is simulated once; `mem_work.rs` checks the memory
//! columns of the lines written here.
//!
//! `events` is one `IdxAccess` or `IdxReject` per lane and head, which is
//! what a per-lane arbiter examined. Beside `heads` it shows what the
//! shared cursors and masks bought: a lane-uniform stream is examined once
//! per row (filter, fft2d, stencil: an eighth), and a cross-lane head
//! behind a closed bank or a full data ring not at all (bfs, spmv: every
//! examined head issues). It is counted on the indexed points only, whose
//! run is traced, and is `-` elsewhere.
//!
//! Regenerate after an intended change with
//! `UPDATE_GOLDEN=1 cargo test --test idx_work`.
#![cfg(debug_assertions)]

use isrf_apps::{prepare_app, Profile, APPS};
use isrf_check::{golden, run_parallel};
use isrf_core::config::ConfigName;
use isrf_trace::Tracer;

const DIGEST: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/hostwork.digest");

/// `app config profile cycles heads events visits words ops`, from one
/// run.
fn line(app: &str, cfg: ConfigName, profile: Profile) -> String {
    let indexed = matches!(cfg, ConfigName::Isrf1 | ConfigName::Isrf4);
    let mut pr = prepare_app(app, cfg, profile);
    if indexed {
        pr.machine.set_tracer(Tracer::recording(0));
    }
    let cycles = pr.machine.run(&pr.program).cycles;
    let w = pr.machine.work();
    let events = if indexed {
        let rec = pr.machine.take_tracer().into_recorder().expect("recording");
        let c = rec.counters();
        (c.idx_inlane + c.idx_crosslane + c.idx_reject.iter().sum::<u64>()).to_string()
    } else {
        "-".to_string()
    };
    format!(
        "{app} {cfg} {profile:?} cycles={cycles} heads={} events={events} visits={} words={} ops={}\n",
        w.heads, w.visits, w.words, w.ops
    )
}

#[test]
fn heads_examined_per_point_are_pinned() {
    let points: Vec<(&str, ConfigName, Profile)> = [Profile::Small, Profile::Paper]
        .into_iter()
        .flat_map(|p| {
            APPS.iter()
                .flat_map(move |&a| ConfigName::ALL.map(|c| (a, c, p)))
        })
        .collect();
    let got = run_parallel(&points, |&(app, cfg, profile)| line(app, cfg, profile)).concat();
    golden(DIGEST, &got);
}
