//! Snapshot/resume property test: pausing a random verifier-clean program
//! at a random cycle, serializing the machine, restoring it into a fresh
//! machine, and resuming must be indistinguishable from an uninterrupted
//! run — identical `RunStats`, identical recorded trace streams, identical
//! output memory. The programs are the first 24 of the
//! [`isrf_gen::Recipe`] corpus, on every configuration each runs on; a
//! third of them pause with an in-lane indexed lookup in flight.
//!
//! A kernel run's constant rows (immediates, lane ids, iteration ids, the
//! warm-up rows) live past its context ring and are rebuilt when the run
//! binds, never saved: the second test pauses loop-carried kernels inside
//! their warm-up iterations and in steady state and holds the restored
//! machine's snapshot bytes and finish to the paused one's.

use isrf_core::config::{ConfigName, MachineConfig};
use isrf_core::stats::RunStats;
use isrf_core::Word;
use isrf_gen::{Generated, Recipe};
use isrf_sim::Machine;
use isrf_sim::ProgOp;
use isrf_trace::{CycleAttr, TraceEvent, Tracer};
use isrf_verify::Verifier;
use proptest::test_runner::TestRng;

type Observed = (RunStats, Vec<(u64, TraceEvent)>, Vec<Word>);

/// A fresh machine holding `g`, recording.
fn fresh(g: &Generated) -> Machine {
    Verifier::new()
        .verify(&g.cfg, &g.env, &g.program)
        .expect("the corpus verifies clean");
    let mut m = g.materialise();
    m.set_tracer(Tracer::recording(1 << 18));
    m
}

fn drain_events(m: &mut Machine) -> Vec<(u64, TraceEvent)> {
    m.take_tracer()
        .into_recorder()
        .expect("recording")
        .ring()
        .iter()
        .cloned()
        .collect()
}

fn outputs(m: &Machine, g: &Generated) -> Vec<Word> {
    g.outputs
        .iter()
        .flat_map(|&(at, words)| m.mem().memory().read_block(at, words as usize))
        .collect()
}

fn run_straight(g: &Generated) -> Observed {
    let mut m = fresh(g);
    let stats = m.run(&g.program);
    (stats, drain_events(&mut m), outputs(&m, g))
}

/// Pause after `at` cycles, snapshot, restore into a *fresh* machine, and
/// resume to completion.
fn run_paused(g: &Generated, at: u64) -> Observed {
    let mut m = fresh(g);
    assert!(m.run_for(&g.program, at).is_none(), "ended before {at}");
    let snapshot = m.save_state(&g.program);
    let mut events = drain_events(&mut m);
    let mut r = fresh(g);
    r.restore_state(&g.program, &snapshot)
        .expect("snapshot fits");
    let stats = r.run(&g.program);
    events.extend(drain_events(&mut r));
    (stats, events, outputs(&r, g))
}

/// snapshot(c) → restore → resume == uninterrupted run, paused at a random
/// cycle inside each run, with and without indexed-SRF support in the
/// configuration; every case of the corpus runs on each of its configs.
#[test]
fn snapshot_resume_is_invisible() {
    let mut rng = TestRng::deterministic("isrf-sim::proptest_snapshot");
    let (mut ran, mut cases) = ([0; 4], [0; 4]);
    for r in Recipe::corpus(24) {
        for &cfg in r.configs() {
            cases[cfg as usize] += 1;
            let Some(g) = r.generate(&MachineConfig::preset(cfg)) else {
                continue;
            };
            let (stats_s, events_s, out_s) = run_straight(&g);
            let at = 1 + rng.below(stats_s.cycles - 1);
            let (stats_p, events_p, out_p) = run_paused(&g, at);
            assert_eq!(stats_s, stats_p, "stats differ on {cfg} at {at}: {r:?}");
            assert!(
                events_s == events_p,
                "trace differs on {cfg} at {at}: {r:?}"
            );
            assert_eq!(out_s, out_p, "output differs on {cfg} at {at}: {r:?}");
            ran[cfg as usize] += 1;
        }
    }
    assert_eq!(ran, cases, "cases run per config of {:?}", ConfigName::ALL);
}

/// Paused at the second advancing cycle of a loop-carried kernel (inside
/// its warm-up iterations) and half-way through its advancing cycles
/// (steady state), a machine and its restored copy save the same
/// `ISRFSNAP` bytes and finish the same way, as the straight run does.
#[test]
fn constant_rows_are_rebuilt_not_saved() {
    let mut paused = 0;
    for r in Recipe::corpus(24).into_iter().filter(|r| r.iters >= 16) {
        for &cfg in r.configs() {
            let Some(g) = r.generate(&MachineConfig::preset(cfg)) else {
                continue;
            };
            let carried = (0..g.program.len()).any(|i| match g.program.node(i).0 {
                ProgOp::Kernel { kernel, .. } => kernel
                    .ops
                    .iter()
                    .any(|op| op.operands.iter().any(|o| o.distance > 0)),
                _ => false,
            });
            if !carried {
                continue;
            }
            let straight = run_straight(&g);
            let advances: Vec<u64> = (straight.1.iter())
                .filter(|(_, e)| *e == TraceEvent::Cycle(CycleAttr::Advance))
                .map(|&(at, _)| at)
                .collect();
            for at in [advances[1], advances[advances.len() / 2]] {
                let mut m = fresh(&g);
                assert!(m.run_for(&g.program, at + 1).is_none(), "ended by {at}");
                let snapshot = m.save_state(&g.program);
                let mut r2 = fresh(&g);
                r2.restore_state(&g.program, &snapshot)
                    .expect("snapshot fits");
                assert!(
                    r2.save_state(&g.program) == snapshot,
                    "restored bytes differ on {cfg} at {at}: {r:?}"
                );
                drain_events(&mut m);
                drain_events(&mut r2);
                let (a, b) = (m.run(&g.program), r2.run(&g.program));
                assert_eq!(a, b, "finish differs on {cfg} at {at}: {r:?}");
                assert_eq!(a, straight.0, "stats differ on {cfg} at {at}: {r:?}");
                assert_eq!(outputs(&m, &g), outputs(&r2, &g));
                assert_eq!(outputs(&r2, &g), straight.2);
                paused += 1;
            }
        }
    }
    assert!(paused >= 8, "only {paused} pauses");
}
