//! Property test for the run loop's memory wait: the cycles it spends
//! with no kernel to run and transfers live — in service on the channel or
//! waiting out their latency — skip the loop head, and that must be
//! *unobservable*.
//!
//! For random strip-mined programs (the [`isrf_gen::Spec`] corpus) — serial
//! and overlapped strips, with and without kernels, cacheable and not,
//! contiguous loads and loads with runs of repeated addresses, side gathers
//! that keep three and more transfers in service at once — on Base, ISRF4
//! and Cache, a fresh machine runs the program
//! uninterrupted, a second single-steps it with `run_for(p, 1)` (every
//! cycle passes the loop head: the lock-step reference), and a third
//! pauses at a cycle inside a memory-wait stretch and resumes. All three
//! must produce identical `RunStats` (cycle counts and the full Figure-12
//! breakdown) and byte-identical trace event streams, and the trace
//! audit's reconstruction must match the reported breakdown.

use isrf_core::config::ConfigName;
use isrf_core::stats::RunStats;
use isrf_gen::Spec;
use isrf_trace::{CycleAttr, TraceEvent, Tracer};
use isrf_verify::Verifier;
use proptest::test_runner::TestRng;

/// How a run is sliced.
#[derive(Debug, Clone, Copy)]
enum Slicing {
    /// One `run`.
    Whole,
    /// `run_for(p, 1)` until done.
    SingleStep,
    /// `run_for(p, cycles)`, then `run`.
    PauseAfter(u64),
}

/// Build the machine, run `spec`'s program on `cfg`, and return (stats,
/// trace events).
fn run_strips(
    cfg: ConfigName,
    spec: &Spec,
    slicing: Slicing,
) -> (RunStats, Vec<(u64, TraceEvent)>) {
    let g = Spec {
        config: cfg,
        ..spec.clone()
    }
    .generate();
    Verifier::new()
        .verify(&g.cfg, &g.env, &g.program)
        .expect("the corpus verifies clean");
    let mut m = g.materialise();
    m.set_tracer(Tracer::recording(1 << 16));
    let p = &g.program;
    let stats = match slicing {
        Slicing::Whole => m.run(p),
        Slicing::SingleStep => loop {
            if let Some(stats) = m.run_for(p, 1) {
                break stats;
            }
        },
        Slicing::PauseAfter(cycles) => match m.run_for(p, cycles) {
            Some(stats) => stats,
            None => m.run(p),
        },
    };
    let events = m
        .take_tracer()
        .into_recorder()
        .expect("recording")
        .ring()
        .iter()
        .cloned()
        .collect();
    (stats, events)
}

/// Staying in the memory-wait loop is invisible: identical stats and
/// identical trace whether every cycle passes the loop head, a slice ends
/// mid-wait, or neither; audit-clean.
#[test]
fn memory_wait_is_unobservable() {
    let mut rng = TestRng::deterministic("isrf-sim::proptest_quiesce");
    for spec in &Spec::corpus(24) {
        for cfg in [ConfigName::Base, ConfigName::Isrf4, ConfigName::Cache] {
            let (stats, events) = run_strips(cfg, spec, Slicing::Whole);
            let (stats_step, events_step) = run_strips(cfg, spec, Slicing::SingleStep);
            assert_eq!(stats, stats_step, "stats differ on {cfg}: {spec:?}");
            assert!(events == events_step, "trace differs on {cfg}: {spec:?}");
            // Pause after a memory-stall cycle that the next one follows:
            // inside a wait, where the loop would not have left it.
            let stalls: Vec<u64> = events
                .iter()
                .filter(|(_, ev)| matches!(ev, TraceEvent::Cycle(CycleAttr::MemStall)))
                .map(|&(cycle, _)| cycle)
                .collect();
            let inside: Vec<u64> = stalls
                .windows(2)
                .filter(|w| w[1] == w[0] + 1)
                .map(|w| w[0])
                .collect();
            assert!(!inside.is_empty(), "no memory wait on {cfg}: {spec:?}");
            let at = inside[rng.below(inside.len() as u64) as usize];
            let (stats_paused, events_paused) = run_strips(cfg, spec, Slicing::PauseAfter(at));
            assert_eq!(stats, stats_paused, "stats differ on {cfg} paused at {at}");
            assert!(
                events == events_paused,
                "trace differs on {cfg} paused at {at}"
            );
            let mut audit = isrf_trace::AuditAccumulator::new();
            for (_, ev) in &events {
                audit.observe(ev);
            }
            let mismatches = audit.verify(&stats.breakdown);
            assert!(
                mismatches.is_empty(),
                "audit mismatch on {cfg}: {mismatches:?}"
            );
        }
    }
}
