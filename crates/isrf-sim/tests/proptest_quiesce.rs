//! Property test for the run loop's memory wait: the cycles it spends
//! with no kernel to run and transfers live — in service on the channel or
//! waiting out their latency — skip the loop head, and that must be
//! *unobservable*.
//!
//! For random stream programs — serial and overlapped strips, with and
//! without kernels, cacheable and not, contiguous loads and gathers with
//! runs of repeated addresses, side gathers that keep three and more
//! transfers in service at once — a fresh machine runs the program
//! uninterrupted, a second single-steps it with `run_for(p, 1)` (every
//! cycle passes the loop head: the lock-step reference), and a third
//! pauses at a cycle inside a memory-wait stretch and resumes. All three
//! must produce identical `RunStats` (cycle counts and the full Figure-12
//! breakdown) and byte-identical trace event streams, and the trace
//! audit's reconstruction must match the reported breakdown.

use std::sync::Arc;

use isrf_core::config::{ConfigName, MachineConfig};
use isrf_core::stats::RunStats;
use isrf_kernel::ir::{Kernel, KernelBuilder, StreamKind};
use isrf_kernel::sched::{schedule, SchedParams};
use isrf_mem::AddrPattern;
use isrf_sim::machine::Machine;
use isrf_sim::program::StreamProgram;
use isrf_trace::{CycleAttr, TraceEvent, Tracer};
use proptest::prelude::*;

fn scale_kernel() -> Arc<Kernel> {
    let mut b = KernelBuilder::new("scale");
    let i = b.stream("in", StreamKind::SeqIn);
    let o = b.stream("out", StreamKind::SeqOut);
    let x = b.seq_read(i);
    let c = b.constant(3);
    let y = b.mul(x, c);
    b.seq_write(o, y);
    Arc::new(b.build().unwrap())
}

/// One strip of the generated program: stream length, whether a kernel
/// sits between the load and the store, whether the transfers go through
/// the cache path, whether the strip depends on the previous strip
/// (serial) or runs overlapped with it, how many equal consecutive
/// addresses its load gathers (0: a contiguous load), and how many side
/// gathers nothing waits for are issued beside it.
#[derive(Debug, Clone)]
struct Strip {
    words: u32,
    kernel: bool,
    cacheable: bool,
    serial: bool,
    repeat: u32,
    side_gathers: u32,
}

fn strips() -> impl Strategy<Value = Vec<Strip>> {
    prop::collection::vec(
        (
            1u32..12,
            any::<bool>(),
            any::<bool>(),
            any::<bool>(),
            0u32..4,
            0u32..3,
        )
            .prop_map(
                |(k, kernel, cacheable, serial, repeat, side_gathers)| Strip {
                    words: k * 8,
                    kernel,
                    cacheable,
                    serial,
                    repeat,
                    side_gathers,
                },
            ),
        1..5,
    )
}

/// `words` addresses from `base` in runs of `repeat` equal ones, as the
/// padded gathers of bfs and spmv have them.
fn gather(base: u32, words: u32, repeat: u32) -> AddrPattern {
    AddrPattern::Indexed((0..words).map(|i| base + (i / repeat * 5) % 97).collect())
}

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

/// Build the machine, run the strips, and return (stats, trace events).
fn run_strips(
    cfg: ConfigName,
    strips: &[Strip],
    slicing: Slicing,
) -> (RunStats, Vec<(u64, TraceEvent)>) {
    let mcfg = MachineConfig::preset(cfg);
    let kernel = scale_kernel();
    let sched = schedule(&kernel, &SchedParams::from_machine(&mcfg)).unwrap();
    let mut m = Machine::new(mcfg).unwrap();
    m.set_tracer(Tracer::recording(1 << 16));
    let mut p = StreamProgram::new();
    let mut prev_tail = None;
    for (s, strip) in strips.iter().enumerate() {
        let base = (s as u32) * 0x1000;
        for i in 0..strip.words {
            m.mem_mut().memory_mut().write(base + i, base + i * 7 + 1);
        }
        let ib = m.alloc_stream(1, strip.words);
        let ob = m.alloc_stream(1, strip.words);
        let deps: Vec<_> = if strip.serial {
            prev_tail.iter().copied().collect()
        } else {
            Vec::new()
        };
        for g in 0..strip.side_gathers {
            let side = m.alloc_stream(1, strip.words);
            let pattern = gather(base + 0x800 + g * 0x100, strip.words, 1 + g);
            p.load(pattern, side, strip.cacheable, &deps);
        }
        let pattern = match strip.repeat {
            0 => AddrPattern::contiguous(base, strip.words),
            repeat => gather(base, strip.words, repeat),
        };
        let l = p.load(pattern, ib, strip.cacheable, &deps);
        let tail = if strip.kernel {
            let k = p.kernel(
                Arc::clone(&kernel),
                sched.clone(),
                vec![ib, ob],
                u64::from(strip.words / 8),
                &[l],
            );
            p.store(
                ob,
                AddrPattern::contiguous(0x10_0000 + base, strip.words),
                strip.cacheable,
                &[k],
            )
        } else {
            // Pure memory strip: store the loaded stream straight back.
            p.store(
                ib,
                AddrPattern::contiguous(0x10_0000 + base, strip.words),
                strip.cacheable,
                &[l],
            )
        };
        prev_tail = Some(tail);
    }
    let stats = match slicing {
        Slicing::Whole => m.run(&p),
        Slicing::SingleStep => loop {
            if let Some(stats) = m.run_for(&p, 1) {
                break stats;
            }
        },
        Slicing::PauseAfter(cycles) => match m.run_for(&p, cycles) {
            Some(stats) => stats,
            None => m.run(&p),
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Staying in the memory-wait loop is invisible: identical stats and
    /// identical trace whether every cycle passes the loop head, a slice
    /// ends mid-wait, or neither; audit-clean.
    #[test]
    fn memory_wait_is_unobservable(ss in strips(), pause in any::<u32>()) {
        for cfg in [ConfigName::Base, ConfigName::Isrf4, ConfigName::Cache] {
            let (stats, events) = run_strips(cfg, &ss, Slicing::Whole);
            let (stats_step, events_step) = run_strips(cfg, &ss, Slicing::SingleStep);
            prop_assert_eq!(stats, stats_step, "stats differ on {}", cfg);
            prop_assert_eq!(&events, &events_step, "trace differs on {}", cfg);
            // Pause after a memory-stall cycle that the next one follows:
            // inside a wait, where the loop would not have left it.
            let stalls: Vec<u64> = events
                .iter()
                .filter(|(_, ev)| matches!(ev, TraceEvent::Cycle(CycleAttr::MemStall)))
                .map(|&(cycle, _)| cycle)
                .collect();
            let inside: Vec<u64> = stalls.windows(2).filter(|w| w[1] == w[0] + 1).map(|w| w[0]).collect();
            prop_assert!(!inside.is_empty(), "no memory wait on {}", cfg);
            let at = inside[pause as usize % inside.len()];
            let (stats_paused, events_paused) = run_strips(cfg, &ss, Slicing::PauseAfter(at));
            prop_assert_eq!(stats, stats_paused, "stats differ on {} paused at {}", cfg, at);
            prop_assert_eq!(&events, &events_paused, "trace differs on {} paused at {}", cfg, at);
            let mut audit = isrf_trace::AuditAccumulator::new();
            for (_, ev) in &events {
                audit.observe(ev);
            }
            let mismatches = audit.verify(&stats.breakdown);
            prop_assert!(mismatches.is_empty(), "audit mismatch on {}: {:?}", cfg, mismatches);
        }
    }
}
