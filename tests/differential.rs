//! Tier-1 differential suite: every application on every machine
//! configuration, checked word-for-word against the timing-free reference
//! executor, plus sweep-level invariants (determinism across reruns,
//! parallel/serial identity, Isrf1-vs-Isrf4 functional equivalence), and a
//! committed digest of every point's timing (`tests/golden/basket.digest`:
//! cycles, full stats, and the whole trace-event stream), so a change that
//! moves *when* something happens fails here even when every value is still
//! right. Regenerate after an intentional timing change with
//! `UPDATE_GOLDEN=1 cargo test --test differential`.
//!
//! Memory in this simulator moves functionally at request time — the cache
//! and DRAM models only shape timing and traffic accounting — so the final
//! memory image of each app must be identical on all four configurations,
//! and identical to what the ISA-semantics interpreter produces.

use std::sync::Arc;

use isrf_apps::common::Prepared;
use isrf_apps::{bfs, fft2d, filter, igraph, rijndael, sort, spmv, stencil};
use isrf_check::{run_differential, run_parallel, run_serial, DiffOutcome};
use isrf_core::config::{ConfigName, MachineConfig};
use isrf_core::snap::{fnv1a, Enc};
use isrf_core::stats::RunStats;
use isrf_kernel::ir::{KernelBuilder, StreamKind};
use isrf_kernel::sched::{schedule, SchedParams};
use isrf_sim::machine::Machine;
use isrf_sim::program::StreamProgram;
use isrf_trace::Tracer;

const APPS: [&str; 8] = [
    "fft2d", "rijndael", "sort", "filter", "igraph", "spmv", "stencil", "bfs",
];
const CONFIGS: [ConfigName; 4] = [
    ConfigName::Base,
    ConfigName::Isrf1,
    ConfigName::Isrf4,
    ConfigName::Cache,
];

/// Build a ready-to-run machine+program for one sweep point, with the same
/// shrunk parameters the bench harness uses for its Small profile.
fn prepare(app: &str, cfg: ConfigName) -> Prepared {
    match app {
        "fft2d" => fft2d::prepare(
            cfg,
            &fft2d::Fft2dParams {
                reps: 1,
                ..Default::default()
            },
        ),
        "rijndael" => rijndael::prepare(
            cfg,
            &rijndael::RijndaelParams {
                chains_per_lane: 2,
                waves: 2,
                strips: 2,
                ..Default::default()
            },
        ),
        "sort" => sort::prepare(
            cfg,
            &sort::SortParams {
                keys_per_lane: 64,
                ..Default::default()
            },
        ),
        "filter" => filter::prepare(
            cfg,
            &filter::FilterParams {
                rows: 32,
                ..Default::default()
            },
        ),
        "igraph" => {
            let mut ds = igraph::dataset("IG_SML");
            ds.nodes /= 4;
            igraph::prepare(cfg, &ds)
        }
        "spmv" => spmv::prepare(
            cfg,
            &spmv::SpmvParams {
                rows: 256,
                strip_rows: 32,
                ..Default::default()
            },
        ),
        "stencil" => stencil::prepare(
            cfg,
            &stencil::StencilParams {
                rows: 64,
                ..Default::default()
            },
        ),
        "bfs" => bfs::prepare(
            cfg,
            &bfs::BfsParams {
                nodes: 512,
                strip_nodes: 64,
                ..Default::default()
            },
        ),
        other => panic!("unknown app {other}"),
    }
}

fn diff_point(app: &str, cfg: ConfigName) -> DiffOutcome {
    let mut pr = prepare(app, cfg);
    run_differential(&mut pr.machine, &pr.program, &pr.outputs).unwrap_or_else(|failure| {
        let shown: Vec<String> = failure
            .errors
            .iter()
            .take(8)
            .map(|e| e.to_string())
            .collect();
        panic!(
            "{app} on {cfg:?} diverged from the reference executor \
             ({} mismatches):\n  {}\nlast trace events:\n{}",
            failure.errors.len(),
            shown.join("\n  "),
            failure.trace_tail.join("\n")
        )
    })
}

fn grid() -> Vec<(&'static str, ConfigName)> {
    APPS.iter()
        .flat_map(|&a| CONFIGS.iter().map(move |&c| (a, c)))
        .collect()
}

/// The acceptance gate: all 8 apps × 4 configs agree with the reference
/// on every word of memory and SRF, and on the indexed access counts.
/// Points run in parallel — the sweep harness drives its own test load.
#[test]
fn all_apps_all_configs_match_reference() {
    let points = grid();
    let outcomes = run_parallel(&points, |&(app, cfg)| (app, cfg, diff_point(app, cfg)));
    assert_eq!(outcomes.len(), points.len());
    for (app, cfg, out) in &outcomes {
        // Indexed configs must actually exercise indexed access on the
        // indexed apps (otherwise the count check is vacuous).
        if matches!(cfg, ConfigName::Isrf1 | ConfigName::Isrf4) && *app != "fft2d" {
            assert!(
                out.counts.inlane_words + out.counts.crosslane_words > 0,
                "{app} on {cfg:?} performed no indexed accesses"
            );
        }
    }
}

/// Two fresh preparations of the same point produce bit-identical stats:
/// the whole pipeline (data generation, scheduling, simulation) is
/// deterministic.
#[test]
fn reruns_are_deterministic() {
    for app in APPS {
        for cfg in [ConfigName::Base, ConfigName::Isrf4] {
            let run = |_: &()| -> RunStats {
                let mut pr = prepare(app, cfg);
                pr.machine.run(&pr.program)
            };
            let a = run(&());
            let b = run(&());
            assert_eq!(a, b, "{app} on {cfg:?} not deterministic across reruns");
        }
    }
}

/// The parallel sweep driver returns exactly what a serial sweep returns,
/// in the same order, for the full app × config grid.
#[test]
fn parallel_sweep_is_byte_identical_to_serial() {
    let points = grid();
    let run = |&(app, cfg): &(&str, ConfigName)| -> RunStats {
        let mut pr = prepare(app, cfg);
        pr.machine.run(&pr.program)
    };
    let par = run_parallel(&points, run);
    let ser = run_serial(&points, run);
    assert_eq!(par, ser, "parallel sweep diverged from serial sweep");
}

/// Isrf1 and Isrf4 run the *same* program (they differ only in indexed
/// sub-array parallelism, a pure timing feature), so final data, off-chip
/// traffic, and SRF traffic must be identical — only cycle counts differ.
#[test]
fn isrf1_and_isrf4_are_functionally_equivalent() {
    let pairs = run_parallel(&APPS, |&app| {
        let o1 = diff_point(app, ConfigName::Isrf1);
        let o4 = diff_point(app, ConfigName::Isrf4);
        (app, o1, o4)
    });
    for (app, o1, o4) in &pairs {
        assert_eq!(
            o1.stats.mem, o4.stats.mem,
            "{app}: Isrf1 vs Isrf4 off-chip traffic differs"
        );
        assert_eq!(
            o1.stats.srf, o4.stats.srf,
            "{app}: Isrf1 vs Isrf4 SRF traffic differs"
        );
        assert_eq!(
            o1.counts, o4.counts,
            "{app}: Isrf1 vs Isrf4 reference indexed counts differ"
        );
    }
}

/// One line of `tests/golden/basket.digest`: the point's cycle count, an
/// FNV-1a digest of its full `RunStats`, and the length and FNV-1a digest
/// of its complete trace-event stream (every grant, stall reason, indexed
/// access and per-cycle attribution, stamped with its cycle).
fn digest_line(
    name: &str,
    cfg: ConfigName,
    machine: &mut Machine,
    program: &StreamProgram,
) -> String {
    use std::fmt::Write;
    machine.set_tracer(Tracer::recording(1 << 22));
    let stats = machine.run(program);
    let recorder = machine
        .take_tracer()
        .into_recorder()
        .expect("recording tracer was installed");
    let ring = recorder.ring();
    assert_eq!(ring.dropped(), 0, "{name} on {cfg}: trace ring too small");
    let mut enc = Enc::new();
    stats.encode_state(&mut enc);
    let mut stream = String::new();
    for (cycle, ev) in ring.iter() {
        writeln!(stream, "@{cycle} {ev:?}").expect("write to String");
    }
    format!(
        "{name} {cfg} cycles={} stats={:016x} events={} trace={:016x}\n",
        stats.cycles,
        fnv1a(&enc.into_bytes()),
        ring.len(),
        fnv1a(stream.as_bytes())
    )
}

fn digest_point(app: &str, cfg: ConfigName) -> String {
    let mut pr = prepare(app, cfg);
    digest_line(app, cfg, &mut pr.machine, &pr.program)
}

/// The bare cycle loop as the digest's last line: one modulo-scheduled
/// 6-op ALU kernel over two SRF-resident sequential streams, 1024
/// iterations on Base, no memory traffic.
fn digest_hot_loop() -> String {
    let cfg = MachineConfig::preset(ConfigName::Base);
    let iters: u64 = 1024;
    let mut machine = Machine::new(cfg.clone()).expect("preset config is valid");

    let mut b = KernelBuilder::new("hot_loop");
    let s_in = b.stream("in", StreamKind::SeqIn);
    let s_out = b.stream("out", StreamKind::SeqOut);
    let a = b.seq_read(s_in);
    let sq = b.mul(a, a);
    let s1 = b.add(sq, a);
    let s2 = b.mul(s1, s1);
    let s3 = b.add(s2, sq);
    b.seq_write(s_out, s3);
    let kernel = Arc::new(b.build().expect("hot-loop kernel is well-formed"));
    let sched = schedule(&kernel, &SchedParams::from_machine(&cfg)).expect("hot-loop schedules");

    let records = iters as u32 * cfg.lanes as u32;
    let input = machine.alloc_stream(1, records);
    let output = machine.alloc_stream(1, records);
    let data: Vec<u32> = (0..records).map(|i| i.wrapping_mul(2654435761)).collect();
    machine.write_stream(&input, &data);

    let mut p = StreamProgram::new();
    p.kernel(kernel, sched, vec![input, output], iters, &[]);
    digest_line("hot_loop", ConfigName::Base, &mut machine, &p)
}

/// Timing is pinned, not just values: all 32 points and the hot loop
/// reproduce the committed cycle counts, stats and event streams exactly.
#[test]
fn basket_digest_matches_golden_file() {
    let mut got: String = run_parallel(&grid(), |&(app, cfg)| digest_point(app, cfg)).concat();
    got.push_str(&digest_hot_loop());
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/basket.digest");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(path)
        .expect("golden file exists (regenerate with UPDATE_GOLDEN=1)");
    for (g, w) in got.lines().zip(want.lines()) {
        assert_eq!(g, w, "timing drifted from tests/golden/basket.digest");
    }
    assert_eq!(got, want, "basket.digest point list changed");
}
