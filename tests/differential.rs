//! Tier-1 differential suite: every application on every machine
//! configuration, checked word-for-word against the timing-free reference
//! executor and against the app's own host reference, plus sweep-level
//! invariants (determinism across reruns, parallel/serial identity,
//! Isrf1-vs-Isrf4 functional equivalence, fifteen timing perturbations per
//! point that may move cycles and nothing else), and a committed digest
//! of every point's timing (`tests/golden/basket.digest`: cycles, full
//! stats, and the whole trace-event stream), so a change that moves *when*
//! something happens fails here even when every value is still right —
//! and every point reproduces its line a second time when paused half-way,
//! snapshotted, restored into a fresh machine and resumed (the snapshot
//! bisector, for its part, must find a fault injected into sort/ISRF4).
//! What each app prepares — program, memory image and SRF, Small and Paper
//! — is pinned beside it (`tests/golden/prepared.digest`, 88 lines).
//! Regenerate after an intentional timing change with
//! `UPDATE_GOLDEN=1 cargo test --test differential`.
//!
//! Memory in this simulator moves functionally at request time — the cache
//! and DRAM models only shape timing and traffic accounting — so the final
//! memory image of each app must be identical on all four configurations,
//! and identical to what the ISA-semantics interpreter produces.

use std::sync::Arc;

use isrf_apps::common::Prepared;
use isrf_apps::{prepare_app, Profile, APPS};
use isrf_check::{
    first_divergence, run_differential, run_parallel, run_serial, DiffOutcome, PerturbAt,
};
use isrf_core::config::{ConfigName, MachineConfig};
use isrf_core::snap::{fnv1a, Enc};
use isrf_core::stats::RunStats;
use isrf_core::Word;
use isrf_kernel::ir::{KernelBuilder, StreamKind};
use isrf_kernel::sched::{schedule, SchedParams};
use isrf_sim::machine::Machine;
use isrf_sim::program::StreamProgram;
use isrf_trace::{TraceEvent, Tracer};

/// A ready-to-run machine+program for one sweep point at the Small size.
fn prepare(app: &str, cfg: impl Into<MachineConfig>) -> Prepared {
    prepare_app(app, cfg, Profile::Small)
}

/// One point through both oracles — the reference executor, then the
/// app's host reference — returning the differential outcome and the
/// output words. `what` names the machine in a failure report.
fn diff_point(app: &str, cfg: impl Into<MachineConfig>, what: &str) -> (DiffOutcome, Vec<Word>) {
    let mut pr = prepare(app, cfg);
    let cfg = pr.machine.config().name;
    let out =
        run_differential(&mut pr.machine, &pr.program, &pr.outputs).unwrap_or_else(|failure| {
            let shown: Vec<String> = failure
                .errors
                .iter()
                .take(8)
                .map(|e| e.to_string())
                .collect();
            panic!(
                "{app} on {cfg:?} ({what}) diverged from the reference executor \
                 ({} mismatches):\n  {}\nlast trace events:\n{}",
                failure.errors.len(),
                shown.join("\n  "),
                failure.trace_tail.join("\n")
            )
        });
    pr.check();
    let memory = pr.machine.mem().memory();
    let words = pr
        .outputs
        .iter()
        .flat_map(|&(base, words)| memory.read_block(base, words as usize))
        .collect();
    (out, words)
}

fn grid() -> Vec<(&'static str, ConfigName)> {
    APPS.iter()
        .flat_map(|&a| ConfigName::ALL.iter().map(move |&c| (a, c)))
        .collect()
}

/// A named single-field departure from a preset.
type Perturbation = (&'static str, fn(&mut MachineConfig));

/// Departures that may move *when* and never *what*: memory timing, buffer
/// and FIFO depths, SRF geometry, the scheduler's address/data separations.
const PERTURBATIONS: [Perturbation; 15] = [
    ("DRAM latency 50", |c| c.dram.latency_cycles = 50),
    ("DRAM latency 400", |c| c.dram.latency_cycles = 400),
    ("DRAM bandwidth x1/2", |c| c.dram.peak_gbytes_per_sec /= 2.0),
    ("DRAM bandwidth x2", |c| c.dram.peak_gbytes_per_sec *= 2.0),
    ("burst_words 4", |c| c.dram.burst_words = 4),
    ("stream buffers 4 words", |c| c.srf.stream_buffer_words = 4),
    ("stream buffers 16 words", |c| {
        c.srf.stream_buffer_words = 16
    }),
    ("address FIFOs 4", |c| set_addr_fifos(c, 4)),
    ("address FIFOs 16", |c| set_addr_fifos(c, 16)),
    ("sub-arrays 2", |c| set_subarrays(c, 2)),
    ("sub-arrays 8", |c| set_subarrays(c, 8)),
    ("separations (2, 4)", |c| set_separations(c, 2, 4)),
    ("separations (10, 28)", |c| set_separations(c, 10, 28)),
    ("2 network ports per bank", |c| {
        if let Some(idx) = &mut c.srf.indexed {
            idx.network_ports_per_bank = 2;
        }
    }),
    ("seq_latency 6", |c| c.srf.seq_latency = 6),
];

fn set_addr_fifos(c: &mut MachineConfig, entries: usize) {
    if let Some(idx) = &mut c.srf.indexed {
        idx.addr_fifo_entries = entries;
    }
}

/// Fewer sub-arrays than in-lane words per cycle is not a machine
/// (`MachineConfig::validate`), so ISRF4's bandwidth shrinks with them.
fn set_subarrays(c: &mut MachineConfig, subarrays: usize) {
    c.srf.subarrays = subarrays;
    if let Some(idx) = &mut c.srf.indexed {
        idx.inlane_words_per_cycle = idx.inlane_words_per_cycle.min(subarrays);
    }
}

fn set_separations(c: &mut MachineConfig, inlane: u32, crosslane: u32) {
    c.sched.inlane_addr_data_separation = inlane;
    c.sched.crosslane_addr_data_separation = crosslane;
}

/// The acceptance gate: all 8 apps × 4 configs agree with the reference
/// on every word of memory and SRF, and on the indexed access counts, and
/// with the app's own host reference — on the preset and on perturbed
/// machines. That is the paper's decoupling claim over the config space:
/// every perturbed point passes both oracles and equals the preset run of
/// its (app, config) in every output word, in the indexed word counts and
/// in off-chip bytes. Cycles may move either way; they are printed
/// (`--nocapture`), not asserted. A release build runs all 32 × 15 pairs,
/// a debug build three perturbations per point, staggered so that any five
/// neighbouring points cover all fifteen.
/// Points run in parallel — the sweep harness drives its own test load.
#[test]
fn all_apps_all_configs_match_reference() {
    let points = grid();
    let presets = run_parallel(&points, |&(app, cfg)| diff_point(app, cfg, "preset"));
    assert_eq!(presets.len(), points.len());
    for ((app, cfg), (out, _)) in points.iter().zip(&presets) {
        // Indexed configs must actually exercise indexed access on the
        // indexed apps (otherwise the count check is vacuous).
        if matches!(cfg, ConfigName::Isrf1 | ConfigName::Isrf4) && *app != "fft2d" {
            assert!(
                out.counts.inlane_words + out.counts.crosslane_words > 0,
                "{app} on {cfg:?} performed no indexed accesses"
            );
        }
    }

    let stride = if cfg!(debug_assertions) { 5 } else { 1 };
    let pairs: Vec<(usize, usize)> = (0..points.len())
        .flat_map(|p| (0..PERTURBATIONS.len()).map(move |k| (p, k)))
        .filter(|&(p, k)| (p + k) % stride == 0)
        .collect();
    let perturbed = run_parallel(&pairs, |&(p, k)| {
        let (app, cfg) = points[p];
        let (what, mutate) = PERTURBATIONS[k];
        let mut cfg = MachineConfig::preset(cfg);
        mutate(&mut cfg);
        diff_point(app, cfg, what)
    });
    for (&(p, k), (out, words)) in pairs.iter().zip(&perturbed) {
        let ((app, cfg), what) = (points[p], PERTURBATIONS[k].0);
        let (preset, preset_words) = &presets[p];
        assert!(
            words == preset_words,
            "{app} on {cfg}, {what}: output words moved"
        );
        assert_eq!(
            (out.stats.srf.inlane_words, out.stats.srf.crosslane_words),
            (
                preset.stats.srf.inlane_words,
                preset.stats.srf.crosslane_words
            ),
            "{app} on {cfg}, {what}: indexed word counts moved"
        );
        assert_eq!(
            out.stats.mem.total(),
            preset.stats.mem.total(),
            "{app} on {cfg}, {what}: off-chip bytes moved"
        );
        let (was, is) = (preset.stats.cycles, out.stats.cycles);
        println!(
            "{app:<8} {cfg:<5} {what:<24} {is:>8} cycles ({:+.1}% on {was})",
            100.0 * (is as f64 - was as f64) / was as f64
        );
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
        let (o1, _) = diff_point(app, ConfigName::Isrf1, "preset");
        let (o4, _) = diff_point(app, ConfigName::Isrf4, "preset");
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

/// `run` on `machine` under a recording tracer: its result and every event
/// the machine emitted meanwhile, stamped with its cycle.
fn traced<T>(
    machine: &mut Machine,
    run: impl FnOnce(&mut Machine) -> T,
) -> (T, Vec<(u64, TraceEvent)>) {
    machine.set_tracer(Tracer::recording(1 << 22));
    let out = run(machine);
    let recorder = machine
        .take_tracer()
        .into_recorder()
        .expect("recording tracer was installed");
    assert_eq!(recorder.ring().dropped(), 0, "trace ring too small");
    (out, recorder.ring().iter().cloned().collect())
}

/// One line of `tests/golden/basket.digest`: the point's cycle count, an
/// FNV-1a digest of its full `RunStats`, and the length and FNV-1a digest
/// of its complete trace-event stream (every grant, stall reason, indexed
/// access and per-cycle attribution, stamped with its cycle).
fn digest_line(
    name: &str,
    cfg: ConfigName,
    stats: &RunStats,
    events: &[(u64, TraceEvent)],
) -> String {
    use std::fmt::Write;
    let mut enc = Enc::new();
    stats.encode_state(&mut enc);
    let mut stream = String::new();
    for (cycle, ev) in events {
        writeln!(stream, "@{cycle} {ev:?}").expect("write to String");
    }
    format!(
        "{name} {cfg} cycles={} stats={:016x} events={} trace={:016x}\n",
        stats.cycles,
        fnv1a(&enc.into_bytes()),
        events.len(),
        fnv1a(stream.as_bytes())
    )
}

/// A point's digest line, which it must reproduce twice: run straight, and
/// paused half-way, saved, restored into a freshly prepared machine and
/// resumed there (the two event streams stitched), where the memory it
/// leaves must also pass the app's host check.
fn digest_point(app: &str, cfg: ConfigName) -> String {
    let mut pr = prepare(app, cfg);
    let (stats, events) = traced(&mut pr.machine, |m| m.run(&pr.program));
    let straight = digest_line(app, cfg, &stats, &events);

    let mut pr = prepare(app, cfg);
    let half = stats.cycles / 2;
    let (paused, mut events) = traced(&mut pr.machine, |m| m.run_for(&pr.program, half));
    assert_eq!(paused, None, "{app} on {cfg} completed in half its cycles");
    let snapshot = pr.machine.save_state(&pr.program);
    let mut fresh = prepare(app, cfg);
    fresh
        .machine
        .restore_state(&fresh.program, &snapshot)
        .expect("a snapshot restores into an identically prepared machine");
    let (stats, tail) = traced(&mut fresh.machine, |m| m.run(&fresh.program));
    events.extend(tail);
    fresh.check();
    let resumed = digest_line(app, cfg, &stats, &events);
    assert_eq!(resumed, straight, "pause, save, restore and resume moved");
    straight
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
    let (stats, events) = traced(&mut machine, |m| m.run(&p));
    digest_line("hot_loop", ConfigName::Base, &stats, &events)
}

/// Timing is pinned, not just values: all 32 points — each run straight
/// and paused, snapshotted and resumed — and the hot loop reproduce the
/// committed cycle counts, stats and event streams exactly.
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

/// What an app hands the simulator is pinned byte for byte, at both
/// profiles: every app and IG dataset on every config, each line the
/// FNV-1a digest and length of `save_state` right after `prepare_app` —
/// the config and program fingerprints (op and dependence order, kernel
/// and stream names), the memory image, the SRF and its fill map.
/// Regenerate with `UPDATE_GOLDEN=1 cargo test --test differential`.
#[test]
fn prepared_digest_matches_golden_file() {
    let apps = APPS.iter().chain(&["IG_SCL", "IG_DMS", "IG_DCS"]);
    let points: Vec<(&str, ConfigName, Profile)> = [Profile::Small, Profile::Paper]
        .into_iter()
        .flat_map(|p| {
            apps.clone()
                .flat_map(move |&a| ConfigName::ALL.map(|c| (a, c, p)))
        })
        .collect();
    let got: String = run_parallel(&points, |&(app, cfg, profile)| {
        let pr = prepare_app(app, cfg, profile);
        let state = pr.machine.save_state(&pr.program);
        format!(
            "{app} {cfg} {profile:?} state={:016x} bytes={}\n",
            fnv1a(&state),
            state.len()
        )
    })
    .concat();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/prepared.digest");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(path)
        .expect("golden file exists (regenerate with UPDATE_GOLDEN=1)");
    for (g, w) in got.lines().zip(want.lines()) {
        assert_eq!(
            g, w,
            "a prepared point drifted from tests/golden/prepared.digest"
        );
    }
    assert_eq!(got, want, "prepared.digest point list changed");
}

/// The bisector on a real app: one word of sort/ISRF4's SRF flipped
/// half-way through the run — the first above the allocator's high-water
/// mark, which no transfer touches, so the damage stays in architectural
/// state — is found at exactly that cycle, in the `srf` section.
#[test]
fn bisector_localizes_an_injected_srf_fault_on_sort() {
    let [mut a, mut b, mut c] = [(); 3].map(|()| prepare("sort", ConfigName::Isrf4));
    let srf = b.machine.srf();
    assert!(srf.free_words() > 0, "sort fills the entire SRF");
    let perturb = PerturbAt {
        cycle: c.machine.run(&c.program).cycles / 2,
        lane: 0,
        offset: srf.bank_words() - srf.free_words(),
        xor: 0x5a5a_5a5a,
    };
    let found = first_divergence(
        &mut a.machine,
        &mut b.machine,
        &b.program,
        256,
        Some(perturb),
    )
    .expect("lockstep snapshots restore")
    .expect("the injected fault is detected");
    assert_eq!(found.cycle, perturb.cycle, "{found}");
    assert!(found.diffs.iter().any(|d| d.path == "srf"), "{found}");
}
