//! Tier-1 differential suite, and the one writer of per-point numbers.
//!
//! `tests/golden/points.digest` holds one line per point — each app and
//! the other three IG datasets on each configuration, Small and Paper, 88
//! lines — and the bare cycle loop. Each point is prepared and simulated
//! once per run of this binary ([`lines`], whichever test asks first), and
//! [`points_digest_matches_golden_file`] writes or checks its line:
//! what the app prepared (`state bytes`: the FNV-1a digest and length of
//! `save_state` before any cycle), its timing (`cycles stats events
//! trace`: the cycle count, an FNV-1a digest of the full `RunStats`, and
//! the length and FNV-1a digest of the whole trace-event stream, `-` at
//! Paper size, which no ring holds), the simulator's own work (`idx heads
//! visits words ops`: the indexed events a recording tracer hears and
//! `Machine::work()`), and in plain text the values readers compare (`out`,
//! an FNV-1a digest of the output words; off-chip bytes `rd` and `wr`;
//! SRF words `seq`, `inl` and `xl`). A Small point runs traced through
//! both oracles — the timing-free reference executor and the app's own
//! host reference — with an event stream that passes the trace audit.
//! [`prepared_digest_matches_golden_file`] and
//! [`basket_digest_matches_golden_file`] name a drift in what the app
//! prepared apart from a drift in its timing, and the latter also pauses
//! each Small point half-way, snapshots it, restores it into a freshly
//! prepared machine and resumes it, which must give the same timing. Every
//! other test of the workspace that needs a point's numbers reads this
//! file and simulates nothing. Regenerate after an intentional change with
//! `UPDATE_GOLDEN=1 cargo test --test differential`, in a debug build:
//! `HostWork` is counted in debug builds only, so a release build checks
//! every other column and copies those four.
//!
//! Beside the writer: fifteen timing perturbations per Small point that may
//! move cycles and nothing else, and ISRF1 ≡ ISRF4 on the committed
//! columns.
//!
//! Memory in this simulator moves functionally at request time — the cache
//! and DRAM models only shape timing and traffic accounting — so the final
//! memory image of each app must be identical on all four configurations,
//! and identical to what the ISA-semantics interpreter produces.

use std::sync::{Arc, OnceLock};

use isrf_apps::common::Prepared;
use isrf_apps::{prepare_app, Profile, APPS};
use isrf_check::{
    golden, run_differential, run_parallel, words_digest, Columns, DiffOutcome, POINTS_DIGEST,
};
use isrf_core::config::{ConfigName, MachineConfig};
use isrf_core::snap::{fnv1a, Enc};
use isrf_core::stats::RunStats;
use isrf_kernel::ir::{KernelBuilder, StreamKind};
use isrf_kernel::sched::{schedule, SchedParams};
use isrf_sim::machine::Machine;
use isrf_sim::program::StreamProgram;
use isrf_trace::{AuditAccumulator, Recorder, TraceEvent, Tracer};

/// A ready-to-run machine+program for one sweep point at the Small size.
fn prepare(app: &str, cfg: impl Into<MachineConfig>) -> Prepared {
    prepare_app(app, cfg, Profile::Small)
}

/// `pr`'s run through both oracles — the reference executor, then the
/// app's host reference. `what` names the machine in a failure report.
fn diff_point(pr: &mut Prepared, what: &str) -> DiffOutcome {
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
                "{cfg:?} ({what}) diverged from the reference executor \
                 ({} mismatches):\n  {}\nlast trace events:\n{}",
                failure.errors.len(),
                shown.join("\n  "),
                failure.trace_tail.join("\n")
            )
        });
    pr.check();
    out
}

/// The digest of `pr`'s output words, as the `out` column holds it.
fn output_digest(pr: &Prepared) -> String {
    let memory = pr.machine.mem().memory();
    words_digest(
        pr.outputs
            .iter()
            .flat_map(|&(base, words)| memory.read_block(base, words as usize)),
    )
}

/// The 32 Small points of the eight apps, which the perturbations vary.
fn grid() -> Vec<(&'static str, ConfigName)> {
    APPS.iter()
        .flat_map(|&a| ConfigName::ALL.iter().map(move |&c| (a, c)))
        .collect()
}

/// The points of `points.digest`, in its order: each app, then the IG
/// datasets `APPS` does not name, on every config, Small then Paper.
fn points() -> Vec<(&'static str, ConfigName, Profile)> {
    let apps = APPS.iter().chain(&["IG_SCL", "IG_DMS", "IG_DCS"]);
    [Profile::Small, Profile::Paper]
        .into_iter()
        .flat_map(|p| {
            apps.clone()
                .flat_map(move |&a| ConfigName::ALL.map(|c| (a, c, p)))
        })
        .collect()
}

/// The committed `points.digest`, or nothing before its first writing.
fn committed() -> String {
    std::fs::read_to_string(POINTS_DIGEST).unwrap_or_default()
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
/// with the app's own host reference — on the preset, where the writer
/// checks it, and on perturbed machines. That is the paper's decoupling
/// claim over the config space: every perturbed point passes both oracles
/// and equals the committed line of its (app, config) in its output words,
/// in the indexed word counts and in off-chip bytes. Cycles may move
/// either way; they are printed (`--nocapture`), not asserted. Every build
/// runs all 32 × 15 pairs. Points run in parallel — the sweep harness
/// drives its own test load.
#[test]
fn all_apps_all_configs_match_reference() {
    let digest = committed();
    let points = grid();
    let presets: Vec<Columns> = points
        .iter()
        .map(|(app, cfg)| Columns::find(&digest, &format!("{app} {cfg} Small")))
        .collect();
    for ((app, cfg), preset) in points.iter().zip(&presets) {
        // Indexed configs must actually exercise indexed access on the
        // indexed apps (otherwise the count check is vacuous).
        if matches!(cfg, ConfigName::Isrf1 | ConfigName::Isrf4) && *app != "fft2d" {
            assert!(
                preset.u64("inl") + preset.u64("xl") > 0,
                "{app} on {cfg:?} performed no indexed accesses"
            );
        }
    }

    let pairs: Vec<(usize, usize)> = (0..points.len())
        .flat_map(|p| (0..PERTURBATIONS.len()).map(move |k| (p, k)))
        .collect();
    let perturbed = run_parallel(&pairs, |&(p, k)| {
        let (app, cfg) = points[p];
        let (what, mutate) = PERTURBATIONS[k];
        let mut cfg = MachineConfig::preset(cfg);
        mutate(&mut cfg);
        let mut pr = prepare(app, cfg);
        let out = diff_point(&mut pr, &format!("{app}, {what}"));
        (out, output_digest(&pr))
    });
    for (&(p, k), (out, words)) in pairs.iter().zip(&perturbed) {
        let ((app, cfg), what) = (points[p], PERTURBATIONS[k].0);
        let preset = presets[p];
        assert_eq!(
            words,
            preset.get("out"),
            "{app} on {cfg}, {what}: output words moved"
        );
        assert_eq!(
            (out.stats.srf.inlane_words, out.stats.srf.crosslane_words),
            (preset.u64("inl"), preset.u64("xl")),
            "{app} on {cfg}, {what}: indexed word counts moved"
        );
        assert_eq!(
            out.stats.mem.total(),
            preset.u64("rd") + preset.u64("wr"),
            "{app} on {cfg}, {what}: off-chip bytes moved"
        );
        let (was, is) = (preset.u64("cycles"), out.stats.cycles);
        println!(
            "{app:<8} {cfg:<5} {what:<24} {is:>8} cycles ({:+.1}% on {was})",
            100.0 * (is as f64 - was as f64) / was as f64
        );
    }
}

/// Isrf1 and Isrf4 run the *same* program (they differ only in indexed
/// sub-array parallelism, a pure timing feature), so output words,
/// off-chip traffic and SRF traffic must be identical — only cycle counts
/// differ. Checked on every committed pair, Small and Paper.
#[test]
fn isrf1_and_isrf4_are_functionally_equivalent() {
    let digest = committed();
    let pairs = points()
        .into_iter()
        .filter(|&(_, cfg, _)| cfg == ConfigName::Isrf1);
    for (app, _, profile) in pairs {
        let [one, four] = [ConfigName::Isrf1, ConfigName::Isrf4]
            .map(|cfg| Columns::find(&digest, &format!("{app} {cfg} {profile:?}")));
        for column in ["out", "rd", "wr", "seq", "inl", "xl"] {
            assert_eq!(
                one.get(column),
                four.get(column),
                "{app} at {profile:?}: ISRF1 and ISRF4 differ in `{column}`"
            );
        }
    }
}

/// `run` on `machine` under a recording tracer: its result and the
/// recorder, which heard every event the machine emitted meanwhile.
fn traced<T>(machine: &mut Machine, run: impl FnOnce(&mut Machine) -> T) -> (T, Recorder) {
    machine.set_tracer(Tracer::recording(1 << 22));
    let out = run(machine);
    let recorder = machine
        .take_tracer()
        .into_recorder()
        .expect("recording tracer was installed");
    assert_eq!(recorder.ring().dropped(), 0, "trace ring too small");
    (out, recorder)
}

/// The events `recorder` holds, stamped with their cycles.
fn events(recorder: &Recorder) -> Vec<(u64, TraceEvent)> {
    recorder.ring().iter().cloned().collect()
}

/// A run's `cycles stats events trace` columns: its cycle count, an FNV-1a
/// digest of its full `RunStats`, and the length and FNV-1a digest of its
/// complete trace-event stream (every grant, stall reason, indexed access
/// and per-cycle attribution, stamped with its cycle), or `-` for a run
/// whose stream no ring holds. The stream must also pass the audit: its
/// per-cycle attributions add up to the reported Figure-12 breakdown.
fn timing(what: &str, stats: &RunStats, events: Option<&[(u64, TraceEvent)]>) -> String {
    use std::fmt::Write;
    let mut enc = Enc::new();
    stats.encode_state(&mut enc);
    let stats_digest = fnv1a(&enc.into_bytes());
    let Some(events) = events else {
        return format!(
            "cycles={} stats={stats_digest:016x} events=- trace=-",
            stats.cycles
        );
    };
    let mut audit = AuditAccumulator::new();
    events.iter().for_each(|(_, ev)| audit.observe(ev));
    let mismatches = audit.verify(&stats.breakdown);
    assert!(
        mismatches.is_empty(),
        "{what}: the events do not add up to the breakdown: {mismatches:?}"
    );
    let mut stream = String::new();
    for (cycle, ev) in events {
        writeln!(stream, "@{cycle} {ev:?}").expect("write to String");
    }
    format!(
        "cycles={} stats={stats_digest:016x} events={} trace={:016x}",
        stats.cycles,
        events.len(),
        fnv1a(stream.as_bytes())
    )
}

/// `heads visits words ops`: the machine's `HostWork`.
#[cfg(debug_assertions)]
fn host_work(m: &Machine, _: &str, _: &str) -> String {
    let w = m.work();
    format!(
        "heads={} visits={} words={} ops={}",
        w.heads, w.visits, w.words, w.ops
    )
}

/// `heads visits words ops`, copied from the committed line: a release
/// build does not count `HostWork`.
#[cfg(not(debug_assertions))]
fn host_work(_: &Machine, committed: &str, point: &str) -> String {
    let line = Columns::find(committed, point);
    ["heads", "visits", "words", "ops"]
        .map(|c| format!("{c}={}", line.get(c)))
        .join(" ")
}

/// One point's line of `points.digest`, from one preparation and one run.
/// A Small point runs traced through both oracles; a Paper point runs
/// once, under a counters-only recorder on the indexed configs.
fn point_line(app: &str, cfg: ConfigName, profile: Profile, committed: &str) -> String {
    let point = format!("{app} {cfg} {profile:?}");
    let indexed = matches!(cfg, ConfigName::Isrf1 | ConfigName::Isrf4);
    let mut pr = prepare_app(app, cfg, profile);
    let state = pr.machine.save_state(&pr.program);
    let (stats, recorder, timing) = match profile {
        Profile::Small => {
            pr.machine.set_tracer(Tracer::recording(1 << 22));
            let out = diff_point(&mut pr, &point).stats;
            let recorder = pr.machine.take_tracer().into_recorder().expect("recording");
            assert_eq!(recorder.ring().dropped(), 0, "trace ring too small");
            let timing = timing(&point, &out, Some(&events(&recorder)));
            (out, Some(recorder), timing)
        }
        Profile::Paper => {
            if indexed {
                pr.machine.set_tracer(Tracer::recording(0));
            }
            let stats = pr.machine.run(&pr.program);
            pr.check();
            let recorder = pr.machine.take_tracer().into_recorder();
            (stats, recorder, timing(&point, &stats, None))
        }
    };
    let idx = match recorder.filter(|_| indexed) {
        Some(rec) => {
            let c = rec.counters();
            (c.idx_inlane + c.idx_crosslane + c.idx_reject.iter().sum::<u64>()).to_string()
        }
        None => "-".to_string(),
    };
    let work = host_work(&pr.machine, committed, &point);
    let (mem, srf) = (stats.mem, stats.srf);
    format!(
        "{point} state={:016x} bytes={} {timing} idx={idx} {work} out={} rd={} wr={} seq={} inl={} xl={}\n",
        fnv1a(&state),
        state.len(),
        output_digest(&pr),
        mem.bytes_read,
        mem.bytes_written,
        srf.seq_words,
        srf.inlane_words,
        srf.crosslane_words,
    )
}

/// The timing columns of `app` on `cfg` at Small size, paused at `half`
/// cycles, saved, restored into a freshly prepared machine and resumed
/// there (the two event streams stitched), where the memory it leaves must
/// also pass the app's host check.
fn resumed(app: &str, cfg: ConfigName, half: u64) -> String {
    let mut pr = prepare(app, cfg);
    let (paused, first) = traced(&mut pr.machine, |m| m.run_for(&pr.program, half));
    assert_eq!(paused, None, "{app} on {cfg} completed in half its cycles");
    let snapshot = pr.machine.save_state(&pr.program);
    let mut fresh = prepare(app, cfg);
    fresh
        .machine
        .restore_state(&fresh.program, &snapshot)
        .expect("a snapshot restores into an identically prepared machine");
    let (stats, second) = traced(&mut fresh.machine, |m| m.run(&fresh.program));
    fresh.check();
    let mut stream = events(&first);
    stream.extend(events(&second));
    timing(&format!("{app} on {cfg}, resumed"), &stats, Some(&stream))
}

/// The bare cycle loop as the digest's last line: one modulo-scheduled
/// 6-op ALU kernel over two SRF-resident sequential streams, 1024
/// iterations on Base, no memory traffic.
fn hot_loop_line() -> String {
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
    let (stats, recorder) = traced(&mut machine, |m| m.run(&p));
    let timing = timing("hot_loop", &stats, Some(&events(&recorder)));
    format!("hot_loop Base {timing}\n")
}

/// Every point's line of `points.digest`, in its order: each point
/// prepared and simulated once per run of this binary, in parallel, by
/// whichever test asks first.
fn lines() -> &'static [String] {
    static LINES: OnceLock<Vec<String>> = OnceLock::new();
    LINES.get_or_init(|| {
        let committed = committed();
        run_parallel(&points(), |&(app, cfg, profile)| {
            point_line(app, cfg, profile, &committed)
        })
    })
}

/// `columns` of every point's fresh line equal the committed line's, unless
/// `UPDATE_GOLDEN` is rewriting the file. `what` names the drift.
fn columns_match_committed(columns: &[&str], what: &str) {
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        return;
    }
    let digest = committed();
    for line in lines() {
        let got = Columns::all(line).next().expect("one line");
        let point = got.point().collect::<Vec<_>>().join(" ");
        let want = Columns::find(&digest, &point);
        for &column in columns {
            assert_eq!(
                got.get(column),
                want.get(column),
                "{point}: {what} drifted in `{column}`"
            );
        }
    }
}

/// Every number a point has, pinned: all 88 points and the hot loop
/// reproduce their committed lines exactly. Points run in parallel, so the
/// file is also what `run_parallel` returns in input order.
#[test]
fn points_digest_matches_golden_file() {
    let mut got = lines().concat();
    got.push_str(&hot_loop_line());
    golden(POINTS_DIGEST, &got);
}

/// What an app hands the simulator is pinned byte for byte, at both
/// profiles: every point's `state bytes` — the digest and length of
/// `save_state` right after `prepare_app`, over the config and program
/// fingerprints (op and dependence order, kernel and stream names), the
/// memory image, the SRF and its fill map — equal the committed columns.
#[test]
fn prepared_digest_matches_golden_file() {
    columns_match_committed(&["state", "bytes"], "what the app prepared");
}

/// Timing is pinned, not just values: every point's `cycles stats events
/// trace` equal the committed columns, and every Small point gives the
/// same four paused half-way, snapshotted, restored into a freshly
/// prepared machine and resumed ([`resumed`]).
#[test]
fn basket_digest_matches_golden_file() {
    columns_match_committed(&["cycles", "stats", "events", "trace"], "timing");
    let small: Vec<(&str, ConfigName, &str)> = points()
        .into_iter()
        .zip(lines())
        .filter(|((_, _, profile), _)| *profile == Profile::Small)
        .map(|((app, cfg, _), line)| (app, cfg, line.as_str()))
        .collect();
    run_parallel(&small, |&(app, cfg, line)| {
        let straight = Columns::all(line).next().expect("one line");
        let timing = ["cycles", "stats", "events", "trace"]
            .map(|c| format!("{c}={}", straight.get(c)))
            .join(" ");
        assert_eq!(
            resumed(app, cfg, straight.u64("cycles") / 2),
            timing,
            "{app} {cfg} Small: pause, save, restore and resume moved"
        );
    });
}
