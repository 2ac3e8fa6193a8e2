//! End-to-end tests of the tracing subsystem: Chrome-trace export on a
//! real simulation (golden file + structural checks), and a property test
//! that the event-stream audit reconstructs the machine's Figure-12 cycle
//! breakdown on randomly generated programs.
//!
//! Regenerate the golden file after an intentional exporter or simulator
//! change with `UPDATE_GOLDEN=1 cargo test --test trace`.

use std::sync::Arc;

use isrf::core::config::{ConfigName, MachineConfig};
use isrf::kernel::ir::{Kernel, KernelBuilder, StreamKind, ValueId};
use isrf::kernel::sched::{schedule, SchedParams};
use isrf::mem::AddrPattern;
use isrf::sim::{Machine, StreamProgram};
use isrf::trace::json::Json;
use isrf::trace::{chrome, CycleAttr, TraceEvent, Tracer};
use proptest::prelude::*;

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
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/copy16_base.trace.json"
    );
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(path)
        .expect("golden file exists (regenerate with UPDATE_GOLDEN=1)");
    assert_eq!(got, want, "trace output drifted from the golden file");
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

// ---- Audit property test on random programs ----

#[derive(Debug, Clone)]
enum Node {
    Input,
    Op(u8, usize, usize),
}

fn build_kernel(nodes: &[Node]) -> Kernel {
    let mut b = KernelBuilder::new("random");
    let input = b.stream("in", StreamKind::SeqIn);
    let output = b.stream("out", StreamKind::SeqOut);
    let x = b.seq_read(input);
    let mut ids: Vec<ValueId> = Vec::with_capacity(nodes.len());
    for n in nodes {
        let id = match *n {
            Node::Input => x,
            Node::Op(code, i, j) => {
                let (a, c) = (ids[i], ids[j]);
                match code % 7 {
                    0 => b.add(a, c),
                    1 => b.sub(a, c),
                    2 => b.mul(a, c),
                    3 => b.and(a, c),
                    4 => b.or(a, c),
                    5 => b.xor(a, c),
                    _ => b.shr(a, c),
                }
            }
        };
        ids.push(id);
    }
    b.seq_write(output, *ids.last().expect("nonempty"));
    b.build().expect("generated kernel is valid")
}

fn node_dag() -> impl Strategy<Value = Vec<Node>> {
    prop::collection::vec(
        (
            any::<u8>(),
            any::<prop::sample::Index>(),
            any::<prop::sample::Index>(),
        ),
        1..16,
    )
    .prop_map(|ops| {
        let mut nodes = vec![Node::Input];
        for (code, i, j) in ops {
            let n = nodes.len();
            nodes.push(Node::Op(code, i.index(n), j.index(n)));
        }
        nodes
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// For any generated program, on both a sequential-only and an indexed
    /// configuration, the audit reconstructed purely from trace events
    /// matches the machine's reported breakdown component for component —
    /// and the per-attribution cycle counts are internally consistent.
    #[test]
    fn audit_reconstructs_breakdown_on_random_programs(
        nodes in node_dag(),
        words in (1u32..8).prop_map(|k| k * 8),
    ) {
        let kernel = Arc::new(build_kernel(&nodes));
        for cfg in [ConfigName::Base, ConfigName::Isrf4] {
            let mcfg = MachineConfig::preset(cfg);
            let sched = schedule(&kernel, &SchedParams::from_machine(&mcfg)).unwrap();
            let mut m = Machine::new(mcfg).unwrap();
            m.set_tracer(Tracer::recording(1 << 16));
            let ib = m.alloc_stream(1, words);
            let ob = m.alloc_stream(1, words);
            let mut p = StreamProgram::new();
            let l = p.load(AddrPattern::contiguous(0, words), ib, false, &[]);
            let kk = p.kernel(Arc::clone(&kernel), sched, vec![ib, ob], (words / 8) as u64, &[l]);
            p.store(ob, AddrPattern::contiguous(0x1_0000, words), false, &[kk]);
            let stats = m.run(&p);
            let rec = m.take_tracer().into_recorder().unwrap();
            let mismatches = rec.audit().verify(&stats.breakdown);
            prop_assert!(mismatches.is_empty(), "config {}: {:?}", cfg, mismatches);
            // The recorder's fixed-slot counters agree with the audit's
            // per-attribution tallies (two independent accumulations).
            for attr in CycleAttr::ALL {
                prop_assert_eq!(
                    rec.counters().cycle_attr[attr.index()],
                    rec.audit().attr_cycles(attr),
                    "attr {:?}", attr
                );
            }
        }
    }
}
