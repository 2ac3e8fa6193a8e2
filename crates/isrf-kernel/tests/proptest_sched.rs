//! Property tests: for random dataflow kernels, the modulo scheduler's
//! output must satisfy every dependence edge and never oversubscribe a
//! resource in any modulo slot.

use isrf_core::config::{ConfigName, MachineConfig};
use isrf_kernel::graph::build_graph;
use isrf_kernel::ir::{Kernel, OpClass};
use isrf_kernel::sched::{schedule, SchedParams};
use proptest::prelude::*;
use std::collections::BTreeMap;

mod gen;
use gen::build;

fn verify_schedule(k: &Kernel, p: &SchedParams) {
    let s = schedule(k, p).expect("schedulable");
    let g = build_graph(k, &p.model);
    for e in &g.edges {
        assert!(
            s.slots[e.to] as i64 + (s.ii as i64) * e.distance as i64
                >= s.slots[e.from] as i64 + e.latency as i64,
            "violated edge {e:?} at II {}",
            s.ii
        );
    }
    // Modulo resource table: divider occupies its full latency.
    let mut mrt: BTreeMap<(u8, u32), u32> = BTreeMap::new();
    for (i, op) in k.ops.iter().enumerate() {
        let (key, width, cap) = match op.opcode.class() {
            OpClass::Alu => (0u8, 1, p.fu_count as u32),
            OpClass::Divider => (1, p.model.latency(op.opcode).clamp(1, s.ii), 1),
            OpClass::Comm => (2, 1, 1),
            OpClass::Scratch => (3, 1, 1),
            OpClass::StreamPort(sl) => (10 + sl.0, 1, 1),
            OpClass::AddrPort(sl) => (100 + sl.0, 1, 1),
            OpClass::Free => continue,
        };
        for w in 0..width {
            let slot = (s.slots[i] + w) % s.ii;
            let e = mrt.entry((key, slot)).or_insert(0);
            *e += 1;
            assert!(*e <= cap, "resource {key} oversubscribed at slot {slot}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_kernels_schedule_correctly(
        ops in gen::ops(30),
        with_idx in any::<bool>(),
        sep in 2u32..12,
    ) {
        let k = build(&ops, with_idx);
        let p = SchedParams::from_machine(&MachineConfig::preset(ConfigName::Isrf4))
            .with_separations(sep, 20);
        verify_schedule(&k, &p);
    }

    /// II is monotone non-decreasing in the address/data separation.
    #[test]
    fn ii_monotone_in_separation(
        ops in gen::ops(20),
    ) {
        let k = build(&ops, true);
        let base = SchedParams::from_machine(&MachineConfig::preset(ConfigName::Isrf4));
        let mut prev = 0;
        for sep in [2u32, 6, 10] {
            let ii = schedule(&k, &base.clone().with_separations(sep, 20)).unwrap().ii;
            prop_assert!(ii + 2 >= prev, "II dropped sharply: {prev} -> {ii}");
            prev = ii.max(prev);
        }
    }
}
