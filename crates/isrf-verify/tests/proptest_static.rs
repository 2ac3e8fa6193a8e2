//! Properties of the static analyses:
//!
//! * the cost model's cycle floor is a true lower bound on simulated
//!   cycles, over the [`isrf_gen::Recipe`] corpus on all four presets;
//! * whole-program propagation is monotone at the API level — every
//!   constant a producer can emit inside the out-of-bounds region keeps
//!   the V310 verdict (and the reported interval is exact), while every
//!   in-bounds constant keeps the program clean.

use std::sync::Arc;

use proptest::prelude::*;

use isrf_core::config::{ConfigName, MachineConfig};
use isrf_gen::Recipe;
use isrf_kernel::sched::{schedule, SchedParams};
use isrf_lang::parse_kernel;
use isrf_sim::{SrfRange, StreamBinding, StreamProgram, VerifyEnv};
use isrf_verify::{codes, cost_model, Verifier};

/// Producer writing the constant `{C}` into every record of `idx`.
const PRODUCER_SRC: &str = r#"
kernel make_idx(istream<int> in, ostream<int> idx) {
  int a, b;
  while (!eos(in)) {
    in >> a;
    b = {C};
    idx << b;
  }
}
"#;

const CONSUMER_SRC: &str = r#"
kernel lookup_dyn(
    istream<int> idx,
    idxl_istream<int> LUT,
    ostream<int> out) {
  int a, b;
  while (!eos(idx)) {
    idx >> a;
    LUT[a] >> b;
    out << b;
  }
}
"#;

/// The V310 producer/consumer pair with the produced constant `c`, its
/// input and table written before it runs.
fn build_pair(c: i64) -> (MachineConfig, VerifyEnv, StreamProgram) {
    let cfg = MachineConfig::preset(ConfigName::Isrf4);
    let src = PRODUCER_SRC.replace("{C}", &c.to_string());
    let maker = Arc::new(parse_kernel(&src).expect("producer parses"));
    let params = SchedParams::from_machine(&cfg);
    let ms = schedule(&maker, &params).expect("producer schedules");
    let consumer = Arc::new(parse_kernel(CONSUMER_SRC).expect("consumer parses"));
    let cs = schedule(&consumer, &params).expect("consumer schedules");
    let lanes = cfg.lanes as u32;
    let at = |base, words_per_bank| {
        let range = SrfRange {
            base,
            words_per_bank,
        };
        StreamBinding::whole(range, 1, words_per_bank * lanes)
    };
    // Per bank: input, index, table (valid records 0..=63), output.
    let (input, idx, lut, out) = (at(0, 8), at(8, 8), at(16, 64), at(80, 8));
    let env = VerifyEnv {
        allocated_words_per_bank: 88,
        filled: vec![(0, 8), (16, 80)],
    };
    let mut p = StreamProgram::new();
    let prod = p.kernel(maker, ms, vec![input, idx], 8, &[]);
    p.kernel(consumer, cs, vec![idx, lut, out], 8, &[prod]);
    (cfg, env, p)
}

#[test]
fn static_cycle_floor_is_sound() {
    for r in Recipe::corpus(48) {
        for cfg in ConfigName::ALL {
            let mcfg = MachineConfig::preset(cfg);
            if r.indexed && mcfg.srf.indexed.is_none() {
                continue;
            }
            let g = r.generate(&mcfg).expect("the corpus schedules");
            Verifier::new()
                .verify(&g.cfg, &g.env, &g.program)
                .expect("the corpus verifies clean");
            let mut m = g.materialise();
            let floor = cost_model(&g.cfg, &g.program).cycle_floor;
            let cycles = m.run(&g.program).cycles;
            assert!(
                floor <= cycles,
                "floor {floor} exceeds simulated {cycles} on {cfg}: {r:?}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn propagation_flags_exactly_the_oob_constants(c in 0i64..512) {
        let (cfg, env, p) = build_pair(c);
        let d = Verifier::new().verify(&cfg, &env, &p).err().map_or_else(Vec::new, |e| e.diagnostics);
        if c > 63 {
            // Everywhere in the OOB region the verdict (and the exact
            // propagated interval) must hold — widening the constant can
            // never lose the finding.
            prop_assert_eq!(d.len(), 1, "{:?}", &d);
            prop_assert_eq!(&d[0].code, codes::PROPAGATED_INDEX_OOB);
            let want = format!("[{c}, {c}]");
            prop_assert!(d[0].message.contains(&want), "{}", &d[0]);
        } else {
            prop_assert!(d.is_empty(), "in-bounds constant flagged: {:?}", &d);
        }
    }
}
