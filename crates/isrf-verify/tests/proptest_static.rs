//! Properties of the static analyses over random well-formed programs:
//!
//! * the cost model's cycle floor is a true lower bound on simulated
//!   cycles;
//! * whole-program propagation is monotone at the API level — every
//!   constant a producer can emit inside the out-of-bounds region keeps
//!   the V310 verdict (and the reported interval is exact), while every
//!   in-bounds constant keeps the program clean.

use std::sync::Arc;

use proptest::prelude::*;

use isrf_core::config::{ConfigName, MachineConfig};
use isrf_core::Word;
use isrf_kernel::sched::{schedule, SchedParams};
use isrf_lang::parse_kernel;
use isrf_mem::AddrPattern;
use isrf_sim::{Machine, ProgramVerifier, StreamBinding, StreamProgram};
use isrf_verify::{codes, cost_model, Verifier};

const ARITH_SRC: &str = r#"
kernel arith(istream<int> in, ostream<int> out) {
  int a, c;
  while (!eos(in)) {
    in >> a;
    c = a * 3 + 1;
    out << c;
  }
}
"#;

const LOOKUP_SRC: &str = r#"
kernel lookup(
    istream<int> in,
    idxl_istream<int> LUT,
    ostream<int> out) {
  int a, b, c;
  while (!eos(in)) {
    in >> a;
    LUT[a & 15] >> b;
    c = a + b;
    out << c;
  }
}
"#;

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

fn fill(m: &mut Machine, b: &StreamBinding, salt: u32) {
    let data: Vec<Word> = (0..b.words())
        .map(|k| (k.wrapping_mul(2654435761).wrapping_add(salt) % 16) as Word)
        .collect();
    m.write_stream(b, &data);
}

/// A load → kernel → store pipeline exercising both the kernel and the
/// memory halves of the cost model.
fn build(
    name: ConfigName,
    records_per_lane: u32,
    use_lookup: bool,
    salt: u32,
) -> (Machine, StreamProgram) {
    let cfg = MachineConfig::preset(name);
    let indexed = cfg.srf.indexed.is_some();
    let mut m = Machine::new(cfg).expect("preset validates");
    let lanes = m.config().lanes as u32;
    let records = records_per_lane * lanes;

    let mut p = StreamProgram::new();
    let input = m.alloc_stream(1, records);
    let out = m.alloc_stream(1, records);
    let l = p.load(AddrPattern::contiguous(0, records), input, false, &[]);
    let kid = if use_lookup && indexed {
        let k = Arc::new(parse_kernel(LOOKUP_SRC).expect("lookup parses"));
        let s = schedule(&k, &SchedParams::from_machine(m.config())).expect("lookup schedules");
        let lut = m.alloc_stream(1, 16 * lanes);
        fill(&mut m, &lut, salt ^ 0xa5a5);
        p.kernel(k, s, vec![input, lut, out], records_per_lane as u64, &[l])
    } else {
        let k = Arc::new(parse_kernel(ARITH_SRC).expect("arith parses"));
        let s = schedule(&k, &SchedParams::from_machine(m.config())).expect("arith schedules");
        p.kernel(k, s, vec![input, out], records_per_lane as u64, &[l])
    };
    p.store(out, AddrPattern::contiguous(8192, records), false, &[kid]);
    (m, p)
}

/// The V310 producer/consumer pair with the produced constant `c`.
fn build_pair(c: i64) -> (Machine, StreamProgram) {
    let mut m = Machine::new(MachineConfig::preset(ConfigName::Isrf4)).expect("preset validates");
    let src = PRODUCER_SRC.replace("{C}", &c.to_string());
    let maker = Arc::new(parse_kernel(&src).expect("producer parses"));
    let params = SchedParams::from_machine(m.config());
    let ms = schedule(&maker, &params).expect("producer schedules");
    let consumer = Arc::new(parse_kernel(CONSUMER_SRC).expect("consumer parses"));
    let cs = schedule(&consumer, &params).expect("consumer schedules");
    let lanes = m.config().lanes as u32;
    let input = m.alloc_stream(1, 8 * lanes);
    fill(&mut m, &input, 1);
    let idx = m.alloc_stream(1, 8 * lanes);
    let lut = m.alloc_stream(1, 64 * lanes); // valid records 0..=63
    fill(&mut m, &lut, 2);
    let out = m.alloc_stream(1, 8 * lanes);
    let mut p = StreamProgram::new();
    let prod = p.kernel(maker, ms, vec![input, idx], 8, &[]);
    p.kernel(consumer, cs, vec![idx, lut, out], 8, &[prod]);
    (m, p)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn static_cycle_floor_is_sound(
        cfg_idx in 0usize..4,
        records_per_lane in 1u32..8,
        use_lookup in any::<bool>(),
        salt in any::<u32>(),
    ) {
        let name = ConfigName::ALL[cfg_idx];
        let (mut m, p) = build(name, records_per_lane, use_lookup, salt);
        let d = Verifier::new().verify(m.config(), &m.verify_env(), &p);
        prop_assert!(d.is_empty(), "well-formed program rejected: {d:?}");
        let floor = cost_model(m.config(), &p).cycle_floor;
        let cycles = m.run(&p).cycles;
        prop_assert!(
            floor <= cycles,
            "floor {floor} exceeds simulated {cycles} on {name}"
        );
    }

    #[test]
    fn propagation_flags_exactly_the_oob_constants(c in 0i64..512) {
        let (m, p) = build_pair(c);
        let d = Verifier::new().verify(m.config(), &m.verify_env(), &p);
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
