//! Cross-check between the differential harness and the static cost
//! model: on synthetic programs that pass the reference-executor
//! differential, `isrf_verify::cost_model`'s whole-program cycle floor
//! must be a true lower bound on the cycle-accurate machine. The
//! app-suite version of this check is `crates/bench/tests/analyzer.rs`;
//! this test keeps the property wired into the differential suite itself,
//! on programs the apps never exercise.

use std::sync::Arc;

use isrf_check::run_differential;
use isrf_core::config::{ConfigName, MachineConfig};
use isrf_core::Word;
use isrf_kernel::sched::{schedule, SchedParams};
use isrf_mem::AddrPattern;
use isrf_sim::machine::Machine;
use isrf_sim::program::StreamProgram;
use isrf_sim::{ProgramVerifier, StreamBinding};
use isrf_verify::{cost_model, Verifier};

const SCALE_SRC: &str = r#"
kernel scale(istream<int> in, ostream<int> out) {
  int a, c;
  while (!eos(in)) {
    in >> a;
    c = a * 2 + 3;
    out << c;
  }
}
"#;

const LOOKUP_SRC: &str = r#"
kernel lookup(istream<int> in, idxl_istream<int> LUT, ostream<int> out) {
  int a, b;
  while (!eos(in)) {
    in >> a;
    LUT[a & 7] >> b;
    out << b;
  }
}
"#;

fn fill(m: &mut Machine, b: &StreamBinding, salt: u32) {
    let data: Vec<Word> = (0..b.words())
        .map(|k| k.wrapping_mul(0x9e37_79b9).wrapping_add(salt))
        .collect();
    m.write_stream(b, &data);
}

/// Build a load → kernel → store point; `lookup` adds an in-lane indexed
/// table when the config supports indexed access.
fn build(name: ConfigName, lookup: bool) -> (Machine, StreamProgram, Vec<(u32, u32)>) {
    let cfg = MachineConfig::preset(name);
    let mut m = Machine::new(cfg).unwrap();
    let lanes = m.config().lanes as u32;
    let records = 16 * lanes;
    let params = SchedParams::from_machine(m.config());

    let input = m.alloc_stream(1, records);
    let out = m.alloc_stream(1, records);
    for i in 0..records {
        m.mem_mut().memory_mut().write(i, i + 1);
    }
    let mut p = StreamProgram::new();
    let l = p.load(AddrPattern::contiguous(0, records), input, false, &[]);
    let kid = if lookup {
        let k = Arc::new(isrf_lang::parse_kernel(LOOKUP_SRC).unwrap());
        let s = schedule(&k, &params).unwrap();
        let lut = m.alloc_stream(1, 8 * lanes);
        fill(&mut m, &lut, 0xa5);
        p.kernel(k, s, vec![input, lut, out], 16, &[l])
    } else {
        let k = Arc::new(isrf_lang::parse_kernel(SCALE_SRC).unwrap());
        let s = schedule(&k, &params).unwrap();
        p.kernel(k, s, vec![input, out], 16, &[l])
    };
    p.store(out, AddrPattern::contiguous(20_000, records), false, &[kid]);
    (m, p, vec![(20_000, records)])
}

#[test]
fn static_floor_bounds_differentially_checked_points() {
    for name in ConfigName::ALL {
        let indexed = MachineConfig::preset(name).srf.indexed.is_some();
        for lookup in [false, true] {
            if lookup && !indexed {
                continue;
            }
            // The point must be analyzer-clean before the floor means
            // anything.
            let (mut m, p, regions) = build(name, lookup);
            let diags = Verifier::new().verify(m.config(), &m.verify_env(), &p);
            assert!(diags.is_empty(), "{name:?} lookup={lookup}: {diags:?}");
            let floor = cost_model(m.config(), &p).cycle_floor;
            assert!(floor > 0, "{name:?} lookup={lookup}: zero floor");

            let out = run_differential(&mut m, &p, &regions)
                .unwrap_or_else(|e| panic!("{name:?} lookup={lookup} diverged: {e}"));
            assert!(
                floor <= out.stats.cycles,
                "{name:?} lookup={lookup}: floor {floor} > simulated {}",
                out.stats.cycles
            );
        }
    }
}
