//! The schedule and tape memos under an endless supply of distinct
//! kernels: resident entries never exceed the budgets, and a kernel that
//! keeps being asked for is scheduled and compiled exactly once. In a test
//! binary of its own: the memos are process-wide.

use std::sync::Arc;

use isrf_core::config::{ConfigName, MachineConfig};
use isrf_kernel::ir::{Kernel, KernelBuilder, StreamKind};
use isrf_kernel::sched::{schedule_cached, SchedParams, SCHEDULES, SCHEDULE_BUDGET};
use isrf_sim::cached_tape;
use isrf_sim::tape::{TAPES, TAPE_BUDGET};

/// `out = in * c`: one op, and a content hash of its own per `c`.
fn one_op(c: u32) -> Kernel {
    let mut b = KernelBuilder::new("one_op");
    let i = b.stream("in", StreamKind::SeqIn);
    let o = b.stream("out", StreamKind::SeqOut);
    let x = b.seq_read(i);
    let k = b.constant(c);
    let y = b.mul(x, k);
    b.seq_write(o, y);
    b.build().unwrap()
}

fn stat(stats: [(&'static str, u64); 5], name: &str) -> u64 {
    stats.iter().find(|(n, _)| *n == name).expect("a stat").1
}

#[test]
fn distinct_kernels_never_outgrow_the_budgets_and_the_hot_one_stays() {
    let params = SchedParams::from_machine(&MachineConfig::preset(ConfigName::Base));
    let hot = one_op(0);
    let hot_sched = schedule_cached(&hot, &params).unwrap();
    let hot_tape = cached_tape(&hot, &hot_sched, 8);
    for c in 1..=4 * SCHEDULE_BUDGET.max(TAPE_BUDGET) as u32 {
        let cold = one_op(c);
        let sched = schedule_cached(&cold, &params).unwrap();
        cached_tape(&cold, &sched, 8);
        if c % 256 == 0 {
            // Pointer-equal to the first answer: never recomputed, so the
            // hot kernel missed exactly once however many sweeps went by.
            let again = schedule_cached(&hot, &params).unwrap();
            assert!(Arc::ptr_eq(&again, &hot_sched), "after {c} kernels");
            assert!(Arc::ptr_eq(&cached_tape(&hot, &again, 8), &hot_tape));
        }
        assert!(stat(SCHEDULES.stats(), "entries") <= SCHEDULE_BUDGET);
        assert!(stat(TAPES.stats(), "entries") <= TAPE_BUDGET);
    }
    // Four budgets' worth went in: most of it was swept out again.
    assert!(stat(SCHEDULES.stats(), "evictions") >= 2 * SCHEDULE_BUDGET);
    assert!(stat(TAPES.stats(), "evictions") >= 2 * TAPE_BUDGET);
    assert_eq!(
        stat(SCHEDULES.stats(), "misses"),
        1 + 4 * SCHEDULE_BUDGET.max(TAPE_BUDGET)
    );
}
