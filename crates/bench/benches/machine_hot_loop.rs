//! Micro-bench for the bare cycle loop: one modulo-scheduled ALU kernel
//! over SRF-resident streams, zero memory traffic. This is the same
//! workload the `perf` binary reports as `machine_hot_loop`.

use criterion::{criterion_group, criterion_main, Criterion};
use isrf_bench::perf::hot_loop_prepared;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("machine_hot_loop");
    g.sample_size(20);
    g.bench_function("single_kernel_no_mem", |b| {
        let (mut m, p) = hot_loop_prepared();
        b.iter(|| m.run(&p))
    });
    g.bench_function("prepare_and_run", |b| {
        b.iter(|| {
            let (mut m, p) = hot_loop_prepared();
            m.run(&p)
        })
    });
    g.finish();

    let (mut m, p) = hot_loop_prepared();
    let stats = m.run(&p);
    println!(
        "\nmachine_hot_loop: {} cycles, no memory traffic",
        stats.cycles
    );
}

criterion_group!(benches, bench);
criterion_main!(benches);
