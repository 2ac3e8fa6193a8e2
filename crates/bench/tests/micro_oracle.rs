//! The microkernels of Figures 17 and 18 through the differential oracle
//! at the corners of their sweeps: the machine's final SRF, memory and
//! indexed word counts against the reference executor's, then the output
//! against the host check.

use isrf_apps::common::Prepared;
use isrf_bench::micro;
use isrf_check::run_differential;

fn agree(point: &str, mut p: Prepared) {
    run_differential(&mut p.machine, &p.program, &p.outputs)
        .unwrap_or_else(|e| panic!("{point}: {e}"));
    p.check();
}

#[test]
fn fig17_kernel_matches_the_reference() {
    for (subarrays, fifo) in [(4, 8), (1, 1)] {
        let point = format!("Figure 17, {subarrays} sub-arrays, FIFO {fifo}");
        agree(&point, micro::inlane(subarrays, fifo, 8).load());
    }
}

#[test]
fn fig18_kernel_matches_the_reference() {
    for (ports, comms) in [(1, 2), (4, 0)] {
        let point = format!("Figure 18, {ports} ports, {comms} Comm ops");
        agree(&point, micro::crosslane(ports, comms).load());
    }
}
