//! Read-write data structures in the SRF (the paper's Section 7 future
//! work): every cluster histograms its key stream into bank-resident bins
//! using an in-lane indexed read-modify-write per key.
//! `histogram::prepare(&config, &params, &keys)` builds the point;
//! `run_checked` holds every bin to the exact count of its key, which the
//! hazard demo's keys cannot reach, so it runs the machine itself.
//!
//! ```sh
//! cargo run --release --example histogram
//! ```

use isrf::apps::histogram::{lane_bins, prepare, safe_keys, HistogramParams};
use isrf::core::config::{ConfigName, MachineConfig};

fn main() {
    let params = HistogramParams::default();
    println!(
        "in-SRF histogram: {} keys per cluster into {} bank-resident bins",
        params.keys_per_lane, params.buckets
    );
    let cfg = MachineConfig::preset(ConfigName::Isrf4);
    let stats = prepare(&cfg, &params, &safe_keys(&params)).run_checked();
    println!(
        "ISRF4: {} cycles, {} indexed reads + writes, all counts exact",
        stats.cycles, stats.srf.inlane_words
    );

    // Violate the software hazard discipline on purpose: every iteration
    // updates the same bin, inside the address-FIFO + latency window.
    let keys = vec![0u32; (params.keys_per_lane * 8) as usize];
    let mut hazard = prepare(&cfg, &params, &keys);
    hazard.machine.run(&hazard.program);
    let lanes = lane_bins(&hazard.machine, params.buckets);
    println!(
        "hazard demo: {} back-to-back updates of one bin landed as {} \
         (read-write structures need the interlocks the paper leaves to \
         future work)",
        params.keys_per_lane, lanes[0][0]
    );
}
