//! Encrypt data with real AES-128 (CBC) on all four machine
//! configurations and compare: the table lookups that hammer off-chip
//! memory on the sequential-SRF baseline become cheap in-lane indexed SRF
//! accesses (the paper's headline 4.1x speedup, ~95% traffic reduction).
//! Each point is `rijndael::plan(&config, &params).load().run_checked()`:
//! the app's one entry point, its data loaded, then the run and its host
//! check.
//!
//! ```sh
//! cargo run --release --example aes_encrypt
//! ```

use isrf::apps::rijndael::{plan, RijndaelParams};
use isrf::core::config::ConfigName;

fn main() {
    let params = RijndaelParams::default();
    println!(
        "AES-128 CBC, {} blocks ({} independent streams), FIPS-197 key",
        params.total_blocks(),
        8 * params.chains_per_lane
    );
    println!(
        "{:<8} {:>10} {:>10} {:>12} {:>10}",
        "config", "cycles", "speedup", "DRAM bytes", "MB/s@1GHz"
    );
    let run = |cfg: ConfigName| plan(&cfg.into(), &params).load().run_checked();
    let base = run(ConfigName::Base);
    for cfg in ConfigName::ALL {
        let s = if cfg == ConfigName::Base {
            base
        } else {
            run(cfg)
        };
        let bytes_in = params.total_blocks() as f64 * 16.0;
        let rate = bytes_in / s.cycles as f64 * 1e9 / 1e6;
        println!(
            "{:<8} {:>10} {:>9.2}x {:>12} {:>10.0}",
            cfg.to_string(),
            s.cycles,
            s.speedup_over(&base),
            s.mem.total(),
            rate
        );
    }
    println!("(every run is verified block-for-block against a FIPS-validated reference)");
}
