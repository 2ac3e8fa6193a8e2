//! Run the 64x64 2D FFT on all configurations: the baseline rotates the
//! array through off-chip memory between dimensions (Figure 3a), the
//! indexed SRF transforms the second dimension in place with in-lane
//! indexed accesses (Figure 3b), and the cache captures the reorder but
//! still executes it. Each point is `fft2d::prepare(&config,
//! &params).run_checked()`: the app's one entry point, then the run and its
//! host check.
//!
//! ```sh
//! cargo run --release --example fft2d
//! ```

use isrf::apps::fft2d::{prepare, Fft2dParams};
use isrf::core::config::ConfigName;

fn main() {
    let params = Fft2dParams::default();
    println!("64x64 complex 2D FFT, {} frames", params.reps);
    println!(
        "{:<8} {:>10} {:>9} {:>12} {:>13}",
        "config", "cycles", "speedup", "DRAM bytes", "idx SRF words"
    );
    let run = |cfg: ConfigName| prepare(&cfg.into(), &params).run_checked();
    let base = run(ConfigName::Base);
    for cfg in ConfigName::ALL {
        let s = if cfg == ConfigName::Base {
            base
        } else {
            run(cfg)
        };
        println!(
            "{:<8} {:>10} {:>8.2}x {:>12} {:>13}",
            cfg.to_string(),
            s.cycles,
            s.speedup_over(&base),
            s.mem.total(),
            s.srf.inlane_words
        );
    }
    println!("(outputs are verified against a naive double-precision DFT)");
}
