//! Sweep the four Table 4 irregular-graph datasets: the baseline gathers
//! replicated neighbor records from memory; the indexed SRF keeps one
//! condensed copy per strip and reaches it with cross-lane indexed reads,
//! roughly doubling the strip size in the same SRF budget. Each point is
//! `igraph::plan(&config, &dataset).load().run_checked()`: the app's one
//! entry point, its data loaded, then the run and its host check.
//!
//! ```sh
//! cargo run --release --example irregular_graph
//! ```

use isrf::apps::igraph::{plan, DATASETS};
use isrf::core::config::ConfigName;

fn main() {
    println!(
        "{:<8} {:>7} {:>7} {:>11} {:>11} {:>9} {:>13}",
        "dataset", "FP/nbr", "degree", "Base cyc", "ISRF4 cyc", "speedup", "traffic ratio"
    );
    for ds in &DATASETS {
        let base = plan(&ConfigName::Base.into(), ds).load().run_checked();
        let isrf = plan(&ConfigName::Isrf4.into(), ds).load().run_checked();
        println!(
            "{:<8} {:>7} {:>7} {:>11} {:>11} {:>8.2}x {:>13.3}",
            ds.name,
            ds.fp_ops,
            ds.degree,
            base.cycles,
            isrf.cycles,
            isrf.speedup_over(&base),
            isrf.mem.normalized_to(&base.mem)
        );
    }
    println!("(node updates are verified against a host-side sweep)");
}
