//! Shared benchmark plumbing.

use std::sync::Arc;

use isrf_core::config::MachineConfig;
use isrf_core::stats::RunStats;
use isrf_core::Memo;
use isrf_kernel::ir::Kernel;
use isrf_kernel::sched::{schedule_cached, SchedParams, Schedule};
use isrf_mem::AddrPattern;
use isrf_sim::{Machine, StreamProgram};
use isrf_verify::Verifier;

/// The host data `memo` holds under `key`, generated on a miss.
pub(crate) fn memoized<K: Ord, V>(memo: &Memo<K, V>, key: K, make: impl FnOnce() -> V) -> Arc<V> {
    let Ok(data) =
        memo.get_or_try_insert_with(key, 1, || Ok::<_, std::convert::Infallible>(make()));
    data
}

/// Build the machine `cfg` describes, with the static hazard analyzer
/// installed: the machine runs it before each program in debug builds (so
/// the test suite proves every shipped program verifies clean) and never
/// in release builds. Every app, and the server's inline-source harness,
/// gets its machine here, from the final config — a machine rebuilt
/// elsewhere would lose the verifier.
///
/// # Panics
///
/// Panics if `cfg.lanes` is not 8 (the apps lay their data out for eight
/// lanes) or `cfg` fails validation.
pub fn machine(cfg: &MachineConfig) -> Machine {
    assert_eq!(
        cfg.lanes, 8,
        "MachineConfig::lanes must be 8: the apps lay their data out for eight lanes"
    );
    let mut m = Machine::new(cfg.clone()).unwrap_or_else(|e| panic!("{e}"));
    m.set_verifier(Some(Arc::new(Verifier::new())));
    m
}

/// A benchmark run split at the machine/program boundary: the machine is
/// fully set up (data laid out in memory and the SRF, any un-measured
/// setup program already executed) and `program` is the measured stream
/// program. `machine.run(&program)` produces the benchmark's stats; the
/// split exists so a differential harness can execute the same program on
/// an independent functional reference executor and compare outcomes.
pub struct Prepared {
    /// The machine, ready to run the measured program.
    pub machine: Machine,
    /// The measured stream program.
    pub program: StreamProgram,
    /// Memory regions `(base, words)` holding the benchmark's final
    /// output, for word-level result diffing.
    pub outputs: Vec<(u32, u32)>,
    /// The app's host-reference check of a finished machine. It holds the
    /// params and the memoized host data; the reference itself is computed
    /// when the check is called, so preparing costs nothing for it.
    check: Box<dyn Fn(&Machine) + Send>,
}

impl Prepared {
    /// Assemble a prepared benchmark, growing the functional memory over
    /// the declared output regions up front. Unwritten words read as
    /// zero either way, so this is invisible to results and cycle
    /// counts — it just keeps the one-time backing-store grow (a
    /// multi-megabyte zeroed `realloc` for apps with high output bases)
    /// out of the measured `Machine::run` call. `check` is the app's
    /// host-reference check: it panics when the machine's final memory
    /// is not what the host computes.
    pub fn new(
        mut machine: Machine,
        program: StreamProgram,
        outputs: Vec<(u32, u32)>,
        check: impl Fn(&Machine) + Send + 'static,
    ) -> Prepared {
        for &(base, words) in &outputs {
            if words > 0 {
                let mem = machine.mem_mut().memory_mut();
                let last = base + (words - 1);
                mem.write(last, mem.read(last));
            }
        }
        Prepared {
            machine,
            program,
            outputs,
            check: Box::new(check),
        }
    }

    /// Check the machine's memory against the app's host reference; call
    /// it after the program has run.
    ///
    /// # Panics
    ///
    /// Panics on the first word that differs from the reference.
    pub fn check(&self) {
        (self.check)(&self.machine);
    }

    /// Run the measured program to completion, then [`Prepared::check`].
    ///
    /// # Panics
    ///
    /// Panics as [`Machine::run`] and [`Prepared::check`] do.
    pub fn run_checked(&mut self) -> RunStats {
        let stats = self.machine.run(&self.program);
        self.check();
        stats
    }
}

/// Schedule a kernel with the machine's parameters.
///
/// Memoized by kernel/parameter content hash: repeat invocations across
/// iterations, configurations, and parallel sweep workers share one
/// scheduling run (and one `Arc`, so the simulator's tape memo hits too).
///
/// # Panics
///
/// Panics if the kernel cannot be scheduled — benchmark kernels are fixed,
/// so this indicates a bug, not an input condition.
pub fn schedule_for(m: &Machine, k: &Kernel) -> Arc<Schedule> {
    schedule_cached(k, &SchedParams::from_machine(m.config()))
        .unwrap_or_else(|e| panic!("scheduling benchmark kernel failed: {e}"))
}

/// Address pattern that loads a `entries`-word table from memory at `base`
/// into an SRF stream replicated once per lane: global record `r` receives
/// `table[r / lanes]`, so lane-local record `i` is `table[i]` in every
/// lane.
pub fn replicated_table_pattern(base: u32, entries: u32, lanes: u32) -> AddrPattern {
    AddrPattern::Indexed((0..entries * lanes).map(|r| base + r / lanes).collect())
}

/// Load pattern for one strip of per-lane row blocks of a `cols`-wide
/// image at `base`: lane `l`'s record is rows `row0 + l*b - halo ..` of
/// the image, `b + 2*halo` of them, clamped to `[0, rows)`.
pub(crate) fn lane_block_load(
    base: u32,
    cols: u32,
    b: u32,
    halo: u32,
    row0: u32,
    rows: u32,
) -> AddrPattern {
    let mut addrs = Vec::with_capacity((8 * (b + 2 * halo) * cols) as usize);
    for lane in 0..8u32 {
        for br in 0..b + 2 * halo {
            let row = (row0 + lane * b + br) as i32 - halo as i32;
            let row = row.clamp(0, rows as i32 - 1) as u32;
            addrs.extend((0..cols).map(|c| base + row * cols + c));
        }
    }
    AddrPattern::Indexed(addrs)
}

/// Store pattern for one strip of per-lane row blocks: row record
/// `l + 8*j` is row `j` of lane `l`'s block, image row `row0 + l*b + j`.
pub(crate) fn lane_block_store(base: u32, cols: u32, b: u32, row0: u32) -> AddrPattern {
    let mut addrs = Vec::with_capacity((8 * b * cols) as usize);
    for j in 0..b {
        for lane in 0..8u32 {
            let row = row0 + lane * b + j;
            addrs.extend((0..cols).map(|c| base + row * cols + c));
        }
    }
    AddrPattern::Indexed(addrs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use isrf_core::config::ConfigName;

    #[test]
    fn replication_pattern_layout() {
        let p = replicated_table_pattern(100, 4, 8);
        let a = p.to_addrs();
        assert_eq!(a.len(), 32);
        assert_eq!(&a[0..8], &[100; 8]);
        assert_eq!(&a[8..16], &[101; 8]);
        assert_eq!(a[31], 103);
    }

    #[test]
    fn machines_build() {
        for c in ConfigName::ALL {
            let m = machine(&c.into());
            assert_eq!(m.config().lanes, 8);
        }
    }
}
