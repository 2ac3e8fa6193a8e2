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

/// Build the machine `cfg` describes. Every app, and the server's
/// inline-source harness, gets its machine here, from the final config.
/// The machine never verifies: [`Prepared::run_checked`] and the server's
/// runner call [`Verifier::verify`] before they simulate.
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
    Machine::new(cfg.clone()).unwrap_or_else(|e| panic!("{e}"))
}

/// An app's run before its data: everything [`Verifier::verify`] reads,
/// and the load stage that builds the rest. The machine has its config,
/// its SRF allocation and every interval the load will fill marked
/// ([`Machine::note_program_fills`] for a setup program,
/// [`Machine::note_filled`] for a stream the load writes); its memory is
/// empty and it has not simulated a cycle. [`Plan::load`] runs the load —
/// host data generation, memory image, SRF data, setup program — and
/// returns the [`Prepared`] run.
pub struct Plan {
    /// The machine, SRF allocated, nothing loaded.
    pub machine: Machine,
    /// The measured stream program.
    pub program: StreamProgram,
    /// Memory regions `(base, words)` the program's output lands in.
    pub outputs: Vec<(u32, u32)>,
    load: Box<dyn FnOnce(&mut Machine) + Send>,
    check: Box<dyn Fn(&Machine) + Send>,
}

impl Plan {
    /// Assemble a plan. `load` builds the machine's data and runs any
    /// setup program; `check` is the app's host-reference check (see
    /// [`Prepared::new`]).
    pub fn new(
        machine: Machine,
        program: StreamProgram,
        outputs: Vec<(u32, u32)>,
        load: impl FnOnce(&mut Machine) + Send + 'static,
        check: impl Fn(&Machine) + Send + 'static,
    ) -> Plan {
        Plan {
            machine,
            program,
            outputs,
            load: Box::new(load),
            check: Box::new(check),
        }
    }

    /// Run the load stage: the machine ready to run the measured program.
    pub fn load(self) -> Prepared {
        let Plan {
            mut machine,
            program,
            outputs,
            load,
            check,
        } = self;
        load(&mut machine);
        Prepared::new(machine, program, outputs, check)
    }
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
    /// Assemble a prepared benchmark, backing the memory chunk that holds
    /// the last word of each output region up front. Unwritten words read
    /// as zero either way, so this is invisible to results and cycle
    /// counts; it keeps that chunk's zeroed allocation out of the measured
    /// `Machine::run` call. No output region of the registry's 64 points
    /// spans two chunks, so a run backs a new chunk only for data outside
    /// them (fft2d Base/Cache's reorder scratch). `check` is the app's
    /// host-reference check: it panics when the machine's final memory is
    /// not what the host computes.
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

    /// Verify the measured program ([`Verifier::verify`]), run it to
    /// completion, then [`Prepared::check`].
    ///
    /// # Panics
    ///
    /// Panics with the verifier's findings, and as [`Machine::run`] and
    /// [`Prepared::check`] do.
    pub fn run_checked(&mut self) -> RunStats {
        let m = &self.machine;
        Verifier::new()
            .verify(m.config(), &m.verify_env(), &self.program)
            .unwrap_or_else(|e| panic!("{e}"));
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
    let span = b + 2 * halo;
    let lines = (0..8 * span).map(|i| {
        let row = (row0 + i / span * b + i % span) as i32 - halo as i32;
        row.clamp(0, rows as i32 - 1) as u32
    });
    image_rows(base, cols, lines)
}

/// Store pattern for one strip of per-lane row blocks: row record
/// `l + 8*j` is row `j` of lane `l`'s block, image row `row0 + l*b + j`.
pub(crate) fn lane_block_store(base: u32, cols: u32, b: u32, row0: u32) -> AddrPattern {
    image_rows(base, cols, (0..8 * b).map(|i| row0 + i % 8 * b + i / 8))
}

/// The word addresses of image rows `lines`, in order, of a `cols`-wide
/// image at `base`, written in place into the list's one allocation.
fn image_rows(base: u32, cols: u32, lines: impl ExactSizeIterator<Item = u32>) -> AddrPattern {
    let mut addrs: Arc<[u32]> = std::iter::repeat_n(0, lines.len() * cols as usize).collect();
    let words = Arc::get_mut(&mut addrs).expect("a list just built has one owner");
    for (out, row) in words.chunks_exact_mut(cols as usize).zip(lines) {
        for (a, w) in out.iter_mut().zip(base + row * cols..) {
            *a = w;
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
