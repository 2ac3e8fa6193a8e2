//! Differential checking for the indexed-SRF simulator.
//!
//! The cycle-accurate [`isrf_sim::Machine`] interleaves memory transfers,
//! SRF-port arbitration and modulo-scheduled kernels; a timing bug there
//! can silently corrupt data while every benchmark still "runs". This
//! crate provides the oracle and harness that keep it honest:
//!
//! * [`refexec::RefMachine`] — a timing-free *reference executor* that
//!   interprets a [`isrf_sim::StreamProgram`] using only the ISA
//!   semantics: program ops in dependence order, kernels iteration by
//!   iteration in operation order. No schedules, buffers, arbitration or
//!   latencies are consulted, so agreement with the machine validates the
//!   timing model's functional transparency.
//! * [`diff`] — runs a prepared machine and its reference twin over the
//!   same program and compares final memory and SRF contents word for
//!   word, plus the indexed-access counts against [`isrf_core::stats`].
//! * [`sweep`] — a deterministic parallel driver fanning independent
//!   simulation points across OS threads, with results in input order so
//!   parallel and serial sweeps are byte-identical.
//! * [`golden()`] — the one way a test holds output to a committed file,
//!   and [`Columns`], the one way a test reads a committed digest's line.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diff;
pub mod refexec;
pub mod sweep;

pub use diff::{run_differential, DiffError, DiffFailure, DiffOutcome};
pub use refexec::{RefCounts, RefMachine};
pub use sweep::{run_parallel, run_serial};

/// Hold `got` to the committed golden file at `path`, panicking with the
/// first line that drifted. With `UPDATE_GOLDEN` set in the environment it
/// writes `got` to `path` instead, so `UPDATE_GOLDEN=1 cargo test`
/// regenerates every golden of the workspace.
pub fn golden(path: impl AsRef<std::path::Path>, got: &str) {
    let path = path.as_ref();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, got).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        return;
    }
    let want = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!(
            "read {}: {e} (create it with UPDATE_GOLDEN=1)",
            path.display()
        )
    });
    if got == want {
        return;
    }
    let line = got
        .lines()
        .zip(want.lines())
        .take_while(|(g, w)| g == w)
        .count();
    panic!(
        "output drifted from {} at line {}\n  got:  {}\n  want: {}\n\
         regenerate with UPDATE_GOLDEN=1 cargo test if the change is intended",
        path.display(),
        line + 1,
        got.lines().nth(line).unwrap_or("<end of output>"),
        want.lines().nth(line).unwrap_or("<end of file>"),
    );
}

/// `tests/golden/points.digest`: one line of [`Columns`] per (app, config,
/// profile) point, which `tests/differential.rs` writes and every other
/// test that needs a point's numbers reads.
pub const POINTS_DIGEST: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/points.digest"
);

/// The committed [`POINTS_DIGEST`], read whole.
pub fn points_digest() -> String {
    std::fs::read_to_string(POINTS_DIGEST).unwrap_or_else(|e| panic!("read {POINTS_DIGEST}: {e}"))
}

/// The `out` column of `tests/golden/points.digest`: the FNV-1a digest of
/// a run's output words, little-endian, in output-region order.
pub fn words_digest(words: impl IntoIterator<Item = isrf_core::Word>) -> String {
    let bytes: Vec<u8> = words.into_iter().flat_map(u32::to_le_bytes).collect();
    format!("{:016x}", isrf_core::snap::fnv1a(&bytes))
}

/// One line of a committed digest such as `tests/golden/points.digest`:
/// the words that name its point (`sort ISRF4 Small`), then `key=value`
/// columns (`cycles=4355`).
#[derive(Debug, Clone, Copy)]
pub struct Columns<'a> {
    line: &'a str,
}

impl<'a> Columns<'a> {
    /// Every line of `digest`, a digest file's text.
    pub fn all(digest: &'a str) -> impl Iterator<Item = Columns<'a>> {
        digest.lines().map(|line| Columns { line })
    }

    /// The line of `digest` whose point is `point`, panicking if none is.
    pub fn find(digest: &'a str, point: &str) -> Self {
        Self::all(digest)
            .find(|c| c.point().eq(point.split_whitespace()))
            .unwrap_or_else(|| panic!("no digest line for `{point}`"))
    }

    /// The words naming the point.
    pub fn point(&self) -> impl Iterator<Item = &'a str> {
        self.line
            .split_whitespace()
            .take_while(|w| !w.contains('='))
    }

    /// Column `name`'s text, panicking (naming the line) if it has none.
    pub fn get(&self, name: &str) -> &'a str {
        self.line
            .split_whitespace()
            .find_map(|kv| kv.strip_prefix(name)?.strip_prefix('='))
            .unwrap_or_else(|| panic!("no column `{name}` in `{}`", self.line))
    }

    /// Column `name` as a number, panicking if it is none or not one.
    pub fn u64(&self, name: &str) -> u64 {
        let text = self.get(name);
        text.parse()
            .unwrap_or_else(|_| panic!("column `{name}={text}` of `{}`", self.line))
    }
}
