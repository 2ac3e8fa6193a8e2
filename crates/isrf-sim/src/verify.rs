//! Static verification hook for [`Machine`](crate::Machine).
//!
//! The simulator does not implement any analysis itself — it defines the
//! *interface*: a [`ProgramVerifier`] installed on a machine is consulted
//! before [`Machine::run`](crate::Machine::run) simulates a program, in
//! debug builds only: tests get full checking, release runs pay nothing. The
//! concrete analyzer lives in the `isrf-verify` crate; keeping only the
//! trait here avoids a dependency cycle (`isrf-verify` depends on this
//! crate for [`StreamProgram`]).

use std::fmt;

use isrf_core::config::MachineConfig;
use isrf_trace::json::Json;

use crate::program::StreamProgram;

/// One finding from a [`ProgramVerifier`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code, e.g. `V101`.
    pub code: String,
    /// The check that produced it, e.g. `liveness`.
    pub check: String,
    /// Human-readable description.
    pub message: String,
    /// Index of the offending op in the [`StreamProgram`], when known.
    pub prog_op: Option<usize>,
    /// Name of the offending kernel, when the finding is inside one.
    pub kernel: Option<String>,
    /// Index of the offending op inside the kernel body, when known.
    pub kernel_op: Option<usize>,
    /// `.isrf` source line, when the kernel was compiled from source.
    pub line: Option<u32>,
    /// Supporting facts — derived value intervals and the dataflow path
    /// that produced them. Rendered by explain modes; [`fmt::Display`]
    /// stays single-line.
    pub notes: Vec<String>,
}

impl Diagnostic {
    /// The finding's one wire format — the served 422 body and the golden
    /// analyzer reports: `code`, `check`, `message`, then `prog_op`,
    /// `kernel`, `line` and `notes`, each only when present.
    pub fn to_json(&self) -> Json {
        let mut obj = vec![
            ("code".into(), Json::str(self.code.as_str())),
            ("check".into(), Json::str(self.check.as_str())),
            ("message".into(), Json::str(self.message.as_str())),
        ];
        if let Some(op) = self.prog_op {
            obj.push(("prog_op".into(), Json::u64(op as u64)));
        }
        if let Some(k) = &self.kernel {
            obj.push(("kernel".into(), Json::str(k.as_str())));
        }
        if let Some(line) = self.line {
            obj.push(("line".into(), Json::u64(u64::from(line))));
        }
        if !self.notes.is_empty() {
            let notes = self.notes.iter().map(|n| Json::str(n.as_str())).collect();
            obj.push(("notes".into(), Json::Arr(notes)));
        }
        Json::Obj(obj)
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}]", self.code, self.check)?;
        if let Some(op) = self.prog_op {
            write!(f, " program op {op}")?;
        }
        if let Some(k) = &self.kernel {
            write!(f, " kernel `{k}`")?;
        }
        if let Some(op) = self.kernel_op {
            write!(f, " op {op}")?;
        }
        if let Some(line) = self.line {
            write!(f, " (line {line})")?;
        }
        write!(f, ": {}", self.message)
    }
}

/// Typed error returned when verification finds problems.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// All findings, most severe first (analyzer-defined order).
    pub diagnostics: Vec<Diagnostic>,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "program failed verification with {} finding(s):",
            self.diagnostics.len()
        )?;
        for d in &self.diagnostics {
            writeln!(f, "  {d}")?;
        }
        Ok(())
    }
}

impl std::error::Error for VerifyError {}

/// Machine-side facts a verifier needs beyond the program itself: how much
/// SRF space the bump allocator has handed out, and which per-bank word
/// intervals already hold live data (from earlier runs or direct
/// [`Machine::write_stream`](crate::Machine::write_stream) setup).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VerifyEnv {
    /// Words per bank handed out by the SRF allocator so far.
    pub allocated_words_per_bank: u32,
    /// Per-bank `[start, end)` word intervals known to hold data, sorted
    /// and non-overlapping.
    pub filled: Vec<(u32, u32)>,
}

impl VerifyEnv {
    /// Whether `[lo, hi)` is entirely covered by filled intervals.
    pub fn is_filled(&self, lo: u32, hi: u32) -> bool {
        if lo >= hi {
            return true;
        }
        let mut need = lo;
        for &(s, e) in &self.filled {
            if s > need {
                return false;
            }
            if e > need {
                need = e;
                if need >= hi {
                    return true;
                }
            }
        }
        false
    }
}

/// A static analysis run against a program before simulation.
pub trait ProgramVerifier: Send + Sync + fmt::Debug {
    /// Analyze `program` against machine `cfg` and SRF state `env`;
    /// returns all findings (empty = clean).
    fn verify(
        &self,
        cfg: &MachineConfig,
        env: &VerifyEnv,
        program: &StreamProgram,
    ) -> Vec<Diagnostic>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filled_coverage() {
        let env = VerifyEnv {
            allocated_words_per_bank: 64,
            filled: vec![(0, 16), (16, 32), (40, 48)],
        };
        assert!(env.is_filled(0, 32));
        assert!(env.is_filled(4, 20));
        assert!(env.is_filled(42, 48));
        assert!(!env.is_filled(30, 41));
        assert!(!env.is_filled(48, 49));
        assert!(env.is_filled(5, 5), "empty interval is trivially filled");
    }

    #[test]
    fn diagnostic_display_mentions_everything() {
        let d = Diagnostic {
            code: "V101".into(),
            check: "liveness".into(),
            message: "stream never filled".into(),
            prog_op: Some(3),
            kernel: Some("lookup".into()),
            kernel_op: Some(2),
            line: Some(9),
            notes: vec!["interval [0, 7]".into()],
        };
        let s = d.to_string();
        for part in ["V101", "liveness", "program op 3", "lookup", "line 9"] {
            assert!(s.contains(part), "missing `{part}` in `{s}`");
        }
    }

    #[test]
    fn diagnostic_json_orders_keys_and_omits_what_is_absent() {
        let mut d = Diagnostic {
            code: "V101".into(),
            check: "liveness".into(),
            message: "stream \"s\" never filled".into(),
            prog_op: Some(3),
            kernel: Some("lookup".into()),
            kernel_op: Some(2),
            line: Some(9),
            notes: vec!["interval [0, 7]".into(), "via op 1".into()],
        };
        assert_eq!(
            d.to_json().render(),
            r#"{"code":"V101","check":"liveness","message":"stream \"s\" never filled","prog_op":3,"kernel":"lookup","line":9,"notes":["interval [0, 7]","via op 1"]}"#
        );
        (d.prog_op, d.kernel, d.kernel_op, d.line) = (None, None, None, None);
        d.notes.clear();
        assert_eq!(
            d.to_json().render(),
            r#"{"code":"V101","check":"liveness","message":"stream \"s\" never filled"}"#
        );
    }
}
