//! A finding and the error that carries a program's findings, with the
//! finding's one wire format ([`Diagnostic::to_json`]).

use std::fmt;

use isrf_trace::json::Json;

/// One finding of [`Verifier::verify`](crate::Verifier::verify) or
/// [`Verifier::report`](crate::Verifier::report).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code, e.g. `V101`.
    pub code: String,
    /// The check that produced it, e.g. `liveness`.
    pub check: String,
    /// Human-readable description.
    pub message: String,
    /// Index of the offending op in the
    /// [`StreamProgram`](isrf_sim::StreamProgram), when known.
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

/// Typed error [`Verifier::verify`](crate::Verifier::verify) returns when
/// it finds problems.
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

#[cfg(test)]
mod tests {
    use super::*;

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
