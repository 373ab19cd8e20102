//! `stglint`: structural static analysis for STGs.
//!
//! A battery of checks that run *before* any state-space exploration
//! — no unfolding prefix, no reachability graph, no BDDs:
//!
//! * **Well-formedness** — parse failures classified into stable
//!   diagnostic codes with source spans, plus net-level findings
//!   (unused signals, mixed input/output choice, disconnected places,
//!   structurally dead transitions, unmarked siphons).
//! * **Semiflow proofs** — P-semiflows through the initial marking
//!   prove places 1-safe ([`petri::invariants`]).
//! * **LP-relaxation proofs** — the paper's USC/CSC integer program
//!   over the marking equation, relaxed to rationals and decided
//!   exactly ([`ilp::lp`]): infeasibility *proves* the property, for
//!   free. Per-signal consistency is proved the same way.
//!
//! Diagnostic codes are stable: `L0xx` are errors (the input is
//! rejected), `W0xx` are warnings. The registry lives in
//! `docs/LINT.md`.
//!
//! # Examples
//!
//! ```
//! let src = "\
//! .model hs
//! .inputs req
//! .outputs ack
//! .graph
//! req+ ack+
//! ack+ req-
//! req- ack-
//! ack- req+
//! .marking { <ack-,req+> }
//! .end
//! ";
//! let outcome = lint::lint_bytes(src.as_bytes(), &lint::LintOptions::default());
//! let report = &outcome.report;
//! assert!(!report.has_errors());
//! assert!(report.proofs.usc_proved, "a plain handshake has USC for free");
//! ```

#![warn(missing_docs)]

pub mod cuts;
mod diag;
mod relax;
mod structural;
pub mod structure;

pub use cuts::{blocking_trap, cut_basis, CutBasis};
pub use diag::{classify_parse_error, Code, Diagnostic, Severity, Span};
pub use ilp::{LpFeasibility, LpOptions};
pub use relax::{prove as relaxation_proofs, safe_places as semiflow_safe_places, Proofs};
pub use structure::{analyse as analyse_structure, Approximation, Classes, StructureReport};

use stg::Stg;

/// Tunables for a lint pass.
#[derive(Debug, Clone)]
pub struct LintOptions {
    /// Run the LP-relaxation proofs (consistency, USC/CSC). On by
    /// default; structural checks and semiflow proofs always run.
    pub lp: bool,
    /// Budget for each individual LP solve.
    pub lp_options: LpOptions,
}

impl Default for LintOptions {
    fn default() -> Self {
        LintOptions {
            lp: true,
            lp_options: LpOptions::default(),
        }
    }
}

/// Everything a lint pass produces: diagnostics plus positive proofs.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// Coded findings, errors first.
    pub diagnostics: Vec<Diagnostic>,
    /// Facts proved without state-space exploration.
    pub proofs: Proofs,
}

impl LintReport {
    /// True when at least one diagnostic is an error.
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity() == Severity::Error)
    }

    /// Number of error diagnostics.
    pub fn errors(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity() == Severity::Error)
            .count()
    }

    /// Number of warning diagnostics.
    pub fn warnings(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity() == Severity::Warning)
            .count()
    }

    /// Human-readable rendering, one diagnostic per line followed by
    /// a proof summary. `path` prefixes each span for editor-style
    /// `path:line:col` jumping.
    pub fn render_human(&self, path: &str) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            match d.span {
                Some(span) => {
                    out.push_str(&format!(
                        "{path}:{span}: {}[{}] {}\n",
                        d.severity(),
                        d.code,
                        d.message
                    ));
                }
                None => {
                    out.push_str(&format!(
                        "{path}: {}[{}] {}\n",
                        d.severity(),
                        d.code,
                        d.message
                    ));
                }
            }
        }
        let p = &self.proofs;
        out.push_str(&format!(
            "{path}: {} error(s), {} warning(s)\n",
            self.errors(),
            self.warnings()
        ));
        if p.total_places > 0 {
            out.push_str(&format!(
                "{path}: proofs: safe places {}/{}{}, consistency {}, USC/CSC {}{}\n",
                p.safe_places,
                p.total_places,
                if p.net_safe { " (net safe)" } else { "" },
                if p.all_consistent {
                    "proved".to_owned()
                } else {
                    format!("{} signal(s) proved", p.consistent_signals.len())
                },
                if p.usc_proved { "proved" } else { "not proved" },
                if p.lp_abstained {
                    " [LP abstained]"
                } else {
                    ""
                },
            ));
        }
        out
    }

    /// Machine-readable rendering (a single JSON object). Hand-rolled
    /// like the server protocol: stable field names, no dependencies.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"diagnostics\": [");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            out.push_str(&format!("\"code\": \"{}\"", d.code));
            out.push_str(&format!(", \"severity\": \"{}\"", d.severity()));
            match d.span {
                Some(span) => {
                    out.push_str(&format!(", \"line\": {}, \"col\": {}", span.line, span.col));
                }
                None => out.push_str(", \"line\": null, \"col\": null"),
            }
            match &d.object {
                Some(obj) => out.push_str(&format!(", \"object\": \"{}\"", escape(obj))),
                None => out.push_str(", \"object\": null"),
            }
            out.push_str(&format!(", \"message\": \"{}\"", escape(&d.message)));
            out.push('}');
        }
        if !self.diagnostics.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n");
        out.push_str(&format!("  \"errors\": {},\n", self.errors()));
        out.push_str(&format!("  \"warnings\": {},\n", self.warnings()));
        let p = &self.proofs;
        out.push_str("  \"proofs\": {\n");
        out.push_str(&format!("    \"safe_places\": {},\n", p.safe_places));
        out.push_str(&format!("    \"total_places\": {},\n", p.total_places));
        out.push_str(&format!("    \"net_safe\": {},\n", p.net_safe));
        out.push_str("    \"consistent_signals\": [");
        for (i, z) in p.consistent_signals.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{}\"", escape(z)));
        }
        out.push_str("],\n");
        out.push_str(&format!("    \"all_consistent\": {},\n", p.all_consistent));
        out.push_str(&format!("    \"usc_proved\": {},\n", p.usc_proved));
        out.push_str(&format!("    \"csc_proved\": {},\n", p.usc_proved));
        out.push_str(&format!("    \"lp_abstained\": {}\n", p.lp_abstained));
        out.push_str("  }\n}\n");
        out
    }
}

pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Result of linting raw `.g` bytes: the parsed STG when parsing
/// succeeded, and the report either way.
#[derive(Debug)]
pub struct LintOutcome {
    /// The parsed STG; `None` when parsing failed (the report then
    /// contains the classified parse diagnostic).
    pub stg: Option<Stg>,
    /// Diagnostics and proofs.
    pub report: LintReport,
}

/// Finds the first occurrence of `name` as a whitespace-delimited
/// token in the source and returns its 1-based position. Braces count
/// as delimiters so `.marking {p}` still matches `p`.
fn locate_token(bytes: &[u8], name: &str) -> Option<Span> {
    let needle = name.as_bytes();
    for (i, line) in bytes.split(|&b| b == b'\n').enumerate() {
        let mut col = 0usize;
        for tok in line.split(|&b| b.is_ascii_whitespace() || b == b'{' || b == b'}') {
            if tok == needle {
                return Some(Span {
                    line: i + 1,
                    col: col + 1,
                });
            }
            col += tok.len() + 1;
        }
    }
    None
}

/// Resolves a source span for a diagnostic's object name. Implicit
/// places (`<a+,b+>`) rarely appear verbatim outside `.marking`
/// lines, so they fall back to the first mention of their source
/// transition on a graph line.
fn locate_object(bytes: &[u8], name: &str) -> Option<Span> {
    if let Some(span) = locate_token(bytes, name) {
        return Some(span);
    }
    let inner = name.strip_prefix('<')?.strip_suffix('>')?;
    let (from, _) = inner.split_once(',')?;
    locate_token(bytes, from)
}

/// Lints raw `.g` bytes end to end: parse (classifying any failure
/// into a coded, spanned diagnostic), then run every net-level
/// analysis on success. Net-level diagnostics that name an object but
/// carry no span (the analyses run on the built STG, which has no
/// positions) get one attached here by locating the object's first
/// occurrence in the source, so JSON consumers can jump to it.
pub fn lint_bytes(bytes: &[u8], options: &LintOptions) -> LintOutcome {
    let total_lines = bytes.iter().filter(|&&b| b == b'\n').count()
        + usize::from(!bytes.is_empty() && bytes.last() != Some(&b'\n'));
    match stg::parse_bytes(bytes) {
        Ok(stg) => {
            let mut report = lint_stg(&stg, options);
            for d in &mut report.diagnostics {
                if d.span.is_none() {
                    if let Some(obj) = d.object.clone() {
                        d.span = locate_object(bytes, &obj);
                    }
                }
            }
            LintOutcome {
                stg: Some(stg),
                report,
            }
        }
        Err(err) => LintOutcome {
            stg: None,
            report: LintReport {
                diagnostics: vec![classify_parse_error(&err, total_lines)],
                proofs: Proofs::default(),
            },
        },
    }
}

/// Result of running the structure pass on raw `.g` bytes.
#[derive(Debug)]
pub struct StructureOutcome {
    /// The parsed STG; `None` when parsing failed.
    pub stg: Option<Stg>,
    /// The structure report; `None` when parsing failed.
    pub report: Option<structure::StructureReport>,
    /// The classified parse diagnostic when parsing failed.
    pub error: Option<Diagnostic>,
}

/// Runs the structure pass on raw `.g` bytes: parse (classifying any
/// failure into a coded, spanned diagnostic), analyse, and attach
/// source spans to the class-refutation diagnostics by locating each
/// witnessing object's first occurrence — same mechanism as
/// [`lint_bytes`].
pub fn structure_bytes(bytes: &[u8]) -> StructureOutcome {
    let total_lines = bytes.iter().filter(|&&b| b == b'\n').count()
        + usize::from(!bytes.is_empty() && bytes.last() != Some(&b'\n'));
    match stg::parse_bytes(bytes) {
        Ok(stg) => {
            let mut report = structure::analyse(&stg);
            for d in &mut report.diagnostics {
                if d.span.is_none() {
                    if let Some(obj) = d.object.clone() {
                        d.span = locate_object(bytes, &obj);
                    }
                }
            }
            StructureOutcome {
                stg: Some(stg),
                report: Some(report),
                error: None,
            }
        }
        Err(err) => StructureOutcome {
            stg: None,
            report: None,
            error: Some(classify_parse_error(&err, total_lines)),
        },
    }
}

/// Lints an already-built STG: structural checks, semiflow proofs,
/// and (per [`LintOptions`]) the LP-relaxation proofs.
pub fn lint_stg(stg: &Stg, options: &LintOptions) -> LintReport {
    let mut diagnostics = Vec::new();
    structural::check(stg, &mut diagnostics);
    diagnostics.sort_by_key(|d| std::cmp::Reverse(d.severity()));
    let proofs = relax::prove(stg, options.lp, &options.lp_options);
    LintReport {
        diagnostics,
        proofs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_failure_produces_coded_outcome() {
        let out = lint_bytes(
            b".model m\n.outputs a\n.graph\nb+ a+\n",
            &LintOptions::default(),
        );
        assert!(out.stg.is_none());
        assert!(out.report.has_errors());
        assert_eq!(out.report.diagnostics[0].code, Code::UndeclaredSignal);
        assert_eq!(
            out.report.diagnostics[0].span,
            Some(Span { line: 4, col: 1 })
        );
    }

    #[test]
    fn json_rendering_is_well_formed_enough() {
        let out = lint_bytes(
            b".model m\n.outputs a\n.graph\nb+ a+\n",
            &LintOptions::default(),
        );
        let json = out.report.to_json();
        assert!(json.contains("\"code\": \"L003\""));
        assert!(json.contains("\"errors\": 1"));
        assert!(json.contains("\"usc_proved\": false"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn human_rendering_has_editor_spans() {
        let out = lint_bytes(
            b".model m\n.outputs a\n.graph\nb+ a+\n",
            &LintOptions::default(),
        );
        let text = out.report.render_human("foo.g");
        assert!(text.contains("foo.g:4:1: error[L003]"), "{text}");
    }

    #[test]
    fn vme_is_clean_but_unproved() {
        let stg = stg::gen::vme::vme_read();
        let report = lint_stg(&stg, &LintOptions::default());
        assert!(!report.has_errors(), "{:?}", report.diagnostics);
        assert!(!report.proofs.usc_proved);
        assert!(report.proofs.all_consistent);
    }
}
