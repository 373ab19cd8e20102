//! `stglint`: structural static analysis for STGs.
//!
//! A battery of checks that run *before* any state-space exploration
//! — no unfolding prefix, no reachability graph, no BDDs:
//!
//! * **Well-formedness** — parse failures classified into stable
//!   diagnostic codes with source spans, plus the net-level findings
//!   of the [`structure`] pass (unused signals, mixed input/output
//!   choice, disconnected places, structurally dead transitions,
//!   unmarked siphons). [`structure`] also holds the net classes, the
//!   concurrency and lock relations, and the state-machine decision.
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
pub mod structure;

pub use cuts::{blocking_trap, cut_basis, CutBasis};
pub use diag::{
    classify_parse_error, render_human as render_diagnostics, Code, Diagnostic, Severity, Span,
};
pub use ilp::{LpFeasibility, LpOptions};
pub use relax::{
    balance_terms, prove as relaxation_proofs, safe_places as semiflow_safe_places, Proofs,
};
pub use structure::{analyse as analyse_structure, Approximation, Classes, StructureReport};

use stg::Stg;

/// Tunables for a lint pass.
#[derive(Debug, Clone)]
pub struct LintOptions {
    /// Run the proofs: semiflow safeness and the LP relaxations
    /// (consistency, USC/CSC). On by default. Off, the pass runs the
    /// well-formedness checks only, which is all admission gates on;
    /// [`relaxation_proofs`] with `lp = false` gives the semiflow
    /// proof alone.
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
        let mut out = diag::render_human(path, &self.diagnostics);
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
        let mut out = format!(
            "{{\n  \"diagnostics\": {},\n",
            diag::render_json(&self.diagnostics)
        );
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
            out.push_str(&format!("\"{}\"", diag::escape(z)));
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

/// Parses raw `.g` bytes, classifying a failure into a coded,
/// spanned diagnostic.
fn parse(bytes: &[u8]) -> Result<Stg, Diagnostic> {
    stg::parse_bytes(bytes).map_err(|err| {
        let total_lines = bytes.iter().filter(|&&b| b == b'\n').count()
            + usize::from(!bytes.is_empty() && bytes.last() != Some(&b'\n'));
        classify_parse_error(&err, total_lines)
    })
}

/// Attaches a source span to every diagnostic that names an object
/// but carries no span (the analyses run on the built STG, which has
/// no positions), by locating the object's first occurrence in the
/// source, so editors and JSON consumers can jump to it.
fn attach_spans(bytes: &[u8], diagnostics: &mut [Diagnostic]) {
    for d in diagnostics {
        if let (None, Some(object)) = (d.span, d.object.as_deref()) {
            d.span = locate_object(bytes, object);
        }
    }
}

/// Lints raw `.g` bytes end to end: parse (classifying any failure
/// into a coded, spanned diagnostic), then [`lint_stg`] on success,
/// with source spans attached to its diagnostics.
pub fn lint_bytes(bytes: &[u8], options: &LintOptions) -> LintOutcome {
    match parse(bytes) {
        Ok(stg) => {
            let mut report = lint_stg(&stg, options);
            attach_spans(bytes, &mut report.diagnostics);
            LintOutcome {
                stg: Some(stg),
                report,
            }
        }
        Err(diagnostic) => LintOutcome {
            stg: None,
            report: LintReport {
                diagnostics: vec![diagnostic],
                proofs: Proofs::default(),
            },
        },
    }
}

/// Runs the structure pass on raw `.g` bytes: parse, then
/// [`structure::analyse`], with source spans attached to the
/// class-refutation diagnostics as [`lint_bytes`] attaches them. A
/// parse failure is the classified, spanned diagnostic.
pub fn structure_bytes(bytes: &[u8]) -> Result<StructureReport, Diagnostic> {
    let stg = parse(bytes)?;
    let mut report = structure::analyse(&stg);
    attach_spans(bytes, &mut report.diagnostics);
    Ok(report)
}

/// Lints an already-built STG: the well-formedness checks of
/// [`structure::well_formedness`] and, per [`LintOptions::lp`], the
/// semiflow and LP-relaxation proofs.
pub fn lint_stg(stg: &Stg, options: &LintOptions) -> LintReport {
    LintReport {
        diagnostics: structure::well_formedness(stg),
        proofs: if options.lp {
            relax::prove(stg, true, &options.lp_options)
        } else {
            Proofs::default()
        },
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
    fn admission_lint_runs_no_semiflow_pass() {
        // Without `lp` the pass is the well-formedness checks alone:
        // no P-semiflow enumeration, so no place is proved safe.
        let stg = stg::gen::pipeline::muller_pipeline(100);
        let options = LintOptions {
            lp: false,
            ..LintOptions::default()
        };
        let report = lint_stg(&stg, &options);
        assert!(!report.has_errors(), "{:?}", report.diagnostics);
        assert_eq!(report.proofs, Proofs::default());
        // The semiflow pass alone still proves every place safe.
        let proofs = relaxation_proofs(&stg, false, &options.lp_options);
        assert!(proofs.net_safe, "{proofs:?}");
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
