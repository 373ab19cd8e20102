//! The diagnostic framework: stable codes, severities, source spans,
//! and the one human and one JSON rendering of a diagnostic list.

use std::fmt;

use stg::{ParseStgError, SyntaxKind};

/// How serious a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// A neutral structural fact about the net (e.g. a net-class
    /// refutation); never affects admission or exit codes.
    Info,
    /// The input is usable but suspicious; verification still runs.
    Warning,
    /// The input is broken; verification is refused.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Info => write!(f, "info"),
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// A stable diagnostic code. The numeric part never changes meaning
/// across releases: tools may match on the rendered `L0xx`/`W0xx`
/// string. The registry lives in `docs/LINT.md`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Code {
    /// `L001` — syntax error without a more specific class.
    SyntaxError,
    /// `L002` — the file is not valid UTF-8.
    InvalidUtf8,
    /// `L003` — a transition references an undeclared signal.
    UndeclaredSignal,
    /// `L004` — more than one `.marking` section.
    DuplicateMarking,
    /// `L005` — malformed `.marking` body.
    BadMarking,
    /// `L006` — a signal or dummy declared more than once.
    DuplicateSignal,
    /// `L007` — unknown `.directive`.
    UnknownDirective,
    /// `L008` — non-directive content outside `.graph`.
    UnexpectedContent,
    /// `L009` — an arc connects two places directly.
    PlaceToPlaceArc,
    /// `L020` — the parsed net could not be assembled into an STG
    /// (missing initial marking, inconsistent initial code, …).
    BuildError,
    /// `L021` — a transition that no token flow can ever fire.
    DeadTransition,
    /// `L022` — a place with no arcs at all.
    DisconnectedPlace,
    /// `W001` — a declared signal with no transitions.
    UnusedSignal,
    /// `W002` — a choice place mixing input- and non-input-signal
    /// transitions (the circuit would race its environment).
    MixedChoice,
    /// `W003` — a non-empty siphon with no initial tokens: its output
    /// transitions are dead and the net risks structural deadlock.
    UnmarkedSiphon,
    /// `I001` — the net is not a marked graph: some place has more
    /// than one producer or more than one consumer.
    NotMarkedGraph,
    /// `I002` — the net is not a state machine: some transition has
    /// more than one input or output place.
    NotStateMachine,
    /// `I003` — the net is not free-choice: a shared place feeds a
    /// transition with a non-singleton preset.
    NotFreeChoice,
    /// `I004` — the net is not extended free-choice: two places share
    /// a consumer without sharing all of them.
    NotExtendedFreeChoice,
    /// `I005` — the net is not reduced asymmetric choice (Wimmel):
    /// two places overlap on consumers with unequal, non-singleton
    /// postsets.
    NotReducedAsymmetricChoice,
}

impl Code {
    /// The stable rendered form, e.g. `"L003"`.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::SyntaxError => "L001",
            Code::InvalidUtf8 => "L002",
            Code::UndeclaredSignal => "L003",
            Code::DuplicateMarking => "L004",
            Code::BadMarking => "L005",
            Code::DuplicateSignal => "L006",
            Code::UnknownDirective => "L007",
            Code::UnexpectedContent => "L008",
            Code::PlaceToPlaceArc => "L009",
            Code::BuildError => "L020",
            Code::DeadTransition => "L021",
            Code::DisconnectedPlace => "L022",
            Code::UnusedSignal => "W001",
            Code::MixedChoice => "W002",
            Code::UnmarkedSiphon => "W003",
            Code::NotMarkedGraph => "I001",
            Code::NotStateMachine => "I002",
            Code::NotFreeChoice => "I003",
            Code::NotExtendedFreeChoice => "I004",
            Code::NotReducedAsymmetricChoice => "I005",
        }
    }

    /// Severity implied by the code (`L` = error, `W` = warning,
    /// `I` = informational).
    pub fn severity(self) -> Severity {
        match self.as_str().as_bytes()[0] {
            b'L' => Severity::Error,
            b'I' => Severity::Info,
            _ => Severity::Warning,
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A 1-based (line, byte-column) position in the `.g` source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Source line, starting at 1.
    pub line: usize,
    /// Byte column within the line, starting at 1.
    pub col: usize,
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// One finding: a coded, optionally located, message about the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code (see [`Code`]).
    pub code: Code,
    /// Source location, when the finding maps to a source token.
    /// Structural findings about the built net carry `None`.
    pub span: Option<Span>,
    /// The net object concerned (signal, place or transition name).
    pub object: Option<String>,
    /// Human-readable description.
    pub message: String,
}

impl Diagnostic {
    /// Creates a diagnostic without a source span.
    pub fn new(code: Code, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            span: None,
            object: None,
            message: message.into(),
        }
    }

    /// Attaches a source span.
    pub fn with_span(mut self, line: usize, col: usize) -> Self {
        self.span = Some(Span { line, col });
        self
    }

    /// Names the net object the finding is about.
    pub fn with_object(mut self, name: impl Into<String>) -> Self {
        self.object = Some(name.into());
        self
    }

    /// Severity of this diagnostic (derived from its code).
    pub fn severity(&self) -> Severity {
        self.code.severity()
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.severity(), self.code)?;
        if let Some(span) = self.span {
            write!(f, " {span}")?;
        }
        write!(f, ": {}", self.message)
    }
}

/// Renders diagnostics one per line in the editor-jump format
/// `path:line:col: severity[code] message` (`path: …` when a
/// diagnostic has no span). Every human report starts with these
/// lines.
pub fn render_human(path: &str, diagnostics: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in diagnostics {
        let at = match d.span {
            Some(span) => format!("{path}:{span}"),
            None => path.to_owned(),
        };
        out.push_str(&format!(
            "{at}: {}[{}] {}\n",
            d.severity(),
            d.code,
            d.message
        ));
    }
    out
}

/// Renders diagnostics as the JSON array every report's
/// `"diagnostics"` member holds: one object per line, with stable
/// field names and `null` for a missing span or object.
pub(crate) fn render_json(diagnostics: &[Diagnostic]) -> String {
    let mut out = String::from("[");
    for (i, d) in diagnostics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"code\": \"{}\", \"severity\": \"{}\"",
            d.code,
            d.severity()
        ));
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
        out.push_str(&format!(", \"message\": \"{}\"}}", escape(&d.message)));
    }
    if !diagnostics.is_empty() {
        out.push_str("\n  ");
    }
    out.push(']');
    out
}

/// Escapes a string for a JSON string literal.
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

/// Classifies a parse failure into a coded diagnostic.
///
/// `total_lines` anchors diagnostics that only materialise at
/// end-of-input (e.g. a missing `.marking` section) to the last line
/// of the file so every rejection carries a span.
pub fn classify_parse_error(err: &ParseStgError, total_lines: usize) -> Diagnostic {
    match err {
        ParseStgError::Syntax {
            line,
            col,
            kind,
            message,
        } => {
            let code = match kind {
                SyntaxKind::InvalidUtf8 => Code::InvalidUtf8,
                SyntaxKind::UndeclaredSignal => Code::UndeclaredSignal,
                SyntaxKind::DuplicateMarking => Code::DuplicateMarking,
                SyntaxKind::BadMarking => Code::BadMarking,
                SyntaxKind::DuplicateSignal => Code::DuplicateSignal,
                SyntaxKind::UnknownDirective => Code::UnknownDirective,
                SyntaxKind::UnexpectedContent => Code::UnexpectedContent,
                SyntaxKind::PlaceToPlace => Code::PlaceToPlaceArc,
                _ => Code::SyntaxError,
            };
            Diagnostic::new(code, message.clone()).with_span(*line, *col)
        }
        // Build failures are end-of-input findings; point at the last
        // line so the span is still actionable.
        ParseStgError::Build(e) => {
            Diagnostic::new(Code::BuildError, e.to_string()).with_span(total_lines.max(1), 1)
        }
        _ => Diagnostic::new(Code::SyntaxError, err.to_string()).with_span(total_lines.max(1), 1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_render_stably() {
        assert_eq!(Code::UndeclaredSignal.as_str(), "L003");
        assert_eq!(Code::UnusedSignal.as_str(), "W001");
        assert_eq!(Code::UndeclaredSignal.severity(), Severity::Error);
        assert_eq!(Code::UnusedSignal.severity(), Severity::Warning);
    }

    #[test]
    fn display_includes_code_span_and_message() {
        let d = Diagnostic::new(Code::DeadTransition, "transition `a+` can never fire")
            .with_object("a+")
            .with_span(7, 3);
        assert_eq!(
            d.to_string(),
            "error[L021] 7:3: transition `a+` can never fire"
        );
    }

    #[test]
    fn parse_errors_classify_to_codes_with_spans() {
        let err = stg::parse(".model m\n.outputs a\n.graph\nb+ a+\n.marking { }\n.end\n")
            .expect_err("undeclared signal");
        let d = classify_parse_error(&err, 6);
        assert_eq!(d.code, Code::UndeclaredSignal);
        assert_eq!(d.span, Some(Span { line: 4, col: 1 }));

        let err = stg::parse(".model m\n.outputs a\n.graph\na+ a-\na- a+\n.end\n")
            .expect_err("missing marking");
        let d = classify_parse_error(&err, 6);
        assert_eq!(d.code, Code::BuildError);
        assert_eq!(d.span, Some(Span { line: 6, col: 1 }));
    }
}
