//! The parser must reject every file in `tests/fixtures/malformed/`
//! with a typed error — and must never panic, which is checked by
//! running each parse under `catch_unwind`. The lint pass must turn
//! each rejection into a stable diagnostic code with a source span,
//! and — the flip side — must *prove* USC on the conflict-free
//! fixture from the LP relaxation alone, as the CEGAR engine does.

use std::fs;
use std::panic::catch_unwind;
use std::path::PathBuf;

use stg_coding_conflicts::csc_core::{CheckRequest, Engine, Property, Verdict};
use stg_coding_conflicts::lint::{self, Code, Severity};
use stg_coding_conflicts::stg;

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/malformed")
}

#[test]
fn every_malformed_fixture_is_rejected_without_panic() {
    let mut seen = 0;
    for entry in fs::read_dir(fixture_dir()).expect("fixture dir exists") {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|e| e != "g") {
            continue;
        }
        seen += 1;
        let bytes = fs::read(&path).unwrap();
        let result = catch_unwind(|| stg::parse_bytes(&bytes));
        match result {
            Ok(parsed) => assert!(
                parsed.is_err(),
                "{}: malformed fixture parsed successfully",
                path.display()
            ),
            Err(_) => panic!("{}: parser panicked", path.display()),
        }
    }
    assert!(seen >= 4, "expected the full corpus, found {seen} fixtures");
}

#[test]
fn rejections_are_specific() {
    let read = |name: &str| fs::read(fixture_dir().join(name)).unwrap();
    let err = |name: &str| stg::parse_bytes(&read(name)).unwrap_err().to_string();
    assert!(err("undeclared_signal.g").contains("undeclared signal"));
    assert!(err("duplicate_marking.g").contains("duplicate .marking"));
    assert!(err("non_utf8.g").contains("UTF-8"));
    // The truncated header never reaches a marking section.
    assert!(err("truncated_header.g").contains("marking"));
}

/// Every malformed fixture maps to one *stable* lint code with a
/// source span — the contract the CLI's exit code 2, the server's
/// `lint_rejected` error and this table all share.
#[test]
fn every_malformed_fixture_has_a_stable_code_and_span() {
    let expected: &[(&str, Code, usize, usize)] = &[
        ("duplicate_marking.g", Code::DuplicateMarking, 7, 1),
        ("non_utf8.g", Code::InvalidUtf8, 2, 11),
        ("truncated_header.g", Code::BuildError, 3, 1),
        ("undeclared_signal.g", Code::UndeclaredSignal, 6, 6),
    ];
    for &(name, code, line, col) in expected {
        let bytes = fs::read(fixture_dir().join(name)).unwrap();
        let outcome = lint::lint_bytes(&bytes, &lint::LintOptions::default());
        assert!(outcome.report.has_errors(), "{name}: must be rejected");
        let first = outcome
            .report
            .diagnostics
            .iter()
            .find(|d| d.severity() == Severity::Error)
            .unwrap_or_else(|| panic!("{name}: no error diagnostic"));
        assert_eq!(first.code, code, "{name}: code");
        let span = first
            .span
            .unwrap_or_else(|| panic!("{name}: diagnostic carries no span"));
        assert_eq!((span.line, span.col), (line, col), "{name}: span");
    }
}

/// The conflict-free fixture is the other half of the contract: the
/// LP relaxation proves USC from the file alone, and every engine
/// answers `Holds`. The CEGAR engine, whose first step is that LP,
/// proves it without a single branch node, and the explicit engine
/// agrees by exhaustive enumeration.
#[test]
fn lint_proved_fixture_holds_under_every_engine() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/lint_proved_usc.g");
    let bytes = fs::read(path).unwrap();
    let outcome = lint::lint_bytes(&bytes, &lint::LintOptions::default());
    assert!(!outcome.report.has_errors());
    assert!(outcome.report.proofs.usc_proved, "LP proves USC statically");
    let stg = outcome.stg.expect("clean fixture parses");

    for engine in Engine::ALL {
        let run = CheckRequest::new(&stg, Property::Usc)
            .engine(engine)
            .run()
            .unwrap();
        assert_eq!(run.verdict, Verdict::Holds, "{engine:?}");
        if engine == Engine::Cegar {
            let stats = run.report.cegar.expect("cegar counters");
            assert_eq!(stats.branch_nodes, 0, "the LP alone proves it");
            assert_eq!(run.report.prefix_events_built, Some(0));
        }
        if engine == Engine::ExplicitStateGraph {
            assert!(
                run.report.states.is_some_and(|s| s > 0),
                "the reference run actually explored"
            );
        }
    }
}

/// W003 (initially-unmarked siphon) is a warning on a *parsable* net,
/// and — since the siphon machinery was promoted into the CEGAR
/// constraint generator — its diagnostic must name a member place and
/// carry that place's source span, so editors can jump to it.
#[test]
fn unmarked_siphon_warning_carries_a_source_span() {
    let src = "\
.model m
.outputs a b
.graph
a+ a-
a- a+
limbo b+
b+ limbo2
limbo2 b-
b- limbo
.marking { <a-,a+> }
.initial_state 00
.end
";
    let outcome = lint::lint_bytes(src.as_bytes(), &lint::LintOptions::default());
    assert!(outcome.stg.is_some(), "net must be parsable");
    // The siphon also makes `b+`/`b-` structurally dead (L021); those
    // errors are consequences of the same defect, not parse failures.
    assert!(outcome
        .report
        .diagnostics
        .iter()
        .filter(|d| d.severity() == Severity::Error)
        .all(|d| d.code == Code::DeadTransition));
    let siphon = outcome
        .report
        .diagnostics
        .iter()
        .find(|d| d.code == Code::UnmarkedSiphon)
        .expect("W003 fires on the unmarked limbo cycle");
    assert_eq!(siphon.severity(), Severity::Warning);
    let object = siphon.object.as_deref().expect("names a member place");
    assert!(
        object == "limbo" || object == "limbo2",
        "object is a siphon member, got {object}"
    );
    let span = siphon.span.expect("W003 carries the member place's span");
    // First occurrence of "limbo": the arc `limbo b+` on line 6.
    assert_eq!((span.line, span.col), (6, 1), "span points at the place");
}

/// Helper for the I0xx span regressions below: structure-lints a
/// `.g` source and returns the diagnostic for `code`, asserting it
/// exists, is informational, and carries a span.
fn structure_diag(src: &str, code: Code) -> (String, (usize, usize)) {
    let report = lint::structure_bytes(src.as_bytes()).expect("net must be parsable");
    let d = report
        .diagnostics
        .iter()
        .find(|d| d.code == code)
        .unwrap_or_else(|| panic!("{code} expected; got {:?}", report.diagnostics));
    assert_eq!(d.severity(), Severity::Info, "{code}");
    let span = d.span.unwrap_or_else(|| panic!("{code} must carry a span"));
    (
        d.object
            .clone()
            .unwrap_or_else(|| panic!("{code} names an object")),
        (span.line, span.col),
    )
}

/// I001 (not a marked graph): the witnessing choice place, with the
/// span of its first occurrence — and nothing further down the class
/// hierarchy, because a plain free-choice split stays a state
/// machine.
#[test]
fn i001_names_the_choice_place_with_its_span() {
    let src = "\
.model m
.outputs a b
.graph
split a+
split b+
a+ qa
qa a-
a- split
b+ qb
qb b-
b- split
.marking { split }
.initial_state 00
.end
";
    let (object, span) = structure_diag(src, Code::NotMarkedGraph);
    assert_eq!(object, "split");
    assert_eq!(span, (4, 1), "first occurrence: the arc `split a+`");
    let report = lint::structure_bytes(src.as_bytes()).unwrap();
    assert!(
        report.classes.state_machine && report.classes.free_choice,
        "a free-choice split refutes only the marked-graph class"
    );
    assert_eq!(report.diagnostics.len(), 1, "{:?}", report.diagnostics);
}

/// I002 (not a state machine): the witnessing fork transition, with
/// the span of its first occurrence — on a pure fork/join marked
/// graph, the only diagnostic.
#[test]
fn i002_names_the_fork_transition_with_its_span() {
    let src = "\
.model m
.outputs a x y
.graph
a+ x+ y+
x+ x-
y+ y-
x- a-
y- a-
a- a+
.marking { <a-,a+> }
.initial_state 000
.end
";
    let (object, span) = structure_diag(src, Code::NotStateMachine);
    assert_eq!(object, "a+");
    assert_eq!(span, (4, 1), "first occurrence: the fork arc `a+ x+ y+`");
    let report = lint::structure_bytes(src.as_bytes()).unwrap();
    assert!(
        report.classes.marked_graph,
        "forks keep the net a marked graph"
    );
    assert_eq!(report.diagnostics.len(), 1, "{:?}", report.diagnostics);
}

/// I003/I004 (not free-choice, not extended free-choice): the classic
/// asymmetric confusion — a shared place whose consumer also waits on
/// a private place — refutes both, each diagnostic naming the shared
/// place with its span. The singleton overlap keeps I005 quiet.
#[test]
fn i003_and_i004_name_the_confused_place_with_spans() {
    let src = "\
.model m
.outputs a c
.graph
shared a+
shared c+
other c+
a+ qa
qa a-
a- shared
c+ qc
qc c-
c- shared
c- other
.marking { shared other }
.initial_state 00
.end
";
    let (object, span) = structure_diag(src, Code::NotFreeChoice);
    assert_eq!(object, "shared");
    assert_eq!(span, (4, 1), "first occurrence: the arc `shared a+`");
    let (object, span) = structure_diag(src, Code::NotExtendedFreeChoice);
    assert_eq!(object, "shared");
    assert_eq!(span, (4, 1));
    let report = lint::structure_bytes(src.as_bytes()).unwrap();
    assert!(
        report.classes.reduced_asymmetric_choice,
        "a singleton overlap stays reduced asymmetric choice"
    );
    assert!(
        !report
            .diagnostics
            .iter()
            .any(|d| d.code == Code::NotReducedAsymmetricChoice),
        "{:?}",
        report.diagnostics
    );
}

/// I005 (not reduced asymmetric choice): two places with overlapping,
/// unequal, non-singleton postsets — Wimmel's RAC refutation — named
/// by the first place of the pair with its span.
#[test]
fn i005_names_the_rac_refuting_place_with_its_span() {
    let src = "\
.model m
.outputs a b c
.graph
p1 a+
p1 b+
p2 b+
p2 c+
a+ qa
qa a-
a- p1
b+ qb
qb b-
b- p1
b- p2
c+ qc
qc c-
c- p2
.marking { p1 p2 }
.initial_state 000
.end
";
    let (object, span) = structure_diag(src, Code::NotReducedAsymmetricChoice);
    assert_eq!(object, "p1");
    assert_eq!(span, (4, 1), "first occurrence: the arc `p1 a+`");
    let report = lint::structure_bytes(src.as_bytes()).unwrap();
    assert_eq!(report.classes.name(), "general");
    // The full hierarchy collapses: every I0xx code fires once.
    for code in [
        Code::NotMarkedGraph,
        Code::NotStateMachine,
        Code::NotFreeChoice,
        Code::NotExtendedFreeChoice,
        Code::NotReducedAsymmetricChoice,
    ] {
        assert_eq!(
            report.diagnostics.iter().filter(|d| d.code == code).count(),
            1,
            "{code}"
        );
        assert!(
            report.diagnostics.iter().all(|d| d.span.is_some()),
            "every structure diagnostic carries a span: {:?}",
            report.diagnostics
        );
    }
}
