//! Differential validation of artifact reuse: for every engine and
//! property, a *warm* check on a shared [`Artifacts`] set (the second
//! check against the same set, with every stage already built) must
//! return the same verdict as a *cold* stand-alone check — sharing
//! prefixes, state graphs and symbolic encodings must never change an
//! answer, only skip work.

use stg_coding_conflicts::csc_core::{Artifacts, Budget, CheckRequest, Engine, Property, Verdict};
use stg_coding_conflicts::stg::gen::counterflow::counterflow_sym;
use stg_coding_conflicts::stg::gen::vme::{vme_read, vme_read_csc_resolved};
use stg_coding_conflicts::stg::Stg;

const ENGINES: [Engine; 4] = [
    Engine::UnfoldingIlp,
    Engine::ExplicitStateGraph,
    Engine::SymbolicBdd,
    Engine::Race,
];

const PROPERTIES: [Property; 3] = [Property::Usc, Property::Csc, Property::Normalcy];

/// Whether two verdicts agree in full: same arm, and for violations
/// the same witness (engines are deterministic, so a reused artifact
/// must reproduce the exact counterexample).
fn same_verdict(a: &Verdict, b: &Verdict) -> bool {
    match (a, b) {
        (Verdict::Holds, Verdict::Holds) => true,
        (Verdict::Violated(wa), Verdict::Violated(wb)) => wa == wb,
        (Verdict::Unknown(ra), Verdict::Unknown(rb)) => ra == rb,
        _ => false,
    }
}

fn assert_cold_equals_warm(stg: &Stg, label: &str) {
    let budget = Budget::unlimited();
    for engine in ENGINES {
        let artifacts = Artifacts::of(stg);
        for property in PROPERTIES {
            let cold = CheckRequest::new(stg, property)
                .engine(engine)
                .budget(budget.clone())
                .run()
                .unwrap_or_else(|e| panic!("{label}/{engine:?}/{property:?} cold: {e}"));
            // First call warms the stages, second is the pure-reuse run.
            let shared = |tag: &str| {
                CheckRequest::new(stg, property)
                    .engine(engine)
                    .budget(budget.clone())
                    .artifacts(&artifacts)
                    .run()
                    .unwrap_or_else(|e| panic!("{label}/{engine:?}/{property:?} {tag}: {e}"))
            };
            let _ = shared("warmup");
            let warm = shared("warm");
            if engine == Engine::Race {
                // The race adopts whichever member concludes first, so
                // only the three-valued outcome is deterministic.
                assert_eq!(
                    cold.verdict.holds(),
                    warm.verdict.holds(),
                    "{label}/{engine:?}/{property:?}: cold {:?} vs warm {:?}",
                    cold.verdict,
                    warm.verdict
                );
            } else {
                assert!(
                    same_verdict(&cold.verdict, &warm.verdict),
                    "{label}/{engine:?}/{property:?}: cold {:?} vs warm {:?}",
                    cold.verdict,
                    warm.verdict
                );
            }
            if engine == Engine::UnfoldingIlp {
                assert_eq!(
                    warm.report.prefix_events_built,
                    Some(0),
                    "{label}/{property:?}: warm unfolding run must build nothing"
                );
            }
        }
    }
}

#[test]
fn conflicted_model_agrees_cold_and_warm_everywhere() {
    assert_cold_equals_warm(&vme_read(), "vme");
}

#[test]
fn resolved_model_agrees_cold_and_warm_everywhere() {
    assert_cold_equals_warm(&vme_read_csc_resolved(), "vme_resolved");
}

#[test]
fn conflict_free_model_agrees_cold_and_warm_everywhere() {
    assert_cold_equals_warm(&counterflow_sym(2, 2), "cf_sym_2_2");
}
