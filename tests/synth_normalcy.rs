//! Cross-validation between the synthesis back-end and the normalcy
//! checkers: for USC-satisfying STGs, a signal has a monotone
//! nondecreasing completion of its next-state function iff it is
//! p-normal (and nonincreasing iff n-normal) — the two sides compute
//! the same §6 condition through completely different machinery
//! (BDDs over codes vs. integer programs over the unfolding).

use stg_coding_conflicts::csc_core::{
    Artifacts, CheckRequest, Checker, Engine, PipelineOutcome, Property, Verdict,
};
use stg_coding_conflicts::resolve::{synthesize, SynthesisOptions};
use stg_coding_conflicts::stg::gen::counterflow::counterflow_sym;
use stg_coding_conflicts::stg::gen::duplex::{dup_4ph, dup_mod};
use stg_coding_conflicts::stg::gen::ring::lazy_ring;
use stg_coding_conflicts::stg::gen::vme::{vme_read, vme_read_csc_resolved};
use stg_coding_conflicts::stg::{StateGraph, Stg};
use stg_coding_conflicts::synth::NextStateFunctions;

fn usc_models() -> Vec<(&'static str, Stg)> {
    vec![
        ("vme_resolved", vme_read_csc_resolved()),
        ("cf_2_2", counterflow_sym(2, 2)),
        ("cf_3_2", counterflow_sym(3, 2)),
        ("dup_1r", dup_4ph(1, true)),
        ("dup_2r", dup_4ph(2, true)),
    ]
}

#[test]
fn monotone_completions_match_normalcy_oracle() {
    for (label, model) in usc_models() {
        let sg = StateGraph::build(&model, Default::default()).unwrap();
        assert!(sg.satisfies_usc(), "{label}: these models must be USC");
        let mut fns = NextStateFunctions::derive(&model, Default::default()).unwrap();
        let signals: Vec<_> = fns.signals().collect();
        for z in signals {
            let oracle = sg.normalcy_of(&model, z);
            assert_eq!(
                fns.has_increasing_completion(z),
                oracle.p_normal,
                "{label}/{}: increasing completion vs p-normalcy",
                model.signal_name(z)
            );
            assert_eq!(
                fns.has_decreasing_completion(z),
                oracle.n_normal,
                "{label}/{}: decreasing completion vs n-normalcy",
                model.signal_name(z)
            );
        }
    }
}

#[test]
fn monotone_completions_match_unfolding_normalcy() {
    for (label, model) in usc_models() {
        let checker = Checker::new(&model).unwrap();
        let mut fns = NextStateFunctions::derive(&model, Default::default()).unwrap();
        let signals: Vec<_> = fns.signals().collect();
        for z in signals {
            let outcome = checker.check_normalcy_of(z).unwrap();
            assert_eq!(
                fns.is_monotonic(z),
                outcome.is_normal(),
                "{label}/{}",
                model.signal_name(z)
            );
        }
    }
}

/// Differential re-verification of resolver outputs: every net the
/// synthesis pipeline claims to have resolved is re-proved
/// conflict-free by *every* engine independently (plus a
/// consistency check), so a resolver bug cannot hide behind the one
/// engine it used for its own final verification.
#[test]
fn resolver_outputs_are_reproved_by_all_six_engines() {
    let conflicted: Vec<(&str, Stg)> = vec![
        ("vme", vme_read()),
        ("dup_1", dup_4ph(1, false)),
        ("dup_mod_2", dup_mod(2)),
        ("lazy_ring_2", lazy_ring(2)),
    ];
    for (label, model) in conflicted {
        let run = synthesize(&model, &SynthesisOptions::default(), None)
            .unwrap_or_else(|e| panic!("{label}: synthesis failed: {e}"));
        let PipelineOutcome::Resolved { stg: fixed, .. } = &run.pipeline.outcome else {
            panic!(
                "{label}: expected a resolution, got {:?}",
                run.pipeline.outcome
            );
        };
        // The resolved net must still be consistent — insertion is
        // not allowed to break the STG's basic semantics.
        let checker = Checker::new(fixed).unwrap_or_else(|e| panic!("{label}: {e}"));
        assert!(
            checker
                .check_consistency()
                .unwrap_or_else(|e| panic!("{label}: {e}"))
                .is_consistent(),
            "{label}: resolved net must stay consistent"
        );
        // All five engines, one shared artifact set.
        let artifacts = Artifacts::of(fixed);
        for engine in [
            Engine::UnfoldingIlp,
            Engine::ExplicitStateGraph,
            Engine::SymbolicBdd,
            Engine::Cegar,
            Engine::Race,
        ] {
            let check = CheckRequest::new(fixed, Property::Csc)
                .engine(engine)
                .artifacts(&artifacts)
                .run()
                .unwrap_or_else(|e| panic!("{label}/{}: {e}", engine.name()));
            assert!(
                matches!(check.verdict, Verdict::Holds),
                "{label}/{}: resolver output must re-prove CSC, got {:?}",
                engine.name(),
                check.verdict
            );
        }
    }
}

#[test]
fn derived_covers_agree_with_state_graph() {
    // Every equation must evaluate to Nxt_z on every reachable state.
    for (label, model) in usc_models() {
        let sg = StateGraph::build(&model, Default::default()).unwrap();
        let mut fns = NextStateFunctions::derive(&model, Default::default()).unwrap();
        let signals: Vec<_> = fns.signals().collect();
        for z in signals {
            let eq = fns.equation(z);
            for s in sg.states() {
                let code = sg.code(s);
                let bits: Vec<bool> = code.bits().collect();
                let expected = model.next_state(sg.marking(s), code, z);
                assert_eq!(
                    eq.eval(&|v| bits[v as usize]),
                    expected,
                    "{label}/{} at state {s}",
                    model.signal_name(z)
                );
            }
        }
    }
}
