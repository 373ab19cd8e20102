//! Validates every row of the regenerated Table 1 against the
//! explicit-state oracle: the roster's expected verdicts, the
//! unfolding checker's verdicts and the enumerated truth must all
//! coincide, and each prefix must be complete.

use bench_harness::models;
use petri::ExploreLimits;
use stg_coding_conflicts::csc_core::Checker;
use stg_coding_conflicts::stg::StateGraph;
use stg_coding_conflicts::unfolding::{Prefix, UnfoldOptions};

#[test]
fn roster_verdicts_match_the_oracle() {
    for model in models() {
        let limits = ExploreLimits {
            max_states: 2_000_000,
            token_bound: 1,
        };
        let sg =
            StateGraph::build(&model.stg, limits).unwrap_or_else(|e| panic!("{}: {e}", model.name));
        let truth = sg.satisfies_csc(&model.stg);
        assert_eq!(
            truth, model.expect_csc,
            "{}: roster expectation",
            model.name
        );
        let checker = Checker::new(&model.stg).unwrap();
        assert_eq!(
            checker.check_csc().unwrap().is_satisfied(),
            truth,
            "{}: unfolding checker",
            model.name
        );
    }
}

#[test]
fn roster_models_are_consistent_and_safe() {
    for model in models() {
        let limits = ExploreLimits {
            max_states: 2_000_000,
            token_bound: 1,
        };
        let sg = StateGraph::build(&model.stg, limits).unwrap();
        for s in sg.states() {
            assert!(sg.marking(s).is_safe(), "{}", model.name);
        }
        let checker = Checker::new(&model.stg).unwrap();
        assert!(
            checker.check_consistency().unwrap().is_consistent(),
            "{}",
            model.name
        );
    }
}

#[test]
fn roster_prefixes_represent_all_markings() {
    use std::collections::HashSet;
    for model in models() {
        // Compare represented marking count against explicit count on
        // the rows small enough to enumerate configurations.
        let prefix = Prefix::of_stg(&model.stg, UnfoldOptions::default()).unwrap();
        let Some(configs) =
            stg_coding_conflicts::unfolding::completeness::cutoff_free_configurations(
                &prefix, 300_000,
            )
        else {
            continue; // too many configurations to enumerate; skip
        };
        let represented: HashSet<_> = configs.iter().map(|c| prefix.marking_of(c)).collect();
        let sg = StateGraph::build(&model.stg, ExploreLimits::default()).unwrap();
        assert_eq!(represented.len(), sg.num_states(), "{}", model.name);
    }
}

/// The resolver fixes the seven resolvable conflicted rows with the
/// recorded number of state signals, and the explicit oracle re-proves
/// CSC on every result. RING and DUP-4PH-MTR-B, which the resolver
/// does not fix within its default three signals, are left out: their
/// searches take seconds.
#[test]
fn roster_resolutions_match_the_recorded_outcomes() {
    use stg_coding_conflicts::resolve::{resolve_csc, ResolveOutcome, ResolverOptions};

    let recorded = [
        ("LAZYRING", 2),
        ("DUP-4PH-A", 1),
        ("DUP-4PH-B", 2),
        ("DUP-4PH-MTR-A", 3),
        ("DUP-MOD-A", 2),
        ("DUP-MOD-B", 3),
        ("DUP-MOD-C", 3),
    ];
    let rows = models();
    for (name, signals) in recorded {
        let model = rows
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name}: not in the roster"));
        assert!(!model.expect_csc, "{name}: conflicted row");
        match resolve_csc(&model.stg, ResolverOptions::default()).unwrap() {
            ResolveOutcome::Resolved { stg, inserted } => {
                assert_eq!(inserted.len(), signals, "{name}: {inserted:?}");
                let sg = StateGraph::build(&stg, ExploreLimits::default())
                    .unwrap_or_else(|e| panic!("{name}: {e}"));
                assert!(sg.satisfies_csc(&stg), "{name}: oracle");
            }
            ResolveOutcome::Failed { remaining, .. } => {
                panic!("{name}: failed with {remaining} conflict pair(s) left")
            }
            ResolveOutcome::AlreadySatisfied => panic!("{name}: already satisfied"),
        }
    }
}
