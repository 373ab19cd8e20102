//! Differential check of the §7 minimal-pair search.
//!
//! On a conflict-free prefix the checker searches the pairs
//! `C′ = ↓D ∖ D`, `D = C″ ∖ C′`, only. That decides USC outright; for
//! CSC an accepted minimal pair is a conflict, no USC conflict proves
//! CSC, and a search that met USC conflicts but accepted none falls
//! back to the whole subset chain. Over 3,000 random choice-free STGs
//! (every one has a conflict-free prefix) both verdicts must match the
//! explicit state graph, every witness must replay, and both fallback
//! outcomes must occur: USC violated while CSC holds, and a CSC
//! conflict that only the fallback finds (its `C′` is not minimal).

use stg_coding_conflicts::csc_core::{CheckOutcome, Checker};
use stg_coding_conflicts::petri::BitSet;
use stg_coding_conflicts::stg::gen::random::{random_stg, RandomStgConfig};
use stg_coding_conflicts::stg::StateGraph;
use stg_coding_conflicts::unfolding::{EventId, Prefix};

/// Whether `(c1, c2)` is a minimal pair: `c1 = ↓D ∖ D`, `D = c2 ∖ c1`.
fn is_minimal_pair(prefix: &Prefix, c1: &BitSet, c2: &BitSet) -> bool {
    let mut d = c2.clone();
    d.difference_with(c1);
    let mut past = prefix.empty_config();
    for e in d.iter() {
        past.union_with(prefix.local_config(EventId::from_index(e)));
    }
    past.difference_with(&d);
    c1.is_subset(c2) && past == *c1
}

#[test]
fn minimal_pairs_agree_with_the_state_graph() {
    let mut nets = 0;
    let mut usc_only = 0;
    let mut csc_by_fallback = 0;
    for signals in 2..=6 {
        for sync_cycles in 0..=3 {
            let config = RandomStgConfig {
                signals,
                sync_cycles,
                max_cycle_len: 3,
                splits: 0,
                ..RandomStgConfig::default()
            };
            for seed in 0..150 {
                let label = format!("signals {signals}, sync_cycles {sync_cycles}, seed {seed}");
                let stg = random_stg(&config, seed);
                let sg = StateGraph::build(&stg, Default::default()).expect("state graph");
                let checker = Checker::new(&stg).expect("prefix");
                assert!(
                    checker.prefix().is_dynamically_conflict_free(),
                    "{label}: a choice-free net has a conflict-free prefix"
                );
                let usc = checker.check_usc().expect("usc");
                let csc = checker.check_csc().expect("csc");
                assert_eq!(usc.is_satisfied(), sg.satisfies_usc(), "{label}: USC");
                assert_eq!(csc.is_satisfied(), sg.satisfies_csc(&stg), "{label}: CSC");
                if let CheckOutcome::Conflict(w) = &usc {
                    assert!(w.replay(&stg), "{label}: USC witness replays");
                    assert!(
                        is_minimal_pair(checker.prefix(), &w.config1, &w.config2),
                        "{label}: USC witness is a minimal pair"
                    );
                }
                match &csc {
                    CheckOutcome::Satisfied => usc_only += usize::from(!usc.is_satisfied()),
                    CheckOutcome::Conflict(w) => {
                        assert!(w.replay(&stg), "{label}: CSC witness replays");
                        assert_ne!(w.out1, w.out2, "{label}: CSC witness differs in Out");
                        if !is_minimal_pair(checker.prefix(), &w.config1, &w.config2) {
                            csc_by_fallback += 1;
                        }
                    }
                }
                nets += 1;
            }
        }
    }
    assert_eq!(nets, 3000);
    assert!(usc_only > 0, "no net had USC violated while CSC held");
    assert!(
        csc_by_fallback > 0,
        "no CSC conflict needed the fallback search"
    );
}
