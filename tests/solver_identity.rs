//! Pins the search tree of the paper's 0-1 solver.
//!
//! The step caps (`Budget::max_solver_steps`, the Race schedule's
//! stage-2 cap) and the `ilp.solver_steps` metric count solver
//! propagations, so they keep their meaning only while the search
//! visits the same nodes. For the 15 Table 1 rows plus MULLER-10 and
//! CF-SYM-8-2, under USC and CSC, this test asserts the verdict, the
//! propagation count (`Checker::solver_steps`) and the size of both
//! witness configurations against recorded values. A change to the
//! propagation kernel or to the branching rule that alters any of them
//! changes the search, not just its speed.
//!
//! The recorded tree is that of the fail-first rule (DESIGN.md §5,
//! docs/THEORY.md): each decision branches inside the `Linear` row
//! with the fewest unassigned terms, on its term earliest in the
//! static descending-event order, and falls back to that order once
//! every `Linear` row is assigned. The rule changed the steps of every
//! row but DUP-MOD-A, and RING's witness, from the tree of the static
//! order alone (MULLER-10: 28,143 → 694 steps).
//!
//! All 17 nets have conflict-free prefixes, so every row is searched
//! over the §7 minimal pairs `C′ = ↓D ∖ D`, `D = C″ ∖ C′`
//! (docs/THEORY.md §7): each witness's `C′` is the causal past of
//! what `C″` adds. No row needs the second CSC phase, so each
//! property spends the same steps. Re-record the table, with old and
//! new values in CHANGES.md, only when the search is meant to change.

use bench_harness::models;
use stg_coding_conflicts::csc_core::{CheckOutcome, Checker};
use stg_coding_conflicts::stg::gen::counterflow::counterflow_sym;
use stg_coding_conflicts::stg::gen::pipeline::muller_pipeline;
use stg_coding_conflicts::stg::Stg;

/// One row: name, then per property (USC, CSC) the solver steps and
/// the witness configuration sizes (`None`: the property holds).
type Expected = (&'static str, [(u64, Option<(usize, usize)>); 2]);

const EXPECTED: [Expected; 17] = [
    ("LAZYRING", [(58, Some((8, 12))), (58, Some((8, 12)))]),
    ("RING", [(114, Some((26, 34))), (114, Some((26, 34)))]),
    ("DUP-4PH-A", [(37, Some((3, 7))), (37, Some((3, 7)))]),
    ("DUP-4PH-B", [(51, Some((9, 17))), (51, Some((9, 17)))]),
    (
        "DUP-4PH-MTR-A",
        [(73, Some((11, 23))), (73, Some((11, 23)))],
    ),
    (
        "DUP-4PH-MTR-B",
        [(95, Some((13, 29))), (95, Some((13, 29)))],
    ),
    ("DUP-MOD-A", [(46, Some((5, 9))), (46, Some((5, 9)))]),
    ("DUP-MOD-B", [(70, Some((13, 17))), (70, Some((13, 17)))]),
    ("DUP-MOD-C", [(94, Some((21, 25))), (94, Some((21, 25)))]),
    ("CF-SYM-A-CSC", [(54, None), (54, None)]),
    ("CF-SYM-B-CSC", [(78, None), (78, None)]),
    ("CF-SYM-C-CSC", [(86, None), (86, None)]),
    ("CF-SYM-D-CSC", [(70, None), (70, None)]),
    ("CF-ASYM-A-CSC", [(78, None), (78, None)]),
    ("CF-ASYM-B-CSC", [(118, None), (118, None)]),
    ("MULLER-10", [(694, None), (694, None)]),
    ("CF-SYM-8-2", [(134, None), (134, None)]),
];

fn roster() -> Vec<(&'static str, Stg)> {
    let mut nets: Vec<(&'static str, Stg)> =
        models().into_iter().map(|m| (m.name, m.stg)).collect();
    nets.push(("MULLER-10", muller_pipeline(10)));
    nets.push(("CF-SYM-8-2", counterflow_sym(8, 2)));
    nets
}

#[test]
fn search_tree_matches_recorded_steps_and_witnesses() {
    let got: Vec<Expected> = roster()
        .iter()
        .map(|&(name, ref stg)| {
            let run = |csc: bool| {
                let checker = Checker::new(stg).unwrap();
                let outcome = if csc {
                    checker.check_csc()
                } else {
                    checker.check_usc()
                }
                .unwrap();
                let witness = match outcome {
                    CheckOutcome::Satisfied => None,
                    CheckOutcome::Conflict(w) => Some((w.config1.len(), w.config2.len())),
                };
                (checker.solver_steps(), witness)
            };
            (name, [run(false), run(true)])
        })
        .collect();
    assert_eq!(
        got, EXPECTED,
        "per net, (USC, CSC) × (solver steps, witness sizes)"
    );
}
