//! Pins the search tree of the paper's 0-1 solver.
//!
//! The step caps (`Budget::max_solver_steps`, the Race schedule's
//! stage-2 cap) and the `ilp.solver_steps` metric count solver
//! propagations, so they keep their meaning only while the search
//! visits the same nodes. For the 15 Table 1 rows plus MULLER-10 and
//! CF-SYM-8-2, under USC and CSC, this test asserts the verdict, the
//! propagation count (`Checker::solver_steps`) and the size of both
//! witness configurations against recorded values. A change to the
//! propagation kernel that alters any of them changes the search, not
//! just its speed.

use bench_harness::models;
use stg_coding_conflicts::csc_core::{CheckOutcome, Checker};
use stg_coding_conflicts::stg::gen::counterflow::counterflow_sym;
use stg_coding_conflicts::stg::gen::pipeline::muller_pipeline;
use stg_coding_conflicts::stg::Stg;

/// One row: name, then per property (USC, CSC) the solver steps and
/// the witness configuration sizes (`None`: the property holds).
type Expected = (&'static str, [(u64, Option<(usize, usize)>); 2]);

const EXPECTED: [Expected; 17] = [
    ("LAZYRING", [(157, Some((8, 12))), (157, Some((8, 12)))]),
    ("RING", [(104, Some((38, 40))), (104, Some((38, 40)))]),
    ("DUP-4PH-A", [(48, Some((3, 7))), (48, Some((3, 7)))]),
    ("DUP-4PH-B", [(44, Some((13, 17))), (44, Some((13, 17)))]),
    (
        "DUP-4PH-MTR-A",
        [(56, Some((19, 23))), (56, Some((19, 23)))],
    ),
    (
        "DUP-4PH-MTR-B",
        [(68, Some((25, 29))), (68, Some((25, 29)))],
    ),
    ("DUP-MOD-A", [(105, Some((5, 9))), (105, Some((5, 9)))]),
    ("DUP-MOD-B", [(185, Some((13, 17))), (185, Some((13, 17)))]),
    ("DUP-MOD-C", [(265, Some((21, 25))), (265, Some((21, 25)))]),
    ("CF-SYM-A-CSC", [(347, None), (347, None)]),
    ("CF-SYM-B-CSC", [(1002, None), (1002, None)]),
    ("CF-SYM-C-CSC", [(931, None), (931, None)]),
    ("CF-SYM-D-CSC", [(994, None), (994, None)]),
    ("CF-ASYM-A-CSC", [(955, None), (955, None)]),
    ("CF-ASYM-B-CSC", [(4281, None), (4281, None)]),
    ("MULLER-10", [(55615, None), (55615, None)]),
    ("CF-SYM-8-2", [(54530, None), (54530, None)]),
];

fn roster() -> Vec<(String, Stg)> {
    let mut nets: Vec<(String, Stg)> = models()
        .into_iter()
        .map(|m| (m.name.to_owned(), m.stg))
        .collect();
    nets.push(("MULLER-10".to_owned(), muller_pipeline(10)));
    nets.push(("CF-SYM-8-2".to_owned(), counterflow_sym(8, 2)));
    nets
}

#[test]
fn search_tree_matches_recorded_steps_and_witnesses() {
    let nets = roster();
    assert_eq!(nets.len(), EXPECTED.len());
    for ((name, stg), (expected_name, expected)) in nets.iter().zip(EXPECTED) {
        assert_eq!(name, expected_name, "roster order");
        for (property, (steps, witness)) in ["USC", "CSC"].into_iter().zip(expected) {
            let checker = Checker::new(stg).unwrap();
            let outcome = match property {
                "USC" => checker.check_usc(),
                _ => checker.check_csc(),
            }
            .unwrap();
            let got = match outcome {
                CheckOutcome::Satisfied => None,
                CheckOutcome::Conflict(w) => Some((w.config1.len(), w.config2.len())),
            };
            assert_eq!(
                (checker.solver_steps(), got),
                (steps, witness),
                "{name} {property}: (solver steps, witness sizes)"
            );
        }
    }
}
