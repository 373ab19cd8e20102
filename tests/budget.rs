//! Budget semantics: exhausted engines must answer `Unknown` — never
//! a wrong `Holds`/`Violated` — within the wall-clock allowance, and
//! the schedule `stgd` runs must still match the expected verdicts
//! when resources are plentiful.

use std::time::{Duration, Instant};

use bench_harness::models;
use stg_coding_conflicts::csc_core::{
    Budget, CancelToken, CheckRequest, Engine, ExhaustionReason, Property, Verdict,
};
use stg_coding_conflicts::stg::gen::counterflow::{counterflow_asym, counterflow_sym};
use stg_coding_conflicts::stg::gen::random::{random_stg, RandomStgConfig};
use stg_coding_conflicts::stg::Stg;

const ALL_ENGINES: [Engine; 5] = [
    Engine::UnfoldingIlp,
    Engine::ExplicitStateGraph,
    Engine::SymbolicBdd,
    Engine::Cegar,
    Engine::Race,
];

type ReasonCheck = fn(&ExhaustionReason) -> bool;

/// Each resource cap trips its own engine into the matching
/// `ExhaustionReason` on a model the engine could otherwise decide.
#[test]
fn tiny_budgets_yield_unknown_with_the_right_reason() {
    let cf33 = counterflow_sym(3, 3);
    // A net whose CEGAR search needs more than one branch node.
    let random = random_stg(&RandomStgConfig::default(), 34);
    let cases: [(&Stg, Engine, Budget, ReasonCheck); 5] = [
        (
            &cf33,
            Engine::UnfoldingIlp,
            Budget::unlimited().with_max_events(4),
            |r| matches!(r, ExhaustionReason::EventLimit(4)),
        ),
        (
            &cf33,
            Engine::UnfoldingIlp,
            Budget::unlimited().with_max_solver_steps(1),
            |r| matches!(r, ExhaustionReason::SolverStepLimit(1)),
        ),
        (
            &cf33,
            Engine::ExplicitStateGraph,
            Budget::unlimited().with_max_states(4),
            |r| matches!(r, ExhaustionReason::StateLimit(4)),
        ),
        (
            &cf33,
            Engine::SymbolicBdd,
            Budget::unlimited().with_max_bdd_nodes(64),
            |r| matches!(r, ExhaustionReason::BddNodeLimit(64)),
        ),
        (
            &random,
            Engine::Cegar,
            Budget::unlimited().with_max_solver_steps(1),
            |r| matches!(r, ExhaustionReason::SolverStepLimit(1)),
        ),
    ];
    for (stg, engine, budget, expected) in cases {
        let run = CheckRequest::new(stg, Property::Csc)
            .engine(engine)
            .budget(budget)
            .run()
            .unwrap();
        match &run.verdict {
            Verdict::Unknown(reason) => {
                assert!(expected(reason), "{engine:?}: wrong reason {reason:?}")
            }
            other => panic!("{engine:?}: expected Unknown, got {other:?}"),
        }
        assert_eq!(run.report.engine, engine.name());
    }
}

/// A token cancelled before the call starts stops every engine at its
/// first poll.
#[test]
fn pre_cancelled_token_stops_every_engine() {
    let stg = counterflow_sym(3, 3);
    let token = CancelToken::new();
    token.cancel();
    let budget = Budget::unlimited().with_cancel(token);
    for engine in ALL_ENGINES {
        let run = CheckRequest::new(&stg, Property::Csc)
            .engine(engine)
            .budget(budget.clone())
            .run()
            .unwrap();
        assert_eq!(
            run.verdict,
            Verdict::Unknown(ExhaustionReason::Cancelled),
            "{engine:?}"
        );
    }
}

/// An already-expired deadline yields `Unknown(DeadlineExpired)` from
/// every engine, near-instantly, with the report naming the engine.
#[test]
fn expired_deadline_yields_unknown_for_every_engine() {
    let stg = counterflow_sym(3, 3);
    let budget = Budget::unlimited().with_deadline(Duration::ZERO);
    for engine in ALL_ENGINES {
        let start = Instant::now();
        let run = CheckRequest::new(&stg, Property::Csc)
            .engine(engine)
            .budget(budget.clone())
            .run()
            .unwrap();
        let elapsed = start.elapsed();
        assert_eq!(
            run.verdict,
            Verdict::Unknown(ExhaustionReason::DeadlineExpired),
            "{engine:?}"
        );
        assert_eq!(run.report.engine, engine.name());
        assert!(elapsed < Duration::from_secs(1), "{engine:?}: {elapsed:?}");
    }
}

/// The acceptance-criterion scenario: the symbolic engine — whose
/// single BDD operations can run for minutes on this input — must
/// come back within ~2× a 100 ms deadline, inconclusive but with its
/// partial node count reported.
#[test]
fn symbolic_respects_deadline_on_adversarial_input() {
    let stg = counterflow_sym(4, 4);
    let deadline = Duration::from_millis(100);
    let budget = Budget::unlimited().with_deadline(deadline);
    let start = Instant::now();
    let run = CheckRequest::new(&stg, Property::Csc)
        .engine(Engine::SymbolicBdd)
        .budget(budget)
        .run()
        .unwrap();
    let elapsed = start.elapsed();
    assert_eq!(
        run.verdict,
        Verdict::Unknown(ExhaustionReason::DeadlineExpired)
    );
    // ~2× the allowance (plus scheduler slack); without manager-level
    // interruption this input takes minutes.
    assert!(
        elapsed < deadline * 2 + Duration::from_millis(100),
        "{elapsed:?}"
    );
    assert_eq!(run.report.engine, "symbolic");
    assert!(run.report.bdd_nodes.unwrap() > 2, "partial work reported");
    assert!(run.report.elapsed >= deadline);
}

/// With a generous budget, the schedule `stgd` runs (`Race` with the
/// structure stage) reproduces the expected CSC verdict on every
/// Table 1 roster model, and answers each one before the race: from
/// the structure pass, the small-state probe or the capped unfolding
/// stage, with no racer started.
#[test]
fn served_schedule_matches_expected_csc_on_table1_roster() {
    let budget = Budget::unlimited().with_deadline(Duration::from_secs(120));
    for model in models() {
        let run = CheckRequest::new(&model.stg, Property::Csc)
            .engine(Engine::Race)
            .budget(budget.clone())
            .structure(true)
            .run()
            .unwrap();
        assert_eq!(
            run.verdict.holds(),
            Some(model.expect_csc),
            "{}: {:?}",
            model.name,
            run.verdict
        );
        assert!(
            matches!(
                run.report.winner,
                Some("structure" | "explicit" | "unfolding-ilp")
            ),
            "{}: won by {:?}",
            model.name,
            run.report.winner
        );
        assert!(!run.report.raced, "{}: the race ran", model.name);
    }
}

/// The CEGAR engine under a deadline that lands mid-loop: the
/// outermost LP relaxation, the branch-and-bound layer and the
/// token-game replay all poll the same guard, so the run must come
/// back inconclusive (never a wrong verdict) within ~2× the
/// allowance.
#[test]
fn cegar_respects_deadline_on_adversarial_input() {
    let stg = counterflow_sym(4, 4);
    let deadline = Duration::from_millis(100);
    let budget = Budget::unlimited().with_deadline(deadline);
    let start = Instant::now();
    let run = CheckRequest::new(&stg, Property::Csc)
        .engine(Engine::Cegar)
        .budget(budget)
        .run()
        .unwrap();
    let elapsed = start.elapsed();
    assert_eq!(
        run.verdict,
        Verdict::Unknown(ExhaustionReason::DeadlineExpired)
    );
    assert!(
        elapsed < deadline * 2 + Duration::from_millis(100),
        "{elapsed:?}"
    );
    assert_eq!(run.report.engine, "cegar");
    assert_eq!(run.report.prefix_events_built, Some(0));
}

/// A zero branch-node allowance starves every CEGAR target on a
/// conflicted model the LP relaxation cannot prove: the verdict must
/// degrade to `Unknown(SolverStepLimit)` — not to a wrong `Holds`.
#[test]
fn cegar_with_zero_branch_nodes_abstains() {
    let stg = stg_coding_conflicts::stg::gen::vme::vme_read();
    let budget = Budget::unlimited().with_max_solver_steps(0);
    for property in [Property::Usc, Property::Csc] {
        let run = CheckRequest::new(&stg, property)
            .engine(Engine::Cegar)
            .budget(budget.clone())
            .run()
            .unwrap();
        assert!(
            matches!(
                run.verdict,
                Verdict::Unknown(ExhaustionReason::SolverStepLimit(_))
            ),
            "{property:?}: {:?}",
            run.verdict
        );
    }
}

/// A check's deadline is anchored once: under `Race`, the capped
/// unfolding stage and the race share one wall clock, so the whole
/// check ends within the deadline plus polling slack — not stage 2's
/// time plus a fresh deadline for the race. `report.elapsed` is that
/// wall time, every stage included, within 5% (or 1 ms) of the time
/// measured around `run()`; under a zero deadline nearly all of it is
/// the structure pass.
#[test]
fn race_ends_within_one_deadline() {
    let stg = counterflow_asym(8, 2);
    for deadline in [Duration::ZERO, Duration::from_millis(400)] {
        // The event cap starves the capped unfolding stage and the
        // unfolding racer, so the race runs into the deadline.
        let budget = Budget::unlimited()
            .with_deadline(deadline)
            .with_max_events(8);
        let start = Instant::now();
        let run = CheckRequest::new(&stg, Property::Csc)
            .engine(Engine::Race)
            .budget(budget)
            .structure(true)
            .run()
            .unwrap();
        let elapsed = start.elapsed();
        assert_ne!(run.verdict.holds(), Some(false), "the net is conflict-free");
        assert!(
            elapsed < deadline + Duration::from_millis(250),
            "{elapsed:?}: the race re-anchored the deadline after stage 2"
        );
        let gap = elapsed.saturating_sub(run.report.elapsed);
        assert!(
            run.report.elapsed <= elapsed && gap <= (elapsed / 20).max(Duration::from_millis(1)),
            "report says {:?}, the check took {elapsed:?}",
            run.report.elapsed
        );
    }
}
