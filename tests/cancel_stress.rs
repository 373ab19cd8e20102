//! Concurrent-cancellation stress: a `CancelToken` flipped mid-check
//! must stop every engine — including the race, whose
//! two racers each derive their own guard from the same token —
//! with `Unknown(Cancelled)` within a bounded delay.
//!
//! Each engine gets an adversarial input it would otherwise chew on
//! for seconds to minutes, so a conclusive verdict before the cancel
//! fires is not a realistic outcome.

use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use stg_coding_conflicts::csc_core::{
    Budget, CancelToken, CheckRequest, Engine, ExhaustionReason, Property, Verdict,
};
use stg_coding_conflicts::stg::gen::arbiter::mutex_arbiter;
use stg_coding_conflicts::stg::gen::counterflow::{counterflow_asym, counterflow_sym};
use stg_coding_conflicts::stg::Stg;

/// How long after the check starts the token is flipped.
const CANCEL_AFTER: Duration = Duration::from_millis(50);
/// The cancellation must be observed within this much wall-clock
/// (covers the poll granularity of every engine plus CI slack).
const OBSERVE_WITHIN: Duration = Duration::from_secs(10);

/// An input the given engine cannot decide in seconds.
fn adversarial_input(engine: Engine) -> Stg {
    match engine {
        // The absence proof explodes in IP solver propagations: the
        // arbiter family has dynamic conflicts, so its search runs
        // under the lexicographic separation (4 s in release).
        Engine::UnfoldingIlp => mutex_arbiter(18),
        // Millions of reachable states.
        Engine::ExplicitStateGraph => counterflow_asym(8, 2),
        // Single BDD operations run for minutes on this input.
        Engine::SymbolicBdd => counterflow_sym(4, 4),
        // The integer search over the state equation branches for
        // minutes; cancellation is polled per pivot and per node.
        Engine::Cegar => counterflow_sym(4, 4),
        // Both racers must be slow, or one would win before the
        // cancel fires; the 18-client arbiter takes every engine
        // seconds.
        Engine::Race => mutex_arbiter(18),
    }
}

/// Runs `engine` on its adversarial input and flips the token from a
/// second thread mid-flight.
fn cancelled_run(engine: Engine) -> (Verdict, Duration) {
    let stg = adversarial_input(engine);
    let token = CancelToken::new();
    let budget = Budget::unlimited().with_cancel(token.clone());
    let canceller = thread::spawn(move || {
        thread::sleep(CANCEL_AFTER);
        token.cancel();
    });
    let start = Instant::now();
    let run = CheckRequest::new(&stg, Property::Csc)
        .engine(engine)
        .budget(budget)
        .run()
        .expect("engine ran");
    let elapsed = start.elapsed();
    canceller.join().expect("canceller thread");
    (run.verdict, elapsed)
}

#[test]
fn mid_flight_cancel_stops_each_engine_within_bounded_delay() {
    for engine in [
        Engine::UnfoldingIlp,
        Engine::ExplicitStateGraph,
        Engine::SymbolicBdd,
        Engine::Cegar,
    ] {
        let (verdict, elapsed) = cancelled_run(engine);
        assert_eq!(
            verdict,
            Verdict::Unknown(ExhaustionReason::Cancelled),
            "{engine:?}"
        );
        assert!(
            elapsed < CANCEL_AFTER + OBSERVE_WITHIN,
            "{engine:?} took {elapsed:?} to observe the cancel"
        );
    }
}

/// The race propagates one external cancel into both racer
/// threads: the race as a whole must come back cancelled, not hang
/// on a racer that missed the flag.
#[test]
fn mid_flight_cancel_stops_the_race() {
    let (verdict, elapsed) = cancelled_run(Engine::Race);
    assert_eq!(verdict, Verdict::Unknown(ExhaustionReason::Cancelled));
    assert!(
        elapsed < CANCEL_AFTER + OBSERVE_WITHIN,
        "race took {elapsed:?} to observe the cancel"
    );
}

/// All engines cancelled concurrently — one checking thread plus one
/// cancelling thread per engine, all in flight at once — each still
/// reports `Unknown(Cancelled)` in bounded time.
#[test]
fn concurrent_cancellations_do_not_interfere() {
    let engines = [
        Engine::UnfoldingIlp,
        Engine::ExplicitStateGraph,
        Engine::SymbolicBdd,
        Engine::Cegar,
        Engine::Race,
    ];
    let (tx, rx) = mpsc::channel();
    thread::scope(|scope| {
        for engine in engines {
            let tx = tx.clone();
            scope.spawn(move || {
                let _ = tx.send((engine, cancelled_run(engine)));
            });
        }
    });
    drop(tx);
    let mut seen = 0;
    for (engine, (verdict, elapsed)) in rx {
        seen += 1;
        assert_eq!(
            verdict,
            Verdict::Unknown(ExhaustionReason::Cancelled),
            "{engine:?}"
        );
        assert!(
            elapsed < CANCEL_AFTER + OBSERVE_WITHIN,
            "{engine:?} took {elapsed:?}"
        );
    }
    assert_eq!(seen, engines.len());
}
