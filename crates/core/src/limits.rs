//! Budgets, cancellation and three-valued verdicts.
//!
//! Every engine behind [`crate::CheckRequest`] can be told to give
//! up: a [`Budget`] caps wall-clock time, unfolding events, solver
//! propagations, explicit states and BDD nodes, and carries an
//! optional [`CancelToken`] another thread may flip at any moment.
//! An exhausted engine returns [`Verdict::Unknown`] with the
//! [`ExhaustionReason`] — never a wrong `Holds`/`Violated` — together
//! with a [`ResourceReport`] of what it consumed before stopping.
//!
//! The cooperative machinery (the `Arc<AtomicBool>` flag and the
//! deadline clock) lives in [`petri::StopGuard`], at the bottom of
//! the dependency stack, so every engine polls the same primitive;
//! this module owns the user-facing vocabulary on top of it.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cegar::CegarStats;
pub use lint::structure::StructureSummary;
use petri::{Marking, StopGuard, StopReason};
use symbolic::BddStats;

use crate::checker::NormalcyReport;
use crate::witness::ConflictWitness;

/// A shared cancellation flag. Clones observe the same flag, so one
/// token can be handed to a worker thread and cancelled from the
/// controlling thread.
///
/// # Examples
///
/// ```
/// use csc_core::CancelToken;
///
/// let token = CancelToken::new();
/// let observer = token.clone();
/// assert!(!observer.is_cancelled());
/// token.cancel();
/// assert!(observer.is_cancelled());
/// ```
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Raises the flag; every engine polling a guard derived from
    /// this token stops at its next loop head.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether the flag has been raised.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }

    /// The raw flag, for building a [`StopGuard`].
    pub(crate) fn flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.0)
    }

    /// Whether `other` is a clone of this token (observes the same
    /// flag). Useful for registries that track live tokens.
    pub fn same_token(&self, other: &CancelToken) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

/// Resource limits for one [`crate::CheckRequest`] run. The
/// default budget is unlimited; every field is an independent cap.
///
/// The wall-clock `deadline` is a *duration*, anchored to the moment
/// [`Budget::guard`] is called — i.e. when the engine starts — not
/// when the budget value was constructed.
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use csc_core::Budget;
///
/// let budget = Budget::unlimited()
///     .with_deadline(Duration::from_millis(100))
///     .with_max_events(10_000);
/// assert_eq!(budget.max_events, Some(10_000));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Budget {
    /// Wall-clock allowance, anchored when the check starts.
    pub deadline: Option<Duration>,
    /// Cap on unfolding-prefix events.
    pub max_events: Option<usize>,
    /// Cap on solver propagation steps (per integer program).
    pub max_solver_steps: Option<u64>,
    /// Cap on explicitly enumerated states.
    pub max_states: Option<usize>,
    /// Cap on allocated BDD nodes.
    pub max_bdd_nodes: Option<usize>,
    /// Cooperative cancellation flag.
    pub cancel: Option<CancelToken>,
}

impl Budget {
    /// The budget with no limits (same as `Budget::default()`).
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// Sets the wall-clock allowance.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the unfolding event cap.
    #[must_use]
    pub fn with_max_events(mut self, max_events: usize) -> Self {
        self.max_events = Some(max_events);
        self
    }

    /// Sets the solver propagation cap.
    #[must_use]
    pub fn with_max_solver_steps(mut self, max_steps: u64) -> Self {
        self.max_solver_steps = Some(max_steps);
        self
    }

    /// Sets the explicit state cap.
    #[must_use]
    pub fn with_max_states(mut self, max_states: usize) -> Self {
        self.max_states = Some(max_states);
        self
    }

    /// Sets the BDD node cap.
    #[must_use]
    pub fn with_max_bdd_nodes(mut self, max_nodes: usize) -> Self {
        self.max_bdd_nodes = Some(max_nodes);
        self
    }

    /// Attaches a cancellation token.
    #[must_use]
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Builds the [`StopGuard`] engines poll, anchoring the deadline
    /// to *now*. `CheckRequest::run` calls this exactly once per
    /// invocation, so every stage of a check shares one deadline.
    pub fn guard(&self) -> StopGuard {
        StopGuard::new(
            self.cancel.as_ref().map(CancelToken::flag),
            self.deadline.map(|d| Instant::now() + d),
        )
    }
}

/// Which resource ran out when a check returns
/// [`Verdict::Unknown`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExhaustionReason {
    /// The [`CancelToken`] was cancelled.
    Cancelled,
    /// The wall-clock deadline passed.
    DeadlineExpired,
    /// The unfolding event cap was reached.
    EventLimit(usize),
    /// The solver propagation cap was reached.
    SolverStepLimit(u64),
    /// The explicit state cap was reached.
    StateLimit(usize),
    /// The BDD node cap was reached.
    BddNodeLimit(usize),
    /// The selected engine cannot decide this property at all (e.g.
    /// the CEGAR state-equation engine has no normalcy encoding). The
    /// payload says what is missing. Deliberately an `Unknown`, not an
    /// error: inside a composite engine another member can still be
    /// conclusive.
    Unsupported(&'static str),
}

impl fmt::Display for ExhaustionReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExhaustionReason::Cancelled => write!(f, "cancelled"),
            ExhaustionReason::DeadlineExpired => write!(f, "wall-clock deadline expired"),
            ExhaustionReason::EventLimit(n) => write!(f, "unfolding event limit of {n} reached"),
            ExhaustionReason::SolverStepLimit(n) => {
                write!(f, "solver step limit of {n} reached")
            }
            ExhaustionReason::StateLimit(n) => write!(f, "explicit state limit of {n} reached"),
            ExhaustionReason::BddNodeLimit(n) => write!(f, "BDD node limit of {n} reached"),
            ExhaustionReason::Unsupported(what) => {
                write!(f, "unsupported by this engine: {what}")
            }
        }
    }
}

impl From<StopReason> for ExhaustionReason {
    fn from(reason: StopReason) -> Self {
        match reason {
            StopReason::Cancelled => ExhaustionReason::Cancelled,
            StopReason::DeadlineExpired => ExhaustionReason::DeadlineExpired,
        }
    }
}

/// Evidence attached to a [`Verdict::Violated`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Witness {
    /// A USC/CSC conflict with replayable execution paths (unfolding
    /// engine).
    Conflict(Box<ConflictWitness>),
    /// Per-signal normalcy outcomes with violation witnesses
    /// (unfolding engine).
    Normalcy(Box<NormalcyReport>),
    /// Two concrete conflicting states (explicit/symbolic engines,
    /// which do not carry execution paths).
    States(Box<(Marking, Marking)>),
    /// The engine established the violation without a decoded
    /// witness (symbolic counting).
    Unwitnessed,
}

/// The three-valued result of a budgeted check.
///
/// `Unknown` is a first-class outcome, not an error: the property may
/// hold or not — the engine ran out of budget before it could tell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The property holds.
    Holds,
    /// The property is violated; evidence attached.
    Violated(Witness),
    /// The budget was exhausted before a verdict was reached.
    Unknown(ExhaustionReason),
}

impl Verdict {
    /// `Some(true)` for [`Verdict::Holds`], `Some(false)` for
    /// [`Verdict::Violated`], `None` for [`Verdict::Unknown`].
    pub fn holds(&self) -> Option<bool> {
        match self {
            Verdict::Holds => Some(true),
            Verdict::Violated(_) => Some(false),
            Verdict::Unknown(_) => None,
        }
    }

    /// Whether the check was inconclusive.
    pub fn is_unknown(&self) -> bool {
        matches!(self, Verdict::Unknown(_))
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Holds => write!(f, "holds"),
            Verdict::Violated(_) => write!(f, "violated"),
            Verdict::Unknown(reason) => write!(f, "unknown ({reason})"),
        }
    }
}

/// What one engine invocation consumed. Fields an engine does not
/// track are `None`; a populated field of an exhausted run reflects
/// the partial work done before stopping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceReport {
    /// Engine that produced the verdict (`"unfolding-ilp"`,
    /// `"explicit"`, `"symbolic"`, `"cegar"`, `"race"`).
    pub engine: &'static str,
    /// The stage that answered: `"structure"` when that stage decided
    /// the check before any engine ran, and for `"race"`
    /// the schedule stage or racer whose verdict was adopted
    /// (`"explicit"` or `"unfolding-ilp"`).
    /// `None` when an engine other than `"race"` answered, or when no
    /// stage was conclusive.
    pub winner: Option<&'static str>,
    /// Whether the race of [`crate::Engine::Race`] ran, i.e.
    /// its racers were started. `false` when an earlier stage of the
    /// schedule (structure, small-state probe, capped unfolding)
    /// answered or used up the deadline, and for every other engine.
    pub raced: bool,
    /// Wall-clock time of the whole check, from the start of
    /// [`crate::CheckRequest::run`] to its verdict, every stage
    /// included, whichever stage answered.
    pub elapsed: Duration,
    /// Unfolding events in the prefix the check ran on (its size,
    /// whether freshly built or reused from an artifact cache).
    pub prefix_events: Option<usize>,
    /// Unfolding conditions built.
    pub prefix_conditions: Option<usize>,
    /// Unfolding events constructed *by this call*: equals
    /// `prefix_events` on a cold run, `0` when a shared
    /// [`crate::artifact::Artifacts`] prefix was reused, and the
    /// partial count when construction was cut short. `None` when the
    /// engine never touched the unfolding stage.
    pub prefix_events_built: Option<usize>,
    /// Solver propagation steps across all integer programs of the
    /// call.
    pub solver_steps: Option<u64>,
    /// Explicit states enumerated.
    pub states: Option<usize>,
    /// Peak live BDD nodes over the symbolic run.
    pub bdd_nodes: Option<usize>,
    /// Detailed BDD manager counters of the symbolic run (live/peak
    /// nodes, garbage collections, reordering passes, final variable
    /// order). `None` for engines that never touched the symbolic
    /// stage.
    pub bdd: Option<BddStats>,
    /// Result of the structural net-class pass, when one ran (see
    /// [`crate::CheckRequest::structure`]). `structure.proved` marks
    /// a verdict decided by the class-gated fast path alone — no
    /// engine ran and no prefix was built.
    pub structure: Option<StructureSummary>,
    /// Counters of the CEGAR state-equation engine (iterations, cuts,
    /// branch nodes, …). `None` for every other engine.
    pub cegar: Option<CegarStats>,
    /// Counters of the unfolding stage the prefix this run used was
    /// built with (possible extensions discovered and committed). When
    /// the prefix was reused from a shared [`crate::artifact::Artifacts`]
    /// cache these describe the *original* construction — the run
    /// itself built `prefix_events_built = 0` events. `None` for
    /// engines that never touched the unfolding stage.
    pub unfold: Option<unfolding::UnfoldStats>,
}

impl ResourceReport {
    /// An empty report for `engine` (all counters `None`, zero
    /// elapsed time).
    pub fn empty(engine: &'static str) -> Self {
        ResourceReport {
            engine,
            winner: None,
            raced: false,
            elapsed: Duration::ZERO,
            prefix_events: None,
            prefix_conditions: None,
            prefix_events_built: None,
            solver_steps: None,
            states: None,
            bdd_nodes: None,
            bdd: None,
            structure: None,
            cegar: None,
            unfold: None,
        }
    }
}

/// A completed [`crate::CheckRequest`] run: the verdict plus what
/// it cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckRun {
    /// The three-valued outcome.
    pub verdict: Verdict,
    /// Resources consumed.
    pub report: ResourceReport,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_token_is_shared() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!clone.is_cancelled());
        token.cancel();
        assert!(clone.is_cancelled());
    }

    #[test]
    fn unlimited_budget_guard_never_fires() {
        let guard = Budget::unlimited().guard();
        assert!(!guard.is_limited());
        assert_eq!(guard.poll_now(), Ok(()));
    }

    #[test]
    fn cancelled_budget_guard_fires() {
        let token = CancelToken::new();
        let budget = Budget::unlimited().with_cancel(token.clone());
        let guard = budget.guard();
        assert_eq!(guard.poll_now(), Ok(()));
        token.cancel();
        assert_eq!(guard.poll_now(), Err(StopReason::Cancelled));
    }

    #[test]
    fn deadline_anchors_at_guard_creation() {
        let budget = Budget::unlimited().with_deadline(Duration::from_secs(3600));
        // Created long "after" the budget, the guard still has the
        // full hour.
        let guard = budget.guard();
        assert_eq!(guard.poll_now(), Ok(()));
        let expired = Budget::unlimited().with_deadline(Duration::ZERO).guard();
        assert_eq!(expired.poll_now(), Err(StopReason::DeadlineExpired));
    }

    #[test]
    fn verdict_projections() {
        assert_eq!(Verdict::Holds.holds(), Some(true));
        assert_eq!(Verdict::Violated(Witness::Unwitnessed).holds(), Some(false));
        let unknown = Verdict::Unknown(ExhaustionReason::EventLimit(7));
        assert_eq!(unknown.holds(), None);
        assert!(unknown.is_unknown());
        assert!(unknown.to_string().contains("event limit of 7"));
    }

    #[test]
    fn exhaustion_reasons_display() {
        for (reason, needle) in [
            (ExhaustionReason::Cancelled, "cancelled"),
            (ExhaustionReason::DeadlineExpired, "deadline"),
            (ExhaustionReason::EventLimit(3), "event limit"),
            (ExhaustionReason::SolverStepLimit(4), "step limit"),
            (ExhaustionReason::StateLimit(5), "state limit"),
            (ExhaustionReason::BddNodeLimit(6), "node limit"),
            (ExhaustionReason::Unsupported("normalcy"), "unsupported"),
        ] {
            assert!(reason.to_string().contains(needle), "{reason:?}");
        }
    }
}
