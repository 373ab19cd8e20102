//! Uniform, budgeted front-end over the verification engines.
//!
//! Used by the cross-validation tests and the benchmark harness: the
//! same property can be decided by the paper's unfolding + integer
//! programming method, by explicit state-graph enumeration (the
//! ground-truth oracle), by the BDD-based symbolic baseline (the
//! Petrify-style comparator of Table 1), by CEGAR over the state
//! equation, or by [`Engine::Race`], an ordered schedule that ends in a
//! concurrent race.
//!
//! # The `Race` schedule
//!
//! `Race` is the service's default, so its order decides what a user
//! waits for. It runs, under one guard anchored once per check:
//!
//! 1. the structure fast path (when [`CheckRequest::structure`] is on);
//! 2. the paper's engine, unfolding + 0-1 IP, under constant caps
//!    (4096 prefix events, 10⁶ solver steps, each lowered to the
//!    request's own budget when that is tighter), opened by an
//!    explicit probe capped at 16 markings;
//! 3. the prelint LP (when [`CheckRequest::prelint`] is on), only when
//!    stage 2 abstained;
//! 4. the four-way race, only when the LP did not prove the property.
//!
//! The probe exists because a prefix and an integer program have a
//! set-up cost of their own: on a net with a dozen markings,
//! enumerating them answers in half the time the paper's engine needs.
//! It gives up at the cap, after about 20 µs, so every larger net is
//! still answered by the paper's engine.
//!
//! The LP runs third because it is the slowest layer that can answer.
//! Its exact-rational simplex costs milliseconds to seconds on the
//! Table 1 rows, where the capped unfolding stage answers every row in
//! about a millisecond; the LP earns its place only on nets whose
//! prefix or integer program outgrows the caps. A truncated stage-2
//! prefix is never cached, so the race's unfolding racer still runs
//! uncapped.
//!
//! Every stage that runs and abstains folds its counters into the one
//! [`ResourceReport`] the check returns; the first stage that answers
//! names itself in [`ResourceReport::winner`].
//!
//! Every call runs under a [`Budget`] and returns a three-valued
//! [`Verdict`] plus a [`ResourceReport`]: an exhausted engine answers
//! [`Verdict::Unknown`] with the [`ExhaustionReason`] — never a wrong
//! `Holds`/`Violated`. Engine panics are contained at this boundary
//! and surface as [`CheckError::EngineFailure`].

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use ilp::AbortCause;
use petri::{ExploreLimits, Marking, PlaceId, ReachError, StopGuard};
use stg::{CodeVec, Edge, Label, SgError, Signal, Stg};
use symbolic::{SymbolicBudget, SymbolicChecker, SymbolicStop};
use unfolding::UnfoldError;

use crate::artifact::Artifacts;
use crate::checker::{CheckOutcome, Checker, CheckerOptions};
use crate::error::CheckError;
use crate::limits::{
    Budget, CheckRun, ExhaustionReason, LintSummary, ResourceReport, StructureSummary, Verdict,
    Witness,
};

/// Which engine decides the property.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// Unfolding prefix + integer programming (this crate; stops at
    /// the first conflict).
    UnfoldingIlp,
    /// Explicit state-graph enumeration.
    ExplicitStateGraph,
    /// Symbolic BDD traversal computing all conflicts.
    SymbolicBdd,
    /// Ordered schedule ending in a race of the base engines (see
    /// the module docs): the structure fast path, then unfolding + ILP
    /// under small constant caps (after an explicit probe that answers
    /// nets of at most 16 markings), then the prelint LP, and only then
    /// the four base engines on separate threads; the first conclusive
    /// racer wins and the losers are cancelled. Every stage shares one
    /// absolute deadline, and [`ResourceReport::winner`] names the
    /// stage or racer that answered.
    Race,
    /// CEGAR over the Petri-net state equation: integer programming
    /// with realisability refinement, no unfolding prefix, no BDDs.
    /// Decides USC and CSC; answers
    /// [`ExhaustionReason::Unsupported`] for normalcy.
    Cegar,
}

impl Engine {
    /// Every engine, in the order usage and error messages list them.
    pub const ALL: [Engine; 5] = [
        Engine::UnfoldingIlp,
        Engine::ExplicitStateGraph,
        Engine::SymbolicBdd,
        Engine::Cegar,
        Engine::Race,
    ];

    /// The name used in [`ResourceReport::engine`], on the wire and on
    /// the command line.
    pub fn name(self) -> &'static str {
        match self {
            Engine::UnfoldingIlp => "unfolding-ilp",
            Engine::ExplicitStateGraph => "explicit",
            Engine::SymbolicBdd => "symbolic",
            Engine::Race => "race",
            Engine::Cegar => "cegar",
        }
    }
}

/// The property to decide.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Property {
    /// Unique State Coding.
    Usc,
    /// Complete State Coding.
    Csc,
    /// Every circuit-driven signal is p- or n-normal.
    Normalcy,
}

/// Event cap of the capped unfolding stage of [`Engine::Race`].
const SCHEDULE_EVENTS: usize = 4096;

/// Solver-step cap of the capped unfolding stage of [`Engine::Race`].
/// The Table 1 rows need at most a few thousand steps; a net that
/// exhausts this cap falls through to the LP and the race.
const SCHEDULE_SOLVER_STEPS: u64 = 1_000_000;

/// State cap of the explicit probe that opens stage 2 of
/// [`Engine::Race`]. Enumerating this many markings takes about 20 µs,
/// less than building the prefix and the integer program of the
/// smallest Table 1 row (about 30 µs); a net with more markings costs
/// the probe no more than that before the paper's engine runs.
const SCHEDULE_SMALL_STATES: usize = 16;

/// State cap of the explicit racer of [`Engine::Race`] when the budget
/// does not set one — keeps an uncapped race from degrading into an
/// unbounded enumeration while the other racers are still working.
const RACE_EXPLICIT_STATES: usize = 1 << 18;

/// One property check, assembled with a builder and dispatched by
/// [`CheckRequest::run`].
///
/// This is the single entry point into the engines. Defaults:
/// [`Engine::UnfoldingIlp`], an unlimited [`Budget`], and a private
/// per-call [`Artifacts`] set; each can be overridden before
/// dispatch. Attach a shared artifact set with
/// [`CheckRequest::artifacts`] when several checks run on the same
/// STG — derived structures (unfolding prefix, state graph, symbolic
/// encoding) are then built once and reused.
///
/// The budget's deadline is anchored once, inside [`CheckRequest::run`],
/// so every stage of a check (structure, prelint LP, the race
/// schedule) shares a single wall clock.
///
/// # Examples
///
/// ```
/// use csc_core::{Budget, CheckRequest, Engine, Property};
/// use stg::gen::vme::vme_read;
///
/// # fn main() -> Result<(), csc_core::CheckError> {
/// let stg = vme_read();
/// for engine in [
///     Engine::UnfoldingIlp,
///     Engine::ExplicitStateGraph,
///     Engine::SymbolicBdd,
///     Engine::Race,
/// ] {
///     let run = CheckRequest::new(&stg, Property::Csc)
///         .engine(engine)
///         .budget(Budget::unlimited())
///         .run()?;
///     assert_eq!(run.verdict.holds(), Some(false)); // vme_read has a CSC conflict
/// }
/// # Ok(())
/// # }
/// ```
///
/// Sharing artifacts across checks:
///
/// ```
/// use csc_core::{Artifacts, CheckRequest, Engine, Property};
/// use stg::gen::vme::vme_read;
///
/// # fn main() -> Result<(), csc_core::CheckError> {
/// let stg = vme_read();
/// let artifacts = Artifacts::of(&stg);
/// for property in [Property::Usc, Property::Csc] {
///     let run = CheckRequest::new(&stg, property)
///         .engine(Engine::UnfoldingIlp)
///         .artifacts(&artifacts)
///         .run()?;
///     assert_eq!(run.verdict.holds(), Some(false));
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
#[must_use = "a CheckRequest does nothing until `.run()`"]
pub struct CheckRequest<'a> {
    stg: &'a Stg,
    artifacts: Option<&'a Artifacts>,
    property: Property,
    engine: Engine,
    budget: Budget,
    prelint: bool,
    structure: bool,
}

impl<'a> CheckRequest<'a> {
    /// A request to decide `property` for `stg` with the default
    /// engine ([`Engine::UnfoldingIlp`], the paper's) and an unlimited
    /// budget.
    pub fn new(stg: &'a Stg, property: Property) -> Self {
        CheckRequest {
            stg,
            artifacts: None,
            property,
            engine: Engine::UnfoldingIlp,
            budget: Budget::unlimited(),
            prelint: false,
            structure: false,
        }
    }

    /// Selects the deciding engine.
    pub fn engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Sets the resource budget.
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Enables the static prelint stage (off by default). Before any
    /// engine runs — for [`Engine::Race`], only after its capped
    /// unfolding stage abstained — the lint layer's LP-relaxation proofs
    /// ([`lint::lint_stg`], cached in the [`Artifacts`] set) are
    /// consulted: when they prove the property outright the engines
    /// are short-circuited and the run returns [`Verdict::Holds`]
    /// with [`ResourceReport::lint`] marked `proved` and
    /// `prefix_events_built` = 0 — a verdict with no state-space
    /// exploration at all. Otherwise the requested engine runs
    /// normally and the report carries the (unproved) lint summary.
    pub fn prelint(mut self, enabled: bool) -> Self {
        self.prelint = enabled;
        self
    }

    /// Enables the structural net-class stage (off by default).
    /// Before any engine runs, the structure pass
    /// ([`lint::structure::analyse`], cached in the [`Artifacts`]
    /// set) detects the net's class; when a class-gated fast path can
    /// decide the property exactly — currently single-token state
    /// machines, whose reachable markings are exactly the reachable
    /// places of the place graph — the engines are short-circuited
    /// and the run returns with [`ResourceReport::structure`] marked
    /// `proved`, `winner = "structure"` and `prefix_events_built` =
    /// 0. Otherwise the requested engine runs normally and the report
    /// carries the class summary. The fast path bails to the engines
    /// on any irregularity (multiple tokens, inconsistent codes), so
    /// enabling the stage never changes a verdict — only, sometimes,
    /// who produces it.
    pub fn structure(mut self, enabled: bool) -> Self {
        self.structure = enabled;
        self
    }

    /// Attaches a shared [`Artifacts`] set (which must wrap the same
    /// STG — debug builds assert this, by canonical hash, in
    /// [`CheckRequest::run`]); derived structures are cached there and
    /// reused by later checks on the same set. See the
    /// [`crate::artifact`] module docs for the reuse soundness
    /// argument.
    pub fn artifacts(mut self, artifacts: &'a Artifacts) -> Self {
        self.artifacts = Some(artifacts);
        self
    }

    /// Dispatches the check. The returned [`CheckRun`] pairs the
    /// three-valued [`Verdict`] with a [`ResourceReport`] of what the
    /// engine consumed — including partial work when the verdict is
    /// [`Verdict::Unknown`].
    ///
    /// # Errors
    ///
    /// Engine failures that are *not* budget exhaustion propagate as
    /// [`CheckError`]; a panicking engine is contained and reported as
    /// [`CheckError::EngineFailure`]. Exhaustion itself is not an
    /// error: it is the [`Verdict::Unknown`] verdict.
    pub fn run(self) -> Result<CheckRun, CheckError> {
        match self.artifacts {
            Some(artifacts) => {
                // An Artifacts set built from a different STG would
                // silently check the wrong net: the request's `stg` is
                // ignored in favour of the set's. Catch the mismatch
                // cheaply (pointer identity, then cached canonical
                // hashes) in debug builds.
                debug_assert!(
                    std::ptr::eq(artifacts.stg(), self.stg)
                        || artifacts.hash() == self.stg.canonical_hash(),
                    "CheckRequest::artifacts: the attached Artifacts set wraps a \
                     different STG than the one the request was built from"
                );
                self.run_on(artifacts)
            }
            None => {
                let artifacts = Artifacts::of(self.stg);
                self.run_on(&artifacts)
            }
        }
    }

    fn run_on(&self, artifacts: &Artifacts) -> Result<CheckRun, CheckError> {
        let mut report = ResourceReport::empty(self.engine.name());
        let verdict = self.run_stages(artifacts, &mut report)?;
        Ok(CheckRun { verdict, report })
    }

    /// Runs the check's stages in order, each folding what it did into
    /// `report`, and returns the verdict of the first stage that
    /// answers (the engine stage answers last, possibly `Unknown`).
    /// `report.elapsed` covers the engine stages only, unless the
    /// structure pass or the LP answered: then it covers the whole
    /// check.
    fn run_stages(
        &self,
        artifacts: &Artifacts,
        report: &mut ResourceReport,
    ) -> Result<Verdict, CheckError> {
        let start = Instant::now();
        // One guard per check: every stage below polls the same
        // absolute deadline, so a `deadline = D` check ends within D
        // however many stages it passes through.
        let guard = self.budget.guard();
        // The structure stage first: it is cheaper than the lint LP
        // and can decide USC/CSC outright on single-token state
        // machines, with a concrete two-state witness on refutation.
        if self.structure {
            let structure = artifacts.structure();
            let verdict = match self.property {
                Property::Usc | Property::Csc => {
                    state_machine_fast_path(artifacts.stg(), &structure, self.property)
                }
                Property::Normalcy => None,
            };
            report.structure = Some(summarize_structure(&structure, verdict.is_some()));
            if let Some(verdict) = verdict {
                report.winner = Some("structure");
                report.elapsed = start.elapsed();
                report.prefix_events_built = Some(0);
                return Ok(verdict);
            }
        }
        // Race stage 2: a small-state probe, then the paper's engine
        // under constant caps, ahead of the LP (see the module docs for
        // the order).
        if self.engine == Engine::Race {
            if let Some((verdict, stage, winner)) =
                run_schedule_stage(artifacts, self.property, &self.budget, &guard)
            {
                fold_stage(report, stage);
                if !verdict.is_unknown() {
                    report.winner = Some(winner);
                    return Ok(verdict);
                }
            }
        }
        if self.prelint {
            // The lint stage polls the check's guard like the engines
            // do: a tightly budgeted job gets an immediate LP
            // abstention instead of a lint pass that outlives its
            // deadline, and a cancellation (a hung-job watchdog, a
            // shutdown sweep) interrupts a long exact-arithmetic solve
            // mid-flight. Partial reports are never cached either way.
            let lint = artifacts.lint_with(&lint_options(&guard));
            // USC ⊇ CSC conflicts: a USC proof covers both properties.
            // Normalcy has no LP relaxation yet.
            let proved = match self.property {
                Property::Usc | Property::Csc => lint.proofs.usc_proved,
                Property::Normalcy => false,
            };
            report.lint = Some(LintSummary {
                proved,
                errors: lint.errors() as u64,
                warnings: lint.warnings() as u64,
                usc_proved: lint.proofs.usc_proved,
                all_consistent: lint.proofs.all_consistent,
            });
            if proved {
                report.winner = Some("lint");
                report.elapsed = start.elapsed();
                report.prefix_events_built.get_or_insert(0);
                return Ok(Verdict::Holds);
            }
        }
        let run = dispatch(artifacts, self.property, self.engine, &self.budget, &guard)?;
        fold_stage(report, run.report);
        Ok(run.verdict)
    }

    /// Dispatches the check and collapses the verdict to the classic
    /// boolean: `true` means the property holds.
    ///
    /// # Errors
    ///
    /// Same as [`CheckRequest::run`], plus [`CheckError::Exhausted`]
    /// when the budget (or an engine-intrinsic cap, like the default
    /// unfolding event limit) makes the run inconclusive.
    pub fn run_bool(self) -> Result<bool, CheckError> {
        match self.run()?.verdict {
            Verdict::Holds => Ok(true),
            Verdict::Violated(_) => Ok(false),
            Verdict::Unknown(reason) => Err(CheckError::Exhausted(reason)),
        }
    }
}

/// Lint options whose LP polls `guard`: the check's deadline and every
/// cancellation flag. Used by the prelint stage.
fn lint_options(guard: &StopGuard) -> lint::LintOptions {
    let mut options = lint::LintOptions::default();
    options.lp_options.guard = guard.clone();
    options
}

fn dispatch(
    artifacts: &Artifacts,
    property: Property,
    engine: Engine,
    budget: &Budget,
    guard: &StopGuard,
) -> Result<CheckRun, CheckError> {
    let outcome = catch_unwind(AssertUnwindSafe(|| match engine {
        Engine::UnfoldingIlp => run_unfolding(artifacts, property, budget, guard),
        Engine::ExplicitStateGraph => run_explicit(artifacts, property, budget, guard),
        Engine::SymbolicBdd => run_symbolic(artifacts, property, budget, guard),
        Engine::Race => run_race(artifacts, property, budget, guard),
        Engine::Cegar => run_cegar(artifacts, property, budget, guard),
    }));
    match outcome {
        Ok(Ok((verdict, report))) => Ok(CheckRun { verdict, report }),
        Ok(Err(e)) => Err(e),
        Err(payload) => Err(CheckError::EngineFailure {
            engine: engine.name(),
            message: panic_message(&payload),
        }),
    }
}

/// Projects a full structure report onto the compact summary carried
/// by [`ResourceReport::structure`].
fn summarize_structure(report: &lint::StructureReport, proved: bool) -> StructureSummary {
    StructureSummary {
        classes: report.classes,
        exact: matches!(
            report.concurrency.level(),
            lint::Approximation::ExactForLiveFreeChoice
        ),
        concurrent_place_pairs: report.concurrency.concurrent_place_pairs() as u64,
        locked_signal_pairs: report.lock.locked_pairs() as u64,
        signal_pairs: report.lock.total_pairs() as u64,
        proved,
    }
}

/// Exact USC/CSC decision for single-token state machines.
///
/// In a state machine every transition moves the unique token from
/// one place to another, so the reachable markings are exactly the
/// places reachable from the initially marked place in the place
/// graph, and the code of a reachable marking is a function of its
/// place. The walk labels each reachable place with its code,
/// *bailing to the engines* (`None`) on any irregularity — more than
/// one initial token, a rise/fall firing from the wrong value, or two
/// paths assigning different codes to one place (an inconsistent
/// STG): the fast path only decides nets whose semantics it models
/// exactly, so enabling it never changes a verdict. USC holds iff
/// all reachable codes are distinct; CSC additionally tolerates
/// equal codes when the two markings enable the same local signals.
/// Refutations carry the two single-token markings as a
/// [`Witness::States`] pair, like the explicit engine's.
fn state_machine_fast_path(
    stg: &Stg,
    report: &lint::StructureReport,
    property: Property,
) -> Option<Verdict> {
    use std::collections::VecDeque;

    if !report.classes.state_machine || stg.initial_marking().total() != 1 {
        return None;
    }
    let net = stg.net();
    let start = stg.initial_marking().marked_places().next()?;
    let mut codes: Vec<Option<CodeVec>> = vec![None; net.num_places()];
    codes[start.index()] = Some(stg.initial_code().clone());
    let mut reached = vec![start];
    let mut queue = VecDeque::from([start]);
    while let Some(p) = queue.pop_front() {
        let code = codes[p.index()].clone()?;
        for &t in net.place_postset(p) {
            let q = *net.postset(t).first()?;
            let mut next = code.clone();
            if let Label::SignalEdge(z, e) = stg.label(t) {
                let want = matches!(e, Edge::Rise);
                if next.bit(z) == want {
                    // A rise from 1 or fall from 0: the STG is
                    // inconsistent; let the engines report it.
                    return None;
                }
                next.set_bit(z, want);
            }
            match &codes[q.index()] {
                Some(existing) if *existing != next => return None,
                Some(_) => {}
                None => {
                    codes[q.index()] = Some(next);
                    reached.push(q);
                    queue.push_back(q);
                }
            }
        }
    }
    let marking_of = |p: PlaceId| Marking::with_tokens(net.num_places(), &[(p, 1)]);
    for (i, &p) in reached.iter().enumerate() {
        for &q in &reached[i + 1..] {
            if codes[p.index()] != codes[q.index()] {
                continue;
            }
            let conflict = match property {
                Property::Usc => true,
                Property::Csc => {
                    stg.enabled_local_signals(&marking_of(p))
                        != stg.enabled_local_signals(&marking_of(q))
                }
                Property::Normalcy => return None,
            };
            if conflict {
                return Some(Verdict::Violated(Witness::States(Box::new((
                    marking_of(p),
                    marking_of(q),
                )))));
            }
        }
    }
    Some(Verdict::Holds)
}

fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

type EngineOutcome = Result<(Verdict, ResourceReport), CheckError>;

fn run_unfolding(
    artifacts: &Artifacts,
    property: Property,
    budget: &Budget,
    guard: &StopGuard,
) -> EngineOutcome {
    let start = Instant::now();
    let mut report = ResourceReport::empty("unfolding-ilp");
    let mut options = CheckerOptions::default();
    if let Some(n) = budget.max_events {
        options.unfold.max_events = n;
    }
    if let Some(n) = budget.max_solver_steps {
        options.solver.max_steps = n;
    }
    let (artifact, built) = match artifacts.prefix(options.unfold, guard) {
        Ok(pair) => pair,
        Err(UnfoldError::TooManyEvents(n)) => {
            report.elapsed = start.elapsed();
            report.prefix_events = Some(n);
            report.prefix_events_built = Some(n);
            return Ok((Verdict::Unknown(ExhaustionReason::EventLimit(n)), report));
        }
        Err(UnfoldError::Interrupted { reason, events }) => {
            report.elapsed = start.elapsed();
            report.prefix_events = Some(events);
            report.prefix_events_built = Some(events);
            return Ok((Verdict::Unknown(reason.into()), report));
        }
        Err(e) => return Err(CheckError::Unfold(e)),
    };
    report.prefix_events = Some(artifact.prefix.num_events());
    report.prefix_conditions = Some(artifact.prefix.num_conditions());
    report.prefix_events_built = Some(built);
    report.unfold = Some(artifact.prefix.unfold_stats());
    let checker = Checker::from_artifact(
        artifacts.stg(),
        Arc::clone(&artifact.prefix),
        Arc::clone(&artifact.relations),
        options,
        guard.clone(),
    );
    let result = match property {
        Property::Usc => checker.check_usc().map(outcome_to_verdict),
        Property::Csc => checker.check_csc().map(outcome_to_verdict),
        Property::Normalcy => checker.check_normalcy().map(|r| {
            if r.is_normal() {
                Verdict::Holds
            } else {
                Verdict::Violated(Witness::Normalcy(Box::new(r)))
            }
        }),
    };
    report.solver_steps = Some(checker.solver_steps());
    report.elapsed = start.elapsed();
    match result {
        Ok(verdict) => Ok((verdict, report)),
        Err(CheckError::Solve(e)) => {
            let reason = match e.cause {
                AbortCause::StepLimit(n) => ExhaustionReason::SolverStepLimit(n),
                AbortCause::Stopped(r) => r.into(),
            };
            Ok((Verdict::Unknown(reason), report))
        }
        Err(e) => Err(e),
    }
}

/// Stage 2 of the [`Engine::Race`] schedule, with the name of the
/// engine whose report it returns. An explicit probe capped at
/// [`SCHEDULE_SMALL_STATES`] markings answers tiny nets (it builds no
/// prefix); otherwise [`run_unfolding`] runs with the event and
/// solver-step caps lowered to the schedule's constants. Every cap is
/// lowered further to the request's own, when tighter. `elapsed`
/// covers both engines. `None` when the unfolding engine failed or
/// either engine panicked: the stage then abstains without a report,
/// and the race's racer meets — and reports — the same failure.
fn run_schedule_stage(
    artifacts: &Artifacts,
    property: Property,
    budget: &Budget,
    guard: &StopGuard,
) -> Option<(Verdict, ResourceReport, &'static str)> {
    fn tighter<T: Ord + Copy>(request: Option<T>, cap: T) -> Option<T> {
        Some(request.map_or(cap, |n| n.min(cap)))
    }
    let start = Instant::now();
    let probe = Budget {
        max_states: tighter(budget.max_states, SCHEDULE_SMALL_STATES),
        ..budget.clone()
    };
    let capped = Budget {
        max_events: tighter(budget.max_events, SCHEDULE_EVENTS),
        max_solver_steps: tighter(budget.max_solver_steps, SCHEDULE_SOLVER_STEPS),
        ..budget.clone()
    };
    let (verdict, mut report, engine) = catch_unwind(AssertUnwindSafe(|| {
        match run_explicit(artifacts, property, &probe, guard) {
            Ok((verdict, mut report)) if !verdict.is_unknown() => {
                report.prefix_events_built = Some(0);
                Ok((verdict, report, "explicit"))
            }
            _ => run_unfolding(artifacts, property, &capped, guard)
                .map(|(verdict, report)| (verdict, report, "unfolding-ilp")),
        }
    }))
    .ok()?
    .ok()?;
    report.elapsed = start.elapsed();
    Some((verdict, report, engine))
}

fn outcome_to_verdict(outcome: CheckOutcome) -> Verdict {
    match outcome {
        CheckOutcome::Satisfied => Verdict::Holds,
        CheckOutcome::Conflict(w) => Verdict::Violated(Witness::Conflict(w)),
    }
}

fn run_explicit(
    artifacts: &Artifacts,
    property: Property,
    budget: &Budget,
    guard: &StopGuard,
) -> EngineOutcome {
    let start = Instant::now();
    let stg = artifacts.stg();
    let mut report = ResourceReport::empty("explicit");
    let mut limits = ExploreLimits::default();
    if let Some(n) = budget.max_states {
        limits.max_states = n;
    }
    let sg = match artifacts.state_graph(limits, guard) {
        Ok(sg) => sg,
        Err(SgError::Reach(ReachError::Stopped { reason, states })) => {
            report.elapsed = start.elapsed();
            report.states = Some(states);
            return Ok((Verdict::Unknown(reason.into()), report));
        }
        Err(SgError::Reach(ReachError::StateLimitExceeded(n))) => {
            report.elapsed = start.elapsed();
            report.states = Some(n);
            return Ok((Verdict::Unknown(ExhaustionReason::StateLimit(n)), report));
        }
        Err(e) => return Err(CheckError::StateGraph(e.to_string())),
    };
    report.states = Some(sg.num_states());
    let conflict_witness = |pair: Option<(petri::StateId, petri::StateId)>| {
        pair.map_or(Witness::Unwitnessed, |(a, b)| {
            Witness::States(Box::new((sg.marking(a).clone(), sg.marking(b).clone())))
        })
    };
    let verdict = match property {
        Property::Usc => {
            if sg.satisfies_usc() {
                Verdict::Holds
            } else {
                Verdict::Violated(conflict_witness(sg.first_usc_conflict()))
            }
        }
        Property::Csc => {
            if sg.satisfies_csc(stg) {
                Verdict::Holds
            } else {
                Verdict::Violated(conflict_witness(sg.first_csc_conflict(stg)))
            }
        }
        Property::Normalcy => {
            if sg.is_normal(stg) {
                Verdict::Holds
            } else {
                Verdict::Violated(Witness::Unwitnessed)
            }
        }
    };
    report.elapsed = start.elapsed();
    Ok((verdict, report))
}

fn run_symbolic(
    artifacts: &Artifacts,
    property: Property,
    budget: &Budget,
    guard: &StopGuard,
) -> EngineOutcome {
    let start = Instant::now();
    let mut report = ResourceReport::empty("symbolic");
    let sym_budget = SymbolicBudget {
        guard: guard.clone(),
        max_nodes: budget.max_bdd_nodes,
    };
    let stg = artifacts.stg();
    let (verdict, nodes, stats) = artifacts.with_symbolic(|checker| {
        // `Ok(None)` defers witness decoding to below, after the
        // `try_analyse` borrow ends.
        let result = match property {
            Property::Usc => checker
                .try_analyse(&sym_budget)
                .map(|r| r.satisfies_usc().then_some(Verdict::Holds)),
            Property::Csc => checker
                .try_analyse(&sym_budget)
                .map(|r| r.satisfies_csc().then_some(Verdict::Holds)),
            Property::Normalcy => symbolic_normalcy(stg, checker, &sym_budget),
        };
        let verdict = match result {
            Ok(Some(v)) => v,
            Ok(None) => {
                // USC/CSC violated: decode one conflicting pair of
                // states of the matching kind.
                let decoded = match property {
                    Property::Usc => checker.usc_witness(),
                    Property::Csc => checker.csc_witness(),
                    Property::Normalcy => None,
                };
                let witness = decoded.map_or(Witness::Unwitnessed, |w| {
                    Witness::States(Box::new((w.marking1, w.marking2)))
                });
                Verdict::Violated(witness)
            }
            Err(SymbolicStop::Stopped(reason)) => Verdict::Unknown(reason.into()),
            Err(SymbolicStop::NodeLimit(n)) => Verdict::Unknown(ExhaustionReason::BddNodeLimit(n)),
        };
        (verdict, checker.nodes_allocated(), checker.bdd_stats())
    });
    report.bdd_nodes = Some(nodes);
    report.bdd = Some(stats);
    report.elapsed = start.elapsed();
    Ok((verdict, report))
}

/// Symbolic normalcy signal by signal, decoding a concrete violating
/// state pair for the first abnormal signal.
fn symbolic_normalcy(
    stg: &Stg,
    checker: &mut SymbolicChecker,
    budget: &SymbolicBudget,
) -> Result<Option<Verdict>, SymbolicStop> {
    let locals: Vec<Signal> = stg.local_signals().collect();
    for z in locals {
        let (p, n) = checker.try_normalcy_of(z, budget)?;
        if p || n {
            continue;
        }
        let witness = checker
            .normalcy_witness(z)
            .map_or(Witness::Unwitnessed, |w| {
                Witness::States(Box::new((w.marking1, w.marking2)))
            });
        return Ok(Some(Verdict::Violated(witness)));
    }
    Ok(Some(Verdict::Holds))
}

fn run_cegar(
    artifacts: &Artifacts,
    property: Property,
    budget: &Budget,
    guard: &StopGuard,
) -> EngineOutcome {
    let start = Instant::now();
    let mut report = ResourceReport::empty("cegar");
    // The engine never touches the unfolding or BDD stages; report
    // that positively so callers can assert "no prefix was built".
    report.prefix_events_built = Some(0);
    let Some(prop) = (match property {
        Property::Usc => Some(cegar::CegarProperty::Usc),
        Property::Csc => Some(cegar::CegarProperty::Csc),
        Property::Normalcy => None,
    }) else {
        report.elapsed = start.elapsed();
        return Ok((
            Verdict::Unknown(ExhaustionReason::Unsupported(
                "the CEGAR engine has no state-equation encoding of normalcy",
            )),
            report,
        ));
    };
    let mut options = cegar::CegarOptions {
        guard: guard.clone(),
        ..cegar::CegarOptions::default()
    };
    if let Some(n) = budget.max_solver_steps {
        options.max_nodes_per_target = n;
    }
    let (outcome, stats) = cegar::check(artifacts.stg(), prop, &options);
    report.solver_steps = Some(stats.lp_solves);
    report.cegar = Some(stats);
    report.elapsed = start.elapsed();
    let verdict = match outcome {
        cegar::CegarOutcome::Proved => Verdict::Holds,
        cegar::CegarOutcome::Refuted(pair) => Verdict::Violated(Witness::States(pair)),
        cegar::CegarOutcome::Unknown(abort) => Verdict::Unknown(match abort {
            cegar::CegarAbort::Cancelled => ExhaustionReason::Cancelled,
            cegar::CegarAbort::DeadlineExpired => ExhaustionReason::DeadlineExpired,
            cegar::CegarAbort::Exhausted => ExhaustionReason::SolverStepLimit(stats.branch_nodes),
        }),
    };
    Ok((verdict, report))
}

/// The four engines a [`Engine::Race`] runs concurrently.
const RACERS: [Engine; 4] = [
    Engine::UnfoldingIlp,
    Engine::ExplicitStateGraph,
    Engine::SymbolicBdd,
    Engine::Cegar,
];

/// Derives the guard one racing engine polls: the job-level
/// cancellation flag and the *already anchored* absolute deadline of
/// `base`, plus a private loser flag the race supervisor raises when
/// another engine wins. Crucially the deadline is copied, not
/// re-anchored — every racer shares the single wall clock
/// [`CheckRequest::run`] started.
fn derive_race_guard(base: &StopGuard, loser: Arc<AtomicBool>) -> StopGuard {
    StopGuard::new(base.cancel_flag(), base.deadline()).with_extra_cancel(loser)
}

/// Compile-time audit that the types crossing the race's thread
/// boundary are sendable, and that one artifact set may be shared by
/// reference across the racing threads.
#[allow(dead_code)]
fn assert_race_send_bounds() {
    fn send<T: Send>() {}
    fn sync<T: Sync>() {}
    sync::<Stg>();
    sync::<Artifacts>();
    send::<Budget>();
    send::<StopGuard>();
    send::<Verdict>();
    send::<ResourceReport>();
    send::<CheckError>();
    send::<CheckRun>();
}

fn run_race(
    artifacts: &Artifacts,
    property: Property,
    budget: &Budget,
    guard: &StopGuard,
) -> EngineOutcome {
    use std::sync::mpsc;

    let start = Instant::now();
    let mut report = ResourceReport::empty("race");
    // An earlier stage may have used up the deadline: answer before
    // spawning racers whose set-up work precedes their first poll. No
    // racer started, so the report does not say `raced`.
    if let Err(reason) = guard.poll_now() {
        return Ok((Verdict::Unknown(reason.into()), report));
    }
    report.raced = true;
    let loser_flags: Vec<Arc<AtomicBool>> = RACERS
        .iter()
        .map(|_| Arc::new(AtomicBool::new(false)))
        .collect();
    let explicit_budget = Budget {
        max_states: Some(budget.max_states.unwrap_or(RACE_EXPLICIT_STATES)),
        ..budget.clone()
    };
    let (tx, rx) = mpsc::channel::<(usize, Result<EngineOutcome, String>)>();
    let (results, first_conclusive) = std::thread::scope(|scope| {
        for (i, &engine) in RACERS.iter().enumerate() {
            let racer_guard = derive_race_guard(guard, Arc::clone(&loser_flags[i]));
            let tx = tx.clone();
            let race_budget = match engine {
                Engine::ExplicitStateGraph => &explicit_budget,
                _ => budget,
            };
            scope.spawn(move || {
                let outcome = catch_unwind(AssertUnwindSafe(|| match engine {
                    Engine::UnfoldingIlp => {
                        run_unfolding(artifacts, property, race_budget, &racer_guard)
                    }
                    Engine::ExplicitStateGraph => {
                        run_explicit(artifacts, property, race_budget, &racer_guard)
                    }
                    Engine::Cegar => run_cegar(artifacts, property, race_budget, &racer_guard),
                    _ => run_symbolic(artifacts, property, race_budget, &racer_guard),
                }));
                let _ = tx.send((i, outcome.map_err(|p| panic_message(p.as_ref()))));
            });
        }
        drop(tx);
        let mut slots: Vec<Option<Result<EngineOutcome, String>>> =
            RACERS.iter().map(|_| None).collect();
        let mut first_conclusive: Option<usize> = None;
        while let Ok((i, outcome)) = rx.recv() {
            let conclusive = matches!(&outcome, Ok(Ok((verdict, _))) if !verdict.is_unknown());
            slots[i] = Some(outcome);
            if conclusive && first_conclusive.is_none() {
                first_conclusive = Some(i);
                // Retire the losers; they answer `Unknown(Cancelled)`
                // at their next poll and the scope joins promptly.
                for (j, flag) in loser_flags.iter().enumerate() {
                    if j != i {
                        flag.store(true, Ordering::Relaxed);
                    }
                }
            }
        }
        (slots, first_conclusive)
    });

    let mut winner: Option<(Verdict, &'static str)> = None;
    let mut first_unknown: Option<Verdict> = None;
    let mut first_error: Option<CheckError> = None;
    for (i, slot) in results.into_iter().enumerate() {
        let engine = RACERS[i];
        match slot {
            Some(Ok(Ok((verdict, engine_report)))) => {
                merge_report(&mut report, engine_report);
                if first_conclusive == Some(i) {
                    // The recv loop recorded whose conclusive verdict
                    // arrived first, so the win (and the per-engine
                    // stats built on it) reflects actual completion
                    // order; a near-simultaneous second conclusive
                    // racer agrees on the verdict (engines are
                    // cross-validated) and is only merged into the
                    // resource report.
                    winner = Some((verdict, engine.name()));
                } else if verdict.is_unknown()
                    && first_unknown.is_none()
                    && !matches!(verdict, Verdict::Unknown(ExhaustionReason::Cancelled))
                {
                    first_unknown = Some(verdict);
                }
            }
            Some(Ok(Err(e))) if first_error.is_none() => first_error = Some(e),
            Some(Err(message)) if first_error.is_none() => {
                first_error = Some(CheckError::EngineFailure {
                    engine: engine.name(),
                    message,
                });
            }
            _ => {}
        }
    }
    report.elapsed = start.elapsed();
    if let Some((verdict, name)) = winner {
        report.winner = Some(name);
        return Ok((verdict, report));
    }
    // Nothing conclusive: prefer a non-cancellation exhaustion reason
    // (it names the budget dimension to raise); a bare cancellation
    // means the job itself was cancelled.
    if let Some(verdict) = first_unknown {
        return Ok((verdict, report));
    }
    if let Some(e) = first_error {
        return Err(e);
    }
    Ok((Verdict::Unknown(ExhaustionReason::Cancelled), report))
}

/// Folds the report of a stage that ran into the check's report. The
/// stage's time adds to the engine time, and its counters take
/// precedence over an earlier stage's: they describe the work the check
/// went on with (the race's prefix, say, not stage 2's truncated one).
fn fold_stage(report: &mut ResourceReport, stage: ResourceReport) {
    let earlier = std::mem::replace(report, stage);
    report.engine = earlier.engine;
    report.elapsed += earlier.elapsed;
    merge_report(report, earlier);
}

/// Folds one report's counters into another: a field-wise union that
/// keeps the counters `aggregate` already has, except that
/// `prefix_events_built` is summed, since every stage and racer built
/// its own events. Each racer's counters belong to exactly one engine,
/// so for the race the order does not matter.
fn merge_report(aggregate: &mut ResourceReport, from: ResourceReport) {
    aggregate.prefix_events_built = match (aggregate.prefix_events_built, from.prefix_events_built)
    {
        (Some(a), Some(b)) => Some(a + b),
        (a, b) => a.or(b),
    };
    aggregate.prefix_events = aggregate.prefix_events.or(from.prefix_events);
    aggregate.prefix_conditions = aggregate.prefix_conditions.or(from.prefix_conditions);
    aggregate.solver_steps = aggregate.solver_steps.or(from.solver_steps);
    aggregate.states = aggregate.states.or(from.states);
    aggregate.bdd_nodes = aggregate.bdd_nodes.or(from.bdd_nodes);
    aggregate.bdd = aggregate.bdd.take().or(from.bdd);
    aggregate.cegar = aggregate.cegar.or(from.cegar);
    aggregate.unfold = aggregate.unfold.or(from.unfold);
    aggregate.lint = aggregate.lint.or(from.lint);
    aggregate.structure = aggregate.structure.or(from.structure);
}

#[cfg(test)]
mod tests {
    use super::*;
    use stg::gen::counterflow::counterflow_sym;
    use stg::gen::duplex::dup_4ph;
    use stg::gen::vme::{vme_read, vme_read_csc_resolved};
    use stg::StateGraph;

    #[test]
    fn engines_agree_on_usc_and_csc() {
        for stg in [
            vme_read(),
            vme_read_csc_resolved(),
            dup_4ph(2, false),
            dup_4ph(1, true),
            counterflow_sym(2, 2),
        ] {
            for property in [Property::Usc, Property::Csc] {
                let verdicts: Vec<bool> = Engine::ALL
                    .iter()
                    .map(|&e| {
                        CheckRequest::new(&stg, property)
                            .engine(e)
                            .run_bool()
                            .unwrap()
                    })
                    .collect();
                assert!(
                    verdicts.windows(2).all(|w| w[0] == w[1]),
                    "{property:?}: {verdicts:?}"
                );
            }
        }
    }

    #[test]
    fn engines_agree_on_normalcy() {
        // Cegar is excluded: normalcy has no state-equation encoding,
        // so it reports `Unsupported` — checked separately below.
        for stg in [vme_read_csc_resolved(), counterflow_sym(2, 2)] {
            let verdicts: Vec<bool> = Engine::ALL
                .iter()
                .filter(|&&e| e != Engine::Cegar)
                .map(|&e| {
                    CheckRequest::new(&stg, Property::Normalcy)
                        .engine(e)
                        .run_bool()
                        .unwrap()
                })
                .collect();
            assert!(verdicts.windows(2).all(|w| w[0] == w[1]), "{verdicts:?}");
        }
    }

    #[test]
    fn cegar_reports_normalcy_as_unsupported() {
        let stg = vme_read_csc_resolved();
        let run = CheckRequest::new(&stg, Property::Normalcy)
            .engine(Engine::Cegar)
            .run()
            .unwrap();
        assert!(matches!(
            run.verdict,
            Verdict::Unknown(ExhaustionReason::Unsupported(_))
        ));
        assert_eq!(run.report.engine, "cegar");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "different STG")]
    fn mismatched_artifacts_are_rejected_in_debug_builds() {
        let stg = vme_read();
        let other = counterflow_sym(2, 2);
        let artifacts = Artifacts::of(&other);
        let _ = CheckRequest::new(&stg, Property::Usc)
            .artifacts(&artifacts)
            .run();
    }

    #[test]
    fn reports_carry_engine_counters() {
        let stg = vme_read();
        let run = CheckRequest::new(&stg, Property::Csc)
            .engine(Engine::UnfoldingIlp)
            .run()
            .unwrap();
        assert_eq!(run.report.engine, "unfolding-ilp");
        assert!(run.report.prefix_events.is_some_and(|n| n > 0));
        assert!(run.report.prefix_conditions.is_some_and(|n| n > 0));
        assert!(run.report.solver_steps.is_some_and(|n| n > 0));
        assert_eq!(run.report.states, None);
        assert_eq!(run.report.bdd, None);

        let run = CheckRequest::new(&stg, Property::Csc)
            .engine(Engine::ExplicitStateGraph)
            .run()
            .unwrap();
        assert_eq!(run.report.engine, "explicit");
        assert!(run.report.states.is_some_and(|n| n > 0));
        assert_eq!(run.report.prefix_events, None);

        let run = CheckRequest::new(&stg, Property::Csc)
            .engine(Engine::SymbolicBdd)
            .run()
            .unwrap();
        assert_eq!(run.report.engine, "symbolic");
        assert!(run.report.bdd_nodes.is_some_and(|n| n > 0));
        let stats = run.report.bdd.expect("symbolic runs report BDD stats");
        assert!(stats.peak_live_nodes > 0);
        assert!(stats.live_nodes > 0);
        assert!(!stats.order.is_empty());

        let run = CheckRequest::new(&stg, Property::Csc)
            .engine(Engine::Cegar)
            .run()
            .unwrap();
        assert_eq!(run.report.engine, "cegar");
        // The whole point of the engine: no prefix, no BDDs, ever.
        assert_eq!(run.report.prefix_events_built, Some(0));
        assert_eq!(run.report.prefix_events, None);
        assert_eq!(run.report.bdd_nodes, None);
        assert_eq!(run.report.bdd, None);
        assert_eq!(run.report.states, None);
        let stats = run.report.cegar.expect("cegar runs report CEGAR stats");
        assert!(stats.lp_solves > 0);
        assert!(stats.targets > 0);
    }

    #[test]
    fn cegar_witnesses_are_concrete_discordant_states() {
        // vme_read's USC conflict must come back as two distinct
        // reachable markings decoded from the integer solution.
        let stg = vme_read();
        let run = CheckRequest::new(&stg, Property::Usc)
            .engine(Engine::Cegar)
            .run()
            .unwrap();
        assert_eq!(run.verdict.holds(), Some(false));
        match &run.verdict {
            Verdict::Violated(Witness::States(pair)) => {
                assert_ne!(pair.0, pair.1, "discordant states must differ");
            }
            other => panic!("expected a state-pair witness, got {other:?}"),
        }
    }

    #[test]
    fn explicit_and_symbolic_usc_witnesses_are_conflicting_states() {
        let stg = vme_read();
        let sg = StateGraph::build(&stg, Default::default()).unwrap();
        let code_of = |m: &petri::Marking| {
            sg.states()
                .find(|&s| sg.marking(s) == m)
                .map(|s| sg.code(s).clone())
                .expect("witness marking is reachable")
        };
        for engine in [Engine::ExplicitStateGraph, Engine::SymbolicBdd] {
            for property in [Property::Usc, Property::Csc] {
                let run = CheckRequest::new(&stg, property)
                    .engine(engine)
                    .run()
                    .unwrap();
                match run.verdict {
                    Verdict::Violated(Witness::States(pair)) => {
                        assert_ne!(pair.0, pair.1, "{engine:?} {property:?}");
                        assert_eq!(
                            code_of(&pair.0),
                            code_of(&pair.1),
                            "{engine:?} {property:?}: conflict states must share a code"
                        );
                        if property == Property::Csc {
                            assert_ne!(
                                stg.enabled_local_signals(&pair.0),
                                stg.enabled_local_signals(&pair.1),
                                "{engine:?}: CSC states must differ in enabled outputs"
                            );
                        }
                    }
                    other => {
                        panic!(
                            "{engine:?} {property:?}: expected a state-pair witness, got {other:?}"
                        )
                    }
                }
            }
        }
    }

    #[test]
    fn race_is_conclusive_and_reports_a_winner() {
        assert_race_send_bounds();
        for (stg, expected) in [(vme_read(), false), (counterflow_sym(2, 2), true)] {
            let run = CheckRequest::new(&stg, Property::Csc)
                .engine(Engine::Race)
                .run()
                .unwrap();
            assert_eq!(run.verdict.holds(), Some(expected));
            assert_eq!(run.report.engine, "race");
            let winner = run.report.winner.expect("conclusive race names its winner");
            assert!(
                ["unfolding-ilp", "explicit", "symbolic", "cegar"].contains(&winner),
                "{winner}"
            );
        }
    }

    #[test]
    fn race_merges_per_engine_counters() {
        // Unlimited budget on a small model: every racer finishes (or
        // is cancelled late enough to have done real work); the
        // aggregate report unions their counters.
        let stg = vme_read();
        let run = CheckRequest::new(&stg, Property::Csc)
            .engine(Engine::Race)
            .run()
            .unwrap();
        assert_eq!(run.verdict.holds(), Some(false));
        // The winner's counters are present at minimum; each counter
        // column belongs to exactly one racer.
        let populated = [
            run.report.prefix_events.is_some(),
            run.report.states.is_some(),
            run.report.bdd_nodes.is_some(),
        ];
        assert!(populated.iter().any(|&p| p), "{:?}", run.report);
    }

    #[test]
    fn race_guards_share_one_absolute_deadline() {
        use std::time::Duration;
        // The base guard anchors the deadline once; every derived
        // racer guard must carry the *same* instant, not re-anchor.
        let budget = Budget::unlimited().with_deadline(Duration::from_secs(3600));
        let base = budget.guard();
        let anchored = base.deadline().expect("deadline set");
        std::thread::sleep(Duration::from_millis(5));
        for _ in 0..3 {
            let derived = derive_race_guard(&base, Arc::new(AtomicBool::new(false)));
            assert_eq!(derived.deadline(), Some(anchored));
        }
    }

    #[test]
    fn race_with_expired_deadline_is_unknown_not_cancelled() {
        let stg = counterflow_sym(3, 3);
        let budget = Budget::unlimited().with_deadline(std::time::Duration::ZERO);
        let run = CheckRequest::new(&stg, Property::Csc)
            .engine(Engine::Race)
            .budget(budget)
            .run()
            .unwrap();
        assert_eq!(
            run.verdict,
            Verdict::Unknown(ExhaustionReason::DeadlineExpired)
        );
        assert_eq!(run.report.winner, None);
    }

    #[test]
    fn cancellation_from_another_thread_stops_every_engine() {
        use crate::limits::CancelToken;
        use std::time::Duration;
        // Big enough that no engine concludes before the flip lands,
        // in debug or release builds.
        let stg = counterflow_sym(10, 3);
        for engine in Engine::ALL {
            let token = CancelToken::new();
            let budget = Budget::unlimited().with_cancel(token.clone());
            let flipper = {
                let token = token.clone();
                std::thread::spawn(move || {
                    std::thread::sleep(Duration::from_millis(25));
                    token.cancel();
                })
            };
            let start = Instant::now();
            let run = CheckRequest::new(&stg, Property::Csc)
                .engine(engine)
                .budget(budget)
                .run()
                .unwrap();
            let waited = start.elapsed();
            flipper.join().expect("flipper joins");
            assert_eq!(
                run.verdict,
                Verdict::Unknown(ExhaustionReason::Cancelled),
                "{}",
                engine.name()
            );
            assert!(
                waited < Duration::from_secs(10),
                "{}: cancellation honoured within a bounded delay, took {waited:?}",
                engine.name()
            );
        }
    }

    #[test]
    fn prelint_short_circuits_all_engines_on_a_proved_family() {
        use stg::gen::counterflow::counterflow_sym;

        // CF-SYM-A: conflict-free, and the lint LP relaxation proves
        // it. Every engine must short-circuit identically, except that
        // `Race` runs its capped unfolding stage before the LP.
        let stg = counterflow_sym(2, 3);
        let artifacts = Artifacts::of(&stg);
        let race_artifacts = Artifacts::of(&stg);
        for engine in [
            Engine::UnfoldingIlp,
            Engine::ExplicitStateGraph,
            Engine::SymbolicBdd,
            Engine::Race,
        ] {
            for property in [Property::Usc, Property::Csc] {
                let run = CheckRequest::new(&stg, property)
                    .engine(engine)
                    .artifacts(if engine == Engine::Race {
                        &race_artifacts
                    } else {
                        &artifacts
                    })
                    .prelint(true)
                    .run()
                    .unwrap();
                assert_eq!(run.verdict, Verdict::Holds, "{engine:?}/{property:?}");
                if engine == Engine::Race {
                    assert_eq!(run.report.winner, Some("unfolding-ilp"));
                    continue;
                }
                assert_eq!(run.report.winner, Some("lint"));
                assert_eq!(run.report.prefix_events_built, Some(0));
                let lint = run.report.lint.expect("prelint report block");
                assert!(lint.proved);
                assert!(lint.usc_proved);
                assert_eq!(lint.errors, 0);
            }
        }
        // The engines were never consulted: no stage was built.
        assert!(!artifacts.has_prefix());
        assert!(!artifacts.has_state_graph());
        assert!(!artifacts.has_symbolic());
    }

    /// A single-token state machine with a genuine USC conflict:
    /// `a` runs its rise/fall alternation twice around one cycle, so
    /// two distinct places carry the same code.
    fn usc_broken_cycle() -> Stg {
        use stg::{SignalKind, StgBuilder};
        let mut b = StgBuilder::new();
        let a = b.add_signal("a", SignalKind::Output);
        let t1 = b.edge(a, Edge::Rise);
        let t2 = b.edge(a, Edge::Fall);
        let t3 = b.edge(a, Edge::Rise);
        let t4 = b.edge(a, Edge::Fall);
        b.chain_cycle(&[t1, t2, t3, t4]).unwrap();
        b.build_with_inferred_code(Default::default()).unwrap()
    }

    #[test]
    fn structure_fast_path_decides_state_machines_without_engines() {
        // A plain consistent handshake cycle: USC holds, decided by
        // the place-graph walk alone.
        use stg::{SignalKind, StgBuilder};
        let mut b = StgBuilder::new();
        let req = b.add_signal("req", SignalKind::Input);
        let ack = b.add_signal("ack", SignalKind::Output);
        let rp = b.edge(req, Edge::Rise);
        let ap = b.edge(ack, Edge::Rise);
        let rm = b.edge(req, Edge::Fall);
        let am = b.edge(ack, Edge::Fall);
        b.chain_cycle(&[rp, ap, rm, am]).unwrap();
        let stg = b.build_with_inferred_code(Default::default()).unwrap();

        let artifacts = Artifacts::of(&stg);
        for property in [Property::Usc, Property::Csc] {
            let run = CheckRequest::new(&stg, property)
                .engine(Engine::UnfoldingIlp)
                .artifacts(&artifacts)
                .structure(true)
                .run()
                .unwrap();
            assert_eq!(run.verdict, Verdict::Holds, "{property:?}");
            assert_eq!(run.report.winner, Some("structure"));
            assert_eq!(run.report.prefix_events_built, Some(0));
            let s = run.report.structure.expect("structure block");
            assert!(s.proved);
            assert!(s.classes.state_machine);
        }
        assert!(!artifacts.has_prefix(), "no engine stage was built");
    }

    #[test]
    fn structure_fast_path_refutes_with_a_concrete_state_pair() {
        let stg = usc_broken_cycle();
        let run = CheckRequest::new(&stg, Property::Usc)
            .engine(Engine::ExplicitStateGraph)
            .structure(true)
            .run()
            .unwrap();
        assert_eq!(run.report.winner, Some("structure"));
        let Verdict::Violated(Witness::States(pair)) = run.verdict else {
            panic!("expected a two-state witness, got {:?}", run.verdict);
        };
        let (m1, m2) = *pair;
        assert_ne!(m1, m2, "distinct markings");
        // The witness is real: both markings are single-token and the
        // explicit oracle agrees the property fails.
        assert_eq!(m1.total(), 1);
        assert_eq!(m2.total(), 1);
        let oracle = CheckRequest::new(&stg, Property::Usc)
            .engine(Engine::ExplicitStateGraph)
            .run()
            .unwrap();
        assert_eq!(oracle.verdict.holds(), Some(false));
    }

    #[test]
    fn structure_stage_annotates_without_deciding_non_state_machines() {
        // vme_read is not a state machine: the fast path must bail
        // and the engine verdict (a real CSC conflict) stands, with
        // the class summary attached.
        let stg = vme_read();
        let run = CheckRequest::new(&stg, Property::Csc)
            .engine(Engine::UnfoldingIlp)
            .structure(true)
            .run()
            .unwrap();
        assert_eq!(run.verdict.holds(), Some(false));
        assert_ne!(run.report.winner, Some("structure"));
        let s = run.report.structure.expect("summary attached");
        assert!(!s.proved);
        assert!(!s.classes.state_machine);
    }

    #[test]
    fn prelint_defers_to_engines_on_real_conflicts() {
        let stg = vme_read();
        let run = CheckRequest::new(&stg, Property::Csc)
            .engine(Engine::UnfoldingIlp)
            .prelint(true)
            .run()
            .unwrap();
        assert_eq!(run.verdict.holds(), Some(false));
        let lint = run.report.lint.expect("unproved lint summary attached");
        assert!(!lint.proved);
        assert!(!lint.usc_proved);
        assert!(lint.all_consistent);
        assert!(run.report.prefix_events_built.is_some_and(|n| n > 0));
    }

    #[test]
    fn prelint_never_claims_normalcy() {
        use stg::gen::counterflow::counterflow_sym;

        let stg = counterflow_sym(2, 3);
        let run = CheckRequest::new(&stg, Property::Normalcy)
            .engine(Engine::ExplicitStateGraph)
            .prelint(true)
            .run()
            .unwrap();
        // The lint layer has no normalcy relaxation: an engine decides.
        assert_ne!(run.report.winner, Some("lint"));
        assert!(run.report.lint.is_some());
    }

    #[test]
    fn race_answers_from_the_capped_unfolding_stage_before_the_lp() {
        // The LP proves CF-SYM-A, but the paper's engine comes first:
        // no lint block, no racer started.
        let stg = counterflow_sym(2, 3);
        let artifacts = Artifacts::of(&stg);
        let run = CheckRequest::new(&stg, Property::Csc)
            .engine(Engine::Race)
            .artifacts(&artifacts)
            .prelint(true)
            .structure(true)
            .run()
            .unwrap();
        assert_eq!(run.verdict, Verdict::Holds);
        assert_eq!(run.report.engine, "race");
        assert_eq!(run.report.winner, Some("unfolding-ilp"));
        assert!(!run.report.raced);
        assert_eq!(run.report.lint, None, "the LP never ran");
        assert!(run.report.structure.is_some());
        assert!(run.report.prefix_events.is_some_and(|n| n > 0));
        assert!(!artifacts.has_state_graph() && !artifacts.has_symbolic());
    }

    #[test]
    fn race_answers_tiny_state_spaces_by_enumeration() {
        // DUP-4PH-A has 12 markings: the probe enumerates them before
        // any prefix is built, and finds the same conflict as the
        // paper's engine.
        let stg = dup_4ph(1, false);
        let artifacts = Artifacts::of(&stg);
        let run = CheckRequest::new(&stg, Property::Csc)
            .engine(Engine::Race)
            .artifacts(&artifacts)
            .prelint(true)
            .structure(true)
            .run()
            .unwrap();
        assert_eq!(run.verdict.holds(), Some(false));
        assert_eq!(run.report.winner, Some("explicit"));
        assert_eq!(run.report.states, Some(12));
        assert_eq!(run.report.prefix_events_built, Some(0));
        assert!(!run.report.raced);
        assert_eq!(run.report.lint, None, "the LP never ran");
        assert!(!artifacts.has_prefix());
    }

    #[test]
    fn race_reports_no_racers_when_earlier_stages_use_up_the_deadline() {
        let stg = counterflow_sym(2, 3);
        let run = CheckRequest::new(&stg, Property::Csc)
            .engine(Engine::Race)
            .budget(Budget::unlimited().with_deadline(std::time::Duration::ZERO))
            .prelint(true)
            .run()
            .unwrap();
        assert_eq!(
            run.verdict,
            Verdict::Unknown(ExhaustionReason::DeadlineExpired)
        );
        assert_eq!(run.report.winner, None);
        assert!(!run.report.raced, "no racer started");
    }

    #[test]
    fn race_falls_through_to_the_lp_and_the_race_when_the_prefix_outgrows_the_cap() {
        // A request cap below the prefix size lowers stage 2's cap, so
        // the capped stage abstains on every net here (each has more
        // markings than the probe enumerates); the LP and the race then
        // answer exactly as the explicit oracle does.
        let budget = Budget::unlimited().with_max_events(4);
        for stg in [dup_4ph(3, false), counterflow_sym(2, 3), dup_4ph(2, false)] {
            let oracle = CheckRequest::new(&stg, Property::Csc)
                .engine(Engine::ExplicitStateGraph)
                .run()
                .unwrap();
            assert!(oracle.report.states > Some(SCHEDULE_SMALL_STATES));
            let run = CheckRequest::new(&stg, Property::Csc)
                .engine(Engine::Race)
                .budget(budget.clone())
                .prelint(true)
                .run()
                .unwrap();
            assert_eq!(run.verdict.holds(), oracle.verdict.holds());
            assert!(run.report.lint.is_some(), "the LP ran after stage 2");
            match run.report.winner {
                Some("lint") => assert!(!run.report.raced),
                Some(winner) => {
                    assert!(run.report.raced, "{winner} won the race stage");
                    assert_ne!(winner, "unfolding-ilp", "the unfolding racer is capped too");
                }
                None => panic!("inconclusive: {:?}", run.verdict),
            }
        }
    }

    #[test]
    fn race_losers_stop_mid_lp() {
        use lint::{LintOptions, LpOptions};
        use stg::gen::counterflow::counterflow_asym;
        // CF-ASYM-B: conflict-free, and its relaxation LP takes seconds.
        // The cegar racer starts with that LP; once another racer wins,
        // its loser flag must stop the LP mid-solve.
        let stg = counterflow_asym(4, 2);
        let artifacts = Artifacts::of(&stg);
        let start = Instant::now();
        let (verdict, report) = run_race(
            &artifacts,
            Property::Csc,
            &Budget::unlimited(),
            &StopGuard::unlimited(),
        )
        .unwrap();
        let race = start.elapsed();
        assert_eq!(verdict, Verdict::Holds);
        assert_ne!(report.winner, Some("cegar"));
        // The same LP, given five times the race's whole duration,
        // still does not finish: the race did not wait for it.
        let options = LintOptions {
            lp_options: LpOptions {
                guard: StopGuard::new(None, Some(Instant::now() + race * 5)),
                ..LpOptions::default()
            },
            ..LintOptions::default()
        };
        let lp = lint::lint_stg(&stg, &options);
        assert!(
            lp.proofs.lp_abstained,
            "the LP finished within 5x the race ({race:?}), so the race cannot show it stopped"
        );
    }
}
