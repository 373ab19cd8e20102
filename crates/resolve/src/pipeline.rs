//! The synthesis pipeline: lint → check → resolve → re-check →
//! equations, run as straight-line code over one flowing
//! [`Artifacts`] set.
//!
//! The paper's end-game is synthesis, not detection: find the coding
//! conflicts (§3), insert state signals to kill them (Fig. 3), and
//! emit next-state covers (§6). [`synthesize`] chains those stages
//! with this crate's resolver and the `synth` crate's equation
//! deriver; it is what `stgcheck synthesize`, the `stgd`
//! `synthesize` job and the bench harness all call.
//!
//! ```text
//!            ┌────────┐   ┌───────┐ violated ┌─────────┐   ┌──────────┐   ┌───────────┐
//!  .g ──────▶│  lint  │──▶│ check │─────────▶│ resolve │──▶│ re-check │──▶│ equations │
//!            └────────┘   └───┬───┘          └────┬────┘   └────┬─────┘   └───────────┘
//!             errors ⇒ Err    │ holds             │ failed      │ warm: the resolver
//!                             ▼                   ▼             │ hands back the
//!                         equations           Unresolved        │ winning candidate's
//!                             │                                 │ artifact set, so the
//!                             ▼                                 │ prefix is not rebuilt
//!                           Clean                               ▼ (`prefix_events_built` = 0)
//! ```
//!
//! The outcome is three-valued ([`PipelineOutcome`]): the input was
//! already conflict-free (`Clean`), conflicts were found and provably
//! removed (`Resolved`), or conflicts remain (`Unresolved`) — the last
//! is a first-class outcome, not an error, mirroring
//! [`Verdict::Unknown`].
//!
//! # Warm re-check
//!
//! The check stage's prefix / state graph / symbolic encoding are
//! keyed by `Stg::canonical_hash()`, and the resolver returns the
//! artifact set of the *winning candidate* alongside the resolved net.
//! Since the re-check runs on exactly that net (same hash), the prefix
//! the resolver's final verification built is reused verbatim and
//! [`PipelineReport::recheck_prefix_events_built`] reports 0. Reuse is
//! sound because artifact sets never cross hashes: an insertion
//! changes the canonical hash, so a modified net can never see stale
//! stages (see `docs/SYNTH.md`).

use std::error::Error;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use csc_core::{
    Artifacts, CheckError, CheckRequest, CheckRun, Engine, ExhaustionReason, Property, Verdict,
};
use stg::Stg;
use synth::NextStateFunctions;

use crate::resolver::{resolve_csc_with_report, ResolveOutcome, ResolveReport, ResolverOptions};

/// A next-state equation rendered as plain data — serialisable for
/// the wire and display without borrowing the STG or a BDD manager.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignalEquation {
    /// The non-input signal the equation implements.
    pub signal: String,
    /// The equation in the `synth` crate's sum-of-products syntax.
    pub equation: String,
    /// Whether the cover is monotonic (implementable with monotonic
    /// gates, §6).
    pub monotonic: bool,
}

/// Three-valued outcome of a [`synthesize`] run.
#[derive(Debug, Clone)]
pub enum PipelineOutcome {
    /// The input already satisfies CSC; equations derived directly.
    Clean {
        /// Next-state equations of the input net.
        equations: Vec<SignalEquation>,
    },
    /// Conflicts were found, resolved, and the resolution re-proved.
    Resolved {
        /// The conflict-free net.
        stg: Arc<Stg>,
        /// Names of the inserted state signals.
        inserted: Vec<String>,
        /// Next-state equations of the resolved net.
        equations: Vec<SignalEquation>,
    },
    /// Conflicts remain: the resolver failed, the budget ran out, or
    /// the initial check was inconclusive.
    Unresolved {
        /// Conflict pairs remaining (`None` when the check itself was
        /// inconclusive, so no count exists).
        remaining: Option<usize>,
        /// Human-readable explanation of which stage gave up and why.
        reason: String,
    },
}

impl PipelineOutcome {
    /// Whether the pipeline ended with a provably conflict-free net.
    pub fn is_conflict_free(&self) -> bool {
        !matches!(self, PipelineOutcome::Unresolved { .. })
    }
}

/// Wall-clock accounting for one pipeline stage.
#[derive(Debug, Clone)]
pub struct StageReport {
    /// Stage name: `lint`, `check`, `resolve`, `recheck`, `equations`.
    pub stage: &'static str,
    /// Time spent in the stage.
    pub elapsed: Duration,
    /// One-line stage detail (verdict, counts, reuse).
    pub detail: String,
}

/// Per-stage accounting of a pipeline run.
#[derive(Debug, Clone, Default)]
pub struct PipelineReport {
    /// One entry per executed stage, in execution order.
    pub stages: Vec<StageReport>,
    /// Prefix events the initial check built (cold unless the caller
    /// seeded the run with a warm [`Artifacts`] set).
    pub check_prefix_events_built: Option<usize>,
    /// Prefix events the re-check rebuilt — 0 when the resolver's
    /// artifact set was reused (the incremental re-verification win).
    pub recheck_prefix_events_built: Option<usize>,
    /// Total wall-clock time.
    pub elapsed: Duration,
}

impl PipelineReport {
    fn stage(&mut self, stage: &'static str, started: Instant, detail: String) {
        self.stages.push(StageReport {
            stage,
            elapsed: started.elapsed(),
            detail,
        });
    }

    fn finish(mut self, started: Instant, outcome: PipelineOutcome) -> PipelineRun {
        self.elapsed = started.elapsed();
        PipelineRun {
            outcome,
            report: self,
        }
    }
}

/// A completed pipeline run: outcome plus accounting.
#[derive(Debug, Clone)]
pub struct PipelineRun {
    /// The three-valued result.
    pub outcome: PipelineOutcome,
    /// Per-stage accounting.
    pub report: PipelineReport,
}

/// An error that aborts the pipeline (as opposed to the first-class
/// [`PipelineOutcome::Unresolved`]).
#[derive(Debug)]
#[non_exhaustive]
pub enum PipelineError {
    /// The lint stage found error-severity diagnostics: the input is
    /// structurally broken (inconsistent, unsafe, disconnected) and
    /// no exploration can fix that.
    LintRejected {
        /// Error-severity diagnostic count.
        errors: u64,
    },
    /// A check stage failed with an engine error.
    Check(CheckError),
    /// The resolver failed outright (not merely gave up), including a
    /// budget abort mid-search.
    Resolve(String),
    /// The equation derivation failed (e.g. it found a conflict the
    /// checks missed — a soundness bug, not a budget issue).
    Equations(String),
    /// The re-check refuted the resolver's claim: the allegedly
    /// resolved net still has a conflict. Always a bug in the
    /// resolver or an engine, never a legitimate outcome.
    RecheckRefuted,
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::LintRejected { errors } => {
                write!(f, "lint rejected the input with {errors} error(s)")
            }
            PipelineError::Check(e) => write!(f, "check stage failed: {e}"),
            PipelineError::Resolve(m) => write!(f, "resolve stage failed: {m}"),
            PipelineError::Equations(m) => write!(f, "equation derivation failed: {m}"),
            PipelineError::RecheckRefuted => write!(
                f,
                "re-check refuted the resolution: the resolver returned a net \
                 that still has a CSC conflict"
            ),
        }
    }
}

impl Error for PipelineError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PipelineError::Check(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CheckError> for PipelineError {
    fn from(e: CheckError) -> Self {
        PipelineError::Check(e)
    }
}

/// Options of [`synthesize`].
#[derive(Debug, Clone)]
pub struct SynthesisOptions {
    /// Options for the resolve stage. The pipeline [`csc_core::Budget`]
    /// lives here ([`ResolverOptions::budget`]) and also governs the
    /// check and re-check stages.
    pub resolver: ResolverOptions,
    /// Engine for the check and re-check stages.
    pub engine: Engine,
}

impl Default for SynthesisOptions {
    fn default() -> Self {
        SynthesisOptions {
            resolver: ResolverOptions::default(),
            engine: Engine::UnfoldingIlp,
        }
    }
}

/// A completed synthesis: the pipeline run plus the resolver's own
/// accounting when the resolve stage ran.
#[derive(Debug)]
pub struct SynthesisRun {
    /// The pipeline outcome and per-stage report.
    pub pipeline: PipelineRun,
    /// The resolver's counters (`None` when the input was already
    /// conflict-free, so no resolution happened).
    pub resolve_report: Option<ResolveReport>,
}

/// Derives the next-state equations of a conflict-free STG as plain
/// [`SignalEquation`] data.
///
/// # Errors
///
/// Returns the `synth` derivation error rendered as a string — e.g. a
/// coding conflict the caller failed to resolve first.
pub fn derive_equations(stg: &Stg) -> Result<Vec<SignalEquation>, String> {
    let mut fns = NextStateFunctions::derive(stg, Default::default()).map_err(|e| e.to_string())?;
    let signals: Vec<_> = fns.signals().collect();
    let mut out = Vec::with_capacity(signals.len());
    for z in signals {
        let monotonic = fns.is_monotonic(z);
        let equation = fns.equation(z).to_string();
        out.push(SignalEquation {
            signal: stg.signal_name(z).to_owned(),
            equation,
            monotonic,
        });
    }
    Ok(out)
}

/// Runs the full synthesis pipeline on `stg`: lint → CSC check →
/// (if conflicted) resolve by state-signal insertion → re-check the
/// resolution → derive next-state equations.
///
/// `seed` optionally provides an existing artifact set of the input
/// net (e.g. a server cache entry); both the initial check and the
/// resolver's initial score reuse its stages when the canonical hash
/// matches. The resolver hands the *winning candidate's* artifact
/// set forward, so the re-check stage is warm
/// ([`PipelineReport::recheck_prefix_events_built`] is 0 whenever the
/// resolve stage ran its final verification).
///
/// The check and re-check stages run [`SynthesisOptions::engine`]
/// alone, under [`ResolverOptions::budget`] (the deadline is
/// re-anchored per stage; the cancellation token is global, so a
/// watchdog can abort the run wherever it currently is).
///
/// # Errors
///
/// [`PipelineError`] — lint rejection, engine failures, a refuted
/// resolution, or a budget abort inside the resolve stage
/// (surfaced as [`PipelineError::Resolve`] with the exhaustion
/// reason in the message). Resolver *surrender* and inconclusive
/// checks are not errors; they end as [`PipelineOutcome::Unresolved`].
pub fn synthesize(
    stg: &Stg,
    options: &SynthesisOptions,
    seed: Option<Arc<Artifacts>>,
) -> Result<SynthesisRun, PipelineError> {
    let started = Instant::now();
    let mut report = PipelineReport::default();
    let artifacts = seed
        .clone()
        .unwrap_or_else(|| Arc::new(Artifacts::new(Arc::new(stg.clone()))));

    // Stage 1: lint. Error-severity diagnostics abort — they mean the
    // input is structurally broken, which no insertion fixes. The LP
    // proofs are left out: nothing here reads them.
    let t = Instant::now();
    let lint_report = artifacts.lint_with(&lint::LintOptions {
        lp: false,
        ..lint::LintOptions::default()
    });
    let errors = lint_report.errors() as u64;
    report.stage(
        "lint",
        t,
        format!("{errors} error(s), {} warning(s)", lint_report.warnings()),
    );
    if errors > 0 {
        return Err(PipelineError::LintRejected { errors });
    }

    // Stage 2: check CSC on the input.
    let t = Instant::now();
    let check = check_csc(stg, &artifacts, options)?;
    report.check_prefix_events_built = check.report.prefix_events_built;
    report.stage("check", t, check_detail(&check));
    match check.verdict {
        Verdict::Holds => {
            let equations = equations_stage(stg, &mut report)?;
            return Ok(SynthesisRun {
                pipeline: report.finish(started, PipelineOutcome::Clean { equations }),
                resolve_report: None,
            });
        }
        Verdict::Unknown(reason) => {
            let outcome = PipelineOutcome::Unresolved {
                remaining: None,
                reason: format!("check inconclusive: {reason}"),
            };
            return Ok(SynthesisRun {
                pipeline: report.finish(started, outcome),
                resolve_report: None,
            });
        }
        Verdict::Violated(_) => {}
    }

    // Stage 3: resolve.
    let t = Instant::now();
    let run = resolve_csc_with_report(stg, &options.resolver, seed)
        .map_err(|e| PipelineError::Resolve(e.to_string()))?;
    let resolve_report = Some(run.report);
    let (resolved, inserted) = match run.outcome {
        ResolveOutcome::Resolved { stg, inserted } => {
            report.stage(
                "resolve",
                t,
                format!("resolved with {} signal(s)", inserted.len()),
            );
            // Prefer the artifact set's shared handle so the
            // resolution and its artifacts point at one net.
            let resolved = run
                .artifacts
                .as_ref()
                .map_or_else(|| Arc::new(stg), |a| a.shared_stg());
            (resolved, inserted)
        }
        ResolveOutcome::Failed { remaining, .. } => {
            report.stage("resolve", t, format!("failed, {remaining} remaining"));
            let outcome = PipelineOutcome::Unresolved {
                remaining: Some(remaining),
                reason: format!("resolver gave up with {remaining} CSC conflict pair(s) remaining"),
            };
            return Ok(SynthesisRun {
                pipeline: report.finish(started, outcome),
                resolve_report,
            });
        }
        // The check stage saw a conflict but the resolver scored zero:
        // two engines disagree about the same net — a soundness bug,
        // never a legitimate outcome.
        ResolveOutcome::AlreadySatisfied => {
            return Err(PipelineError::Resolve(
                "check found a conflict but the resolver scored the input conflict-free".to_owned(),
            ))
        }
    };

    // Stage 4: re-check the resolver's claim on its own artifact set —
    // warm when the resolver handed one back (same canonical hash, so
    // reuse is sound), cold otherwise.
    let recheck_artifacts = run
        .artifacts
        .unwrap_or_else(|| Arc::new(Artifacts::new(Arc::clone(&resolved))));
    if let Some(reason) = recheck(&resolved, &recheck_artifacts, options, &mut report)? {
        let outcome = PipelineOutcome::Unresolved {
            remaining: None,
            reason: format!("re-check inconclusive: {reason}"),
        };
        return Ok(SynthesisRun {
            pipeline: report.finish(started, outcome),
            resolve_report,
        });
    }

    // Stage 5: equations of the resolved net.
    let equations = equations_stage(&resolved, &mut report)?;
    let outcome = PipelineOutcome::Resolved {
        stg: resolved,
        inserted,
        equations,
    };
    Ok(SynthesisRun {
        pipeline: report.finish(started, outcome),
        resolve_report,
    })
}

/// The check both check stages run: CSC of `stg` on `artifacts`,
/// under the options' engine and budget.
fn check_csc(
    stg: &Stg,
    artifacts: &Artifacts,
    options: &SynthesisOptions,
) -> Result<CheckRun, CheckError> {
    CheckRequest::new(stg, Property::Csc)
        .engine(options.engine)
        .budget(options.resolver.budget.clone())
        .artifacts(artifacts)
        .run()
}

/// The one-line stage detail of a check: verdict, engine, and the
/// prefix events it built.
fn check_detail(check: &CheckRun) -> String {
    format!(
        "{} [engine {}, prefix built {}]",
        check.verdict,
        check.report.engine,
        check
            .report
            .prefix_events_built
            .map_or("?".to_owned(), |n| n.to_string())
    )
}

/// Stage 4: re-checks the resolver's claim that `stg` is conflict-free
/// on `artifacts`. Returns `None` when the claim holds and the
/// exhaustion reason when the re-check was inconclusive.
///
/// # Errors
///
/// [`PipelineError::RecheckRefuted`] when `stg` still has a conflict;
/// [`PipelineError::Check`] on an engine failure.
fn recheck(
    stg: &Stg,
    artifacts: &Artifacts,
    options: &SynthesisOptions,
    report: &mut PipelineReport,
) -> Result<Option<ExhaustionReason>, PipelineError> {
    let t = Instant::now();
    let recheck = check_csc(stg, artifacts, options)?;
    report.recheck_prefix_events_built = recheck.report.prefix_events_built;
    report.stage("recheck", t, check_detail(&recheck));
    match recheck.verdict {
        Verdict::Holds => Ok(None),
        Verdict::Violated(_) => Err(PipelineError::RecheckRefuted),
        Verdict::Unknown(reason) => Ok(Some(reason)),
    }
}

/// Stage 5: the next-state equations of a conflict-free `stg`.
fn equations_stage(
    stg: &Stg,
    report: &mut PipelineReport,
) -> Result<Vec<SignalEquation>, PipelineError> {
    let t = Instant::now();
    let equations = derive_equations(stg).map_err(PipelineError::Equations)?;
    report.stage("equations", t, format!("{} equation(s)", equations.len()));
    Ok(equations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stg::gen::counterflow::{counterflow_asym, counterflow_sym};
    use stg::gen::vme::vme_read;

    fn stage_names(run: &SynthesisRun) -> Vec<&'static str> {
        run.pipeline.report.stages.iter().map(|s| s.stage).collect()
    }

    #[test]
    fn clean_input_yields_equations_directly() {
        let stg = counterflow_sym(2, 2);
        let run = synthesize(&stg, &SynthesisOptions::default(), None).unwrap();
        assert_eq!(stage_names(&run), ["lint", "check", "equations"]);
        match run.pipeline.outcome {
            PipelineOutcome::Clean { equations } => assert!(!equations.is_empty()),
            other => panic!("expected Clean, got {other:?}"),
        }
        assert!(run.resolve_report.is_none());
    }

    #[test]
    fn vme_synthesizes_end_to_end_with_warm_recheck() {
        let stg = vme_read();
        let run = synthesize(&stg, &SynthesisOptions::default(), None).unwrap();
        match &run.pipeline.outcome {
            PipelineOutcome::Resolved {
                stg: fixed,
                inserted,
                equations,
            } => {
                assert_eq!(inserted.len(), 1, "one state signal suffices for vme");
                // Equations cover every non-input signal, including
                // the inserted one.
                assert!(equations.iter().any(|e| e.signal == inserted[0]));
                assert!(fixed.num_signals() > stg.num_signals());
            }
            other => panic!("expected Resolved, got {other:?}"),
        }
        // Incremental re-verification: the re-check reused the
        // resolver's final-verification prefix.
        assert_eq!(run.pipeline.report.recheck_prefix_events_built, Some(0));
        assert!(run.resolve_report.is_some());
        assert_eq!(
            stage_names(&run),
            ["lint", "check", "resolve", "recheck", "equations"]
        );
    }

    #[test]
    fn resolver_surrender_is_unresolved_not_error() {
        let options = SynthesisOptions {
            resolver: ResolverOptions {
                max_signals: 0,
                ..Default::default()
            },
            ..Default::default()
        };
        let run = synthesize(&vme_read(), &options, None).unwrap();
        match run.pipeline.outcome {
            PipelineOutcome::Unresolved {
                remaining: Some(n), ..
            } => assert!(n > 0),
            ref other => panic!("expected Unresolved with a count, got {other:?}"),
        }
        assert_eq!(stage_names(&run), ["lint", "check", "resolve"]);
        assert!(run.resolve_report.is_some());
    }

    #[test]
    fn recheck_refutes_a_conflicted_resolution() {
        // Handed the conflicted input itself as the claimed
        // resolution, the re-check must refuse it.
        let stg = vme_read();
        let mut report = PipelineReport::default();
        let err = recheck(
            &stg,
            &Artifacts::of(&stg),
            &SynthesisOptions::default(),
            &mut report,
        )
        .unwrap_err();
        assert!(matches!(err, PipelineError::RecheckRefuted), "{err}");
        assert_eq!(report.stages.len(), 1);
        assert_eq!(report.stages[0].stage, "recheck");
    }

    #[test]
    fn check_stage_runs_the_requested_engine_first() {
        // The check stage runs the named engine alone, with no LP
        // ahead of it: on CF-ASYM-B the paper's engine builds a prefix
        // and proves CSC within milliseconds, while the exact LP takes
        // seconds.
        let run = synthesize(&counterflow_asym(4, 2), &SynthesisOptions::default(), None).unwrap();
        assert!(matches!(
            run.pipeline.outcome,
            PipelineOutcome::Clean { .. }
        ));
        assert!(
            run.pipeline.report.check_prefix_events_built > Some(0),
            "{:?}",
            run.pipeline.report.check_prefix_events_built
        );
    }

    #[test]
    fn lint_stage_is_bounded_by_the_budget() {
        use csc_core::Budget;
        use std::time::{Duration, Instant};
        // CF-ASYM-B is conflict-free and its relaxation LP takes
        // seconds. Neither the lint stage nor the check stage runs
        // that LP, so the whole run, equations included, must end
        // within a few multiples of the deadline.
        let stg = counterflow_asym(4, 2);
        let budget = Duration::from_millis(200);
        let mut options = SynthesisOptions::default();
        options.resolver.budget = Budget::unlimited().with_deadline(budget);
        let start = Instant::now();
        let run = synthesize(&stg, &options, None).unwrap();
        let elapsed = start.elapsed();
        assert!(
            !matches!(run.pipeline.outcome, PipelineOutcome::Resolved { .. }),
            "a conflict-free net needs no resolution"
        );
        assert!(elapsed < budget * 5, "{elapsed:?}");
    }
}
