//! The synthesis pipeline: lint → check → resolve → re-check →
//! equations, orchestrated over one flowing [`Artifacts`] set.
//!
//! The paper's end-game is synthesis, not detection: find the coding
//! conflicts (§3), insert state signals to kill them (Fig. 3), and
//! emit next-state covers (§6). This module provides the
//! *orchestration* of those stages; the conflict resolver and the
//! equation deriver themselves live in downstream crates (`resolve`,
//! `synth`) and are supplied as hooks, because `csc_core` sits below
//! them in the dependency graph.
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
//! The pipeline outcome is three-valued ([`PipelineOutcome`]): the
//! input was already conflict-free (`Clean`), conflicts were found
//! and provably removed (`Resolved`), or conflicts remain
//! (`Unresolved`) — the last is a first-class outcome, not an error,
//! mirroring [`Verdict::Unknown`].
//!
//! # Warm re-check
//!
//! Every stage flows through [`Artifacts`]: the check stage's prefix
//! / state graph / symbolic encoding are keyed by
//! `Stg::canonical_hash()` and the resolve hook returns the artifact
//! set of the *winning candidate* alongside the resolved net. Since
//! the re-check runs on exactly that net (same hash), the prefix its
//! final verification built is reused verbatim and
//! [`PipelineReport::recheck_prefix_events_built`] reports 0 — the
//! incremental re-verification that makes generate-and-test
//! resolution affordable. Reuse is sound because artifact sets never
//! cross hashes: an insertion changes the canonical hash, so a
//! modified net can never see stale stages (see `docs/SYNTH.md`).

use std::error::Error;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use stg::Stg;

use crate::artifact::Artifacts;
use crate::engine::{CheckRequest, Engine, Property};
use crate::error::CheckError;
use crate::limits::{Budget, Verdict};

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

/// What the resolve hook produced for a conflicted input.
#[derive(Debug, Clone)]
pub enum ResolveHookOutcome {
    /// The hook claims the returned net is conflict-free (the
    /// pipeline re-checks the claim before believing it).
    Resolved(Resolution),
    /// The hook gave up; `remaining` conflict pairs were left in the
    /// best net it reached.
    Failed {
        /// CSC conflict pairs remaining.
        remaining: usize,
    },
}

/// A resolved net handed back by the resolve hook.
#[derive(Debug, Clone)]
pub struct Resolution {
    /// The modified, allegedly conflict-free STG.
    pub stg: Arc<Stg>,
    /// Names of the inserted internal state signals.
    pub inserted: Vec<String>,
    /// The artifact set of `stg` accumulated during the resolver's
    /// own final verification — attaching it makes the pipeline's
    /// re-check warm (no prefix rebuild). `None` degrades to a cold
    /// re-check, never to an unsound one.
    pub artifacts: Option<Arc<Artifacts>>,
}

/// Three-valued outcome of a [`Pipeline`] run.
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
    /// seeded the pipeline with a warm [`Artifacts`] set).
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
    /// The resolve hook failed outright (not merely gave up).
    Resolve(String),
    /// The equations hook failed (e.g. the derivation found a
    /// conflict the checks missed — a soundness bug, not a budget
    /// issue).
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

/// Builder for a synthesis pipeline run over one STG.
///
/// The two synthesis-specific stages are supplied to [`Pipeline::run`]
/// as hooks (see the module docs for why). A hook-free CSC check with
/// the same artifact flow is what [`CheckRequest`] already provides;
/// this type exists for the five-stage composition.
#[derive(Debug)]
#[must_use = "a Pipeline does nothing until `.run()`"]
pub struct Pipeline<'a> {
    stg: &'a Stg,
    engine: Engine,
    budget: Budget,
    artifacts: Option<Arc<Artifacts>>,
    lint: bool,
}

impl<'a> Pipeline<'a> {
    /// A pipeline over `stg` with the default engine
    /// ([`Engine::UnfoldingIlp`]), an unlimited budget, and the lint
    /// stage enabled.
    pub fn new(stg: &'a Stg) -> Self {
        Pipeline {
            stg,
            engine: Engine::UnfoldingIlp,
            budget: Budget::unlimited(),
            artifacts: None,
            lint: true,
        }
    }

    /// Selects the engine used by the check and re-check stages.
    pub fn engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Sets the resource budget. The deadline is re-anchored per
    /// stage (lint, check, resolve, re-check); the cancellation token
    /// is global, so a watchdog can abort the pipeline wherever it
    /// currently is.
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Seeds the check stage with an existing artifact set of the
    /// input net (e.g. a server cache entry), making the *initial*
    /// check warm too. Must wrap the same STG.
    pub fn artifacts(mut self, artifacts: Arc<Artifacts>) -> Self {
        self.artifacts = Some(artifacts);
        self
    }

    /// Enables or disables the lint stage (enabled by default). The
    /// stage runs the structural checks and semiflow proofs only, not
    /// the LP relaxation; the flag also turns the check stage's
    /// prelint on or off (see [`CheckRequest::prelint`]).
    pub fn lint(mut self, enabled: bool) -> Self {
        self.lint = enabled;
        self
    }

    /// Runs lint → check → resolve → re-check → equations.
    ///
    /// `resolve` is invoked only when the check finds a conflict; it
    /// receives the input net and the pipeline budget and returns
    /// either a [`Resolution`] (whose claim the pipeline *re-checks*
    /// before believing) or [`ResolveHookOutcome::Failed`].
    /// `equations` derives the next-state equations of a
    /// conflict-free net; it runs on the input (for
    /// [`PipelineOutcome::Clean`]) or on the resolved net.
    ///
    /// # Errors
    ///
    /// See [`PipelineError`]. Budget exhaustion and resolver
    /// surrender are *not* errors — they end as
    /// [`PipelineOutcome::Unresolved`].
    pub fn run<R, E>(self, resolve: R, mut equations: E) -> Result<PipelineRun, PipelineError>
    where
        R: FnOnce(&Stg, &Budget) -> Result<ResolveHookOutcome, String>,
        E: FnMut(&Stg) -> Result<Vec<SignalEquation>, String>,
    {
        let started = Instant::now();
        let mut report = PipelineReport::default();
        let artifacts = self
            .artifacts
            .clone()
            .unwrap_or_else(|| Arc::new(Artifacts::new(Arc::new(self.stg.clone()))));

        // Stage 1: lint. Error-severity diagnostics abort — they mean
        // the input is structurally broken, which no insertion fixes.
        // The LP proofs are left out: nothing here reads them, and the
        // check stage runs the LP itself when the paper's engine
        // abstains.
        if self.lint {
            let t = Instant::now();
            let options = lint::LintOptions {
                lp: false,
                ..lint::LintOptions::default()
            };
            let lint_report = artifacts.lint_with(&options);
            let errors = lint_report.errors() as u64;
            report.stage(
                "lint",
                t,
                format!("{errors} error(s), {} warning(s)", lint_report.warnings()),
            );
            if errors > 0 {
                return Err(PipelineError::LintRejected { errors });
            }
        }

        // Stage 2: check CSC on the input.
        let t = Instant::now();
        let check = CheckRequest::new(self.stg, Property::Csc)
            .engine(self.engine)
            .budget(self.budget.clone())
            .artifacts(&artifacts)
            .prelint(self.lint)
            .run()?;
        report.check_prefix_events_built = check.report.prefix_events_built;
        report.stage(
            "check",
            t,
            format!(
                "{} [engine {}, prefix built {}]",
                check.verdict,
                check.report.engine,
                check
                    .report
                    .prefix_events_built
                    .map_or("?".to_owned(), |n| n.to_string())
            ),
        );
        match check.verdict {
            Verdict::Holds => {
                let t = Instant::now();
                let eqs = equations(self.stg).map_err(PipelineError::Equations)?;
                report.stage("equations", t, format!("{} equation(s)", eqs.len()));
                report.elapsed = started.elapsed();
                return Ok(PipelineRun {
                    outcome: PipelineOutcome::Clean { equations: eqs },
                    report,
                });
            }
            Verdict::Unknown(reason) => {
                report.elapsed = started.elapsed();
                return Ok(PipelineRun {
                    outcome: PipelineOutcome::Unresolved {
                        remaining: None,
                        reason: format!("check inconclusive: {reason}"),
                    },
                    report,
                });
            }
            Verdict::Violated(_) => {}
        }

        // Stage 3: resolve.
        let t = Instant::now();
        let resolution = match resolve(self.stg, &self.budget).map_err(PipelineError::Resolve)? {
            ResolveHookOutcome::Resolved(r) => {
                report.stage(
                    "resolve",
                    t,
                    format!("resolved with {} signal(s)", r.inserted.len()),
                );
                r
            }
            ResolveHookOutcome::Failed { remaining } => {
                report.stage("resolve", t, format!("failed, {remaining} remaining"));
                report.elapsed = started.elapsed();
                return Ok(PipelineRun {
                    outcome: PipelineOutcome::Unresolved {
                        remaining: Some(remaining),
                        reason: format!(
                            "resolver gave up with {remaining} CSC conflict pair(s) remaining"
                        ),
                    },
                    report,
                });
            }
        };

        // Stage 4: re-check the resolver's claim on its own artifact
        // set — warm when the resolver handed one back (same
        // canonical hash, so reuse is sound), cold otherwise.
        let t = Instant::now();
        let recheck_artifacts = resolution
            .artifacts
            .clone()
            .unwrap_or_else(|| Arc::new(Artifacts::new(Arc::clone(&resolution.stg))));
        let recheck = CheckRequest::new(&resolution.stg, Property::Csc)
            .engine(self.engine)
            .budget(self.budget.clone())
            .artifacts(&recheck_artifacts)
            .run()?;
        report.recheck_prefix_events_built = recheck.report.prefix_events_built;
        report.stage(
            "recheck",
            t,
            format!(
                "{} [engine {}, prefix built {}]",
                recheck.verdict,
                recheck.report.engine,
                recheck
                    .report
                    .prefix_events_built
                    .map_or("?".to_owned(), |n| n.to_string())
            ),
        );
        match recheck.verdict {
            Verdict::Holds => {}
            Verdict::Violated(_) => return Err(PipelineError::RecheckRefuted),
            Verdict::Unknown(reason) => {
                report.elapsed = started.elapsed();
                return Ok(PipelineRun {
                    outcome: PipelineOutcome::Unresolved {
                        remaining: None,
                        reason: format!("re-check inconclusive: {reason}"),
                    },
                    report,
                });
            }
        }

        // Stage 5: equations of the resolved net.
        let t = Instant::now();
        let eqs = equations(&resolution.stg).map_err(PipelineError::Equations)?;
        report.stage("equations", t, format!("{} equation(s)", eqs.len()));
        report.elapsed = started.elapsed();
        Ok(PipelineRun {
            outcome: PipelineOutcome::Resolved {
                stg: resolution.stg,
                inserted: resolution.inserted,
                equations: eqs,
            },
            report,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stg::gen::counterflow::counterflow_sym;
    use stg::gen::vme::{vme_read, vme_read_csc_resolved};

    fn no_resolve(_: &Stg, _: &Budget) -> Result<ResolveHookOutcome, String> {
        panic!("resolve hook must not run on a clean input")
    }

    fn no_equations(_: &Stg) -> Result<Vec<SignalEquation>, String> {
        Ok(Vec::new())
    }

    #[test]
    fn clean_input_skips_resolution() {
        let stg = counterflow_sym(2, 2);
        let run = Pipeline::new(&stg)
            .engine(Engine::UnfoldingIlp)
            .run(no_resolve, |_| {
                Ok(vec![SignalEquation {
                    signal: "x".into(),
                    equation: "x = y".into(),
                    monotonic: true,
                }])
            })
            .unwrap();
        match run.outcome {
            PipelineOutcome::Clean { equations } => assert_eq!(equations.len(), 1),
            other => panic!("expected Clean, got {other:?}"),
        }
        let stages: Vec<_> = run.report.stages.iter().map(|s| s.stage).collect();
        assert_eq!(stages, ["lint", "check", "equations"]);
    }

    #[test]
    fn resolver_surrender_is_unresolved_not_error() {
        let stg = vme_read();
        let run = Pipeline::new(&stg)
            .engine(Engine::UnfoldingIlp)
            .run(
                |_, _| Ok(ResolveHookOutcome::Failed { remaining: 7 }),
                no_equations,
            )
            .unwrap();
        match run.outcome {
            PipelineOutcome::Unresolved { remaining, .. } => assert_eq!(remaining, Some(7)),
            other => panic!("expected Unresolved, got {other:?}"),
        }
    }

    #[test]
    fn lying_resolver_is_refuted_by_the_recheck() {
        // A hook that hands back the *same conflicted net* claiming
        // success must be caught by the re-check stage.
        let stg = vme_read();
        let err = Pipeline::new(&stg)
            .engine(Engine::UnfoldingIlp)
            .run(
                |input, _| {
                    Ok(ResolveHookOutcome::Resolved(Resolution {
                        stg: Arc::new(input.clone()),
                        inserted: vec!["csc0".into()],
                        artifacts: None,
                    }))
                },
                no_equations,
            )
            .unwrap_err();
        assert!(matches!(err, PipelineError::RecheckRefuted));
    }

    #[test]
    fn honest_resolver_reaches_equations_with_warm_recheck() {
        // Hand the hook a pre-resolved net plus its artifact set with
        // the prefix already built: the re-check must rebuild nothing.
        let stg = vme_read();
        let resolved = Arc::new(vme_read_csc_resolved());
        let arts = Arc::new(Artifacts::new(Arc::clone(&resolved)));
        // Pre-warm the prefix the way the resolver's final
        // verification would.
        let warm = CheckRequest::new(&resolved, Property::Csc)
            .engine(Engine::UnfoldingIlp)
            .artifacts(&arts)
            .run()
            .unwrap();
        assert!(warm.report.prefix_events_built.unwrap_or(0) > 0);
        let run = Pipeline::new(&stg)
            .engine(Engine::UnfoldingIlp)
            .run(
                |_, _| {
                    Ok(ResolveHookOutcome::Resolved(Resolution {
                        stg: Arc::clone(&resolved),
                        inserted: vec!["csc0".into()],
                        artifacts: Some(Arc::clone(&arts)),
                    }))
                },
                no_equations,
            )
            .unwrap();
        match &run.outcome {
            PipelineOutcome::Resolved { inserted, .. } => assert_eq!(inserted.len(), 1),
            other => panic!("expected Resolved, got {other:?}"),
        }
        assert_eq!(run.report.recheck_prefix_events_built, Some(0));
    }
}
