//! The concrete synthesis pipeline: [`csc_core::Pipeline`] wired to
//! this crate's resolver and the `synth` crate's next-state equation
//! deriver.
//!
//! `csc_core` hosts the orchestration (lint → check → resolve →
//! re-check → equations) but sits *below* `resolve` and `synth` in
//! the dependency graph, so its resolve/equations stages are hooks.
//! This module plugs the real implementations in and is what
//! `stgcheck synthesize`, the `stgd` `synthesize` job, and the bench
//! harness all call.

use std::sync::Arc;

use csc_core::{
    Artifacts, Engine, Pipeline, PipelineError, PipelineRun, Resolution, ResolveHookOutcome,
    SignalEquation,
};
use stg::Stg;
use synth::NextStateFunctions;

use crate::resolver::{resolve_csc_with_report, ResolveOutcome, ResolveReport, ResolverOptions};

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
/// [`SignalEquation`] data (the pipeline's equations hook).
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
/// ([`csc_core::PipelineReport::recheck_prefix_events_built`] is 0
/// whenever the resolve stage ran its final verification).
///
/// # Errors
///
/// [`PipelineError`] — lint rejection, engine failures, a refuted
/// resolution, or a budget abort inside the resolve stage
/// (surfaced as [`PipelineError::Resolve`] with the exhaustion
/// reason in the message). Resolver *surrender* and inconclusive
/// checks are not errors; they end as
/// [`csc_core::PipelineOutcome::Unresolved`].
pub fn synthesize(
    stg: &Stg,
    options: &SynthesisOptions,
    seed: Option<Arc<Artifacts>>,
) -> Result<SynthesisRun, PipelineError> {
    let mut resolve_report = None;
    let mut pipeline = Pipeline::new(stg)
        .engine(options.engine)
        .budget(options.resolver.budget.clone());
    if let Some(seed) = seed.clone() {
        pipeline = pipeline.artifacts(seed);
    }
    let run = pipeline.run(
        |input, budget| {
            let mut resolver_options = options.resolver.clone();
            resolver_options.budget = budget.clone();
            let run = resolve_csc_with_report(input, &resolver_options, seed)
                .map_err(|e| e.to_string())?;
            resolve_report = Some(run.report);
            match run.outcome {
                ResolveOutcome::Resolved { stg, inserted } => {
                    // Prefer the artifact set's shared handle so the
                    // resolution and its artifacts point at one net.
                    let resolved = run
                        .artifacts
                        .as_ref()
                        .map_or_else(|| Arc::new(stg), |a| a.shared_stg());
                    Ok(ResolveHookOutcome::Resolved(Resolution {
                        stg: resolved,
                        inserted,
                        artifacts: run.artifacts,
                    }))
                }
                ResolveOutcome::Failed { remaining, .. } => {
                    Ok(ResolveHookOutcome::Failed { remaining })
                }
                // The check stage saw a conflict but the resolver
                // scored zero: two engines disagree about the same
                // net — a soundness bug, never a legitimate outcome.
                ResolveOutcome::AlreadySatisfied => Err(
                    "check found a conflict but the resolver scored the input conflict-free"
                        .to_owned(),
                ),
            }
        },
        derive_equations,
    )?;
    Ok(SynthesisRun {
        pipeline: run,
        resolve_report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use csc_core::PipelineOutcome;
    use stg::gen::counterflow::{counterflow_asym, counterflow_sym};
    use stg::gen::vme::vme_read;

    #[test]
    fn clean_input_yields_equations_directly() {
        let stg = counterflow_sym(2, 2);
        let run = synthesize(&stg, &SynthesisOptions::default(), None).unwrap();
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
        let stages: Vec<_> = run.pipeline.report.stages.iter().map(|s| s.stage).collect();
        assert_eq!(stages, ["lint", "check", "resolve", "recheck", "equations"]);
    }

    #[test]
    fn lint_stage_is_bounded_by_the_budget() {
        use csc_core::Budget;
        use std::time::{Duration, Instant};
        // CF-ASYM-B is conflict-free and its relaxation LP takes
        // seconds; wherever the pipeline runs that LP (the lint stage
        // leaves it to the check stage's prelint), it must give up at
        // the deadline like every other stage instead of finishing it.
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
