//! From specification to equations in one call: run the full
//! synthesis pipeline — lint → CSC check → state-signal insertion →
//! warm re-check → next-state equations — on the paper's conflicted
//! VME controller, reproducing the §6 logic equations without ever
//! touching a hand-resolved model.
//!
//! Run with: `cargo run --example synthesize`

use stg_coding_conflicts::resolve::{synthesize, PipelineOutcome, SynthesisOptions};
use stg_coding_conflicts::stg::gen::vme::vme_read;
use stg_coding_conflicts::synth::{NextStateFunctions, SynthError};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Direct derivation refuses STGs with coding conflicts...
    let conflicted = vme_read();
    match NextStateFunctions::derive(&conflicted, Default::default()) {
        Err(SynthError::CodingConflict { signal }) => println!(
            "vme_read: no next-state function for `{}` (CSC conflict) — resolve first",
            conflicted.signal_name(signal)
        ),
        other => panic!("expected a coding conflict, got ok={}", other.is_ok()),
    }

    // ...so let the pipeline resolve the conflict itself.
    let run = synthesize(&conflicted, &SynthesisOptions::default(), None)?;
    println!("\npipeline stages:");
    for stage in &run.pipeline.report.stages {
        println!(
            "  {:<9} {:>10.1?}  {}",
            stage.stage, stage.elapsed, stage.detail
        );
    }
    // Incremental re-verification: the re-check of the resolved net
    // reused the resolver's final-verification prefix wholesale.
    assert_eq!(run.pipeline.report.recheck_prefix_events_built, Some(0));

    let PipelineOutcome::Resolved {
        inserted,
        equations,
        ..
    } = &run.pipeline.outcome
    else {
        panic!("vme_read resolves with one state signal");
    };
    println!(
        "\nresolved with {} inserted state signal(s): {}",
        inserted.len(),
        inserted.join(", ")
    );
    println!("next-state equations:");
    let mut non_monotonic = 0;
    for eq in equations {
        let tag = if eq.monotonic {
            "monotonic"
        } else {
            non_monotonic += 1;
            "NOT monotonic — needs an input inverter"
        };
        println!("  {:<24} [{tag}]", eq.equation);
    }
    assert!(non_monotonic > 0);
    println!("\nAs §6 of the paper observes, the state signal's function is");
    println!("non-monotonic, so the resolved model still cannot use purely");
    println!("monotonic gates.");
    Ok(())
}
