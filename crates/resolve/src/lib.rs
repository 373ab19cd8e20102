//! Automatic CSC conflict resolution by state-signal insertion.
//!
//! The paper verifies coding conflicts (synthesis step (a)); this
//! crate provides step (b): *modifying the STG to make it
//! implementable*. It follows the classic recipe the paper's Fig. 3
//! illustrates — insert an internal state signal `csc` whose value
//! disambiguates the conflicting states — implemented as a
//! generate-and-test search:
//!
//! 1. candidate insertions split two places `p⁺`, `p⁻` of the net,
//!    threading `u+` between `p⁺`'s producers and consumers and `u-`
//!    likewise through `p⁻` (the paper's own Fig. 3 resolution — `u+`
//!    on the `ldtack- → lds+` handover, `u-` on the `dsr- → d-` arc —
//!    is one such candidate, verified in this crate's tests);
//! 2. each candidate is scored by a kernel that patches the split
//!    into the parent net's bit masks and explores the result on safe
//!    bitset markings, with no candidate net built. Only the candidate
//!    a round adopts becomes an [`stg::Stg`], with a content-addressed
//!    [`csc_core::Artifacts`] set: its final verification with this
//!    workspace's own budgeted engines builds the prefix there, and
//!    any downstream re-check reuses it (incremental re-verification)
//!    — the resolver can only return models that demonstrably pass;
//! 3. candidates are scored by remaining CSC conflict pairs; if one
//!    signal does not suffice, the best candidate is kept and the
//!    search iterates with another signal (up to a configurable
//!    budget), all under one [`csc_core::Budget`] whose deadline and
//!    cancellation token abort the search mid-candidate.
//!
//! The [`synthesize`] entry point runs the crate's full pipeline —
//! lint → check → resolve → re-check → equations — as straight-line
//! code that calls this resolver and the `synth` crate's equation
//! deriver directly ([`derive_equations`]). It is the only synthesis
//! orchestrator in the workspace.
//!
//! # Examples
//!
//! ```
//! use resolve::{resolve_csc, ResolveOutcome, ResolverOptions};
//! use stg::gen::vme::vme_read;
//! use stg::StateGraph;
//!
//! # fn main() -> Result<(), resolve::ResolveError> {
//! let stg = vme_read();
//! match resolve_csc(&stg, ResolverOptions::default())? {
//!     ResolveOutcome::Resolved { stg: fixed, inserted } => {
//!         assert_eq!(inserted.len(), 1); // one state signal suffices
//!         let sg = StateGraph::build(&fixed, Default::default()).unwrap();
//!         assert!(sg.satisfies_csc(&fixed));
//!     }
//!     other => panic!("vme is resolvable: {other:?}"),
//! }
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod insert;
mod kernel;
mod pipeline;
mod resolver;

pub use insert::{insert_state_signal, insert_state_signal_multi};
pub use pipeline::{
    derive_equations, synthesize, PipelineError, PipelineOutcome, PipelineReport, PipelineRun,
    SignalEquation, StageReport, SynthesisOptions, SynthesisRun,
};
pub use resolver::{
    resolve_csc, resolve_csc_with_report, ResolveError, ResolveOutcome, ResolveReport, ResolveRun,
    ResolverOptions, RoundReport,
};
