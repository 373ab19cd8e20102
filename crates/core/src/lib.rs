//! Detection of state coding conflicts in STGs using integer
//! programming over unfolding prefixes.
//!
//! This crate is the primary contribution of the reproduced paper
//! (Khomenko/Koutny/Yakovlev, DATE 2002) packaged as a library:
//!
//! * [`Checker`] — builds the finite complete prefix of an STG once
//!   and answers USC (§3), CSC (§3), normalcy (§6) and consistency
//!   queries by solving 0-1 integer programs over *Unf-compatible*
//!   configuration vectors, including the §7 optimisation for
//!   dynamically conflict-free nets;
//! * execution-path witnesses — every detected conflict comes with
//!   two firing sequences of the original STG leading to the
//!   conflicting markings, *without* any reachability analysis;
//! * [`reach`] — the §5 "extended reachability" API: arbitrary linear
//!   marking predicates translated to event variables (including a
//!   ready-made deadlock finder, the application that motivated the
//!   technique in the paper's introduction);
//! * [`engine`] — a uniform front-end over this checker and the two
//!   baseline engines (explicit state graph, symbolic BDD) for
//!   cross-validation and benchmarking;
//! * [`artifact`] — lazily-built, content-addressed artifact sets
//!   (prefix + relations, state graph, symbolic encoding) shared
//!   across engines, properties and threads, so checking USC then CSC
//!   unfolds once and the race of [`Engine::Race`] hands all racers one
//!   artifact set.
//!
//! Synthesis — state-signal insertion and next-state equations — sits
//! above this crate: the `resolve` crate's `synthesize` runs it over
//! plain [`CheckRequest`]s and [`Artifacts`] sets.
//!
//! # Examples
//!
//! ```
//! use csc_core::{CheckOutcome, Checker};
//! use stg::gen::vme::vme_read;
//!
//! # fn main() -> Result<(), csc_core::CheckError> {
//! let stg = vme_read();
//! let checker = Checker::new(&stg)?;
//! match checker.check_csc()? {
//!     CheckOutcome::Conflict(w) => {
//!         // The paper's Fig. 1(b)/Fig. 2 conflict: code 10110.
//!         assert_eq!(w.code.to_string(), "10110");
//!         assert!(w.replay(&stg));
//!     }
//!     CheckOutcome::Satisfied => unreachable!("vme_read has a CSC conflict"),
//! }
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod artifact;
mod checker;
mod consistency;
pub mod engine;
mod error;
mod exprs;
pub mod limits;
pub mod reach;
mod report;
mod witness;

pub use artifact::{Artifacts, PrefixArtifact};
pub use cegar::CegarStats;
pub use checker::{CheckOutcome, Checker, CheckerOptions, NormalcyOutcome, NormalcyReport};
pub use consistency::{ConsistencyOutcome, ConsistencyViolation};
pub use engine::{CheckRequest, Engine, Property};
pub use error::CheckError;
pub use limits::{
    Budget, CancelToken, CheckRun, ExhaustionReason, LintSummary, ResourceReport, StructureSummary,
    Verdict, Witness,
};
pub use report::AnalysisReport;
pub use symbolic::BddStats;
pub use witness::{ConflictKind, ConflictWitness, NormalcyWitness};
