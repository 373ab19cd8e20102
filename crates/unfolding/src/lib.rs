//! Branching processes and finite complete unfolding prefixes.
//!
//! Implements the partial-order substrate of the paper: occurrence
//! nets, branching processes of a safe net system, configurations and
//! cuts (§2.3), and the construction of a *finite complete prefix*
//! with cut-off events using the ERV algorithm with its total
//! adequate order (size → Parikh-lex → Foata normal form).
//!
//! The prefix is the structure on which the integer-programming
//! checker operates: its causality/conflict relations (exported by
//! [`relations::EventRelations`]) drive the solver's propagation, and
//! its cut-off events become the `x(e) = 0` constraints.
//!
//! # Examples
//!
//! ```
//! use stg::gen::vme::vme_read;
//! use unfolding::{Prefix, UnfoldOptions};
//!
//! # fn main() -> Result<(), unfolding::UnfoldError> {
//! let stg = vme_read();
//! let prefix = Prefix::of_stg(&stg, UnfoldOptions::default())?;
//! // The paper's Fig. 2 prefix: 12 events of which 1 is a cut-off.
//! assert_eq!(prefix.num_events(), 12);
//! assert_eq!(prefix.num_cutoffs(), 1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod builder;
pub mod completeness;
pub mod dot;
mod occ;
pub mod order;
pub mod relations;

pub use builder::{UnfoldError, UnfoldOptions, UnfoldStats};
pub use occ::{CondId, CutoffMate, EventId, Prefix};
pub use order::OrderKey;
pub use relations::EventRelations;
