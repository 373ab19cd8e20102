//! Signal Transition Graphs (STGs).
//!
//! An STG is a net system whose transitions are labelled with rising
//! (`z+`) and falling (`z−`) edges of circuit signals — the standard
//! specification formalism for asynchronous control circuits. This
//! crate provides:
//!
//! * the [`Stg`] type and [`StgBuilder`];
//! * binary signal [`code::CodeVec`]s, signal-change vectors and
//!   consistency checking;
//! * the explicit [`state_graph::StateGraph`] with ground-truth
//!   USC/CSC/normalcy checkers (the definitions of §2.1 and §6 of the
//!   paper, evaluated by brute force — used as oracle and baseline);
//! * a [`parser`] / [`writer`] pair for the `.g` (astg) interchange
//!   format, and [`dot`] for Graphviz export;
//! * [`gen`]: parametric generators for the benchmark families of the
//!   paper's Table 1 plus random consistent STGs for property testing.
//!
//! # Examples
//!
//! ```
//! use stg::{SignalKind, StgBuilder, Edge};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = StgBuilder::new();
//! let req = b.add_signal("req", SignalKind::Input);
//! let ack = b.add_signal("ack", SignalKind::Output);
//! let rp = b.edge(req, Edge::Rise);
//! let ap = b.edge(ack, Edge::Rise);
//! let rm = b.edge(req, Edge::Fall);
//! let am = b.edge(ack, Edge::Fall);
//! b.chain_cycle(&[rp, ap, rm, am])?; // 4-phase handshake
//! let stg = b.build_with_inferred_code(Default::default())?;
//! assert_eq!(stg.num_signals(), 2);
//! assert_eq!(stg.initial_code().to_string(), "00");
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod code;
pub mod dot;
mod error;
pub mod gen;
pub mod hash;
pub mod parser;
mod signal;
pub mod state_graph;
mod stg;
pub mod writer;

pub use code::{ChangeVec, CodeVec};
pub use error::{ParseStgError, StgError, SyntaxKind};
pub use hash::CanonicalHash;
pub use parser::{parse, parse_bytes};
pub use signal::{Edge, Label, Signal, SignalKind};
pub use state_graph::{SgError, StateGraph};
pub use stg::{Stg, StgBuilder};
pub use writer::to_g_format;
