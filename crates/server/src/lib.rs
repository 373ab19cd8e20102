//! `stgd`: a concurrent STG verification service.
//!
//! This crate turns the library-level checkers of [`csc_core`] into a
//! long-running network service. Clients connect over TCP and speak a
//! newline-delimited JSON protocol ([`protocol`], specified in
//! `docs/SERVER.md`): each line is a `check`, `synthesize`, `stats`
//! or `shutdown` request; `check` responses carry a three-valued
//! verdict with a full resource report, and `synthesize` responses
//! (revision 6) carry the resolved net, the inserted state signals
//! and the derived next-state equations — or the stable
//! `resolve_failed` code. Jobs are scheduled onto a fixed worker pool
//! ([`server`]), and by default each worker decides its job with the
//! `Engine::Race` schedule under one absolute deadline: the structure
//! fast path, the paper's unfolding+ILP engine under small caps, and
//! only then a race of that engine, uncapped, against explicit
//! enumeration on separate threads, first conclusive verdict wins,
//! loser cancelled.
//!
//! The [`client`] module is the matching blocking client, used by
//! `stgcheck --server`, `stgbench` and the integration tests.
//!
//! The service is built to stay up under abuse and partial failure:
//! admission is bounded globally and per client with load-shedding
//! responses that carry a `retry_after_ms` hint, panicked workers are
//! supervised and replaced (the in-flight job fails with the stable
//! `worker_crashed` code), stalled readers are disconnected instead
//! of wedging workers, and the client retries idempotent jobs with
//! exponential backoff ([`client::RetryPolicy`]). The [`failpoints`]
//! module is the matching fault-injection facility: compiled to
//! no-ops by default, and enabled with `--features failpoints` for
//! the chaos test suite.
//!
//! # Examples
//!
//! ```
//! use server::{spawn, Client, ServerConfig};
//! use server::protocol::BudgetSpec;
//! use csc_core::Property;
//!
//! let handle = spawn(ServerConfig::default()).unwrap();
//! let mut client = Client::connect(handle.addr()).unwrap();
//! let g = stg::to_g_format(&stg::gen::vme::vme_read(), "vme");
//! let response = client
//!     .check("job-0", &g, Property::Csc, None, BudgetSpec::default())
//!     .unwrap();
//! assert_eq!(response.verdict.as_deref(), Some("violated"));
//! handle.shutdown();
//! ```

pub mod cache;
pub mod client;
pub mod failpoints;
pub mod json;
pub mod protocol;
pub mod server;

pub use cache::{ArtifactCache, CacheStats};
pub use client::{CheckResponse, Client, ClientError, RetryPolicy, RetryStats, SynthesizeResponse};
pub use server::{spawn, ServerConfig, ServerHandle};
