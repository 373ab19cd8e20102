//! A blocking NDJSON client for `stgd`, used by `stgcheck --server`
//! and the integration tests.
//!
//! The client is deliberately thin: it frames request lines, parses
//! response lines, and surfaces the protocol's `id` correlation so a
//! caller pipelining a batch can match completion-order responses
//! back to its jobs. Two robustness layers sit on top:
//!
//! - **Read timeouts.** The socket has a default read timeout
//!   ([`Client::DEFAULT_READ_TIMEOUT_MS`]), so a dead or wedged
//!   server yields [`ClientError::Timeout`] instead of blocking the
//!   caller forever.
//! - **Retry with backoff.** [`Client::check_with_retry`] resubmits a
//!   job across transport failures (reconnecting first) and across
//!   the server's load-shedding responses (`queue_full`,
//!   `over_quota`) and `worker_crashed` errors, waiting out the
//!   server's `retry_after_ms` hint when one is present and
//!   exponential backoff with jitter otherwise. Resubmission is safe
//!   because `check` jobs are idempotent: the verdict is a pure
//!   function of the net and property, and server-side artifacts are
//!   content-addressed by canonical STG hash.

use std::fmt;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use csc_core::{Engine, Property};
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::json::{self, Value};
use crate::protocol::{
    encode_check_request, encode_synthesize_request, BudgetSpec, CheckRequest, SynthesizeRequest,
};

/// A failure talking to the server.
#[derive(Debug)]
pub enum ClientError {
    /// The TCP transport failed (connect, read or write).
    Io(io::Error),
    /// The socket read timeout expired while a response was still
    /// expected: the server is dead, wedged, or slower than the
    /// configured timeout. The connection may have lost a partial
    /// line and should be re-established before reuse.
    Timeout,
    /// The server's line was not a valid response object, or the
    /// connection closed while a response was still expected.
    Protocol(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Timeout => write!(f, "timed out awaiting a response"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        if matches!(
            e.kind(),
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
        ) {
            ClientError::Timeout
        } else {
            ClientError::Io(e)
        }
    }
}

/// One decoded response to a `check` request.
#[derive(Debug, Clone)]
pub struct CheckResponse {
    /// The correlation id echoed by the server (absent only for
    /// errors on requests whose id never parsed).
    pub id: Option<String>,
    /// Protocol revision of the response
    /// ([`crate::protocol::PROTO_VERSION`]); `None` on the plain error
    /// responses, which carry none.
    pub proto: Option<u64>,
    /// `"ok"` or `"error"`.
    pub status: String,
    /// `"holds"`, `"violated"` or `"unknown"` when `status == "ok"`.
    pub verdict: Option<String>,
    /// Machine-readable exhaustion code when the verdict is unknown.
    pub reason: Option<String>,
    /// The engine that ran the job.
    pub engine: Option<String>,
    /// For composite engines, the member whose verdict was adopted.
    pub winner: Option<String>,
    /// The error message when `status == "error"`.
    pub error: Option<String>,
    /// Stable machine-readable error code when `status == "error"`
    /// and the server classified the failure (e.g. `queue_full`).
    pub code: Option<String>,
    /// The backoff hint on load-shedding errors: how long
    /// the server expects to need before it can admit the job.
    pub retry_after_ms: Option<u64>,
    /// Worker-side wall-clock of the check itself.
    pub elapsed_ms: Option<f64>,
    /// The complete response object (witness, resource report, …).
    pub raw: Value,
}

impl CheckResponse {
    fn from_value(raw: Value) -> Result<Self, ClientError> {
        let status = raw
            .get("status")
            .and_then(Value::as_str)
            .ok_or_else(|| ClientError::Protocol("response without `status`".to_owned()))?
            .to_owned();
        let text = |key: &str| raw.get(key).and_then(Value::as_str).map(str::to_owned);
        Ok(CheckResponse {
            id: text("id"),
            proto: raw.get("proto").and_then(Value::as_u64),
            status,
            verdict: text("verdict"),
            reason: text("reason"),
            engine: text("engine"),
            winner: text("winner"),
            error: text("error"),
            code: text("code"),
            retry_after_ms: raw.get("retry_after_ms").and_then(Value::as_u64),
            elapsed_ms: raw
                .get("report")
                .and_then(|r| r.get("elapsed_ms"))
                .and_then(Value::as_f64),
            raw,
        })
    }

    /// Whether the server decided the property (`holds`/`violated`).
    pub fn is_conclusive(&self) -> bool {
        matches!(self.verdict.as_deref(), Some("holds" | "violated"))
    }

    /// Whether this is a transient error a client may safely retry:
    /// the load-shedding codes (`queue_full`,
    /// `over_quota`) and `worker_crashed`. Permanent rejections
    /// (`lint_rejected`, protocol errors) are not retryable — the
    /// same input will fail the same way.
    pub fn is_retryable(&self) -> bool {
        self.status == "error"
            && matches!(
                self.code.as_deref(),
                Some("queue_full" | "over_quota" | "worker_crashed")
            )
    }

    /// The `report.bdd` stats object, when the job's engine touched
    /// the symbolic stage; `None` when the block is null.
    pub fn bdd_stats(&self) -> Option<&Value> {
        self.raw
            .get("report")
            .and_then(|r| r.get("bdd"))
            .filter(|v| !v.is_null())
    }

    /// The `report.unfold` counter block (`pe_discovered`,
    /// `pe_commits`), when the job's engine built an unfolding prefix;
    /// `None` when the block is null.
    pub fn unfold_stats(&self) -> Option<&Value> {
        self.raw
            .get("report")
            .and_then(|r| r.get("unfold"))
            .filter(|v| !v.is_null())
    }

    /// The `report.structure` summary object (the detected
    /// net `class`, the individual class flags, `exact`,
    /// `concurrent_place_pairs`, `locked_signal_pairs`, `proved`),
    /// when the server ran the structural pass for the job; `None`
    /// when the block is null.
    pub fn structure_summary(&self) -> Option<&Value> {
        self.raw
            .get("report")
            .and_then(|r| r.get("structure"))
            .filter(|v| !v.is_null())
    }

    /// The `diagnostics` array of a `lint_rejected`
    /// admission error: one object per finding with `code`,
    /// `severity`, `line`/`col` span and `message`.
    pub fn diagnostics(&self) -> Option<&Value> {
        self.raw.get("diagnostics").filter(|v| !v.is_null())
    }
}

/// One decoded response to a `synthesize` request.
#[derive(Debug, Clone)]
pub struct SynthesizeResponse {
    /// The correlation id echoed by the server.
    pub id: Option<String>,
    /// Protocol revision of the response; `None` on the plain error
    /// responses, which carry none.
    pub proto: Option<u64>,
    /// `"ok"` or `"error"`.
    pub status: String,
    /// `"clean"` (already conflict-free) or `"resolved"` (state
    /// signals were inserted) when `status == "ok"`.
    pub outcome: Option<String>,
    /// Names of the inserted state signals (empty for `clean`).
    pub inserted: Vec<String>,
    /// The resolved net in `.g` format; `None` for `clean` outcomes
    /// and failures.
    pub resolved_g: Option<String>,
    /// The error message when `status == "error"`.
    pub error: Option<String>,
    /// Stable machine-readable error code when `status == "error"`
    /// (`resolve_failed`, `queue_full`, …).
    pub code: Option<String>,
    /// The backoff hint on load-shedding errors.
    pub retry_after_ms: Option<u64>,
    /// Worker-side wall-clock of the whole pipeline.
    pub elapsed_ms: Option<f64>,
    /// The complete response object (equations, stages, resolve
    /// counters, …).
    pub raw: Value,
}

impl SynthesizeResponse {
    fn from_value(raw: Value) -> Result<Self, ClientError> {
        let status = raw
            .get("status")
            .and_then(Value::as_str)
            .ok_or_else(|| ClientError::Protocol("response without `status`".to_owned()))?
            .to_owned();
        let text = |key: &str| raw.get(key).and_then(Value::as_str).map(str::to_owned);
        let inserted = match raw.get("inserted") {
            Some(Value::Arr(items)) => items
                .iter()
                .filter_map(Value::as_str)
                .map(str::to_owned)
                .collect(),
            _ => Vec::new(),
        };
        Ok(SynthesizeResponse {
            id: text("id"),
            proto: raw.get("proto").and_then(Value::as_u64),
            status,
            outcome: text("outcome"),
            inserted,
            resolved_g: text("resolved_g"),
            error: text("error"),
            code: text("code"),
            retry_after_ms: raw.get("retry_after_ms").and_then(Value::as_u64),
            elapsed_ms: raw.get("elapsed_ms").and_then(Value::as_f64),
            raw,
        })
    }

    /// Whether the pipeline ended conflict-free (`clean`/`resolved`).
    pub fn is_conflict_free(&self) -> bool {
        self.status == "ok"
    }

    /// Whether this is a transient error a client may safely retry.
    /// The same codes as `check` qualify (`queue_full`, `over_quota`,
    /// `worker_crashed`); `resolve_failed` does *not* — the resolver
    /// is deterministic, so resubmitting the same net fails the same
    /// way.
    pub fn is_retryable(&self) -> bool {
        self.status == "error"
            && matches!(
                self.code.as_deref(),
                Some("queue_full" | "over_quota" | "worker_crashed")
            )
    }

    /// The `equations` array: one object per non-input signal with
    /// `signal`, `equation` and `monotonic` members.
    pub fn equations(&self) -> Option<&Value> {
        self.raw.get("equations").filter(|v| !v.is_null())
    }

    /// The per-stage report blocks (`stage`, `elapsed_ms`, `detail`).
    pub fn stages(&self) -> Option<&Value> {
        self.raw.get("stages").filter(|v| !v.is_null())
    }

    /// The resolver's counters (`candidates_tried`, `warm_reuses`,
    /// `verify_prefix_events_built`, …); `None` when the input was
    /// already conflict-free.
    pub fn resolve_stats(&self) -> Option<&Value> {
        self.raw.get("resolve").filter(|v| !v.is_null())
    }
}

/// How [`Client::check_with_retry`] paces its attempts.
///
/// Delays follow truncated exponential backoff with jitter: attempt
/// `n` (counting retries from 0) waits around `base_delay_ms * 2^n`,
/// capped at `max_delay_ms`, with up to ±25% random jitter so a fleet
/// of shed clients does not retry in lockstep. When the server's
/// response carried a `retry_after_ms` hint, the hint (plus jitter)
/// replaces the exponential term for that attempt.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts, including the first (minimum 1).
    pub max_attempts: u32,
    /// Base delay of the exponential schedule.
    pub base_delay_ms: u64,
    /// Upper bound on any single delay.
    pub max_delay_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 6,
            base_delay_ms: 25,
            max_delay_ms: 2_000,
        }
    }
}

impl RetryPolicy {
    /// The delay before retry number `retry` (0-based), honouring the
    /// server's hint when present.
    fn delay_ms(&self, retry: u32, hint: Option<u64>, rng: &mut StdRng) -> u64 {
        let nominal = match hint {
            Some(ms) => ms.max(1),
            None => self
                .base_delay_ms
                .max(1)
                .saturating_mul(1u64 << retry.min(16)),
        }
        .min(self.max_delay_ms.max(1));
        // ±25% jitter, never below 1ms.
        let spread = (nominal / 2).max(1);
        (nominal.saturating_sub(nominal / 4) + rng.random_range(0..spread)).max(1)
    }
}

/// Counters describing how one retried operation actually went, for
/// harnesses (the chaos suite) that report resilience behaviour
/// alongside throughput.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Attempts performed (1 = first try succeeded).
    pub attempts: u32,
    /// Load-shedding responses received (`queue_full`/`over_quota`).
    pub sheds: u32,
    /// `worker_crashed` responses received.
    pub worker_crashes: u32,
    /// Times the connection was re-established after a transport
    /// failure or timeout.
    pub reconnects: u32,
}

/// How [`Client::retry_loop`] should treat one response.
struct RetryClass {
    retryable: bool,
    worker_crash: bool,
    retry_after_ms: Option<u64>,
}

/// A blocking connection to one `stgd` server.
pub struct Client {
    writer: BufWriter<TcpStream>,
    reader: BufReader<TcpStream>,
    /// The server's resolved address, kept for reconnects.
    addr: SocketAddr,
    read_timeout: Option<Duration>,
}

impl Client {
    /// Default socket read timeout: long enough for real
    /// verification workloads, short enough that a dead server is an
    /// error rather than a hang.
    pub const DEFAULT_READ_TIMEOUT_MS: u64 = 30_000;

    /// Connects to a running server with the default read timeout.
    ///
    /// # Errors
    ///
    /// Propagates connect/clone failures as [`ClientError::Io`].
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ClientError> {
        Self::connect_with_timeout(
            addr,
            Some(Duration::from_millis(Self::DEFAULT_READ_TIMEOUT_MS)),
        )
    }

    /// Connects with an explicit read timeout (`None` = block
    /// forever).
    ///
    /// # Errors
    ///
    /// Propagates connect/clone failures as [`ClientError::Io`].
    pub fn connect_with_timeout(
        addr: impl ToSocketAddrs,
        read_timeout: Option<Duration>,
    ) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr)?;
        let addr = stream.peer_addr()?;
        stream.set_read_timeout(read_timeout)?;
        let read_half = stream.try_clone()?;
        Ok(Client {
            writer: BufWriter::new(stream),
            reader: BufReader::new(read_half),
            addr,
            read_timeout,
        })
    }

    /// Replaces the socket read timeout (`None` = block forever).
    ///
    /// # Errors
    ///
    /// Propagates the socket-option failure as [`ClientError::Io`].
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> Result<(), ClientError> {
        self.reader.get_ref().set_read_timeout(timeout)?;
        self.read_timeout = timeout;
        Ok(())
    }

    /// Drops the current connection and establishes a fresh one to
    /// the same server. Any pipelined responses still in flight on
    /// the old connection are lost — callers resubmit (safe: `check`
    /// jobs are idempotent).
    ///
    /// # Errors
    ///
    /// Propagates connect failures as [`ClientError::Io`].
    pub fn reconnect(&mut self) -> Result<(), ClientError> {
        let fresh = Self::connect_with_timeout(self.addr, self.read_timeout)?;
        *self = fresh;
        Ok(())
    }

    /// Sends one raw request line and reads one response line —
    /// only valid while no pipelined responses are pending.
    ///
    /// # Errors
    ///
    /// Transport failures and unparsable response lines.
    pub fn round_trip(&mut self, line: &str) -> Result<Value, ClientError> {
        self.send_line(line)?;
        self.read_value()
    }

    /// Queues a `check` without waiting; pair with
    /// [`Self::read_response`], matching responses by id.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn submit(&mut self, request: &CheckRequest) -> Result<(), ClientError> {
        self.send_line(&encode_check_request(request))
    }

    /// Reads the next response line as a [`CheckResponse`]. With
    /// pipelined submissions these arrive in *completion* order.
    ///
    /// # Errors
    ///
    /// Transport failures, timeout, EOF, or an unparsable response.
    pub fn read_response(&mut self) -> Result<CheckResponse, ClientError> {
        CheckResponse::from_value(self.read_value()?)
    }

    /// Convenience single-job check: submit and wait for its verdict.
    ///
    /// # Errors
    ///
    /// Transport failures or an unparsable response.
    pub fn check(
        &mut self,
        id: &str,
        stg_g: &str,
        property: Property,
        engine: Option<Engine>,
        budget: BudgetSpec,
    ) -> Result<CheckResponse, ClientError> {
        self.submit(&CheckRequest {
            id: id.to_owned(),
            stg_g: stg_g.to_owned(),
            property,
            engine,
            budget,
        })?;
        self.read_response()
    }

    /// A single-job check that rides out transient failures: on a
    /// transport error or timeout the connection is re-established
    /// and the job resubmitted; on a retryable server error
    /// (`queue_full`, `over_quota`, `worker_crashed`) the client
    /// waits — the server's `retry_after_ms` hint when present,
    /// exponential backoff with jitter otherwise — and resubmits.
    /// Safe because `check` jobs are idempotent.
    ///
    /// Returns the first non-retryable response, or — when every
    /// attempt was shed — the last shed response (`status: "error"`
    /// with its code), so callers always see the server's verdict on
    /// the final attempt.
    ///
    /// # Errors
    ///
    /// The last transport error once attempts are exhausted without
    /// any server response.
    pub fn check_with_retry(
        &mut self,
        id: &str,
        stg_g: &str,
        property: Property,
        engine: Option<Engine>,
        budget: BudgetSpec,
        policy: &RetryPolicy,
    ) -> Result<CheckResponse, ClientError> {
        self.check_with_retry_stats(id, stg_g, property, engine, budget, policy)
            .map(|(response, _)| response)
    }

    /// [`Self::check_with_retry`] with the resilience counters of the
    /// run ([`RetryStats`]) alongside the response.
    ///
    /// # Errors
    ///
    /// The last transport error once attempts are exhausted without
    /// any server response.
    pub fn check_with_retry_stats(
        &mut self,
        id: &str,
        stg_g: &str,
        property: Property,
        engine: Option<Engine>,
        budget: BudgetSpec,
        policy: &RetryPolicy,
    ) -> Result<(CheckResponse, RetryStats), ClientError> {
        self.retry_loop(
            policy,
            |client| client.check(id, stg_g, property, engine, budget),
            |r| RetryClass {
                retryable: r.is_retryable(),
                worker_crash: r.code.as_deref() == Some("worker_crashed"),
                retry_after_ms: r.retry_after_ms,
            },
        )
    }

    /// Queues a `synthesize` without waiting; pair with
    /// [`Self::read_synthesize_response`], matching responses by id.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn submit_synthesize(&mut self, request: &SynthesizeRequest) -> Result<(), ClientError> {
        self.send_line(&encode_synthesize_request(request))
    }

    /// Reads the next response line as a [`SynthesizeResponse`].
    ///
    /// # Errors
    ///
    /// Transport failures, timeout, EOF, or an unparsable response.
    pub fn read_synthesize_response(&mut self) -> Result<SynthesizeResponse, ClientError> {
        SynthesizeResponse::from_value(self.read_value()?)
    }

    /// Convenience single-job synthesis: submit and wait for the
    /// resolved net and equations (or the `resolve_failed` error).
    ///
    /// # Errors
    ///
    /// Transport failures or an unparsable response.
    pub fn synthesize(
        &mut self,
        id: &str,
        stg_g: &str,
        max_signals: Option<usize>,
        engine: Option<Engine>,
        budget: BudgetSpec,
    ) -> Result<SynthesizeResponse, ClientError> {
        self.submit_synthesize(&SynthesizeRequest {
            id: id.to_owned(),
            stg_g: stg_g.to_owned(),
            max_signals,
            engine,
            budget,
        })?;
        self.read_synthesize_response()
    }

    /// [`Self::synthesize`] riding out transient failures exactly like
    /// [`Self::check_with_retry`]. Resubmission is safe because the
    /// pipeline is deterministic; `resolve_failed` is a *permanent*
    /// outcome and is returned immediately, never retried.
    ///
    /// # Errors
    ///
    /// The last transport error once attempts are exhausted without
    /// any server response.
    pub fn synthesize_with_retry(
        &mut self,
        id: &str,
        stg_g: &str,
        max_signals: Option<usize>,
        engine: Option<Engine>,
        budget: BudgetSpec,
        policy: &RetryPolicy,
    ) -> Result<SynthesizeResponse, ClientError> {
        self.retry_loop(
            policy,
            |client| client.synthesize(id, stg_g, max_signals, engine, budget),
            |r| RetryClass {
                retryable: r.is_retryable(),
                worker_crash: r.code.as_deref() == Some("worker_crashed"),
                retry_after_ms: r.retry_after_ms,
            },
        )
        .map(|(response, _)| response)
    }

    /// The shared retry engine behind [`Self::check_with_retry_stats`]
    /// and [`Self::synthesize_with_retry`]: transport failures
    /// reconnect and resubmit; responses `classify` marks retryable
    /// wait out the server's hint (or exponential backoff with
    /// jitter) and resubmit; the first non-retryable response wins.
    /// When every attempt was shed, the last shed response is
    /// returned so callers always see the server's final word.
    fn retry_loop<T>(
        &mut self,
        policy: &RetryPolicy,
        mut attempt: impl FnMut(&mut Self) -> Result<T, ClientError>,
        classify: impl Fn(&T) -> RetryClass,
    ) -> Result<(T, RetryStats), ClientError> {
        let seed = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos() as u64 ^ d.as_secs());
        let mut rng = StdRng::seed_from_u64(seed ^ self.addr.port() as u64);
        let mut stats = RetryStats::default();
        let mut broken = false;
        let mut last_shed: Option<(T, Option<u64>)> = None;
        let mut last_error: Option<ClientError> = None;
        let attempts = policy.max_attempts.max(1);
        for attempt_no in 0..attempts {
            if attempt_no > 0 {
                let hint = last_shed.as_ref().and_then(|(_, hint)| *hint);
                let delay = policy.delay_ms(attempt_no - 1, hint, &mut rng);
                std::thread::sleep(Duration::from_millis(delay));
            }
            if broken {
                match self.reconnect() {
                    Ok(()) => {
                        stats.reconnects += 1;
                        broken = false;
                    }
                    Err(e) => {
                        last_error = Some(e);
                        continue;
                    }
                }
            }
            stats.attempts += 1;
            match attempt(self) {
                Ok(response) => {
                    let class = classify(&response);
                    if !class.retryable {
                        return Ok((response, stats));
                    }
                    if class.worker_crash {
                        stats.worker_crashes += 1;
                    } else {
                        stats.sheds += 1;
                    }
                    last_shed = Some((response, class.retry_after_ms));
                    last_error = None;
                }
                Err(e) => {
                    // The stream may hold a half-read response; never
                    // reuse it.
                    broken = true;
                    last_error = Some(e);
                    last_shed = None;
                }
            }
        }
        match (last_error, last_shed) {
            (None, Some((shed, _))) => Ok((shed, stats)),
            (Some(e), _) => Err(e),
            (None, None) => Err(ClientError::Protocol(
                "retry loop made no attempts".to_owned(),
            )),
        }
    }

    /// Fetches the service counters.
    ///
    /// # Errors
    ///
    /// Transport failures or an unparsable response.
    pub fn stats(&mut self) -> Result<Value, ClientError> {
        self.round_trip(r#"{"op":"stats"}"#)
    }

    /// Requests graceful shutdown and returns the acknowledgement.
    ///
    /// # Errors
    ///
    /// Transport failures or an unparsable response.
    pub fn shutdown(&mut self) -> Result<Value, ClientError> {
        self.round_trip(r#"{"op":"shutdown"}"#)
    }

    fn send_line(&mut self, line: &str) -> Result<(), ClientError> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        Ok(())
    }

    fn read_value(&mut self) -> Result<Value, ClientError> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(ClientError::Protocol(
                "connection closed while awaiting a response".to_owned(),
            ));
        }
        json::parse(line.trim())
            .map_err(|e| ClientError::Protocol(format!("unparsable response line: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shed_responses_decode_as_retryable() {
        let raw = json::parse(
            r#"{"id":"d","proto":11,"status":"error","code":"queue_full",
                "error":"job queue is full","retry_after_ms":120}"#,
        )
        .unwrap();
        let response = CheckResponse::from_value(raw).unwrap();
        assert!(response.is_retryable());
        assert_eq!(response.retry_after_ms, Some(120));
        // A lint rejection is permanent, never retryable.
        let raw = json::parse(
            r#"{"id":"e","status":"error","code":"lint_rejected",
                "error":"input rejected","diagnostics":[]}"#,
        )
        .unwrap();
        let response = CheckResponse::from_value(raw).unwrap();
        assert!(!response.is_retryable());
        // Plain error responses carry no revision.
        assert_eq!(response.proto, None);
        // worker_crashed is retryable even without a hint.
        let raw = json::parse(
            r#"{"id":"f","status":"error","code":"worker_crashed",
                "error":"the worker deciding this job crashed"}"#,
        )
        .unwrap();
        let response = CheckResponse::from_value(raw).unwrap();
        assert!(response.is_retryable());
        assert_eq!(response.retry_after_ms, None);
    }

    #[test]
    fn responses_surface_the_report_blocks() {
        let raw = json::parse(
            r#"{"id":"g","proto":11,"status":"ok","verdict":"holds",
                "report":{"elapsed_ms":1.0,"unfold":null,
                          "bdd":{"live_nodes":10,"peak_live_nodes":20,
                                 "gc_runs":1,"reorder_passes":0,
                                 "order":[0,1]},
                          "structure":{"class":"marked-graph",
                                       "marked_graph":true,
                                       "state_machine":false,
                                       "free_choice":true,
                                       "extended_free_choice":true,
                                       "reduced_asymmetric_choice":true,
                                       "exact":true,
                                       "concurrent_place_pairs":3,
                                       "locked_signal_pairs":2,
                                       "signal_pairs":6,
                                       "proved":false}}}"#,
        )
        .unwrap();
        let response = CheckResponse::from_value(raw).unwrap();
        assert_eq!(response.proto, Some(11));
        let structure = response.structure_summary().expect("structure summary");
        assert_eq!(
            structure.get("class").and_then(Value::as_str),
            Some("marked-graph")
        );
        assert_eq!(structure.get("exact").and_then(Value::as_bool), Some(true));
        assert_eq!(
            structure
                .get("concurrent_place_pairs")
                .and_then(Value::as_u64),
            Some(3)
        );
        let bdd = response.bdd_stats().expect("bdd stats");
        assert_eq!(bdd.get("peak_live_nodes").and_then(Value::as_u64), Some(20));
        // A null block reads as absent.
        assert!(response.unfold_stats().is_none());
    }

    #[test]
    fn retry_delays_honour_hints_and_stay_bounded() {
        let policy = RetryPolicy::default();
        let mut rng = StdRng::seed_from_u64(7);
        for retry in 0..10 {
            let free = policy.delay_ms(retry, None, &mut rng);
            assert!(free >= 1);
            assert!(
                free <= policy.max_delay_ms + policy.max_delay_ms / 2,
                "{free}"
            );
            let hinted = policy.delay_ms(retry, Some(100), &mut rng);
            // Hint of 100ms with ±25% jitter band.
            assert!((75..=150).contains(&hinted), "{hinted}");
        }
        // The exponential term grows between early retries.
        let mut rng = StdRng::seed_from_u64(7);
        let d0 = policy.delay_ms(0, None, &mut rng);
        let d4 = policy.delay_ms(4, None, &mut rng);
        assert!(d4 > d0, "{d0} -> {d4}");
    }

    #[test]
    fn timeouts_map_to_the_typed_variant() {
        let timeout = io::Error::new(io::ErrorKind::TimedOut, "slow");
        assert!(matches!(ClientError::from(timeout), ClientError::Timeout));
        let wouldblock = io::Error::new(io::ErrorKind::WouldBlock, "slow");
        assert!(matches!(
            ClientError::from(wouldblock),
            ClientError::Timeout
        ));
        let refused = io::Error::new(io::ErrorKind::ConnectionRefused, "no");
        assert!(matches!(ClientError::from(refused), ClientError::Io(_)));
    }
}
