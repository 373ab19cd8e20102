//! The `stgd` service: a TCP listener, a supervised worker pool, and
//! the shared fair job queue between them.
//!
//! Every accepted connection gets a reader thread (decoding request
//! lines) and a writer thread (serialising response lines); `check`
//! jobs flow through one process-wide queue onto the worker pool, so
//! a single slow connection cannot starve the others. The queue is
//! *fair*: each connection has its own sub-queue and workers dequeue
//! round-robin across connections, so one client pipelining a huge
//! batch cannot monopolise the pool. Admission is bounded twice —
//! globally by [`ServerConfig::max_queue`] (the `queue_full` error
//! code) and per client by [`ServerConfig::client_quota`] (the
//! `over_quota` code); both load-shedding responses carry a
//! `retry_after_ms` hint sized from the pool's observed latency.
//!
//! Workers decide each job with [`csc_core::CheckRequest`] over an
//! [`ArtifactCache`] keyed by canonical STG hash, so repeated nets
//! skip prefix construction entirely — by default with the
//! `Engine::Race` schedule — under the job's own [`csc_core::Budget`] plus
//! a per-job [`CancelToken`] the shutdown path flips. A worker that
//! *panics* (engine panics are already contained by `catch_unwind`
//! inside `csc_core`; this guards everything else, including injected
//! faults) is supervised: the in-flight job is failed with the stable
//! `worker_crashed` error code, a replacement worker is spawned, and
//! the restart is counted in `stats`. A watchdog thread additionally
//! cancels jobs that exceed [`ServerConfig::hung_job_ms`].
//!
//! Slow clients cannot wedge the pool either: response lines flow
//! through a *bounded* per-connection buffer and the socket has a
//! write timeout, so a stalled reader eventually poisons its own
//! connection (counted in `stats`) instead of blocking a worker.
//!
//! Graceful shutdown drains: queued and in-flight jobs still produce
//! responses (cancelled ones answer `unknown`/`cancelled`), then
//! threads are joined and the listener closes.

use std::collections::{HashMap, VecDeque};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use csc_core::{CancelToken, Engine, RACERS};
use stg::Stg;

use crate::cache::ArtifactCache;
use crate::failpoints;
use crate::json::Value;
use crate::protocol::{
    decode_request, encode_check_response, encode_error_response, encode_error_response_with_code,
    encode_lint_rejected, encode_overload_response, encode_synthesize_response, CheckRequest,
    Request, SynthesizeRequest,
};

/// Tuning knobs of one [`spawn`]ed service.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address; use port 0 for an ephemeral port (the bound
    /// address is reported by [`ServerHandle::addr`]).
    pub addr: String,
    /// Worker threads deciding jobs concurrently.
    pub workers: usize,
    /// Engine used when a request does not name one.
    pub default_engine: Engine,
    /// Wall-clock allowance applied to jobs that do not set their
    /// own `timeout_ms`; `None` leaves such jobs unlimited.
    pub default_timeout_ms: Option<u64>,
    /// Maximum queued (not yet executing) jobs; further `check`
    /// requests are rejected with the `queue_full` error code.
    /// `None` leaves the queue unbounded (the `stgd` binary maps
    /// `--max-queue 0` to `None`; the library default is bounded at
    /// 1024 so an unattended server cannot grow without limit).
    pub max_queue: Option<usize>,
    /// Maximum queued jobs *per client connection*; a client already
    /// at its quota has further `check` requests rejected with the
    /// `over_quota` error code. `None` disables the quota.
    pub client_quota: Option<usize>,
    /// Artifact-cache capacity in resident STGs (keyed by canonical
    /// content hash); `0` disables caching.
    pub cache_entries: usize,
    /// Socket write timeout per response line; combined with the
    /// bounded response buffer this bounds how long a stalled reader
    /// can hold server resources. `None` disables the timeout.
    pub write_timeout_ms: Option<u64>,
    /// Capacity of each connection's response buffer (lines). A
    /// client that stops reading fills it; once senders have waited
    /// out the write timeout the connection is poisoned and dropped
    /// rather than wedging a worker.
    pub response_buffer: usize,
    /// Watchdog bound on a single job's in-flight wall-clock; a job
    /// executing longer has its cancel token flipped (the engines
    /// poll it and return `unknown`/`cancelled`). `None` disables
    /// the watchdog. This is a backstop for jobs submitted without a
    /// budget — budgeted jobs are bounded by their own deadline.
    pub hung_job_ms: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 4,
            default_engine: Engine::Race,
            default_timeout_ms: None,
            max_queue: Some(1024),
            client_quota: None,
            cache_entries: 64,
            write_timeout_ms: Some(10_000),
            response_buffer: 1024,
            hung_job_ms: None,
        }
    }
}

impl ServerConfig {
    fn write_timeout(&self) -> Option<Duration> {
        self.write_timeout_ms
            .filter(|&ms| ms > 0)
            .map(Duration::from_millis)
    }
}

/// Aggregated service counters, snapshot by the `stats` op.
#[derive(Debug, Clone, Default)]
struct Stats {
    jobs_received: u64,
    jobs_completed: u64,
    jobs_errored: u64,
    jobs_rejected: u64,
    in_flight: u64,
    max_queue_depth: u64,
    holds: u64,
    violated: u64,
    unknown: u64,
    /// `synthesize` jobs admitted to the queue.
    synthesize_received: u64,
    /// `synthesize` jobs that ended conflict-free (clean or resolved).
    synthesize_resolved: u64,
    /// `synthesize` jobs that surrendered, exhausted their budget, or
    /// hit a pipeline error (the `resolve_failed` response code).
    synthesize_failed: u64,
    /// Race outcomes keyed like [`RACERS`].
    race_wins: [u64; RACERS.len()],
    /// Races some *other* engine won while this one was retired.
    race_cancelled: [u64; RACERS.len()],
    race_inconclusive: u64,
    latency_total_ms: f64,
    latency_max_ms: f64,
    /// `check` requests shed by the global `max_queue` bound.
    shed_queue_full: u64,
    /// `check` requests shed by the per-client quota.
    shed_over_quota: u64,
    /// Worker threads that died to a panic (each also restarts).
    worker_panics: u64,
    /// Replacement workers spawned by the supervisor.
    worker_restarts: u64,
    /// In-flight jobs cancelled by the hung-job watchdog.
    hung_jobs_cancelled: u64,
    /// Connections poisoned because their reader stalled past the
    /// write timeout with a full response buffer.
    slow_client_disconnects: u64,
    /// Response lines that could not be delivered (poisoned or
    /// closed connection). The job still *produced* its terminal
    /// response; only delivery failed.
    responses_dropped: u64,
    /// Socket-option failures (`set_read_timeout` /
    /// `set_write_timeout`) surfaced instead of silently ignored.
    socket_config_errors: u64,
}

/// Locks a mutex, recovering the guard if a previous holder panicked.
///
/// Every critical section in this module only moves queue entries or
/// bumps counters — none runs engine code — so state is consistent
/// even when a panic (e.g. an injected failpoint) poisons the lock,
/// and recovery is sound. Without this, one worker panic would make
/// every other thread treat the shared state as lost.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Why admission shed a job instead of queueing it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shed {
    /// The global queue bound was reached.
    QueueFull(usize),
    /// The submitting client reached its per-client quota.
    OverQuota(usize),
}

/// The wire request a queued job executes. Both kinds flow through
/// the same admission path, fair queue, worker pool, watchdog and
/// supervisor — `synthesize` is not a side door around any of the
/// overload or fault-tolerance machinery.
enum JobRequest {
    /// Decide one property (`check`).
    Check(CheckRequest),
    /// Run the full synthesis pipeline (`synthesize`).
    Synthesize(SynthesizeRequest),
}

impl JobRequest {
    fn id(&self) -> &str {
        match self {
            JobRequest::Check(r) => &r.id,
            JobRequest::Synthesize(r) => &r.id,
        }
    }

    fn stg_g(&self) -> &str {
        match self {
            JobRequest::Check(r) => &r.stg_g,
            JobRequest::Synthesize(r) => &r.stg_g,
        }
    }
}

/// One queued job. The STG was already parsed (and structurally
/// linted) at admission, so workers never re-parse.
struct Job {
    request: JobRequest,
    stg: Stg,
    cancel: CancelToken,
    enqueued: Instant,
    client: u64,
    reply: ReplySender,
}

/// The process-wide job queue: one FIFO sub-queue per client
/// connection, dequeued round-robin so every client with pending work
/// gets an equal share of worker dequeues regardless of how deeply
/// any single client pipelines.
#[derive(Default)]
struct FairQueue {
    /// Pending jobs per client id.
    per_client: HashMap<u64, VecDeque<Job>>,
    /// Round-robin rotation over clients with pending jobs.
    rotation: VecDeque<u64>,
    /// Total queued jobs across all clients.
    len: usize,
}

impl FairQueue {
    fn len(&self) -> usize {
        self.len
    }

    fn client_depth(&self, client: u64) -> usize {
        self.per_client.get(&client).map_or(0, VecDeque::len)
    }

    /// Admits `job` unless a bound is hit; on success returns the new
    /// total depth, on shed returns the job back for the rejection
    /// response.
    fn try_push(
        &mut self,
        job: Job,
        max_total: Option<usize>,
        quota: Option<usize>,
    ) -> Result<usize, Box<(Job, Shed)>> {
        if let Some(max) = max_total {
            if self.len >= max {
                return Err(Box::new((job, Shed::QueueFull(max))));
            }
        }
        if let Some(quota) = quota {
            if self.client_depth(job.client) >= quota {
                return Err(Box::new((job, Shed::OverQuota(quota))));
            }
        }
        let client = job.client;
        let slot = self.per_client.entry(client).or_default();
        if slot.is_empty() {
            self.rotation.push_back(client);
        }
        slot.push_back(job);
        self.len += 1;
        Ok(self.len)
    }

    /// Dequeues the next job fairly: the client at the head of the
    /// rotation yields one job and rotates to the back.
    fn pop(&mut self) -> Option<Job> {
        let client = self.rotation.pop_front()?;
        let slot = self.per_client.get_mut(&client)?;
        let job = slot.pop_front()?;
        if slot.is_empty() {
            self.per_client.remove(&client);
        } else {
            self.rotation.push_back(client);
        }
        self.len -= 1;
        Some(job)
    }
}

/// Per-connection state shared by the reader, writer and every job
/// reply path of one connection.
struct ConnShared {
    /// A clone of the connection's stream, used only to force a
    /// close when the connection is poisoned.
    stream: TcpStream,
    /// Set when the connection is declared dead (stalled reader or
    /// write failure); all further sends fail fast.
    poisoned: AtomicBool,
}

impl ConnShared {
    /// Marks the connection dead and shuts the socket so the reader
    /// and writer threads unblock promptly. Returns whether this call
    /// performed the transition (for one-shot accounting).
    fn poison(&self) -> bool {
        let first = !self.poisoned.swap(true, Ordering::SeqCst);
        if first {
            let _ = self.stream.shutdown(Shutdown::Both);
        }
        first
    }

    fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::SeqCst)
    }
}

/// How a reply delivery attempt ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SendOutcome {
    /// Queued into the connection's response buffer.
    Sent,
    /// Undeliverable: the connection was already dead.
    Dropped,
    /// Undeliverable, and *this* send made the call: the buffer
    /// stayed full past the sender's patience, so the connection was
    /// poisoned now (count a slow-client disconnect).
    PoisonedNow,
}

/// A bounded, poison-aware handle for queueing response lines onto a
/// connection's writer thread. Cloned into every job, so workers and
/// the reader thread share one buffer and one failure policy.
#[derive(Clone)]
struct ReplySender {
    tx: SyncSender<String>,
    conn: Arc<ConnShared>,
    /// How long a sender tolerates a full buffer before declaring
    /// the client stalled; mirrors the socket write timeout.
    patience: Duration,
}

impl ReplySender {
    /// Tries to queue `line`, waiting out `patience` on a full buffer
    /// and poisoning the connection if the client never drains it.
    /// This bounds how long one stalled reader can block a worker.
    fn send(&self, line: String) -> SendOutcome {
        let mut line = line;
        let deadline = Instant::now() + self.patience;
        loop {
            if self.conn.is_poisoned() {
                return SendOutcome::Dropped;
            }
            match self.tx.try_send(line) {
                Ok(()) => return SendOutcome::Sent,
                Err(TrySendError::Disconnected(_)) => return SendOutcome::Dropped,
                Err(TrySendError::Full(l)) => {
                    if Instant::now() >= deadline {
                        return if self.conn.poison() {
                            SendOutcome::PoisonedNow
                        } else {
                            SendOutcome::Dropped
                        };
                    }
                    line = l;
                    thread::sleep(Duration::from_millis(2));
                }
            }
        }
    }
}

/// The job a worker is currently executing, registered so the
/// supervisor can fail it on a worker panic and the watchdog can
/// cancel it when it runs too long.
struct InFlight {
    job_id: String,
    reply: ReplySender,
    cancel: CancelToken,
    started: Instant,
    /// Whether the watchdog already cancelled this job (one-shot).
    hung_flagged: bool,
}

struct Shared {
    config: ServerConfig,
    shutdown: AtomicBool,
    queue: Mutex<FairQueue>,
    available: Condvar,
    stats: Mutex<Stats>,
    /// Cancellation tokens of all live (queued or executing) jobs,
    /// flipped together on shutdown so the drain is prompt.
    live_tokens: Mutex<Vec<CancelToken>>,
    /// Verification artifacts keyed by canonical STG hash, shared
    /// across jobs, workers and engines.
    cache: ArtifactCache,
    /// Currently-executing job per worker id, for supervision.
    in_flight_jobs: Mutex<HashMap<usize, InFlight>>,
    /// Every worker thread ever spawned (including supervisor
    /// replacements); drained and joined at shutdown.
    worker_handles: Mutex<Vec<JoinHandle<()>>>,
    next_worker_id: AtomicUsize,
    next_client_id: AtomicU64,
}

impl Shared {
    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }

    fn trigger_shutdown(&self) {
        // The flag flips under the queue lock so it is sequenced
        // against admission: a reader that saw it unset inside its
        // own critical section has already pushed its job, and the
        // workers (which exit only on flag-set *and* queue-empty,
        // re-checked under the same lock) are guaranteed to drain
        // that job. Without the lock a job could slip into the queue
        // after the last worker exited and hang its client forever.
        {
            let _queue = lock(&self.queue);
            self.shutdown.store(true, Ordering::Relaxed);
        }
        for token in lock(&self.live_tokens).iter() {
            token.cancel();
        }
        self.available.notify_all();
    }

    /// Sizes the `retry_after_ms` hint on a load-shed response: the
    /// expected time for the pool to make room, from the observed
    /// mean job latency and the current backlog, clamped to a sane
    /// band so a cold server still suggests *something*.
    fn retry_after_hint_ms(&self, queue_depth: usize) -> u64 {
        let (mean_ms, completed) = {
            let stats = lock(&self.stats);
            let mean = if stats.jobs_completed > 0 {
                stats.latency_total_ms / stats.jobs_completed as f64
            } else {
                0.0
            };
            (mean, stats.jobs_completed)
        };
        let mean_ms = if completed > 0 {
            mean_ms.max(1.0)
        } else {
            10.0
        };
        let workers = self.config.workers.max(1) as f64;
        let estimate = mean_ms * (queue_depth as f64 + 1.0) / workers;
        (estimate.ceil() as u64).clamp(10, 5_000)
    }

    /// Count of worker threads that are still running.
    fn live_workers(&self) -> usize {
        lock(&self.worker_handles)
            .iter()
            .filter(|h| !h.is_finished())
            .count()
    }

    fn stats_response(&self) -> String {
        let queue_depth = lock(&self.queue).len();
        let live_workers = self.live_workers();
        let stats = lock(&self.stats).clone();
        let mean = if stats.jobs_completed > 0 {
            stats.latency_total_ms / stats.jobs_completed as f64
        } else {
            0.0
        };
        let per_racer = |values: [u64; RACERS.len()]| {
            Value::Obj(
                RACERS
                    .iter()
                    .zip(values)
                    .map(|(engine, v)| (engine.name().to_owned(), Value::from(v)))
                    .collect(),
            )
        };
        let opt_bound = |bound: Option<usize>| match bound {
            None => Value::Null,
            Some(n) => Value::from(n),
        };
        Value::Obj(vec![
            ("status".to_owned(), Value::from("ok")),
            (
                "stats".to_owned(),
                Value::Obj(vec![
                    ("workers".to_owned(), Value::from(self.config.workers)),
                    (
                        "default_engine".to_owned(),
                        Value::from(self.config.default_engine.name()),
                    ),
                    ("queue_depth".to_owned(), Value::from(queue_depth)),
                    (
                        "max_queue_depth".to_owned(),
                        Value::from(stats.max_queue_depth),
                    ),
                    ("in_flight".to_owned(), Value::from(stats.in_flight)),
                    ("jobs_received".to_owned(), Value::from(stats.jobs_received)),
                    (
                        "jobs_completed".to_owned(),
                        Value::from(stats.jobs_completed),
                    ),
                    ("jobs_errored".to_owned(), Value::from(stats.jobs_errored)),
                    ("jobs_rejected".to_owned(), Value::from(stats.jobs_rejected)),
                    (
                        "verdicts".to_owned(),
                        Value::Obj(vec![
                            ("holds".to_owned(), Value::from(stats.holds)),
                            ("violated".to_owned(), Value::from(stats.violated)),
                            ("unknown".to_owned(), Value::from(stats.unknown)),
                        ]),
                    ),
                    (
                        "synthesize".to_owned(),
                        Value::Obj(vec![
                            (
                                "received".to_owned(),
                                Value::from(stats.synthesize_received),
                            ),
                            (
                                "resolved".to_owned(),
                                Value::from(stats.synthesize_resolved),
                            ),
                            ("failed".to_owned(), Value::from(stats.synthesize_failed)),
                        ]),
                    ),
                    (
                        "race".to_owned(),
                        Value::Obj(vec![
                            ("wins".to_owned(), per_racer(stats.race_wins)),
                            ("cancelled".to_owned(), per_racer(stats.race_cancelled)),
                            (
                                "inconclusive".to_owned(),
                                Value::from(stats.race_inconclusive),
                            ),
                        ]),
                    ),
                    (
                        "latency_ms".to_owned(),
                        Value::Obj(vec![
                            ("mean".to_owned(), Value::from(mean)),
                            ("max".to_owned(), Value::from(stats.latency_max_ms)),
                            ("total".to_owned(), Value::from(stats.latency_total_ms)),
                        ]),
                    ),
                    (
                        "overload".to_owned(),
                        Value::Obj(vec![
                            ("max_queue".to_owned(), opt_bound(self.config.max_queue)),
                            (
                                "client_quota".to_owned(),
                                opt_bound(self.config.client_quota),
                            ),
                            ("queue_full".to_owned(), Value::from(stats.shed_queue_full)),
                            ("over_quota".to_owned(), Value::from(stats.shed_over_quota)),
                            (
                                "slow_client_disconnects".to_owned(),
                                Value::from(stats.slow_client_disconnects),
                            ),
                            (
                                "responses_dropped".to_owned(),
                                Value::from(stats.responses_dropped),
                            ),
                        ]),
                    ),
                    (
                        "supervisor".to_owned(),
                        Value::Obj(vec![
                            ("live_workers".to_owned(), Value::from(live_workers)),
                            ("worker_panics".to_owned(), Value::from(stats.worker_panics)),
                            (
                                "worker_restarts".to_owned(),
                                Value::from(stats.worker_restarts),
                            ),
                            (
                                "hung_jobs_cancelled".to_owned(),
                                Value::from(stats.hung_jobs_cancelled),
                            ),
                        ]),
                    ),
                    (
                        "socket_config_errors".to_owned(),
                        Value::from(stats.socket_config_errors),
                    ),
                    ("cache".to_owned(), {
                        let cache = self.cache.stats();
                        Value::Obj(vec![
                            ("hits".to_owned(), Value::from(cache.hits)),
                            ("misses".to_owned(), Value::from(cache.misses)),
                            ("evictions".to_owned(), Value::from(cache.evictions)),
                            ("entries".to_owned(), Value::from(cache.entries)),
                            ("capacity".to_owned(), Value::from(cache.capacity)),
                        ])
                    }),
                ]),
            ),
        ])
        .render()
    }
}

/// A running service. Dropping the handle does *not* stop the server;
/// call [`ServerHandle::shutdown`].
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
    supervisor_thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound listen address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests graceful shutdown without waiting: stop accepting,
    /// cancel live jobs, let workers drain.
    pub fn trigger_shutdown(&self) {
        self.shared.trigger_shutdown();
    }

    /// Whether shutdown has been requested (by this handle, a client
    /// `shutdown` op, or a signal).
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutting_down()
    }

    /// Triggers shutdown and joins every service thread, returning
    /// once all in-flight jobs have produced responses.
    pub fn shutdown(mut self) {
        self.shared.trigger_shutdown();
        self.join_threads();
    }

    /// Blocks until the server shuts down by another path (client
    /// `shutdown` op or signal-triggered [`Self::trigger_shutdown`]).
    pub fn join(mut self) {
        self.join_threads();
    }

    fn join_threads(&mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        // Workers may be *replaced* while we drain (a panicking
        // worker's guard spawns its successor before the thread
        // dies), so keep draining the handle list until it stays
        // empty. A replacement is always pushed before its
        // predecessor terminates, so joining the predecessor
        // guarantees the successor is visible on the next pass.
        loop {
            let handles: Vec<JoinHandle<()>> =
                lock(&self.shared.worker_handles).drain(..).collect();
            if handles.is_empty() {
                break;
            }
            for h in handles {
                let _ = h.join();
            }
        }
        if let Some(t) = self.supervisor_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        // A dropped handle of an already-stopping server still joins,
        // so tests cannot leak threads; an active server is left
        // running (detached) as documented.
        if self.shared.shutting_down() {
            self.join_threads();
        }
    }
}

/// Binds the listener and starts the accept loop plus the supervised
/// worker pool.
///
/// # Errors
///
/// Propagates the `bind` failure; everything after binding runs on
/// background threads.
pub fn spawn(config: ServerConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let shared = Arc::new(Shared {
        shutdown: AtomicBool::new(false),
        queue: Mutex::new(FairQueue::default()),
        available: Condvar::new(),
        stats: Mutex::new(Stats::default()),
        live_tokens: Mutex::new(Vec::new()),
        cache: ArtifactCache::new(config.cache_entries),
        in_flight_jobs: Mutex::new(HashMap::new()),
        worker_handles: Mutex::new(Vec::new()),
        next_worker_id: AtomicUsize::new(0),
        next_client_id: AtomicU64::new(0),
        config: config.clone(),
    });
    for _ in 0..config.workers.max(1) {
        spawn_worker(&shared);
    }
    let supervisor_shared = Arc::clone(&shared);
    let supervisor_thread = thread::Builder::new()
        .name("stgd-supervisor".to_owned())
        .spawn(move || supervisor_loop(&supervisor_shared))
        .ok();
    let accept_shared = Arc::clone(&shared);
    let accept_thread = thread::spawn(move || accept_loop(&listener, &accept_shared));
    Ok(ServerHandle {
        addr,
        shared,
        accept_thread: Some(accept_thread),
        supervisor_thread,
    })
}

/// Spawns one worker thread and registers its handle for joining.
/// Used both at startup and by the supervisor to replace a panicked
/// worker.
fn spawn_worker(shared: &Arc<Shared>) {
    let worker_id = shared.next_worker_id.fetch_add(1, Ordering::Relaxed);
    let worker_shared = Arc::clone(shared);
    let spawned = thread::Builder::new()
        .name(format!("stgd-worker-{worker_id}"))
        .spawn(move || {
            // The guard runs on *any* exit; it acts only when the
            // thread is panicking (see `WorkerGuard::drop`).
            let _guard = WorkerGuard {
                shared: Arc::clone(&worker_shared),
                worker_id,
            };
            worker_loop(&worker_shared, worker_id);
        });
    match spawned {
        Ok(handle) => lock(&shared.worker_handles).push(handle),
        Err(e) => eprintln!("stgd: failed to spawn worker thread: {e}"),
    }
}

/// Detects a panicking worker from its drop during unwind: fails the
/// in-flight job with the stable `worker_crashed` code, counts the
/// panic, and spawns a replacement so the pool never shrinks.
struct WorkerGuard {
    shared: Arc<Shared>,
    worker_id: usize,
}

impl Drop for WorkerGuard {
    fn drop(&mut self) {
        if !thread::panicking() {
            return;
        }
        let crashed = lock(&self.shared.in_flight_jobs).remove(&self.worker_id);
        {
            let mut stats = lock(&self.shared.stats);
            stats.worker_panics += 1;
            if crashed.is_some() {
                stats.in_flight = stats.in_flight.saturating_sub(1);
                stats.jobs_errored += 1;
            }
        }
        if let Some(in_flight) = crashed {
            lock(&self.shared.live_tokens).retain(|t| !t.same_token(&in_flight.cancel));
            let line = encode_error_response_with_code(
                Some(&in_flight.job_id),
                "worker_crashed",
                "the worker deciding this job crashed; the job is safe to resubmit",
            );
            if in_flight.reply.send(line) != SendOutcome::Sent {
                lock(&self.shared.stats).responses_dropped += 1;
            }
        }
        // Replace the dead worker so capacity recovers — including
        // during a draining shutdown while jobs are still queued
        // (otherwise a panic storm at shutdown could strand queued
        // jobs without any worker to answer them).
        let respawn = !self.shared.shutting_down() || lock(&self.shared.queue).len() > 0;
        if respawn {
            lock(&self.shared.stats).worker_restarts += 1;
            spawn_worker(&self.shared);
        }
        self.shared.available.notify_all();
    }
}

/// The supervisor's watchdog: periodically cancels jobs that have
/// been in flight longer than [`ServerConfig::hung_job_ms`]. Worker
/// *panics* are handled synchronously by [`WorkerGuard`]; this thread
/// covers the wedged-but-alive case.
fn supervisor_loop(shared: &Arc<Shared>) {
    while !shared.shutting_down() {
        thread::sleep(Duration::from_millis(20));
        let Some(hung_ms) = shared.config.hung_job_ms else {
            continue;
        };
        let bound = Duration::from_millis(hung_ms);
        let mut cancelled = 0u64;
        for in_flight in lock(&shared.in_flight_jobs).values_mut() {
            if !in_flight.hung_flagged && in_flight.started.elapsed() >= bound {
                in_flight.hung_flagged = true;
                in_flight.cancel.cancel();
                cancelled += 1;
            }
        }
        if cancelled > 0 {
            lock(&shared.stats).hung_jobs_cancelled += cancelled;
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    let mut connections: Vec<JoinHandle<()>> = Vec::new();
    while !shared.shutting_down() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let shared = Arc::clone(shared);
                connections.push(thread::spawn(move || {
                    handle_connection(stream, &shared);
                }));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(10));
            }
            Err(_) => thread::sleep(Duration::from_millis(10)),
        }
        connections.retain(|c| !c.is_finished());
    }
    // Drain the accept backlog: a client that completed its TCP
    // handshake just before the flag flipped may have requests in
    // flight already. Dropping the listener on it would RST the
    // connection and silently discard those requests; accepting it
    // lets the connection reader answer each one with the
    // shutdown-time admission error before closing cleanly.
    while let Ok((stream, _peer)) = listener.accept() {
        let shared = Arc::clone(shared);
        connections.push(thread::spawn(move || {
            handle_connection(stream, &shared);
        }));
    }
    for c in connections {
        let _ = c.join();
    }
}

/// Reads request lines until EOF, shutdown or a poisoned connection;
/// responses are funnelled through a dedicated writer thread behind a
/// bounded buffer, so worker replies and inline replies (stats,
/// protocol errors) never interleave mid-line and a stalled reader
/// cannot absorb unbounded memory.
fn handle_connection(stream: TcpStream, shared: &Arc<Shared>) {
    let client_id = shared.next_client_id.fetch_add(1, Ordering::Relaxed);
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let Ok(poison_half) = stream.try_clone() else {
        return;
    };
    let conn = Arc::new(ConnShared {
        stream: poison_half,
        poisoned: AtomicBool::new(false),
    });
    // Short read timeout so the reader notices shutdown while idle.
    // A failure here would leave the reader blind to shutdown, so it
    // is surfaced (logged + counted) instead of discarded.
    if let Err(e) = stream.set_read_timeout(Some(Duration::from_millis(100))) {
        eprintln!("stgd: set_read_timeout failed on client connection: {e}");
        lock(&shared.stats).socket_config_errors += 1;
    }
    let write_timeout = shared.config.write_timeout();
    if let Err(e) = write_half.set_write_timeout(write_timeout) {
        eprintln!("stgd: set_write_timeout failed on client connection: {e}");
        lock(&shared.stats).socket_config_errors += 1;
    }
    let (reply_tx, reply_rx) = mpsc::sync_channel::<String>(shared.config.response_buffer.max(1));
    let reply = ReplySender {
        tx: reply_tx,
        conn: Arc::clone(&conn),
        patience: write_timeout.unwrap_or(Duration::from_secs(30)),
    };
    let writer_conn = Arc::clone(&conn);
    let writer_shared = Arc::clone(shared);
    let writer =
        thread::spawn(move || writer_loop(write_half, &reply_rx, &writer_conn, &writer_shared));
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        if conn.is_poisoned() {
            break;
        }
        match reader.read_line(&mut line) {
            Ok(0) => break, // EOF: client is done.
            Ok(_) => {
                let trimmed = line.trim();
                if !trimmed.is_empty() {
                    handle_request_line(trimmed, shared, &reply, client_id);
                }
                line.clear();
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                // A timeout may land mid-line; `read_line` has already
                // appended the bytes it got, so keep `line` and let the
                // next iteration append the rest of the request.
                if shared.shutting_down() {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    drop(reply);
    let _ = writer.join();
}

fn writer_loop(
    stream: TcpStream,
    replies: &mpsc::Receiver<String>,
    conn: &Arc<ConnShared>,
    shared: &Arc<Shared>,
) {
    let mut out = io::BufWriter::new(stream);
    while let Ok(response) = replies.recv() {
        // Chaos injection: `writer/send` stalls the socket (the
        // response buffer then exercises the slow-client path);
        // `writer/short_write` splits the line into two flushes with
        // a delay between them, which must never corrupt framing.
        failpoints::fire("writer/send");
        let bytes = response.as_bytes();
        let result = if failpoints::is_triggered("writer/short_write") && bytes.len() > 1 {
            let (head, tail) = bytes.split_at(bytes.len() / 2);
            out.write_all(head)
                .and_then(|()| out.flush())
                .and_then(|()| {
                    thread::sleep(Duration::from_millis(5));
                    out.write_all(tail)
                })
                .and_then(|()| out.write_all(b"\n"))
                .and_then(|()| out.flush())
        } else {
            out.write_all(bytes)
                .and_then(|()| out.write_all(b"\n"))
                .and_then(|()| out.flush())
        };
        if let Err(e) = result {
            // A write timeout means the client stalled; anything else
            // is a plain hangup. Either way the connection is dead:
            // poison it so the reader and job senders fail fast
            // instead of queueing more undeliverable responses.
            let stalled = matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            );
            if conn.poison() && stalled {
                lock(&shared.stats).slow_client_disconnects += 1;
            }
            // Undeliverable responses already buffered (or racing in
            // past the poison flag) are counted, never silently
            // discarded. Sends that *observe* the poison flag count
            // themselves on the worker side; this drain picks up the
            // rest and runs until every sender (reader, queued and
            // in-flight jobs) has hung up, so the accounting is
            // exactly-once either way.
            let mut dropped = 0u64;
            while replies.recv().is_ok() {
                dropped += 1;
            }
            if dropped > 0 {
                lock(&shared.stats).responses_dropped += dropped;
            }
            break;
        }
    }
}

fn handle_request_line(line: &str, shared: &Arc<Shared>, reply: &ReplySender, client_id: u64) {
    match decode_request(line) {
        Err(e) => {
            lock(&shared.stats).jobs_errored += 1;
            reply.send(encode_error_response(e.id.as_deref(), &e.message));
        }
        Ok(Request::Stats) => {
            reply.send(shared.stats_response());
        }
        Ok(Request::Shutdown) => {
            reply.send(
                Value::Obj(vec![
                    ("status".to_owned(), Value::from("ok")),
                    ("shutting_down".to_owned(), Value::from(true)),
                ])
                .render(),
            );
            shared.trigger_shutdown();
        }
        Ok(Request::Check(request)) => {
            admit_job(JobRequest::Check(request), shared, reply, client_id);
        }
        Ok(Request::Synthesize(request)) => {
            admit_job(JobRequest::Synthesize(request), shared, reply, client_id);
        }
    }
}

/// Admits one `check` or `synthesize` job: shutdown gate, admission
/// lint, cancel-token registration, and the bounded fair-queue push.
/// Both job kinds share this path, so quotas, load shedding and the
/// graceful-shutdown drain treat them identically.
fn admit_job(request: JobRequest, shared: &Arc<Shared>, reply: &ReplySender, client_id: u64) {
    if shared.shutting_down() {
        reply.send(encode_error_response(
            Some(request.id()),
            "server is shutting down",
        ));
        return;
    }
    // Admission lint: parse failures and structurally broken
    // nets are rejected here on the reader thread — the
    // well-formedness checks only (no semiflow pass, no LP) — so
    // garbage never consumes a queue slot or a worker. The job
    // carries the parsed STG so workers never re-parse.
    let options = lint::LintOptions {
        lp: false,
        ..Default::default()
    };
    let outcome = lint::lint_bytes(request.stg_g().as_bytes(), &options);
    let stg = match outcome.stg {
        Some(stg) if !outcome.report.has_errors() => stg,
        _ => {
            lock(&shared.stats).jobs_rejected += 1;
            reply.send(encode_lint_rejected(Some(request.id()), &outcome.report));
            return;
        }
    };
    let cancel = CancelToken::new();
    lock(&shared.live_tokens).push(cancel.clone());
    // trigger_shutdown() may have swept live_tokens between
    // the shutting_down() check above and the push; re-check
    // so a job slipping through that window is still cancelled
    // and cannot stall the drain.
    if shared.shutting_down() {
        cancel.cancel();
    }
    let is_synthesize = matches!(request, JobRequest::Synthesize(_));
    let job = Job {
        request,
        stg,
        cancel,
        enqueued: Instant::now(),
        client: client_id,
        reply: reply.clone(),
    };
    // Admission and both bound checks happen under one queue
    // lock, so the bounds are exact even with many connection
    // readers racing. The shutdown re-check lives inside the
    // same critical section: `trigger_shutdown` flips the
    // flag under this lock, so a job admitted here is
    // guaranteed to be visible to the draining workers — it
    // can never land in the queue after the last worker
    // already decided the drain was complete.
    let admitted = {
        let mut queue = lock(&shared.queue);
        if shared.shutting_down() {
            Err((job, None, 0))
        } else {
            let depth = queue.len();
            queue
                .try_push(job, shared.config.max_queue, shared.config.client_quota)
                .map_err(|boxed| {
                    let (job, shed) = *boxed;
                    (job, Some(shed), depth)
                })
        }
    };
    match admitted {
        Ok(depth) => {
            let mut stats = lock(&shared.stats);
            stats.jobs_received += 1;
            if is_synthesize {
                stats.synthesize_received += 1;
            }
            stats.max_queue_depth = stats.max_queue_depth.max(depth as u64);
            drop(stats);
            shared.available.notify_one();
        }
        Err((job, None, _)) => {
            // Refused by the in-lock shutdown re-check.
            lock(&shared.live_tokens).retain(|t| !t.same_token(&job.cancel));
            job.reply.send(encode_error_response(
                Some(job.request.id()),
                "server is shutting down",
            ));
        }
        Err((job, Some(shed), depth)) => {
            lock(&shared.live_tokens).retain(|t| !t.same_token(&job.cancel));
            {
                let mut stats = lock(&shared.stats);
                stats.jobs_rejected += 1;
                match shed {
                    Shed::QueueFull(_) => stats.shed_queue_full += 1,
                    Shed::OverQuota(_) => stats.shed_over_quota += 1,
                }
            }
            let retry_after_ms = shared.retry_after_hint_ms(depth);
            let (code, message) = match shed {
                Shed::QueueFull(max) => (
                    "queue_full",
                    format!("job queue is full ({max} queued jobs); retry later"),
                ),
                Shed::OverQuota(quota) => (
                    "over_quota",
                    format!(
                        "client already has {quota} queued jobs \
                         (per-client quota); retry later"
                    ),
                ),
            };
            job.reply.send(encode_overload_response(
                Some(job.request.id()),
                code,
                &message,
                retry_after_ms,
            ));
        }
    }
}

fn worker_loop(shared: &Arc<Shared>, worker_id: usize) {
    loop {
        let job = {
            let mut queue = lock(&shared.queue);
            loop {
                if let Some(job) = queue.pop() {
                    break Some(job);
                }
                if shared.shutting_down() {
                    break None; // Queue drained, shutdown requested.
                }
                let (q, _) = shared
                    .available
                    .wait_timeout(queue, Duration::from_millis(50))
                    .unwrap_or_else(PoisonError::into_inner);
                queue = q;
            }
        };
        let Some(job) = job else { return };
        lock(&shared.stats).in_flight += 1;
        // Register the job for supervision *before* any fallible
        // work: if this thread dies mid-job, the worker guard fails
        // the job with `worker_crashed` instead of losing it.
        lock(&shared.in_flight_jobs).insert(
            worker_id,
            InFlight {
                job_id: job.request.id().to_owned(),
                reply: job.reply.clone(),
                cancel: job.cancel.clone(),
                started: Instant::now(),
                hung_flagged: false,
            },
        );
        // Chaos injection: `worker/run` panics (exercising the
        // supervisor) or sleeps (injecting queue latency) as a job
        // starts executing.
        failpoints::fire("worker/run");
        process_job(&job, shared);
        lock(&shared.in_flight_jobs).remove(&worker_id);
        lock(&shared.stats).in_flight -= 1;
        // Completed jobs no longer need their shutdown hook.
        lock(&shared.live_tokens).retain(|t| !t.same_token(&job.cancel));
    }
}

fn process_job(job: &Job, shared: &Arc<Shared>) {
    let response = match &job.request {
        JobRequest::Check(request) => process_check(request, job, shared),
        JobRequest::Synthesize(request) => process_synthesize(request, job, shared),
    };
    match job.reply.send(response) {
        SendOutcome::Sent => {}
        SendOutcome::Dropped => {
            lock(&shared.stats).responses_dropped += 1;
        }
        SendOutcome::PoisonedNow => {
            let mut stats = lock(&shared.stats);
            stats.responses_dropped += 1;
            stats.slow_client_disconnects += 1;
        }
    }
}

/// Runs one `check` job and renders its response line.
fn process_check(request: &CheckRequest, job: &Job, shared: &Arc<Shared>) -> String {
    let stg = &job.stg;
    let mut budget = request.budget.to_budget();
    if budget.deadline.is_none() {
        budget.deadline = shared.config.default_timeout_ms.map(Duration::from_millis);
    }
    budget.cancel = Some(job.cancel.clone());
    let engine = request.engine.unwrap_or(shared.config.default_engine);
    let property = request.property;
    // Content-addressed reuse: a repeat of a cached net skips prefix
    // construction, state-graph exploration and BDD re-encoding.
    let (artifacts, _cache_hit) = shared.cache.get_or_insert(stg);
    // The wire `CheckRequest` above describes the job; this one runs
    // it (`csc_core`'s builder shares the name). The structure pass
    // runs first: its class-gated fast paths can answer without any
    // engine, and the revision-8 responses surface the detected net
    // class to clients.
    let result = csc_core::CheckRequest::new(stg, property)
        .engine(engine)
        .budget(budget)
        .artifacts(&artifacts)
        .structure(true)
        .run();
    match result {
        Ok(run) => {
            let latency_ms = job.enqueued.elapsed().as_secs_f64() * 1e3;
            {
                let mut stats = lock(&shared.stats);
                stats.jobs_completed += 1;
                stats.latency_total_ms += latency_ms;
                stats.latency_max_ms = stats.latency_max_ms.max(latency_ms);
                match run.verdict.holds() {
                    Some(true) => stats.holds += 1,
                    Some(false) => stats.violated += 1,
                    None => stats.unknown += 1,
                }
                // Race attribution only applies when the racers
                // actually started; a job answered by an earlier stage
                // of the schedule (structure, probe, capped unfolding)
                // never spawned them.
                if run.report.raced {
                    match run.report.winner {
                        Some(winner) => {
                            for (i, engine) in RACERS.iter().enumerate() {
                                if engine.name() == winner {
                                    stats.race_wins[i] += 1;
                                } else {
                                    stats.race_cancelled[i] += 1;
                                }
                            }
                        }
                        None => stats.race_inconclusive += 1,
                    }
                }
            }
            encode_check_response(&request.id, stg, &run)
        }
        Err(e) => {
            lock(&shared.stats).jobs_errored += 1;
            encode_error_response(Some(&request.id), &e.to_string())
        }
    }
}

/// Runs one `synthesize` job and renders its response line.
///
/// The job reuses the same cached artifact set as `check` — a net
/// already checked (or synthesized) before seeds the pipeline's
/// initial check *and* the resolver's initial score. Failure is
/// terminal: surrender, budget exhaustion (including a watchdog
/// cancellation mid-resolution) and pipeline errors all answer the
/// stable `resolve_failed` code, which clients must not retry.
fn process_synthesize(request: &SynthesizeRequest, job: &Job, shared: &Arc<Shared>) -> String {
    let stg = &job.stg;
    let mut budget = request.budget.to_budget();
    if budget.deadline.is_none() {
        budget.deadline = shared.config.default_timeout_ms.map(Duration::from_millis);
    }
    budget.cancel = Some(job.cancel.clone());
    let mut options = resolve::SynthesisOptions {
        engine: request.engine.unwrap_or(shared.config.default_engine),
        ..Default::default()
    };
    options.resolver.budget = budget;
    if let Some(max) = request.max_signals {
        options.resolver.max_signals = max;
    }
    let (artifacts, _cache_hit) = shared.cache.get_or_insert(stg);
    match resolve::synthesize(stg, &options, Some(artifacts)) {
        Ok(run) => {
            let latency_ms = job.enqueued.elapsed().as_secs_f64() * 1e3;
            {
                let mut stats = lock(&shared.stats);
                stats.jobs_completed += 1;
                stats.latency_total_ms += latency_ms;
                stats.latency_max_ms = stats.latency_max_ms.max(latency_ms);
                if run.pipeline.outcome.is_conflict_free() {
                    stats.synthesize_resolved += 1;
                } else {
                    stats.synthesize_failed += 1;
                }
            }
            encode_synthesize_response(&request.id, &run)
        }
        Err(e) => {
            {
                let mut stats = lock(&shared.stats);
                stats.jobs_errored += 1;
                stats.synthesize_failed += 1;
            }
            encode_error_response_with_code(Some(&request.id), "resolve_failed", &e.to_string())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::protocol::BudgetSpec;
    use csc_core::Property;
    use stg::gen::vme::vme_read;

    fn local_server(workers: usize) -> ServerHandle {
        spawn(ServerConfig {
            workers,
            ..Default::default()
        })
        .expect("bind ephemeral port")
    }

    fn test_job(client: u64, id: &str) -> Job {
        let stg = vme_read();
        let (tx, rx) = mpsc::sync_channel(4);
        // Keep the receiver alive for the test's duration by leaking
        // it; unit-test jobs are never actually answered.
        std::mem::forget(rx);
        let conn = Arc::new(ConnShared {
            stream: TcpStream::connect(
                TcpListener::bind("127.0.0.1:0")
                    .expect("bind")
                    .local_addr()
                    .expect("addr"),
            )
            .expect("connect"),
            poisoned: AtomicBool::new(false),
        });
        Job {
            request: JobRequest::Check(CheckRequest {
                id: id.to_owned(),
                stg_g: String::new(),
                property: Property::Csc,
                engine: None,
                budget: BudgetSpec::default(),
            }),
            stg,
            cancel: CancelToken::new(),
            enqueued: Instant::now(),
            client,
            reply: ReplySender {
                tx,
                conn,
                patience: Duration::from_millis(10),
            },
        }
    }

    #[test]
    fn fair_queue_round_robins_across_clients() {
        let mut queue = FairQueue::default();
        // Client 1 pipelines three jobs before client 2's single job
        // arrives; the dequeue order must interleave, not FIFO.
        for (client, id) in [(1, "a1"), (1, "a2"), (1, "a3"), (2, "b1")] {
            queue
                .try_push(test_job(client, id), None, None)
                .map_err(|_| "unexpected shed")
                .expect("admitted");
        }
        assert_eq!(queue.len(), 4);
        assert_eq!(queue.client_depth(1), 3);
        let order: Vec<String> = std::iter::from_fn(|| queue.pop())
            .map(|j| j.request.id().to_owned())
            .collect();
        assert_eq!(order, ["a1", "b1", "a2", "a3"]);
        assert_eq!(queue.len(), 0);
    }

    #[test]
    fn fair_queue_enforces_global_bound_and_quota() {
        let mut queue = FairQueue::default();
        queue
            .try_push(test_job(1, "a1"), Some(2), Some(1))
            .map_err(|_| "unexpected shed")
            .expect("admitted");
        // Client 1 is at its quota of 1.
        let Err(shed) = queue.try_push(test_job(1, "a2"), Some(2), Some(1)) else {
            panic!("quota must shed");
        };
        assert_eq!(shed.1, Shed::OverQuota(1));
        // Another client still fits under the global bound of 2.
        queue
            .try_push(test_job(2, "b1"), Some(2), Some(1))
            .map_err(|_| "unexpected shed")
            .expect("admitted");
        // Now the global bound sheds regardless of client.
        let Err(shed) = queue.try_push(test_job(3, "c1"), Some(2), Some(1)) else {
            panic!("bound must shed");
        };
        assert_eq!(shed.1, Shed::QueueFull(2));
    }

    #[test]
    fn serves_a_check_and_stats_round_trip() {
        let server = local_server(2);
        let mut client = Client::connect(server.addr()).expect("connect");
        let g = stg::to_g_format(&vme_read(), "vme");
        let response = client
            .check("j1", &g, Property::Csc, None, BudgetSpec::default())
            .expect("check");
        assert_eq!(response.verdict.as_deref(), Some("violated"));
        assert_eq!(response.engine.as_deref(), Some("race"));
        assert!(response.winner.is_some());
        let stats = client.stats().expect("stats");
        assert_eq!(
            stats
                .get("stats")
                .and_then(|s| s.get("jobs_completed"))
                .and_then(Value::as_u64),
            Some(1)
        );
        // Revision 4: the overload and supervisor blocks are present.
        let sup = stats
            .get("stats")
            .and_then(|s| s.get("supervisor"))
            .expect("supervisor stats");
        assert_eq!(sup.get("worker_panics").and_then(Value::as_u64), Some(0));
        assert_eq!(sup.get("live_workers").and_then(Value::as_u64), Some(2));
        let overload = stats
            .get("stats")
            .and_then(|s| s.get("overload"))
            .expect("overload stats");
        assert_eq!(overload.get("queue_full").and_then(Value::as_u64), Some(0));
        assert_eq!(
            overload.get("max_queue").and_then(Value::as_u64),
            Some(1024),
            "max_queue defaults to a bounded value"
        );
        server.shutdown();
    }

    #[test]
    fn serves_a_synthesize_end_to_end() {
        let server = local_server(2);
        let mut client = Client::connect(server.addr()).expect("connect");
        let g = stg::to_g_format(&vme_read(), "vme");
        let response = client
            .synthesize("s1", &g, None, None, BudgetSpec::default())
            .expect("synthesize");
        assert_eq!(response.status, "ok");
        assert_eq!(response.outcome.as_deref(), Some("resolved"));
        assert_eq!(response.inserted.len(), 1, "one state signal for vme");
        // The resolved net round-trips through .g and is genuinely
        // conflict-free when re-checked over the same connection.
        let resolved_g = response.resolved_g.as_deref().expect("resolved .g");
        let recheck = client
            .check(
                "s1-recheck",
                resolved_g,
                Property::Csc,
                None,
                BudgetSpec::default(),
            )
            .expect("recheck");
        assert_eq!(recheck.verdict.as_deref(), Some("holds"));
        assert!(response.equations().is_some(), "equations present");
        assert!(response.resolve_stats().is_some(), "resolve block present");
        // The pipeline hands the resolver's artifacts to the re-check
        // stage, so it rebuilt nothing.
        assert_eq!(
            response
                .raw
                .get("recheck_prefix_events_built")
                .and_then(Value::as_u64),
            Some(0),
            "incremental re-verification: warm re-check"
        );
        let stats = client.stats().expect("stats");
        let synth = stats
            .get("stats")
            .and_then(|s| s.get("synthesize"))
            .expect("synthesize stats");
        assert_eq!(synth.get("received").and_then(Value::as_u64), Some(1));
        assert_eq!(synth.get("resolved").and_then(Value::as_u64), Some(1));
        assert_eq!(synth.get("failed").and_then(Value::as_u64), Some(0));
        server.shutdown();
    }

    #[test]
    fn failed_synthesis_answers_the_permanent_resolve_failed_code() {
        let server = local_server(1);
        let mut client = Client::connect(server.addr()).expect("connect");
        let g = stg::to_g_format(&vme_read(), "vme");
        // max_signals 0 forbids any insertion, so the conflicted net
        // cannot be resolved: a deterministic, permanent failure.
        let response = client
            .synthesize("s-fail", &g, Some(0), None, BudgetSpec::default())
            .expect("synthesize");
        assert_eq!(response.status, "error");
        assert_eq!(response.code.as_deref(), Some("resolve_failed"));
        assert!(
            !response.is_retryable(),
            "resolve_failed must never be retried"
        );
        let stats = client.stats().expect("stats");
        let synth = stats
            .get("stats")
            .and_then(|s| s.get("synthesize"))
            .expect("synthesize stats");
        assert_eq!(synth.get("failed").and_then(Value::as_u64), Some(1));
        server.shutdown();
    }

    #[test]
    fn request_lines_spanning_read_timeouts_are_not_lost() {
        let server = local_server(1);
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        // Deliver one request in two writes separated by well over the
        // 100ms reader timeout: the partial head must survive the
        // timed-out read_line instead of being cleared.
        let request = "{\"op\":\"stats\"}\n";
        let (head, tail) = request.split_at(7);
        stream.write_all(head.as_bytes()).expect("write head");
        stream.flush().expect("flush head");
        thread::sleep(Duration::from_millis(300));
        stream.write_all(tail.as_bytes()).expect("write tail");
        stream.flush().expect("flush tail");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read reply");
        let v = crate::json::parse(reply.trim()).expect("valid NDJSON reply");
        assert_eq!(v.get("status").and_then(Value::as_str), Some("ok"));
        server.shutdown();
    }

    #[test]
    fn malformed_lines_get_error_responses_not_disconnects() {
        let server = local_server(1);
        let mut client = Client::connect(server.addr()).expect("connect");
        let v = client
            .round_trip("{\"op\":\"check\",\"id\":\"bad\"}")
            .expect("reply");
        assert_eq!(v.get("status").and_then(Value::as_str), Some("error"));
        assert_eq!(v.get("id").and_then(Value::as_str), Some("bad"));
        // The connection survives and serves the next request.
        let stats = client.stats().expect("stats after error");
        assert_eq!(stats.get("status").and_then(Value::as_str), Some("ok"));
        server.shutdown();
    }

    #[test]
    fn repeat_jobs_hit_the_artifact_cache() {
        let server = local_server(2);
        let mut client = Client::connect(server.addr()).expect("connect");
        let g = stg::to_g_format(&vme_read(), "vme");
        for (i, property) in ["usc", "csc"].iter().enumerate() {
            let property = crate::protocol::property_from_str(property).unwrap();
            let response = client
                .check(&format!("j{i}"), &g, property, None, BudgetSpec::default())
                .expect("check");
            assert_eq!(response.verdict.as_deref(), Some("violated"));
        }
        let stats = client.stats().expect("stats");
        let cache = stats
            .get("stats")
            .and_then(|s| s.get("cache"))
            .expect("cache stats present");
        assert_eq!(cache.get("misses").and_then(Value::as_u64), Some(1));
        assert_eq!(cache.get("hits").and_then(Value::as_u64), Some(1));
        assert_eq!(cache.get("entries").and_then(Value::as_u64), Some(1));
        assert_eq!(cache.get("evictions").and_then(Value::as_u64), Some(0));
        server.shutdown();
    }

    #[test]
    fn warm_checks_report_zero_prefix_events_built() {
        let server = spawn(ServerConfig {
            default_engine: Engine::UnfoldingIlp,
            ..Default::default()
        })
        .expect("bind");
        let mut client = Client::connect(server.addr()).expect("connect");
        let g = stg::to_g_format(&vme_read(), "vme");
        let built = |response: &crate::client::CheckResponse| {
            response
                .raw
                .get("report")
                .and_then(|r| r.get("prefix_events_built"))
                .and_then(Value::as_u64)
        };
        let cold = client
            .check("cold", &g, Property::Csc, None, BudgetSpec::default())
            .expect("cold check");
        assert!(built(&cold).is_some_and(|n| n > 0), "{:?}", cold.raw);
        let warm = client
            .check("warm", &g, Property::Csc, None, BudgetSpec::default())
            .expect("warm check");
        assert_eq!(built(&warm), Some(0), "{:?}", warm.raw);
        assert_eq!(cold.verdict, warm.verdict);
        server.shutdown();
    }

    #[test]
    fn full_queue_rejects_checks_with_a_stable_code_and_retry_hint() {
        // No workers ever pop: zero capacity means every check is
        // rejected at admission.
        let server = spawn(ServerConfig {
            workers: 1,
            max_queue: Some(0),
            ..Default::default()
        })
        .expect("bind");
        let mut client = Client::connect(server.addr()).expect("connect");
        let g = stg::to_g_format(&vme_read(), "vme");
        let response = client
            .check("jq", &g, Property::Csc, None, BudgetSpec::default())
            .expect("transport ok");
        assert_eq!(response.status, "error");
        assert_eq!(response.code.as_deref(), Some("queue_full"));
        assert_eq!(response.id.as_deref(), Some("jq"));
        // Revision 4: shed responses carry a backoff hint.
        assert!(
            response.retry_after_ms.is_some_and(|ms| ms >= 10),
            "{:?}",
            response.raw
        );
        // The connection survives; stats counted the rejection.
        let stats = client.stats().expect("stats");
        assert_eq!(
            stats
                .get("stats")
                .and_then(|s| s.get("jobs_rejected"))
                .and_then(Value::as_u64),
            Some(1)
        );
        assert_eq!(
            stats
                .get("stats")
                .and_then(|s| s.get("overload"))
                .and_then(|o| o.get("queue_full"))
                .and_then(Value::as_u64),
            Some(1)
        );
        assert_eq!(
            stats
                .get("stats")
                .and_then(|s| s.get("jobs_received"))
                .and_then(Value::as_u64),
            Some(0),
            "rejected jobs are not received jobs"
        );
        server.shutdown();
    }

    #[test]
    fn per_client_quota_sheds_with_the_over_quota_code() {
        // One worker, no global bound pressure, but a quota of zero:
        // every check from any single client is over quota.
        let server = spawn(ServerConfig {
            workers: 1,
            client_quota: Some(0),
            ..Default::default()
        })
        .expect("bind");
        let mut client = Client::connect(server.addr()).expect("connect");
        let g = stg::to_g_format(&vme_read(), "vme");
        let response = client
            .check("jq", &g, Property::Csc, None, BudgetSpec::default())
            .expect("transport ok");
        assert_eq!(response.status, "error");
        assert_eq!(response.code.as_deref(), Some("over_quota"));
        assert!(response.retry_after_ms.is_some());
        let stats = client.stats().expect("stats");
        assert_eq!(
            stats
                .get("stats")
                .and_then(|s| s.get("overload"))
                .and_then(|o| o.get("over_quota"))
                .and_then(Value::as_u64),
            Some(1)
        );
        server.shutdown();
    }

    #[test]
    fn ill_formed_inputs_are_rejected_at_admission() {
        // Zero queue capacity would reject anything that reaches the
        // queue, so a lint_rejected response here proves the bad net
        // was turned away *before* admission — no queue slot, no
        // worker.
        let server = spawn(ServerConfig {
            workers: 1,
            max_queue: Some(0),
            ..Default::default()
        })
        .expect("bind");
        let mut client = Client::connect(server.addr()).expect("connect");
        let bad = ".model m\n.outputs a\n.graph\nb+ a+\n.marking { }\n.end\n";
        let response = client
            .check("jl", bad, Property::Csc, None, BudgetSpec::default())
            .expect("transport ok");
        assert_eq!(response.status, "error");
        assert_eq!(response.code.as_deref(), Some("lint_rejected"));
        assert_eq!(response.id.as_deref(), Some("jl"));
        let diags = response.diagnostics().expect("diagnostics array");
        let Value::Arr(items) = diags else {
            panic!("diagnostics is not an array: {diags:?}")
        };
        let first = items.first().expect("at least one diagnostic");
        assert_eq!(first.get("code").and_then(Value::as_str), Some("L003"));
        assert_eq!(first.get("severity").and_then(Value::as_str), Some("error"));
        assert_eq!(first.get("line").and_then(Value::as_u64), Some(4));
        assert_eq!(first.get("col").and_then(Value::as_u64), Some(1));
        // The rejection consumed neither a queue slot nor a worker.
        let stats = client.stats().expect("stats");
        let counter = |key: &str| {
            stats
                .get("stats")
                .and_then(|s| s.get(key))
                .and_then(Value::as_u64)
        };
        assert_eq!(counter("jobs_received"), Some(0));
        assert_eq!(counter("jobs_rejected"), Some(1));
        server.shutdown();
    }

    #[test]
    fn lint_proved_families_are_proved_by_cegar_without_a_prefix() {
        // CF-SYM-A, which the LP relaxation proves: a job naming
        // `cegar` holds from that LP alone, with no prefix built and
        // no lint stage ahead of the engine.
        let server = local_server(1);
        let mut client = Client::connect(server.addr()).expect("connect");
        let g = stg::to_g_format(&stg::gen::counterflow::counterflow_sym(2, 3), "cf");
        let response = client
            .check(
                "jp",
                &g,
                Property::Usc,
                Some(Engine::Cegar),
                BudgetSpec::default(),
            )
            .expect("check");
        assert_eq!(
            response.verdict.as_deref(),
            Some("holds"),
            "{:?}",
            response.raw
        );
        assert_eq!(response.engine.as_deref(), Some("cegar"));
        assert_eq!(response.winner, None);
        let report = response.raw.get("report").expect("report");
        assert_eq!(
            report.get("prefix_events_built").and_then(Value::as_u64),
            Some(0),
            "no engine may touch the state space"
        );
        assert!(report.get("lint").is_none(), "{report:?}");
        let cegar = report.get("cegar").expect("cegar block");
        assert_eq!(cegar.get("branch_nodes").and_then(Value::as_u64), Some(0));
        server.shutdown();
    }

    #[test]
    fn client_shutdown_op_stops_the_server() {
        let server = local_server(1);
        let mut client = Client::connect(server.addr()).expect("connect");
        let ack = client.shutdown().expect("ack");
        assert_eq!(
            ack.get("shutting_down").and_then(Value::as_bool),
            Some(true)
        );
        server.join(); // Returns because the client op triggered shutdown.
    }

    #[test]
    fn retry_after_hint_scales_with_backlog_and_stays_clamped() {
        let shared = Shared {
            config: ServerConfig {
                workers: 2,
                ..Default::default()
            },
            shutdown: AtomicBool::new(false),
            queue: Mutex::new(FairQueue::default()),
            available: Condvar::new(),
            stats: Mutex::new(Stats::default()),
            live_tokens: Mutex::new(Vec::new()),
            cache: ArtifactCache::new(0),
            in_flight_jobs: Mutex::new(HashMap::new()),
            worker_handles: Mutex::new(Vec::new()),
            next_worker_id: AtomicUsize::new(0),
            next_client_id: AtomicU64::new(0),
        };
        // Cold server: the default hint.
        assert_eq!(shared.retry_after_hint_ms(0), 10);
        // Warm server with 20ms mean latency: hint grows with depth.
        {
            let mut stats = lock(&shared.stats);
            stats.jobs_completed = 10;
            stats.latency_total_ms = 200.0;
        }
        let shallow = shared.retry_after_hint_ms(1);
        let deep = shared.retry_after_hint_ms(100);
        assert!(shallow < deep, "{shallow} < {deep}");
        // Pathological latencies never hint beyond the clamp.
        {
            let mut stats = lock(&shared.stats);
            stats.latency_total_ms = 1e9;
        }
        assert_eq!(shared.retry_after_hint_ms(1000), 5_000);
    }
}
