//! The `stgd` wire protocol: newline-delimited JSON over TCP.
//!
//! Every line the client sends is one request object; every line the
//! server sends back is one response object. Responses to `check`
//! requests arrive in *completion* order (the worker pool races jobs
//! concurrently), so clients correlate them by the `id` they chose.
//! The full schema is specified in `docs/SERVER.md`.

use std::fmt;
use std::time::Duration;

use csc_core::{
    Budget, CheckRun, Engine, ExhaustionReason, Property, ResourceReport, Verdict, Witness,
};
use stg::Stg;

use crate::json::{self, opt, Value};

/// One decoded client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Decide a property of one STG under a budget.
    Check(CheckRequest),
    /// Run the full synthesis pipeline on one STG under a budget:
    /// lint → CSC check → resolve by state-signal insertion →
    /// re-check → next-state equations.
    Synthesize(SynthesizeRequest),
    /// Report service counters.
    Stats,
    /// Begin graceful shutdown: drain in-flight jobs, then exit.
    Shutdown,
}

/// The payload of a `check` request.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckRequest {
    /// Client-chosen correlation id, echoed in the response.
    pub id: String,
    /// The STG in `.g` format.
    pub stg_g: String,
    /// The property to decide.
    pub property: Property,
    /// Engine override; `None` uses the server default (`race`).
    pub engine: Option<Engine>,
    /// Per-job resource budget.
    pub budget: BudgetSpec,
}

/// The payload of a revision-6 `synthesize` request.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthesizeRequest {
    /// Client-chosen correlation id, echoed in the response.
    pub id: String,
    /// The STG in `.g` format.
    pub stg_g: String,
    /// Cap on inserted state signals; `None` uses the server default.
    pub max_signals: Option<usize>,
    /// Engine override for the check/re-check stages; `None` uses the
    /// server default (`race`).
    pub engine: Option<Engine>,
    /// Per-job resource budget.
    pub budget: BudgetSpec,
}

/// The declarative budget of one job (a [`Budget`] without the
/// cancellation token, which the server attaches per job).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BudgetSpec {
    /// Wall-clock allowance in milliseconds.
    pub timeout_ms: Option<u64>,
    /// Unfolding event cap.
    pub max_events: Option<usize>,
    /// Explicit state cap.
    pub max_states: Option<usize>,
    /// Solver propagation cap.
    pub max_solver_steps: Option<u64>,
    /// BDD node cap.
    pub max_bdd_nodes: Option<usize>,
}

impl BudgetSpec {
    /// Materialises the spec as an engine [`Budget`] (without a
    /// cancellation token).
    pub fn to_budget(self) -> Budget {
        Budget {
            deadline: self.timeout_ms.map(Duration::from_millis),
            max_events: self.max_events,
            max_solver_steps: self.max_solver_steps,
            max_states: self.max_states,
            max_bdd_nodes: self.max_bdd_nodes,
            cancel: None,
        }
    }
}

/// A protocol-level decoding failure (malformed JSON, unknown op,
/// missing field). The offending request — when it carried an id —
/// still gets an error *response*, not a dropped connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError {
    /// The client-supplied id, when one could be recovered.
    pub id: Option<String>,
    /// What was wrong with the request.
    pub message: String,
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for ProtocolError {}

/// Parses the engine name used on the wire, in `stgd --engine` and in
/// `stgcheck --engine`: an [`Engine::name`], or `unfolding` for the
/// paper's engine.
pub fn engine_from_str(name: &str) -> Option<Engine> {
    if name == "unfolding" {
        return Some(Engine::UnfoldingIlp);
    }
    Engine::ALL.into_iter().find(|engine| engine.name() == name)
}

/// The accepted engine names, `|`-separated, for usage and error
/// messages.
pub fn engine_names() -> String {
    Engine::ALL.map(Engine::name).join("|")
}

/// Parses the property name used on the wire.
pub fn property_from_str(name: &str) -> Option<Property> {
    match name {
        "usc" => Some(Property::Usc),
        "csc" => Some(Property::Csc),
        "normalcy" => Some(Property::Normalcy),
        _ => None,
    }
}

/// The wire name of a property.
pub fn property_name(property: Property) -> &'static str {
    match property {
        Property::Usc => "usc",
        Property::Csc => "csc",
        Property::Normalcy => "normalcy",
    }
}

/// Decodes one request line.
///
/// # Errors
///
/// [`ProtocolError`] on malformed JSON, an unknown `op`, or a missing
/// or ill-typed field; the error carries the request id when one was
/// present so the server can still address the response.
pub fn decode_request(line: &str) -> Result<Request, ProtocolError> {
    let value = json::parse(line).map_err(|e| ProtocolError {
        id: None,
        message: format!("malformed JSON: {e}"),
    })?;
    let id = value.get("id").and_then(Value::as_str).map(str::to_owned);
    let fail = |message: String| ProtocolError {
        id: id.clone(),
        message,
    };
    let op = value
        .get("op")
        .and_then(Value::as_str)
        .ok_or_else(|| fail("missing `op`".to_owned()))?;
    match op {
        "stats" => Ok(Request::Stats),
        "shutdown" => Ok(Request::Shutdown),
        "check" => {
            let id = id
                .clone()
                .ok_or_else(|| fail("check: missing `id`".to_owned()))?;
            let stg_g = value
                .get("stg")
                .and_then(Value::as_str)
                .ok_or_else(|| fail("check: missing `stg` (.g text)".to_owned()))?
                .to_owned();
            let property = value
                .get("property")
                .and_then(Value::as_str)
                .ok_or_else(|| fail("check: missing `property`".to_owned()))
                .and_then(|p| {
                    property_from_str(p)
                        .ok_or_else(|| fail(format!("check: unknown property `{p}`")))
                })?;
            let engine = decode_engine(&value, &fail)?;
            let budget = decode_budget(value.get("budget"), &fail)?;
            Ok(Request::Check(CheckRequest {
                id,
                stg_g,
                property,
                engine,
                budget,
            }))
        }
        "synthesize" => {
            let id = id
                .clone()
                .ok_or_else(|| fail("synthesize: missing `id`".to_owned()))?;
            let stg_g = value
                .get("stg")
                .and_then(Value::as_str)
                .ok_or_else(|| fail("synthesize: missing `stg` (.g text)".to_owned()))?
                .to_owned();
            let engine = decode_engine(&value, &fail)?;
            let max_signals = match value.get("max_signals").filter(|v| !v.is_null()) {
                None => None,
                Some(v) => Some(v.as_u64().map(|n| n as usize).ok_or_else(|| {
                    fail("synthesize: `max_signals` must be a non-negative integer".to_owned())
                })?),
            };
            let budget = decode_budget(value.get("budget"), &fail)?;
            Ok(Request::Synthesize(SynthesizeRequest {
                id,
                stg_g,
                max_signals,
                engine,
                budget,
            }))
        }
        other => Err(fail(format!("unknown op `{other}`"))),
    }
}

fn decode_engine(
    value: &Value,
    fail: &dyn Fn(String) -> ProtocolError,
) -> Result<Option<Engine>, ProtocolError> {
    match value.get("engine").filter(|v| !v.is_null()) {
        None => Ok(None),
        Some(v) => {
            let name = v
                .as_str()
                .ok_or_else(|| fail("`engine` must be a string".to_owned()))?;
            Ok(Some(engine_from_str(name).ok_or_else(|| {
                fail(format!("unknown engine `{name}` ({})", engine_names()))
            })?))
        }
    }
}

fn decode_budget(
    value: Option<&Value>,
    fail: &dyn Fn(String) -> ProtocolError,
) -> Result<BudgetSpec, ProtocolError> {
    let mut spec = BudgetSpec::default();
    let Some(value) = value.filter(|v| !v.is_null()) else {
        return Ok(spec);
    };
    if !matches!(value, Value::Obj(_)) {
        return Err(fail("check: `budget` must be an object".to_owned()));
    }
    let field = |key: &str| -> Result<Option<u64>, ProtocolError> {
        match value.get(key).filter(|v| !v.is_null()) {
            None => Ok(None),
            Some(v) => v.as_u64().map(Some).ok_or_else(|| {
                fail(format!(
                    "check: `budget.{key}` must be a non-negative integer below 2^53"
                ))
            }),
        }
    };
    spec.timeout_ms = field("timeout_ms")?;
    spec.max_events = field("max_events")?.map(|n| n as usize);
    spec.max_states = field("max_states")?.map(|n| n as usize);
    spec.max_solver_steps = field("max_solver_steps")?;
    spec.max_bdd_nodes = field("max_bdd_nodes")?.map(|n| n as usize);
    Ok(spec)
}

/// Encodes a `check` request line (the client side of
/// [`decode_request`]).
pub fn encode_check_request(request: &CheckRequest) -> String {
    let mut members = vec![
        ("op".to_owned(), Value::from("check")),
        ("id".to_owned(), Value::from(request.id.as_str())),
        ("stg".to_owned(), Value::from(request.stg_g.as_str())),
        (
            "property".to_owned(),
            Value::from(property_name(request.property)),
        ),
    ];
    if let Some(engine) = request.engine {
        members.push(("engine".to_owned(), Value::from(engine.name())));
    }
    if let Some(budget) = budget_member(request.budget) {
        members.push(budget);
    }
    Value::Obj(members).render()
}

/// Encodes a non-default budget spec as the `budget` member.
fn budget_member(b: BudgetSpec) -> Option<(String, Value)> {
    if b == BudgetSpec::default() {
        return None;
    }
    Some((
        "budget".to_owned(),
        Value::Obj(
            [
                ("timeout_ms", b.timeout_ms),
                ("max_events", b.max_events.map(|n| n as u64)),
                ("max_states", b.max_states.map(|n| n as u64)),
                ("max_solver_steps", b.max_solver_steps),
                ("max_bdd_nodes", b.max_bdd_nodes.map(|n| n as u64)),
            ]
            .into_iter()
            .filter_map(|(k, v)| v.map(|n| (k.to_owned(), Value::from(n))))
            .collect(),
        ),
    ))
}

/// Encodes a `synthesize` request line (the client side of
/// [`decode_request`]).
pub fn encode_synthesize_request(request: &SynthesizeRequest) -> String {
    let mut members = vec![
        ("op".to_owned(), Value::from("synthesize")),
        ("id".to_owned(), Value::from(request.id.as_str())),
        ("stg".to_owned(), Value::from(request.stg_g.as_str())),
    ];
    if let Some(n) = request.max_signals {
        members.push(("max_signals".to_owned(), Value::from(n as u64)));
    }
    if let Some(engine) = request.engine {
        members.push(("engine".to_owned(), Value::from(engine.name())));
    }
    if let Some(budget) = budget_member(request.budget) {
        members.push(budget);
    }
    Value::Obj(members).render()
}

/// The protocol revision stamped on check, synthesize and
/// load-shedding responses. The schema is frozen at this revision:
/// docs/SERVER.md describes it, and clients read no older one.
pub const PROTO_VERSION: u64 = 11;

/// Encodes the verdict response for a completed check.
pub fn encode_check_response(id: &str, stg: &Stg, run: &CheckRun) -> String {
    let (verdict, reason, witness) = match &run.verdict {
        Verdict::Holds => ("holds", Value::Null, Value::Null),
        Verdict::Violated(w) => ("violated", Value::Null, encode_witness(stg, w)),
        Verdict::Unknown(reason) => ("unknown", Value::from(reason_code(reason)), Value::Null),
    };
    Value::Obj(vec![
        ("id".to_owned(), Value::from(id)),
        ("proto".to_owned(), Value::from(PROTO_VERSION)),
        ("status".to_owned(), Value::from("ok")),
        ("verdict".to_owned(), Value::from(verdict)),
        ("reason".to_owned(), reason),
        ("witness".to_owned(), witness),
        ("engine".to_owned(), Value::from(run.report.engine)),
        ("winner".to_owned(), opt(run.report.winner)),
        ("report".to_owned(), encode_report(&run.report)),
    ])
    .render()
}

/// Encodes the revision-6 response for a completed `synthesize` job.
///
/// `Clean`/`Resolved` outcomes are `status: ok` with the resolved
/// `.g` text (for `Resolved`), the inserted signals, the next-state
/// equations, and per-stage report blocks. An `Unresolved` outcome is
/// a `status: error` response with the stable `resolve_failed` code —
/// a *permanent* failure (resubmitting the same net resolves the same
/// way), so clients must not retry it.
pub fn encode_synthesize_response(id: &str, run: &resolve::SynthesisRun) -> String {
    use resolve::PipelineOutcome;
    let stages = Value::Arr(
        run.pipeline
            .report
            .stages
            .iter()
            .map(|s| {
                Value::Obj(vec![
                    ("stage".to_owned(), Value::from(s.stage)),
                    (
                        "elapsed_ms".to_owned(),
                        Value::from(s.elapsed.as_secs_f64() * 1e3),
                    ),
                    ("detail".to_owned(), Value::from(s.detail.as_str())),
                ])
            })
            .collect(),
    );
    let resolve_block = match &run.resolve_report {
        None => Value::Null,
        Some(r) => Value::Obj(vec![
            (
                "initial_conflicts".to_owned(),
                Value::from(r.initial_conflicts as u64),
            ),
            (
                "candidates_tried".to_owned(),
                Value::from(r.candidates_tried as u64),
            ),
            (
                "candidates_broken".to_owned(),
                Value::from(r.candidates_broken as u64),
            ),
            ("rounds".to_owned(), Value::from(r.rounds.len() as u64)),
            ("warm_reuses".to_owned(), Value::from(r.warm_reuses as u64)),
            (
                "verify_prefix_events_built".to_owned(),
                opt(r.verify_prefix_events_built),
            ),
            (
                "resolve_ms".to_owned(),
                Value::from(r.elapsed.as_secs_f64() * 1e3),
            ),
        ]),
    };
    let equations_value = |equations: &[resolve::SignalEquation]| {
        Value::Arr(
            equations
                .iter()
                .map(|e| {
                    Value::Obj(vec![
                        ("signal".to_owned(), Value::from(e.signal.as_str())),
                        ("equation".to_owned(), Value::from(e.equation.as_str())),
                        ("monotonic".to_owned(), Value::from(e.monotonic)),
                    ])
                })
                .collect(),
        )
    };
    match &run.pipeline.outcome {
        PipelineOutcome::Unresolved { remaining, reason } => Value::Obj(vec![
            ("id".to_owned(), Value::from(id)),
            ("proto".to_owned(), Value::from(PROTO_VERSION)),
            ("status".to_owned(), Value::from("error")),
            ("code".to_owned(), Value::from("resolve_failed")),
            (
                "error".to_owned(),
                Value::from(format!("synthesis failed: {reason}").as_str()),
            ),
            ("remaining".to_owned(), opt(remaining.map(|n| n as u64))),
            ("stages".to_owned(), stages),
            ("resolve".to_owned(), resolve_block),
        ])
        .render(),
        PipelineOutcome::Clean { equations } => Value::Obj(vec![
            ("id".to_owned(), Value::from(id)),
            ("proto".to_owned(), Value::from(PROTO_VERSION)),
            ("status".to_owned(), Value::from("ok")),
            ("outcome".to_owned(), Value::from("clean")),
            ("inserted".to_owned(), Value::Arr(Vec::new())),
            ("resolved_g".to_owned(), Value::Null),
            ("equations".to_owned(), equations_value(equations)),
            ("stages".to_owned(), stages),
            ("resolve".to_owned(), resolve_block),
            (
                "recheck_prefix_events_built".to_owned(),
                opt(run.pipeline.report.recheck_prefix_events_built),
            ),
            (
                "elapsed_ms".to_owned(),
                Value::from(run.pipeline.report.elapsed.as_secs_f64() * 1e3),
            ),
        ])
        .render(),
        PipelineOutcome::Resolved {
            stg,
            inserted,
            equations,
        } => Value::Obj(vec![
            ("id".to_owned(), Value::from(id)),
            ("proto".to_owned(), Value::from(PROTO_VERSION)),
            ("status".to_owned(), Value::from("ok")),
            ("outcome".to_owned(), Value::from("resolved")),
            (
                "inserted".to_owned(),
                Value::Arr(inserted.iter().map(|s| Value::from(s.as_str())).collect()),
            ),
            (
                "resolved_g".to_owned(),
                Value::from(stg::to_g_format(stg, "resolved").as_str()),
            ),
            ("equations".to_owned(), equations_value(equations)),
            ("stages".to_owned(), stages),
            ("resolve".to_owned(), resolve_block),
            (
                "recheck_prefix_events_built".to_owned(),
                opt(run.pipeline.report.recheck_prefix_events_built),
            ),
            (
                "elapsed_ms".to_owned(),
                Value::from(run.pipeline.report.elapsed.as_secs_f64() * 1e3),
            ),
        ])
        .render(),
    }
}

/// Encodes an error response (parse failure, engine failure, protocol
/// violation). `id` is `null` when the request never yielded one.
pub fn encode_error_response(id: Option<&str>, message: &str) -> String {
    Value::Obj(vec![
        ("id".to_owned(), opt(id)),
        ("status".to_owned(), Value::from("error")),
        ("error".to_owned(), Value::from(message)),
    ])
    .render()
}

/// Encodes an error response carrying a stable machine-readable
/// `code` (e.g. `queue_full`) alongside the human-readable message,
/// so clients can branch on the code without parsing prose.
pub fn encode_error_response_with_code(id: Option<&str>, code: &str, message: &str) -> String {
    Value::Obj(vec![
        ("id".to_owned(), opt(id)),
        ("status".to_owned(), Value::from("error")),
        ("code".to_owned(), Value::from(code)),
        ("error".to_owned(), Value::from(message)),
    ])
    .render()
}

/// Encodes the revision-4 load-shedding rejection: an error response
/// with a stable code (`queue_full` or `over_quota`) plus a
/// `retry_after_ms` hint sized from the server's observed latency,
/// so backoff-aware clients wait roughly one drain interval instead
/// of guessing.
pub fn encode_overload_response(
    id: Option<&str>,
    code: &str,
    message: &str,
    retry_after_ms: u64,
) -> String {
    Value::Obj(vec![
        ("id".to_owned(), opt(id)),
        ("proto".to_owned(), Value::from(PROTO_VERSION)),
        ("status".to_owned(), Value::from("error")),
        ("code".to_owned(), Value::from(code)),
        ("error".to_owned(), Value::from(message)),
        ("retry_after_ms".to_owned(), Value::from(retry_after_ms)),
    ])
    .render()
}

/// Encodes the revision-3 admission rejection: an error response
/// with the stable `lint_rejected` code plus the lint diagnostics
/// as structured objects, so clients can surface line/column spans
/// without re-linting locally.
pub fn encode_lint_rejected(id: Option<&str>, report: &lint::LintReport) -> String {
    Value::Obj(vec![
        ("id".to_owned(), opt(id)),
        ("status".to_owned(), Value::from("error")),
        ("code".to_owned(), Value::from("lint_rejected")),
        (
            "error".to_owned(),
            Value::from(
                format!(
                    "input rejected by lint: {} error(s), {} warning(s)",
                    report.errors(),
                    report.warnings()
                )
                .as_str(),
            ),
        ),
        (
            "diagnostics".to_owned(),
            Value::Arr(report.diagnostics.iter().map(encode_diagnostic).collect()),
        ),
    ])
    .render()
}

fn encode_diagnostic(d: &lint::Diagnostic) -> Value {
    Value::Obj(vec![
        ("code".to_owned(), Value::from(d.code.to_string().as_str())),
        (
            "severity".to_owned(),
            Value::from(d.severity().to_string().as_str()),
        ),
        (
            "line".to_owned(),
            d.span.map_or(Value::Null, |s| Value::from(s.line as u64)),
        ),
        (
            "col".to_owned(),
            d.span.map_or(Value::Null, |s| Value::from(s.col as u64)),
        ),
        ("object".to_owned(), opt(d.object.as_deref())),
        ("message".to_owned(), Value::from(d.message.as_str())),
    ])
}

/// The stable machine-readable code of an exhaustion reason (the
/// human-readable sentence is available via `Display`).
pub fn reason_code(reason: &ExhaustionReason) -> &'static str {
    match reason {
        ExhaustionReason::Cancelled => "cancelled",
        ExhaustionReason::DeadlineExpired => "deadline-expired",
        ExhaustionReason::EventLimit(_) => "event-limit",
        ExhaustionReason::SolverStepLimit(_) => "solver-step-limit",
        ExhaustionReason::StateLimit(_) => "state-limit",
        ExhaustionReason::BddNodeLimit(_) => "bdd-node-limit",
        ExhaustionReason::Unsupported(_) => "unsupported",
    }
}

fn encode_report(report: &ResourceReport) -> Value {
    Value::Obj(vec![
        (
            "elapsed_ms".to_owned(),
            Value::from(report.elapsed.as_secs_f64() * 1e3),
        ),
        ("prefix_events".to_owned(), opt(report.prefix_events)),
        (
            "prefix_events_built".to_owned(),
            opt(report.prefix_events_built),
        ),
        (
            "prefix_conditions".to_owned(),
            opt(report.prefix_conditions),
        ),
        ("solver_steps".to_owned(), opt(report.solver_steps)),
        ("states".to_owned(), opt(report.states)),
        ("bdd_nodes".to_owned(), opt(report.bdd_nodes)),
        (
            "structure".to_owned(),
            match &report.structure {
                None => Value::Null,
                Some(s) => Value::Obj(vec![
                    ("class".to_owned(), Value::from(s.classes.name())),
                    (
                        "marked_graph".to_owned(),
                        Value::from(s.classes.marked_graph),
                    ),
                    (
                        "state_machine".to_owned(),
                        Value::from(s.classes.state_machine),
                    ),
                    ("free_choice".to_owned(), Value::from(s.classes.free_choice)),
                    (
                        "extended_free_choice".to_owned(),
                        Value::from(s.classes.extended_free_choice),
                    ),
                    (
                        "reduced_asymmetric_choice".to_owned(),
                        Value::from(s.classes.reduced_asymmetric_choice),
                    ),
                    ("exact".to_owned(), Value::from(s.exact)),
                    (
                        "concurrent_place_pairs".to_owned(),
                        Value::from(s.concurrent_place_pairs),
                    ),
                    (
                        "locked_signal_pairs".to_owned(),
                        Value::from(s.locked_signal_pairs),
                    ),
                    ("signal_pairs".to_owned(), Value::from(s.signal_pairs)),
                    ("proved".to_owned(), Value::from(s.proved)),
                ]),
            },
        ),
        (
            "cegar".to_owned(),
            match &report.cegar {
                None => Value::Null,
                Some(stats) => Value::Obj(vec![
                    ("iterations".to_owned(), Value::from(stats.iterations)),
                    ("cuts".to_owned(), Value::from(stats.cuts)),
                    ("branch_nodes".to_owned(), Value::from(stats.branch_nodes)),
                    ("lp_solves".to_owned(), Value::from(stats.lp_solves)),
                    ("targets".to_owned(), Value::from(stats.targets)),
                    (
                        "targets_closed".to_owned(),
                        Value::from(stats.targets_closed),
                    ),
                    (
                        "reduced_places".to_owned(),
                        Value::from(stats.reduced_places),
                    ),
                ]),
            },
        ),
        (
            "unfold".to_owned(),
            match &report.unfold {
                None => Value::Null,
                Some(stats) => Value::Obj(vec![
                    ("pe_discovered".to_owned(), Value::from(stats.pe_discovered)),
                    ("pe_commits".to_owned(), Value::from(stats.pe_commits)),
                ]),
            },
        ),
        (
            "bdd".to_owned(),
            match &report.bdd {
                None => Value::Null,
                Some(stats) => Value::Obj(vec![
                    ("live_nodes".to_owned(), Value::from(stats.live_nodes)),
                    (
                        "peak_live_nodes".to_owned(),
                        Value::from(stats.peak_live_nodes),
                    ),
                    ("gc_runs".to_owned(), Value::from(stats.gc_runs)),
                    (
                        "reorder_passes".to_owned(),
                        Value::from(stats.reorder_passes),
                    ),
                    (
                        "order".to_owned(),
                        Value::Arr(
                            stats
                                .order
                                .iter()
                                .map(|&v| Value::from(u64::from(v)))
                                .collect(),
                        ),
                    ),
                ]),
            },
        ),
    ])
}

/// Serialises a witness uniformly across engines: every violated
/// verdict carries a `kind` plus kind-specific evidence.
fn encode_witness(stg: &Stg, witness: &Witness) -> Value {
    let names = |seq: &[petri::TransitionId]| {
        Value::Arr(
            seq.iter()
                .map(|&t| Value::from(stg.transition_name(t)))
                .collect(),
        )
    };
    match witness {
        Witness::Conflict(w) => Value::Obj(vec![
            (
                "kind".to_owned(),
                Value::from(match w.kind {
                    csc_core::ConflictKind::Usc => "usc-conflict",
                    csc_core::ConflictKind::Csc => "csc-conflict",
                }),
            ),
            ("code".to_owned(), Value::from(w.code.to_string())),
            ("path1".to_owned(), names(&w.sequence1)),
            ("path2".to_owned(), names(&w.sequence2)),
            ("marking1".to_owned(), Value::from(w.marking1.to_string())),
            ("marking2".to_owned(), Value::from(w.marking2.to_string())),
        ]),
        Witness::Normalcy(report) => Value::Obj(vec![
            ("kind".to_owned(), Value::from("normalcy")),
            (
                "violations".to_owned(),
                Value::Arr(
                    report
                        .outcomes
                        .iter()
                        .filter(|o| !o.is_normal())
                        .map(|o| Value::from(stg.signal_name(o.signal)))
                        .collect(),
                ),
            ),
        ]),
        Witness::States(pair) => Value::Obj(vec![
            ("kind".to_owned(), Value::from("states")),
            ("marking1".to_owned(), Value::from(pair.0.to_string())),
            ("marking2".to_owned(), Value::from(pair.1.to_string())),
        ]),
        Witness::Unwitnessed => Value::Obj(vec![("kind".to_owned(), Value::from("unwitnessed"))]),
        // `Witness` is non_exhaustive upstream.
        _ => Value::Obj(vec![("kind".to_owned(), Value::from("other"))]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stg::gen::vme::vme_read;

    #[test]
    fn check_request_round_trips() {
        let request = CheckRequest {
            id: "job-1".to_owned(),
            stg_g: stg::to_g_format(&vme_read(), "vme"),
            property: Property::Csc,
            engine: Some(Engine::Race),
            budget: BudgetSpec {
                timeout_ms: Some(250),
                max_events: Some(1000),
                ..Default::default()
            },
        };
        let line = encode_check_request(&request);
        assert!(!line.contains('\n'), "NDJSON framing");
        let decoded = decode_request(&line).unwrap();
        assert_eq!(decoded, Request::Check(request));
    }

    #[test]
    fn engine_names_round_trip_and_portfolio_is_rejected() {
        for engine in Engine::ALL {
            assert_eq!(engine_from_str(engine.name()), Some(engine));
        }
        assert_eq!(engine_from_str("unfolding"), Some(Engine::UnfoldingIlp));
        assert_eq!(engine_from_str("portfolio"), None);
        let line = r#"{"op":"check","id":"p","stg":"","property":"csc","engine":"portfolio"}"#;
        let err = decode_request(line).unwrap_err();
        let listed = err
            .message
            .split_once('(')
            .and_then(|(_, rest)| rest.strip_suffix(')'))
            .expect("the message lists the engines");
        let names: Vec<&str> = listed.split('|').collect();
        assert_eq!(names, Engine::ALL.map(Engine::name));
    }

    #[test]
    fn synthesize_request_round_trips() {
        let request = SynthesizeRequest {
            id: "syn-1".to_owned(),
            stg_g: stg::to_g_format(&vme_read(), "vme"),
            max_signals: Some(2),
            engine: Some(Engine::UnfoldingIlp),
            budget: BudgetSpec {
                timeout_ms: Some(5000),
                ..Default::default()
            },
        };
        let line = encode_synthesize_request(&request);
        assert!(!line.contains('\n'), "NDJSON framing");
        let decoded = decode_request(&line).unwrap();
        assert_eq!(decoded, Request::Synthesize(request));
    }

    #[test]
    fn synthesize_responses_carry_resolution_and_stage_blocks() {
        let stg = vme_read();
        let run = resolve::synthesize(&stg, &resolve::SynthesisOptions::default(), None).unwrap();
        let line = encode_synthesize_response("syn-2", &run);
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("status").and_then(Value::as_str), Some("ok"));
        assert_eq!(v.get("proto").and_then(Value::as_u64), Some(PROTO_VERSION));
        assert_eq!(v.get("outcome").and_then(Value::as_str), Some("resolved"));
        let inserted = v.get("inserted").expect("inserted present");
        assert!(matches!(inserted, Value::Arr(items) if items.len() == 1));
        // The resolved net round-trips through the wire as .g text.
        let g = v
            .get("resolved_g")
            .and_then(Value::as_str)
            .expect("resolved .g");
        let resolved = stg::parse_bytes(g.as_bytes()).unwrap();
        assert_eq!(resolved.num_signals(), stg.num_signals() + 1);
        let Some(Value::Arr(equations)) = v.get("equations") else {
            panic!("equations present");
        };
        assert!(!equations.is_empty());
        let Some(Value::Arr(stages)) = v.get("stages") else {
            panic!("stages present");
        };
        let names: Vec<_> = stages
            .iter()
            .filter_map(|s| s.get("stage").and_then(Value::as_str))
            .collect();
        assert_eq!(names, ["lint", "check", "resolve", "recheck", "equations"]);
        // Incremental re-verification on the wire: the re-check
        // reused the resolver's prefix.
        assert_eq!(
            v.get("recheck_prefix_events_built").and_then(Value::as_u64),
            Some(0)
        );
        let resolve = v.get("resolve").expect("resolve block present");
        assert!(!resolve.is_null());
        // Revision 11 dropped the guided-generation counters with the
        // guided pre-pass.
        assert!(resolve.get("candidates_generated").is_none());
        assert!(resolve.get("candidates_pruned").is_none());
    }

    #[test]
    fn failed_synthesis_uses_the_stable_resolve_failed_code() {
        let stg = vme_read();
        let options = resolve::SynthesisOptions {
            resolver: resolve::ResolverOptions {
                max_signals: 0,
                ..Default::default()
            },
            ..Default::default()
        };
        let run = resolve::synthesize(&stg, &options, None).unwrap();
        let line = encode_synthesize_response("syn-3", &run);
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("status").and_then(Value::as_str), Some("error"));
        assert_eq!(
            v.get("code").and_then(Value::as_str),
            Some("resolve_failed")
        );
        assert!(v
            .get("remaining")
            .and_then(Value::as_u64)
            .is_some_and(|n| n > 0));
    }

    #[test]
    fn stats_and_shutdown_ops_decode() {
        assert_eq!(decode_request(r#"{"op":"stats"}"#).unwrap(), Request::Stats);
        assert_eq!(
            decode_request(r#"{"op":"shutdown"}"#).unwrap(),
            Request::Shutdown
        );
    }

    #[test]
    fn malformed_requests_keep_the_id_when_present() {
        let err = decode_request(r#"{"op":"check","id":"j7"}"#).unwrap_err();
        assert_eq!(err.id.as_deref(), Some("j7"));
        assert!(err.message.contains("stg"));
        let err = decode_request("not json").unwrap_err();
        assert_eq!(err.id, None);
        let err = decode_request(r#"{"op":"fly"}"#).unwrap_err();
        assert!(err.message.contains("unknown op"));
        let err = decode_request(r#"{"op":"check","id":"x","stg":"","property":"csc","budget":3}"#)
            .unwrap_err();
        assert!(err.message.contains("budget"));
    }

    #[test]
    fn responses_carry_verdict_and_report() {
        let stg = vme_read();
        let run = csc_core::CheckRequest::new(&stg, Property::Csc)
            .engine(Engine::UnfoldingIlp)
            .run()
            .unwrap();
        let line = encode_check_response("j1", &stg, &run);
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("id").and_then(Value::as_str), Some("j1"));
        assert_eq!(v.get("proto").and_then(Value::as_u64), Some(PROTO_VERSION));
        assert_eq!(v.get("verdict").and_then(Value::as_str), Some("violated"));
        let witness = v.get("witness").expect("witness present");
        assert_eq!(
            witness.get("kind").and_then(Value::as_str),
            Some("csc-conflict")
        );
        assert_eq!(witness.get("code").and_then(Value::as_str), Some("10110"));
        assert!(v
            .get("report")
            .and_then(|r| r.get("prefix_events"))
            .and_then(Value::as_u64)
            .is_some());
        // The unfolding engine never touched the symbolic stage, so
        // the revision-2 `bdd` member is present but null.
        assert!(v
            .get("report")
            .and_then(|r| r.get("bdd"))
            .is_some_and(Value::is_null));
        // Revision 9 dropped the `lint` member with the LP stage;
        // revision 10 races two engines; revision 11 drops the
        // resolver's guided-generation counters.
        assert_eq!(PROTO_VERSION, 11);
        assert!(v.get("report").and_then(|r| r.get("lint")).is_none());
    }

    #[test]
    fn symbolic_responses_carry_bdd_manager_stats() {
        let stg = vme_read();
        let run = csc_core::CheckRequest::new(&stg, Property::Csc)
            .engine(Engine::SymbolicBdd)
            .run()
            .unwrap();
        let line = encode_check_response("j9", &stg, &run);
        let v = json::parse(&line).unwrap();
        let bdd = v
            .get("report")
            .and_then(|r| r.get("bdd"))
            .expect("bdd stats present");
        assert!(bdd
            .get("peak_live_nodes")
            .and_then(Value::as_u64)
            .is_some_and(|n| n > 0));
        assert!(bdd
            .get("live_nodes")
            .and_then(Value::as_u64)
            .is_some_and(|n| n > 0));
        assert!(bdd.get("gc_runs").and_then(Value::as_u64).is_some());
        assert!(bdd.get("reorder_passes").and_then(Value::as_u64).is_some());
        let order = bdd.get("order").expect("final variable order present");
        assert!(matches!(order, Value::Arr(vars) if !vars.is_empty()));
    }

    #[test]
    fn cegar_responses_carry_the_revision_5_counter_block() {
        let stg = vme_read();
        let run = csc_core::CheckRequest::new(&stg, Property::Usc)
            .engine(Engine::Cegar)
            .run()
            .unwrap();
        let line = encode_check_response("j10", &stg, &run);
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("engine").and_then(Value::as_str), Some("cegar"));
        // vme_read has a real USC conflict: the engine refutes with a
        // concrete state pair and no prefix or BDD work at all.
        assert_eq!(v.get("verdict").and_then(Value::as_str), Some("violated"));
        let witness = v.get("witness").expect("witness present");
        assert_eq!(witness.get("kind").and_then(Value::as_str), Some("states"));
        let report = v.get("report").expect("report present");
        assert_eq!(
            report.get("prefix_events_built").and_then(Value::as_u64),
            Some(0)
        );
        assert!(report.get("bdd_nodes").is_some_and(Value::is_null));
        let cegar = report.get("cegar").expect("cegar block present");
        assert!(cegar
            .get("iterations")
            .and_then(Value::as_u64)
            .is_some_and(|n| n > 0));
        assert!(cegar.get("cuts").and_then(Value::as_u64).is_some());
        assert!(cegar
            .get("branch_nodes")
            .and_then(Value::as_u64)
            .is_some_and(|n| n > 0));
        assert!(cegar
            .get("targets")
            .and_then(Value::as_u64)
            .is_some_and(|n| n > 0));
    }

    #[test]
    fn unfolding_responses_carry_the_revision_7_counter_block() {
        let stg = vme_read();
        let run = csc_core::CheckRequest::new(&stg, Property::Csc)
            .engine(Engine::UnfoldingIlp)
            .run()
            .unwrap();
        let line = encode_check_response("j12", &stg, &run);
        let v = json::parse(&line).unwrap();
        let report = v.get("report").expect("report present");
        let unfold = report.get("unfold").expect("unfold block present");
        assert!(unfold
            .get("pe_discovered")
            .and_then(Value::as_u64)
            .is_some_and(|n| n > 0));
        assert!(unfold
            .get("pe_commits")
            .and_then(Value::as_u64)
            .is_some_and(|n| n > 0));
        for gone in ["workers", "par_ms", "serial_ms"] {
            assert!(unfold.get(gone).is_none(), "{gone} is no longer sent");
        }
        // Engines that never unfold answer with a null block, so
        // clients need no protocol-version branch.
        let run = csc_core::CheckRequest::new(&stg, Property::Usc)
            .engine(Engine::Cegar)
            .run()
            .unwrap();
        let line = encode_check_response("j13", &stg, &run);
        let v = json::parse(&line).unwrap();
        assert!(v
            .get("report")
            .and_then(|r| r.get("unfold"))
            .is_some_and(Value::is_null));
    }

    #[test]
    fn responses_carry_the_revision_8_structure_block() {
        let stg = vme_read();
        let run = csc_core::CheckRequest::new(&stg, Property::Csc)
            .engine(Engine::UnfoldingIlp)
            .structure(true)
            .run()
            .unwrap();
        let line = encode_check_response("j14", &stg, &run);
        let v = json::parse(&line).unwrap();
        let report = v.get("report").expect("report present");
        let structure = report.get("structure").expect("structure block present");
        assert!(!structure.is_null());
        assert!(structure.get("class").and_then(Value::as_str).is_some());
        for flag in [
            "marked_graph",
            "state_machine",
            "free_choice",
            "extended_free_choice",
            "reduced_asymmetric_choice",
            "exact",
            "proved",
        ] {
            assert!(
                structure.get(flag).and_then(Value::as_bool).is_some(),
                "missing flag {flag}"
            );
        }
        assert!(structure
            .get("concurrent_place_pairs")
            .and_then(Value::as_u64)
            .is_some());
        assert!(structure
            .get("locked_signal_pairs")
            .and_then(Value::as_u64)
            .is_some());
        // Jobs that skip the pass answer with a null block, so
        // clients need no protocol-version branch.
        let run = csc_core::CheckRequest::new(&stg, Property::Csc)
            .engine(Engine::UnfoldingIlp)
            .run()
            .unwrap();
        let line = encode_check_response("j15", &stg, &run);
        let v = json::parse(&line).unwrap();
        assert!(v
            .get("report")
            .and_then(|r| r.get("structure"))
            .is_some_and(Value::is_null));
    }

    #[test]
    fn cegar_reports_normalcy_as_unsupported() {
        let stg = vme_read();
        let run = csc_core::CheckRequest::new(&stg, Property::Normalcy)
            .engine(Engine::Cegar)
            .run()
            .unwrap();
        let line = encode_check_response("j11", &stg, &run);
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("verdict").and_then(Value::as_str), Some("unknown"));
        assert_eq!(v.get("reason").and_then(Value::as_str), Some("unsupported"));
    }

    #[test]
    fn unknown_verdicts_carry_a_reason_code() {
        let stg = vme_read();
        let budget = Budget::unlimited().with_max_events(1);
        let run = csc_core::CheckRequest::new(&stg, Property::Csc)
            .engine(Engine::UnfoldingIlp)
            .budget(budget)
            .run()
            .unwrap();
        let line = encode_check_response("j2", &stg, &run);
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("verdict").and_then(Value::as_str), Some("unknown"));
        assert_eq!(v.get("reason").and_then(Value::as_str), Some("event-limit"));
        assert!(v.get("witness").is_some_and(Value::is_null));
    }

    #[test]
    fn lint_rejections_carry_coded_diagnostics() {
        let outcome = lint::lint_bytes(
            b".model m\n.outputs a\n.graph\nb+ a+\n",
            &lint::LintOptions::default(),
        );
        let line = encode_lint_rejected(Some("j4"), &outcome.report);
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("status").and_then(Value::as_str), Some("error"));
        assert_eq!(v.get("code").and_then(Value::as_str), Some("lint_rejected"));
        let diags = v.get("diagnostics").expect("diagnostics present");
        let Value::Arr(items) = diags else {
            panic!("not an array: {diags:?}")
        };
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].get("code").and_then(Value::as_str), Some("L003"));
        assert_eq!(items[0].get("line").and_then(Value::as_u64), Some(4));
        assert!(items[0]
            .get("message")
            .and_then(Value::as_str)
            .is_some_and(|m| m.contains('b')));
    }

    #[test]
    fn overload_responses_carry_code_and_retry_hint() {
        let line = encode_overload_response(Some("j8"), "queue_full", "queue is full", 120);
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("id").and_then(Value::as_str), Some("j8"));
        assert_eq!(v.get("proto").and_then(Value::as_u64), Some(PROTO_VERSION));
        assert_eq!(v.get("status").and_then(Value::as_str), Some("error"));
        assert_eq!(v.get("code").and_then(Value::as_str), Some("queue_full"));
        assert_eq!(v.get("retry_after_ms").and_then(Value::as_u64), Some(120));
    }

    #[test]
    fn error_responses_echo_the_id() {
        let line = encode_error_response(Some("j3"), "boom: \"quoted\"");
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("id").and_then(Value::as_str), Some("j3"));
        assert_eq!(v.get("status").and_then(Value::as_str), Some("error"));
        assert_eq!(
            v.get("error").and_then(Value::as_str),
            Some("boom: \"quoted\"")
        );
    }
}
