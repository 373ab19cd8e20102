//! `stgcheck` — command-line front-end for the coding-conflict
//! checker.
//!
//! ```text
//! stgcheck lint <file.g> [--format json] [--no-lp]   static analysis + LP proofs
//! stgcheck structure <file.g> [--format json]   net classes + concurrency + locks
//! stgcheck info <file.g>                     structural stats + consistency
//! stgcheck unfold <file.g> [--dot]          prefix stats (optionally DOT)
//! stgcheck usc <file.g> [--engine E]         Unique State Coding check
//! stgcheck csc <file.g> [--engine E]         Complete State Coding check
//! stgcheck check <file.g> [--engine E]       usc + csc + normalcy, shared artifacts
//! stgcheck normalcy <file.g>                 p/n-normalcy per output signal
//! stgcheck deadlock <file.g>                 deadlock search (§5)
//! stgcheck report <file.g>                   full battery, one summary
//! stgcheck synth <file.g>                    next-state equations (needs CSC)
//! stgcheck synthesize <file.g> [--to-g]      full pipeline: lint -> check -> resolve
//!                                            -> re-check -> equations
//! stgcheck dot <file.g>                      STG as Graphviz DOT
//! stgcheck gen <family> [params] [--to-g]    emit a benchmark model
//! ```
//!
//! Engines: `unfolding` (default; also `unfolding-ilp`), `explicit`,
//! `symbolic`, `cegar`, `race` (the service's ordered schedule:
//! structure, then the paper's engine under caps, then a race of the
//! paper's engine against `explicit`). The `usc`/`csc` commands also
//! accept budget flags: `--timeout-ms N` (wall-clock deadline) and
//! `--max-events N` (unfolding cap); an exhausted budget yields exit
//! code 3. A conflict found by the paper's engine prints its witness
//! paths under any budget and engine; a conflict found by another
//! engine prints `CONFLICT`.
//!
//! With `--server HOST:PORT` the `usc`/`csc`/`synthesize` commands
//! ship the job to a running `stgd` instead of working in-process;
//! the engine default is then the server's (`race`).
//!
//! The `synthesize` command runs the whole synthesis pipeline of
//! `resolve::synthesize`: lint gate, CSC check, state-signal
//! insertion when conflicted, a warm re-check of the resolution over
//! the resolver's own artifacts, and next-state equation derivation.
//! `--max-signals N` caps the insertions; `--to-g` prints the
//! resolved net instead of the human summary so the output can be
//! piped back into other commands.
//!
//! The `check` command runs all three coding properties (USC, CSC,
//! normalcy) over *one* shared artifact set: the unfolding prefix,
//! state graph and symbolic encoding are built at most once and
//! reused by every property, so the second and third checks report
//! `prefix built` work of 0.
//!
//! The `lint` command never explores the state space: it classifies
//! parse failures into stable coded diagnostics with line:col spans,
//! runs the structural well-formedness checks, and attempts the
//! semiflow and LP-relaxation proofs (`--no-lp` skips the LPs;
//! `--timeout-ms N` bounds the proofs, which then report
//! `[LP abstained]`). Exit code 2 when any error-severity diagnostic
//! fires, 0 otherwise.
//!
//! The `structure` command runs the purely structural net-class pass:
//! marked-graph / state-machine / free-choice / extended-free-choice /
//! reduced-asymmetric-choice membership (each refutation an `I0xx`
//! informational diagnostic with a witnessing span), the
//! Kovalyov–Esparza structural concurrency relation (exact for live
//! free-choice nets, a sound over-approximation otherwise), and the
//! signal lock-relation graph. No state space is explored. Exit code
//! 2 only when the input fails to parse, 0 otherwise.
//!
//! An unknown `--flag` is a usage error.
//!
//! Exit codes: 0 = property holds / ok, 1 = conflict found, 2 = usage
//! or processing error, 3 = inconclusive (budget exhausted). When the
//! reader of stdout goes away (`stgcheck report x.g | head -1`), the
//! process ends on `SIGPIPE`, quietly, like any Unix filter.

use std::fs;
use std::process::ExitCode;
use std::time::Duration;

use stg_coding_conflicts::csc_core::{
    Artifacts, Budget, CheckRequest, Checker, Engine, Property, ResourceReport, Verdict, Witness,
};
use stg_coding_conflicts::lint;
use stg_coding_conflicts::server::protocol::{engine_from_str, engine_names, BudgetSpec};
use stg_coding_conflicts::server::{Client, RetryPolicy};
use stg_coding_conflicts::stg::{self, Stg};
use stg_coding_conflicts::unfolding::{self, Prefix, UnfoldOptions};

/// Restores the default action of `SIGPIPE`, which the Rust runtime
/// sets to "ignore": `println!` would then panic, with a backtrace, as
/// soon as the reader of stdout goes away. Sockets are unaffected: the
/// standard library sends on them without raising the signal.
#[cfg(unix)]
fn restore_sigpipe() {
    // Hand-rolled signal(2) binding, as in `stgd`.
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGPIPE: i32 = 13;
    const SIG_DFL: usize = 0;
    // SAFETY: `signal` reads only its two integer arguments; `SIG_DFL`
    // is a valid disposition for `SIGPIPE`, and no other thread is
    // running yet to race on it.
    unsafe {
        signal(SIGPIPE, SIG_DFL);
    }
}

#[cfg(not(unix))]
fn restore_sigpipe() {}

fn main() -> ExitCode {
    restore_sigpipe();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => ExitCode::from(code),
        Err(msg) => {
            eprintln!("stgcheck: {msg}");
            ExitCode::from(2)
        }
    }
}

fn usage() -> String {
    format!(
        "usage: stgcheck <lint|structure|info|unfold|usc|csc|check|normalcy|deadlock|report|synth|\
         synthesize|dot|gen> ... \
         [--engine {}] [--timeout-ms N] [--max-events N] \
         [--max-signals N] [--server HOST:PORT] [--format human|json] \
         [--no-lp] [--to-g]",
        engine_names()
    )
}

/// Every flag `stgcheck` knows, and whether it takes a value.
const FLAGS: [(&str, bool); 10] = [
    ("--engine", true),
    ("--timeout-ms", true),
    ("--max-events", true),
    ("--max-signals", true),
    ("--server", true),
    ("--format", true),
    ("--no-lp", false),
    ("--to-g", false),
    ("--dot", false),
    ("--resolved", false),
];

/// Rejects the first `--flag` not in [`FLAGS`]; the argument after a
/// value-taking flag is its value, not a flag.
fn check_flags(args: &[String]) -> Result<(), String> {
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        if !arg.starts_with("--") {
            continue;
        }
        match FLAGS.iter().find(|(name, _)| name == arg) {
            Some((_, true)) => {
                rest.next();
            }
            Some((_, false)) => {}
            None => return Err(format!("unknown flag `{arg}`")),
        }
    }
    Ok(())
}

/// Returns the process exit code (0 ok, 1 conflict, 3 inconclusive).
fn run(args: &[String]) -> Result<u8, String> {
    let Some(command) = args.first() else {
        return Err(usage());
    };
    if command == "--help" || command == "-h" {
        println!("{}", usage());
        return Ok(0);
    }
    check_flags(&args[1..])?;
    if command == "gen" {
        return generate(&args[1..]).map(exit_code);
    }
    let path = args.get(1).ok_or_else(usage)?;
    let source = fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    if command == "lint" {
        // Lint consumes the raw bytes itself so even unparsable input
        // gets a coded, spanned diagnostic instead of a bare error.
        return lint_cmd(path, &source, &args[2..]);
    }
    if command == "structure" {
        // Same raw-bytes discipline: parse failures become coded
        // diagnostics, and the I0xx spans point into the source.
        return structure_cmd(path, &source, &args[2..]);
    }
    let model = stg::parse_bytes(&source).map_err(|e| format!("{path}: {e}"))?;
    let flags = &args[2..];
    match command.as_str() {
        "info" => info(&model).map(exit_code),
        "unfold" => unfold(&model, flags).map(exit_code),
        "usc" => coding(&model, Property::Usc, flags),
        "csc" => coding(&model, Property::Csc, flags),
        "check" => check_all(&model, flags),
        "normalcy" => normalcy(&model).map(exit_code),
        "deadlock" => deadlock(&model).map(exit_code),
        "report" => {
            let report = Checker::analyse_stg(&model).map_err(|e| e.to_string())?;
            print!("{report}");
            Ok(exit_code(!report.is_implementable_with_monotonic_gates()))
        }
        "synth" => synth_equations(&model).map(exit_code),
        "synthesize" => synthesize_cmd(&model, flags),
        "dot" => {
            print!("{}", stg::dot::to_dot(&model, "stg"));
            Ok(0)
        }
        other => Err(format!("unknown command `{other}`; {}", usage())),
    }
}

fn exit_code(conflict: bool) -> u8 {
    u8::from(conflict)
}

/// Parses `--format human|json`; `true` for JSON.
fn json_format(flags: &[String]) -> Result<bool, String> {
    match flags.iter().position(|f| f == "--format") {
        None => Ok(false),
        Some(i) => match flags.get(i + 1).map(String::as_str) {
            Some("json") => Ok(true),
            Some("human") => Ok(false),
            other => Err(format!(
                "bad --format {} (human|json)",
                other.unwrap_or("<missing>")
            )),
        },
    }
}

/// `stgcheck lint`: the full static pass, no state-space exploration.
fn lint_cmd(path: &str, source: &[u8], flags: &[String]) -> Result<u8, String> {
    let json = json_format(flags)?;
    let lp = !flags.iter().any(|f| f == "--no-lp");
    // `--timeout-ms` bounds the proofs: at the deadline the semiflow
    // pass and the LPs abstain instead of running on.
    let options = lint::LintOptions {
        lp,
        lp_options: lint::LpOptions {
            guard: budget_flags(flags)?.guard(),
            ..Default::default()
        },
    };
    let mut outcome = lint::lint_bytes(source, &options);
    if let (false, Some(stg)) = (lp, &outcome.stg) {
        // Without the LPs the pass proves nothing; `--no-lp` still
        // reports the semiflow safeness proof.
        outcome.report.proofs = lint::relaxation_proofs(stg, false, &options.lp_options);
    }
    if json {
        print!("{}", outcome.report.to_json());
    } else {
        print!("{}", outcome.report.render_human(path));
    }
    Ok(if outcome.report.has_errors() { 2 } else { 0 })
}

/// `stgcheck structure`: net classes, structural concurrency and the
/// signal lock relation — purely structural, no state space.
fn structure_cmd(path: &str, source: &[u8], flags: &[String]) -> Result<u8, String> {
    let json = json_format(flags)?;
    match lint::structure_bytes(source) {
        Ok(report) if json => print!("{}", report.to_json()),
        Ok(report) => print!("{}", report.render_human(path)),
        Err(diagnostic) => {
            eprint!("{}", lint::render_diagnostics(path, &[diagnostic]));
            return Ok(2);
        }
    }
    Ok(0)
}

/// Parses `--engine NAME`; `None` when the flag is absent (the local
/// default is unfolding, the server default is `race`).
fn engine_flag(flags: &[String]) -> Result<Option<Engine>, String> {
    match flags.iter().position(|f| f == "--engine") {
        None => Ok(None),
        Some(i) => flags
            .get(i + 1)
            .and_then(|name| engine_from_str(name))
            .map(Some)
            .ok_or_else(|| {
                format!(
                    "bad --engine {} ({})",
                    flags.get(i + 1).map_or("<missing>", String::as_str),
                    engine_names()
                )
            }),
    }
}

/// Parses `--server HOST:PORT`.
fn server_flag(flags: &[String]) -> Result<Option<String>, String> {
    match flags.iter().position(|f| f == "--server") {
        None => Ok(None),
        Some(i) => flags
            .get(i + 1)
            .map(|a| Some(a.clone()))
            .ok_or_else(|| "--server needs a HOST:PORT argument".to_owned()),
    }
}

/// Parses `--timeout-ms N` / `--max-events N` into a [`Budget`].
fn budget_flags(flags: &[String]) -> Result<Budget, String> {
    let mut budget = Budget::unlimited();
    if let Some(ms) = numeric_flag(flags, "--timeout-ms")? {
        budget = budget.with_deadline(Duration::from_millis(ms as u64));
    }
    if let Some(n) = numeric_flag(flags, "--max-events")? {
        budget = budget.with_max_events(n);
    }
    Ok(budget)
}

fn info(model: &Stg) -> Result<bool, String> {
    println!(
        "places: {}, transitions: {}, signals: {} ({} inputs)",
        model.net().num_places(),
        model.net().num_transitions(),
        model.num_signals(),
        model
            .signals()
            .filter(|&z| !model.signal_kind(z).is_local())
            .count()
    );
    println!("initial code: {}", model.initial_code());
    let checker = Checker::new(model).map_err(|e| e.to_string())?;
    let consistency = checker.check_consistency().map_err(|e| e.to_string())?;
    println!("consistent: {}", consistency.is_consistent());
    if consistency.is_consistent() {
        if let Ok(sg) = stg::StateGraph::build(model, Default::default()) {
            println!("output persistent: {}", sg.is_output_persistent(model));
        }
    }
    Ok(!consistency.is_consistent())
}

fn unfold(model: &Stg, flags: &[String]) -> Result<bool, String> {
    let prefix = Prefix::of_stg(model, UnfoldOptions::new()).map_err(|e| e.to_string())?;
    if flags.iter().any(|f| f == "--dot") {
        print!("{}", unfolding::dot::to_dot(&prefix, model, "prefix"));
    } else {
        println!(
            "|B| = {}, |E| = {}, |E_cut| = {}",
            prefix.num_conditions(),
            prefix.num_events(),
            prefix.num_cutoffs()
        );
    }
    Ok(false)
}

fn coding(model: &Stg, property: Property, flags: &[String]) -> Result<u8, String> {
    if let Some(addr) = server_flag(flags)? {
        return remote_coding(&addr, model, property, flags);
    }
    let engine = engine_flag(flags)?.unwrap_or(Engine::UnfoldingIlp);
    let budget = budget_flags(flags)?;
    let run = request(model, property, engine, budget)
        .run()
        .map_err(|e| e.to_string())?;
    let code = match run.verdict {
        Verdict::Holds => {
            println!("{property:?}: satisfied");
            0
        }
        Verdict::Violated(Witness::Conflict(w)) => {
            println!("{}", w.describe(model));
            1
        }
        Verdict::Violated(_) => {
            println!("{property:?}: CONFLICT");
            1
        }
        Verdict::Unknown(reason) => {
            println!(
                "{property:?}: UNKNOWN ({reason}) after {:?} [engine {}]",
                run.report.elapsed, run.report.engine
            );
            3
        }
    };
    print_engine_stats(&run.report);
    Ok(code)
}

/// An in-process check request. Under `race` it runs the schedule
/// `stgd` serves: the structure pass is on.
fn request(model: &Stg, property: Property, engine: Engine, budget: Budget) -> CheckRequest<'_> {
    let served = engine == Engine::Race;
    CheckRequest::new(model, property)
        .engine(engine)
        .budget(budget)
        .structure(served)
}

/// Prints what a run recorded: the stage that answered, when the
/// report names one; the BDD manager's counters when it touched the
/// symbolic stage (peak/live nodes, collections, sifting passes); and
/// CEGAR's when the state-equation engine ran.
fn print_engine_stats(report: &ResourceReport) {
    if let Some(winner) = report.winner {
        println!("  winner: {winner}");
    }
    if let Some(stats) = &report.bdd {
        println!(
            "  bdd: {} peak live nodes ({} live at end), {} gc run(s), {} reorder pass(es)",
            stats.peak_live_nodes, stats.live_nodes, stats.gc_runs, stats.reorder_passes
        );
    }
    if let Some(stats) = &report.cegar {
        println!(
            "  cegar: {} refinement(s), {} cut(s), {} branch node(s) over {} LP solve(s), \
             {}/{} target(s) closed, {} place(s) reduced away",
            stats.iterations,
            stats.cuts,
            stats.branch_nodes,
            stats.lp_solves,
            stats.targets_closed,
            stats.targets,
            stats.reduced_places
        );
    }
}

/// Checks USC, CSC and normalcy over one shared [`Artifacts`] set, so
/// the unfolding prefix / state graph / symbolic encoding are each
/// built at most once across all three properties.
fn check_all(model: &Stg, flags: &[String]) -> Result<u8, String> {
    let engine = engine_flag(flags)?.unwrap_or(Engine::UnfoldingIlp);
    let budget = budget_flags(flags)?;
    let artifacts = Artifacts::of(model);
    let mut worst = 0u8;
    for property in [Property::Usc, Property::Csc, Property::Normalcy] {
        let run = request(model, property, engine, budget.clone())
            .artifacts(&artifacts)
            .run()
            .map_err(|e| e.to_string())?;
        let built = run
            .report
            .prefix_events_built
            .map_or(String::new(), |n| format!(", prefix built {n}"));
        let code = match run.verdict {
            Verdict::Holds => {
                println!("{property:?}: satisfied [{:?}{built}]", run.report.elapsed);
                0
            }
            Verdict::Violated(_) => {
                println!("{property:?}: CONFLICT [{:?}{built}]", run.report.elapsed);
                1
            }
            Verdict::Unknown(reason) => {
                println!(
                    "{property:?}: UNKNOWN ({reason}) [{:?}{built}]",
                    run.report.elapsed
                );
                3
            }
        };
        print_engine_stats(&run.report);
        // Conflicts dominate inconclusive results, which dominate ok.
        worst = match (worst, code) {
            (1, _) | (_, 1) => 1,
            (3, _) | (_, 3) => 3,
            _ => worst.max(code),
        };
    }
    Ok(worst)
}

/// Ships the check to a running `stgd` and reports its verdict with
/// the usual exit-code mapping.
fn remote_coding(
    addr: &str,
    model: &Stg,
    property: Property,
    flags: &[String],
) -> Result<u8, String> {
    let engine = engine_flag(flags)?;
    let budget = budget_flags(flags)?;
    let spec = BudgetSpec {
        timeout_ms: budget.deadline.map(|d| d.as_millis() as u64),
        max_events: budget.max_events,
        ..Default::default()
    };
    let mut client = Client::connect(addr).map_err(|e| format!("{addr}: {e}"))?;
    // Retry transient failures (load shedding, a crashed worker, a
    // dropped connection) with backoff; check jobs are idempotent.
    let response = client
        .check_with_retry(
            "stgcheck",
            &stg::to_g_format(model, "stgcheck"),
            property,
            engine,
            spec,
            &RetryPolicy::default(),
        )
        .map_err(|e| format!("{addr}: {e}"))?;
    if response.status == "error" {
        return Err(response
            .error
            .unwrap_or_else(|| "unspecified server error".to_owned()));
    }
    let ran = match (response.engine.as_deref(), response.winner.as_deref()) {
        (Some(engine), Some(winner)) => format!("engine {engine}, won by {winner}"),
        (Some(engine), None) => format!("engine {engine}"),
        _ => "engine ?".to_owned(),
    };
    match response.verdict.as_deref() {
        Some("holds") => {
            println!("{property:?}: satisfied [server {addr}, {ran}]");
            Ok(0)
        }
        Some("violated") => {
            println!("{property:?}: CONFLICT [server {addr}, {ran}]");
            Ok(1)
        }
        Some("unknown") => {
            println!(
                "{property:?}: UNKNOWN ({}) [server {addr}, {ran}]",
                response.reason.as_deref().unwrap_or("unspecified")
            );
            Ok(3)
        }
        other => Err(format!(
            "malformed server verdict {:?} in response",
            other.unwrap_or("<missing>")
        )),
    }
}

fn normalcy(model: &Stg) -> Result<bool, String> {
    let checker = Checker::new(model).map_err(|e| e.to_string())?;
    let report = checker.check_normalcy().map_err(|e| e.to_string())?;
    for o in &report.outcomes {
        println!(
            "{}: p-normal = {}, n-normal = {} => {}",
            model.signal_name(o.signal),
            o.p_normal,
            o.n_normal,
            if o.is_normal() {
                "normal"
            } else {
                "NOT normal"
            }
        );
    }
    Ok(!report.is_normal())
}

fn deadlock(model: &Stg) -> Result<bool, String> {
    let checker = Checker::new(model).map_err(|e| e.to_string())?;
    match checker.find_deadlock().map_err(|e| e.to_string())? {
        None => {
            println!("deadlock-free");
            Ok(false)
        }
        Some(w) => {
            let names: Vec<&str> = w
                .sequence
                .iter()
                .map(|&t| model.transition_name(t))
                .collect();
            println!("deadlock after: {}", names.join(" "));
            Ok(true)
        }
    }
}

fn synth_equations(model: &Stg) -> Result<bool, String> {
    use stg_coding_conflicts::synth::NextStateFunctions;
    let mut fns =
        NextStateFunctions::derive(model, Default::default()).map_err(|e| e.to_string())?;
    let signals: Vec<_> = fns.signals().collect();
    let mut all_monotonic = true;
    for z in signals {
        let eq = fns.equation(z);
        let monotonic = fns.is_monotonic(z);
        all_monotonic &= monotonic;
        println!(
            "{eq}{}",
            if monotonic {
                ""
            } else {
                "   # not monotonic (needs input inverter)"
            }
        );
    }
    Ok(!all_monotonic)
}

/// Parses an optional `--<name> N` numeric flag.
fn numeric_flag(flags: &[String], name: &str) -> Result<Option<usize>, String> {
    match flags.iter().position(|f| f == name) {
        None => Ok(None),
        Some(i) => flags
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .map(Some)
            .ok_or_else(|| format!("{name} needs a numeric argument")),
    }
}

/// `stgcheck synthesize`: the full pipeline, locally or via `stgd`.
fn synthesize_cmd(model: &Stg, flags: &[String]) -> Result<u8, String> {
    if let Some(addr) = server_flag(flags)? {
        return remote_synthesize(&addr, model, flags);
    }
    use stg_coding_conflicts::resolve::PipelineOutcome;
    use stg_coding_conflicts::resolve::{synthesize, SynthesisOptions};
    let mut options = SynthesisOptions::default();
    if let Some(engine) = engine_flag(flags)? {
        options.engine = engine;
    }
    options.resolver.budget = budget_flags(flags)?;
    if let Some(n) = numeric_flag(flags, "--max-signals")? {
        options.resolver.max_signals = n;
    }
    let to_g = flags.iter().any(|f| f == "--to-g");
    let run = synthesize(model, &options, None).map_err(|e| e.to_string())?;
    if !to_g {
        for stage in &run.pipeline.report.stages {
            println!(
                "{:<9} {:>9.1?}  {}",
                stage.stage, stage.elapsed, stage.detail
            );
        }
        if let Some(r) = &run.resolve_report {
            println!(
                "resolve candidates: {} tried, {} broken",
                r.candidates_tried, r.candidates_broken
            );
        }
        if let Some(built) = run.pipeline.report.recheck_prefix_events_built {
            println!("recheck prefix events built: {built} (warm when 0)");
        }
    }
    let equations = |eqs: &[stg_coding_conflicts::resolve::SignalEquation]| {
        for eq in eqs {
            println!(
                "{}{}",
                eq.equation,
                if eq.monotonic {
                    ""
                } else {
                    "   # not monotonic (needs input inverter)"
                }
            );
        }
    };
    match &run.pipeline.outcome {
        PipelineOutcome::Clean { equations: eqs } => {
            if to_g {
                print!("{}", stg::to_g_format(model, "resolved"));
            } else {
                println!("already conflict-free; no state signals needed");
                equations(eqs);
            }
            Ok(0)
        }
        PipelineOutcome::Resolved {
            stg: fixed,
            inserted,
            equations: eqs,
        } => {
            if to_g {
                print!("{}", stg::to_g_format(fixed, "resolved"));
            } else {
                println!(
                    "resolved with {} state signal(s): {}",
                    inserted.len(),
                    inserted.join(", ")
                );
                equations(eqs);
            }
            Ok(0)
        }
        PipelineOutcome::Unresolved { remaining, reason } => {
            match remaining {
                Some(n) => println!("synthesis failed: {reason} ({n} conflict pair(s) remain)"),
                None => println!("synthesis failed: {reason}"),
            }
            Ok(1)
        }
    }
}

/// Ships the synthesis to a running `stgd`.
fn remote_synthesize(addr: &str, model: &Stg, flags: &[String]) -> Result<u8, String> {
    let engine = engine_flag(flags)?;
    let budget = budget_flags(flags)?;
    let spec = BudgetSpec {
        timeout_ms: budget.deadline.map(|d| d.as_millis() as u64),
        max_events: budget.max_events,
        ..Default::default()
    };
    let max_signals = numeric_flag(flags, "--max-signals")?;
    let to_g = flags.iter().any(|f| f == "--to-g");
    let mut client = Client::connect(addr).map_err(|e| format!("{addr}: {e}"))?;
    let response = client
        .synthesize_with_retry(
            "stgcheck",
            &stg::to_g_format(model, "stgcheck"),
            max_signals,
            engine,
            spec,
            &RetryPolicy::default(),
        )
        .map_err(|e| format!("{addr}: {e}"))?;
    if response.status == "error" {
        let message = response
            .error
            .as_deref()
            .unwrap_or("unspecified server error");
        // A permanent resolution failure is a verdict (exit 1), not a
        // processing error.
        if response.code.as_deref() == Some("resolve_failed") {
            println!("synthesis failed: {message} [server {addr}]");
            return Ok(1);
        }
        return Err(message.to_owned());
    }
    match response.outcome.as_deref() {
        Some("clean") => {
            if to_g {
                print!("{}", stg::to_g_format(model, "resolved"));
            } else {
                println!("already conflict-free; no state signals needed [server {addr}]");
            }
            Ok(0)
        }
        Some("resolved") => {
            let resolved_g = response
                .resolved_g
                .as_deref()
                .ok_or("server response lacks the resolved net")?;
            if to_g {
                print!("{resolved_g}");
            } else {
                println!(
                    "resolved with {} state signal(s): {} [server {addr}]",
                    response.inserted.len(),
                    response.inserted.join(", ")
                );
            }
            Ok(0)
        }
        other => Err(format!(
            "malformed server outcome {:?} in response",
            other.unwrap_or("<missing>")
        )),
    }
}

fn generate(args: &[String]) -> Result<bool, String> {
    let family = args.first().ok_or("gen: missing family (vme|vme-csc|vme-master|lazy-ring|eager-ring|dup|dup-mod|cf-sym|cf-asym|pipeline|arbiter)")?;
    let num = |i: usize, default: usize| -> usize {
        args.get(i).and_then(|a| a.parse().ok()).unwrap_or(default)
    };
    let model = match family.as_str() {
        "vme" => stg::gen::vme::vme_read(),
        "vme-csc" => stg::gen::vme::vme_read_csc_resolved(),
        "vme-master" => stg::gen::vme::vme_master(),
        "lazy-ring" => stg::gen::ring::lazy_ring(num(1, 3)),
        "eager-ring" => stg::gen::ring::eager_ring(num(1, 3)),
        "dup" => stg::gen::duplex::dup_4ph(num(1, 2), args.contains(&"--resolved".to_owned())),
        "dup-mod" => stg::gen::duplex::dup_mod(num(1, 2)),
        "cf-sym" => stg::gen::counterflow::counterflow_sym(num(1, 2), num(2, 2)),
        "cf-asym" => stg::gen::counterflow::counterflow_asym(num(1, 2), num(2, 2)),
        "pipeline" => stg::gen::pipeline::muller_pipeline(num(1, 3)),
        "arbiter" => stg::gen::arbiter::mutex_arbiter(num(1, 2)),
        other => return Err(format!("gen: unknown family `{other}`")),
    };
    print!("{}", stg::to_g_format(&model, family));
    Ok(false)
}
