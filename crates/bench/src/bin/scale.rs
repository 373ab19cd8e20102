//! The scalability sweep ("figure" series): pipeline stages vs
//! explicit state count, prefix size, and check times for the
//! explicit and unfolding engines. Demonstrates the paper's core
//! claim — the state space grows exponentially while the prefix and
//! the IP check grow polynomially.
//!
//! Usage: `cargo run --release -p bench-harness --bin scale --
//! [--max N] [--json PATH] [--budget-ms MS] [--budget-bdd-nodes N]
//! [--cache-bench] [--counterflow]`; an unknown flag exits with
//! status 2.
//!
//! With `--budget-ms` each point's unfolding + IP run gets a
//! wall-clock allowance; aborted points are recorded, not fatal.
//!
//! With `--cache-bench` every counterflow width's CSC check is run
//! twice against one artifact cache — cold (set built) and warm (set
//! reused). The warm run of a completed width performs *zero*
//! unfolding work (`warm_events_built = 0`); the comparison lands in
//! the JSON artifact under `"cache_bench"`.
//!
//! With `--counterflow` the sweep also runs the BDD
//! memory-management comparison (symbolic CSC with GC + auto-reorder
//! on vs off, peak live nodes and gc/reorder counters), recorded
//! under `"bdd_bench"`. `--budget-bdd-nodes` caps the live nodes of
//! those runs — under a cap the managed run may complete where the
//! unmanaged one aborts.

use std::env;
use std::fs;
use std::time::Duration;

use bench_harness::{
    run_bdd_bench, run_cache_bench, run_scale, run_scale_counterflow, scale_artifact_json, Budget,
};

/// Every flag `scale` knows, and whether it takes a value.
const FLAGS: [(&str, bool); 6] = [
    ("--max", true),
    ("--json", true),
    ("--budget-ms", true),
    ("--budget-bdd-nodes", true),
    ("--cache-bench", false),
    ("--counterflow", false),
];

/// Exits with status 2 on the first `--flag` not in [`FLAGS`]; the
/// argument after a value-taking flag is its value, not a flag.
fn check_flags(args: &[String]) {
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
            None => {
                eprintln!("scale: unknown flag `{arg}`");
                std::process::exit(2);
            }
        }
    }
}

fn main() {
    let args: Vec<String> = env::args().collect();
    check_flags(&args[1..]);
    let max: usize = args
        .windows(2)
        .find(|w| w[0] == "--max")
        .and_then(|w| w[1].parse().ok())
        .unwrap_or(8);
    let json_path = args
        .windows(2)
        .find(|w| w[0] == "--json")
        .map(|w| w[1].clone());
    let counterflow = args.iter().any(|a| a == "--counterflow");
    let mut budget = match args
        .windows(2)
        .find(|w| w[0] == "--budget-ms")
        .map(|w| w[1].parse::<u64>())
    {
        Some(Ok(ms)) => Budget::unlimited().with_deadline(Duration::from_millis(ms)),
        Some(Err(_)) => {
            eprintln!("--budget-ms expects a number of milliseconds");
            std::process::exit(2);
        }
        None => Budget::unlimited(),
    };
    match args
        .windows(2)
        .find(|w| w[0] == "--budget-bdd-nodes")
        .map(|w| w[1].parse::<usize>())
    {
        Some(Ok(cap)) => budget = budget.with_max_bdd_nodes(cap),
        Some(Err(_)) => {
            eprintln!("--budget-bdd-nodes expects a number of live BDD nodes");
            std::process::exit(2);
        }
        None => {}
    }

    let stages: Vec<usize> = (1..=max).collect();
    let points = if counterflow {
        run_scale_counterflow(&stages, 2, 2_000_000, &budget)
    } else {
        run_scale(&stages, 2_000_000, &budget)
    };

    println!(
        "{:>3} | {:>10} | {:>6} {:>6} | {:>12} {:>12} | outcome",
        "n", "states", "|E|", "|B|", "explicit[ms]", "CLP[ms]"
    );
    println!("{}", "-".repeat(72));
    let opt = |v: Option<usize>| v.map_or_else(|| "-".to_owned(), |v| v.to_string());
    for p in &points {
        println!(
            "{:>3} | {:>10} | {:>6} {:>6} | {:>12} {:>12.2} | {}",
            p.n,
            p.states
                .map(|s| s.to_string())
                .unwrap_or_else(|| ">cap".to_owned()),
            opt(p.events),
            opt(p.conditions),
            p.explicit_ms
                .map(|t| format!("{t:.2}"))
                .unwrap_or_else(|| "skip".to_owned()),
            p.clp_ms,
            p.clp_outcome,
        );
    }

    let cb_points = if args.iter().any(|a| a == "--cache-bench") {
        let widths: Vec<usize> = (1..=max).collect();
        let cb = run_cache_bench(&widths, 2, &budget);
        println!();
        println!(
            "{:>3} | {:>9} {:>9} | {:>7} | {:>10} {:>10}",
            "n", "cold[ms]", "warm[ms]", "speedup", "cold-built", "warm-built"
        );
        println!("{}", "-".repeat(64));
        let opt = |v: Option<usize>| v.map_or_else(|| "-".to_owned(), |v| v.to_string());
        for p in &cb {
            println!(
                "{:>3} | {:>9.2} {:>9.2} | {:>6.2}x | {:>10} {:>10}{}",
                p.n,
                p.cold_ms,
                p.warm_ms,
                p.speedup,
                opt(p.cold_events_built),
                opt(p.warm_events_built),
                if p.verdicts_ok {
                    ""
                } else {
                    " VERDICT MISMATCH"
                },
            );
        }
        cb
    } else {
        Vec::new()
    };

    // The counterflow sweep doubles as the BDD memory-management
    // benchmark: the symbolic engine's peak live nodes with GC +
    // auto-reorder on vs off, verdicts and witnesses identical.
    let bdd_points = if counterflow {
        let bb = run_bdd_bench(&stages, 2, &budget);
        println!();
        println!(
            "{:>3} | {:>12} {:>14} | {:>9} | {:>7} {:>8} | outcome",
            "n", "managed-peak", "unmanaged-peak", "reduction", "gc-runs", "reorders"
        );
        println!("{}", "-".repeat(80));
        let opt = |v: Option<usize>| v.map_or_else(|| "-".to_owned(), |v| v.to_string());
        for p in &bb {
            println!(
                "{:>3} | {:>12} {:>14} | {:>8} | {:>7} {:>8} | {}{}",
                p.n,
                opt(p.managed_peak),
                opt(p.unmanaged_peak),
                p.reduction
                    .map(|r| format!("{r:.2}x"))
                    .unwrap_or_else(|| "-".to_owned()),
                p.gc_runs,
                p.reorder_passes,
                if p.managed_outcome == "completed" && p.unmanaged_outcome == "completed" {
                    "completed"
                } else {
                    "aborted"
                },
                if p.verdicts_ok {
                    ""
                } else {
                    " VERDICT MISMATCH"
                },
            );
        }
        bb
    } else {
        Vec::new()
    };

    if let Some(path) = json_path {
        fs::write(&path, scale_artifact_json(&points, &cb_points, &bdd_points))
            .expect("write json");
        eprintln!("wrote {path}");
    }
}
