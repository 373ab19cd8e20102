//! `stgd` — the STG verification service daemon.
//!
//! ```text
//! stgd [--addr HOST:PORT] [--workers N] [--engine NAME] [--timeout-ms MS]
//!      [--max-queue N] [--client-quota N] [--write-timeout-ms MS]
//!      [--response-buffer N] [--hung-job-ms MS] [--cache-entries N]
//! ```
//!
//! Prints `listening on ADDR` once the socket is bound (port 0 is
//! resolved, so scripts can parse the line), then serves until a
//! client sends `{"op":"shutdown"}` or the process receives
//! SIGTERM/SIGINT, at which point in-flight jobs are drained and
//! answered before exit.

use std::io::Write;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use server::protocol::{engine_from_str, engine_names};
use server::{spawn, ServerConfig};

/// Set from the signal handler; polled by the main loop.
static TERMINATE: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
fn install_signal_handlers() {
    // Hand-rolled signal(2) binding: the handler only flips an
    // AtomicBool, which is async-signal-safe.
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    extern "C" fn on_terminate(_signum: i32) {
        TERMINATE.store(true, Ordering::Relaxed);
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_terminate);
        signal(SIGINT, on_terminate);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

fn usage() -> ! {
    eprintln!(
        "usage: stgd [--addr HOST:PORT] [--workers N] [--engine NAME] [--timeout-ms MS]\n\
         \u{20}           [--max-queue N] [--client-quota N] [--write-timeout-ms MS]\n\
         \u{20}           [--response-buffer N] [--hung-job-ms MS] [--cache-entries N]\n\
         \n\
         --addr HOST:PORT      listen address (default 127.0.0.1:7570; port 0 = ephemeral)\n\
         --workers N           worker threads (default 4)\n\
         --engine NAME         default engine: {}\n\
         \u{20}                     (default race)\n\
         --timeout-ms MS       default per-job wall-clock budget when a job sets none\n\
         --max-queue N         reject checks beyond N queued jobs with the `queue_full`\n\
         \u{20}                     error code (default 1024; 0 means unbounded)\n\
         --client-quota N      reject checks beyond N queued jobs per client with the\n\
         \u{20}                     `over_quota` error code (default none; 0 means none)\n\
         --write-timeout-ms MS patience for a stalled client before its connection is\n\
         \u{20}                     dropped (default 10000; 0 disables the timeout)\n\
         --response-buffer N   per-connection response lines buffered for the writer\n\
         \u{20}                     (default 1024)\n\
         --hung-job-ms MS      watchdog bound: cancel any job executing longer than MS\n\
         \u{20}                     (default off; 0 also means off)\n\
         --cache-entries N     artifact-cache capacity in resident STGs (default 64;\n\
         \u{20}                     0 disables caching)",
        engine_names()
    );
    std::process::exit(2);
}

fn parse_args() -> ServerConfig {
    let mut config = ServerConfig {
        addr: "127.0.0.1:7570".to_owned(),
        ..Default::default()
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| match args.next() {
            Some(v) => v,
            None => {
                eprintln!("stgd: {name} needs a value");
                usage();
            }
        };
        match arg.as_str() {
            "--addr" => config.addr = value("--addr"),
            "--workers" => match value("--workers").parse::<usize>() {
                Ok(n) if n > 0 => config.workers = n,
                _ => {
                    eprintln!("stgd: --workers needs a positive integer");
                    usage();
                }
            },
            "--engine" => {
                let name = value("--engine");
                match engine_from_str(&name) {
                    Some(engine) => config.default_engine = engine,
                    None => {
                        eprintln!("stgd: unknown engine `{name}`");
                        usage();
                    }
                }
            }
            "--timeout-ms" => match value("--timeout-ms").parse::<u64>() {
                Ok(ms) => config.default_timeout_ms = Some(ms),
                Err(_) => {
                    eprintln!("stgd: --timeout-ms needs an integer");
                    usage();
                }
            },
            "--max-queue" => match value("--max-queue").parse::<usize>() {
                Ok(0) => config.max_queue = None,
                Ok(n) => config.max_queue = Some(n),
                Err(_) => {
                    eprintln!("stgd: --max-queue needs a non-negative integer");
                    usage();
                }
            },
            "--client-quota" => match value("--client-quota").parse::<usize>() {
                Ok(0) => config.client_quota = None,
                Ok(n) => config.client_quota = Some(n),
                Err(_) => {
                    eprintln!("stgd: --client-quota needs a non-negative integer");
                    usage();
                }
            },
            "--write-timeout-ms" => match value("--write-timeout-ms").parse::<u64>() {
                Ok(0) => config.write_timeout_ms = None,
                Ok(ms) => config.write_timeout_ms = Some(ms),
                Err(_) => {
                    eprintln!("stgd: --write-timeout-ms needs a non-negative integer");
                    usage();
                }
            },
            "--response-buffer" => match value("--response-buffer").parse::<usize>() {
                Ok(n) if n > 0 => config.response_buffer = n,
                _ => {
                    eprintln!("stgd: --response-buffer needs a positive integer");
                    usage();
                }
            },
            "--hung-job-ms" => match value("--hung-job-ms").parse::<u64>() {
                Ok(0) => config.hung_job_ms = None,
                Ok(ms) => config.hung_job_ms = Some(ms),
                Err(_) => {
                    eprintln!("stgd: --hung-job-ms needs a non-negative integer");
                    usage();
                }
            },
            "--cache-entries" => match value("--cache-entries").parse::<usize>() {
                Ok(n) => config.cache_entries = n,
                Err(_) => {
                    eprintln!("stgd: --cache-entries needs a non-negative integer");
                    usage();
                }
            },
            "--help" | "-h" => usage(),
            other => {
                eprintln!("stgd: unknown flag `{other}`");
                usage();
            }
        }
    }
    config
}

fn main() -> ExitCode {
    install_signal_handlers();
    let config = parse_args();
    let workers = config.workers;
    let engine = config.default_engine.name();
    let handle = match spawn(config) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("stgd: bind failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Scripts commonly parse the first banner line and close the
    // pipe; `println!` would panic the main thread on the resulting
    // EPIPE and take the whole daemon down, so ignore write errors.
    let mut stdout = std::io::stdout();
    let _ = writeln!(stdout, "listening on {}", handle.addr());
    let _ = writeln!(stdout, "workers {workers}, default engine {engine}");
    let _ = stdout.flush();
    while !handle.is_shutting_down() {
        if TERMINATE.load(Ordering::Relaxed) {
            eprintln!("stgd: termination signal, draining in-flight jobs");
            handle.trigger_shutdown();
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    handle.join();
    eprintln!("stgd: drained, exiting");
    ExitCode::SUCCESS
}
