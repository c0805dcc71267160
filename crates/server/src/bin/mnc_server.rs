//! The `mnc-server` binary: the mapping service behind a TCP socket.
//!
//! ```text
//! mnc-server [--addr 127.0.0.1:7477] [--archive-dir DIR]
//!            [--max-batch N] [--max-evaluations N] [--max-samples N]
//!            [--trace-capacity N] [--slow-threshold-micros N]
//!            [--max-connections N] [--queue-depth N]
//!            [--inflight-per-conn N] [--workers N]
//!            [--search-timeout-ms N] [--tenant-config FILE]
//!            [--drain-deadline-ms N]
//! mnc-server --metrics [HOST:PORT]       # scrape a running server (Prometheus text)
//! mnc-server --metrics-json [HOST:PORT]  # scrape a running server (JSON snapshot)
//! ```
//!
//! Binds the address (port 0 picks an ephemeral port), prints
//! `mnc-server listening on <addr>` — scripts parse the actual port from
//! that line — and serves length-prefixed JSON wire requests until a
//! `Shutdown` command arrives. With `--archive-dir`, the elite archive
//! snapshot in that directory is loaded at startup and rewritten on every
//! wire `Persist` command, so warm-start knowledge survives restarts.
//!
//! The event-driven reactor front-end serves the socket: one reactor
//! thread multiplexes every connection, answers fast-path
//! requests (response-cache hits, structured rejections) inline and
//! hands searches to a bounded worker pool, shedding overload as
//! structured `Overloaded` errors per the admission-control flags.
//! With `--search-timeout-ms`, a watchdog additionally caps every
//! search's wall clock: an overrunning search is cancelled at the next
//! generation boundary and answers with its best-so-far front marked
//! partial. With `--tenant-config`, the named JSON file supplies
//! per-tenant QoS policies (weighted-fair scheduling weight, priority
//! ceiling, evaluation token-bucket budget) for requests carrying a
//! `tenant` field — see `TenantPolicyTable::from_json` for the schema.
//!
//! `--metrics`/`--metrics-json` turn the binary into a one-shot client:
//! it connects to the given address (default `127.0.0.1:7477`), issues
//! the wire `Metrics` command and prints the exposition to stdout — the
//! scrape path for cron jobs and Prometheus textfile collectors.

use mnc_server::{ReactorConfig, ReactorServer, RequestLimits, ServerConfig, WireClient};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: mnc-server [--addr HOST:PORT] [--archive-dir DIR] \
                     [--max-batch N] [--max-evaluations N] [--max-samples N] \
                     [--trace-capacity N] [--slow-threshold-micros N] \
                     [--max-connections N] [--queue-depth N] [--inflight-per-conn N] \
                     [--workers N] [--search-timeout-ms N] [--tenant-config FILE] \
                     [--drain-deadline-ms N] | \
                     mnc-server --metrics|--metrics-json [HOST:PORT]";

/// What kind of one-shot metrics scrape was requested, if any.
enum MetricsMode {
    Prometheus,
    Json,
}

struct Args {
    addr: String,
    archive_dir: Option<PathBuf>,
    limits: RequestLimits,
    telemetry: mnc_runtime::TelemetryConfig,
    metrics: Option<MetricsMode>,
    reactor: ReactorConfig,
    drain_deadline_ms: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7477".to_string(),
        archive_dir: None,
        limits: RequestLimits::default(),
        telemetry: mnc_runtime::TelemetryConfig::default(),
        metrics: None,
        reactor: ReactorConfig::default(),
        drain_deadline_ms: mnc_server::DEFAULT_DRAIN_DEADLINE_MS,
    };
    let mut iter = std::env::args().skip(1).peekable();
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--archive-dir" => args.archive_dir = Some(PathBuf::from(value("--archive-dir")?)),
            "--max-batch" => {
                args.limits.max_batch_requests = value("--max-batch")?
                    .parse()
                    .map_err(|e| format!("--max-batch: {e}"))?;
            }
            "--max-evaluations" => {
                args.limits.max_evaluations = value("--max-evaluations")?
                    .parse()
                    .map_err(|e| format!("--max-evaluations: {e}"))?;
            }
            "--max-samples" => {
                args.limits.max_validation_samples = value("--max-samples")?
                    .parse()
                    .map_err(|e| format!("--max-samples: {e}"))?;
            }
            "--trace-capacity" => {
                args.telemetry.trace_capacity = value("--trace-capacity")?
                    .parse()
                    .map_err(|e| format!("--trace-capacity: {e}"))?;
            }
            "--slow-threshold-micros" => {
                args.telemetry.slow_threshold_micros = value("--slow-threshold-micros")?
                    .parse()
                    .map_err(|e| format!("--slow-threshold-micros: {e}"))?;
            }
            "--max-connections" => {
                args.reactor.max_connections = value("--max-connections")?
                    .parse()
                    .map_err(|e| format!("--max-connections: {e}"))?;
            }
            "--queue-depth" => {
                args.reactor.queue_depth = value("--queue-depth")?
                    .parse()
                    .map_err(|e| format!("--queue-depth: {e}"))?;
            }
            "--inflight-per-conn" => {
                args.reactor.inflight_per_conn = value("--inflight-per-conn")?
                    .parse()
                    .map_err(|e| format!("--inflight-per-conn: {e}"))?;
            }
            "--workers" => {
                args.reactor.search_workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?;
            }
            "--search-timeout-ms" => {
                let millis: u64 = value("--search-timeout-ms")?
                    .parse()
                    .map_err(|e| format!("--search-timeout-ms: {e}"))?;
                if millis == 0 {
                    return Err("--search-timeout-ms must be positive".to_string());
                }
                args.reactor.search_timeout = Some(std::time::Duration::from_millis(millis));
            }
            "--tenant-config" => {
                let path = value("--tenant-config")?;
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| format!("--tenant-config: cannot read {path}: {e}"))?;
                args.reactor.tenants = mnc_runtime::TenantPolicyTable::from_json(&text)
                    .map_err(|e| format!("--tenant-config: {path}: {e}"))?;
            }
            "--drain-deadline-ms" => {
                args.drain_deadline_ms = value("--drain-deadline-ms")?
                    .parse()
                    .map_err(|e| format!("--drain-deadline-ms: {e}"))?;
            }
            "--metrics" | "--metrics-json" => {
                args.metrics = Some(if flag == "--metrics" {
                    MetricsMode::Prometheus
                } else {
                    MetricsMode::Json
                });
                // An optional positional address follows.
                if let Some(next) = iter.peek() {
                    if !next.starts_with("--") {
                        args.addr = iter.next().expect("peeked");
                    }
                }
            }
            "--help" | "-h" => {
                // Help is a successful outcome: usage on stdout, exit 0
                // (scripts chain `mnc-server --help && ...`).
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}` (try --help)")),
        }
    }
    Ok(args)
}

/// One-shot client mode: fetch the running server's telemetry snapshot
/// and print it to stdout.
fn scrape_metrics(addr: &str, mode: &MetricsMode) -> Result<(), String> {
    let mut client =
        WireClient::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let report = client
        .metrics()
        .map_err(|e| format!("metrics request failed: {e}"))?;
    match mode {
        MetricsMode::Prometheus => print!("{}", report.prometheus),
        MetricsMode::Json => {
            let json = serde_json::to_string_pretty(&report)
                .map_err(|e| format!("cannot render metrics report: {e}"))?;
            println!("{json}");
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(mode) = &args.metrics {
        return match scrape_metrics(&args.addr, mode) {
            Ok(()) => ExitCode::SUCCESS,
            Err(message) => {
                eprintln!("{message}");
                ExitCode::FAILURE
            }
        };
    }
    if let Some(dir) = &args.archive_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create archive directory {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }
    let config = ServerConfig {
        addr: args.addr,
        archive_dir: args.archive_dir,
        limits: args.limits,
        telemetry: args.telemetry,
        drain_deadline_ms: args.drain_deadline_ms,
    };
    run_reactor(config, args.reactor)
}

/// Serves with the event-driven reactor front-end.
fn run_reactor(config: ServerConfig, reactor: ReactorConfig) -> ExitCode {
    let server = match ReactorServer::bind(config, reactor) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("startup failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let addr = match server.local_addr() {
        Ok(addr) => addr,
        Err(e) => {
            eprintln!("startup failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if server.archive_loaded() > 0 {
        println!(
            "loaded {} archived elite genomes for warm starts",
            server.archive_loaded()
        );
    }
    println!("mnc-server listening on {addr}");
    match server.run() {
        Ok(()) => {
            println!("mnc-server stopped");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("server failed: {e}");
            ExitCode::FAILURE
        }
    }
}
