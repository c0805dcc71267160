//! CI round-trip smoke for the wire front-end.
//!
//! Runs the assertion suite against the `ReactorServer` on ephemeral
//! ports, drives it with the `WireClient`, and asserts — exiting
//! non-zero on any violation:
//!
//! 1. a wire `Submit` returns a Pareto front **bit-identical** to
//!    in-process `MappingService::submit` for the same request;
//! 2. a duplicate-laden wire batch coalesces and matches the in-process
//!    responses bit for bit;
//! 3. every hardened error path answers structurally (malformed JSON,
//!    corrupt framing, unknown presets, over-budget requests, wrong
//!    protocol version) without closing a synchronised connection;
//! 4. persistence: after `Persist` + restart into the same
//!    `--archive-dir`, a warm-started request schedules exactly as many
//!    evaluations and returns exactly the front of the pre-restart warm
//!    request (the archive the two searches seed from is identical);
//! 5. a repeated cold request is answered on the fast path (the batch
//!    leader that duplicates the first submit replays its cached
//!    response instead of searching again).
//!
//! ```text
//! cargo run --release -p mnc-server --bin wire_smoke -- --json results/wire_smoke_ci.json
//! ```

use mnc_runtime::{MappingRequest, MappingService};
use mnc_server::{spawn_reactor_on_ephemeral_port, ReactorHandle, RequestLimits, WireClient};
use mnc_wire::frame;
use mnc_wire::{ErrorCode, WireBatch, WireResult};
use serde::Serialize;
use std::io::BufReader;
use std::net::TcpStream;
use std::path::Path;

/// The `--json` report tracked under `results/`.
#[derive(Debug, Serialize)]
struct SmokeReport {
    bench: String,
    servers_checked: Vec<String>,
    roundtrip_bit_identical: bool,
    batch_requests: usize,
    batch_coalesced: usize,
    error_paths_checked: usize,
    warm_evaluations_before_restart: usize,
    warm_evaluations_after_restart: usize,
    persisted_genomes: usize,
    pipeline_searches_run: u64,
    fast_path_answered: u64,
}

fn spawn(archive_dir: &Path) -> ReactorHandle {
    spawn_reactor_on_ephemeral_port(Some(archive_dir.to_path_buf()), RequestLimits::default())
        .expect("reactor server boots on an ephemeral port")
}

/// What one full suite run measured (consumed by the JSON report).
struct SuiteOutcome {
    batch_requests: usize,
    batch_coalesced: usize,
    error_paths: usize,
    warm_evaluations_before: usize,
    warm_evaluations_after: usize,
    persisted_genomes: usize,
    searches_run: u64,
    fast_path_answered: u64,
}

fn request() -> MappingRequest {
    MappingRequest::new("tiny_cnn_cifar10", "dual_test")
        .validation_samples(400)
        .generations(3)
        .population_size(8)
        .seed(7)
}

fn assert_fronts_bit_identical(
    a: &mnc_runtime::MappingResponse,
    b: &mnc_runtime::MappingResponse,
    what: &str,
) {
    assert_eq!(a.pareto_front, b.pareto_front, "{what}: fronts differ");
    assert_eq!(
        a.best_by_objective, b.best_by_objective,
        "{what}: best-by-objective differs"
    );
    for (x, y) in a.pareto_front.iter().zip(&b.pareto_front) {
        assert_eq!(x.result.objective.to_bits(), y.result.objective.to_bits());
        assert_eq!(
            x.result.average_energy_mj.to_bits(),
            y.result.average_energy_mj.to_bits()
        );
        assert_eq!(
            x.result.average_latency_ms.to_bits(),
            y.result.average_latency_ms.to_bits()
        );
    }
}

/// Sends one raw (possibly malformed) frame on a fresh connection and
/// returns the decoded response.
fn raw_exchange(addr: std::net::SocketAddr, payload: &str) -> mnc_wire::WireResponse {
    let stream = TcpStream::connect(addr).expect("connect for raw exchange");
    let mut writer = stream.try_clone().expect("clone raw stream");
    let mut reader = BufReader::new(stream);
    frame::write_frame(&mut writer, payload).expect("write raw frame");
    let text = frame::read_frame(&mut reader)
        .expect("read raw response")
        .expect("server answered the raw frame");
    mnc_wire::decode_response(&text).expect("decode raw response")
}

/// The suite, with in-process `MappingService::submit` as the reference
/// for every answer.
fn run_suite() -> SuiteOutcome {
    let archive_dir = std::env::temp_dir().join(format!("mnc_wire_smoke_{}", std::process::id()));
    std::fs::create_dir_all(&archive_dir).expect("create archive dir");

    let handle = spawn(&archive_dir);
    let addr = handle.addr();
    println!("wire_smoke: server on {addr}");
    let mut client = WireClient::connect(addr).expect("client connects");

    // --- liveness + catalogues -------------------------------------------
    client.ping().expect("ping");
    let models = client.models().expect("models");
    let platforms = client.platforms().expect("platforms");
    assert!(models.iter().any(|m| m == "tiny_cnn_cifar10"));
    assert!(platforms.iter().any(|p| p == "dual_test"));

    // --- 1. single-request round trip, bit-identical to in-process -------
    let wire_response = client.submit(&request()).expect("wire submit");
    let reference = MappingService::new()
        .submit(&request())
        .expect("in-process submit");
    assert_fronts_bit_identical(&wire_response, &reference, "wire vs in-process");
    assert!(!wire_response.pareto_front.is_empty());
    assert!(
        wire_response.stats.stage_micros_total() > 0.0,
        "per-stage trace crossed the wire"
    );
    println!("wire_smoke: round trip bit-identical to in-process submit");

    // --- 2. batch with duplicates coalesces and stays bit-identical ------
    let batch: Vec<MappingRequest> = vec![request(), request().seed(9), request()];
    let report = client
        .submit_batch(WireBatch {
            requests: batch.clone(),
            config: mnc_runtime::BatchConfig::new().max_concurrent(2),
        })
        .expect("wire batch");
    assert_eq!(report.stats.unique_requests, 2);
    assert_eq!(report.stats.coalesced_requests, 1);
    let in_process = MappingService::new();
    for (position, (wire_result, request)) in report.responses.iter().zip(&batch).enumerate() {
        let wire_response = match wire_result {
            WireResult::Ok(response) => response,
            WireResult::Err(error) => panic!("batch request {position} failed: {error}"),
        };
        let reference = in_process.submit(request).expect("in-process batch ref");
        assert_fronts_bit_identical(wire_response, &reference, "batch round trip");
    }
    println!(
        "wire_smoke: batch of {} ({} coalesced) bit-identical to in-process",
        report.stats.requests, report.stats.coalesced_requests
    );

    // --- 3. hardened error paths ----------------------------------------
    let mut error_paths = 0;

    // Malformed JSON in a well-formed frame: structured error, id 0.
    let response = raw_exchange(addr, "{\"version\":1,\"id\":3,\"body\":");
    match response.outcome {
        mnc_wire::WireOutcome::Err(error) => {
            assert_eq!(error.code, ErrorCode::MalformedRequest);
            assert_eq!(response.id, 0);
        }
        mnc_wire::WireOutcome::Ok(_) => panic!("malformed JSON was accepted"),
    }
    error_paths += 1;

    // Wrong protocol version.
    let response = raw_exchange(addr, "{\"version\":99,\"id\":4,\"body\":\"Ping\"}");
    match response.outcome {
        mnc_wire::WireOutcome::Err(error) => {
            assert_eq!(error.code, ErrorCode::UnsupportedVersion);
            assert_eq!(response.id, 4, "id is echoed even on version mismatch");
        }
        mnc_wire::WireOutcome::Ok(_) => panic!("version 99 was accepted"),
    }
    error_paths += 1;

    // Unknown model / platform.
    for (request, expected) in [
        (
            MappingRequest::new("resnet152_imagenet", "dual_test"),
            ErrorCode::UnknownModel,
        ),
        (
            MappingRequest::new("tiny_cnn_cifar10", "tpu_pod"),
            ErrorCode::UnknownPlatform,
        ),
    ] {
        match client.submit(&request) {
            Err(mnc_server::ClientError::Server(error)) => assert_eq!(error.code, expected),
            other => panic!("unknown preset gave {other:?}"),
        }
        error_paths += 1;
    }

    // Over-budget request.
    match client.submit(&request().generations(100_000).population_size(100_000)) {
        Err(mnc_server::ClientError::Server(error)) => {
            assert_eq!(error.code, ErrorCode::OverBudget)
        }
        other => panic!("over-budget request gave {other:?}"),
    }
    error_paths += 1;

    // Invalid request (zero validation samples).
    let mut invalid = request();
    invalid.validation_samples = 0;
    match client.submit(&invalid) {
        Err(mnc_server::ClientError::Server(error)) => {
            assert_eq!(error.code, ErrorCode::InvalidRequest)
        }
        other => panic!("invalid request gave {other:?}"),
    }
    error_paths += 1;

    // The connection survived every structured error above.
    client
        .ping()
        .expect("connection survived the error gauntlet");
    println!("wire_smoke: {error_paths} error paths answered structurally");

    // --- 4. warm-start persistence across a restart ----------------------
    // Fill the archive (the submits above already did), persist, then run
    // the pre-restart warm request.
    let persisted = client.persist().expect("persist archive");
    assert!(persisted.genomes > 0, "persisted an empty archive");
    let warm_request = request()
        .seed(4242)
        .generations(6)
        .stall_generations(2)
        .warm_start(true);
    let warm_before = client.submit(&warm_request).expect("warm before restart");
    assert!(
        warm_before.stats.warm_start_seeds > 0,
        "warm request found no seeds"
    );

    // The direct submit, the seed-9 batch leader and the warm request
    // reached the Search stage. The batch leader duplicating the first
    // submit was answered on the fast path (response-cache replay), and
    // every error-path probe above was rejected before searching.
    let stats = client.stats().expect("stats");
    assert_eq!(stats.pipeline.searches_run, 3);
    assert_eq!(
        stats.pipeline.fast_path_answered, 1,
        "the duplicate batch leader replayed the cached response"
    );
    assert_eq!(
        stats.pipeline.stages.len(),
        mnc_runtime::STAGE_COUNT,
        "pipeline stage counters crossed the wire"
    );
    let searches_run = stats.pipeline.searches_run;
    let fast_path_answered = stats.pipeline.fast_path_answered;

    // `PipelineStats` is now a view derived from the telemetry registry;
    // its wire schema must not have drifted from the hand-rolled struct
    // it replaced.
    let pipeline_json =
        serde_json::to_string(&stats.pipeline).expect("pipeline stats serialize to JSON");
    for key in [
        "stages",
        "requests",
        "batches",
        "coalesced_requests",
        "evaluator_pool_hits",
        "evaluator_builds",
        "warm_seeds_gathered",
        "searches_run",
        "fast_path_answered",
        "evaluations_scheduled",
        "evaluations_performed",
        "elites_recorded",
        // Per-stage entries keep their field names and stage identifiers.
        "stage",
        "entered",
        "errors",
        "busy_micros",
        "normalize",
        "search",
    ] {
        assert!(
            pipeline_json.contains(&format!("\"{key}\"")),
            "pipeline stats lost key `{key}`"
        );
    }
    // Round-trips through the same serde path the client used to decode it.
    let reparsed: mnc_runtime::PipelineStats =
        serde_json::from_str(&pipeline_json).expect("pipeline stats re-parse");
    assert_eq!(reparsed.searches_run, searches_run);
    println!("wire_smoke: derived pipeline stats kept the wire schema");

    client.shutdown().expect("shutdown");
    handle.join().expect("reactor stopped cleanly");

    // Restart into the same archive dir: the loaded archive equals the
    // persisted one (persist ran before the warm request, and `record`
    // on restore replays the snapshot verbatim), so the first warm
    // request after the restart re-runs the identical seeded search.
    let handle = spawn(&archive_dir);
    let mut client = WireClient::connect(handle.addr()).expect("client reconnects");
    let warm_after = client.submit(&warm_request).expect("warm after restart");
    assert_eq!(
        warm_after.stats.evaluations, warm_before.stats.evaluations,
        "restarted warm request scheduled a different number of evaluations"
    );
    assert_eq!(
        warm_after.stats.warm_start_seeds,
        warm_before.stats.warm_start_seeds
    );
    assert_fronts_bit_identical(&warm_after, &warm_before, "warm restart");
    println!(
        "wire_smoke: warm restart replayed {} evaluations for an identical front",
        warm_after.stats.evaluations
    );

    client.shutdown().expect("second shutdown");
    handle.join().expect("reactor stopped cleanly");
    let _ = std::fs::remove_dir_all(&archive_dir);

    SuiteOutcome {
        batch_requests: report.stats.requests,
        batch_coalesced: report.stats.coalesced_requests,
        error_paths,
        warm_evaluations_before: warm_before.stats.evaluations,
        warm_evaluations_after: warm_after.stats.evaluations,
        persisted_genomes: persisted.genomes,
        searches_run,
        fast_path_answered,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let json_path = args
        .iter()
        .position(|arg| arg == "--json")
        .and_then(|i| args.get(i + 1))
        .cloned();

    let outcome = run_suite();

    if let Some(path) = json_path {
        let report = SmokeReport {
            bench: "wire_smoke".to_string(),
            servers_checked: vec!["reactor".to_string()],
            roundtrip_bit_identical: true,
            batch_requests: outcome.batch_requests,
            batch_coalesced: outcome.batch_coalesced,
            error_paths_checked: outcome.error_paths,
            warm_evaluations_before_restart: outcome.warm_evaluations_before,
            warm_evaluations_after_restart: outcome.warm_evaluations_after,
            persisted_genomes: outcome.persisted_genomes,
            pipeline_searches_run: outcome.searches_run,
            fast_path_answered: outcome.fast_path_answered,
        };
        if let Some(parent) = std::path::Path::new(&path).parent() {
            std::fs::create_dir_all(parent).expect("create results dir");
        }
        let json = serde_json::to_string_pretty(&report).expect("report serializes");
        std::fs::write(&path, json).expect("write report");
        println!("wire_smoke: report written to {path}");
    }
    println!("wire_smoke: all checks passed");
}
