//! CI smoke for the telemetry exposition path.
//!
//! Boots a real `mnc-server` on an ephemeral port, drives a known mixed
//! workload — one direct submit, one duplicate-laden batch, one invalid
//! request — then fetches the wire `Metrics` report and asserts, exiting
//! non-zero on any violation:
//!
//! 1. counter consistency: the request counter equals the request-latency
//!    histogram count, per-stage entry counts follow the exact request
//!    mix (batch-level Normalize included), and the one invalid request
//!    shows up as exactly one Normalize-stage error;
//! 2. the latency digests agree with the raw histograms (same counts,
//!    non-zero medians for stages that did real work);
//! 3. the Prometheus text parses line by line and its samples agree with
//!    the JSON snapshot they were rendered from;
//! 4. tenant shed arithmetic: on a zero-depth reactor every shed is
//!    attributed to its tenant, and the per-tenant `mnc_tenant_shed_total`
//!    samples sum exactly to the global `mnc_shed_requests_total`.
//!
//! ```text
//! cargo run --release -p mnc-server --bin metrics_smoke -- --json results/metrics_smoke_ci.json
//! ```

use mnc_runtime::{find_sample, parse_prometheus, MappingRequest};
use mnc_server::{spawn_reactor_on_ephemeral_port, RequestLimits, WireClient};
use mnc_wire::WireBatch;
use serde::Serialize;

const STAGE_DURATION: &str = "mnc_pipeline_stage_duration_nanos";
const STAGE_ERRORS: &str = "mnc_pipeline_stage_errors_total";
const REQUEST_DURATION: &str = "mnc_request_duration_nanos";

/// The `--json` report tracked under `results/`.
#[derive(Debug, Serialize)]
struct SmokeReport {
    bench: String,
    requests_total: u64,
    request_histogram_count: u64,
    normalize_entered: u64,
    normalize_errors: u64,
    searches_run: u64,
    search_generations_total: u64,
    coalesced_requests: u64,
    deadline_misses: u64,
    partial_responses: u64,
    request_p50_micros: f64,
    request_p99_micros: f64,
    prometheus_samples: usize,
    tenant_sheds: u64,
}

fn request(seed: u64) -> MappingRequest {
    MappingRequest::new("tiny_cnn_cifar10", "dual_test")
        .validation_samples(400)
        .generations(3)
        .population_size(8)
        .seed(seed)
}

fn counter(snapshot: &mnc_runtime::MetricsSnapshot, name: &str) -> u64 {
    snapshot
        .counter_value(name)
        .unwrap_or_else(|| panic!("counter {name} missing from the snapshot"))
}

fn stage_count(snapshot: &mnc_runtime::MetricsSnapshot, stage: &str) -> u64 {
    snapshot
        .labeled_histogram(STAGE_DURATION, "stage", stage)
        .unwrap_or_else(|| panic!("stage histogram for {stage} missing"))
        .count
}

/// Phase 4: per-tenant shed attribution on a zero-depth reactor.
/// Returns the summed tenant-labeled shed count for the report.
fn tenant_shed_arithmetic() -> u64 {
    let server = mnc_server::ReactorServer::bind(
        mnc_server::ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            ..mnc_server::ServerConfig::default()
        },
        mnc_server::ReactorConfig {
            queue_depth: 0,
            ..mnc_server::ReactorConfig::default()
        },
    )
    .expect("zero-depth reactor binds");
    let handle = server.spawn().expect("zero-depth reactor spawns");
    let mut client = WireClient::connect(handle.addr()).expect("client connects");

    // A known shed mix: 3 from `alpha`, 2 from `beta`, 1 anonymous
    // (charged to the `default` tenant). Distinct seeds keep every
    // submission out of the response cache, so each one is shed.
    let mix: &[(Option<&str>, u64)] = &[(Some("alpha"), 3), (Some("beta"), 2), (None, 1)];
    let mut seed = 900;
    for (tenant, count) in mix {
        for _ in 0..*count {
            seed += 1;
            let mut shed_me = request(seed);
            if let Some(tenant) = tenant {
                shed_me = shed_me.tenant(*tenant);
            }
            match client.submit(&shed_me) {
                Err(mnc_server::ClientError::Server(error)) => {
                    assert_eq!(error.code, mnc_wire::ErrorCode::Overloaded);
                }
                other => panic!("zero-depth submit gave {other:?}"),
            }
        }
    }

    let metrics = client.metrics().expect("metrics");
    let samples = parse_prometheus(&metrics.prometheus).expect("prometheus text parses");
    let tenant_shed = |tenant: &str| {
        find_sample(&samples, "mnc_tenant_shed_total", &[("tenant", tenant)])
            .unwrap_or_else(|| panic!("shed counter for tenant {tenant} exposed"))
            .value
    };
    assert_eq!(tenant_shed("alpha"), 3.0, "alpha's sheds attributed");
    assert_eq!(tenant_shed("beta"), 2.0, "beta's sheds attributed");
    assert_eq!(tenant_shed("default"), 1.0, "anonymous shed hit `default`");

    let global = find_sample(&samples, "mnc_shed_requests_total", &[])
        .expect("global shed counter exposed")
        .value;
    let attributed: f64 = samples
        .iter()
        .filter(|sample| sample.name == "mnc_tenant_shed_total")
        .map(|sample| sample.value)
        .sum();
    assert_eq!(
        attributed, global,
        "tenant-labeled sheds must sum to the global shed counter"
    );
    assert_eq!(global, 6.0, "the whole mix was shed");
    println!(
        "metrics_smoke: tenant shed arithmetic consistent \
         ({attributed} attributed = {global} global)"
    );

    client.shutdown().expect("shutdown");
    handle.join().expect("zero-depth reactor stopped cleanly");
    attributed as u64
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let json_path = args
        .iter()
        .position(|arg| arg == "--json")
        .and_then(|i| args.get(i + 1))
        .cloned();

    let handle = spawn_reactor_on_ephemeral_port(None, RequestLimits::default())
        .expect("server boots on an ephemeral port");
    let addr = handle.addr();
    println!("metrics_smoke: server on {addr}");
    let mut client = WireClient::connect(addr).expect("client connects");

    // --- known traffic mix ------------------------------------------------
    // 1 direct submit + a batch of 4 (3 unique, 1 coalesced) + 1 invalid
    // request rejected by the Normalize stage. Seeds are all distinct so
    // no request is answered from the response cache: every leader runs a
    // real search.
    client.submit(&request(11)).expect("direct submit");
    let report = client
        .submit_batch(WireBatch {
            requests: vec![request(21), request(22), request(21), request(23)],
            config: mnc_runtime::BatchConfig::new().max_concurrent(2),
        })
        .expect("batch submit");
    assert_eq!(report.stats.unique_requests, 3);
    assert_eq!(report.stats.coalesced_requests, 1);
    let mut invalid = request(31);
    invalid.validation_samples = 0;
    match client.submit(&invalid) {
        Err(mnc_server::ClientError::Server(_)) => {}
        other => panic!("invalid request gave {other:?}"),
    }
    // One request with an already-expired deadline: it clears the fast
    // path (Normalize, Fingerprint, CacheLookup) but is answered
    // `DeadlineExceeded` before any search starts.
    match client.submit(&request(41).deadline_ms(0)) {
        Err(mnc_server::ClientError::Server(error)) => {
            assert_eq!(error.code, mnc_wire::ErrorCode::DeadlineExceeded);
        }
        other => panic!("expired request gave {other:?}"),
    }

    // --- fetch the Metrics report ----------------------------------------
    let metrics = client.metrics().expect("metrics");
    let snapshot = &metrics.metrics;

    // --- 1. counter consistency ------------------------------------------
    // 1 direct + 3 batch leaders + 1 invalid + 1 expired entered the
    // per-request pipeline; the coalesced duplicate never re-ran it.
    let requests = counter(snapshot, "mnc_requests_total");
    assert_eq!(requests, 6, "requests counter");
    let request_histogram = snapshot
        .histogram(REQUEST_DURATION)
        .expect("request-duration histogram present");
    assert_eq!(
        request_histogram.count, requests,
        "request histogram counts every request, errors included"
    );
    assert_eq!(counter(snapshot, "mnc_batches_total"), 1);
    assert_eq!(counter(snapshot, "mnc_coalesced_requests_total"), 1);

    // Normalize ran per request (6) plus once batch-level; the invalid
    // request died there, so Fingerprint saw one entry fewer per-request.
    assert_eq!(stage_count(snapshot, "normalize"), 7, "normalize entries");
    assert_eq!(
        snapshot
            .labeled_counter_value(STAGE_ERRORS, "stage", "normalize")
            .expect("normalize error counter present"),
        1,
        "exactly the invalid request errored in Normalize"
    );
    assert_eq!(
        stage_count(snapshot, "fingerprint"),
        6,
        "fingerprint entries"
    );
    // The expired request never reached the search stage.
    assert_eq!(stage_count(snapshot, "search"), 4, "search entries");
    let searches = counter(snapshot, "mnc_searches_total");
    assert_eq!(searches, 4, "searches counter matches the search stage");
    let generations = counter(snapshot, "mnc_search_generations_total");
    assert!(
        generations >= searches,
        "every search reported at least one generation (got {generations})"
    );
    let builds = counter(snapshot, "mnc_evaluator_builds_total");
    let pool_hits = counter(snapshot, "mnc_evaluator_pool_hits_total");
    assert_eq!(builds + pool_hits, 4, "every search resolved an evaluator");
    assert!(builds >= 1, "the first search built the evaluator");
    // Deadline accounting: exactly the expired request missed; nothing
    // in this mix was answered with a partial front.
    let deadline_misses = counter(snapshot, "mnc_deadline_misses_total");
    assert_eq!(deadline_misses, 1, "deadline misses");
    let partial_responses = counter(snapshot, "mnc_partial_responses_total");
    assert_eq!(partial_responses, 0, "partial responses");
    println!(
        "metrics_smoke: counters consistent (6 requests, 4 searches, 1 rejected, 1 deadline miss)"
    );

    // --- 2. latency digests agree with the raw histograms ----------------
    assert_eq!(metrics.request_latency.count, requests);
    assert!(
        metrics.request_latency.p50_micros > 0.0,
        "request p50 is non-zero"
    );
    assert!(metrics.request_latency.p99_micros >= metrics.request_latency.p50_micros);
    let search_summary = metrics
        .stage_latency
        .iter()
        .find(|summary| summary.name == "search")
        .expect("search stage summary present");
    assert_eq!(search_summary.count, 4);
    assert!(search_summary.p50_micros > 0.0, "searches took real time");
    println!(
        "metrics_smoke: request p50 {:.1}us p99 {:.1}us, search p50 {:.1}us",
        metrics.request_latency.p50_micros,
        metrics.request_latency.p99_micros,
        search_summary.p50_micros
    );

    // --- 3. Prometheus text parses and agrees with the snapshot ----------
    let samples = parse_prometheus(&metrics.prometheus).expect("prometheus text parses");
    assert!(!samples.is_empty());
    let requests_sample = find_sample(&samples, "mnc_requests_total", &[])
        .expect("mnc_requests_total exposed")
        .value;
    assert_eq!(requests_sample, requests as f64);
    let normalize_count = find_sample(
        &samples,
        &format!("{STAGE_DURATION}_count"),
        &[("stage", "normalize")],
    )
    .expect("normalize histogram count exposed")
    .value;
    assert_eq!(normalize_count, 7.0);
    let request_count = find_sample(&samples, &format!("{REQUEST_DURATION}_count"), &[])
        .expect("request histogram count exposed")
        .value;
    assert_eq!(request_count, requests as f64);
    let request_sum = find_sample(&samples, &format!("{REQUEST_DURATION}_sum"), &[])
        .expect("request histogram sum exposed")
        .value;
    assert_eq!(request_sum, request_histogram.sum_nanos as f64);
    let retained = find_sample(&samples, "mnc_traces_retained", &[])
        .expect("trace-ring gauge exposed")
        .value;
    assert_eq!(retained, 6.0, "every request left a retained trace");
    println!(
        "metrics_smoke: prometheus exposition parsed ({} samples, consistent with JSON)",
        samples.len()
    );

    client.shutdown().expect("shutdown");
    handle.join().expect("server stopped cleanly");

    // --- 4. tenant shed arithmetic ----------------------------------------
    // A zero-depth reactor sheds every search; each shed must be charged
    // to the submitting tenant, and the tenant-labeled counters must sum
    // exactly to the global shed counter — no shed is ever double-counted
    // or dropped from attribution.
    let tenant_sheds = tenant_shed_arithmetic();

    if let Some(path) = json_path {
        let report = SmokeReport {
            bench: "metrics_smoke".to_string(),
            requests_total: requests,
            request_histogram_count: request_histogram.count,
            normalize_entered: stage_count(snapshot, "normalize"),
            normalize_errors: 1,
            searches_run: searches,
            search_generations_total: generations,
            coalesced_requests: counter(snapshot, "mnc_coalesced_requests_total"),
            deadline_misses,
            partial_responses,
            request_p50_micros: metrics.request_latency.p50_micros,
            request_p99_micros: metrics.request_latency.p99_micros,
            prometheus_samples: samples.len(),
            tenant_sheds,
        };
        if let Some(parent) = std::path::Path::new(&path).parent() {
            std::fs::create_dir_all(parent).expect("create results dir");
        }
        let json = serde_json::to_string_pretty(&report).expect("report serializes");
        std::fs::write(&path, json).expect("write report");
        println!("metrics_smoke: report written to {path}");
    }
    println!("metrics_smoke: all checks passed");
}
