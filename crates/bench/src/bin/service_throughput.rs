//! Batched-request throughput of the mapping service.
//!
//! Replays a workload of mapping requests — a mix of distinct
//! (model, platform, seed) combinations and exact repeats, the shape of
//! traffic a deployment-planning front-end generates — through the batch
//! scheduler and reports requests/second, searches run and coalescing
//! for the cold, warm and mixed phases, plus a sequential-vs-
//! concurrent comparison of the mixed batch on two identically warmed
//! services.
//!
//! ```text
//! cargo run --release -p mnc-bench --bin service_throughput
//! MNC_BUDGET=ci cargo run --release -p mnc-bench --bin service_throughput
//! cargo run --release -p mnc-bench --bin service_throughput -- --quick
//! ```
//!
//! `--quick` is the CI smoke mode: a small workload under the `ci`
//! budget, and the batched responses are asserted bit-identical to
//! sequential `submit` (the process exits non-zero on any determinism
//! drift, panic, or coalescing-accounting mismatch). In every mode the
//! warm phase must run no search: it is answered by response-cache
//! replays.

use mnc_bench::Budget;
use mnc_runtime::{
    BatchConfig, BatchReport, LatencySummary, MappingRequest, MappingService, PipelineStats,
};
use serde::Serialize;
use std::time::Instant;

/// Machine-readable metrics of one batch phase (cold/warm/mixed).
#[derive(Debug, Clone, Serialize)]
struct PhaseMetrics {
    phase: String,
    requests: usize,
    unique_requests: usize,
    coalesced_requests: usize,
    elapsed_ms: f64,
    requests_per_s: f64,
    evaluations: usize,
    /// Searches the pipeline ran for this phase (0 when every request
    /// was a response-cache replay).
    searches: u64,
}

/// The `--json` report: phase throughputs plus coalescing totals,
/// written under `results/` so the service-throughput trajectory is
/// tracked across PRs.
#[derive(Debug, Serialize)]
struct ThroughputReport {
    bench: String,
    budget: String,
    quick: bool,
    base_requests: usize,
    phases: Vec<PhaseMetrics>,
    sequential_mixed_s: f64,
    batched_mixed_s: f64,
    batched_vs_sequential: f64,
    /// Service-lifetime per-stage pipeline counters (the staged request
    /// path every phase above was served through).
    pipeline: PipelineStats,
    /// Per-stage latency digests (p50/p99/p999) from the telemetry
    /// histograms behind the counters above.
    stage_latency: Vec<LatencySummary>,
    /// End-to-end request-latency digest across every phase.
    request_latency: LatencySummary,
}

/// Prints the per-stage and end-to-end percentile table the telemetry
/// histograms hold.
fn print_latency_table(stage_latency: &[LatencySummary], request_latency: &LatencySummary) {
    println!(
        "\n{:<17} {:>7} {:>12} {:>12} {:>12} {:>12}",
        "latency", "count", "p50 us", "p99 us", "p99.9 us", "max us"
    );
    for summary in stage_latency.iter().chain(std::iter::once(request_latency)) {
        println!(
            "{:<17} {:>7} {:>12.1} {:>12.1} {:>12.1} {:>12.1}",
            summary.name,
            summary.count,
            summary.p50_micros,
            summary.p99_micros,
            summary.p999_micros,
            summary.max_micros,
        );
    }
}

fn workload(budget: Budget, quick: bool) -> Vec<MappingRequest> {
    let (samples, generations, population) = match budget {
        Budget::Ci => (500, 4, 12),
        Budget::Default => (1000, 8, 16),
        Budget::Paper => (2000, 20, 24),
    };
    let models: &[&str] = if quick {
        &["tiny_cnn_cifar10", "visformer_tiny_cifar100"]
    } else {
        &[
            "visformer_tiny_cifar100",
            "vgg11_cifar100",
            "tiny_cnn_cifar10",
        ]
    };
    let platforms: &[&str] = if quick {
        &["dual_test", "edge_biglittle"]
    } else {
        &["agx_xavier", "orin_agx", "edge_biglittle", "dual_test"]
    };
    let mut requests = Vec::new();
    for model in models {
        for platform in platforms {
            for seed in [1u64, 2] {
                requests.push(
                    MappingRequest::new(*model, *platform)
                        .validation_samples(samples)
                        .generations(generations)
                        .population_size(population)
                        .seed(seed),
                );
            }
        }
    }
    requests
}

/// The mixed phase: half exact repeats of the base workload, half new
/// seeds, plus in-batch duplicates so the coalescer has work to do.
fn mixed_workload(requests: &[MappingRequest]) -> Vec<MappingRequest> {
    let mut mixed: Vec<MappingRequest> = requests
        .iter()
        .enumerate()
        .map(|(i, r)| {
            if i % 2 == 0 {
                r.clone()
            } else {
                r.clone().seed(900 + i as u64)
            }
        })
        .collect();
    let duplicates: Vec<MappingRequest> = mixed.iter().step_by(4).cloned().collect();
    mixed.extend(duplicates);
    mixed
}

fn run_phase(
    service: &MappingService,
    requests: &[MappingRequest],
    config: &BatchConfig,
    label: &str,
) -> (BatchReport, PhaseMetrics) {
    let searches_before = service.pipeline_stats().searches_run;
    let report = service.submit_batch_with(requests, config);
    let searches = service.pipeline_stats().searches_run - searches_before;
    let mut evaluations = 0usize;
    // Sum work over group leaders only: coalesced duplicates carry clones
    // of their leader's stats, so summing every response would double-
    // count each deduplicated search.
    for &position in &report.leader_positions {
        let response = report.responses[position]
            .as_ref()
            .expect("preset workload requests are valid");
        evaluations += response.stats.evaluations;
    }
    let elapsed = report.stats.elapsed_ms / 1e3;
    println!(
        "{label:<6} {:>4} requests ({:>2} unique, {:>2} coalesced) in {elapsed:>7.2} s  ({:>6.2} req/s, {evaluations:>8} evaluations, {searches:>3} searches)",
        report.stats.requests,
        report.stats.unique_requests,
        report.stats.coalesced_requests,
        report.stats.requests as f64 / elapsed,
    );
    let metrics = PhaseMetrics {
        phase: label.to_string(),
        requests: report.stats.requests,
        unique_requests: report.stats.unique_requests,
        coalesced_requests: report.stats.coalesced_requests,
        elapsed_ms: report.stats.elapsed_ms,
        requests_per_s: report.stats.requests as f64 / elapsed.max(1e-9),
        evaluations,
        searches,
    };
    (report, metrics)
}

/// Serves `mixed` sequentially and through the concurrent scheduler on two
/// *identically warmed* fresh services, reports the wall-clock ratio, and
/// returns both response sets for the determinism check.
fn sequential_vs_batched(
    base: &[MappingRequest],
    mixed: &[MappingRequest],
) -> (Vec<mnc_runtime::MappingResponse>, BatchReport, f64) {
    let sequential_service = MappingService::new();
    let batched_service = MappingService::new();
    // Warm both services with the base workload so the comparison measures
    // scheduling, not who pays the cold evaluator builds.
    sequential_service.submit_batch(base);
    batched_service.submit_batch(base);

    let started = Instant::now();
    let sequential: Vec<_> = mixed
        .iter()
        .map(|request| {
            sequential_service
                .submit(request)
                .expect("preset workload requests are valid")
        })
        .collect();
    let sequential_s = started.elapsed().as_secs_f64();

    let report = batched_service.submit_batch_with(mixed, &BatchConfig::default());
    let batched_s = report.stats.elapsed_ms / 1e3;

    println!(
        "\nmixed batch, sequential submits: {sequential_s:.2} s; scheduled (max_concurrent={}, threads/request={}): {batched_s:.2} s  ({:.2}x)",
        report.stats.max_concurrent,
        report.stats.threads_per_request,
        sequential_s / batched_s.max(1e-9),
    );
    (sequential, report, sequential_s)
}

/// Asserts every batched response is bit-identical to its sequential
/// counterpart — the CI tripwire for determinism drift in the scheduler.
fn assert_bit_identical(sequential: &[mnc_runtime::MappingResponse], report: &BatchReport) {
    assert_eq!(sequential.len(), report.responses.len());
    for (index, (reference, batched)) in sequential.iter().zip(&report.responses).enumerate() {
        let batched = batched.as_ref().expect("batched request failed");
        assert_eq!(
            reference.pareto_front, batched.pareto_front,
            "determinism drift at request {index}"
        );
        assert_eq!(reference.best_by_objective, batched.best_by_objective);
        for (a, b) in reference.pareto_front.iter().zip(&batched.pareto_front) {
            assert_eq!(a.result.objective.to_bits(), b.result.objective.to_bits());
            assert_eq!(
                a.result.average_energy_mj.to_bits(),
                b.result.average_energy_mj.to_bits()
            );
            assert_eq!(
                a.result.average_latency_ms.to_bits(),
                b.result.average_latency_ms.to_bits()
            );
        }
    }
    println!("determinism: batched responses bit-identical to sequential submits");
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|arg| arg == "--quick");
    let json_path = args
        .iter()
        .position(|arg| arg == "--json")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let budget = if quick {
        Budget::Ci
    } else {
        Budget::from_env()
    };
    let requests = workload(budget, quick);
    let mixed = mixed_workload(&requests);
    let service = MappingService::new();

    println!(
        "service throughput, budget {budget:?}{}: {} base requests\n",
        if quick { " (quick)" } else { "" },
        requests.len()
    );
    let mut phases = Vec::new();
    // Cold: every evaluation is fresh.
    let (_, cold_metrics) = run_phase(&service, &requests, &BatchConfig::default(), "cold");
    phases.push(cold_metrics);
    // Warm: identical traffic, answered by response-cache replays.
    let (_, warm_metrics) = run_phase(&service, &requests, &BatchConfig::default(), "warm");
    assert_eq!(
        warm_metrics.searches, 0,
        "the warm phase must be answered without running a search"
    );
    phases.push(warm_metrics);
    // Mixed: repeats + new seeds + in-batch duplicates.
    let (mixed_report, mixed_metrics) =
        run_phase(&service, &mixed, &BatchConfig::default(), "mixed");
    phases.push(mixed_metrics);
    assert!(
        mixed_report.stats.coalesced_requests > 0,
        "mixed workload must exercise the coalescer"
    );

    let (sequential, report, sequential_s) = sequential_vs_batched(&requests, &mixed);
    if quick {
        assert_bit_identical(&sequential, &report);
        // Recompute the expected grouping independently of the scheduler
        // (distinct requests modulo thread count, which never changes the
        // answer) so coalescing-accounting drift actually trips CI.
        let expected_unique = {
            let mut seen = std::collections::HashSet::new();
            for request in &mixed {
                let mut normalized = request.clone();
                normalized.threads = None;
                seen.insert(serde_json::to_string(&normalized).expect("requests serialize"));
            }
            seen.len()
        };
        assert_eq!(
            report.stats.unique_requests, expected_unique,
            "scheduler ran a different number of searches than the batch holds distinct requests"
        );
        assert_eq!(
            report.stats.coalesced_requests,
            mixed.len() - expected_unique
        );
        assert_eq!(report.leader_positions.len(), expected_unique);
    }

    let pipeline = service.pipeline_stats();
    println!(
        "\npipeline: {} requests over {} batches ({} coalesced), {} searches, {} evaluator builds / {} pool hits",
        pipeline.requests,
        pipeline.batches,
        pipeline.coalesced_requests,
        pipeline.searches_run,
        pipeline.evaluator_builds,
        pipeline.evaluator_pool_hits,
    );
    for stage in &pipeline.stages {
        println!(
            "  {:<17} {:>5} entered, {:>2} errors, {:>10.1} ms busy",
            stage.stage,
            stage.entered,
            stage.errors,
            stage.busy_micros as f64 / 1e3,
        );
    }

    let stage_latency = service.stage_latency();
    let request_latency = service.request_latency();
    print_latency_table(&stage_latency, &request_latency);
    assert_eq!(
        request_latency.count, pipeline.requests,
        "request-latency histogram counts every pipeline request"
    );

    if let Some(path) = json_path {
        let batched_s = report.stats.elapsed_ms / 1e3;
        let summary = ThroughputReport {
            bench: "service_throughput".to_string(),
            budget: format!("{budget:?}").to_lowercase(),
            quick,
            base_requests: requests.len(),
            phases,
            sequential_mixed_s: sequential_s,
            batched_mixed_s: batched_s,
            batched_vs_sequential: sequential_s / batched_s.max(1e-9),
            pipeline,
            stage_latency,
            request_latency,
        };
        mnc_bench::write_json_report(&path, &summary);
    }
}
