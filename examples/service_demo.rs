//! Demo of the mapping service: submit a batch of requests (with
//! duplicates) for several models and platforms through the coalescing
//! batch scheduler, then repeat one request to show the response cache
//! at work.
//!
//! ```text
//! cargo run --release --example service_demo
//! ```

use map_and_conquer::runtime::{BatchConfig, MappingRequest, MappingService};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let service = MappingService::new();
    println!("models:    {}", service.models().names().join(", "));
    println!("platforms: {}\n", service.platforms().names().join(", "));

    // A small sweep: one transformer and one CNN across three boards —
    // plus duplicates, the way several planners asking about the same
    // deployment at once look to the service.
    let mut requests = Vec::new();
    for model in ["visformer_tiny_cifar100", "vgg11_cifar100"] {
        for platform in ["agx_xavier", "orin_agx", "edge_biglittle"] {
            requests.push(
                MappingRequest::new(model, platform)
                    .validation_samples(1000)
                    .generations(8)
                    .population_size(16)
                    .stall_generations(4),
            );
        }
    }
    requests.push(requests[0].clone());
    requests.push(requests[3].clone());

    let report = service.submit_batch_with(&requests, &BatchConfig::default());
    println!(
        "batch: {} requests, {} searches run, {} coalesced onto them \
         (max_concurrent={}, threads/request={}, {:.1} ms)\n",
        report.stats.requests,
        report.stats.unique_requests,
        report.stats.coalesced_requests,
        report.stats.max_concurrent,
        report.stats.threads_per_request,
        report.stats.elapsed_ms,
    );

    println!(
        "{:<26} {:<16} {:>6} {:>7} {:>7} {:>6} {:>9} {:>9}",
        "model", "platform", "front", "evals", "fresh", "memo", "ms", "best obj"
    );
    for result in &report.responses {
        let response = result.as_ref().map_err(|e| Box::new(e.clone()))?;
        let best = response
            .best_by_objective
            .as_ref()
            .map(|c| format!("{:.3}", c.result.objective))
            .unwrap_or_else(|| "-".to_string());
        println!(
            "{:<26} {:<16} {:>6} {:>7} {:>7} {:>6} {:>9.1} {:>9}",
            response.model,
            response.platform,
            response.pareto_front.len(),
            response.stats.evaluations,
            response.stats.evaluations_performed,
            response.stats.memo_hits,
            response.stats.elapsed_ms,
            best,
        );
    }

    // Replay the first request: the response cache answers it on the
    // fast path with the stored response, so no second search runs.
    let searches_before = service.pipeline_stats().searches_run;
    let started = std::time::Instant::now();
    let replay = service.submit(&requests[0])?;
    println!(
        "\nreplayed {} on {}: {} searches run, answered in {:.3} ms",
        replay.model,
        replay.platform,
        service.pipeline_stats().searches_run - searches_before,
        started.elapsed().as_secs_f64() * 1e3,
    );

    // Warm-start the same workload under a different seed: the elite
    // archive seeds the initial population (surrogate-ranked), so a third
    // of the budget reaches a front no worse than the cold search's.
    let warm = service.submit(
        &requests[0]
            .clone()
            .seed(4242)
            .generations(3)
            .warm_start(true),
    )?;
    println!(
        "warm-started {} on {}: {} seeds injected, {} evaluations ({} fresh), best obj {}",
        warm.model,
        warm.platform,
        warm.stats.warm_start_seeds,
        warm.stats.evaluations,
        warm.stats.evaluations_performed,
        warm.best_by_objective
            .as_ref()
            .map(|c| format!("{:.3}", c.result.objective))
            .unwrap_or_else(|| "-".to_string()),
    );

    // Every request above — batched, replayed, warm-started — went
    // through the same staged pipeline; its per-stage counters tell the
    // service's story in one table.
    let pipeline = service.pipeline_stats();
    println!(
        "\npipeline: {} requests ({} coalesced), {} searches, {} evaluator builds / {} pool hits",
        pipeline.requests,
        pipeline.coalesced_requests,
        pipeline.searches_run,
        pipeline.evaluator_builds,
        pipeline.evaluator_pool_hits,
    );
    for stage in &pipeline.stages {
        println!(
            "  {:<17} {:>4} entered, {:>9.1} ms busy",
            stage.stage,
            stage.entered,
            stage.busy_micros as f64 / 1e3
        );
    }

    // Underneath those lifetime counters sit log-scale latency
    // histograms; the digests answer "how slow is slow" per stage.
    println!(
        "\n{:<17} {:>6} {:>10} {:>10} {:>10}",
        "latency", "count", "p50 us", "p99 us", "max us"
    );
    let request_latency = service.request_latency();
    for summary in service.stage_latency().iter().chain([&request_latency]) {
        println!(
            "{:<17} {:>6} {:>10.1} {:>10.1} {:>10.1}",
            summary.name, summary.count, summary.p50_micros, summary.p99_micros, summary.max_micros
        );
    }

    // The trace ring keeps full span traces for recent and slow
    // requests; replaying the slowest one shows where its time went.
    if let Some(trace) = service.slowest_trace() {
        println!(
            "\nslowest retained trace: #{} {} on {} ({:.1} us total, {} generations recorded)",
            trace.id,
            trace.model,
            trace.platform,
            trace.total_micros(),
            trace.generations.len(),
        );
        for span in &trace.stages {
            println!(
                "  {:>9.1} us  {:<17} {:>9.1} us",
                span.enter_nanos as f64 / 1e3,
                span.stage,
                span.duration_nanos as f64 / 1e3,
            );
        }
        for event in &trace.events {
            println!(
                "  {:>9.1} us  {:<17} {}",
                event.at_nanos as f64 / 1e3,
                event.label,
                event.detail,
            );
        }
    }
    Ok(())
}
