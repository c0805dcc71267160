//! Demo of the JSON wire front-end: boot `mnc-server` on an ephemeral
//! port, drive it with the wire client, and show that the remote answer
//! matches in-process serving — plus archive persistence across a
//! restart.
//!
//! ```text
//! cargo run --release --example wire_demo
//! ```

use map_and_conquer::runtime::{MappingRequest, MappingService};
use map_and_conquer::server::{spawn_reactor_on_ephemeral_port, RequestLimits, WireClient};
use map_and_conquer::wire::WireBatch;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let archive_dir = std::env::temp_dir().join(format!("mnc_wire_demo_{}", std::process::id()));
    std::fs::create_dir_all(&archive_dir)?;

    let handle =
        spawn_reactor_on_ephemeral_port(Some(archive_dir.clone()), RequestLimits::default())?;
    println!("mnc-server listening on {}", handle.addr());

    let mut client = WireClient::connect(handle.addr())?;
    client.ping()?;
    println!("models over the wire:    {}", client.models()?.join(", "));
    println!(
        "platforms over the wire: {}\n",
        client.platforms()?.join(", ")
    );

    let request = MappingRequest::new("visformer_tiny_cifar100", "dual_test")
        .validation_samples(800)
        .generations(6)
        .population_size(12);

    // One request over TCP vs the same request in-process: identical
    // fronts — the server drives the same staged pipeline.
    let over_wire = client.submit(&request)?;
    let in_process = MappingService::new().submit(&request)?;
    assert_eq!(over_wire.pareto_front, in_process.pareto_front);
    println!(
        "submit over the wire: {} Pareto points, {} evaluations, {:.1} ms — identical to in-process",
        over_wire.pareto_front.len(),
        over_wire.stats.evaluations,
        over_wire.stats.elapsed_ms,
    );

    // A duplicate-laden batch coalesces server-side.
    let report = client.submit_batch(WireBatch {
        requests: vec![request.clone(), request.clone(), request.clone().seed(9)],
        config: Default::default(),
    })?;
    println!(
        "batch over the wire: {} requests, {} searches run, {} coalesced",
        report.stats.requests, report.stats.unique_requests, report.stats.coalesced_requests,
    );

    // Per-stage counters travel in the Stats payload.
    let stats = client.stats()?;
    println!("\nserver pipeline stages:");
    for stage in &stats.pipeline.stages {
        println!(
            "  {:<17} {:>4} entered, {:>8.1} ms busy",
            stage.stage,
            stage.entered,
            stage.busy_micros as f64 / 1e3
        );
    }
    println!(
        "{} searches run, {} answered on the fast path; archive: {} elite genomes",
        stats.pipeline.searches_run, stats.pipeline.fast_path_answered, stats.archive_genomes,
    );

    // Persist the elite archive, restart, and warm-start from it.
    let persisted = client.persist()?;
    println!(
        "\npersisted {} elite genomes to {}",
        persisted.genomes, persisted.path
    );
    client.shutdown()?;
    handle.join()?;

    let handle =
        spawn_reactor_on_ephemeral_port(Some(archive_dir.clone()), RequestLimits::default())?;
    let mut client = WireClient::connect(handle.addr())?;
    let warm = client.submit(
        &request
            .clone()
            .seed(4242)
            .generations(3)
            .stall_generations(2)
            .warm_start(true),
    )?;
    println!(
        "after restart: warm-started search injected {} persisted seeds, {} evaluations, best obj {}",
        warm.stats.warm_start_seeds,
        warm.stats.evaluations,
        warm.best_by_objective
            .as_ref()
            .map(|c| format!("{:.3}", c.result.objective))
            .unwrap_or_else(|| "-".to_string()),
    );

    client.shutdown()?;
    handle.join()?;
    let _ = std::fs::remove_dir_all(&archive_dir);
    Ok(())
}
