//! Integration tests of the mapping service: evaluation-hook soundness,
//! parallel determinism and the end-to-end request flow.

use mnc_core::EvaluatorBuilder;
use mnc_mpsoc::Platform;
use mnc_nn::models::{visformer_tiny, ModelPreset};
use mnc_optim::{ConfigEvaluator, Genome, MappingSearch, SearchConfig};
use mnc_runtime::{BatchConfig, MappingRequest, MappingService, ServiceConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn evaluator(samples: usize) -> Arc<mnc_core::Evaluator> {
    Arc::new(
        EvaluatorBuilder::new(
            visformer_tiny(ModelPreset::cifar100()),
            Platform::dual_test(),
        )
        .validation_samples(samples)
        .build()
        .unwrap(),
    )
}

/// Property: for ≥100 random genomes, the evaluation hook every search
/// runs through is bit-identical to the reference `Evaluator::evaluate` on
/// the decoded configuration.
#[test]
fn hook_evaluations_are_bit_identical_across_random_genomes() {
    let evaluator = evaluator(500);
    let mut rng = StdRng::seed_from_u64(1234);

    for case in 0..120 {
        let genome = Genome::random(evaluator.network(), evaluator.platform(), &mut rng);
        let (config, result) =
            ConfigEvaluator::evaluate_genome(evaluator.as_ref(), &genome).unwrap();
        let reference = evaluator.evaluate(&config).unwrap();
        assert_eq!(*result, reference, "hook != reference at case {case}");
        for (hook, reference) in [
            (result.objective, reference.objective),
            (result.accuracy, reference.accuracy),
            (result.average_latency_ms, reference.average_latency_ms),
            (result.average_energy_mj, reference.average_energy_mj),
        ] {
            assert_eq!(hook.to_bits(), reference.to_bits(), "case {case}");
        }
    }
}

/// Same seed and budget on 1 thread vs N threads must yield the same
/// archive and Pareto front.
#[test]
fn parallel_search_is_deterministic_across_thread_counts() {
    let evaluator = evaluator(500);
    let base = SearchConfig {
        generations: 4,
        population_size: 12,
        parallel: true,
        seed: 42,
        ..SearchConfig::fast()
    };

    let single = MappingSearch::new(
        evaluator.as_ref(),
        SearchConfig {
            threads: Some(1),
            ..base
        },
    )
    .run()
    .unwrap();
    let many = MappingSearch::new(
        evaluator.as_ref(),
        SearchConfig {
            threads: Some(8),
            ..base
        },
    )
    .run()
    .unwrap();
    let default_threads = MappingSearch::new(evaluator.as_ref(), base).run().unwrap();

    assert_eq!(single.archive().len(), many.archive().len());
    for (a, b) in single.archive().iter().zip(many.archive()) {
        assert_eq!(a.genome, b.genome);
        assert_eq!(a.result, b.result);
    }
    assert_eq!(single.archive(), default_threads.archive());

    let front_single: Vec<_> = single.pareto_front().into_iter().cloned().collect();
    let front_many: Vec<_> = many.pareto_front().into_iter().cloned().collect();
    assert_eq!(front_single, front_many);
}

/// End-to-end acceptance: with the response cache off, a repeated request
/// re-runs its search and returns the identical Pareto front with
/// identical search counters — nothing a request leaves behind changes
/// what the next identical one computes.
///
/// The assertions are counters, not wall-clock ratios: how fast repeats
/// run is measured by the benchmark's `design_session` workload, where
/// machine load cannot fail a test.
#[test]
fn repeated_request_reruns_its_search_identically() {
    // With the response cache on, the repeat is a verbatim fast-path
    // replay that never touches the evaluator; that path is covered by
    // the pipeline tests.
    let service = MappingService::with_config(ServiceConfig {
        response_cache_entries: 0,
        ..Default::default()
    });
    let request = MappingRequest::new("visformer_cifar100", "dual_test")
        .validation_samples(1000)
        .generations(6)
        .population_size(16)
        .seed(3);

    let cold = service.submit(&request).unwrap();
    assert!(cold.stats.evaluations_performed > 0);
    for repeat in 1..=3 {
        let again = service.submit(&request).unwrap();
        assert_eq!(
            service.pipeline_stats().searches_run,
            1 + repeat,
            "the repeat must run its own search"
        );
        assert_eq!(cold.pareto_front, again.pareto_front);
        assert_eq!(cold.best_by_objective, again.best_by_objective);
        assert_eq!(
            again.stats.evaluations_performed,
            cold.stats.evaluations_performed
        );
        assert_eq!(again.stats.memo_hits, cold.stats.memo_hits);
        assert_eq!(
            again.stats.evaluations,
            again.stats.evaluations_performed + again.stats.memo_hits
        );
    }
}

/// A mixed batch with duplicates, the shape the scheduler exists for:
/// two models × two platforms × two seeds plus exact repeats.
fn mixed_batch() -> Vec<MappingRequest> {
    let mut requests = Vec::new();
    for model in ["tiny_cnn_cifar10", "visformer_tiny_cifar100"] {
        for platform in ["dual_test", "edge_biglittle"] {
            for seed in [1u64, 2] {
                requests.push(
                    MappingRequest::new(model, platform)
                        .validation_samples(400)
                        .generations(3)
                        .population_size(8)
                        .seed(seed),
                );
            }
        }
    }
    // Duplicates: repeat every other request, one of them with an explicit
    // thread count (answer-neutral, must still coalesce).
    let duplicates: Vec<MappingRequest> = requests.iter().step_by(2).cloned().collect();
    requests.extend(duplicates);
    requests[8].threads = Some(2);
    requests
}

/// Property: for every request in a duplicate-laden mixed batch, the
/// batched response is bit-identical to the sequential `submit` response,
/// for `max_concurrent` of both 1 and N. Each service is fresh, so the
/// comparison covers the full cold search, not a cache replay.
#[test]
fn submit_batch_is_bit_identical_to_sequential_submit() {
    let batch = mixed_batch();

    let sequential_service = MappingService::new();
    let sequential: Vec<_> = batch
        .iter()
        .map(|request| sequential_service.submit(request).unwrap())
        .collect();

    for max_concurrent in [1usize, 4] {
        let service = MappingService::new();
        let report =
            service.submit_batch_with(&batch, &BatchConfig::new().max_concurrent(max_concurrent));
        assert_eq!(report.stats.requests, batch.len());
        assert_eq!(report.stats.unique_requests, 8);
        assert_eq!(report.stats.coalesced_requests, 4);

        for (index, (batched, reference)) in report.responses.iter().zip(&sequential).enumerate() {
            let batched = batched
                .as_ref()
                .unwrap_or_else(|e| panic!("request {index} failed in batch: {e}"));
            assert_eq!(
                batched.pareto_front, reference.pareto_front,
                "front differs at request {index}, max_concurrent {max_concurrent}"
            );
            assert_eq!(batched.best_by_objective, reference.best_by_objective);
            // Bit-identity of every float on the front, not just PartialEq.
            for (a, b) in batched.pareto_front.iter().zip(&reference.pareto_front) {
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
    }
}

/// N identical requests in one batch run exactly one search and clone one
/// response for the rest.
#[test]
fn identical_requests_coalesce_onto_one_search() {
    let service = MappingService::new();
    let request = MappingRequest::new("tiny_cnn_cifar10", "dual_test")
        .validation_samples(400)
        .generations(3)
        .population_size(8);
    let batch = vec![request.clone(); 6];

    let report = service.submit_batch_with(&batch, &BatchConfig::new().max_concurrent(4));
    assert_eq!(report.stats.unique_requests, 1);
    assert_eq!(report.stats.coalesced_requests, 5);

    let leader = report.responses[0].as_ref().unwrap();
    for response in &report.responses[1..] {
        let response = response.as_ref().unwrap();
        assert_eq!(response.pareto_front, leader.pareto_front);
        assert_eq!(response.stats, leader.stats);
    }
    // Exactly one search's worth of evaluations reached the evaluator.
    let performed = service
        .metrics_snapshot()
        .counter_value("mnc_evaluations_performed_total")
        .expect("the pipeline registers its evaluation counter");
    assert_eq!(performed, leader.stats.evaluations_performed as u64);
    assert_eq!(service.pipeline_stats().searches_run, 1);
}

/// The warm-start acceptance property: once the elite archive holds
/// same-model elites, a warm-started request with a stall window reaches a
/// feasible front no worse than the cold search while scheduling strictly
/// fewer evaluations. (Everything is deterministic — seeds, archive
/// contents, surrogate training — so this is a fixed comparison, not a
/// statistical one.)
#[test]
fn warm_start_reaches_no_worse_front_with_fewer_evaluations() {
    let request = MappingRequest::new("visformer_tiny_cifar100", "dual_test")
        .validation_samples(500)
        .generations(12)
        .population_size(12)
        .stall_generations(3)
        .seed(11);

    // Cold baseline: a fresh service, nothing to warm-start from.
    let cold = MappingService::new().submit(&request).unwrap();
    assert!(!cold.stats.early_stopped || cold.stats.generations_run <= 12);

    // Warmed service: a different-seed request populates the elite
    // archive, then the baseline request runs warm-started under a third
    // of the generation budget — the seeds put generation 0 at (or past)
    // the cold optimum, so the shrunken budget still reaches a front no
    // worse than the full cold search's.
    let service = MappingService::new();
    service.submit(&request.clone().seed(77)).unwrap();
    assert!(!service.elite_archive().is_empty());
    let warm = service
        .submit(&request.clone().generations(4).warm_start(true))
        .unwrap();

    assert!(warm.stats.warm_start_seeds > 0, "no seeds were injected");
    assert!(
        warm.stats.evaluations < cold.stats.evaluations,
        "warm start scheduled {} evaluations vs cold {}",
        warm.stats.evaluations,
        cold.stats.evaluations
    );
    let cold_best = cold.best_by_objective.as_ref().unwrap().result.objective;
    let warm_best = warm.best_by_objective.as_ref().unwrap().result.objective;
    assert!(
        warm_best <= cold_best,
        "warm best {warm_best} worse than cold best {cold_best}"
    );
    assert!(!warm.pareto_front.is_empty());
    assert!(warm.pareto_front.iter().all(|c| c.result.feasible));
}

/// Warm-start with an empty archive degrades gracefully to the cold
/// search, and cold requests are byte-for-byte unaffected by archive
/// state.
#[test]
fn warm_start_with_empty_archive_matches_cold_search() {
    let request = MappingRequest::new("tiny_cnn_cifar10", "dual_test")
        .validation_samples(300)
        .generations(3)
        .population_size(8);

    let service = MappingService::new();
    let warm_empty = service.submit(&request.clone().warm_start(true)).unwrap();
    assert_eq!(warm_empty.stats.warm_start_seeds, 0);

    // The cold response from a service whose archive now holds elites is
    // identical to a fresh service's: cold searches never read the
    // archive.
    let cold_after = service.submit(&request).unwrap();
    let cold_fresh = MappingService::new().submit(&request).unwrap();
    assert_eq!(cold_after.pareto_front, cold_fresh.pareto_front);
    assert_eq!(cold_after.best_by_objective, cold_fresh.best_by_objective);
    // And with no seeds available, the warm-started search was the same
    // search.
    assert_eq!(warm_empty.pareto_front, cold_fresh.pareto_front);
}

/// A parallel search over one of the new registry presets finishes within
/// the configured evaluation budget.
#[test]
fn parallel_search_on_new_preset_respects_budget() {
    let service = MappingService::new();
    let budget = 60;
    let request = MappingRequest::new("visformer_tiny_cifar100", "orin_agx")
        .validation_samples(500)
        .generations(10)
        .population_size(16)
        .max_evaluations(budget);

    let response = service.submit(&request).unwrap();
    assert_eq!(response.stats.evaluations, budget);
    assert!(response.stats.early_stopped);
    assert!(!response.pareto_front.is_empty());
    // Orin has four compute units, so decoded configurations use 4 stages.
    assert_eq!(
        response.pareto_front[0].config.num_stages(),
        4,
        "front configurations target the Orin preset"
    );
}
