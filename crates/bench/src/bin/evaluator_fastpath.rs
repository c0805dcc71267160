//! Cold genome-evaluation fast path vs the pre-fast-path pipeline.
//!
//! Measures the acceptance workload of the fast-path PR — cold
//! single-genome evaluation of visformer on `agx_xavier` with the full
//! 10 000-sample validation set — through two pipelines:
//!
//! * **reference** — `Evaluator::evaluate_reference`: fresh transform,
//!   per-slice estimator dispatch, naive per-sample accuracy loop (the
//!   pre-PR baseline, retained as the property-test oracle),
//! * **fast** — `Evaluator::evaluate`: fresh transform, precomputed cost
//!   tables, closed-form accuracy over the sorted-difficulty index.
//!
//! Every measured evaluation is asserted bit-identical across the pipelines
//! first, then the per-evaluation wall times and the speedup land in a
//! JSON report under `results/` (override with `--json <path>`) so the
//! perf trajectory is tracked from this PR onward. `--smoke` shrinks the
//! iteration counts for CI and asserts the ≥10× acceptance threshold.
//!
//! ```text
//! cargo run --release -p mnc-bench --bin evaluator_fastpath
//! cargo run --release -p mnc-bench --bin evaluator_fastpath -- --smoke --json results/evaluator_fastpath_ci.json
//! ```

use mnc_core::{Evaluator, EvaluatorBuilder, MappingConfig};
use mnc_mpsoc::Platform;
use mnc_nn::models::{visformer, ModelPreset};
use mnc_optim::Genome;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::time::Instant;

const MODEL: &str = "visformer_cifar100";
const PLATFORM: &str = "agx_xavier";
const VALIDATION_SAMPLES: usize = 10_000;

#[derive(Debug, Serialize)]
struct FastPathReport {
    bench: String,
    model: String,
    platform: String,
    validation_samples: usize,
    genomes: usize,
    reference_iterations: usize,
    fast_iterations: usize,
    reference_cold_us: f64,
    fast_cold_us: f64,
    cold_speedup: f64,
    bit_identical: bool,
    smoke: bool,
}

/// Mean microseconds per call of `f` over `iterations × configs.len()`
/// evaluations (each config evaluated once per iteration).
fn time_per_eval_us<T>(
    iterations: usize,
    configs: &[MappingConfig],
    mut f: impl FnMut(&MappingConfig) -> T,
) -> f64 {
    let started = Instant::now();
    for _ in 0..iterations {
        for config in configs {
            std::hint::black_box(f(config));
        }
    }
    started.elapsed().as_secs_f64() * 1e6 / (iterations * configs.len()) as f64
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "results/evaluator_fastpath.json".to_string());

    let network = visformer(ModelPreset::cifar100());
    let platform = Platform::agx_xavier();
    let evaluator: Evaluator = EvaluatorBuilder::new(network.clone(), platform.clone())
        .validation_samples(VALIDATION_SAMPLES)
        .build()
        .expect("evaluator preset is valid");

    // A population of random genomes — the candidates an NSGA-II
    // generation would evaluate cold.
    let mut rng = StdRng::seed_from_u64(2023);
    let genomes = if smoke { 6 } else { 16 };
    let configs: Vec<MappingConfig> = (0..genomes)
        .map(|_| {
            Genome::random(&network, &platform, &mut rng)
                .decode(&network, &platform)
                .expect("random genome decodes")
        })
        .collect();

    // Bit-identity gate before timing anything.
    for config in &configs {
        let fast = evaluator.evaluate(config).expect("fast path succeeds");
        let reference = evaluator
            .evaluate_reference(config)
            .expect("reference path succeeds");
        assert_eq!(fast, reference, "fast path diverged from reference");
        assert_eq!(
            fast.objective.to_bits(),
            reference.objective.to_bits(),
            "objective bits diverged"
        );
    }

    let reference_iterations = if smoke { 2 } else { 10 };
    let fast_iterations = if smoke { 40 } else { 200 };

    let reference_cold_us = time_per_eval_us(reference_iterations, &configs, |config| {
        evaluator.evaluate_reference(config).expect("reference")
    });
    let fast_cold_us = time_per_eval_us(fast_iterations, &configs, |config| {
        evaluator.evaluate(config).expect("fast")
    });

    let report = FastPathReport {
        bench: "evaluator_fastpath".to_string(),
        model: MODEL.to_string(),
        platform: PLATFORM.to_string(),
        validation_samples: VALIDATION_SAMPLES,
        genomes,
        reference_iterations,
        fast_iterations,
        reference_cold_us,
        fast_cold_us,
        cold_speedup: reference_cold_us / fast_cold_us.max(1e-9),
        bit_identical: true,
        smoke,
    };

    println!(
        "evaluator fast path — {MODEL} on {PLATFORM}, {VALIDATION_SAMPLES} samples, {genomes} cold genomes"
    );
    println!(
        "  reference pipeline : {:>10.1} µs/eval  ({} iterations)",
        report.reference_cold_us, reference_iterations
    );
    println!(
        "  fast path          : {:>10.1} µs/eval  ({:.1}x)",
        report.fast_cold_us, report.cold_speedup
    );

    mnc_bench::write_json_report(&json_path, &report);

    if smoke {
        assert!(
            report.cold_speedup >= 10.0,
            "cold fast-path speedup {:.1}x below the 10x acceptance threshold",
            report.cold_speedup
        );
        println!("smoke: bit-identity and >=10x cold speedup verified");
    }
}
