//! Shared harness utilities for the experiment binaries and benchmarks.
//!
//! Every table and figure of the paper's evaluation section has a
//! dedicated binary in `src/bin/`:
//!
//! | Paper artefact | Binary |
//! |---|---|
//! | Fig. 1 (motivational comparison) | `fig1_motivation` |
//! | Table II (Pareto breakdown, Visformer + VGG-19) | `table2_pareto` |
//! | Fig. 6 (search scatter, three reuse constraints) | `fig6_search` |
//! | Fig. 7 (energy-oriented models vs DLA baseline) | `fig7_energy_models` |
//! | §VI-D (VGG-19 generalisation) | `vgg19_generalization` |
//!
//! The binaries print the reproduced rows/series to stdout and write
//! machine-readable JSON under `results/`. The search budget is selected
//! with the `MNC_BUDGET` environment variable: `ci` (seconds), `default`
//! (tens of seconds) or `paper` (the full 200×60 evaluation budget).

use mnc_core::{Constraints, Evaluator, EvaluatorBuilder};
use mnc_dynamic::AccuracyProfile;
use mnc_mpsoc::{CuId, Platform};
use mnc_nn::models::{vgg19, visformer, ModelPreset};
use mnc_nn::Network;
use mnc_optim::{MappingSearch, SearchConfig, SearchOutcome};
use serde::Serialize;
use std::path::{Path, PathBuf};

/// Which architecture an experiment runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Visformer (ViT-style) on CIFAR-100.
    Visformer,
    /// VGG-19 (CNN) on CIFAR-100.
    Vgg19,
}

impl Workload {
    /// Builds the network for this workload.
    pub fn network(&self) -> Network {
        match self {
            Workload::Visformer => visformer(ModelPreset::cifar100()),
            Workload::Vgg19 => vgg19(ModelPreset::cifar100()),
        }
    }

    /// The accuracy profile preset for this workload.
    pub fn accuracy_profile(&self) -> AccuracyProfile {
        match self {
            Workload::Visformer => AccuracyProfile::visformer_cifar100(),
            Workload::Vgg19 => AccuracyProfile::vgg19_cifar100(),
        }
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Workload::Visformer => "visformer",
            Workload::Vgg19 => "vgg19",
        }
    }
}

/// Search budget presets selected via the `MNC_BUDGET` environment variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Budget {
    /// A few seconds; used by CI and the default `cargo bench` run.
    Ci,
    /// Tens of seconds; the default for the harness binaries.
    Default,
    /// The paper's full budget (200 generations × 60 candidates).
    Paper,
}

impl Budget {
    /// Reads the budget from `MNC_BUDGET` (defaults to
    /// [`Budget::Default`]).
    pub fn from_env() -> Self {
        match std::env::var("MNC_BUDGET").unwrap_or_default().as_str() {
            "ci" => Budget::Ci,
            "paper" => Budget::Paper,
            _ => Budget::Default,
        }
    }

    /// The corresponding search configuration.
    pub fn search_config(&self, seed: u64) -> SearchConfig {
        match self {
            Budget::Ci => SearchConfig {
                generations: 6,
                population_size: 16,
                seed,
                parallel: true,
                ..SearchConfig::fast()
            },
            Budget::Default => SearchConfig {
                generations: 30,
                population_size: 32,
                seed,
                parallel: true,
                ..SearchConfig::paper()
            },
            Budget::Paper => SearchConfig {
                seed,
                ..SearchConfig::paper()
            },
        }
    }

    /// Number of synthetic validation samples to evaluate accuracy on.
    pub fn validation_samples(&self) -> usize {
        match self {
            Budget::Ci => 1_000,
            Budget::Default => 4_000,
            Budget::Paper => 10_000,
        }
    }
}

/// Builds the standard evaluator used by the experiments: the chosen
/// workload on the AGX Xavier preset with the given feature-map-reuse
/// constraint.
///
/// # Errors
///
/// Returns an error when the evaluator cannot be built (invalid
/// constraints), which does not happen for the presets used here.
pub fn build_evaluator(
    workload: Workload,
    fmap_limit: Option<f64>,
    budget: Budget,
) -> Result<Evaluator, mnc_core::CoreError> {
    let constraints = match fmap_limit {
        Some(limit) => Constraints::with_fmap_reuse_limit(limit),
        None => Constraints::default(),
    };
    EvaluatorBuilder::new(workload.network(), Platform::agx_xavier())
        .accuracy_profile(workload.accuracy_profile())
        .validation_samples(budget.validation_samples())
        .constraints(constraints)
        .build()
}

/// Runs the evolutionary search for a workload under a feature-map-reuse
/// constraint and returns the evaluator together with the outcome.
///
/// # Errors
///
/// Returns an error when the evaluator cannot be built or the search fails.
pub fn run_search(
    workload: Workload,
    fmap_limit: Option<f64>,
    budget: Budget,
    seed: u64,
) -> Result<(Evaluator, SearchOutcome), Box<dyn std::error::Error>> {
    let evaluator = build_evaluator(workload, fmap_limit, budget)?;
    let outcome = MappingSearch::new(&evaluator, budget.search_config(seed)).run()?;
    Ok((evaluator, outcome))
}

/// Single-compute-unit baseline numbers for a workload (GPU-only and
/// DLA-only), as used in Fig. 1 / Table II.
///
/// # Errors
///
/// Returns an error if the platform rejects the baseline evaluation.
pub fn single_cu_baselines(
    evaluator: &Evaluator,
) -> Result<(mnc_core::BaselineResult, mnc_core::BaselineResult), mnc_core::CoreError> {
    let gpu = evaluator.baseline_single_cu(CuId(0))?;
    let dla = evaluator.baseline_single_cu(CuId(1))?;
    Ok((gpu, dla))
}

/// Accuracy-drop ladder used when picking "Ours-L" / "Ours-E" from a
/// search outcome: prefer configurations within 0.5% of the baseline (the paper's
/// highlighted points), then progressively relax up to 6% (the drop the
/// paper reports under the 50% reuse constraint).
pub const ACCURACY_DROP_LADDER: [f64; 5] = [0.005, 0.02, 0.04, 0.06, 0.08];

/// Picks the energy-oriented configuration with the smallest tolerated
/// accuracy drop (walking up [`ACCURACY_DROP_LADDER`]).
pub fn pick_energy_oriented(outcome: &SearchOutcome) -> Option<&mnc_optim::EvaluatedConfig> {
    ACCURACY_DROP_LADDER
        .iter()
        .find_map(|drop| outcome.energy_oriented(*drop))
}

/// Picks the latency-oriented configuration with the smallest tolerated
/// accuracy drop (walking up [`ACCURACY_DROP_LADDER`]).
pub fn pick_latency_oriented(outcome: &SearchOutcome) -> Option<&mnc_optim::EvaluatedConfig> {
    ACCURACY_DROP_LADDER
        .iter()
        .find_map(|drop| outcome.latency_oriented(*drop))
}

/// Directory where the harness binaries drop their JSON results.
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("MNC_RESULTS_DIR").unwrap_or_else(|_| "results".to_string());
    PathBuf::from(dir)
}

/// Serialises `value` as pretty JSON into `results/<name>.json`; on any I/O
/// problem the error is reported on stderr and the experiment continues
/// (writing results is best-effort, printing them is the contract).
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    let dir = results_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return;
    }
    let path: PathBuf = dir.join(format!("{name}.json"));
    match serde_json::to_string_pretty(value) {
        Ok(json) => {
            if let Err(e) = std::fs::write(&path, json) {
                eprintln!("warning: cannot write {}: {e}", path.display());
            }
        }
        Err(e) => eprintln!("warning: cannot serialise {name}: {e}"),
    }
}

/// Serialises `value` as pretty JSON (trailing newline) to an explicit
/// path, creating parent directories — the writer behind the throughput /
/// fast-path binaries' `--json <path>` flags. Unlike [`write_json`], the
/// caller asked for this exact file, so I/O failures panic instead of
/// degrading to a warning.
///
/// # Panics
///
/// Panics when the directory cannot be created, the value cannot be
/// serialised or the file cannot be written.
pub fn write_json_report<T: Serialize>(path: &str, value: &T) {
    if let Some(parent) = Path::new(path).parent() {
        std::fs::create_dir_all(parent).expect("create report directory");
    }
    let json = serde_json::to_string_pretty(value).expect("report serializes");
    std::fs::write(path, json + "\n").expect("write report");
    println!("json report written to {path}");
}

/// Formats a ratio as `x.xx×`.
pub fn format_factor(value: f64) -> String {
    format!("{value:.2}x")
}

/// Formats a percentage with one decimal.
pub fn format_percent(fraction: f64) -> String {
    format!("{:.1}%", fraction * 100.0)
}

/// Prints a Markdown-style table with the given header and rows.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n## {title}\n");
    println!("| {} |", header.join(" | "));
    println!(
        "|{}|",
        header.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
    for row in rows {
        println!("| {} |", row.join(" | "));
    }
}

/// Returns true when `path` exists and is a directory (helper for tests).
pub fn is_dir(path: &Path) -> bool {
    path.is_dir()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_from_env_defaults_and_parses() {
        // Note: avoid mutating the process environment; just exercise the
        // mapping logic through the public API.
        assert_eq!(Budget::Ci.validation_samples(), 1_000);
        assert_eq!(Budget::Paper.search_config(1).generations, 200);
        assert_eq!(Budget::Ci.search_config(1).seed, 1);
        assert!(Budget::Default.search_config(5).parallel);
    }

    #[test]
    fn workloads_build_their_networks() {
        assert_eq!(Workload::Visformer.network().name(), "visformer");
        assert_eq!(Workload::Vgg19.network().name(), "vgg19");
        assert_eq!(Workload::Visformer.name(), "visformer");
        assert!(Workload::Vgg19.accuracy_profile().baseline_accuracy < 0.82);
    }

    #[test]
    fn evaluator_builds_for_both_workloads() {
        for workload in [Workload::Visformer, Workload::Vgg19] {
            let evaluator = build_evaluator(workload, Some(0.75), Budget::Ci).unwrap();
            let (gpu, dla) = single_cu_baselines(&evaluator).unwrap();
            assert!(gpu.latency_ms < dla.latency_ms);
            assert!(gpu.energy_mj > dla.energy_mj);
        }
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(format_factor(2.1234), "2.12x");
        assert_eq!(format_percent(0.5), "50.0%");
    }
}
