//! End-to-end evaluation of candidate configurations.
//!
//! The [`Evaluator`] holds everything that is fixed during a search — the
//! network, the platform, the accuracy model, the synthetic validation set,
//! the estimator and the constraints — and turns one [`MappingConfig`] into
//! an [`EvaluationResult`]: the average/worst-case latency and energy under
//! dynamic early-exit inference, the accuracy figures, the memory footprint,
//! the scalar objective of eq. 16 and the constraint violations.

use crate::baselines::default_accuracy_profile;
use crate::config::MappingConfig;
use crate::error::CoreError;
use crate::estimator::Estimator;
use crate::objective::{objective_value, Constraints, ObjectiveWeights};
use crate::perf::{
    evaluate_performance, evaluate_performance_grid, evaluate_performance_quant,
    evaluate_performance_tabled, PerformanceBreakdown, StagePerformance,
};
use crate::tables::{CostTable, QuantizedCostTable};
use mnc_dynamic::{
    AccuracyModel, AccuracyProfile, DynamicAccuracyReport, DynamicNetwork, QuantSliceGrid,
    SliceGrid, SyntheticValidationSet,
};
use mnc_mpsoc::Platform;
use mnc_nn::{ImportanceModel, LayerId, Network};
use serde::{Deserialize, Serialize};

/// Everything the evaluator derives from one configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvaluationResult {
    /// Expected per-input latency under early-exit inference (ms), averaged
    /// over the validation set's exit distribution.
    pub average_latency_ms: f64,
    /// Expected per-input energy under early-exit inference (mJ).
    pub average_energy_mj: f64,
    /// Worst-case latency with every stage instantiated (eq. 13).
    pub worst_case_latency_ms: f64,
    /// Energy with every stage instantiated (eq. 14).
    pub full_energy_mj: f64,
    /// Accuracy of the dynamic network under the early-exit policy.
    pub accuracy: f64,
    /// Accuracy of the final stage (the paper's `Acc_SM`).
    pub final_stage_accuracy: f64,
    /// Baseline accuracy minus dynamic accuracy (positive = loss).
    pub accuracy_drop: f64,
    /// Feature-map reuse ratio of the configuration.
    pub fmap_reuse: f64,
    /// Bytes of forwarded features resident in shared memory.
    pub stored_feature_bytes: f64,
    /// Scalar objective of eq. 16 (lower is better).
    pub objective: f64,
    /// Whether all constraints are satisfied.
    pub feasible: bool,
    /// Human-readable list of violated constraints (empty when feasible).
    pub violations: Vec<String>,
    /// Per-stage latency/energy breakdown.
    pub stage_performance: Vec<StagePerformance>,
    /// Number of validation samples exiting at each stage.
    pub exit_counts: Vec<usize>,
    /// Mean number of stages executed per input.
    pub average_stages_executed: f64,
}

impl EvaluationResult {
    /// Fraction of validation samples that exit before the last stage.
    pub fn early_exit_fraction(&self) -> f64 {
        let total: usize = self.exit_counts.iter().sum();
        if total == 0 || self.exit_counts.len() <= 1 {
            return 0.0;
        }
        let early: usize = self
            .exit_counts
            .iter()
            .take(self.exit_counts.len() - 1)
            .sum();
        early as f64 / total as f64
    }
}

/// Builder for [`Evaluator`] (C-BUILDER).
#[derive(Debug, Clone)]
pub struct EvaluatorBuilder {
    network: Network,
    platform: Platform,
    accuracy_profile: Option<AccuracyProfile>,
    importance: Option<ImportanceModel>,
    importance_seed: u64,
    importance_concentration: f64,
    validation_set: Option<SyntheticValidationSet>,
    validation_samples: usize,
    validation_seed: u64,
    constraints: Constraints,
    estimator: Estimator,
    weights: ObjectiveWeights,
}

impl EvaluatorBuilder {
    /// Starts a builder for the given network and platform.
    pub fn new(network: Network, platform: Platform) -> Self {
        EvaluatorBuilder {
            network,
            platform,
            accuracy_profile: None,
            importance: None,
            importance_seed: 2023,
            importance_concentration: 1.5,
            validation_set: None,
            validation_samples: 10_000,
            validation_seed: 7,
            constraints: Constraints::default(),
            estimator: Estimator::Analytic,
            weights: ObjectiveWeights::default(),
        }
    }

    /// Overrides the accuracy profile (defaults to a per-architecture
    /// preset chosen from the network name).
    #[must_use]
    pub fn accuracy_profile(mut self, profile: AccuracyProfile) -> Self {
        self.accuracy_profile = Some(profile);
        self
    }

    /// Uses an explicit channel-importance model (defaults to a synthetic
    /// one seeded from [`EvaluatorBuilder::importance_seed`]).
    #[must_use]
    pub fn importance(mut self, importance: ImportanceModel) -> Self {
        self.importance = Some(importance);
        self
    }

    /// Seed of the synthetic channel-importance model.
    #[must_use]
    pub fn importance_seed(mut self, seed: u64) -> Self {
        self.importance_seed = seed;
        self
    }

    /// Concentration of the synthetic channel-importance model.
    #[must_use]
    pub fn importance_concentration(mut self, concentration: f64) -> Self {
        self.importance_concentration = concentration;
        self
    }

    /// Uses an explicit synthetic validation set.
    #[must_use]
    pub fn validation_set(mut self, set: SyntheticValidationSet) -> Self {
        self.validation_set = Some(set);
        self
    }

    /// Number of synthetic validation samples to generate when no explicit
    /// set is supplied.
    #[must_use]
    pub fn validation_samples(mut self, samples: usize) -> Self {
        self.validation_samples = samples;
        self
    }

    /// Seed of the generated validation set.
    #[must_use]
    pub fn validation_seed(mut self, seed: u64) -> Self {
        self.validation_seed = seed;
        self
    }

    /// Sets the deployment constraints.
    #[must_use]
    pub fn constraints(mut self, constraints: Constraints) -> Self {
        self.constraints = constraints;
        self
    }

    /// Sets the latency/energy estimator.
    #[must_use]
    pub fn estimator(mut self, estimator: Estimator) -> Self {
        self.estimator = estimator;
        self
    }

    /// Sets the objective weights.
    #[must_use]
    pub fn objective_weights(mut self, weights: ObjectiveWeights) -> Self {
        self.weights = weights;
        self
    }

    /// Builds the evaluator.
    ///
    /// # Errors
    ///
    /// Returns an error when the constraints or the accuracy profile are
    /// invalid.
    pub fn build(self) -> Result<Evaluator, CoreError> {
        self.constraints.validate()?;
        let profile = self
            .accuracy_profile
            .unwrap_or_else(|| default_accuracy_profile(self.network.name()));
        let importance = self.importance.unwrap_or_else(|| {
            ImportanceModel::synthetic(
                &self.network,
                self.importance_seed,
                self.importance_concentration,
            )
        });
        let accuracy = AccuracyModel::new(profile, importance)?;
        let validation = self.validation_set.unwrap_or_else(|| {
            SyntheticValidationSet::generate(self.validation_samples, self.validation_seed, 1.0)
        });
        // The analytic estimator's per-slice arithmetic is invariant during
        // a search, so resolve it into a cost table once. The surrogate's
        // output depends on the continuous slice features and keeps the
        // dynamic dispatch path.
        let cost_table = match &self.estimator {
            Estimator::Analytic => Some(CostTable::build(&self.network, &self.platform)),
            Estimator::Surrogate(_) => None,
        };
        let quantized = match &cost_table {
            Some(table) => Some(QuantizedCostTable::build(
                &self.network,
                &self.platform,
                table,
            )?),
            None => None,
        };
        let partitionable = self.network.partitionable_layers();
        let output_bytes = (0..self.network.num_layers())
            .map(|layer| {
                Ok(self
                    .network
                    .output_shape_of(mnc_nn::LayerId(layer))?
                    .num_bytes() as f64)
            })
            .collect::<Result<Vec<f64>, CoreError>>()?;
        Ok(Evaluator {
            network: self.network,
            platform: self.platform,
            accuracy,
            validation,
            constraints: self.constraints,
            estimator: self.estimator,
            weights: self.weights,
            cost_table,
            quantized,
            partitionable,
            output_bytes,
        })
    }
}

/// Evaluates mapping configurations for one (network, platform) pair.
#[derive(Debug, Clone)]
pub struct Evaluator {
    network: Network,
    platform: Platform,
    accuracy: AccuracyModel,
    validation: SyntheticValidationSet,
    constraints: Constraints,
    estimator: Estimator,
    weights: ObjectiveWeights,
    /// Precomputed per-(unit, level, class) coefficients; `None` for the
    /// surrogate estimator (see [`CostTable`]).
    cost_table: Option<CostTable>,
    /// The fully resolved estimate grid over exact 1/8 width fractions
    /// (see [`QuantizedCostTable`]); `None` for the surrogate estimator.
    quantized: Option<QuantizedCostTable>,
    /// The network's partitionable layers, resolved once at build time so
    /// the fused evaluation path stops re-deriving them per evaluation.
    partitionable: Vec<LayerId>,
    /// Each layer's output-feature byte count, resolved once at build time
    /// (shapes are fixed); feeds the fused paths' transfer derivation.
    output_bytes: Vec<f64>,
}

impl Evaluator {
    /// The network under evaluation.
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// The target platform.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// The active constraints.
    pub fn constraints(&self) -> &Constraints {
        &self.constraints
    }

    /// The accuracy model in use.
    pub fn accuracy_model(&self) -> &AccuracyModel {
        &self.accuracy
    }

    /// The estimator in use.
    pub fn estimator(&self) -> &Estimator {
        &self.estimator
    }

    /// Baseline accuracy of the unmodified network.
    pub fn baseline_accuracy(&self) -> f64 {
        self.accuracy.profile().baseline_accuracy
    }

    /// The precomputed cost table, when the estimator supports one.
    pub fn cost_table(&self) -> Option<&CostTable> {
        self.cost_table.as_ref()
    }

    /// Evaluates a configuration end to end.
    ///
    /// # Errors
    ///
    /// Returns an error when the configuration is inconsistent with the
    /// network/platform or the hardware model rejects it.
    pub fn evaluate(&self, config: &MappingConfig) -> Result<EvaluationResult, CoreError> {
        let dynamic =
            DynamicNetwork::transform(&self.network, &config.partition, &config.indicator)?;
        let perf = match &self.cost_table {
            Some(table) => evaluate_performance_tabled(&dynamic, config, &self.platform, table)?,
            None => evaluate_performance(&dynamic, config, &self.platform, &self.estimator)?,
        };
        let report = self.accuracy.evaluate(&dynamic, &self.validation);
        Ok(self.assemble(&dynamic, perf, report))
    }

    /// Evaluates a configuration through the fused fast path: the
    /// transform recursion runs into a flat [`SliceGrid`] (three
    /// allocations) instead of materialising a [`DynamicNetwork`] (a clone
    /// of the network, both matrices and ~200 slice/transfer allocations),
    /// the performance model derives transfers on the fly and the accuracy
    /// model reads the configuration directly. Results are **bit-identical**
    /// to [`Evaluator::evaluate`] — every intermediate float is computed by
    /// the same expression from the same inputs in the same order
    /// (property-tested in `tests/fast_path.rs`).
    ///
    /// The surrogate estimator keeps its dynamic dispatch and falls back
    /// to [`Evaluator::evaluate`].
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Evaluator::evaluate`].
    pub fn evaluate_fused(&self, config: &MappingConfig) -> Result<EvaluationResult, CoreError> {
        self.evaluate_fused_inner(config, None)
    }

    /// [`Evaluator::evaluate_fused`] with caller-supplied per-layer row
    /// keys (one per partitionable layer, e.g.
    /// `mnc_optim::Genome::partition_row_keys`) that memoise the accuracy
    /// model's slice-mass rows across evaluations — partition rows repeat
    /// constantly across a population while full structures never do.
    /// Keys are verified before use, so results stay bit-identical to
    /// [`Evaluator::evaluate`] for any key input.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Evaluator::evaluate`].
    pub fn evaluate_fused_keyed(
        &self,
        config: &MappingConfig,
        row_keys: &[u64],
    ) -> Result<EvaluationResult, CoreError> {
        self.evaluate_fused_inner(config, Some(row_keys))
    }

    fn evaluate_fused_inner(
        &self,
        config: &MappingConfig,
        row_keys: Option<&[u64]>,
    ) -> Result<EvaluationResult, CoreError> {
        let Some(table) = &self.cost_table else {
            return self.evaluate(config);
        };
        // Preferred: the quantised path (pure table reads per slice).
        // Configurations off the 1/8 grid — not produced by the genome
        // encoding — fall back to the general grid path.
        let (perf, stored_feature_bytes) = match &self.quantized {
            Some(quant) => {
                match QuantSliceGrid::compute(&self.network, &config.partition, &config.indicator)?
                {
                    Some(grid) => {
                        let perf = evaluate_performance_quant(
                            &grid,
                            config,
                            &self.platform,
                            quant,
                            &self.output_bytes,
                        )?;
                        (perf, grid.stored_feature_bytes())
                    }
                    None => self.fused_grid_performance(config, table)?,
                }
            }
            None => self.fused_grid_performance(config, table)?,
        };
        let report = match row_keys {
            Some(keys) => self.accuracy.evaluate_parts_keyed(
                &config.partition,
                &config.indicator,
                &self.partitionable,
                &self.validation,
                keys,
            ),
            None => self.accuracy.evaluate_parts(
                &config.partition,
                &config.indicator,
                &self.partitionable,
                &self.validation,
            ),
        };
        Ok(self.assemble_parts(
            config.indicator.reuse_ratio(),
            stored_feature_bytes,
            perf,
            report,
        ))
    }

    /// The un-quantised fused performance path: flat [`SliceGrid`] plus
    /// the coefficient table.
    fn fused_grid_performance(
        &self,
        config: &MappingConfig,
        table: &CostTable,
    ) -> Result<(PerformanceBreakdown, f64), CoreError> {
        let grid = SliceGrid::compute(&self.network, &config.partition, &config.indicator)?;
        let perf =
            evaluate_performance_grid(&grid, config, &self.platform, table, &self.output_bytes)?;
        Ok((perf, grid.stored_feature_bytes()))
    }

    /// Evaluates a configuration through the pre-fast-path pipeline: fresh
    /// dynamic transformation, per-slice estimator dispatch (no cost
    /// table) and the naive per-sample accuracy loop.
    ///
    /// Retained as the oracle for the fast-path-equivalence property
    /// tests and the baseline for the `evaluator_fastpath` benchmark; the
    /// results are bit-identical to [`Evaluator::evaluate`].
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Evaluator::evaluate`].
    pub fn evaluate_reference(
        &self,
        config: &MappingConfig,
    ) -> Result<EvaluationResult, CoreError> {
        let dynamic =
            DynamicNetwork::transform(&self.network, &config.partition, &config.indicator)?;
        let perf = evaluate_performance(&dynamic, config, &self.platform, &self.estimator)?;
        let report = self.accuracy.evaluate_reference(&dynamic, &self.validation);
        Ok(self.assemble(&dynamic, perf, report))
    }

    fn assemble(
        &self,
        dynamic: &DynamicNetwork,
        perf: PerformanceBreakdown,
        report: DynamicAccuracyReport,
    ) -> EvaluationResult {
        self.assemble_parts(
            dynamic.fmap_reuse_ratio(),
            dynamic.stored_feature_bytes(),
            perf,
            report,
        )
    }

    /// [`Evaluator::assemble`] from the two scalars it actually reads off
    /// the dynamic network, so the fused path can call it without one.
    /// Takes the performance breakdown by value: its stage vector moves
    /// into the result instead of being cloned.
    fn assemble_parts(
        &self,
        fmap_reuse: f64,
        stored_feature_bytes: f64,
        perf: PerformanceBreakdown,
        report: DynamicAccuracyReport,
    ) -> EvaluationResult {
        let num_stages = perf.num_stages();
        let total_samples: usize = report.exit_counts.iter().sum();

        // Cumulative views in one pass: `latency_with_stages(i + 1)` is a
        // running max and `energy_with_stages(i + 1)` a running sum, both
        // left-folded exactly like the `PerformanceBreakdown` methods, so
        // the former per-stage recomputation (O(stages²)) collapses to
        // O(stages) with bit-identical values.
        let mut cumulative_latency = Vec::with_capacity(num_stages);
        let mut cumulative_energy = Vec::with_capacity(num_stages);
        let mut worst_case_latency_ms = 0.0f64;
        let mut full_energy_mj = 0.0f64;
        for stage in &perf.stages {
            worst_case_latency_ms = worst_case_latency_ms.max(stage.latency_ms);
            full_energy_mj += stage.energy_mj;
            cumulative_latency.push(worst_case_latency_ms);
            cumulative_energy.push(full_energy_mj);
        }

        // Expected latency/energy over the exit distribution: an input that
        // exits at stage i pays max latency of stages 0..=i and the energy
        // of stages 0..=i (eq. 13/14 restricted to instantiated stages).
        let mut average_latency_ms = 0.0;
        let mut average_energy_mj = 0.0;
        if total_samples > 0 {
            for (stage, count) in report.exit_counts.iter().enumerate() {
                if *count == 0 {
                    continue;
                }
                let weight = *count as f64 / total_samples as f64;
                average_latency_ms += weight * cumulative_latency[stage];
                average_energy_mj += weight * cumulative_energy[stage];
            }
        } else {
            average_latency_ms = worst_case_latency_ms;
            average_energy_mj = full_energy_mj;
        }

        let stage_latencies: Vec<f64> = perf.stages.iter().map(|s| s.latency_ms).collect();
        let objective = objective_value(
            self.baseline_accuracy(),
            &report,
            &stage_latencies,
            &cumulative_energy,
            &self.weights,
        );

        let accuracy_drop = (self.baseline_accuracy() - report.overall_accuracy).max(0.0);
        let violations = self.constraints.violations(
            worst_case_latency_ms,
            full_energy_mj,
            fmap_reuse,
            accuracy_drop,
            stored_feature_bytes,
            self.platform.shared_memory().capacity_bytes(),
        );

        EvaluationResult {
            average_latency_ms,
            average_energy_mj,
            worst_case_latency_ms,
            full_energy_mj,
            accuracy: report.overall_accuracy,
            final_stage_accuracy: report.final_stage_accuracy,
            accuracy_drop,
            fmap_reuse,
            stored_feature_bytes,
            objective,
            feasible: violations.is_empty(),
            violations,
            stage_performance: perf.stages,
            exit_counts: report.exit_counts,
            average_stages_executed: report.average_stages_executed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnc_dynamic::{IndicatorMatrix, PartitionMatrix};
    use mnc_nn::models::{visformer_tiny, ModelPreset};

    fn evaluator() -> Evaluator {
        EvaluatorBuilder::new(
            visformer_tiny(ModelPreset::cifar100()),
            Platform::dual_test(),
        )
        .validation_samples(2000)
        .build()
        .unwrap()
    }

    fn skewed_config(evaluator: &Evaluator) -> MappingConfig {
        let net = evaluator.network();
        let platform = evaluator.platform();
        let partition = PartitionMatrix::from_stage_fractions(net, &[0.625, 0.375]).unwrap();
        let indicator = IndicatorMatrix::full(net, 2);
        let mapping = crate::config::Mapping::identity(platform);
        let dvfs = crate::config::DvfsAssignment::max_frequency(&mapping, platform).unwrap();
        MappingConfig::new(partition, indicator, mapping, dvfs).unwrap()
    }

    #[test]
    fn evaluation_produces_consistent_metrics() {
        let evaluator = evaluator();
        let config = skewed_config(&evaluator);
        let result = evaluator.evaluate(&config).unwrap();
        assert!(result.average_latency_ms > 0.0);
        assert!(result.average_latency_ms <= result.worst_case_latency_ms + 1e-9);
        assert!(result.average_energy_mj > 0.0);
        assert!(result.average_energy_mj <= result.full_energy_mj + 1e-9);
        assert!(result.accuracy > 0.5 && result.accuracy <= 1.0);
        assert!(result.objective.is_finite());
        assert_eq!(result.exit_counts.iter().sum::<usize>(), 2000);
        assert_eq!(result.stage_performance.len(), 2);
        assert!(result.early_exit_fraction() > 0.0);
        assert!(result.feasible, "violations: {:?}", result.violations);
    }

    #[test]
    fn early_exits_reduce_average_energy_below_full_energy() {
        let evaluator = evaluator();
        let config = skewed_config(&evaluator);
        let result = evaluator.evaluate(&config).unwrap();
        // A large share of samples exits at stage 0, so the expected energy
        // must be clearly below running everything every time.
        assert!(result.average_energy_mj < result.full_energy_mj * 0.95);
        assert!(result.average_stages_executed < 2.0);
    }

    #[test]
    fn uniform_default_configuration_is_feasible() {
        let evaluator = evaluator();
        let config = MappingConfig::uniform(evaluator.network(), evaluator.platform()).unwrap();
        let result = evaluator.evaluate(&config).unwrap();
        assert!(result.feasible, "violations: {:?}", result.violations);
    }

    #[test]
    fn fmap_constraint_marks_full_reuse_infeasible() {
        let network = visformer_tiny(ModelPreset::cifar100());
        let evaluator = EvaluatorBuilder::new(network, Platform::dual_test())
            .validation_samples(1000)
            .constraints(Constraints::with_fmap_reuse_limit(0.5))
            .build()
            .unwrap();
        let config = skewed_config(&evaluator);
        let result = evaluator.evaluate(&config).unwrap();
        assert!(!result.feasible);
        assert!(result.violations.iter().any(|v| v.contains("reuse")));
    }

    #[test]
    fn invalid_constraints_fail_at_build_time() {
        let network = visformer_tiny(ModelPreset::cifar100());
        let result = EvaluatorBuilder::new(network, Platform::dual_test())
            .constraints(Constraints {
                latency_target_ms: Some(-1.0),
                ..Constraints::default()
            })
            .build();
        assert!(result.is_err());
    }

    #[test]
    fn fast_path_matches_reference_pipeline_bitwise() {
        let evaluator = evaluator();
        let config = skewed_config(&evaluator);
        let fast = evaluator.evaluate(&config).unwrap();
        let reference = evaluator.evaluate_reference(&config).unwrap();
        assert_eq!(fast, reference);
        assert_eq!(fast.objective.to_bits(), reference.objective.to_bits());
        assert_eq!(
            fast.average_latency_ms.to_bits(),
            reference.average_latency_ms.to_bits()
        );
        assert_eq!(
            fast.average_energy_mj.to_bits(),
            reference.average_energy_mj.to_bits()
        );
        assert_eq!(
            fast.worst_case_latency_ms.to_bits(),
            reference.worst_case_latency_ms.to_bits()
        );
        assert_eq!(
            fast.full_energy_mj.to_bits(),
            reference.full_energy_mj.to_bits()
        );
    }

    #[test]
    fn analytic_evaluator_builds_a_cost_table() {
        let evaluator = evaluator();
        let table = evaluator.cost_table().expect("analytic builds a table");
        assert_eq!(table.num_units(), evaluator.platform().num_compute_units());
        assert_eq!(table.num_layers(), evaluator.network().num_layers());
    }

    #[test]
    fn builder_accessors_round_trip() {
        let evaluator = evaluator();
        assert_eq!(evaluator.network().name(), "visformer_tiny");
        assert_eq!(evaluator.platform().name(), "dual_test");
        assert_eq!(evaluator.estimator().tag(), "analytic");
        assert!(evaluator.baseline_accuracy() > 0.8);
        assert!(evaluator.constraints().validate().is_ok());
        assert!(evaluator.accuracy_model().profile().baseline_accuracy > 0.8);
    }
}
