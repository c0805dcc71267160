//! The evaluation hook the search loop drives.
//!
//! [`MappingSearch`](crate::MappingSearch) does not call
//! [`mnc_core::Evaluator`] directly; it goes through [`ConfigEvaluator`],
//! which turns a genome into a decoded configuration plus its metrics.
//! This is the seam where alternative evaluation strategies plug in:
//!
//! * [`mnc_core::Evaluator`] implements it by decoding the genome and
//!   running [`mnc_core::Evaluator::evaluate_fused_keyed`], which runs the
//!   transform recursion into flat storage instead of materialising a
//!   `DynamicNetwork` per candidate (bit-identical to
//!   [`mnc_core::Evaluator::evaluate`], two orders of magnitude fewer
//!   allocations); `mnc_runtime`'s pipeline forwards to that same hook
//!   behind its fault-injection tick.
//!
//! Results come back `Arc`-backed: one evaluation is shared by the search
//! archive, the elite set and the within-run memo without ever
//! deep-cloning the decoded configuration again.
//!
//! [`ConfigEvaluator::evaluate_genome_reference`] keeps the pre-fast-path
//! pipeline (row-by-row decode plus the transform-materialising
//! `evaluate`) as the oracle the fused hook is tested against.
//!
//! Implementations must be pure: the same genome must always produce the
//! same result. The search relies on this for its determinism guarantee
//! (identical outcomes regardless of thread count).

use crate::error::OptimError;
use crate::genome::Genome;
use mnc_core::{EvaluationResult, Evaluator, MappingConfig};
use mnc_mpsoc::Platform;
use mnc_nn::Network;
use std::sync::Arc;

/// Turns genomes into evaluated configurations for one (network, platform)
/// pair.
pub trait ConfigEvaluator: Sync {
    /// The network candidates are built for.
    fn network(&self) -> &Network;

    /// The platform candidates are mapped onto.
    fn platform(&self) -> &Platform;

    /// Decodes and evaluates one genome through the implementation's
    /// fastest bit-identical pipeline — the hook the search loop's fresh
    /// (non-memoised) evaluations use.
    ///
    /// # Errors
    ///
    /// Returns an error when the genome does not match the network/platform
    /// or the underlying hardware model rejects the configuration.
    fn evaluate_genome(
        &self,
        genome: &Genome,
    ) -> Result<(Arc<MappingConfig>, Arc<EvaluationResult>), OptimError>;

    /// Forwards to [`ConfigEvaluator::evaluate_genome`]. Kept only for
    /// the benchmark harness under `perfbench/`, which calls it by this
    /// name; nothing overrides it and the search does not call it.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`ConfigEvaluator::evaluate_genome`].
    fn evaluate_genome_fast(
        &self,
        genome: &Genome,
    ) -> Result<(Arc<MappingConfig>, Arc<EvaluationResult>), OptimError> {
        self.evaluate_genome(genome)
    }

    /// Like [`ConfigEvaluator::evaluate_genome`], through the
    /// implementation's retained pre-fast-path pipeline — the hook
    /// [`crate::MappingSearch::run_reference`] drives so the benchmark
    /// baseline pays what the loop paid before the search fast path. The
    /// default forwards to [`ConfigEvaluator::evaluate_genome`].
    ///
    /// # Errors
    ///
    /// Same failure modes as [`ConfigEvaluator::evaluate_genome`].
    fn evaluate_genome_reference(
        &self,
        genome: &Genome,
    ) -> Result<(Arc<MappingConfig>, Arc<EvaluationResult>), OptimError> {
        self.evaluate_genome(genome)
    }
}

impl ConfigEvaluator for Evaluator {
    fn network(&self) -> &Network {
        Evaluator::network(self)
    }

    fn platform(&self) -> &Platform {
        Evaluator::platform(self)
    }

    fn evaluate_genome(
        &self,
        genome: &Genome,
    ) -> Result<(Arc<MappingConfig>, Arc<EvaluationResult>), OptimError> {
        let config = genome.decode(Evaluator::network(self), Evaluator::platform(self))?;
        // Bit-identical to `evaluate` (property-tested in `mnc_core`'s
        // fused-evaluation suite); the genome's integer slot rows key the
        // accuracy model's slice-mass memo.
        let result = self.evaluate_fused_keyed(&config, &genome.partition_row_keys())?;
        Ok((Arc::new(config), Arc::new(result)))
    }

    fn evaluate_genome_reference(
        &self,
        genome: &Genome,
    ) -> Result<(Arc<MappingConfig>, Arc<EvaluationResult>), OptimError> {
        // The pre-fast-path pipeline end to end: row-by-row decode plus
        // the transform-materialising `evaluate`.
        let config =
            genome.decode_reference(Evaluator::network(self), Evaluator::platform(self))?;
        let result = self.evaluate(&config)?;
        Ok((Arc::new(config), Arc::new(result)))
    }
}

impl<T: ConfigEvaluator + ?Sized> ConfigEvaluator for &T {
    fn network(&self) -> &Network {
        (**self).network()
    }

    fn platform(&self) -> &Platform {
        (**self).platform()
    }

    fn evaluate_genome(
        &self,
        genome: &Genome,
    ) -> Result<(Arc<MappingConfig>, Arc<EvaluationResult>), OptimError> {
        (**self).evaluate_genome(genome)
    }

    fn evaluate_genome_reference(
        &self,
        genome: &Genome,
    ) -> Result<(Arc<MappingConfig>, Arc<EvaluationResult>), OptimError> {
        (**self).evaluate_genome_reference(genome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnc_core::EvaluatorBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn evaluator() -> Evaluator {
        EvaluatorBuilder::new(
            mnc_nn::models::visformer_tiny(mnc_nn::models::ModelPreset::cifar100()),
            Platform::dual_test(),
        )
        .validation_samples(300)
        .build()
        .unwrap()
    }

    #[test]
    fn hook_is_bit_identical_to_reference() {
        let evaluator = evaluator();
        let mut rng = StdRng::seed_from_u64(77);
        for _ in 0..8 {
            let genome = Genome::random(
                ConfigEvaluator::network(&evaluator),
                ConfigEvaluator::platform(&evaluator),
                &mut rng,
            );
            let (reference_config, reference_result) =
                evaluator.evaluate_genome_reference(&genome).unwrap();
            let (config, result) = evaluator.evaluate_genome(&genome).unwrap();
            assert_eq!(*reference_config, *config);
            assert_eq!(*reference_result, *result);
            assert_eq!(
                reference_result.objective.to_bits(),
                result.objective.to_bits()
            );
        }
    }
}
