//! Qualitative claims of the paper's evaluation section, checked end to
//! end against the simulated substrate. Absolute numbers differ from the
//! paper's, apart from the calibrated single-unit baselines, which the
//! `visformer_baselines_match_paper_within_tolerance` and
//! `vgg19_baselines_match_paper_within_tolerance` tests in
//! `crates/mpsoc/src/platform.rs` pin; the orderings and trends must hold.

use map_and_conquer::core::{EvaluatorBuilder, MappingConfig};
use map_and_conquer::dynamic::{
    AccuracyModel, AccuracyProfile, DynamicNetwork, IndicatorMatrix, PartitionMatrix,
    SyntheticValidationSet,
};
use map_and_conquer::mpsoc::{CuId, Platform};
use map_and_conquer::nn::models::{vgg19, visformer, ModelPreset};
use map_and_conquer::nn::ImportanceModel;

/// §VI-D: VGG-19 benefits more from Map-and-Conquer than Visformer because
/// of its weight redundancy and heavy feature maps (4.6x/4.4x vs 2.1x/1.7x
/// in the paper).
#[test]
fn vgg19_gains_exceed_visformer_gains() {
    let platform = Platform::agx_xavier();
    let mut gains = Vec::new();
    for network in [
        visformer(ModelPreset::cifar100()),
        vgg19(ModelPreset::cifar100()),
    ] {
        let evaluator = EvaluatorBuilder::new(network.clone(), platform.clone())
            .validation_samples(3000)
            .build()
            .unwrap();
        let gpu = evaluator.baseline_single_cu(CuId(0)).unwrap();
        let dla = evaluator.baseline_single_cu(CuId(1)).unwrap();
        let config = MappingConfig::uniform(&network, &platform).unwrap();
        let dynamic = evaluator.evaluate(&config).unwrap();
        gains.push((
            gpu.energy_mj / dynamic.average_energy_mj,
            dla.latency_ms / dynamic.average_latency_ms,
        ));
    }
    let (visformer_energy_gain, visformer_speedup) = gains[0];
    let (vgg_energy_gain, vgg_speedup) = gains[1];
    assert!(
        visformer_energy_gain > 1.5,
        "visformer energy gain {visformer_energy_gain}"
    );
    assert!(
        visformer_speedup > 1.5,
        "visformer speedup {visformer_speedup}"
    );
    assert!(vgg_energy_gain > visformer_energy_gain);
    assert!(vgg_speedup > visformer_speedup);
}

/// §VI-D: more than 80% of VGG-19 samples are classified at earlier stages.
#[test]
fn most_vgg19_samples_exit_early() {
    let network = vgg19(ModelPreset::cifar100());
    let platform = Platform::agx_xavier();
    let evaluator = EvaluatorBuilder::new(network.clone(), platform.clone())
        .validation_samples(5000)
        .build()
        .unwrap();
    // A paper-style front-loaded split: the first stage keeps half of the
    // (importance-ranked) channels, the DLA stages share the rest.
    let config = MappingConfig::new(
        PartitionMatrix::from_stage_fractions(&network, &[0.5, 0.25, 0.25]).unwrap(),
        IndicatorMatrix::full(&network, 3),
        map_and_conquer::core::Mapping::identity(&platform),
        map_and_conquer::core::DvfsAssignment::max_frequency(
            &map_and_conquer::core::Mapping::identity(&platform),
            &platform,
        )
        .unwrap(),
    )
    .unwrap();
    let result = evaluator.evaluate(&config).unwrap();
    assert!(
        result.early_exit_fraction() > 0.8,
        "early exit fraction {}",
        result.early_exit_fraction()
    );
    // And the dynamic VGG-19 beats its static baseline accuracy (Table II).
    assert!(result.accuracy > 0.8055);
}

/// Fig. 6: restricting feature-map reuse degrades the accuracy attainable
/// by the final stage; the 50% case loses several percent.
#[test]
fn feature_map_reuse_correlates_with_accuracy() {
    let network = visformer(ModelPreset::cifar100());
    let importance = ImportanceModel::synthetic(&network, 3, 1.5);
    let model = AccuracyModel::new(AccuracyProfile::visformer_cifar100(), importance).unwrap();
    let dataset = SyntheticValidationSet::cifar100_like(17);
    let partition = PartitionMatrix::from_stage_fractions(&network, &[0.5, 0.25, 0.25]).unwrap();

    let mut final_accuracies = Vec::new();
    for keep_every in [1usize, 2, 4] {
        // keep_every = 1 forwards everything, larger values thin the reuse.
        let mut indicator = IndicatorMatrix::none(&network, 3);
        for layer in 0..network.num_layers() {
            if layer % keep_every == 0 {
                for stage in 0..2 {
                    indicator
                        .set(map_and_conquer::nn::LayerId(layer), stage, true)
                        .unwrap();
                }
            }
        }
        let dynamic = DynamicNetwork::transform(&network, &partition, &indicator).unwrap();
        let report = model.evaluate(&dynamic, &dataset);
        final_accuracies.push(report.final_stage_accuracy);
    }
    assert!(final_accuracies[0] > final_accuracies[1]);
    assert!(final_accuracies[1] > final_accuracies[2]);
    assert!(
        final_accuracies[0] - final_accuracies[2] > 0.02,
        "accuracy should drop noticeably when reuse is quartered: {final_accuracies:?}"
    );
}

/// Fig. 1 (right): the dynamic deployment moves fewer feature maps between
/// compute units than the static deployment of the same configuration.
#[test]
fn dynamic_deployment_reduces_fmap_traffic() {
    let network = visformer(ModelPreset::cifar100());
    let platform = Platform::agx_xavier();
    let evaluator = EvaluatorBuilder::new(network.clone(), platform.clone())
        .validation_samples(3000)
        .build()
        .unwrap();
    let config = MappingConfig::uniform(&network, &platform).unwrap();
    let dynamic_net =
        DynamicNetwork::transform(&network, &config.partition, &config.indicator).unwrap();
    let result = evaluator.evaluate(&config).unwrap();

    // Static deployment always moves every forwarded feature map.
    let static_bytes = dynamic_net.total_transfer_bytes();
    // Dynamic deployment only needs the stages that are instantiated.
    let total: usize = result.exit_counts.iter().sum();
    let mut dynamic_bytes = 0.0;
    for (stage_index, stage) in dynamic_net.stages().iter().enumerate() {
        let instantiated: usize = result.exit_counts.iter().skip(stage_index).sum();
        dynamic_bytes += stage.total_incoming_bytes() * instantiated as f64 / total as f64;
    }
    assert!(
        dynamic_bytes < static_bytes * 0.8,
        "dynamic {dynamic_bytes} vs static {static_bytes}"
    );
}

/// §V-D: assigning the most important channels to the earliest stage lets
/// far more samples terminate prematurely than the reverse assignment, the
/// mechanism behind the paper's latency/energy gains.
#[test]
fn front_loaded_partitions_exit_earlier() {
    let network = visformer(ModelPreset::cifar100());
    let platform = Platform::agx_xavier();
    let evaluator = EvaluatorBuilder::new(network.clone(), platform.clone())
        .validation_samples(3000)
        .build()
        .unwrap();
    let indicator = IndicatorMatrix::full(&network, 3);
    let mapping = map_and_conquer::core::Mapping::identity(&platform);
    let dvfs = map_and_conquer::core::DvfsAssignment::max_frequency(&mapping, &platform).unwrap();

    let front = MappingConfig::new(
        PartitionMatrix::from_stage_fractions(&network, &[0.625, 0.25, 0.125]).unwrap(),
        indicator.clone(),
        mapping.clone(),
        dvfs.clone(),
    )
    .unwrap();
    let back = MappingConfig::new(
        PartitionMatrix::from_stage_fractions(&network, &[0.125, 0.25, 0.625]).unwrap(),
        indicator,
        mapping,
        dvfs,
    )
    .unwrap();
    let front_result = evaluator.evaluate(&front).unwrap();
    let back_result = evaluator.evaluate(&back).unwrap();
    assert!(
        front_result.exit_counts[0] > back_result.exit_counts[0],
        "front {:?} vs back {:?}",
        front_result.exit_counts,
        back_result.exit_counts
    );
    assert!(front_result.average_stages_executed < back_result.average_stages_executed);
}
