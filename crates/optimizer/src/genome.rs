//! Genome encoding of a mapping configuration.
//!
//! The evolutionary search works on a compact integer genome rather than on
//! [`mnc_core::MappingConfig`] directly:
//!
//! * **partition genes** — for every partitionable layer, `M` slot counts
//!   summing to 8 (the paper's eight split ratios per layer),
//! * **indicator genes** — one forwarding bit per layer per non-final stage,
//! * **mapping gene** — a permutation of the platform's compute units,
//! * **DVFS genes** — one quantised frequency index per stage, rescaled to
//!   the stage's compute-unit DVFS table when decoding.
//!
//! Every genome constructed by [`Genome::random`] or produced by the
//! mutation/crossover operators decodes into a *valid* configuration, so
//! the search never wastes evaluations on malformed candidates.

use crate::error::OptimError;
use mnc_core::{CoreError, DvfsAssignment, Mapping, MappingConfig};
use mnc_dynamic::{IndicatorMatrix, PartitionMatrix};
use mnc_mpsoc::{CuId, Platform};
use mnc_nn::{LayerId, Network};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::RngExt;
use serde::{Deserialize, Serialize};

/// Number of width slots per layer (split ratios are multiples of 1/8).
pub const PARTITION_SLOTS: u8 = 8;

/// Resolution of the quantised DVFS gene.
pub const DVFS_RESOLUTION: u8 = 16;

/// Borrowed views of the four gene groups (partition slots, indicator
/// bits, mapping permutation, DVFS levels), used by the operators.
pub(crate) type GenomeParts<'a> = (&'a [Vec<u8>], &'a [Vec<bool>], &'a [usize], &'a [u8]);

/// Mutable counterpart of [`GenomeParts`].
pub(crate) type GenomePartsMut<'a> = (
    &'a mut Vec<Vec<u8>>,
    &'a mut Vec<Vec<bool>>,
    &'a mut Vec<usize>,
    &'a mut Vec<u8>,
);

/// A candidate solution in genome form.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Genome {
    num_stages: usize,
    /// Identifiers of the partitionable layers (decoding needs the order).
    partitionable: Vec<usize>,
    /// Slot allocation per partitionable layer; each row sums to
    /// [`PARTITION_SLOTS`].
    partition_slots: Vec<Vec<u8>>,
    /// Forwarding bit per layer (all layers) and per non-final stage.
    indicator: Vec<Vec<bool>>,
    /// Permutation of compute-unit indices, one per stage.
    mapping: Vec<usize>,
    /// Quantised DVFS level per stage, in `0..DVFS_RESOLUTION`.
    dvfs: Vec<u8>,
}

impl Genome {
    /// Samples a random, valid genome.
    pub fn random(network: &Network, platform: &Platform, rng: &mut StdRng) -> Self {
        let num_stages = platform.num_compute_units();
        let partitionable: Vec<usize> = network
            .partitionable_layers()
            .into_iter()
            .map(|id| id.0)
            .collect();
        let partition_slots = partitionable
            .iter()
            .map(|_| random_slots(num_stages, rng))
            .collect();
        // Sample a per-genome forwarding density so the initial population
        // already spans the whole feature-map-reuse range; this matters for
        // the constrained search strategies (reuse ≤ 75% / 50%).
        let density = 0.3 + 0.7 * rng.random::<f64>();
        let indicator = (0..network.num_layers())
            .map(|_| {
                (0..num_stages.saturating_sub(1))
                    .map(|_| rng.random::<f64>() < density)
                    .collect()
            })
            .collect();
        let mut mapping: Vec<usize> = (0..num_stages).collect();
        mapping.shuffle(rng);
        let dvfs = (0..num_stages)
            .map(|_| rng.random_range(0..DVFS_RESOLUTION))
            .collect();
        Genome {
            num_stages,
            partitionable,
            partition_slots,
            indicator,
            mapping,
            dvfs,
        }
    }

    /// The genome of the paper's default starting point: even split, full
    /// forwarding, identity mapping, maximum frequency.
    pub fn balanced(network: &Network, platform: &Platform) -> Self {
        let num_stages = platform.num_compute_units();
        let partitionable: Vec<usize> = network
            .partitionable_layers()
            .into_iter()
            .map(|id| id.0)
            .collect();
        let mut even = vec![PARTITION_SLOTS / num_stages as u8; num_stages];
        let mut remainder =
            PARTITION_SLOTS as usize - even.iter().map(|s| *s as usize).sum::<usize>();
        let mut i = 0;
        while remainder > 0 {
            even[i % num_stages] += 1;
            remainder -= 1;
            i += 1;
        }
        Genome {
            num_stages,
            partition_slots: partitionable.iter().map(|_| even.clone()).collect(),
            partitionable,
            indicator: vec![vec![true; num_stages.saturating_sub(1)]; network.num_layers()],
            mapping: (0..num_stages).collect(),
            dvfs: vec![DVFS_RESOLUTION - 1; num_stages],
        }
    }

    /// Number of stages encoded.
    pub fn num_stages(&self) -> usize {
        self.num_stages
    }

    /// Number of network layers the genome encodes indicator rows for —
    /// the layer count of the network it was built against (used to
    /// screen warm-start seeds before decoding).
    pub fn num_layers(&self) -> usize {
        self.indicator.len()
    }

    /// Slot allocations per partitionable layer.
    pub fn partition_slots(&self) -> &[Vec<u8>] {
        &self.partition_slots
    }

    /// The mapping gene: compute-unit index per stage.
    pub fn mapping_genes(&self) -> &[usize] {
        &self.mapping
    }

    /// The quantised DVFS gene per stage, in `0..DVFS_RESOLUTION`.
    pub fn dvfs_genes(&self) -> &[u8] {
        &self.dvfs
    }

    /// Mutable access for the mutation operators (crate-internal).
    pub(crate) fn parts_mut(&mut self) -> GenomePartsMut<'_> {
        (
            &mut self.partition_slots,
            &mut self.indicator,
            &mut self.mapping,
            &mut self.dvfs,
        )
    }

    /// Read access to the gene groups (crate-internal, used by crossover).
    pub(crate) fn parts(&self) -> GenomeParts<'_> {
        (
            &self.partition_slots,
            &self.indicator,
            &self.mapping,
            &self.dvfs,
        )
    }

    /// Checks the genome invariants (slot sums, permutation, gene ranges).
    pub fn is_valid(&self) -> bool {
        let slots_ok = self.partition_slots.iter().all(|row| {
            row.len() == self.num_stages
                && row.iter().map(|s| *s as u32).sum::<u32>() == PARTITION_SLOTS as u32
        });
        let mut seen = vec![false; self.num_stages];
        let mut permutation_ok = self.mapping.len() == self.num_stages;
        for &cu in &self.mapping {
            if cu >= self.num_stages || seen[cu] {
                permutation_ok = false;
                break;
            }
            seen[cu] = true;
        }
        let dvfs_ok =
            self.dvfs.len() == self.num_stages && self.dvfs.iter().all(|d| *d < DVFS_RESOLUTION);
        let indicator_ok = self
            .indicator
            .iter()
            .all(|row| row.len() == self.num_stages.saturating_sub(1));
        slots_ok && permutation_ok && dvfs_ok && indicator_ok
    }

    /// Decodes the genome into a full [`MappingConfig`] for the given
    /// network and platform.
    ///
    /// # Errors
    ///
    /// Returns an error when the genome was built for a different network
    /// or platform (mismatched layer counts or compute-unit counts).
    pub fn decode(
        &self,
        network: &Network,
        platform: &Platform,
    ) -> Result<MappingConfig, OptimError> {
        if self.num_stages != platform.num_compute_units() {
            return Err(OptimError::InvalidConfig {
                reason: format!(
                    "genome encodes {} stages but platform has {} compute units",
                    self.num_stages,
                    platform.num_compute_units()
                ),
            });
        }
        if self.indicator.len() != network.num_layers() {
            return Err(OptimError::InvalidConfig {
                reason: format!(
                    "genome encodes {} layers but network has {}",
                    self.indicator.len(),
                    network.num_layers()
                ),
            });
        }

        // Flat buffers cannot detect a mis-sized row after the fact the
        // way the nested constructors can, so reject malformed rows (only
        // reachable through hand-deserialized genomes) up front with the
        // same error shape `from_rows` raises in `decode_reference` —
        // without this, a short and a long row could compensate each
        // other and silently misalign the flat matrix.
        for (slot_row, layer_index) in self.partition_slots.iter().zip(&self.partitionable) {
            if slot_row.len() != self.num_stages {
                return Err(
                    CoreError::Dynamic(mnc_dynamic::DynamicError::ShapeMismatch {
                        expected: format!("{} stages", self.num_stages),
                        actual: format!("{} entries in row {layer_index}", slot_row.len()),
                    })
                    .into(),
                );
            }
        }
        for (layer, row) in self.indicator.iter().enumerate() {
            if row.len() + 1 != self.num_stages {
                return Err(
                    CoreError::Dynamic(mnc_dynamic::DynamicError::ShapeMismatch {
                        expected: format!("{} stages", self.num_stages),
                        actual: format!("{} entries in row {layer}", row.len() + 1),
                    })
                    .into(),
                );
            }
        }

        // Partition matrix: explicit rows for partitionable layers, an even
        // placeholder for the rest (they follow their producers anyway).
        // Built as one flat row-major buffer — decoding runs once per
        // fresh evaluation on the search's hot path, so it costs two
        // matrix allocations, not two per layer. The layer list every
        // constructor produces is ascending, so rows stream in place; the
        // fallback covers hand-deserialized genomes with a shuffled list.
        let uniform = 1.0 / self.num_stages as f64;
        let mut partition_data = Vec::with_capacity(network.num_layers() * self.num_stages);
        let sorted = self.partitionable.windows(2).all(|pair| pair[0] < pair[1]);
        if sorted {
            let mut next = self
                .partitionable
                .iter()
                .zip(&self.partition_slots)
                .peekable();
            for layer in 0..network.num_layers() {
                match next.peek() {
                    Some((index, slot_row)) if **index == layer => {
                        partition_data
                            .extend(slot_row.iter().map(|s| *s as f64 / PARTITION_SLOTS as f64));
                        next.next();
                    }
                    _ => partition_data.extend(std::iter::repeat_n(uniform, self.num_stages)),
                }
            }
        } else {
            partition_data.extend(std::iter::repeat_n(
                uniform,
                network.num_layers() * self.num_stages,
            ));
            for (slot_row, layer_index) in self.partition_slots.iter().zip(&self.partitionable) {
                for (stage, slot) in slot_row.iter().take(self.num_stages).enumerate() {
                    partition_data[layer_index * self.num_stages + stage] =
                        *slot as f64 / PARTITION_SLOTS as f64;
                }
            }
        }
        let partition = PartitionMatrix::from_flat(network, self.num_stages, partition_data)
            .map_err(CoreError::Dynamic)?;

        let mut indicator_data = Vec::with_capacity(network.num_layers() * self.num_stages);
        for row in &self.indicator {
            indicator_data.extend_from_slice(row);
            indicator_data.push(false); // the final stage's features are never forwarded
        }
        let indicator = IndicatorMatrix::from_flat(network, self.num_stages, indicator_data)
            .map_err(CoreError::Dynamic)?;

        let mapping = Mapping::new(self.mapping.iter().map(|&i| CuId(i)).collect(), platform)?;

        let levels: Vec<usize> = self
            .mapping
            .iter()
            .zip(&self.dvfs)
            .map(|(&cu_index, &gene)| {
                let cu = platform
                    .compute_unit(CuId(cu_index))
                    .expect("mapping validated above");
                let max_level = cu.dvfs().num_levels() - 1;
                ((gene as f64 / (DVFS_RESOLUTION - 1) as f64) * max_level as f64).round() as usize
            })
            .collect();
        let dvfs = DvfsAssignment::new(levels, &mapping, platform)?;

        Ok(MappingConfig::new(partition, indicator, mapping, dvfs)?)
    }

    /// Decodes through the pre-fast-path construction: per-layer row
    /// vectors assembled one allocation at a time and flattened by the
    /// matrix constructors, exactly as decoding worked before the search
    /// fast path. The configuration it produces is identical to
    /// [`Genome::decode`]'s (property-tested); retained as the baseline
    /// for the `search_fastpath` benchmark and as the oracle for the
    /// flat-construction rewrite.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Genome::decode`].
    pub fn decode_reference(
        &self,
        network: &Network,
        platform: &Platform,
    ) -> Result<MappingConfig, OptimError> {
        if self.num_stages != platform.num_compute_units() {
            return Err(OptimError::InvalidConfig {
                reason: format!(
                    "genome encodes {} stages but platform has {} compute units",
                    self.num_stages,
                    platform.num_compute_units()
                ),
            });
        }
        if self.indicator.len() != network.num_layers() {
            return Err(OptimError::InvalidConfig {
                reason: format!(
                    "genome encodes {} layers but network has {}",
                    self.indicator.len(),
                    network.num_layers()
                ),
            });
        }

        let uniform_row = vec![1.0 / self.num_stages as f64; self.num_stages];
        let mut rows = vec![uniform_row; network.num_layers()];
        for (slot_row, layer_index) in self.partition_slots.iter().zip(&self.partitionable) {
            rows[*layer_index] = slot_row
                .iter()
                .map(|s| *s as f64 / PARTITION_SLOTS as f64)
                .collect();
        }
        let partition = PartitionMatrix::from_rows(network, rows).map_err(CoreError::Dynamic)?;

        let indicator_rows: Vec<Vec<bool>> = self
            .indicator
            .iter()
            .map(|row| {
                let mut full = row.clone();
                full.push(false); // the final stage's features are never forwarded
                full
            })
            .collect();
        let indicator =
            IndicatorMatrix::from_rows(network, indicator_rows).map_err(CoreError::Dynamic)?;

        let mapping = Mapping::new(self.mapping.iter().map(|&i| CuId(i)).collect(), platform)?;
        let levels: Vec<usize> = self
            .mapping
            .iter()
            .zip(&self.dvfs)
            .map(|(&cu_index, &gene)| {
                let cu = platform
                    .compute_unit(CuId(cu_index))
                    .expect("mapping validated above");
                let max_level = cu.dvfs().num_levels() - 1;
                ((gene as f64 / (DVFS_RESOLUTION - 1) as f64) * max_level as f64).round() as usize
            })
            .collect();
        let dvfs = DvfsAssignment::new(levels, &mapping, platform)?;

        Ok(MappingConfig::new(partition, indicator, mapping, dvfs)?)
    }

    /// Fraction of forwarding bits that are set (a cheap proxy for the
    /// decoded configuration's feature-map reuse ratio).
    pub fn indicator_density(&self) -> f64 {
        let total: usize = self.indicator.iter().map(Vec::len).sum();
        if total == 0 {
            return 0.0;
        }
        let set: usize = self
            .indicator
            .iter()
            .map(|row| row.iter().filter(|b| **b).count())
            .sum();
        set as f64 / total as f64
    }

    /// Identifiers of the partitionable layers this genome was built for.
    pub fn partitionable_layers(&self) -> Vec<LayerId> {
        self.partitionable.iter().map(|&i| LayerId(i)).collect()
    }

    /// Per-partitionable-layer cache keys for the keyed accuracy fast
    /// path (`mnc_dynamic`'s `AccuracyModel::evaluate_parts_keyed`): one
    /// `u64` per partitionable layer, packing the layer index with the
    /// integer slot row (4 bits per slot, slot values are at most
    /// [`PARTITION_SLOTS`]). Two genomes produce equal keys for a layer
    /// iff their slot rows are equal (for at most 10 stages — beyond
    /// that, packed rows could alias, which the consumer's verify-on-hit
    /// turns into a recomputation rather than an error), so the decoded
    /// fraction rows — `slots / 8` exactly, in IEEE arithmetic — are
    /// equal too.
    pub fn partition_row_keys(&self) -> Vec<u64> {
        self.partitionable
            .iter()
            .zip(&self.partition_slots)
            .map(|(layer, slots)| {
                let mut packed = (*layer as u64) << 40;
                for (position, slot) in slots.iter().enumerate().take(10) {
                    packed |= (u64::from(*slot) & 0xF) << (position * 4);
                }
                packed
            })
            .collect()
    }

    /// A stable 64-bit fingerprint of every gene.
    ///
    /// Two genomes fingerprint equal iff they are equal, up to hash
    /// collisions (~2⁻⁶⁴ per pair), so the fingerprint keys the search's
    /// within-run memo and the warm-start archive's dedupe. This is the
    /// hot path — a search touches it once per candidate — so it
    /// hashes the raw genes directly instead of going through the decoded
    /// configuration.
    pub fn fingerprint(&self) -> u64 {
        let mut hasher = mnc_core::StableHasher::new();
        self.structure_into(&mut hasher);
        // Mapping entries are stage indices (< num_stages, recorded in the
        // structure prefix), so a byte each suffices; indices above 255 —
        // platforms with >256 compute units — would truncate into the
        // "up to hash collisions" budget the contract already allows.
        hasher.write_usize(self.mapping.len());
        for cu in &self.mapping {
            hasher.write_bytes(&[(*cu & 0xFF) as u8]);
        }
        hasher.write_bytes(&self.dvfs);
        hasher.finish()
    }

    /// Feeds the structure genes (everything except mapping and DVFS)
    /// into `hasher`; the prefix of [`Genome::fingerprint`].
    ///
    /// This sits on the search's hot path (once per scheduled candidate),
    /// so the encoding is compact: indicator bits are packed into `u64`
    /// words instead of hashed per-`bool`, with layer count and total bit
    /// count as prefixes (valid genomes have uniform row lengths, so the
    /// two pin the shape; unequal *invalid* genomes aliasing under this
    /// packing fall into the contract's hash-collision budget).
    fn structure_into(&self, hasher: &mut mnc_core::StableHasher) {
        hasher.write_usize(self.num_stages);
        hasher.write_usize(self.partitionable.len());
        for layer in &self.partitionable {
            hasher.write_usize(*layer);
        }
        for row in &self.partition_slots {
            hasher.write_bytes(row);
        }
        hasher.write_usize(self.indicator.len());
        let total_bits: usize = self.indicator.iter().map(Vec::len).sum();
        hasher.write_usize(total_bits);
        let mut word = 0u64;
        let mut bit = 0u32;
        for row in &self.indicator {
            for flag in row {
                if *flag {
                    word |= 1u64 << bit;
                }
                bit += 1;
                if bit == 64 {
                    hasher.write_u64(word);
                    word = 0;
                    bit = 0;
                }
            }
        }
        if bit > 0 {
            hasher.write_u64(word);
        }
    }
}

/// Random slot allocation: distribute [`PARTITION_SLOTS`] slots over
/// `stages` stages.
fn random_slots(stages: usize, rng: &mut StdRng) -> Vec<u8> {
    let mut slots = vec![0u8; stages.max(1)];
    for _ in 0..PARTITION_SLOTS {
        let stage = rng.random_range(0..stages.max(1));
        slots[stage] += 1;
    }
    slots
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnc_nn::models::{visformer_tiny, ModelPreset};
    use rand::SeedableRng;

    fn setup() -> (Network, Platform, StdRng) {
        (
            visformer_tiny(ModelPreset::cifar100()),
            Platform::dual_test(),
            StdRng::seed_from_u64(1),
        )
    }

    #[test]
    fn random_genomes_are_valid_and_decode() {
        let (net, platform, mut rng) = setup();
        for _ in 0..20 {
            let genome = Genome::random(&net, &platform, &mut rng);
            assert!(genome.is_valid());
            let config = genome.decode(&net, &platform).unwrap();
            assert_eq!(config.num_stages(), 2);
        }
    }

    #[test]
    fn balanced_genome_decodes_to_uniform_split() {
        let (net, platform, _) = setup();
        let genome = Genome::balanced(&net, &platform);
        assert!(genome.is_valid());
        assert_eq!(genome.indicator_density(), 1.0);
        let config = genome.decode(&net, &platform).unwrap();
        let first_partitionable = net.partitionable_layers()[0];
        assert!((config.partition.fraction(first_partitionable, 0) - 0.5).abs() < 1e-9);
        // Maximum-frequency DVFS genes decode to the top level.
        let cu0_levels = platform.compute_unit(CuId(0)).unwrap().dvfs().num_levels();
        assert_eq!(config.dvfs.level(0), Some(cu0_levels - 1));
    }

    #[test]
    fn flat_decode_matches_reference_decode() {
        let (net, platform, mut rng) = setup();
        for _ in 0..24 {
            let genome = Genome::random(&net, &platform, &mut rng);
            let flat = genome.decode(&net, &platform).unwrap();
            let reference = genome.decode_reference(&net, &platform).unwrap();
            assert_eq!(flat, reference);
            for layer in 0..net.num_layers() {
                for stage in 0..genome.num_stages() {
                    assert_eq!(
                        flat.partition
                            .fraction(mnc_nn::LayerId(layer), stage)
                            .to_bits(),
                        reference
                            .partition
                            .fraction(mnc_nn::LayerId(layer), stage)
                            .to_bits()
                    );
                }
            }
        }
    }

    #[test]
    fn decoding_against_the_wrong_platform_fails() {
        let (net, platform, mut rng) = setup();
        let genome = Genome::random(&net, &platform, &mut rng);
        let xavier = Platform::agx_xavier();
        assert!(genome.decode(&net, &xavier).is_err());
        let other_net = mnc_nn::models::vgg11(ModelPreset::cifar100());
        assert!(genome.decode(&other_net, &platform).is_err());
    }

    #[test]
    fn randomness_is_reproducible_per_seed() {
        let (net, platform, _) = setup();
        let mut rng_a = StdRng::seed_from_u64(9);
        let mut rng_b = StdRng::seed_from_u64(9);
        assert_eq!(
            Genome::random(&net, &platform, &mut rng_a),
            Genome::random(&net, &platform, &mut rng_b)
        );
    }

    #[test]
    fn partitionable_layers_match_network() {
        let (net, platform, mut rng) = setup();
        let genome = Genome::random(&net, &platform, &mut rng);
        assert_eq!(genome.partitionable_layers(), net.partitionable_layers());
    }

    #[test]
    fn fingerprint_covers_mapping_and_dvfs_genes() {
        // The fingerprint keys the search's within-run memo, so genomes
        // differing only in mapping or DVFS genes must not collide.
        let (net, platform, mut rng) = setup();
        let base = Genome::random(&net, &platform, &mut rng);
        let mut remapped = base.clone();
        remapped.parts_mut().2.reverse();
        assert_ne!(base.fingerprint(), remapped.fingerprint());
        let mut retuned = base.clone();
        {
            let dvfs = retuned.parts_mut().3;
            dvfs[0] = (dvfs[0] + 1) % DVFS_RESOLUTION;
        }
        assert_ne!(base.fingerprint(), retuned.fingerprint());
    }

    #[test]
    fn is_valid_rejects_bad_mapping_and_dvfs_genes() {
        let (net, platform, mut rng) = setup();
        let base = Genome::random(&net, &platform, &mut rng);
        assert!(base.is_valid());
        let mut duplicated = base.clone();
        duplicated.parts_mut().2.fill(0);
        assert!(!duplicated.is_valid());
        let mut out_of_range = base.clone();
        out_of_range.parts_mut().3[1] = DVFS_RESOLUTION;
        assert!(!out_of_range.is_valid());
    }

    #[test]
    fn dvfs_gene_extremes_map_to_table_extremes() {
        let (net, platform, _) = setup();
        let mut genome = Genome::balanced(&net, &platform);
        {
            let (_, _, _, dvfs) = genome.parts_mut();
            dvfs[0] = 0;
        }
        let config = genome.decode(&net, &platform).unwrap();
        assert_eq!(config.dvfs.level(0), Some(0));
    }
}
