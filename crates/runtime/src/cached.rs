//! The cache-aware evaluation hook.
//!
//! [`CachedEvaluator`] wraps an [`mnc_core::Evaluator`] and a shared
//! [`EvalCache`], implementing [`mnc_optim::ConfigEvaluator`] so a
//! [`mnc_optim::MappingSearch`] transparently reuses every evaluation any
//! previous search performed against the same evaluator state. On a hit
//! the genome is neither decoded nor simulated — the cached configuration
//! and result come back as two `Arc` clones (allocation-free; the cache
//! and every consumer share one allocation per evaluation).
//!
//! Caching never changes results: the cache key covers the evaluator's
//! full fingerprint and the genome's full gene content, and evaluation is
//! a pure function of the two, so a hit returns exactly what the fresh
//! computation would have produced (see the bit-identity property test in
//! `tests/service.rs`).
//!
//! Misses are **coalesced per key**: when several threads miss on the same
//! genome at once (duplicate requests in a concurrent batch, duplicate
//! candidates in one population), [`EvalCache::begin_compute`] elects one
//! owner to decode + simulate while the rest block and are served the
//! owner's result — one evaluation instead of N.

use crate::cache::{ComputeLease, EvalCache};
use mnc_core::{EvaluationResult, Evaluator, MappingConfig};
use mnc_mpsoc::Platform;
use mnc_nn::Network;
use mnc_optim::{ConfigEvaluator, Genome, OptimError};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One wrapper's cache traffic, read as a unit — what the pipeline's
/// ArchiveFeedback stage folds into `RequestStats` so per-request
/// accounting never mixes counters sampled at different moments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheTraffic {
    /// Lookups served from the cache (including coalesced waits).
    pub hits: u64,
    /// Fresh evaluations this wrapper performed itself.
    pub misses: u64,
    /// Hits that were served by waiting on another thread's in-flight
    /// evaluation of the same key (a subset of `hits`).
    pub coalesced: u64,
}

impl CacheTraffic {
    /// Total cache lookups this wrapper performed (`hits + misses`).
    #[must_use]
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }
}

/// An [`Evaluator`] with a shared evaluation cache in front.
///
/// Also keeps its own hit/miss counters, so a caller serving one request
/// can report that request's cache traffic without racing other requests
/// on the shared cache's global counters.
#[derive(Debug)]
pub struct CachedEvaluator {
    evaluator: Arc<Evaluator>,
    cache: Arc<EvalCache>,
    evaluator_fingerprint: u64,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
}

impl CachedEvaluator {
    /// Wraps an evaluator, fingerprinting it once.
    pub fn new(evaluator: Arc<Evaluator>, cache: Arc<EvalCache>) -> Self {
        let evaluator_fingerprint = evaluator.fingerprint();
        Self::with_fingerprint(evaluator, cache, evaluator_fingerprint)
    }

    /// Wraps an evaluator whose fingerprint the caller already knows
    /// (e.g. memoised next to a pooled evaluator), skipping the
    /// serialization pass `Evaluator::fingerprint` performs.
    pub fn with_fingerprint(
        evaluator: Arc<Evaluator>,
        cache: Arc<EvalCache>,
        evaluator_fingerprint: u64,
    ) -> Self {
        CachedEvaluator {
            evaluator,
            cache,
            evaluator_fingerprint,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
        }
    }

    /// Cache hits observed through this wrapper (including lookups served
    /// by waiting on a concurrent computation of the same key).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses (fresh evaluations this wrapper performed itself).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Lookups that missed but were served by another thread's in-flight
    /// evaluation of the same key (a subset of [`CachedEvaluator::hits`]):
    /// duplicate evaluations this wrapper avoided.
    pub fn coalesced(&self) -> u64 {
        self.coalesced.load(Ordering::Relaxed)
    }

    /// All three traffic counters in one snapshot.
    pub fn traffic(&self) -> CacheTraffic {
        CacheTraffic {
            hits: self.hits(),
            misses: self.misses(),
            coalesced: self.coalesced(),
        }
    }

    /// The wrapped evaluator.
    pub fn evaluator(&self) -> &Evaluator {
        &self.evaluator
    }

    /// The shared cache.
    pub fn cache(&self) -> &Arc<EvalCache> {
        &self.cache
    }

    /// The wrapped evaluator's fingerprint (the high half of every cache
    /// key this wrapper produces).
    pub fn evaluator_fingerprint(&self) -> u64 {
        self.evaluator_fingerprint
    }

    /// The cache key for one genome under this evaluator.
    pub fn key_for(&self, genome: &Genome) -> u128 {
        EvalCache::key(self.evaluator_fingerprint, genome.fingerprint())
    }
}

impl ConfigEvaluator for CachedEvaluator {
    fn network(&self) -> &Network {
        self.evaluator.network()
    }

    fn platform(&self) -> &Platform {
        self.evaluator.platform()
    }

    fn evaluate_genome(
        &self,
        genome: &Genome,
    ) -> Result<(Arc<MappingConfig>, Arc<EvaluationResult>), OptimError> {
        let key = self.key_for(genome);
        if let Some(entry) = self.cache.get(key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(entry);
        }
        // Miss: claim the key. Exactly one thread becomes the owner and
        // evaluates; concurrent missers block and reuse its result.
        match self.cache.begin_compute(key) {
            ComputeLease::Ready(entry) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.coalesced.fetch_add(1, Ordering::Relaxed);
                Ok(*entry)
            }
            ComputeLease::Owner(guard) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                crate::faults::eval_tick();
                let (config, result) = ConfigEvaluator::evaluate_genome(&*self.evaluator, genome)?;
                // The cache holds the same `Arc`s the caller receives —
                // cloning an entry out is two reference-count bumps.
                self.cache
                    .insert(key, Arc::clone(&config), Arc::clone(&result));
                // Release only after the insert so woken waiters find the
                // entry; on the `?` error paths above the guard's drop
                // hands the key to the next waiter instead.
                drop(guard);
                Ok((config, result))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnc_core::EvaluatorBuilder;
    use mnc_nn::models::{tiny_cnn, ModelPreset};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cached(samples: usize) -> CachedEvaluator {
        let evaluator =
            EvaluatorBuilder::new(tiny_cnn(ModelPreset::cifar10()), Platform::dual_test())
                .validation_samples(samples)
                .build()
                .unwrap();
        CachedEvaluator::new(Arc::new(evaluator), Arc::new(EvalCache::new()))
    }

    #[test]
    fn second_evaluation_hits_the_cache() {
        let cached = cached(300);
        let mut rng = StdRng::seed_from_u64(5);
        let genome = Genome::random(cached.network(), cached.platform(), &mut rng);
        let fresh = cached.evaluate_genome(&genome).unwrap();
        let replay = cached.evaluate_genome(&genome).unwrap();
        assert_eq!(fresh, replay);
        let stats = cached.cache().stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn concurrent_misses_on_one_key_evaluate_once() {
        // Regression: before in-flight coalescing, N threads missing on
        // the same genome all decoded + simulated it. Now exactly one
        // owner evaluates and the rest are served its result.
        let cached = cached(300);
        let mut rng = StdRng::seed_from_u64(7);
        let genome = Genome::random(cached.network(), cached.platform(), &mut rng);

        const THREADS: u64 = 8;
        let results: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| scope.spawn(|| cached.evaluate_genome(&genome).unwrap()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for result in &results[1..] {
            assert_eq!(result, &results[0]);
        }

        // One fresh evaluation; every other lookup was a plain hit or a
        // coalesced wait — never a second evaluation.
        assert_eq!(cached.misses(), 1);
        assert_eq!(cached.hits(), THREADS - 1);
        let stats = cached.cache().stats();
        assert_eq!(stats.insertions, 1);
        assert!(stats.insertions <= stats.misses);
        assert_eq!(stats.coalesced, cached.coalesced());
        // The snapshot reads the same three counters as one unit.
        let traffic = cached.traffic();
        assert_eq!(
            traffic,
            CacheTraffic {
                hits: THREADS - 1,
                misses: 1,
                coalesced: cached.coalesced(),
            }
        );
        assert!(traffic.coalesced <= traffic.hits);
    }

    #[test]
    fn different_evaluators_use_disjoint_keys() {
        let a = cached(300);
        let b = cached(301); // different validation set → different fingerprint
        assert_ne!(a.evaluator_fingerprint(), b.evaluator_fingerprint());
        let mut rng = StdRng::seed_from_u64(5);
        let genome = Genome::random(a.network(), a.platform(), &mut rng);
        assert_ne!(a.key_for(&genome), b.key_for(&genome));
    }
}
