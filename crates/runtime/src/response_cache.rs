//! The response cache behind the pipeline's fast path.
//!
//! A cold (non-warm-start) request's response is a deterministic
//! function of the request alone — "same request → bit-identical front"
//! is the service's core guarantee — so once a request has been
//! answered, an identical request can be answered again by replaying the
//! stored response without touching the evaluator pool or the search
//! worker pool at all. [`ResponseCache`] stores those answers keyed by
//! the same full-request coalescing fingerprint that batch coalescing
//! groups on ([`normalized_for_coalescing`] + `fingerprint_serialized`),
//! with membership confirmed by normalised-request equality so a 64-bit
//! collision reads as a miss instead of answering one request with
//! another's front.
//!
//! Warm-start responses are never stored or served from here: they
//! additionally depend on the archive history at the time they ran, so
//! replaying one would freeze that history into future answers.
//!
//! Replayed responses are verbatim copies — `RequestStats` included —
//! exactly like the coalesced duplicates of a batch, which carry their
//! group leader's accounting. A probe hands out the shared
//! [`StoredResponse`], which also keeps the response's compact JSON once
//! the first replay has asked for it, so a network front-end encodes each
//! stored front once rather than on every replay. Entries that are never
//! replayed never pay for (or hold) the encoding. The eviction policy is
//! LRU over a bounded entry count, the same recency idiom as the
//! evaluator pool.
//!
//! [`normalized_for_coalescing`]: crate::scheduler

use crate::service::{MappingRequest, MappingResponse};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Default bound on cached responses. Each entry pins a Pareto front
/// (genome `Arc`s plus per-config results), so the cache is bounded like
/// the evaluator pool rather than the per-evaluation cache.
pub(crate) const DEFAULT_RESPONSE_CACHE_ENTRIES: usize = 256;

/// The probe/insert key for one request: the full-request coalescing
/// fingerprint plus the normalised form that confirms membership.
#[derive(Debug, Clone)]
pub(crate) struct ResponseKey {
    pub(crate) fingerprint: u64,
    pub(crate) normalized: MappingRequest,
}

/// A stored answer, shared by every replay of it.
#[derive(Debug)]
pub struct StoredResponse {
    response: MappingResponse,
    /// The compact JSON of `response`, encoded by the first [`json`]
    /// call; `None` when the response holds a non-finite float.
    ///
    /// [`json`]: StoredResponse::json
    json: OnceLock<Option<Box<str>>>,
}

impl StoredResponse {
    fn new(response: MappingResponse) -> Self {
        StoredResponse {
            response,
            json: OnceLock::new(),
        }
    }

    /// The stored response.
    pub fn response(&self) -> &MappingResponse {
        &self.response
    }

    /// The response's compact JSON (`serde_json::to_string`), encoded on
    /// the first call and kept for every later one. `None` when the
    /// response cannot be encoded (a non-finite float).
    pub fn json(&self) -> Option<&str> {
        // Boxed to its exact length: the encoder's growth slack would
        // otherwise stay resident with every cached entry.
        self.json
            .get_or_init(|| {
                serde_json::to_string(&self.response)
                    .ok()
                    .map(String::into_boxed_str)
            })
            .as_deref()
    }
}

#[derive(Debug)]
struct Entry {
    normalized: MappingRequest,
    response: Arc<StoredResponse>,
}

#[derive(Debug, Default)]
struct Inner {
    entries: HashMap<u64, Entry>,
    /// Recency order, front = least recently used.
    order: VecDeque<u64>,
}

impl Inner {
    fn touch(&mut self, fingerprint: u64) {
        if let Some(position) = self.order.iter().position(|&k| k == fingerprint) {
            self.order.remove(position);
        }
        self.order.push_back(fingerprint);
    }
}

/// Service-lifetime response-cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResponseCacheStats {
    /// Entries currently resident.
    pub entries: usize,
    /// Configured bound (0 = the cache is disabled).
    pub capacity: usize,
    /// Probes answered by a stored response.
    pub hits: u64,
    /// Probes that found nothing (fingerprint absent or a collision).
    pub misses: u64,
    /// Responses stored.
    pub insertions: u64,
    /// Entries evicted by the LRU bound.
    pub evictions: u64,
}

/// A bounded, collision-safe cache of cold-request responses.
#[derive(Debug)]
pub(crate) struct ResponseCache {
    capacity: usize,
    inner: Mutex<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
}

impl ResponseCache {
    pub(crate) fn new(capacity: usize) -> Self {
        ResponseCache {
            capacity,
            inner: Mutex::new(Inner::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Whether probes can ever hit (capacity 0 disables the cache and
    /// the fast path skips the key derivation entirely).
    pub(crate) fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Looks up the stored response for `key`, marking it most recently
    /// used. A fingerprint match with a different normalised request (a
    /// 64-bit collision) counts as a miss.
    pub(crate) fn probe(&self, key: &ResponseKey) -> Option<Arc<StoredResponse>> {
        if !self.enabled() {
            return None;
        }
        let mut inner = self
            .inner
            .lock()
            .expect("response cache lock never poisoned");
        let found = match inner.entries.get(&key.fingerprint) {
            Some(entry) if entry.normalized == key.normalized => Some(Arc::clone(&entry.response)),
            _ => None,
        };
        match found {
            Some(response) => {
                inner.touch(key.fingerprint);
                drop(inner);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(response)
            }
            None => {
                drop(inner);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores a freshly computed response, evicting least-recently-used
    /// entries beyond the bound. A colliding fingerprint is overwritten:
    /// the newer answer wins, the older one re-runs its search on its
    /// next request.
    pub(crate) fn insert(&self, key: &ResponseKey, response: &MappingResponse) {
        if !self.enabled() {
            return;
        }
        let mut inner = self
            .inner
            .lock()
            .expect("response cache lock never poisoned");
        let replaced = inner
            .entries
            .insert(
                key.fingerprint,
                Entry {
                    normalized: key.normalized.clone(),
                    response: Arc::new(StoredResponse::new(response.clone())),
                },
            )
            .is_some();
        inner.touch(key.fingerprint);
        let mut evicted = 0;
        while inner.entries.len() > self.capacity {
            let Some(lru) = inner.order.pop_front() else {
                break;
            };
            inner.entries.remove(&lru);
            evicted += 1;
        }
        drop(inner);
        self.insertions.fetch_add(1, Ordering::Relaxed);
        if replaced {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
    }

    pub(crate) fn stats(&self) -> ResponseCacheStats {
        let entries = self
            .inner
            .lock()
            .expect("response cache lock never poisoned")
            .entries
            .len();
        ResponseCacheStats {
            entries,
            capacity: self.capacity,
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::RequestStats;

    fn request(seed: u64) -> MappingRequest {
        MappingRequest::new("tiny_cnn_cifar10", "dual_test").seed(seed)
    }

    fn key_for(request: &MappingRequest, fingerprint: u64) -> ResponseKey {
        ResponseKey {
            fingerprint,
            normalized: request.clone(),
        }
    }

    fn response_for(request: &MappingRequest) -> MappingResponse {
        MappingResponse {
            model: request.model.clone(),
            platform: request.platform.clone(),
            pareto_front: Vec::new(),
            best_by_objective: None,
            stats: RequestStats {
                evaluations: 0,
                evaluations_performed: 0,
                memo_hits: 0,
                warm_start_seeds: 0,
                generations_run: 0,
                early_stopped: false,
                partial: false,
                elapsed_ms: 0.0,
                stage_micros: [0.0; crate::pipeline::STAGE_COUNT],
            },
        }
    }

    #[test]
    fn probe_miss_insert_hit_round_trip() {
        let cache = ResponseCache::new(4);
        let request = request(1);
        let key = key_for(&request, 42);
        assert!(cache.probe(&key).is_none());
        cache.insert(&key, &response_for(&request));
        let hit = cache.probe(&key).expect("stored response replays");
        assert_eq!(hit.response().model, request.model);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.insertions), (1, 1, 1));
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn stored_json_is_encoded_once_and_matches_serde_json() {
        let cache = ResponseCache::new(4);
        let request = request(1);
        let key = key_for(&request, 5);
        let response = response_for(&request);
        cache.insert(&key, &response);
        let first = cache.probe(&key).expect("stored response replays");
        let json = first.json().expect("finite response encodes");
        assert_eq!(json, serde_json::to_string(&response).unwrap());
        // A later replay shares the same bytes instead of re-encoding.
        let again = cache.probe(&key).expect("stored response replays");
        assert!(std::ptr::eq(json, again.json().unwrap()));

        let mut unencodable = response_for(&request);
        unencodable.stats.elapsed_ms = f64::NAN;
        let key = key_for(&request, 6);
        cache.insert(&key, &unencodable);
        assert_eq!(cache.probe(&key).unwrap().json(), None);
    }

    #[test]
    fn fingerprint_collisions_read_as_misses() {
        let cache = ResponseCache::new(4);
        let stored = request(1);
        cache.insert(&key_for(&stored, 7), &response_for(&stored));
        // Same fingerprint, different normalised request: a collision
        // must never answer with the other request's front.
        assert!(cache.probe(&key_for(&request(2), 7)).is_none());
        assert!(cache.probe(&key_for(&stored, 7)).is_some());
    }

    #[test]
    fn lru_bound_evicts_the_coldest_entry() {
        let cache = ResponseCache::new(2);
        for fingerprint in 0..2u64 {
            let r = request(fingerprint);
            cache.insert(&key_for(&r, fingerprint), &response_for(&r));
        }
        // Touch entry 0 so entry 1 is the LRU, then overflow.
        assert!(cache.probe(&key_for(&request(0), 0)).is_some());
        let r = request(9);
        cache.insert(&key_for(&r, 9), &response_for(&r));
        assert!(cache.probe(&key_for(&request(0), 0)).is_some());
        assert!(cache.probe(&key_for(&request(1), 1)).is_none());
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn zero_capacity_disables_everything() {
        let cache = ResponseCache::new(0);
        let r = request(1);
        let key = key_for(&r, 1);
        cache.insert(&key, &response_for(&r));
        assert!(cache.probe(&key).is_none());
        assert!(!cache.enabled());
        let stats = cache.stats();
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.insertions, 0);
    }
}
