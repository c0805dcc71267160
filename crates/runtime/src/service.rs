//! The mapping service: requests in, Pareto fronts out.
//!
//! [`MappingService`] is the long-lived object a deployment-planning
//! system holds on to. A [`MappingRequest`] names a model preset and a
//! platform preset, the objective weights and constraints, and a search
//! budget; [`MappingService::submit`] resolves the presets through the
//! registries, obtains (or reuses) the pooled evaluator for the pair, and
//! runs a rayon-parallel evolutionary search through it. The response
//! carries the feasible Pareto front plus [`RequestStats`] — evaluations
//! spent, memo hits, wall time. An exact repeat of an answered request is
//! replayed from the response cache on the pipeline's fast path without
//! running a search.
//!
//! Everything is deterministic per request: the same request (including
//! its seed) returns the same Pareto front whether served cold, warm, on
//! one thread or on many.

use crate::error::RuntimeError;
use crate::pipeline::{PipelineStats, RequestPipeline, StageMicros};
use crate::registry::ModelRegistry;
use crate::response_cache::{ResponseCache, ResponseCacheStats, DEFAULT_RESPONSE_CACHE_ENTRIES};
use crate::telemetry::{ServiceTelemetry, ServingMetrics, TelemetryConfig, TenantMetrics};
use crate::warmstart::{EliteArchive, SurrogateRanker};
use mnc_core::{
    fingerprint_serialized, Constraints, Evaluator, EvaluatorBuilder, ObjectiveWeights,
    StableHasher,
};
use mnc_mpsoc::{Platform, PlatformRegistry};
use mnc_optim::{EvaluatedConfig, Genome, MutationConfig, SearchConfig, SelectionStrategy};
use mnc_telemetry::{render_prometheus, LatencySummary, MetricKey, MetricsSnapshot, RequestTrace};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet, VecDeque};
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex};

/// Upper bound on memoised evaluators: each pins a network, platform,
/// accuracy model and validation set, so the pool is bounded (LRU
/// eviction; in-flight requests keep their evaluator alive through the
/// `Arc`).
const MAX_POOLED_EVALUATORS: usize = 64;

/// The evaluator pool: request-keyed entries plus recency order
/// (front = least recently used). Hits reposition the key at the back, so
/// a hot model/platform shape survives arbitrarily many other shapes
/// passing through — under the previous FIFO order it was evicted by
/// insertion age even while in heavy rotation.
#[derive(Debug, Default)]
struct EvaluatorPool {
    entries: HashMap<u64, Arc<Evaluator>>,
    order: VecDeque<u64>,
}

impl EvaluatorPool {
    /// Looks up a pooled evaluator, marking it most recently used.
    fn get(&mut self, key: u64) -> Option<Arc<Evaluator>> {
        let found = Arc::clone(self.entries.get(&key)?);
        self.touch(key);
        Some(found)
    }

    /// Moves `key` to the most-recently-used end (O(pool size), which is
    /// capped at [`MAX_POOLED_EVALUATORS`] — far cheaper than rebuilding
    /// an evaluator).
    fn touch(&mut self, key: u64) {
        if let Some(position) = self.order.iter().position(|&k| k == key) {
            self.order.remove(position);
        }
        self.order.push_back(key);
    }

    /// Inserts a freshly built evaluator, evicting least-recently-used
    /// entries beyond the bound. If a concurrent request built the same
    /// evaluator first, the resident one wins (both are equivalent, but
    /// sharing maximises `Arc` reuse).
    fn insert(&mut self, key: u64, evaluator: Arc<Evaluator>) -> Arc<Evaluator> {
        if let Some(existing) = self.get(key) {
            return existing;
        }
        while self.entries.len() >= MAX_POOLED_EVALUATORS {
            let Some(lru) = self.order.pop_front() else {
                break;
            };
            self.entries.remove(&lru);
        }
        self.entries.insert(key, Arc::clone(&evaluator));
        self.order.push_back(key);
        evaluator
    }
}

/// A mapping query: which workload, which board, what to optimise, how
/// hard to search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MappingRequest {
    /// Model preset name (see [`ModelRegistry::names`]).
    pub model: String,
    /// Platform preset name (see [`PlatformRegistry::names`]).
    pub platform: String,
    /// Objective weights of eq. 16.
    pub weights: ObjectiveWeights,
    /// Deployment constraints of eq. 15.
    pub constraints: Constraints,
    /// Synthetic validation samples for the accuracy/exit model.
    pub validation_samples: usize,
    /// Search generations.
    pub generations: usize,
    /// Population per generation.
    pub population_size: usize,
    /// Elite-selection strategy.
    pub selection: SelectionStrategy,
    /// Search seed (same seed → same front).
    pub seed: u64,
    /// Hard cap on evaluations (spread over generations).
    pub max_evaluations: Option<usize>,
    /// Stop early after this many generations without improvement.
    pub stall_generations: Option<usize>,
    /// Worker threads for population evaluation (`None` = all cores).
    pub threads: Option<usize>,
    /// Soft wall-clock deadline for answering this request, in
    /// milliseconds from submission (`None` = unbounded, today's
    /// behaviour). The pipeline's fast path stamps the absolute deadline
    /// into the search ticket; a search still running at the deadline
    /// stops at the next generation boundary and answers with the
    /// best-so-far front (`RequestStats::partial`), while a ticket whose
    /// deadline expires before its search starts is answered
    /// [`RuntimeError::DeadlineExceeded`] without running one. Answer
    /// content for requests that complete in time is unaffected, so the
    /// deadline is normalised out of coalescing and response-cache keys.
    pub deadline_ms: Option<u64>,
    /// Seed the search from surrogate-ranked Pareto elites of earlier
    /// same-model requests (see [`crate::warmstart`]). Off by default:
    /// a cold request's response depends only on the request itself,
    /// while a warm-started response additionally depends on what the
    /// service answered before.
    pub warm_start: bool,
    /// The tenant submitting this request (`None` = the anonymous
    /// default tenant). Identity only: the answer content is
    /// tenant-independent, so the tenant is normalised out of
    /// coalescing and response-cache keys — it matters to the serving
    /// layer's scheduler (weighted-fair queueing, token-bucket budgets)
    /// and per-tenant metrics, never to the front.
    pub tenant: Option<String>,
    /// Requested scheduling priority, higher = more urgent (`None` =
    /// the default, 0). The serving layer clamps it to the tenant's
    /// configured ceiling; a higher-priority arrival may preempt a
    /// running lower-priority search at its next generation boundary
    /// (the paused search later resumes bit-identically). Like
    /// [`MappingRequest::tenant`], priority never affects answer
    /// content.
    pub priority: Option<u8>,
}

impl MappingRequest {
    /// A request with the service defaults: NSGA-II-style selection, a
    /// medium budget (20 generations × 24 candidates), all cores.
    pub fn new(model: impl Into<String>, platform: impl Into<String>) -> Self {
        MappingRequest {
            model: model.into(),
            platform: platform.into(),
            weights: ObjectiveWeights::default(),
            constraints: Constraints::default(),
            validation_samples: 2000,
            generations: 20,
            population_size: 24,
            selection: SelectionStrategy::ParetoCrowding,
            seed: 2023,
            max_evaluations: None,
            stall_generations: None,
            threads: None,
            deadline_ms: None,
            warm_start: false,
            tenant: None,
            priority: None,
        }
    }

    /// Sets the objective weights.
    #[must_use]
    pub fn weights(mut self, weights: ObjectiveWeights) -> Self {
        self.weights = weights;
        self
    }

    /// Sets the deployment constraints.
    #[must_use]
    pub fn constraints(mut self, constraints: Constraints) -> Self {
        self.constraints = constraints;
        self
    }

    /// Sets the validation-set size.
    #[must_use]
    pub fn validation_samples(mut self, samples: usize) -> Self {
        self.validation_samples = samples;
        self
    }

    /// Sets the number of generations.
    #[must_use]
    pub fn generations(mut self, generations: usize) -> Self {
        self.generations = generations;
        self
    }

    /// Sets the population size.
    #[must_use]
    pub fn population_size(mut self, population_size: usize) -> Self {
        self.population_size = population_size;
        self
    }

    /// Sets the elite-selection strategy.
    #[must_use]
    pub fn selection(mut self, selection: SelectionStrategy) -> Self {
        self.selection = selection;
        self
    }

    /// Sets the search seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Caps the total number of evaluations.
    #[must_use]
    pub fn max_evaluations(mut self, budget: usize) -> Self {
        self.max_evaluations = Some(budget);
        self
    }

    /// Enables stall-based early stopping.
    #[must_use]
    pub fn stall_generations(mut self, window: usize) -> Self {
        self.stall_generations = Some(window);
        self
    }

    /// Pins the number of evaluation threads.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Sets a soft wall-clock deadline, in milliseconds from submission:
    /// the search stops at the first generation boundary past it and
    /// answers with the best-so-far front marked
    /// [`RequestStats::partial`] (a request that finishes in time
    /// answers bit-identically to the undeadlined one).
    #[must_use]
    pub fn deadline_ms(mut self, deadline_ms: u64) -> Self {
        self.deadline_ms = Some(deadline_ms);
        self
    }

    /// Names the tenant submitting this request. See
    /// [`MappingRequest::tenant`].
    #[must_use]
    pub fn tenant(mut self, tenant: impl Into<String>) -> Self {
        self.tenant = Some(tenant.into());
        self
    }

    /// Requests a scheduling priority (higher = more urgent; clamped to
    /// the tenant's configured ceiling by the serving layer). See
    /// [`MappingRequest::priority`].
    #[must_use]
    pub fn priority(mut self, priority: u8) -> Self {
        self.priority = Some(priority);
        self
    }

    /// Opts in to the surrogate warm start: the initial population is
    /// seeded from the archived Pareto elites of earlier requests for the
    /// same model (same platform first, then neighbouring platforms with
    /// the same stage count), re-ranked by the target platform's
    /// `mnc_predictor` surrogate. With a stall window set, warm-started
    /// requests reach a front no worse than the cold search in strictly
    /// fewer evaluations once the archive holds relevant elites.
    ///
    /// Note the trade: a warm-started response depends on what the
    /// service answered before, so the bit-identical-replay guarantee
    /// applies only to requests with `warm_start` off.
    #[must_use]
    pub fn warm_start(mut self, warm_start: bool) -> Self {
        self.warm_start = warm_start;
        self
    }

    /// The search configuration this request describes.
    pub fn search_config(&self) -> SearchConfig {
        SearchConfig {
            generations: self.generations,
            population_size: self.population_size,
            elite_fraction: 0.25,
            crossover_rate: 0.7,
            mutation: MutationConfig::default(),
            selection: self.selection,
            seed: self.seed,
            parallel: true,
            threads: self.threads,
            max_evaluations: self.max_evaluations,
            stall_generations: self.stall_generations,
            warm_start: self.warm_start,
        }
    }

    /// Fingerprint of the evaluator-defining part of the request (model,
    /// platform, validation size, constraints, weights — not the search
    /// budget), used to memoise evaluators across requests. Computed by
    /// the pipeline's Fingerprint stage.
    pub(crate) fn evaluator_key(&self) -> u64 {
        let mut hasher = StableHasher::new();
        hasher.write_str(&self.model);
        hasher.write_str(&self.platform);
        hasher.write_usize(self.validation_samples);
        hasher.write_u64(fingerprint_serialized(&self.weights));
        hasher.write_u64(fingerprint_serialized(&self.constraints));
        hasher.finish()
    }
}

/// Per-request accounting.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RequestStats {
    /// Configurations the search examined (memoised or fresh).
    pub evaluations: usize,
    /// Evaluations that reached the evaluator (the rest were served by
    /// the search's within-run memo).
    pub evaluations_performed: usize,
    /// Scheduled evaluations answered by the search's within-run memo
    /// (elite replays, duplicate children): always
    /// `evaluations - evaluations_performed`.
    pub memo_hits: usize,
    /// Warm-start seed genomes injected into the initial population
    /// (0 unless the request set [`MappingRequest::warm_start`]).
    pub warm_start_seeds: usize,
    /// Generations actually run.
    pub generations_run: usize,
    /// Whether the search stopped before its generation count.
    pub early_stopped: bool,
    /// Whether the front is a deadline/cancellation partial: the search
    /// was interrupted at a generation boundary and the response carries
    /// the best-so-far front (a bit-identical prefix of the full run)
    /// rather than the full-budget answer. Partial responses are never
    /// stored in the response cache.
    pub partial: bool,
    /// Wall time spent serving the request, in milliseconds.
    pub elapsed_ms: f64,
    /// Wall time per pipeline stage, microseconds, indexed by
    /// [`crate::pipeline::PipelineStage::index`]. For a coalesced
    /// duplicate this is a clone of the group leader's trace (the
    /// duplicate ran no stages of its own); batch-level grouping time is
    /// reported in the service-lifetime [`PipelineStats`], not here.
    pub stage_micros: StageMicros,
}

impl RequestStats {
    /// Total wall time across the per-request stage trace, microseconds
    /// (≤ `elapsed_ms × 1000`; the difference is inter-stage overhead).
    pub fn stage_micros_total(&self) -> f64 {
        self.stage_micros.iter().sum()
    }
}

/// The answer to a [`MappingRequest`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MappingResponse {
    /// The model preset that was mapped.
    pub model: String,
    /// The platform preset it was mapped onto.
    pub platform: String,
    /// Feasible Pareto front over (average energy, average latency).
    pub pareto_front: Vec<EvaluatedConfig>,
    /// The feasible configuration minimising the scalar objective.
    pub best_by_objective: Option<EvaluatedConfig>,
    /// Accounting for this request.
    pub stats: RequestStats,
}

/// Service-wide construction knobs beyond the telemetry configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Observability knobs (trace rings, generation streaming).
    pub telemetry: TelemetryConfig,
    /// Bound on the response cache behind the pipeline's fast path, in
    /// entries; 0 disables it, so every request runs its search.
    pub response_cache_entries: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            telemetry: TelemetryConfig::default(),
            response_cache_entries: DEFAULT_RESPONSE_CACHE_ENTRIES,
        }
    }
}

/// A long-lived mapping service with shared registries, evaluator pool,
/// elite archive and response cache.
#[derive(Debug)]
pub struct MappingService {
    models: ModelRegistry,
    platforms: PlatformRegistry,
    evaluators: Mutex<EvaluatorPool>,
    /// Evaluator keys some thread is currently building (validation-set
    /// generation is the slow part of a cold request); concurrent requests
    /// for the same shape wait here instead of each building their own.
    building: Mutex<HashSet<u64>>,
    building_done: Condvar,
    /// Pareto elites of answered requests, the warm-start seed pool.
    elites: EliteArchive,
    /// Surrogate rankers memoised per platform preset (training one takes
    /// longer than ranking with it by orders of magnitude).
    rankers: Mutex<HashMap<String, Arc<SurrogateRanker>>>,
    /// Previously answered cold requests, replayed by the pipeline's
    /// fast path (see [`crate::response_cache`]).
    responses: ResponseCache,
    /// The service's telemetry hub: metric registry, pre-wired pipeline
    /// handles and the trace rings.
    telemetry: ServiceTelemetry,
}

/// Exclusive claim on building one evaluator shape. Dropping it (build
/// finished *or* failed) releases the key and wakes waiters, which
/// re-check the pool and, if the build failed, retry it themselves.
struct BuildClaim<'a> {
    building: &'a Mutex<HashSet<u64>>,
    done: &'a Condvar,
    key: u64,
}

impl Drop for BuildClaim<'_> {
    fn drop(&mut self) {
        let mut building = self
            .building
            .lock()
            .expect("evaluator build set lock never poisoned");
        building.remove(&self.key);
        drop(building);
        self.done.notify_all();
    }
}

impl MappingService {
    /// Creates a service with default telemetry (trace retention and
    /// search-generation streaming on).
    pub fn new() -> Self {
        Self::with_config(ServiceConfig::default())
    }

    /// Creates a service with the given telemetry configuration.
    pub fn with_telemetry_config(config: TelemetryConfig) -> Self {
        Self::with_config(ServiceConfig {
            telemetry: config,
            ..ServiceConfig::default()
        })
    }

    /// Creates a service with the given [`ServiceConfig`].
    pub fn with_config(config: ServiceConfig) -> Self {
        MappingService {
            models: ModelRegistry::new(),
            platforms: PlatformRegistry::new(),
            evaluators: Mutex::new(EvaluatorPool::default()),
            building: Mutex::new(HashSet::new()),
            building_done: Condvar::new(),
            elites: EliteArchive::new(),
            rankers: Mutex::new(HashMap::new()),
            responses: ResponseCache::new(config.response_cache_entries),
            telemetry: ServiceTelemetry::new(config.telemetry),
        }
    }

    /// Creates a service whose elite archive is pre-loaded from a JSON
    /// snapshot written by [`MappingService::save_archive`] — the
    /// restart path: warm-start requests seed from the previous
    /// process's elites instead of starting from an empty archive.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Persistence`] when the file cannot be
    /// read or does not hold a valid archive snapshot.
    pub fn with_archive_from(path: &Path) -> Result<Self, RuntimeError> {
        let service = MappingService::new();
        service.load_archive(path)?;
        Ok(service)
    }

    /// Loads elite genomes from a JSON snapshot into the archive (merged
    /// with whatever the archive already holds; duplicates are dropped).
    /// Returns the number of genomes the snapshot carried.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Persistence`] for unreadable files or
    /// malformed snapshots.
    pub fn load_archive(&self, path: &Path) -> Result<usize, RuntimeError> {
        self.elites.load_from(path)
    }

    /// Crash-tolerant variant of [`MappingService::load_archive`] for
    /// server startup: a missing snapshot is a cold start and a corrupt
    /// one (e.g. a torn write left by a crash) is renamed to
    /// `<name>.corrupt` and skipped, so the service always comes up
    /// serviceable. See [`EliteArchive::load_or_quarantine`].
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Persistence`] only when quarantining the
    /// corrupt file itself fails — never for the corruption as such.
    pub fn restore_archive(&self, path: &Path) -> Result<crate::ArchiveLoad, RuntimeError> {
        self.elites.load_or_quarantine(path)
    }

    /// Persists the elite archive to a JSON snapshot that
    /// [`MappingService::load_archive`] (or the `mnc-server`
    /// `--archive-dir` flag) restores after a restart. Returns the number
    /// of genomes written.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Persistence`] when the file cannot be
    /// written.
    pub fn save_archive(&self, path: &Path) -> Result<usize, RuntimeError> {
        self.elites.snapshot_to(path)
    }

    /// The model catalogue.
    pub fn models(&self) -> &ModelRegistry {
        &self.models
    }

    /// The platform catalogue.
    pub fn platforms(&self) -> &PlatformRegistry {
        &self.platforms
    }

    /// The warm-start elite archive (Pareto elites of answered requests).
    pub fn elite_archive(&self) -> &EliteArchive {
        &self.elites
    }

    /// The fast-path response cache.
    pub(crate) fn responses(&self) -> &ResponseCache {
        &self.responses
    }

    /// Service-lifetime response-cache counters (the cache behind
    /// fast-path answers).
    pub fn response_cache_stats(&self) -> ResponseCacheStats {
        self.responses.stats()
    }

    /// The pre-registered serving-layer metric handles (connection and
    /// queue gauges, shed/coalesce counters) a front-end drives. Values
    /// land in the same registry as the pipeline's own counters, so they
    /// show up in [`MappingService::metrics_snapshot`],
    /// [`MappingService::prometheus_text`] and
    /// [`MappingService::pipeline_stats`].
    pub fn serving_metrics(&self) -> ServingMetrics {
        self.telemetry.serving.clone()
    }

    /// The labeled per-tenant metric handles for `tenant`, minted on
    /// first use. Repeated calls for one tenant return clones of the
    /// same atomics, so a serving layer caches one [`TenantMetrics`]
    /// per tenant and drives plain atomics on its hot path. The values
    /// appear in [`MappingService::metrics_snapshot`] and
    /// [`MappingService::prometheus_text`] with a `tenant="…"` label.
    pub fn tenant_metrics(&self, tenant: &str) -> TenantMetrics {
        self.telemetry.tenant_metrics(tenant)
    }

    /// The staged request pipeline over this service — the single serving
    /// path [`MappingService::submit`], [`MappingService::submit_batch`]
    /// and the wire front-end all drive.
    pub fn pipeline(&self) -> RequestPipeline<'_> {
        RequestPipeline::new(self)
    }

    /// Service-lifetime per-stage pipeline counters — a view derived from
    /// the metric registry (see [`MappingService::metrics_snapshot`] for
    /// the full registry including latency histograms).
    pub fn pipeline_stats(&self) -> PipelineStats {
        self.telemetry.pipeline_stats()
    }

    /// The telemetry hub (pre-wired metric handles, trace rings).
    pub(crate) fn telemetry(&self) -> &ServiceTelemetry {
        &self.telemetry
    }

    /// The telemetry configuration this service runs with.
    pub fn telemetry_config(&self) -> TelemetryConfig {
        *self.telemetry.config()
    }

    /// A point-in-time snapshot of every metric the service keeps:
    /// pipeline stage histograms and counters, request/batch histograms,
    /// response-cache counters, archive and trace-ring gauges.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snapshot = self.telemetry.metrics_snapshot();
        let responses = self.responses.stats();
        snapshot.push_counter(
            MetricKey::plain("mnc_response_cache_hits_total"),
            responses.hits,
        );
        snapshot.push_counter(
            MetricKey::plain("mnc_response_cache_misses_total"),
            responses.misses,
        );
        snapshot.push_counter(
            MetricKey::plain("mnc_response_cache_insertions_total"),
            responses.insertions,
        );
        snapshot.push_counter(
            MetricKey::plain("mnc_response_cache_evictions_total"),
            responses.evictions,
        );
        snapshot.push_gauge(
            MetricKey::plain("mnc_response_cache_entries"),
            responses.entries as f64,
        );
        snapshot.push_gauge(
            MetricKey::plain("mnc_archive_genomes"),
            self.elites.len() as f64,
        );
        snapshot
    }

    /// [`MappingService::metrics_snapshot`] rendered as Prometheus text
    /// exposition (`text/plain; version=0.0.4`).
    pub fn prometheus_text(&self) -> String {
        render_prometheus(&self.metrics_snapshot())
    }

    /// Per-stage latency digests (count, p50/p99/p999 bounds), in
    /// pipeline-stage order.
    pub fn stage_latency(&self) -> Vec<LatencySummary> {
        self.telemetry.stage_latency()
    }

    /// End-to-end request latency digest.
    pub fn request_latency(&self) -> LatencySummary {
        self.telemetry.request_latency()
    }

    /// The most recent retained request traces, oldest first.
    pub fn recent_traces(&self) -> Vec<Arc<RequestTrace>> {
        self.telemetry.traces().recent()
    }

    /// Retained slow-request traces (total time over the configured
    /// threshold), oldest first.
    pub fn slow_traces(&self) -> Vec<Arc<RequestTrace>> {
        self.telemetry.traces().slow()
    }

    /// The slowest request trace still retained in either ring.
    pub fn slowest_trace(&self) -> Option<Arc<RequestTrace>> {
        self.telemetry.slowest_trace()
    }

    /// The memoised surrogate ranker for one platform preset, training it
    /// on first use. Training is deterministic (fixed dataset seed), so
    /// every service instance ranks identically.
    fn ranker_for(
        &self,
        name: &str,
        platform: &Platform,
    ) -> Result<Arc<SurrogateRanker>, RuntimeError> {
        if let Some(found) = self
            .rankers
            .lock()
            .expect("ranker pool lock never poisoned")
            .get(name)
        {
            return Ok(Arc::clone(found));
        }
        // Train outside the lock: two concurrent trainings produce equal
        // models (deterministic dataset), the first insert wins.
        let ranker = Arc::new(SurrogateRanker::train(platform)?);
        let mut rankers = self
            .rankers
            .lock()
            .expect("ranker pool lock never poisoned");
        Ok(Arc::clone(
            rankers.entry(name.to_string()).or_insert(ranker),
        ))
    }

    /// Gathers and surrogate-ranks warm-start seeds for one request:
    /// archived elites of the same model (same platform first, then
    /// neighbouring platforms with the same stage count), best-predicted
    /// first, truncated to half the population so the search keeps room
    /// for exploration.
    pub(crate) fn warm_start_seeds(
        &self,
        request: &MappingRequest,
        evaluator: &Evaluator,
    ) -> Result<Vec<Arc<Genome>>, RuntimeError> {
        let platform = evaluator.platform();
        let mut seeds = self.elites.seeds_for(
            &request.model,
            &request.platform,
            platform.num_compute_units(),
        );
        if seeds.len() > 1 {
            let ranker = self.ranker_for(&request.platform, platform)?;
            ranker.rank(&mut seeds, evaluator.network(), platform);
        }
        seeds.truncate((request.population_size / 2).max(1));
        Ok(seeds)
    }

    /// Resolves (building or reusing) the evaluator a request needs —
    /// the test-friendly wrapper over
    /// [`MappingService::resolve_evaluator_keyed`] that hashes the key
    /// itself.
    #[cfg(test)]
    fn resolve_evaluator(&self, request: &MappingRequest) -> Result<Arc<Evaluator>, RuntimeError> {
        self.resolve_evaluator_keyed(request, request.evaluator_key())
            .map(|(evaluator, _)| evaluator)
    }

    /// Resolves (building or reusing) the evaluator a request needs under
    /// a pre-computed pool key (the pipeline's Fingerprint stage already
    /// hashed it), returning it together with whether this call performed
    /// the build (`false` = served from the pool or a concurrent builder).
    pub(crate) fn resolve_evaluator_keyed(
        &self,
        request: &MappingRequest,
        key: u64,
    ) -> Result<(Arc<Evaluator>, bool), RuntimeError> {
        if let Some(evaluator) = self
            .evaluators
            .lock()
            .expect("evaluator pool lock never poisoned")
            .get(key)
        {
            return Ok((evaluator, false));
        }
        // Claim the build so concurrent requests for the same shape don't
        // each generate a validation set only to discard all but one.
        let _claim = loop {
            let mut building = self
                .building
                .lock()
                .expect("evaluator build set lock never poisoned");
            if building.insert(key) {
                break BuildClaim {
                    building: &self.building,
                    done: &self.building_done,
                    key,
                };
            }
            // Another thread is building this shape: wait for it, then
            // serve from the pool — or loop to claim the key ourselves if
            // its build failed.
            drop(
                self.building_done
                    .wait(building)
                    .expect("evaluator build set lock never poisoned"),
            );
            if let Some(evaluator) = self
                .evaluators
                .lock()
                .expect("evaluator pool lock never poisoned")
                .get(key)
            {
                return Ok((evaluator, false));
            }
        };
        // The builder may have finished between our pool miss and the
        // claim; re-check before paying for the build.
        if let Some(evaluator) = self
            .evaluators
            .lock()
            .expect("evaluator pool lock never poisoned")
            .get(key)
        {
            return Ok((evaluator, false));
        }
        // Build outside the pool lock: evaluator construction generates
        // the validation set and is the slow part of a cold request.
        let network = self.models.build(&request.model)?;
        let platform = self
            .platforms
            .build(&request.platform)
            .map_err(|error| match error {
                mnc_mpsoc::MpsocError::UnknownPlatform { name, available } => {
                    RuntimeError::UnknownPlatform { name, available }
                }
                other => RuntimeError::Mpsoc(other),
            })?;
        let evaluator = Arc::new(
            EvaluatorBuilder::new(network, platform)
                .validation_samples(request.validation_samples)
                .constraints(request.constraints)
                .objective_weights(request.weights)
                .build()?,
        );
        let evaluator = self
            .evaluators
            .lock()
            .expect("evaluator pool lock never poisoned")
            .insert(key, evaluator);
        Ok((evaluator, true))
    }

    /// Answers one mapping request by driving the staged
    /// [`RequestPipeline`] — the fast path (Normalize → Fingerprint →
    /// Coalesce → CacheLookup) composed with the slow path
    /// (ResolveEvaluator → WarmStartSeed → Search → ArchiveFeedback) —
    /// the same path [`MappingService::submit_batch`] and the wire
    /// front-end use. A repeated identical cold request is answered on
    /// the fast path by replaying the stored response without running a
    /// search.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown presets, an invalid request, or an
    /// internal evaluation failure (which indicates an inconsistency, not
    /// an infeasible workload — infeasible candidates simply drop off the
    /// Pareto front).
    pub fn submit(&self, request: &MappingRequest) -> Result<MappingResponse, RuntimeError> {
        self.pipeline().run(request)
    }

    /// Answers a batch of requests with the default [`BatchConfig`]:
    /// identical requests are deduplicated onto one search and distinct
    /// requests run concurrently on a scoped worker pool sharing the
    /// machine's cores (see [`MappingService::submit_batch_with`] in
    /// [`crate::scheduler`]). Responses come back in request order and are
    /// bit-identical to serving each request through
    /// [`MappingService::submit`].
    pub fn submit_batch(
        &self,
        requests: &[MappingRequest],
    ) -> Vec<Result<MappingResponse, RuntimeError>> {
        self.submit_batch_with(requests, &crate::scheduler::BatchConfig::default())
            .responses
    }
}

impl Default for MappingService {
    fn default() -> Self {
        MappingService::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_request() -> MappingRequest {
        MappingRequest::new("tiny_cnn_cifar10", "dual_test")
            .validation_samples(400)
            .generations(3)
            .population_size(8)
    }

    #[test]
    fn submit_returns_a_feasible_front() {
        let service = MappingService::new();
        let response = service.submit(&small_request()).unwrap();
        assert!(!response.pareto_front.is_empty());
        assert!(response.best_by_objective.is_some());
        assert_eq!(response.stats.evaluations, 24);
        assert!(response.pareto_front.iter().all(|c| c.result.feasible));
    }

    #[test]
    fn unknown_presets_are_rejected() {
        let service = MappingService::new();
        let bad_model = MappingRequest::new("resnet", "dual_test");
        assert!(matches!(
            service.submit(&bad_model),
            Err(RuntimeError::UnknownModel { .. })
        ));
        let bad_platform = MappingRequest::new("tiny_cnn_cifar10", "tpu");
        assert!(matches!(
            service.submit(&bad_platform),
            Err(RuntimeError::UnknownPlatform { .. })
        ));
    }

    #[test]
    fn invalid_budgets_are_rejected_as_requests() {
        let service = MappingService::new();
        let zero_samples = MappingRequest {
            validation_samples: 0,
            ..small_request()
        };
        assert!(matches!(
            service.submit(&zero_samples),
            Err(RuntimeError::InvalidRequest { .. })
        ));
        let tiny_population = MappingRequest {
            population_size: 1,
            ..small_request()
        };
        assert!(matches!(
            service.submit(&tiny_population),
            Err(RuntimeError::InvalidRequest { .. })
        ));
    }

    #[test]
    fn evaluators_are_pooled_across_requests() {
        let service = MappingService::new();
        service.submit(&small_request()).unwrap();
        service.submit(&small_request().seed(77)).unwrap();
        // Same evaluator-defining parameters → one pooled evaluator.
        assert_eq!(service.evaluators.lock().unwrap().entries.len(), 1);
        service
            .submit(&small_request().validation_samples(401))
            .unwrap();
        assert_eq!(service.evaluators.lock().unwrap().entries.len(), 2);
    }

    #[test]
    fn max_evaluations_caps_the_archive() {
        let service = MappingService::new();
        let response = service
            .submit(&small_request().max_evaluations(11))
            .unwrap();
        assert_eq!(response.stats.evaluations, 11);
        assert!(response.stats.early_stopped);
    }

    #[test]
    fn request_serializes_round_trip() {
        let request = small_request()
            .max_evaluations(100)
            .threads(2)
            .deadline_ms(250)
            .tenant("acme")
            .priority(3);
        let json = serde_json::to_string(&request).unwrap();
        let back: MappingRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(request, back);

        // Seeds above i64::MAX must survive JSON exactly — "same seed →
        // same front" would silently break otherwise.
        let request = small_request().seed(u64::MAX - 1);
        let back: MappingRequest =
            serde_json::from_str(&serde_json::to_string(&request).unwrap()).unwrap();
        assert_eq!(back.seed, u64::MAX - 1);
    }

    #[test]
    fn evaluator_pool_is_bounded() {
        let service = MappingService::new();
        for i in 0..(MAX_POOLED_EVALUATORS + 8) {
            let request = small_request().validation_samples(50 + i);
            service.resolve_evaluator(&request).unwrap();
        }
        let pool = service.evaluators.lock().unwrap();
        assert_eq!(pool.entries.len(), MAX_POOLED_EVALUATORS);
        assert_eq!(pool.order.len(), MAX_POOLED_EVALUATORS);
    }

    #[test]
    fn concurrent_resolves_share_one_evaluator_build() {
        let service = MappingService::new();
        let request = small_request();
        let evaluators: Vec<Arc<Evaluator>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| scope.spawn(|| service.resolve_evaluator(&request).unwrap()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // The build-claim serialises construction, so every thread holds
        // the *same* pooled evaluator, not an equivalent duplicate.
        for evaluator in &evaluators[1..] {
            assert!(Arc::ptr_eq(evaluator, &evaluators[0]));
        }
        assert_eq!(service.evaluators.lock().unwrap().entries.len(), 1);
    }

    #[test]
    fn evaluator_pool_evicts_least_recently_used() {
        // Regression: the pool used to evict by insertion order, so a hot
        // shape died once MAX_POOLED_EVALUATORS other shapes passed
        // through, however often it was being hit.
        let service = MappingService::new();
        let requests: Vec<MappingRequest> = (0..MAX_POOLED_EVALUATORS)
            .map(|i| small_request().validation_samples(50 + i))
            .collect();
        for request in &requests {
            service.resolve_evaluator(request).unwrap();
        }
        // Re-touch the oldest entry, then overflow the pool by one: the
        // touched entry must survive and the now-least-recently-used
        // second entry must go instead.
        service.resolve_evaluator(&requests[0]).unwrap();
        let overflow = small_request().validation_samples(50 + MAX_POOLED_EVALUATORS);
        service.resolve_evaluator(&overflow).unwrap();

        let pool = service.evaluators.lock().unwrap();
        assert_eq!(pool.entries.len(), MAX_POOLED_EVALUATORS);
        assert!(
            pool.entries.contains_key(&requests[0].evaluator_key()),
            "re-touched entry was evicted insertion-age-style"
        );
        assert!(
            !pool.entries.contains_key(&requests[1].evaluator_key()),
            "least-recently-used entry survived eviction"
        );
        assert!(pool.entries.contains_key(&overflow.evaluator_key()));
    }
}
