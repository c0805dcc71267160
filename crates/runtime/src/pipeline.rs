//! The staged request pipeline — the one serving path every front-end
//! drives.
//!
//! Before this module, the serving logic was interleaved across
//! `service.rs` (validation, evaluator pooling, warm-start plumbing,
//! response assembly) and `scheduler.rs` (coalescing, cross-request
//! parallelism): any new front-end — an HTTP server, a priority queue, a
//! deadline scheduler — would have had to re-implement half of it.
//! [`RequestPipeline`] makes the path explicit instead: an ordered
//! sequence of stages split into two tiers,
//!
//! ```text
//! fast path │ Normalize → Fingerprint → Coalesce → CacheLookup
//!           │                                        │ Answered ───► response
//!           │                                        │ Rejected ───► error
//!           ▼                                        ▼ NeedsSearch
//! slow path │ ResolveEvaluator → WarmStartSeed → Search → ArchiveFeedback
//! ```
//!
//! over a per-request context, so [`MappingService::submit`],
//! [`MappingService::submit_batch`] and the `mnc-wire`/`mnc-server` JSON
//! front-end all execute the *same* code in the *same* order.
//!
//! The **fast path** ([`RequestPipeline::fast_path`]) is pure and
//! bounded-latency — it validates, hashes and probes caches but never
//! builds an evaluator or runs a search, so an event-driven server can
//! run it on its reactor thread:
//!
//! * **Normalize** — reject malformed budgets and unknown presets before
//!   any expensive work, and derive the answer-neutral normalised form
//!   (thread count stripped) that coalescing and the response cache key
//!   on.
//! * **Fingerprint** — hash the answer-determining request content: the
//!   full-request coalescing key and the evaluator-defining key that
//!   indexes the evaluator pool.
//! * **Coalesce** — group identical requests so N duplicates run one
//!   search (a batch-level stage; a single request passes through and is
//!   merely counted).
//! * **CacheLookup** — probe the bounded
//!   [`ResponseCache`](crate::response_cache) of previously answered
//!   cold requests; a hit replays the stored response verbatim
//!   ([`FastPathOutcome::Answered`]) without ever touching the search
//!   pool.
//!
//! The outcome of the fast path is the typed seam between the tiers:
//! [`FastPathOutcome::Answered`], [`FastPathOutcome::Rejected`], or
//! [`FastPathOutcome::NeedsSearch`] carrying a [`SearchTicket`] that the
//! **slow path** ([`RequestPipeline::slow_path`]) redeems — on the same
//! thread (`submit`) or on a search worker (the reactor server):
//!
//! * **ResolveEvaluator** — resolve the evaluator (pooled or freshly
//!   built, build-claimed so concurrent cold requests share one
//!   construction).
//! * **WarmStartSeed** — when the request opts in, gather and
//!   surrogate-rank elite genomes from earlier answers.
//! * **Search** — run the evolutionary search through the evaluator's
//!   one [`ConfigEvaluator`](mnc_optim::ConfigEvaluator) hook.
//! * **ArchiveFeedback** — feed the Pareto elites back into the archive
//!   for future warm starts, store the response for future fast-path
//!   answers, and assemble the response.
//!
//! Every stage is timed and counted: each response's
//! [`RequestStats::stage_micros`](crate::service::RequestStats) carries
//! the per-request split, and the service-lifetime [`PipelineStats`]
//! (per-stage entered/error/busy counters plus coalescing, evaluator-pool
//! and archive totals) replaces the ad-hoc accounting that used to be
//! spread across the request path. The split is behaviour-preserving:
//! [`RequestPipeline::run`] is exactly `fast_path` composed with
//! `slow_path`, and responses stay bit-identical to serving the request
//! through the former single-tier pipeline (property-tested in
//! `tests/pipeline.rs`; cached answers replay the bit-identical stored
//! response, stats included, the way coalesced batch duplicates replay
//! their leader's).

use crate::error::RuntimeError;
use crate::faults::FaultTicking;
use crate::response_cache::{ResponseKey, StoredResponse};
use crate::scheduler::{normalized_for_coalescing, BatchConfig, BatchReport, BatchStats};
use crate::service::{MappingRequest, MappingResponse, MappingService, RequestStats};
use mnc_core::{fingerprint_serialized, Evaluator};
use mnc_optim::{
    CancelToken, EvaluatedConfig, Genome, MappingSearch, PauseToken, SearchCheckpoint,
    SearchOutcome, SearchRun,
};
use mnc_telemetry::{saturating_nanos, GenerationBuffer, SpanRecorder};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The ordered stages of the serving path. The first four are the fast
/// path (pure, bounded latency — safe on a reactor thread); the rest are
/// the slow path a [`SearchTicket`] redeems.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PipelineStage {
    /// Request validation + answer-neutral normalisation.
    Normalize,
    /// Coalescing and evaluator-pool key derivation.
    Fingerprint,
    /// Duplicate-request grouping (batch-level; pass-through for one
    /// request).
    Coalesce,
    /// Response-cache probe: a previously answered identical cold
    /// request is replayed without touching the search pool.
    CacheLookup,
    /// Evaluator resolution (pool hit or claimed build). First slow-path
    /// stage.
    ResolveEvaluator,
    /// Warm-start seed gathering and surrogate ranking (opt-in).
    WarmStartSeed,
    /// The evolutionary search itself.
    Search,
    /// Elite-archive feedback, response-cache store + response assembly.
    ArchiveFeedback,
}

/// Number of pipeline stages.
pub const STAGE_COUNT: usize = 8;

impl PipelineStage {
    /// Every stage, in execution order.
    pub const ALL: [PipelineStage; STAGE_COUNT] = [
        PipelineStage::Normalize,
        PipelineStage::Fingerprint,
        PipelineStage::Coalesce,
        PipelineStage::CacheLookup,
        PipelineStage::ResolveEvaluator,
        PipelineStage::WarmStartSeed,
        PipelineStage::Search,
        PipelineStage::ArchiveFeedback,
    ];

    /// Position of the stage in [`PipelineStage::ALL`] — the index used by
    /// [`RequestStats::stage_micros`](crate::service::RequestStats) and
    /// [`PipelineStats::stages`].
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case stage name (wire/JSON identifier).
    pub fn name(self) -> &'static str {
        match self {
            PipelineStage::Normalize => "normalize",
            PipelineStage::Fingerprint => "fingerprint",
            PipelineStage::Coalesce => "coalesce",
            PipelineStage::CacheLookup => "cache_lookup",
            PipelineStage::ResolveEvaluator => "resolve_evaluator",
            PipelineStage::WarmStartSeed => "warm_start_seed",
            PipelineStage::Search => "search",
            PipelineStage::ArchiveFeedback => "archive_feedback",
        }
    }
}

/// Per-request wall time by stage, in microseconds, indexed by
/// [`PipelineStage::index`].
pub type StageMicros = [f64; STAGE_COUNT];

/// One request's in-flight stage bookkeeping: integer-nanosecond stage
/// durations (saturating — sub-microsecond stages are never floored to
/// zero, pathological durations never wrap) plus the optional span
/// recorder retaining the full trace.
#[derive(Debug)]
pub(crate) struct StageTrace {
    nanos: [u64; STAGE_COUNT],
    recorder: Option<SpanRecorder>,
}

impl StageTrace {
    fn new(recorder: Option<SpanRecorder>) -> Self {
        StageTrace {
            nanos: [0; STAGE_COUNT],
            recorder,
        }
    }

    /// A trace without span retention — what batch-level stages use.
    fn untraced() -> Self {
        StageTrace::new(None)
    }

    /// Accumulates one stage execution.
    fn record(&mut self, stage: PipelineStage, elapsed: Duration) {
        let nanos = saturating_nanos(elapsed);
        let slot = &mut self.nanos[stage.index()];
        *slot = slot.saturating_add(nanos);
        if let Some(recorder) = self.recorder.as_mut() {
            recorder.stage(stage.name(), elapsed);
        }
    }

    /// Records a decision event on the span, when one is being kept.
    /// The detail closure only runs when tracing is on.
    fn note(&mut self, label: &'static str, detail: impl FnOnce() -> String) {
        if let Some(recorder) = self.recorder.as_mut() {
            recorder.event(label, detail());
        }
    }

    /// Attaches the search's generation stream to the span.
    fn generations(&mut self, events: Vec<mnc_telemetry::GenerationEvent>) {
        if let Some(recorder) = self.recorder.as_mut() {
            recorder.generations(events);
        }
    }

    /// The microsecond view [`RequestStats::stage_micros`] reports,
    /// derived from the nanosecond truth.
    pub(crate) fn stage_micros(&self) -> StageMicros {
        std::array::from_fn(|index| self.nanos[index] as f64 / 1e3)
    }

    /// Detaches the span recorder so the pipeline can freeze it into a
    /// retained trace.
    fn take_recorder(&mut self) -> Option<SpanRecorder> {
        self.recorder.take()
    }
}

/// One stage's lifetime counters in a [`PipelineStats`] snapshot.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageStats {
    /// Stage name ([`PipelineStage::name`]).
    pub stage: String,
    /// Times the stage was entered.
    pub entered: u64,
    /// Times the stage returned an error.
    pub errors: u64,
    /// Cumulative wall time spent inside the stage, microseconds. Stages
    /// running concurrently (batch leaders) each contribute their own
    /// time, so this can exceed elapsed wall time.
    pub busy_micros: u64,
}

/// A point-in-time snapshot of the service-lifetime pipeline counters —
/// the per-stage observability the wire front-end and the throughput
/// bench report.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PipelineStats {
    /// Per-stage counters, in [`PipelineStage::ALL`] order.
    pub stages: Vec<StageStats>,
    /// Requests that entered the per-request pipeline (batch leaders
    /// included; coalesced duplicates are not re-run and counted below).
    pub requests: u64,
    /// Batches served through [`RequestPipeline::run_batch`].
    pub batches: u64,
    /// Duplicate requests answered by cloning a coalesced group leader's
    /// response instead of running the pipeline again.
    pub coalesced_requests: u64,
    /// CacheLookup resolutions served by the evaluator pool.
    pub evaluator_pool_hits: u64,
    /// CacheLookup resolutions that built a fresh evaluator.
    pub evaluator_builds: u64,
    /// Warm-start seed genomes gathered (before population truncation).
    pub warm_seeds_gathered: u64,
    /// Searches run by the Search stage.
    pub searches_run: u64,
    /// Evaluations the searches scheduled (memo hits included).
    pub evaluations_scheduled: u64,
    /// Evaluations that reached an evaluator.
    pub evaluations_performed: u64,
    /// Elite genomes offered to the archive by ArchiveFeedback (before
    /// deduplication).
    pub elites_recorded: u64,
    /// Requests answered on the fast path (response-cache hit in
    /// CacheLookup) — no evaluator resolution, no search.
    pub fast_path_answered: u64,
    /// Requests refused by serving-layer admission control (answered as
    /// structured `Overloaded` wire errors, never enqueued).
    pub shed_requests: u64,
    /// Requests answered by joining an identical in-flight search at the
    /// serving layer instead of enqueueing their own.
    pub inflight_coalesced: u64,
    /// Tickets whose deadline expired before their search could start
    /// (e.g. while queued for a worker) — answered as structured
    /// `DeadlineExceeded` without running a search.
    pub deadline_misses: u64,
    /// Searches interrupted at a generation boundary by a deadline or a
    /// cancellation, answered with the best-so-far front
    /// (`RequestStats::partial`).
    pub partial_responses: u64,
    /// Running searches cancelled by the serving layer's watchdog
    /// (request deadline or per-job wall-clock cap).
    pub search_cancellations: u64,
}

impl PipelineStats {
    /// The snapshot of one stage, by stage.
    pub fn stage(&self, stage: PipelineStage) -> &StageStats {
        &self.stages[stage.index()]
    }
}

/// A request prepared by the Normalize + Fingerprint stages.
#[derive(Debug)]
struct PreparedRequest {
    config: mnc_optim::SearchConfig,
    evaluator_key: u64,
    /// The response-cache key, derived only when the request is eligible
    /// (cold, and the cache is enabled).
    response_key: Option<ResponseKey>,
}

/// What the fast path (Normalize → Fingerprint → Coalesce →
/// CacheLookup) decided about one request — the typed seam between the
/// reactor-safe tier and the search-pool tier.
#[derive(Debug)]
pub enum FastPathOutcome {
    /// An identical cold request was answered before: the stored
    /// response is replayed verbatim (stats included, the way coalesced
    /// batch duplicates replay their leader's). The search pool was
    /// never touched. The answer is shared with the response cache, not
    /// copied; a front-end can send its cached encoding
    /// ([`StoredResponse::json`]).
    Answered(Arc<StoredResponse>),
    /// The request is valid but needs a search; redeem the ticket with
    /// [`RequestPipeline::slow_path`] — inline or on a worker thread.
    NeedsSearch(Box<SearchTicket>),
    /// The request failed validation in Normalize; no expensive stage
    /// ran.
    Rejected(RuntimeError),
}

/// A validated request on its way to the slow path: everything the
/// ResolveEvaluator → WarmStartSeed → Search → ArchiveFeedback stages
/// need, detached from the caller so it can cross onto a search worker
/// thread. Produced by [`RequestPipeline::fast_path`], consumed by
/// [`RequestPipeline::slow_path`]; the in-flight stage trace and request
/// clock ride along so the response's stage accounting spans both tiers.
#[derive(Debug)]
pub struct SearchTicket {
    request: MappingRequest,
    prepared: PreparedRequest,
    trace: StageTrace,
    started: Instant,
    /// Absolute deadline stamped from the request's `deadline_ms` at
    /// fast-path time, so queueing delay counts against the budget.
    deadline: Option<Instant>,
    /// The cancel token the slow path's search polls each generation; a
    /// serving layer clones it before dispatch so a watchdog can stop
    /// the search from outside.
    cancel: CancelToken,
}

impl SearchTicket {
    /// The request this ticket answers.
    pub fn request(&self) -> &MappingRequest {
        &self.request
    }

    /// The absolute deadline this ticket must answer by, stamped from
    /// [`MappingRequest::deadline_ms`] when the fast path admitted the
    /// request (`None` = unbounded).
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Whether the ticket's deadline has already passed. The slow path
    /// checks this at entry and answers
    /// [`RuntimeError::DeadlineExceeded`] without starting a search; a
    /// serving layer can check it to drop expired tickets while queued.
    pub fn expired(&self) -> bool {
        self.deadline
            .is_some_and(|deadline| Instant::now() >= deadline)
    }

    /// A handle to the ticket's cancel token: cancelling it stops the
    /// search at the next generation boundary, which then answers with
    /// its best-so-far partial front. This is what a serving-layer
    /// watchdog registers before handing the ticket to a worker.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// The full-request coalescing fingerprint, when the request is
    /// response-cache eligible (cold): the key a serving layer can use
    /// to join identical in-flight searches.
    pub fn coalescing_fingerprint(&self) -> Option<u64> {
        self.prepared
            .response_key
            .as_ref()
            .map(|key| key.fingerprint)
    }

    /// The answer-neutral normalised request behind
    /// [`SearchTicket::coalescing_fingerprint`] — what a serving layer
    /// compares to confirm two tickets with equal fingerprints really
    /// are the same request (collision safety).
    pub fn normalized_request(&self) -> Option<&MappingRequest> {
        self.prepared
            .response_key
            .as_ref()
            .map(|key| &key.normalized)
    }
}

/// How one entry into the resumable slow path ended: finished, or
/// paused at a generation boundary awaiting
/// [`RequestPipeline::resume`].
#[derive(Debug)]
pub enum SlowPathRun {
    /// The request completed — answered or failed. Telemetry (request
    /// latency, trace) is finalised. Boxed to keep the enum small next
    /// to the already-boxed [`SlowPathRun::Paused`].
    Done(Box<Result<MappingResponse, RuntimeError>>),
    /// The search observed its fired [`PauseToken`] at a generation
    /// boundary and checkpointed. The request's telemetry stays in
    /// flight inside the box; redeem it with
    /// [`RequestPipeline::resume`] — the eventual response is
    /// bit-identical to never having paused.
    Paused(Box<PausedSearch>),
}

/// In-flight state of a resumable slow-path request: everything the
/// Search stage needs on every (re)entry. The evaluator and generation
/// buffer ride along so the generation stream spans every pause/resume
/// segment of the request.
#[derive(Debug)]
struct ResumableState {
    request: MappingRequest,
    prepared: PreparedRequest,
    trace: StageTrace,
    started: Instant,
    deadline: Option<Instant>,
    cancel: CancelToken,
    pause: PauseToken,
    evaluator: Arc<Evaluator>,
    /// Warm-start seeds, consumed by the first drive; resumes restore
    /// their population from the checkpoint instead.
    seeds: Vec<Arc<Genome>>,
    generations: Option<GenerationBuffer>,
}

/// A search preempted at a generation boundary: the request's
/// in-flight pipeline state plus the search's own checkpoint
/// (population, memo, RNG position). Produced by
/// [`RequestPipeline::slow_path_resumable`], redeemed by
/// [`RequestPipeline::resume`]; a serving layer holds it (or requeues
/// it) while higher-priority work runs.
#[derive(Debug)]
pub struct PausedSearch {
    state: ResumableState,
    checkpoint: Box<SearchCheckpoint>,
}

impl PausedSearch {
    /// The request this paused search answers.
    pub fn request(&self) -> &MappingRequest {
        &self.state.request
    }

    /// The paused search's cancel token (a watchdog can still cancel a
    /// paused request; the cancellation lands at the first resumed
    /// generation boundary).
    pub fn cancel_token(&self) -> CancelToken {
        self.state.cancel.clone()
    }

    /// The paused search's pause token (cleared by
    /// [`RequestPipeline::resume`]).
    pub fn pause_token(&self) -> PauseToken {
        self.state.pause.clone()
    }

    /// The absolute deadline the request still has to meet, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.state.deadline
    }

    /// Generations completed before the pause.
    pub fn generations_completed(&self) -> usize {
        self.checkpoint.generations_completed()
    }

    /// Evaluations performed before the pause — what a budget meter
    /// can use to estimate the remaining cost of the resumed search.
    pub fn evaluations_performed(&self) -> usize {
        self.checkpoint.evaluations_performed()
    }
}

/// One coalesced group: the request its leader runs (threads pinned to
/// the batch budget), the normalised form that defines membership, and
/// the input positions it answers.
struct Group {
    request: MappingRequest,
    normalized: MappingRequest,
    positions: Vec<usize>,
}

/// The staged serving path over one [`MappingService`].
///
/// Cheap to construct (a borrow); every entry point of the service —
/// [`MappingService::submit`], [`MappingService::submit_batch_with`], the
/// wire front-end — obtains one via [`MappingService::pipeline`] and
/// drives the same stages.
#[derive(Debug, Clone, Copy)]
pub struct RequestPipeline<'s> {
    service: &'s MappingService,
}

impl<'s> RequestPipeline<'s> {
    pub(crate) fn new(service: &'s MappingService) -> Self {
        RequestPipeline { service }
    }

    /// The service this pipeline serves.
    pub fn service(&self) -> &'s MappingService {
        self.service
    }

    /// Runs one stage: records its wall time into the stage's latency
    /// histogram (whose count doubles as the stage's `entered` total, so
    /// every entry records — errors included) and into the per-request
    /// trace, and bumps the stage error counter on failure.
    fn try_stage<T>(
        &self,
        stage: PipelineStage,
        trace: &mut StageTrace,
        body: impl FnOnce() -> Result<T, RuntimeError>,
    ) -> Result<T, RuntimeError> {
        let telemetry = self.service.telemetry();
        let started = Instant::now();
        let outcome = body();
        let elapsed = started.elapsed();
        // Nanosecond granularity: flooring to whole microseconds per
        // entry would erase the sub-microsecond bookkeeping stages from
        // the lifetime totals entirely.
        telemetry.stage_duration[stage.index()].record(saturating_nanos(elapsed));
        trace.record(stage, elapsed);
        if outcome.is_err() {
            telemetry.stage_errors[stage.index()].inc();
        }
        outcome
    }

    /// [`RequestPipeline::try_stage`] for infallible stage bodies.
    fn stage<T>(
        &self,
        stage: PipelineStage,
        trace: &mut StageTrace,
        body: impl FnOnce() -> T,
    ) -> T {
        self.try_stage(stage, trace, || Ok(body()))
            .unwrap_or_else(|_: RuntimeError| unreachable!("infallible stage"))
    }

    /// Normalize + Fingerprint for one request: validate the budgets,
    /// reject unknown presets before any expensive work, and derive the
    /// evaluator-pool key plus (for response-cache-eligible requests)
    /// the full-request coalescing key.
    fn prepare(
        &self,
        request: &MappingRequest,
        trace: &mut StageTrace,
    ) -> Result<PreparedRequest, RuntimeError> {
        let config = self.try_stage(PipelineStage::Normalize, trace, || {
            if request.validation_samples == 0 {
                return Err(RuntimeError::InvalidRequest {
                    reason: "validation_samples must be at least 1".to_string(),
                });
            }
            // Reject malformed search budgets before paying for evaluator
            // construction (validation-set generation dominates cold
            // setup).
            let config = request.search_config();
            config
                .validate()
                .map_err(|e| RuntimeError::InvalidRequest {
                    reason: e.to_string(),
                })?;
            // Unknown presets are cheap name lookups: fail them here
            // instead of inside the build-claimed CacheLookup stage. The
            // errors are constructed exactly as the registries construct
            // them, so the failure surface is unchanged.
            let models = self.service.models();
            if !models.contains(&request.model) {
                return Err(RuntimeError::UnknownModel {
                    name: request.model.clone(),
                    available: models.available(),
                });
            }
            let platforms = self.service.platforms();
            if !platforms.contains(&request.platform) {
                return Err(RuntimeError::UnknownPlatform {
                    name: request.platform.clone(),
                    available: platforms.names().join(", "),
                });
            }
            Ok(config)
        })?;
        let (evaluator_key, response_key) = self.stage(PipelineStage::Fingerprint, trace, || {
            // The coalescing fingerprint only matters to the response
            // cache and in-flight joining, both cold-only: warm-start
            // answers depend on archive history, so they are never
            // replayed.
            let response_key =
                (!request.warm_start && self.service.responses().enabled()).then(|| {
                    let normalized = normalized_for_coalescing(request);
                    ResponseKey {
                        fingerprint: fingerprint_serialized(&normalized),
                        normalized,
                    }
                });
            (request.evaluator_key(), response_key)
        });
        Ok(PreparedRequest {
            config,
            evaluator_key,
            response_key,
        })
    }

    /// Runs the per-request pipeline end to end — exactly
    /// [`RequestPipeline::fast_path`] composed with
    /// [`RequestPipeline::slow_path`]. This is what
    /// [`MappingService::submit`] delegates to, and what each coalesced
    /// group leader of [`RequestPipeline::run_batch`] executes.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown presets, an invalid request, or an
    /// internal evaluation failure.
    pub fn run(&self, request: &MappingRequest) -> Result<MappingResponse, RuntimeError> {
        match self.fast_path(request) {
            FastPathOutcome::Answered(stored) => Ok(stored.response().clone()),
            FastPathOutcome::NeedsSearch(ticket) => self.slow_path(*ticket),
            FastPathOutcome::Rejected(error) => Err(error),
        }
    }

    /// Runs the fast path — Normalize → Fingerprint → Coalesce →
    /// CacheLookup — for one request. Pure and bounded-latency: it
    /// validates, hashes and probes the response cache, but never builds
    /// an evaluator, never takes the evaluator build claim and never
    /// runs a search, so an event-driven server can call it on its
    /// reactor thread.
    ///
    /// Answered and Rejected outcomes complete the request's telemetry
    /// (request counter, latency histogram, trace) here; a
    /// [`FastPathOutcome::NeedsSearch`] ticket carries the in-flight
    /// trace and clock into [`RequestPipeline::slow_path`], which
    /// completes them.
    pub fn fast_path(&self, request: &MappingRequest) -> FastPathOutcome {
        let started = Instant::now();
        let telemetry = self.service.telemetry();
        telemetry.requests.inc();
        let mut trace = StageTrace::new(telemetry.begin_trace(&request.model, &request.platform));

        let prepared = match self.prepare(request, &mut trace) {
            Ok(prepared) => prepared,
            Err(error) => {
                telemetry
                    .request_duration
                    .record(saturating_nanos(started.elapsed()));
                telemetry.finish_trace(trace.take_recorder(), Some(error.to_string()));
                return FastPathOutcome::Rejected(error);
            }
        };
        // A single request has nothing to merge with: the Coalesce stage
        // passes through (batch traffic does its grouping in
        // `run_batch`), counted so the stage totals reflect every
        // request's path.
        self.stage(PipelineStage::Coalesce, &mut trace, || ());

        let replay = self.stage(PipelineStage::CacheLookup, &mut trace, || {
            prepared
                .response_key
                .as_ref()
                .and_then(|key| self.service.responses().probe(key))
        });
        trace.note("cache_lookup", || match (&replay, &prepared.response_key) {
            (Some(_), _) => "response cache hit".to_string(),
            (None, Some(_)) => "response cache miss".to_string(),
            (None, None) => "response cache skipped (warm start or disabled)".to_string(),
        });
        if let Some(stored) = replay {
            telemetry.fast_path_answered.inc();
            telemetry
                .request_duration
                .record(saturating_nanos(started.elapsed()));
            telemetry.finish_trace(trace.take_recorder(), None);
            return FastPathOutcome::Answered(stored);
        }
        FastPathOutcome::NeedsSearch(Box::new(SearchTicket {
            deadline: request
                .deadline_ms
                .map(|ms| started + Duration::from_millis(ms)),
            request: request.clone(),
            prepared,
            trace,
            started,
            cancel: CancelToken::new(),
        }))
    }

    /// Redeems a [`SearchTicket`]: ResolveEvaluator → WarmStartSeed →
    /// Search → ArchiveFeedback, plus the response-cache store that
    /// makes the next identical cold request a fast-path answer.
    /// Completes the telemetry the fast path left in flight.
    ///
    /// # Errors
    ///
    /// Returns an error for an evaluator build failure or an internal
    /// evaluation failure.
    pub fn slow_path(&self, ticket: SearchTicket) -> Result<MappingResponse, RuntimeError> {
        let SearchTicket {
            request,
            prepared,
            mut trace,
            started,
            deadline,
            cancel,
        } = ticket;
        // A ticket that expired while queued is answered without
        // starting its search: a partial front of zero generations would
        // be empty anyway, and the worker slot goes to a request that
        // can still meet its deadline.
        if let Some(error) = self.expired_while_queued(&request, deadline) {
            return self.complete(
                Err(error),
                prepared.response_key.as_ref(),
                &mut trace,
                started,
            );
        }
        let outcome = self.finish(&request, &prepared, &mut trace, started, deadline, &cancel);
        self.complete(outcome, prepared.response_key.as_ref(), &mut trace, started)
    }

    /// The slow path driven with a [`PauseToken`] attached — what a
    /// preemptive serving layer uses instead of
    /// [`RequestPipeline::slow_path`]. When the token is fired, the
    /// search checkpoints at its next generation boundary and the call
    /// returns [`SlowPathRun::Paused`]; redeem the paused state with
    /// [`RequestPipeline::resume`] (any number of times). The final
    /// response is bit-identical to an uninterrupted
    /// [`RequestPipeline::slow_path`] of the same ticket — pausing
    /// changes *when* the answer arrives, never what it is.
    pub fn slow_path_resumable(&self, ticket: SearchTicket, pause: PauseToken) -> SlowPathRun {
        let SearchTicket {
            request,
            prepared,
            mut trace,
            started,
            deadline,
            cancel,
        } = ticket;
        if let Some(error) = self.expired_while_queued(&request, deadline) {
            return SlowPathRun::Done(Box::new(self.complete(
                Err(error),
                prepared.response_key.as_ref(),
                &mut trace,
                started,
            )));
        }
        let (evaluator, seeds) = match self.stage_prologue(&request, &prepared, &mut trace) {
            Ok(resolved) => resolved,
            Err(error) => {
                return SlowPathRun::Done(Box::new(self.complete(
                    Err(error),
                    prepared.response_key.as_ref(),
                    &mut trace,
                    started,
                )));
            }
        };
        let generations = self
            .service
            .telemetry()
            .search_telemetry()
            .then(GenerationBuffer::new);
        self.drive_resumable(
            ResumableState {
                request,
                prepared,
                trace,
                started,
                deadline,
                cancel,
                pause,
                evaluator,
                seeds,
                generations,
            },
            None,
        )
    }

    /// Resumes a search paused by
    /// [`RequestPipeline::slow_path_resumable`], clearing its pause
    /// token first (resuming means "run now"; a later preemption fires
    /// the token again). The search picks up from its checkpointed
    /// generation and the eventual response is bit-identical to never
    /// having paused.
    pub fn resume(&self, paused: Box<PausedSearch>) -> SlowPathRun {
        let PausedSearch { state, checkpoint } = *paused;
        state.pause.clear();
        self.drive_resumable(state, Some(checkpoint))
    }

    /// The deadline check every slow-path entry runs before doing
    /// expensive work, with its miss telemetry.
    fn expired_while_queued(
        &self,
        request: &MappingRequest,
        deadline: Option<Instant>,
    ) -> Option<RuntimeError> {
        if deadline.is_some_and(|deadline| Instant::now() >= deadline) {
            self.service.telemetry().deadline_misses.inc();
            return Some(RuntimeError::DeadlineExceeded {
                deadline_ms: request.deadline_ms.unwrap_or(0),
            });
        }
        None
    }

    /// Completes a slow-path request whichever way it ended: stores
    /// cacheable responses (partial fronts are valid answers for *this*
    /// deadline but not the canonical answer, so they are never
    /// cached), records the end-to-end latency (errors included, so the
    /// histogram count always equals the requests counter) and freezes
    /// the trace.
    fn complete(
        &self,
        outcome: Result<MappingResponse, RuntimeError>,
        response_key: Option<&ResponseKey>,
        trace: &mut StageTrace,
        started: Instant,
    ) -> Result<MappingResponse, RuntimeError> {
        let telemetry = self.service.telemetry();
        if let Ok(response) = &outcome {
            if response.stats.partial {
                telemetry.partial_responses.inc();
            } else if let Some(key) = response_key {
                self.service.responses().insert(key, response);
            }
        }
        telemetry
            .request_duration
            .record(saturating_nanos(started.elapsed()));
        let error = outcome.as_ref().err().map(ToString::to_string);
        telemetry.finish_trace(trace.take_recorder(), error);
        outcome
    }

    /// Runs (or re-enters) the Search stage of a resumable request and
    /// dispatches on how it ended. Each pause/resume segment records
    /// its own Search-stage entry; the per-request trace accumulates
    /// across segments, and the search counters are bumped once, at
    /// completion, off the final outcome (which already spans the
    /// pre-pause segments through the checkpoint).
    fn drive_resumable(
        &self,
        state: ResumableState,
        from: Option<Box<SearchCheckpoint>>,
    ) -> SlowPathRun {
        let ResumableState {
            request,
            prepared,
            mut trace,
            started,
            deadline,
            cancel,
            pause,
            evaluator,
            seeds,
            generations,
        } = state;
        let telemetry = self.service.telemetry();
        let hook = FaultTicking(&evaluator);
        let run = self.try_stage(PipelineStage::Search, &mut trace, || {
            let mut search = MappingSearch::new(&hook, prepared.config)
                .with_seeds(seeds)
                .with_cancel_token(cancel.clone())
                .with_pause_token(pause.clone());
            if let Some(deadline) = deadline {
                search = search.with_deadline(deadline);
            }
            if let Some(buffer) = &generations {
                search = search.with_telemetry(buffer);
            }
            let run = match from {
                Some(checkpoint) => search.resume(checkpoint)?,
                None => search.run_resumable()?,
            };
            if let SearchRun::Complete(outcome) = &run {
                telemetry.searches_run.inc();
                telemetry
                    .evaluations_scheduled
                    .add(outcome.evaluations() as u64);
                telemetry
                    .evaluations_performed
                    .add(outcome.evaluations_performed() as u64);
            }
            Ok(run)
        });
        match run {
            Err(error) => SlowPathRun::Done(Box::new(self.complete(
                Err(error),
                prepared.response_key.as_ref(),
                &mut trace,
                started,
            ))),
            Ok(SearchRun::Paused(checkpoint)) => SlowPathRun::Paused(Box::new(PausedSearch {
                state: ResumableState {
                    request,
                    prepared,
                    trace,
                    started,
                    deadline,
                    cancel,
                    pause,
                    evaluator,
                    seeds: Vec::new(),
                    generations,
                },
                checkpoint,
            })),
            Ok(SearchRun::Complete(outcome)) => {
                if let Some(buffer) = generations {
                    let events = buffer.take();
                    telemetry.search_generations.add(events.len() as u64);
                    trace.generations(events);
                }
                let response = self.stage_epilogue(&request, &mut trace, started, &outcome);
                SlowPathRun::Done(Box::new(self.complete(
                    Ok(response),
                    prepared.response_key.as_ref(),
                    &mut trace,
                    started,
                )))
            }
        }
    }

    /// ResolveEvaluator → WarmStartSeed → Search → ArchiveFeedback for a
    /// prepared request.
    fn finish(
        &self,
        request: &MappingRequest,
        prepared: &PreparedRequest,
        trace: &mut StageTrace,
        started: Instant,
        deadline: Option<Instant>,
        cancel: &CancelToken,
    ) -> Result<MappingResponse, RuntimeError> {
        let telemetry = self.service.telemetry();
        let (evaluator, seeds) = self.stage_prologue(request, prepared, trace)?;

        // When the generation stream is on, the search reports every
        // generation into a request-local buffer; nothing the search
        // decides depends on it (the sink is write-only).
        let generations = telemetry.search_telemetry().then(GenerationBuffer::new);
        let hook = FaultTicking(&evaluator);
        let outcome = self.try_stage(PipelineStage::Search, trace, || {
            let mut search = MappingSearch::new(&hook, prepared.config)
                .with_seeds(seeds)
                .with_cancel_token(cancel.clone());
            if let Some(deadline) = deadline {
                search = search.with_deadline(deadline);
            }
            if let Some(buffer) = &generations {
                search = search.with_telemetry(buffer);
            }
            let outcome = search.run()?;
            telemetry.searches_run.inc();
            telemetry
                .evaluations_scheduled
                .add(outcome.evaluations() as u64);
            telemetry
                .evaluations_performed
                .add(outcome.evaluations_performed() as u64);
            Ok(outcome)
        })?;
        if let Some(buffer) = generations {
            let events = buffer.take();
            telemetry.search_generations.add(events.len() as u64);
            trace.generations(events);
        }
        Ok(self.stage_epilogue(request, trace, started, &outcome))
    }

    /// ResolveEvaluator + WarmStartSeed: everything the Search stage
    /// needs, shared by the one-shot and resumable slow paths.
    fn stage_prologue(
        &self,
        request: &MappingRequest,
        prepared: &PreparedRequest,
        trace: &mut StageTrace,
    ) -> Result<(Arc<Evaluator>, Vec<Arc<Genome>>), RuntimeError> {
        let telemetry = self.service.telemetry();
        let (evaluator, built) = self.try_stage(PipelineStage::ResolveEvaluator, trace, || {
            let (evaluator, built) = self
                .service
                .resolve_evaluator_keyed(request, prepared.evaluator_key)?;
            if built {
                telemetry.evaluator_builds.inc();
            } else {
                telemetry.evaluator_pool_hits.inc();
            }
            Ok((evaluator, built))
        })?;
        trace.note("resolve_evaluator", || {
            format!("evaluator {}", if built { "built" } else { "pool_hit" })
        });

        let seeds = self.try_stage(PipelineStage::WarmStartSeed, trace, || {
            if !request.warm_start {
                return Ok(Vec::new());
            }
            let seeds = self.service.warm_start_seeds(request, &evaluator)?;
            telemetry.warm_seeds_gathered.add(seeds.len() as u64);
            Ok(seeds)
        })?;
        trace.note("warm_start_seed", || {
            if request.warm_start {
                format!("{} seeds gathered", seeds.len())
            } else {
                "warm start not requested".to_string()
            }
        });
        Ok((evaluator, seeds))
    }

    /// ArchiveFeedback + response assembly for a completed search,
    /// shared by the one-shot and resumable slow paths.
    fn stage_epilogue(
        &self,
        request: &MappingRequest,
        trace: &mut StageTrace,
        started: Instant,
        outcome: &SearchOutcome,
    ) -> MappingResponse {
        let telemetry = self.service.telemetry();
        let (pareto_front, best_by_objective) =
            self.stage(PipelineStage::ArchiveFeedback, trace, || {
                let pareto_front: Vec<EvaluatedConfig> =
                    outcome.pareto_front().into_iter().cloned().collect();
                let best_by_objective = outcome.best_by_objective().cloned();
                // Feed the elite archive for future warm starts: the front
                // plus the best-by-objective pick (which a 2-D front need
                // not contain). `Arc`-shared with the response, so this
                // costs refcount bumps.
                let elites = pareto_front
                    .iter()
                    .map(|c| Arc::clone(&c.genome))
                    .chain(best_by_objective.iter().map(|c| Arc::clone(&c.genome)));
                telemetry
                    .elites_recorded
                    .add((pareto_front.len() + usize::from(best_by_objective.is_some())) as u64);
                self.service
                    .elite_archive()
                    .record(&request.model, &request.platform, elites);
                (pareto_front, best_by_objective)
            });

        let summary = outcome.summary();
        trace.note("search", || {
            format!(
                "{} generations, {} evaluations ({} memoized){}",
                summary.generations_run,
                summary.evaluations,
                summary.memo_hits,
                if summary.partial {
                    ", partial (deadline/cancel)"
                } else if summary.early_stopped {
                    ", early stop"
                } else {
                    ""
                }
            )
        });
        let stats = RequestStats {
            evaluations: summary.evaluations,
            evaluations_performed: summary.evaluations_performed,
            memo_hits: summary.memo_hits,
            warm_start_seeds: summary.warm_start_seeds,
            generations_run: summary.generations_run,
            early_stopped: summary.early_stopped,
            partial: summary.partial,
            elapsed_ms: started.elapsed().as_secs_f64() * 1e3,
            stage_micros: trace.stage_micros(),
        };
        MappingResponse {
            model: request.model.clone(),
            platform: request.platform.clone(),
            pareto_front,
            best_by_objective,
            stats,
        }
    }

    /// Runs a batch through the pipeline: batch-level Normalize /
    /// Fingerprint / Coalesce stages group identical requests, then each
    /// group leader executes the full per-request pipeline — sequentially
    /// or on a scoped worker pool under the [`BatchConfig`] thread budget.
    /// Responses come back in request order, duplicates as clones of
    /// their leader's.
    pub fn run_batch(&self, requests: &[MappingRequest], config: &BatchConfig) -> BatchReport {
        let started = Instant::now();
        let telemetry = self.service.telemetry();
        telemetry.batches.inc();
        telemetry.batch_size.record(requests.len() as u64);
        // Batch-level stages contribute to the stage totals but belong to
        // no single request, so they run untraced.
        let mut batch_trace = StageTrace::untraced();

        // Normalize (batch-level): the answer-neutral form every request
        // coalesces under. Validation stays per-leader so an invalid
        // request yields exactly the error sequential `submit` returns.
        let normalized: Vec<MappingRequest> =
            self.stage(PipelineStage::Normalize, &mut batch_trace, || {
                requests.iter().map(normalized_for_coalescing).collect()
            });
        // Fingerprint (batch-level): the full-request grouping keys,
        // hashed over the normalised forms the Normalize stage just
        // built (re-deriving them via `coalescing_key` would clone and
        // normalise every request a second time).
        let keys: Vec<u64> = self.stage(PipelineStage::Fingerprint, &mut batch_trace, || {
            normalized.iter().map(fingerprint_serialized).collect()
        });

        // Coalesce: group positions by key, membership confirmed by
        // normalised equality so a 64-bit collision splits a group
        // instead of answering one request with another's front; then pin
        // each leader's inner-search threads to the batch budget.
        let (mut groups, concurrency, per_request) =
            self.stage(PipelineStage::Coalesce, &mut batch_trace, || {
                let mut groups: Vec<Group> = Vec::new();
                let mut groups_of: std::collections::HashMap<u64, Vec<usize>> =
                    std::collections::HashMap::new();
                for (position, (request, normalized)) in
                    requests.iter().zip(&normalized).enumerate()
                {
                    let candidates = groups_of.entry(keys[position]).or_default();
                    match candidates
                        .iter()
                        .find(|&&index| &groups[index].normalized == normalized)
                    {
                        Some(&index) => groups[index].positions.push(position),
                        None => {
                            candidates.push(groups.len());
                            groups.push(Group {
                                request: request.clone(),
                                normalized: normalized.clone(),
                                positions: vec![position],
                            });
                        }
                    }
                }
                let (concurrency, per_request) = config.effective(groups.len());
                telemetry
                    .coalesced_requests
                    .add((requests.len() - groups.len()) as u64);
                (groups, concurrency, per_request)
            });
        // An explicit smaller request value is kept (and an invalid zero
        // is kept so the leader's Normalize stage rejects it exactly as
        // sequential `submit` would have).
        for group in &mut groups {
            group.request.threads = Some(match group.request.threads {
                Some(explicit) => explicit.min(per_request),
                None => per_request,
            });
        }

        let outcomes: Vec<Result<MappingResponse, RuntimeError>> = if concurrency <= 1 {
            groups
                .iter()
                .map(|group| self.run(&group.request))
                .collect()
        } else {
            self.run_concurrent(&groups, concurrency)
        };

        // Scatter each group's outcome back to the positions it answers.
        let mut responses: Vec<Option<Result<MappingResponse, RuntimeError>>> =
            (0..requests.len()).map(|_| None).collect();
        for (group, outcome) in groups.iter().zip(outcomes) {
            let (last, rest) = group
                .positions
                .split_last()
                .expect("every group holds at least one position");
            for &position in rest {
                responses[position] = Some(outcome.clone());
            }
            responses[*last] = Some(outcome);
        }
        let responses: Vec<_> = responses
            .into_iter()
            .map(|slot| slot.expect("every position answered by its group"))
            .collect();

        BatchReport {
            leader_positions: groups.iter().map(|group| group.positions[0]).collect(),
            stats: BatchStats {
                requests: requests.len(),
                unique_requests: groups.len(),
                coalesced_requests: requests.len() - groups.len(),
                max_concurrent: concurrency,
                threads_per_request: per_request,
                elapsed_ms: started.elapsed().as_secs_f64() * 1e3,
            },
            responses,
        }
    }

    /// Runs the group leaders on `concurrency` scoped worker threads.
    /// Work is handed out through an atomic cursor and results written
    /// back by group index, so the output order is independent of
    /// scheduling (the same ordered-write-back idiom as the rayon
    /// stand-in's parallel map).
    fn run_concurrent(
        &self,
        groups: &[Group],
        concurrency: usize,
    ) -> Vec<Result<MappingResponse, RuntimeError>> {
        let slots: Vec<Mutex<Option<Result<MappingResponse, RuntimeError>>>> =
            (0..groups.len()).map(|_| Mutex::new(None)).collect();
        let cursor = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..concurrency.min(groups.len()) {
                scope.spawn(|| loop {
                    let index = cursor.fetch_add(1, Ordering::Relaxed) as usize;
                    let Some(group) = groups.get(index) else {
                        break;
                    };
                    let outcome = self.run(&group.request);
                    *slots[index].lock().expect("slot lock never poisoned") = Some(outcome);
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("slot lock never poisoned")
                    .expect("every group visited by the cursor")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_request() -> MappingRequest {
        MappingRequest::new("tiny_cnn_cifar10", "dual_test")
            .validation_samples(300)
            .generations(2)
            .population_size(8)
    }

    #[test]
    fn stage_order_names_and_indices_are_stable() {
        assert_eq!(PipelineStage::ALL.len(), STAGE_COUNT);
        for (position, stage) in PipelineStage::ALL.iter().enumerate() {
            assert_eq!(stage.index(), position);
        }
        let names: Vec<&str> = PipelineStage::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            [
                "normalize",
                "fingerprint",
                "coalesce",
                "cache_lookup",
                "resolve_evaluator",
                "warm_start_seed",
                "search",
                "archive_feedback"
            ]
        );
    }

    #[test]
    fn run_counts_every_stage_once_per_request() {
        let service = MappingService::new();
        let response = service.pipeline().run(&small_request()).unwrap();
        let stats = service.pipeline_stats();
        for stage in PipelineStage::ALL {
            assert_eq!(stats.stage(stage).entered, 1, "{}", stage.name());
            assert_eq!(stats.stage(stage).errors, 0, "{}", stage.name());
        }
        assert_eq!(stats.requests, 1);
        assert_eq!(stats.searches_run, 1);
        assert_eq!(stats.evaluations_scheduled, 16);
        assert_eq!(
            stats.evaluations_performed + response.stats.memo_hits as u64,
            stats.evaluations_scheduled
        );
        // The per-request trace covers the same stages.
        assert!(response.stats.stage_micros.iter().all(|&m| m >= 0.0));
        assert!(response.stats.stage_micros[PipelineStage::Search.index()] > 0.0);
    }

    #[test]
    fn rejected_requests_error_in_normalize_before_any_expensive_stage() {
        let service = MappingService::new();
        let unknown = MappingRequest::new("resnet", "dual_test");
        assert!(matches!(
            service.pipeline().run(&unknown),
            Err(RuntimeError::UnknownModel { .. })
        ));
        let invalid = MappingRequest {
            population_size: 1,
            ..small_request()
        };
        assert!(matches!(
            service.pipeline().run(&invalid),
            Err(RuntimeError::InvalidRequest { .. })
        ));
        let stats = service.pipeline_stats();
        assert_eq!(stats.stage(PipelineStage::Normalize).entered, 2);
        assert_eq!(stats.stage(PipelineStage::Normalize).errors, 2);
        // Neither request made it past Normalize.
        assert_eq!(stats.stage(PipelineStage::CacheLookup).entered, 0);
        assert_eq!(stats.stage(PipelineStage::ResolveEvaluator).entered, 0);
        assert_eq!(stats.stage(PipelineStage::Search).entered, 0);
        assert_eq!(stats.evaluator_builds, 0);
    }

    #[test]
    fn repeated_cold_request_is_answered_on_the_fast_path() {
        let service = MappingService::new();
        let cold = service.pipeline().run(&small_request()).unwrap();
        let replay = service.pipeline().run(&small_request()).unwrap();
        // Bit-identical replay, stats included — the stored response
        // verbatim, like a coalesced batch duplicate.
        assert_eq!(cold, replay);
        let stats = service.pipeline_stats();
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.fast_path_answered, 1);
        assert_eq!(stats.searches_run, 1, "the replay never searched");
        assert_eq!(stats.stage(PipelineStage::CacheLookup).entered, 2);
        assert_eq!(
            stats.stage(PipelineStage::ResolveEvaluator).entered,
            1,
            "the fast path never resolves an evaluator"
        );
        let responses = service.response_cache_stats();
        assert_eq!(responses.hits, 1);
        assert_eq!(responses.insertions, 1);
    }

    #[test]
    fn fast_path_outcome_seam_is_typed_and_composable() {
        let service = MappingService::new();
        let pipeline = service.pipeline();
        // Rejected: invalid requests never produce a ticket.
        match pipeline.fast_path(&MappingRequest::new("resnet", "dual_test")) {
            FastPathOutcome::Rejected(RuntimeError::UnknownModel { .. }) => {}
            other => panic!("expected a rejection, got {other:?}"),
        }
        // NeedsSearch: a cold first-time request yields a ticket that
        // carries the coalescing identity for in-flight joining.
        let ticket = match pipeline.fast_path(&small_request()) {
            FastPathOutcome::NeedsSearch(ticket) => ticket,
            other => panic!("expected a ticket, got {other:?}"),
        };
        assert_eq!(ticket.request(), &small_request());
        let fingerprint = ticket.coalescing_fingerprint().expect("cold → eligible");
        assert!(ticket.normalized_request().is_some());
        let response = pipeline.slow_path(*ticket).unwrap();
        // Answered: redeeming the ticket stored the response, so the
        // identical request now completes inside the fast path.
        match pipeline.fast_path(&small_request()) {
            FastPathOutcome::Answered(replay) => assert_eq!(*replay.response(), response),
            other => panic!("expected a fast-path answer, got {other:?}"),
        }
        // The fingerprint is the batch-coalescing key: stable across
        // calls for the same request.
        let again = match pipeline.fast_path(&small_request().seed(99)) {
            FastPathOutcome::NeedsSearch(ticket) => ticket,
            other => panic!("expected a ticket, got {other:?}"),
        };
        assert_ne!(again.coalescing_fingerprint().unwrap(), fingerprint);
    }

    #[test]
    fn warm_start_requests_bypass_the_response_cache() {
        let service = MappingService::new();
        let pipeline = service.pipeline();
        pipeline.run(&small_request()).unwrap();
        let warm = small_request().warm_start(true).stall_generations(2);
        pipeline.run(&warm).unwrap();
        pipeline.run(&warm).unwrap();
        let stats = service.pipeline_stats();
        // Both warm submissions searched: warm answers depend on archive
        // history, so they are never stored or replayed.
        assert_eq!(stats.searches_run, 3);
        assert_eq!(stats.fast_path_answered, 0);
        match pipeline.fast_path(&warm) {
            FastPathOutcome::NeedsSearch(ticket) => {
                assert_eq!(ticket.coalescing_fingerprint(), None);
                assert!(ticket.normalized_request().is_none());
            }
            other => panic!("warm requests always need a search, got {other:?}"),
        }
    }

    #[test]
    fn disabled_response_cache_reruns_every_search() {
        let service = MappingService::with_config(crate::service::ServiceConfig {
            response_cache_entries: 0,
            ..Default::default()
        });
        service.pipeline().run(&small_request()).unwrap();
        service.pipeline().run(&small_request()).unwrap();
        let stats = service.pipeline_stats();
        assert_eq!(stats.searches_run, 2);
        assert_eq!(stats.fast_path_answered, 0);
        assert_eq!(service.response_cache_stats().insertions, 0);
    }

    #[test]
    fn paused_and_resumed_slow_path_answers_bit_identically() {
        // Response cache off so the second submission reaches the slow
        // path instead of replaying the first answer.
        let service = MappingService::with_config(crate::service::ServiceConfig {
            response_cache_entries: 0,
            ..Default::default()
        });
        let pipeline = service.pipeline();
        let request = small_request().generations(4);
        let plain = pipeline.run(&request).unwrap();

        let ticket = match pipeline.fast_path(&request) {
            FastPathOutcome::NeedsSearch(ticket) => ticket,
            other => panic!("expected a ticket, got {other:?}"),
        };
        // Token fired before dispatch: the search pauses at its first
        // generation boundary (after making progress — never before).
        let pause = PauseToken::new();
        pause.pause();
        let paused = match pipeline.slow_path_resumable(*ticket, pause.clone()) {
            SlowPathRun::Paused(paused) => paused,
            other => panic!("expected a pause, got {other:?}"),
        };
        assert!(paused.generations_completed() >= 1);
        assert!(paused.evaluations_performed() > 0);
        assert_eq!(paused.request(), &request);

        // resume() clears the token and runs to completion.
        let resumed = match pipeline.resume(paused) {
            SlowPathRun::Done(outcome) => outcome.unwrap(),
            other => panic!("expected completion, got {other:?}"),
        };
        assert!(!pause.is_paused());
        // Bit-identical answer content and search accounting; only
        // wall-clock fields may differ.
        assert_eq!(resumed.pareto_front, plain.pareto_front);
        assert_eq!(resumed.best_by_objective, plain.best_by_objective);
        assert_eq!(resumed.stats.evaluations, plain.stats.evaluations);
        assert_eq!(
            resumed.stats.evaluations_performed,
            plain.stats.evaluations_performed
        );
        assert_eq!(resumed.stats.memo_hits, plain.stats.memo_hits);
        assert_eq!(resumed.stats.generations_run, plain.stats.generations_run);
        assert!(!resumed.stats.partial);
        // Each request's search completed exactly once, pause segments
        // notwithstanding.
        assert_eq!(service.pipeline_stats().searches_run, 2);
    }

    #[test]
    fn resumable_slow_path_without_a_fired_token_completes_directly() {
        let service = MappingService::new();
        let pipeline = service.pipeline();
        let ticket = match pipeline.fast_path(&small_request()) {
            FastPathOutcome::NeedsSearch(ticket) => ticket,
            other => panic!("expected a ticket, got {other:?}"),
        };
        let outcome = pipeline.slow_path_resumable(*ticket, PauseToken::new());
        let response = match outcome {
            SlowPathRun::Done(outcome) => outcome.unwrap(),
            other => panic!("expected completion, got {other:?}"),
        };
        // The completed response is stored for fast-path replay exactly
        // like the one-shot slow path's.
        match pipeline.fast_path(&small_request()) {
            FastPathOutcome::Answered(replay) => assert_eq!(*replay.response(), response),
            other => panic!("expected a fast-path answer, got {other:?}"),
        }
    }

    #[test]
    fn batch_counts_leaders_and_coalesced_duplicates() {
        let service = MappingService::new();
        let batch = vec![small_request(), small_request(), small_request().seed(5)];
        let report = service
            .pipeline()
            .run_batch(&batch, &BatchConfig::new().max_concurrent(2));
        assert_eq!(report.stats.unique_requests, 2);
        let stats = service.pipeline_stats();
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.requests, 2, "only leaders run the pipeline");
        assert_eq!(stats.coalesced_requests, 1);
        assert_eq!(stats.searches_run, 2);
        // Batch-level stages ran once for the batch, per-request stages
        // once per leader.
        assert_eq!(stats.stage(PipelineStage::Coalesce).entered, 1 + 2);
        assert_eq!(stats.stage(PipelineStage::Search).entered, 2);
    }

    #[test]
    fn pool_hits_and_builds_are_distinguished() {
        let service = MappingService::new();
        service.pipeline().run(&small_request()).unwrap();
        service.pipeline().run(&small_request().seed(9)).unwrap();
        let stats = service.pipeline_stats();
        assert_eq!(stats.evaluator_builds, 1);
        assert_eq!(stats.evaluator_pool_hits, 1);
    }

    #[test]
    fn stage_trace_keeps_sub_microsecond_durations() {
        // The satellite regression: 250 ns stage entries used to be
        // floored to 0 µs by per-entry microsecond accumulation.
        let mut trace = StageTrace::untraced();
        trace.record(PipelineStage::Fingerprint, Duration::from_nanos(250));
        trace.record(PipelineStage::Fingerprint, Duration::from_nanos(250));
        let micros = trace.stage_micros();
        assert!((micros[PipelineStage::Fingerprint.index()] - 0.5).abs() < 1e-12);
        assert_eq!(micros[PipelineStage::Search.index()], 0.0);
    }

    #[test]
    fn stage_trace_saturates_instead_of_wrapping() {
        let mut trace = StageTrace::untraced();
        trace.record(PipelineStage::Search, Duration::MAX);
        trace.record(PipelineStage::Search, Duration::from_secs(1));
        assert_eq!(
            trace.stage_micros()[PipelineStage::Search.index()],
            u64::MAX as f64 / 1e3
        );
    }

    #[test]
    fn run_retains_a_trace_with_spans_events_and_generations() {
        let service = MappingService::new();
        let response = service.pipeline().run(&small_request()).unwrap();
        let traces = service.telemetry().traces().recent();
        assert_eq!(traces.len(), 1);
        let trace = &traces[0];
        assert_eq!(trace.model, "tiny_cnn_cifar10");
        assert!(trace.error.is_none());
        // Every stage left a span, in execution order.
        let span_stages: Vec<&str> = trace.stages.iter().map(|s| s.stage.as_ref()).collect();
        let expected: Vec<&str> = PipelineStage::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(span_stages, expected);
        // Decision events and the search's generation stream rode along
        // — fast-path events (response-cache probe) and slow-path events
        // (evaluator resolution) in one trace.
        assert!(trace.events.iter().any(|e| e.label == "cache_lookup"));
        assert!(trace.events.iter().any(|e| e.label == "resolve_evaluator"));
        assert_eq!(trace.generations.len(), response.stats.generations_run);
        assert_eq!(
            trace
                .generations
                .iter()
                .map(|g| g.scheduled as u64)
                .sum::<u64>(),
            response.stats.evaluations as u64
        );
    }

    #[test]
    fn errored_requests_still_record_request_duration_and_trace() {
        let service = MappingService::new();
        let unknown = MappingRequest::new("resnet", "dual_test");
        assert!(service.pipeline().run(&unknown).is_err());
        let telemetry = service.telemetry();
        assert_eq!(telemetry.request_duration.count(), 1);
        let traces = telemetry.traces().recent();
        assert_eq!(traces.len(), 1);
        assert!(traces[0].error.as_deref().unwrap().contains("resnet"));
    }

    #[test]
    fn expired_queued_ticket_answers_deadline_exceeded_without_searching() {
        let service = MappingService::new();
        let pipeline = service.pipeline();
        let ticket = match pipeline.fast_path(&small_request().deadline_ms(0)) {
            FastPathOutcome::NeedsSearch(ticket) => ticket,
            other => panic!("expected a ticket, got {other:?}"),
        };
        assert!(ticket.deadline().is_some());
        assert!(ticket.expired(), "a 0 ms deadline expires immediately");
        match pipeline.slow_path(*ticket) {
            Err(RuntimeError::DeadlineExceeded { deadline_ms }) => assert_eq!(deadline_ms, 0),
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        let stats = service.pipeline_stats();
        assert_eq!(stats.deadline_misses, 1);
        assert_eq!(
            stats.searches_run, 0,
            "no search starts for an expired ticket"
        );
        assert_eq!(stats.stage(PipelineStage::ResolveEvaluator).entered, 0);
        // The miss still completes the request's telemetry.
        let telemetry = service.telemetry();
        assert_eq!(telemetry.request_duration.count(), 1);
    }

    #[test]
    fn cancelled_ticket_answers_partial_and_is_never_cached() {
        let service = MappingService::new();
        let pipeline = service.pipeline();
        let ticket = match pipeline.fast_path(&small_request()) {
            FastPathOutcome::NeedsSearch(ticket) => ticket,
            other => panic!("expected a ticket, got {other:?}"),
        };
        // What the serving watchdog does: cancel from outside the search.
        ticket.cancel_token().cancel();
        let response = pipeline.slow_path(*ticket).unwrap();
        assert!(response.stats.partial);
        assert!(response.stats.early_stopped);
        assert_eq!(
            response.stats.generations_run, 1,
            "the first generation always runs, so the partial front is non-empty"
        );
        assert!(!response.pareto_front.is_empty());
        let stats = service.pipeline_stats();
        assert_eq!(stats.partial_responses, 1);
        assert_eq!(stats.deadline_misses, 0);
        assert_eq!(
            service.response_cache_stats().insertions,
            0,
            "a partial front must never become the cached canonical answer"
        );
        // The next identical request runs the full search and caches it.
        let full = pipeline.run(&small_request()).unwrap();
        assert!(!full.stats.partial);
        assert_eq!(service.response_cache_stats().insertions, 1);
    }

    #[test]
    fn generous_deadline_answers_bit_identically_and_shares_the_cache_key() {
        let service = MappingService::new();
        let plain = service.pipeline().run(&small_request()).unwrap();
        // Deadline is normalised out of the response-cache key, so the
        // deadlined twin replays the stored undeadlined answer verbatim.
        let replay = service
            .pipeline()
            .run(&small_request().deadline_ms(3_600_000))
            .unwrap();
        assert_eq!(plain, replay);
        assert_eq!(service.pipeline_stats().fast_path_answered, 1);

        // And served cold, a generous deadline changes nothing about the
        // front (the per-generation probe never touches the RNG stream).
        let fresh = MappingService::new();
        let cold = fresh
            .pipeline()
            .run(&small_request().deadline_ms(3_600_000))
            .unwrap();
        assert!(!cold.stats.partial);
        assert_eq!(cold.pareto_front, plain.pareto_front);
        assert_eq!(cold.best_by_objective, plain.best_by_objective);
    }

    #[test]
    fn pipeline_stats_serialize_round_trip() {
        let service = MappingService::new();
        service.pipeline().run(&small_request()).unwrap();
        let stats = service.pipeline_stats();
        let json = serde_json::to_string(&stats).unwrap();
        let back: PipelineStats = serde_json::from_str(&json).unwrap();
        assert_eq!(stats, back);
    }
}
