//! The event-driven wire front-end.
//!
//! One reactor thread multiplexes every connection through a
//! [`Poller`] (epoll on Linux), reading with the incremental
//! [`FrameDecoder`] so a connection never blocks the loop on a partial
//! frame. The request pipeline's fast/slow split decides where work
//! runs:
//!
//! * **Fast path, inline.** `Submit` requests go through
//!   [`RequestPipeline::fast_path`] right on the reactor thread —
//!   normalization, fingerprinting and the response-cache probe are
//!   pure, bounded-latency work. Cache hits and structured rejections
//!   are answered without ever touching the search pool.
//! * **Slow path, pooled.** A [`FastPathOutcome::NeedsSearch`] ticket is
//!   handed to a bounded search-worker pool; the worker redeems it with
//!   [`RequestPipeline::slow_path`] and posts the completion back to the
//!   reactor (woken through a loopback socket pair), which writes the
//!   response out. `SubmitBatch` runs on the pool too — batches
//!   coalesce internally and can occupy a worker for a while.
//!
//! **Admission control.** [`ReactorConfig`] bounds the damage a load
//! spike can do: a connection cap (excess connections are answered with
//! a structured [`ErrorCode::Overloaded`] error and closed), a search
//! queue depth cap and a per-connection in-flight cap (excess requests
//! are shed with `Overloaded` instead of queueing without bound). Shed
//! counts, live connections and queue depth are exported through the
//! service's metrics registry (`mnc_shed_requests_total`,
//! `mnc_server_connections`, `mnc_server_queue_depth`).
//!
//! **Multi-tenant QoS.** The search queue is not a FIFO but a
//! [`DrrQueue`]: every tenant (a request's `tenant` field; unnamed
//! requests share the `"default"` lane) gets deficit-round-robin
//! service in proportion to its configured weight, so a noisy
//! neighbour's backlog cannot starve anyone. Across tenants a strictly
//! higher-priority job is served first, and when every worker is busy a
//! higher-priority arrival *preempts*: the lowest-priority running
//! search is asked to pause at its next generation boundary
//! ([`PauseToken`]), its checkpointed state re-queued ahead of its
//! tenant's own backlog, and the freed worker picks up the urgent job.
//! A resumed search answers bit-identically to an uninterrupted one.
//! Tenants configured with an evaluation budget
//! ([`TenantPolicy::evals_per_sec`]) are metered by a token bucket:
//! an exhausted tenant's submissions are answered with a structured
//! `BudgetExhausted` error carrying a `retry_after_ms` hint — never a
//! dropped connection — and the debit is the *actual*
//! `evaluations_performed` of each answered request. Batches ride the
//! default lane unmetered (they coalesce internally and carry no single
//! tenant). Per-tenant admission, shed, preemption, budget and
//! queue-depth series are exported with a `tenant` label
//! (`mnc_tenant_*`).
//!
//! **Deadlines & the watchdog.** A request's `deadline_ms` is stamped
//! into its ticket by the fast path; a ticket that expires while queued
//! is answered `DeadlineExceeded` by the slow path without starting a
//! search. Once a search is *running*, a watchdog thread scans the
//! running-job registry and flips the ticket's cancel token when the
//! effective deadline — the earlier of the request deadline and the
//! [`ReactorConfig::search_timeout`] wall-clock cap — passes; the search
//! stops at the next generation boundary and answers with its
//! best-so-far front marked partial. Cancellations are counted in
//! `mnc_search_cancellations_total`.
//!
//! **Cross-connection coalescing.** While a search for some normalized
//! request is in flight, identical `Submit`s from *other* connections
//! join its waiter list instead of enqueueing a duplicate search
//! (collision-safe: fingerprint match is confirmed against the stored
//! normalized request). Every waiter gets the leader's response
//! verbatim, mirroring what the batch scheduler does for duplicates
//! within one batch; joins are counted in `mnc_inflight_coalesced_total`.
//!
//! **Shutdown drains.** A wire `Shutdown` (or
//! [`ReactorHandle::shutdown`]) stops admitting work, lets queued and
//! running searches finish and their responses flush, then force-closes
//! whatever is left once the configured drain deadline passes.
//!
//! [`RequestPipeline::fast_path`]: mnc_runtime::RequestPipeline::fast_path
//! [`RequestPipeline::slow_path`]: mnc_runtime::RequestPipeline::slow_path
//! [`FastPathOutcome::NeedsSearch`]: mnc_runtime::FastPathOutcome
//! [`ErrorCode::Overloaded`]: mnc_wire::ErrorCode::Overloaded
//! [`FrameDecoder`]: mnc_wire::frame::FrameDecoder
//! [`TenantPolicy::evals_per_sec`]: mnc_runtime::TenantPolicy::evals_per_sec

use crate::poller::{raw_fd, wake_pair, Interest, Poller};
use crate::{
    encode_outcome_or_internal, encode_response_or_internal, panic_error, Dispatcher, ServerConfig,
    ServerError, ARCHIVE_FILE_NAME,
};
use mnc_runtime::{
    ArchiveLoad, CancelToken, DrrQueue, FastPathOutcome, MappingRequest, MappingResponse,
    MappingService, PauseToken, PausedSearch, RuntimeError, SearchTicket, ServingMetrics,
    SlowPathRun, TenantMetrics, TenantPolicy, TenantPolicyTable, TokenBucket, DEFAULT_PRIORITY,
    DEFAULT_TENANT,
};
use mnc_wire::frame::FrameDecoder;
use mnc_wire::{EncodedOutcome, WireBody, WireError, WireOutcome, WirePayload, WireResponse};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Poller token of the accept listener.
const TOKEN_LISTENER: u64 = 0;
/// Poller token of the wake-channel receiver.
const TOKEN_WAKE: u64 = 1;
/// First token handed to an accepted connection.
const TOKEN_FIRST_CONN: u64 = 2;

/// Cap on one connection's backlogged out-buffer. A reader this slow is
/// indistinguishable from a stuck one; past the cap the connection is
/// closed rather than buffering without bound.
const MAX_OUTBUF_BYTES: usize = 16 * 1024 * 1024;

/// Admission-control knobs of the reactor front-end.
#[derive(Debug, Clone)]
pub struct ReactorConfig {
    /// Maximum concurrently served connections; further accepts are
    /// answered with a structured `Overloaded` error and closed.
    pub max_connections: usize,
    /// Maximum queued (not yet running) search/batch jobs; further
    /// submissions are shed with `Overloaded`.
    pub queue_depth: usize,
    /// Maximum unanswered submissions per connection (queued waiters
    /// included); further submissions on that connection are shed.
    pub inflight_per_conn: usize,
    /// Search-pool threads; `0` sizes to the machine (parallelism − 1,
    /// at least 2).
    pub search_workers: usize,
    /// Per-job wall-clock cap. A search still running this long after a
    /// worker picked it up has its cancel token flipped by the watchdog
    /// and answers with its best-so-far front marked partial — one
    /// pathological request cannot pin a pool thread forever. `None`
    /// leaves searches bounded only by their own request deadlines.
    pub search_timeout: Option<Duration>,
    /// Per-tenant QoS policies (`--tenant-config`). The default table
    /// gives every tenant the default policy — weight 1, no priority
    /// ceiling, no budget — which reduces scheduling to the
    /// single-tenant FIFO behaviour.
    pub tenants: TenantPolicyTable,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        ReactorConfig {
            max_connections: 1024,
            queue_depth: 256,
            inflight_per_conn: 64,
            search_workers: 0,
            search_timeout: None,
            tenants: TenantPolicyTable::default(),
        }
    }
}

impl ReactorConfig {
    fn resolved_workers(&self) -> usize {
        if self.search_workers > 0 {
            return self.search_workers;
        }
        std::thread::available_parallelism()
            .map(|n| n.get().saturating_sub(1))
            .unwrap_or(2)
            .max(2)
    }
}

/// What a search worker executes.
enum JobKind {
    /// A fast-path miss: redeem the ticket with the resumable slow
    /// path.
    Search(Box<SearchTicket>),
    /// A preempted search, resumed from its checkpoint.
    Resume(Box<PausedSearch>),
    /// A whole batch through the coalescing scheduler.
    Batch(mnc_wire::WireBatch),
}

struct Job {
    id: u64,
    /// The owning tenant's lane in the DRR queue.
    tenant: String,
    /// Effective (ceiling-clamped) scheduling priority.
    priority: u8,
    /// DRR price: estimated evaluations (remaining, for resumes).
    cost: u64,
    kind: JobKind,
}

/// The scheduling identity a job is enqueued under.
struct Admission {
    tenant: String,
    /// Effective (ceiling-clamped) priority.
    priority: u8,
    /// Estimated evaluations — the job's DRR price.
    cost: u64,
}

/// A request's DRR price: the evaluations its search is expected to
/// schedule (initial population plus one population per generation),
/// capped by `max_evaluations`. An estimate is enough — DRR deficits
/// only need prices to be mutually comparable, and the token-bucket
/// debit uses the *actual* spend.
fn estimated_cost(request: &MappingRequest) -> u64 {
    let evaluations = request
        .population_size
        .saturating_mul(request.generations.saturating_add(1));
    let evaluations = request
        .max_evaluations
        .map_or(evaluations, |cap| evaluations.min(cap));
    evaluations.max(1) as u64
}

/// What executing one job produced.
enum JobOutcome {
    /// The job answered (or failed); deliver the completion. Boxed to
    /// keep the enum small next to the already-boxed
    /// [`JobOutcome::Paused`].
    Finished(Box<Result<WirePayload, WireError>>),
    /// The search observed its pause token and checkpointed; re-queue
    /// it (no completion — the pending entry keeps waiting).
    Paused(Box<PausedSearch>),
}

/// A finished job, posted by a worker for the reactor to deliver.
struct Completion {
    job_id: u64,
    result: Result<WirePayload, WireError>,
}

#[derive(Default)]
struct QueueState {
    jobs: DrrQueue<Job>,
    /// Workers currently executing a job — when every worker is busy, a
    /// higher-priority arrival preempts instead of waiting.
    busy_workers: usize,
    stopping: bool,
}

/// A search currently occupying a worker, as the watchdog (deadlines)
/// and the reactor (preemption) see it.
struct RunningSearch {
    cancel: CancelToken,
    /// When the watchdog flips the cancel token: the earlier of the
    /// request's own deadline and the per-job wall-clock cap (`None`
    /// when neither applies).
    cancel_at: Option<Instant>,
    /// Set once cancelled so one overrun is counted (and flipped) once.
    cancelled: bool,
    /// The search's pause token, for priority preemption.
    pause: PauseToken,
    /// Set once preempted so one search is paused (and counted) once.
    pause_fired: bool,
    tenant: String,
    priority: u8,
}

/// State shared between the reactor thread, the worker pool and
/// [`ReactorHandle`].
struct ReactorShared {
    dispatcher: Dispatcher,
    queue: Mutex<QueueState>,
    available: Condvar,
    completions: Mutex<Vec<Completion>>,
    /// Sender half of the loopback wake pair; one byte = one wake.
    waker: Mutex<TcpStream>,
    /// Handle-initiated shutdown request.
    shutdown: AtomicBool,
    metrics: ServingMetrics,
    /// Per-job wall-clock cap (see [`ReactorConfig::search_timeout`]).
    search_timeout: Option<Duration>,
    /// Searches currently on worker threads, scanned by the watchdog
    /// and by the reactor's preemption check.
    running: Mutex<HashMap<u64, RunningSearch>>,
    /// Per-tenant QoS policies.
    tenants: TenantPolicyTable,
    /// Search-pool size, for the all-workers-busy preemption check.
    workers: usize,
}

impl ReactorShared {
    /// Pulls the reactor out of `Poller::wait`. Best effort: if the wake
    /// socket's buffer is full the reactor is already drowning in wakes.
    fn wake(&self) {
        let _ = self
            .waker
            .lock()
            .expect("waker lock never poisoned")
            .write(&[1]);
    }
}

/// One worker: pop a job under priority-then-DRR order, run it outside
/// every reactor data structure, then either post the completion (and
/// wake the reactor) or — when the search was preempted — re-queue the
/// paused state ahead of its tenant's backlog.
fn worker_loop(shared: &ReactorShared) {
    loop {
        let job = {
            let mut state = shared.queue.lock().expect("work queue lock never poisoned");
            loop {
                if state.stopping {
                    return;
                }
                if let Some((tenant, job)) = state.jobs.pop() {
                    state.busy_workers += 1;
                    shared.metrics.queue_depth.set(state.jobs.len() as f64);
                    let depth = state.jobs.tenant_depth(&tenant) as f64;
                    drop(state);
                    shared
                        .dispatcher
                        .service()
                        .tenant_metrics(&tenant)
                        .queue_depth
                        .set(depth);
                    break job;
                }
                state = shared
                    .available
                    .wait(state)
                    .expect("work queue lock never poisoned");
            }
        };
        let Job {
            id,
            tenant,
            priority,
            cost,
            kind,
        } = job;
        let pause = register_running(shared, id, &tenant, priority, &kind);
        let watched = pause.is_some();
        let outcome = execute(&shared.dispatcher, kind, pause);
        if watched {
            shared
                .running
                .lock()
                .expect("running-search registry lock never poisoned")
                .remove(&id);
        }
        match outcome {
            JobOutcome::Finished(result) => {
                release_worker(shared);
                shared
                    .completions
                    .lock()
                    .expect("completion list lock never poisoned")
                    .push(Completion {
                        job_id: id,
                        result: *result,
                    });
                shared.wake();
            }
            JobOutcome::Paused(paused) => {
                requeue_paused(shared, id, tenant, priority, cost, paused);
            }
        }
    }
}

/// Marks one worker idle again.
fn release_worker(shared: &ReactorShared) {
    let mut state = shared.queue.lock().expect("work queue lock never poisoned");
    state.busy_workers = state.busy_workers.saturating_sub(1);
}

/// Puts a preempted search back in its tenant's lane, ahead of the
/// lane's FIFO tail, priced at its *remaining* estimated evaluations.
/// No completion is posted — the reactor's pending entry (and every
/// coalesced waiter on it) keeps waiting for the resumed answer.
fn requeue_paused(
    shared: &ReactorShared,
    id: u64,
    tenant: String,
    priority: u8,
    cost: u64,
    paused: Box<PausedSearch>,
) {
    let remaining = cost
        .saturating_sub(paused.evaluations_performed() as u64)
        .max(1);
    let policy = shared.tenants.policy_for(&tenant).clone();
    let metrics = shared.dispatcher.service().tenant_metrics(&tenant);
    let (depth, total) = {
        let mut state = shared.queue.lock().expect("work queue lock never poisoned");
        state.busy_workers = state.busy_workers.saturating_sub(1);
        if state.stopping {
            // Teardown raced the pause: drop the checkpoint, the drain
            // deadline has spoken.
            return;
        }
        state.jobs.push_resume(
            &tenant,
            &policy,
            priority,
            remaining,
            Job {
                id,
                tenant: tenant.clone(),
                priority,
                cost: remaining,
                kind: JobKind::Resume(paused),
            },
        );
        (state.jobs.tenant_depth(&tenant), state.jobs.len())
    };
    shared.metrics.queue_depth.set(total as f64);
    metrics.queue_depth.set(depth as f64);
    shared.available.notify_one();
}

/// Enters a just-popped search into the running-search registry, which
/// both the watchdog (deadline/timeout cancellation) and the reactor's
/// preemption check scan. Returns the pause token the search must run
/// under (`None` for batches, which coalesce internally and carry
/// neither a single cancel token nor a resumable checkpoint).
fn register_running(
    shared: &ReactorShared,
    id: u64,
    tenant: &str,
    priority: u8,
    kind: &JobKind,
) -> Option<PauseToken> {
    let (cancel, pause, deadline) = match kind {
        JobKind::Search(ticket) => (ticket.cancel_token(), PauseToken::new(), ticket.deadline()),
        // A resumed search keeps its original tokens: the pipeline
        // clears the pause flag on resume, and a later preemption
        // re-fires the same token.
        JobKind::Resume(paused) => (
            paused.cancel_token(),
            paused.pause_token(),
            paused.deadline(),
        ),
        JobKind::Batch(_) => return None,
    };
    let cap = shared
        .search_timeout
        .map(|timeout| Instant::now() + timeout);
    let cancel_at = match (deadline, cap) {
        (Some(deadline), Some(cap)) => Some(deadline.min(cap)),
        (deadline, cap) => deadline.or(cap),
    };
    shared
        .running
        .lock()
        .expect("running-search registry lock never poisoned")
        .insert(
            id,
            RunningSearch {
                cancel,
                cancel_at,
                cancelled: false,
                pause: pause.clone(),
                pause_fired: false,
                tenant: tenant.to_string(),
                priority,
            },
        );
    Some(pause)
}

/// How often the watchdog scans the running-search registry. Bounds how
/// far past its deadline a search can run before its token flips (on
/// top of the one-generation slack the search loop itself adds).
const WATCHDOG_TICK: Duration = Duration::from_millis(5);

/// The watchdog: periodically cancels searches past their effective
/// deadline so an overrunning job frees its worker at the next
/// generation boundary and answers with a partial front.
fn watchdog_loop(shared: &ReactorShared) {
    loop {
        if shared
            .queue
            .lock()
            .expect("work queue lock never poisoned")
            .stopping
        {
            return;
        }
        {
            let mut running = shared
                .running
                .lock()
                .expect("running-search registry lock never poisoned");
            let now = Instant::now();
            for entry in running.values_mut() {
                if !entry.cancelled && entry.cancel_at.is_some_and(|cancel_at| now >= cancel_at) {
                    entry.cancel.cancel();
                    entry.cancelled = true;
                    shared.metrics.search_cancellations.inc();
                }
            }
        }
        std::thread::sleep(WATCHDOG_TICK);
    }
}

/// Runs one job, converting a panic into a structured Internal error —
/// a poisoned request must never take a pool thread down. Searches run
/// the resumable slow path under `pause` so preemption can checkpoint
/// them at a generation boundary.
fn execute(dispatcher: &Dispatcher, kind: JobKind, pause: Option<PauseToken>) -> JobOutcome {
    let finished = |result: Result<MappingResponse, RuntimeError>| match result {
        Ok(response) => JobOutcome::Finished(Box::new(Ok(WirePayload::Front(response)))),
        Err(error) => JobOutcome::Finished(Box::new(Err(WireError::from(&error)))),
    };
    match catch_unwind(AssertUnwindSafe(|| match kind {
        JobKind::Search(ticket) => {
            let pause = pause.expect("searches are registered with a pause token");
            match dispatcher
                .service()
                .pipeline()
                .slow_path_resumable(*ticket, pause)
            {
                SlowPathRun::Done(result) => finished(*result),
                SlowPathRun::Paused(paused) => JobOutcome::Paused(paused),
            }
        }
        JobKind::Resume(paused) => match dispatcher.service().pipeline().resume(paused) {
            SlowPathRun::Done(result) => finished(*result),
            SlowPathRun::Paused(paused) => JobOutcome::Paused(paused),
        },
        JobKind::Batch(batch) => JobOutcome::Finished(Box::new(dispatcher.submit_batch(batch))),
    })) {
        Ok(outcome) => outcome,
        Err(panic) => JobOutcome::Finished(Box::new(Err(panic_error(panic)))),
    }
}

/// One multiplexed connection.
struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    outbuf: Vec<u8>,
    written: usize,
    /// Unanswered submissions (search-pool leaders and coalesced
    /// waiters) — the unit the per-connection admission cap counts.
    inflight: usize,
    interest: Interest,
    close_after_flush: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Conn {
            stream,
            decoder: FrameDecoder::new(),
            outbuf: Vec::new(),
            written: 0,
            inflight: 0,
            interest: Interest::READABLE,
            close_after_flush: false,
        }
    }

    fn backlog(&self) -> usize {
        self.outbuf.len() - self.written
    }
}

/// A search (or batch) in flight through the worker pool, with every
/// `(connection, request id)` waiting on its answer.
struct PendingJob {
    waiters: Vec<(u64, u64)>,
    fingerprint: Option<u64>,
    /// Stored normalized request, confirming fingerprint matches on
    /// coalescing joins (a collision must run its own search).
    normalized: Option<MappingRequest>,
    /// The submitting tenant (searches only) — the bucket its actual
    /// evaluation spend is debited from at completion.
    tenant: Option<String>,
}

/// A bound (but not yet serving) reactor front-end over one
/// [`MappingService`].
pub struct ReactorServer {
    listener: TcpListener,
    shared: Arc<ReactorShared>,
    config: ReactorConfig,
    drain_deadline: Duration,
    wake_receiver: TcpStream,
    archive_loaded: usize,
}

impl ReactorServer {
    /// Binds the listener, builds the service (loading the archive
    /// snapshot when configured) and prepares the wake channel.
    ///
    /// # Errors
    ///
    /// Returns an error when a socket cannot be set up or an existing
    /// archive snapshot fails to load.
    pub fn bind(config: ServerConfig, reactor: ReactorConfig) -> Result<Self, ServerError> {
        let listener = TcpListener::bind(&config.addr)?;
        let service = Arc::new(MappingService::with_telemetry_config(config.telemetry));
        let archive_path = config.archive_dir.map(|dir| dir.join(ARCHIVE_FILE_NAME));
        let mut archive_loaded = 0;
        if let Some(path) = &archive_path {
            match service.restore_archive(path)? {
                ArchiveLoad::Restored(genomes) => archive_loaded = genomes,
                ArchiveLoad::Missing => {}
                ArchiveLoad::Quarantined {
                    quarantined_to,
                    reason,
                } => eprintln!(
                    "warning: archive snapshot {} is corrupt ({reason}); \
                     quarantined to {} and starting cold",
                    path.display(),
                    quarantined_to.display()
                ),
            }
        }
        let (wake_sender, wake_receiver) = wake_pair()?;
        let metrics = service.serving_metrics();
        let shared = Arc::new(ReactorShared {
            dispatcher: Dispatcher::new(service, config.limits, archive_path),
            queue: Mutex::new(QueueState::default()),
            available: Condvar::new(),
            completions: Mutex::new(Vec::new()),
            waker: Mutex::new(wake_sender),
            shutdown: AtomicBool::new(false),
            metrics,
            search_timeout: reactor.search_timeout,
            running: Mutex::new(HashMap::new()),
            tenants: reactor.tenants.clone(),
            workers: reactor.resolved_workers(),
        });
        Ok(ReactorServer {
            listener,
            shared,
            config: reactor,
            drain_deadline: Duration::from_millis(config.drain_deadline_ms),
            wake_receiver,
            archive_loaded,
        })
    }

    /// The bound address (with the actual port when 0 was requested).
    ///
    /// # Errors
    ///
    /// Returns an error when the socket is gone.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The service this front-end serves.
    pub fn service(&self) -> &Arc<MappingService> {
        self.shared.dispatcher.service()
    }

    /// Elite genomes loaded from the archive snapshot at startup.
    pub fn archive_loaded(&self) -> usize {
        self.archive_loaded
    }

    /// Runs the reactor until a wire `Shutdown` (or
    /// [`ReactorHandle::shutdown`]) drains it.
    ///
    /// # Errors
    ///
    /// Returns an error when the poller cannot be created or fails
    /// irrecoverably.
    pub fn run(&self) -> Result<(), ServerError> {
        self.listener.set_nonblocking(true)?;
        let poller = Poller::new()?;
        poller.register(raw_fd(&self.listener), TOKEN_LISTENER, Interest::READABLE)?;
        poller.register(raw_fd(&self.wake_receiver), TOKEN_WAKE, Interest::READABLE)?;

        let workers: Vec<_> = (0..self.shared.workers)
            .map(|_| {
                let shared = Arc::clone(&self.shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        let watchdog = {
            let shared = Arc::clone(&self.shared);
            std::thread::spawn(move || watchdog_loop(&shared))
        };

        let mut event_loop = EventLoop {
            server: self,
            poller,
            conns: HashMap::new(),
            pending: HashMap::new(),
            inflight_index: HashMap::new(),
            buckets: HashMap::new(),
            tenant_metrics: HashMap::new(),
            next_token: TOKEN_FIRST_CONN,
            next_job: 0,
            draining: None,
        };
        let result = event_loop.run();

        // Teardown: stop the pool (skipping still-queued jobs — the
        // drain deadline has spoken), join it, close what's left.
        {
            let mut state = self
                .shared
                .queue
                .lock()
                .expect("work queue lock never poisoned");
            state.stopping = true;
            state.jobs.drain();
        }
        self.shared.available.notify_all();
        for worker in workers {
            let _ = worker.join();
        }
        let _ = watchdog.join();
        for (_, conn) in event_loop.conns.drain() {
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
        self.shared.metrics.connections.set(0.0);
        self.shared.metrics.queue_depth.set(0.0);
        result
    }

    /// Runs the reactor on a background thread, returning a handle with
    /// the bound address.
    ///
    /// # Errors
    ///
    /// Returns an error when the bound address cannot be read back.
    pub fn spawn(self) -> Result<ReactorHandle, ServerError> {
        let addr = self.local_addr()?;
        let service = Arc::clone(self.shared.dispatcher.service());
        let shared = Arc::clone(&self.shared);
        let thread = std::thread::spawn(move || self.run());
        Ok(ReactorHandle {
            addr,
            service,
            shared,
            thread,
        })
    }
}

impl std::fmt::Debug for ReactorServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReactorServer")
            .field("addr", &self.listener.local_addr().ok())
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

/// A running reactor on a background thread.
pub struct ReactorHandle {
    addr: SocketAddr,
    service: Arc<MappingService>,
    shared: Arc<ReactorShared>,
    thread: std::thread::JoinHandle<Result<(), ServerError>>,
}

impl ReactorHandle {
    /// The address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The served [`MappingService`].
    pub fn service(&self) -> &Arc<MappingService> {
        &self.service
    }

    /// Asks the reactor to drain and stop, then joins it.
    ///
    /// # Errors
    ///
    /// Propagates the reactor's exit result.
    pub fn shutdown(self) -> Result<(), ServerError> {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.wake();
        match self.thread.join() {
            Ok(result) => result,
            Err(_) => Err(ServerError::Io(std::io::Error::other(
                "reactor thread panicked",
            ))),
        }
    }

    /// Waits for the reactor to stop on its own (a wire `Shutdown`).
    ///
    /// # Errors
    ///
    /// Propagates the reactor's exit result.
    pub fn join(self) -> Result<(), ServerError> {
        match self.thread.join() {
            Ok(result) => result,
            Err(_) => Err(ServerError::Io(std::io::Error::other(
                "reactor thread panicked",
            ))),
        }
    }
}

impl std::fmt::Debug for ReactorHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReactorHandle")
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

/// Binds and spawns a reactor server on an ephemeral port — the
/// test/demo entry point, mirroring [`crate::spawn_on_ephemeral_port`].
///
/// # Errors
///
/// See [`ReactorServer::bind`] and [`ReactorServer::spawn`].
pub fn spawn_reactor_on_ephemeral_port(
    archive_dir: Option<std::path::PathBuf>,
    limits: crate::RequestLimits,
) -> Result<ReactorHandle, ServerError> {
    ReactorServer::bind(
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            archive_dir,
            limits,
            ..ServerConfig::default()
        },
        ReactorConfig::default(),
    )?
    .spawn()
}

/// What one decoded read produced, in stream order.
enum Inbound {
    Frame(String),
    /// A framing failure answered structurally (id 0).
    Broken(Box<WireResponse>),
}

/// The reactor's single-threaded event loop: every connection, the
/// pending-job table and the coalescing index live here, so none of it
/// needs locks.
struct EventLoop<'a> {
    server: &'a ReactorServer,
    poller: Poller,
    conns: HashMap<u64, Conn>,
    pending: HashMap<u64, PendingJob>,
    /// coalescing fingerprint → pending job id.
    inflight_index: HashMap<u64, u64>,
    /// Token buckets of metered tenants, created on first submission.
    buckets: HashMap<String, TokenBucket>,
    /// Cached per-tenant metric handles (minting hits a registry lock).
    tenant_metrics: HashMap<String, TenantMetrics>,
    next_token: u64,
    next_job: u64,
    /// `Some(deadline)` once shutdown was requested.
    draining: Option<Instant>,
}

impl EventLoop<'_> {
    fn shared(&self) -> &ReactorShared {
        &self.server.shared
    }

    fn run(&mut self) -> Result<(), ServerError> {
        let mut events = Vec::new();
        loop {
            if self.shared().shutdown.load(Ordering::SeqCst) {
                self.begin_drain();
            }
            let timeout = self.draining.map(|deadline| {
                deadline
                    .saturating_duration_since(Instant::now())
                    .min(Duration::from_millis(20))
            });
            self.poller.wait(&mut events, timeout)?;
            for event in &events {
                match event.token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKE => self.drain_wakes(),
                    token => {
                        if event.readable {
                            self.read_ready(token);
                        }
                        if event.writable {
                            self.flush(token);
                        }
                    }
                }
            }
            self.deliver_completions();
            if let Some(deadline) = self.draining {
                let drained =
                    self.pending.is_empty() && self.conns.values().all(|conn| conn.backlog() == 0);
                if drained || Instant::now() >= deadline {
                    return Ok(());
                }
            }
        }
    }

    /// Stops admitting work and arms the drain deadline.
    fn begin_drain(&mut self) {
        if self.draining.is_none() {
            self.draining = Some(Instant::now() + self.server.drain_deadline);
        }
    }

    /// Accepts until the listener runs dry, shedding connections over
    /// the cap (or during a drain) with a structured error.
    fn accept_ready(&mut self) {
        loop {
            let (stream, _) = match self.server.listener.accept() {
                Ok(accepted) => accepted,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            };
            let overloaded = self.conns.len() >= self.server.config.max_connections;
            if overloaded || self.draining.is_some() {
                let reason = if overloaded {
                    format!(
                        "connection limit of {} reached, try again later",
                        self.server.config.max_connections
                    )
                } else {
                    "server is shutting down".to_string()
                };
                self.shared().metrics.shed_requests.inc();
                Self::refuse(stream, &reason);
                continue;
            }
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let _ = stream.set_nodelay(true);
            let token = self.next_token;
            self.next_token += 1;
            if self
                .poller
                .register(raw_fd(&stream), token, Interest::READABLE)
                .is_err()
            {
                continue;
            }
            self.conns.insert(token, Conn::new(stream));
            self.shared()
                .metrics
                .connections
                .set(self.conns.len() as f64);
        }
    }

    /// Best-effort structured refusal of a connection that was never
    /// admitted: one `Overloaded` frame, then close.
    fn refuse(mut stream: TcpStream, reason: &str) {
        let text = encode_response_or_internal(&WireResponse::err(
            0,
            WireError::overloaded(reason.to_string()),
        ));
        let _ = stream.write_all(format!("{}\n{text}", text.len()).as_bytes());
        let _ = stream.shutdown(Shutdown::Both);
    }

    /// Swallows queued wake bytes.
    fn drain_wakes(&mut self) {
        let mut buf = [0u8; 64];
        while matches!((&self.server.wake_receiver).read(&mut buf), Ok(n) if n > 0) {}
    }

    /// Reads everything the socket has, decodes complete frames and
    /// handles them in stream order.
    fn read_ready(&mut self, token: u64) {
        let mut inbound: Vec<Inbound> = Vec::new();
        let mut close = false;
        {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            let mut buf = [0u8; 16 * 1024];
            loop {
                match conn.stream.read(&mut buf) {
                    Ok(0) => {
                        close = true;
                        break;
                    }
                    Ok(n) => conn.decoder.extend(&buf[..n]),
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(_) => {
                        close = true;
                        break;
                    }
                }
            }
            loop {
                match conn.decoder.next_frame() {
                    Ok(Some(text)) => inbound.push(Inbound::Frame(text)),
                    Ok(None) => break,
                    Err(error) => {
                        // Mirror the blocking server: answer the framing
                        // failure structurally; only a desynchronised
                        // stream (corrupt header) forces a close.
                        let resynchronizable = error.is_resynchronizable();
                        inbound.push(Inbound::Broken(Box::new(WireResponse::err(
                            0,
                            WireError::malformed(format!("unreadable frame: {error}")),
                        ))));
                        if !resynchronizable {
                            close = true;
                            break;
                        }
                    }
                }
            }
        }
        for item in inbound {
            match item {
                Inbound::Frame(text) => self.handle_frame(token, &text),
                Inbound::Broken(response) => self.send_response(token, &response),
            }
        }
        if close {
            self.close_conn(token);
        }
    }

    /// Decodes one frame and routes its command.
    fn handle_frame(&mut self, token: u64, text: &str) {
        match Dispatcher::decode_checked(text) {
            Err(response) => self.send_response(token, &response),
            Ok(request) => self.handle_request(token, request.id, request.body),
        }
    }

    fn handle_request(&mut self, token: u64, id: u64, body: WireBody) {
        match body {
            WireBody::Submit(request) => self.handle_submit(token, id, *request),
            WireBody::SubmitBatch(batch) => {
                if self.draining.is_some() {
                    self.shed(token, id, "server is shutting down", None);
                } else {
                    // Batches ride the default lane unmetered: they
                    // coalesce internally and carry no single tenant,
                    // but they still pay a DRR price covering every
                    // member so they cannot crowd out named lanes.
                    let cost = batch
                        .requests
                        .iter()
                        .map(estimated_cost)
                        .fold(1u64, u64::saturating_add);
                    self.enqueue(
                        token,
                        id,
                        JobKind::Batch(batch),
                        None,
                        None,
                        Admission {
                            tenant: DEFAULT_TENANT.to_string(),
                            priority: DEFAULT_PRIORITY,
                            cost,
                        },
                    );
                }
            }
            WireBody::Shutdown => {
                let response = WireResponse::ok(id, WirePayload::ShuttingDown);
                self.send_response(token, &response);
                self.begin_drain();
            }
            // Control-plane commands are cheap snapshots; answer inline.
            other => {
                let (response, _stop) = self.shared().dispatcher.dispatch_guarded(id, other);
                self.send_response(token, &response);
            }
        }
    }

    /// The fast/slow seam: run the fast path inline; meter the tenant's
    /// budget, then coalesce, admit or shed what needs a search.
    fn handle_submit(&mut self, token: u64, id: u64, request: MappingRequest) {
        let tenant = request
            .tenant
            .clone()
            .unwrap_or_else(|| DEFAULT_TENANT.to_string());
        if self.draining.is_some() {
            self.shed(token, id, "server is shutting down", Some(&tenant));
            return;
        }
        if let Err(error) = self.shared().dispatcher.limits().check(&request) {
            self.send_response(token, &WireResponse::err(id, error));
            return;
        }
        let service = Arc::clone(self.shared().dispatcher.service());
        let outcome = catch_unwind(AssertUnwindSafe(|| service.pipeline().fast_path(&request)));
        match outcome {
            Err(panic) => self.send_response(token, &WireResponse::err(id, panic_error(panic))),
            // A replay sends the cached encoding of its front; only a
            // front that cannot be encoded takes the generic path, which
            // answers it with an Internal error.
            Ok(FastPathOutcome::Answered(stored)) => match stored.json() {
                Some(json) => self.send_encoded(token, id, EncodedOutcome::front(json)),
                None => self.send_response(
                    token,
                    &WireResponse::ok(id, WirePayload::Front(stored.response().clone())),
                ),
            },
            Ok(FastPathOutcome::Rejected(error)) => {
                self.send_response(token, &WireResponse::err(id, WireError::from(error)));
            }
            Ok(FastPathOutcome::NeedsSearch(ticket)) => {
                let policy = self.shared().tenants.policy_for(&tenant).clone();
                let priority = policy.effective_priority(request.priority);
                // Budget admission. Cache replays and structured
                // rejections above cost no evaluations, so only a
                // request about to run (or join) a search is metered;
                // the refusal is a structured answer on a healthy
                // connection, never a drop. Checked before coalescing
                // so a dry tenant is refused deterministically.
                if let Err(retry_after_ms) = self.admit_budget(&tenant, &policy) {
                    let error = RuntimeError::BudgetExhausted {
                        tenant: tenant.clone(),
                        retry_after_ms,
                    };
                    self.tenant_handles(&tenant).budget_exhausted.inc();
                    self.send_response(token, &WireResponse::err(id, WireError::from(&error)));
                    return;
                }
                if self.try_coalesce(token, id, &ticket, &tenant) {
                    return;
                }
                let fingerprint = ticket.coalescing_fingerprint();
                let normalized = ticket.normalized_request().cloned();
                let cost = estimated_cost(ticket.request());
                self.enqueue(
                    token,
                    id,
                    JobKind::Search(ticket),
                    fingerprint,
                    normalized,
                    Admission {
                        tenant,
                        priority,
                        cost,
                    },
                );
            }
        }
    }

    /// Joins an in-flight identical search if one exists. The waiter's
    /// own ticket is dropped — the leader's response answers everyone —
    /// so a join costs no queue slot and no search.
    fn try_coalesce(&mut self, token: u64, id: u64, ticket: &SearchTicket, tenant: &str) -> bool {
        let (Some(fingerprint), Some(normalized)) =
            (ticket.coalescing_fingerprint(), ticket.normalized_request())
        else {
            return false;
        };
        let Some(&job_id) = self.inflight_index.get(&fingerprint) else {
            return false;
        };
        let entry = self
            .pending
            .get_mut(&job_id)
            .expect("indexed job is pending");
        if entry.normalized.as_ref() != Some(normalized) {
            return false;
        }
        if let Some(conn) = self.conns.get_mut(&token) {
            if conn.inflight >= self.server.config.inflight_per_conn {
                self.shed(
                    token,
                    id,
                    "per-connection in-flight limit reached",
                    Some(tenant),
                );
                return true;
            }
            conn.inflight += 1;
        }
        entry.waiters.push((token, id));
        self.shared().metrics.inflight_coalesced.inc();
        true
    }

    /// Checks the tenant's token bucket (created on first submission),
    /// refreshing the balance gauge. Unmetered tenants always pass.
    ///
    /// # Errors
    ///
    /// Returns `Err(retry_after_ms)` when the bucket is dry.
    fn admit_budget(&mut self, tenant: &str, policy: &TenantPolicy) -> Result<(), u64> {
        let now = Instant::now();
        if !self.buckets.contains_key(tenant) {
            match TokenBucket::for_policy(policy, now) {
                Some(bucket) => {
                    self.buckets.insert(tenant.to_string(), bucket);
                }
                None => return Ok(()),
            }
        }
        let bucket = self.buckets.get_mut(tenant).expect("bucket just ensured");
        let admitted = bucket.admit(now);
        let balance = bucket.balance(now);
        self.tenant_handles(tenant).tokens.set(balance);
        admitted
    }

    /// Charges an answered search's actual evaluation spend to its
    /// tenant's bucket (metered tenants only) — the bucket may go
    /// negative, so a tenant is never charged less than it used.
    fn debit_budget(&mut self, tenant: &str, evaluations: usize) {
        let now = Instant::now();
        let Some(bucket) = self.buckets.get_mut(tenant) else {
            return;
        };
        bucket.debit(evaluations, now);
        let balance = bucket.balance(now);
        self.tenant_handles(tenant).tokens.set(balance);
    }

    /// The cached per-tenant metric handles, minted on first use.
    fn tenant_handles(&mut self, tenant: &str) -> &TenantMetrics {
        if !self.tenant_metrics.contains_key(tenant) {
            let handles = self.shared().dispatcher.service().tenant_metrics(tenant);
            self.tenant_metrics.insert(tenant.to_string(), handles);
        }
        self.tenant_metrics
            .get(tenant)
            .expect("handles just minted")
    }

    /// Admission control, then hand the job to its tenant's DRR lane —
    /// preempting a lower-priority running search when every worker is
    /// busy.
    fn enqueue(
        &mut self,
        token: u64,
        id: u64,
        kind: JobKind,
        fingerprint: Option<u64>,
        normalized: Option<MappingRequest>,
        admission: Admission,
    ) {
        let Admission {
            tenant,
            priority,
            cost,
        } = admission;
        let inflight = self.conns.get(&token).map_or(0, |conn| conn.inflight);
        if inflight >= self.server.config.inflight_per_conn {
            self.shed(
                token,
                id,
                "per-connection in-flight limit reached",
                Some(&tenant),
            );
            return;
        }
        let policy = self.shared().tenants.policy_for(&tenant).clone();
        let job_id = self.next_job;
        let is_search = matches!(kind, JobKind::Search(_));
        let (depth, all_busy);
        {
            let mut state = self
                .shared()
                .queue
                .lock()
                .expect("work queue lock never poisoned");
            if state.jobs.len() >= self.server.config.queue_depth {
                drop(state);
                self.shed(
                    token,
                    id,
                    "search queue is full, try again later",
                    Some(&tenant),
                );
                return;
            }
            state.jobs.push(
                &tenant,
                &policy,
                priority,
                cost,
                Job {
                    id: job_id,
                    tenant: tenant.clone(),
                    priority,
                    cost,
                    kind,
                },
            );
            self.shared()
                .metrics
                .queue_depth
                .set(state.jobs.len() as f64);
            depth = state.jobs.tenant_depth(&tenant);
            all_busy = state.busy_workers >= self.shared().workers;
        }
        self.next_job += 1;
        self.shared().available.notify_one();
        {
            let handles = self.tenant_handles(&tenant);
            handles.admitted.inc();
            handles.queue_depth.set(depth as f64);
        }
        if all_busy {
            self.maybe_preempt(priority);
        }
        self.pending.insert(
            job_id,
            PendingJob {
                waiters: vec![(token, id)],
                fingerprint,
                normalized,
                tenant: is_search.then(|| tenant.clone()),
            },
        );
        if let Some(fingerprint) = fingerprint {
            self.inflight_index.insert(fingerprint, job_id);
        }
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.inflight += 1;
        }
    }

    /// When every worker is busy, asks the lowest-priority running
    /// search to pause — if it is strictly below `priority` — so the
    /// freed worker picks up the more urgent arrival. The paused
    /// search's checkpoint is re-queued by its worker and resumes
    /// bit-identically later.
    fn maybe_preempt(&mut self, priority: u8) {
        let victim = {
            let mut running = self
                .shared()
                .running
                .lock()
                .expect("running-search registry lock never poisoned");
            let candidate = running
                .values_mut()
                .filter(|entry| !entry.pause_fired)
                .min_by_key(|entry| entry.priority);
            match candidate {
                Some(entry) if entry.priority < priority => {
                    entry.pause.pause();
                    entry.pause_fired = true;
                    Some(entry.tenant.clone())
                }
                _ => None,
            }
        };
        if let Some(tenant) = victim {
            self.tenant_handles(&tenant).preemptions.inc();
        }
    }

    /// Sheds one request with a structured `Overloaded` error.
    fn shed(&mut self, token: u64, id: u64, reason: &str, tenant: Option<&str>) {
        self.shared().metrics.shed_requests.inc();
        if let Some(tenant) = tenant {
            self.tenant_handles(tenant).shed.inc();
        }
        self.send_response(
            token,
            &WireResponse::err(id, WireError::overloaded(reason.to_string())),
        );
    }

    /// Delivers every posted completion to its waiters.
    fn deliver_completions(&mut self) {
        let completions = std::mem::take(
            &mut *self
                .shared()
                .completions
                .lock()
                .expect("completion list lock never poisoned"),
        );
        for completion in completions {
            let Some(job) = self.pending.remove(&completion.job_id) else {
                continue;
            };
            if let (Some(tenant), Ok(WirePayload::Front(response))) =
                (&job.tenant, &completion.result)
            {
                self.debit_budget(tenant, response.stats.evaluations_performed);
            }
            if let Some(fingerprint) = job.fingerprint {
                if self.inflight_index.get(&fingerprint) == Some(&completion.job_id) {
                    self.inflight_index.remove(&fingerprint);
                }
            }
            // One encoding serves every waiter of a coalesced job.
            let outcome = match completion.result {
                Ok(payload) => WireOutcome::payload(payload),
                Err(error) => WireOutcome::Err(error),
            };
            let json = encode_outcome_or_internal(&outcome);
            for (token, id) in job.waiters {
                if let Some(conn) = self.conns.get_mut(&token) {
                    conn.inflight = conn.inflight.saturating_sub(1);
                }
                self.send_encoded(token, id, EncodedOutcome::new(&json));
            }
        }
    }

    /// Queues one pre-encoded outcome, answering request `id`, on the
    /// connection's out-buffer and flushes as much as the socket takes.
    fn send_encoded(&mut self, token: u64, id: u64, outcome: EncodedOutcome<'_>) {
        {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            outcome.write_frame(id, &mut conn.outbuf);
        }
        self.flush(token);
    }

    /// Queues one encoded response on the connection's out-buffer and
    /// flushes as much as the socket takes.
    fn send_response(&mut self, token: u64, response: &WireResponse) {
        {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            let text = encode_response_or_internal(response);
            conn.outbuf
                .extend_from_slice(format!("{}\n", text.len()).as_bytes());
            conn.outbuf.extend_from_slice(text.as_bytes());
        }
        self.flush(token);
    }

    /// Writes the out-buffer until empty or the socket pushes back; a
    /// backlogged connection gains write interest, a drained one drops
    /// it.
    fn flush(&mut self, token: u64) {
        let mut close = false;
        {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            while conn.written < conn.outbuf.len() {
                match conn.stream.write(&conn.outbuf[conn.written..]) {
                    Ok(0) => {
                        close = true;
                        break;
                    }
                    Ok(n) => conn.written += n,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(_) => {
                        close = true;
                        break;
                    }
                }
            }
            if conn.written >= conn.outbuf.len() {
                conn.outbuf.clear();
                conn.written = 0;
                if conn.interest.writable {
                    conn.interest = Interest::READABLE;
                    let _ = self
                        .poller
                        .modify(raw_fd(&conn.stream), token, conn.interest);
                }
                if conn.close_after_flush {
                    close = true;
                }
            } else {
                // Reclaim the flushed prefix once it dominates the
                // buffer, then cap what a slow reader may pin.
                if conn.written > 64 * 1024 {
                    conn.outbuf.drain(..conn.written);
                    conn.written = 0;
                }
                if conn.backlog() > MAX_OUTBUF_BYTES {
                    close = true;
                } else if !conn.interest.writable {
                    conn.interest = Interest::BOTH;
                    let _ = self
                        .poller
                        .modify(raw_fd(&conn.stream), token, conn.interest);
                }
            }
        }
        if close {
            self.close_conn(token);
        }
    }

    /// Removes one connection. Pending jobs it was waiting on keep
    /// running; their completions simply find no one to answer.
    fn close_conn(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            let _ = self.poller.deregister(raw_fd(&conn.stream));
            let _ = conn.stream.shutdown(Shutdown::Both);
            self.shared()
                .metrics
                .connections
                .set(self.conns.len() as f64);
        }
    }
}
