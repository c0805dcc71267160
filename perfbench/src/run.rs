//! One benchmark run: set-up, the timed phase over the wire, the checks,
//! and in traced mode the per-layer probes.

use mnc_core::Evaluator;
use mnc_mpsoc::{Platform, PlatformRegistry};
use mnc_nn::Network;
use mnc_optim::{
    ConfigEvaluator, GenerationEvent, Genome, MappingSearch, OptimError, TelemetrySink,
};
use mnc_runtime::{
    BatchConfig, FastPathOutcome, MappingResponse, MappingService, PipelineStage, SurrogateRanker,
};
use mnc_server::{
    spawn_reactor_on_ephemeral_port, ClientError, ReactorHandle, RequestLimits, WireClient,
};
use mnc_wire::{MetricsReport, ServiceStats, WireBatch, WireBody, WirePayload};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::checks::{build_reference, Checker, References};
use crate::sys;
use crate::trace::{CallError, RawConn, Tracer};
use crate::workload::{round_ops, setup_ops, Op, Role, Workload, PLATFORM};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;

/// One metric of the result line.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// What a run reports.
pub struct Report {
    pub attempted: u32,
    pub failed: u32,
    pub correct: bool,
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
}

/// The run's parameters.
pub struct Params {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
}

/// How the benchmark talks to the server: the public client, or raw
/// framing with spans in traced mode.
enum Conn {
    Client(WireClient),
    Raw(RawConn),
}

impl Conn {
    fn connect(addr: SocketAddr, raw: bool) -> Result<Conn, String> {
        let connected = if raw {
            RawConn::connect(addr).map(Conn::Raw)
        } else {
            WireClient::connect(addr).map(Conn::Client)
        };
        connected.map_err(|e| format!("cannot connect to the server: {e}"))
    }

    fn call(
        &mut self,
        body: WireBody,
        tracer: Option<&mut Tracer>,
    ) -> Result<WirePayload, CallError> {
        match self {
            Conn::Client(client) => client.call(body).map_err(|e| match e {
                ClientError::Server(e) => CallError::Server(format!("{:?}: {}", e.code, e.message)),
                other => CallError::Transport(other.to_string()),
            }),
            Conn::Raw(raw) => raw.call(body, tracer),
        }
    }

    fn stats(&mut self) -> Result<ServiceStats, String> {
        match self.call(WireBody::Stats, None) {
            Ok(WirePayload::Stats(stats)) => Ok(stats),
            other => Err(format!("Stats call failed: {other:?}")),
        }
    }

    fn metrics(&mut self) -> Result<MetricsReport, String> {
        match self.call(WireBody::Metrics, None) {
            Ok(WirePayload::Metrics(report)) => Ok(report),
            Ok(_) => Err("Metrics call answered another payload".to_string()),
            Err(e) => Err(format!("Metrics call failed: {e:?}")),
        }
    }
}

/// A running reactor and the benchmark's one connection to it.
struct Served {
    handle: ReactorHandle,
    conn: Conn,
    raw: bool,
}

impl Served {
    fn reconnect(&mut self) -> Result<(), String> {
        self.conn = Conn::connect(self.handle.addr(), self.raw)?;
        Ok(())
    }

    fn shutdown(self) -> Result<(), String> {
        drop(self.conn);
        self.handle
            .shutdown()
            .map_err(|e| format!("server shutdown failed: {e}"))
    }
}

/// Sends one wire call and splits its answer into per-member results.
fn send(
    conn: &mut Conn,
    op: &Op,
    tracer: Option<&mut Tracer>,
) -> Result<Vec<Result<MappingResponse, String>>, CallError> {
    let body = match op {
        Op::Submit(request) => WireBody::Submit(request.clone()),
        Op::Batch(requests) => WireBody::SubmitBatch(WireBatch {
            requests: requests.clone(),
            config: BatchConfig::default(),
        }),
    };
    match (op, conn.call(body, tracer)?) {
        (Op::Submit(_), WirePayload::Front(response)) => Ok(vec![Ok(response)]),
        (Op::Batch(requests), WirePayload::Batch(report))
            if report.responses.len() == requests.len() =>
        {
            Ok(report
                .responses
                .into_iter()
                .map(|r| {
                    r.into_result()
                        .map_err(|e| format!("{:?}: {}", e.code, e.message))
                })
                .collect())
        }
        _ => Err(CallError::Transport(
            "answer does not fit the call".to_string(),
        )),
    }
}

/// A server ready for the timed phase.
struct Setup {
    served: Served,
    references: References,
    took: Duration,
}

/// Starts a reactor, sends the workload's set-up calls and builds the
/// benchmark's reference evaluators for every shape the workload uses.
fn setup(
    params: &Params,
    raw: bool,
    checker: &mut Checker,
    mut tracer: Option<&mut Tracer>,
) -> Result<Setup, String> {
    let started = Instant::now();
    let span = tracer.as_deref_mut().map(|t| t.begin("setup", None, None));
    let handle = spawn_reactor_on_ephemeral_port(None, RequestLimits::default())
        .map_err(|e| format!("cannot start the server: {e}"))?;
    let conn = Conn::connect(handle.addr(), raw)?;
    let mut served = Served { handle, conn, raw };
    let mut shapes = Vec::new();
    for (op, role) in setup_ops(params.workload, params.seed) {
        let answers = send(&mut served.conn, &op, tracer.as_deref_mut())
            .map_err(|e| format!("set-up call failed: {e:?}"))?;
        for (request, answer) in op.members().iter().zip(answers) {
            let response = answer.map_err(|e| format!("set-up call failed: {e}"))?;
            checker.observe(role, None, role == Role::Prime, request, &response);
            shapes.push(request.clone());
        }
    }
    for round in 0..params.workload.core_rounds() {
        for op in round_ops(params.workload, params.seed, round) {
            shapes.extend_from_slice(op.members());
        }
    }
    let mut references = References::default();
    let build = tracer
        .as_deref_mut()
        .map(|t| t.begin("setup.reference_evaluators", span, None));
    for request in &shapes {
        references.ensure(request)?;
    }
    if let (Some(t), Some(build), Some(span)) = (tracer, build, span) {
        t.end(build);
        t.end(span);
    }
    Ok(Setup {
        served,
        references,
        took: started.elapsed(),
    })
}

/// Calls a measurement window holds at least. The timed phase is cut into
/// windows of whole rounds and each timing is the median over windows, so
/// a few seconds of contention from other processes on the machine move it
/// only when they cover most of a run. `cold_search` sends exactly this
/// many calls in its core rounds, so it mostly has a single window.
const WINDOW_CALLS: usize = 100;

/// One window of whole rounds: the latencies of its answered calls, and
/// its wall and CPU time.
#[derive(Default)]
struct Window {
    latencies_ms: Vec<f64>,
    wall: Duration,
    cpu: Duration,
}

/// What a stretch of timed rounds measured.
#[derive(Default)]
struct Phase {
    windows: Vec<Window>,
    wall: Duration,
    next_round: usize,
}

impl Phase {
    /// Adds a window; one short of `WINDOW_CALLS` calls, or following
    /// one, is merged with its neighbour.
    fn push(&mut self, window: Window) {
        match self.windows.last_mut() {
            Some(last)
                if last.latencies_ms.len() < WINDOW_CALLS
                    || window.latencies_ms.len() < WINDOW_CALLS =>
            {
                last.latencies_ms.extend(window.latencies_ms);
                last.wall += window.wall;
                last.cpu += window.cpu;
            }
            _ => self.windows.push(window),
        }
    }

    /// Appends a later stretch of rounds.
    fn extend(&mut self, later: Phase) {
        for window in later.windows {
            self.push(window);
        }
        self.wall += later.wall;
        self.next_round = later.next_round;
    }

    fn answered(&self) -> usize {
        self.windows.iter().map(|w| w.latencies_ms.len()).sum()
    }

    /// The median over windows of `metric`.
    fn median_of(&mut self, mut metric: impl FnMut(&mut Window) -> f64) -> f64 {
        median(&mut self.windows.iter_mut().map(&mut metric).collect::<Vec<_>>())
    }
}

/// Sends whole rounds from `from` on: at least `min_rounds`, then more
/// until `until`. Timed calls are numbered from `*calls` on.
#[allow(clippy::too_many_arguments)]
fn run_rounds(
    params: &Params,
    served: &mut Served,
    checker: &mut Checker,
    mut tracer: Option<&mut Tracer>,
    calls: &mut u32,
    from: usize,
    min_rounds: usize,
    until: Option<Instant>,
) -> Result<Phase, String> {
    let core = params.workload.core_rounds();
    let mut phase = Phase::default();
    let mut window = Window::default();
    let started = Instant::now();
    let (mut window_start, mut window_cpu) = (started, sys::cpu_time());
    let mut round = from;
    while round < from + min_rounds || until.is_some_and(|t| Instant::now() < t) {
        for op in round_ops(params.workload, params.seed, round) {
            let call = *calls;
            *calls += 1;
            let sent = Instant::now();
            let answers = send(&mut served.conn, &op, tracer.as_deref_mut());
            let latency = sent.elapsed();
            match answers {
                Ok(answers) => {
                    window.latencies_ms.push(latency.as_secs_f64() * 1e3);
                    for (request, answer) in op.members().iter().zip(answers) {
                        match answer {
                            Ok(response) => checker.observe(
                                Role::Timed,
                                Some(call),
                                round < core,
                                request,
                                &response,
                            ),
                            Err(e) => checker.fail_op(call, e),
                        }
                    }
                }
                Err(CallError::Server(e)) => checker.fail_op(call, e),
                Err(CallError::Transport(e)) => {
                    checker.fail_op(call, e);
                    served.reconnect()?;
                }
            }
        }
        round += 1;
        if window.latencies_ms.len() >= WINDOW_CALLS {
            let (now, cpu) = (Instant::now(), sys::cpu_time());
            window.wall = now - window_start;
            window.cpu = cpu - window_cpu;
            phase.push(std::mem::take(&mut window));
            (window_start, window_cpu) = (now, cpu);
        }
    }
    window.wall = window_start.elapsed();
    window.cpu = sys::cpu_time() - window_cpu;
    phase.push(window);
    phase.wall = started.elapsed();
    phase.next_round = round;
    Ok(phase)
}

fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolation quantile (0 for no values).
fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let at = q * (values.len() - 1) as f64;
    let (low, high) = (at.floor() as usize, at.ceil() as usize);
    values[low] + (values[high] - values[low]) * (at - low as f64)
}

fn finish(checker: &Checker, attempted: u32, metrics: Vec<Metric>) -> Report {
    let (failed, failures) = checker.failures(attempted);
    Report {
        attempted,
        failed,
        correct: !checker.any_check_failed(),
        failures,
        metrics,
    }
}

/// The untraced run: every end-to-end metric.
pub fn untraced(params: &Params) -> Result<Report, String> {
    let mut checker = Checker::new()?;
    let mut setup_times = Vec::new();
    let mut ready: Option<Setup> = None;
    for _ in 0..SETUPS {
        if let Some(previous) = ready.take() {
            previous.served.shutdown()?;
        }
        let next = setup(params, false, &mut checker, None)?;
        setup_times.push(next.took.as_secs_f64());
        ready = Some(next);
    }
    let Setup {
        mut served,
        mut references,
        ..
    } = ready.expect("at least one set-up");

    let searches_before = served.conn.stats()?.pipeline.searches_run;
    let deadline = Instant::now() + Duration::from_secs_f64(params.seconds);
    let mut calls = 0;
    let core = params.workload.core_rounds();
    let mut phase = run_rounds(
        params,
        &mut served,
        &mut checker,
        None,
        &mut calls,
        0,
        core,
        None,
    )?;
    // Peak memory over set-up and the core rounds, a fixed amount of work:
    // past them, the server's response cache keeps filling at whatever
    // rate the machine allows.
    let peak_rss = sys::peak_rss_mib();
    let rest = run_rounds(
        params,
        &mut served,
        &mut checker,
        None,
        &mut calls,
        phase.next_round,
        0,
        Some(deadline),
    )?;
    phase.extend(rest);
    let searches = served.conn.stats()?.pipeline.searches_run - searches_before;
    if params.workload == Workload::HotReplay && searches != 0 {
        checker.fail_all(format!("{searches} searches ran during the timed replays"));
    }
    served.shutdown()?;

    checker.verify(&mut references);
    let gains = checker.gains(&references)?;
    if phase.answered() == 0 {
        return Err("no timed call was answered".to_string());
    }
    let metrics = vec![
        metric("setup_s", median(&mut setup_times), "s"),
        metric(
            "throughput_rps",
            phase.median_of(|w| w.latencies_ms.len() as f64 / w.wall.as_secs_f64()),
            "1/s",
        ),
        metric(
            "latency_p50_ms",
            phase.median_of(|w| quantile(&mut w.latencies_ms, 0.5)),
            "ms",
        ),
        metric(
            "latency_p90_ms",
            phase.median_of(|w| quantile(&mut w.latencies_ms, 0.9)),
            "ms",
        ),
        metric(
            "cpu_ms_per_request",
            phase.median_of(|w| w.cpu.as_secs_f64() * 1e3 / w.latencies_ms.len() as f64),
            "ms",
        ),
        metric("peak_rss_mib", peak_rss, "MiB"),
        metric("energy_gain_vs_gpu", gains.energy_vs_gpu, "x"),
        metric("latency_gain_vs_dla", gains.latency_vs_dla, "x"),
    ];
    Ok(finish(&checker, calls, metrics))
}

/// A `ConfigEvaluator` that times every evaluation of the evaluator it
/// wraps (through its fast hook, the one the search loop uses).
struct TimedEvaluator<'a> {
    inner: &'a Evaluator,
    micros: Mutex<Vec<f64>>,
}

impl ConfigEvaluator for TimedEvaluator<'_> {
    fn network(&self) -> &Network {
        self.inner.network()
    }

    fn platform(&self) -> &Platform {
        self.inner.platform()
    }

    fn evaluate_genome(
        &self,
        genome: &Genome,
    ) -> Result<
        (
            Arc<mnc_core::MappingConfig>,
            Arc<mnc_core::EvaluationResult>,
        ),
        OptimError,
    > {
        let started = Instant::now();
        let evaluated = ConfigEvaluator::evaluate_genome_fast(self.inner, genome);
        let micros = started.elapsed().as_secs_f64() * 1e6;
        self.micros.lock().expect("not poisoned").push(micros);
        evaluated
    }
}

/// A telemetry sink that times each search generation.
struct GenerationClock {
    last: Mutex<Instant>,
    millis: Mutex<Vec<f64>>,
}

impl TelemetrySink for GenerationClock {
    fn on_generation(&self, _event: GenerationEvent) {
        let now = Instant::now();
        let mut last = self.last.lock().expect("not poisoned");
        let gap = now - *last;
        *last = now;
        self.millis
            .lock()
            .expect("not poisoned")
            .push(gap.as_secs_f64() * 1e3);
    }
}

/// The p50 of one pipeline stage in a `Metrics` report (a histogram
/// bucket bound), in microseconds.
fn stage_p50(report: &MetricsReport, stage: PipelineStage) -> f64 {
    report
        .stage_latency
        .iter()
        .find(|s| s.name == stage.name())
        .map_or(0.0, |s| s.p50_micros)
}

/// The traced run: the leading core rounds untraced on one server and
/// traced on another (the difference is the tracing overhead), the rest of
/// the core rounds and more until the measuring time is up, then
/// in-process probes of the layers below the wire. Prints every per-layer
/// metric.
pub fn traced(params: &Params, trace_path: &Path) -> Result<Report, String> {
    let mut checker = Checker::new()?;
    let core = params.workload.core_rounds();
    let head = params.workload.overhead_rounds();
    let deadline = Instant::now() + Duration::from_secs_f64(params.seconds);

    let Setup { mut served, .. } = setup(params, false, &mut checker, None)?;
    let mut calls = 0;
    let untraced = run_rounds(
        params,
        &mut served,
        &mut checker,
        None,
        &mut calls,
        0,
        head,
        None,
    )?;
    served.shutdown()?;

    let mut tracer = Tracer::new();
    let Setup {
        mut served,
        mut references,
        ..
    } = setup(params, true, &mut checker, Some(&mut tracer))?;
    let before = served.conn.metrics()?.request_latency;
    let core_from = tracer.len();
    let traced_from = calls;
    if let Conn::Raw(raw) = &mut served.conn {
        raw.reply_bytes.clear();
    }
    let traced_head = run_rounds(
        params,
        &mut served,
        &mut checker,
        Some(&mut tracer),
        &mut calls,
        0,
        head,
        None,
    )?;
    // The traced rounds also re-run the server's side of the codec on
    // each answer; that is a probe, not tracing overhead.
    let codec_probes = tracer.total_micros(
        core_from..,
        &["wire.decode_request", "wire.encode_response"],
    );
    let overhead_pct =
        ((traced_head.wall.as_secs_f64() - codec_probes / 1e6) / untraced.wall.as_secs_f64() - 1.0)
            * 100.0;
    let rest = run_rounds(
        params,
        &mut served,
        &mut checker,
        Some(&mut tracer),
        &mut calls,
        head,
        core - head,
        None,
    )?;
    // Counters over set-up and the core rounds: a fixed amount of work.
    let stats = served.conn.stats()?;
    let after = served.conn.metrics()?.request_latency;
    let server_micros =
        after.mean_micros * after.count as f64 - before.mean_micros * before.count as f64;
    let client_micros = tracer.total_micros(core_from.., &["server.roundtrip"])
        - tracer.total_micros(
            core_from..,
            &["client.encode_request", "client.decode_response"],
        );
    let overhead_us = (client_micros - server_micros) / f64::from(calls - traced_from);
    run_rounds(
        params,
        &mut served,
        &mut checker,
        Some(&mut tracer),
        &mut calls,
        rest.next_round,
        0,
        Some(deadline),
    )?;
    let report = served.conn.metrics()?;
    let reply_bytes = match &served.conn {
        Conn::Raw(raw) => raw.reply_bytes.clone(),
        Conn::Client(_) => Vec::new(),
    };
    served.shutdown()?;

    let probes = probe_layers(params, &checker, &references, &mut tracer)?;
    checker.verify(&mut references);

    let med = |tracer: &Tracer, name: &str| median(&mut tracer.micros(core_from.., name));
    let mut kib: Vec<f64> = reply_bytes.iter().map(|&b| b as f64 / 1024.0).collect();
    let cache = stats.cache;
    let pipeline = stats.pipeline;
    let totals = checker.search_totals();
    let mut metrics = vec![
        metric(
            "server.roundtrip_us",
            med(&tracer, "server.roundtrip"),
            "us",
        ),
        metric("server.overhead_us", overhead_us, "us"),
        metric(
            "wire.encode_response_us",
            med(&tracer, "wire.encode_response"),
            "us",
        ),
        metric(
            "wire.decode_response_us",
            med(&tracer, "client.decode_response"),
            "us",
        ),
        metric(
            "wire.decode_request_us",
            med(&tracer, "wire.decode_request"),
            "us",
        ),
        metric("wire.response_kib", median(&mut kib), "KiB"),
        metric("runtime.fast_path_us", probes.fast_path_us, "us"),
        metric("runtime.slow_path_ms", probes.slow_path_ms, "ms"),
    ];
    for stage in PipelineStage::ALL {
        let p50 = stage_p50(&report, stage);
        metrics.push(if stage == PipelineStage::Search {
            metric("runtime.stage.search_ms", p50 / 1e3, "ms")
        } else {
            metric(format!("runtime.stage.{}_us", stage.name()), p50, "us")
        });
    }
    metrics.extend([
        metric(
            "runtime.evalcache_lookups",
            (cache.hits + cache.misses) as f64,
            "count",
        ),
        metric("runtime.evalcache_hits", cache.hits as f64, "count"),
        metric(
            "runtime.evalcache_evictions",
            cache.evictions as f64,
            "count",
        ),
        metric("runtime.evalcache_entries", cache.entries as f64, "count"),
        metric(
            "runtime.response_cache_hits",
            pipeline.fast_path_answered as f64,
            "count",
        ),
        metric(
            "runtime.evaluator_builds",
            pipeline.evaluator_builds as f64,
            "count",
        ),
        metric(
            "runtime.batch_coalesced",
            pipeline.coalesced_requests as f64,
            "count",
        ),
        metric("optimizer.generation_ms", probes.generation_ms, "ms"),
        metric("optimizer.search_ms", probes.search_ms[0], "ms"),
        metric("optimizer.search_cpu_ms", probes.search_cpu_ms[0], "ms"),
        metric("optimizer.search_ms_1t", probes.search_ms[1], "ms"),
        metric("optimizer.search_cpu_ms_1t", probes.search_cpu_ms[1], "ms"),
        metric(
            "optimizer.evaluations_performed",
            totals.evaluations_performed as f64,
            "count",
        ),
        metric("optimizer.memo_hits", totals.memo_hits as f64, "count"),
        metric("core.evaluate_us", probes.evaluate_us, "us"),
        metric(
            "core.evaluator_build_ms",
            median(
                &mut references
                    .build_times
                    .iter()
                    .map(|t| t.as_secs_f64() * 1e3)
                    .collect::<Vec<_>>(),
            ),
            "ms",
        ),
        metric("predictor.ranker_train_ms", probes.ranker_train_ms, "ms"),
        metric("predictor.rank_us", probes.rank_us, "us"),
        metric(
            "predictor.warm_start_seeds",
            totals.warm_start_seeds as f64,
            "count",
        ),
        metric("trace.overhead_pct", overhead_pct, "%"),
    ]);
    tracer
        .write(trace_path)
        .map_err(|e| format!("cannot write {}: {e}", trace_path.display()))?;
    Ok(finish(&checker, calls, metrics))
}

/// Medians of the in-process layer probes.
struct Probes {
    fast_path_us: f64,
    slow_path_ms: f64,
    generation_ms: f64,
    /// Wall and CPU time of one search with `threads` unset, then with
    /// one thread.
    search_ms: [f64; 2],
    search_cpu_ms: [f64; 2],
    evaluate_us: f64,
    ranker_train_ms: f64,
    rank_us: f64,
}

/// Times the layers below the wire in-process, on the workload's own
/// first-round requests: the pipeline's fast and slow paths on a fresh
/// service, one search generation by generation with every evaluation
/// timed, the same search's cost with `threads` unset against one thread,
/// and the warm-start surrogate's training and ranking.
fn probe_layers(
    params: &Params,
    checker: &Checker,
    references: &References,
    tracer: &mut Tracer,
) -> Result<Probes, String> {
    const FAST_PATH_REPEATS: usize = 50;
    let from = tracer.len();
    let first_round: Vec<_> = round_ops(params.workload, params.seed, 0)
        .iter()
        .flat_map(|op| op.members().to_vec())
        .filter(|r| !r.warm_start)
        .collect();

    let service = MappingService::new();
    let pipeline = service.pipeline();
    for request in &first_round {
        // Repeats within the round (a design session's step 5 and batch
        // duplicate) are already answered and skip the slow path.
        if let FastPathOutcome::NeedsSearch(ticket) = pipeline.fast_path(request) {
            tracer
                .span("runtime.slow_path", None, None, || {
                    pipeline.slow_path(*ticket)
                })
                .map_err(|e| format!("in-process slow path failed: {e}"))?;
        }
        for _ in 0..FAST_PATH_REPEATS {
            let outcome = tracer.span("runtime.fast_path", None, None, || {
                pipeline.fast_path(request)
            });
            if !matches!(outcome, FastPathOutcome::Answered(_)) {
                return Err("a repeated request missed the response cache".to_string());
            }
        }
    }

    let request = &first_round[0];
    let evaluator = references
        .of_shape(request)
        .ok_or("no reference evaluator for the first request")?;
    let timed = TimedEvaluator {
        inner: evaluator,
        micros: Mutex::new(Vec::new()),
    };
    let clock = GenerationClock {
        last: Mutex::new(Instant::now()),
        millis: Mutex::new(Vec::new()),
    };
    tracer
        .span("optimizer.search", None, None, || {
            MappingSearch::new(&timed, request.search_config())
                .with_telemetry(&clock)
                .run()
        })
        .map_err(|e| format!("in-process search failed: {e}"))?;

    let (mut search_ms, mut search_cpu_ms) = ([0.0; 2], [0.0; 2]);
    for (slot, threads) in [None, Some(1)].into_iter().enumerate() {
        let config = mnc_optim::SearchConfig {
            threads,
            ..request.search_config()
        };
        // A fresh evaluator each time: the first search would otherwise
        // fill the accuracy model's memo for the second.
        let fresh = build_reference(request)?;
        let (cpu, started) = (sys::cpu_time(), Instant::now());
        tracer
            .span("optimizer.search_threads", None, None, || {
                MappingSearch::new(&fresh, config).run()
            })
            .map_err(|e| format!("in-process search failed: {e}"))?;
        search_ms[slot] = started.elapsed().as_secs_f64() * 1e3;
        search_cpu_ms[slot] = (sys::cpu_time() - cpu).as_secs_f64() * 1e3;
    }

    let platform: Platform = PlatformRegistry::new()
        .build(PLATFORM)
        .map_err(|e| e.to_string())?;
    let mut ranker = None;
    for _ in 0..3 {
        let trained = tracer.span("predictor.ranker_train", None, None, || {
            SurrogateRanker::train(&platform)
        });
        ranker = Some(trained.map_err(|e| e.to_string())?);
    }
    let ranker = ranker.expect("trained");
    let seeds = checker.pick_genomes(&request.model);
    for _ in 0..20 {
        let mut order = seeds.clone();
        tracer.span("predictor.rank", None, None, || {
            ranker.rank(&mut order, evaluator.network(), &platform)
        });
    }

    let span_median = |name: &str| median(&mut tracer.micros(from.., name));
    Ok(Probes {
        fast_path_us: span_median("runtime.fast_path"),
        slow_path_ms: span_median("runtime.slow_path") / 1e3,
        generation_ms: median(&mut clock.millis.into_inner().expect("not poisoned")),
        search_ms,
        search_cpu_ms,
        evaluate_us: median(&mut timed.micros.into_inner().expect("not poisoned")),
        ranker_train_ms: span_median("predictor.ranker_train") / 1e3,
        rank_us: span_median("predictor.rank"),
    })
}
