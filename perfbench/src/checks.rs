//! Checks on every answer, against properties of a Pareto front and the
//! reference evaluator, never against stored output.
//!
//! Each answer is reduced on arrival to a digest of its content (timing
//! and evaluation-cache counters left out, since those depend on what the
//! server served before) and, the first time a request is answered, its
//! front is checked and its two gain picks are kept. After the timed
//! phase, [`Checker::verify`] re-answers every distinct cold request on a
//! fresh in-process `MappingService` and recomputes the picks with the
//! reference `Evaluator::evaluate`.

use mnc_core::{
    Constraints, EvaluationResult, Evaluator, EvaluatorBuilder, ObjectiveWeights, StableHasher,
};
use mnc_mpsoc::{CuId, PlatformRegistry};
use mnc_optim::{EvaluatedConfig, Genome};
use mnc_runtime::{MappingRequest, MappingResponse, MappingService, ModelRegistry, RequestStats};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::workload::{Role, PLATFORM};

/// Reference evaluators the benchmark builds itself, one per evaluator
/// shape, built the way the service builds them.
#[derive(Default)]
pub struct References {
    shapes: Vec<(ShapeKey, Evaluator)>,
    /// Wall time of each build (network, platform and
    /// `EvaluatorBuilder::build`).
    pub build_times: Vec<Duration>,
}

#[derive(Debug, Clone, PartialEq)]
struct ShapeKey {
    model: String,
    samples: usize,
    constraints: Constraints,
    weights: ObjectiveWeights,
}

impl ShapeKey {
    fn of(request: &MappingRequest) -> ShapeKey {
        ShapeKey {
            model: request.model.clone(),
            samples: request.validation_samples,
            constraints: request.constraints,
            weights: request.weights,
        }
    }
}

impl References {
    /// Builds the reference evaluator of `request`'s shape unless one
    /// exists.
    pub fn ensure(&mut self, request: &MappingRequest) -> Result<(), String> {
        let key = ShapeKey::of(request);
        if self.shapes.iter().any(|(k, _)| *k == key) {
            return Ok(());
        }
        let started = Instant::now();
        let evaluator = build_reference(request)?;
        self.build_times.push(started.elapsed());
        self.shapes.push((key, evaluator));
        Ok(())
    }

    /// The reference evaluator of `request`'s shape.
    pub fn of_shape(&self, request: &MappingRequest) -> Option<&Evaluator> {
        let key = ShapeKey::of(request);
        self.shapes.iter().find(|(k, _)| *k == key).map(|(_, e)| e)
    }

    /// Any reference evaluator of `model` (the single-unit baselines do
    /// not depend on the shape).
    pub fn of_model(&self, model: &str) -> Option<&Evaluator> {
        self.shapes
            .iter()
            .find(|(k, _)| k.model == model)
            .map(|(_, e)| e)
    }
}

/// Builds the evaluator of `request`'s shape the way the service does.
pub fn build_reference(request: &MappingRequest) -> Result<Evaluator, String> {
    let network = ModelRegistry::new()
        .build(&request.model)
        .map_err(|e| e.to_string())?;
    let platform = PlatformRegistry::new()
        .build(&request.platform)
        .map_err(|e| e.to_string())?;
    EvaluatorBuilder::new(network, platform)
        .validation_samples(request.validation_samples)
        .constraints(request.constraints)
        .objective_weights(request.weights)
        .build()
        .map_err(|e| e.to_string())
}

/// Content digest of an answer: the front and the best-by-objective pick
/// point by point, plus the search counters. Left out are the timing
/// fields and the evaluation-cache counters (they depend on what the
/// server answered before), and each point's decoded configuration, which
/// is a function of its genome (and is recomputed for the gain picks).
pub fn digest(response: &MappingResponse) -> u64 {
    let mut h = StableHasher::new();
    h.write_str(&response.model);
    h.write_str(&response.platform);
    h.write_usize(response.pareto_front.len());
    for point in &response.pareto_front {
        digest_point(&mut h, point);
    }
    match &response.best_by_objective {
        Some(point) => {
            h.write_bool(true);
            digest_point(&mut h, point);
        }
        None => h.write_bool(false),
    }
    let s = &response.stats;
    for count in [
        s.evaluations,
        s.evaluations_performed,
        s.memo_hits,
        s.warm_start_seeds,
        s.generations_run,
    ] {
        h.write_usize(count);
    }
    h.write_bool(s.early_stopped);
    h.write_bool(s.partial);
    h.finish()
}

fn digest_point(h: &mut StableHasher, point: &EvaluatedConfig) {
    h.write_u64(point.genome.fingerprint());
    h.write_usize(point.generation);
    let r: &EvaluationResult = &point.result;
    for value in [
        r.average_latency_ms,
        r.average_energy_mj,
        r.worst_case_latency_ms,
        r.full_energy_mj,
        r.accuracy,
        r.final_stage_accuracy,
        r.accuracy_drop,
        r.fmap_reuse,
        r.stored_feature_bytes,
        r.objective,
        r.average_stages_executed,
    ] {
        h.write_f64(value);
    }
    h.write_bool(r.feasible);
    for violation in &r.violations {
        h.write_str(violation);
    }
    for stage in &r.stage_performance {
        h.write_usize(stage.stage);
        h.write_usize(stage.cu.0);
        for value in [
            stage.latency_ms,
            stage.busy_ms,
            stage.energy_mj,
            stage.transfer_ms,
            stage.transfer_energy_mj,
        ] {
            h.write_f64(value);
        }
    }
    for &count in &r.exit_counts {
        h.write_usize(count);
    }
}

/// The properties every answered front must have.
fn check_front(
    request: &MappingRequest,
    response: &MappingResponse,
    shared_memory_bytes: f64,
) -> Result<(), String> {
    let front = &response.pareto_front;
    if front.is_empty() {
        return Err("empty front".to_string());
    }
    if response.model != request.model || response.platform != request.platform {
        return Err("answer names another model or platform".to_string());
    }
    let c = &request.constraints;
    // The same 1e-9 tolerance the constraints themselves apply.
    let within = |value: f64, limit: Option<f64>| limit.is_none_or(|l| value <= l + 1e-9);
    let memory_budget = shared_memory_bytes * (1.0 - c.memory_reserved_fraction);
    for (i, point) in front.iter().enumerate() {
        let r = &point.result;
        if !r.feasible || !r.violations.is_empty() {
            return Err(format!("front point {i} is infeasible: {:?}", r.violations));
        }
        let meets = within(r.accuracy_drop, c.max_accuracy_drop)
            && within(r.fmap_reuse, c.max_fmap_reuse)
            && c.latency_target_ms
                .is_none_or(|t| r.worst_case_latency_ms <= t)
            && c.energy_target_mj.is_none_or(|t| r.full_energy_mj <= t)
            && r.stored_feature_bytes <= memory_budget;
        if !meets {
            return Err(format!("front point {i} breaks the request's constraints"));
        }
        if !(r.average_energy_mj > 0.0 && r.average_latency_ms > 0.0) {
            return Err(format!("front point {i} has a non-positive cost"));
        }
    }
    for (i, a) in front.iter().enumerate() {
        for (j, b) in front.iter().enumerate() {
            let (ea, la) = (a.result.average_energy_mj, a.result.average_latency_ms);
            let (eb, lb) = (b.result.average_energy_mj, b.result.average_latency_ms);
            if i != j && ea <= eb && la <= lb && (ea < eb || la < lb) {
                return Err(format!("front point {i} dominates point {j}"));
            }
        }
    }
    Ok(())
}

/// The front's lowest-energy and lowest-latency points.
fn picks(response: &MappingResponse) -> (EvaluatedConfig, EvaluatedConfig) {
    let by = |key: fn(&EvaluatedConfig) -> f64| {
        response
            .pareto_front
            .iter()
            .min_by(|a, b| key(a).total_cmp(&key(b)))
            .expect("checked non-empty")
            .clone()
    };
    (
        by(|p| p.result.average_energy_mj),
        by(|p| p.result.average_latency_ms),
    )
}

/// Everything known about one distinct request.
struct Seen {
    request: MappingRequest,
    digest: u64,
    /// Whether the request counts toward the simulated gains.
    gains: bool,
    /// Gain picks, kept after the front passed its checks.
    picks: Option<(EvaluatedConfig, EvaluatedConfig)>,
    /// Search counters of the answer.
    stats: RequestStats,
    /// Timed wire calls that received this answer.
    ops: Vec<u32>,
    /// First failure found for this answer.
    failure: Option<String>,
}

/// The simulated gains over a workload's distinct core searches.
#[derive(Debug, Clone, Copy)]
pub struct Gains {
    pub energy_vs_gpu: f64,
    pub latency_vs_dla: f64,
}

/// Search counters summed over distinct searches.
#[derive(Debug, Default, Clone, Copy)]
pub struct SearchTotals {
    pub evaluations_performed: usize,
    pub memo_hits: usize,
    pub warm_start_seeds: usize,
}

/// Collects answers during a run and checks them.
pub struct Checker {
    seen: Vec<Seen>,
    index: HashMap<String, usize>,
    /// Timed wire calls that failed outright (a structured error or a
    /// dropped connection) or whose answer failed a check on arrival.
    failed_ops: BTreeSet<u32>,
    /// The first few reasons calls failed.
    call_failures: Vec<String>,
    /// Failures that are not one answer's: every timed call fails.
    global_failure: Option<String>,
    shared_memory_bytes: f64,
}

impl Checker {
    pub fn new() -> Result<Checker, String> {
        let platform = PlatformRegistry::new()
            .build(PLATFORM)
            .map_err(|e| e.to_string())?;
        Ok(Checker {
            seen: Vec::new(),
            index: HashMap::new(),
            failed_ops: BTreeSet::new(),
            call_failures: Vec::new(),
            global_failure: None,
            shared_memory_bytes: platform.shared_memory().capacity_bytes() as f64,
        })
    }

    /// Records the answer to one member request. `op` is the timed wire
    /// call it arrived on (`None` during set-up); `gains` marks requests
    /// that count toward the simulated gains.
    pub fn observe(
        &mut self,
        role: Role,
        op: Option<u32>,
        gains: bool,
        request: &MappingRequest,
        response: &MappingResponse,
    ) {
        if role == Role::Warmup {
            return;
        }
        let digest = digest(response);
        let key = format!("{request:?}");
        if let Some(&at) = self.index.get(&key) {
            let seen = &mut self.seen[at];
            if let Some(op) = op {
                seen.ops.push(op);
            }
            if seen.digest != digest && !request.warm_start {
                self.failed_ops.extend(op);
                seen.failure.get_or_insert_with(|| {
                    "a repeated request was answered differently".to_string()
                });
            }
            return;
        }
        let checked = check_front(request, response, self.shared_memory_bytes);
        self.index.insert(key, self.seen.len());
        self.seen.push(Seen {
            request: request.clone(),
            digest,
            gains,
            picks: checked.as_ref().ok().map(|()| picks(response)),
            stats: response.stats,
            ops: op.into_iter().collect(),
            failure: checked.err(),
        });
    }

    /// Marks one timed wire call failed (a structured error or a dropped
    /// connection).
    pub fn fail_op(&mut self, op: u32, reason: String) {
        if self.failed_ops.insert(op) && self.call_failures.len() < 5 {
            self.call_failures.push(format!("call {op}: {reason}"));
        }
    }

    /// Marks the whole timed phase failed.
    pub fn fail_all(&mut self, reason: String) {
        self.global_failure.get_or_insert(reason);
    }

    /// Search counters summed over the distinct searches that count
    /// toward the gains.
    pub fn search_totals(&self) -> SearchTotals {
        let mut totals = SearchTotals::default();
        for seen in self.seen.iter().filter(|s| s.gains) {
            totals.evaluations_performed += seen.stats.evaluations_performed;
            totals.memo_hits += seen.stats.memo_hits;
            totals.warm_start_seeds += seen.stats.warm_start_seeds;
        }
        totals
    }

    /// Genomes of the gain picks of `model`'s answers, for the
    /// surrogate-ranking probe.
    pub fn pick_genomes(&self, model: &str) -> Vec<Arc<Genome>> {
        self.seen
            .iter()
            .filter(|s| s.request.model == model)
            .filter_map(|s| s.picks.as_ref())
            .flat_map(|(e, l)| [e.genome.clone(), l.genome.clone()])
            .collect()
    }

    /// The after-the-run checks: every distinct cold answer against a
    /// fresh in-process `MappingService::submit`, and every gain pick
    /// against the reference `Evaluator::evaluate`.
    pub fn verify(&mut self, references: &mut References) {
        let service = MappingService::new();
        for seen in &mut self.seen {
            if seen.failure.is_some() {
                continue;
            }
            if !seen.request.warm_start {
                match service.submit(&seen.request) {
                    Ok(fresh) if digest(&fresh) == seen.digest => {}
                    Ok(_) => {
                        seen.failure =
                            Some("answer differs from a fresh in-process submit".to_string());
                        continue;
                    }
                    Err(e) => {
                        seen.failure = Some(format!("in-process submit failed: {e}"));
                        continue;
                    }
                }
            }
            if let Err(e) = references.ensure(&seen.request) {
                seen.failure = Some(format!("reference evaluator: {e}"));
                continue;
            }
            let evaluator = references.of_shape(&seen.request).expect("just ensured");
            let (energy_pick, latency_pick) =
                seen.picks.as_ref().expect("checked fronts keep picks");
            for pick in [energy_pick, latency_pick] {
                match evaluator.evaluate(&pick.config) {
                    Ok(reference)
                        if reference.average_energy_mj.to_bits()
                            == pick.result.average_energy_mj.to_bits()
                            && reference.average_latency_ms.to_bits()
                                == pick.result.average_latency_ms.to_bits()
                            && reference.feasible => {}
                    Ok(_) => {
                        seen.failure =
                            Some("a gain pick does not match the reference evaluator".to_string());
                    }
                    Err(e) => seen.failure = Some(format!("reference evaluation failed: {e}")),
                }
            }
        }
    }

    /// Geometric-mean gains over the distinct searches marked for gains,
    /// against the single-unit baselines of the benchmark's own
    /// evaluators: GPU-only energy (`CuId(0)`) and DLA-only latency
    /// (`CuId(1)`).
    pub fn gains(&self, references: &References) -> Result<Gains, String> {
        let (mut log_energy, mut log_latency, mut searches) = (0.0, 0.0, 0usize);
        for seen in self.seen.iter().filter(|s| s.gains) {
            let Some((energy_pick, latency_pick)) = &seen.picks else {
                continue;
            };
            let evaluator = references
                .of_model(&seen.request.model)
                .ok_or("no reference evaluator for a gain model")?;
            let gpu = evaluator
                .baseline_single_cu(CuId(0))
                .map_err(|e| e.to_string())?;
            let dla = evaluator
                .baseline_single_cu(CuId(1))
                .map_err(|e| e.to_string())?;
            log_energy += (gpu.energy_mj / energy_pick.result.average_energy_mj).ln();
            log_latency += (dla.latency_ms / latency_pick.result.average_latency_ms).ln();
            searches += 1;
        }
        if searches == 0 {
            return Err("no search counted toward the gains".to_string());
        }
        Ok(Gains {
            energy_vs_gpu: (log_energy / searches as f64).exp(),
            latency_vs_dla: (log_latency / searches as f64).exp(),
        })
    }

    /// Timed wire calls that failed, and the first few failure messages.
    pub fn failures(&self, attempted: u32) -> (u32, Vec<String>) {
        let mut failed = self.failed_ops.clone();
        let mut messages = self.call_failures.clone();
        if let Some(reason) = &self.global_failure {
            failed.extend(0..attempted);
            messages.push(reason.clone());
        }
        for seen in &self.seen {
            if let Some(failure) = &seen.failure {
                failed.extend(seen.ops.iter().copied());
                messages.push(format!(
                    "{} seed {}: {failure}",
                    seen.request.model, seen.request.seed
                ));
            }
        }
        messages.truncate(5);
        (failed.len() as u32, messages)
    }

    /// Whether any answer failed a check (an answer's failure counts even
    /// when no timed call received it, e.g. a primed hot-set search).
    pub fn any_check_failed(&self) -> bool {
        self.global_failure.is_some() || self.seen.iter().any(|s| s.failure.is_some())
    }
}
