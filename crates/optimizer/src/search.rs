//! The evolutionary search loop (paper §V-C, Fig. 5).
//!
//! # The search fast path
//!
//! [`MappingSearch::run`] drives the paper's GA-with-elitism loop through
//! three loop-level optimisations, all result-preserving:
//!
//! * **within-run memoization** — elites are cloned into the next
//!   generation and duplicate children recur as the population converges,
//!   so the loop keys a per-run memo on the full genome fingerprint and
//!   evaluates each distinct genome exactly once per run. A memo hit is
//!   bit-identical by construction (evaluation is a pure function of the
//!   genome) and collision-safe (the memoised genome is compared for
//!   equality before a fingerprint match is honoured).
//! * **fused fresh evaluations** — first occurrences go through
//!   [`ConfigEvaluator::evaluate_genome`], which for a plain
//!   [`mnc_core::Evaluator`] runs the allocation-light fused pipeline
//!   (`SliceGrid` instead of a materialised `DynamicNetwork` per
//!   candidate).
//! * **`Arc`-backed results** — [`EvaluatedConfig`] holds its genome,
//!   configuration and metrics behind `Arc`s, so archiving, elite
//!   selection and cache layers stop deep-cloning decoded configurations.
//!
//! [`MappingSearch::run_reference`] retains the pre-fast-path loop —
//! every candidate evaluated afresh through
//! [`ConfigEvaluator::evaluate_genome_reference`] and archived as an
//! independent deep copy — as the oracle the memoized loop is
//! property-tested against (`run` and `run_reference` produce
//! bit-identical archives for any seed and thread count) and as the
//! baseline of the `search_fastpath` benchmark.

use crate::error::OptimError;
use crate::evaluate::ConfigEvaluator;
use crate::genome::Genome;
use crate::operators::{crossover, mutate, MutationConfig};
use crate::pareto::{crowding_distance, dominates, non_dominated_fronts, pareto_front_indices};
use mnc_core::{EvaluationResult, Evaluator, MappingConfig};
use mnc_telemetry::{GenerationEvent, TelemetrySink};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A shareable cooperative cancellation flag for an in-flight search.
///
/// Clone the token, hand one copy to [`MappingSearch::with_cancel_token`]
/// and keep the other: calling [`CancelToken::cancel`] from any thread
/// makes the search stop at its next generation boundary and return the
/// best-front-so-far as a partial outcome ([`SearchOutcome::partial`]).
/// A token that is never cancelled has no effect on the search — the
/// outcome stays bit-identical to a run without one.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    cancelled: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Flags cancellation. Idempotent; the search observes it at its next
    /// generation boundary.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::SeqCst);
    }

    /// Whether [`CancelToken::cancel`] was called.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::SeqCst)
    }
}

/// A shareable cooperative pause flag for an in-flight resumable search.
///
/// The preemption counterpart of [`CancelToken`]: clone the token, hand
/// one copy to [`MappingSearch::with_pause_token`] and keep the other.
/// Calling [`PauseToken::pause`] from any thread makes a search driven by
/// [`MappingSearch::run_resumable`] stop at its next generation boundary
/// and return a [`SearchCheckpoint`] instead of finishing; resuming the
/// checkpoint continues bit-identically to an uninterrupted run. A token
/// that is never paused has no effect on the search, and
/// [`MappingSearch::run`] ignores pause requests entirely (it cannot
/// return a checkpoint).
#[derive(Debug, Clone, Default)]
pub struct PauseToken {
    paused: Arc<AtomicBool>,
}

impl PauseToken {
    /// A fresh, unpaused token.
    pub fn new() -> Self {
        PauseToken::default()
    }

    /// Requests a pause. Idempotent; a resumable search observes it at
    /// its next generation boundary.
    pub fn pause(&self) {
        self.paused.store(true, Ordering::SeqCst);
    }

    /// Clears a pause request so a resumed search keeps running instead
    /// of immediately pausing again. (A resumed search always completes
    /// at least one generation before re-checking the token, so even an
    /// uncleared token cannot starve it — it just pauses once per
    /// resume.)
    pub fn clear(&self) {
        self.paused.store(false, Ordering::SeqCst);
    }

    /// Whether [`PauseToken::pause`] was called (and not yet cleared).
    pub fn is_paused(&self) -> bool {
        self.paused.load(Ordering::SeqCst)
    }
}

/// How elites are chosen from an evaluated generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SelectionStrategy {
    /// Rank by the scalar objective of eq. 16 (feasible candidates first).
    /// This is the paper's elite-selection step.
    ObjectiveElitism,
    /// NSGA-II-style selection: non-dominated sorting over (average energy,
    /// average latency, accuracy drop) with crowding-distance tie-breaking.
    /// Useful when the practitioner wants the whole Pareto surface rather
    /// than one scalarised optimum.
    ParetoCrowding,
}

/// Hyper-parameters of the evolutionary search.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SearchConfig {
    /// Number of generations.
    pub generations: usize,
    /// Population size per generation.
    pub population_size: usize,
    /// Fraction of the population kept as elites each generation.
    pub elite_fraction: f64,
    /// Probability that a child is produced by crossover (otherwise it is a
    /// mutated copy of a single elite).
    pub crossover_rate: f64,
    /// Mutation operator configuration.
    pub mutation: MutationConfig,
    /// Elite-selection strategy.
    pub selection: SelectionStrategy,
    /// RNG seed.
    pub seed: u64,
    /// Evaluate each generation's population on multiple threads.
    pub parallel: bool,
    /// Worker threads for parallel evaluation (`None` = machine
    /// parallelism). The outcome is identical for any thread count.
    pub threads: Option<usize>,
    /// Hard budget on the number of evaluations; the search stops once it
    /// is reached, evaluating a final partial generation if needed.
    pub max_evaluations: Option<usize>,
    /// Stop early when the best feasible objective has not improved for
    /// this many consecutive generations.
    pub stall_generations: Option<usize>,
    /// Seed the initial population from [`MappingSearch::with_seeds`]
    /// genomes (surrogate-ranked elites of similar past searches). Off by
    /// default: a cold search's outcome depends only on its
    /// [`SearchConfig`], never on ambient state.
    pub warm_start: bool,
}

impl SearchConfig {
    /// The paper's search budget: 200 generations of 60 candidates
    /// (12 000 evaluations).
    pub fn paper() -> Self {
        SearchConfig {
            generations: 200,
            population_size: 60,
            elite_fraction: 0.25,
            crossover_rate: 0.7,
            mutation: MutationConfig::default(),
            selection: SelectionStrategy::ObjectiveElitism,
            seed: 2023,
            parallel: true,
            threads: None,
            max_evaluations: None,
            stall_generations: None,
            warm_start: false,
        }
    }

    /// A small budget for tests, examples and CI.
    pub fn fast() -> Self {
        SearchConfig {
            generations: 6,
            population_size: 16,
            elite_fraction: 0.25,
            crossover_rate: 0.7,
            mutation: MutationConfig::default(),
            selection: SelectionStrategy::ObjectiveElitism,
            seed: 7,
            parallel: false,
            threads: None,
            max_evaluations: None,
            stall_generations: None,
            warm_start: false,
        }
    }

    /// Validates the hyper-parameters.
    ///
    /// # Errors
    ///
    /// Returns [`OptimError::InvalidConfig`] for empty budgets or
    /// out-of-range rates.
    pub fn validate(&self) -> Result<(), OptimError> {
        if self.generations == 0 {
            return Err(OptimError::InvalidConfig {
                reason: "at least one generation is required".to_string(),
            });
        }
        if self.population_size < 2 {
            return Err(OptimError::InvalidConfig {
                reason: "population size must be at least 2".to_string(),
            });
        }
        if !(0.0 < self.elite_fraction && self.elite_fraction <= 1.0) {
            return Err(OptimError::InvalidConfig {
                reason: format!("elite fraction {} out of (0, 1]", self.elite_fraction),
            });
        }
        if !(0.0..=1.0).contains(&self.crossover_rate) {
            return Err(OptimError::InvalidConfig {
                reason: format!("crossover rate {} out of [0, 1]", self.crossover_rate),
            });
        }
        if self.threads == Some(0) {
            return Err(OptimError::InvalidConfig {
                reason: "thread count must be at least 1 (use None for the default)".to_string(),
            });
        }
        if self.max_evaluations == Some(0) {
            return Err(OptimError::InvalidConfig {
                reason: "evaluation budget must be at least 1".to_string(),
            });
        }
        if self.stall_generations == Some(0) {
            return Err(OptimError::InvalidConfig {
                reason: "stall window must be at least one generation".to_string(),
            });
        }
        Ok(())
    }
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig::paper()
    }
}

/// One evaluated candidate: its genome, decoded configuration and metrics.
///
/// All three are `Arc`-backed: the archive, the elite set, the evaluation
/// cache and every response front share one allocation per evaluation
/// instead of deep-cloning configurations at each hand-off. Equality and
/// serialization see through the `Arc`s, so two configs compare (and
/// serialize) exactly as their contents do.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvaluatedConfig {
    /// The genome that produced the configuration.
    pub genome: Arc<Genome>,
    /// The decoded configuration.
    pub config: Arc<MappingConfig>,
    /// The evaluator's metrics for it.
    pub result: Arc<EvaluationResult>,
    /// Generation in which the search scheduled it (a memoized replay of
    /// an elite keeps appearing in every generation that re-selected it,
    /// exactly like the pre-memoization loop's re-evaluations did).
    pub generation: usize,
}

/// Everything the search produced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchOutcome {
    archive: Vec<EvaluatedConfig>,
    generations_run: usize,
    early_stopped: bool,
    partial: bool,
    evaluations_performed: usize,
    memo_hits: usize,
    warm_start_seeds: usize,
}

/// The counters of a finished search as one compact, copyable value — what
/// a serving layer reports per request (`mnc_runtime`'s pipeline folds one
/// of these into its `RequestStats`, and the JSON wire front-end carries it
/// verbatim) without holding the archive alive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SearchSummary {
    /// Configurations the search scheduled (the archive length).
    pub evaluations: usize,
    /// Evaluations that reached the evaluator (the rest were memo hits).
    pub evaluations_performed: usize,
    /// Scheduled evaluations answered by the within-run memo.
    pub memo_hits: usize,
    /// Warm-start seed genomes injected into the initial population.
    pub warm_start_seeds: usize,
    /// Generations actually run.
    pub generations_run: usize,
    /// Whether the search stopped before its generation count.
    pub early_stopped: bool,
    /// Whether the search was interrupted by a deadline or a cancel
    /// token and the outcome is an anytime (best-front-so-far) answer.
    pub partial: bool,
}

impl SearchOutcome {
    /// Whether the search terminated before its configured generation
    /// count, either because the evaluation budget ran out or because the
    /// best objective stalled (see [`SearchConfig::max_evaluations`] and
    /// [`SearchConfig::stall_generations`]).
    pub fn early_stopped(&self) -> bool {
        self.early_stopped
    }

    /// Whether the search was interrupted (deadline passed or
    /// [`CancelToken::cancel`] called) and this outcome is an anytime
    /// answer: the archive holds every generation completed before the
    /// interruption — a bit-identical prefix of the uninterrupted run —
    /// and [`SearchOutcome::generations_run`] marks how many completed.
    pub fn partial(&self) -> bool {
        self.partial
    }

    /// Every configuration evaluated during the search, in evaluation
    /// order. This is the point cloud of the paper's Fig. 6.
    pub fn archive(&self) -> &[EvaluatedConfig] {
        &self.archive
    }

    /// Number of evaluations the search *scheduled* (the archive length —
    /// the pre-memoization loop performed all of them).
    pub fn evaluations(&self) -> usize {
        self.archive.len()
    }

    /// Number of evaluations actually performed by the evaluator; the rest
    /// ([`SearchOutcome::memo_hits`]) were served from the within-run
    /// memo.
    pub fn evaluations_performed(&self) -> usize {
        self.evaluations_performed
    }

    /// Scheduled evaluations answered by the within-run memo (elites
    /// re-selected into later generations, duplicate children): always
    /// `evaluations() - evaluations_performed()`.
    pub fn memo_hits(&self) -> usize {
        self.memo_hits
    }

    /// Number of warm-start seed genomes injected into the initial
    /// population (0 unless [`SearchConfig::warm_start`] was set and
    /// [`MappingSearch::with_seeds`] supplied compatible genomes).
    pub fn warm_start_seeds(&self) -> usize {
        self.warm_start_seeds
    }

    /// Number of generations completed.
    pub fn generations_run(&self) -> usize {
        self.generations_run
    }

    /// The outcome's counters as one copyable [`SearchSummary`].
    pub fn summary(&self) -> SearchSummary {
        SearchSummary {
            evaluations: self.evaluations(),
            evaluations_performed: self.evaluations_performed,
            memo_hits: self.memo_hits,
            warm_start_seeds: self.warm_start_seeds,
            generations_run: self.generations_run,
            early_stopped: self.early_stopped,
            partial: self.partial,
        }
    }

    /// Number of scheduled evaluations until a feasible candidate with an
    /// objective no worse than `target` first appeared in the archive
    /// (`None` when the search never reached it). The benchmark's
    /// "evaluations-to-front" metric: a warm-started search reaching the
    /// cold search's final best objective after fewer evaluations
    /// converged faster in a budget-independent sense.
    pub fn evaluations_to_objective(&self, target: f64) -> Option<usize> {
        self.archive
            .iter()
            .position(|c| c.result.feasible && c.result.objective <= target)
            .map(|index| index + 1)
    }

    /// Feasible configurations only.
    pub fn feasible(&self) -> Vec<&EvaluatedConfig> {
        self.archive.iter().filter(|c| c.result.feasible).collect()
    }

    /// Pareto front over (average energy, average latency) among feasible
    /// configurations (an O(n log n) skyline sweep — see
    /// [`pareto_front_indices`]).
    pub fn pareto_front(&self) -> Vec<&EvaluatedConfig> {
        let feasible = self.feasible();
        let points: Vec<[f64; 2]> = feasible
            .iter()
            .map(|c| [c.result.average_energy_mj, c.result.average_latency_ms])
            .collect();
        pareto_front_indices(&points)
            .into_iter()
            .map(|i| feasible[i])
            .collect()
    }

    /// The feasible configuration with the lowest scalar objective
    /// (eq. 16).
    pub fn best_by_objective(&self) -> Option<&EvaluatedConfig> {
        self.feasible()
            .into_iter()
            .min_by(|a, b| a.result.objective.total_cmp(&b.result.objective))
    }

    /// The paper's "Ours-E" pick: the lowest-energy feasible
    /// configuration whose accuracy drop does not exceed
    /// `max_accuracy_drop` (ties broken by latency).
    ///
    /// The drop budget filters the feasible set *before* the minimum is
    /// taken: a configuration within budget may be dominated on the 2-D
    /// energy/latency [`SearchOutcome::pareto_front`] only by
    /// configurations outside it, and must still be pickable.
    pub fn energy_oriented(&self, max_accuracy_drop: f64) -> Option<&EvaluatedConfig> {
        self.within_drop(max_accuracy_drop).min_by(|a, b| {
            a.result
                .average_energy_mj
                .total_cmp(&b.result.average_energy_mj)
                .then_with(|| {
                    a.result
                        .average_latency_ms
                        .total_cmp(&b.result.average_latency_ms)
                })
        })
    }

    /// The paper's "Ours-L" pick: the lowest-latency feasible
    /// configuration whose accuracy drop does not exceed
    /// `max_accuracy_drop` (ties broken by energy; see
    /// [`SearchOutcome::energy_oriented`] for why the budget filters
    /// first).
    pub fn latency_oriented(&self, max_accuracy_drop: f64) -> Option<&EvaluatedConfig> {
        self.within_drop(max_accuracy_drop).min_by(|a, b| {
            a.result
                .average_latency_ms
                .total_cmp(&b.result.average_latency_ms)
                .then_with(|| {
                    a.result
                        .average_energy_mj
                        .total_cmp(&b.result.average_energy_mj)
                })
        })
    }

    /// Feasible configurations whose accuracy drop is within the budget.
    fn within_drop(&self, max_accuracy_drop: f64) -> impl Iterator<Item = &EvaluatedConfig> {
        self.feasible()
            .into_iter()
            .filter(move |c| c.result.accuracy_drop <= max_accuracy_drop + 1e-9)
    }
}

/// One `Arc`-backed evaluation: the decoded configuration plus metrics.
type EvaluatedPair = (Arc<MappingConfig>, Arc<EvaluationResult>);

/// One memoised evaluation. The genome is retained so a fingerprint match
/// is honoured only for a genuinely equal genome (a 64-bit collision falls
/// through to a fresh evaluation instead of replaying the wrong result).
#[derive(Debug)]
struct MemoEntry {
    genome: Arc<Genome>,
    config: Arc<MappingConfig>,
    result: Arc<EvaluationResult>,
}

/// The result of one resumable drive of the search: either it ran to its
/// natural end (completion, budget, stall, deadline or cancellation) or a
/// [`PauseToken`] stopped it at a generation boundary mid-run.
#[derive(Debug)]
pub enum SearchRun {
    /// The search finished; deadline/cancel interruptions still land
    /// here (as partial outcomes), exactly as [`MappingSearch::run`]
    /// reports them.
    Complete(SearchOutcome),
    /// A pause request stopped the search at a generation boundary. Feed
    /// the checkpoint to [`MappingSearch::resume`] to continue; the
    /// eventual outcome is bit-identical to a run that was never paused.
    Paused(Box<SearchCheckpoint>),
}

/// The complete mid-run state of a paused search, captured at a
/// generation boundary: the bred-but-unevaluated next population, the
/// archive so far, the within-run memo (with its pointer-identity
/// fingerprint cache), the RNG position and every loop counter.
///
/// A checkpoint is only meaningful for the `(evaluator, config)` pair
/// that produced it; [`MappingSearch::resume`] rejects a config mismatch
/// but cannot detect a different evaluator — resuming one against the
/// wrong evaluator silently computes the wrong (yet well-formed) answer.
#[derive(Debug)]
pub struct SearchCheckpoint {
    config: SearchConfig,
    population: Vec<Arc<Genome>>,
    archive: Vec<EvaluatedConfig>,
    memo: HashMap<u64, MemoEntry>,
    known: HashMap<usize, (Arc<Genome>, u64)>,
    rng: StdRng,
    next_generation: usize,
    evaluations_performed: usize,
    memo_hits: usize,
    warm_start_seeds: usize,
    best_objective: f64,
    stalled_generations: usize,
}

impl SearchCheckpoint {
    /// Generations fully completed (and archived) before the pause; the
    /// resumed search continues with this generation index.
    pub fn generations_completed(&self) -> usize {
        self.next_generation
    }

    /// Evaluations that reached the evaluator before the pause — what a
    /// budget accountant should debit for the paused span.
    pub fn evaluations_performed(&self) -> usize {
        self.evaluations_performed
    }

    /// The configuration the paused search was running under.
    pub fn config(&self) -> &SearchConfig {
        &self.config
    }
}

/// The evolutionary mapping search.
///
/// Generic over the [`ConfigEvaluator`] hook: a plain
/// [`mnc_core::Evaluator`], or a thin wrapper that forwards to one (the
/// service's pipeline adds a fault-injection tick). Repeated genomes
/// within a run are answered by the search's own memo.
pub struct MappingSearch<'a, E: ConfigEvaluator = Evaluator> {
    evaluator: &'a E,
    config: SearchConfig,
    seeds: Vec<Arc<Genome>>,
    sink: Option<&'a dyn TelemetrySink>,
    deadline: Option<Instant>,
    cancel: Option<CancelToken>,
    pause: Option<PauseToken>,
}

impl<E: ConfigEvaluator> std::fmt::Debug for MappingSearch<'_, E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MappingSearch")
            .field("config", &self.config)
            .field("seeds", &self.seeds.len())
            .field("telemetry", &self.sink.is_some())
            .field("deadline", &self.deadline.is_some())
            .field("cancellable", &self.cancel.is_some())
            .field("pausable", &self.pause.is_some())
            .finish_non_exhaustive()
    }
}

impl<'a, E: ConfigEvaluator> MappingSearch<'a, E> {
    /// Creates a search over the given evaluator.
    pub fn new(evaluator: &'a E, config: SearchConfig) -> Self {
        MappingSearch {
            evaluator,
            config,
            seeds: Vec::new(),
            sink: None,
            deadline: None,
            cancel: None,
            pause: None,
        }
    }

    /// Bounds the search by an absolute wall-clock deadline, checked once
    /// per generation *before* any of that generation's work: a search
    /// past its deadline stops at the boundary and returns the
    /// best-front-so-far as a partial outcome. The check never touches
    /// the RNG stream, so a deadline that the full search beats leaves
    /// the outcome bit-identical to an undeadlined run (property-tested).
    /// At least one generation always runs — an already-expired deadline
    /// yields the smallest possible anytime answer, not an error.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Attaches a cooperative cancellation token, checked at the same
    /// per-generation boundary as [`MappingSearch::with_deadline`]. An
    /// uncancelled token never perturbs the search.
    #[must_use]
    pub fn with_cancel_token(mut self, cancel: CancelToken) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// Attaches a per-generation telemetry sink. The sink only observes:
    /// it is consulted after each generation's evaluations are archived
    /// and never feeds back into the RNG stream, the evaluation order or
    /// the archive, so [`MappingSearch::run`] stays bit-identical with
    /// and without telemetry (property-tested).
    #[must_use]
    pub fn with_telemetry(mut self, sink: &'a dyn TelemetrySink) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Attaches a cooperative pause token, checked at the same
    /// per-generation boundary as cancellation (cancel wins when both
    /// fire). Only [`MappingSearch::run_resumable`] and
    /// [`MappingSearch::resume`] honour it — [`MappingSearch::run`]
    /// cannot return a checkpoint, so it ignores pause requests. An
    /// unpaused token never perturbs the search.
    #[must_use]
    pub fn with_pause_token(mut self, pause: PauseToken) -> Self {
        self.pause = Some(pause);
        self
    }

    /// Supplies warm-start seed genomes (typically Pareto elites of a
    /// similar past search, surrogate-ranked best-first). They join the
    /// initial population — after the balanced default, before the random
    /// fill — only when [`SearchConfig::warm_start`] is set; incompatible
    /// or duplicate seeds are skipped silently.
    #[must_use]
    pub fn with_seeds(mut self, seeds: Vec<Arc<Genome>>) -> Self {
        self.seeds = seeds;
        self
    }

    /// The search configuration.
    pub fn config(&self) -> &SearchConfig {
        &self.config
    }

    /// Runs the search to completion through the memoized fast path: each
    /// distinct genome is evaluated exactly once per run, fresh
    /// evaluations share dynamic transformations per structure, and the
    /// archive shares allocations with the elite set. The outcome is
    /// bit-identical to [`MappingSearch::run_reference`] for any seed and
    /// thread count (property-tested).
    ///
    /// # Errors
    ///
    /// Returns an error for invalid hyper-parameters or when a candidate
    /// cannot be evaluated (which indicates an internal inconsistency, not
    /// a constraint violation).
    pub fn run(&self) -> Result<SearchOutcome, OptimError> {
        match self.drive(true, false, None)? {
            SearchRun::Complete(outcome) => Ok(outcome),
            SearchRun::Paused(_) => unreachable!("non-resumable drives never pause"),
        }
    }

    /// Runs the search through the pre-fast-path loop: every scheduled
    /// candidate is evaluated afresh through
    /// [`ConfigEvaluator::evaluate_genome_reference`] (no within-run
    /// memo) and archived as an independent deep copy, the way the loop
    /// behaved before the search fast path. Retained as the
    /// property-test oracle and the `search_fastpath` benchmark baseline.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`MappingSearch::run`].
    pub fn run_reference(&self) -> Result<SearchOutcome, OptimError> {
        match self.drive(false, false, None)? {
            SearchRun::Complete(outcome) => Ok(outcome),
            SearchRun::Paused(_) => unreachable!("non-resumable drives never pause"),
        }
    }

    /// Runs the memoized search with pause support: a [`PauseToken`]
    /// attached through [`MappingSearch::with_pause_token`] makes the
    /// loop stop at its next generation boundary and return
    /// [`SearchRun::Paused`] with the full mid-run state. Resuming the
    /// checkpoint (any number of times, on any thread count) finishes
    /// with an outcome bit-identical to [`MappingSearch::run`]
    /// (property-tested). Without a pause request this is exactly
    /// [`MappingSearch::run`].
    ///
    /// # Errors
    ///
    /// Same failure modes as [`MappingSearch::run`].
    pub fn run_resumable(&self) -> Result<SearchRun, OptimError> {
        self.drive(true, true, None)
    }

    /// Continues a search paused by [`MappingSearch::run_resumable`]. At
    /// least one generation runs before the pause token is consulted
    /// again, so resuming with a still-set token makes progress rather
    /// than spinning. The thread pool is rebuilt from the current
    /// config's thread count — the outcome is thread-count independent,
    /// so pausing on one pool size and resuming on another is safe.
    ///
    /// # Errors
    ///
    /// Returns [`OptimError::InvalidConfig`] when the checkpoint was
    /// taken under a different [`SearchConfig`], plus the failure modes
    /// of [`MappingSearch::run`].
    pub fn resume(&self, checkpoint: Box<SearchCheckpoint>) -> Result<SearchRun, OptimError> {
        // The execution knobs (`parallel`, `threads`) are excluded from
        // the guard: they never affect results, so a checkpoint may be
        // resumed on any pool size.
        let comparable = |config: &SearchConfig| SearchConfig {
            parallel: false,
            threads: None,
            ..*config
        };
        if comparable(&checkpoint.config) != comparable(&self.config) {
            return Err(OptimError::InvalidConfig {
                reason: "checkpoint was taken under a different search configuration".to_string(),
            });
        }
        self.drive(true, true, Some(checkpoint))
    }

    /// The shared generation loop. `memoize` selects the evaluation path:
    /// the memoized fast path or the evaluate-everything reference.
    /// `resumable` arms the pause boundary (only the memoized path is
    /// ever driven resumably), and `from` continues a paused run instead
    /// of building the initial population. Everything else — RNG stream,
    /// budget trimming, stall handling, elite selection, breeding — is
    /// common, so the paths cannot drift apart in loop semantics.
    fn drive(
        &self,
        memoize: bool,
        resumable: bool,
        from: Option<Box<SearchCheckpoint>>,
    ) -> Result<SearchRun, OptimError> {
        self.config.validate()?;
        let network = self.evaluator.network();
        let platform = self.evaluator.platform();

        // Loop state: fresh, or exactly where the checkpoint left off.
        // The checkpoint was taken at a generation boundary — population
        // bred, RNG advanced past the breeding draws — so restoring it
        // and continuing the loop replays the uninterrupted run's
        // remaining generations bit-identically.
        let start_generation;
        let mut rng;
        let mut population: Vec<Arc<Genome>>;
        let mut warm_start_seeds;
        let mut archive: Vec<EvaluatedConfig>;
        let mut memo: HashMap<u64, MemoEntry>;
        let mut known: HashMap<usize, (Arc<Genome>, u64)>;
        let mut evaluations_performed;
        let mut memo_hits;
        let mut best_objective;
        let mut stalled_generations;
        if let Some(checkpoint) = from {
            let checkpoint = *checkpoint;
            start_generation = checkpoint.next_generation;
            rng = checkpoint.rng;
            population = checkpoint.population;
            warm_start_seeds = checkpoint.warm_start_seeds;
            archive = checkpoint.archive;
            memo = checkpoint.memo;
            known = checkpoint.known;
            evaluations_performed = checkpoint.evaluations_performed;
            memo_hits = checkpoint.memo_hits;
            best_objective = checkpoint.best_objective;
            stalled_generations = checkpoint.stalled_generations;
        } else {
            start_generation = 0;
            rng = StdRng::seed_from_u64(self.config.seed);
            // Initial population: the balanced default, then (warm start
            // only) the compatible seed genomes, then random genomes.
            population = vec![Arc::new(Genome::balanced(network, platform))];
            warm_start_seeds = 0usize;
            if self.config.warm_start {
                let mut seen: Vec<u64> = population.iter().map(|g| g.fingerprint()).collect();
                for seed in &self.seeds {
                    if population.len() >= self.config.population_size {
                        break;
                    }
                    if !seed.is_valid()
                        || seed.num_stages() != platform.num_compute_units()
                        || seed.num_layers() != network.num_layers()
                        || seed.partitionable_layers() != network.partitionable_layers()
                    {
                        continue;
                    }
                    let fingerprint = seed.fingerprint();
                    if seen.contains(&fingerprint) {
                        continue;
                    }
                    seen.push(fingerprint);
                    population.push(Arc::clone(seed));
                    warm_start_seeds += 1;
                }
            }
            while population.len() < self.config.population_size {
                population.push(Arc::new(Genome::random(network, platform, &mut rng)));
            }
            archive = Vec::new();
            memo = HashMap::new();
            known = HashMap::new();
            evaluations_performed = 0usize;
            memo_hits = 0usize;
            best_objective = f64::INFINITY;
            stalled_generations = 0usize;
        }

        let elite_count = ((self.config.population_size as f64 * self.config.elite_fraction).ceil()
            as usize)
            .clamp(1, self.config.population_size);
        // One pool for the whole run — per-generation construction would
        // churn worker threads on every generation under real rayon.
        let pool = if self.config.parallel {
            Some(
                rayon::ThreadPoolBuilder::new()
                    .num_threads(self.config.threads.unwrap_or(0))
                    .build()
                    .map_err(|e| OptimError::InvalidConfig {
                        reason: format!("cannot build evaluation thread pool: {e}"),
                    })?,
            )
        } else {
            None
        };
        let mut early_stopped = false;
        let mut partial = false;
        let mut generations_run = start_generation;

        for generation in start_generation..self.config.generations {
            // The anytime boundary: one deadline/cancel probe per
            // generation, before any of its work and without touching the
            // RNG stream. The first generation always runs so an
            // already-expired deadline still yields a non-empty front.
            if generation > 0 && self.interrupted() {
                partial = true;
                early_stopped = true;
                break;
            }
            // The preemption boundary, directly after (cancel wins over
            // pause): checkpoint everything and hand the loop state back.
            // At least one generation runs per drive — `generation >
            // start_generation` — so a pause token that is never cleared
            // still makes progress on every resume.
            if resumable && generation > start_generation && self.pause_requested() {
                return Ok(SearchRun::Paused(Box::new(SearchCheckpoint {
                    config: self.config,
                    population,
                    archive,
                    memo,
                    known,
                    rng,
                    next_generation: generation,
                    evaluations_performed,
                    memo_hits,
                    warm_start_seeds,
                    best_objective,
                    stalled_generations,
                })));
            }
            // Respect the evaluation budget: trim the final generation so
            // the search performs exactly `max_evaluations` evaluations.
            // (The post-evaluation break below guarantees at least one
            // evaluation remains when an iteration starts.)
            let mut candidates: &[Arc<Genome>] = &population;
            if let Some(budget) = self.config.max_evaluations {
                let remaining = budget.saturating_sub(archive.len());
                if remaining < candidates.len() {
                    candidates = &population[..remaining];
                }
            }
            let fresh_before = evaluations_performed;
            let memo_before = memo_hits;

            let evaluated = if memoize {
                self.evaluate_generation_memoized(
                    candidates,
                    generation,
                    pool.as_ref(),
                    &mut memo,
                    &mut known,
                    &mut evaluations_performed,
                    &mut memo_hits,
                )?
            } else {
                let fresh =
                    self.evaluate_generation_reference(candidates, generation, pool.as_ref())?;
                evaluations_performed += fresh.len();
                fresh
            };
            generations_run = generation + 1;
            let generation_start = archive.len();
            if memoize {
                // The generation's records move into the archive — the
                // stall check and elite selection below read the archive
                // tail, so nothing is cloned on the way in.
                archive.extend(evaluated);
            } else {
                // The pre-fast-path loop archived independent copies;
                // reproduce its per-candidate allocation behaviour so the
                // benchmark baseline stays honest.
                archive.extend(evaluated.into_iter().map(|c| EvaluatedConfig {
                    genome: Arc::new((*c.genome).clone()),
                    config: Arc::new((*c.config).clone()),
                    result: Arc::new((*c.result).clone()),
                    generation: c.generation,
                }));
            }
            let evaluated = &archive[generation_start..];

            let budget_exhausted = self
                .config
                .max_evaluations
                .is_some_and(|budget| archive.len() >= budget);

            // Early stop when the best feasible objective stops improving.
            // A budget-exhausted final generation breaks before the stall
            // bookkeeping, so none of it runs in that case.
            let mut stall_stop = false;
            if !budget_exhausted {
                let generation_best = || {
                    evaluated
                        .iter()
                        .filter(|c| c.result.feasible)
                        .map(|c| c.result.objective)
                        .fold(f64::INFINITY, f64::min)
                };
                if let Some(window) = self.config.stall_generations {
                    let generation_best = generation_best();
                    if generation_best < best_objective - 1e-12 {
                        best_objective = generation_best;
                        stalled_generations = 0;
                    } else if best_objective.is_finite() {
                        // Only count stall once a feasible candidate exists:
                        // a constrained search that has not reached the
                        // feasible region yet is exploring, not converged.
                        stalled_generations += 1;
                        if stalled_generations >= window {
                            stall_stop = true;
                        }
                    }
                } else if self.sink.is_some() {
                    // No stall stopping configured: track the running best
                    // for the telemetry stream only (pure observation, no
                    // effect on the search).
                    best_objective = best_objective.min(generation_best());
                }
            }

            let stopping = budget_exhausted || stall_stop;
            // Selection runs before the telemetry event so the event can
            // reuse the dominance partition Pareto-crowding selection
            // ranks anyway — the per-generation event then costs a few
            // counter bumps and a ring push, not a second front sort. A
            // stopping generation selects nothing, and rank-based
            // selection never partitions, so those fall back to a direct
            // scan.
            let (elites, front_stats) = if stopping {
                (Vec::new(), None)
            } else {
                select_elites(evaluated, self.config.selection, elite_count)
            };

            if let Some(sink) = self.sink {
                let (feasible, front_size) =
                    front_stats.unwrap_or_else(|| generation_front_stats(evaluated));
                sink.on_generation(GenerationEvent {
                    generation,
                    scheduled: evaluated.len(),
                    fresh_evaluations: evaluations_performed - fresh_before,
                    memo_hits: memo_hits - memo_before,
                    evaluations_total: archive.len(),
                    feasible,
                    front_size,
                    best_objective: best_objective.is_finite().then_some(best_objective),
                    stalled_generations,
                });
            }

            if stopping {
                early_stopped = generations_run < self.config.generations;
                break;
            }

            // The pre-fast-path loop cloned each elite genome out of the
            // evaluated generation at selection time; reproduce that copy
            // so the baseline's allocation behaviour stays honest. (The
            // fast path shares the archive's `Arc`s instead.)
            let elites: Vec<Arc<Genome>> = if memoize {
                elites
            } else {
                elites
                    .iter()
                    .map(|genome| Arc::new((**genome).clone()))
                    .collect()
            };

            // Next generation: elites survive, the rest are children. The
            // pre-fast-path loop deep-cloned the elites into the next
            // population; the fast path clones `Arc`s.
            let mut next: Vec<Arc<Genome>> = if memoize {
                elites.clone()
            } else {
                elites
                    .iter()
                    .map(|genome| Arc::new((**genome).clone()))
                    .collect()
            };
            while next.len() < self.config.population_size {
                let parent_a = &elites[rng.random_range(0..elites.len())];
                let mut child =
                    if rng.random::<f64>() < self.config.crossover_rate && elites.len() > 1 {
                        let parent_b = &elites[rng.random_range(0..elites.len())];
                        crossover(parent_a, parent_b, &mut rng)
                    } else {
                        (**parent_a).clone()
                    };
                mutate(&mut child, &self.config.mutation, &mut rng);
                next.push(Arc::new(child));
            }
            population = next;
        }

        Ok(SearchRun::Complete(SearchOutcome {
            memo_hits: archive.len() - evaluations_performed,
            archive,
            generations_run,
            early_stopped,
            partial,
            evaluations_performed,
            warm_start_seeds,
        }))
    }

    /// Whether the anytime boundary should stop the loop: the cancel
    /// token fired or the wall-clock deadline passed. Free of side
    /// effects — with neither configured this is two `None` checks.
    fn interrupted(&self) -> bool {
        self.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
            || self
                .deadline
                .is_some_and(|deadline| Instant::now() >= deadline)
    }

    /// Whether a preemption pause was requested (free of side effects;
    /// a single `None` check when no token is attached).
    fn pause_requested(&self) -> bool {
        self.pause.as_ref().is_some_and(PauseToken::is_paused)
    }

    /// Evaluates one generation through the within-run memo: previously
    /// seen genomes (and within-generation duplicates) replay their
    /// memoised evaluation, only first occurrences reach the evaluator —
    /// in population order, through an ordered parallel map, so the
    /// outcome is independent of the thread count.
    #[allow(clippy::too_many_arguments)]
    fn evaluate_generation_memoized(
        &self,
        candidates: &[Arc<Genome>],
        generation: usize,
        pool: Option<&rayon::ThreadPool>,
        memo: &mut HashMap<u64, MemoEntry>,
        known: &mut HashMap<usize, (Arc<Genome>, u64)>,
        evaluations_performed: &mut usize,
        memo_hits: &mut usize,
    ) -> Result<Vec<EvaluatedConfig>, OptimError> {
        let fingerprints: Vec<u64> = candidates
            .iter()
            .map(|genome| {
                let pointer = Arc::as_ptr(genome) as usize;
                match known.get(&pointer) {
                    Some((_, fingerprint)) => *fingerprint,
                    None => {
                        let fingerprint = genome.fingerprint();
                        known.insert(pointer, (Arc::clone(genome), fingerprint));
                        fingerprint
                    }
                }
            })
            .collect();

        // Candidate indices that need a fresh evaluation: not memoised,
        // and not a duplicate of an earlier candidate in this generation.
        // (A fingerprint match is only a hit when the genomes are equal —
        // collisions are always evaluated and never overwrite the memo.
        // The pointer check short-circuits the comparison for elites,
        // which re-enter as clones of the very allocation the memo holds.)
        let mut fresh: Vec<usize> = Vec::new();
        let mut first_occurrence: HashMap<u64, usize> = HashMap::new();
        for (index, (genome, fingerprint)) in candidates.iter().zip(&fingerprints).enumerate() {
            if let Some(entry) = memo.get(fingerprint) {
                if !Arc::ptr_eq(&entry.genome, genome) && *entry.genome != **genome {
                    fresh.push(index);
                }
                continue;
            }
            match first_occurrence.get(fingerprint) {
                Some(&first) if *candidates[first] == **genome => {}
                Some(_) => fresh.push(index),
                None => {
                    first_occurrence.insert(*fingerprint, index);
                    fresh.push(index);
                }
            }
        }

        let results = self.evaluate_indices(candidates, &fresh, pool)?;

        let mut fresh_results: Vec<Option<EvaluatedPair>> =
            (0..candidates.len()).map(|_| None).collect();
        for (&index, (config, result)) in fresh.iter().zip(results) {
            memo.entry(fingerprints[index])
                .or_insert_with(|| MemoEntry {
                    genome: Arc::clone(&candidates[index]),
                    config: Arc::clone(&config),
                    result: Arc::clone(&result),
                });
            fresh_results[index] = Some((config, result));
        }

        let mut evaluated = Vec::with_capacity(candidates.len());
        for (index, (genome, fingerprint)) in candidates.iter().zip(&fingerprints).enumerate() {
            let (config, result) = match fresh_results[index].take() {
                Some(pair) => {
                    *evaluations_performed += 1;
                    pair
                }
                None => {
                    let entry = memo
                        .get(fingerprint)
                        .expect("memo holds every non-fresh candidate");
                    debug_assert_eq!(*entry.genome, **genome, "memo hit on unequal genome");
                    *memo_hits += 1;
                    (Arc::clone(&entry.config), Arc::clone(&entry.result))
                }
            };
            evaluated.push(EvaluatedConfig {
                genome: Arc::clone(genome),
                config,
                result,
                generation,
            });
        }
        Ok(evaluated)
    }

    /// Evaluates one generation the pre-fast-path way: every candidate
    /// through [`ConfigEvaluator::evaluate_genome_reference`] (decode +
    /// full transform), no memo, and an independent genome copy per
    /// evaluated record — the allocation behaviour of the pre-fast-path
    /// loop.
    fn evaluate_generation_reference(
        &self,
        candidates: &[Arc<Genome>],
        generation: usize,
        pool: Option<&rayon::ThreadPool>,
    ) -> Result<Vec<EvaluatedConfig>, OptimError> {
        let evaluate = |genome: &Arc<Genome>| -> Result<EvaluatedConfig, OptimError> {
            let (config, result) = self.evaluator.evaluate_genome_reference(genome)?;
            Ok(EvaluatedConfig {
                genome: Arc::new((**genome).clone()),
                config,
                result,
                generation,
            })
        };
        let (Some(pool), true) = (pool, candidates.len() >= 4) else {
            return candidates.iter().map(evaluate).collect();
        };
        pool.install(|| {
            candidates
                .par_iter()
                .map(evaluate)
                .collect::<Result<Vec<_>, OptimError>>()
        })
    }

    /// Evaluates `indices` into `candidates` through the evaluation
    /// hook, optionally across threads. The parallel path maps through a
    /// rayon-style ordered parallel iterator: results come back in index
    /// order and the evaluation hook is pure, so the outcome is
    /// bit-identical to the sequential path for any thread count.
    fn evaluate_indices(
        &self,
        candidates: &[Arc<Genome>],
        indices: &[usize],
        pool: Option<&rayon::ThreadPool>,
    ) -> Result<Vec<EvaluatedPair>, OptimError> {
        let (Some(pool), true) = (pool, indices.len() >= 4) else {
            return indices
                .iter()
                .map(|&i| self.evaluator.evaluate_genome(&candidates[i]))
                .collect();
        };
        pool.install(|| {
            indices
                .par_iter()
                .map(|&i| self.evaluator.evaluate_genome(&candidates[i]))
                .collect::<Result<Vec<_>, OptimError>>()
        })
    }
}

/// The objective vector the search selects on: average energy, average
/// latency, accuracy drop.
fn objective_point(candidate: &EvaluatedConfig) -> [f64; 3] {
    [
        candidate.result.average_energy_mj,
        candidate.result.average_latency_ms,
        candidate.result.accuracy_drop,
    ]
}

/// Feasibility count and non-dominated-front size of one generation, in
/// the same objective space selection ranks on. Only consulted when elite
/// selection did not already produce the partition (a stopping
/// generation, or rank-based selection); the scan is quadratic but
/// allocation-free, and a generation holds at most `population_size`
/// points.
fn generation_front_stats(evaluated: &[EvaluatedConfig]) -> (usize, usize) {
    let mut feasible = 0usize;
    let mut front_size = 0usize;
    for (index, candidate) in evaluated.iter().enumerate() {
        if !candidate.result.feasible {
            continue;
        }
        feasible += 1;
        let point = objective_point(candidate);
        let dominated = evaluated.iter().enumerate().any(|(other, c)| {
            other != index && c.result.feasible && dominates(&objective_point(c), &point)
        });
        if !dominated {
            front_size += 1;
        }
    }
    (feasible, front_size)
}

/// Elite selection over one evaluated generation. Shared by the memoized
/// and reference loops; all comparators are `total_cmp`-based, so the
/// ordering is deterministic even if a NaN objective ever slips in.
///
/// Alongside the elites, returns the generation's `(feasible, front_size)`
/// pair when the strategy computed the dominance partition anyway
/// (Pareto crowding), so the telemetry stream can report it without a
/// second pass; rank-based selection returns `None`.
fn select_elites(
    evaluated: &[EvaluatedConfig],
    strategy: SelectionStrategy,
    elite_count: usize,
) -> (Vec<Arc<Genome>>, Option<(usize, usize)>) {
    match strategy {
        SelectionStrategy::ObjectiveElitism => {
            // Feasible candidates first, then by the scalar objective.
            let mut ranked: Vec<&EvaluatedConfig> = evaluated.iter().collect();
            ranked.sort_by(|a, b| {
                (!a.result.feasible)
                    .cmp(&!b.result.feasible)
                    .then_with(|| a.result.objective.total_cmp(&b.result.objective))
            });
            let elites = ranked
                .iter()
                .take(elite_count)
                .map(|c| Arc::clone(&c.genome))
                .collect();
            (elites, None)
        }
        SelectionStrategy::ParetoCrowding => select_by_pareto_crowding(evaluated, elite_count),
    }
}

/// NSGA-II-style elite selection over (average energy, average latency,
/// accuracy drop): walk the non-dominated fronts of the feasible candidates,
/// breaking ties inside the last partially-taken front by crowding distance.
/// Infeasible candidates are only used to pad out the elite set when there
/// are not enough feasible ones. Objectives live in flat `[f64; 3]` rows —
/// no per-generation `Vec<Vec<f64>>` — and the fronts come from the
/// dominance-count fast sort.
fn select_by_pareto_crowding(
    evaluated: &[EvaluatedConfig],
    elite_count: usize,
) -> (Vec<Arc<Genome>>, Option<(usize, usize)>) {
    let feasible: Vec<&EvaluatedConfig> = evaluated.iter().filter(|c| c.result.feasible).collect();
    let points: Vec<[f64; 3]> = feasible.iter().map(|c| objective_point(c)).collect();
    let fronts = non_dominated_fronts(&points);
    let front_stats = Some((feasible.len(), fronts.first().map_or(0, Vec::len)));
    let mut elites: Vec<Arc<Genome>> = Vec::with_capacity(elite_count);
    for front in fronts {
        if elites.len() >= elite_count {
            break;
        }
        let remaining = elite_count - elites.len();
        if front.len() <= remaining {
            elites.extend(front.iter().map(|&i| Arc::clone(&feasible[i].genome)));
        } else {
            // Partial front: prefer the most isolated candidates.
            let front_points: Vec<[f64; 3]> = front.iter().map(|&i| points[i]).collect();
            let distances = crowding_distance(&front_points);
            let mut order: Vec<usize> = (0..front.len()).collect();
            order.sort_by(|&a, &b| distances[b].total_cmp(&distances[a]));
            elites.extend(
                order
                    .into_iter()
                    .take(remaining)
                    .map(|k| Arc::clone(&feasible[front[k]].genome)),
            );
        }
    }
    // Pad with the least-violating infeasible candidates if necessary.
    if elites.len() < elite_count {
        let mut infeasible: Vec<&EvaluatedConfig> =
            evaluated.iter().filter(|c| !c.result.feasible).collect();
        infeasible.sort_by_key(|c| c.result.violations.len());
        elites.extend(
            infeasible
                .into_iter()
                .take(elite_count - elites.len())
                .map(|c| Arc::clone(&c.genome)),
        );
    }
    if elites.is_empty() {
        // Degenerate case: keep whatever was evaluated first.
        elites.extend(
            evaluated
                .iter()
                .take(elite_count)
                .map(|c| Arc::clone(&c.genome)),
        );
    }
    (elites, front_stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnc_core::{Constraints, EvaluatorBuilder};
    use mnc_mpsoc::{CuId, Platform};
    use mnc_nn::models::{visformer_tiny, ModelPreset};
    use mnc_telemetry::GenerationBuffer;
    use proptest::prelude::*;

    fn evaluator(constraints: Constraints) -> Evaluator {
        EvaluatorBuilder::new(
            visformer_tiny(ModelPreset::cifar100()),
            Platform::dual_test(),
        )
        .validation_samples(1000)
        .constraints(constraints)
        .build()
        .unwrap()
    }

    #[test]
    fn config_validation_catches_bad_parameters() {
        assert!(SearchConfig::paper().validate().is_ok());
        assert!(SearchConfig::fast().validate().is_ok());
        assert!(SearchConfig {
            generations: 0,
            ..SearchConfig::fast()
        }
        .validate()
        .is_err());
        assert!(SearchConfig {
            population_size: 1,
            ..SearchConfig::fast()
        }
        .validate()
        .is_err());
        assert!(SearchConfig {
            elite_fraction: 0.0,
            ..SearchConfig::fast()
        }
        .validate()
        .is_err());
        assert!(SearchConfig {
            crossover_rate: 1.5,
            ..SearchConfig::fast()
        }
        .validate()
        .is_err());
        assert_eq!(SearchConfig::default(), SearchConfig::paper());
        assert!(!SearchConfig::default().warm_start);
    }

    #[test]
    fn search_produces_an_archive_and_a_pareto_front() {
        let evaluator = evaluator(Constraints::default());
        let config = SearchConfig {
            generations: 4,
            population_size: 10,
            ..SearchConfig::fast()
        };
        let outcome = MappingSearch::new(&evaluator, config).run().unwrap();
        assert_eq!(outcome.evaluations(), 40);
        assert_eq!(outcome.generations_run(), 4);
        assert!(!outcome.feasible().is_empty());
        let front = outcome.pareto_front();
        assert!(!front.is_empty());
        assert!(outcome.best_by_objective().is_some());
        assert!(outcome.energy_oriented(0.05).is_some());
        assert!(outcome.latency_oriented(0.05).is_some());
        // The elites of generations 1..3 replay from the memo.
        assert!(outcome.memo_hits() > 0);
        assert_eq!(
            outcome.evaluations_performed() + outcome.memo_hits(),
            outcome.evaluations()
        );
        assert_eq!(outcome.warm_start_seeds(), 0);
    }

    #[test]
    fn oriented_picks_filter_by_drop_before_minimising() {
        // Three feasible points (energy, latency, drop): `a` dominates
        // `b` on energy/latency but is over a 5% drop budget, so `b`
        // is the constrained optimum while the 2-D front holds only `a`.
        let evaluator = evaluator(Constraints::default());
        let genome = Arc::new(Genome::random(
            evaluator.network(),
            evaluator.platform(),
            &mut StdRng::seed_from_u64(3),
        ));
        let (config, template) = evaluator.evaluate_genome(&genome).unwrap();
        let point = |energy: f64, latency: f64, drop: f64| {
            let mut result = (*template).clone();
            result.feasible = true;
            result.average_energy_mj = energy;
            result.average_latency_ms = latency;
            result.accuracy_drop = drop;
            EvaluatedConfig {
                genome: Arc::clone(&genome),
                config: Arc::clone(&config),
                result: Arc::new(result),
                generation: 0,
            }
        };
        let outcome = SearchOutcome {
            archive: vec![
                point(1.0, 1.0, 0.09),
                point(2.0, 3.0, 0.03),
                point(3.0, 2.0, 0.04),
            ],
            generations_run: 1,
            early_stopped: false,
            partial: false,
            evaluations_performed: 3,
            memo_hits: 0,
            warm_start_seeds: 0,
        };
        assert_eq!(outcome.pareto_front().len(), 1);
        let energy = outcome.energy_oriented(0.05).expect("b is within budget");
        assert_eq!(energy.result.average_energy_mj, 2.0);
        let latency = outcome.latency_oriented(0.05).expect("c is within budget");
        assert_eq!(latency.result.average_latency_ms, 2.0);
        assert!(outcome.energy_oriented(0.01).is_none());
        assert_eq!(
            outcome.energy_oriented(0.10).unwrap().result.accuracy_drop,
            0.09
        );
    }

    #[test]
    fn search_is_deterministic_for_a_seed() {
        let evaluator = evaluator(Constraints::default());
        let config = SearchConfig {
            generations: 3,
            population_size: 8,
            ..SearchConfig::fast()
        };
        let a = MappingSearch::new(&evaluator, config).run().unwrap();
        let b = MappingSearch::new(&evaluator, config).run().unwrap();
        assert_eq!(a.archive().len(), b.archive().len());
        for (x, y) in a.archive().iter().zip(b.archive()) {
            assert_eq!(x.genome, y.genome);
        }
    }

    #[test]
    fn parallel_and_serial_evaluation_agree() {
        let evaluator = evaluator(Constraints::default());
        let serial = SearchConfig {
            generations: 2,
            population_size: 8,
            parallel: false,
            ..SearchConfig::fast()
        };
        let parallel = SearchConfig {
            parallel: true,
            ..serial
        };
        let a = MappingSearch::new(&evaluator, serial).run().unwrap();
        let b = MappingSearch::new(&evaluator, parallel).run().unwrap();
        for (x, y) in a.archive().iter().zip(b.archive()) {
            assert_eq!(x.genome, y.genome);
            assert_eq!(x.result, y.result);
        }
    }

    #[test]
    fn search_improves_over_the_initial_generation() {
        let evaluator = evaluator(Constraints::default());
        let config = SearchConfig {
            generations: 8,
            population_size: 16,
            ..SearchConfig::fast()
        };
        let outcome = MappingSearch::new(&evaluator, config).run().unwrap();
        let first_gen_best = outcome
            .archive()
            .iter()
            .filter(|c| c.generation == 0 && c.result.feasible)
            .map(|c| c.result.objective)
            .fold(f64::INFINITY, f64::min);
        let overall_best = outcome.best_by_objective().unwrap().result.objective;
        assert!(overall_best <= first_gen_best);
    }

    #[test]
    fn stall_window_does_not_trigger_before_a_feasible_candidate_exists() {
        // Every candidate is infeasible (no feature-map reuse allowed but
        // genomes always forward something), so the best objective never
        // becomes finite. The stall window must not fire while the search
        // is still hunting for the feasible region.
        let evaluator = evaluator(Constraints::with_fmap_reuse_limit(0.0));
        let config = SearchConfig {
            generations: 4,
            population_size: 8,
            stall_generations: Some(1),
            ..SearchConfig::fast()
        };
        let outcome = MappingSearch::new(&evaluator, config).run().unwrap();
        assert_eq!(outcome.generations_run(), 4);
        assert!(!outcome.early_stopped());
        assert!(outcome.feasible().is_empty());
    }

    #[test]
    fn fmap_constraint_limits_the_selected_configurations() {
        let evaluator = evaluator(Constraints::with_fmap_reuse_limit(0.5));
        let config = SearchConfig {
            generations: 6,
            population_size: 16,
            ..SearchConfig::fast()
        };
        let outcome = MappingSearch::new(&evaluator, config).run().unwrap();
        for candidate in outcome.feasible() {
            assert!(candidate.result.fmap_reuse <= 0.5 + 1e-9);
        }
    }

    #[test]
    fn pareto_crowding_selection_runs_and_yields_a_broader_front() {
        let evaluator = evaluator(Constraints::default());
        let scalar = SearchConfig {
            generations: 6,
            population_size: 16,
            selection: SelectionStrategy::ObjectiveElitism,
            ..SearchConfig::fast()
        };
        let nsga = SearchConfig {
            selection: SelectionStrategy::ParetoCrowding,
            ..scalar
        };
        let scalar_outcome = MappingSearch::new(&evaluator, scalar).run().unwrap();
        let nsga_outcome = MappingSearch::new(&evaluator, nsga).run().unwrap();
        assert_eq!(nsga_outcome.evaluations(), scalar_outcome.evaluations());
        assert!(!nsga_outcome.pareto_front().is_empty());
        // The multi-objective selection keeps at least as diverse a front
        // (it never collapses onto a single scalar optimum).
        assert!(!nsga_outcome.pareto_front().is_empty());
        assert!(nsga_outcome.best_by_objective().is_some());
    }

    #[test]
    fn search_finds_configurations_dominating_single_cu_baselines() {
        // The headline claim of the paper, in miniature: there exists a
        // found configuration that is simultaneously more energy-efficient
        // than the GPU-only mapping and faster than the DLA-only mapping.
        let evaluator = evaluator(Constraints::default());
        let gpu = evaluator.baseline_single_cu(CuId(0)).unwrap();
        let dla = evaluator.baseline_single_cu(CuId(1)).unwrap();
        let config = SearchConfig {
            generations: 10,
            population_size: 20,
            ..SearchConfig::fast()
        };
        let outcome = MappingSearch::new(&evaluator, config).run().unwrap();
        let dominating = outcome.feasible().into_iter().any(|c| {
            c.result.average_energy_mj < gpu.energy_mj
                && c.result.average_latency_ms < dla.latency_ms
        });
        assert!(dominating, "no configuration beats both baselines");
    }

    /// Exhaustive bit-identity check of two outcomes.
    fn assert_outcomes_bit_identical(fast: &SearchOutcome, reference: &SearchOutcome) {
        assert_eq!(fast.archive().len(), reference.archive().len());
        for (a, b) in fast.archive().iter().zip(reference.archive()) {
            assert_eq!(a.genome, b.genome);
            assert_eq!(a.config, b.config);
            assert_eq!(a.generation, b.generation);
            assert_eq!(a.result, b.result);
            assert_eq!(a.result.objective.to_bits(), b.result.objective.to_bits());
            assert_eq!(
                a.result.average_energy_mj.to_bits(),
                b.result.average_energy_mj.to_bits()
            );
            assert_eq!(
                a.result.average_latency_ms.to_bits(),
                b.result.average_latency_ms.to_bits()
            );
        }
        assert_eq!(fast.generations_run(), reference.generations_run());
        assert_eq!(fast.early_stopped(), reference.early_stopped());
        assert_eq!(fast.partial(), reference.partial());
        assert_eq!(fast.pareto_front(), reference.pareto_front());
        assert_eq!(fast.best_by_objective(), reference.best_by_objective());
    }

    #[test]
    fn memoized_run_never_reevaluates_a_genome() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        /// Counts evaluator calls and remembers every genome fingerprint
        /// it ever evaluated — a repeat proves the memo leaked.
        struct CountingEvaluator {
            inner: Evaluator,
            calls: AtomicUsize,
            seen: std::sync::Mutex<std::collections::HashSet<u64>>,
            repeats: AtomicUsize,
        }
        impl ConfigEvaluator for CountingEvaluator {
            fn network(&self) -> &mnc_nn::Network {
                ConfigEvaluator::network(&self.inner)
            }
            fn platform(&self) -> &Platform {
                ConfigEvaluator::platform(&self.inner)
            }
            fn evaluate_genome(
                &self,
                genome: &Genome,
            ) -> Result<(Arc<MappingConfig>, Arc<EvaluationResult>), OptimError> {
                self.calls.fetch_add(1, Ordering::Relaxed);
                if !self.seen.lock().unwrap().insert(genome.fingerprint()) {
                    self.repeats.fetch_add(1, Ordering::Relaxed);
                }
                self.inner.evaluate_genome(genome)
            }
        }

        let counting = CountingEvaluator {
            inner: evaluator(Constraints::default()),
            calls: AtomicUsize::new(0),
            seen: std::sync::Mutex::new(std::collections::HashSet::new()),
            repeats: AtomicUsize::new(0),
        };
        let config = SearchConfig {
            generations: 6,
            population_size: 12,
            ..SearchConfig::fast()
        };
        let outcome = MappingSearch::new(&counting, config).run().unwrap();
        assert_eq!(
            counting.calls.load(Ordering::Relaxed),
            outcome.evaluations_performed()
        );
        assert_eq!(counting.repeats.load(Ordering::Relaxed), 0);
        assert!(outcome.memo_hits() > 0, "elite replays should hit the memo");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// The tentpole property: the memoized fast path is bit-identical
        /// to the pre-fast-path reference loop for random seeds × budgets
        /// × thread counts, with and without parallel evaluation.
        #[test]
        fn prop_memoized_run_matches_reference(
            seed in 0u64..1_000_000,
            generations in 2usize..5,
            population in 6usize..14,
            threads in 1usize..5,
        ) {
            let evaluator = evaluator(Constraints::default());
            let base = SearchConfig {
                generations,
                population_size: population,
                seed,
                ..SearchConfig::fast()
            };
            let parallel = SearchConfig {
                parallel: true,
                threads: Some(threads),
                ..base
            };
            let reference = MappingSearch::new(&evaluator, base).run_reference().unwrap();
            let fast_serial = MappingSearch::new(&evaluator, base).run().unwrap();
            let fast_parallel = MappingSearch::new(&evaluator, parallel).run().unwrap();
            assert_outcomes_bit_identical(&fast_serial, &reference);
            assert_outcomes_bit_identical(&fast_parallel, &reference);

            // Telemetry observes without perturbing: the same run with a
            // sink attached is bit-identical, and its generation stream
            // adds up to the outcome's totals.
            let buffer = GenerationBuffer::new();
            let fast_observed = MappingSearch::new(&evaluator, base)
                .with_telemetry(&buffer)
                .run()
                .unwrap();
            assert_outcomes_bit_identical(&fast_observed, &reference);
            let events = buffer.take();
            prop_assert_eq!(events.len(), fast_observed.generations_run());
            prop_assert_eq!(
                events.iter().map(|e| e.scheduled).sum::<usize>(),
                fast_observed.evaluations()
            );
            prop_assert_eq!(
                events.iter().map(|e| e.fresh_evaluations).sum::<usize>(),
                fast_observed.evaluations_performed()
            );
            prop_assert_eq!(
                events.iter().map(|e| e.memo_hits).sum::<usize>(),
                fast_observed.memo_hits()
            );
            prop_assert_eq!(
                events.last().map(|e| e.evaluations_total),
                Some(fast_observed.evaluations())
            );
            prop_assert_eq!(
                fast_serial.evaluations_performed() + fast_serial.memo_hits(),
                fast_serial.evaluations()
            );
            prop_assert_eq!(
                fast_serial.evaluations_performed(),
                fast_parallel.evaluations_performed()
            );
            prop_assert!(fast_serial.evaluations_performed() <= reference.evaluations());
        }
    }

    #[test]
    fn memoized_run_matches_reference_with_pareto_crowding_and_budget() {
        let evaluator = evaluator(Constraints::default());
        let config = SearchConfig {
            generations: 5,
            population_size: 12,
            selection: SelectionStrategy::ParetoCrowding,
            max_evaluations: Some(50),
            stall_generations: Some(2),
            ..SearchConfig::fast()
        };
        let fast = MappingSearch::new(&evaluator, config).run().unwrap();
        let reference = MappingSearch::new(&evaluator, config)
            .run_reference()
            .unwrap();
        assert_outcomes_bit_identical(&fast, &reference);
        // Whichever fires first — the trimmed budget or the stall window —
        // both paths agree on it.
        assert!(fast.evaluations() <= 50);
        assert!(fast.early_stopped());
    }

    #[test]
    fn warm_start_seeds_join_the_initial_population() {
        let evaluator = evaluator(Constraints::default());
        let cold_config = SearchConfig {
            generations: 4,
            population_size: 10,
            ..SearchConfig::fast()
        };
        let cold = MappingSearch::new(&evaluator, cold_config).run().unwrap();
        let seeds: Vec<Arc<Genome>> = cold
            .pareto_front()
            .into_iter()
            .map(|c| Arc::clone(&c.genome))
            .collect();
        assert!(!seeds.is_empty());

        let warm_config = SearchConfig {
            seed: 99,
            warm_start: true,
            ..cold_config
        };
        let warm = MappingSearch::new(&evaluator, warm_config)
            .with_seeds(seeds.clone())
            .run()
            .unwrap();
        assert!(warm.warm_start_seeds() > 0);
        assert!(warm.warm_start_seeds() <= seeds.len());
        // The (non-duplicate) seeds are scheduled in generation 0, right
        // after the balanced default. (The balanced genome is often on the
        // cold front itself, in which case it is deduplicated away rather
        // than scheduled twice.)
        let seed_fingerprints: Vec<u64> = seeds.iter().map(|g| g.fingerprint()).collect();
        for entry in warm.archive().iter().skip(1).take(warm.warm_start_seeds()) {
            assert!(seed_fingerprints.contains(&entry.genome.fingerprint()));
        }
        // Warm start can only improve on the seeds it was given: the best
        // seed objective is an upper bound on the warm best.
        let best_seed_objective = cold
            .pareto_front()
            .iter()
            .filter(|c| c.result.feasible)
            .map(|c| c.result.objective)
            .fold(f64::INFINITY, f64::min);
        let warm_best = warm.best_by_objective().unwrap().result.objective;
        assert!(warm_best <= best_seed_objective);

        // Without the flag, the same seeds are ignored and the outcome is
        // bit-identical to a seedless run.
        let off_config = SearchConfig {
            warm_start: false,
            ..warm_config
        };
        let ignored = MappingSearch::new(&evaluator, off_config)
            .with_seeds(seeds)
            .run()
            .unwrap();
        let plain = MappingSearch::new(&evaluator, off_config).run().unwrap();
        assert_outcomes_bit_identical(&ignored, &plain);
        assert_eq!(ignored.warm_start_seeds(), 0);
    }

    #[test]
    fn expired_deadline_still_runs_one_generation_and_marks_partial() {
        let evaluator = evaluator(Constraints::default());
        let config = SearchConfig {
            generations: 6,
            population_size: 10,
            ..SearchConfig::fast()
        };
        let outcome = MappingSearch::new(&evaluator, config)
            .with_deadline(Instant::now())
            .run()
            .unwrap();
        assert!(outcome.partial());
        assert!(outcome.early_stopped());
        assert_eq!(outcome.generations_run(), 1);
        assert_eq!(outcome.evaluations(), 10);
        assert!(!outcome.pareto_front().is_empty());
        assert!(outcome.summary().partial);
    }

    #[test]
    fn pre_cancelled_token_stops_after_the_first_generation() {
        let evaluator = evaluator(Constraints::default());
        let config = SearchConfig {
            generations: 5,
            population_size: 8,
            ..SearchConfig::fast()
        };
        let token = CancelToken::new();
        token.cancel();
        assert!(token.is_cancelled());
        let outcome = MappingSearch::new(&evaluator, config)
            .with_cancel_token(token)
            .run()
            .unwrap();
        assert!(outcome.partial());
        assert_eq!(outcome.generations_run(), 1);
    }

    /// Cancels the shared token once a chosen generation has been
    /// reported — a deterministic way to interrupt the search mid-run.
    struct CancelAfter {
        token: CancelToken,
        after_generation: usize,
    }
    impl TelemetrySink for CancelAfter {
        fn on_generation(&self, event: GenerationEvent) {
            if event.generation >= self.after_generation {
                self.token.cancel();
            }
        }
    }

    #[test]
    fn partial_outcome_is_a_bit_identical_prefix_with_a_consistent_front() {
        let evaluator = evaluator(Constraints::default());
        let config = SearchConfig {
            generations: 6,
            population_size: 10,
            ..SearchConfig::fast()
        };
        let full = MappingSearch::new(&evaluator, config).run().unwrap();

        let token = CancelToken::new();
        let sink = CancelAfter {
            token: token.clone(),
            after_generation: 1,
        };
        let interrupted = MappingSearch::new(&evaluator, config)
            .with_cancel_token(token)
            .with_telemetry(&sink)
            .run()
            .unwrap();
        assert!(interrupted.partial());
        assert!(interrupted.early_stopped());
        assert_eq!(interrupted.generations_run(), 2);

        // The anytime answer is the exact prefix of the full run: the
        // interruption never rewrites history, it only stops extending it.
        let prefix = &full.archive()[..interrupted.archive().len()];
        for (a, b) in interrupted.archive().iter().zip(prefix) {
            assert_eq!(a.genome, b.genome);
            assert_eq!(a.result, b.result);
            assert_eq!(a.generation, b.generation);
        }

        // And its front is subset-consistent archive state: every
        // returned config feasible and mutually non-dominated.
        let front = interrupted.pareto_front();
        assert!(!front.is_empty());
        for candidate in &front {
            assert!(candidate.result.feasible);
        }
        for a in &front {
            for b in &front {
                if !std::ptr::eq(*a, *b) {
                    let pa = [a.result.average_energy_mj, a.result.average_latency_ms];
                    let pb = [b.result.average_energy_mj, b.result.average_latency_ms];
                    assert!(!dominates(&pa, &pb), "partial front holds dominated points");
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// Any deadline the full search beats — here one far in the
        /// future — leaves the outcome bit-identical to the undeadlined
        /// run, `partial` included; so does an uncancelled token.
        #[test]
        fn prop_generous_deadline_is_bit_identical(
            seed in 0u64..1_000_000,
            generations in 2usize..5,
            population in 6usize..12,
        ) {
            let evaluator = evaluator(Constraints::default());
            let config = SearchConfig {
                generations,
                population_size: population,
                seed,
                ..SearchConfig::fast()
            };
            let plain = MappingSearch::new(&evaluator, config).run().unwrap();
            let deadlined = MappingSearch::new(&evaluator, config)
                .with_deadline(Instant::now() + std::time::Duration::from_secs(3600))
                .with_cancel_token(CancelToken::new())
                .run()
                .unwrap();
            prop_assert!(!deadlined.partial());
            assert_outcomes_bit_identical(&deadlined, &plain);
        }
    }

    /// Pauses the shared token once a chosen generation has been
    /// reported — the deterministic mid-run preemption used by the
    /// pause/resume tests, mirroring [`CancelAfter`].
    struct PauseAfter {
        token: PauseToken,
        after_generation: usize,
    }
    impl TelemetrySink for PauseAfter {
        fn on_generation(&self, event: GenerationEvent) {
            if event.generation >= self.after_generation {
                self.token.pause();
            }
        }
    }

    /// Drives a resumable search to completion, pausing at every
    /// generation in `pause_at` (ascending), and returns the final
    /// outcome plus the number of pauses actually taken.
    fn run_with_pauses(
        evaluator: &Evaluator,
        config: SearchConfig,
        pause_at: &[usize],
    ) -> (SearchOutcome, usize) {
        let token = PauseToken::new();
        let sink = PauseAfter {
            token: token.clone(),
            after_generation: *pause_at.first().unwrap_or(&usize::MAX),
        };
        let search = MappingSearch::new(evaluator, config)
            .with_pause_token(token.clone())
            .with_telemetry(&sink);
        let mut run = search.run_resumable().unwrap();
        let mut pauses = 0;
        let mut next_pause = 1;
        loop {
            match run {
                SearchRun::Complete(outcome) => return (outcome, pauses),
                SearchRun::Paused(checkpoint) => {
                    pauses += 1;
                    token.clear();
                    let sink = PauseAfter {
                        token: token.clone(),
                        after_generation: *pause_at.get(next_pause).unwrap_or(&usize::MAX),
                    };
                    next_pause += 1;
                    run = MappingSearch::new(evaluator, config)
                        .with_pause_token(token.clone())
                        .with_telemetry(&sink)
                        .resume(checkpoint)
                        .unwrap();
                }
            }
        }
    }

    #[test]
    fn unpaused_resumable_run_is_bit_identical_to_run() {
        let evaluator = evaluator(Constraints::default());
        let config = SearchConfig {
            generations: 4,
            population_size: 10,
            ..SearchConfig::fast()
        };
        let plain = MappingSearch::new(&evaluator, config).run().unwrap();
        let resumable = match MappingSearch::new(&evaluator, config)
            .with_pause_token(PauseToken::new())
            .run_resumable()
            .unwrap()
        {
            SearchRun::Complete(outcome) => outcome,
            SearchRun::Paused(_) => panic!("unpaused token must not pause"),
        };
        assert_outcomes_bit_identical(&resumable, &plain);
    }

    #[test]
    fn run_ignores_pause_requests() {
        let evaluator = evaluator(Constraints::default());
        let config = SearchConfig {
            generations: 3,
            population_size: 8,
            ..SearchConfig::fast()
        };
        let token = PauseToken::new();
        token.pause();
        let paused_run = MappingSearch::new(&evaluator, config)
            .with_pause_token(token)
            .run()
            .unwrap();
        let plain = MappingSearch::new(&evaluator, config).run().unwrap();
        assert_outcomes_bit_identical(&paused_run, &plain);
    }

    #[test]
    fn checkpoint_from_a_different_config_is_rejected() {
        let evaluator = evaluator(Constraints::default());
        let config = SearchConfig {
            generations: 4,
            population_size: 8,
            ..SearchConfig::fast()
        };
        let token = PauseToken::new();
        let sink = PauseAfter {
            token: token.clone(),
            after_generation: 0,
        };
        let SearchRun::Paused(checkpoint) = MappingSearch::new(&evaluator, config)
            .with_pause_token(token)
            .with_telemetry(&sink)
            .run_resumable()
            .unwrap()
        else {
            panic!("pause after generation 0 must pause");
        };
        assert_eq!(checkpoint.generations_completed(), 1);
        assert!(checkpoint.evaluations_performed() > 0);
        let other = SearchConfig {
            seed: config.seed + 1,
            ..config
        };
        assert!(matches!(
            MappingSearch::new(&evaluator, other).resume(checkpoint),
            Err(OptimError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn cancel_wins_over_pause_at_the_boundary() {
        let evaluator = evaluator(Constraints::default());
        let config = SearchConfig {
            generations: 5,
            population_size: 8,
            ..SearchConfig::fast()
        };
        let cancel = CancelToken::new();
        let pause = PauseToken::new();
        cancel.cancel();
        pause.pause();
        let run = MappingSearch::new(&evaluator, config)
            .with_cancel_token(cancel)
            .with_pause_token(pause)
            .run_resumable()
            .unwrap();
        let SearchRun::Complete(outcome) = run else {
            panic!("a cancelled search answers partial, it does not pause");
        };
        assert!(outcome.partial());
        assert_eq!(outcome.generations_run(), 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(5))]

        /// The preemption tentpole property: a search paused at random
        /// generation boundaries (once or twice) and resumed — across
        /// thread counts, with a second pause on a different pool size —
        /// finishes bit-identically to the uninterrupted run.
        #[test]
        fn prop_paused_and_resumed_search_is_bit_identical(
            seed in 0u64..1_000_000,
            generations in 3usize..6,
            population in 6usize..12,
            first_pause in 0usize..3,
            second_pause_gap in 0usize..2,
            threads in 1usize..5,
        ) {
            let evaluator = evaluator(Constraints::default());
            let config = SearchConfig {
                generations,
                population_size: population,
                seed,
                ..SearchConfig::fast()
            };
            let plain = MappingSearch::new(&evaluator, config).run().unwrap();

            let (once, _) = run_with_pauses(&evaluator, config, &[first_pause]);
            assert_outcomes_bit_identical(&once, &plain);

            let (twice, _) = run_with_pauses(
                &evaluator,
                config,
                &[first_pause, first_pause + 1 + second_pause_gap],
            );
            assert_outcomes_bit_identical(&twice, &plain);

            // Pause on one thread count, resume on another: checkpoints
            // are pool-independent like everything else in the loop, so
            // a parallel pause resumed serially still matches the plain
            // serial run bit for bit.
            let parallel = SearchConfig {
                parallel: true,
                threads: Some(threads),
                ..config
            };
            let token = PauseToken::new();
            let sink = PauseAfter { token: token.clone(), after_generation: first_pause };
            let run = MappingSearch::new(&evaluator, parallel)
                .with_pause_token(token.clone())
                .with_telemetry(&sink)
                .run_resumable()
                .unwrap();
            let crossed = match run {
                SearchRun::Complete(outcome) => outcome,
                SearchRun::Paused(checkpoint) => {
                    token.clear();
                    match MappingSearch::new(&evaluator, config)
                        .resume(checkpoint)
                        .unwrap()
                    {
                        SearchRun::Complete(outcome) => outcome,
                        SearchRun::Paused(_) => panic!("cleared token must not re-pause"),
                    }
                }
            };
            assert_outcomes_bit_identical(&crossed, &plain);
        }
    }

    #[test]
    fn incompatible_or_duplicate_seeds_are_skipped() {
        let evaluator = evaluator(Constraints::default());
        let network = ConfigEvaluator::network(&evaluator);
        let platform = ConfigEvaluator::platform(&evaluator);
        let mut rng = StdRng::seed_from_u64(3);
        let good = Arc::new(Genome::random(network, platform, &mut rng));
        // A genome built for a 4-CU platform cannot seed a 2-CU search.
        let wrong_platform = Arc::new(Genome::balanced(
            &mnc_nn::models::vgg11(ModelPreset::cifar100()),
            &Platform::agx_xavier(),
        ));
        // The balanced genome is already in the population: duplicate.
        let balanced = Arc::new(Genome::balanced(network, platform));
        let config = SearchConfig {
            generations: 2,
            population_size: 8,
            warm_start: true,
            ..SearchConfig::fast()
        };
        let outcome = MappingSearch::new(&evaluator, config)
            .with_seeds(vec![
                wrong_platform,
                balanced,
                Arc::clone(&good),
                good, // exact duplicate of the previous seed
            ])
            .run()
            .unwrap();
        assert_eq!(outcome.warm_start_seeds(), 1);
    }
}
