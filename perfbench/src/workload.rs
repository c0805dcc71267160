//! The three workloads: which requests each one sends, generated from the
//! run's seed.
//!
//! Every workload is a sequence of *rounds*. A run always completes the
//! workload's core rounds (the simulated gains and the traced counters are
//! taken over exactly those, so they repeat for a seed) and then keeps
//! sending whole rounds until its measuring time is up.

use mnc_core::Constraints;
use mnc_runtime::MappingRequest;

/// The board every request maps onto.
pub const PLATFORM: &str = "agx_xavier";

/// The two models the workloads alternate between.
pub const MODELS: [&str; 2] = ["visformer_cifar100", "vgg19_cifar100"];

/// The paper's search budget (Section V): 200 generations of 60.
const PAPER_GENERATIONS: usize = 200;
const PAPER_POPULATION: usize = 60;
/// Validation samples of a paper-budget search.
const PAPER_SAMPLES: usize = 10_000;
/// The paper's accuracy-drop constraint: 0.5 %.
const PAPER_MAX_ACCURACY_DROP: f64 = 0.005;

/// Distinct requests in the `hot_replay` hot set.
const HOT_SET: usize = 16;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// A primed hot set replayed in turn: every timed answer is a
    /// response-cache replay.
    HotReplay,
    /// Fresh paper-budget searches under the 0.5 % accuracy-drop
    /// constraint, alternating between the two models.
    ColdSearch,
    /// Six-request design sessions on one model.
    DesignSession,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::HotReplay,
        Workload::ColdSearch,
        Workload::DesignSession,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HotReplay => "hot_replay",
            Workload::ColdSearch => "cold_search",
            Workload::DesignSession => "design_session",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Rounds every run completes, whatever its measuring time.
    pub fn core_rounds(self) -> usize {
        match self {
            // 64 × 16 replays, about 3 s.
            Workload::HotReplay => 64,
            // 50 × 2 searches of about 0.2 s: at least 100 latencies, so
            // ten lie beyond the p90.
            Workload::ColdSearch => 50,
            // 16 sessions, eight per model, about 2.5 s.
            Workload::DesignSession => 16,
        }
    }

    /// Leading core rounds a traced run also sends untraced, on a server
    /// of its own, to measure the tracing overhead.
    pub fn overhead_rounds(self) -> usize {
        match self {
            // 8 × 2 paper-budget searches, about 3.5 s.
            Workload::ColdSearch => 8,
            _ => self.core_rounds(),
        }
    }
}

/// What a member request is for, which decides how it is checked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Sent during set-up to make the server build an evaluator or train
    /// its surrogate; its answer is only required to arrive.
    Warmup,
    /// One of the `hot_replay` hot set, searched during set-up.
    Prime,
    /// Sent in the timed phase.
    Timed,
}

/// One wire call: a single submit or a `SubmitBatch`.
#[derive(Debug, Clone)]
pub enum Op {
    /// `WireBody::Submit`.
    Submit(Box<MappingRequest>),
    /// `WireBody::SubmitBatch` with the default batch config.
    Batch(Vec<MappingRequest>),
}

impl Op {
    /// The member requests, in answer order.
    pub fn members(&self) -> &[MappingRequest] {
        match self {
            Op::Submit(request) => std::slice::from_ref(&**request),
            Op::Batch(requests) => requests,
        }
    }
}

/// SplitMix64: the benchmark's only source of randomness, so a seed fixes
/// every input.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The search seed of the `index`-th request of `stream`, for a run seed.
fn derive_seed(run_seed: u64, stream: u64, index: u64) -> u64 {
    // Kept below 2^53 so the seed survives any JSON number round trip.
    mix(mix(run_seed ^ (stream << 56)) ^ index) >> 11
}

/// A request at the service defaults (20 × 24, 2,000 samples, threads
/// unset) on the benchmark's board.
fn default_request(model: &str, seed: u64) -> MappingRequest {
    MappingRequest::new(model, PLATFORM).seed(seed)
}

fn paper_request(model: &str, seed: u64) -> MappingRequest {
    MappingRequest::new(model, PLATFORM)
        .validation_samples(PAPER_SAMPLES)
        .generations(PAPER_GENERATIONS)
        .population_size(PAPER_POPULATION)
        .constraints(Constraints {
            max_accuracy_drop: Some(PAPER_MAX_ACCURACY_DROP),
            ..Constraints::default()
        })
        .seed(seed)
}

fn with_fmap_limit(request: &MappingRequest, limit: f64) -> MappingRequest {
    request.clone().constraints(Constraints {
        max_fmap_reuse: Some(limit),
        ..request.constraints
    })
}

/// Wire calls sent during set-up, before the timed phase: the hot set for
/// `hot_replay`, evaluator builds and the surrogate for the others.
pub fn setup_ops(workload: Workload, seed: u64) -> Vec<(Op, Role)> {
    match workload {
        Workload::HotReplay => hot_set(seed)
            .into_iter()
            .map(|request| (Op::Submit(Box::new(request)), Role::Prime))
            .collect(),
        // One tiny search per model at the paper shape builds the
        // server's evaluators, so the timed phase measures searches.
        Workload::ColdSearch => MODELS
            .iter()
            .map(|model| {
                let request = paper_request(model, 1).generations(1).population_size(4);
                (Op::Submit(Box::new(request)), Role::Warmup)
            })
            .collect(),
        // Per model: a small cold search builds the evaluator and fills
        // the elite archive, and a small warm-started one trains the
        // surrogate that ranks archived elites.
        Workload::DesignSession => MODELS
            .iter()
            .flat_map(|model| {
                let cold = default_request(model, 1).generations(2).population_size(8);
                let warm = cold.clone().seed(2).warm_start(true);
                [
                    (Op::Submit(Box::new(cold)), Role::Warmup),
                    (Op::Submit(Box::new(warm)), Role::Warmup),
                ]
            })
            .collect(),
    }
}

/// The `hot_replay` hot set: 16 default-budget requests, alternating
/// models.
fn hot_set(seed: u64) -> Vec<MappingRequest> {
    (0..HOT_SET)
        .map(|i| default_request(MODELS[i % 2], derive_seed(seed, 1, i as u64)))
        .collect()
}

/// The wire calls of timed round `round`.
pub fn round_ops(workload: Workload, seed: u64, round: usize) -> Vec<Op> {
    match workload {
        Workload::HotReplay => hot_set(seed)
            .into_iter()
            .map(|request| Op::Submit(Box::new(request)))
            .collect(),
        Workload::ColdSearch => MODELS
            .iter()
            .enumerate()
            .map(|(m, model)| {
                let index = (2 * round + m) as u64;
                Op::Submit(Box::new(paper_request(model, derive_seed(seed, 2, index))))
            })
            .collect(),
        Workload::DesignSession => design_session(seed, round),
    }
}

/// One design session: how a designer explores one model.
fn design_session(seed: u64, session: usize) -> Vec<Op> {
    let model = MODELS[session % 2];
    let session_seed = |step: u64| derive_seed(seed, 3, session as u64 * 8 + step);
    // 1. A new search at the default budget.
    let first = default_request(model, session_seed(0));
    // 2. The same seed with twice the generations: its first half
    //    replays step 1's evaluations from the evaluation cache.
    let longer = first.clone().generations(2 * first.generations);
    // 3. The same seed under a feature-map reuse limit: a new evaluator
    //    shape (built once per model, then a pool hit).
    let limited = with_fmap_limit(&first, 0.5);
    // 4. A warm-started search on a new seed, with a stall window.
    let warm = default_request(model, session_seed(1))
        .warm_start(true)
        .stall_generations(5);
    // 5. An exact repeat of step 1: a response-cache replay.
    let repeat = first.clone();
    // 6. A batch: step 1 under a looser limit twice (coalesced onto one
    //    search) plus a new seed.
    let loose = with_fmap_limit(&first, 0.75);
    let batch = vec![
        loose.clone(),
        loose,
        default_request(model, session_seed(2)),
    ];
    vec![
        Op::Submit(Box::new(first)),
        Op::Submit(Box::new(longer)),
        Op::Submit(Box::new(limited)),
        Op::Submit(Box::new(warm)),
        Op::Submit(Box::new(repeat)),
        Op::Batch(batch),
    ]
}
