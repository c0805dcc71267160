//! The fault-injection harness behind the chaos tests.
//!
//! Robustness claims ("a mid-search panic answers every coalesced
//! follower", "a torn snapshot write restarts cold but healthy") are
//! only testable if the faults can actually be produced on demand.
//! [`FaultPlan`] is the process-global switchboard the `chaos_smoke`
//! bin and the regression tests flip: each injection point is a single
//! relaxed atomic load when disarmed, and nothing in the serving path
//! ever arms one — production behaviour is bit-identical to a build
//! without the hooks.
//!
//! Armed faults are one-shot: firing disarms them, so one injected
//! failure never cascades into unrelated requests (which is exactly the
//! recovery property the chaos harness asserts afterwards).
//!
//! The two in-process injection points live at the layers the wire
//! cannot reach from outside:
//!
//! * **Evaluator panic** ([`FaultPlan::arm_eval_panic`]) — the Nth
//!   evaluation from now panics, modelling a poisoned workload killing
//!   a search mid-flight on a worker thread.
//! * **Torn snapshot write** ([`FaultPlan::arm_snapshot_truncation`]) —
//!   the next archive snapshot's JSON is truncated before it reaches
//!   the disk, modelling a crash mid-write (against the atomic
//!   temp-file rename this corrupts the *content*, not the write
//!   protocol — what a pre-rename crash of an older server left
//!   behind).
//!
//! Socket-layer faults (mid-frame disconnect, stalled reader) need no
//! hook: a chaos client produces them from the outside.

use mnc_core::{EvaluationResult, Evaluator, MappingConfig};
use mnc_mpsoc::Platform;
use mnc_nn::Network;
use mnc_optim::{ConfigEvaluator, Genome, OptimError};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Evaluations remaining until the armed panic fires (0 = disarmed).
static EVAL_PANIC_IN: AtomicU64 = AtomicU64::new(0);
/// Byte length the next snapshot's JSON is truncated to
/// (`usize::MAX` = disarmed).
static SNAPSHOT_TRUNCATE_TO: AtomicUsize = AtomicUsize::new(usize::MAX);

/// The message an injected evaluator panic carries — chaos tests match
/// on it to tell the injected fault from a real defect.
pub const EVAL_PANIC_MESSAGE: &str = "fault injection: evaluator panic";

/// The process-global fault plan. All faults are disarmed by default
/// and one-shot once armed; see the module docs.
#[derive(Debug)]
pub struct FaultPlan;

impl FaultPlan {
    /// Arms a panic on the `nth` evaluator call from now (1 = the very
    /// next evaluation). The panic unwinds through the search into the
    /// serving layer's `catch_unwind`, which answers a structured
    /// `Internal` error.
    pub fn arm_eval_panic(nth: u64) {
        EVAL_PANIC_IN.store(nth.max(1), Ordering::SeqCst);
    }

    /// Arms a torn archive write: the next snapshot's JSON is truncated
    /// to `bytes` before it reaches the disk, then the fault disarms
    /// itself.
    pub fn arm_snapshot_truncation(bytes: usize) {
        SNAPSHOT_TRUNCATE_TO.store(bytes, Ordering::SeqCst);
    }

    /// Resets the switchboard to its pristine state: every fault
    /// disarmed, armed-but-unfired faults included.
    pub fn reset() {
        EVAL_PANIC_IN.store(0, Ordering::SeqCst);
        SNAPSHOT_TRUNCATE_TO.store(usize::MAX, Ordering::SeqCst);
    }

    /// Disarms every fault. Alias of [`FaultPlan::reset`], kept for the
    /// chaos scenarios that read as "disarm" in their cleanup.
    pub fn disarm_all() {
        FaultPlan::reset();
    }

    /// Enters an exclusive fault-injection scope: the returned guard
    /// holds a process-global lock for its lifetime (so concurrent
    /// tests cannot race each other's armed faults) and calls
    /// [`FaultPlan::reset`] both on entry and on drop — a panicking
    /// test can never leak an armed fault into its siblings.
    pub fn guard() -> FaultGuard {
        // A panic while holding the lock poisons it; the state it
        // protects is reset on both edges, so the poison carries no
        // information — take the lock anyway.
        let lock = FAULT_SCOPE.lock().unwrap_or_else(PoisonError::into_inner);
        FaultPlan::reset();
        FaultGuard { _lock: lock }
    }
}

/// Serializes fault-armed scopes across threads (see
/// [`FaultPlan::guard`]).
static FAULT_SCOPE: Mutex<()> = Mutex::new(());

/// An exclusive, self-cleaning fault-injection scope. Hold it for the
/// duration of a test that arms faults; every fault is disarmed when it
/// drops, panic or not.
#[derive(Debug)]
pub struct FaultGuard {
    _lock: MutexGuard<'static, ()>,
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        FaultPlan::reset();
    }
}

/// The evaluation hook every pipeline search runs through: ticks the
/// armed eval-panic countdown, then forwards to the evaluator's own
/// [`ConfigEvaluator::evaluate_genome`].
pub(crate) struct FaultTicking<'a>(pub(crate) &'a Evaluator);

impl ConfigEvaluator for FaultTicking<'_> {
    fn network(&self) -> &Network {
        self.0.network()
    }

    fn platform(&self) -> &Platform {
        self.0.platform()
    }

    fn evaluate_genome(
        &self,
        genome: &Genome,
    ) -> Result<(Arc<MappingConfig>, Arc<EvaluationResult>), OptimError> {
        eval_tick();
        ConfigEvaluator::evaluate_genome(self.0, genome)
    }
}

/// Evaluator injection point: counts an armed eval panic down, firing
/// (and disarming) when the countdown reaches its Nth call.
fn eval_tick() {
    let mut remaining = EVAL_PANIC_IN.load(Ordering::Relaxed);
    while remaining != 0 {
        match EVAL_PANIC_IN.compare_exchange_weak(
            remaining,
            remaining - 1,
            Ordering::SeqCst,
            Ordering::SeqCst,
        ) {
            Ok(_) => {
                if remaining == 1 {
                    panic!("{EVAL_PANIC_MESSAGE}");
                }
                return;
            }
            Err(observed) => remaining = observed,
        }
    }
}

/// Archive-I/O injection point: applies (and disarms) a pending torn
/// write by truncating the serialized snapshot.
pub(crate) fn corrupt_snapshot_json(json: &mut String) {
    if SNAPSHOT_TRUNCATE_TO.load(Ordering::Relaxed) == usize::MAX {
        return;
    }
    let truncate_to = SNAPSHOT_TRUNCATE_TO.swap(usize::MAX, Ordering::SeqCst);
    if truncate_to == usize::MAX || truncate_to >= json.len() {
        return;
    }
    let mut boundary = truncate_to;
    while !json.is_char_boundary(boundary) {
        boundary -= 1;
    }
    json.truncate(boundary);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_hooks_are_no_ops() {
        FaultPlan::disarm_all();
        eval_tick();
        let mut json = String::from("{\"intact\": true}");
        corrupt_snapshot_json(&mut json);
        assert_eq!(json, "{\"intact\": true}");
    }

    #[test]
    fn snapshot_truncation_fires_once_then_disarms() {
        FaultPlan::arm_snapshot_truncation(4);
        let mut json = String::from("0123456789");
        corrupt_snapshot_json(&mut json);
        assert_eq!(json, "0123");
        let mut next = String::from("0123456789");
        corrupt_snapshot_json(&mut next);
        assert_eq!(next, "0123456789", "the fault is one-shot");
    }

    #[test]
    fn truncation_respects_char_boundaries() {
        FaultPlan::arm_snapshot_truncation(2);
        let mut json = String::from("aé"); // 'é' spans bytes 1..3
        corrupt_snapshot_json(&mut json);
        assert_eq!(json, "a");
    }
}
