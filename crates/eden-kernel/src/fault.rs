//! Deterministic fault injection on the invocation path.
//!
//! Eden's transput protocol was designed for a world where "either of the
//! Ejects at the ends of a stream may crash" (§6) and where the kernel
//! reactivates a crashed Eject from its passive representation. To exercise
//! that machinery systematically, the kernel carries a [`FaultInjector`]
//! that can fail invocations on purpose: drop them, delay them, fail them
//! with an error, or crash their target mid-flight.
//!
//! Everything is deterministic. Probabilistic rules draw from a seeded
//! splitmix64 generator and counted rules (`nth`, `every`) keep per-rule
//! match counters, all behind one lock — given the same seed and the same
//! sequence of matching invocations, a schedule replays byte-for-byte.
//! (Under concurrency the interleaving of *independent* callers can vary;
//! tests that need exact replay use counted rules on a single caller.)

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use eden_core::OpName;
use parking_lot::Mutex;

/// What happens to an invocation selected by a fault rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultKind {
    /// The invocation is lost. Modelled as an *immediate* timeout: the
    /// caller observes exactly what a lost message followed by an expired
    /// reply deadline would produce ([`EdenError::Timeout`]), without the
    /// tests having to wait out a real deadline.
    ///
    /// [`EdenError::Timeout`]: eden_core::EdenError::Timeout
    Drop,
    /// The invocation is delivered after an extra delay.
    Delay(Duration),
    /// The invocation fails with [`EdenError::FaultInjected`].
    ///
    /// [`EdenError::FaultInjected`]: eden_core::EdenError::FaultInjected
    Error,
    /// The target Eject suffers a fail-stop crash and the invocation fails
    /// with [`EdenError::EjectCrashed`]. If the target ever checkpointed,
    /// a retry reactivates it from its passive representation — this is
    /// the fault that exercises checkpoint-driven recovery end to end.
    ///
    /// [`EdenError::EjectCrashed`]: eden_core::EdenError::EjectCrashed
    CrashTarget,
}

/// When a matching rule fires.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Trigger {
    /// Fire on every matching invocation.
    Always,
    /// Fire exactly once, on the n-th matching invocation (1-based).
    Nth(u64),
    /// Fire on every k-th matching invocation (the k-th, 2k-th, ...).
    Every(u64),
    /// Fire with probability `p` per matching invocation, drawn from the
    /// plan's seeded generator.
    Prob(f64),
}

/// One fault rule: an op filter, a trigger schedule, and a fault kind. Built fluently:
///
/// ```
/// use eden_kernel::{FaultKind, FaultRule};
/// let rule = FaultRule::new(FaultKind::Error).on_op("Transfer").nth(3);
/// ```
#[derive(Debug, Clone)]
pub struct FaultRule {
    kind: FaultKind,
    op: Option<OpName>,
    trigger: Trigger,
    label: String,
}

impl FaultRule {
    /// A rule that fires on every invocation (narrow it with the builder
    /// methods).
    pub fn new(kind: FaultKind) -> FaultRule {
        FaultRule {
            kind,
            op: None,
            trigger: Trigger::Always,
            label: String::new(),
        }
    }

    /// Only match invocations of this operation.
    pub fn on_op(mut self, op: impl Into<OpName>) -> FaultRule {
        self.op = Some(op.into());
        self
    }

    /// Fire exactly once, on the `n`-th matching invocation (1-based).
    pub fn nth(mut self, n: u64) -> FaultRule {
        self.trigger = Trigger::Nth(n.max(1));
        self
    }

    /// Fire on every `k`-th matching invocation.
    pub fn every(mut self, k: u64) -> FaultRule {
        self.trigger = Trigger::Every(k.max(1));
        self
    }

    /// Fire with probability `p` (clamped to [0, 1]) per matching
    /// invocation, drawn deterministically from the plan's seed.
    pub fn with_probability(mut self, p: f64) -> FaultRule {
        self.trigger = Trigger::Prob(p.clamp(0.0, 1.0));
        self
    }

    /// Attach a label, reported in [`EdenError::FaultInjected`] so chaos
    /// tests can tell which rule fired.
    ///
    /// [`EdenError::FaultInjected`]: eden_core::EdenError::FaultInjected
    pub fn labeled(mut self, label: impl Into<String>) -> FaultRule {
        self.label = label.into();
        self
    }

    fn matches(&self, op: &OpName) -> bool {
        self.op.as_ref().is_none_or(|o| o == op)
    }
}

/// A seeded schedule of fault rules, installed with
/// [`Kernel::install_faults`].
///
/// [`Kernel::install_faults`]: crate::Kernel::install_faults
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    seed: u64,
    rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// An empty plan drawing probabilistic decisions from `seed`.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            rules: Vec::new(),
        }
    }

    /// Add a rule. Rules are consulted in insertion order; the first rule
    /// that fires decides the invocation's fate.
    pub fn rule(mut self, rule: FaultRule) -> FaultPlan {
        self.rules.push(rule);
        self
    }
}

/// splitmix64: tiny, seedable, and good enough for fault schedules. Using
/// a hand-rolled generator (rather than a random-from-entropy one) is the
/// point — the whole schedule replays from the seed.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A unit-interval draw from 53 random bits.
fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 / (1u64 << 53) as f64
}

struct RuleState {
    rule: FaultRule,
    matched: u64,
    exhausted: bool,
}

struct InjectorState {
    rng: u64,
    rules: Vec<RuleState>,
}

/// The decision the injector hands back to the invocation path: the kind
/// to apply and the label of the rule that fired.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct FaultDecision {
    pub(crate) kind: FaultKind,
    pub(crate) label: String,
}

/// The kernel-resident injector. Holds the installed [`FaultPlan`] (if
/// any) and its per-rule counters. The `armed` flag keeps the fault-free
/// hot path to one relaxed atomic load.
#[derive(Default)]
pub(crate) struct FaultInjector {
    armed: AtomicBool,
    state: Mutex<Option<InjectorState>>,
}

impl FaultInjector {
    /// Install a plan, replacing any previous one and resetting all
    /// counters and the generator.
    pub(crate) fn install(&self, plan: FaultPlan) {
        let state = InjectorState {
            rng: plan.seed,
            rules: plan
                .rules
                .into_iter()
                .map(|rule| RuleState {
                    rule,
                    matched: 0,
                    exhausted: false,
                })
                .collect(),
        };
        let mut guard = self.state.lock();
        *guard = (!state.rules.is_empty()).then_some(state);
        self.armed.store(guard.is_some(), Ordering::Release);
    }

    /// Whether a plan is installed (cheap pre-check for the hot path).
    pub(crate) fn armed(&self) -> bool {
        self.armed.load(Ordering::Acquire)
    }

    /// Decide the fate of one invocation. `None` means deliver normally.
    pub(crate) fn decide(&self, op: &OpName) -> Option<FaultDecision> {
        let mut guard = self.state.lock();
        let state = guard.as_mut()?;
        for i in 0..state.rules.len() {
            if state.rules[i].exhausted || !state.rules[i].rule.matches(op) {
                continue;
            }
            state.rules[i].matched += 1;
            let matched = state.rules[i].matched;
            let fired = match state.rules[i].rule.trigger {
                Trigger::Always => true,
                Trigger::Nth(n) => {
                    if matched == n {
                        state.rules[i].exhausted = true;
                        true
                    } else {
                        false
                    }
                }
                Trigger::Every(k) => matched % k == 0,
                Trigger::Prob(p) => unit_f64(splitmix64(&mut state.rng)) < p,
            };
            if fired {
                let rule = &state.rules[i].rule;
                return Some(FaultDecision {
                    kind: rule.kind.clone(),
                    label: if rule.label.is_empty() {
                        format!("{:?} on {op}", rule.kind)
                    } else {
                        rule.label.clone()
                    },
                });
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decisions(injector: &FaultInjector, op: &OpName, n: usize) -> Vec<bool> {
        (0..n).map(|_| injector.decide(op).is_some()).collect()
    }

    #[test]
    fn empty_injector_never_fires() {
        let inj = FaultInjector::default();
        assert!(!inj.armed());
        assert!(inj.decide(&OpName::from("Transfer")).is_none());
    }

    #[test]
    fn nth_fires_exactly_once() {
        let inj = FaultInjector::default();
        inj.install(FaultPlan::new(1).rule(FaultRule::new(FaultKind::Error).nth(3)));
        let got = decisions(&inj, &OpName::from("Transfer"), 6);
        assert_eq!(got, vec![false, false, true, false, false, false]);
    }

    #[test]
    fn every_fires_periodically() {
        let inj = FaultInjector::default();
        inj.install(FaultPlan::new(1).rule(FaultRule::new(FaultKind::Drop).every(2)));
        let got = decisions(&inj, &OpName::from("Write"), 5);
        assert_eq!(got, vec![false, true, false, true, false]);
    }

    #[test]
    fn op_filter_restricts_matching() {
        let inj = FaultInjector::default();
        inj.install(FaultPlan::new(1).rule(FaultRule::new(FaultKind::Error).on_op("Transfer")));
        assert!(inj.decide(&OpName::from("Write")).is_none());
        assert!(inj.decide(&OpName::from("Transfer")).is_some());
    }

    #[test]
    fn probabilistic_schedule_replays_from_seed() {
        let run = |seed: u64| {
            let inj = FaultInjector::default();
            inj.install(
                FaultPlan::new(seed).rule(FaultRule::new(FaultKind::Error).with_probability(0.3)),
            );
            decisions(&inj, &OpName::from("Transfer"), 64)
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43), "different seeds should differ");
        let fired = run(42).iter().filter(|b| **b).count();
        assert!(fired > 5 && fired < 35, "p=0.3 over 64 draws, got {fired}");
    }

    #[test]
    fn first_firing_rule_wins() {
        let inj = FaultInjector::default();
        inj.install(
            FaultPlan::new(1)
                .rule(FaultRule::new(FaultKind::Drop).labeled("first").nth(1))
                .rule(FaultRule::new(FaultKind::Error).labeled("second")),
        );
        let op = OpName::from("Transfer");
        let first = inj.decide(&op).unwrap();
        assert_eq!(first.kind, FaultKind::Drop);
        assert_eq!(first.label, "first");
        // The nth(1) rule is exhausted; the catch-all takes over.
        let second = inj.decide(&op).unwrap();
        assert_eq!(second.kind, FaultKind::Error);
    }

    #[test]
    fn empty_plan_disarms() {
        let inj = FaultInjector::default();
        inj.install(FaultPlan::new(1).rule(FaultRule::new(FaultKind::Error)));
        assert!(inj.armed());
        inj.install(FaultPlan::new(1));
        assert!(!inj.armed());
        assert!(inj.decide(&OpName::from("X")).is_none());
    }
}
