//! Deterministic fault injection.
//!
//! The paper's correctness arguments (Propositions 2 and 5) lean on the
//! reliable-delivery assumption of the message-passing model: "v must not
//! receive the message, which is contrary to our model". Fault injection
//! lets the test suite demonstrate that the assumption is load-bearing —
//! with message loss, DiMa's two-sided edge commitment can desynchronise —
//! and the ARQ layer ([`crate::reliable`]) demonstrate how to win it back.
//!
//! Four fault mechanisms are modelled, applied to each delivery in this
//! order (matching a real lossy link):
//!
//! 1. **crash-stop** — the receiver has crashed by the receive round, so
//!    the message is silently discarded (like a delivery to a done node);
//! 2. **loss** — uniform per-delivery loss plus an optional
//!    Gilbert–Elliott two-state burst channel;
//! 3. **corruption** — the payload arrives bit-flipped; a link-layer
//!    checksum is assumed to detect this, so the model treats it as a
//!    *detected* drop counted separately;
//! 4. **duplication** — the delivery arrives twice (two adjacent copies).
//!
//! Every decision is a **pure function** of
//! `(seed, round, sender, receiver, k)` (or `(seed, node)` for crashes) —
//! no RNG stream — so decisions are identical no matter which engine runs
//! the protocol or in which order threads deliver messages, and node RNG
//! streams are unaffected by whether injection is enabled.

use crate::rng::splitmix64;

/// Domain-separation tags for the decision hashes. Each mechanism hashes
/// with its own tag so decisions are independent across mechanisms.
const TAG_DROP: u64 = 0xFA_17_FA_17;
const TAG_BURST_STATE: u64 = 0xB0_57_B0_57;
const TAG_BURST_DROP: u64 = 0xB0_57_D0_0D;
const TAG_CORRUPT: u64 = 0xC0_44_0F_7E;
const TAG_DUPLICATE: u64 = 0xD0_0B_1E_5E;
const TAG_CRASH: u64 = 0xC4_A5_C4_A5;

/// A discretized Gilbert–Elliott two-state burst-loss channel.
///
/// Time on each directed link is divided into windows of `burst_len`
/// rounds; a pure hash of `(seed, link, window)` decides whether the
/// window is *Good* or *Bad*, and deliveries inside the window are lost
/// with the state's loss probability. Discretizing the chain per window
/// (instead of evolving it per round) keeps the state a pure function of
/// the round number, which the engine-equivalence guarantee requires.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct GilbertElliott {
    /// Per-delivery loss probability while the link is in the Good state.
    pub loss_good: f64,
    /// Per-delivery loss probability while the link is in the Bad state.
    pub loss_bad: f64,
    /// Stationary probability that a window is in the Bad state.
    pub p_bad: f64,
    /// Window length in rounds (the state is constant within a window).
    pub burst_len: u64,
}

impl GilbertElliott {
    /// A burst channel with the given Good/Bad loss probabilities and
    /// default state dynamics (20% Bad windows of 3 rounds).
    pub fn new(loss_good: f64, loss_bad: f64) -> Self {
        GilbertElliott { loss_good, loss_bad, p_bad: 0.2, burst_len: 3 }
    }
}

/// Fault-injection configuration.
///
/// The default ([`FaultPlan::reliable`]) injects nothing; each mechanism
/// is enabled by raising its probability above zero. All mechanisms are
/// gated by [`FaultPlan::from_round`] except crashes, which use their own
/// [`FaultPlan::crash_from_round`].
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Probability that an individual delivery (one receiver of one
    /// message) is silently dropped.
    pub drop_probability: f64,
    /// Optional Gilbert–Elliott burst-loss channel, applied on top of
    /// (independently of) the uniform loss.
    pub burst: Option<GilbertElliott>,
    /// Probability that a delivery arrives corrupted. A link-layer
    /// checksum is assumed to detect corruption, so a corrupted delivery
    /// is discarded and counted in [`crate::stats::RunStats::corrupted`].
    pub corrupt_probability: f64,
    /// Probability that a delivery is duplicated (arrives twice, as two
    /// adjacent inbox entries).
    pub duplicate_probability: f64,
    /// Fraction of nodes that crash-stop during the run. Which nodes crash
    /// and when is a pure function of the seed (see
    /// [`FaultPlan::crashed_at`]).
    pub crash_fraction: f64,
    /// Earliest round at which a crash may occur.
    pub crash_from_round: u64,
    /// Crash rounds are spread uniformly over
    /// `crash_from_round..crash_from_round + crash_spread`.
    pub crash_spread: u64,
    /// First round at which loss/corruption/duplication may occur (rounds
    /// before this are reliable), letting tests corrupt a run mid-flight.
    pub from_round: u64,
}

impl FaultPlan {
    /// A plan that never injects anything.
    pub fn reliable() -> Self {
        FaultPlan {
            drop_probability: 0.0,
            burst: None,
            corrupt_probability: 0.0,
            duplicate_probability: 0.0,
            crash_fraction: 0.0,
            crash_from_round: 0,
            crash_spread: 8,
            from_round: 0,
        }
    }

    /// Uniform drop probability from round 0.
    pub fn uniform(p: f64) -> Self {
        FaultPlan { drop_probability: p, ..FaultPlan::reliable() }
    }

    /// Burst loss only: a Gilbert–Elliott channel with the given Good/Bad
    /// loss probabilities and default state dynamics.
    pub fn bursty(loss_good: f64, loss_bad: f64) -> Self {
        FaultPlan { burst: Some(GilbertElliott::new(loss_good, loss_bad)), ..FaultPlan::reliable() }
    }

    /// Crash-stop only: `fraction` of nodes crash, starting at round
    /// `from_round`.
    pub fn crashing(fraction: f64, from_round: u64) -> Self {
        FaultPlan {
            crash_fraction: fraction,
            crash_from_round: from_round,
            ..FaultPlan::reliable()
        }
    }

    /// `true` if the plan can never disturb a delivery or a node.
    pub fn is_reliable(&self) -> bool {
        self.drop_probability <= 0.0
            && self.burst.is_none()
            && self.corrupt_probability <= 0.0
            && self.duplicate_probability <= 0.0
            && self.crash_fraction <= 0.0
    }

    /// Decide one delivery's loss: message `k` of `sender`'s outbox this
    /// round, delivered to `receiver`. Pure — identical across shard counts.
    #[inline]
    pub(crate) fn drops(&self, seed: u64, round: u64, sender: u32, receiver: u32, k: u32) -> bool {
        if round < self.from_round {
            return false;
        }
        if chance(self.drop_probability, TAG_DROP, seed, round, sender, receiver, k) {
            return true;
        }
        if let Some(ge) = &self.burst {
            let window = round / ge.burst_len.max(1);
            let link = ((sender as u64) << 32) | receiver as u64;
            let state_key = splitmix64(
                splitmix64(seed ^ TAG_BURST_STATE) ^ splitmix64(window) ^ splitmix64(link),
            );
            let p = if unit(state_key) < ge.p_bad { ge.loss_bad } else { ge.loss_good };
            if chance(p, TAG_BURST_DROP, seed, round, sender, receiver, k) {
                return true;
            }
        }
        false
    }

    /// Decide whether a (non-dropped) delivery arrives corrupted. Pure.
    #[inline]
    pub(crate) fn corrupts(
        &self,
        seed: u64,
        round: u64,
        sender: u32,
        receiver: u32,
        k: u32,
    ) -> bool {
        round >= self.from_round
            && chance(self.corrupt_probability, TAG_CORRUPT, seed, round, sender, receiver, k)
    }

    /// Decide whether a (delivered) message arrives twice. Pure.
    #[inline]
    pub(crate) fn duplicates(
        &self,
        seed: u64,
        round: u64,
        sender: u32,
        receiver: u32,
        k: u32,
    ) -> bool {
        round >= self.from_round
            && chance(self.duplicate_probability, TAG_DUPLICATE, seed, round, sender, receiver, k)
    }

    /// The round at which `node` crash-stops, if it ever does. Pure —
    /// every shard (and the send and receive sides of a link) agree on
    /// every node's fate without communicating.
    ///
    /// A crashed node is not stepped at any round `>= crashed_at(node)`,
    /// and a delivery is suppressed when its *receive* round (send round
    /// plus one) is `>= crashed_at(receiver)`.
    pub fn crashed_at(&self, seed: u64, node: u32) -> Option<u64> {
        if self.crash_fraction <= 0.0 {
            return None;
        }
        let key = splitmix64(splitmix64(seed ^ TAG_CRASH) ^ splitmix64(node as u64 + 0x5A5A));
        if self.crash_fraction < 1.0 && unit(key) >= self.crash_fraction {
            return None;
        }
        let jitter = splitmix64(key) % self.crash_spread.max(1);
        Some(self.crash_from_round + jitter)
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::reliable()
    }
}

/// Map a hash to `[0, 1)` with 53 bits of precision.
#[inline]
fn unit(key: u64) -> f64 {
    (key >> 11) as f64 / (1u64 << 53) as f64
}

/// Pure per-delivery Bernoulli trial under domain-separation tag `tag`.
#[inline]
fn chance(p: f64, tag: u64, seed: u64, round: u64, sender: u32, receiver: u32, k: u32) -> bool {
    if p <= 0.0 {
        return false;
    }
    if p >= 1.0 {
        return true;
    }
    let key = splitmix64(
        splitmix64(seed ^ tag)
            ^ splitmix64(round)
            ^ splitmix64(((sender as u64) << 32) | receiver as u64)
            ^ splitmix64(k as u64 + 0x1000),
    );
    unit(key) < p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reliable_never_drops() {
        let plan = FaultPlan::reliable();
        assert!(plan.is_reliable());
        for r in 0..100 {
            assert!(!plan.drops(1, r, 0, 1, 0));
            assert!(!plan.corrupts(1, r, 0, 1, 0));
            assert!(!plan.duplicates(1, r, 0, 1, 0));
        }
        for v in 0..100 {
            assert_eq!(plan.crashed_at(1, v), None);
        }
    }

    #[test]
    fn certain_drop_always_drops() {
        let plan = FaultPlan::uniform(1.0);
        assert!(!plan.is_reliable());
        for r in 0..100 {
            assert!(plan.drops(1, r, 0, 1, 0));
        }
    }

    #[test]
    fn from_round_gates_drops() {
        let plan = FaultPlan { drop_probability: 1.0, from_round: 5, ..FaultPlan::reliable() };
        for r in 0..5 {
            assert!(!plan.drops(1, r, 0, 1, 0));
        }
        assert!(plan.drops(1, 5, 0, 1, 0));
    }

    #[test]
    fn decision_is_pure() {
        let plan = FaultPlan {
            drop_probability: 0.5,
            burst: Some(GilbertElliott::new(0.1, 0.9)),
            corrupt_probability: 0.3,
            duplicate_probability: 0.3,
            ..FaultPlan::reliable()
        };
        for r in 0..50 {
            assert_eq!(plan.drops(9, r, 2, 3, 1), plan.drops(9, r, 2, 3, 1));
            assert_eq!(plan.corrupts(9, r, 2, 3, 1), plan.corrupts(9, r, 2, 3, 1));
            assert_eq!(plan.duplicates(9, r, 2, 3, 1), plan.duplicates(9, r, 2, 3, 1));
        }
    }

    #[test]
    fn drop_rate_approximates_probability() {
        let plan = FaultPlan::uniform(0.3);
        let n = 20_000u32;
        let dropped = (0..n).filter(|&k| plan.drops(2, 0, k % 97, k % 89, k)).count();
        let rate = dropped as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn different_seeds_differ() {
        let plan = FaultPlan::uniform(0.5);
        let a: Vec<bool> = (0..64).map(|k| plan.drops(1, 0, 0, 1, k)).collect();
        let b: Vec<bool> = (0..64).map(|k| plan.drops(2, 0, 0, 1, k)).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn burst_rate_sits_between_good_and_bad() {
        // loss_good = 0, loss_bad = 1: overall loss rate must approximate
        // the stationary Bad probability.
        let plan = FaultPlan::bursty(0.0, 1.0);
        let mut lost = 0u32;
        let trials = 20_000u32;
        for t in 0..trials {
            if plan.drops(7, (t / 4) as u64, t % 13, (t + 1) % 13, 0) {
                lost += 1;
            }
        }
        let rate = lost as f64 / trials as f64;
        assert!((rate - 0.2).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn burst_losses_cluster_in_windows() {
        // With loss_bad = 1 and loss_good = 0, losses on a fixed link are
        // exactly the Bad windows: within a window, either every delivery
        // is lost or none is.
        let plan = FaultPlan::bursty(0.0, 1.0);
        let ge = plan.burst.unwrap();
        for window in 0..200u64 {
            let rounds: Vec<u64> = (0..ge.burst_len).map(|i| window * ge.burst_len + i).collect();
            let fates: Vec<bool> = rounds.iter().map(|&r| plan.drops(3, r, 4, 5, 0)).collect();
            assert!(fates.iter().all(|&f| f == fates[0]), "window {window} mixes fates: {fates:?}");
        }
        // ... and both kinds of window occur.
        let any_lost = (0..200u64).any(|r| plan.drops(3, r, 4, 5, 0));
        let any_kept = (0..200u64).any(|r| !plan.drops(3, r, 4, 5, 0));
        assert!(any_lost && any_kept);
    }

    #[test]
    fn duplicate_rate_approximates_probability() {
        let plan = FaultPlan { duplicate_probability: 0.25, ..FaultPlan::reliable() };
        let n = 20_000u32;
        let dup = (0..n).filter(|&k| plan.duplicates(2, 1, k % 97, k % 89, k)).count();
        let rate = dup as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn corrupt_and_drop_decisions_are_independent() {
        // Same (seed, round, link, k) inputs, different tags: the two
        // decision streams must not coincide.
        let plan =
            FaultPlan { drop_probability: 0.5, corrupt_probability: 0.5, ..FaultPlan::reliable() };
        let drops: Vec<bool> = (0..256).map(|k| plan.drops(11, 0, 1, 2, k)).collect();
        let corrupts: Vec<bool> = (0..256).map(|k| plan.corrupts(11, 0, 1, 2, k)).collect();
        assert_ne!(drops, corrupts);
    }

    #[test]
    fn crash_fraction_selects_about_that_many_nodes() {
        let plan = FaultPlan::crashing(0.3, 10);
        let n = 20_000u32;
        let crashed = (0..n).filter(|&v| plan.crashed_at(5, v).is_some()).count();
        let rate = crashed as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn crash_rounds_respect_from_round_and_spread() {
        let plan = FaultPlan { crash_spread: 4, ..FaultPlan::crashing(1.0, 10) };
        for v in 0..100 {
            let r = plan.crashed_at(5, v).expect("fraction 1.0 crashes everyone");
            assert!((10..14).contains(&r), "crash round {r}");
        }
        // The jitter actually spreads crashes out.
        let distinct: std::collections::BTreeSet<u64> =
            (0..100).filter_map(|v| plan.crashed_at(5, v)).collect();
        assert!(distinct.len() > 1);
    }

    #[test]
    fn crashes_are_pure_per_seed() {
        let plan = FaultPlan::crashing(0.5, 0);
        let a: Vec<Option<u64>> = (0..64).map(|v| plan.crashed_at(1, v)).collect();
        let b: Vec<Option<u64>> = (0..64).map(|v| plan.crashed_at(1, v)).collect();
        let c: Vec<Option<u64>> = (0..64).map(|v| plan.crashed_at(2, v)).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
