//! Configuration shared by the DiMa protocols.
//!
//! The defaults reproduce the paper, with one declared exception:
//! DiMa2ED responders answer a doomed invitation with a one-hop `Reject`
//! hint ([`Rejection::Hint`]) where the pseudocode stays silent. The
//! non-default variants are the ablation knobs indexed in `DESIGN.md`
//! (ABL1–ABL3) — every deviation from the paper is explicit
//! configuration, never silent behaviour.

use dima_sim::fault::FaultPlan;
use dima_sim::EngineConfig;

use crate::error::CoreError;

/// How an inviter picks the color it proposes (paper line 1.11 picks the
/// lowest color legal for both endpoints).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum ColorPolicy {
    /// The paper's rule: the lowest-indexed color used by neither
    /// endpoint (as known from one-hop exchange).
    #[default]
    LowestIndex,
    /// Ablation: a uniformly random legal color from the worst-case
    /// palette `0..2Δ−1`. Degrades quality; used by ABL2 to show the
    /// lowest-index rule is what keeps colors near Δ.
    RandomLegal,
}

/// What a DiMa2ED responder tells an invitor whose proposed channels are
/// all unusable at the responder.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum Rejection {
    /// The responder answers with a unicast `Reject` carrying its
    /// `forbidden` set — its own one-hop knowledge — and the invitor
    /// retires every one of those channels on that arc at once.
    #[default]
    Hint,
    /// Ablation: the pseudocode's silent rejection. The invitor learns
    /// only that its proposal failed and retires the proposed channels,
    /// one round per doomed channel (the Fig. 6 round constant analysed
    /// in `EXPERIMENTS.md`).
    Silent,
}

/// How many shards the engine splits the nodes into. There is one
/// engine ([`dima_sim::run`]); results are bit-identical for every
/// shard count.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum Engine {
    /// One shard, stepped inline on the caller's thread.
    #[default]
    Sequential,
    /// `threads` shards stepped in lockstep on the worker pool.
    Parallel {
        /// Number of shards (worker threads, the caller included).
        threads: usize,
    },
}

impl Engine {
    /// The shard count this engine choice runs with (1 for
    /// [`Engine::Sequential`]).
    pub fn threads(self) -> usize {
        match self {
            Engine::Sequential => 1,
            Engine::Parallel { threads } => threads,
        }
    }
}

/// How protocol messages travel between nodes.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum Transport {
    /// Messages go straight onto the (possibly faulty) links — the
    /// paper's model when the [`FaultPlan`] is reliable, and a
    /// model-violation experiment otherwise.
    #[default]
    Bare,
    /// Every link is wrapped in the reliable-delivery (ARQ) layer of
    /// [`dima_sim::reliable`]: lossy links look perfect to the protocol,
    /// at the cost of extra engine rounds (reported separately as
    /// transport overhead), and crash-stopped peers are detected so the
    /// protocol can terminate on the residual graph.
    Reliable,
}

impl Transport {
    /// The [`Transport::Reliable`] variant.
    pub fn reliable() -> Self {
        Transport::Reliable
    }
}

/// Post-pass palette compression, run after the main coloring quiesces
/// (and, under churn, after each batch repair commits).
#[derive(Copy, Clone, Debug, PartialEq, Default)]
pub enum ColorReduction {
    /// No reduction pass — the paper's behaviour.
    #[default]
    Off,
    /// Kempe-chain recoloring toward `Δ+1` colors (see [`crate::kempe`]).
    Kempe(KempeConfig),
}

impl ColorReduction {
    /// `true` when a reduction pass will run.
    pub fn is_on(&self) -> bool {
        !matches!(self, ColorReduction::Off)
    }
}

/// Tuning for the Kempe-chain palette-reduction pass. Its chain length
/// cap, attempt budget and round budget are constants of
/// [`crate::kempe`].
#[derive(Copy, Clone, Debug, PartialEq, Default)]
pub struct KempeConfig {
    /// Palette size to compress toward: edges colored at or above this
    /// many colors are recolored below it when a Kempe flip permits.
    /// `None` targets `Δ+1` (computed from the graph at entry).
    pub target_colors: Option<u32>,
}

/// The widest [`ColoringConfig::proposal_width`] a run accepts: an
/// invitation carries its channels inline, in an array of this capacity.
pub const MAX_PROPOSAL_WIDTH: usize = 8;

/// Configuration for [`crate::color_edges`], [`crate::maximal_matching`]
/// and [`crate::strong_color_digraph`].
#[derive(Clone, Debug, PartialEq)]
pub struct ColoringConfig {
    /// Master seed (all node RNGs derive from it deterministically).
    pub seed: u64,
    /// Probability of entering the `I` (invitor) state in the `C` state
    /// coin toss. The paper uses a fair coin (0.5); ABL1 sweeps this.
    pub invite_probability: f64,
    /// Inviter color selection (Algorithm 1 / 2 proposal rule).
    pub color_policy: ColorPolicy,
    /// Execution engine.
    pub engine: Engine,
    /// **DiMa2ED only**: how many candidate channels an invitation
    /// carries (Procedure 2-a sends one, the default). A responder may
    /// accept any proposed channel that is legal for it and free of
    /// overheard collisions. Widths > 1 slash the retry rounds caused by
    /// colors held two hops away (which one-hop knowledge cannot see) —
    /// the ABL3 experiment shows width ≈ 4 recovers the paper's reported
    /// ≈ 4Δ round constant. At most [`MAX_PROPOSAL_WIDTH`].
    pub proposal_width: usize,
    /// **DiMa2ED only**: how a responder rejects an invitation whose
    /// channels are all forbidden at it. [`Rejection::Hint`] (the
    /// default) answers with the blocking channels; the pseudocode's
    /// silence stays reachable as [`Rejection::Silent`] for the ABL3 and
    /// Fig. 6 analysis.
    pub rejection: Rejection,
    /// Safety bound on *computation* rounds (each is 3 communication
    /// rounds). `None` picks `64·Δ + 256`, far above the ~2Δ–4Δ typical
    /// terminations, so hitting it signals a bug or adversarial input.
    pub max_compute_rounds: Option<u64>,
    /// Collect per-round statistics.
    pub collect_round_stats: bool,
    /// Validate every `send` against the one-hop model (a binary search
    /// per delivery). A debugging assertion, not a correctness need: the
    /// protocols only address neighbors handed to them by the engine.
    /// Defaults to `true` so the library and its tests keep the check;
    /// measurement entry points ([`ColoringConfig::for_measurement`],
    /// the experiment binaries, the CLI) turn it off and say so in their
    /// run reports.
    pub validate_sends: bool,
    /// Message-loss injection (model-violation experiments only).
    pub faults: FaultPlan,
    /// Link transport: bare (the default) or the reliable ARQ layer.
    pub transport: Transport,
    /// Palette compression after quiescence (and after each churn-batch
    /// repair). Off by default — the paper has no reduction phase.
    pub reduction: ColorReduction,
    /// Measure wall-clock time per engine stage into
    /// [`dima_sim::RunStats::phase_nanos`]. Off by default so run
    /// statistics stay bit-comparable across engines and runs.
    pub profile: bool,
    /// Collect the aggregate metrics registry
    /// ([`dima_sim::RunStats::metrics`]): engine, ARQ and Kempe
    /// counters/gauges/histograms. Deterministic — unlike `profile`,
    /// enabling this keeps run statistics bit-comparable across
    /// engines. Off by default (zero-cost when disabled).
    pub collect_metrics: bool,
}

impl Default for ColoringConfig {
    fn default() -> Self {
        ColoringConfig {
            seed: 0,
            invite_probability: 0.5,
            color_policy: ColorPolicy::default(),
            engine: Engine::default(),
            proposal_width: 1,
            rejection: Rejection::Hint,
            max_compute_rounds: None,
            collect_round_stats: false,
            validate_sends: true,
            faults: FaultPlan::reliable(),
            transport: Transport::default(),
            reduction: ColorReduction::Off,
            profile: false,
            collect_metrics: false,
        }
    }
}

impl ColoringConfig {
    /// The paper's configuration with the given seed.
    pub fn seeded(seed: u64) -> Self {
        ColoringConfig { seed, ..Default::default() }
    }

    /// [`ColoringConfig::seeded`] with per-delivery send validation off —
    /// the configuration experiments and CLI runs start from, so release
    /// measurements don't pay for a debugging assertion. Results are
    /// bit-identical either way; only wall-clock differs.
    pub fn for_measurement(seed: u64) -> Self {
        ColoringConfig { validate_sends: false, ..ColoringConfig::seeded(seed) }
    }

    /// The engine configuration a run of this config uses, with a round
    /// budget of `max_rounds`.
    pub fn engine_config(&self, max_rounds: u64) -> EngineConfig {
        EngineConfig {
            seed: self.seed,
            max_rounds,
            collect_round_stats: self.collect_round_stats,
            validate_sends: self.validate_sends,
            faults: self.faults.clone(),
            profile: self.profile,
            metrics: self.collect_metrics,
        }
    }

    /// Validate ranges; returns a [`CoreError::Config`] on nonsense.
    pub fn validate(&self) -> Result<(), CoreError> {
        if !(0.0..=1.0).contains(&self.invite_probability) || !self.invite_probability.is_finite() {
            return Err(CoreError::Config(format!(
                "invite_probability = {} not in [0, 1]",
                self.invite_probability
            )));
        }
        if self.invite_probability == 0.0 || self.invite_probability == 1.0 {
            return Err(CoreError::Config(
                "invite_probability of 0 or 1 can never form a pair \
                 (needs both invitors and listeners)"
                    .into(),
            ));
        }
        if let Engine::Parallel { threads } = self.engine {
            if threads == 0 {
                return Err(CoreError::Config("parallel engine needs >= 1 thread".into()));
            }
        }
        if !(1..=MAX_PROPOSAL_WIDTH).contains(&self.proposal_width) {
            return Err(CoreError::Config(format!(
                "proposal_width = {} not in [1, {MAX_PROPOSAL_WIDTH}]",
                self.proposal_width
            )));
        }
        if let ColorReduction::Kempe(k) = self.reduction {
            if k.target_colors == Some(0) {
                return Err(CoreError::Config("kempe target_colors must be >= 1".into()));
            }
        }
        Ok(())
    }

    /// The computation-round budget for a graph of maximum degree `delta`.
    pub fn compute_round_budget(&self, delta: usize) -> u64 {
        self.max_compute_rounds.unwrap_or(64 * delta as u64 + 256)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let cfg = ColoringConfig::default();
        assert_eq!(cfg.invite_probability, 0.5);
        assert_eq!(cfg.color_policy, ColorPolicy::LowestIndex);
        assert_eq!(cfg.engine, Engine::Sequential);
        assert_eq!(cfg.proposal_width, 1);
        assert_eq!(cfg.rejection, Rejection::Hint);
        assert!(cfg.validate_sends, "library default keeps the debugging check on");
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn measurement_config_disables_send_validation() {
        let cfg = ColoringConfig::for_measurement(7);
        assert_eq!(cfg.seed, 7);
        assert!(!cfg.validate_sends);
        // Everything else matches the paper configuration.
        assert_eq!(ColoringConfig { validate_sends: true, ..cfg }, ColoringConfig::seeded(7));
    }

    #[test]
    fn budget_scales_with_delta() {
        let cfg = ColoringConfig::default();
        assert_eq!(cfg.compute_round_budget(10), 896);
        let cfg = ColoringConfig { max_compute_rounds: Some(50), ..Default::default() };
        assert_eq!(cfg.compute_round_budget(10), 50);
    }

    #[test]
    fn invalid_probabilities_rejected() {
        for p in [-0.1, 1.5, f64::NAN, 0.0, 1.0] {
            let cfg = ColoringConfig { invite_probability: p, ..Default::default() };
            assert!(cfg.validate().is_err(), "p = {p}");
        }
        let cfg = ColoringConfig { invite_probability: 0.3, ..Default::default() };
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn zero_proposal_width_rejected() {
        let cfg = ColoringConfig { proposal_width: 0, ..Default::default() };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn proposal_width_above_the_inline_capacity_rejected() {
        let cfg = ColoringConfig { proposal_width: 9, ..Default::default() };
        assert!(matches!(cfg.validate(), Err(CoreError::Config(_))));
        // ABL3's widths all pass.
        for width in [1, 2, 4, MAX_PROPOSAL_WIDTH] {
            let cfg = ColoringConfig { proposal_width: width, ..Default::default() };
            assert!(cfg.validate().is_ok(), "width {width}");
        }
    }

    #[test]
    fn transport_defaults_to_bare() {
        assert_eq!(ColoringConfig::default().transport, Transport::Bare);
        let cfg = ColoringConfig { transport: Transport::reliable(), ..Default::default() };
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn reduction_defaults_off_and_validates() {
        let cfg = ColoringConfig::default();
        assert_eq!(cfg.reduction, ColorReduction::Off);
        assert!(!cfg.reduction.is_on());
        let cfg = ColoringConfig {
            reduction: ColorReduction::Kempe(KempeConfig::default()),
            ..Default::default()
        };
        assert!(cfg.reduction.is_on());
        assert!(cfg.validate().is_ok());
        let bad = KempeConfig { target_colors: Some(0) };
        let cfg = ColoringConfig { reduction: ColorReduction::Kempe(bad), ..Default::default() };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn zero_threads_rejected() {
        let cfg = ColoringConfig { engine: Engine::Parallel { threads: 0 }, ..Default::default() };
        assert!(cfg.validate().is_err());
    }
}
