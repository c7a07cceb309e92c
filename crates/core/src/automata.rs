//! The matching-discovery automata (the paper's Figure 1).
//!
//! Each vertex cycles through the states below once per *computation
//! round*. A computation round spans **three communication rounds** of the
//! simulator:
//!
//! ```text
//! comm round      invitor side              listener side
//! -----------     ---------------------     ----------------------
//! 0 (invite)      C → I: coin, propose,     C → L: coin, listen
//!                 send invitation
//! 1 (respond)     W: wait for replies       R: keep own invitations,
//!                                           accept one, reply
//! 2 (exchange)    U → E: commit edge,       U → E: commit edge,
//!                 broadcast new color       broadcast new color
//! ```
//!
//! Algorithm 1 and matching address the invitation and the reply to
//! their one receiver; Algorithm 2 broadcasts both, because its
//! listeners act on the invitations and replies they overhear.
//!
//! After the exchange step every node either returns to `C` or, having
//! colored (matched) everything it needs, enters `D` and leaves the
//! computation. The three protocols in this crate share this skeleton and
//! the phase bookkeeping below.

use rand::rngs::SmallRng;
use rand::Rng;

/// The states of the automata (paper Fig. 1 plus the `E` exchange state
/// that both coloring algorithms add).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum State {
    /// Choose: toss a coin to become invitor or listener.
    Choose,
    /// Invitor: propose an edge (and color) to one neighbor.
    Invite,
    /// Listener: collect invitations.
    Listen,
    /// Respond: accept at most one kept invitation.
    Respond,
    /// Wait: collect replies to the invitation sent.
    Wait,
    /// Update: commit the negotiated edge locally.
    Update,
    /// Exchange: broadcast newly used colors, ingest neighbors'.
    Exchange,
    /// Done: everything incident is colored; the node has left.
    Done,
}

impl State {
    /// The state's one-letter name, as traces print it.
    pub fn label(self) -> &'static str {
        match self {
            State::Choose => "C",
            State::Invite => "I",
            State::Listen => "L",
            State::Respond => "R",
            State::Wait => "W",
            State::Update => "U",
            State::Exchange => "E",
            State::Done => "D",
        }
    }
}

/// Which communication round of the computation round we are in.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Comm round 0: `C` then `I`/`L`.
    InviteStep,
    /// Comm round 1: `R`/`W`.
    RespondStep,
    /// Comm round 2: `U` then `E`.
    ExchangeStep,
}

impl Phase {
    /// Phase of communication round `r` (0-based).
    #[inline]
    pub fn of_round(r: u64) -> Phase {
        match r % 3 {
            0 => Phase::InviteStep,
            1 => Phase::RespondStep,
            _ => Phase::ExchangeStep,
        }
    }

    /// Number of complete computation rounds after `comm_rounds`
    /// communication rounds.
    #[inline]
    pub fn compute_rounds(comm_rounds: u64) -> u64 {
        comm_rounds.div_ceil(3)
    }
}

/// The role a node took in the current computation round.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Role {
    /// Became `I` in the coin toss.
    Invitor,
    /// Became `L` in the coin toss.
    Listener,
}

/// The paper's `C` state: a (possibly biased) coin toss. The paper uses a
/// fair coin; the probability is the ABL1 ablation knob.
#[inline]
pub fn choose_role(rng: &mut SmallRng, invite_probability: f64) -> Role {
    if rng.random_bool(invite_probability) {
        Role::Invitor
    } else {
        Role::Listener
    }
}

/// Pick a uniformly random index below `n`: one `random_range(0..n)`
/// draw when `n > 0`, no draw otherwise. Every uniform pick in the
/// automata goes through here, so a count-then-`nth` pick over an
/// iterator draws exactly as a pick from the collected slice would.
#[inline]
pub fn pick_index(rng: &mut SmallRng, n: usize) -> Option<usize> {
    (n > 0).then(|| rng.random_range(0..n))
}

/// Pick a uniformly random element of `items` (used for the random
/// uncolored edge of `I`).
#[inline]
pub fn pick_uniform<'a, T>(rng: &mut SmallRng, items: &'a [T]) -> Option<&'a T> {
    pick_index(rng, items.len()).map(|i| &items[i])
}

/// Pick a uniformly random element of `items` without collecting it: one
/// counting pass, then (if nonempty) one selection pass over a clone.
/// Draws from `rng` exactly as [`pick_uniform`] does on the collected
/// slice, so swapping between the two cannot perturb a seeded run.
#[inline]
pub fn pick_uniform_iter<T, I>(rng: &mut SmallRng, mut items: I) -> Option<T>
where
    I: Iterator<Item = T> + Clone,
{
    let i = pick_index(rng, items.clone().count())?;
    items.nth(i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn phase_cycles_every_three_rounds() {
        assert_eq!(Phase::of_round(0), Phase::InviteStep);
        assert_eq!(Phase::of_round(1), Phase::RespondStep);
        assert_eq!(Phase::of_round(2), Phase::ExchangeStep);
        assert_eq!(Phase::of_round(3), Phase::InviteStep);
        assert_eq!(Phase::of_round(301), Phase::RespondStep);
    }

    #[test]
    fn compute_round_conversion() {
        assert_eq!(Phase::compute_rounds(0), 0);
        assert_eq!(Phase::compute_rounds(1), 1);
        assert_eq!(Phase::compute_rounds(3), 1);
        assert_eq!(Phase::compute_rounds(4), 2);
        assert_eq!(Phase::compute_rounds(6), 2);
    }

    #[test]
    fn fair_coin_is_roughly_fair() {
        let mut rng = SmallRng::seed_from_u64(1);
        let n = 10_000;
        let invitors = (0..n).filter(|_| choose_role(&mut rng, 0.5) == Role::Invitor).count();
        let rate = invitors as f64 / n as f64;
        assert!((rate - 0.5).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn biased_coin_respects_probability() {
        let mut rng = SmallRng::seed_from_u64(2);
        let n = 10_000;
        let invitors = (0..n).filter(|_| choose_role(&mut rng, 0.2) == Role::Invitor).count();
        let rate = invitors as f64 / n as f64;
        assert!((rate - 0.2).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn pick_uniform_bounds_and_coverage() {
        let mut rng = SmallRng::seed_from_u64(3);
        assert_eq!(pick_uniform::<u32>(&mut rng, &[]), None);
        let items = [10, 20, 30];
        let mut seen = [false; 3];
        for _ in 0..200 {
            let &v = pick_uniform(&mut rng, &items).unwrap();
            seen[(v / 10 - 1) as usize] = true;
        }
        assert_eq!(seen, [true, true, true]);
    }

    #[test]
    fn state_enum_is_complete() {
        // The automata has exactly the paper's states (+E).
        let all = [
            State::Choose,
            State::Invite,
            State::Listen,
            State::Respond,
            State::Wait,
            State::Update,
            State::Exchange,
            State::Done,
        ];
        assert_eq!(all.len(), 8);
    }
}
