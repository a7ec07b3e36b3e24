//! Dense hot-state tables for the commit protocol.
//!
//! Every delivery in Protocol 2 touches two per-peer tables: "have I
//! heard a `GO` from `p`?" and "what was `p`'s first vote?". The
//! [`VoteBoard`] packs both into ONE byte per peer, so the per-delivery
//! hot path is one indexed byte read-modify-write. Protocol 1's stage
//! boards pack their two exchanges the same way.
//!
//! The bytes live *in the board*: up to `PEERS_INLINE` peers a board
//! is part of the automaton that owns it and has no heap object of its
//! own; a larger population's board is one allocation
//! ([`InlineVec`]). Either way a board is a flat dense slab indexed by
//! processor index.

use rtc_model::{ProcessorId, Value};

use crate::inline::InlineVec;

/// Peers whose per-peer byte is held inline in a board. Every
/// `BENCHMARK.json` workload and all but the n = 32 quarter of the
/// scheduler corpus run n ≤ 16, and at 16 a board is 17 bytes against
/// a `Vec`'s 24 plus its heap block; running a `commit_batch_n16`
/// instance makes 65 allocations with the boards inline against 345
/// with a `Vec` each (docs/PERF.md "PR 19").
pub(crate) const PEERS_INLINE: usize = 16;

/// `GO` heard from this peer.
const GO: u8 = 0b001;
/// A vote has been recorded for this peer.
const VOTE_PRESENT: u8 = 0b010;
/// The recorded vote is [`Value::One`] (meaningful only when
/// [`VOTE_PRESENT`] is set).
const VOTE_ONE: u8 = 0b100;

/// Dense per-peer `GO`/vote table: one byte per processor, held inline
/// up to 16 of them, first-write-wins semantics on both fields.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VoteBoard {
    cells: InlineVec<u8, PEERS_INLINE>,
    go_count: usize,
    vote_count: usize,
}

impl VoteBoard {
    /// An empty board for a population of `n` processors.
    pub fn new(n: usize) -> VoteBoard {
        VoteBoard {
            cells: InlineVec::filled(n, 0),
            go_count: 0,
            vote_count: 0,
        }
    }

    /// The population this board is sized for.
    pub fn population(&self) -> usize {
        self.cells.len()
    }

    /// Records a `GO` heard from `p`; only the first one counts.
    pub fn mark_go(&mut self, p: ProcessorId) {
        let cell = &mut self.cells[p.index()];
        if *cell & GO == 0 {
            *cell |= GO;
            self.go_count += 1;
        }
    }

    /// Records a vote heard from `p`; only the first one counts.
    pub fn mark_vote(&mut self, p: ProcessorId, v: Value) {
        let cell = &mut self.cells[p.index()];
        if *cell & VOTE_PRESENT == 0 {
            *cell |= VOTE_PRESENT;
            if v == Value::One {
                *cell |= VOTE_ONE;
            }
            self.vote_count += 1;
        }
    }

    /// Whether a `GO` from `p` has been recorded.
    pub fn go_seen(&self, p: ProcessorId) -> bool {
        self.cells[p.index()] & GO != 0
    }

    /// The first vote recorded for `p`, if any.
    pub fn vote_of(&self, p: ProcessorId) -> Option<Value> {
        let cell = self.cells[p.index()];
        if cell & VOTE_PRESENT == 0 {
            None
        } else {
            Some(Value::from_bool(cell & VOTE_ONE != 0))
        }
    }

    /// Number of distinct processors a `GO` has been heard from.
    pub fn go_count(&self) -> usize {
        self.go_count
    }

    /// Number of distinct processors a vote has been heard from.
    pub fn vote_count(&self) -> usize {
        self.vote_count
    }

    /// Whether every *recorded* vote is [`Value::One`] (Protocol 2's
    /// instructions 9–11 combine this with `vote_count() == n`).
    pub fn all_votes_are_one(&self) -> bool {
        self.cells
            .iter()
            .all(|&c| c & VOTE_PRESENT == 0 || c & VOTE_ONE != 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: usize) -> ProcessorId {
        ProcessorId::new(i)
    }

    #[test]
    fn first_write_wins_on_both_fields() {
        let mut b = VoteBoard::new(3);
        b.mark_go(p(1));
        b.mark_go(p(1));
        assert_eq!(b.go_count(), 1);
        assert!(b.go_seen(p(1)));
        assert!(!b.go_seen(p(0)));

        b.mark_vote(p(2), Value::Zero);
        b.mark_vote(p(2), Value::One); // ignored: first vote sticks
        assert_eq!(b.vote_count(), 1);
        assert_eq!(b.vote_of(p(2)), Some(Value::Zero));
        assert_eq!(b.vote_of(p(0)), None);
    }

    #[test]
    fn go_and_vote_share_a_cell_without_interference() {
        let mut b = VoteBoard::new(2);
        b.mark_vote(p(0), Value::One);
        assert!(!b.go_seen(p(0)));
        b.mark_go(p(0));
        assert_eq!(b.vote_of(p(0)), Some(Value::One));
        assert!(b.go_seen(p(0)));
    }

    #[test]
    fn unanimity_check_matches_the_recorded_votes() {
        let mut b = VoteBoard::new(3);
        assert!(b.all_votes_are_one()); // vacuous
        b.mark_vote(p(0), Value::One);
        b.mark_vote(p(1), Value::One);
        assert!(b.all_votes_are_one());
        b.mark_vote(p(2), Value::Zero);
        assert!(!b.all_votes_are_one());
    }
}
