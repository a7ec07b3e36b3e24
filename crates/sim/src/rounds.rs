//! Asynchronous round accounting (paper, Section 2.2).
//!
//! The paper measures protocol time in *asynchronous rounds*, defined
//! inductively per processor:
//!
//! * round 1 begins when `p` first takes a step and ends when `p`'s
//!   clock reads `K`;
//! * round `r > 1` begins at the end of `p`'s round `r-1` and ends
//!   either `K` clock ticks after the end of round `r-1`, or `K` clock
//!   ticks after `p` receives the last message sent by a nonfaulty
//!   processor `q` in `q`'s round `r-1`, whichever happens later.
//!
//! The requirement that a round last at least `K` ticks prevents rounds
//! from collapsing when no messages are sent, which is what makes
//! timeouts usable. If processors are synchronized, send only at round
//! beginnings and all delays are exactly `K`, the definition reduces to
//! standard synchronous rounds.
//!
//! **Interpretation note** (also recorded in `DESIGN.md`): "the last
//! message sent by a nonfaulty processor `q` in `q`'s round `r-1`" is
//! read per destination — for each nonfaulty `q`, the last message `q`
//! sends *to `p`* during `q`'s round `r-1`, if any; the round-`r` end
//! takes the maximum receipt time over all such `q`. Messages that were
//! never delivered within the traced prefix are ignored, which can only
//! make the computed round ends *earlier* and the reported decision
//! rounds *later* — i.e. the accountant is conservative with respect to
//! the paper's "decides within 14 expected rounds" claim.
//!
//! The accountant works post-hoc over a [`Trace`], with the faulty set
//! of the traced prefix known, mirroring the global-knowledge flavour of
//! the paper's definition.

use rtc_model::{ProcessorId, TimingParams};

use crate::trace::Trace;

/// Per-processor asynchronous-round boundaries, in local clock ticks.
#[derive(Clone, Debug)]
pub struct RoundBoundaries {
    /// `ends[p][r-1]` = the local clock reading at which `p`'s round `r`
    /// ends.
    ends: Vec<Vec<u64>>,
}

impl RoundBoundaries {
    /// The clock tick at which processor `p`'s round `r` (1-based) ends,
    /// if it was computed.
    pub fn end_of(&self, p: ProcessorId, r: usize) -> Option<u64> {
        if r == 0 {
            return Some(0);
        }
        self.ends[p.index()].get(r - 1).copied()
    }

    /// The round (1-based) within which `p`'s local clock reading
    /// `clock` falls, if within the computed horizon.
    pub fn round_at(&self, p: ProcessorId, clock: u64) -> Option<u64> {
        let ends = &self.ends[p.index()];
        ends.iter()
            .position(|&end| clock <= end)
            .map(|idx| idx as u64 + 1)
    }
}

/// Computes asynchronous rounds for a recorded trace.
#[derive(Debug)]
pub struct RoundAccountant<'a> {
    trace: &'a Trace,
    k: u64,
}

impl<'a> RoundAccountant<'a> {
    /// Creates an accountant over `trace` with timing constants
    /// `timing`.
    pub fn new(trace: &'a Trace, timing: TimingParams) -> RoundAccountant<'a> {
        RoundAccountant {
            trace,
            k: timing.k(),
        }
    }

    /// Computes round boundaries for every processor up to `max_rounds`
    /// rounds.
    pub fn boundaries(&self, max_rounds: usize) -> RoundBoundaries {
        let n = self.trace.population();
        let faulty: Vec<bool> = {
            let mut f = vec![false; n];
            for p in self.trace.faulty() {
                f[p.index()] = true;
            }
            f
        };
        // For each ordered pair (q, p): deliveries q -> p as
        // (sender_clock, recv_clock), sorted by sender clock.
        let mut channel: Vec<Vec<Vec<(u64, u64)>>> = vec![vec![Vec::new(); n]; n];
        for m in self.trace.messages() {
            if let Some(rc) = m.recv_clock {
                channel[m.from.index()][m.to.index()].push((m.sender_clock.ticks(), rc.ticks()));
            }
        }
        for per_q in &mut channel {
            for per_p in per_q {
                per_p.sort_unstable();
            }
        }
        let mut ends: Vec<Vec<u64>> = vec![Vec::with_capacity(max_rounds); n];
        for r in 1..=max_rounds {
            for p in 0..n {
                let end = if r == 1 {
                    self.k
                } else {
                    let prev = ends[p][r - 2];
                    let mut end = prev + self.k;
                    for q in 0..n {
                        if q == p || faulty[q] {
                            continue;
                        }
                        // q's round r-1 spans sender clocks
                        // (q_end[r-2], q_end[r-1]].
                        let lo = if r == 2 { 0 } else { ends[q][r - 3] };
                        let hi = ends[q][r - 2];
                        // Last delivery from q to p sent in that window.
                        let msgs = &channel[q][p];
                        let idx = msgs.partition_point(|&(sc, _)| sc <= hi);
                        if idx > 0 {
                            let (sc, rc) = msgs[idx - 1];
                            if sc > lo {
                                end = end.max(rc + self.k);
                            }
                        }
                    }
                    end
                };
                ends[p].push(end);
            }
        }
        RoundBoundaries { ends }
    }

    /// The asynchronous round by which each processor decided, if it
    /// decided within `max_rounds` rounds (`None` for processors that
    /// did not decide, or decided beyond the horizon).
    pub fn decision_rounds(&self, max_rounds: usize) -> Vec<Option<u64>> {
        let bounds = self.boundaries(max_rounds);
        let n = self.trace.population();
        ProcessorId::all(n)
            .map(|p| {
                let d = self.trace.decision_of(p)?;
                bounds.round_at(p, d.clock.ticks())
            })
            .collect()
    }

    /// The latest decision round across nonfaulty processors — the `r`
    /// in the paper's `DONE(R, r)` — if all nonfaulty processors decided
    /// within the horizon.
    pub fn done_round(&self, max_rounds: usize) -> Option<u64> {
        let per_proc = self.decision_rounds(max_rounds);
        let faulty = self.trace.faulty();
        let mut worst = 0;
        for p in ProcessorId::all(self.trace.population()) {
            if faulty.contains(&p) {
                continue;
            }
            match per_proc[p.index()] {
                Some(r) => worst = worst.max(r),
                None => return None,
            }
        }
        Some(worst)
    }
}

#[cfg(test)]
mod tests {
    use rtc_model::{LocalClock, Value};

    use super::*;
    use crate::envelope::MsgId;
    use crate::trace::{DecisionRecord, EventRecord};

    fn timing(k: u64) -> TimingParams {
        TimingParams::new(k).unwrap()
    }

    /// A trace with no messages: every round is exactly K ticks.
    #[test]
    fn silent_rounds_last_exactly_k() {
        let mut t = Trace::new(2);
        for clock in 1..=20u64 {
            for p in 0..2 {
                t.push_event(EventRecord::Step {
                    p: ProcessorId::new(p),
                    clock_after: LocalClock::new(clock),
                    delivered: vec![],
                    sent: vec![],
                });
            }
        }
        let acc = RoundAccountant::new(&t, timing(4));
        let b = acc.boundaries(3);
        for p in ProcessorId::all(2) {
            assert_eq!(b.end_of(p, 1), Some(4));
            assert_eq!(b.end_of(p, 2), Some(8));
            assert_eq!(b.end_of(p, 3), Some(12));
        }
        assert_eq!(b.round_at(ProcessorId::new(0), 1), Some(1));
        assert_eq!(b.round_at(ProcessorId::new(0), 4), Some(1));
        assert_eq!(b.round_at(ProcessorId::new(0), 5), Some(2));
    }

    /// A message sent in q's round 1 and received late stretches p's
    /// round 2.
    #[test]
    fn late_round_one_message_stretches_round_two() {
        let mut t = Trace::new(2);
        let k = 4;
        // q = p1 sends to p = p0 at q's clock 2 (within q's round 1).
        t.push_event(EventRecord::Step {
            p: ProcessorId::new(1),
            clock_after: LocalClock::new(1),
            delivered: vec![],
            sent: vec![],
        });
        t.push_event(EventRecord::Step {
            p: ProcessorId::new(1),
            clock_after: LocalClock::new(2),
            delivered: vec![],
            sent: vec![MsgId(0)],
        });
        // p0 receives it at its clock 10 (event 2).
        t.push_event(EventRecord::Step {
            p: ProcessorId::new(0),
            clock_after: LocalClock::new(10),
            delivered: vec![MsgId(0)],
            sent: vec![],
        });
        let acc = RoundAccountant::new(&t, timing(k));
        let b = acc.boundaries(2);
        // p0's round 2 ends at max(4 + 4, 10 + 4) = 14.
        assert_eq!(b.end_of(ProcessorId::new(0), 2), Some(14));
        // p1 heard nothing, so its round 2 ends at 8.
        assert_eq!(b.end_of(ProcessorId::new(1), 2), Some(8));
    }

    /// Messages from faulty processors do not stretch rounds.
    #[test]
    fn faulty_senders_are_ignored() {
        let mut t = Trace::new(2);
        let k = 4;
        t.push_event(EventRecord::Step {
            p: ProcessorId::new(1),
            clock_after: LocalClock::new(1),
            delivered: vec![],
            sent: vec![MsgId(0)],
        });
        t.push_event(EventRecord::Step {
            p: ProcessorId::new(0),
            clock_after: LocalClock::new(10),
            delivered: vec![MsgId(0)],
            sent: vec![],
        });
        t.push_event(EventRecord::Crash {
            p: ProcessorId::new(1),
        });
        let acc = RoundAccountant::new(&t, timing(k));
        let b = acc.boundaries(2);
        // p1 is faulty, so its late message does not stretch p0's round 2.
        assert_eq!(b.end_of(ProcessorId::new(0), 2), Some(8));
    }

    #[test]
    fn decision_rounds_and_done_round() {
        let mut t = Trace::new(2);
        for clock in 1..=10u64 {
            for p in 0..2 {
                t.push_event(EventRecord::Step {
                    p: ProcessorId::new(p),
                    clock_after: LocalClock::new(clock),
                    delivered: vec![],
                    sent: vec![],
                });
            }
        }
        t.push_decision(DecisionRecord {
            p: ProcessorId::new(0),
            value: Value::One,
            clock: LocalClock::new(3),
            event: 5,
        });
        t.push_decision(DecisionRecord {
            p: ProcessorId::new(1),
            value: Value::One,
            clock: LocalClock::new(7),
            event: 13,
        });
        let acc = RoundAccountant::new(&t, timing(4));
        let rounds = acc.decision_rounds(5);
        assert_eq!(rounds[0], Some(1)); // clock 3 <= 4
        assert_eq!(rounds[1], Some(2)); // clock 7 in (4, 8]
        assert_eq!(acc.done_round(5), Some(2));
    }

    #[test]
    fn done_round_is_none_when_someone_never_decides() {
        let mut t = Trace::new(2);
        t.push_event(EventRecord::Step {
            p: ProcessorId::new(0),
            clock_after: LocalClock::new(1),
            delivered: vec![],
            sent: vec![],
        });
        t.push_decision(DecisionRecord {
            p: ProcessorId::new(0),
            value: Value::Zero,
            clock: LocalClock::new(1),
            event: 0,
        });
        let acc = RoundAccountant::new(&t, timing(2));
        assert_eq!(acc.done_round(4), None);
    }
}
