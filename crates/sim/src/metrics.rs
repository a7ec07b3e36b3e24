//! Quantitative summaries of recorded runs.

use rtc_model::{ProcessorId, TimingParams};

use crate::envelope::MsgId;
use crate::trace::Trace;

/// Which messages of a run were late (Section 2.2).
#[derive(Clone, Debug, Default)]
pub struct LatenessReport {
    /// Ids of late messages, in send order.
    pub late: Vec<MsgId>,
}

impl LatenessReport {
    /// Whether the run was on-time.
    pub fn on_time(&self) -> bool {
        self.late.is_empty()
    }
}

/// A bundle of headline numbers extracted from one trace.
#[derive(Clone, Debug)]
pub struct RunMetrics {
    /// Messages sent during the run.
    pub messages_sent: usize,
    /// Messages delivered during the run.
    pub messages_delivered: usize,
    /// Messages dropped at crashes.
    pub messages_dropped: usize,
    /// Total events executed.
    pub events: u64,
    /// Per-processor local clock at decision time (`None` if undecided).
    pub decision_clocks: Vec<Option<u64>>,
    /// The latest decision clock among nonfaulty processors, if all of
    /// them decided.
    pub worst_nonfaulty_decision_clock: Option<u64>,
    /// Lateness analysis at the run's `K`.
    pub lateness: LatenessReport,
    /// Whether every delivery was on-time (Section 2's dichotomy bit).
    pub on_time: bool,
    /// Number of deliveries classified late against `K`.
    pub late_messages: usize,
}

impl RunMetrics {
    /// Extracts metrics from a trace under timing constants `timing`.
    pub fn from_trace(trace: &Trace, timing: TimingParams) -> RunMetrics {
        let n = trace.population();
        let k = timing.k();
        let late: Vec<MsgId> = trace
            .messages()
            .iter()
            .filter(|m| trace.is_late(m, k))
            .map(|m| m.id)
            .collect();
        let decision_clocks: Vec<Option<u64>> = ProcessorId::all(n)
            .map(|p| trace.decision_of(p).map(|d| d.clock.ticks()))
            .collect();
        let faulty = trace.faulty();
        let mut worst = Some(0);
        for p in ProcessorId::all(n) {
            if faulty.contains(&p) {
                continue;
            }
            match (worst, decision_clocks[p.index()]) {
                (Some(w), Some(c)) => worst = Some(w.max(c)),
                _ => worst = None,
            }
        }
        let late_messages = late.len();
        RunMetrics {
            messages_sent: trace.messages().len(),
            messages_delivered: trace.messages().iter().filter(|m| m.delivered()).count(),
            messages_dropped: trace.messages().iter().filter(|m| m.dropped).count(),
            events: trace.event_count() as u64,
            decision_clocks,
            worst_nonfaulty_decision_clock: worst,
            on_time: late_messages == 0,
            late_messages,
            lateness: LatenessReport { late },
        }
    }
}

#[cfg(test)]
mod tests {
    use rtc_model::{LocalClock, Value};

    use super::*;
    use crate::trace::{DecisionRecord, EventRecord};

    #[test]
    fn counts_and_decision_clocks() {
        let mut t = Trace::new(2);
        t.push_event(EventRecord::Step {
            p: ProcessorId::new(0),
            clock_after: LocalClock::new(1),
            delivered: vec![],
            sent: vec![MsgId(0)],
        });
        t.push_event(EventRecord::Step {
            p: ProcessorId::new(1),
            clock_after: LocalClock::new(1),
            delivered: vec![MsgId(0)],
            sent: vec![],
        });
        t.push_decision(DecisionRecord {
            p: ProcessorId::new(0),
            value: Value::One,
            clock: LocalClock::new(1),
            event: 0,
        });
        t.push_decision(DecisionRecord {
            p: ProcessorId::new(1),
            value: Value::One,
            clock: LocalClock::new(1),
            event: 1,
        });
        let m = RunMetrics::from_trace(&t, TimingParams::default());
        assert_eq!(m.messages_sent, 1);
        assert_eq!(m.messages_delivered, 1);
        assert_eq!(m.messages_dropped, 0);
        assert_eq!(m.events, 2);
        assert_eq!(m.worst_nonfaulty_decision_clock, Some(1));
        assert!(m.lateness.on_time());
    }

    #[test]
    fn undecided_processor_clears_worst_clock() {
        let mut t = Trace::new(2);
        t.push_decision(DecisionRecord {
            p: ProcessorId::new(0),
            value: Value::One,
            clock: LocalClock::new(5),
            event: 0,
        });
        let m = RunMetrics::from_trace(&t, TimingParams::default());
        assert_eq!(m.worst_nonfaulty_decision_clock, None);
    }

    #[test]
    fn crashed_undecided_processor_is_excused() {
        let mut t = Trace::new(2);
        t.push_event(EventRecord::Crash {
            p: ProcessorId::new(1),
        });
        t.push_decision(DecisionRecord {
            p: ProcessorId::new(0),
            value: Value::One,
            clock: LocalClock::new(5),
            event: 1,
        });
        let m = RunMetrics::from_trace(&t, TimingParams::default());
        assert_eq!(m.worst_nonfaulty_decision_clock, Some(5));
    }
}
