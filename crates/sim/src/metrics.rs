//! Quantitative summaries of recorded runs.

use rtc_model::ProcessorId;

use crate::trace::Trace;

/// A bundle of headline numbers extracted from one trace.
#[derive(Clone, Debug)]
pub struct RunMetrics {
    /// Messages sent during the run.
    pub messages_sent: usize,
    /// Total events executed.
    pub events: u64,
    /// Per-processor local clock at decision time (`None` if undecided).
    pub decision_clocks: Vec<Option<u64>>,
    /// The latest decision clock among nonfaulty processors, if all of
    /// them decided.
    pub worst_nonfaulty_decision_clock: Option<u64>,
}

impl RunMetrics {
    /// Extracts metrics from a trace.
    pub fn from_trace(trace: &Trace) -> RunMetrics {
        let n = trace.population();
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
        RunMetrics {
            messages_sent: trace.messages().len(),
            events: trace.event_count() as u64,
            decision_clocks,
            worst_nonfaulty_decision_clock: worst,
        }
    }
}

#[cfg(test)]
mod tests {
    use rtc_model::{LocalClock, Value};

    use super::*;
    use crate::envelope::MsgId;
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
        let m = RunMetrics::from_trace(&t);
        assert_eq!(m.messages_sent, 1);
        assert_eq!(m.events, 2);
        assert_eq!(m.worst_nonfaulty_decision_clock, Some(1));
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
        let m = RunMetrics::from_trace(&t);
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
        let m = RunMetrics::from_trace(&t);
        assert_eq!(m.worst_nonfaulty_decision_clock, Some(5));
    }
}
