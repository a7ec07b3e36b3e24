//! Online lateness classification (paper, Section 2).
//!
//! The paper's "almost asynchronous" model calls a message *late* when
//! some processor takes more than `K` steps between the sending and the
//! receiving event. The [`LatenessMonitor`] is the code for that
//! definition on every substrate: it classifies each delivery *as it
//! happens*, in O(1) per delivered message and O(1) per step, so a run
//! states whether it was on time without replaying anything.
//!
//! The trick: a processor `p` has taken more than `K` steps in the
//! half-open event interval `(send, now]` exactly when `p`'s `(K+1)`-th
//! most recent step happened strictly after `send`. The monitor keeps a
//! ring of each processor's last `K+1` step events and exposes the
//! evicted-next entry (the ring's oldest) in a flat array. And since
//! each processor's `(K+1)`-th most recent step event only ever moves
//! forward, the maximum over the array is maintained incrementally —
//! classifying a message is ONE integer comparison
//! (`max_kth > send_event`), not a sweep of `n`.

/// Sentinel in `kth` for "fewer than K+1 steps taken so far" — a
/// processor that has not yet taken K+1 steps in total cannot have
/// taken more than K in any interval. Zero is safe: `0 > send_event`
/// never holds.
const NOT_FULL: u64 = 0;

/// Classifies every delivery as on-time or late against `K`, online.
#[derive(Clone, Debug)]
pub struct LatenessMonitor {
    k: u64,
    /// Ring capacity `K + 1`.
    cap: usize,
    /// Flat `n × cap` circular buffers of step-event indices.
    hist: Vec<u64>,
    /// Per-processor count of steps taken.
    counts: Vec<u64>,
    /// Per-processor event index of its `(K+1)`-th most recent step
    /// ([`NOT_FULL`] until the processor has taken `K+1` steps).
    kth: Vec<u64>,
    /// Running maximum of `kth` — sound to cache because every `kth`
    /// entry is nondecreasing (step events strictly increase, so the
    /// ring's oldest entry only moves forward). A message sent at
    /// `send_event` is overdue iff `max_kth > send_event`.
    max_kth: u64,
    delivered: u64,
    late: u64,
}

impl LatenessMonitor {
    /// A monitor for `n` processors at lateness threshold `k`.
    pub fn new(n: usize, k: u64) -> LatenessMonitor {
        let cap = (k + 1) as usize;
        LatenessMonitor {
            k,
            cap,
            hist: vec![0; n * cap],
            counts: vec![0; n],
            kth: vec![NOT_FULL; n],
            max_kth: NOT_FULL,
            delivered: 0,
            late: 0,
        }
    }

    /// Notes that processor `i` stepped at event `event`. Must be
    /// called before classifying the deliveries of that step (the
    /// receiving step itself counts toward the interval). A substrate
    /// numbers its step events with any counter that strictly
    /// increases across processors.
    pub fn note_step(&mut self, i: usize, event: u64) {
        let base = i * self.cap;
        let slot = (self.counts[i] as usize) % self.cap;
        self.hist[base + slot] = event;
        self.counts[i] += 1;
        if self.counts[i] >= self.cap as u64 {
            let kth = self.hist[base + (self.counts[i] as usize) % self.cap];
            self.kth[i] = kth;
            self.max_kth = self.max_kth.max(kth);
        }
    }

    /// Whether a message sent at `send_event` is already overdue: some
    /// processor has taken more than `K` steps since, so it is late if
    /// it is delivered now and whenever it arrives later.
    pub fn overdue(&self, send_event: u64) -> bool {
        let overdue = self.max_kth > send_event;
        debug_assert_eq!(overdue, self.kth.iter().any(|&kth| kth > send_event));
        overdue
    }

    /// Classifies the delivery, at the current step, of a message sent
    /// at `send_event`; returns whether it was late.
    pub fn classify_delivery(&mut self, send_event: u64) -> bool {
        self.delivered += 1;
        let late = self.overdue(send_event);
        self.late += u64::from(late);
        late
    }

    /// Counts `deliveries` deliveries, at the current step, that the
    /// caller knows are on time without asking: a message sent no
    /// earlier than one just classified on time is on time too
    /// ([`LatenessMonitor::overdue`] only falls as `send_event` grows).
    pub fn count_on_time(&mut self, deliveries: u64) {
        self.delivered += deliveries;
    }

    /// The lateness threshold `K` this monitor classifies against.
    pub fn k(&self) -> u64 {
        self.k
    }

    /// Total deliveries classified so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Number of deliveries classified late.
    pub fn late_count(&self) -> u64 {
        self.late
    }

    /// Whether every delivery so far was on-time — the paper's
    /// Section 2 dichotomy hinges on this bit: on-time runs must decide
    /// within the expected stage bound, late runs may stall but must
    /// still never violate safety.
    pub fn on_time(&self) -> bool {
        self.late == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivery_within_k_steps_is_on_time() {
        // K = 2, two processors. p0 sends at event 0; p1 receives at
        // event 2 after p0 took one more step: nobody exceeded 2 steps.
        let mut m = LatenessMonitor::new(2, 2);
        m.note_step(0, 0); // send step
        m.note_step(0, 1);
        m.note_step(1, 2); // receiving step
        assert!(!m.classify_delivery(0));
        assert!(m.on_time());
        assert_eq!(m.delivered(), 1);
        assert_eq!(m.late_count(), 0);
    }

    #[test]
    fn sender_racing_ahead_marks_the_delivery_late() {
        // K = 2. p0 sends at event 0 then steps 3 more times before p1
        // receives: p0 took 3 > K steps in (0, recv].
        let mut m = LatenessMonitor::new(2, 2);
        m.note_step(0, 0);
        m.note_step(0, 1);
        m.note_step(0, 2);
        m.note_step(0, 3);
        m.note_step(1, 4);
        assert!(m.classify_delivery(0));
        assert!(!m.on_time());
        assert_eq!(m.late_count(), 1);
    }

    #[test]
    fn boundary_is_exclusive_at_exactly_k_steps() {
        // K = 2: exactly 2 intervening steps is still on-time; the step
        // at the send event itself does not count.
        let mut m = LatenessMonitor::new(1, 2);
        m.note_step(0, 0);
        m.note_step(0, 1);
        m.note_step(0, 2);
        assert!(!m.overdue(0));
        assert!(!m.classify_delivery(0));
        m.note_step(0, 3);
        assert!(m.overdue(0) && !m.overdue(1));
        assert!(m.classify_delivery(0));
    }

    #[test]
    fn counted_deliveries_are_delivered_and_on_time() {
        // K = 1. p0 sends at events 0 and 2, steps again; p1 receives
        // both: the older is late, the younger on time, and so is any
        // message sent after it.
        let mut m = LatenessMonitor::new(2, 1);
        for event in 0..4 {
            m.note_step(0, event);
        }
        m.note_step(1, 4);
        assert!(m.classify_delivery(0));
        assert!(!m.classify_delivery(2));
        assert!(!m.overdue(3));
        m.count_on_time(2);
        assert_eq!((m.delivered(), m.late_count()), (4, 1));
    }

    #[test]
    fn young_processors_never_trip_the_monitor() {
        let mut m = LatenessMonitor::new(3, 4);
        m.note_step(0, 0);
        m.note_step(1, 1);
        assert!(!m.overdue(0));
        assert!(!m.classify_delivery(0));
        assert!(m.on_time());
    }
}
