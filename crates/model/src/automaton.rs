//! The state-machine abstraction protocols implement.
//!
//! The paper models a processor as an infinite state machine whose
//! transition function consumes the current state, the set of messages
//! received at this step, and one random number, and produces the new
//! state plus at most one message per destination (Section 2.1). The
//! [`Automaton`] trait is that transition function; the simulator
//! (`rtc-sim`) and the threaded runtime (`rtc-runtime`) are two
//! interchangeable substrates that drive it.
//!
//! Every send in the paper's protocols is a *broadcast*, so a step does
//! not return one owned message per destination. It reads its inbox by
//! reference and writes into an [`Outbox`]: one broadcast slot plus a
//! list of direct sends. A substrate that stores messages (the
//! simulator) keeps one body per broadcast; a substrate that must own
//! an envelope per destination (channels, sockets) clones at its edge.
//! [`Automaton::step`] — the slice-in, `Vec`-out form — is provided
//! once, on top of [`Automaton::step_into`], for callers that want the
//! expanded sends.

use std::fmt;

use crate::{Decision, ProcessorId, StepRng, Value};

/// A message delivered to an automaton at the current step.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Delivery<M> {
    /// The sender of the message.
    pub from: ProcessorId,
    /// The payload.
    pub msg: M,
}

impl<M> Delivery<M> {
    /// Creates a delivery record.
    pub fn new(from: ProcessorId, msg: M) -> Delivery<M> {
        Delivery { from, msg }
    }
}

/// A message emitted by an automaton at the current step.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Send<M> {
    /// The destination processor.
    pub to: ProcessorId,
    /// The payload.
    pub msg: M,
}

impl<M> Send<M> {
    /// Creates a send record.
    pub fn new(to: ProcessorId, msg: M) -> Send<M> {
        Send { to, msg }
    }
}

/// What an automaton emits at one step: at most one broadcast plus any
/// number of direct sends.
///
/// Destination `q` receives the direct send naming it if there is one,
/// otherwise the broadcast (which goes to every processor but the
/// sender). "At most one message per destination per step" is therefore
/// structural for the broadcast part; only two direct sends naming one
/// destination can break it, and substrates check just those.
///
/// Substrates own the outbox and reuse it across steps
/// ([`Outbox::clear`] keeps the direct-send list's capacity).
#[derive(Clone, Debug)]
pub struct Outbox<M> {
    broadcast: Option<M>,
    direct: Vec<Send<M>>,
}

impl<M> Default for Outbox<M> {
    fn default() -> Outbox<M> {
        Outbox::new()
    }
}

impl<M> Outbox<M> {
    /// An empty outbox.
    pub fn new() -> Outbox<M> {
        Outbox {
            broadcast: None,
            direct: Vec::new(),
        }
    }

    /// Sends `msg` to every other processor. A step broadcasts at most
    /// once: it bundles what it has to say.
    pub fn broadcast(&mut self, msg: M) {
        debug_assert!(self.broadcast.is_none(), "one broadcast per step");
        self.broadcast = Some(msg);
    }

    /// Sends `msg` to `to` alone, in place of this step's broadcast
    /// there.
    pub fn send(&mut self, to: ProcessorId, msg: M) {
        self.direct.push(Send::new(to, msg));
    }

    /// Empties the outbox for the next step, keeping its capacity.
    pub fn clear(&mut self) {
        self.broadcast = None;
        self.direct.clear();
    }

    /// The direct sends, in call order.
    pub fn direct(&self) -> &[Send<M>] {
        &self.direct
    }

    /// Moves the broadcast out, leaving the direct sends.
    pub fn take_broadcast(&mut self) -> Option<M> {
        self.broadcast.take()
    }

    /// Moves the direct sends out in call order, keeping the list's
    /// capacity.
    pub fn drain_direct(&mut self) -> std::vec::Drain<'_, Send<M>> {
        self.direct.drain(..)
    }

    /// What each destination receives, by reference, in the order
    /// substrates file it: with a broadcast, destinations ascending
    /// (direct sends substituted in place, the sender `from` skipped
    /// unless it addressed itself); without one, the direct sends in
    /// call order. `n` is the population size; direct sends must name
    /// processors below it.
    pub fn sends(&self, from: ProcessorId, n: usize) -> impl Iterator<Item = (ProcessorId, &M)> {
        let direct = &self.direct;
        let broadcast = self.broadcast.as_ref();
        let fanned = broadcast.into_iter().flat_map(move |body| {
            ProcessorId::all(n).filter_map(move |q| match direct.iter().find(|s| s.to == q) {
                Some(s) => Some((q, &s.msg)),
                None => (q != from).then_some((q, body)),
            })
        });
        let direct_only = direct
            .iter()
            .filter(move |_| broadcast.is_none())
            .map(|s| (s.to, &s.msg));
        fanned.chain(direct_only)
    }
}

/// Where an automaton stands with respect to deciding.
///
/// The paper's decision states `Y_0`/`Y_1` are absorbing: once a
/// processor decides it stays decided. Protocol 1 additionally *returns*
/// (exits the subroutine and falls silent) the second time its decision
/// condition fires; [`Status::Halted`] captures that terminal state.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Status {
    /// No decision yet.
    Undecided,
    /// Decided on a value; the automaton may still be participating to
    /// help others decide.
    Decided(Value),
    /// Decided and permanently silent (returned from the protocol).
    Halted(Value),
}

impl Status {
    /// The decided value, if any.
    pub fn value(self) -> Option<Value> {
        match self {
            Status::Undecided => None,
            Status::Decided(v) | Status::Halted(v) => Some(v),
        }
    }

    /// The commit-level decision, if any.
    pub fn decision(self) -> Option<Decision> {
        self.value().map(Decision::from)
    }

    /// Whether a decision has been reached (decided or halted).
    pub fn is_decided(self) -> bool {
        !matches!(self, Status::Undecided)
    }
}

/// A protocol state machine in the paper's step model.
///
/// At each step the substrate delivers a (possibly empty) batch of
/// messages together with this step's random number and collects the
/// outgoing messages. Implementations must be deterministic functions of
/// their state, the delivered batch, and the bits drawn from `rng` —
/// all nondeterminism lives in the substrate (scheduling) and in `rng`
/// (coin flips). The substrate maintains the local clock; an automaton
/// that needs timeouts counts its own steps.
///
/// Implementations may send **at most one message per destination per
/// step**, matching the paper's model: one [`Outbox::broadcast`] and no
/// two [`Outbox::send`]s naming the same destination. Substrates are
/// entitled to reject the latter.
pub trait Automaton {
    /// The message alphabet of the protocol.
    type Msg: Clone + fmt::Debug;

    /// This processor's identity.
    fn id(&self) -> ProcessorId;

    /// The population size `n` this automaton was built for — what a
    /// broadcast fans out over.
    fn population(&self) -> usize;

    /// Executes one step: consume `inbox` (sender, message) by
    /// reference, draw randomness from `rng`, update state, and write
    /// the outgoing messages to `out` (handed over empty).
    fn step_into<'a>(
        &mut self,
        inbox: impl Iterator<Item = (ProcessorId, &'a Self::Msg)>,
        rng: &mut StepRng,
        out: &mut Outbox<Self::Msg>,
    ) where
        Self::Msg: 'a;

    /// [`Automaton::step_into`] for callers that hold owned deliveries
    /// and want one owned message per destination: the broadcast is
    /// expanded in the order of [`Outbox::sends`]. Implementations do
    /// not override this.
    fn step(
        &mut self,
        delivered: &[Delivery<Self::Msg>],
        rng: &mut StepRng,
    ) -> Vec<Send<Self::Msg>> {
        let mut out = Outbox::new();
        self.step_into(delivered.iter().map(|d| (d.from, &d.msg)), rng, &mut out);
        // A step with no broadcast hands its direct sends over as they
        // are; only a broadcast is cloned per destination.
        if out.broadcast.is_none() {
            return out.direct;
        }
        let n = self.population();
        let mut sends = Vec::with_capacity(n.saturating_sub(1));
        sends.extend(
            out.sends(self.id(), n)
                .map(|(to, msg)| Send::new(to, msg.clone())),
        );
        sends
    }

    /// The decision status after the steps taken so far.
    fn status(&self) -> Status;
}

/// An automaton that can persist its state and be rebuilt from it —
/// the hook the crash–recovery layer drives.
///
/// The paper's fault model is fail-stop: a crashed processor never
/// acts again. Recovery extends the model conservatively: a restarted
/// processor re-enters as a *correct observer* built from a snapshot
/// (its stable storage at crash time, or its initial state for an
/// amnesiac rejoin). Safety is unaffected — decisions are irrevocable
/// and a rejoiner only catches up on values others already fixed — so
/// the restart maps onto the paper's model as "one more correct
/// processor that was merely slow".
///
/// Contract: `restore(&a.snapshot())` must behave identically to `a`
/// for every observable purpose (status, future steps given the same
/// deliveries and randomness), and taking a snapshot must not perturb
/// the automaton.
pub trait Recoverable: Automaton {
    /// The persisted form of the state.
    type Snapshot: Clone + fmt::Debug + std::marker::Send + 'static;

    /// Captures the current state. Must not mutate `self`.
    fn snapshot(&self) -> Self::Snapshot;

    /// Rebuilds an automaton from a snapshot, marked as rejoining so it
    /// can ask peers for any decision it missed.
    ///
    /// Sound only when the crashed incarnation sent **no messages after
    /// the snapshot was taken** (a crash-time snapshot): the restored
    /// automaton then resumes deterministically and can never
    /// contradict anything already on the wire. For snapshots older
    /// than the crash, use [`Recoverable::restore_amnesiac`].
    fn restore(snapshot: &Self::Snapshot) -> Self;

    /// Rebuilds an automaton from a snapshot that may predate messages
    /// the crashed incarnation already sent (e.g. its initial state).
    ///
    /// Replaying the protocol from such a snapshot could *equivocate*:
    /// re-derived messages drawn with fresh randomness may contradict
    /// the lost originals, which the crash-fault proofs do not cover.
    /// Implementations whose sends are not a deterministic function of
    /// the snapshot must therefore come back as non-participating
    /// observers that only catch up on decisions from peers. The
    /// default defers to [`Recoverable::restore`], which is correct
    /// only when the snapshot itself is the complete durable state
    /// (nothing sent is ever lost, as with a write-ahead log).
    fn restore_amnesiac(snapshot: &Self::Snapshot) -> Self
    where
        Self: Sized,
    {
        Self::restore(snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LocalClock;

    #[test]
    fn status_accessors() {
        assert_eq!(Status::Undecided.value(), None);
        assert_eq!(Status::Decided(Value::One).value(), Some(Value::One));
        assert_eq!(
            Status::Halted(Value::Zero).decision(),
            Some(Decision::Abort)
        );
        assert!(Status::Decided(Value::Zero).is_decided());
        assert!(!Status::Undecided.is_decided());
    }

    fn reached(out: &Outbox<&'static str>, from: usize, n: usize) -> Vec<(usize, &'static str)> {
        out.sends(ProcessorId::new(from), n)
            .map(|(to, msg)| (to.index(), *msg))
            .collect()
    }

    #[test]
    fn a_direct_send_overrides_the_broadcast_at_its_destination() {
        let mut out = Outbox::new();
        out.send(ProcessorId::new(3), "for p3");
        out.broadcast("for all");
        out.send(ProcessorId::new(0), "for p0");
        // Ascending, the sender (p1) skipped, direct sends in place.
        assert_eq!(
            reached(&out, 1, 4),
            [(0, "for p0"), (2, "for all"), (3, "for p3")]
        );
        // The sender hears itself only if it says so.
        out.send(ProcessorId::new(1), "note to self");
        assert_eq!(reached(&out, 1, 4)[1], (1, "note to self"));
    }

    #[test]
    fn without_a_broadcast_direct_sends_keep_call_order() {
        let mut out = Outbox::new();
        out.send(ProcessorId::new(2), "first");
        out.send(ProcessorId::new(0), "second");
        assert_eq!(reached(&out, 1, 4), [(2, "first"), (0, "second")]);
        assert_eq!(out.direct().len(), 2);
        assert_eq!(out.take_broadcast(), None);
    }

    #[test]
    fn clear_empties_the_outbox_and_keeps_its_capacity() {
        let mut out = Outbox::new();
        out.broadcast(0u8);
        for q in 0..9 {
            out.send(ProcessorId::new(q), 1u8);
        }
        let capacity = out.direct.capacity();
        out.clear();
        assert_eq!(out.sends(ProcessorId::new(0), 9).count(), 0);
        assert_eq!(out.direct.capacity(), capacity);
        // Draining keeps it too.
        out.send(ProcessorId::new(1), 2u8);
        assert_eq!(out.drain_direct().count(), 1);
        assert_eq!(out.direct.capacity(), capacity);
    }

    /// Says what it is told to, through the outbox.
    struct Parrot {
        broadcast: bool,
        direct: Vec<usize>,
    }

    impl Automaton for Parrot {
        type Msg = usize;

        fn id(&self) -> ProcessorId {
            ProcessorId::new(1)
        }

        fn population(&self) -> usize {
            4
        }

        fn step_into<'a>(
            &mut self,
            inbox: impl Iterator<Item = (ProcessorId, &'a usize)>,
            _rng: &mut StepRng,
            out: &mut Outbox<usize>,
        ) {
            let heard: usize = inbox.map(|(from, msg)| from.index() + msg).sum();
            if self.broadcast {
                out.broadcast(heard);
            }
            for to in &self.direct {
                out.send(ProcessorId::new(*to), 100 + to);
            }
        }

        fn status(&self) -> Status {
            Status::Undecided
        }
    }

    #[test]
    fn provided_step_lends_the_slice_and_expands_the_outbox() {
        let mut rng = crate::SeedCollection::new(1).step_rng(ProcessorId::new(1), LocalClock::ZERO);
        let delivered = [
            Delivery::new(ProcessorId::new(2), 10),
            Delivery::new(ProcessorId::new(3), 20),
        ];
        let mut step = |broadcast, direct: &[usize]| {
            let mut parrot = Parrot {
                broadcast,
                direct: direct.to_vec(),
            };
            parrot.step(&delivered, &mut rng)
        };
        let send = |to, msg| Send::new(ProcessorId::new(to), msg);
        assert_eq!(step(true, &[]), [send(0, 35), send(2, 35), send(3, 35)]);
        assert_eq!(step(true, &[2]), [send(0, 35), send(2, 102), send(3, 35)]);
        assert_eq!(step(false, &[3, 0]), [send(3, 103), send(0, 100)]);
        assert_eq!(step(false, &[]), []);
    }

    #[test]
    fn send_and_delivery_are_plain_records() {
        let s = Send::new(ProcessorId::new(1), "m");
        assert_eq!(s.to, ProcessorId::new(1));
        let d = Delivery::new(ProcessorId::new(2), "m");
        assert_eq!(d.from, ProcessorId::new(2));
    }
}
