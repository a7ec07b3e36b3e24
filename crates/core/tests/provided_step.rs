//! The provided `Automaton::step` — the slice-in, one-owned-send-per-
//! destination form the lockstep engine and the end-to-end benchmark's
//! probe call — returns for [`CommitAutomaton`] exactly what
//! its hand-written `step` returned before the outbox contract: the
//! digests below were captured on that commit. The script's third step
//! is the one that matters: a broadcast and a catch-up reply in one
//! step, so a direct send must take the broadcast's place *in
//! destination order*.

use rtc_core::{CommitAutomaton, CommitConfig, CommitKind, CommitMsg};
use rtc_model::{
    Automaton, Delivery, LocalClock, ProcessorId, SeedCollection, Send, Status, TimingParams, Value,
};

/// FNV-1a over the `Debug` text of one step's sends.
fn digest(sends: &[Send<CommitMsg>]) -> u64 {
    format!("{sends:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

#[test]
fn provided_step_returns_the_sends_the_handwritten_step_returned() {
    let p = ProcessorId::new;
    let cfg = CommitConfig::new(4, 1, TimingParams::default()).unwrap();
    let seeds = SeedCollection::new(0x0B0C);
    let rng_of = |id: ProcessorId, clock: u64| seeds.step_rng(id, LocalClock::new(clock));

    // 1. The coordinator flips the coins and broadcasts GO.
    let mut coordinator = CommitAutomaton::new(cfg, p(0), Value::One);
    let go = coordinator.step(&[], &mut rng_of(p(0), 0));
    let to: Vec<usize> = go.iter().map(|s| s.to.index()).collect();
    assert_eq!(to, [1, 2, 3]);

    // 2. p2, who wants to abort, hears it and relays GO.
    let mut aborter = CommitAutomaton::new(cfg, p(2), Value::Zero);
    let from_p0 = go[1].msg.clone();
    let relay = aborter.step(
        &[Delivery::new(p(0), from_p0.clone())],
        &mut rng_of(p(2), 0),
    );
    let to: Vec<usize> = relay.iter().map(|s| s.to.index()).collect();
    assert_eq!(to, [0, 1, 3]);

    // 3. p2 hears GO from the other two — p3's carries a ping — so it
    // broadcasts its abort vote, thereby decides, and owes p3 the
    // decision: the vote bundle extended with `Decided`, to p3 alone.
    let with_ping = CommitMsg {
        go: from_p0.go,
        kinds: [CommitKind::Go, CommitKind::Ping].into(),
    };
    let votes = aborter.step(
        &[
            Delivery::new(p(1), relay[1].msg.clone()),
            Delivery::new(p(3), with_ping),
        ],
        &mut rng_of(p(2), 1),
    );
    assert_eq!(aborter.status(), Status::Decided(Value::Zero));
    let to: Vec<usize> = votes.iter().map(|s| s.to.index()).collect();
    assert_eq!(to, [0, 1, 3]);
    assert_eq!(votes[0].msg, votes[1].msg);
    assert_eq!(votes[0].msg.kinds[..], [CommitKind::Vote(Value::Zero)]);
    assert_eq!(
        votes[2].msg.kinds[..],
        [
            CommitKind::Vote(Value::Zero),
            CommitKind::Decided(Value::Zero)
        ]
    );

    assert_eq!(
        [digest(&go), digest(&relay), digest(&votes)],
        [
            3_939_502_685_350_031_191,
            8_955_717_942_672_291_369,
            11_799_913_926_101_856_885
        ]
    );
}
