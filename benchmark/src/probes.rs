//! Engine-less probes: each drives one layer's public functions with no
//! engine, store or recorder around them, so that the engine's own cost
//! can be had by subtraction. They run once per traced run, before the
//! timed rounds, under `probe.*` spans.

use rtc_core::CommitMsg;
use rtc_model::{Automaton, Delivery, LocalClock, ProcessorId, SeedCollection};
use rtc_net::{encode_frame, try_decode_frame, Frame};
use rtc_txn::Wal;

use crate::ledger::Ledger;

/// What a lockstep run did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Lockstep {
    /// Automaton steps taken.
    pub steps: u64,
    /// Messages sent.
    pub sends: u64,
    /// Whether every processor decided.
    pub decided: bool,
}

/// Steps `procs` round-robin, handing every message to its destination
/// at that destination's next step — the schedule the synchronous
/// adversary produces, with nothing but a vector of inboxes between the
/// automata. Stops once every processor has decided (or after
/// `max_steps`). `on_send` sees every message as it is sent.
pub fn lockstep<A: Automaton>(
    procs: &mut [A],
    seeds: SeedCollection,
    max_steps: u64,
    mut on_send: impl FnMut(ProcessorId, &rtc_model::Send<A::Msg>),
) -> Lockstep {
    let n = procs.len();
    let mut inboxes: Vec<Vec<Delivery<A::Msg>>> = (0..n).map(|_| Vec::new()).collect();
    let mut clocks = vec![0u64; n];
    let mut decided = vec![false; n];
    let mut undecided = n;
    let mut out = Lockstep::default();
    'run: while out.steps < max_steps {
        for i in 0..n {
            let p = ProcessorId::new(i);
            let inbox = std::mem::take(&mut inboxes[i]);
            let mut rng = seeds.step_rng(p, LocalClock::new(clocks[i]));
            let sends = procs[i].step(&inbox, &mut rng);
            clocks[i] += 1;
            out.steps += 1;
            for send in sends {
                out.sends += 1;
                on_send(p, &send);
                inboxes[send.to.index()].push(Delivery::new(p, send.msg));
            }
            if !decided[i] && procs[i].status().is_decided() {
                decided[i] = true;
                undecided -= 1;
                if undecided == 0 {
                    break 'run;
                }
            }
        }
    }
    out.decided = undecided == 0;
    out
}

/// Times the WAL's three operations on a real log: re-appending its
/// records to a fresh log, encoding it, and decoding the bytes back.
/// Counts `probe.wal.records` once per operation set.
///
/// # Errors
///
/// When the decoded log is not the log that was encoded.
pub fn wal_probe(led: &mut Ledger, wal: &Wal) -> Result<(), String> {
    let fresh = led.span("probe.wal_append", || {
        let mut fresh = Wal::new();
        for r in wal.records() {
            fresh.append(*r);
        }
        fresh
    });
    let bytes = led.span("probe.wal_encode", || fresh.encode());
    let (decoded, damage) = led.span("probe.wal_decode", || Wal::decode(&bytes));
    led.count("probe.wal.records", wal.len() as u64);
    if damage.is_some() || decoded.records() != wal.records() {
        return Err("WAL probe: decode(encode(log)) is not the log".into());
    }
    Ok(())
}

/// Times `encode_frame` / `try_decode_frame` over a captured message
/// mix. Counts `probe.net.frames` and `probe.net.bytes`.
///
/// # Errors
///
/// When a frame does not decode back to the message it encoded.
pub fn wire_probe(led: &mut Ledger, frames: &[Frame<CommitMsg>]) -> Result<(), String> {
    let encoded: Vec<Vec<u8>> = led.span("probe.net_encode", || {
        frames.iter().map(encode_frame).collect()
    });
    let decoded: Vec<_> = led.span("probe.net_decode", || {
        encoded
            .iter()
            .map(|bytes| try_decode_frame::<CommitMsg>(bytes))
            .collect()
    });
    led.count("probe.net.frames", frames.len() as u64);
    led.count(
        "probe.net.bytes",
        encoded.iter().map(|b| b.len() as u64).sum(),
    );
    for ((frame, bytes), back) in frames.iter().zip(&encoded).zip(decoded) {
        match back {
            Ok(Some((got, used))) if got == *frame && used == bytes.len() => {}
            other => return Err(format!("wire probe: frame did not round-trip: {other:?}")),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use rtc_core::{commit_population, CommitConfig};
    use rtc_model::{Decision, TimingParams, Value};
    use rtc_sim::adversaries::SynchronousAdversary;
    use rtc_sim::{RunLimits, SimBuilder};

    use super::*;

    #[test]
    fn lockstep_takes_the_synchronous_engines_steps() {
        // The subtraction `engine − probe` only means something if the
        // probe does the same protocol work: same steps, same outcome.
        let cfg = CommitConfig::new(5, 2, TimingParams::default()).unwrap();
        let votes = vec![Value::One; 5];
        let seeds = SeedCollection::new(11);
        let mut procs = commit_population(cfg, &votes);
        let mut sent = 0;
        let run = lockstep(&mut procs, seeds, 10_000, |_, _| sent += 1);
        assert!(run.decided);
        assert_eq!(run.sends, sent);
        assert!(procs
            .iter()
            .all(|p| p.status().decision() == Some(Decision::Commit)));

        let mut sim = SimBuilder::new(cfg.timing(), seeds)
            .fault_budget(cfg.fault_bound())
            .build(commit_population(cfg, &votes))
            .unwrap();
        let report = sim
            .run(&mut SynchronousAdversary::new(5), RunLimits::default())
            .unwrap();
        assert_eq!(report.events(), run.steps);
    }

    #[test]
    fn wire_and_wal_probes_round_trip() {
        let cfg = CommitConfig::new(3, 1, TimingParams::default()).unwrap();
        let mut procs = commit_population(cfg, &[Value::One; 3]);
        let mut mix = Vec::new();
        lockstep(&mut procs, SeedCollection::new(2), 10_000, |from, send| {
            mix.push(Frame {
                from,
                instance: 0,
                sent_at_tick: 0,
                sent_event: mix.len() as u64,
                msg: send.msg.clone(),
            });
        });
        let mut led = Ledger::new(true);
        wire_probe(&mut led, &mix).unwrap();
        assert_eq!(led.total("probe.net.frames"), mix.len() as u64);
        assert!(led.total("probe.net.bytes") > 0);

        let mut wal = Wal::new();
        wal.append(rtc_txn::LogRecord::Vote {
            tx: rtc_txn::TxId(1),
            vote: Value::One,
        });
        wal_probe(&mut led, &wal).unwrap();
        assert_eq!(led.total("probe.wal.records"), 1);
    }
}
