//! The byte codec of [`CommitMsg`]: what one message is on a socket.
//!
//! ```text
//! [go: u8]                    0, or 1 followed by the coin list:
//!   [count: u32] [coin: u8]*  one byte (0 or 1) per stage
//! [kinds: u32]                then per kind a tag byte and its fields:
//!   Go | Vote v | AgreeFirst stage: u64, v | AgreeSecond stage: u64,
//!   (0 | 1 v) | Decided v | Ping
//! ```
//!
//! All integers are little-endian. A substrate frames these bytes
//! (`rtc-net` adds routing and a length prefix); the codec knows no
//! frame, so a count is checked against the bytes the payload has left,
//! not against a frame cap, and nothing is sized by a count it cannot
//! hold.

use std::sync::Arc;

use rtc_model::{Value, Wire, WireError};

use crate::{AgreementMsg, CoinList, CommitKind, CommitKinds, CommitMsg};

/// A byte cursor over a payload slice.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, pos: 0 }
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        let b = *self.bytes.get(self.pos).ok_or(WireError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let end = self.pos.checked_add(4).ok_or(WireError::Truncated)?;
        let s = self.bytes.get(self.pos..end).ok_or(WireError::Truncated)?;
        self.pos = end;
        Ok(u32::from_le_bytes(s.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let end = self.pos.checked_add(8).ok_or(WireError::Truncated)?;
        let s = self.bytes.get(self.pos..end).ok_or(WireError::Truncated)?;
        self.pos = end;
        Ok(u64::from_le_bytes(s.try_into().expect("8 bytes")))
    }

    /// A count of items that take at least a byte each: one the bytes
    /// left cannot hold is a truncated payload.
    fn count(&mut self) -> Result<usize, WireError> {
        let count = self.u32()? as usize;
        if count > self.bytes.len() - self.pos {
            return Err(WireError::Truncated);
        }
        Ok(count)
    }

    fn value(&mut self) -> Result<Value, WireError> {
        match self.u8()? {
            0 => Ok(Value::Zero),
            1 => Ok(Value::One),
            t => Err(WireError::BadTag(t)),
        }
    }

    fn finish(&self) -> Result<(), WireError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes(self.bytes.len() - self.pos))
        }
    }
}

// Payload tags for CommitKind.
const TAG_GO: u8 = 0;
const TAG_VOTE: u8 = 1;
const TAG_AGREE_FIRST: u8 = 2;
const TAG_AGREE_SECOND: u8 = 3;
const TAG_DECIDED: u8 = 4;
const TAG_PING: u8 = 5;

impl Wire for CommitMsg {
    fn encode(&self, buf: &mut Vec<u8>) {
        match &self.go {
            None => buf.push(0),
            Some(coins) => {
                buf.push(1);
                buf.extend_from_slice(&(coins.len() as u32).to_le_bytes());
                for stage in 1..=coins.len() as u64 {
                    let v = coins.get(stage).expect("stage within the list");
                    buf.push(v.as_u8());
                }
            }
        }
        buf.extend_from_slice(&(self.kinds.len() as u32).to_le_bytes());
        for kind in self.kinds.iter() {
            match kind {
                CommitKind::Go => buf.push(TAG_GO),
                CommitKind::Vote(v) => {
                    buf.push(TAG_VOTE);
                    buf.push(v.as_u8());
                }
                CommitKind::Agree(AgreementMsg::First { stage, value }) => {
                    buf.push(TAG_AGREE_FIRST);
                    buf.extend_from_slice(&stage.to_le_bytes());
                    buf.push(value.as_u8());
                }
                CommitKind::Agree(AgreementMsg::Second { stage, value }) => {
                    buf.push(TAG_AGREE_SECOND);
                    buf.extend_from_slice(&stage.to_le_bytes());
                    match value {
                        None => buf.push(0),
                        Some(v) => {
                            buf.push(1);
                            buf.push(v.as_u8());
                        }
                    }
                }
                CommitKind::Decided(v) => {
                    buf.push(TAG_DECIDED);
                    buf.push(v.as_u8());
                }
                CommitKind::Ping => buf.push(TAG_PING),
            }
        }
    }

    fn decode(bytes: &[u8]) -> Result<CommitMsg, WireError> {
        let mut r = Reader::new(bytes);
        let go = match r.u8()? {
            0 => None,
            1 => {
                let count = r.count()?;
                let mut flips = Vec::with_capacity(count);
                for _ in 0..count {
                    flips.push(r.value()?);
                }
                Some(Arc::new(CoinList::from_values(flips)))
            }
            t => return Err(WireError::BadTag(t)),
        };
        let kind_count = r.count()?;
        let mut kinds = CommitKinds::new();
        for _ in 0..kind_count {
            kinds.push(match r.u8()? {
                TAG_GO => CommitKind::Go,
                TAG_VOTE => CommitKind::Vote(r.value()?),
                TAG_AGREE_FIRST => {
                    let stage = r.u64()?;
                    CommitKind::Agree(AgreementMsg::First {
                        stage,
                        value: r.value()?,
                    })
                }
                TAG_AGREE_SECOND => {
                    let stage = r.u64()?;
                    let value = match r.u8()? {
                        0 => None,
                        1 => Some(r.value()?),
                        t => return Err(WireError::BadTag(t)),
                    };
                    CommitKind::Agree(AgreementMsg::Second { stage, value })
                }
                TAG_DECIDED => CommitKind::Decided(r.value()?),
                TAG_PING => CommitKind::Ping,
                t => return Err(WireError::BadTag(t)),
            });
        }
        r.finish()?;
        Ok(CommitMsg { go, kinds })
    }
}

#[cfg(test)]
mod tests {
    use rtc_model::{
        Automaton, Delivery, LocalClock, ProcessorId, Recoverable, SeedCollection, Send,
        TimingParams,
    };

    use super::*;
    use crate::{commit_population, CommitAutomaton, CommitConfig};

    /// Encodes `msg`, checks that the bytes decode to it and re-encode
    /// to themselves, and returns them.
    fn roundtrip(msg: &CommitMsg) -> Vec<u8> {
        let mut bytes = Vec::new();
        msg.encode(&mut bytes);
        let decoded = CommitMsg::decode(&bytes).expect("decodes");
        assert_eq!(decoded, *msg);
        let mut again = Vec::new();
        decoded.encode(&mut again);
        assert_eq!(again, bytes);
        bytes
    }

    #[test]
    fn every_kind_roundtrips() {
        let coins = Arc::new(CoinList::from_values(vec![
            Value::One,
            Value::Zero,
            Value::One,
        ]));
        roundtrip(&CommitMsg {
            go: Some(Arc::clone(&coins)),
            kinds: vec![
                CommitKind::Go,
                CommitKind::Vote(Value::Zero),
                CommitKind::Agree(AgreementMsg::First {
                    stage: 2,
                    value: Value::One,
                }),
                CommitKind::Agree(AgreementMsg::Second {
                    stage: 9,
                    value: None,
                }),
                CommitKind::Agree(AgreementMsg::Second {
                    stage: 9,
                    value: Some(Value::Zero),
                }),
                CommitKind::Decided(Value::One),
                CommitKind::Ping,
            ]
            .into(),
        });
        roundtrip(&CommitMsg {
            go: None,
            kinds: Vec::new().into(),
        });
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let msg = CommitMsg {
            go: None,
            kinds: vec![CommitKind::Ping].into(),
        };
        let mut payload = Vec::new();
        msg.encode(&mut payload);
        payload.push(0x00);
        assert_eq!(
            CommitMsg::decode(&payload),
            Err(WireError::TrailingBytes(1))
        );
    }

    /// FNV-1a over bytes.
    fn fnv(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// The two steps that carry the most kinds, taken from a run: a
    /// rejoiner's re-broadcast with its ping (five, one more than a
    /// message holds inline) and the catch-up reply it is owed.
    #[test]
    fn a_rejoiners_step_roundtrips_past_the_inline_kinds() {
        let n = 3;
        let p = ProcessorId::new;
        let cfg = CommitConfig::new(n, 1, TimingParams::default()).unwrap();
        let seeds = SeedCollection::new(0x51EE);
        let mut procs = commit_population(cfg, &[Value::One; 3]);
        let mut inboxes: Vec<Vec<Delivery<CommitMsg>>> = vec![Vec::new(); n];
        let mut round = 0;
        let lockstep = |procs: &mut Vec<CommitAutomaton>,
                        inboxes: &mut Vec<Vec<Delivery<CommitMsg>>>,
                        round: &mut u64| {
            let mut next = vec![Vec::new(); n];
            for (q, auto) in procs.iter_mut().enumerate() {
                let mut rng = seeds.step_rng(p(q), LocalClock::new(*round));
                for send in auto.step(&inboxes[q], &mut rng) {
                    next[send.to.index()].push(Delivery::new(p(q), send.msg));
                }
            }
            *inboxes = next;
            *round += 1;
        };
        // Until p1 is inside Protocol 1 with both stage-1 exchanges sent.
        while procs[1].agreement().is_none() {
            lockstep(&mut procs, &mut inboxes, &mut round);
        }
        lockstep(&mut procs, &mut inboxes, &mut round);
        assert!(procs[1].status().decision().is_none());

        // p1 crashes and comes back: GO, its vote, both stage-1 messages
        // and a ping, in one bundle.
        let mut rejoiner = CommitAutomaton::restore(&procs[1].snapshot());
        let mut rng = seeds.step_rng(p(1), LocalClock::new(round));
        let resent: Vec<Send<CommitMsg>> = rejoiner.step(&[], &mut rng);
        assert_eq!(
            format!("{:?}", resent[0].msg.kinds),
            "[Go, Vote(1), Agree(First { stage: 1, value: 1 }), \
             Agree(Second { stage: 1, value: Some(1) }), Ping]"
        );
        assert!(resent[0].msg.kinds.spilled());

        // The others decide; p0, pinged, owes p1 the decision directly.
        lockstep(&mut procs, &mut inboxes, &mut round);
        assert!(procs[0].status().decision().is_some());
        let ping = Delivery::new(p(1), resent[0].msg.clone());
        let mut rng = seeds.step_rng(p(0), LocalClock::new(round));
        let mut inbox = inboxes[0].clone();
        inbox.push(ping);
        let replied = procs[0].step(&inbox, &mut rng);
        let reply = replied.iter().find(|s| s.to == p(1)).expect("a reply");
        assert_eq!(
            format!("{:?}", reply.msg.kinds),
            "[Agree(Second { stage: 2, value: Some(1) }), Decided(1)]"
        );

        let mut all = Vec::new();
        for msg in [&resent[0].msg, &reply.msg] {
            all.extend(roundtrip(msg));
        }
        // The frame payloads are what they were when the kinds were an
        // `Arc<[CommitKind]>` (captured there).
        assert_eq!(fnv(&all), 17_792_407_171_721_007_993);
    }
}
