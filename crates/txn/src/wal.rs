//! The write-ahead log: a durable, append-only record of everything a
//! replica promised.
//!
//! In a real deployment this is the fsync'd log that lets a restarted
//! replica honour its votes; here it is an in-memory append-only
//! structure whose *invariants* are machine-checked by tests:
//!
//! 1. a `Vote` for a transaction precedes any `Decision` for it;
//! 2. at most one `Decision` is ever logged per transaction;
//! 3. a replica that voted abort never logs a commit decision for that
//!    transaction (its own vote already forced the outcome).
//!
//! # Durable framing
//!
//! [`Wal::encode`] lays the log out as it would sit on disk: one
//! fixed-size frame per record, each ending in a CRC32 of the frame's
//! content. [`Wal::decode`] reads frames back and — crucially — treats
//! damage the way a recovering database must: a *torn* final frame
//! (the crash landed mid-write) or a *corrupt* frame (checksum
//! mismatch) truncates the log at that point instead of failing
//! recovery. Everything before the damage was durably promised;
//! everything at and after it never happened.

use std::collections::BTreeMap;
use std::fmt;

use rtc_model::{Decision, Value};

use crate::store::TxId;

/// One append-only log record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LogRecord {
    /// The replica learned of the transaction and formed its vote.
    Vote {
        /// The transaction.
        tx: TxId,
        /// The local vote (`One` = willing to commit).
        vote: Value,
    },
    /// The global decision for the transaction.
    Decision {
        /// The transaction.
        tx: TxId,
        /// The decided fate.
        decision: Decision,
    },
}

/// Damage found while decoding an encoded log, and where.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WalDamage {
    /// The byte stream ended in the middle of a frame — the classic
    /// torn write of a crash mid-append. `offset` is where the partial
    /// frame starts.
    Torn {
        /// Byte offset of the incomplete frame.
        offset: usize,
    },
    /// A frame's checksum did not match its content (bit rot, a
    /// misdirected write, or garbage after an earlier tear). `offset`
    /// is where the bad frame starts.
    Corrupt {
        /// Byte offset of the frame that failed its checksum.
        offset: usize,
    },
}

impl fmt::Display for WalDamage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalDamage::Torn { offset } => write!(f, "torn record at byte {offset}"),
            WalDamage::Corrupt { offset } => write!(f, "corrupt record at byte {offset}"),
        }
    }
}

/// The reflected IEEE 802.3 polynomial.
const CRC_POLY: u32 = 0xEDB8_8320;

/// `CRC_TABLE[b]` is the CRC register after shifting the byte `b`
/// through eight bitwise rounds: built at compile time, 1 KiB.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut byte = 0;
    while byte < 256 {
        let mut crc = byte as u32;
        let mut round = 0;
        while round < 8 {
            crc = (crc >> 1) ^ (CRC_POLY & (crc & 1).wrapping_neg());
            round += 1;
        }
        table[byte] = crc;
        byte += 1;
    }
    table
};

/// CRC32 (IEEE 802.3 polynomial, reflected) over `bytes`, one table
/// lookup per byte. The bitwise form (eight shift-and-mask rounds per
/// byte) measured about 37 ns a record in `txn_sim_chaos`'s traced
/// `txn.wal_encode_ns_per_record`, the table about 8 (docs/PERF.md
/// "PR 43"); the bytes are the same, pinned by a golden frame and the
/// IEEE check value.
fn crc32(bytes: &[u8]) -> u32 {
    !bytes.iter().fold(u32::MAX, |crc, &b| {
        CRC_TABLE[usize::from(crc.to_le_bytes()[0] ^ b)] ^ (crc >> 8)
    })
}

const TAG_VOTE: u8 = 0;
const TAG_DECISION: u8 = 1;
/// Frame layout: `tag(1) ‖ tx(8 LE) ‖ payload(1) ‖ crc32(4 LE)`, with
/// the checksum covering the first ten bytes.
const FRAME: usize = 14;
const CRC_AT: usize = FRAME - 4;

/// An append-only write-ahead log.
#[derive(Clone, Debug, Default)]
pub struct Wal {
    records: Vec<LogRecord>,
}

impl Wal {
    /// An empty log.
    pub fn new() -> Wal {
        Wal::default()
    }

    /// Appends a record.
    pub fn append(&mut self, record: LogRecord) {
        self.records.push(record);
    }

    /// The records, in append order.
    pub fn records(&self) -> &[LogRecord] {
        &self.records
    }

    /// Number of records logged so far.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Whether `self` extends `prefix` — every record of `prefix`, in
    /// order, followed by zero or more new records. Recovery must never
    /// rewrite history: a restarted replica's log extends the log it
    /// crashed with.
    pub fn extends(&self, prefix: &Wal) -> bool {
        self.records.len() >= prefix.records.len()
            && self.records[..prefix.records.len()] == prefix.records
    }

    /// The vote logged for `tx`, if any.
    pub fn vote_of(&self, tx: TxId) -> Option<Value> {
        self.records.iter().find_map(|r| match r {
            LogRecord::Vote { tx: t, vote } if *t == tx => Some(*vote),
            _ => None,
        })
    }

    /// The decision logged for `tx`, if any.
    pub fn decision_of(&self, tx: TxId) -> Option<Decision> {
        self.records.iter().find_map(|r| match r {
            LogRecord::Decision { tx: t, decision } if *t == tx => Some(*decision),
            _ => None,
        })
    }

    /// Serializes the log into its durable frame format (module docs):
    /// fixed-size records, each carrying a CRC32 of its content.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.records.len() * FRAME);
        for r in &self.records {
            let (tag, tx, payload) = match r {
                LogRecord::Vote { tx, vote } => (TAG_VOTE, tx.0, *vote == Value::One),
                LogRecord::Decision { tx, decision } => {
                    (TAG_DECISION, tx.0, *decision == Decision::Commit)
                }
            };
            let start = out.len();
            out.push(tag);
            out.extend_from_slice(&tx.to_le_bytes());
            out.push(u8::from(payload));
            let crc = crc32(&out[start..]);
            out.extend_from_slice(&crc.to_le_bytes());
        }
        out
    }

    /// Deserializes an encoded log, truncating at the first torn or
    /// corrupt record instead of erroring: the prefix before the damage
    /// is exactly what was durably promised, so recovery proceeds from
    /// it. Returns the recovered prefix and what (if anything) was
    /// found wrong.
    pub fn decode(bytes: &[u8]) -> (Wal, Option<WalDamage>) {
        let mut wal = Wal::new();
        let mut offset = 0;
        while offset < bytes.len() {
            let rest = &bytes[offset..];
            if rest.len() < FRAME {
                return (wal, Some(WalDamage::Torn { offset }));
            }
            let frame = &rest[..FRAME];
            let stored = u32::from_le_bytes(frame[CRC_AT..].try_into().expect("4 crc bytes"));
            // An unknown tag or out-of-range payload cannot carry a
            // valid checksum of itself being valid, so the CRC check
            // subsumes structural validation — but check the fields
            // anyway: an adversarial collision must not panic decoding.
            let tag = frame[0];
            let payload = frame[CRC_AT - 1];
            if crc32(&frame[..CRC_AT]) != stored || tag > TAG_DECISION || payload > 1 {
                return (wal, Some(WalDamage::Corrupt { offset }));
            }
            let tx = TxId(u64::from_le_bytes(
                frame[1..9].try_into().expect("8 tx bytes"),
            ));
            wal.append(match tag {
                TAG_VOTE => LogRecord::Vote {
                    tx,
                    vote: Value::from_bool(payload == 1),
                },
                _ => LogRecord::Decision {
                    tx,
                    decision: if payload == 1 {
                        Decision::Commit
                    } else {
                        Decision::Abort
                    },
                },
            });
            offset += FRAME;
        }
        (wal, None)
    }

    /// Checks the log invariants; returns a description of the first
    /// violation, if any.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.index().map(drop)
    }

    /// One pass over the log: checks the invariants and returns, per
    /// transaction, the first vote logged and the decision if one was
    /// (a decision without a vote is a violation, so no entry lacks the
    /// vote). Recovery reads the whole log through this table instead
    /// of searching it once per transaction.
    pub(crate) fn index(&self) -> Result<BTreeMap<TxId, (Value, Option<Decision>)>, String> {
        let mut table: BTreeMap<TxId, (Value, Option<Decision>)> = BTreeMap::new();
        for r in &self.records {
            match *r {
                LogRecord::Vote { tx, vote } => {
                    table.entry(tx).or_insert((vote, None));
                }
                LogRecord::Decision { tx, decision } => {
                    let Some((vote, decided)) = table.get_mut(&tx) else {
                        return Err(format!("decision for {tx} before any vote"));
                    };
                    if *vote == Value::Zero && decision == Decision::Commit {
                        return Err(format!("{tx}: committed against an abort vote"));
                    }
                    if decided.replace(decision).is_some() {
                        return Err(format!("duplicate decision for {tx}"));
                    }
                }
            }
        }
        Ok(table)
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    /// The checksum the table replaced, eight shift-and-mask rounds per
    /// byte: the reference the table is held to.
    fn bitwise_crc32(bytes: &[u8]) -> u32 {
        let mut crc = u32::MAX;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (CRC_POLY & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc32_gives_the_ieee_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(bitwise_crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(&[]), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn crc32_table_matches_the_bitwise_reference(
            bytes in proptest::collection::vec(any::<u8>(), 0..64),
        ) {
            prop_assert_eq!(crc32(&bytes), bitwise_crc32(&bytes));
        }
    }

    #[test]
    fn lookup_finds_first_records() {
        let mut wal = Wal::new();
        wal.append(LogRecord::Vote {
            tx: TxId(1),
            vote: Value::One,
        });
        wal.append(LogRecord::Decision {
            tx: TxId(1),
            decision: Decision::Commit,
        });
        assert_eq!(wal.vote_of(TxId(1)), Some(Value::One));
        assert_eq!(wal.decision_of(TxId(1)), Some(Decision::Commit));
        assert_eq!(wal.vote_of(TxId(2)), None);
        assert!(wal.check_invariants().is_ok());
    }

    #[test]
    fn decision_before_vote_is_flagged() {
        let mut wal = Wal::new();
        wal.append(LogRecord::Decision {
            tx: TxId(1),
            decision: Decision::Abort,
        });
        assert!(wal.check_invariants().is_err());
    }

    #[test]
    fn commit_against_abort_vote_is_flagged() {
        let mut wal = Wal::new();
        wal.append(LogRecord::Vote {
            tx: TxId(1),
            vote: Value::Zero,
        });
        wal.append(LogRecord::Decision {
            tx: TxId(1),
            decision: Decision::Commit,
        });
        assert!(wal.check_invariants().is_err());
    }

    #[test]
    fn duplicate_decisions_are_flagged() {
        let mut wal = Wal::new();
        wal.append(LogRecord::Vote {
            tx: TxId(1),
            vote: Value::One,
        });
        wal.append(LogRecord::Decision {
            tx: TxId(1),
            decision: Decision::Commit,
        });
        wal.append(LogRecord::Decision {
            tx: TxId(1),
            decision: Decision::Commit,
        });
        assert!(wal.check_invariants().is_err());
    }

    fn sample_wal() -> Wal {
        let mut wal = Wal::new();
        wal.append(LogRecord::Vote {
            tx: TxId(1),
            vote: Value::One,
        });
        wal.append(LogRecord::Vote {
            tx: TxId(2),
            vote: Value::Zero,
        });
        wal.append(LogRecord::Decision {
            tx: TxId(1),
            decision: Decision::Commit,
        });
        wal.append(LogRecord::Decision {
            tx: TxId(2),
            decision: Decision::Abort,
        });
        wal
    }

    /// `sample_wal().encode()` as the bitwise checksum wrote it: four
    /// 14-byte frames, `tag ‖ tx (LE) ‖ payload ‖ crc32 (LE)`.
    const SAMPLE_FRAMES: &str = "00010000000000000001a34cf683\
                                 00020000000000000000f0407ccd\
                                 010100000000000000019d27346c\
                                 01020000000000000000ce2bbe22";

    #[test]
    fn encoded_frames_keep_their_bytes() {
        let hex: String = sample_wal()
            .encode()
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(hex, SAMPLE_FRAMES);
    }

    #[test]
    fn encode_decode_roundtrips_cleanly() {
        let wal = sample_wal();
        let bytes = wal.encode();
        let (decoded, damage) = Wal::decode(&bytes);
        assert_eq!(damage, None);
        assert_eq!(decoded.records(), wal.records());
        let (empty, damage) = Wal::decode(&[]);
        assert_eq!(damage, None);
        assert!(empty.is_empty());
    }

    #[test]
    fn torn_final_record_truncates_to_the_durable_prefix() {
        let wal = sample_wal();
        let bytes = wal.encode();
        // Chop the last frame mid-write, at every possible tear point.
        for torn_len in 1..14 {
            let cut = bytes.len() - torn_len;
            let (decoded, damage) = Wal::decode(&bytes[..cut]);
            assert_eq!(decoded.records(), &wal.records()[..3], "tear at {cut}");
            assert_eq!(damage, Some(WalDamage::Torn { offset: 3 * 14 }));
            assert!(decoded.check_invariants().is_ok());
        }
    }

    #[test]
    fn corrupt_record_truncates_at_the_damage() {
        let wal = sample_wal();
        let mut bytes = wal.encode();
        // Flip one payload bit in the second frame (a Zero vote becomes
        // a One vote): the checksum must catch the flip, and recovery
        // keeps only the first record.
        bytes[14 + 9] ^= 1;
        let (decoded, damage) = Wal::decode(&bytes);
        assert_eq!(decoded.records(), &wal.records()[..1]);
        assert_eq!(damage, Some(WalDamage::Corrupt { offset: 14 }));
    }

    #[test]
    fn garbage_tags_and_payloads_are_corruption_not_panics() {
        // A frame with matching CRC but nonsense tag must be rejected.
        let mut bytes = vec![7u8]; // unknown tag
        bytes.extend_from_slice(&42u64.to_le_bytes());
        bytes.push(0);
        let crc = bitwise_crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        let (decoded, damage) = Wal::decode(&bytes);
        assert!(decoded.is_empty());
        assert_eq!(damage, Some(WalDamage::Corrupt { offset: 0 }));
    }

    #[test]
    fn abort_after_abort_vote_is_fine() {
        let mut wal = Wal::new();
        wal.append(LogRecord::Vote {
            tx: TxId(9),
            vote: Value::Zero,
        });
        wal.append(LogRecord::Decision {
            tx: TxId(9),
            decision: Decision::Abort,
        });
        assert!(wal.check_invariants().is_ok());
    }
}
