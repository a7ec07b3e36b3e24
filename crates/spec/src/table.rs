//! The transition table: the spec's machine-readable index.
//!
//! Every transition of the executable spec ([`crate::commit`],
//! [`crate::agreement`], [`crate::wal`]) is listed here by name, with
//! the message kinds it consumes and produces and the trace event kinds
//! it can appear under. The table is the crate's *contract* surface:
//!
//! * the `spec-coverage` rule in `rtc-analysis` checks that every
//!   `Msg` variant and every trace `Event` kind the implementation
//!   handles appears in this table — new wire vocabulary cannot land
//!   without a spec transition covering it;
//! * the TLA+ mirror under `specs/tla/` names the same transitions;
//!   [`crate::tla`] fails the build's test run if the two sets drift.
//!
//! Token vocabulary: message kinds are `Go`, `Vote`, `Agree` (the
//! implementation's Protocol 1 wrapper), `First`, `Second`, `Decided`,
//! `Ping`; trace event kinds are `Step`, `Crash`, `Revive`,
//! `Duplicate`.

/// Which TLA+ module mirrors a transition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpecModule {
    /// `specs/tla/Commit2.tla` — the Protocol 1/2 state machines.
    Commit2,
    /// `specs/tla/WalRecovery.tla` — the WAL recovery invariant.
    WalRecovery,
}

/// One named transition of the spec.
#[derive(Clone, Copy, Debug)]
pub struct TransitionRule {
    /// The transition's name (mirrored in the TLA+ `TransitionNames`).
    pub name: &'static str,
    /// Which TLA+ module carries the mirror definition.
    pub module: SpecModule,
    /// Message-kind tokens this transition consumes.
    pub consumes: &'static [&'static str],
    /// Message-kind tokens this transition produces.
    pub produces: &'static [&'static str],
    /// Trace event kinds this transition can appear under.
    pub events: &'static [&'static str],
    /// The enabling condition, informally.
    pub guard: &'static str,
    /// The state change, informally.
    pub effect: &'static str,
}

/// The full transition table of the executable spec.
pub const TRANSITIONS: &[TransitionRule] = &[
    TransitionRule {
        name: "FlipCoins",
        module: SpecModule::Commit2,
        consumes: &[],
        produces: &[],
        events: &["Step"],
        guard: "coordinator, AwaitGo, coins unknown",
        effect: "coins := coin_count fresh flips (the step's first random draws)",
    },
    TransitionRule {
        name: "SendGo",
        module: SpecModule::Commit2,
        consumes: &[],
        produces: &["Go"],
        events: &["Step"],
        guard: "AwaitGo and coins known",
        effect: "mark own GO, start the GO wait, phase := AwaitGoQuorum",
    },
    TransitionRule {
        name: "IngestGo",
        module: SpecModule::Commit2,
        consumes: &["Go"],
        produces: &[],
        events: &["Step"],
        guard: "any message carrying coins doubles as a GO from its sender",
        effect: "adopt first coins seen, mark sender's GO",
    },
    TransitionRule {
        name: "CastVote",
        module: SpecModule::Commit2,
        consumes: &["Go"],
        produces: &["Vote"],
        events: &["Step"],
        guard: "AwaitGoQuorum and (n GOs heard or timeout fired)",
        effect: "vote := 0 on timeout; record own vote; start the vote wait; phase := AwaitVotes",
    },
    TransitionRule {
        name: "EarlyAbort",
        module: SpecModule::Commit2,
        consumes: &[],
        produces: &[],
        events: &["Step"],
        guard: "vote cast is 0 and the early-abort rule is on",
        effect: "decide 0 immediately (no processor can collect n commit votes)",
    },
    TransitionRule {
        name: "IngestVote",
        module: SpecModule::Commit2,
        consumes: &["Vote"],
        produces: &[],
        events: &["Step"],
        guard: "always",
        effect: "record the sender's first vote",
    },
    TransitionRule {
        name: "StartAgreement",
        module: SpecModule::Commit2,
        consumes: &["Vote"],
        produces: &["Agree", "First"],
        events: &["Step"],
        guard: "AwaitVotes and (n votes heard or timeout fired)",
        effect: "x_p := 1 iff n commit votes; start Protocol 1 (stage-1 First); drain pending Agree messages; phase := Agreeing",
    },
    TransitionRule {
        name: "AgreeFirstQuorum",
        module: SpecModule::Commit2,
        consumes: &["Agree", "First"],
        produces: &["Agree", "Second"],
        events: &["Step"],
        guard: "waiting on the first exchange with n-t Firsts boarded",
        effect: "Second carries v on a strict population majority among received Firsts, else bottom",
    },
    TransitionRule {
        name: "AgreeSecondQuorum",
        module: SpecModule::Commit2,
        consumes: &["Agree", "Second"],
        produces: &["Agree", "First"],
        events: &["Step"],
        guard: "waiting on the second exchange with n-t Seconds boarded",
        effect: "x_p := S-value, shared coin, or local flip; decide on n-t S-messages; advance stage and broadcast the next First",
    },
    TransitionRule {
        name: "AgreeHalt",
        module: SpecModule::Commit2,
        consumes: &["Agree", "Second"],
        produces: &[],
        events: &["Step"],
        guard: "n-t S-messages while already decided",
        effect: "return(v): exit the subroutine and fall silent",
    },
    TransitionRule {
        name: "BroadcastDecision",
        module: SpecModule::Commit2,
        consumes: &[],
        produces: &["Decided"],
        events: &["Step"],
        guard: "decision-broadcast extension, decided, not yet announced",
        effect: "announce the decision once",
    },
    TransitionRule {
        name: "AdoptDecision",
        module: SpecModule::Commit2,
        consumes: &["Decided"],
        produces: &[],
        events: &["Step"],
        guard: "a Decided notification arrives",
        effect: "adopt the (final, unique) decision and fall silent",
    },
    TransitionRule {
        name: "PingRejoin",
        module: SpecModule::Commit2,
        consumes: &[],
        produces: &["Ping"],
        events: &["Step"],
        guard: "rejoining, undecided, ping timer due",
        effect: "probe every peer for a decision missed during the crash",
    },
    TransitionRule {
        name: "AnswerPing",
        module: SpecModule::Commit2,
        consumes: &["Ping"],
        produces: &["Decided"],
        events: &["Step"],
        guard: "pinged while holding a decision",
        effect: "re-tell the decision to the pinger alone (extends the step's bundle)",
    },
    TransitionRule {
        name: "RejoinResend",
        module: SpecModule::Commit2,
        consumes: &[],
        produces: &["Go", "Vote", "Agree", "First", "Second"],
        events: &["Step", "Revive"],
        guard: "first step after a restart, undecided",
        effect: "re-broadcast the current protocol position once (receivers dedup by sender)",
    },
    TransitionRule {
        name: "CrashStop",
        module: SpecModule::Commit2,
        consumes: &[],
        produces: &[],
        events: &["Crash"],
        guard: "fault budget not exhausted",
        effect: "the processor stops; unreceived final-step sends may be dropped",
    },
    TransitionRule {
        name: "Restart",
        module: SpecModule::Commit2,
        consumes: &[],
        produces: &[],
        events: &["Revive"],
        guard: "crashed",
        effect: "resume from the crash snapshot (rejoining) or a stale one (amnesiac observer)",
    },
    TransitionRule {
        name: "PartitionInstall",
        module: SpecModule::Commit2,
        consumes: &[],
        produces: &[],
        events: &[],
        guard: "admissible heal bound",
        effect: "messages crossing the groups are deferred until the heal event",
    },
    TransitionRule {
        name: "DuplicateMsg",
        module: SpecModule::Commit2,
        consumes: &[],
        produces: &[],
        events: &["Duplicate"],
        guard: "the original is still buffered",
        effect: "a fresh copy of a buffered message joins the buffer (receivers dedup)",
    },
    TransitionRule {
        name: "ReorderMsg",
        module: SpecModule::Commit2,
        consumes: &[],
        produces: &[],
        events: &[],
        guard: "the message is still buffered",
        effect: "a buffered message is delivered after younger ones (the buffer is a set)",
    },
    TransitionRule {
        name: "WalAppendVote",
        module: SpecModule::WalRecovery,
        consumes: &[],
        produces: &[],
        events: &[],
        guard: "no decision logged for the transaction",
        effect: "append the vote record before any decision record",
    },
    TransitionRule {
        name: "WalAppendDecision",
        module: SpecModule::WalRecovery,
        consumes: &[],
        produces: &[],
        events: &[],
        guard: "the transaction's vote is logged, no decision yet; an abort vote forbids a commit decision",
        effect: "append the unique decision record",
    },
    TransitionRule {
        name: "WalRecoverTruncate",
        module: SpecModule::WalRecovery,
        consumes: &[],
        produces: &[],
        events: &[],
        guard: "a torn tail frame is detected on replay",
        effect: "recovery yields a prefix of the pre-crash log that still satisfies the invariant",
    },
];

/// The transition names mirrored by the given TLA+ module, in table
/// order — compared against the module's `TransitionNames` set by
/// [`crate::tla`].
pub fn names_for(module: SpecModule) -> Vec<&'static str> {
    TRANSITIONS
        .iter()
        .filter(|r| r.module == module)
        .map(|r| r.name)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = TRANSITIONS.iter().map(|r| r.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "duplicate transition names");
    }

    #[test]
    fn every_message_kind_is_covered() {
        for kind in ["Go", "Vote", "Agree", "First", "Second", "Decided", "Ping"] {
            assert!(
                TRANSITIONS
                    .iter()
                    .any(|r| r.consumes.contains(&kind) || r.produces.contains(&kind)),
                "message kind {kind} not covered by any transition"
            );
        }
    }

    #[test]
    fn every_event_kind_is_covered() {
        for kind in ["Step", "Crash", "Revive", "Duplicate"] {
            assert!(
                TRANSITIONS.iter().any(|r| r.events.contains(&kind)),
                "event kind {kind} not covered by any transition"
            );
        }
    }
}
