//! Determinism regression gates for the hot-path allocation overhaul:
//! the `Arc`-sharing refactor of the message fan-out must not change a
//! single event of any run, and the parallel campaign driver must
//! classify every schedule exactly as the serial one does.

use rtc::prelude::*;
use rtc_chaos::{run_campaign, CampaignConfig, Substrate};
use rtc_core::{commit_population, CommitConfig};
use rtc_sim::adversaries::RandomAdversary;
use rtc_sim::{RunLimits, SimBuilder};

/// FNV-1a over the debug rendering of the full trace — events,
/// messages, and decisions. Trace records are payload-free structure
/// (ids, clocks, event indices), so equal digests mean the runs are
/// event-for-event identical.
fn trace_digest(n: usize, seed: u64) -> u64 {
    let cfg = CommitConfig::new(n, CommitConfig::max_tolerated(n), TimingParams::default())
        .expect("valid config");
    let votes = vec![Value::One; n];
    let procs = commit_population(cfg, &votes);
    let mut sim = SimBuilder::new(cfg.timing(), SeedCollection::new(seed))
        .fault_budget(cfg.fault_bound())
        .build(procs)
        .expect("valid population");
    let mut adv = RandomAdversary::new(seed).deliver_prob(0.7);
    let report = sim.run(&mut adv, RunLimits::default()).expect("model run");
    assert!(report.agreement_holds());
    let trace = sim.trace();
    // Render through owned `EventRecord`s: the structure-of-arrays trace
    // buffer iterates views, and the record form keeps the rendering —
    // and thus the pinned digests — stable across recorder layouts.
    let events: Vec<_> = trace.events().map(|v| v.to_record()).collect();
    let rendered = format!(
        "{:?}|{:?}|{:?}",
        events,
        trace.messages(),
        trace.decisions()
    );
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for b in rendered.bytes() {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Digests of fixed-seed runs recorded on the pre-refactor tree
/// (commit 245f89f). The `Arc<CoinList>` / shared-fan-out rework must
/// reproduce these runs byte-for-byte: same events, same message
/// pattern, same decision clocks.
#[test]
fn fixed_seed_traces_are_byte_identical_to_pre_refactor() {
    const PINNED: &[(usize, u64, u64)] = &[
        (3, 42, 0x7734_d1d3_46a3_402f),
        (5, 42, 0x601a_f950_ecf2_6fea),
        (7, 1986, 0x0499_8560_03ad_00d2),
    ];
    for (n, seed, want) in PINNED {
        let got = trace_digest(*n, *seed);
        assert_eq!(
            got, *want,
            "trace for n={n} seed={seed} changed: {got:#018x}"
        );
    }
}

/// The parallel campaign driver classifies every schedule exactly as
/// the serial one: identical counts, identical violation list,
/// identical shrunk reproducers, for any number of chunk threads — the
/// machine's, a few, and more than there are chunks to steal.
#[test]
fn parallel_campaign_matches_serial_classification() {
    let base = CampaignConfig {
        schedules: 40,
        seed: 0xD15C_0BA1,
        run_runtime: false,
        ..CampaignConfig::default()
    };
    let serial = run_campaign(&CampaignConfig { workers: 1, ..base });
    assert_eq!(
        serial.decided(Substrate::Sim) + serial.stalled(Substrate::Sim),
        40
    );
    for workers in [0usize, 2, 3, 8, 64] {
        let parallel = run_campaign(&CampaignConfig { workers, ..base });
        assert_eq!(
            format!("{serial:?}"),
            format!("{parallel:?}"),
            "campaign summary diverged at workers = {workers}"
        );
    }
}
