//! Fixture corpus: one positive and one negative snippet per rule (two
//! pairs for a rule whose scope grew to a crate with a different shape).
//!
//! Each fixture under `tests/fixtures/` is parsed as if it lived at an
//! in-scope workspace path, then run through exactly one rule: the
//! positive must produce at least one diagnostic, the negative none.
//! A second pass spawns the `rtc-analysis` binary in `--deny` mode on a
//! throwaway workspace containing just the positive fixture and asserts
//! the nonzero exit the CI gate relies on.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

use rtc_analysis::rules::all_rules;
use rtc_analysis::{engine, Rule, ScanFile, Workspace};

/// (rule, crate the fixture pretends to live in, pretend path,
/// positive source, negative source).
fn corpus() -> Vec<(
    &'static str,
    &'static str,
    &'static str,
    &'static str,
    &'static str,
)> {
    vec![
        (
            "wall-clock",
            "rtc-sim",
            "crates/sim/src/fixture.rs",
            include_str!("fixtures/wall_clock_positive.rs"),
            include_str!("fixtures/wall_clock_negative.rs"),
        ),
        (
            "unordered-iter",
            "rtc-core",
            "crates/core/src/fixture.rs",
            include_str!("fixtures/unordered_iter_positive.rs"),
            include_str!("fixtures/unordered_iter_negative.rs"),
        ),
        // `rtc-txn` holds a hashed key directory: both determinism
        // rules follow it there.
        (
            "wall-clock",
            "rtc-txn",
            "crates/txn/src/fixture.rs",
            include_str!("fixtures/wall_clock_txn_positive.rs"),
            include_str!("fixtures/wall_clock_txn_negative.rs"),
        ),
        (
            "unordered-iter",
            "rtc-txn",
            "crates/txn/src/fixture.rs",
            include_str!("fixtures/unordered_iter_txn_positive.rs"),
            include_str!("fixtures/unordered_iter_txn_negative.rs"),
        ),
        (
            "panic-path",
            "rtc-core",
            "crates/core/src/protocol2.rs",
            include_str!("fixtures/panic_path_positive.rs"),
            include_str!("fixtures/panic_path_negative.rs"),
        ),
        (
            "per-instance-alloc",
            "rtc-sim",
            "crates/sim/src/fixture.rs",
            include_str!("fixtures/per_instance_alloc_positive.rs"),
            include_str!("fixtures/per_instance_alloc_negative.rs"),
        ),
        (
            "buffer-linear-scan",
            "rtc-sim",
            "crates/sim/src/fixture.rs",
            include_str!("fixtures/buffer_scan_positive.rs"),
            include_str!("fixtures/buffer_scan_negative.rs"),
        ),
        (
            "unbounded-recv",
            "rtc-runtime",
            "crates/runtime/src/fixture.rs",
            include_str!("fixtures/unbounded_recv_positive.rs"),
            include_str!("fixtures/unbounded_recv_negative.rs"),
        ),
        (
            "socket-deadline",
            "rtc-net",
            "crates/net/src/fixture.rs",
            include_str!("fixtures/socket_deadline_positive.rs"),
            include_str!("fixtures/socket_deadline_negative.rs"),
        ),
        (
            "channel-send-unwrap",
            "rtc-runtime",
            "crates/runtime/src/fixture.rs",
            include_str!("fixtures/channel_unwrap_positive.rs"),
            include_str!("fixtures/channel_unwrap_negative.rs"),
        ),
        (
            "message-exhaustiveness",
            "rtc-core",
            "crates/core/src/fixture.rs",
            include_str!("fixtures/exhaustive_positive.rs"),
            include_str!("fixtures/exhaustive_negative.rs"),
        ),
        (
            "spec-coverage",
            "rtc-core",
            "crates/core/src/protocol2.rs",
            include_str!("fixtures/spec_coverage_positive.rs"),
            include_str!("fixtures/spec_coverage_negative.rs"),
        ),
    ]
}

fn one_rule(name: &str) -> Vec<Box<dyn Rule>> {
    let rule = all_rules()
        .into_iter()
        .find(|r| r.name() == name)
        .unwrap_or_else(|| panic!("rule `{name}` not in the catalog"));
    vec![rule]
}

fn run_fixture(rule: &str, crate_name: &str, rel_path: &str, source: &str) -> usize {
    let ws = Workspace::from_files(vec![ScanFile::parse(crate_name, rel_path, source)]);
    engine::run(&ws, &one_rule(rule)).error_count()
}

#[test]
fn every_rule_fires_on_its_positive_fixture() {
    for (rule, crate_name, rel_path, positive, _) in corpus() {
        let errors = run_fixture(rule, crate_name, rel_path, positive);
        assert!(
            errors >= 1,
            "rule `{rule}` produced no diagnostic on its positive fixture"
        );
    }
}

#[test]
fn every_rule_stays_quiet_on_its_negative_fixture() {
    for (rule, crate_name, rel_path, _, negative) in corpus() {
        let errors = run_fixture(rule, crate_name, rel_path, negative);
        assert_eq!(
            errors, 0,
            "rule `{rule}` false-positived on its negative fixture"
        );
    }
}

#[test]
fn a_suppression_downgrades_the_positive_fixture() {
    // Prepend an rtc-allow to the panic-path positive's offending line.
    let source = include_str!("fixtures/panic_path_positive.rs").replace(
        "state.unwrap()",
        "// rtc-allow(panic-path): fixture\n    state.unwrap()",
    );
    let ws = Workspace::from_files(vec![ScanFile::parse(
        "rtc-core",
        "crates/core/src/protocol2.rs",
        &source,
    )]);
    let report = engine::run(&ws, &one_rule("panic-path"));
    assert_eq!(
        report.error_count(),
        0,
        "suppressed finding still counted as error"
    );
    assert_eq!(report.suppressed_count(), 1, "suppression not recorded");
}

#[test]
fn a_rustfmt_split_chain_is_read_as_one_line() {
    let source = include_str!("fixtures/unordered_iter_txn_positive.rs");
    let errors = run_fixture(
        "unordered-iter",
        "rtc-txn",
        "crates/txn/src/fixture.rs",
        source,
    );
    assert_eq!(errors, 2, "the one-line walk and the split one");
}

#[test]
fn a_codec_is_neither_a_send_site_nor_a_handler() {
    // The negative fixture read as a crate's `Wire` codec: its sends and
    // handlers do not count, so every variant is dead vocabulary.
    let source = include_str!("fixtures/exhaustive_negative.rs");
    let errors = run_fixture(
        "message-exhaustiveness",
        "rtc-core",
        "crates/core/src/wire.rs",
        source,
    );
    assert_eq!(errors, 2, "both variants, neither sent nor handled");
}

/// Materializes a one-file throwaway workspace so the *binary* can be
/// exercised end to end, exactly as CI invokes it.
fn scratch_workspace(tag: &str, crate_name: &str, rel_path: &str, source: &str) -> PathBuf {
    let root =
        std::env::temp_dir().join(format!("rtc-analysis-fixture-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    let rel = PathBuf::from(rel_path);
    let member = root.join(
        rel.parent()
            .expect("fixture path has a parent")
            .parent()
            .expect("fixture path has src/"),
    );
    fs::create_dir_all(member.join("src")).expect("create scratch workspace");
    fs::write(
        member.join("Cargo.toml"),
        format!("[package]\nname = \"{crate_name}\"\n"),
    )
    .expect("write scratch manifest");
    fs::write(root.join(&rel), source).expect("write scratch fixture");
    root
}

#[test]
fn deny_mode_exits_nonzero_on_each_positive_fixture() {
    for (rule, crate_name, rel_path, positive, _) in corpus() {
        let root = scratch_workspace(rule, crate_name, rel_path, positive);
        let status = Command::new(env!("CARGO_BIN_EXE_rtc-analysis"))
            .args(["--deny", "--rule", rule, "--root"])
            .arg(&root)
            .status()
            .expect("spawn rtc-analysis");
        let _ = fs::remove_dir_all(&root);
        assert_eq!(
            status.code(),
            Some(1),
            "`--deny` did not exit 1 on the `{rule}` positive fixture"
        );
    }
}
