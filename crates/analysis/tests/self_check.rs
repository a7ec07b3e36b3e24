//! Self-check: the committed workspace is analysis-clean.
//!
//! This is the in-tree mirror of the CI deny gate: loading the real
//! workspace and running the full rule catalog must produce zero
//! unsuppressed findings. A rule change that false-positives on the
//! committed tree, or a code change that violates an invariant, fails
//! here before CI ever runs.

use std::path::Path;

use rtc_analysis::{engine, Workspace};

#[test]
fn committed_workspace_is_clean_under_the_full_catalog() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..");
    let ws = Workspace::load(&root).expect("load the workspace");
    assert!(
        ws.files.len() > 50,
        "workspace walk looks wrong: only {} files found",
        ws.files.len()
    );
    let report = engine::run(&ws, &[]);
    let rendered = report.render_human(false);
    assert!(
        report.clean(),
        "committed workspace has unsuppressed findings:\n{rendered}"
    );
    // The sanctioned allowances: the chaos adversary's bounded
    // crash-plan scan, the lockstep replay path's tag-addressed buffer
    // scan, and the store's one walk over its hashed key directory,
    // which sorts. If this count grows, the new suppression deserves
    // review.
    assert_eq!(
        report.suppressed_count(),
        3,
        "unexpected number of rtc-allow suppressions:\n{}",
        report.render_human(true)
    );
}
