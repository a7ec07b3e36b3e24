//! Rule `per-instance-alloc`: no fresh heap allocation inside the
//! batch-stepping hot regions.
//!
//! The batch plane's whole premise is that per-instance cost is
//! amortized: envelopes, trace columns, and scratch vectors are pooled
//! and recycled across the thousands of instances a campaign steps
//! through one shared scheduler. A `Vec::new()` or `Box::new(..)`
//! introduced inside the per-event stepping path silently charges every
//! instance of every batch for it — the exact regression the
//! `a_warm_n16_batch_steps_and_allocates_at_most_its_pin` test in
//! `crates/bench/tests/hot_path_counts.rs` exists to catch, but named
//! at the line instead of as a count.
//!
//! The policed regions are declared in the code itself: a
//! `rtc-hot-loop(per-instance)` marker comment sits directly above each
//! batch-stepping hot region (the batch engine's fairness-slice loop,
//! the shared per-event apply path, the send-run filing path), and
//! this rule scans the statement or function the marker anchors.
//! Intentional allocations inside a marked region carry an
//! `rtc-allow(per-instance-alloc): <why>`.
//!
//! The scope is the engine only. `rtc-core`'s ingest path carried a
//! marker until a commit instance's state moved inline: its writes now
//! land in the automaton itself, there is no `Vec` in reach for the
//! token list to see, and the one allocation that region ever made — a
//! `push` growing a buffer — was a token this rule never matched. What
//! an instance allocates is pinned as an exact count instead, by the
//! same test (docs/ANALYSIS.md).

use crate::diag::Diagnostic;
use crate::engine::Workspace;
use crate::rules::Rule;
use crate::source::statement_region;

/// The marker declaring a batch-stepping hot region.
const MARKER: &str = "rtc-hot-loop(per-instance)";

/// The crate whose stepping paths hold pooled scratch buffers.
const SCOPE: &str = "rtc-sim";

/// Allocating tokens banned inside a marked region. `with_capacity` is
/// banned too: sizing an allocation does not amortize it — hot-region
/// buffers must come from the pool (`mem::take` of a scratch field).
const BANNED: [&str; 9] = [
    "Vec::new()",
    "vec![",
    "Box::new(",
    ".to_vec()",
    ".to_owned()",
    ".collect()",
    ".collect::<",
    "format!(",
    "with_capacity(",
];

/// Longest marked region scanned from its anchor: covers the batch
/// engine's apply path, the largest marked function in the workspace.
const MAX_REGION_LINES: usize = 200;

/// See the module docs.
#[derive(Debug)]
pub struct PerInstanceAlloc;

impl Rule for PerInstanceAlloc {
    fn name(&self) -> &'static str {
        "per-instance-alloc"
    }

    fn summary(&self) -> &'static str {
        "no fresh Vec/Box allocation inside rtc-hot-loop(per-instance) batch-stepping regions"
    }

    fn check(&self, ws: &Workspace) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for file in ws.files.iter().filter(|f| f.crate_name == SCOPE) {
            // A marker anchors the first following code line; the
            // region is that statement (a `for` loop body) or function
            // (when the marker sits above an `fn` header). Markers are
            // comments, so they live in the raw text, not the scrubbed
            // `code` lines.
            let markers: Vec<usize> = (1..=file.code.len())
                .filter(|n| {
                    !file.is_test.get(n - 1).copied().unwrap_or(false)
                        && file.snippet(*n).contains(MARKER)
                })
                .collect();
            for marker in markers {
                let Some(anchor) =
                    ((marker + 1)..=file.code.len()).find(|n| !file.code[n - 1].trim().is_empty())
                else {
                    continue;
                };
                let region = statement_region(&file.code, anchor, MAX_REGION_LINES);
                for line_no in region.start..=region.end {
                    if file.is_test.get(line_no - 1).copied().unwrap_or(false) {
                        continue;
                    }
                    let line = &file.code[line_no - 1];
                    for token in BANNED {
                        if line.contains(token) {
                            out.push(Diagnostic::new(
                                self.name(),
                                &file.rel_path,
                                line_no,
                                format!(
                                    "`{}` inside the per-instance hot region anchored at line \
                                     {}: every stepped instance pays this allocation; reuse a \
                                     pooled scratch buffer (`mem::take` of a scratch field) or \
                                     move the allocation out of the stepping path",
                                    token.trim_matches(['.', '(', '[', '!', ':', '<']),
                                    anchor
                                ),
                                file.snippet(line_no),
                            ));
                        }
                    }
                }
            }
        }
        out.dedup_by(|a, b| a.file == b.file && a.line == b.line && a.message == b.message);
        out
    }
}
