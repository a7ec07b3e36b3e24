//! Rule `unordered-iter`: iterating hash containers in deterministic
//! crates.
//!
//! `std::collections::HashMap`/`HashSet` iteration order is seeded from
//! process entropy, so any iteration that feeds message order, trace
//! content, or `Debug` output differs run to run. In the deterministic
//! crates the fix is `BTreeMap`/`BTreeSet` (the populations are small —
//! tens of processors — so the asymptotic difference is noise). Hash
//! containers used purely for point lookup (`entry`, `get`, `contains`)
//! are fine and not flagged; genuinely order-insensitive folds can carry
//! an `rtc-allow(unordered-iter): <why>`.
//!
//! A method chain rustfmt splits over lines (`self`, `.keys`, `.iter()`
//! on three) is read as one line and reported at its first, where the
//! `rtc-allow` above the statement sits.

use crate::diag::Diagnostic;
use crate::engine::Workspace;
use crate::rules::{in_deterministic_scope, Rule};
use crate::source::hash_container_names;

/// Iteration-shaped method suffixes on a hash-typed receiver.
const ITER_METHODS: [&str; 8] = [
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".into_iter()",
    ".drain(",
    ".retain(",
];

/// See the module docs.
#[derive(Debug)]
pub struct UnorderedIter;

impl Rule for UnorderedIter {
    fn name(&self) -> &'static str {
        "unordered-iter"
    }

    fn summary(&self) -> &'static str {
        "no HashMap/HashSet iteration in deterministic crates (use BTree collections)"
    }

    fn check(&self, ws: &Workspace) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for file in ws
            .files
            .iter()
            .filter(|f| in_deterministic_scope(&f.crate_name))
        {
            let names = hash_container_names(&file.code);
            if names.is_empty() {
                continue;
            }
            for (line_no, line) in chains(file.prod_lines()) {
                let line = line.as_str();
                for name in names.keys() {
                    for method in ITER_METHODS {
                        let needle = format!("{name}{method}");
                        if contains_receiver(line, &needle, name) {
                            out.push(Diagnostic::new(
                                self.name(),
                                &file.rel_path,
                                line_no,
                                format!(
                                    "iteration over hash container `{name}` ({}): iteration \
                                     order is entropy-seeded and varies run to run",
                                    method.trim_matches(['.', '(', ')'])
                                ),
                                file.snippet(line_no),
                            ));
                        }
                    }
                    // `for x in &name` / `for x in name` loop headers.
                    if let Some(pos) = line.find(" in ") {
                        let tail = line[pos + 4..].trim_start().trim_start_matches('&');
                        let head = line.trim_start();
                        if head.starts_with("for ")
                            && (tail == *name
                                || tail
                                    .strip_prefix(name.as_str())
                                    .is_some_and(|r| r.starts_with(' ') || r.starts_with('{')))
                        {
                            out.push(Diagnostic::new(
                                self.name(),
                                &file.rel_path,
                                line_no,
                                format!(
                                    "`for` loop over hash container `{name}`: iteration order \
                                     is entropy-seeded and varies run to run"
                                ),
                                file.snippet(line_no),
                            ));
                        }
                    }
                }
            }
        }
        out
    }
}

/// Joins every code line whose trimmed text starts with `.` onto the
/// code line before it, keeping the first line's number; blank lines
/// (and so comment-only ones, scrubbed) do not break a chain.
fn chains<'a>(lines: impl Iterator<Item = (usize, &'a str)>) -> Vec<(usize, String)> {
    let mut out: Vec<(usize, String)> = Vec::new();
    for (line_no, line) in lines {
        let trimmed = line.trim();
        match out.last_mut() {
            Some((_, chain)) if trimmed.starts_with('.') => chain.push_str(trimmed),
            _ if trimmed.is_empty() => {}
            _ => out.push((line_no, line.to_owned())),
        }
    }
    out
}

/// `line` contains `needle` and the char before it is not part of a
/// longer identifier (so `votes.iter()` does not match `my_votes`... it
/// does match `self.votes.iter()`).
fn contains_receiver(line: &str, needle: &str, name: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = line[from..].find(needle) {
        let abs = from + pos;
        let pre = line[..abs].chars().next_back();
        if !pre.is_some_and(|c| c.is_alphanumeric() || c == '_') {
            return true;
        }
        from = abs + name.len();
    }
    false
}
