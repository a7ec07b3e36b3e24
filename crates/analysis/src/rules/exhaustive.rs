//! Rule `message-exhaustiveness`: every message kind is both sent and
//! handled.
//!
//! The wire vocabulary of each protocol is an enum whose name ends in
//! `Kind` or `Msg` (`CommitKind`, `AgreementMsg`, the baseline `*Msg`
//! enums). For every variant of such an enum the rule requires, within
//! its crate's production code:
//!
//! * at least one **send site** — the variant constructed outside a
//!   pattern position — and
//! * at least one **handler arm** — the variant matched (`Variant =>`,
//!   `if let`, or `matches!`).
//!
//! An unhandled kind is a message peers silently drop (a liveness hole
//! that only shows up under the exact schedule that sends it); an
//! orphan handler is dead protocol surface that suggests the sender was
//! lost in a refactor. Rust's own exhaustiveness check does not cover
//! either direction: a `match` can be exhaustive while the variant is
//! never sent at all.
//!
//! A crate's byte codec (its `wire.rs`) is not read: decoding builds
//! every variant and encoding matches every variant by construction,
//! which is neither a send nor a handler and would hide both holes.

use std::collections::BTreeMap;

use crate::diag::Diagnostic;
use crate::engine::Workspace;
use crate::rules::Rule;

/// Crates whose message enums are checked.
const SCOPE: [&str; 2] = ["rtc-core", "rtc-baselines"];

/// A crate's `Wire` codec, whose uses of a variant are not counted.
const CODEC_FILE: &str = "/wire.rs";

#[derive(Clone, Debug, Default)]
struct VariantUse {
    sends: usize,
    handlers: usize,
}

#[derive(Clone, Debug)]
struct MessageEnum {
    name: String,
    crate_name: String,
    file: String,
    /// Variant name -> declaration line (1-based).
    variants: BTreeMap<String, usize>,
}

/// See the module docs.
#[derive(Debug)]
pub struct MessageExhaustiveness;

impl Rule for MessageExhaustiveness {
    fn name(&self) -> &'static str {
        "message-exhaustiveness"
    }

    fn summary(&self) -> &'static str {
        "every Kind/Msg enum variant has both a send site and a handler arm"
    }

    fn check(&self, ws: &Workspace) -> Vec<Diagnostic> {
        let enums = collect_enums(ws);
        let mut out = Vec::new();
        for en in &enums {
            let mut uses: BTreeMap<&str, VariantUse> = en
                .variants
                .keys()
                .map(|v| (v.as_str(), VariantUse::default()))
                .collect();
            let counted = ws
                .files
                .iter()
                .filter(|f| f.crate_name == en.crate_name && !f.rel_path.ends_with(CODEC_FILE));
            for file in counted {
                for (_, line) in file.prod_lines() {
                    classify_line(line, &en.name, &mut uses);
                }
            }
            for (variant, decl_line) in &en.variants {
                let u = &uses[variant.as_str()];
                let snippet = ws
                    .file(&en.file)
                    .map(|f| f.snippet(*decl_line).to_owned())
                    .unwrap_or_default();
                if u.sends > 0 && u.handlers == 0 {
                    out.push(Diagnostic::new(
                        self.name(),
                        &en.file,
                        *decl_line,
                        format!(
                            "message kind `{}::{variant}` is sent but never handled: \
                             receivers silently drop it, a liveness hole that only shows \
                             under the schedule that sends it",
                            en.name
                        ),
                        &snippet,
                    ));
                } else if u.sends == 0 && u.handlers > 0 {
                    out.push(Diagnostic::new(
                        self.name(),
                        &en.file,
                        *decl_line,
                        format!(
                            "message kind `{}::{variant}` has a handler arm but no send \
                             site: dead protocol surface, was the sender lost in a \
                             refactor?",
                            en.name
                        ),
                        &snippet,
                    ));
                } else if u.sends == 0 && u.handlers == 0 {
                    out.push(Diagnostic::new(
                        self.name(),
                        &en.file,
                        *decl_line,
                        format!(
                            "message kind `{}::{variant}` is neither sent nor handled: \
                             dead wire vocabulary",
                            en.name
                        ),
                        &snippet,
                    ));
                }
            }
        }
        out
    }
}

/// Finds `pub enum <Name>` declarations ending in `Kind`/`Msg` in scope
/// crates and extracts their variant names.
fn collect_enums(ws: &Workspace) -> Vec<MessageEnum> {
    let mut out = Vec::new();
    for file in ws
        .files
        .iter()
        .filter(|f| SCOPE.contains(&f.crate_name.as_str()))
    {
        for (line_no, line) in file.prod_lines() {
            let Some(rest) = line.trim_start().strip_prefix("pub enum ") else {
                continue;
            };
            let name: String = rest
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if !(name.ends_with("Kind") || name.ends_with("Msg")) {
                continue;
            }
            let variants = collect_variants(file, line_no);
            if !variants.is_empty() {
                out.push(MessageEnum {
                    name,
                    crate_name: file.crate_name.clone(),
                    file: file.rel_path.clone(),
                    variants,
                });
            }
        }
    }
    out
}

/// Parses the variant names of the enum declared at 1-based `decl_line`:
/// lines at brace depth 1 that start with a capitalized identifier.
/// Shared with the `spec-coverage` rule.
pub(super) fn collect_variants(
    file: &crate::source::ScanFile,
    decl_line: usize,
) -> BTreeMap<String, usize> {
    let mut variants = BTreeMap::new();
    let mut depth: i64 = 0;
    let mut opened = false;
    for line_no in decl_line..=file.code.len() {
        let line = &file.code[line_no - 1];
        let depth_at_line_start = depth;
        for c in line.chars() {
            match c {
                '{' => {
                    depth += 1;
                    opened = true;
                }
                '}' => depth -= 1,
                _ => {}
            }
        }
        if line_no > decl_line && depth_at_line_start == 1 {
            let t = line.trim_start();
            let ident: String = t
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if ident.chars().next().is_some_and(|c| c.is_ascii_uppercase())
                && t[ident.len()..]
                    .trim_start()
                    .starts_with(['(', '{', ',', '}'])
                || (!ident.is_empty()
                    && t[ident.len()..].trim_start().is_empty()
                    && ident.chars().next().is_some_and(|c| c.is_ascii_uppercase()))
            {
                variants.insert(ident, line_no);
            }
        }
        if opened && depth <= 0 {
            break;
        }
    }
    variants
}

/// Counts `Enum::Variant` occurrences on one scrubbed line, classifying
/// each as a handler (pattern position: `=>` later on the line,
/// `if let`/`while let` before, or inside `matches!`) or a send site.
fn classify_line(line: &str, enum_name: &str, uses: &mut BTreeMap<&str, VariantUse>) {
    let needle = format!("{enum_name}::");
    let mut from = 0;
    while let Some(pos) = line[from..].find(&needle) {
        let abs = from + pos;
        // Reject matches inside longer identifiers (SomeCommitKind::..).
        let pre = line[..abs].chars().next_back();
        if pre.is_some_and(|c| c.is_alphanumeric() || c == '_') {
            from = abs + needle.len();
            continue;
        }
        let after = &line[abs + needle.len()..];
        let variant: String = after
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        if let Some(u) = uses.get_mut(variant.as_str()) {
            let before = &line[..abs];
            let is_pattern = after.contains("=>")
                || before.contains("if let")
                || before.contains("while let")
                || before.contains("matches!(");
            if is_pattern {
                u.handlers += 1;
            } else {
                u.sends += 1;
            }
        }
        from = abs + needle.len();
    }
}
