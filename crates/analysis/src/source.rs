//! Source loading and preprocessing for the rule engine.
//!
//! The scanner is deliberately *not* a Rust parser: it is a line/token
//! scanner in the spirit of a homegrown clippy, tuned to this
//! workspace's idiom. The preprocessing it does is exactly what keeps a
//! token scanner honest:
//!
//! * **Scrubbing** — comments, string literals, and char literals are
//!   blanked (replaced by spaces, preserving line/column structure), so
//!   rules never fire on prose or on a `"thread_rng"` inside an error
//!   message.
//! * **Test mapping** — `#[cfg(test)] mod` regions and `#[test]`
//!   functions are marked per line, so rules that target production
//!   protocol paths skip test code (where `unwrap` is idiomatic).

use std::collections::BTreeMap;

/// One preprocessed source file.
#[derive(Clone, Debug)]
pub struct ScanFile {
    /// The Cargo package the file belongs to (e.g. `rtc-core`).
    pub crate_name: String,
    /// Workspace-relative path with `/` separators
    /// (e.g. `crates/core/src/protocol2.rs`).
    pub rel_path: String,
    /// The raw lines, used for snippets and `rtc-allow` suppressions.
    pub raw: Vec<String>,
    /// The scrubbed lines: comments and literal contents blanked.
    pub code: Vec<String>,
    /// Per-line flag: `true` when the line sits inside test-only code.
    pub is_test: Vec<bool>,
}

impl ScanFile {
    /// Preprocesses `content` into a scannable file.
    pub fn parse(crate_name: &str, rel_path: &str, content: &str) -> ScanFile {
        let raw: Vec<String> = content.lines().map(str::to_owned).collect();
        let code = scrub(content);
        let is_test = test_map(&code);
        ScanFile {
            crate_name: crate_name.to_owned(),
            rel_path: rel_path.to_owned(),
            raw,
            code,
            is_test,
        }
    }

    /// Iterates `(line_number, scrubbed_line)` over production (non-test)
    /// lines. Line numbers are 1-based.
    pub fn prod_lines(&self) -> impl Iterator<Item = (usize, &str)> {
        self.code
            .iter()
            .enumerate()
            .filter(|(i, _)| !self.is_test[*i])
            .map(|(i, l)| (i + 1, l.as_str()))
    }

    /// The raw text of 1-based line `line`, for diagnostics.
    pub fn snippet(&self, line: usize) -> &str {
        self.raw
            .get(line.saturating_sub(1))
            .map(String::as_str)
            .unwrap_or("")
    }
}

/// Blanks comments, string literals, and char literals, preserving the
/// line/column structure (every blanked char becomes a space; newlines
/// survive). Handles nested block comments, escapes, and raw strings
/// with up to any number of `#`s.
pub fn scrub(content: &str) -> Vec<String> {
    #[derive(PartialEq)]
    enum St {
        Code,
        Line,
        Block(u32),
        Str,
        RawStr(usize),
        Char,
    }
    let bytes: Vec<char> = content.chars().collect();
    let mut out = String::with_capacity(content.len());
    let mut st = St::Code;
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        let next = bytes.get(i + 1).copied();
        match st {
            St::Code => match c {
                '/' if next == Some('/') => {
                    st = St::Line;
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                    continue;
                }
                '/' if next == Some('*') => {
                    st = St::Block(1);
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                    continue;
                }
                '"' => {
                    st = St::Str;
                    out.push('"');
                }
                'r' | 'b' if !prev_is_ident(&bytes, i) => {
                    // Possible raw string r"...", r#"..."#, br"...".
                    let mut j = i + 1;
                    if c == 'b' && bytes.get(j) == Some(&'r') {
                        j += 1;
                    }
                    let mut hashes = 0;
                    while bytes.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if bytes.get(j) == Some(&'"') && (j > i + 1 || c == 'r') {
                        for _ in i..=j {
                            out.push(' ');
                        }
                        i = j + 1;
                        st = St::RawStr(hashes);
                        continue;
                    }
                    out.push(c);
                }
                '\'' => {
                    // Char literal vs lifetime: a literal closes within a
                    // few chars; a lifetime never closes.
                    if next == Some('\\') {
                        st = St::Char;
                        out.push(' ');
                    } else if bytes.get(i + 2) == Some(&'\'') {
                        out.push(' ');
                        out.push(' ');
                        out.push(' ');
                        i += 3;
                        continue;
                    } else {
                        out.push('\''); // lifetime, keep as code
                    }
                }
                _ => out.push(c),
            },
            St::Line => {
                if c == '\n' {
                    st = St::Code;
                    out.push('\n');
                } else {
                    out.push(' ');
                }
            }
            St::Block(depth) => {
                if c == '/' && next == Some('*') {
                    st = St::Block(depth + 1);
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                    continue;
                } else if c == '*' && next == Some('/') {
                    st = if depth == 1 {
                        St::Code
                    } else {
                        St::Block(depth - 1)
                    };
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                    continue;
                } else if c == '\n' {
                    out.push('\n');
                } else {
                    out.push(' ');
                }
            }
            St::Str => {
                if c == '\\' {
                    out.push(' ');
                    if next == Some('\n') {
                        out.push('\n');
                    } else {
                        out.push(' ');
                    }
                    i += 2;
                    continue;
                } else if c == '"' {
                    st = St::Code;
                    out.push('"');
                } else if c == '\n' {
                    out.push('\n');
                } else {
                    out.push(' ');
                }
            }
            St::RawStr(hashes) => {
                if c == '"' {
                    let mut ok = true;
                    for k in 0..hashes {
                        if bytes.get(i + 1 + k) != Some(&'#') {
                            ok = false;
                            break;
                        }
                    }
                    if ok {
                        for _ in 0..=hashes {
                            out.push(' ');
                        }
                        i += hashes + 1;
                        st = St::Code;
                        continue;
                    }
                    out.push(' ');
                } else if c == '\n' {
                    out.push('\n');
                } else {
                    out.push(' ');
                }
            }
            St::Char => {
                if c == '\\' {
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                    continue;
                } else if c == '\'' {
                    st = St::Code;
                    out.push(' ');
                } else {
                    out.push(' ');
                }
            }
        }
        i += 1;
    }
    out.lines().map(str::to_owned).collect()
}

fn prev_is_ident(bytes: &[char], i: usize) -> bool {
    i > 0 && (bytes[i - 1].is_alphanumeric() || bytes[i - 1] == '_')
}

/// Marks lines that belong to test-only code: the body of any
/// `#[cfg(test)] mod` and any `#[test]` function, attributes included.
fn test_map(code: &[String]) -> Vec<bool> {
    let mut out = vec![false; code.len()];
    let mut i = 0;
    while i < code.len() {
        let line = code[i].trim_start();
        let test_attr = line.starts_with("#[cfg(test)") || line.starts_with("#[test]");
        if test_attr {
            // Mark from the attribute through the end of the item's
            // brace block.
            let start = i;
            let mut depth: i64 = 0;
            let mut opened = false;
            let mut j = i;
            while j < code.len() {
                for c in code[j].chars() {
                    match c {
                        '{' => {
                            depth += 1;
                            opened = true;
                        }
                        '}' => depth -= 1,
                        _ => {}
                    }
                }
                if opened && depth <= 0 {
                    break;
                }
                j += 1;
            }
            let end = j.min(code.len().saturating_sub(1));
            for flag in out.iter_mut().take(end + 1).skip(start) {
                *flag = true;
            }
            i = end + 1;
        } else {
            i += 1;
        }
    }
    out
}

/// A region of lines `[start, end]` (1-based, inclusive) found by brace
/// matching from an anchor line.
#[derive(Clone, Copy, Debug)]
pub struct Region {
    /// First line of the region, 1-based.
    pub start: usize,
    /// Last line of the region, 1-based.
    pub end: usize,
}

/// Returns the brace/paren-balanced region starting at 1-based line
/// `anchor`: it extends until the combined `{}`/`()` depth accumulated
/// since the anchor returns to zero after having gone positive, or the
/// statement terminates with `;` at depth zero. Capped at `max_lines`.
pub fn statement_region(code: &[String], anchor: usize, max_lines: usize) -> Region {
    let mut depth: i64 = 0;
    // Set when a `{` opens at depth 0: the statement is a block
    // (`for .. { .. }`), and its region ends when the brace balances.
    // A paren chain (`iter().map(..).collect()`) must instead run on to
    // the terminating `;` or the close of the enclosing scope.
    let mut block_opened = false;
    let start = anchor;
    let mut line_no = anchor;
    while line_no <= code.len() && line_no < anchor + max_lines {
        let line = &code[line_no - 1];
        for c in line.chars() {
            match c {
                '{' | '(' | '[' => {
                    if c == '{' && depth == 0 {
                        block_opened = true;
                    }
                    depth += 1;
                }
                '}' | ')' | ']' => {
                    depth -= 1;
                    if depth < 0 {
                        // Enclosing scope closed: tail-expression end.
                        return Region {
                            start,
                            end: line_no,
                        };
                    }
                }
                ';' if depth == 0 => {
                    return Region {
                        start,
                        end: line_no,
                    };
                }
                _ => {}
            }
        }
        if block_opened && depth == 0 {
            return Region {
                start,
                end: line_no,
            };
        }
        line_no += 1;
    }
    Region {
        start,
        end: line_no.min(code.len()),
    }
}

/// Scans a line for identifiers declared with a hash-container type and
/// records them: `name: HashMap<..>` fields/params, the same behind
/// wrappers (`name: Arc<HashMap<..>>`), and
/// `let [mut] name = HashMap::new()`-style bindings.
pub fn hash_container_names(code: &[String]) -> BTreeMap<String, usize> {
    let mut names = BTreeMap::new();
    for (i, line) in code.iter().enumerate() {
        for marker in ["HashMap", "HashSet"] {
            let mut from = 0;
            while let Some(pos) = line[from..].find(marker) {
                let abs = from + pos;
                // Reject identifiers that merely contain the marker.
                let pre = line[..abs].chars().next_back();
                let post = line[abs + marker.len()..].chars().next();
                let is_type_use = !pre.is_some_and(|c| c.is_alphanumeric() || c == '_')
                    && matches!(post, Some('<') | Some(':') | None | Some(' '));
                if is_type_use {
                    if let Some(name) = declared_name(&line[..abs]) {
                        names.entry(name).or_insert(i + 1);
                    }
                }
                from = abs + marker.len();
            }
        }
    }
    names
}

/// Extracts the declared identifier from the text preceding a type or
/// constructor use: `.. name: ` (field, param, or typed binding) or
/// `let [mut] name = ..`.
fn declared_name(prefix: &str) -> Option<String> {
    let mut trimmed = prefix.trim_end();
    // Look through wrappers: `name: Arc<`, `name: Option<Box<`.
    while let Some(wrapped) = trimmed.strip_suffix('<') {
        trimmed = wrapped
            .trim_end_matches(|c: char| c.is_alphanumeric() || c == '_')
            .trim_end();
    }
    if let Some(rest) = trimmed.strip_suffix(':') {
        return last_ident(rest);
    }
    if let Some(rest) = trimmed.strip_suffix('=') {
        let rest = rest.trim_end();
        // `let mut name =` / `let name: Ty =` / `name =`.
        let rest = rest.split(':').next().unwrap_or(rest);
        return last_ident(rest);
    }
    None
}

fn last_ident(text: &str) -> Option<String> {
    let ident: String = text
        .chars()
        .rev()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect::<Vec<_>>()
        .into_iter()
        .rev()
        .collect();
    if ident.is_empty() || ident.chars().next().is_some_and(|c| c.is_numeric()) {
        None
    } else {
        Some(ident)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrub_blanks_comments_and_strings() {
        let code = scrub("let x = 1; // thread_rng in prose\nlet s = \"Instant::now\";\n");
        assert!(!code[0].contains("thread_rng"));
        assert!(!code[1].contains("Instant::now"));
        assert!(code[0].contains("let x = 1;"));
    }

    #[test]
    fn scrub_keeps_lifetimes_and_blanks_chars() {
        let code = scrub("fn f<'a>(x: &'a str) { let c = 'x'; let d = '\\n'; }");
        assert!(code[0].contains("fn f<'a>(x: &'a str)"));
        assert!(!code[0].contains("'x'"));
    }

    #[test]
    fn scrub_handles_raw_strings() {
        let code = scrub("let s = r#\"SystemTime \"inner\" text\"#; let t = 1;");
        assert!(!code[0].contains("SystemTime"));
        assert!(code[0].contains("let t = 1;"));
    }

    #[test]
    fn test_map_marks_cfg_test_mod() {
        let src = "fn prod() {}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\nfn prod2() {}\n";
        let f = ScanFile::parse("rtc-x", "src/lib.rs", src);
        assert!(!f.is_test[0]);
        assert!(f.is_test[1] && f.is_test[2] && f.is_test[3] && f.is_test[4]);
        assert!(!f.is_test[5]);
    }

    #[test]
    fn hash_names_finds_fields_and_bindings() {
        let code = scrub(
            "struct S { votes: HashMap<u8, u8>, done: bool, keys: Arc<HashMap<u8, u8>> }\n\
             let mut seen = HashSet::new();\nlet held: Option<Box<HashSet<u8>>> = None;\n",
        );
        let names = hash_container_names(&code);
        assert!(names.contains_key("votes"));
        assert!(names.contains_key("seen"));
        assert!(names.contains_key("keys"));
        assert!(names.contains_key("held"));
        assert!(!names.contains_key("done"));
    }
}
