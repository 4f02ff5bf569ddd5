//! The workspace invariant linter behind `tc-check lint`.
//!
//! Five rules, each encoding an invariant the workspace relies on but
//! the compiler cannot enforce:
//!
//! * **`panic-free-request-paths`** — no `.unwrap()`, `.expect(…)`,
//!   `panic!`, `unreachable!` or `todo!` in `tc-serve`/`tc-router`
//!   non-test source: a serving daemon answers malformed input and
//!   degraded dependencies with error responses, never by dying. A site
//!   that genuinely cannot fail at runtime may carry a waiver comment —
//!   `// tc-check: allow(panic): <justification>` on the same or the
//!   preceding line — and the justification must be non-empty.
//! * **`safety-comments`** — every `unsafe` block and `unsafe impl` in
//!   the workspace (vendor included) is annotated with a `// SAFETY:`
//!   comment directly above it explaining why the obligations hold.
//! * **`facade-imports`** — the four model-checked subsystems
//!   (`tc_util::steal`, `tc-store::cache`, `tc-store::wal::writer`,
//!   `tc-serve::reload`) take their synchronization primitives from the
//!   `tc_util::sync` facade only; a stray `std::sync::Mutex` or
//!   `parking_lot` import would silently escape the model checker.
//! * **`metric-name-parity`** — every Prometheus metric name in the
//!   serve/router expositions appears in `docs/OPERATIONS.md` and vice
//!   versa, so dashboards built from the docs never reference a metric
//!   that does not exist.
//! * **`no-sleep-polling`** — no `thread::sleep` (called or imported) in
//!   `tc-serve`/`tc-router` non-test source: a daemon waits on the event
//!   it needs — `poll(2)` on its sockets, a condvar, a socket timeout —
//!   never on a clock it re-checks. `tc-serve/src/client.rs` is outside
//!   the rule's scope: its retry backoff is a deliberate client-side wait.
//!
//! The scanner is line-oriented with a small state machine that strips
//! comments, string literals and `#[cfg(test)]` modules before matching,
//! so doc examples and unit tests do not trip the rules.

use std::fmt;
use std::path::{Path, PathBuf};

/// Marker that waives the panic rule for one line, e.g.
/// `// tc-check: allow(panic): startup-time spawn, nothing is serving yet`.
const PANIC_WAIVER: &str = "tc-check: allow(panic):";

/// One rule violation at one source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Path relative to the workspace root.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Which rule fired.
    pub rule: &'static str,
    /// Human-readable description of the violation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// One source line split into executable code and comment text, with
/// string-literal contents blanked out of the code half.
#[derive(Debug, Default, Clone)]
struct Line {
    code: String,
    comment: String,
}

/// Splits Rust source into per-line code/comment halves.
///
/// String and char literals are replaced by a single `"` / space in the
/// code half (so needles never match inside them), comments (line and
/// block, doc included) land in the comment half, and raw strings with
/// up to any number of `#`s are handled. The split is heuristic — it
/// does not parse Rust — but it is exact for the constructs the rules
/// match on.
fn split_source(src: &str) -> Vec<Line> {
    #[derive(PartialEq, Clone, Copy)]
    enum St {
        Code,
        LineComment,
        BlockComment(u32),
        Str,
        RawStr(u32),
    }
    let b = src.as_bytes();
    let mut lines: Vec<Line> = vec![Line::default()];
    let mut code: Vec<u8> = Vec::new();
    let mut comment: Vec<u8> = Vec::new();
    let mut st = St::Code;
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        if c == b'\n' {
            if st == St::LineComment {
                st = St::Code;
            }
            let line = lines.last_mut().expect("lines is never empty");
            line.code = String::from_utf8_lossy(&code).into_owned();
            line.comment = String::from_utf8_lossy(&comment).into_owned();
            code.clear();
            comment.clear();
            lines.push(Line::default());
            i += 1;
            continue;
        }
        match st {
            St::Code => {
                if c == b'/' && b.get(i + 1) == Some(&b'/') {
                    st = St::LineComment;
                    i += 2;
                    continue;
                }
                if c == b'/' && b.get(i + 1) == Some(&b'*') {
                    st = St::BlockComment(1);
                    i += 2;
                    continue;
                }
                if c == b'"' {
                    code.push(b'"');
                    st = St::Str;
                    i += 1;
                    continue;
                }
                // Raw (and raw-byte) strings: r"…", r#"…"#, br#"…"#.
                if c == b'r' || (c == b'b' && b.get(i + 1) == Some(&b'r')) {
                    let mut j = i + if c == b'b' { 2 } else { 1 };
                    let mut hashes = 0u32;
                    while b.get(j) == Some(&b'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if b.get(j) == Some(&b'"') {
                        code.push(b'"');
                        st = St::RawStr(hashes);
                        i = j + 1;
                        continue;
                    }
                }
                // Char literal vs lifetime: 'x' / '\n' are literals,
                // 'static / 'a> are lifetimes.
                if c == b'\'' {
                    if b.get(i + 1) == Some(&b'\\') {
                        let mut j = i + 2;
                        while j < b.len() && b[j] != b'\'' && b[j] != b'\n' {
                            j += 1;
                        }
                        code.push(b' ');
                        i = (j + 1).min(b.len());
                        continue;
                    }
                    // Width of the next UTF-8 scalar (1–4 bytes).
                    let w = match b.get(i + 1) {
                        Some(&n) if n < 0x80 => 1,
                        Some(&n) if n >= 0xF0 => 4,
                        Some(&n) if n >= 0xE0 => 3,
                        Some(&n) if n >= 0xC0 => 2,
                        _ => 1,
                    };
                    if b.get(i + 1 + w) == Some(&b'\'') {
                        code.push(b' ');
                        i += 2 + w;
                        continue;
                    }
                    // A lifetime; keep the tick so code stays aligned.
                    code.push(c);
                    i += 1;
                    continue;
                }
                code.push(c);
                i += 1;
            }
            St::LineComment => {
                comment.push(c);
                i += 1;
            }
            St::BlockComment(depth) => {
                if c == b'/' && b.get(i + 1) == Some(&b'*') {
                    st = St::BlockComment(depth + 1);
                    i += 2;
                } else if c == b'*' && b.get(i + 1) == Some(&b'/') {
                    st = if depth == 1 {
                        St::Code
                    } else {
                        St::BlockComment(depth - 1)
                    };
                    i += 2;
                } else {
                    comment.push(c);
                    i += 1;
                }
            }
            St::Str => {
                if c == b'\\' {
                    i += 2;
                } else if c == b'"' {
                    code.push(b'"');
                    st = St::Code;
                    i += 1;
                } else {
                    i += 1;
                }
            }
            St::RawStr(hashes) => {
                if c == b'"' {
                    let mut j = i + 1;
                    let mut seen = 0u32;
                    while seen < hashes && b.get(j) == Some(&b'#') {
                        seen += 1;
                        j += 1;
                    }
                    if seen == hashes {
                        code.push(b'"');
                        st = St::Code;
                        i = j;
                        continue;
                    }
                }
                i += 1;
            }
        }
    }
    let line = lines.last_mut().expect("lines is never empty");
    line.code = String::from_utf8_lossy(&code).into_owned();
    line.comment = String::from_utf8_lossy(&comment).into_owned();
    lines
}

/// Marks every line belonging to a `#[cfg(test)]` item (attribute line
/// included) so rules can skip test code.
fn test_lines(lines: &[Line]) -> Vec<bool> {
    let mut skip = vec![false; lines.len()];
    let mut i = 0;
    while i < lines.len() {
        if !lines[i].code.contains("#[cfg(test)]") {
            i += 1;
            continue;
        }
        let mut depth = 0i64;
        let mut started = false;
        let mut j = i;
        while j < lines.len() {
            skip[j] = true;
            for ch in lines[j].code.bytes() {
                match ch {
                    b'{' => {
                        depth += 1;
                        started = true;
                    }
                    b'}' => depth -= 1,
                    // `#[cfg(test)] mod t;` / `use …;` ends before any
                    // brace opens.
                    b';' if !started && j > i => depth = 0,
                    _ => {}
                }
            }
            if started && depth <= 0 {
                break;
            }
            if !started && j > i && lines[j].code.contains(';') {
                break;
            }
            j += 1;
        }
        i = j + 1;
    }
    skip
}

/// Recursively collects `.rs` files under `dir` (skipping `target/`).
fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<_> = std::fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn rel(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .display()
        .to_string()
        .replace('\\', "/")
}

/// The serving crates' (`tc-serve`, `tc-router`) source files.
fn serving_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    rs_files(&root.join("crates/tc-serve/src"), &mut files)?;
    rs_files(&root.join("crates/tc-router/src"), &mut files)?;
    Ok(files)
}

/// Rule 1: no panicking calls in serve/router non-test source.
fn panic_rule(root: &Path, findings: &mut Vec<Finding>) -> std::io::Result<()> {
    const NEEDLES: [&str; 5] = [
        ".unwrap()",
        ".expect(",
        "panic!(",
        "unreachable!(",
        "todo!(",
    ];
    for path in serving_files(root)? {
        let src = std::fs::read_to_string(&path)?;
        let lines = split_source(&src);
        let in_test = test_lines(&lines);
        for (idx, line) in lines.iter().enumerate() {
            if in_test[idx] {
                continue;
            }
            let Some(needle) = NEEDLES.iter().find(|n| line.code.contains(**n)) else {
                continue;
            };
            let waived = [Some(line), idx.checked_sub(1).and_then(|p| lines.get(p))]
                .into_iter()
                .flatten()
                .any(|l| {
                    l.comment
                        .split(PANIC_WAIVER)
                        .nth(1)
                        .is_some_and(|reason| !reason.trim().is_empty())
                });
            if !waived {
                findings.push(Finding {
                    file: rel(root, &path),
                    line: idx + 1,
                    rule: "panic-free-request-paths",
                    message: format!(
                        "`{}` in a serving crate; return an error response instead, \
                         or waive with `// {} <why this cannot fire>`",
                        needle.trim_end_matches('('),
                        PANIC_WAIVER
                    ),
                });
            }
        }
    }
    Ok(())
}

/// Rule 2: every `unsafe` block / `unsafe impl` carries a SAFETY comment.
fn safety_rule(root: &Path, findings: &mut Vec<Finding>) -> std::io::Result<()> {
    let mut files = Vec::new();
    for dir in ["crates", "vendor"] {
        rs_files(&root.join(dir), &mut files)?;
    }
    for path in files {
        let src = std::fs::read_to_string(&path)?;
        let lines = split_source(&src);
        for (idx, line) in lines.iter().enumerate() {
            let code = &line.code;
            let Some(pos) = find_word(code, "unsafe") else {
                continue;
            };
            // `unsafe fn` declares an obligation for callers; the rule
            // targets discharges of obligations: blocks and impls.
            let after = code[pos + "unsafe".len()..].trim_start();
            if after.starts_with("fn ") {
                continue;
            }
            let mut covered = line.comment.contains("SAFETY:");
            let mut j = idx;
            while !covered && j > 0 {
                j -= 1;
                let above = &lines[j];
                let is_annotation =
                    above.code.trim().is_empty() || above.code.trim_start().starts_with("#[");
                if above.comment.contains("SAFETY:") {
                    covered = true;
                } else if !is_annotation {
                    break;
                }
            }
            if !covered {
                findings.push(Finding {
                    file: rel(root, &path),
                    line: idx + 1,
                    rule: "safety-comments",
                    message: "`unsafe` without a `// SAFETY:` comment directly above \
                              explaining why the obligations hold"
                        .to_string(),
                });
            }
        }
    }
    Ok(())
}

/// Finds `word` in `code` at an identifier boundary.
fn find_word(code: &str, word: &str) -> Option<usize> {
    let mut from = 0;
    while let Some(off) = code[from..].find(word) {
        let pos = from + off;
        let before_ok = pos == 0
            || !code.as_bytes()[pos - 1].is_ascii_alphanumeric()
                && code.as_bytes()[pos - 1] != b'_';
        let end = pos + word.len();
        let after_ok = end >= code.len()
            || !code.as_bytes()[end].is_ascii_alphanumeric() && code.as_bytes()[end] != b'_';
        if before_ok && after_ok {
            return Some(pos);
        }
        from = pos + word.len();
    }
    None
}

/// The four modules whose synchronization must flow through the facade.
const FACADE_MODULES: [&str; 4] = [
    "crates/tc-util/src/steal.rs",
    "crates/tc-store/src/cache.rs",
    "crates/tc-store/src/wal/writer.rs",
    "crates/tc-serve/src/reload.rs",
];

/// Rule 3: model-checked modules import sync primitives only via the
/// `tc_util::sync` facade.
fn facade_rule(root: &Path, findings: &mut Vec<Finding>) -> std::io::Result<()> {
    const NEEDLES: [&str; 2] = ["std::sync::", "parking_lot"];
    for module in FACADE_MODULES {
        let path = root.join(module);
        let src = std::fs::read_to_string(&path)?;
        let lines = split_source(&src);
        let in_test = test_lines(&lines);
        for (idx, line) in lines.iter().enumerate() {
            if in_test[idx] {
                continue;
            }
            for needle in NEEDLES {
                if line.code.contains(needle) {
                    findings.push(Finding {
                        file: rel(root, &path),
                        line: idx + 1,
                        rule: "facade-imports",
                        message: format!(
                            "`{needle}` in a model-checked module; use `tc_util::sync` \
                             so `--cfg tc_check_model` instruments it"
                        ),
                    });
                }
            }
        }
    }
    Ok(())
}

/// Collects `<prefix>[a-z0-9_]*` metric names from `text`, normalising
/// away the Prometheus histogram sub-series suffixes.
fn metric_names(text: &str, prefix: &str) -> std::collections::BTreeSet<String> {
    let mut names = std::collections::BTreeSet::new();
    let bytes = text.as_bytes();
    let mut from = 0;
    while let Some(off) = text[from..].find(prefix) {
        let start = from + off;
        // Reject mid-identifier hits like `x_tcserve_foo`.
        let boundary =
            start == 0 || !(bytes[start - 1].is_ascii_alphanumeric() || bytes[start - 1] == b'_');
        let mut end = start + prefix.len();
        while end < bytes.len()
            && (bytes[end].is_ascii_lowercase()
                || bytes[end].is_ascii_digit()
                || bytes[end] == b'_')
        {
            end += 1;
        }
        from = end;
        if !boundary || end == start + prefix.len() {
            continue; // bare prefix (e.g. in prose) is not a metric name
        }
        let mut name = &text[start..end];
        for suffix in ["_bucket", "_sum", "_count"] {
            if let Some(base) = name.strip_suffix(suffix) {
                if base.ends_with("_seconds") {
                    name = base;
                }
            }
        }
        names.insert(name.to_string());
    }
    names
}

/// Rule 4: exposition metric names and `docs/OPERATIONS.md` agree. The
/// names live in each daemon's metric table (both render through
/// tc-serve's one `Exposition` writer, which names nothing itself).
fn metrics_rule(root: &Path, findings: &mut Vec<Finding>) -> std::io::Result<()> {
    let docs_path = root.join("docs/OPERATIONS.md");
    let docs = std::fs::read_to_string(&docs_path)?;
    for (code_file, prefix) in [
        ("crates/tc-serve/src/metrics.rs", "tcserve_"),
        ("crates/tc-router/src/metrics.rs", "tcrouter_"),
    ] {
        let code_path = root.join(code_file);
        let code = std::fs::read_to_string(&code_path)?;
        let in_code = metric_names(&code, prefix);
        let in_docs = metric_names(&docs, prefix);
        for name in in_code.difference(&in_docs) {
            findings.push(Finding {
                file: rel(root, &code_path),
                line: 1,
                rule: "metric-name-parity",
                message: format!(
                    "metric `{name}` is exposed but undocumented in docs/OPERATIONS.md"
                ),
            });
        }
        for name in in_docs.difference(&in_code) {
            findings.push(Finding {
                file: rel(root, &docs_path),
                line: 1,
                rule: "metric-name-parity",
                message: format!("metric `{name}` is documented but not exposed by {code_file}"),
            });
        }
    }
    Ok(())
}

/// The one serving file outside rule 5's scope: the client's retry
/// backoff is a deliberate client-side wait, not a daemon on a clock.
const SLEEP_SCOPE_EXEMPT: &str = "crates/tc-serve/src/client.rs";

/// Rule 5: serving daemons wait on events, never on a clock.
fn sleep_rule(root: &Path, findings: &mut Vec<Finding>) -> std::io::Result<()> {
    for path in serving_files(root)? {
        let file = rel(root, &path);
        if file == SLEEP_SCOPE_EXEMPT {
            continue;
        }
        let src = std::fs::read_to_string(&path)?;
        let lines = split_source(&src);
        let in_test = test_lines(&lines);
        for (idx, line) in lines.iter().enumerate() {
            let sleeps = line.code.contains("thread::") && find_word(&line.code, "sleep").is_some();
            if sleeps && !in_test[idx] {
                findings.push(Finding {
                    file: file.clone(),
                    line: idx + 1,
                    rule: "no-sleep-polling",
                    message: "`thread::sleep` in a serving crate; block on the event itself \
                              (`poll(2)` on a socket, a condvar, a socket timeout) instead \
                              of waking on a clock"
                        .to_string(),
                });
            }
        }
    }
    Ok(())
}

/// Runs every rule over the workspace at `root` (the directory holding
/// `Cargo.toml`, `crates/` and `docs/`). Returns the findings sorted by
/// file and line; an empty vector means the workspace is clean.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    if !root.join("crates").is_dir() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::NotFound,
            format!("{} does not look like the workspace root", root.display()),
        ));
    }
    let mut findings = Vec::new();
    panic_rule(root, &mut findings)?;
    safety_rule(root, &mut findings)?;
    facade_rule(root, &mut findings)?;
    metrics_rule(root, &mut findings)?;
    sleep_rule(root, &mut findings)?;
    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitter_strips_comments_and_strings() {
        let src = "let x = \"a.unwrap()\"; // .expect( in comment\n\
                   /* panic!( in block */ call();\n\
                   let c = '\"'; let s = r#\"raw .unwrap()\"#;\n";
        let lines = split_source(src);
        assert!(!lines[0].code.contains(".unwrap()"));
        assert!(lines[0].comment.contains(".expect("));
        assert!(lines[1].code.contains("call()"));
        assert!(!lines[1].code.contains("panic!"));
        assert!(lines[2].code.contains("let s"));
        assert!(!lines[2].code.contains(".unwrap()"));
    }

    #[test]
    fn splitter_keeps_lifetimes_and_char_literals_apart() {
        let lines = split_source("fn f<'a>(x: &'a str) -> char { 'x' }\n");
        assert!(lines[0].code.contains("fn f<'a>"));
        assert!(!lines[0].code.contains("'x'"));
    }

    #[test]
    fn test_modules_are_skipped() {
        let src = "fn live() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn t() { y.unwrap(); }\n}\nfn live2() {}\n";
        let lines = split_source(src);
        let skip = test_lines(&lines);
        assert_eq!(skip, vec![false, true, true, true, true, false, false]);
    }

    #[test]
    fn word_boundaries_matter() {
        assert!(find_word("unsafe {", "unsafe").is_some());
        assert!(find_word("not_unsafe()", "unsafe").is_none());
        assert!(find_word("unsafely()", "unsafe").is_none());
    }

    #[test]
    fn metric_names_normalise_histogram_suffixes() {
        let names = metric_names(
            "tcserve_request_latency_seconds_bucket tcserve_request_latency_seconds_count \
             tcserve_requests_total the tcserve_ prefix alone",
            "tcserve_",
        );
        let expect: Vec<&str> = vec!["tcserve_request_latency_seconds", "tcserve_requests_total"];
        assert_eq!(names.iter().map(String::as_str).collect::<Vec<_>>(), expect);
    }

    /// Builds a throwaway workspace with one serve file and matching
    /// docs, runs the linter, and returns the findings.
    fn lint_fixture(serve_src: &str) -> Vec<Finding> {
        lint_serve_files(&[("server.rs", serve_src)])
    }

    /// [`lint_fixture`] over several `crates/tc-serve/src` files.
    fn lint_serve_files(serve_files: &[(&str, &str)]) -> Vec<Finding> {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let root = std::env::temp_dir().join(format!(
            "tc_check_lint_{}_{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let serve = root.join("crates/tc-serve/src");
        std::fs::create_dir_all(&serve).unwrap();
        std::fs::create_dir_all(root.join("crates/tc-router/src")).unwrap();
        std::fs::create_dir_all(root.join("crates/tc-util/src")).unwrap();
        std::fs::create_dir_all(root.join("crates/tc-store/src/wal")).unwrap();
        std::fs::create_dir_all(root.join("docs")).unwrap();
        for (name, src) in serve_files {
            std::fs::write(serve.join(name), src).unwrap();
        }
        std::fs::write(serve.join("metrics.rs"), "\"tcserve_requests_total\"").unwrap();
        std::fs::write(
            root.join("crates/tc-router/src/metrics.rs"),
            "\"tcrouter_requests_total\"",
        )
        .unwrap();
        std::fs::write(
            root.join("docs/OPERATIONS.md"),
            "tcserve_requests_total tcrouter_requests_total",
        )
        .unwrap();
        for module in FACADE_MODULES {
            let path = root.join(module);
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            if !path.exists() {
                std::fs::write(&path, "use tc_util::sync::Mutex;\n").unwrap();
            }
        }
        let findings = lint_workspace(&root).unwrap();
        std::fs::remove_dir_all(&root).ok();
        findings
    }

    #[test]
    fn unwrap_in_serve_source_is_flagged_and_waiver_honoured() {
        let flagged = lint_fixture("fn f() { x.unwrap(); }\n");
        assert_eq!(flagged.len(), 1, "{flagged:?}");
        assert_eq!(flagged[0].rule, "panic-free-request-paths");
        assert_eq!(flagged[0].line, 1);

        let waived = lint_fixture(
            "// tc-check: allow(panic): startup only, nothing serves yet\nfn f() { x.unwrap(); }\n",
        );
        assert!(waived.is_empty(), "{waived:?}");

        // A waiver with an empty justification does not count.
        let empty = lint_fixture("fn f() { x.unwrap(); } // tc-check: allow(panic):   \n");
        assert_eq!(empty.len(), 1, "{empty:?}");

        let in_test = lint_fixture("#[cfg(test)]\nmod tests {\n fn f() { x.unwrap(); }\n}\n");
        assert!(in_test.is_empty(), "{in_test:?}");
    }

    #[test]
    fn unsafe_without_safety_comment_is_flagged() {
        let flagged = lint_fixture("fn f() { unsafe { g(); } }\n");
        assert_eq!(flagged.len(), 1, "{flagged:?}");
        assert_eq!(flagged[0].rule, "safety-comments");

        let ok =
            lint_fixture("// SAFETY: g has no preconditions here.\nfn f() { unsafe { g(); } }\n");
        assert!(ok.is_empty(), "{ok:?}");

        // `unsafe fn` declarations state obligations, they don't
        // discharge them — not flagged.
        let decl = lint_fixture("unsafe fn g() {}\n");
        assert!(decl.is_empty(), "{decl:?}");
    }

    #[test]
    fn sleep_in_serve_source_is_flagged_outside_the_client() {
        let flagged = lint_fixture("fn f() {\n    std::thread::sleep(TICK);\n}\n");
        assert_eq!(flagged.len(), 1, "{flagged:?}");
        assert_eq!(flagged[0].rule, "no-sleep-polling");
        assert_eq!(flagged[0].line, 2);

        // Importing it counts too; a comment or a string does not.
        let imported = lint_fixture("use std::thread::{sleep, spawn};\n");
        assert_eq!(imported.len(), 1, "{imported:?}");
        let prose = lint_fixture("// no thread::sleep here\nconst S: &str = \"thread::sleep\";\n");
        assert!(prose.is_empty(), "{prose:?}");

        let in_test =
            lint_fixture("#[cfg(test)]\nmod tests {\n fn f() { std::thread::sleep(T); }\n}\n");
        assert!(in_test.is_empty(), "{in_test:?}");

        // The client's retry backoff is out of scope — no waiver needed.
        let client = lint_serve_files(&[
            ("server.rs", "fn f() {}\n"),
            ("client.rs", "fn backoff() { std::thread::sleep(d); }\n"),
        ]);
        assert!(client.is_empty(), "{client:?}");
    }

    #[test]
    fn std_sync_in_facade_module_is_flagged() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let root = std::env::temp_dir().join(format!(
            "tc_check_facade_{}_{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        for module in FACADE_MODULES {
            let path = root.join(module);
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, "use tc_util::sync::Mutex;\n").unwrap();
        }
        std::fs::create_dir_all(root.join("crates/tc-router/src")).unwrap();
        std::fs::write(
            root.join("crates/tc-serve/src/metrics.rs"),
            "\"tcserve_requests_total\"",
        )
        .unwrap();
        std::fs::write(
            root.join("crates/tc-router/src/metrics.rs"),
            "\"tcrouter_requests_total\"",
        )
        .unwrap();
        std::fs::create_dir_all(root.join("docs")).unwrap();
        std::fs::write(
            root.join("docs/OPERATIONS.md"),
            "tcserve_requests_total tcrouter_requests_total",
        )
        .unwrap();
        std::fs::write(
            root.join("crates/tc-store/src/cache.rs"),
            "use std::sync::Mutex; // escapes the model\n",
        )
        .unwrap();
        let findings = lint_workspace(&root).unwrap();
        std::fs::remove_dir_all(&root).ok();
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "facade-imports");
        assert!(findings[0].file.ends_with("cache.rs"));
    }

    #[test]
    fn metric_divergence_is_flagged_both_ways() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let root = std::env::temp_dir().join(format!(
            "tc_check_metrics_{}_{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        for module in FACADE_MODULES {
            let path = root.join(module);
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, "").unwrap();
        }
        std::fs::create_dir_all(root.join("crates/tc-router/src")).unwrap();
        std::fs::create_dir_all(root.join("docs")).unwrap();
        std::fs::write(
            root.join("crates/tc-serve/src/metrics.rs"),
            "\"tcserve_only_in_code_total\"",
        )
        .unwrap();
        std::fs::write(
            root.join("crates/tc-router/src/metrics.rs"),
            "\"tcrouter_requests_total\"",
        )
        .unwrap();
        std::fs::write(
            root.join("docs/OPERATIONS.md"),
            "tcserve_only_in_docs_total tcrouter_requests_total",
        )
        .unwrap();
        let findings = lint_workspace(&root).unwrap();
        std::fs::remove_dir_all(&root).ok();
        let rules: Vec<_> = findings.iter().map(|f| f.rule).collect();
        assert_eq!(rules, vec!["metric-name-parity"; 2], "{findings:?}");
        assert!(findings.iter().any(|f| f.message.contains("undocumented")));
        assert!(findings.iter().any(|f| f.message.contains("not exposed")));
    }
}
