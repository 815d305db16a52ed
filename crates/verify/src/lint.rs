//! The `taurus-lint` engine: project-specific source checks that `rustc`
//! and `clippy` cannot express because they encode *this* codebase's
//! conventions:
//!
//! * **`unwrap-in-hot-path`** — `.unwrap()` / `.expect(...)` in non-test
//!   code of the storage hot-path crates (`logstore`, `pagestore`, `core`,
//!   `engine`). A panic in a Log Store or Page Store server is a simulated
//!   node crash; fallible paths must propagate `TaurusError`.
//! * **`direct-clock`** — `Instant::now()` / `SystemTime::now()` outside
//!   `taurus_common::clock`. All time must flow through the pluggable clock
//!   or failure drills and the determinism checker break.
//! * **`unseeded-rng`** — `rand::rng()` / `thread_rng()`: every RNG must be
//!   seeded from configuration so runs are reproducible.
//! * **`std-sync-lock`** — `std::sync::Mutex` / `std::sync::RwLock` where
//!   `parking_lot` is the workspace standard (no lock poisoning to handle).
//! * **`pushdown-no-panic`** — any panicking construct (`panic!`,
//!   `unreachable!`, `todo!`, `unimplemented!`, `assert*!`) in the Page
//!   Store's `ScanSlice` execution path (`crates/pagestore/src/pushdown*`).
//!   A `ScanSlice` call evaluates user-shaped predicates over arbitrary
//!   page bytes; a panic there takes the whole simulated Page Store node
//!   down for every tenant, so the module must be panic-free, not merely
//!   unwrap-free.
//!
//! The scanner strips comments and string/char literals first (so a pattern
//! inside a doc comment or log message never fires), skips `#[cfg(test)]`
//! modules and `#[test]` functions, and honors escape-hatch comments:
//!
//! ```text
//! let t = Instant::now(); // taurus-lint: allow(direct-clock) -- seeding the origin
//! ```
//!
//! An allow comment suppresses the named rules on its own line and on the
//! next line (so it can sit above the offending statement).

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// Crates whose non-test code must not panic via `unwrap`/`expect`.
pub const HOT_PATH_CRATES: &[&str] = &["logstore", "pagestore", "core", "engine"];

/// All rule names, in reporting order.
pub const RULE_NAMES: &[&str] = &[
    "unwrap-in-hot-path",
    "direct-clock",
    "unseeded-rng",
    "std-sync-lock",
    "pushdown-no-panic",
    "unjustified-allow",
];

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    pub file: PathBuf,
    /// 1-based line number.
    pub line: usize,
    pub rule: &'static str,
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// Aggregate result of a lint run.
#[derive(Debug, Default)]
pub struct LintReport {
    pub files_scanned: usize,
    pub diagnostics: Vec<Diagnostic>,
    /// Findings silenced by `taurus-lint: allow(...)` comments.
    pub suppressed: usize,
}

impl LintReport {
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Count of findings per rule (rules with zero findings included).
    pub fn by_rule(&self) -> BTreeMap<&'static str, usize> {
        let mut map: BTreeMap<&'static str, usize> =
            RULE_NAMES.iter().map(|r| (*r, 0usize)).collect();
        for d in &self.diagnostics {
            *map.entry(d.rule).or_insert(0) += 1;
        }
        map
    }

    /// Machine-readable one-object JSON summary (hand-rolled: the lint must
    /// not pull in dependencies).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!("\"files_scanned\":{},", self.files_scanned));
        out.push_str(&format!("\"violations\":{},", self.diagnostics.len()));
        out.push_str(&format!("\"suppressed\":{},", self.suppressed));
        out.push_str("\"by_rule\":{");
        let by_rule = self.by_rule();
        let mut first = true;
        for (rule, n) in &by_rule {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("\"{rule}\":{n}"));
        }
        out.push_str("},\"diagnostics\":[");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"file\":\"{}\",\"line\":{},\"rule\":\"{}\",\"message\":\"{}\"}}",
                json_escape(&d.file.display().to_string()),
                d.line,
                d.rule,
                json_escape(&d.message)
            ));
        }
        out.push_str("]}");
        out
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

// ====================================================================
// Source preprocessing
// ====================================================================

/// Replaces comments and string/char literal *contents* with spaces while
/// preserving line structure, so pattern matching never fires inside text.
/// Handles line comments, (nested) block comments, string literals with
/// escapes, raw strings `r"…"`/`r#"…"#`, byte strings, char literals, and
/// lifetimes (a lone `'a` is not a char literal).
fn strip_comments_and_strings(src: &str) -> String {
    let b: Vec<char> = src.chars().collect();
    let mut out = String::with_capacity(src.len());
    let mut i = 0usize;
    while i < b.len() {
        let c = b[i];
        // Line comment.
        if c == '/' && i + 1 < b.len() && b[i + 1] == '/' {
            while i < b.len() && b[i] != '\n' {
                out.push(' ');
                i += 1;
            }
            continue;
        }
        // Block comment (nested).
        if c == '/' && i + 1 < b.len() && b[i + 1] == '*' {
            let mut depth = 1usize;
            out.push(' ');
            out.push(' ');
            i += 2;
            while i < b.len() && depth > 0 {
                if b[i] == '/' && i + 1 < b.len() && b[i + 1] == '*' {
                    depth += 1;
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                } else if b[i] == '*' && i + 1 < b.len() && b[i + 1] == '/' {
                    depth -= 1;
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                } else {
                    out.push(if b[i] == '\n' { '\n' } else { ' ' });
                    i += 1;
                }
            }
            continue;
        }
        // Raw string r"..." / r#"..."# (optionally with b prefix).
        let raw_start = if c == 'r' {
            Some(i)
        } else if c == 'b' && i + 1 < b.len() && b[i + 1] == 'r' {
            Some(i + 1)
        } else {
            None
        };
        if let Some(r_idx) = raw_start {
            // Only if previous char is not an identifier char (avoid `for`).
            let prev_ident = i > 0 && (b[i - 1].is_alphanumeric() || b[i - 1] == '_');
            let mut j = r_idx + 1;
            let mut hashes = 0usize;
            while j < b.len() && b[j] == '#' {
                hashes += 1;
                j += 1;
            }
            if !prev_ident && j < b.len() && b[j] == '"' {
                // Emit the prefix as-is (r, b, #s, opening quote become spaces).
                for _ in i..=j {
                    out.push(' ');
                }
                i = j + 1;
                // Scan to closing quote + hashes.
                'raw: while i < b.len() {
                    if b[i] == '"' {
                        let mut k = i + 1;
                        let mut h = 0usize;
                        while k < b.len() && b[k] == '#' && h < hashes {
                            h += 1;
                            k += 1;
                        }
                        if h == hashes {
                            for _ in i..k {
                                out.push(' ');
                            }
                            i = k;
                            break 'raw;
                        }
                    }
                    out.push(if b[i] == '\n' { '\n' } else { ' ' });
                    i += 1;
                }
                continue;
            }
        }
        // Normal string literal (and byte string b"...").
        if c == '"' {
            out.push(' ');
            i += 1;
            while i < b.len() {
                if b[i] == '\\' && i + 1 < b.len() {
                    out.push(' ');
                    out.push(if b[i + 1] == '\n' { '\n' } else { ' ' });
                    i += 2;
                    continue;
                }
                if b[i] == '"' {
                    out.push(' ');
                    i += 1;
                    break;
                }
                out.push(if b[i] == '\n' { '\n' } else { ' ' });
                i += 1;
            }
            continue;
        }
        // Char literal vs lifetime.
        if c == '\'' {
            let is_char = if i + 1 < b.len() && b[i + 1] == '\\' {
                true
            } else {
                i + 2 < b.len() && b[i + 2] == '\'' && b[i + 1] != '\''
            };
            if is_char {
                out.push(' ');
                i += 1;
                while i < b.len() {
                    if b[i] == '\\' && i + 1 < b.len() {
                        out.push(' ');
                        out.push(' ');
                        i += 2;
                        continue;
                    }
                    if b[i] == '\'' {
                        out.push(' ');
                        i += 1;
                        break;
                    }
                    out.push(' ');
                    i += 1;
                }
                continue;
            }
            // Lifetime: keep the tick (harmless) and move on.
            out.push('\'');
            i += 1;
            continue;
        }
        out.push(c);
        i += 1;
    }
    out
}

/// Marks lines belonging to test-only code: a `#[cfg(test)]` or `#[test]`
/// attribute plus the brace-balanced item that follows it. Operates on the
/// *stripped* source so braces in strings/comments don't confuse it.
fn test_code_lines(stripped: &str) -> Vec<bool> {
    let lines: Vec<&str> = stripped.lines().collect();
    let mut is_test = vec![false; lines.len()];
    let chars: Vec<char> = stripped.chars().collect();
    // Byte offset of the start of each line (in chars).
    let mut line_start = Vec::with_capacity(lines.len());
    {
        let mut pos = 0usize;
        for l in &lines {
            line_start.push(pos);
            pos += l.chars().count() + 1;
        }
    }
    let line_of = |pos: usize| -> usize {
        match line_start.binary_search(&pos) {
            Ok(i) => i,
            Err(i) => i.saturating_sub(1),
        }
    };
    let mut search_from = 0usize;
    loop {
        // Find the next test attribute.
        let rest: String = chars[search_from..].iter().collect();
        let found = ["#[cfg(test)", "#[cfg(all(test", "#[test]"]
            .iter()
            .filter_map(|pat| rest.find(pat))
            .min();
        let Some(off) = found else { break };
        let attr_pos = search_from + off;
        // Walk to the first `{` after the attribute, then to its match.
        let mut j = attr_pos;
        let mut depth = 0i64;
        let mut opened = false;
        while j < chars.len() {
            match chars[j] {
                '{' => {
                    depth += 1;
                    opened = true;
                }
                '}' => depth -= 1,
                ';' if !opened => {
                    // Item without a body (e.g. `#[cfg(test)] use ...;`).
                    break;
                }
                _ => {}
            }
            if opened && depth == 0 {
                break;
            }
            j += 1;
        }
        let end_pos = j.min(chars.len().saturating_sub(1));
        for line in line_of(attr_pos)..=line_of(end_pos) {
            if line < is_test.len() {
                is_test[line] = true;
            }
        }
        search_from = j.saturating_add(1);
        if search_from >= chars.len() {
            break;
        }
    }
    is_test
}

/// Extracts `taurus-lint: allow(rule, rule2)` escape hatches from the
/// *original* source. Returns, per 1-based line, the set of allowed rules —
/// an allow on line N covers lines N and N+1.
fn allow_directives(src: &str) -> BTreeMap<usize, Vec<String>> {
    let mut allows: BTreeMap<usize, Vec<String>> = BTreeMap::new();
    for (idx, line) in src.lines().enumerate() {
        let Some(pos) = line.find("taurus-lint: allow(") else {
            continue;
        };
        let after = &line[pos + "taurus-lint: allow(".len()..];
        let Some(close) = after.find(')') else {
            continue;
        };
        let rules: Vec<String> = after[..close]
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect();
        let lineno = idx + 1;
        allows.entry(lineno).or_default().extend(rules.clone());
        allows.entry(lineno + 1).or_default().extend(rules);
    }
    allows
}

// ====================================================================
// Rules
// ====================================================================

struct Finding {
    rule: &'static str,
    message: String,
}

/// Panicking constructs forbidden in the `ScanSlice` execution module.
const PANIC_PATTERNS: &[&str] = &[
    "panic!(",
    "unreachable!(",
    "todo!(",
    "unimplemented!(",
    "assert!(",
    "assert_eq!(",
    "assert_ne!(",
];

/// Runs every rule against one stripped line. `hot_path` controls the
/// unwrap rule, `pushdown` the no-panic rule; the rest apply everywhere.
fn check_line(code: &str, hot_path: bool, pushdown: bool) -> Vec<Finding> {
    let mut found = Vec::new();
    if hot_path {
        if code.contains(".unwrap()") {
            found.push(Finding {
                rule: "unwrap-in-hot-path",
                message: "`.unwrap()` in storage hot-path code; propagate `TaurusError` instead"
                    .into(),
            });
        }
        if code.contains(".expect(") {
            found.push(Finding {
                rule: "unwrap-in-hot-path",
                message: "`.expect(...)` in storage hot-path code; propagate `TaurusError` instead"
                    .into(),
            });
        }
    }
    for pat in ["Instant::now()", "SystemTime::now()"] {
        if code.contains(pat) {
            found.push(Finding {
                rule: "direct-clock",
                message: format!(
                    "`{pat}` bypasses the pluggable clock; use `taurus_common::clock`"
                ),
            });
        }
    }
    for pat in ["rand::rng()", "thread_rng()"] {
        if code.contains(pat) {
            found.push(Finding {
                rule: "unseeded-rng",
                message: format!("`{pat}` is unseeded; derive an RNG from the configured seed"),
            });
        }
    }
    if code.contains("std::sync::Mutex") || code.contains("std::sync::RwLock") {
        found.push(Finding {
            rule: "std-sync-lock",
            message: "`std::sync` lock; the workspace standard is `parking_lot`".into(),
        });
    }
    if pushdown {
        for pat in PANIC_PATTERNS {
            // `debug_assert!` et al. contain `assert!(` as a substring but
            // compile out of release servers; match only a clean start.
            let hit = code.match_indices(pat).any(|(i, _)| {
                i == 0
                    || !code[..i]
                        .chars()
                        .next_back()
                        .is_some_and(|c| c.is_alphanumeric() || c == '_')
            });
            if hit {
                found.push(Finding {
                    rule: "pushdown-no-panic",
                    message: format!(
                        "`{pat}...)` in the ScanSlice execution path; a panic here crashes \
                         the Page Store node — return `TaurusError` instead"
                    ),
                });
            }
        }
    }
    found
}

/// Whether the unwrap rule applies to this file, judged from its path: the
/// crate name is the path component after `crates/`. Files whose crate
/// cannot be determined (e.g. lint fixtures) get the strict treatment.
fn unwrap_rule_applies(path: &Path) -> bool {
    let comps: Vec<&str> = path.iter().filter_map(|c| c.to_str()).collect();
    for w in comps.windows(2) {
        if w[0] == "crates" {
            return HOT_PATH_CRATES.contains(&w[1]);
        }
    }
    true
}

/// Whether the no-panic rule applies: the Page Store pushdown module (the
/// `ScanSlice` execution path), including any future submodules.
fn pushdown_rule_applies(path: &Path) -> bool {
    let p = path.to_string_lossy().replace('\\', "/");
    p.contains("crates/pagestore/src/pushdown")
}

// ====================================================================
// Driver
// ====================================================================

/// Lints one source text as if it lived at `path`. Appends to `report`.
pub fn lint_source(path: &Path, src: &str, report: &mut LintReport) {
    report.files_scanned += 1;
    let stripped = strip_comments_and_strings(src);
    let is_test = test_code_lines(&stripped);
    let allows = allow_directives(src);
    let hot_path = unwrap_rule_applies(path);
    let pushdown = pushdown_rule_applies(path);
    for (idx, code) in stripped.lines().enumerate() {
        if is_test.get(idx).copied().unwrap_or(false) {
            continue;
        }
        let lineno = idx + 1;
        for f in check_line(code, hot_path, pushdown) {
            let allowed = allows
                .get(&lineno)
                .map(|rules| rules.iter().any(|r| r == f.rule))
                .unwrap_or(false);
            if allowed {
                report.suppressed += 1;
            } else {
                report.diagnostics.push(Diagnostic {
                    file: path.to_path_buf(),
                    line: lineno,
                    rule: f.rule,
                    message: f.message,
                });
            }
        }
    }
    // Every allow comment must justify itself with ` -- <reason>`. Only
    // comment context counts (a `//` before the marker on the raw line):
    // the lint's own source mentions the marker inside string literals.
    for (idx, raw) in src.lines().enumerate() {
        if is_test.get(idx).copied().unwrap_or(false) {
            continue;
        }
        let Some(pos) = raw.find("taurus-lint: allow(") else {
            continue;
        };
        if !raw[..pos].contains("//") {
            continue;
        }
        let after = &raw[pos + "taurus-lint: allow(".len()..];
        let Some(close) = after.find(')') else {
            continue;
        };
        // Doc text explains the marker with placeholder rule names
        // (`allow(...)`); only a directive naming a real rule is an allow.
        if !after[..close]
            .split(',')
            .any(|r| RULE_NAMES.contains(&r.trim()))
        {
            continue;
        }
        let rest = after[close + 1..].trim_start();
        let justified = rest
            .strip_prefix("--")
            .is_some_and(|r| !r.trim().is_empty());
        if !justified {
            report.diagnostics.push(Diagnostic {
                file: path.to_path_buf(),
                line: idx + 1,
                rule: "unjustified-allow",
                message: "`allow(...)` without a ` -- <reason>` justification; \
                          explain why the suppressed finding is safe"
                    .into(),
            });
        }
    }
}

/// Recursively collects `.rs` files under `dir`, sorted for stable output.
fn collect_rs_files(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d)? {
            let entry = entry?;
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Lints every `crates/*/src/**/*.rs` file under `root`.
pub fn lint_workspace(root: &Path) -> std::io::Result<LintReport> {
    let mut report = LintReport::default();
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for crate_dir in crate_dirs {
        let src_dir = crate_dir.join("src");
        if !src_dir.is_dir() {
            continue;
        }
        for file in collect_rs_files(&src_dir)? {
            let src = std::fs::read_to_string(&file)?;
            // Report paths relative to the root for stable, clickable output.
            let rel = file.strip_prefix(root).unwrap_or(&file).to_path_buf();
            lint_source(&rel, &src, &mut report);
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_str(path: &str, src: &str) -> LintReport {
        let mut r = LintReport::default();
        lint_source(Path::new(path), src, &mut r);
        r
    }

    // ---- unwrap-in-hot-path ----

    #[test]
    fn unwrap_flagged_in_hot_path_crate() {
        let r = lint_str(
            "crates/logstore/src/x.rs",
            "fn f() { let v = g().unwrap(); }\n",
        );
        assert_eq!(r.diagnostics.len(), 1);
        assert_eq!(r.diagnostics[0].rule, "unwrap-in-hot-path");
        assert_eq!(r.diagnostics[0].line, 1);
    }

    #[test]
    fn expect_flagged_in_hot_path_crate() {
        let r = lint_str(
            "crates/pagestore/src/x.rs",
            "fn f() { g().expect(\"boom\"); }\n",
        );
        assert_eq!(r.diagnostics.len(), 1);
        assert_eq!(r.diagnostics[0].rule, "unwrap-in-hot-path");
    }

    #[test]
    fn unwrap_ignored_outside_hot_path_crates() {
        let r = lint_str("crates/bench/src/x.rs", "fn f() { g().unwrap(); }\n");
        assert!(r.is_clean(), "{:?}", r.diagnostics);
    }

    #[test]
    fn unwrap_in_test_module_is_skipped() {
        let src =
            "fn ok() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { g().unwrap(); }\n}\n";
        let r = lint_str("crates/core/src/x.rs", src);
        assert!(r.is_clean(), "{:?}", r.diagnostics);
    }

    #[test]
    fn unwrap_in_test_fn_outside_test_module_is_skipped() {
        let src = "#[test]\nfn t() {\n    g().unwrap();\n}\nfn prod() { g().unwrap(); }\n";
        let r = lint_str("crates/core/src/x.rs", src);
        assert_eq!(r.diagnostics.len(), 1, "{:?}", r.diagnostics);
        assert_eq!(r.diagnostics[0].line, 5);
    }

    // ---- direct-clock ----

    #[test]
    fn instant_now_flagged_everywhere() {
        let r = lint_str(
            "crates/workload/src/x.rs",
            "fn f() { let t = std::time::Instant::now(); }\n",
        );
        assert_eq!(r.diagnostics.len(), 1);
        assert_eq!(r.diagnostics[0].rule, "direct-clock");
    }

    #[test]
    fn system_time_now_flagged() {
        let r = lint_str("crates/common/src/x.rs", "fn f() { SystemTime::now(); }\n");
        assert_eq!(r.diagnostics.len(), 1);
        assert_eq!(r.diagnostics[0].rule, "direct-clock");
    }

    #[test]
    fn clock_pattern_inside_string_or_comment_is_ignored() {
        let src = "// Instant::now() is forbidden\nfn f() { log(\"Instant::now()\"); }\n/* SystemTime::now() */\n";
        let r = lint_str("crates/common/src/x.rs", src);
        assert!(r.is_clean(), "{:?}", r.diagnostics);
    }

    // ---- unseeded-rng ----

    #[test]
    fn unseeded_rng_flagged() {
        let r = lint_str(
            "crates/workload/src/x.rs",
            "fn f() { let mut r = rand::rng(); }\n",
        );
        assert_eq!(r.diagnostics.len(), 1);
        assert_eq!(r.diagnostics[0].rule, "unseeded-rng");
    }

    #[test]
    fn seeded_rng_is_clean() {
        let r = lint_str(
            "crates/workload/src/x.rs",
            "fn f(seed: u64) { let mut r = StdRng::seed_from_u64(seed); }\n",
        );
        assert!(r.is_clean());
    }

    // ---- std-sync-lock ----

    #[test]
    fn std_mutex_flagged() {
        let r = lint_str(
            "crates/core/src/x.rs",
            "use std::sync::Mutex;\nstatic M: std::sync::RwLock<u32> = std::sync::RwLock::new(0);\n",
        );
        assert_eq!(r.diagnostics.len(), 2);
        assert!(r.diagnostics.iter().all(|d| d.rule == "std-sync-lock"));
    }

    #[test]
    fn parking_lot_is_clean() {
        let r = lint_str("crates/core/src/x.rs", "use parking_lot::Mutex;\n");
        assert!(r.is_clean());
    }

    // ---- pushdown-no-panic ----

    #[test]
    fn panic_constructs_flagged_in_pushdown_module() {
        let src = "fn f() { panic!(\"no\"); }\nfn g(x: u8) { assert_eq!(x, 1); }\nfn h() { unreachable!() }\n";
        let r = lint_str("crates/pagestore/src/pushdown.rs", src);
        let rules: Vec<_> = r
            .diagnostics
            .iter()
            .filter(|d| d.rule == "pushdown-no-panic")
            .collect();
        assert_eq!(rules.len(), 3, "{:?}", r.diagnostics);
    }

    #[test]
    fn panic_rule_is_scoped_to_the_pushdown_module() {
        let src = "fn f() { panic!(\"fine elsewhere\"); }\n";
        let r = lint_str("crates/pagestore/src/server.rs", src);
        assert!(
            r.diagnostics.iter().all(|d| d.rule != "pushdown-no-panic"),
            "{:?}",
            r.diagnostics
        );
        let sub = lint_str("crates/pagestore/src/pushdown/exec.rs", src);
        assert!(sub
            .diagnostics
            .iter()
            .any(|d| d.rule == "pushdown-no-panic"));
    }

    #[test]
    fn debug_assert_and_tests_are_exempt_in_pushdown_module() {
        let src = "fn f(x: u8) { debug_assert!(x < 8); debug_assert_eq!(x, x); }\n\
                   #[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { assert!(true); }\n}\n";
        let r = lint_str("crates/pagestore/src/pushdown.rs", src);
        assert!(
            r.diagnostics.iter().all(|d| d.rule != "pushdown-no-panic"),
            "{:?}",
            r.diagnostics
        );
    }

    // ---- allow escape hatch ----

    #[test]
    fn allow_comment_suppresses_same_line() {
        let src = "fn f() { Instant::now(); } // taurus-lint: allow(direct-clock) -- origin\n";
        let r = lint_str("crates/common/src/x.rs", src);
        assert!(r.is_clean(), "{:?}", r.diagnostics);
        assert_eq!(r.suppressed, 1);
    }

    #[test]
    fn allow_comment_suppresses_next_line() {
        let src =
            "// taurus-lint: allow(unwrap-in-hot-path) -- fixture\nfn f() { g().unwrap(); }\n";
        let r = lint_str("crates/engine/src/x.rs", src);
        assert!(r.is_clean(), "{:?}", r.diagnostics);
        assert_eq!(r.suppressed, 1);
    }

    #[test]
    fn allow_comment_only_suppresses_named_rule() {
        let src = "fn f() { Instant::now(); g().unwrap(); } // taurus-lint: allow(direct-clock) -- fixture\n";
        let r = lint_str("crates/core/src/x.rs", src);
        assert_eq!(r.diagnostics.len(), 1);
        assert_eq!(r.diagnostics[0].rule, "unwrap-in-hot-path");
        assert_eq!(r.suppressed, 1);
    }

    #[test]
    fn allow_without_reason_is_reported() {
        let src = "fn f() { Instant::now(); } // taurus-lint: allow(direct-clock)\n";
        let r = lint_str("crates/common/src/x.rs", src);
        // The finding is still suppressed, but the bare allow is reported.
        assert_eq!(r.suppressed, 1);
        assert_eq!(r.diagnostics.len(), 1);
        assert_eq!(r.diagnostics[0].rule, "unjustified-allow");
        assert_eq!(r.diagnostics[0].line, 1);
    }

    #[test]
    fn allow_marker_in_string_literal_is_not_an_allow_comment() {
        let src = "fn f() { let s = \"taurus-lint: allow(direct-clock)\"; }\n";
        let r = lint_str("crates/common/src/x.rs", src);
        assert!(r.is_clean(), "{:?}", r.diagnostics);
    }

    #[test]
    fn allow_with_empty_reason_is_reported() {
        let src = "fn f() { Instant::now(); } // taurus-lint: allow(direct-clock) -- \n";
        let r = lint_str("crates/common/src/x.rs", src);
        assert_eq!(r.diagnostics.len(), 1);
        assert_eq!(r.diagnostics[0].rule, "unjustified-allow");
    }

    // ---- preprocessing corner cases ----

    #[test]
    fn raw_strings_and_lifetimes_do_not_confuse_the_scanner() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x }\nconst P: &str = r#\"Instant::now()\"#;\nfn g() { let c = 'x'; let nl = '\\n'; }\n";
        let r = lint_str("crates/common/src/x.rs", src);
        assert!(r.is_clean(), "{:?}", r.diagnostics);
    }

    #[test]
    fn nested_block_comments_are_stripped() {
        let src = "/* outer /* inner Instant::now() */ still comment */\nfn f() {}\n";
        let r = lint_str("crates/common/src/x.rs", src);
        assert!(r.is_clean(), "{:?}", r.diagnostics);
    }

    #[test]
    fn line_numbers_survive_stripping() {
        let src = "// comment\n\nfn f() {\n    thread_rng();\n}\n";
        let r = lint_str("crates/common/src/x.rs", src);
        assert_eq!(r.diagnostics.len(), 1);
        assert_eq!(r.diagnostics[0].line, 4);
    }

    // ---- report plumbing ----

    #[test]
    fn json_summary_is_well_formed_and_counts_match() {
        let src = "fn f() { Instant::now(); }\n";
        let r = lint_str("crates/common/src/x.rs", src);
        let json = r.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"violations\":1"));
        assert!(json.contains("\"direct-clock\":1"));
        assert!(json.contains("\"files_scanned\":1"));
    }

    #[test]
    fn by_rule_includes_zero_rules() {
        let r = lint_str("crates/common/src/x.rs", "fn f() {}\n");
        let by = r.by_rule();
        assert_eq!(by.len(), RULE_NAMES.len());
        assert!(by.values().all(|&n| n == 0));
    }
}
