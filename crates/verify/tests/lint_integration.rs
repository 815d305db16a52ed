//! End-to-end tests for `taurus-lint`: the library API and the binary must
//! flag a seeded violation fixture and pass the real workspace.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use taurus_verify::lint::{lint_workspace, RULE_NAMES};

/// The workspace this crate was built from (`crates/verify` → repo root).
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/verify has a grandparent")
        .to_path_buf()
}

/// Builds a disposable fake workspace under the system temp dir with one
/// `crates/logstore/src/lib.rs` holding `src`. Returns its root.
fn fixture(tag: &str, src: &str) -> PathBuf {
    let root =
        std::env::temp_dir().join(format!("taurus-lint-fixture-{}-{tag}", std::process::id()));
    let crate_src = root.join("crates/logstore/src");
    fs::create_dir_all(&crate_src).expect("create fixture dirs");
    fs::write(crate_src.join("lib.rs"), src).expect("write fixture source");
    root
}

const VIOLATING: &str = "\
pub fn hot(v: Option<u32>) -> u32 {
    let t = std::time::Instant::now();
    let _ = t;
    v.unwrap()
}
";

const CLEANED: &str = "\
pub fn hot(v: Option<u32>) -> Option<u32> {
    v
}

#[cfg(test)]
mod tests {
    #[test]
    fn unwrap_is_fine_in_tests() {
        assert_eq!(super::hot(Some(1)).unwrap(), 1);
    }
}
";

#[test]
fn lint_flags_the_seeded_violation_fixture() {
    let root = fixture("violating", VIOLATING);
    let report = lint_workspace(&root).expect("scan fixture");
    assert!(!report.is_clean());
    assert_eq!(report.files_scanned, 1);
    let rules: Vec<&str> = report.diagnostics.iter().map(|d| d.rule).collect();
    assert!(rules.contains(&"direct-clock"), "got {rules:?}");
    assert!(rules.contains(&"unwrap-in-hot-path"), "got {rules:?}");
    let clock = report
        .diagnostics
        .iter()
        .find(|d| d.rule == "direct-clock")
        .expect("direct-clock diagnostic");
    assert_eq!(clock.line, 2);
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn lint_passes_the_cleaned_fixture() {
    let root = fixture("cleaned", CLEANED);
    let report = lint_workspace(&root).expect("scan fixture");
    assert!(report.is_clean(), "unexpected: {:?}", report.diagnostics);
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn lint_binary_exit_codes_track_violations() {
    let bad = fixture("bin-violating", VIOLATING);
    let good = fixture("bin-cleaned", CLEANED);
    let lint = env!("CARGO_BIN_EXE_taurus-lint");

    let out = Command::new(lint)
        .args(["--root", bad.to_str().expect("utf8 path")])
        .output()
        .expect("run taurus-lint");
    assert_eq!(
        out.status.code(),
        Some(1),
        "stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("unwrap-in-hot-path"), "stdout: {stdout}");

    let out = Command::new(lint)
        .args(["--root", good.to_str().expect("utf8 path")])
        .output()
        .expect("run taurus-lint");
    assert_eq!(
        out.status.code(),
        Some(0),
        "stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );

    let _ = fs::remove_dir_all(&bad);
    let _ = fs::remove_dir_all(&good);
}

#[test]
fn lint_json_output_is_machine_readable() {
    let root = fixture("json", VIOLATING);
    let lint = env!("CARGO_BIN_EXE_taurus-lint");
    let out = Command::new(lint)
        .args(["--root", root.to_str().expect("utf8 path"), "--json"])
        .output()
        .expect("run taurus-lint --json");
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for rule in RULE_NAMES {
        assert!(stdout.contains(rule), "missing rule {rule} in {stdout}");
    }
    assert!(stdout.trim_start().starts_with('{'), "not JSON: {stdout}");
    let _ = fs::remove_dir_all(&root);
}

/// The real workspace must stay lint-clean: this is the acceptance gate CI
/// runs, expressed as a test so `cargo test` alone catches regressions.
#[test]
fn real_workspace_is_lint_clean() {
    let report = lint_workspace(&repo_root()).expect("scan workspace");
    let msgs: Vec<String> = report.diagnostics.iter().map(|d| d.to_string()).collect();
    assert!(
        report.is_clean(),
        "workspace lint violations:\n{}",
        msgs.join("\n")
    );
    assert!(
        report.files_scanned > 30,
        "scanned {} files",
        report.files_scanned
    );
}

/// The shared read planner's routing lock is a leaf: the analysis must see
/// the class, and no acquisition may happen while it is held (which also
/// rules out holding it across a fabric call — those are reported as
/// `lock-across-fabric-call` and fail `real_workspace_is_lint_clean`).
#[test]
fn slice_reader_routing_lock_is_a_leaf() {
    let analysis = taurus_verify::analyze_workspace(&repo_root()).expect("scan workspace");
    let routing = "core::slice_reader::routing";
    assert!(
        analysis.classes.iter().any(|c| c == routing),
        "lock class {routing} not discovered: {:?}",
        analysis.classes
    );
    let nested: Vec<_> = analysis
        .edges
        .iter()
        .filter(|(held, _, _)| held == routing)
        .collect();
    assert!(nested.is_empty(), "locks taken under {routing}: {nested:?}");
}

/// The slice writer's `pipes` and `parked` locks (the latter also guards
/// the repair drain's claim and re-run mark) sit below
/// `sal::state` and are leaves: the analysis must see each class, `state`
/// may be held while taking one (the flush path enqueues and sheds under
/// it), and nothing — not `state`, not one another — is ever acquired while
/// one is held. Holding one across a fabric call would be reported as
/// `lock-across-fabric-call` and fail `real_workspace_is_lint_clean`.
#[test]
fn slice_writer_locks_are_leaves_below_sal_state() {
    let analysis = taurus_verify::analyze_workspace(&repo_root()).expect("scan workspace");
    for field in ["pipes", "parked"] {
        let class = format!("core::slice_writer::{field}");
        assert!(
            analysis.classes.contains(&class),
            "lock class {class} not discovered: {:?}",
            analysis.classes
        );
        let nested: Vec<_> = analysis
            .edges
            .iter()
            .filter(|(held, _, _)| *held == class)
            .collect();
        assert!(nested.is_empty(), "locks taken under {class}: {nested:?}");
    }
    let under_state = |field: &str| {
        let class = format!("core::slice_writer::{field}");
        let edge = |(held, acquired, _): &(String, String, String)| {
            held == "core::sal::state" && *acquired == class
        };
        analysis.edges.iter().any(edge)
    };
    assert!(under_state("pipes") && under_state("parked"));
}
