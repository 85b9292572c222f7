//! Golden-fixture tests: each tree under `tests/fixtures/` pins one
//! rule's positive and negative behaviour, and the last test
//! self-checks the real workspace — the same invocation CI gates on.

use std::path::Path;

use phylint::{run, Finding, Report, RuleId};

fn fixture(name: &str) -> Report {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    run(&root).expect("fixture tree readable")
}

/// 1-based line of the first fixture-source line containing `needle`,
/// so the tests assert real spans without hardcoding line numbers.
fn line_of(name: &str, file: &str, needle: &str) -> u32 {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
        .join(file);
    let src = std::fs::read_to_string(&path).expect("fixture source readable");
    for (idx, line) in src.lines().enumerate() {
        if line.contains(needle) {
            return (idx + 1) as u32;
        }
    }
    panic!("{needle:?} not found in {}", path.display());
}

fn rule_findings(report: &Report, rule: RuleId) -> Vec<(String, u32, String)> {
    report
        .findings
        .iter()
        .filter(|f| f.rule == rule)
        .map(|f| (f.path.display().to_string(), f.line, f.msg.clone()))
        .collect()
}

/// Full findings (including proving call paths) for one rule.
fn full_findings(report: &Report, rule: RuleId) -> Vec<&Finding> {
    report.findings.iter().filter(|f| f.rule == rule).collect()
}

#[test]
fn clean_fixture_is_clean() {
    let report = fixture("clean");
    assert!(
        report.is_clean(),
        "clean fixture must produce no findings, got:\n{}",
        report
            .findings
            .iter()
            .map(|f| format!("  {f}\n"))
            .collect::<String>()
    );
    assert_eq!(report.files_scanned, 2, "lib.rs + no_index.rs");
    assert_eq!(
        report.suppressions_used, 1,
        "the one trailing allow(panic_path) must count as used"
    );
}

#[test]
fn panic_path_fixture_finds_every_construct_with_spans() {
    let report = fixture("panic_path");
    let found = rule_findings(&report, RuleId::PanicPath);
    assert_eq!(found.len(), 4, "unwrap, expect, panic!, todo!: {found:?}");
    for (path, _, _) in &found {
        assert_eq!(path, "src/lib.rs", "tests/itest.rs must never be flagged");
    }
    for needle in ["v.unwrap()", "v.expect(\"boom\")", "panic!(\"bad\")", "todo!()"] {
        let want = line_of("panic_path", "src/lib.rs", needle);
        assert!(
            found.iter().any(|(_, line, _)| *line == want),
            "no finding at line {want} ({needle}): {found:?}"
        );
    }
    assert_eq!(report.findings.len(), 4, "only panic_path fires here");
}

#[test]
fn alloc_hot_fixture_flags_only_the_hot_region() {
    let report = fixture("alloc_hot");
    let found = rule_findings(&report, RuleId::HotTransitive);
    assert_eq!(found.len(), 6, "{found:?}");
    assert_eq!(report.findings.len(), 6, "only hot_transitive fires here");
    let region_start = line_of("alloc_hot", "src/lib.rs", "phylint: hot");
    for (_, line, _) in &found {
        assert!(
            *line > region_start,
            "finding at line {line} is outside the hot region (cold code flagged)"
        );
    }
    for what in [
        "Vec::new",
        "format!",
        ".to_string()",
        ".to_vec()",
        "Box::new",
        ".collect()",
    ] {
        assert!(
            found.iter().any(|(_, _, msg)| msg.starts_with(&format!("{what} inside"))),
            "no in-region finding names {what}: {found:?}"
        );
    }
}

#[test]
fn unsafe_fixture_requires_safety_comments() {
    let report = fixture("unsafe_safety");
    let found = rule_findings(&report, RuleId::UnsafeSafety);
    assert_eq!(found.len(), 2, "both unsafe tokens in `bare`: {found:?}");
    let bare_fn = line_of("unsafe_safety", "src/lib.rs", "pub unsafe fn bare");
    assert!(found.iter().all(|(_, line, _)| *line >= bare_fn));
}

#[test]
fn marker_fixture_flags_stale_and_malformed_markers() {
    let report = fixture("unused_allow");
    let found = rule_findings(&report, RuleId::Marker);
    assert_eq!(found.len(), 6, "{found:?}");
    assert_eq!(report.findings.len(), 6, "only marker fires here");
    let lib = |needle: &str| line_of("unused_allow", "src/lib.rs", needle);
    let at = |line: u32, what: &str| {
        assert!(
            found
                .iter()
                .any(|(path, l, m)| path == "src/lib.rs" && *l == line && m.contains(what)),
            "no {what:?} finding at line {line}: {found:?}"
        );
    };
    at(lib("this is stale"), "unused suppression");
    at(lib("phylint: frobnicate"), "unrecognised phylint marker");
    at(lib("pub fn third") - 1, "justification");
    // The retired `alloc_hot` rule is an unknown name, justified or not.
    at(lib("allow(alloc_hot)"), "unknown rule in suppression");
    // The retired `datapath` marker is just another unknown directive.
    at(lib("phylint: datapath"), "unrecognised phylint marker");
    // A hot region the allocation model cannot see is an error, not a
    // silent no-op, and its allocation is not reported.
    let test_hot = line_of("unused_allow", "tests/it.rs", "phylint: hot");
    assert!(
        found.iter().any(|(path, l, m)| path == "tests/it.rs"
            && *l == test_hot
            && m.contains("outside crate source")),
        "{found:?}"
    );
}

#[test]
fn wire_fixture_catches_control_length_drift() {
    let report = fixture("wire_bad");
    let found = rule_findings(&report, RuleId::WireFormat);
    assert_eq!(found.len(), 1, "{found:?}");
    assert_eq!(found[0].0, "crates/transport/src/lib.rs");
    assert_eq!(
        found[0].1,
        line_of("wire_bad", "crates/transport/src/lib.rs", "fixed 22 bytes")
    );
    assert!(found[0].2.contains("22"), "{}", found[0].2);
    assert!(found[0].2.contains("21"), "{}", found[0].2);
}

#[test]
fn hot_transitive_fixture_proves_the_smuggled_allocation() {
    let report = fixture("hot_transitive");
    assert_eq!(
        report.findings.len(),
        4,
        "exactly the four planted allocations, nothing else:\n{}",
        report
            .findings
            .iter()
            .map(|f| format!("  {f}\n"))
            .collect::<String>()
    );
    let found = full_findings(&report, RuleId::HotTransitive);
    assert_eq!(found.len(), 4);
    // `hot_inner` allocates inside a region and is reached from one;
    // `thread_local!` and the test module allocate outside any fn the
    // model keeps: one finding each, with no call path — the region
    // is its own proof.
    for (needle, what) in [
        ("vec![x; 2]", "vec! inside"),
        ("new(Vec::new())", "Vec::new inside"),
        ("format!(\"{}\", 12)", "format! inside"),
    ] {
        let line = line_of("hot_transitive", "src/lib.rs", needle);
        let here: Vec<_> = found.iter().filter(|f| f.line == line).collect();
        assert_eq!(here.len(), 1, "{found:?}");
        assert!(here[0].msg.starts_with(what), "{}", here[0].msg);
        assert!(here[0].call_path.is_empty(), "{:?}", here[0].call_path);
    }
    // The justified in-region allocation is honoured and counted.
    assert_eq!(report.suppressions_used, 1, "the in-region allow is used");
    let f = found
        .iter()
        .find(|f| !f.call_path.is_empty())
        .expect("the smuggled allocation");
    assert_eq!(f.path.display().to_string(), "src/lib.rs");
    assert_eq!(
        f.line,
        line_of("hot_transitive", "src/lib.rs", "Vec::with_capacity"),
        "the finding lands on the allocation site, not the hot region"
    );
    assert!(f.msg.contains("Vec::with_capacity"), "{}", f.msg);
    assert!(f.msg.contains("leaf_alloc"), "{}", f.msg);
    // The proving call path walks hot region -> middle -> leaf.
    assert_eq!(f.call_path.len(), 3, "{:?}", f.call_path);
    assert!(f.call_path[0].contains("hot_entry"), "{:?}", f.call_path);
    let call_site = line_of("hot_transitive", "src/lib.rs", "middle(4)");
    assert!(
        f.call_path[0].contains(&format!("src/lib.rs:{call_site}")),
        "first hop pins the in-region call site: {:?}",
        f.call_path
    );
    assert!(f.call_path[1].contains("middle"), "{:?}", f.call_path);
    assert!(f.call_path[2].contains("leaf_alloc"), "{:?}", f.call_path);
}

#[test]
fn simd_guard_fixture_flags_decl_and_unguarded_call() {
    let report = fixture("simd_guard");
    let found = full_findings(&report, RuleId::SimdGuard);
    assert_eq!(report.findings.len(), 3, "only simd_guard fires here");
    assert_eq!(found.len(), 3, "{found:?}");
    let decl = found
        .iter()
        .find(|f| f.msg.contains("not declared"))
        .expect("missing-unsafe declaration finding");
    assert_eq!(
        decl.line,
        line_of("simd_guard", "src/lib.rs", "pub fn sneaky_kernel")
    );
    assert!(decl.msg.contains("sneaky_kernel"), "{}", decl.msg);
    // The tier-guarded `dispatch` stays silent; a call guarded by
    // nothing and one guarded only by the caller's own CPU probe are
    // both flagged.
    for (caller, needle) in [
        ("unguarded", "unsafe { kernel(xs) };"),
        ("self_probing", "unsafe { kernel(&mut xs[1..]) };"),
    ] {
        let call = found
            .iter()
            .find(|f| f.call_path.first().is_some_and(|hop| hop.contains(caller)))
            .unwrap_or_else(|| panic!("no call-site finding in `{caller}`: {found:?}"));
        assert_eq!(call.line, line_of("simd_guard", "src/lib.rs", needle));
        assert!(call.msg.contains("CPU tier"), "{}", call.msg);
        assert_eq!(call.call_path.len(), 2, "{:?}", call.call_path);
        assert!(call.call_path[1].contains("kernel"), "{:?}", call.call_path);
    }
}

#[test]
fn error_surface_fixture_flags_stringly_apis_and_matchable_enums() {
    let report = fixture("error_surface");
    let found = rule_findings(&report, RuleId::ErrorSurface);
    assert_eq!(report.findings.len(), 4, "only error_surface fires here");
    assert_eq!(found.len(), 4, "{found:?}");
    for (needle, msg_part) in [
        ("pub enum FixtureError", "non_exhaustive"),
        ("pub fn stringly", "String"),
        ("pub fn boxed", "Box<dyn std::error::Error>"),
        ("pub fn str_ref", "str"),
    ] {
        let want = line_of("error_surface", "src/lib.rs", needle);
        assert!(
            found
                .iter()
                .any(|(_, line, msg)| *line == want && msg.contains(msg_part)),
            "no finding at line {want} mentioning {msg_part:?}: {found:?}"
        );
    }
    // `typed`, `uses_private`, `private_stringly`, and `GoodError`
    // are all negative cases — the count of 4 proves they stayed silent.
}

#[test]
fn test_only_api_fixture_flags_api_no_product_root_reaches() {
    let report = fixture("test_only_api");
    let found = full_findings(&report, RuleId::TestOnlyApi);
    assert_eq!(found.len(), 6, "{found:?}");
    for (needle, name) in [
        ("pub fn only_from_tests", "`only_from_tests`"),
        ("pub fn only_from_doctest", "`only_from_doctest`"),
        ("pub fn dead_head", "`dead_head`"),
        ("pub fn dead_tail", "`dead_tail`"),
        ("pub struct OnlyItsOwnImpl", "`OnlyItsOwnImpl`"),
        ("pub fn badly_justified", "`badly_justified`"),
    ] {
        let want = line_of("test_only_api", "src/lib.rs", needle);
        assert!(
            found.iter().any(|f| f.path.display().to_string() == "src/lib.rs"
                && f.line == want
                && f.msg.contains(name)
                && f.call_path.is_empty()),
            "no finding at the definition of {name} (line {want}): {found:?}"
        );
    }
    // `live` has an example caller; `tests/it.rs`, the doc-test and
    // the unit test are not roots (the count of 6 proves the rest).
    // A suppression with none of the three accepted reasons is a
    // marker error and suppresses nothing.
    let markers = rule_findings(&report, RuleId::Marker);
    assert_eq!(markers.len(), 1, "{markers:?}");
    assert_eq!(
        markers[0].1,
        line_of("test_only_api", "src/lib.rs", "kept for later")
    );
    assert!(markers[0].2.contains("test support: <test path>"), "{}", markers[0].2);
    assert_eq!(report.findings.len(), 7, "only test_only_api and its marker fire");
}

#[test]
fn test_only_api_clean_fixture_keeps_every_product_root() {
    let report = fixture("test_only_api_clean");
    assert!(
        report.is_clean(),
        "example, bench and perfbench callers, a fn pointer, a trait impl \
         and a live struct's field all count as product use:\n{}",
        report
            .findings
            .iter()
            .map(|f| format!("  {f}\n"))
            .collect::<String>()
    );
    assert_eq!(report.files_scanned, 4, "lib, example, bench, perfbench");
    assert_eq!(report.suppressions_used, 1, "the oracle suppression is used");
}

#[test]
fn binary_exit_codes_gate_ci() {
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let status = |name: &str| {
        std::process::Command::new(env!("CARGO_BIN_EXE_phylint"))
            .args(["--root"])
            .arg(fixtures.join(name))
            .output()
            .expect("phylint binary runs")
    };
    let clean = status("clean");
    assert_eq!(clean.status.code(), Some(0), "clean tree exits 0");
    let dirty = status("panic_path");
    assert_eq!(dirty.status.code(), Some(1), "findings exit 1");
    let stdout = String::from_utf8_lossy(&dirty.stdout);
    assert!(
        stdout.contains("src/lib.rs:") && stdout.contains("[panic_path]"),
        "diagnostics carry file:line spans and the rule name:\n{stdout}"
    );
    for rule in phylint::ALL_RULES {
        let want = if rule == RuleId::PanicPath { 4 } else { 0 };
        let line = format!("phylint: {:<15} {want} finding(s)", format!("{rule}:"));
        assert!(stdout.contains(&line), "count block carries {line:?}:\n{stdout}");
    }
    assert!(stdout.contains("phylint: scanned 2 files, 0 suppression(s) in use"), "{stdout}");
}

#[test]
fn workspace_self_check_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves");
    let report = run(&root).expect("workspace scan succeeds");
    assert!(
        report.is_clean(),
        "the workspace must pass its own lint, got:\n{}",
        report
            .findings
            .iter()
            .map(|f| format!("  {f}\n"))
            .collect::<String>()
    );
    assert!(report.files_scanned > 100, "walker saw the whole workspace");
}
