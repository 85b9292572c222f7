//! The machine-readable leg: the schema-v3 JSON report must
//! round-trip through phylint's own parser/validator, both in-process
//! and through the binary `--format json` / `--out` paths CI uses.

use std::path::Path;

use phylint::json::{self, Value};
use phylint::{run, Finding, Report, RuleId};

fn fixture(name: &str) -> Report {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    run(&root).expect("fixture tree readable")
}

#[test]
fn report_round_trips_through_the_schema_validator() {
    let report = fixture("hot_transitive");
    assert_eq!(report.findings.len(), 1, "fixture precondition");
    assert!(!report.findings[0].call_path.is_empty(), "fixture precondition");
    let text = json::report_to_json(&report);
    let v = json::validate_schema(&text).expect("emitted JSON matches schema v3");

    assert_eq!(v.get("schema").and_then(Value::as_num), Some(3.0));
    assert_eq!(
        v.get("files_scanned").and_then(Value::as_num),
        Some(report.files_scanned as f64)
    );
    let counts = v.get("counts").expect("counts object");
    assert_eq!(
        counts.get("hot_transitive").and_then(Value::as_num),
        Some(1.0),
        "per-rule counts survive serialisation"
    );
    assert_eq!(
        counts.get("test_only_api").and_then(Value::as_num),
        Some(0.0),
        "a tree with no product root is not audited, but the key is present"
    );
    let findings = v.get("findings").and_then(Value::as_arr).expect("findings array");
    assert_eq!(findings.len(), report.findings.len());
    for (got, want) in findings.iter().zip(&report.findings) {
        assert_eq!(got.get("rule").and_then(Value::as_str), Some(want.rule.name()));
        assert_eq!(
            got.get("path").and_then(Value::as_str),
            Some(want.path.display().to_string().as_str())
        );
        assert_eq!(
            got.get("line").and_then(Value::as_num),
            Some(f64::from(want.line))
        );
        assert_eq!(got.get("msg").and_then(Value::as_str), Some(want.msg.as_str()));
        let cp = got.get("call_path").and_then(Value::as_arr).expect("call_path array");
        let cp: Vec<&str> = cp.iter().filter_map(Value::as_str).collect();
        let want_cp: Vec<&str> = want.call_path.iter().map(String::as_str).collect();
        assert_eq!(cp, want_cp, "proving call path survives the round trip");
    }
}

#[test]
fn findings_serialise_one_per_line_for_baseline_diffing() {
    let report = fixture("error_surface");
    let text = json::report_to_json(&report);
    let finding_lines: Vec<&str> = text
        .lines()
        .filter(|l| l.trim_start().starts_with("{\"rule\":"))
        .collect();
    assert_eq!(
        finding_lines.len(),
        report.findings.len(),
        "each finding on its own line so `diff` against a baseline works"
    );
    for line in finding_lines {
        json::parse(line.trim_end_matches(','))
            .expect("every finding line is standalone valid JSON");
    }
}

#[test]
fn escaping_survives_a_round_trip() {
    let mut f = Finding::new(
        RuleId::HotTransitive,
        Path::new("crates/x/src/lib.rs").into(),
        7,
        "quotes \" backslash \\ newline \n tab \t control \u{1} done".to_string(),
    );
    f.call_path = vec!["hot_entry (src/lib.rs:20)".to_string()];
    let line = json::finding_to_json(&f);
    assert!(!line.contains('\n'), "finding JSON stays on one line");
    let v = json::parse(&line).expect("parses");
    assert_eq!(v.get("msg").and_then(Value::as_str), Some(f.msg.as_str()));
    assert_eq!(
        v.get("call_path")
            .and_then(Value::as_arr)
            .and_then(|a| a[0].as_str()),
        Some("hot_entry (src/lib.rs:20)")
    );
}

#[test]
fn parser_rejects_malformed_documents() {
    for bad in [
        "",
        "{",
        "{\"a\":}",
        "[1,2",
        "\"unterminated",
        "{\"a\":1} trailing",
    ] {
        assert!(json::parse(bad).is_err(), "accepted malformed {bad:?}");
    }
    assert!(
        json::validate_schema("{\"schema\":999}").is_err(),
        "wrong schema version must be rejected"
    );
    assert!(
        json::validate_schema("{\"schema\":3,\"files_scanned\":1}").is_err(),
        "missing required keys must be rejected"
    );
    // Schema 1 predates the `test_only_api` count; schema 2 still
    // carried the `lock_order` and `feature_gate` counts.
    for old in [1, 2] {
        let doc = format!(
            "{{\"schema\":{old},\"files_scanned\":1,\"suppressions_used\":0,\
             \"counts\":{{}},\"findings\":[]}}"
        );
        assert!(json::validate_schema(&doc).is_err(), "schema {old} is rejected");
    }
}

#[test]
fn binary_json_format_carries_findings_and_exit_code() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/simd_guard");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_phylint"))
        .args(["--root"])
        .arg(&root)
        .args(["--format", "json"])
        .output()
        .expect("phylint binary runs");
    assert_eq!(out.status.code(), Some(1), "findings still exit 1 in JSON mode");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 report");
    let v = json::validate_schema(&stdout).expect("binary output matches schema v3");
    let counts = v.get("counts").expect("counts");
    assert_eq!(counts.get("simd_guard").and_then(Value::as_num), Some(2.0));
    let findings = v.get("findings").and_then(Value::as_arr).expect("findings");
    assert_eq!(findings.len(), 2);
    assert!(
        findings.iter().any(|f| {
            f.get("call_path")
                .and_then(Value::as_arr)
                .is_some_and(|cp| !cp.is_empty())
        }),
        "the unguarded-call finding ships its proving call path"
    );
}

#[test]
fn binary_json_counts_test_only_api_findings() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/test_only_api");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_phylint"))
        .args(["--root"])
        .arg(&root)
        .args(["--format", "json"])
        .output()
        .expect("phylint binary runs");
    assert_eq!(out.status.code(), Some(1), "test-only API fails the gate");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 report");
    let v = json::validate_schema(&stdout).expect("binary output matches the schema");
    let counts = v.get("counts").expect("counts");
    assert_eq!(counts.get("test_only_api").and_then(Value::as_num), Some(6.0));
    assert_eq!(counts.get("marker").and_then(Value::as_num), Some(1.0));
    let findings = v.get("findings").and_then(Value::as_arr).expect("findings");
    assert!(
        findings
            .iter()
            .filter(|f| f.get("rule").and_then(Value::as_str) == Some("test_only_api"))
            .all(|f| f.get("path").and_then(Value::as_str) == Some("src/lib.rs")),
        "findings land on the definitions in src/lib.rs"
    );
}

#[test]
fn out_flag_archives_json_while_stdout_stays_human() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/clean");
    let out_path = std::env::temp_dir().join("phylint_json_output_test.json");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_phylint"))
        .args(["--root"])
        .arg(&root)
        .args(["--out"])
        .arg(&out_path)
        .output()
        .expect("phylint binary runs");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("phylint: summary {"),
        "stdout keeps the human report:\n{stdout}"
    );
    let archived = std::fs::read_to_string(&out_path).expect("--out wrote the file");
    let _ = std::fs::remove_file(&out_path);
    let v = json::validate_schema(&archived).expect("archived JSON matches schema v3");
    let findings = v.get("findings").and_then(Value::as_arr).expect("findings");
    assert!(findings.is_empty(), "clean tree archives an empty findings array");
}

/// The invocation CI gates on: the whole workspace, machine format.
#[test]
fn workspace_json_self_check_is_clean_and_valid() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_phylint"))
        .args(["--root"])
        .arg(&root)
        .args(["--format", "json"])
        .output()
        .expect("phylint binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 report");
    let v = json::validate_schema(&stdout).expect("workspace report matches schema v3");
    let findings = v.get("findings").and_then(Value::as_arr).expect("findings");
    assert!(
        findings.is_empty(),
        "the workspace must be finding-free:\n{stdout}"
    );
    assert_eq!(out.status.code(), Some(0), "clean workspace exits 0");
    let counts = v.get("counts").expect("counts");
    for rule in phylint::ALL_RULES {
        assert_eq!(
            counts.get(rule.name()).and_then(Value::as_num),
            Some(0.0),
            "rule {} must report zero findings",
            rule.name()
        );
    }
}
