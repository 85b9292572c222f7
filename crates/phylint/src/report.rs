//! Rule identifiers, findings, and the report.

use std::fmt;
use std::path::PathBuf;

/// The rule a finding belongs to. Every rule can be suppressed in
/// place with `// phylint: allow(<rule>) -- <reason>` except
/// [`RuleId::Marker`], which polices the marker comments themselves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// Allocation inside a `// phylint: hot` region, or in a function
    /// reachable from a call made in one via the workspace call graph.
    HotTransitive,
    /// `unsafe` without an immediately preceding `// SAFETY:` comment.
    UnsafeSafety,
    /// `#[target_feature]` soundness: such fns must be `unsafe`, and
    /// their call sites must sit in runtime-feature-guarded (or
    /// equally gated) dispatch functions.
    SimdGuard,
    /// Public `Result` APIs with stringly error payloads, or public
    /// error enums missing `#[non_exhaustive]`.
    ErrorSurface,
    /// Public items that no product root (example, bench, perfbench)
    /// reaches: API that only tests call.
    TestOnlyApi,
    /// Malformed/unused phylint markers and suppressions.
    Marker,
}

/// All rules, in report order.
pub const ALL_RULES: [RuleId; 6] = [
    RuleId::HotTransitive,
    RuleId::UnsafeSafety,
    RuleId::SimdGuard,
    RuleId::ErrorSurface,
    RuleId::TestOnlyApi,
    RuleId::Marker,
];

impl RuleId {
    /// Stable machine name, as used in `allow(...)` suppressions.
    pub fn name(self) -> &'static str {
        match self {
            RuleId::HotTransitive => "hot_transitive",
            RuleId::UnsafeSafety => "unsafe_safety",
            RuleId::SimdGuard => "simd_guard",
            RuleId::ErrorSurface => "error_surface",
            RuleId::TestOnlyApi => "test_only_api",
            RuleId::Marker => "marker",
        }
    }

    /// Parse a rule name as written in an `allow(...)` suppression.
    pub fn parse(name: &str) -> Option<RuleId> {
        ALL_RULES.iter().copied().find(|r| r.name() == name)
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One diagnostic: a rule violation at a source location.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Violated rule.
    pub rule: RuleId,
    /// Path relative to the scanned root.
    pub path: PathBuf,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description.
    pub msg: String,
    /// For semantic (call-graph) rules: the chain of functions that
    /// proves reachability, root first. Empty for per-file findings.
    pub call_path: Vec<String>,
}

impl Finding {
    /// A per-file finding with no call path.
    pub fn new(rule: RuleId, path: PathBuf, line: u32, msg: String) -> Finding {
        Finding {
            rule,
            path,
            line,
            msg,
            call_path: Vec::new(),
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path.display(),
            self.line,
            self.rule,
            self.msg
        )?;
        if !self.call_path.is_empty() {
            write!(f, "\n    call path: {}", self.call_path.join("\n            -> "))?;
        }
        Ok(())
    }
}

/// Full result of a phylint run.
#[derive(Debug, Default)]
pub struct Report {
    /// Every finding, in file/line order.
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Number of suppressions honoured (matched at least one would-be
    /// finding).
    pub suppressions_used: usize,
}

impl Report {
    /// Findings per rule, in [`ALL_RULES`] order.
    pub fn counts(&self) -> [(RuleId, usize); ALL_RULES.len()] {
        let mut out = ALL_RULES.map(|r| (r, 0usize));
        for f in &self.findings {
            for slot in &mut out {
                if slot.0 == f.rule {
                    slot.1 += 1;
                }
            }
        }
        out
    }

    /// True when the run found nothing.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Sort findings by path then line then rule for stable output.
    pub fn sort(&mut self) {
        self.findings
            .sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    }
}
