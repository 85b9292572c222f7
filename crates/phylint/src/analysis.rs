//! Per-file analysis context: lexes a file and extracts the phylint
//! marker comments (`hot` regions, suppressions), plus the
//! `#[cfg(test)]` item spans — the one test-code detector, read by the
//! item model and the test-only-API audit alike.

use std::cell::Cell;
use std::path::PathBuf;

use crate::lexer::{self, Comment, Lexed, TokKind, Token};
use crate::report::{Finding, RuleId};

/// Which kind of target a source file belongs to. Rules use this to
/// scope themselves: only crate source proper enters the item model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// `src/` of some crate: datapath code, all rules apply.
    CrateSrc,
    /// Integration tests (`tests/`).
    Test,
    /// Benchmarks (`benches/`).
    Bench,
    /// Examples (`examples/`).
    Example,
}

/// An in-place suppression:
/// `// phylint: allow(<rule>) -- <reason>`.
#[derive(Debug)]
pub struct Suppression {
    /// Rule being suppressed.
    pub rule: RuleId,
    /// First covered line (the marker's own line).
    pub from_line: u32,
    /// Last covered line: the marker line itself for a trailing
    /// comment, or the next code line for a standalone comment.
    pub to_line: u32,
    /// Line the marker comment sits on (for diagnostics).
    pub decl_line: u32,
    /// Set when the suppression absorbed at least one finding.
    pub used: Cell<bool>,
}

/// A fully lexed and marker-parsed source file, ready for the rules.
#[derive(Debug)]
pub struct FileAnalysis {
    /// Path relative to the scanned root.
    pub path: PathBuf,
    /// File contents.
    pub src: String,
    /// Token/comment streams.
    pub lexed: Lexed,
    /// Target kind (crate source, test, bench, example).
    pub kind: FileKind,
    /// Byte spans of `#[cfg(test)]` items (test modules/functions
    /// inside crate source).
    pub test_spans: Vec<(usize, usize)>,
    /// Inclusive line ranges bracketed by `// phylint: hot` …
    /// `// phylint: end-hot`.
    pub hot_regions: Vec<(u32, u32)>,
    /// In-place suppressions found in the file.
    pub suppressions: Vec<Suppression>,
    /// Marker-syntax findings produced while parsing (malformed
    /// markers, unterminated hot regions).
    pub marker_findings: Vec<Finding>,
}

impl FileAnalysis {
    /// Lex and parse markers for one file.
    pub fn new(path: PathBuf, src: String, kind: FileKind) -> FileAnalysis {
        let lexed = lexer::lex(&src);
        let mut fa = FileAnalysis {
            path,
            src,
            lexed,
            kind,
            test_spans: Vec::new(),
            hot_regions: Vec::new(),
            suppressions: Vec::new(),
            marker_findings: Vec::new(),
        };
        fa.parse_markers();
        fa.find_test_spans();
        fa
    }

    /// True when `line` falls inside a `phylint: hot` region.
    pub fn in_hot_region(&self, line: u32) -> bool {
        self.hot_regions
            .iter()
            .any(|&(from, to)| (from..=to).contains(&line))
    }

    /// True when the byte offset falls inside a `#[cfg(test)]` item.
    pub fn in_test_span(&self, offset: usize) -> bool {
        self.test_spans
            .iter()
            .any(|&(from, to)| (from..to).contains(&offset))
    }

    /// Record a finding at `line` unless a suppression covers it; a
    /// matching suppression is marked used either way.
    pub fn push_finding(
        &self,
        out: &mut Vec<Finding>,
        rule: RuleId,
        line: u32,
        msg: String,
    ) {
        self.push_finding_with_path(out, rule, line, msg, Vec::new());
    }

    /// Like [`push_finding`](Self::push_finding) but attaches the call
    /// path that proves a semantic finding. Suppressions at the
    /// *landing* line (where the finding is reported) absorb semantic
    /// findings, same as token findings.
    pub fn push_finding_with_path(
        &self,
        out: &mut Vec<Finding>,
        rule: RuleId,
        line: u32,
        msg: String,
        call_path: Vec<String>,
    ) {
        for s in &self.suppressions {
            if s.rule == rule && (s.from_line..=s.to_line).contains(&line) {
                s.used.set(true);
                return;
            }
        }
        out.push(Finding {
            rule,
            path: self.path.clone(),
            line,
            msg,
            call_path,
        });
    }

    /// Findings for suppressions that never matched anything: a stale
    /// `allow` is itself an error, so suppressions cannot rot.
    pub fn unused_suppression_findings(&self, out: &mut Vec<Finding>) {
        for s in &self.suppressions {
            if !s.used.get() {
                out.push(Finding::new(
                    RuleId::Marker,
                    self.path.clone(),
                    s.decl_line,
                    format!(
                        "unused suppression: allow({}) matched no finding — remove it",
                        s.rule.name()
                    ),
                ));
            }
        }
    }

    /// Parse every `phylint:` marker comment in the file.
    fn parse_markers(&mut self) {
        let mut open_hot: Option<u32> = None;
        let mut findings = Vec::new();
        let mut regions = Vec::new();
        let mut suppressions = Vec::new();

        for c in &self.lexed.comments {
            let text = lexer::comment_text(&self.src, c);
            let Some(idx) = text.find("phylint:") else {
                continue;
            };
            // Only honour markers in plain comments, near the comment
            // opener — `phylint:` deep inside prose is not a marker.
            let directive = text[idx + "phylint:".len()..].trim();
            let head = text[..idx].trim_start_matches('/').trim();
            if !head.is_empty() {
                continue;
            }
            match parse_directive(directive) {
                Directive::Hot => {
                    if self.kind != FileKind::CrateSrc {
                        findings.push(self.marker_finding(
                            c.line,
                            "`phylint: hot` outside crate source — the allocation \
                             model covers `src/` only, so this region checks nothing"
                                .to_string(),
                        ));
                    }
                    if open_hot.is_some() {
                        findings.push(self.marker_finding(
                            c.line,
                            "nested `phylint: hot` — close the previous region with \
                             `phylint: end-hot` first"
                                .to_string(),
                        ));
                    } else {
                        open_hot = Some(c.line);
                    }
                }
                Directive::EndHot => match open_hot.take() {
                    Some(from) => regions.push((from, c.line)),
                    None => findings.push(self.marker_finding(
                        c.line,
                        "`phylint: end-hot` without a matching `phylint: hot`".to_string(),
                    )),
                },
                Directive::Allow { rule, reason } => match (rule, reason) {
                    (Some(RuleId::TestOnlyApi), Some(reason))
                        if !TEST_ONLY_REASONS.iter().any(|p| reason.starts_with(p)) =>
                    {
                        findings.push(self.marker_finding(
                            c.line,
                            "allow(test_only_api) takes one of three reasons: \
                             `paper §…` (or `paper Table …` / `paper Fig …`), \
                             `oracle: <test path>` or `test support: <test path>`"
                                .to_string(),
                        ));
                    }
                    (Some(rule), Some(_)) => {
                        let to_line = if c.own_line {
                            // Standalone comment: covers the next line.
                            self.next_code_line(c).unwrap_or(c.end_line)
                        } else {
                            // Trailing comment: covers its own line.
                            c.line
                        };
                        suppressions.push(Suppression {
                            rule,
                            from_line: c.line,
                            to_line,
                            decl_line: c.line,
                            used: Cell::new(false),
                        });
                    }
                    (None, _) => findings.push(self.marker_finding(
                        c.line,
                        format!("unknown rule in suppression: `{directive}`"),
                    )),
                    (Some(_), None) => findings.push(self.marker_finding(
                        c.line,
                        "suppression without a justification — write \
                         `phylint: allow(<rule>) -- <reason>`"
                            .to_string(),
                    )),
                },
                Directive::Unknown => findings.push(self.marker_finding(
                    c.line,
                    format!("unrecognised phylint marker: `{directive}`"),
                )),
            }
        }

        if let Some(from) = open_hot {
            findings.push(self.marker_finding(
                from,
                "`phylint: hot` region never closed — add `phylint: end-hot`".to_string(),
            ));
            // Treat the unterminated region as running to EOF so
            // hot_transitive still applies while the author fixes it.
            regions.push((from, u32::MAX));
        }

        self.hot_regions = regions;
        self.suppressions = suppressions;
        self.marker_findings = findings;
    }

    fn marker_finding(&self, line: u32, msg: String) -> Finding {
        Finding::new(RuleId::Marker, self.path.clone(), line, msg)
    }

    /// First line after comment `c` that holds a token (the line a
    /// standalone suppression comment applies to). Intervening
    /// comment-only lines are skipped so a suppression may sit above
    /// a doc comment.
    fn next_code_line(&self, c: &Comment) -> Option<u32> {
        self.lexed
            .tokens
            .iter()
            .map(|t| t.line)
            .find(|&l| l > c.end_line)
    }

    /// Locate `#[cfg(test)]` attributes and span the item that
    /// follows each (a `mod … { … }` block, a function, or a
    /// semicolon-terminated item), so the rules can ignore unit tests
    /// embedded in crate source.
    fn find_test_spans(&mut self) {
        let toks = &self.lexed.tokens;
        let mut spans = Vec::new();
        let mut i = 0usize;
        while i < toks.len() {
            if let Some(after_attr) = match_cfg_test(&self.src, toks, i) {
                let start = toks[i].start;
                let end = item_end(&self.src, toks, after_attr);
                spans.push((start, end));
                // Continue scanning after the item: nested cfg(test)
                // inside is already covered.
                i = after_attr;
                while i < toks.len() && toks[i].start < end {
                    i += 1;
                }
                continue;
            }
            i += 1;
        }
        self.test_spans = spans;
    }
}

/// A parsed `phylint:` directive.
enum Directive<'a> {
    Hot,
    EndHot,
    Allow {
        rule: Option<RuleId>,
        /// The non-empty justification after `--`, if any.
        reason: Option<&'a str>,
    },
    Unknown,
}

/// Accepted prefixes of an `allow(test_only_api)` justification: a
/// hardware model reproducing a paper figure, a reference a test
/// compares against, or a knob a test needs to drive live code.
const TEST_ONLY_REASONS: [&str; 5] =
    ["paper §", "paper Table", "paper Fig", "oracle: ", "test support: "];

fn parse_directive(directive: &str) -> Directive<'_> {
    // Normalise a possible block-comment tail (`… */`).
    let directive = directive.trim_end_matches("*/").trim();
    match directive {
        "hot" => return Directive::Hot,
        "end-hot" => return Directive::EndHot,
        _ => {}
    }
    if let Some(rest) = directive.strip_prefix("allow(") {
        let Some((name, tail)) = rest.split_once(')') else {
            return Directive::Allow {
                rule: None,
                reason: None,
            };
        };
        let rule = RuleId::parse(name.trim());
        let reason = tail
            .trim_start()
            .strip_prefix("--")
            .map(str::trim)
            .filter(|r| !r.is_empty());
        return Directive::Allow { rule, reason };
    }
    Directive::Unknown
}

/// If tokens at `i` spell `#[cfg(test)]` (optionally
/// `#[cfg(all(test, …))]` etc. — any cfg attribute whose argument
/// list contains the bare ident `test`), return the index of the
/// first token after the closing `]`.
fn match_cfg_test(src: &str, toks: &[Token], i: usize) -> Option<usize> {
    if tok_text(src, toks, i)? != "#" {
        return None;
    }
    if tok_text(src, toks, i + 1)? != "[" {
        return None;
    }
    if tok_text(src, toks, i + 2)? != "cfg" {
        return None;
    }
    if tok_text(src, toks, i + 3)? != "(" {
        return None;
    }
    // Scan the attribute body up to the matching `]`, looking for a
    // bare `test` ident. A `test` inside `not(…)` gates *non*-test
    // code and must not count, so `not` groups are skipped whole.
    let mut depth = 1usize; // depth of `[`
    let mut saw_test = false;
    let mut j = i + 4;
    while j < toks.len() {
        let text = tok_text(src, toks, j)?;
        match text {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    return if saw_test { Some(j + 1) } else { None };
                }
            }
            "not" if toks[j].kind == TokKind::Ident
                && tok_text(src, toks, j + 1) == Some("(") =>
            {
                // Skip to the matching close paren of the not() group.
                let mut paren = 0usize;
                j += 1;
                while j < toks.len() {
                    match tok_text(src, toks, j)? {
                        "(" => paren += 1,
                        ")" => {
                            paren -= 1;
                            if paren == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
            }
            "test" if toks[j].kind == TokKind::Ident => saw_test = true,
            _ => {}
        }
        j += 1;
    }
    None
}

/// Byte offset just past the item starting at token `i`: the matching
/// close brace of its first `{ … }` block, or the first `;` outside
/// every bracket (a `;` inside `[u8; 4]` ends no item).
fn item_end(src: &str, toks: &[Token], i: usize) -> usize {
    let mut depth = 0usize;
    for t in toks.iter().skip(i) {
        if t.kind != TokKind::Punct {
            continue;
        }
        match src.get(t.start..t.end) {
            Some("{" | "[" | "(") => depth += 1,
            Some(close @ ("}" | "]" | ")")) => {
                depth = depth.saturating_sub(1);
                if depth == 0 && close == "}" {
                    return t.end;
                }
            }
            Some(";") if depth == 0 => return t.end,
            _ => {}
        }
    }
    toks.last().map(|t| t.end).unwrap_or(0)
}

fn tok_text<'a>(src: &'a str, toks: &[Token], i: usize) -> Option<&'a str> {
    let t = toks.get(i)?;
    src.get(t.start..t.end)
}
