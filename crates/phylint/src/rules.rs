//! The token-stream rules: panic-path audit, hot-region allocation
//! audit and `unsafe` hygiene. Each rule walks
//! the flat token stream of one [`FileAnalysis`] and reports findings
//! through the file's suppression filter.

use crate::analysis::{FileAnalysis, FileKind};
use crate::lexer::{comment_text, TokKind, Token};
use crate::report::{Finding, RuleId};

fn text<'a>(fa: &'a FileAnalysis, tok: &Token) -> &'a str {
    fa.src.get(tok.start..tok.end).unwrap_or("")
}

fn is(fa: &FileAnalysis, i: usize, what: &str) -> bool {
    fa.lexed
        .tokens
        .get(i)
        .is_some_and(|t| text(fa, t) == what)
}

/// Panic-path audit. In crate source (not tests/benches/examples, not
/// `#[cfg(test)]` items): no `.unwrap()`, `.expect(…)`, `panic!`,
/// `todo!`, `unimplemented!`.
pub fn panic_path(fa: &FileAnalysis, out: &mut Vec<Finding>) {
    if fa.kind != FileKind::CrateSrc {
        return;
    }
    for (i, tok) in fa.lexed.tokens.iter().enumerate() {
        if tok.kind != TokKind::Ident || fa.in_test_span(tok.start) {
            continue;
        }
        let name = text(fa, tok);
        match name {
            "unwrap" | "expect" => {
                let postfix = i > 0 && is(fa, i - 1, ".");
                let called = is(fa, i + 1, "(");
                if postfix && called {
                    fa.push_finding(
                        out,
                        RuleId::PanicPath,
                        tok.line,
                        format!(
                            ".{name}() in datapath code — return a typed error \
                             (PhyError) or justify with `phylint: allow(panic_path)`"
                        ),
                    );
                }
            }
            "panic" | "todo" | "unimplemented" if is(fa, i + 1, "!") => {
                fa.push_finding(
                    out,
                    RuleId::PanicPath,
                    tok.line,
                    format!("{name}! in datapath code — no panic paths"),
                );
            }
            _ => {}
        }
    }
}

/// Names that allocate, denied inside `// phylint: hot` regions.
/// The list is deliberately the one from the zero-allocation
/// steady-state contract: constructors that take heap memory on the
/// per-symbol / per-chunk path.
pub fn alloc_hot(fa: &FileAnalysis, out: &mut Vec<Finding>) {
    if fa.hot_regions.is_empty() {
        return;
    }
    let toks = &fa.lexed.tokens;
    let deny = |out: &mut Vec<Finding>, line: u32, what: &str| {
        fa.push_finding(
            out,
            RuleId::AllocHot,
            line,
            format!(
                "{what} inside a `phylint: hot` region — hot paths are \
                 zero-allocation; reuse workspace buffers"
            ),
        );
    };
    for (i, tok) in toks.iter().enumerate() {
        if !fa.in_hot_region(tok.line) || tok.kind != TokKind::Ident {
            continue;
        }
        let name = text(fa, tok);
        match name {
            "vec" | "format" if is(fa, i + 1, "!") => {
                deny(out, tok.line, &format!("{name}!"));
            }
            "Vec" | "Box"
                if is(fa, i + 1, ":")
                    && is(fa, i + 2, ":")
                    && toks
                        .get(i + 3)
                        .is_some_and(|t| matches!(text(fa, t), "new" | "with_capacity")) =>
            {
                let ctor = text(fa, &toks[i + 3]);
                deny(out, tok.line, &format!("{name}::{ctor}"));
            }
            "String" if is(fa, i + 1, ":") && is(fa, i + 2, ":") => {
                deny(out, tok.line, "String::…");
            }
            "to_vec" | "to_owned" | "to_string" | "collect" if i > 0 && is(fa, i - 1, ".") => {
                deny(out, tok.line, &format!(".{name}()"));
            }
            _ => {}
        }
    }
}

/// `unsafe` hygiene: every `unsafe` token must carry a `// SAFETY:`
/// comment — trailing on the same line, or in the contiguous comment
/// block immediately above.
pub fn unsafe_safety(fa: &FileAnalysis, out: &mut Vec<Finding>) {
    for tok in &fa.lexed.tokens {
        if tok.kind != TokKind::Ident || text(fa, tok) != "unsafe" {
            continue;
        }
        if has_safety_comment(fa, tok.line) {
            continue;
        }
        fa.push_finding(
            out,
            RuleId::UnsafeSafety,
            tok.line,
            "unsafe without a `// SAFETY:` comment immediately above".to_string(),
        );
    }
}

fn has_safety_comment(fa: &FileAnalysis, line: u32) -> bool {
    // Trailing comment on the same line?
    for c in &fa.lexed.comments {
        if (c.line..=c.end_line).contains(&line)
            && comment_text(&fa.src, c).contains("SAFETY:")
        {
            return true;
        }
    }
    // Walk the contiguous standalone-comment block upward from the
    // line above; attributes may not intervene (keep it strict).
    let mut want = line.saturating_sub(1);
    loop {
        let Some(c) = fa
            .lexed
            .comments
            .iter()
            .find(|c| c.own_line && c.end_line == want)
        else {
            return false;
        };
        if comment_text(&fa.src, c).contains("SAFETY:") {
            return true;
        }
        if c.line == 0 || c.line == 1 {
            return false;
        }
        want = c.line - 1;
    }
}
