//! The token-stream rules: panic-path audit and `unsafe` hygiene.
//! Each rule walks the flat token stream of one [`FileAnalysis`] and
//! reports findings through the file's suppression filter.

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
