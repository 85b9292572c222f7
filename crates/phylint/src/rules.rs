//! The token-stream rule: `unsafe` hygiene. It walks the flat token
//! stream of one [`FileAnalysis`] and reports findings through the
//! file's suppression filter.

use crate::analysis::FileAnalysis;
use crate::lexer::{comment_text, TokKind, Token};
use crate::report::{Finding, RuleId};

fn text<'a>(fa: &'a FileAnalysis, tok: &Token) -> &'a str {
    fa.src.get(tok.start..tok.end).unwrap_or("")
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
