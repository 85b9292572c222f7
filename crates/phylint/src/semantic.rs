//! Phase 2 of the workspace analyzer: the four semantic rules that
//! run over the assembled [`Workspace`] model and its [`CallGraph`].
//!
//! * `hot_transitive` — a `// phylint: hot` region is
//!   allocation-free, and so is every function *reachable* from a
//!   call made in one. This is the one allocation check: it reads the
//!   model's allocation sites, whether they sit in the region text or
//!   in a callee. Panic-freedom of reachable code is already
//!   guaranteed workspace-wide by the `panic_path` token rule (which
//!   covers all crate source, a strict superset of any reachability
//!   set), so this rule reports allocation sites only — one rule per
//!   defect, no double reports.
//! * `simd_guard` — every `#[target_feature(enable = …)]` fn must
//!   be declared `unsafe` (its `// SAFETY:` comment is enforced by the
//!   `unsafe_safety` token rule), and every call site must sit in a fn
//!   that is itself `#[target_feature]` or asks a `mimo_fixed::Isa`
//!   tier for the feature (`.avx2()` / `.avx512bw()`). Only the tier
//!   probe may query the CPU, so a kernel that runs its own
//!   `is_x86_feature_detected!` check is flagged.
//! * `error_surface` — public `Result`-returning fns in crate
//!   source must use typed errors (no `String` / `Box<dyn Error>` /
//!   `&str` / `()` payloads), and public `…Error` enums must carry
//!   `#[non_exhaustive]`.
//! * `test_only_api` — every plain-`pub` fn, struct, enum and trait in
//!   crate source must be reached from a product root: a fn in
//!   `examples/`, a bench, `crates/bench/src` or `perfbench/src`, or
//!   a trait method (trait dispatch draws no call edge). Tests and
//!   doc-tests are not roots.
//!
//! Every cross-function finding carries the call path that proves it.
//! Findings land on a concrete source line and honour in-place
//! suppressions at that line, exactly like token-rule findings.

use std::collections::HashSet;
use std::path::Path;

use crate::analysis::{FileAnalysis, FileKind};
use crate::callgraph::CallGraph;
use crate::model::{FnId, FnItem, Workspace};
use crate::report::{Finding, RuleId};

/// Run all four semantic rules. `files` is the engine's full analysis
/// list; `FnItem::file` indexes into it. `roots` models the example
/// and bench files, which are not part of `ws`.
pub fn check(
    ws: &Workspace,
    roots: &Workspace,
    cg: &CallGraph<'_>,
    files: &[FileAnalysis],
    out: &mut Vec<Finding>,
) {
    hot_transitive(ws, cg, files, out);
    simd_guard(ws, cg, files, out);
    error_surface(ws, files, out);
    test_only_api(ws, roots, cg, files, out);
}

/// Push a semantic finding through the landing file's suppression
/// filter.
fn emit(
    files: &[FileAnalysis],
    out: &mut Vec<Finding>,
    rule: RuleId,
    file: usize,
    line: u32,
    msg: String,
    call_path: Vec<String>,
) {
    files[file].push_finding_with_path(out, rule, line, msg, call_path);
}

/// Allocation sites inside a hot region, and in every function
/// reachable from a call made in one. A site in the region text is
/// reported once, without a call path, even when its fn is also
/// reached.
fn hot_transitive(
    ws: &Workspace,
    cg: &CallGraph<'_>,
    files: &[FileAnalysis],
    out: &mut Vec<Finding>,
) {
    let paths: Vec<std::path::PathBuf> = files.iter().map(|f| f.path.clone()).collect();
    let mut roots: Vec<(FnId, &crate::model::CallSite)> = Vec::new();
    for (id, f) in ws.fns.iter().enumerate() {
        for call in &f.calls {
            if call.in_hot_region {
                roots.push((id, call));
            }
        }
    }
    let reached = cg.reach(&roots);
    // Consts are no call targets, but their initializers may sit in a
    // region.
    let items = ws.fns.iter().enumerate().map(|(id, f)| (f, reached.get(&id)));
    for (f, hops) in items.chain(ws.consts.iter().map(|c| (c, None))) {
        for site in &f.alloc_sites {
            let (msg, call_path) = if files[f.file].in_hot_region(site.line) {
                let msg = format!(
                    "{} inside a `phylint: hot` region — hot paths are \
                     zero-allocation; reuse workspace buffers",
                    site.what
                );
                (msg, Vec::new())
            } else if let Some(hops) = hops {
                let msg = format!(
                    "allocation (`{}`) in `{}`, which is reachable from a \
                     `phylint: hot` region",
                    site.what,
                    f.display_name()
                );
                (msg, cg.render_path(&paths, hops))
            } else {
                continue;
            };
            emit(files, out, RuleId::HotTransitive, f.file, site.line, msg, call_path);
        }
    }
}

/// `#[target_feature]` declaration and call-site soundness.
fn simd_guard(
    ws: &Workspace,
    cg: &CallGraph<'_>,
    files: &[FileAnalysis],
    out: &mut Vec<Finding>,
) {
    let paths: Vec<std::path::PathBuf> = files.iter().map(|f| f.path.clone()).collect();
    // Declaration check: a target_feature fn that is not `unsafe`
    // hides its precondition from callers.
    for f in &ws.fns {
        let Some(feat) = &f.target_feature else {
            continue;
        };
        if !f.is_unsafe {
            emit(
                files,
                out,
                RuleId::SimdGuard,
                f.file,
                f.line,
                format!(
                    "`{}` is #[target_feature(enable = \"{feat}\")] but not \
                     declared `unsafe fn` — callers must see the CPU-feature \
                     precondition",
                    f.display_name()
                ),
                Vec::new(),
            );
        }
    }
    // Call-site check: the enclosing fn must prove the feature — by
    // being target_feature itself, or by asking its CPU tier.
    for (id, caller) in ws.fns.iter().enumerate() {
        if caller.cfg_test {
            continue;
        }
        for call in &caller.calls {
            for callee_id in cg.resolve(caller, call) {
                let callee = &ws.fns[callee_id];
                let Some(feat) = &callee.target_feature else {
                    continue;
                };
                if caller.target_feature.is_some() || caller.has_feature_guard {
                    continue;
                }
                let call_path = cg.render_path(
                    &paths,
                    &[crate::callgraph::Hop {
                        caller: id,
                        line: call.line,
                        callee: callee_id,
                    }],
                );
                emit(
                    files,
                    out,
                    RuleId::SimdGuard,
                    caller.file,
                    call.line,
                    format!(
                        "`{}` calls #[target_feature(enable = \"{feat}\")] fn \
                         `{}` without asking a CPU tier in scope — dispatch \
                         on a `mimo_fixed::Isa` query (`.avx2()` / \
                         `.avx512bw()`)",
                        caller.display_name(),
                        callee.display_name()
                    ),
                    call_path,
                );
            }
        }
    }
}

/// Error-type tokens that make a public `Result` stringly or opaque.
fn stringly(err_tokens: &str) -> Option<&'static str> {
    let toks: Vec<&str> = err_tokens.split_whitespace().collect();
    if toks.is_empty() || toks == ["(", ")"] {
        return Some("`()`");
    }
    if toks.contains(&"String") {
        return Some("`String`");
    }
    if toks.contains(&"str") {
        return Some("`&str`");
    }
    if err_tokens.contains("Box < dyn") {
        return Some("`Box<dyn …>`");
    }
    None
}

/// Public error-surface audit: typed payloads and `#[non_exhaustive]`
/// on public error enums.
fn error_surface(ws: &Workspace, files: &[FileAnalysis], out: &mut Vec<Finding>) {
    for f in &ws.fns {
        if !f.is_pub || f.cfg_test {
            continue;
        }
        let Some(err) = &f.result_err else {
            continue;
        };
        if let Some(what) = stringly(err) {
            // Squish token gaps, keeping the one after `dyn`.
            let compact: String = err
                .split_whitespace()
                .map(|t| if t == "dyn" { "dyn " } else { t })
                .collect();
            emit(
                files,
                out,
                RuleId::ErrorSurface,
                f.file,
                f.line,
                format!(
                    "public fn `{}` returns `Result<_, {compact}>` — use a \
                     typed error ({what} is not matchable by callers)",
                    f.display_name(),
                ),
                Vec::new(),
            );
        }
    }
    for e in &ws.error_enums {
        if !e.non_exhaustive {
            emit(
                files,
                out,
                RuleId::ErrorSurface,
                e.file,
                e.line,
                format!(
                    "public error enum `{}` is missing `#[non_exhaustive]` — \
                     adding a variant would be a breaking change",
                    e.name
                ),
                Vec::new(),
            );
        }
    }
}

/// Crates whose `src/` the test-only-API audit skips: the lint itself,
/// the bench harness (a root) and the vendored shims.
const UNAUDITED_CRATES: [&str; 3] = ["phylint", "bench", "shims"];

/// Public API surface under the test-only-API audit: the root
/// package's `src/` and `crates/*/src` outside [`UNAUDITED_CRATES`].
fn audited(path: &Path) -> bool {
    let parts: Vec<_> = path.iter().filter_map(|c| c.to_str()).collect();
    match parts.as_slice() {
        ["src", ..] => true,
        ["crates", name, "src", ..] => !UNAUDITED_CRATES.contains(name),
        _ => false,
    }
}

/// A file whose every fn is a product root: examples, benches, the
/// bench harness and the end-to-end benchmark.
fn root_file(fa: &FileAnalysis) -> bool {
    matches!(fa.kind, FileKind::Example | FileKind::Bench)
        || fa.path.starts_with("crates/bench/src")
        || fa.path.starts_with("perfbench/src")
}

/// Reachability state for `test_only_api`: reached workspace fns, the
/// work queue, and every name the visited items mention.
struct Reach<'a> {
    cg: &'a CallGraph<'a>,
    reached: Vec<bool>,
    queue: Vec<FnId>,
    names: HashSet<&'a str>,
}

impl<'a> Reach<'a> {
    fn mark(&mut self, id: FnId) {
        if !self.reached[id] {
            self.reached[id] = true;
            self.queue.push(id);
        }
    }

    /// Follow one live item: its calls by name and arity, and every
    /// name it uses without a call to all fns of that name.
    fn visit(&mut self, item: &'a FnItem) {
        let cg = self.cg;
        for call in &item.calls {
            self.names.insert(&call.name);
            for id in cg.resolve(item, call) {
                self.mark(id);
            }
        }
        for name in &item.refs {
            self.names.insert(name);
            for id in cg.named(name) {
                self.mark(id);
            }
        }
    }
}

/// Public items that no product root reaches. A tree with no root
/// file has nothing to measure against and is not audited.
fn test_only_api(
    ws: &Workspace,
    roots: &Workspace,
    cg: &CallGraph<'_>,
    files: &[FileAnalysis],
    out: &mut Vec<Finding>,
) {
    if !files.iter().any(root_file) {
        return;
    }
    let mut reach = Reach {
        cg,
        reached: vec![false; ws.fns.len()],
        queue: Vec::new(),
        names: HashSet::new(),
    };
    let live = |f: &&FnItem| !f.cfg_test;
    for item in roots.fns.iter().chain(&roots.consts).chain(&ws.consts).filter(live) {
        reach.visit(item);
    }
    for (id, f) in ws.fns.iter().enumerate() {
        if !f.cfg_test && (f.impl_trait.is_some() || root_file(&files[f.file])) {
            reach.mark(id);
        }
    }
    while let Some(id) = reach.queue.pop() {
        reach.visit(&ws.fns[id]);
    }

    // Types: live when a reached inherent method hangs off them, or a
    // live fn, a root file, a trait impl or a live type declaration
    // names them.
    let mut names = reach.names;
    for fa in files.iter().filter(|fa| root_file(fa)) {
        for t in &fa.lexed.tokens {
            if !fa.in_test_span(t.start) {
                names.insert(&fa.src[t.start..t.end]);
            }
        }
    }
    for (id, f) in ws.fns.iter().enumerate() {
        if reach.reached[id] && f.impl_trait.is_none() {
            names.extend(f.impl_type.as_deref());
        }
        // A trait some type implements (a trait's own default bodies
        // carry the trait as their impl type and do not count).
        if !f.cfg_test && f.impl_trait != f.impl_type {
            names.extend(f.impl_trait.as_deref());
        }
    }
    let mut live_types = vec![false; ws.types.len()];
    loop {
        let mut changed = false;
        for (t, ty) in ws.types.iter().enumerate() {
            if !live_types[t] && !ty.cfg_test && names.contains(ty.name.as_str()) {
                live_types[t] = true;
                names.extend(ty.mentions.iter().map(String::as_str));
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    const FIX: &str = "delete it, or keep it with `phylint: allow(test_only_api) -- \
                       paper §…` / `oracle: <test>` / `test support: <test>`";
    for (id, f) in ws.fns.iter().enumerate() {
        if f.exported
            && !f.cfg_test
            && f.impl_trait.is_none()
            && !reach.reached[id]
            && audited(&files[f.file].path)
        {
            let msg = format!(
                "public fn `{}` has no product caller: no example, bench or \
                 perfbench fn reaches it — {FIX}",
                f.display_name()
            );
            emit(files, out, RuleId::TestOnlyApi, f.file, f.line, msg, Vec::new());
        }
    }
    for (t, ty) in ws.types.iter().enumerate() {
        if ty.exported && !ty.cfg_test && !live_types[t] && audited(&files[ty.file].path) {
            let msg = format!(
                "public {} `{}` has no product use: no live fn, root file or \
                 live type names it — {FIX}",
                ty.keyword, ty.name
            );
            emit(files, out, RuleId::TestOnlyApi, ty.file, ty.line, msg, Vec::new());
        }
    }
}
