//! Phase 1 of the workspace analyzer: an approximate **item model**
//! built from the flat token streams of every crate-source file.
//!
//! The model records, per file, the things the semantic rules reason
//! about across file boundaries:
//!
//! * function items — name, owning `impl` type, visibility, unsafety,
//!   `#[target_feature(enable = …)]`, parameter arity;
//! * call sites inside each body — callee name, path qualifier,
//!   method-vs-path shape, argument count, and whether the call sits
//!   inside a `// phylint: hot` region;
//! * allocation sites inside each body — the one allocation denylist,
//!   read by `hot_transitive` both in hot regions and in their
//!   callees;
//! * `pub enum …Error` declarations and whether they carry
//!   `#[non_exhaustive]`;
//! * `pub fn` `Result` return types, for the error-surface audit;
//! * type declarations (`struct`/`enum`/`trait`) with the identifiers
//!   they mention, and every identifier a fn names without calling
//!   (`map(Self::f)`), for the test-only-API audit;
//! * `const`/`static`/`type` items, whose initializers are modelled as
//!   bodies so the calls and names in them are seen.
//!
//! Everything here is an **approximation over tokens**, not a type
//! system: name resolution is by identifier (plus arity) and trait
//! dispatch is invisible. The rules that consume the model are
//! written — and documented — around those limits; see
//! `crates/phylint/README.md`.

use crate::analysis::FileAnalysis;
use crate::lexer::{TokKind, Token};

/// Index of a function in [`Workspace::fns`].
pub type FnId = usize;

/// A call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Callee name (the identifier before `(`).
    pub name: String,
    /// Path qualifier when the call is `Qual::name(…)` — `Vec`,
    /// `Self`, a module segment… `None` for bare and method calls.
    pub qualifier: Option<String>,
    /// True for `.name(…)` method-call shape.
    pub is_method: bool,
    /// Number of comma-separated arguments at the call site
    /// (excluding any method receiver).
    pub args: usize,
    /// 1-based line of the callee identifier.
    pub line: u32,
    /// The call sits inside a `// phylint: hot` region.
    pub in_hot_region: bool,
}

/// An allocation site inside a function body.
#[derive(Debug, Clone)]
pub struct Site {
    /// What was found (`Vec::new`, `format!`, `.collect()`, …).
    pub what: String,
    /// 1-based line.
    pub line: u32,
}

/// A `pub enum` whose name ends in `Error`.
#[derive(Debug, Clone)]
pub struct ErrorEnum {
    /// Enum name.
    pub name: String,
    /// File index.
    pub file: usize,
    /// 1-based declaration line.
    pub line: u32,
    /// Carries `#[non_exhaustive]`.
    pub non_exhaustive: bool,
}

/// One function item.
#[derive(Debug, Clone, Default)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// Name of the `impl` target type when the fn sits inside an
    /// `impl` block (`LaneTrellis`, …), or of the trait it is declared
    /// in.
    pub impl_type: Option<String>,
    /// The trait, when the fn sits in `impl Trait for Type` or in the
    /// trait's own body: a method dispatch through a trait reaches.
    pub impl_trait: Option<String>,
    /// File index into the engine's file list.
    pub file: usize,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Declared `pub` (any `pub(…)` restriction counts).
    pub is_pub: bool,
    /// Declared plain `pub`, with no `(…)` restriction.
    pub exported: bool,
    /// Declared `unsafe fn`.
    pub is_unsafe: bool,
    /// Takes a `self` receiver.
    pub has_self: bool,
    /// Parameter count excluding the receiver.
    pub arity: usize,
    /// `#[target_feature(enable = "…")]` feature name, when present.
    pub target_feature: Option<String>,
    /// The fn (or an enclosing item) is `#[cfg(test)]`-gated.
    pub cfg_test: bool,
    /// Calls made in the body, in source order.
    pub calls: Vec<CallSite>,
    /// Identifiers the signature and body name outside call position
    /// and field access (types, paths such as `Self::f`, locals),
    /// sorted and deduplicated.
    pub refs: Vec<String>,
    /// Allocation sites in the body (alloc-denylist names).
    pub alloc_sites: Vec<Site>,
    /// Body contains `is_x86_feature_detected!` — a runtime CPU
    /// feature guard.
    pub has_feature_guard: bool,
    /// Error-type tokens of a `Result<_, E>` return type, normalised
    /// to space-joined tokens (`String`, `Box < dyn Error >`, …).
    pub result_err: Option<String>,
}

impl FnItem {
    /// `Type::name` or bare `name`, for diagnostics.
    pub fn display_name(&self) -> String {
        match &self.impl_type {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// A `struct`, `enum` or `trait` declaration.
#[derive(Debug, Clone)]
pub struct TypeItem {
    /// Type name.
    pub name: String,
    /// `struct`, `enum` or `trait`.
    pub keyword: &'static str,
    /// File index.
    pub file: usize,
    /// 1-based line of the keyword.
    pub line: u32,
    /// Declared plain `pub`, with no `(…)` restriction.
    pub exported: bool,
    /// The declaration is `#[cfg(test)]`-gated.
    pub cfg_test: bool,
    /// Identifiers the declaration mentions (field and variant types,
    /// bounds, trait method signatures), sorted and deduplicated.
    pub mentions: Vec<String>,
}

/// The assembled workspace model: every crate-source file's items.
#[derive(Debug, Default)]
pub struct Workspace {
    /// All functions, workspace-wide.
    pub fns: Vec<FnItem>,
    /// `const`, `static` and `type` items, modelled as fns whose body
    /// is the initializer (or aliased type). They are not resolution
    /// targets.
    pub consts: Vec<FnItem>,
    /// All `struct`, `enum` and `trait` declarations.
    pub types: Vec<TypeItem>,
    /// `type Alias = Target<…>;` pairs (alias, target type name), so
    /// `CQ15::from_f64` resolves against `CFx`'s impls.
    pub aliases: Vec<(String, String)>,
    /// All `pub enum …Error` declarations.
    pub error_enums: Vec<ErrorEnum>,
}

impl Workspace {
    /// Merge per-file models (in engine file order) into one
    /// workspace.
    pub fn assemble(models: Vec<FileModel>) -> Workspace {
        let mut ws = Workspace::default();
        for model in models {
            ws.fns.extend(model.fns);
            ws.error_enums.extend(model.error_enums);
            ws.consts.extend(model.consts);
            ws.types.extend(model.types);
            ws.aliases.extend(model.aliases);
        }
        ws
    }
}

/// Keywords that are followed by `(` without being calls.
const NON_CALL_KEYWORDS: [&str; 10] = [
    "if", "while", "for", "match", "return", "loop", "fn", "let", "in", "move",
];

/// Names that allocate — the hot-path denylist (method names checked
/// for `.x()` shape, macro names for `x!`, and the `Type::ctor` pairs
/// handled separately).
const ALLOC_METHODS: [&str; 4] = ["to_vec", "to_owned", "to_string", "collect"];
const ALLOC_MACROS: [&str; 2] = ["vec", "format"];

/// Extract the item model of one crate-source file. `file` is the
/// file's index in the engine's analysis list.
pub fn extract(fa: &FileAnalysis, file: usize) -> FileModel {
    let mut ex = Extractor {
        fa,
        file,
        toks: &fa.lexed.tokens,
        out: FileModel::default(),
        loose: FnItem {
            file,
            ..FnItem::default()
        },
    };
    ex.scan_items(0, fa.lexed.tokens.len(), &mut Vec::new());
    if !ex.loose.alloc_sites.is_empty() {
        ex.out.consts.push(ex.loose);
    }
    for f in ex.out.fns.iter_mut().chain(&mut ex.out.consts) {
        f.refs.sort();
        f.refs.dedup();
    }
    ex.out
}

/// An enclosing `impl` or `trait` block: the type methods hang off
/// and, for trait impls and trait bodies, the trait.
struct ImplCtx {
    ty: String,
    tr: Option<String>,
}

/// Model slice for one file, merged into [`Workspace`] by the engine.
#[derive(Debug, Default)]
pub struct FileModel {
    /// Functions declared in the file.
    pub fns: Vec<FnItem>,
    /// `pub enum …Error` declarations in the file.
    pub error_enums: Vec<ErrorEnum>,
    /// `const`/`static`/`type` items in the file.
    pub consts: Vec<FnItem>,
    /// Type declarations in the file.
    pub types: Vec<TypeItem>,
    /// Type aliases in the file.
    pub aliases: Vec<(String, String)>,
}

struct Extractor<'a> {
    fa: &'a FileAnalysis,
    file: usize,
    toks: &'a [Token],
    out: FileModel,
    /// Allocation sites among tokens no modelled item owns (item-level
    /// macros, `#[cfg(test)]` modules), kept as a bodiless const so a
    /// hot region around them is still checked.
    loose: FnItem,
}

/// Qualifiers read backwards from an item keyword.
#[derive(Default)]
struct Qualifiers {
    /// `pub` in any form.
    is_pub: bool,
    /// Plain `pub`, with no `(…)` restriction.
    exported: bool,
    /// `unsafe` (for `unsafe fn`).
    is_unsafe: bool,
}

/// Attributes gathered while scanning up to an item keyword. Test
/// gating is not among them: [`FileAnalysis::in_test_span`] decides
/// it.
#[derive(Default, Clone)]
struct PendingAttrs {
    target_feature: Option<String>,
    non_exhaustive: bool,
}

impl<'a> Extractor<'a> {
    fn text(&self, i: usize) -> &'a str {
        self.toks
            .get(i)
            .and_then(|t| self.fa.src.get(t.start..t.end))
            .unwrap_or("")
    }

    fn kind(&self, i: usize) -> Option<TokKind> {
        self.toks.get(i).map(|t| t.kind)
    }

    /// Walk tokens `[from, to)` at item level, recursing into `impl`,
    /// `trait` and `mod` bodies. `impl_stack` carries the enclosing
    /// blocks.
    fn scan_items(&mut self, from: usize, to: usize, impl_stack: &mut Vec<ImplCtx>) {
        let mut attrs = PendingAttrs::default();
        let mut i = from;
        while i < to {
            match self.text(i) {
                "#" if self.text(i + 1) == "[" => {
                    let end = self.matching(i + 1, "[", "]", to);
                    self.read_attr(i + 2, end, &mut attrs);
                    i = end + 1;
                }
                "impl" => {
                    // Skip generics, read the target type name (last
                    // path segment before `{` / `for`), recurse into
                    // the body.
                    let mut j = i + 1;
                    if self.text(j) == "<" {
                        j = self.matching(j, "<", ">", to) + 1;
                    }
                    // `impl Trait for Type` — the *type* is what
                    // methods hang off; take the segment before `{`.
                    let mut ty: Option<String> = None;
                    let mut last: Option<String> = None;
                    let mut tr: Option<String> = None;
                    while j < to && self.text(j) != "{" && self.text(j) != ";" {
                        if self.text(j) == "for" && tr.is_none() {
                            ty = None; // everything before `for` was the trait
                            tr = last.take();
                        } else if self.kind(j) == Some(TokKind::Ident) {
                            if tr.is_none() {
                                last = Some(self.text(j).to_string());
                            }
                            if ty.is_none() {
                                ty = Some(self.text(j).to_string());
                            }
                        } else if self.text(j) == "<" {
                            j = self.matching(j, "<", ">", to);
                        }
                        j += 1;
                    }
                    if j < to && self.text(j) == "{" {
                        let end = self.matching(j, "{", "}", to);
                        impl_stack.push(ImplCtx {
                            ty: ty.unwrap_or_default(),
                            tr,
                        });
                        self.scan_items(j + 1, end, impl_stack);
                        impl_stack.pop();
                        i = end + 1;
                    } else {
                        i = j + 1;
                    }
                    attrs = PendingAttrs::default();
                }
                "mod" => {
                    // `mod name { … }`: recurse; `mod name;` skip.
                    let mut j = i + 1;
                    while j < to && self.text(j) != "{" && self.text(j) != ";" {
                        j += 1;
                    }
                    if j < to && self.text(j) == "{" {
                        let end = self.matching(j, "{", "}", to);
                        if self.fa.in_test_span(self.toks[i].start) {
                            self.scan_loose(j, end + 1);
                        } else {
                            self.scan_items(j + 1, end, impl_stack);
                        }
                        i = end + 1;
                    } else {
                        i = j + 1;
                    }
                    attrs = PendingAttrs::default();
                }
                "struct" => {
                    let end = self.skip_item(i, to);
                    self.push_type(i, end);
                    i = end;
                    attrs = PendingAttrs::default();
                }
                "enum" => {
                    let end = self.read_enum(i, to, &attrs);
                    self.push_type(i, end);
                    i = end;
                    attrs = PendingAttrs::default();
                }
                "fn" => {
                    i = self.read_fn(i, to, impl_stack, &attrs);
                    attrs = PendingAttrs::default();
                }
                // `const`/`static`/`type` items: the initializer (or
                // aliased type) is modelled as a body. A `const` that
                // qualifies a `fn` passes through like the others.
                "const" | "static" | "type"
                    if !matches!(self.text(i + 1), "fn" | "unsafe" | "extern" | "async") =>
                {
                    i = self.read_const(i, to, impl_stack);
                    attrs = PendingAttrs::default();
                }
                // `pub`, `unsafe`, `const`, `extern`, `async` pass
                // through: read_fn looks backwards for them.
                "pub" | "unsafe" | "const" | "extern" | "async" | "default" => {
                    i += 1;
                }
                "trait" | "union" => {
                    // Recurse into trait bodies for default methods.
                    let mut j = i + 1;
                    while j < to && self.text(j) != "{" && self.text(j) != ";" {
                        if self.text(j) == "<" {
                            j = self.matching(j, "<", ">", to);
                        }
                        j += 1;
                    }
                    if j < to && self.text(j) == "{" {
                        let end = self.matching(j, "{", "}", to);
                        let name = self.text(i + 1).to_string();
                        if self.text(i) == "trait" {
                            self.push_type(i, end + 1);
                        }
                        impl_stack.push(ImplCtx {
                            ty: name.clone(),
                            tr: Some(name),
                        });
                        self.scan_items(j + 1, end, impl_stack);
                        impl_stack.pop();
                        i = end + 1;
                    } else {
                        i = j + 1;
                    }
                    attrs = PendingAttrs::default();
                }
                _ => {
                    // Any other token at item level (use lists, macro
                    // definitions and invocations…): skip it, or the
                    // whole `{ … }` it opens, ignoring attribute state.
                    let end = if self.text(i) == "{" {
                        self.matching(i, "{", "}", to) + 1
                    } else {
                        i + 1
                    };
                    self.scan_loose(i, end);
                    i = end;
                    attrs = PendingAttrs::default();
                }
            }
        }
    }

    /// Skip past one item starting at its keyword: to its body's
    /// matching `}` or its terminating `;`, whichever comes first.
    fn skip_item(&self, at: usize, to: usize) -> usize {
        let mut j = at + 1;
        while j < to {
            match self.text(j) {
                "{" => return self.matching(j, "{", "}", to) + 1,
                ";" => return j + 1,
                "(" => j = self.matching(j, "(", ")", to),
                _ => {}
            }
            j += 1;
        }
        to
    }

    /// Qualifiers of the item whose keyword sits at `at`, read
    /// backwards over `const`/`unsafe`/`async`/`extern "ABI"`/
    /// `default` and a `pub(…)` restriction.
    fn qualifiers(&self, at: usize) -> Qualifiers {
        let mut q = Qualifiers::default();
        let mut restricted = false;
        let mut b = at;
        while b > 0 {
            b -= 1;
            match self.text(b) {
                "pub" => {
                    q.is_pub = true;
                    q.exported = !restricted;
                    break;
                }
                "unsafe" => q.is_unsafe = true,
                "const" | "async" | "extern" | "default" => {}
                ")" => {
                    // pub(crate) restriction — walk to its `(`.
                    restricted = true;
                    let mut d = 1usize;
                    while b > 0 && d > 0 {
                        b -= 1;
                        match self.text(b) {
                            ")" => d += 1,
                            "(" => d -= 1,
                            _ => {}
                        }
                    }
                }
                s if s.starts_with('"') => {} // extern ABI string
                _ => break,
            }
        }
        q
    }

    /// Identifiers in tokens `[from, to)`, sorted and deduplicated.
    fn idents(&self, from: usize, to: usize) -> Vec<String> {
        let mut out: Vec<String> = (from..to)
            .filter(|&k| self.kind(k) == Some(TokKind::Ident))
            .map(|k| self.text(k).to_string())
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// Record the `struct`/`enum`/`trait` whose keyword sits at `at`
    /// and whose item ends before token `end`.
    fn push_type(&mut self, at: usize, end: usize) {
        if self.kind(at + 1) != Some(TokKind::Ident) {
            return;
        }
        let keyword = match self.text(at) {
            "struct" => "struct",
            "enum" => "enum",
            _ => "trait",
        };
        let exported = self.qualifiers(at).exported;
        self.out.types.push(TypeItem {
            name: self.text(at + 1).to_string(),
            keyword,
            file: self.file,
            line: self.toks[at].line,
            exported,
            cfg_test: self.fa.in_test_span(self.toks[at].start),
            mentions: self.idents(at + 2, end.min(self.toks.len())),
        });
    }

    /// Parse a `const`/`static`/`type` item at its keyword into a
    /// bodied [`FnItem`] (calls and names of the initializer). Returns
    /// the index after the item's `;`.
    fn read_const(&mut self, at: usize, to: usize, impl_stack: &[ImplCtx]) -> usize {
        let mut end = at + 1;
        while end < to && self.text(end) != ";" {
            match self.text(end) {
                "(" => end = self.matching(end, "(", ")", to),
                "[" => end = self.matching(end, "[", "]", to),
                "{" => end = self.matching(end, "{", "}", to),
                _ => {}
            }
            end += 1;
        }
        let end = end.min(to.saturating_sub(1));
        let q = self.qualifiers(at);
        let ctx = impl_stack.last().filter(|c| !c.ty.is_empty());
        let mut item = FnItem {
            name: self.text(at + 1).to_string(),
            impl_type: ctx.map(|c| c.ty.clone()),
            impl_trait: ctx.and_then(|c| c.tr.clone()),
            file: self.file,
            line: self.toks[at].line,
            is_pub: q.is_pub,
            exported: q.exported,
            cfg_test: self.fa.in_test_span(self.toks[at].start),
            ..FnItem::default()
        };
        self.scan_body(at + 2, end, &mut item);
        if self.text(at) == "type" {
            let target = (at + 2..end)
                .skip_while(|&k| self.text(k) != "=")
                .find(|&k| self.kind(k) == Some(TokKind::Ident));
            if let Some(k) = target {
                self.out.aliases.push((item.name.clone(), self.text(k).to_string()));
            }
        }
        self.out.consts.push(item);
        end + 1
    }

    /// Parse one attribute body `#[ … ]` (tokens `(from, end)`
    /// exclusive of the brackets) into `attrs`.
    fn read_attr(&self, from: usize, end: usize, attrs: &mut PendingAttrs) {
        match self.text(from) {
            "target_feature" => {
                // target_feature(enable = "avx2")
                let mut j = from + 1;
                while j < end {
                    if self.text(j) == "enable"
                        && self.text(j + 1) == "="
                        && self.kind(j + 2) == Some(TokKind::Str)
                    {
                        attrs.target_feature =
                            Some(self.text(j + 2).trim_matches('"').to_string());
                    }
                    j += 1;
                }
            }
            "non_exhaustive" => attrs.non_exhaustive = true,
            _ => {}
        }
    }

    /// Parse `enum Name …`, recording public `…Error` enums. Returns
    /// the index after the enum item.
    fn read_enum(&mut self, at: usize, to: usize, attrs: &PendingAttrs) -> usize {
        let is_pub = at >= 1 && {
            // `pub enum` / `pub(crate) enum`: look back over a
            // possible `(…)` restriction to the `pub`.
            let mut b = at - 1;
            if self.text(b) == ")" {
                while b > 0 && self.text(b) != "(" {
                    b -= 1;
                }
                b = b.saturating_sub(1);
            }
            self.text(b) == "pub"
        };
        let name = self.text(at + 1).to_string();
        let mut j = at + 1;
        while j < to && self.text(j) != "{" && self.text(j) != ";" {
            j += 1;
        }
        let end = if j < to && self.text(j) == "{" {
            self.matching(j, "{", "}", to)
        } else {
            j
        };
        if is_pub && name.ends_with("Error") {
            self.out.error_enums.push(ErrorEnum {
                name,
                file: self.file,
                line: self.toks[at].line,
                non_exhaustive: attrs.non_exhaustive,
            });
        }
        end + 1
    }

    /// Parse one `fn` item starting at the `fn` keyword; extract the
    /// signature and scan the body. Returns the index just after the
    /// item.
    fn read_fn(
        &mut self,
        at: usize,
        to: usize,
        impl_stack: &[ImplCtx],
        attrs: &PendingAttrs,
    ) -> usize {
        // Qualifiers sit immediately before `fn`:
        // `pub (crate) const unsafe extern "C" fn`.
        let q = self.qualifiers(at);

        let name_i = at + 1;
        let name = self.text(name_i).to_string();
        let line = self.toks[at].line;
        let mut j = name_i + 1;
        if self.text(j) == "<" {
            j = self.matching(j, "<", ">", to) + 1;
        }
        if self.text(j) != "(" {
            return j; // malformed; bail without a model entry
        }
        let params_end = self.matching(j, "(", ")", to);
        let (has_self, arity) = self.read_params(j + 1, params_end);

        // Return type: tokens between `->` and the body `{` (or `;`),
        // stopping at `where`.
        let mut k = params_end + 1;
        let mut result_err = None;
        if self.text(k) == "-" && self.text(k + 1) == ">" {
            let ret_start = k + 2;
            let mut depth = 0i32;
            let mut r = ret_start;
            while r < to {
                match self.text(r) {
                    "<" => depth += 1,
                    ">" => depth -= 1,
                    "{" | ";" if depth <= 0 => break,
                    "where" if depth <= 0 => break,
                    _ => {}
                }
                r += 1;
            }
            result_err = self.result_error_tokens(ret_start, r);
            k = r;
        }
        // Skip a where clause.
        while k < to && self.text(k) != "{" && self.text(k) != ";" {
            k += 1;
        }

        let ctx = impl_stack.last().filter(|c| !c.ty.is_empty());
        let mut item = FnItem {
            name,
            impl_type: ctx.map(|c| c.ty.clone()),
            impl_trait: ctx.and_then(|c| c.tr.clone()),
            file: self.file,
            line,
            is_pub: q.is_pub,
            exported: q.exported,
            is_unsafe: q.is_unsafe,
            has_self,
            arity,
            target_feature: attrs.target_feature.clone(),
            cfg_test: self.fa.in_test_span(self.toks[at].start),
            result_err,
            ..FnItem::default()
        };

        // Names in the signature (parameter and return types).
        self.scan_refs(name_i + 1, k, &mut item);
        let after = if k < to && self.text(k) == "{" {
            let end = self.matching(k, "{", "}", to);
            self.scan_body(k, end, &mut item);
            end + 1
        } else {
            k + 1
        };
        self.out.fns.push(item);
        after
    }

    /// Parameter shape: (`has_self`, arity-excluding-self). Counts
    /// top-level commas between `from` and `end` (exclusive).
    fn read_params(&self, from: usize, end: usize) -> (bool, usize) {
        if from >= end {
            return (false, 0);
        }
        let mut has_self = false;
        {
            // Receiver: `self`, `&self`, `&'a mut self`, `mut self`,
            // `self: Pin<…>`.
            let mut j = from;
            while j < end
                && (matches!(self.text(j), "&" | "mut")
                    || self.kind(j) == Some(TokKind::Lifetime))
            {
                j += 1;
            }
            if self.text(j) == "self" {
                has_self = true;
            }
        }
        let mut commas = 0usize;
        let mut depth = 0i32;
        let mut j = from;
        let mut saw_tokens = false;
        let mut trailing_comma = false;
        while j < end {
            saw_tokens = true;
            match self.text(j) {
                "(" | "[" | "{" | "<" => depth += 1,
                ")" | "]" | "}" | ">" => depth -= 1,
                "," if depth == 0 => {
                    commas += 1;
                    trailing_comma = j + 1 == end;
                }
                _ => {}
            }
            j += 1;
        }
        if !saw_tokens {
            return (has_self, 0);
        }
        let mut params = commas + 1;
        if trailing_comma {
            params -= 1;
        }
        if has_self {
            params -= 1;
        }
        (has_self, params)
    }

    /// `Result < Ok , Err >` in a return-type token range: the error
    /// type's tokens, space-joined. `None` when the return type is not
    /// a `Result` or elides the error parameter (alias).
    fn result_error_tokens(&self, from: usize, to: usize) -> Option<String> {
        let mut i = from;
        while i < to {
            if self.text(i) == "Result" && self.text(i + 1) == "<" {
                // Find the comma at angle depth 1.
                let open = i + 1;
                let mut depth = 0i32;
                let mut j = open;
                let mut comma = None;
                let mut close = None;
                while j < to {
                    match self.text(j) {
                        "<" => depth += 1,
                        ">" => {
                            depth -= 1;
                            if depth == 0 {
                                close = Some(j);
                                break;
                            }
                        }
                        "(" | "[" => depth += 1,
                        ")" | "]" => depth -= 1,
                        "," if depth == 1 => comma = comma.or(Some(j)),
                        _ => {}
                    }
                    j += 1;
                }
                let (comma, close) = (comma?, close?);
                let toks: Vec<&str> = (comma + 1..close).map(|k| self.text(k)).collect();
                return Some(toks.join(" "));
            }
            i += 1;
        }
        None
    }

    /// Scan one fn body (`open`..=`close` are the brace token
    /// indices): calls, allocation sites, feature guards.
    fn scan_body(&mut self, open: usize, close: usize, item: &mut FnItem) {
        let mut i = open;
        while i <= close {
            let text = self.text(i);
            let Some(tok) = self.toks.get(i) else { break };
            if tok.kind == TokKind::Ident {
                let site = self.alloc_at(i);
                // Macros.
                if self.text(i + 1) == "!" {
                    item.has_feature_guard |= text == "is_x86_feature_detected";
                    item.alloc_sites.extend(site);
                    i += 1;
                    continue;
                }
                if let Some(site) = site {
                    // A `Vec::new(…)`-style ctor calls into std: its
                    // path is no workspace call or name.
                    let ctor = !site.what.starts_with('.');
                    item.alloc_sites.push(site);
                    if ctor {
                        i += 4;
                        continue;
                    }
                }
                // Call sites; any other name is a reference.
                if let Some(call) = self.read_call(i, close) {
                    item.calls.push(call);
                } else if self.is_ref(i) {
                    item.refs.push(text.to_string());
                }
            }
            i += 1;
        }
    }

    /// Record the allocation sites among tokens `[from, to)` as loose.
    fn scan_loose(&mut self, from: usize, to: usize) {
        for k in from..to {
            if let Some(site) = self.alloc_at(k) {
                self.loose.alloc_sites.push(site);
            }
        }
    }

    /// The allocation site at token `i`, if the denylist names one:
    /// `vec!` / `format!`, the methods matched on `.name` alone (so
    /// turbofish forms like `.collect::<Vec<_>>()` are not missed), or
    /// the `Vec::new` / `Vec::with_capacity` / `Box::new` /
    /// `String::…` ctors.
    fn alloc_at(&self, i: usize) -> Option<Site> {
        let tok = self.toks.get(i).filter(|t| t.kind == TokKind::Ident)?;
        let text = self.text(i);
        let what = if self.text(i + 1) == "!" {
            ALLOC_MACROS.contains(&text).then(|| format!("{text}!"))?
        } else if i > 0 && self.text(i - 1) == "." && ALLOC_METHODS.contains(&text) {
            format!(".{text}()")
        } else if self.text(i + 1) == ":" && self.text(i + 2) == ":" {
            let ctor = self.text(i + 3);
            match text {
                "Vec" | "Box" if matches!(ctor, "new" | "with_capacity") => format!("{text}::{ctor}"),
                "String" => format!("String::{ctor}"),
                _ => return None,
            }
        } else {
            return None;
        };
        Some(Site {
            what,
            line: tok.line,
        })
    }

    /// Push the names in tokens `[from, to)` that [`is_ref`](Self::is_ref)
    /// accepts.
    fn scan_refs(&self, from: usize, to: usize, item: &mut FnItem) {
        for k in from..to {
            if self.kind(k) == Some(TokKind::Ident) && self.is_ref(k) {
                item.refs.push(self.text(k).to_string());
            }
        }
    }

    /// Ident `i` (not in call position) names something: it is not a
    /// field or method name after `.`, a field or binding before a
    /// lone `:`, or a macro name.
    fn is_ref(&self, i: usize) -> bool {
        let after = |k: usize| self.text(i + k);
        let field = i > 0 && self.text(i - 1) == ".";
        let binding = after(1) == ":" && after(2) != ":";
        !field && !binding && after(1) != "!"
    }

    /// Parse a call at ident token `i` if one starts there. Shapes:
    /// `name(…)`, `.name(…)`, `Qual::name(…)`, `name::<T>(…)`.
    fn read_call(&self, i: usize, close: usize) -> Option<CallSite> {
        let name = self.text(i);
        if NON_CALL_KEYWORDS.contains(&name) {
            return None;
        }
        let tok = self.toks.get(i)?;
        if tok.kind != TokKind::Ident {
            return None;
        }
        // What follows the name: `(`, or turbofish `::<…>(`.
        let mut after = i + 1;
        if self.text(after) == ":" && self.text(after + 1) == ":" && self.text(after + 2) == "<"
        {
            after = self.matching(after + 2, "<", ">", close + 1) + 1;
        }
        if self.text(after) != "(" {
            return None;
        }
        // A declaration (`fn name(`) is not a call; scan_items hands
        // us bodies only, but closures/`fn` items nested in bodies
        // exist. Skip `fn name(`.
        if i > 0 && self.text(i - 1) == "fn" {
            return None;
        }
        let is_method = i > 0 && self.text(i - 1) == ".";
        // Path qualifier: `Qual :: name`.
        let qualifier = if !is_method
            && i >= 3
            && self.text(i - 1) == ":"
            && self.text(i - 2) == ":"
            && self.kind(i - 3) == Some(TokKind::Ident)
        {
            Some(self.text(i - 3).to_string())
        } else {
            None
        };
        // Count arguments: commas at depth 1 within the parens.
        let close_paren = self.matching(after, "(", ")", close + 1);
        let args = if close_paren == after + 1 {
            0
        } else {
            let mut depth = 0i32;
            let mut commas = 0usize;
            let mut j = after;
            while j <= close_paren {
                match self.text(j) {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    "," if depth == 1 => commas += 1,
                    // A closure argument's `|a, b|` parameter list:
                    // its commas separate no call arguments.
                    "|" if depth == 1 && matches!(self.text(j - 1), "(" | "," | "move") => {
                        j += 1;
                        while j < close_paren && self.text(j) != "|" {
                            j += 1;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            // rustfmt leaves a trailing comma after a wrapped last
            // argument; it separates nothing.
            let trailing = self.text(close_paren.saturating_sub(1)) == ",";
            commas + 1 - usize::from(trailing)
        };
        Some(CallSite {
            name: name.to_string(),
            qualifier,
            is_method,
            args,
            line: tok.line,
            in_hot_region: self.fa.in_hot_region(tok.line),
        })
    }

    /// Index of the token matching the opener at `i` (`open`/`close`
    /// strings), scanning to at most `to`. Returns `to - 1` when
    /// unbalanced — lenient, like the lexer.
    fn matching(&self, i: usize, open: &str, close: &str, to: usize) -> usize {
        let mut depth = 0usize;
        let mut j = i;
        while j < to {
            let t = self.text(j);
            if t == open {
                depth += 1;
            } else if t == close {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            } else if open == "<" && (t == "(" || t == ";") && depth == 1 {
                // Generics never contain parens/semicolons at depth 1
                // in this grammar subset; `a < b(…)` was a comparison,
                // not generics. Bail to the comparison site.
                return j.saturating_sub(1);
            }
            j += 1;
        }
        to.saturating_sub(1)
    }
}
