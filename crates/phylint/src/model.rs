//! Phase 1 of the workspace analyzer: an approximate **item model**
//! built from the flat token streams of every crate-source file.
//!
//! The model records, per file, the things the semantic rules reason
//! about across file boundaries:
//!
//! * function items — name, owning `impl` type, visibility, unsafety,
//!   `#[target_feature(enable = …)]`, parameter arity, body span;
//! * call sites inside each body — callee name, path qualifier,
//!   method-vs-path shape, argument count, and whether the call sits
//!   inside a `// phylint: hot` region;
//! * allocation and panic sites inside each body (same denylists as
//!   the token rules);
//! * lock **fields** — struct fields whose declared type mentions
//!   `Mutex` or `RwLock` — and lock **acquisitions**
//!   (`field.lock()` / `.read()` / `.write()`), with an approximation
//!   of guard lifetime: a `let`-bound guard is held until its
//!   enclosing block closes, an un-bound (method-chained) guard only
//!   until its statement's `;`;
//! * `pub enum …Error` declarations and whether they carry
//!   `#[non_exhaustive]`;
//! * `pub fn` `Result` return types, for the error-surface audit.
//!
//! Everything here is an **approximation over tokens**, not a type
//! system: name resolution is by identifier (plus arity), trait
//! dispatch is invisible, and a shadowed local named like a lock field
//! would be misattributed. The rules that consume the model are
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

/// An allocation or panic site inside a function body.
#[derive(Debug, Clone)]
pub struct Site {
    /// What was found (`Vec::new`, `format!`, `.unwrap()`, …).
    pub what: String,
    /// 1-based line.
    pub line: u32,
}

/// One acquisition of a known lock field inside a function body.
#[derive(Debug, Clone)]
pub struct LockAcquire {
    /// Index into [`Workspace::lock_fields`].
    pub field: usize,
    /// 1-based line of the acquisition.
    pub line: u32,
    /// Guard lifetime approximation: `let`-bound guards are held to
    /// the end of their enclosing block; chained temporaries only to
    /// the end of their statement.
    pub held_to_block_end: bool,
    /// Brace depth (within the function body) of the statement, used
    /// to scope `let`-bound guards.
    pub depth: usize,
    /// Ordinal of the token at which the acquisition occurs — used to
    /// order acquisitions and calls within one body.
    pub ord: usize,
    /// Last line on which the guard is considered held: the enclosing
    /// block's closing brace for a `let`-bound guard, the statement's
    /// `;` (or the block close, whichever comes first) for a chained
    /// temporary.
    pub scope_end_line: u32,
}

/// A struct field whose type mentions `Mutex` or `RwLock`.
#[derive(Debug, Clone)]
pub struct LockField {
    /// Field name.
    pub name: String,
    /// Owning struct name.
    pub struct_name: String,
    /// File the declaration lives in (index into the engine's file
    /// list).
    pub file: usize,
    /// 1-based declaration line.
    pub line: u32,
    /// True for `RwLock` (acquired via `.read()`/`.write()`),
    /// false for `Mutex` (acquired via `.lock()`).
    pub rwlock: bool,
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
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// Name of the `impl` target type when the fn sits inside an
    /// `impl` block (`LaneTrellis`, …).
    pub impl_type: Option<String>,
    /// File index into the engine's file list.
    pub file: usize,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Declared `pub` (any `pub(…)` restriction counts).
    pub is_pub: bool,
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
    /// Body byte span; `None` for bodiless trait signatures.
    pub body: Option<(usize, usize)>,
    /// Calls made in the body, in source order.
    pub calls: Vec<CallSite>,
    /// Allocation sites in the body (alloc-denylist names).
    pub alloc_sites: Vec<Site>,
    /// Panic sites in the body (panic-denylist names).
    pub panic_sites: Vec<Site>,
    /// Lock acquisitions in the body, in source order.
    pub locks: Vec<LockAcquire>,
    /// Body contains `is_x86_feature_detected!` — a runtime CPU
    /// feature guard.
    pub has_feature_guard: bool,
    /// Error-type tokens of a `Result<_, E>` return type, normalised
    /// to space-joined tokens (`String`, `Box < dyn Error >`, …).
    pub result_err: Option<String>,
    /// Any body line overlaps a `// phylint: hot` region.
    pub overlaps_hot: bool,
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

/// The assembled workspace model: every crate-source file's items.
#[derive(Debug, Default)]
pub struct Workspace {
    /// All functions, workspace-wide.
    pub fns: Vec<FnItem>,
    /// All lock fields, workspace-wide, in (file, line) order — the
    /// index into this list is the lock's **canonical rank** for the
    /// lock-order rule.
    pub lock_fields: Vec<LockField>,
    /// All `pub enum …Error` declarations.
    pub error_enums: Vec<ErrorEnum>,
}

impl Workspace {
    /// Merge per-file models (in engine file order) into one
    /// workspace, rebasing each file's local lock-field indices onto
    /// the global canonical rank list. Files are visited in sorted
    /// path order, and fields within a file in declaration order, so
    /// the canonical lock order is deterministic and documented:
    /// **declaration order, files sorted by path**.
    pub fn assemble(models: Vec<FileModel>) -> Workspace {
        let mut ws = Workspace::default();
        for model in models {
            let base = ws.lock_fields.len();
            ws.lock_fields.extend(model.lock_fields);
            for mut f in model.fns {
                for l in &mut f.locks {
                    l.field += base;
                }
                ws.fns.push(f);
            }
            ws.error_enums.extend(model.error_enums);
        }
        ws
    }
}

/// Keywords that are followed by `(` without being calls.
const NON_CALL_KEYWORDS: [&str; 10] = [
    "if", "while", "for", "match", "return", "loop", "fn", "let", "in", "move",
];

/// Names that allocate — the hot-path denylist, shared in spirit with
/// `rules::alloc_hot` (method names checked for `.x()` shape, macro
/// names for `x!`, and the `Type::ctor` pairs handled separately).
const ALLOC_METHODS: [&str; 4] = ["to_vec", "to_owned", "to_string", "collect"];
const ALLOC_MACROS: [&str; 2] = ["vec", "format"];
const PANIC_MACROS: [&str; 3] = ["panic", "todo", "unimplemented"];

/// Extract the item model of one crate-source file. `file` is the
/// file's index in the engine's analysis list.
///
/// Two passes: declarations first (structs' lock fields, error
/// enums), then functions — so a body can acquire a lock whose struct
/// is declared later in the file.
pub fn extract(fa: &FileAnalysis, file: usize) -> FileModel {
    let mut ex = Extractor {
        fa,
        file,
        toks: &fa.lexed.tokens,
        out: FileModel::default(),
        mode: Mode::Decls,
    };
    ex.scan_items(0, fa.lexed.tokens.len(), &mut Vec::new());
    ex.mode = Mode::Fns;
    ex.scan_items(0, fa.lexed.tokens.len(), &mut Vec::new());
    ex.out
}

/// Which item class a scan pass records.
#[derive(PartialEq, Clone, Copy)]
enum Mode {
    /// Structs (lock fields) and enums.
    Decls,
    /// Functions (which consult the completed lock-field list).
    Fns,
}

/// Model slice for one file, merged into [`Workspace`] by the engine.
#[derive(Debug, Default)]
pub struct FileModel {
    /// Functions declared in the file.
    pub fns: Vec<FnItem>,
    /// Lock fields declared in the file.
    pub lock_fields: Vec<LockField>,
    /// `pub enum …Error` declarations in the file.
    pub error_enums: Vec<ErrorEnum>,
}

struct Extractor<'a> {
    fa: &'a FileAnalysis,
    file: usize,
    toks: &'a [Token],
    out: FileModel,
    mode: Mode,
}

/// Attributes gathered while scanning up to an item keyword.
#[derive(Default, Clone)]
struct PendingAttrs {
    target_feature: Option<String>,
    non_exhaustive: bool,
    cfg_test: bool,
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

    /// Walk tokens `[from, to)` at item level, recursing into `impl`
    /// and `mod` bodies. `impl_stack` carries enclosing impl-type
    /// names.
    fn scan_items(&mut self, from: usize, to: usize, impl_stack: &mut Vec<String>) {
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
                    while j < to && self.text(j) != "{" && self.text(j) != ";" {
                        if self.text(j) == "for" {
                            ty = None; // everything before `for` was the trait
                        } else if self.kind(j) == Some(TokKind::Ident) && ty.is_none() {
                            ty = Some(self.text(j).to_string());
                        } else if self.text(j) == "<" {
                            j = self.matching(j, "<", ">", to);
                        }
                        j += 1;
                    }
                    if j < to && self.text(j) == "{" {
                        let end = self.matching(j, "{", "}", to);
                        impl_stack.push(ty.unwrap_or_default());
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
                        let gated = attrs.cfg_test;
                        if !gated {
                            self.scan_items(j + 1, end, impl_stack);
                        }
                        i = end + 1;
                    } else {
                        i = j + 1;
                    }
                    attrs = PendingAttrs::default();
                }
                "struct" => {
                    i = if self.mode == Mode::Decls {
                        self.read_struct(i, to)
                    } else {
                        self.skip_item(i, to)
                    };
                    attrs = PendingAttrs::default();
                }
                "enum" => {
                    i = if self.mode == Mode::Decls {
                        self.read_enum(i, to, &attrs)
                    } else {
                        self.skip_item(i, to)
                    };
                    attrs = PendingAttrs::default();
                }
                "fn" => {
                    i = if self.mode == Mode::Fns {
                        self.read_fn(i, to, impl_stack, &attrs)
                    } else {
                        self.skip_item(i, to)
                    };
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
                        self.scan_items(j + 1, end, impl_stack);
                        i = end + 1;
                    } else {
                        i = j + 1;
                    }
                    attrs = PendingAttrs::default();
                }
                _ => {
                    // Any other token at item level (use/static/type/
                    // macro invocations…): skip to the end of the
                    // item-ish statement, ignoring attribute state.
                    if self.text(i) == "{" {
                        i = self.matching(i, "{", "}", to) + 1;
                    } else {
                        i += 1;
                    }
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
            "cfg" => {
                // Mirror analysis::match_cfg_test's `not()`-aware scan.
                let mut j = from + 1;
                while j < end {
                    match self.text(j) {
                        "not" if self.text(j + 1) == "(" => {
                            j = self.matching(j + 1, "(", ")", end);
                        }
                        "test" if self.kind(j) == Some(TokKind::Ident) => {
                            attrs.cfg_test = true;
                        }
                        _ => {}
                    }
                    j += 1;
                }
            }
            _ => {}
        }
    }

    /// Parse `struct Name … { fields }`, recording Mutex/RwLock
    /// fields. Returns the index after the struct item.
    fn read_struct(&mut self, at: usize, to: usize) -> usize {
        let mut j = at + 1;
        let name = if self.kind(j) == Some(TokKind::Ident) {
            let n = self.text(j).to_string();
            j += 1;
            n
        } else {
            String::new()
        };
        if self.text(j) == "<" {
            j = self.matching(j, "<", ">", to) + 1;
        }
        // Tuple struct / unit struct: no named fields to inspect.
        while j < to && self.text(j) != "{" && self.text(j) != ";" {
            if self.text(j) == "(" {
                j = self.matching(j, "(", ")", to);
            }
            j += 1;
        }
        if j >= to || self.text(j) != "{" {
            return j + 1;
        }
        let end = self.matching(j, "{", "}", to);
        // Field grammar: attrs? vis? name `:` type `,`.
        let mut k = j + 1;
        while k < end {
            // Skip field attributes and visibility.
            while k < end && self.text(k) == "#" && self.text(k + 1) == "[" {
                k = self.matching(k + 1, "[", "]", end) + 1;
            }
            if self.text(k) == "pub" {
                k += 1;
                if self.text(k) == "(" {
                    k = self.matching(k, "(", ")", end) + 1;
                }
            }
            if self.kind(k) != Some(TokKind::Ident) || self.text(k + 1) != ":" {
                k += 1;
                continue;
            }
            let fname = self.text(k).to_string();
            let fline = self.toks[k].line;
            // Type tokens run to the next `,` at bracket depth 0.
            let mut t = k + 2;
            let mut lock: Option<bool> = None;
            while t < end {
                match self.text(t) {
                    "," => break,
                    "<" => {}
                    "(" => t = self.matching(t, "(", ")", end),
                    "Mutex" if self.text(t + 1) == "<" => lock = Some(false),
                    "RwLock" if self.text(t + 1) == "<" => lock = Some(true),
                    _ => {}
                }
                t += 1;
            }
            if let Some(rwlock) = lock {
                self.out.lock_fields.push(LockField {
                    name: fname,
                    struct_name: name.clone(),
                    file: self.file,
                    line: fline,
                    rwlock,
                });
            }
            k = t + 1;
        }
        end + 1
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
        impl_stack: &[String],
        attrs: &PendingAttrs,
    ) -> usize {
        // Qualifiers sit immediately before `fn`:
        // `pub (crate) const unsafe extern "C" fn`.
        let mut is_pub = false;
        let mut is_unsafe = false;
        {
            let mut b = at;
            while b > 0 {
                b -= 1;
                match self.text(b) {
                    "unsafe" => is_unsafe = true,
                    "pub" => is_pub = true,
                    "const" | "async" | "extern" | "default" => {}
                    ")" => {
                        // pub(crate) restriction — walk to its `(`.
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
        }

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

        let mut item = FnItem {
            name,
            impl_type: impl_stack.last().filter(|s| !s.is_empty()).cloned(),
            file: self.file,
            line,
            is_pub,
            is_unsafe,
            has_self,
            arity,
            target_feature: attrs.target_feature.clone(),
            cfg_test: attrs.cfg_test || self.fa.in_test_span(self.toks[at].start),
            body: None,
            calls: Vec::new(),
            alloc_sites: Vec::new(),
            panic_sites: Vec::new(),
            locks: Vec::new(),
            has_feature_guard: false,
            result_err,
            overlaps_hot: false,
        };

        let after = if k < to && self.text(k) == "{" {
            let end = self.matching(k, "{", "}", to);
            item.body = Some((self.toks[k].start, self.toks[end].end));
            self.scan_body(k, end, &mut item);
            item.overlaps_hot = (self.toks[k].line..=self.toks[end].line)
                .any(|l| self.fa.in_hot_region(l));
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
    /// indices): calls, alloc/panic sites, lock acquisitions, feature
    /// guards.
    fn scan_body(&mut self, open: usize, close: usize, item: &mut FnItem) {
        let lock_names: Vec<(String, bool)> = self
            .out
            .lock_fields
            .iter()
            .map(|l| (l.name.clone(), l.rwlock))
            .collect();
        let mut depth = 0usize;
        // Stack of open-brace token indices, innermost last — used to
        // find the enclosing block close of a `let`-bound guard.
        let mut braces: Vec<usize> = Vec::new();
        let mut i = open;
        while i <= close {
            let text = self.text(i);
            match text {
                "{" => {
                    depth += 1;
                    braces.push(i);
                }
                "}" => {
                    depth = depth.saturating_sub(1);
                    braces.pop();
                }
                _ => {}
            }
            let Some(tok) = self.toks.get(i) else { break };
            if tok.kind == TokKind::Ident {
                let line = tok.line;
                let next_is = |s: &str| self.text(i + 1) == s;
                // Macros.
                if next_is("!") {
                    if text == "is_x86_feature_detected" {
                        item.has_feature_guard = true;
                    }
                    if ALLOC_MACROS.contains(&text) {
                        item.alloc_sites.push(Site {
                            what: format!("{text}!"),
                            line,
                        });
                    }
                    if PANIC_MACROS.contains(&text) {
                        item.panic_sites.push(Site {
                            what: format!("{text}!"),
                            line,
                        });
                    }
                    i += 1;
                    continue;
                }
                // `Vec::new` / `Vec::with_capacity` / `Box::new` /
                // `String::…` ctors.
                if matches!(text, "Vec" | "Box" | "String")
                    && next_is(":")
                    && self.text(i + 2) == ":"
                {
                    let ctor = self.text(i + 3);
                    let allocating = match text {
                        "Vec" | "Box" => matches!(ctor, "new" | "with_capacity"),
                        "String" => true,
                        _ => false,
                    };
                    if allocating {
                        item.alloc_sites.push(Site {
                            what: format!("{text}::{ctor}"),
                            line,
                        });
                        i += 4;
                        continue;
                    }
                }
                // Method-shaped denylist entries and panics. The
                // alloc methods match on `.name` alone so turbofish
                // forms (`.collect::<Vec<_>>()`) are not missed.
                let prev_dot = i > 0 && self.text(i - 1) == ".";
                if prev_dot && ALLOC_METHODS.contains(&text) {
                    item.alloc_sites.push(Site {
                        what: format!(".{text}()"),
                        line,
                    });
                }
                if prev_dot && next_is("(") && matches!(text, "unwrap" | "expect") {
                    item.panic_sites.push(Site {
                        what: format!(".{text}()"),
                        line,
                    });
                }
                // Lock acquisition: `field . lock ( )` etc.
                if prev_dot
                    && matches!(text, "lock" | "read" | "write")
                    && next_is("(")
                    && self.kind(i - 2) == Some(TokKind::Ident)
                {
                    let field_name = self.text(i - 2);
                    let matched = lock_names.iter().enumerate().find(|(_, (n, rw))| {
                        n == field_name
                            && if *rw {
                                text == "read" || text == "write"
                            } else {
                                text == "lock"
                            }
                    });
                    if let Some((fi, _)) = matched {
                        let let_bound = self.stmt_is_let_bound(open, i);
                        let scope_end_line = if let_bound {
                            // Held to the enclosing block's close.
                            let enclosing = braces.last().copied().unwrap_or(open);
                            let end = self.matching(enclosing, "{", "}", close + 1);
                            self.toks.get(end).map(|t| t.line).unwrap_or(line)
                        } else {
                            self.stmt_end_line(i, close)
                        };
                        item.locks.push(LockAcquire {
                            field: fi, // file-local index; engine rebases
                            line,
                            held_to_block_end: let_bound,
                            depth,
                            ord: i,
                            scope_end_line,
                        });
                    }
                }
                // Call sites.
                if let Some(call) = self.read_call(i, close) {
                    item.calls.push(call);
                }
            }
            i += 1;
        }
    }

    /// Line of the `;` that ends the statement containing token `i`
    /// (at the statement's own brace depth), or of the `}` that closes
    /// its enclosing block if that comes first — the lifetime end of a
    /// chained temporary guard.
    fn stmt_end_line(&self, i: usize, close: usize) -> u32 {
        let mut delta = 0i32;
        let mut j = i;
        while j <= close {
            match self.text(j) {
                "{" | "(" | "[" => delta += 1,
                ";" if delta == 0 => {
                    return self.toks.get(j).map(|t| t.line).unwrap_or(0);
                }
                "}" | ")" | "]" => {
                    delta -= 1;
                    if delta < 0 {
                        return self.toks.get(j).map(|t| t.line).unwrap_or(0);
                    }
                }
                _ => {}
            }
            j += 1;
        }
        self.toks.get(close).map(|t| t.line).unwrap_or(0)
    }

    /// Whether the statement containing token `i` starts with `let`
    /// (or `else` after a let-else) — the guard returned by the
    /// acquisition outlives the statement.
    fn stmt_is_let_bound(&self, body_open: usize, i: usize) -> bool {
        let mut b = i;
        while b > body_open {
            b -= 1;
            match self.text(b) {
                ";" | "{" | "}" => {
                    return matches!(self.text(b + 1), "let" | "while");
                }
                _ => {}
            }
        }
        false
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
            for j in after..=close_paren {
                match self.text(j) {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    "," if depth == 1 => commas += 1,
                    "|" if depth == 1 => {
                        // Closure parameter pipes would miscount
                        // commas inside them; cheap fix: closures as
                        // arguments still separate via depth-1 commas,
                        // and commas inside `|a, b|` are rare in this
                        // codebase's call sites. Accept the
                        // approximation.
                    }
                    _ => {}
                }
            }
            commas + 1
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
