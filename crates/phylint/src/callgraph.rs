//! The approximate workspace call graph: name-and-arity resolution
//! over the [`model`](crate::model) item lists, and breadth-first
//! reachability with parent links so every semantic finding can carry
//! the call path that proves it.
//!
//! # Resolution rules
//!
//! * `.name(a, b)` — method shape: candidates are workspace methods
//!   named `name` taking a receiver plus exactly two parameters.
//! * `Qual::name(a)` — path shape: when `Qual` is a type with
//!   workspace `impl` blocks (or `Self`, resolved against the caller's
//!   impl type), candidates come from those impls only; when `Qual`
//!   is unknown (`Vec`, `std`, a module alias…) the call is treated as
//!   external and ignored.
//! * `name(a)` — bare shape: candidates are workspace free functions
//!   named `name` with matching arity.
//!
//! `#[cfg(test)]` functions are never resolution targets. This is an
//! over-approximation (same name + same arity anywhere in the
//! workspace counts) layered on an under-approximation (trait-object
//! dispatch, function pointers and closures produce no edges); both
//! are deliberate and documented in the README.

use std::collections::{BTreeMap, HashMap, VecDeque};

use crate::model::{CallSite, FnId, FnItem, Workspace};

/// Name/arity indices over a [`Workspace`].
pub struct CallGraph<'w> {
    /// The model the indices point into.
    pub ws: &'w Workspace,
    /// Method-shape index: name → fns with a receiver.
    methods: HashMap<&'w str, Vec<FnId>>,
    /// Bare/free index: name → fns without a receiver.
    free: HashMap<&'w str, Vec<FnId>>,
    /// Path index: (impl type, name) → fns.
    typed: HashMap<(&'w str, &'w str), Vec<FnId>>,
}

impl<'w> CallGraph<'w> {
    /// Build the indices. Test-gated fns are excluded so test helpers
    /// cannot pull production paths into a closure.
    pub fn new(ws: &'w Workspace) -> CallGraph<'w> {
        let mut methods: HashMap<&str, Vec<FnId>> = HashMap::new();
        let mut free: HashMap<&str, Vec<FnId>> = HashMap::new();
        let mut typed: HashMap<(&str, &str), Vec<FnId>> = HashMap::new();
        for (id, f) in ws.fns.iter().enumerate() {
            if f.cfg_test {
                continue;
            }
            if f.has_self {
                methods.entry(&f.name).or_default().push(id);
            } else {
                free.entry(&f.name).or_default().push(id);
            }
            if let Some(t) = &f.impl_type {
                typed.entry((t, &f.name)).or_default().push(id);
            }
        }
        CallGraph {
            ws,
            methods,
            free,
            typed,
        }
    }

    /// Candidate callees of one call site made from `caller`.
    pub fn resolve(&self, caller: &FnItem, call: &CallSite) -> Vec<FnId> {
        let arity_ok = |id: &&FnId| {
            let f = &self.ws.fns[**id];
            if f.has_self {
                // Method shape supplies the receiver implicitly; UFCS
                // path shape passes it as the first argument.
                call.args == f.arity || (!call.is_method && call.args == f.arity + 1)
            } else {
                call.args == f.arity
            }
        };
        if let Some(q) = &call.qualifier {
            let ty: &str = if q == "Self" {
                match &caller.impl_type {
                    Some(t) => t,
                    None => return Vec::new(),
                }
            } else {
                q
            };
            return match self.typed.get(&(ty, call.name.as_str())) {
                // A known workspace type: resolve within its impls.
                Some(ids) => ids.iter().filter(arity_ok).copied().collect(),
                // Unknown qualifier (std type, module path): external.
                None => Vec::new(),
            };
        }
        if call.is_method {
            return self
                .methods
                .get(call.name.as_str())
                .map(|ids| ids.iter().filter(arity_ok).copied().collect())
                .unwrap_or_default();
        }
        self.free
            .get(call.name.as_str())
            .map(|ids| ids.iter().filter(arity_ok).copied().collect())
            .unwrap_or_default()
    }

    /// Breadth-first closure from `roots` (pairs of a root fn and the
    /// call site within it that seeds the walk). Returns, for every
    /// reached fn, the shortest chain of `(fn, call line)` hops that
    /// reached it — the proof path findings print.
    pub fn reach(&self, roots: &[(FnId, &CallSite)]) -> BTreeMap<FnId, Vec<Hop>> {
        let mut paths: BTreeMap<FnId, Vec<Hop>> = BTreeMap::new();
        let mut queue: VecDeque<FnId> = VecDeque::new();
        for (root_id, call) in roots {
            for callee in self.resolve(&self.ws.fns[*root_id], call) {
                if paths.contains_key(&callee) {
                    continue;
                }
                paths.insert(
                    callee,
                    vec![Hop {
                        caller: *root_id,
                        line: call.line,
                        callee,
                    }],
                );
                queue.push_back(callee);
            }
        }
        while let Some(id) = queue.pop_front() {
            let base = paths.get(&id).cloned().unwrap_or_default();
            let caller = &self.ws.fns[id];
            for call in &caller.calls {
                for callee in self.resolve(caller, call) {
                    if paths.contains_key(&callee) {
                        continue;
                    }
                    let mut p = base.clone();
                    p.push(Hop {
                        caller: id,
                        line: call.line,
                        callee,
                    });
                    paths.insert(callee, p);
                    queue.push_back(callee);
                }
            }
        }
        paths
    }

    /// Render a hop chain as human-readable path strings
    /// (`LaneTrellis::forward (crates/coding/src/lanes.rs:164)` …),
    /// one per hop, starting from the root caller.
    pub fn render_path(&self, files: &[std::path::PathBuf], hops: &[Hop]) -> Vec<String> {
        let mut out = Vec::with_capacity(hops.len() + 1);
        if let Some(first) = hops.first() {
            let root = &self.ws.fns[first.caller];
            out.push(format!(
                "{} ({}:{})",
                root.display_name(),
                files[root.file].display(),
                first.line
            ));
        }
        for h in hops {
            let callee = &self.ws.fns[h.callee];
            out.push(format!(
                "{} ({}:{})",
                callee.display_name(),
                files[callee.file].display(),
                callee.line
            ));
        }
        out
    }
}

/// One edge of a reaching path: `caller` invoked `callee` at `line`
/// (of the caller's file).
#[derive(Debug, Clone)]
pub struct Hop {
    /// Calling function.
    pub caller: FnId,
    /// 1-based line of the call site in the caller's file.
    pub line: u32,
    /// Called function.
    pub callee: FnId,
}
