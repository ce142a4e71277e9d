//! Intra-crate call graph over the [`WorkspaceModel`].
//!
//! Resolution is name-based and deliberately crate-local: the rule
//! that consumes the graph (D008 lineage propagation) is about an
//! invariant *within* a subsystem, and cross-crate name resolution
//! without type inference would be guesswork.
//!
//! [`CallGraph::resolve_unambiguous`] returns a single candidate or
//! nothing: connecting a call to the *wrong* callee would invent a
//! collision (a false positive), so an ambiguous call contributes no
//! edge. [`CallGraph::resolve_all`] lists every plausible candidate.

use std::collections::BTreeMap;

use crate::model::{CallSite, FnModel, WorkspaceModel};

/// Identifies one function: `(file index, fn index)` into the model.
pub type FnId = (usize, usize);

/// The crate grouping key for a path: the crate name under `crates/`,
/// otherwise the first path segment (`tests`, `xtask`, …).
pub fn crate_key(path: &str) -> &str {
    path.strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
        .or_else(|| path.split('/').next())
        .unwrap_or(path)
}

/// Per-crate symbol index + call-site resolver.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// `(crate, fn name)` → fn ids, in model (path, index) order.
    by_name: BTreeMap<(String, String), Vec<FnId>>,
    /// `(crate, container, fn name)` → fn ids.
    by_container: BTreeMap<(String, String, String), Vec<FnId>>,
}

impl CallGraph {
    /// Index every function in the model.
    pub fn build(model: &WorkspaceModel) -> Self {
        let mut g = CallGraph::default();
        for (fi, file) in model.files.iter().enumerate() {
            let krate = crate_key(&file.path).to_string();
            for (ki, f) in file.fns.iter().enumerate() {
                let id = (fi, ki);
                g.by_name
                    .entry((krate.clone(), f.item.name.clone()))
                    .or_default()
                    .push(id);
                if let Some(c) = &f.item.container {
                    g.by_container
                        .entry((krate.clone(), c.clone(), f.item.name.clone()))
                        .or_default()
                        .push(id);
                }
            }
        }
        g
    }

    /// The function a `FnId` points at.
    pub fn func<'m>(&self, model: &'m WorkspaceModel, id: FnId) -> &'m FnModel {
        &model.files[id.0].fns[id.1]
    }

    /// Every plausible callee for `call` made from `caller`.
    pub fn resolve_all(&self, model: &WorkspaceModel, caller: FnId, call: &CallSite) -> Vec<FnId> {
        let krate = crate_key(&model.files[caller.0].path).to_string();
        // `Self::helper(…)` resolves against the caller's own impl type.
        let qualifier = call.qualifier.as_deref().map(|q| {
            if q == "Self" {
                self.func(model, caller)
                    .item
                    .container
                    .clone()
                    .unwrap_or_else(|| q.to_string())
            } else {
                q.to_string()
            }
        });
        match qualifier {
            Some(q) => self
                .by_container
                .get(&(krate, q, call.callee.clone()))
                .cloned()
                .unwrap_or_default(),
            None => {
                let all = self
                    .by_name
                    .get(&(krate, call.callee.clone()))
                    .cloned()
                    .unwrap_or_default();
                if call.method {
                    // Method syntax prefers impl'd fns; fall back to
                    // any same-named fn (the parser may have missed the
                    // impl container in unusual layouts).
                    let methods: Vec<FnId> = all
                        .iter()
                        .copied()
                        .filter(|&id| self.func(model, id).item.container.is_some())
                        .collect();
                    if methods.is_empty() {
                        all
                    } else {
                        methods
                    }
                } else {
                    // Plain calls prefer free fns; fall back to any
                    // (`use Type::assoc` imports are rare but legal).
                    let free: Vec<FnId> = all
                        .iter()
                        .copied()
                        .filter(|&id| self.func(model, id).item.container.is_none())
                        .collect();
                    if free.is_empty() {
                        all
                    } else {
                        free
                    }
                }
            }
        }
    }

    /// The unique callee, or `None` when resolution is ambiguous.
    pub fn resolve_unambiguous(
        &self,
        model: &WorkspaceModel,
        caller: FnId,
        call: &CallSite,
    ) -> Option<FnId> {
        let c = self.resolve_all(model, caller, call);
        match c.as_slice() {
            [one] => Some(*one),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{extract_source, WorkspaceModel};

    fn model(files: &[(&str, &str)]) -> WorkspaceModel {
        WorkspaceModel::from_files(files.iter().map(|(p, s)| extract_source(p, s)).collect())
    }

    #[test]
    fn free_fn_resolution_is_crate_local() {
        let m = model(&[
            (
                "crates/faas/src/a.rs",
                "fn caller() { helper(); } fn helper() {}",
            ),
            ("crates/core/src/b.rs", "fn helper() {}"),
        ]);
        // Model files are sorted by path: core is file 0, faas file 1.
        let g = CallGraph::build(&m);
        let caller = (1, 0);
        let call = &g.func(&m, caller).facts.calls[0];
        assert_eq!(g.resolve_all(&m, caller, call), vec![(1, 1)]);
    }

    #[test]
    fn qualified_calls_resolve_by_container() {
        let m = model(&[(
            "crates/faas/src/a.rs",
            "impl Az { fn new() {} } impl Host { fn new() {} } fn f() { Az::new(); }",
        )]);
        let g = CallGraph::build(&m);
        let f = (0, 2);
        let call = &g.func(&m, f).facts.calls[0];
        assert_eq!(g.resolve_unambiguous(&m, f, call), Some((0, 0)));
    }

    #[test]
    fn ambiguous_methods_resolve_to_none_but_all_candidates() {
        let m = model(&[(
            "crates/faas/src/a.rs",
            "impl A { fn go(&self) {} } impl B { fn go(&self) {} } fn f(x: A) { x.go(); }",
        )]);
        let g = CallGraph::build(&m);
        let f = (0, 2);
        let call = &g.func(&m, f).facts.calls[0];
        assert_eq!(g.resolve_unambiguous(&m, f, call), None);
        assert_eq!(g.resolve_all(&m, f, call).len(), 2);
    }
}
