//! `panic-path`: no `unwrap`/`expect`/`panic!` in code reachable from
//! the request-serving entry point (a connection's `serve_conn`) in
//! `crates/wire` / `crates/server` / `crates/journal` (a `Mutate` frame
//! validates, logs and applies its batch on the serving thread). Zones
//! are answered on the serving thread, through `dyn Transport`: a call
//! `transport.atomic(…)` is an
//! edge to every `fn atomic`, the in-process transport's included, so
//! the local store visit is on the walked path without a root of its
//! own. The
//! PR-6 `catch_unwind` containment is a backstop against *bugs*, not a
//! license to panic on malformed input — a panic on the serve path
//! still tears down the connection and poisons any held locks.
//!
//! Reachability is a name-based over-approximation: an identifier
//! called as `name(…)` inside a scanned function body is an edge to
//! every in-scope function of that name (method receivers are not
//! type-resolved). Over-approximation is the right failure mode for a
//! gate — a false edge adds an allowlist entry with a written
//! rationale; a missed edge would hide a real panic.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::lexer::TokKind;
use crate::lints::is_call;
use crate::{Config, Diagnostic, Workspace};

/// Lint name.
pub const NAME: &str = "panic-path";

struct FnRef<'a> {
    file: usize,
    fn_idx: usize,
    name: &'a str,
}

/// Run the lint.
pub fn check(ws: &Workspace, config: &Config) -> Vec<Diagnostic> {
    // Collect non-test functions in the serve-path crates.
    let mut fns: Vec<FnRef<'_>> = Vec::new();
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (fi, file) in ws.files.iter().enumerate() {
        if !config.panic_scope.iter().any(|p| file.rel_path.starts_with(p)) {
            continue;
        }
        for (gi, f) in file.fns.iter().enumerate() {
            if f.is_test {
                continue;
            }
            by_name.entry(f.name.as_str()).or_default().push(fns.len());
            fns.push(FnRef {
                file: fi,
                fn_idx: gi,
                name: &f.name,
            });
        }
    }

    // BFS from the roots, remembering one call path per function for
    // the diagnostic.
    let mut queue: VecDeque<usize> = VecDeque::new();
    let mut via: BTreeMap<usize, String> = BTreeMap::new();
    for root in &config.panic_roots {
        for &idx in by_name.get(*root).into_iter().flatten() {
            via.entry(idx).or_insert_with(|| (*root).to_string());
            queue.push_back(idx);
        }
    }
    let mut seen: BTreeSet<usize> = queue.iter().copied().collect();
    while let Some(idx) = queue.pop_front() {
        let fr = &fns[idx];
        let file = &ws.files[fr.file];
        let body = &file.fns[fr.fn_idx];
        let path_here = via[&idx].clone();
        for i in body.body_open + 1..body.body_close {
            let t = &file.tokens[i];
            if t.kind != TokKind::Ident || !is_call(&file.tokens, i) {
                continue;
            }
            for &callee in by_name.get(t.text.as_str()).into_iter().flatten() {
                if seen.insert(callee) {
                    via.insert(callee, format!("{path_here} -> {}", fns[callee].name));
                    queue.push_back(callee);
                }
            }
        }
    }

    // Scan every reachable body for panic sites.
    let mut out = Vec::new();
    for (&idx, path) in &via {
        let fr = &fns[idx];
        let file = &ws.files[fr.file];
        let body = &file.fns[fr.fn_idx];
        for i in body.body_open + 1..body.body_close {
            let toks = &file.tokens;
            let t = &toks[i];
            if t.kind != TokKind::Ident || file.is_test_tok(i) {
                continue;
            }
            let site = if (t.text == "unwrap" || t.text == "expect") && is_call(toks, i) {
                Some(format!(".{}()", t.text))
            } else if t.text == "panic" && toks.get(i + 1).is_some_and(|n| n.is_punct('!')) {
                Some("panic!".to_string())
            } else {
                None
            };
            if let Some(site) = site {
                out.push(Diagnostic {
                    lint: NAME,
                    file: file.rel_path.clone(),
                    line: t.line,
                    col: t.col,
                    func: Some(fr.name.to_string()),
                    message: format!(
                        "{site} reachable from request handling (via {path}); return a wire error instead"
                    ),
                });
            }
        }
    }
    out
}
