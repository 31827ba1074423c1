//! The workspace call graph and the two rules defined over it:
//!
//! * **R6** — transitive hot-path purity. Every function reachable from a
//!   `#[hot_path]` fn is scanned for allocation, panic, and wall-clock
//!   sinks; a hit is reported at the sink's call site with the full
//!   witness path from a hot root (`simulate_location_day →
//!   resolve_susceptible → cands.push → Vec::push`).
//! * **R7** — lock-order discipline. `simlint.toml` declares a total
//!   order over named locks; a lexical guard-liveness walk over each
//!   scoped fn (plus the transitive lock-entry sets of its callees) flags
//!   any acquisition at or above the rank of a guard that is still live.
//!
//! Resolution is name-based and deliberately conservative — precision
//! rules are documented on [`CallGraph::resolve`]. Unresolvable calls
//! fall through to the sink tables, so `scratch.push(x)` is an
//! allocation even though `Vec::push` is not workspace code.

use crate::diag::Finding;
use crate::lexer::TokenKind;
use crate::policy::{in_scope, Policy};
use crate::symbols::{Callee, FnDef};
use crate::SourceFile;
use std::collections::{BTreeMap, VecDeque};

/// `(file index, fn index within that file)`.
pub type FnId = (usize, usize);

/// Method names so generic that cross-file name matching would wire
/// unrelated types together (`.load()` on an atomic is not
/// `Config::load`). These resolve only through an exact owner match.
const COMMON_METHODS: &[&str] = &[
    "add",
    "append",
    "as_mut",
    "as_mut_ptr",
    "as_ptr",
    "as_ref",
    "cast",
    "clear",
    "clone",
    "contains",
    "default",
    "drain",
    "drop",
    "extend",
    "filter",
    "fold",
    "from",
    "get",
    "get_mut",
    "display",
    "insert",
    "into",
    "is_empty",
    "iter",
    "iter_mut",
    "join",
    "len",
    "load",
    "lock",
    "map",
    "max",
    "min",
    "new",
    "next",
    "offset",
    "pop",
    "push",
    "read",
    "recv",
    "remaining",
    "remove",
    "resize",
    "retain",
    "send",
    "store",
    "sub",
    "swap",
    "take",
    "try_lock",
    "try_read",
    "try_write",
    "wrapping_add",
    "wrapping_sub",
    "write",
];

/// Allocation sinks by method name, with the canonical name shown at the
/// end of the witness path.
const ALLOC_METHODS: &[(&str, &str)] = &[
    ("push", "Vec::push"),
    ("push_back", "VecDeque::push_back"),
    ("push_front", "VecDeque::push_front"),
    ("extend", "Extend::extend"),
    ("extend_from_slice", "Vec::extend_from_slice"),
    ("append", "Vec::append"),
    ("insert", "Map::insert"),
    ("reserve", "Vec::reserve"),
    ("reserve_exact", "Vec::reserve_exact"),
    ("resize", "Vec::resize"),
    ("resize_with", "Vec::resize_with"),
    ("to_vec", "[T]::to_vec"),
    ("to_string", "ToString::to_string"),
    ("to_owned", "ToOwned::to_owned"),
    ("collect", "Iterator::collect"),
];

/// Allocation sinks by `Type::fn` qualified form.
const ALLOC_QUALIFIED: &[(&str, &str)] = &[
    ("Vec", "new"),
    ("Vec", "with_capacity"),
    ("VecDeque", "new"),
    ("VecDeque", "with_capacity"),
    ("Box", "new"),
    ("String", "new"),
    ("String", "from"),
    ("String", "with_capacity"),
    ("Arc", "new"),
    ("Rc", "new"),
    ("BTreeMap", "new"),
    ("BTreeSet", "new"),
    ("HashMap", "new"),
    ("HashSet", "new"),
];

const ALLOC_MACROS: &[&str] = &["vec", "format"];

const PANIC_METHODS: &[&str] = &["unwrap", "expect"];

const PANIC_MACROS: &[&str] = &[
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];

/// Wall-clock sinks (`debug_assert*` is excluded from the panic set: it
/// compiles out of the release builds the hot-path contract covers).
const CLOCK_QUALIFIED: &[(&str, &str)] = &[("Instant", "now"), ("SystemTime", "now")];

/// What a sink is, for the diagnostic text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SinkKind {
    Alloc,
    Panic,
    Clock,
}

impl SinkKind {
    fn describe(self) -> &'static str {
        match self {
            SinkKind::Alloc => "allocation",
            SinkKind::Panic => "a panic path",
            SinkKind::Clock => "a wall-clock read",
        }
    }
}

/// Classify an unresolved callee against the sink tables.
fn sink_of(callee: &Callee) -> Option<(SinkKind, String)> {
    match callee {
        Callee::Method { name, .. } | Callee::SelfMethod(name) => {
            if let Some((_, canon)) = ALLOC_METHODS.iter().find(|(n, _)| n == name) {
                return Some((SinkKind::Alloc, (*canon).to_string()));
            }
            if PANIC_METHODS.contains(&name.as_str()) {
                return Some((SinkKind::Panic, format!(".{name}()")));
            }
            None
        }
        Callee::Qualified { ty, name } => {
            if ALLOC_QUALIFIED.iter().any(|(t, n)| t == ty && n == name) {
                return Some((SinkKind::Alloc, format!("{ty}::{name}")));
            }
            if CLOCK_QUALIFIED.iter().any(|(t, n)| t == ty && n == name) {
                return Some((SinkKind::Clock, format!("{ty}::{name}")));
            }
            None
        }
        Callee::Macro(name) => {
            if ALLOC_MACROS.contains(&name.as_str()) {
                return Some((SinkKind::Alloc, format!("{name}!")));
            }
            if PANIC_MACROS.contains(&name.as_str()) {
                return Some((SinkKind::Panic, format!("{name}!")));
            }
            None
        }
        Callee::Plain(_) => None,
    }
}

/// The workspace symbol table plus resolved call edges.
pub struct CallGraph {
    /// Free fns by name (non-test only).
    free_by_name: BTreeMap<String, Vec<FnId>>,
    /// Free fns by (file, name), test fns included.
    free_same_file: BTreeMap<(usize, String), Vec<FnId>>,
    /// Methods by name (non-test only).
    methods_by_name: BTreeMap<String, Vec<FnId>>,
    /// Methods by (owner, name).
    methods_by_owner: BTreeMap<(String, String), Vec<FnId>>,
}

impl CallGraph {
    pub fn build(files: &[SourceFile]) -> CallGraph {
        let mut g = CallGraph {
            free_by_name: BTreeMap::new(),
            free_same_file: BTreeMap::new(),
            methods_by_name: BTreeMap::new(),
            methods_by_owner: BTreeMap::new(),
        };
        for (fi, file) in files.iter().enumerate() {
            for (di, def) in file.syms.fns.iter().enumerate() {
                let id = (fi, di);
                match &def.owner {
                    None => {
                        g.free_same_file
                            .entry((fi, def.name.clone()))
                            .or_default()
                            .push(id);
                        if !def.in_test_mod {
                            g.free_by_name.entry(def.name.clone()).or_default().push(id);
                        }
                    }
                    Some(owner) => {
                        g.methods_by_owner
                            .entry((owner.clone(), def.name.clone()))
                            .or_default()
                            .push(id);
                        if !def.in_test_mod {
                            g.methods_by_name
                                .entry(def.name.clone())
                                .or_default()
                                .push(id);
                        }
                    }
                }
            }
        }
        g
    }

    /// Resolve a call site to workspace definitions. Empty = external
    /// (std, a dependency, or too ambiguous to wire safely):
    ///
    /// * plain calls: same-file free fns, else all same-name free fns;
    /// * `self.m(…)`: the enclosing impl type's `m`, else the unique-owner
    ///   rule below;
    /// * `recv.m(…)`: unresolved if `m` is a [`COMMON_METHODS`] name;
    ///   otherwise resolved iff every workspace method named `m` belongs
    ///   to a single owner type;
    /// * `Type::m(…)` / `Self::m(…)`: exact owner match.
    pub fn resolve(&self, caller_file: usize, caller: &FnDef, callee: &Callee) -> Vec<FnId> {
        match callee {
            Callee::Plain(name) => {
                if let Some(v) = self.free_same_file.get(&(caller_file, name.clone())) {
                    return v.clone();
                }
                self.free_by_name.get(name).cloned().unwrap_or_default()
            }
            Callee::SelfMethod(name) => {
                if let Some(owner) = &caller.owner {
                    if let Some(v) = self.methods_by_owner.get(&(owner.clone(), name.clone())) {
                        return v.clone();
                    }
                }
                self.unique_owner(name)
            }
            Callee::Method { name, .. } => {
                if COMMON_METHODS.contains(&name.as_str()) {
                    return Vec::new();
                }
                self.unique_owner(name)
            }
            Callee::Qualified { ty, name } => {
                let owner = if ty == "Self" {
                    match &caller.owner {
                        Some(o) => o.clone(),
                        None => return Vec::new(),
                    }
                } else {
                    ty.clone()
                };
                self.methods_by_owner
                    .get(&(owner, name.clone()))
                    .cloned()
                    .unwrap_or_default()
            }
            Callee::Macro(_) => Vec::new(),
        }
    }

    /// All workspace methods named `name`, iff they agree on one owner.
    fn unique_owner(&self, name: &str) -> Vec<FnId> {
        let Some(defs) = self.methods_by_name.get(name) else {
            return Vec::new();
        };
        defs.clone()
    }
}

fn def(files: &[SourceFile], id: FnId) -> &FnDef {
    &files[id.0].syms.fns[id.1]
}

/// Display form of a fn for witness paths: `Owner::name` for methods,
/// `filestem::name` for free fns.
fn fn_display(files: &[SourceFile], id: FnId) -> String {
    let d = def(files, id);
    match &d.owner {
        Some(o) => format!("{o}::{}", d.name),
        None => {
            let stem = files[id.0]
                .rel
                .rsplit('/')
                .next()
                .and_then(|f| f.strip_suffix(".rs"))
                .unwrap_or("?");
            format!("{stem}::{}", d.name)
        }
    }
}

/// Guard the `unique_owner` rule: resolution is taken only when all defs
/// share one owner type.
fn owners_agree(files: &[SourceFile], ids: &[FnId]) -> bool {
    let mut owners = ids.iter().map(|&id| def(files, id).owner.as_deref());
    let first = owners.next().flatten();
    first.is_some() && owners.all(|o| o == first)
}

/// R6: transitive hot-path purity.
pub fn rule_r6(files: &[SourceFile], graph: &CallGraph) -> Vec<Finding> {
    // BFS the hot closure, remembering one witness parent per fn.
    let mut parent: BTreeMap<FnId, Option<FnId>> = BTreeMap::new();
    let mut queue: VecDeque<FnId> = VecDeque::new();
    for (fi, file) in files.iter().enumerate() {
        for (di, d) in file.syms.fns.iter().enumerate() {
            if d.is_hot && !d.in_test_mod {
                parent.insert((fi, di), None);
                queue.push_back((fi, di));
            }
        }
    }
    let mut findings = Vec::new();
    while let Some(id) = queue.pop_front() {
        let d = def(files, id);
        for call in &d.calls {
            let resolved = filtered_resolution(files, graph, id.0, d, &call.callee);
            if resolved.is_empty() {
                if let Some((kind, canon)) = sink_of(&call.callee) {
                    let mut path = witness_path(files, &parent, id);
                    let display = call.callee.display();
                    if display != canon {
                        path.push(display);
                    }
                    path.push(canon.clone());
                    findings.push(Finding {
                        rule: "R6".into(),
                        file: files[id.0].rel.clone(),
                        line: call.line,
                        col: call.col,
                        message: format!(
                            "hot path reaches {}: {} — `#[hot_path]` code must not reach \
                             allocation, panics, or the wall clock through any call chain",
                            kind.describe(),
                            path.join(" → "),
                        ),
                        path,
                        waived: None,
                    });
                }
                continue;
            }
            for callee_id in resolved {
                if def(files, callee_id).in_test_mod {
                    continue;
                }
                parent.entry(callee_id).or_insert_with(|| {
                    queue.push_back(callee_id);
                    Some(id)
                });
            }
        }
    }
    findings
}

/// Resolution with the unique-owner agreement check applied (kept out of
/// `CallGraph::resolve` so the lock pass shares the exact same edges).
fn filtered_resolution(
    files: &[SourceFile],
    graph: &CallGraph,
    caller_file: usize,
    caller: &FnDef,
    callee: &Callee,
) -> Vec<FnId> {
    let ids = graph.resolve(caller_file, caller, callee);
    match callee {
        // The unique-owner rule backs these two shapes; demand agreement.
        Callee::Method { .. } => {
            if owners_agree(files, &ids) {
                ids
            } else {
                Vec::new()
            }
        }
        Callee::SelfMethod(_) => {
            if ids.is_empty() || owners_agree(files, &ids) {
                ids
            } else {
                Vec::new()
            }
        }
        _ => ids,
    }
}

/// Reconstruct the hot-root → … → `id` chain from BFS parents.
fn witness_path(
    files: &[SourceFile],
    parent: &BTreeMap<FnId, Option<FnId>>,
    id: FnId,
) -> Vec<String> {
    let mut chain = vec![id];
    let mut cur = id;
    while let Some(Some(p)) = parent.get(&cur) {
        chain.push(*p);
        cur = *p;
    }
    chain.reverse();
    chain.into_iter().map(|f| fn_display(files, f)).collect()
}

/// R7: lock-order discipline.
///
/// `policy.r7_order` ranks lock field names outermost-first. Within each
/// scoped file, a linear walk tracks which guards are live (let-bound
/// guards die at block end or `drop(name)`; temporaries at statement
/// end) and flags any acquisition whose rank is ≤ a live guard's rank —
/// including acquisitions made transitively by a callee.
pub fn rule_r7(files: &[SourceFile], graph: &CallGraph, policy: &Policy) -> Vec<Finding> {
    if policy.r7_order.is_empty() {
        return Vec::new();
    }
    // Transitive lock-entry sets: fn → {rank → witness callee chain}.
    let mut enters: BTreeMap<FnId, BTreeMap<usize, Vec<FnId>>> = BTreeMap::new();
    for (fi, file) in files.iter().enumerate() {
        for (di, d) in file.syms.fns.iter().enumerate() {
            let direct: BTreeMap<usize, Vec<FnId>> = direct_acquisitions(file, d, policy)
                .into_iter()
                .map(|a| (a.rank, Vec::new()))
                .collect();
            enters.insert((fi, di), direct);
        }
    }
    // Fixpoint propagation over resolved call edges.
    loop {
        let mut changed = false;
        for (fi, file) in files.iter().enumerate() {
            for (di, d) in file.syms.fns.iter().enumerate() {
                for call in &d.calls {
                    for callee_id in filtered_resolution(files, graph, fi, d, &call.callee) {
                        let from = enters.get(&callee_id).cloned().unwrap_or_default();
                        let into = enters.entry((fi, di)).or_default();
                        for (rank, chain) in from {
                            into.entry(rank).or_insert_with(|| {
                                changed = true;
                                let mut c = vec![callee_id];
                                c.extend(chain);
                                c
                            });
                        }
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    let mut findings = Vec::new();
    for (fi, file) in files.iter().enumerate() {
        if !in_scope(&file.rel, &policy.r7_scope) {
            continue;
        }
        for d in &file.syms.fns {
            if d.in_test_mod {
                continue;
            }
            scan_fn_lock_order(files, graph, policy, fi, d, &enters, &mut findings);
        }
    }
    findings
}

/// One direct lock acquisition inside a fn body.
struct Acquisition {
    rank: usize,
    /// Token index of the acquisition (the method or helper name).
    tok: usize,
}

/// Direct acquisitions: `name.lock()` / `.read()` / `.write()` (and
/// `try_` forms) where `name` is a ranked lock, plus guard-returning
/// helper calls (`lock_recover(&self.health)`) whose argument names one.
fn direct_acquisitions(file: &SourceFile, d: &FnDef, policy: &Policy) -> Vec<Acquisition> {
    const LOCK_METHODS: &[&str] = &["lock", "read", "write", "try_lock", "try_read", "try_write"];
    let tokens = &file.lexed.tokens;
    let mut out = Vec::new();
    for call in &d.calls {
        match &call.callee {
            Callee::Method { recv, name } if LOCK_METHODS.contains(&name.as_str()) => {
                if let Some(rank) = policy.r7_order.iter().position(|l| l == recv) {
                    out.push(Acquisition {
                        rank,
                        tok: call.tok,
                    });
                }
            }
            Callee::Plain(name) if policy.r7_helpers.contains(name) => {
                // Find the first ranked-lock ident among the arguments.
                let open = (call.tok + 1..tokens.len())
                    .find(|&k| tokens[k].kind.is_punct('('))
                    .unwrap_or(call.tok + 1);
                if let Some(close) = crate::rules::matching_close(tokens, open, '(', ')') {
                    let rank = tokens[open..close].iter().find_map(|t| {
                        t.kind
                            .ident()
                            .and_then(|id| policy.r7_order.iter().position(|l| l == id))
                    });
                    if let Some(rank) = rank {
                        out.push(Acquisition {
                            rank,
                            tok: call.tok,
                        });
                    }
                }
            }
            _ => {}
        }
    }
    out
}

/// A guard that is currently live during the lexical walk.
struct LiveGuard {
    rank: usize,
    /// Lock name, for diagnostics.
    lock: String,
    /// The binding ident for `let g = …` guards (killed by `drop(g)`).
    ident: Option<String>,
    /// Brace depth at the binding; the guard dies when depth drops below.
    depth: usize,
    /// Statement-temporary: additionally dies at the next `;` at `depth`.
    stmt: bool,
    line: u32,
}

fn scan_fn_lock_order(
    files: &[SourceFile],
    graph: &CallGraph,
    policy: &Policy,
    fi: usize,
    d: &FnDef,
    enters: &BTreeMap<FnId, BTreeMap<usize, Vec<FnId>>>,
    findings: &mut Vec<Finding>,
) {
    let file = &files[fi];
    let tokens = &file.lexed.tokens;
    let acquisitions: BTreeMap<usize, usize> = direct_acquisitions(file, d, policy)
        .into_iter()
        .map(|a| (a.tok, a.rank))
        .collect();
    let calls_by_tok: BTreeMap<usize, &Callee> =
        d.calls.iter().map(|c| (c.tok, &c.callee)).collect();

    let mut live: Vec<LiveGuard> = Vec::new();
    let mut depth = 0usize;
    // Pending `let` binding name, cleared at `;`.
    let mut pending_let: Option<Option<String>> = None;

    let (open, close) = d.body;
    let mut i = open;
    while i <= close {
        let t = &tokens[i];
        match &t.kind {
            TokenKind::Punct('{') => depth += 1,
            TokenKind::Punct('}') => {
                depth = depth.saturating_sub(1);
                live.retain(|g| g.depth <= depth);
            }
            TokenKind::Punct(';') => {
                live.retain(|g| !(g.stmt && g.depth == depth));
                pending_let = None;
            }
            TokenKind::Ident(id) if id == "let" => {
                let mut k = i + 1;
                if tokens.get(k).is_some_and(|t| t.kind.is_ident("mut")) {
                    k += 1;
                }
                let name = tokens.get(k).and_then(|t| t.kind.ident()).and_then(|n| {
                    // A plain `let name =` binding; anything else (a
                    // pattern) is tracked anonymously.
                    let next_is_eq = tokens
                        .get(k + 1)
                        .is_some_and(|t| t.kind.is_punct('=') || t.kind.is_punct(':'));
                    next_is_eq.then(|| n.to_string())
                });
                pending_let = Some(name);
            }
            // `drop(name)` releases a let-bound guard early.
            TokenKind::Ident(id)
                if id == "drop" && tokens.get(i + 1).is_some_and(|t| t.kind.is_punct('(')) =>
            {
                if let Some(name) = tokens.get(i + 2).and_then(|t| t.kind.ident()) {
                    live.retain(|g| g.ident.as_deref() != Some(name));
                }
            }
            _ => {}
        }
        if let Some(&rank) = acquisitions.get(&i) {
            let lock = policy.r7_order[rank].clone();
            check_acquisition(
                &lock, rank, t.line, t.col, &live, &file.rel, policy, None, findings,
            );
            live.push(LiveGuard {
                rank,
                lock,
                ident: pending_let.clone().flatten(),
                depth,
                stmt: pending_let.is_none(),
                line: t.line,
            });
        } else if let Some(callee) = calls_by_tok.get(&i) {
            let resolved = filtered_resolution(files, graph, fi, d, callee);
            if !resolved.is_empty() {
                let callee_id = resolved[0];
                let callee_def = def(files, callee_id);
                let entered = enters.get(&callee_id).cloned().unwrap_or_default();
                for (rank, chain) in &entered {
                    let mut via = vec![fn_display(files, callee_id)];
                    via.extend(chain.iter().map(|&c| fn_display(files, c)));
                    check_acquisition(
                        &policy.r7_order[*rank],
                        *rank,
                        t.line,
                        t.col,
                        &live,
                        &file.rel,
                        policy,
                        Some(&via),
                        findings,
                    );
                }
                if callee_def.returns_guard {
                    for (rank, _) in entered {
                        live.push(LiveGuard {
                            rank,
                            lock: policy.r7_order[rank].clone(),
                            ident: pending_let.clone().flatten(),
                            depth,
                            stmt: pending_let.is_none(),
                            line: t.line,
                        });
                    }
                }
            }
        }
        i += 1;
    }
}

#[allow(clippy::too_many_arguments)]
fn check_acquisition(
    lock: &str,
    rank: usize,
    line: u32,
    col: u32,
    live: &[LiveGuard],
    rel: &str,
    policy: &Policy,
    via: Option<&[String]>,
    findings: &mut Vec<Finding>,
) {
    let Some(held) = live
        .iter()
        .filter(|g| g.rank >= rank)
        .max_by_key(|g| g.rank)
    else {
        return;
    };
    let via_text = via
        .map(|v| format!(" via `{}`", v.join(" → ")))
        .unwrap_or_default();
    let message = if held.rank == rank {
        format!(
            "lock `{lock}` re-acquired{via_text} while its own guard (line {}) is still live — \
             self-deadlock on std::sync::Mutex",
            held.line
        )
    } else {
        format!(
            "lock `{lock}` (rank {rank}) acquired{via_text} while `{}` (rank {}, line {}) is \
             held — declared order is {}",
            held.lock,
            held.rank,
            held.line,
            policy.r7_order.join(" → "),
        )
    };
    let mut path: Vec<String> = via.map(|v| v.to_vec()).unwrap_or_default();
    path.push(lock.to_string());
    findings.push(Finding {
        rule: "R7".into(),
        file: rel.into(),
        line,
        col,
        message,
        path,
        waived: None,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::symbols::extract;

    fn file(rel: &str, src: &str) -> SourceFile {
        let lexed = lex(src);
        let syms = extract(&lexed);
        SourceFile {
            rel: rel.to_string(),
            lexed,
            syms,
        }
    }

    fn lock_policy() -> Policy {
        Policy {
            r7_scope: vec!["src".into()],
            r7_order: vec!["state".into(), "topic_state".into()],
            r7_helpers: vec!["lock_helper".into()],
            ..Policy::default()
        }
    }

    #[test]
    fn r6_reports_a_two_deep_witness_path() {
        let files = vec![file(
            "src/kernel.rs",
            "#[hot_path]\nfn step(s: &mut Scratch) { mid(s); }\n\
             fn mid(s: &mut Scratch) { leaf(s); }\n\
             fn leaf(s: &mut Scratch) { s.buf.push(1); }\n",
        )];
        let graph = CallGraph::build(&files);
        let findings = rule_r6(&files, &graph);
        assert_eq!(findings.len(), 1, "{findings:?}");
        let f = &findings[0];
        assert_eq!(f.rule, "R6");
        assert_eq!(
            f.path,
            vec![
                "kernel::step",
                "kernel::mid",
                "kernel::leaf",
                "buf.push",
                "Vec::push"
            ]
        );
        assert!(f
            .message
            .contains("kernel::step → kernel::mid → kernel::leaf"));
    }

    #[test]
    fn r6_ignores_cold_fns_and_survives_recursion() {
        let files = vec![file(
            "src/a.rs",
            "fn cold() { Vec::new(); }\n\
             #[hot_path]\nfn hot(n: u32) { if n > 0 { hot(n - 1); } helper(); }\n\
             fn helper() { work(); }\nfn work() {}\n",
        )];
        let graph = CallGraph::build(&files);
        assert!(rule_r6(&files, &graph).is_empty());
    }

    #[test]
    fn r6_sees_panic_and_clock_sinks() {
        let files = vec![file(
            "src/a.rs",
            "#[hot_path]\nfn hot(x: Option<u32>) { tick(); x.unwrap(); }\n\
             fn tick() { let t = Instant::now(); }\n",
        )];
        let graph = CallGraph::build(&files);
        let findings = rule_r6(&files, &graph);
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings.iter().any(|f| f.message.contains("wall-clock")));
        assert!(findings.iter().any(|f| f.message.contains("panic")));
    }

    #[test]
    fn r7_flags_out_of_order_nesting_and_allows_declared_order() {
        let src = "\
fn bad(a: &L, b: &L) {\n\
    let g = topic_state.lock();\n\
    let h = state.lock();\n\
}\n\
fn good(a: &L, b: &L) {\n\
    let g = state.lock();\n\
    let h = topic_state.lock();\n\
}\n\
fn dropped(a: &L) {\n\
    let g = topic_state.lock();\n\
    drop(g);\n\
    let h = state.lock();\n\
}\n";
        let files = vec![file("src/m.rs", src)];
        let graph = CallGraph::build(&files);
        let findings = rule_r7(&files, &graph, &lock_policy());
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].line, 3);
        assert!(findings[0].message.contains("declared order"));
    }

    #[test]
    fn r7_tracks_transitive_acquisition_through_helpers() {
        let src = "\
fn publish_under_lock() {\n\
    let g = topic_state.lock();\n\
    helper_locks_state();\n\
}\n\
fn helper_locks_state() {\n\
    let s = lock_helper(&state);\n\
}\n";
        let files = vec![file("src/m.rs", src)];
        let graph = CallGraph::build(&files);
        let findings = rule_r7(&files, &graph, &lock_policy());
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("via"), "{findings:?}");
        assert!(findings[0].path.contains(&"state".to_string()));
    }

    #[test]
    fn r7_stmt_temporaries_die_at_statement_end() {
        let src = "\
fn ok() {\n\
    topic_state.lock().touch();\n\
    let g = state.lock();\n\
}\n";
        let files = vec![file("src/m.rs", src)];
        let graph = CallGraph::build(&files);
        assert!(rule_r7(&files, &graph, &lock_policy()).is_empty());
    }

    #[test]
    fn r7_self_relock_is_a_finding() {
        let src = "fn twice() { let a = state.lock(); let b = state.lock(); }";
        let files = vec![file("src/m.rs", src)];
        let graph = CallGraph::build(&files);
        let findings = rule_r7(&files, &graph, &lock_policy());
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("self-deadlock"));
    }
}
