//! The per-file rule implementations (R1–R3, R5, R8) plus the waiver
//! machinery. The call-graph rules (R6 transitive hot-path purity, R7
//! lock order) live in [`crate::graph`]; R4's direct hot-path check was
//! subsumed by R6.
//!
//! Every rule here is a pure function over one file's token stream; rule
//! R5 additionally cross-references two token streams (enum declaration
//! vs. codec bodies). Waivers are parsed out of line comments and applied
//! as a post-pass: a waived finding is kept (with its justification) so
//! the JSON report documents the wall, but it no longer fails the check.
//! A waiver that suppresses nothing is itself a finding (W1), so the
//! wall cannot silently rot as code moves.

use crate::diag::Finding;
use crate::lexer::{Lexed, Token, TokenKind};
use crate::policy::{in_scope, CodecSpec, Policy};
use std::collections::BTreeSet;

/// A parsed `// simlint: allow(R1, R2) -- justification` waiver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Waiver {
    /// Rule ids the waiver covers.
    pub rules: Vec<String>,
    /// Mandatory free-text justification (after `--`).
    pub justification: String,
    /// The code line this waiver applies to: its own line for trailing
    /// comments, the next code line for standalone comments.
    pub applies_line: u32,
    /// Line of the comment itself (for diagnostics).
    pub comment_line: u32,
}

/// Extract waivers from a file's comments. Malformed waivers — a
/// `simlint:` comment that is not `allow(<rules>) -- <justification>` —
/// become `W0` findings, which cannot themselves be waived.
pub fn parse_waivers(path: &str, lexed: &Lexed) -> (Vec<Waiver>, Vec<Finding>) {
    let mut waivers = Vec::new();
    let mut findings = Vec::new();
    for c in &lexed.comments {
        let Some(body) = c.text.strip_prefix("simlint:") else {
            continue;
        };
        match parse_waiver_body(body.trim()) {
            Ok((rules, justification)) => {
                let applies_line = if c.trailing {
                    c.line
                } else {
                    next_code_line(&lexed.tokens, c.line).unwrap_or(c.line)
                };
                waivers.push(Waiver {
                    rules,
                    justification,
                    applies_line,
                    comment_line: c.line,
                });
            }
            Err(msg) => findings.push(Finding {
                rule: "W0".into(),
                file: path.into(),
                line: c.line,
                col: 1,
                message: format!("malformed waiver: {msg}"),
                path: Vec::new(),
                waived: None,
            }),
        }
    }
    (waivers, findings)
}

fn parse_waiver_body(body: &str) -> Result<(Vec<String>, String), String> {
    let rest = body
        .strip_prefix("allow")
        .ok_or("expected `allow(<rules>) -- <justification>`")?
        .trim_start();
    let rest = rest.strip_prefix('(').ok_or("expected `(` after `allow`")?;
    let (rules_str, rest) = rest.split_once(')').ok_or("unclosed `(` in `allow(...)`")?;
    let mut rules = Vec::new();
    for r in rules_str.split(',') {
        let r = r.trim();
        if !matches!(r, "R1" | "R2" | "R3" | "R4" | "R5" | "R6" | "R7" | "R8") {
            return Err(format!("unknown rule id `{r}` (expected R1..R8)"));
        }
        rules.push(r.to_string());
    }
    if rules.is_empty() {
        return Err("empty rule list".into());
    }
    let justification = rest
        .trim_start()
        .strip_prefix("--")
        .map(str::trim)
        .unwrap_or("");
    if justification.is_empty() {
        return Err("missing justification (`-- <why this is safe>`)".into());
    }
    Ok((rules, justification.to_string()))
}

/// First line strictly after `after` that carries a code token.
fn next_code_line(tokens: &[Token], after: u32) -> Option<u32> {
    tokens.iter().map(|t| t.line).find(|&l| l > after)
}

/// Mark findings covered by a waiver on the same line. `W0`/`W1` findings
/// are never waivable. Returns one flag per waiver: did it suppress at
/// least one finding? Unused waivers become W1 stale-waiver findings via
/// [`stale_waiver_findings`].
pub fn apply_waivers(findings: &mut [Finding], waivers: &[Waiver]) -> Vec<bool> {
    let mut used = vec![false; waivers.len()];
    for f in findings.iter_mut() {
        if f.rule == "W0" || f.rule == "W1" {
            continue;
        }
        if let Some((k, w)) = waivers
            .iter()
            .enumerate()
            .find(|(_, w)| w.applies_line == f.line && w.rules.contains(&f.rule))
        {
            f.waived = Some(w.justification.clone());
            used[k] = true;
        }
    }
    used
}

/// W1: a waiver that suppressed nothing. Stale waivers hide real policy —
/// the rule they name either moved or was fixed — so they must be pruned,
/// and (like W0) they cannot themselves be waived.
pub fn stale_waiver_findings(path: &str, waivers: &[Waiver], used: &[bool]) -> Vec<Finding> {
    waivers
        .iter()
        .zip(used)
        .filter(|(_, &u)| !u)
        .map(|(w, _)| Finding {
            rule: "W1".into(),
            file: path.into(),
            line: w.comment_line,
            col: 1,
            message: format!(
                "stale waiver: `allow({})` suppresses no finding on line {} — remove it",
                w.rules.join(", "),
                w.applies_line
            ),
            path: Vec::new(),
            waived: None,
        })
        .collect()
}

/// Line extents (inclusive) of `#[cfg(test)] mod … { … }` bodies. Rules
/// that tolerate panics in tests (R3) skip these regions.
pub fn test_mod_extents(tokens: &[Token]) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if is_cfg_test_attr(tokens, i) {
            // Skip this and any further attributes, then expect `mod`.
            let mut j = i;
            while j < tokens.len() && tokens[j].kind.is_punct('#') {
                match bracket_close(tokens, j + 1) {
                    Some(end) => j = end + 1,
                    None => break,
                }
            }
            if tokens.get(j).is_some_and(|t| t.kind.is_ident("mod")) {
                if let Some(open) = tokens[j..]
                    .iter()
                    .position(|t| t.kind.is_punct('{'))
                    .map(|p| j + p)
                {
                    if let Some(close) = brace_close(tokens, open) {
                        out.push((tokens[open].line, tokens[close].line));
                        i = close + 1;
                        continue;
                    }
                }
            }
        }
        i += 1;
    }
    out
}

fn is_cfg_test_attr(tokens: &[Token], i: usize) -> bool {
    matches!(
        (
            tokens.get(i),
            tokens.get(i + 1),
            tokens.get(i + 2),
            tokens.get(i + 3),
            tokens.get(i + 4),
        ),
        (Some(a), Some(b), Some(c), Some(d), Some(e))
            if a.kind.is_punct('#')
                && b.kind.is_punct('[')
                && c.kind.is_ident("cfg")
                && d.kind.is_punct('(')
                && e.kind.is_ident("test")
    )
}

/// Index of the `]` matching the `[` at `open`.
pub(crate) fn bracket_close(tokens: &[Token], open: usize) -> Option<usize> {
    matching_close(tokens, open, '[', ']')
}

/// Index of the `}` matching the `{` at `open`.
pub(crate) fn brace_close(tokens: &[Token], open: usize) -> Option<usize> {
    matching_close(tokens, open, '{', '}')
}

pub(crate) fn matching_close(tokens: &[Token], open: usize, o: char, c: char) -> Option<usize> {
    if !tokens.get(open)?.kind.is_punct(o) {
        return None;
    }
    let mut depth = 0usize;
    for (idx, t) in tokens.iter().enumerate().skip(open) {
        if t.kind.is_punct(o) {
            depth += 1;
        } else if t.kind.is_punct(c) {
            depth -= 1;
            if depth == 0 {
                return Some(idx);
            }
        }
    }
    None
}

fn in_extents(line: u32, extents: &[(u32, u32)]) -> bool {
    extents.iter().any(|&(a, b)| line >= a && line <= b)
}

/// Token-sequence pattern element.
enum Pat {
    /// Exactly this identifier.
    I(&'static str),
    /// Any one of these identifiers.
    OneOf(&'static [&'static str]),
    /// Exactly this punctuation character.
    P(char),
    /// Any identifier.
    AnyIdent,
    /// An integer literal (digits and underscores only).
    IntLit,
}

fn pat_matches(tokens: &[Token], at: usize, pat: &[Pat]) -> bool {
    if at + pat.len() > tokens.len() {
        return false;
    }
    pat.iter().enumerate().all(|(k, p)| {
        let kind = &tokens[at + k].kind;
        match p {
            Pat::I(s) => kind.is_ident(s),
            Pat::OneOf(names) => names.iter().any(|s| kind.is_ident(s)),
            Pat::P(c) => kind.is_punct(*c),
            Pat::AnyIdent => kind.ident().is_some(),
            Pat::IntLit => matches!(
                kind,
                TokenKind::Literal(l)
                    if !l.is_empty()
                        && l.bytes().next().is_some_and(|b| b.is_ascii_digit())
                        && l.bytes().all(|b| b.is_ascii_digit() || b == b'_')
            ),
        }
    })
}

/// Scan `tokens` for every occurrence of any pattern, reporting a finding
/// anchored at `pat[report]` with `message(matched_pattern_index)`.
fn scan_patterns(
    path: &str,
    tokens: &[Token],
    rule: &str,
    patterns: &[(&[Pat], usize, &str)],
    skip: &[(u32, u32)],
    range: Option<(usize, usize)>,
) -> Vec<Finding> {
    let (lo, hi) = range.unwrap_or((0, tokens.len()));
    let mut out = Vec::new();
    for i in lo..hi {
        for (pat, report, message) in patterns {
            if pat_matches(tokens, i, pat) {
                let anchor = &tokens[i + report.min(&(pat.len() - 1))];
                if in_extents(anchor.line, skip) {
                    continue;
                }
                out.push(Finding {
                    rule: rule.into(),
                    file: path.into(),
                    line: anchor.line,
                    col: anchor.col,
                    message: (*message).into(),
                    path: Vec::new(),
                    waived: None,
                });
            }
        }
    }
    out
}

/// R1: default-hasher `HashMap`/`HashSet` in determinism-scoped crates.
/// Iteration order of `RandomState` maps varies per process, which breaks
/// the cross-engine `curve_hash` conformance contract, so the scoped
/// crates must use `BTreeMap`/`BTreeSet` (or a seeded hasher behind a
/// waiver).
pub fn rule_r1(path: &str, lexed: &Lexed, policy: &Policy) -> Vec<Finding> {
    if !in_scope(path, &policy.r1_scope) {
        return Vec::new();
    }
    const PATS: &[(&[Pat], usize, &str)] = &[
        (
            &[Pat::I("HashMap")],
            0,
            "`HashMap` (default RandomState hasher) in a determinism-scoped crate; \
             use `BTreeMap` or a seeded hasher",
        ),
        (
            &[Pat::I("HashSet")],
            0,
            "`HashSet` (default RandomState hasher) in a determinism-scoped crate; \
             use `BTreeSet` or a seeded hasher",
        ),
    ];
    scan_patterns(path, &lexed.tokens, "R1", PATS, &[], None)
}

/// R2: wall-clock reads outside policy-allowed paths. Virtual time (GVT)
/// is the only clock the simulation may observe; `Instant::now` /
/// `SystemTime` in engine code silently de-syncs replay and DST runs.
pub fn rule_r2(path: &str, lexed: &Lexed, policy: &Policy) -> Vec<Finding> {
    if in_scope(path, &policy.r2_allow) {
        return Vec::new();
    }
    const PATS: &[(&[Pat], usize, &str)] = &[
        (
            &[Pat::I("Instant"), Pat::P(':'), Pat::P(':'), Pat::I("now")],
            0,
            "wall-clock read (`Instant::now`) outside an allowed watchdog/bench scope",
        ),
        (
            &[Pat::I("SystemTime")],
            0,
            "wall-clock type (`SystemTime`) outside an allowed watchdog/bench scope",
        ),
    ];
    scan_patterns(path, &lexed.tokens, "R2", PATS, &[], None)
}

/// The `Buf` getters that panic on a short buffer (R3).
const PANICKING_GETTERS: &[&str] = &[
    "get_u8",
    "get_u16_le",
    "get_u32_le",
    "get_u64_le",
    "get_f32_le",
    "get_f64_le",
    "copy_to_slice",
];

/// R3: panic paths in the net transport and the binary codecs. A peer
/// disconnect must surface as `TransportError`, and malformed bytes as a
/// typed decode error, not a panic: a panicking comm thread takes down
/// the process with exit 101 and the conformance harness cannot tell a
/// clean failure from a crash. Besides `unwrap`/`expect`/`panic!`/
/// `unreachable!` and literal indexing, it flags the panicking `Buf`
/// getters (`get_u8` … `get_f64_le`, `copy_to_slice`): codecs read with
/// the fallible `try_get_*` forms. Skips `#[cfg(test)]` modules.
pub fn rule_r3(path: &str, lexed: &Lexed, policy: &Policy) -> Vec<Finding> {
    if !in_scope(path, &policy.r3_scope) {
        return Vec::new();
    }
    let skip = test_mod_extents(&lexed.tokens);
    const PATS: &[(&[Pat], usize, &str)] = &[
        (
            &[Pat::P('.'), Pat::I("unwrap"), Pat::P('(')],
            1,
            "`.unwrap()` in a transport path; propagate `TransportError` instead",
        ),
        (
            &[Pat::P('.'), Pat::I("expect"), Pat::P('(')],
            1,
            "`.expect()` in a transport path; propagate `TransportError` instead",
        ),
        (
            &[Pat::I("panic"), Pat::P('!')],
            0,
            "`panic!` in a transport path; propagate `TransportError` instead",
        ),
        (
            &[Pat::I("unreachable"), Pat::P('!')],
            0,
            "`unreachable!` in a transport path; propagate `TransportError` instead",
        ),
        (
            &[Pat::AnyIdent, Pat::P('['), Pat::IntLit, Pat::P(']')],
            1,
            "literal indexing can panic on a short frame; length-check and waive, \
             or use `get()`",
        ),
        (
            &[Pat::P('.'), Pat::OneOf(PANICKING_GETTERS), Pat::P('(')],
            1,
            "`Buf` getter panics on a short buffer; use its fallible `try_` form",
        ),
    ];
    scan_patterns(path, &lexed.tokens, "R3", PATS, &skip, None)
}

/// R8: unsafe audit. Every `unsafe` keyword must sit in a policy-allowed
/// file ([`Policy::r8_allow`]) *and* carry an adjacent `// SAFETY:`
/// justification — trailing on the same line, or on a comment line above
/// with only blank lines, other comments, attributes, or further `unsafe`
/// lines in between (so one comment can cover a contiguous unsafe
/// group). Doc comments (`///`) do not count: a safety argument for the
/// *caller* is not an argument for this block's soundness.
pub fn rule_r8(path: &str, lexed: &Lexed, policy: &Policy) -> Vec<Finding> {
    let tokens = &lexed.tokens;
    let allowed = in_scope(path, &policy.r8_allow);

    // Per-line token facts for the upward SAFETY scan.
    let mut first_tok_on_line: std::collections::BTreeMap<u32, &TokenKind> =
        std::collections::BTreeMap::new();
    let mut unsafe_lines = BTreeSet::new();
    for t in tokens {
        first_tok_on_line.entry(t.line).or_insert(&t.kind);
        if t.kind.is_ident("unsafe") {
            unsafe_lines.insert(t.line);
        }
    }
    let safety_at = |line: u32| {
        lexed
            .comments
            .iter()
            .any(|c| c.line == line && c.text.trim_start().starts_with("SAFETY:"))
    };

    let mut out = Vec::new();
    let mut seen_lines = BTreeSet::new();
    for t in tokens {
        if !t.kind.is_ident("unsafe") || !seen_lines.insert(t.line) {
            continue;
        }
        if !allowed {
            out.push(Finding {
                rule: "R8".into(),
                file: path.into(),
                line: t.line,
                col: t.col,
                message: "`unsafe` in a file outside the [r8] allow list; unsafe code is \
                          confined to audited modules"
                    .into(),
                path: Vec::new(),
                waived: None,
            });
            continue;
        }
        // Trailing `// SAFETY:` on the same line?
        if safety_at(t.line) {
            continue;
        }
        // Upward scan: a standalone SAFETY comment with only transparent
        // lines (blank / comment-only / attribute / more unsafe) between.
        const MAX_SCAN: u32 = 30;
        let mut justified = false;
        let mut l = t.line;
        while l > 1 && t.line - l < MAX_SCAN {
            l -= 1;
            if safety_at(l) {
                justified = true;
                break;
            }
            let transparent = match first_tok_on_line.get(&l) {
                None => true, // blank or comment-only line
                Some(k) if k.is_punct('#') => true,
                _ => unsafe_lines.contains(&l),
            };
            if !transparent {
                break;
            }
        }
        if !justified {
            out.push(Finding {
                rule: "R8".into(),
                file: path.into(),
                line: t.line,
                col: t.col,
                message: "`unsafe` without an adjacent `// SAFETY:` justification".into(),
                path: Vec::new(),
                waived: None,
            });
        }
    }
    out
}

/// R5: codec lockstep. Every variant of the spec's enum must be named in
/// both the encode and decode function bodies — a variant added to the
/// enum but not to both codec arms is exactly the silent wire-format skew
/// this rule exists to catch.
pub fn rule_r5(spec: &CodecSpec, lexed: &Lexed) -> Vec<Finding> {
    let tokens = &lexed.tokens;
    let mut out = Vec::new();
    let Some((variants, decl_line, decl_col)) = enum_variants(tokens, &spec.enum_name) else {
        out.push(Finding {
            rule: "R5".into(),
            file: spec.file.clone(),
            line: 1,
            col: 1,
            message: format!(
                "[codec.{}] enum `{}` not found in {}",
                spec.name, spec.enum_name, spec.file
            ),
            path: Vec::new(),
            waived: None,
        });
        return out;
    };
    for (role, fn_name) in [("encode", &spec.encode_fn), ("decode", &spec.decode_fn)] {
        let Some(idents) = fn_body_idents(tokens, fn_name) else {
            out.push(Finding {
                rule: "R5".into(),
                file: spec.file.clone(),
                line: 1,
                col: 1,
                message: format!(
                    "[codec.{}] {role} fn `{fn_name}` not found in {}",
                    spec.name, spec.file
                ),
                path: Vec::new(),
                waived: None,
            });
            continue;
        };
        for v in &variants {
            if !idents.contains(v.as_str()) {
                out.push(Finding {
                    rule: "R5".into(),
                    file: spec.file.clone(),
                    line: decl_line,
                    col: decl_col,
                    message: format!(
                        "variant `{}::{v}` is not handled in `{fn_name}` ({role} arm missing)",
                        spec.enum_name
                    ),
                    path: Vec::new(),
                    waived: None,
                });
            }
        }
    }
    out
}

/// Variant names of `enum name { … }`, with the declaration position.
fn enum_variants(tokens: &[Token], name: &str) -> Option<(Vec<String>, u32, u32)> {
    let decl = (0..tokens.len()).find(|&i| {
        tokens[i].kind.is_ident("enum") && tokens.get(i + 1).is_some_and(|t| t.kind.is_ident(name))
    })?;
    let open = tokens[decl..]
        .iter()
        .position(|t| t.kind.is_punct('{'))
        .map(|p| decl + p)?;
    let close = brace_close(tokens, open)?;
    let mut variants = Vec::new();
    let mut depth = 0usize; // nesting inside variant payloads
    let mut expecting = true;
    let mut i = open + 1;
    while i < close {
        let t = &tokens[i];
        match &t.kind {
            TokenKind::Punct('#') if depth == 0 => {
                // Skip `#[…]` attribute groups on variants.
                if let Some(end) = bracket_close(tokens, i + 1) {
                    i = end + 1;
                    continue;
                }
            }
            TokenKind::Punct('{' | '(' | '[') => depth += 1,
            TokenKind::Punct('}' | ')' | ']') => depth = depth.saturating_sub(1),
            TokenKind::Punct(',') if depth == 0 => expecting = true,
            TokenKind::Ident(id) if depth == 0 && expecting => {
                variants.push(id.clone());
                expecting = false;
            }
            _ => {}
        }
        i += 1;
    }
    Some((variants, tokens[decl + 1].line, tokens[decl + 1].col))
}

/// All identifiers appearing in the body of `fn name`.
fn fn_body_idents(tokens: &[Token], name: &str) -> Option<BTreeSet<String>> {
    let decl = (0..tokens.len()).find(|&i| {
        tokens[i].kind.is_ident("fn") && tokens.get(i + 1).is_some_and(|t| t.kind.is_ident(name))
    })?;
    let open = tokens[decl..]
        .iter()
        .position(|t| t.kind.is_punct('{'))
        .map(|p| decl + p)?;
    let close = brace_close(tokens, open)?;
    Some(
        tokens[open..close]
            .iter()
            .filter_map(|t| t.kind.ident().map(str::to_string))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn policy() -> Policy {
        Policy {
            scan_include: vec!["src".into()],
            r1_scope: vec!["src/det".into()],
            r2_allow: vec!["src/bench".into()],
            r3_scope: vec!["src/net/transport.rs".into()],
            r8_allow: vec!["src/ring.rs".into()],
            ..Policy::default()
        }
    }

    #[test]
    fn waiver_parses_and_applies_trailing() {
        let src = "let m = foo(); // simlint: allow(R1, R2) -- seeded hasher\n";
        let lexed = lex(src);
        let (ws, w0) = parse_waivers("f.rs", &lexed);
        assert!(w0.is_empty());
        assert_eq!(ws.len(), 1);
        assert_eq!(ws[0].rules, vec!["R1", "R2"]);
        assert_eq!(ws[0].applies_line, 1);
        assert_eq!(ws[0].justification, "seeded hasher");
    }

    #[test]
    fn standalone_waiver_covers_next_code_line() {
        let src = "// simlint: allow(R2) -- watchdog\n\nlet t = now();\n";
        let (ws, _) = parse_waivers("f.rs", &lex(src));
        assert_eq!(ws[0].applies_line, 3);
    }

    #[test]
    fn malformed_waiver_is_w0() {
        for bad in [
            "// simlint: allow(R1)\nx();",            // no justification
            "// simlint: allow(R9) -- nope\nx();",    // unknown rule
            "// simlint: deny(R1) -- huh\nx();",      // not allow
            "// simlint: allow(R1 -- unclosed\nx();", // unclosed paren
        ] {
            let (ws, w0) = parse_waivers("f.rs", &lex(bad));
            assert!(ws.is_empty(), "waiver accepted: {bad}");
            assert_eq!(w0.len(), 1, "no W0 for: {bad}");
            assert_eq!(w0[0].rule, "W0");
        }
    }

    #[test]
    fn r1_fires_in_scope_only() {
        let src = "use std::collections::HashMap;\nlet m: HashMap<u32, u32> = HashMap::new();";
        let p = policy();
        let hits = rule_r1("src/det/a.rs", &lex(src), &p);
        assert_eq!(hits.len(), 3);
        assert!(rule_r1("src/other/a.rs", &lex(src), &p).is_empty());
    }

    #[test]
    fn r2_matches_instant_now_not_instant_elapsed_arg() {
        let p = policy();
        let hits = rule_r2("src/a.rs", &lex("let t = Instant::now();"), &p);
        assert_eq!(hits.len(), 1);
        assert!(rule_r2("src/a.rs", &lex("fn f(t: Instant) {}"), &p).is_empty());
        assert_eq!(
            rule_r2("src/a.rs", &lex("let s = SystemTime::now();"), &p).len(),
            1
        );
        assert!(rule_r2("src/bench/a.rs", &lex("Instant::now();"), &p).is_empty());
    }

    #[test]
    fn r3_skips_test_mods_and_flags_literal_indexing() {
        let src = "fn f(b: &[u8]) { let k = b[0]; x.unwrap(); }\n\
                   #[cfg(test)]\nmod tests {\n fn g() { y.unwrap(); }\n}\n";
        let p = policy();
        let hits = rule_r3("src/net/transport.rs", &lex(src), &p);
        assert_eq!(hits.len(), 2); // b[0] and the non-test unwrap
        assert!(hits.iter().any(|f| f.message.contains("indexing")));
        assert!(rule_r3("src/elsewhere.rs", &lex(src), &p).is_empty());
    }

    #[test]
    fn r3_does_not_flag_range_slices() {
        let p = policy();
        let hits = rule_r3(
            "src/net/transport.rs",
            &lex("let s = &b[0..4]; let t = &b[4..];"),
            &p,
        );
        assert!(hits.is_empty(), "{hits:?}");
    }

    #[test]
    fn r8_flags_unsafe_outside_the_allowlist() {
        let src = "fn f(p: *const u8) -> u8 { unsafe { *p } }";
        let hits = rule_r8("src/other.rs", &lex(src), &policy());
        assert_eq!(hits.len(), 1);
        assert!(hits[0].message.contains("allow list"));
        assert!(rule_r8(
            "src/ring.rs",
            &lex("// SAFETY: p valid\nlet x = unsafe { *p };"),
            &policy()
        )
        .is_empty());
    }

    #[test]
    fn r8_requires_an_adjacent_safety_comment() {
        let p = policy();
        // Trailing, directly above, and above-with-attribute all count.
        for ok in [
            "let x = unsafe { *p }; // SAFETY: p is valid for reads",
            "// SAFETY: p is valid for reads\nlet x = unsafe { *p };",
            "// SAFETY: callers uphold the ring invariant\n#[inline]\nunsafe fn g() {}",
            "// SAFETY: both lines index the mapped header\nlet a = unsafe { *p };\nlet b = unsafe { *q };",
        ] {
            assert!(rule_r8("src/ring.rs", &lex(ok), &p).is_empty(), "{ok}");
        }
        // Missing, separated by code, and doc-comment-only do not.
        for bad in [
            "let x = unsafe { *p };",
            "// SAFETY: stale, code moved\nlet y = 1;\nlet x = unsafe { *p };",
            "/// SAFETY: doc comments are for callers\nunsafe fn g() {}",
        ] {
            assert_eq!(rule_r8("src/ring.rs", &lex(bad), &p).len(), 1, "{bad}");
        }
    }

    #[test]
    fn r8_reports_once_per_line() {
        let src = "fn f() { unsafe { a() }; unsafe { b() } }";
        assert_eq!(rule_r8("src/other.rs", &lex(src), &policy()).len(), 1);
    }

    #[test]
    fn r5_detects_missing_arm() {
        let src = "enum Msg { A, B(u32), C { x: u8 } }\n\
                   fn enc(m: &Msg) { match m { Msg::A => {}, Msg::B(_) => {}, Msg::C { .. } => {} } }\n\
                   fn dec(b: &[u8]) -> Msg { if b[0] == 0 { Msg::A } else { Msg::B(0) } }\n";
        let spec = CodecSpec {
            name: "msg".into(),
            file: "src/wire.rs".into(),
            enum_name: "Msg".into(),
            encode_fn: "enc".into(),
            decode_fn: "dec".into(),
        };
        let hits = rule_r5(&spec, &lex(src));
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].message.contains("Msg::C"));
        assert!(hits[0].message.contains("dec"));
    }

    #[test]
    fn r5_variant_extraction_skips_attributes_and_payload_fields() {
        let src = "enum E { #[doc = \"x\"] A, B { inner: Vec<u8> }, C(Box<E>) }";
        let (vars, _, _) = enum_variants(&lex(src).tokens, "E").unwrap();
        assert_eq!(vars, vec!["A", "B", "C"]);
    }

    #[test]
    fn waived_finding_keeps_justification() {
        let src = "let m = HashMap::new(); // simlint: allow(R1) -- scratch map, drained sorted\n";
        let lexed = lex(src);
        let p = policy();
        let mut hits = rule_r1("src/det/a.rs", &lexed, &p);
        let (ws, _) = parse_waivers("src/det/a.rs", &lexed);
        let used = apply_waivers(&mut hits, &ws);
        assert!(hits.iter().all(|f| f.waived.is_some()));
        assert_eq!(
            hits[0].waived.as_deref(),
            Some("scratch map, drained sorted")
        );
        assert_eq!(used, vec![true]);
        assert!(stale_waiver_findings("src/det/a.rs", &ws, &used).is_empty());
    }

    #[test]
    fn unused_waiver_becomes_w1() {
        let src = "let x = 1; // simlint: allow(R2) -- nothing here reads the clock\n";
        let lexed = lex(src);
        let (ws, _) = parse_waivers("src/a.rs", &lexed);
        let used = apply_waivers(&mut [], &ws);
        assert_eq!(used, vec![false]);
        let w1 = stale_waiver_findings("src/a.rs", &ws, &used);
        assert_eq!(w1.len(), 1);
        assert_eq!(w1[0].rule, "W1");
        assert_eq!(w1[0].line, 1);
        assert!(w1[0].message.contains("allow(R2)"));
    }
}
