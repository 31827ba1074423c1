//! Fixture-corpus integration tests: one positive and one negative case
//! per rule (R1–R3, R5 per-file; R6–R8 call-graph and audit rules),
//! waiver placement including W1 stale-waiver detection, JSON
//! round-trip, the CLI exit-code contract, and — the wall itself — a
//! clean run over the real workspace.

use simlint::diag::{from_json, to_json, Finding};
use simlint::{load_policy, run_check, unwaived_count};
use std::path::{Path, PathBuf};

fn corpus_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/corpus")
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn corpus_findings() -> Vec<Finding> {
    let root = corpus_root();
    let policy = load_policy(&root).expect("corpus policy parses");
    run_check(&root, &policy).expect("corpus scan succeeds")
}

fn in_file<'a>(findings: &'a [Finding], rule: &str, file: &str) -> Vec<&'a Finding> {
    findings
        .iter()
        .filter(|f| f.rule == rule && f.file == file)
        .collect()
}

#[test]
fn r1_flags_default_hashers_in_scope_only() {
    let all = corpus_findings();
    let pos = in_file(&all, "R1", "src/det/r1_pos.rs");
    assert_eq!(pos.len(), 2, "{pos:?}");
    assert!(pos.iter().any(|f| f.message.contains("HashMap")));
    assert!(pos.iter().any(|f| f.message.contains("HashSet")));
    assert!(in_file(&all, "R1", "src/det/r1_neg.rs").is_empty());
    assert!(
        in_file(&all, "R1", "src/outside/r1_out_of_scope.rs").is_empty(),
        "R1 must respect its scope"
    );
}

#[test]
fn r2_flags_wall_clock_outside_allowed_paths() {
    let all = corpus_findings();
    let pos = in_file(&all, "R2", "src/r2_pos.rs");
    // Instant::now once; the SystemTime *type* in the signature and the
    // SystemTime::now call each count.
    assert_eq!(pos.len(), 3, "{pos:?}");
    assert!(pos.iter().all(|f| f.waived.is_none()));
    assert!(in_file(&all, "R2", "src/bench/r2_neg.rs").is_empty());
}

#[test]
fn r3_flags_panic_paths_in_transport_scope_only() {
    let all = corpus_findings();
    let pos = in_file(&all, "R3", "src/net/r3_pos.rs");
    // buf[0], .unwrap(), panic!, unreachable!
    assert_eq!(pos.len(), 4, "{pos:?}");
    assert!(pos.iter().any(|f| f.message.contains("indexing")));
    assert!(pos.iter().any(|f| f.message.contains("unwrap")));
    assert!(pos.iter().any(|f| f.message.contains("panic!")));
    assert!(pos.iter().any(|f| f.message.contains("unreachable!")));
    assert!(
        in_file(&all, "R3", "src/net/r3_neg.rs").is_empty(),
        "checked access, range slices and #[cfg(test)] bodies are allowed"
    );
}

#[test]
fn r3_flags_panicking_buf_getters_in_codec_scope() {
    let all = corpus_findings();
    let pos = in_file(&all, "R3", "src/net/r3_getters_pos.rs");
    // copy_to_slice, get_u8, get_u32_le, get_f64_le
    assert_eq!(pos.len(), 4, "{pos:?}");
    assert!(pos.iter().all(|f| f.message.contains("getter")));
    assert!(
        in_file(&all, "R3", "src/net/r3_getters_neg.rs").is_empty(),
        "fallible getters and #[cfg(test)] bodies are allowed"
    );
}

#[test]
fn r3_covers_the_shm_transport_scope() {
    let all = corpus_findings();
    let pos = in_file(&all, "R3", "src/shm/r3_pos.rs");
    // .expect() (waived — mmap setup), hdr[0], panic!, .unwrap()
    assert_eq!(pos.len(), 4, "{pos:?}");
    let waived: Vec<_> = pos.iter().filter(|f| f.waived.is_some()).collect();
    assert_eq!(
        waived.len(),
        1,
        "only the mmap setup line is waived: {pos:?}"
    );
    assert!(waived[0].message.contains("expect"));
    assert!(waived[0].waived.as_deref().unwrap().contains("mmap setup"));
    assert!(pos
        .iter()
        .filter(|f| f.waived.is_none())
        .any(|f| f.message.contains("indexing")));
    assert!(
        in_file(&all, "R3", "src/shm/r3_neg.rs").is_empty(),
        "cursor arithmetic with checked slicing is the approved ring idiom"
    );
}

#[test]
fn r6_reports_the_full_witness_path_in_text_and_json() {
    let all = corpus_findings();
    let pos = in_file(&all, "R6", "src/r6_pos.rs");
    assert_eq!(pos.len(), 2, "direct format! + two-deep push: {pos:?}");
    assert!(pos.iter().any(|f| f.message.contains("format!")));
    // The allocation two calls below the hot root is reported with the
    // whole chain, both in the message and in the structured `path`.
    let deep = pos
        .iter()
        .find(|f| f.message.contains("Vec::push"))
        .expect("transitive push finding");
    let chain = "r6_pos::advance → r6_pos::stage → r6_pos::record → events.push → Vec::push";
    assert!(deep.message.contains(chain), "{}", deep.message);
    assert_eq!(
        deep.path,
        [
            "r6_pos::advance",
            "r6_pos::stage",
            "r6_pos::record",
            "events.push",
            "Vec::push"
        ]
    );
    let json = to_json(&all);
    assert!(
        json.contains(
            "\"path\":[\"r6_pos::advance\",\"r6_pos::stage\",\"r6_pos::record\",\
             \"events.push\",\"Vec::push\"]"
        ),
        "witness path must survive into the JSON output:\n{json}"
    );
    assert!(
        in_file(&all, "R6", "src/r6_neg.rs").is_empty(),
        "preallocated hot closures and unreachable cold allocators are clean"
    );
}

#[test]
fn r7_flags_inverted_lock_order_only() {
    let all = corpus_findings();
    let pos = in_file(&all, "R7", "src/locks/r7_pos.rs");
    assert_eq!(pos.len(), 1, "{pos:?}");
    assert!(pos[0].message.contains("`table`"), "{}", pos[0].message);
    assert!(pos[0].message.contains("`slot`"), "{}", pos[0].message);
    assert!(
        pos[0].message.contains("declared order"),
        "{}",
        pos[0].message
    );
    assert!(
        in_file(&all, "R7", "src/locks/r7_neg.rs").is_empty(),
        "declared-order nesting and drop-before-reacquire are clean"
    );
}

#[test]
fn r8_audits_unsafe_placement_and_safety_comments() {
    let all = corpus_findings();
    let outside = in_file(&all, "R8", "src/r8_pos.rs");
    assert_eq!(outside.len(), 1, "{outside:?}");
    assert!(outside[0].message.contains("allow list"));
    let allowed = in_file(&all, "R8", "src/r8_allowed.rs");
    assert_eq!(allowed.len(), 1, "only the uncommented site: {allowed:?}");
    assert!(allowed[0].message.contains("SAFETY"));
    assert!(
        in_file(&all, "R8", "src/shm/r3_pos.rs").is_empty(),
        "allow-listed unsafe with a trailing SAFETY comment is clean"
    );
}

#[test]
fn stale_waivers_surface_as_w1() {
    let all = corpus_findings();
    let w1 = in_file(&all, "W1", "src/w1_stale.rs");
    assert_eq!(w1.len(), 1, "{w1:?}");
    assert_eq!(w1[0].line, 4, "W1 anchors at the waiver comment");
    assert!(w1[0].message.contains("suppresses no finding"));
    assert!(w1[0].waived.is_none(), "W1 itself can never be waived");
    // Waivers that do suppress something must not produce W1 noise.
    assert!(in_file(&all, "W1", "src/waivers.rs").is_empty());
    assert!(in_file(&all, "W1", "src/shm/r3_pos.rs").is_empty());
}

#[test]
fn r5_flags_codec_variant_skew_only() {
    let all = corpus_findings();
    let pos = in_file(&all, "R5", "src/codec_bad.rs");
    assert_eq!(pos.len(), 1, "{pos:?}");
    assert!(pos[0].message.contains("Msg::Heartbeat"));
    assert!(pos[0].message.contains("decode_msg"));
    assert!(in_file(&all, "R5", "src/codec_good.rs").is_empty());
}

#[test]
fn excluded_paths_are_never_scanned() {
    let all = corpus_findings();
    assert!(
        all.iter().all(|f| f.file != "src/skipped/excluded.rs"),
        "scan exclude must hide the file entirely: {all:?}"
    );
}

#[test]
fn waiver_placement_trailing_standalone_and_w0() {
    let all = corpus_findings();
    let r2 = in_file(&all, "R2", "src/waivers.rs");
    assert_eq!(r2.len(), 3, "{r2:?}");
    let waived: Vec<_> = r2.iter().filter(|f| f.waived.is_some()).collect();
    assert_eq!(waived.len(), 2, "trailing + standalone: {r2:?}");
    assert!(waived
        .iter()
        .any(|f| f.waived.as_deref().unwrap().contains("watchdog arming")));
    assert!(waived
        .iter()
        .any(|f| f.waived.as_deref().unwrap().contains("next line")));
    // The malformed waiver (no justification) is a W0 and does not waive.
    let w0 = in_file(&all, "W0", "src/waivers.rs");
    assert_eq!(w0.len(), 1, "{w0:?}");
    assert!(w0[0].message.contains("justification"));
    assert!(r2.iter().any(|f| f.waived.is_none()));
}

#[test]
fn corpus_fails_the_check_and_json_round_trips() {
    let all = corpus_findings();
    assert!(
        unwaived_count(&all) >= 8,
        "the corpus must fail the check loudly, got {all:?}"
    );
    let json = to_json(&all);
    let back = from_json(&json).expect("emitted JSON parses");
    assert_eq!(back, all, "JSON round-trip must be lossless");
}

/// The wall: the real workspace must be clean, and every waiver on it
/// must carry a justification (enforced structurally by the parser, but
/// pinned here so the contract shows up in the test list).
#[test]
fn workspace_tree_is_clean() {
    let root = repo_root();
    let policy = load_policy(&root).expect("workspace simlint.toml parses");
    let findings = run_check(&root, &policy).expect("workspace scan succeeds");
    let unwaived: Vec<_> = findings.iter().filter(|f| f.waived.is_none()).collect();
    assert!(
        unwaived.is_empty(),
        "unwaived findings in the workspace:\n{}",
        unwaived
            .iter()
            .map(|f| f.render_text())
            .collect::<Vec<_>>()
            .join("\n")
    );
    for f in &findings {
        let just = f.waived.as_deref().unwrap_or_default();
        assert!(
            just.len() >= 10,
            "waiver on {}:{} has a too-thin justification: `{just}`",
            f.file,
            f.line
        );
    }
    // A ratchet: the waiver count may fall, never rise. Lower the bound
    // when a change removes waivers.
    const MAX_WAIVERS: usize = 19;
    assert!(
        findings.len() <= MAX_WAIVERS,
        "{} waivers in the workspace, at most {MAX_WAIVERS} allowed",
        findings.len()
    );
}

#[test]
fn cli_exit_codes_match_the_contract() {
    let bin = env!("CARGO_BIN_EXE_simlint");
    let corpus = corpus_root();
    let run = |args: &[&str]| {
        std::process::Command::new(bin)
            .args(args)
            .output()
            .expect("simlint binary runs")
    };
    // Corpus: unwaived findings -> exit 1, findings on stdout.
    let out = run(&["--check", "--root", corpus.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("error[R1]"), "{text}");
    assert!(text.contains("error[R5]"), "{text}");
    // Corpus JSON: parses back into the same findings run_check returns.
    let out = run(&[
        "--check",
        "--format",
        "json",
        "--root",
        corpus.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1));
    let parsed = from_json(&String::from_utf8_lossy(&out.stdout)).expect("CLI JSON parses");
    assert_eq!(parsed, corpus_findings());
    // Workspace: clean -> exit 0.
    let repo = repo_root();
    let out = run(&["--check", "--root", repo.to_str().unwrap()]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "workspace must pass: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    // Usage error -> exit 2.
    let out = run(&["--bogus-flag"]);
    assert_eq!(out.status.code(), Some(2));
}
