//! The `simlint.toml` policy file: per-module rule scopes and codec
//! cross-check specs.
//!
//! The parser is a deliberately small TOML subset — `[section]` /
//! `[section.sub]` headers, `key = "string"`, `key = ["a", "b"]`
//! (multi-line allowed), `#` comments — which is exactly what the policy
//! needs and keeps the analyzer dependency-free.

/// One codec exhaustiveness spec for rule R5: every variant of `enum_name`
/// declared in `file` must be named in both the `encode_fn` and
/// `decode_fn` bodies of that file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecSpec {
    /// Spec name (the `[codec.<name>]` suffix), used in diagnostics.
    pub name: String,
    /// File declaring the enum and both codec functions.
    pub file: String,
    /// Enum whose variants are checked.
    pub enum_name: String,
    /// Encoder function name.
    pub encode_fn: String,
    /// Decoder function name.
    pub decode_fn: String,
}

/// The parsed policy.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Policy {
    /// Directories (relative to the root) to scan.
    pub scan_include: Vec<String>,
    /// Path prefixes excluded from every rule (fixture corpora etc.).
    pub scan_exclude: Vec<String>,
    /// R1: path prefixes of determinism-scoped crates.
    pub r1_scope: Vec<String>,
    /// R2: path prefixes where wall-clock reads are policy-allowed
    /// (benches, pre-simulation setup).
    pub r2_allow: Vec<String>,
    /// R3: transport and codec files where panics must become typed errors.
    pub r3_scope: Vec<String>,
    /// R5 codec specs.
    pub codecs: Vec<CodecSpec>,
    /// R7: path prefixes where lock-order discipline is checked.
    pub r7_scope: Vec<String>,
    /// R7: the declared lock hierarchy, outermost first. Acquiring a lock
    /// at or above the rank of one already held is a finding.
    pub r7_order: Vec<String>,
    /// R7: guard-returning free helper functions (`lock`, `lock_recover`)
    /// whose first ranked-lock argument names the lock they acquire.
    pub r7_helpers: Vec<String>,
    /// R8: files where `unsafe` is permitted (with `// SAFETY:` comments).
    pub r8_allow: Vec<String>,
}

impl Policy {
    /// Parse the policy text. Errors carry a line number.
    pub fn parse(src: &str) -> Result<Policy, String> {
        let mut policy = Policy::default();
        let mut section = String::new();
        let mut lines = src.lines().enumerate().peekable();
        while let Some((lineno, raw)) = lines.next() {
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix('[') {
                let name = rest
                    .strip_suffix(']')
                    .ok_or_else(|| format!("line {}: unclosed section header", lineno + 1))?;
                section = name.trim().to_string();
                if let Some(codec) = section.strip_prefix("codec.") {
                    policy.codecs.push(CodecSpec {
                        name: codec.to_string(),
                        file: String::new(),
                        enum_name: String::new(),
                        encode_fn: String::new(),
                        decode_fn: String::new(),
                    });
                }
                continue;
            }
            let (key, mut value) = line
                .split_once('=')
                .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
                .ok_or_else(|| format!("line {}: expected `key = value`", lineno + 1))?;
            // Multi-line array: accumulate until the closing bracket.
            if value.starts_with('[') {
                while !value.trim_end().ends_with(']') {
                    let (_, cont) = lines
                        .next()
                        .ok_or_else(|| format!("line {}: unterminated array", lineno + 1))?;
                    value.push(' ');
                    value.push_str(strip_comment(cont).trim());
                }
            }
            policy
                .assign(&section, &key, &value)
                .map_err(|e| format!("line {}: {e}", lineno + 1))?;
        }
        policy.validate()?;
        Ok(policy)
    }

    fn assign(&mut self, section: &str, key: &str, value: &str) -> Result<(), String> {
        if let Some(codec) = section.strip_prefix("codec.") {
            let spec = self
                .codecs
                .iter_mut()
                .find(|c| c.name == codec)
                .ok_or("codec section vanished")?;
            let v = parse_string(value)?;
            match key {
                "file" => spec.file = v,
                "enum" => spec.enum_name = v,
                "encode" => spec.encode_fn = v,
                "decode" => spec.decode_fn = v,
                other => return Err(format!("unknown codec key `{other}`")),
            }
            return Ok(());
        }
        let slot = match (section, key) {
            ("scan", "include") => &mut self.scan_include,
            ("scan", "exclude") => &mut self.scan_exclude,
            ("r1", "scope") => &mut self.r1_scope,
            ("r2", "allow") => &mut self.r2_allow,
            ("r3", "scope") => &mut self.r3_scope,
            ("r7", "scope") => &mut self.r7_scope,
            ("r7", "order") => &mut self.r7_order,
            ("r7", "helpers") => &mut self.r7_helpers,
            ("r8", "allow") => &mut self.r8_allow,
            (s, k) => return Err(format!("unknown key `{k}` in section `[{s}]`")),
        };
        *slot = parse_string_array(value)?;
        Ok(())
    }

    fn validate(&self) -> Result<(), String> {
        for c in &self.codecs {
            if c.file.is_empty()
                || c.enum_name.is_empty()
                || c.encode_fn.is_empty()
                || c.decode_fn.is_empty()
            {
                return Err(format!(
                    "[codec.{}] needs `file`, `enum`, `encode`, and `decode`",
                    c.name
                ));
            }
        }
        Ok(())
    }
}

/// Strip a `#` comment, respecting quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_string(value: &str) -> Result<String, String> {
    value
        .strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .map(str::to_string)
        .ok_or_else(|| format!("expected a quoted string, got `{value}`"))
}

fn parse_string_array(value: &str) -> Result<Vec<String>, String> {
    let inner = value
        .strip_prefix('[')
        .and_then(|v| v.trim_end().strip_suffix(']'))
        .ok_or_else(|| format!("expected an array, got `{value}`"))?;
    let mut out = Vec::new();
    for item in inner.split(',') {
        let item = item.trim();
        if item.is_empty() {
            continue; // trailing comma
        }
        out.push(parse_string(item)?);
    }
    Ok(out)
}

/// Does `path` (relative, `/`-separated) fall under any prefix in `scopes`?
/// A prefix matches the exact file or any path inside the directory.
pub fn in_scope(path: &str, scopes: &[String]) -> bool {
    scopes.iter().any(|s| {
        let s = s.trim_end_matches('/');
        path == s || path.starts_with(&format!("{s}/"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# policy
[scan]
include = ["crates", "src"]
exclude = [
    "crates/simlint/tests/fixtures",  # known-bad corpus
]

[r1]
scope = ["crates/core", "crates/ptts"]

[r2]
allow = ["crates/bench"]

[r3]
scope = ["crates/chare-rt/src/net/comm.rs"]

[r7]
scope = ["crates/serve"]
order = ["handlers", "state", "topic_state"]
helpers = ["lock", "lock_recover"]

[r8]
allow = ["crates/chare-rt/src/net/shm.rs"]

[codec.simmsg]
file = "crates/core/src/messages.rs"
enum = "SimMsg"
encode = "wire_encode"
decode = "wire_decode"
"#;

    #[test]
    fn parses_the_full_shape() {
        let p = Policy::parse(SAMPLE).expect("parses");
        assert_eq!(p.scan_include, vec!["crates", "src"]);
        assert_eq!(p.scan_exclude, vec!["crates/simlint/tests/fixtures"]);
        assert_eq!(p.r1_scope, vec!["crates/core", "crates/ptts"]);
        assert_eq!(p.r7_order, vec!["handlers", "state", "topic_state"]);
        assert_eq!(p.r7_helpers, vec!["lock", "lock_recover"]);
        assert_eq!(p.r8_allow, vec!["crates/chare-rt/src/net/shm.rs"]);
        assert_eq!(p.codecs.len(), 1);
        assert_eq!(p.codecs[0].enum_name, "SimMsg");
        assert_eq!(p.codecs[0].decode_fn, "wire_decode");
    }

    #[test]
    fn rejects_incomplete_codec() {
        let err = Policy::parse("[codec.x]\nfile = \"a.rs\"\n").unwrap_err();
        assert!(err.contains("codec.x"));
    }

    #[test]
    fn rejects_unknown_keys() {
        assert!(Policy::parse("[scan]\nbogus = [\"a\"]\n").is_err());
        assert!(Policy::parse("no_equals\n").is_err());
    }

    #[test]
    fn scope_matching_is_prefix_by_component() {
        let scopes = vec!["crates/core".to_string()];
        assert!(in_scope("crates/core/src/kernel.rs", &scopes));
        assert!(in_scope("crates/core", &scopes));
        assert!(!in_scope("crates/core2/src/lib.rs", &scopes));
    }
}
