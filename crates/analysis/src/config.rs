//! `analysis.toml` — workspace configuration for the linter.
//!
//! The registry-less build means no `toml` crate, so configuration uses a
//! deliberately small TOML subset, parsed here:
//!
//! * root-level `key = value` pairs (strings, booleans, single-line string
//!   arrays),
//! * `[[allow]]` / `[[exclude]]` array-of-table sections,
//! * the `[reachability]` table,
//! * `#` comments.
//!
//! Every `[[allow]]` and `[[exclude]]` entry must carry a non-empty
//! `reason`: suppressions without a written justification are a config
//! error, which is the policy the PR series depends on — an allowlist that
//! documents *why* each escape is sound.

use std::collections::BTreeMap;

/// Where a rule fires ([`crate::rules::Rule::default_scope`]). The crate
/// allowlist (`sim_crates`) and the call-graph reachability engine (entry
/// points in `[reachability]`) combine in four ways; when no entry points
/// are configured the reachability predicate is unavailable, and every
/// mode degrades to the crate allowlist so fixture runs keep their meaning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// Every non-excluded file.
    All,
    /// Files in `sim_crates` only (legacy behavior).
    SimCrates,
    /// Tokens inside functions reachable from the configured entry points.
    Reachable,
    /// In a sim crate *or* reachable — widens the allowlist with the
    /// call graph (catches hazards in non-listed crates the engine calls).
    SimOrReachable,
}

impl Scope {
    /// Lowercase name as printed by `--list-rules`.
    pub fn as_str(self) -> &'static str {
        match self {
            Scope::All => "all",
            Scope::SimCrates => "sim-crates",
            Scope::Reachable => "reachable",
            Scope::SimOrReachable => "sim-or-reachable",
        }
    }
}

/// A file- or directory-scoped suppression of one rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allow {
    /// Rule name the suppression applies to.
    pub rule: String,
    /// Workspace-relative path prefix (a file or a directory).
    pub path: String,
    /// Mandatory written justification.
    pub reason: String,
}

/// A path subtree excluded from analysis entirely.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Exclude {
    /// Workspace-relative path prefix.
    pub path: String,
    /// Mandatory written justification.
    pub reason: String,
}

/// Parsed `analysis.toml`.
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// Crates whose event ordering feeds simulation output; the
    /// `panic-in-engine` rule only fires here, and the `sim-or-reachable`
    /// rules start from this list.
    pub sim_crates: Vec<String>,
    /// Path subtrees not analyzed at all.
    pub excludes: Vec<Exclude>,
    /// Per-rule path suppressions.
    pub allows: Vec<Allow>,
    /// Simulation entry points from `[reachability] entry_points = [...]`:
    /// `name` or `Owner::name` specs resolved against the symbol index.
    /// Empty means reachability is off and scoped rules degrade to the
    /// crate allowlist.
    pub entry_points: Vec<String>,
}

impl Config {
    /// True when `path` falls under an excluded subtree.
    pub fn is_excluded(&self, path: &str) -> bool {
        self.excludes.iter().any(|e| path_matches(path, &e.path))
    }

    /// The config allow covering `(rule, path)`, if any.
    pub fn allow_for(&self, rule: &str, path: &str) -> Option<&Allow> {
        self.allows
            .iter()
            .find(|a| a.rule == rule && path_matches(path, &a.path))
    }

    /// True when `path` belongs to a sim-critical crate.
    pub fn is_sim_crate(&self, crate_root: &str) -> bool {
        self.sim_crates.iter().any(|c| c == crate_root)
    }
}

/// `path` equals `prefix` or lies under it as a directory.
fn path_matches(path: &str, prefix: &str) -> bool {
    path == prefix || path.starts_with(&format!("{prefix}/"))
}

/// Parses the `analysis.toml` text. Errors carry the offending line number.
pub fn parse(src: &str) -> Result<Config, String> {
    #[derive(PartialEq)]
    enum Section {
        Root,
        Allow,
        Exclude,
        Reachability,
    }

    let mut cfg = Config::default();
    let mut section = Section::Root;
    // Current array-of-table entry being accumulated.
    let mut entry: BTreeMap<String, String> = BTreeMap::new();

    let flush = |section: &Section,
                 entry: &mut BTreeMap<String, String>,
                 cfg: &mut Config,
                 lineno: usize|
     -> Result<(), String> {
        match section {
            Section::Allow => {
                let rule = entry
                    .remove("rule")
                    .ok_or(format!("line {lineno}: [[allow]] entry missing `rule`"))?;
                let path = entry
                    .remove("path")
                    .ok_or(format!("line {lineno}: [[allow]] entry missing `path`"))?;
                let reason = entry.remove("reason").unwrap_or_default();
                if reason.trim().is_empty() {
                    return Err(format!(
                        "line {lineno}: [[allow]] for `{rule}` at `{path}` has no `reason` — every suppression must be justified"
                    ));
                }
                cfg.allows.push(Allow { rule, path, reason });
            }
            Section::Exclude => {
                let path = entry
                    .remove("path")
                    .ok_or(format!("line {lineno}: [[exclude]] entry missing `path`"))?;
                let reason = entry.remove("reason").unwrap_or_default();
                if reason.trim().is_empty() {
                    return Err(format!(
                        "line {lineno}: [[exclude]] for `{path}` has no `reason` — every exclusion must be justified"
                    ));
                }
                cfg.excludes.push(Exclude { path, reason });
            }
            _ => {}
        }
        entry.clear();
        Ok(())
    };

    for (idx, raw) in src.lines().enumerate() {
        let lineno = idx + 1;
        let line = strip_comment(raw).trim().to_string();
        if line.is_empty() {
            continue;
        }
        if let Some(name) = line.strip_prefix("[[").and_then(|l| l.strip_suffix("]]")) {
            flush(&section, &mut entry, &mut cfg, lineno)?;
            section = match name.trim() {
                "allow" => Section::Allow,
                "exclude" => Section::Exclude,
                other => return Err(format!("line {lineno}: unknown section [[{other}]]")),
            };
            continue;
        }
        if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            flush(&section, &mut entry, &mut cfg, lineno)?;
            section = match name.trim() {
                "reachability" => Section::Reachability,
                other => return Err(format!("line {lineno}: unknown table [{other}]")),
            };
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or(format!("line {lineno}: expected `key = value`"))?;
        let (key, value) = (key.trim(), value.trim());
        match &section {
            Section::Root => match key {
                "sim_crates" => cfg.sim_crates = parse_string_array(value, lineno)?,
                other => return Err(format!("line {lineno}: unknown root key `{other}`")),
            },
            Section::Allow | Section::Exclude => {
                entry.insert(key.to_string(), parse_string(value, lineno)?);
            }
            Section::Reachability => match key {
                "entry_points" => cfg.entry_points = parse_string_array(value, lineno)?,
                other => {
                    return Err(format!(
                        "line {lineno}: unknown key `{other}` in [reachability]"
                    ))
                }
            },
        }
    }
    flush(&section, &mut entry, &mut cfg, src.lines().count())?;
    Ok(cfg)
}

/// Drops a trailing `#` comment, respecting double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        match c {
            '\\' if in_str && !escaped => {
                escaped = true;
                continue;
            }
            '"' if !escaped => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
        escaped = false;
    }
    line
}

/// Parses `"a string"` with basic escapes.
fn parse_string(value: &str, lineno: usize) -> Result<String, String> {
    let inner = value
        .strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .ok_or(format!(
            "line {lineno}: expected a double-quoted string, got `{value}`"
        ))?;
    let mut out = String::with_capacity(inner.len());
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some(other) => {
                    out.push('\\');
                    out.push(other);
                }
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    Ok(out)
}

/// Parses a single-line `["a", "b"]` string array.
fn parse_string_array(value: &str, lineno: usize) -> Result<Vec<String>, String> {
    let inner = value
        .strip_prefix('[')
        .and_then(|v| v.strip_suffix(']'))
        .ok_or(format!(
            "line {lineno}: expected a single-line [\"...\"] array"
        ))?;
    let inner = inner.trim();
    if inner.is_empty() {
        return Ok(Vec::new());
    }
    inner
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| parse_string(s, lineno))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# workspace linter config
sim_crates = ["crates/des", "crates/core"]  # trailing comment

[[exclude]]
path = "shims"
reason = "vendored stand-ins"

[[allow]]
rule = "relaxed-atomic-in-results"
path = "crates/core/src/simcache.rs"
reason = "telemetry counters only, never read into output"
"#;

    #[test]
    fn parses_full_sample() {
        let cfg = parse(SAMPLE).expect("valid");
        assert_eq!(cfg.sim_crates, vec!["crates/des", "crates/core"]);
        assert!(cfg.is_excluded("shims/rand/src/lib.rs"));
        assert!(!cfg.is_excluded("crates/des/src/sim.rs"));
        let a = cfg
            .allow_for("relaxed-atomic-in-results", "crates/core/src/simcache.rs")
            .expect("allow present");
        assert!(a.reason.contains("telemetry"));
        assert!(cfg
            .allow_for("relaxed-atomic-in-results", "crates/core/src/model.rs")
            .is_none());
    }

    #[test]
    fn reason_is_mandatory() {
        let err = parse("[[allow]]\nrule = \"x\"\npath = \"y\"\n").expect_err("must fail");
        assert!(err.contains("must be justified"), "{err}");
        let err = parse("[[exclude]]\npath = \"y\"\nreason = \"  \"\n").expect_err("must fail");
        assert!(err.contains("justified"), "{err}");
    }

    #[test]
    fn unknown_keys_are_rejected() {
        assert!(parse("typo_key = \"x\"").is_err());
        // A stale key fails loudly rather than configuring nothing.
        assert!(parse("wall_clock_exempt_crates = [\"crates/bench\"]").is_err());
        assert!(parse("[unknown]\n").is_err());
        assert!(parse("[[unknown]]\n").is_err());
        assert!(parse("[rules.x]\ntypo = \"y\"").is_err());
    }

    #[test]
    fn hash_inside_string_is_not_a_comment() {
        let cfg =
            parse("[[exclude]]\npath = \"a#b\"\nreason = \"uses # in name\"\n").expect("valid");
        assert_eq!(cfg.excludes[0].path, "a#b");
    }

    #[test]
    fn reachability_section_parses() {
        let cfg = parse(
            "[reachability]\n\
             entry_points = [\"simulate\", \"Simulation::run\"]\n",
        )
        .expect("valid");
        assert_eq!(cfg.entry_points, vec!["simulate", "Simulation::run"]);
        assert!(parse("[reachability]\ntypo = [\"a\"]\n").is_err());
    }

    #[test]
    fn prefix_matching_is_component_wise() {
        let cfg = parse("[[exclude]]\npath = \"crates/des\"\nreason = \"r\"\n").expect("valid");
        assert!(cfg.is_excluded("crates/des/src/sim.rs"));
        assert!(!cfg.is_excluded("crates/designer/src/lib.rs"));
    }
}
