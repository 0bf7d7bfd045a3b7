//! CLI for the workspace determinism & invariant linter.
//!
//! ```text
//! cargo run -p hhsim-analysis -- --workspace [options]
//!
//!   --workspace             analyze the enclosing cargo workspace (default)
//!   --root <dir>            workspace root (default: walk up from cwd)
//!   --config <file>         allowlist/config (default: <root>/analysis.toml)
//!   --baseline <file>       budgets (default: <root>/analysis-baseline.json)
//!   --changed <git-ref>     report site findings only for files changed
//!                           vs <git-ref> (the index and reachability are
//!                           still built over the whole workspace, so the
//!                           per-file verdicts agree with a full run;
//!                           crate-level budget findings are omitted)
//!   --dump-graph            print the symbol index/call graph as JSON
//!   --update-baseline       write current budget counters to the baseline
//!   --list-rules            print the rule catalogue and exit
//! ```
//!
//! Exit codes: 0 = clean, 1 = error-severity findings, 2 = usage/config error.

use std::path::PathBuf;
use std::process::ExitCode;

use hhsim_analysis::{
    analyze_full, collect_sources, config, find_workspace_root, index, parse_baseline,
    render_baseline, rules::all_rules, Baseline,
};

struct Options {
    root: Option<PathBuf>,
    config: Option<PathBuf>,
    baseline: Option<PathBuf>,
    changed: Option<String>,
    dump_graph: bool,
    update_baseline: bool,
    list_rules: bool,
}

fn usage() -> &'static str {
    "usage: hhsim-analysis --workspace [--root DIR] [--config FILE] [--baseline FILE] \
     [--changed GIT_REF] [--dump-graph] [--update-baseline] [--list-rules]"
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        root: None,
        config: None,
        baseline: None,
        changed: None,
        dump_graph: false,
        update_baseline: false,
        list_rules: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workspace" => {}
            "--root" => opts.root = Some(next_path(&mut args, "--root")?),
            "--config" => opts.config = Some(next_path(&mut args, "--config")?),
            "--baseline" => opts.baseline = Some(next_path(&mut args, "--baseline")?),
            "--changed" => opts.changed = Some(args.next().ok_or("--changed needs a git ref")?),
            "--dump-graph" => opts.dump_graph = true,
            "--update-baseline" => opts.update_baseline = true,
            "--list-rules" => opts.list_rules = true,
            "-h" | "--help" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(opts)
}

fn next_path(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<PathBuf, String> {
    args.next()
        .map(PathBuf::from)
        .ok_or(format!("{flag} needs a value"))
}

/// `git diff --name-only <ref>` relative to `root`, filtered to `.rs`.
fn changed_files(root: &std::path::Path, gitref: &str) -> Result<Vec<String>, String> {
    let out = std::process::Command::new("git")
        .arg("-C")
        .arg(root)
        .args(["diff", "--name-only", gitref])
        .output()
        .map_err(|e| format!("running git diff: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "git diff --name-only {gitref} failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    Ok(String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(str::trim)
        .filter(|l| l.ends_with(".rs"))
        .map(str::to_string)
        .collect())
}

fn run() -> Result<ExitCode, String> {
    let opts = parse_args()?;

    if opts.list_rules {
        for rule in all_rules() {
            println!(
                "{:<28} [{:<16}] {}",
                rule.name(),
                rule.default_scope().as_str(),
                rule.description()
            );
        }
        return Ok(ExitCode::SUCCESS);
    }

    // The linter reports its own wall-clock runtime (CHANGES.md tracks a
    // < 5 s budget for the full workspace); `crates/analysis` is in the
    // config's wall-clock exempt list for the same reason.
    #[allow(clippy::disallowed_methods)]
    let started = std::time::Instant::now();

    let root = match opts.root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().map_err(|e| format!("cwd: {e}"))?;
            find_workspace_root(&cwd)
                .ok_or("no [workspace] Cargo.toml above the current directory; pass --root")?
        }
    };

    let config_path = opts.config.unwrap_or_else(|| root.join("analysis.toml"));
    let cfg = match std::fs::read_to_string(&config_path) {
        Ok(text) => config::parse(&text).map_err(|e| format!("{}: {e}", config_path.display()))?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            eprintln!(
                "note: {} not found, running with built-in defaults (no sim-crate scoping)",
                config_path.display()
            );
            config::Config::default()
        }
        Err(e) => return Err(format!("{}: {e}", config_path.display())),
    };

    let baseline_path = opts
        .baseline
        .unwrap_or_else(|| root.join("analysis-baseline.json"));
    let baseline: Option<Baseline> = match std::fs::read_to_string(&baseline_path) {
        Ok(text) => {
            Some(parse_baseline(&text).map_err(|e| format!("{}: {e}", baseline_path.display()))?)
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
        Err(e) => return Err(format!("{}: {e}", baseline_path.display())),
    };

    let files = collect_sources(&root).map_err(|e| format!("walking {}: {e}", root.display()))?;

    let (mut analysis, semantics) = analyze_full(&files, &cfg, baseline.as_ref())?;

    if opts.dump_graph {
        print!(
            "{}",
            index::dump_graph(&semantics.index, semantics.reach.as_ref())
        );
        return Ok(ExitCode::SUCCESS);
    }

    if opts.update_baseline {
        let text = render_baseline(&analysis.counters);
        std::fs::write(&baseline_path, &text)
            .map_err(|e| format!("writing {}: {e}", baseline_path.display()))?;
        eprintln!("baseline written to {}", baseline_path.display());
        // Budget findings are resolved by the rewrite; drop them so the
        // exit code reflects the state the repo is now in.
        let budget_rules: Vec<String> = analysis.counters.keys().cloned().collect();
        analysis
            .report
            .findings
            .retain(|f| !(f.line == 0 && budget_rules.iter().any(|r| r == f.rule)));
    }

    if let Some(gitref) = &opts.changed {
        let changed = changed_files(&root, gitref)?;
        // The index and budgets were computed over the whole workspace;
        // only the *reporting* narrows. Crate-level (line 0) findings are
        // dropped: they aggregate over unchanged files too.
        analysis
            .report
            .findings
            .retain(|f| f.line > 0 && changed.iter().any(|c| c == &f.file));
        eprintln!(
            "diff-aware run: {} changed .rs file(s) vs {gitref}",
            changed.len()
        );
    }

    print!("{}", analysis.report.render_human());
    eprintln!(
        "analysis completed in {:.1} ms",
        started.elapsed().as_secs_f64() * 1e3
    );

    Ok(if analysis.report.error_count() > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{}", usage());
            ExitCode::from(2)
        }
    }
}
