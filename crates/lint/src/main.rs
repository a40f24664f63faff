//! `pcn-lint` — run the workspace hot-path audit (rule P1) from the
//! CLI.
//!
//! ```text
//! pcn-lint --workspace            # lint the whole workspace (CI entry point)
//! pcn-lint path/to/file.rs …     # lint specific files
//! pcn-lint --workspace --github  # also emit ::error annotations (auto on CI)
//! pcn-lint --workspace --json    # JSONL audit (incl. justified sites) on stdout
//! ```
//!
//! With `--json`, stdout carries one JSON object per finding —
//! including justified (annotated) sites, with their justification
//! text — and the human-readable lines move to stderr, so
//! `pcn-lint --json > audit.jsonl` produces a clean artifact.
//!
//! Exit code 0 = clean, 1 = unjustified findings, 2 = usage/IO error.

use pcn_lint::{find_workspace_root, github_annotations, policy_for, rules, Finding};
use std::path::Path;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workspace = false;
    let mut github = std::env::var_os("GITHUB_ACTIONS").is_some();
    let mut json = false;
    let mut files: Vec<String> = Vec::new();
    for a in &args {
        match a.as_str() {
            "--workspace" => workspace = true,
            "--github" => github = true,
            "--json" => json = true,
            "--help" | "-h" => {
                eprintln!("usage: pcn-lint [--workspace] [--github] [--json] [FILE.rs …]");
                return;
            }
            other if other.starts_with('-') => {
                eprintln!("pcn-lint: unknown flag `{other}`");
                std::process::exit(2);
            }
            file => files.push(file.to_string()),
        }
    }
    if !workspace && files.is_empty() {
        workspace = true; // the common case: audit everything
    }

    let cwd = std::env::current_dir().unwrap_or_else(|_| Path::new(".").to_path_buf());
    let Some(root) = find_workspace_root(&cwd) else {
        eprintln!("pcn-lint: no workspace root ([workspace] in Cargo.toml) above {cwd:?}");
        std::process::exit(2);
    };

    // The audit keeps justified findings; violations are the subset
    // without a justification.
    let mut audit: Vec<Finding> = Vec::new();
    if workspace {
        match pcn_lint::audit_workspace(&root) {
            Ok(f) => audit.extend(f),
            Err(e) => {
                eprintln!("pcn-lint: {e}");
                std::process::exit(2);
            }
        }
    }
    for file in &files {
        let rel = Path::new(file)
            .strip_prefix(&root)
            .map(|p| p.to_string_lossy().into_owned())
            .unwrap_or_else(|_| file.clone());
        let Some(policy) = policy_for(&rel) else {
            eprintln!("pcn-lint: {rel}: out of scope (shim/fixture/non-Rust), skipping");
            continue;
        };
        match std::fs::read_to_string(file) {
            Ok(src) => audit.extend(rules::audit_source(&rel, &src, &policy)),
            Err(e) => {
                eprintln!("pcn-lint: {file}: {e}");
                std::process::exit(2);
            }
        }
    }
    let findings: Vec<Finding> = audit
        .iter()
        .filter(|f| f.justification.is_none())
        .cloned()
        .collect();

    if json {
        print!("{}", pcn_lint::jsonl(&audit));
    }
    for f in &findings {
        let line = format!(
            "{}:{}: error[{}] {}",
            f.file,
            f.line,
            f.rule.name(),
            f.message
        );
        if json {
            eprintln!("{line}");
        } else {
            println!("{line}");
        }
    }
    if github && !findings.is_empty() && !json {
        print!("{}", github_annotations(&findings));
    }
    let scope = if workspace { "workspace" } else { "files" };
    let summary = if findings.is_empty() {
        format!(
            "lint-audit: {scope} clean (rule P1 hot-alloc; {} justified suppression(s))",
            audit.len() - findings.len()
        )
    } else {
        format!("lint-audit: {} finding(s)", findings.len())
    };
    if json {
        eprintln!("{summary}");
    } else {
        println!("{summary}");
    }
    if !findings.is_empty() {
        std::process::exit(1);
    }
}
