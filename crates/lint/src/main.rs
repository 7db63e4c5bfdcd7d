#![forbid(unsafe_code)]
//! `empower-lint` — the workspace determinism & invariant gate.
//!
//! ```text
//! empower-lint [--sarif PATH] [--env-table] [ROOT]
//! ```
//!
//! Lints every workspace `.rs` file under `ROOT` (default: the current
//! directory, or its nearest ancestor containing `crates/`).
//!
//! * `--sarif PATH` — additionally write the SARIF document to `PATH`
//!   (the CI artifact), keeping text on stdout;
//! * `--env-table` — print the `EMPOWER_*` knob registry as the markdown
//!   table EXPERIMENTS.md embeds, then exit.
//!
//! Exit codes: 0 = clean, 1 = violations found, 2 = usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use empower_lint::{lint_workspace, load_registry};

fn main() -> ExitCode {
    let mut env_table = false;
    let mut sarif_path: Option<PathBuf> = None;
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--env-table" => env_table = true,
            "--sarif" => match args.next() {
                Some(p) => sarif_path = Some(PathBuf::from(p)),
                None => return usage_error("--sarif needs a path"),
            },
            "--help" | "-h" => {
                println!("usage: empower-lint [--sarif PATH] [--env-table] [ROOT]");
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                return usage_error(&format!("unknown flag `{other}` (try --help)"));
            }
            other => root = Some(PathBuf::from(other)),
        }
    }
    let root = root.unwrap_or_else(find_workspace_root);

    if env_table {
        return match load_registry(&root) {
            Ok(registry) => {
                print!("{}", registry.render_markdown_table());
                ExitCode::SUCCESS
            }
            Err(e) => io_error(&e.to_string()),
        };
    }

    let report = match lint_workspace(&root) {
        Ok(r) => r,
        Err(e) => return io_error(&e.to_string()),
    };

    if let Some(path) = &sarif_path {
        if let Err(e) = std::fs::write(path, report.render_json()) {
            return io_error(&format!("{}: cannot write SARIF artifact: {e}", path.display()));
        }
    }
    print!("{}", report.render_text());
    if report.ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("empower-lint: {msg}");
    ExitCode::from(2)
}

fn io_error(msg: &str) -> ExitCode {
    eprintln!("empower-lint: {msg}");
    ExitCode::from(2)
}

/// The nearest ancestor of the current directory that contains `crates/`
/// (so `cargo run -p empower-lint` works from anywhere in the repo).
fn find_workspace_root() -> PathBuf {
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        if dir.join("crates").is_dir() {
            return dir;
        }
        if !dir.pop() {
            return PathBuf::from(".");
        }
    }
}
