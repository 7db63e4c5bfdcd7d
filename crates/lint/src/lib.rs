#![forbid(unsafe_code)]
//! # empower-lint
//!
//! The workspace's determinism & invariant static-analysis gate.
//!
//! The EMPoWER stack promises that seed-identical runs produce
//! byte-identical telemetry manifests (ci.sh compares two runs of the same
//! scenario). That promise is only as strong as the code conventions
//! backing it, so this crate machine-checks them. It walks every `.rs`
//! file of the workspace with a self-contained lexer (the build is
//! dependency-free by design — no `syn`), builds a lightweight
//! module/`use`-resolution index over all crates (phase 1), then enforces
//! eleven domain lints with that cross-file context (phase 2):
//!
//! | rule | what it catches |
//! |------|-----------------|
//! | D001 | `HashMap`/`HashSet` in deterministic, non-test code |
//! | D002 | wall-clock time (`Instant::now`, `SystemTime`) outside bench |
//! | D003 | RNG construction from ambient entropy (`thread_rng`, …) |
//! | D004 | float ordering via `partial_cmp().unwrap()` |
//! | D005 | `unwrap()`/`expect()`/`panic!` in library non-test code |
//! | D006 | missing `#![forbid(unsafe_code)]` in a crate root |
//! | D007 | unordered cross-thread result collection (mpsc, completion-order merges) |
//! | D008 | `Ordering::Relaxed` read-modify-write outside the sanctioned work cursor |
//! | D009 | detached `thread::spawn` (JoinHandle dropped, not joined/scoped) |
//! | D010 | `Mutex`/`RwLock` in a hot-path crate without justification |
//! | D011 | `EMPOWER_*` env read not declared in `crates/lint/env_registry.toml` |
//!
//! Intentional exceptions are documented in place:
//!
//! ```text
//! // empower-lint: allow(D001) — keys-only lookup table, never iterated
//! ```
//!
//! and the concurrency rules additionally honour item-level sanctions —
//! `/// empower-lint: sanction(D007, D008) — <why>` marks the one blessed
//! implementation of an otherwise-forbidden pattern, which diagnostics
//! then point at *by resolved path*, never by filename. A pragma without
//! a reason is itself an error (P001). Pragmas are the only way to
//! tolerate a finding. See DESIGN.md §7 (determinism rules) and §12
//! (concurrency rules).
//!
//! ## Usage
//!
//! ```text
//! cargo run -p empower-lint                       # lint, exit 1 on findings
//! cargo run -p empower-lint -- --json             # SARIF-style output
//! cargo run -p empower-lint -- --sarif out.sarif  # text + artifact file
//! cargo run -p empower-lint -- --env-table        # registry → markdown
//! ```
//!
//! The library surface ([`lint_source`], [`lint_workspace`]) is what the
//! fixture tests and the binary share.

mod env_registry;
mod index;
mod lexer;
mod report;
mod rules;
mod walk;

pub use env_registry::{parse as parse_env_registry, EnvKnob, EnvRegistry, Reader};
pub use index::{EnvReadSite, PubItem, Sanction, WorkspaceIndex, SANCTIONABLE};
pub use lexer::{lex, Lexed, TokKind, Token};
pub use report::Report;
pub use rules::{lint_source, lint_source_indexed, FileContext, Rule, Violation, ALL_RULES};
pub use walk::{
    collect_contexts, lint_workspace, load_registry, workspace_env_reads, WalkError,
    ENV_REGISTRY_PATH,
};
