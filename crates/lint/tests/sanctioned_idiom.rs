//! Proof that `empower_exec::run_indexed` is clean under the
//! concurrency rules *because it is sanctioned, not because it is
//! suppressed*: the file carries no `allow(..)` pragmas, the sanction
//! resolves to the item by path, and stripping the sanction makes D008
//! fire on the work cursor.

#![forbid(unsafe_code)]

use empower_lint::{lint_source_indexed, FileContext, Rule, WorkspaceIndex};

const EXEC_SRC: &str = include_str!("../../exec/src/lib.rs");

fn exec_ctx() -> FileContext {
    FileContext {
        path: "crates/exec/src/lib.rs".to_string(),
        crate_name: "empower-exec".to_string(),
        is_crate_root: true,
        is_bin: false,
        is_scaffold: false,
    }
}

#[test]
fn run_indexed_is_pragma_free() {
    assert!(
        !EXEC_SRC.contains("empower-lint: allow"),
        "the executor must not carry allow pragmas — its exemption is the sanction"
    );
}

#[test]
fn the_sanction_resolves_to_run_indexed_by_path() {
    let mut index = WorkspaceIndex::default();
    let p001 = index.add_file(&exec_ctx(), EXEC_SRC);
    assert!(p001.is_empty(), "sanction pragma must be well-formed: {p001:?}");
    for rule in [Rule::D007, Rule::D008] {
        let s = index.sanctioned_idiom(rule).unwrap_or_else(|| panic!("{rule} sanction"));
        assert_eq!(s.item, "empower_exec::run_indexed");
        assert!(!s.reason.is_empty());
    }
}

#[test]
fn run_indexed_lints_clean_under_the_concurrency_rules() {
    let mut index = WorkspaceIndex::default();
    index.add_file(&exec_ctx(), EXEC_SRC);
    let violations = lint_source_indexed(&exec_ctx(), EXEC_SRC, &index);
    assert!(violations.is_empty(), "the executor must lint clean: {violations:#?}");
}

#[test]
fn stripping_the_sanction_makes_d008_fire() {
    // Same file, sanction disabled: the Relaxed work cursor is now an
    // ordinary violation — proof the exemption comes from the sanction
    // machinery, not from a blind spot.
    let stripped = EXEC_SRC.replace("empower-lint: sanction", "empower-lint-disabled:");
    let mut index = WorkspaceIndex::default();
    let p001 = index.add_file(&exec_ctx(), &stripped);
    assert!(p001.is_empty(), "the disabled tag must not parse as a pragma");
    let violations = lint_source_indexed(&exec_ctx(), &stripped, &index);
    assert_eq!(
        violations.iter().map(|v| v.rule).collect::<Vec<_>>(),
        vec![Rule::D008],
        "expected exactly the work-cursor D008: {violations:#?}"
    );
}
