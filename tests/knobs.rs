//! The `EMPOWER_*` environment knobs the repository reads are exactly the
//! ones EXPERIMENTS.md documents. Every name of that shape under
//! `crates/`, `src/`, `examples/` and `tests/`, or in `ci.sh`, must have a
//! row in the "Environment knobs" table, and every row must name a knob
//! something still mentions. (`benchmark/` is a package of its own with
//! its own documentation and is not scanned.)

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

const PREFIX: &str = "EMPOWER_";

/// Adds every `EMPOWER_[A-Z0-9_]+` name in `text` to `out`.
fn collect_names(text: &str, out: &mut BTreeSet<String>) {
    let mut rest = text;
    while let Some(at) = rest.find(PREFIX) {
        let tail = &rest[at + PREFIX.len()..];
        let len = tail
            .find(|c: char| !(c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_'))
            .unwrap_or(tail.len());
        if len > 0 {
            out.insert(format!("{PREFIX}{}", &tail[..len]));
        }
        rest = &tail[len..];
    }
}

fn scan(path: &Path, out: &mut BTreeSet<String>) {
    if path.is_dir() {
        for entry in fs::read_dir(path).unwrap() {
            scan(&entry.unwrap().path(), out);
        }
    } else {
        collect_names(&String::from_utf8_lossy(&fs::read(path).unwrap()), out);
    }
}

/// The knob names in the first column of EXPERIMENTS.md's knob table.
fn documented(experiments_md: &str) -> BTreeSet<String> {
    experiments_md
        .lines()
        .filter_map(|line| line.strip_prefix("| `"))
        .filter_map(|cell| cell.split('`').next())
        .filter(|name| name.starts_with(PREFIX))
        .map(str::to_string)
        .collect()
}

#[test]
fn every_knob_read_is_documented_and_every_documented_knob_is_read() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut read = BTreeSet::new();
    for part in ["crates", "src", "examples", "tests", "ci.sh"] {
        scan(&root.join(part), &mut read);
    }
    let table = documented(&fs::read_to_string(root.join("EXPERIMENTS.md")).unwrap());
    let undocumented: Vec<_> = read.difference(&table).collect();
    let unread: Vec<_> = table.difference(&read).collect();
    assert!(
        undocumented.is_empty() && unread.is_empty(),
        "EXPERIMENTS.md's knob table is out of date: add rows for {undocumented:?}, \
         remove rows for {unread:?}"
    );
}
