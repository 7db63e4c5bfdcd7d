//! One fixture pair per determinism rule (DESIGN.md §7), checked by the
//! clippy that ci.sh runs. The files under `tests/fixtures/` are built as
//! the modules of one throwaway crate that reads the root `clippy.toml` and
//! carries the root manifest's `[workspace.lints]` table and the library
//! crate-root lint levels. A `_bad` fixture must draw exactly the listed
//! `(lint, line)` pairs. An `_ok` fixture holds the sanctioned idiom and a
//! violation under a reasoned `#[expect]`, and must draw nothing: an
//! `#[expect]` whose lint no longer fires is itself reported, so a weakened
//! rule fails here as well.

use empower_telemetry::Json;
use std::fs;
use std::path::Path;
use std::process::Command;
use std::sync::OnceLock;

/// The levels in every library crate root but empower-bench's (D004, D005).
const LEVELS: &str = "#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]";

/// One diagnostic: fixture name, lint, line, rendered text.
type Diagnostic = (String, String, u64, String);

/// Runs clippy once over the fixture crate and collects what it reports.
fn diagnostics() -> &'static [Diagnostic] {
    static REPORT: OnceLock<Vec<Diagnostic>> = OnceLock::new();
    REPORT.get_or_init(|| {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"));
        let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("rule-fixtures");
        fs::create_dir_all(dir.join("src")).unwrap();
        let mut manifest =
            "[package]\nname = \"rule-fixtures\"\nedition = \"2021\"\n\n[workspace]\n".to_string();
        let mut in_lints = false;
        for line in fs::read_to_string(root.join("Cargo.toml")).unwrap().lines() {
            if line.starts_with('[') {
                in_lints = line.starts_with("[workspace.lints.");
            }
            if in_lints {
                manifest += &format!("{}\n", line.replacen("[workspace.", "[", 1));
            }
        }
        fs::write(dir.join("Cargo.toml"), manifest).unwrap();
        let mut lib = format!("{LEVELS}\n");
        for entry in fs::read_dir(root.join("tests/fixtures")).unwrap() {
            let path = entry.unwrap().path();
            let name = path.file_stem().unwrap().to_str().unwrap().to_string();
            lib += &format!("#[path = {:?}]\npub mod {name};\n", path.to_str().unwrap());
        }
        fs::write(dir.join("src/lib.rs"), lib).unwrap();
        let out = Command::new(env!("CARGO"))
            .args(["clippy", "--offline", "--quiet", "--message-format=json", "--target-dir"])
            .arg(dir.join("target"))
            .current_dir(&dir)
            .env("CLIPPY_CONF_DIR", root)
            .output()
            .unwrap();
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stdout.contains("\"build-finished\""), "clippy did not run:\n{stderr}");
        stdout.lines().filter_map(|line| parse(&Json::parse(line).ok()?)).collect()
    })
}

fn parse(message: &Json) -> Option<Diagnostic> {
    let diagnostic = message.get("message")?;
    let Json::Arr(spans) = diagnostic.get("spans")? else { return None };
    let span = spans.iter().find(|s| s.get("is_primary") == Some(&Json::Bool(true)))?;
    let file = Path::new(span.get("file_name")?.as_str()?);
    Some((
        file.file_stem()?.to_str()?.to_string(),
        diagnostic.get("code")?.get("code")?.as_str()?.to_string(),
        span.get("line_start")?.as_u64()?,
        diagnostic.get("rendered")?.as_str()?.to_string(),
    ))
}

/// Asserts that fixture `name` draws exactly `expected`, in line order.
fn draws(name: &str, expected: &[(&str, u64)]) {
    let mut got: Vec<_> =
        diagnostics().iter().filter(|d| d.0 == name).map(|d| (d.1.as_str(), d.2)).collect();
    got.sort_by_key(|&(lint, line)| (line, lint));
    assert_eq!(got, expected, "{name}");
}

/// The member crates' directories.
fn members() -> impl Iterator<Item = std::path::PathBuf> {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    fs::read_dir(crates).unwrap().map(|entry| entry.unwrap().path())
}

#[test]
fn d001_fixtures() {
    let lint = "clippy::disallowed_types";
    draws("d001_bad", &[(lint, 1), (lint, 3), (lint, 4)]);
    draws("d001_ok", &[]);
}

#[test]
fn d002_fixtures() {
    draws("d002_bad", &[("clippy::disallowed_methods", 2)]);
    draws("d002_ok", &[]);
}

#[test]
fn d003_fixtures() {
    draws("d003_bad", &[("clippy::disallowed_types", 4)]);
}

#[test]
fn d004_fixtures() {
    draws("d004_bad", &[("clippy::unwrap_used", 2)]);
    draws("d004_ok", &[]);
}

#[test]
fn d005_fixtures() {
    let lints = [("clippy::unwrap_used", 2), ("clippy::expect_used", 6), ("clippy::panic", 10)];
    draws("d005_bad", &lints);
    draws("d005_ok", &[]);
    // The fixture crate's levels are the ones every library root carries.
    for member in members().filter(|m| !m.ends_with("bench")) {
        let lib = fs::read_to_string(member.join("src/lib.rs")).unwrap();
        assert!(lib.contains(LEVELS), "{} lacks {LEVELS}", member.display());
    }
}

#[test]
fn d006_fixtures() {
    draws("d006_bad", &[("unsafe_code", 2)]);
    // Every member inherits the workspace table the fixture crate copied.
    for member in members() {
        let manifest = fs::read_to_string(member.join("Cargo.toml")).unwrap();
        assert!(manifest.contains("[lints]\nworkspace = true"), "{}", member.display());
    }
}

#[test]
fn d007_fixtures() {
    draws("d007_bad", &[("clippy::disallowed_methods", 2)]);
    draws("d007_ok", &[]);
}

#[test]
fn d008_fixtures() {
    let lint = "clippy::disallowed_methods";
    draws("d008_bad", &[(lint, 4), (lint, 8)]);
    draws("d008_ok", &[]);
}

#[test]
fn d009_fixtures() {
    let lint = "clippy::disallowed_methods";
    draws("d009_bad", &[(lint, 4), (lint, 5), (lint, 9)]);
    draws("d009_ok", &[]);
}

#[test]
fn d010_fixtures() {
    let lint = "clippy::disallowed_types";
    draws("d010_bad", &[(lint, 1), (lint, 2), (lint, 5), (lint, 6)]);
    draws("d010_ok", &[]);
}

#[test]
fn d011_fixtures() {
    let lint = "clippy::disallowed_methods";
    draws("d011_bad", &[(lint, 2), (lint, 6)]);
    draws("d011_ok", &[]);
}

/// The reasonless `#[allow]` is itself a hard error, so the build fails
/// just as the `unwrap` it hides would have made it fail.
#[test]
fn p001_reasonless_pragma_reports_and_does_not_suppress() {
    draws("p001_bad", &[("clippy::allow_attributes_without_reason", 1)]);
}

#[test]
fn diagnostics_carry_the_fixture_path() {
    let unwrap = diagnostics().iter().find(|d| d.0 == "d005_bad" && d.2 == 2).unwrap();
    let at = "tests/fixtures/d005_bad.rs:2:";
    assert!(unwrap.3.contains(at), "unexpected diagnostic format: {}", unwrap.3);
}
