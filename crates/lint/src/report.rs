//! Rendering lint results: rustc-style text diagnostics with a per-rule
//! summary, or a SARIF 2.1.0-style JSON document (`--sarif`) built on the
//! telemetry crate's deterministic [`Json`] value type, which ci.sh
//! archives as a diagnostic artifact.

use empower_telemetry::Json;

use crate::rules::{Rule, Violation, ALL_RULES};

/// The outcome of linting a file set.
#[derive(Debug, Default)]
pub struct Report {
    /// Violations that fail the gate.
    pub violations: Vec<Violation>,
    pub files_scanned: usize,
}

impl Report {
    /// True when the gate passes.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Failing violation count for one rule.
    pub fn count(&self, rule: Rule) -> usize {
        self.violations.iter().filter(|v| v.rule == rule).count()
    }

    /// Human-readable rendering: one `file:line: rule: message` diagnostic
    /// per violation, then a per-rule summary line.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for v in &self.violations {
            out.push_str(&v.to_string());
            out.push('\n');
        }
        if self.ok() {
            out.push_str(&format!(
                "empower-lint: clean — {} files, 0 violations\n",
                self.files_scanned
            ));
        } else {
            let mut parts = Vec::new();
            for r in ALL_RULES {
                let n = self.count(r);
                if n > 0 {
                    parts.push(format!("{r}: {n} ({})", r.describe()));
                }
            }
            out.push_str(&format!(
                "empower-lint: {} violation{} in {} files\n  {}\n",
                self.violations.len(),
                if self.violations.len() == 1 { "" } else { "s" },
                self.files_scanned,
                parts.join("\n  ")
            ));
        }
        out
    }

    /// SARIF 2.1.0-style rendering for machine consumption (CI artifacts,
    /// annotation tooling).
    pub fn render_json(&self) -> String {
        let rules: Vec<Json> = ALL_RULES
            .iter()
            .map(|r| {
                Json::obj([
                    ("id", Json::Str(r.name().to_string())),
                    ("shortDescription", Json::obj([("text", Json::Str(r.describe().into()))])),
                ])
            })
            .collect();
        let results: Vec<Json> = self.violations.iter().map(sarif_result).collect();
        let summary: Vec<(&str, Json)> = ALL_RULES
            .iter()
            .filter(|&&r| self.count(r) > 0)
            .map(|&r| (r.name(), Json::UInt(self.count(r) as u64)))
            .collect();
        let driver = Json::obj([
            ("name", Json::Str("empower-lint".into())),
            ("informationUri", Json::Str("DESIGN.md".into())),
            ("rules", Json::Arr(rules)),
        ]);
        let run = Json::obj([
            ("tool", Json::obj([("driver", driver)])),
            ("results", Json::Arr(results)),
            (
                "properties",
                Json::obj([
                    ("ok", Json::Bool(self.ok())),
                    ("filesScanned", Json::UInt(self.files_scanned as u64)),
                    ("summary", Json::obj(summary)),
                ]),
            ),
        ]);
        Json::obj([
            ("version", Json::Str("2.1.0".into())),
            ("$schema", Json::Str("https://json.schemastore.org/sarif-2.1.0.json".into())),
            ("runs", Json::Arr(vec![run])),
        ])
        .to_string()
    }
}

fn sarif_result(v: &Violation) -> Json {
    let location = Json::obj([(
        "physicalLocation",
        Json::obj([
            ("artifactLocation", Json::obj([("uri", Json::Str(v.file.clone()))])),
            ("region", Json::obj([("startLine", Json::UInt(v.line as u64))])),
        ]),
    )]);
    Json::obj([
        ("ruleId", Json::Str(v.rule.name().to_string())),
        ("level", Json::Str("error".into())),
        ("message", Json::obj([("text", Json::Str(v.message.clone()))])),
        ("locations", Json::Arr(vec![location])),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> Report {
        Report {
            violations: vec![Violation {
                rule: Rule::D001,
                file: "crates/x/src/lib.rs".into(),
                line: 7,
                message: "`HashMap` in deterministic crate".into(),
            }],
            files_scanned: 3,
        }
    }

    /// Navigates `runs[0]` of a parsed SARIF document.
    fn first_run(j: &Json) -> &Json {
        match j.get("runs").expect("runs") {
            Json::Arr(runs) => runs.first().expect("one run"),
            other => panic!("runs is not an array: {other:?}"),
        }
    }

    fn results(run: &Json) -> &[Json] {
        match run.get("results").expect("results") {
            Json::Arr(r) => r,
            other => panic!("results is not an array: {other:?}"),
        }
    }

    #[test]
    fn text_has_file_line_rule() {
        let txt = report().render_text();
        assert!(txt.contains("crates/x/src/lib.rs:7: D001:"));
        assert!(txt.contains("D001: 1"));
    }

    #[test]
    fn sarif_carries_results_and_rules() {
        let j = Json::parse(&report().render_json()).expect("valid JSON");
        assert_eq!(j.get("version").and_then(Json::as_str), Some("2.1.0"));
        let run = first_run(&j);
        let driver = run.get("tool").and_then(|t| t.get("driver")).expect("driver");
        assert_eq!(driver.get("name").and_then(Json::as_str), Some("empower-lint"));

        let rs = results(run);
        assert_eq!(rs.len(), 1);
        assert_eq!(rs[0].get("ruleId").and_then(Json::as_str), Some("D001"));
        let line = rs[0]
            .get("locations")
            .and_then(|l| match l {
                Json::Arr(a) => a.first(),
                _ => None,
            })
            .and_then(|l| l.get("physicalLocation"))
            .and_then(|p| p.get("region"))
            .and_then(|r| r.get("startLine"))
            .and_then(Json::as_u64);
        assert_eq!(line, Some(7));

        let props = run.get("properties").expect("properties");
        assert_eq!(props.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(props.get("filesScanned").and_then(Json::as_u64), Some(3));
        assert_eq!(
            props.get("summary").and_then(|s| s.get("D001")).and_then(Json::as_u64),
            Some(1)
        );
    }

    #[test]
    fn clean_report_says_so() {
        let r = Report { files_scanned: 5, ..Report::default() };
        assert!(r.ok());
        assert!(r.render_text().contains("clean"));
        let j = Json::parse(&r.render_json()).expect("valid JSON");
        let props = first_run(&j).get("properties").expect("properties");
        assert_eq!(props.get("ok").and_then(Json::as_bool), Some(true));
        assert!(results(first_run(&j)).is_empty());
    }
}
