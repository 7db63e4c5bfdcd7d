//! Shared helpers for versioned TOML/JSON scenario schemas.
//!
//! The dynamics scenario codec ([`crate::scenario`]) and the workload DSL
//! (`empower-workload`) follow the same conventions: a `schema` version
//! field checked on parse, dotted field paths in every error, required/
//! optional typed field accessors, and arrays of tables decoded
//! element-wise with indexed paths (`clients[2].rate_mbps`). This module
//! is those conventions as code, so sibling schemas stay consistent
//! instead of re-implementing field plumbing.

use empower_telemetry::Json;

use crate::scenario::ScenarioError;

/// Shorthand for a failed schema lookup at `path`.
pub fn serr<T>(path: impl Into<String>, message: impl Into<String>) -> Result<T, ScenarioError> {
    Err(ScenarioError { path: path.into(), message: message.into() })
}

/// Joins a dotted field path with a key (`events[2]` + `link` →
/// `events[2].link`).
pub fn join(path: &str, key: &str) -> String {
    if path.is_empty() {
        key.to_string()
    } else {
        format!("{path}.{key}")
    }
}

/// Required string field.
pub fn req_str<'a>(v: &'a Json, key: &str, path: &str) -> Result<&'a str, ScenarioError> {
    v.get(key).and_then(Json::as_str).ok_or_else(|| ScenarioError {
        path: join(path, key),
        message: "missing or not a string".into(),
    })
}

/// Required numeric field.
pub fn req_f64(v: &Json, key: &str, path: &str) -> Result<f64, ScenarioError> {
    v.get(key).and_then(Json::as_f64).ok_or_else(|| ScenarioError {
        path: join(path, key),
        message: "missing or not a number".into(),
    })
}

/// Required non-negative integer field.
pub fn req_u64(v: &Json, key: &str, path: &str) -> Result<u64, ScenarioError> {
    v.get(key).and_then(Json::as_u64).ok_or_else(|| ScenarioError {
        path: join(path, key),
        message: "missing or not a non-negative integer".into(),
    })
}

/// Optional numeric field (present ⇒ must be a number).
pub fn opt_f64(v: &Json, key: &str, path: &str) -> Result<Option<f64>, ScenarioError> {
    match v.get(key) {
        None => Ok(None),
        Some(x) => x
            .as_f64()
            .map(Some)
            .ok_or_else(|| ScenarioError { path: join(path, key), message: "not a number".into() }),
    }
}

/// Optional non-negative integer field (present ⇒ must be an integer).
pub fn opt_u64(v: &Json, key: &str, path: &str) -> Result<Option<u64>, ScenarioError> {
    match v.get(key) {
        None => Ok(None),
        Some(x) => x.as_u64().map(Some).ok_or_else(|| ScenarioError {
            path: join(path, key),
            message: "not a non-negative integer".into(),
        }),
    }
}

/// Optional boolean field (present ⇒ must be a boolean).
pub fn opt_bool(v: &Json, key: &str, path: &str) -> Result<Option<bool>, ScenarioError> {
    match v.get(key) {
        None => Ok(None),
        Some(x) => x.as_bool().map(Some).ok_or_else(|| ScenarioError {
            path: join(path, key),
            message: "not a boolean".into(),
        }),
    }
}

/// Optional string field (present ⇒ must be a string).
pub fn opt_str<'a>(v: &'a Json, key: &str, path: &str) -> Result<Option<&'a str>, ScenarioError> {
    match v.get(key) {
        None => Ok(None),
        Some(x) => x
            .as_str()
            .map(Some)
            .ok_or_else(|| ScenarioError { path: join(path, key), message: "not a string".into() }),
    }
}

/// Decodes the optional array of tables at `key` element-wise, handing each
/// decoder its indexed path (`key[i]`). A missing key is an empty list.
pub fn arr_of<T>(
    doc: &Json,
    key: &str,
    f: impl Fn(&Json, String) -> Result<T, ScenarioError>,
) -> Result<Vec<T>, ScenarioError> {
    match doc.get(key) {
        None => Ok(Vec::new()),
        Some(Json::Arr(items)) => {
            items.iter().enumerate().map(|(i, item)| f(item, format!("{key}[{i}]"))).collect()
        }
        Some(_) => serr(key, "not an array"),
    }
}

/// Checks the document's `schema` field against the expected major version;
/// a missing or mismatched version is a parse error, not a silent misread.
pub fn check_schema_version(doc: &Json, expected: u64) -> Result<(), ScenarioError> {
    let v = req_u64(doc, "schema", "")?;
    if v != expected {
        return serr(
            "schema",
            format!("unsupported schema version {v} (this crate reads {expected})"),
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paths_join_with_dots() {
        assert_eq!(join("", "schema"), "schema");
        assert_eq!(join("events[2]", "link"), "events[2].link");
    }

    #[test]
    fn required_fields_report_dotted_paths() {
        let doc = Json::obj([("name", Json::Str("x".into()))]);
        let e = req_f64(&doc, "at", "events[0]").unwrap_err();
        assert_eq!(e.path, "events[0].at");
        assert!(req_str(&doc, "name", "").is_ok());
    }

    #[test]
    fn optional_fields_distinguish_missing_from_mistyped() {
        let doc = Json::obj([("rate", Json::Str("fast".into()))]);
        assert_eq!(opt_f64(&doc, "absent", "").unwrap(), None);
        assert!(opt_f64(&doc, "rate", "clients[0]").is_err());
        assert_eq!(opt_str(&doc, "rate", "").unwrap(), Some("fast"));
        assert_eq!(opt_bool(&doc, "absent", "").unwrap(), None);
        let e = opt_bool(&doc, "rate", "events[2]").unwrap_err();
        assert_eq!(e.path, "events[2].rate");
        let doc = Json::obj([("both", Json::Bool(false))]);
        assert_eq!(opt_bool(&doc, "both", "").unwrap(), Some(false));
    }

    #[test]
    fn arrays_decode_with_indexed_paths() {
        let doc = Json::obj([(
            "xs",
            Json::Arr(vec![Json::obj([("v", Json::UInt(1))]), Json::obj([("w", Json::UInt(2))])]),
        )]);
        let e = arr_of(&doc, "xs", |item, path| req_u64(item, "v", &path)).unwrap_err();
        assert_eq!(e.path, "xs[1].v");
    }

    #[test]
    fn schema_versions_gate_parsing() {
        let ok = Json::obj([("schema", Json::UInt(1))]);
        assert!(check_schema_version(&ok, 1).is_ok());
        assert!(check_schema_version(&ok, 2).is_err());
        assert!(check_schema_version(&Json::Obj(Vec::new()), 1).is_err());
    }
}
