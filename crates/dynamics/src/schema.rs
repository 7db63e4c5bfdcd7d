//! The field plumbing of the document codec ([`crate::scenario`]): a
//! `schema` version field checked on parse, dotted field paths in every
//! error, required/optional typed field accessors, and arrays of tables
//! decoded element-wise with indexed paths (`clients[2].rate_mbps`).

use empower_telemetry::Json;

use crate::scenario::ScenarioError;
use crate::toml;

/// Parses a scenario or workload document: JSON when the text starts with
/// `{`, TOML otherwise. Syntax errors are document-level (empty path).
pub fn parse_document(text: &str) -> Result<Json, ScenarioError> {
    let parsed = if text.trim_start().starts_with('{') {
        Json::parse(text).map_err(|e| e.to_string())
    } else {
        toml::parse(text).map_err(|e| e.to_string())
    };
    parsed.map_err(|message| ScenarioError { path: String::new(), message })
}

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

/// Required numeric field; see [`opt_f64`].
pub fn req_f64(v: &Json, key: &str, path: &str) -> Result<f64, ScenarioError> {
    opt_f64(v, key, path)?
        .ok_or_else(|| ScenarioError { path: join(path, key), message: "missing".into() })
}

/// Required non-negative integer field.
pub fn req_u64(v: &Json, key: &str, path: &str) -> Result<u64, ScenarioError> {
    v.get(key).and_then(Json::as_u64).ok_or_else(|| ScenarioError {
        path: join(path, key),
        message: "missing or not a non-negative integer".into(),
    })
}

/// Required integer field that must fit in 32 bits (node and link ids,
/// counts): a larger value is an error, never a silent truncation.
pub fn req_u32(v: &Json, key: &str, path: &str) -> Result<u32, ScenarioError> {
    narrow(req_u64(v, key, path)?, key, path)
}

/// Optional numeric field (present ⇒ must be a finite number: every
/// number a document holds is a finite quantity, and an infinite rate or
/// NaN time would hang or silently empty the run).
pub fn opt_f64(v: &Json, key: &str, path: &str) -> Result<Option<f64>, ScenarioError> {
    match v.get(key).map(Json::as_f64) {
        None => Ok(None),
        Some(Some(x)) if x.is_finite() => Ok(Some(x)),
        Some(_) => serr(join(path, key), "not a finite number"),
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

/// Optional integer field that must fit in 32 bits.
pub fn opt_u32(v: &Json, key: &str, path: &str) -> Result<Option<u32>, ScenarioError> {
    opt_u64(v, key, path)?.map(|n| narrow(n, key, path)).transpose()
}

/// Optional integer field that must fit in 8 bits.
pub fn opt_u8(v: &Json, key: &str, path: &str) -> Result<Option<u8>, ScenarioError> {
    opt_u64(v, key, path)?.map(|n| narrow(n, key, path)).transpose()
}

fn narrow<T: TryFrom<u64>>(n: u64, key: &str, path: &str) -> Result<T, ScenarioError> {
    T::try_from(n).map_err(|_| ScenarioError {
        path: join(path, key),
        message: format!("{n} does not fit in {} bits", 8 * std::mem::size_of::<T>()),
    })
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
        let doc = Json::obj([("rate", Json::Float(f64::INFINITY))]);
        assert_eq!(opt_f64(&doc, "rate", "c").unwrap_err().message, "not a finite number");
        let doc = Json::obj([("rate", Json::Str("fast".into()))]);
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
    fn documents_are_json_or_toml_and_syntax_errors_read_as_text() {
        for text in ["{\"schema\": 1}", "schema = 1"] {
            let doc = parse_document(text).unwrap();
            assert_eq!(doc.get("schema").and_then(Json::as_u64), Some(1), "{text}");
        }
        let e = parse_document("{\"schema\": ").unwrap_err();
        assert_eq!(
            (e.path.as_str(), e.message.as_str()),
            ("", "JSON error at byte 11: expected a value")
        );
        let e = parse_document("schema = ").unwrap_err();
        assert!(e.message.starts_with("TOML line 1: "), "{e}");
    }

    #[test]
    fn schema_versions_gate_parsing() {
        let ok = Json::obj([("schema", Json::UInt(1))]);
        assert!(check_schema_version(&ok, 1).is_ok());
        assert!(check_schema_version(&ok, 2).is_err());
        assert!(check_schema_version(&Json::Obj(Vec::new()), 1).is_err());
    }
}
