//! A hand-rolled TOML subset, parsed into the workspace's
//! [`Json`] tree (the repo carries no external crates by design).
//!
//! Supported: `key = value` pairs, `[table]` / `[dotted.table]` headers,
//! `[[array.of.tables]]`, basic strings with escapes, integers, floats,
//! booleans, inline arrays, and `#` comments. That covers the whole
//! scenario schema; anything outside it is a parse error, not a silent
//! skip. Floats survive a write → parse round trip exactly (shortest
//! round-trip formatting on both sides).

use empower_telemetry::Json;

/// A TOML syntax error with a 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TomlError {
    pub line: usize,
    pub message: String,
}

impl std::fmt::Display for TomlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TOML line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TomlError {}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, TomlError> {
    Err(TomlError { line, message: message.into() })
}

/// Parses a TOML document into a [`Json::Obj`] tree. Tables become nested
/// objects, arrays-of-tables become arrays of objects; key order follows
/// the document.
pub fn parse(text: &str) -> Result<Json, TomlError> {
    let mut root = Json::Obj(Vec::new());
    // Path of the table the current `key = value` lines land in.
    let mut current: Vec<String> = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = strip_comment(raw).trim().to_string();
        if line.is_empty() {
            continue;
        }
        if let Some(inner) = line.strip_prefix("[[").and_then(|s| s.strip_suffix("]]")) {
            let path = parse_key_path(inner, lineno)?;
            push_array_table(&mut root, &path, lineno)?;
            current = path;
        } else if let Some(inner) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
            let path = parse_key_path(inner, lineno)?;
            open_table(&mut root, &path, lineno)?;
            current = path;
        } else {
            let eq = match line.find('=') {
                Some(p) => p,
                None => return err(lineno, format!("expected key = value, got {line:?}")),
            };
            let key = line[..eq].trim();
            if key.is_empty() || !is_bare_key(key) {
                return err(lineno, format!("bad key {key:?} (bare keys only)"));
            }
            let value = parse_value(line[eq + 1..].trim(), lineno)?;
            let table = open_table(&mut root, &current, lineno)?;
            let Json::Obj(pairs) = table else {
                return err(lineno, "internal: table is not an object");
            };
            if pairs.iter().any(|(k, _)| k == key) {
                return err(lineno, format!("duplicate key {key:?}"));
            }
            pairs.push((key.to_string(), value));
        }
    }
    Ok(root)
}

fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        match c {
            '\\' if in_str => escaped = !escaped,
            '"' if !escaped => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => escaped = false,
        }
    }
    line
}

fn is_bare_key(k: &str) -> bool {
    !k.is_empty() && k.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
}

fn parse_key_path(s: &str, line: usize) -> Result<Vec<String>, TomlError> {
    let parts: Vec<String> = s.split('.').map(|p| p.trim().to_string()).collect();
    for p in &parts {
        if !is_bare_key(p) {
            return err(line, format!("bad table name segment {p:?}"));
        }
    }
    Ok(parts)
}

/// Walks `path` from the root, creating empty tables as needed, and errors
/// on conflicts (a scalar where a table is expected).
fn open_table<'a>(
    root: &'a mut Json,
    path: &[String],
    line: usize,
) -> Result<&'a mut Json, TomlError> {
    let mut node = root;
    for seg in path {
        let Json::Obj(pairs) = node else {
            return err(line, format!("{seg:?} is not a table"));
        };
        let idx = match pairs.iter().position(|(k, _)| k == seg) {
            Some(i) => i,
            None => {
                pairs.push((seg.clone(), Json::Obj(Vec::new())));
                pairs.len() - 1
            }
        };
        let slot = &mut pairs[idx].1;
        node = match slot {
            // A table header inside an array-of-tables targets its latest
            // element.
            Json::Arr(items) => match items.last_mut() {
                Some(last) => last,
                None => return err(line, format!("array of tables {seg:?} is empty")),
            },
            other => other,
        };
    }
    Ok(node)
}

/// Appends a fresh element to the array-of-tables at `path`.
fn push_array_table(root: &mut Json, path: &[String], line: usize) -> Result<(), TomlError> {
    let Some((last, parents)) = path.split_last() else {
        return err(line, "array of tables needs a non-empty name");
    };
    let parent = open_table(root, parents, line)?;
    let Json::Obj(pairs) = parent else {
        return err(line, "parent of an array of tables must be a table");
    };
    match pairs.iter_mut().find(|(k, _)| k == last) {
        Some((_, Json::Arr(items))) => items.push(Json::Obj(Vec::new())),
        Some(_) => return err(line, format!("{last:?} is not an array of tables")),
        None => pairs.push((last.clone(), Json::Arr(vec![Json::Obj(Vec::new())]))),
    }
    Ok(())
}

fn parse_value(s: &str, line: usize) -> Result<Json, TomlError> {
    if s.is_empty() {
        return err(line, "missing value");
    }
    if let Some(rest) = s.strip_prefix('"') {
        let Some(close) = closing_quote(rest) else {
            return err(line, "unterminated string");
        };
        if !rest[close + 1..].trim().is_empty() {
            return err(line, "text after string");
        }
        return unescape(&rest[..close], line).map(Json::Str);
    }
    if s == "true" {
        return Ok(Json::Bool(true));
    }
    if s == "false" {
        return Ok(Json::Bool(false));
    }
    if let Some(inner) = s.strip_prefix('[') {
        let Some(inner) = inner.strip_suffix(']') else {
            return err(line, "unterminated array");
        };
        let mut items = Vec::new();
        for part in split_top_level(inner) {
            let part = part.trim();
            if !part.is_empty() {
                items.push(parse_value(part, line)?);
            }
        }
        return Ok(Json::Arr(items));
    }
    // Numbers: ints stay exact, anything with '.', 'e' or 'E' is a float.
    if s.contains(['.', 'e', 'E']) || s == "inf" || s == "-inf" || s == "nan" {
        if let Ok(f) = s.parse::<f64>() {
            return Ok(Json::Float(f));
        }
    } else if let Ok(i) = s.parse::<i64>() {
        return Ok(Json::Int(i));
    } else if let Ok(u) = s.parse::<u64>() {
        return Ok(Json::UInt(u));
    }
    err(line, format!("cannot parse value {s:?}"))
}

/// Byte offset of the first unescaped `"` in `s`, the body of a basic
/// string after its opening quote.
fn closing_quote(s: &str) -> Option<usize> {
    let mut escaped = false;
    for (i, c) in s.char_indices() {
        match c {
            '\\' => escaped = !escaped,
            '"' if !escaped => return Some(i),
            _ => escaped = false,
        }
    }
    None
}

/// Splits an inline-array body on commas that are not inside strings or
/// nested brackets.
fn split_top_level(s: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let (mut depth, mut in_str, mut escaped, mut start) = (0usize, false, false, 0usize);
    for (i, c) in s.char_indices() {
        match c {
            '\\' if in_str => escaped = !escaped,
            '"' if !escaped => in_str = !in_str,
            '[' if !in_str => depth += 1,
            ']' if !in_str => depth = depth.saturating_sub(1),
            ',' if !in_str && depth == 0 => {
                out.push(&s[start..i]);
                start = i + 1;
            }
            _ => escaped = false,
        }
    }
    out.push(&s[start..]);
    out
}

fn unescape(s: &str, line: usize) -> Result<String, TomlError> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('t') => out.push('\t'),
            Some('r') => out.push('\r'),
            Some('"') => out.push('"'),
            Some('\\') => out.push('\\'),
            other => return err(line, format!("bad escape \\{other:?}")),
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

/// Renders a [`Json::Obj`] tree as TOML, the inverse of [`parse`] for the
/// shapes the scenario schema uses: scalars and inline arrays first, then
/// sub-tables as `[headers]`, then arrays of objects as `[[headers]]`.
pub fn to_toml_string(value: &Json) -> String {
    let mut out = String::new();
    write_table(&mut out, value, &mut Vec::new());
    out
}

fn is_table_array(v: &Json) -> bool {
    matches!(v, Json::Arr(items) if !items.is_empty() && items.iter().all(|i| matches!(i, Json::Obj(_))))
}

fn write_table(out: &mut String, table: &Json, path: &mut Vec<String>) {
    let Json::Obj(pairs) = table else { return };
    for (k, v) in pairs {
        match v {
            Json::Obj(_) => {}
            _ if is_table_array(v) => {}
            _ => {
                out.push_str(k);
                out.push_str(" = ");
                write_value(out, v);
                out.push('\n');
            }
        }
    }
    for (k, v) in pairs {
        if let Json::Obj(_) = v {
            path.push(k.clone());
            if !out.is_empty() {
                out.push('\n');
            }
            out.push('[');
            out.push_str(&path.join("."));
            out.push_str("]\n");
            write_table(out, v, path);
            path.pop();
        } else if let (true, Json::Arr(items)) = (is_table_array(v), v) {
            path.push(k.clone());
            for item in items {
                if !out.is_empty() {
                    out.push('\n');
                }
                out.push_str("[[");
                out.push_str(&path.join("."));
                out.push_str("]]\n");
                write_table(out, item, path);
            }
            path.pop();
        }
    }
}

fn write_value(out: &mut String, v: &Json) {
    use std::fmt::Write as _;
    match v {
        Json::Null => out.push_str("\"\""),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Int(i) => {
            let _ = write!(out, "{i}");
        }
        Json::UInt(u) => {
            let _ = write!(out, "{u}");
        }
        Json::Float(f) => {
            if *f == f.trunc() && f.abs() < 1e15 {
                let _ = write!(out, "{f:.1}");
            } else {
                let _ = write!(out, "{f}");
            }
        }
        Json::Str(s) => {
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\t' => out.push_str("\\t"),
                    '\r' => out.push_str("\\r"),
                    _ => out.push(c),
                }
            }
            out.push('"');
        }
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_value(out, item);
            }
            out.push(']');
        }
        Json::Obj(_) => out.push_str("{}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_basic_shapes() {
        let doc = r#"
# a comment
schema = 1
name = "drop test"  # trailing comment
ratio = 0.5
on = true

[topology]
kind = "fig1"
seed = 7

[[events]]
at = 40.0
kind = "capacity"
links = [2, 3]

[[events]]
at = 80.0
kind = "link_up"
"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("schema").and_then(Json::as_u64), Some(1));
        assert_eq!(v.get("name").and_then(Json::as_str), Some("drop test"));
        assert_eq!(v.get("ratio").and_then(Json::as_f64), Some(0.5));
        assert_eq!(v.get("on"), Some(&Json::Bool(true)));
        let topo = v.get("topology").unwrap();
        assert_eq!(topo.get("kind").and_then(Json::as_str), Some("fig1"));
        let Some(Json::Arr(events)) = v.get("events") else { panic!("events array") };
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("at").and_then(Json::as_f64), Some(40.0));
        let Some(Json::Arr(links)) = events[0].get("links") else { panic!("links array") };
        assert_eq!(links.len(), 2);
    }

    #[test]
    fn round_trips_through_the_writer() {
        let doc = Json::obj([
            ("schema", Json::Int(1)),
            ("name", Json::Str("x \"y\"".into())),
            ("f", Json::Float(0.30000000000000004)),
            ("g", Json::Float(3.0)),
            ("topology", Json::obj([("kind", Json::Str("fig1".into())), ("seed", Json::Int(3))])),
            (
                "events",
                Json::Arr(vec![
                    Json::obj([("at", Json::Float(1.5)), ("kind", Json::Str("x".into()))]),
                    Json::obj([("at", Json::Float(2.0)), ("kind", Json::Str("y".into()))]),
                ]),
            ),
        ]);
        let text = to_toml_string(&doc);
        let back = parse(&text).unwrap();
        assert_eq!(back, doc, "write → parse is the identity:\n{text}");
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse("a = 1\nb =\n").unwrap_err();
        assert_eq!(e.line, 2);
        let e = parse("a = 1\na = 2\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("duplicate"));
        for doc in ["a = 1\nname = \"a\" \"b\"\n", "a = 1\nx = \"a\"b\"\n"] {
            let e = parse(doc).unwrap_err();
            assert_eq!((e.line, e.message.as_str()), (2, "text after string"), "{doc:?}");
        }
        let v = parse(r#"x = "a\"b""#).unwrap();
        assert_eq!(v.get("x").and_then(Json::as_str), Some("a\"b"));
    }

    #[test]
    fn nested_and_dotted_tables() {
        let doc = "[a.b]\nx = 1\n[a.c]\ny = 2\n";
        let v = parse(doc).unwrap();
        assert_eq!(v.get("a").unwrap().get("b").unwrap().get("x").and_then(Json::as_u64), Some(1));
        assert_eq!(v.get("a").unwrap().get("c").unwrap().get("y").and_then(Json::as_u64), Some(2));
    }
}
