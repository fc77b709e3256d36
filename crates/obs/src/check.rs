//! The JSON field checkers shared by every report validator (`report`,
//! `sweep`, `suite`, `daemon`, `live`). Each checker pushes a named
//! violation onto `errors` instead of returning early, so a validator
//! reports every defect of a document in one pass. `path` is the JSONPath
//! of `obj` (`$`, `$.meta`, `$.cells[3]`, …); messages name `{path}.{key}`.

use crate::json::Json;

/// `$.schema` must be the string `want`.
pub(crate) fn check_schema(doc: &Json, want: &str, errors: &mut Vec<String>) {
    match doc.get("schema").and_then(|s| s.as_str()) {
        Some(s) if s == want => {}
        Some(s) => errors.push(format!("schema is {s:?}, expected {want:?}")),
        None => errors.push("missing string field $.schema".into()),
    }
}

/// `obj[key]`, or a "missing field" violation.
pub(crate) fn require<'a>(
    obj: &'a Json,
    key: &str,
    path: &str,
    errors: &mut Vec<String>,
) -> Option<&'a Json> {
    let v = obj.get(key);
    if v.is_none() {
        errors.push(format!("missing field {path}.{key}"));
    }
    v
}

/// `obj[key]` as an unsigned integer.
pub(crate) fn require_u64(
    obj: &Json,
    key: &str,
    path: &str,
    errors: &mut Vec<String>,
) -> Option<u64> {
    let n = require(obj, key, path, errors)?.as_u64();
    if n.is_none() {
        errors.push(format!("{path}.{key} must be an unsigned integer"));
    }
    n
}

/// `obj[key]` as a string.
pub(crate) fn require_str<'a>(
    obj: &'a Json,
    key: &str,
    path: &str,
    errors: &mut Vec<String>,
) -> Option<&'a str> {
    let s = require(obj, key, path, errors)?.as_str();
    if s.is_none() {
        errors.push(format!("{path}.{key} must be a string"));
    }
    s
}

/// `obj[key]` as a finite number. The JSON writer renders non-finite
/// floats as null, so a NaN produced upstream surfaces here as Null.
pub(crate) fn require_finite_f64(obj: &Json, key: &str, path: &str, errors: &mut Vec<String>) {
    if let Some(v) = require(obj, key, path, errors) {
        if !v.as_f64().is_some_and(f64::is_finite) {
            errors.push(format!("{path}.{key} must be a finite number"));
        }
    }
}

/// `obj.date` as a `YYYY-MM-DD` string.
pub(crate) fn require_date(obj: &Json, path: &str, errors: &mut Vec<String>) {
    let Some(d) = require_str(obj, "date", path, errors) else { return };
    let ok = d.len() == 10
        && d.bytes()
            .enumerate()
            .all(|(i, b)| if i == 4 || i == 7 { b == b'-' } else { b.is_ascii_digit() });
    if !ok {
        errors.push(format!("{path}.date {d:?} is not YYYY-MM-DD"));
    }
}
