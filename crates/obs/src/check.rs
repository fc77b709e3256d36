//! The JSON field checkers shared by every report reader (`report`,
//! `sweep`, `suite`, `daemon`, `live`). Each checker pushes a named
//! violation onto `errors` instead of returning early, and returns the
//! value it checked (`None` after a violation), so one pass over a
//! document both reads it and reports every defect. `path` is the
//! JSONPath of `obj` (`$`, `$.meta`, `$.cells[3]`, …); messages name
//! `{path}.{key}`.

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

/// `obj[key]` converted by `read`, or a "{path}.{key} must be {what}"
/// violation when present but of the wrong type.
fn require_as<'a, T>(
    obj: &'a Json,
    key: &str,
    path: &str,
    errors: &mut Vec<String>,
    what: &str,
    read: impl FnOnce(&'a Json) -> Option<T>,
) -> Option<T> {
    let v = read(require(obj, key, path, errors)?);
    if v.is_none() {
        errors.push(format!("{path}.{key} must be {what}"));
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
    require_as(obj, key, path, errors, "an unsigned integer", Json::as_u64)
}

/// `obj[key]` as a string.
pub(crate) fn require_str<'a>(
    obj: &'a Json,
    key: &str,
    path: &str,
    errors: &mut Vec<String>,
) -> Option<&'a str> {
    require_as(obj, key, path, errors, "a string", Json::as_str)
}

/// `obj[key]` as a boolean.
pub(crate) fn require_bool(
    obj: &Json,
    key: &str,
    path: &str,
    errors: &mut Vec<String>,
) -> Option<bool> {
    require_as(obj, key, path, errors, "a boolean", |v| match v {
        Json::Bool(b) => Some(*b),
        _ => None,
    })
}

/// `obj[key]` as an array.
pub(crate) fn require_array<'a>(
    obj: &'a Json,
    key: &str,
    path: &str,
    errors: &mut Vec<String>,
) -> Option<&'a [Json]> {
    require_as(obj, key, path, errors, "an array", Json::as_array)
}

/// `obj[key]` as an object's `(key, value)` pairs.
pub(crate) fn require_object<'a>(
    obj: &'a Json,
    key: &str,
    path: &str,
    errors: &mut Vec<String>,
) -> Option<&'a [(String, Json)]> {
    require_as(obj, key, path, errors, "an object", Json::as_object)
}

/// `v` as an array of unsigned integers, naming every bad element.
pub(crate) fn u64_array(v: &Json, path: &str, errors: &mut Vec<String>) -> Option<Vec<u64>> {
    let Some(items) = v.as_array() else {
        errors.push(format!("{path} must be an array"));
        return None;
    };
    let mut out = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        match item.as_u64() {
            Some(n) => out.push(n),
            None => errors.push(format!("{path}[{i}] must be an unsigned integer")),
        }
    }
    (out.len() == items.len()).then_some(out)
}

/// `obj[key]` as null (`Some(None)`) or an unsigned integer.
pub(crate) fn require_opt_u64(
    obj: &Json,
    key: &str,
    path: &str,
    errors: &mut Vec<String>,
) -> Option<Option<u64>> {
    require_as(obj, key, path, errors, "null or an unsigned integer", |v| match v {
        Json::Null => Some(None),
        Json::U64(n) => Some(Some(*n)),
        _ => None,
    })
}

/// `obj[key]` as a finite number. The JSON writer renders non-finite
/// floats as null, so a NaN produced upstream surfaces here as Null.
pub(crate) fn require_finite_f64(
    obj: &Json,
    key: &str,
    path: &str,
    errors: &mut Vec<String>,
) -> Option<f64> {
    require_as(obj, key, path, errors, "a finite number", |v| v.as_f64().filter(|f| f.is_finite()))
}

/// `obj.date` as a `YYYY-MM-DD` string.
pub(crate) fn require_date<'a>(
    obj: &'a Json,
    path: &str,
    errors: &mut Vec<String>,
) -> Option<&'a str> {
    let d = require_str(obj, "date", path, errors)?;
    let ok = d.len() == 10
        && d.bytes()
            .enumerate()
            .all(|(i, b)| if i == 4 || i == 7 { b == b'-' } else { b.is_ascii_digit() });
    if !ok {
        errors.push(format!("{path}.date {d:?} is not YYYY-MM-DD"));
        return None;
    }
    Some(d)
}

/// `obj[key]` as a fingerprint: `0x` followed by at least one hex digit
/// (writers format them with `{:#018x}`).
pub(crate) fn require_hex_fp<'a>(
    obj: &'a Json,
    key: &str,
    path: &str,
    errors: &mut Vec<String>,
) -> Option<&'a str> {
    let fp = require_str(obj, key, path, errors)?;
    let hex = fp.strip_prefix("0x").unwrap_or("");
    if hex.is_empty() || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
        errors.push(format!("{path}.{key} {fp:?} must be 0x-prefixed hex"));
        return None;
    }
    Some(fp)
}

/// `Ok(value)` when no violation was recorded, else every violation.
pub(crate) fn ok_if_clean<T>(value: T, errors: Vec<String>) -> Result<T, Vec<String>> {
    if errors.is_empty() {
        Ok(value)
    } else {
        Err(errors)
    }
}

/// `Σ parts`, or a violation naming `what` when the sum overflows u64:
/// the terms come from a file, so a cross-field identity must never wrap
/// into a false match.
pub(crate) fn checked_sum(
    parts: impl IntoIterator<Item = u64>,
    what: &str,
    errors: &mut Vec<String>,
) -> Option<u64> {
    let sum = parts.into_iter().try_fold(0u64, u64::checked_add);
    if sum.is_none() {
        errors.push(format!("{what} overflows u64"));
    }
    sum
}
