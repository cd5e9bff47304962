//! The workspace's one JSON writer.
//!
//! The workspace vendors no serde, so every structured output — the
//! emulator's own statistics ([`crate::QuartzStats::to_json`]), the
//! harness's row files, manifest and `BENCH_*.json` documents — builds
//! [`Json`] values explicitly and renders them deterministically: object
//! keys keep insertion order, numbers use a fixed formatting rule, and
//! there is no whitespace — two renders of the same value are
//! byte-identical, which is what the `--jobs`-independence guarantee is
//! checked against.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (non-finite values render as `null`).
    Num(f64),
    /// A non-negative integer (a counter, id or seed), rendered without
    /// a decimal point over the full `u64` range.
    Int(u64),
    /// A string (escaped on render).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience string constructor.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// A number rounded to 3 decimals, so host-derived values (wall
    /// times, ratios of measured quantities) print stably.
    pub fn num3(v: f64) -> Json {
        Json::Num((v * 1e3).round() / 1e3)
    }

    /// Convenience object constructor from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Appends a key/value pair (only meaningful on `Obj`).
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    pub fn push(&mut self, key: &str, value: Json) {
        match self {
            Json::Obj(pairs) => pairs.push((key.to_string(), value)),
            _ => panic!("Json::push on a non-object"),
        }
    }

    /// Renders the value as compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Num(n) => {
                if n.is_finite() {
                    // `{}` on f64 is shortest-roundtrip: deterministic
                    // for a given bit pattern, and always re-parseable.
                    let _ = write!(out, "{n}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_scalars() {
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(Json::Bool(true).render(), "true");
        assert_eq!(Json::Int(u64::MAX).render(), "18446744073709551615");
        assert_eq!(Json::Num(1.5).render(), "1.5");
        assert_eq!(Json::num3(2.0 / 3.0).render(), "0.667");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::str("a\"b\n").render(), "\"a\\\"b\\n\"");
    }

    #[test]
    fn renders_compound_values_in_order() {
        let v = Json::obj(vec![
            ("b", Json::Int(1)),
            ("a", Json::Arr(vec![Json::Int(2), Json::str("x")])),
            ("o", Json::obj(vec![("k", Json::Int(0))])),
        ]);
        assert_eq!(v.render(), "{\"b\":1,\"a\":[2,\"x\"],\"o\":{\"k\":0}}");
    }

    #[test]
    fn control_chars_escape() {
        assert_eq!(Json::str("\u{1}").render(), "\"\\u0001\"");
    }

    #[test]
    #[should_panic(expected = "non-object")]
    fn push_requires_object() {
        Json::Null.push("k", Json::Null);
    }
}
