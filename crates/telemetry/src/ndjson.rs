//! A minimal hand-rolled flat-JSON codec (the NDJSON building block).
//!
//! Same philosophy as `clanbft_types::codec`: deterministic output, no
//! external crates. Only what traces need — flat objects with string,
//! integer, float, boolean and integer-array fields. [`JsonObj`] writes
//! them (keys in insertion order); [`parse_obj`] reads back exactly what
//! it writes and rejects anything else, trailing bytes included.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Builder for one JSON object, rendered on a single line.
#[derive(Default)]
pub struct JsonObj {
    buf: String,
}

impl JsonObj {
    /// Starts an empty object.
    pub fn new() -> JsonObj {
        JsonObj { buf: String::new() }
    }

    fn key(&mut self, k: &str) {
        if !self.buf.is_empty() {
            self.buf.push(',');
        }
        push_json_string(&mut self.buf, k);
        self.buf.push(':');
    }

    /// Adds an unsigned integer field.
    pub fn u64(mut self, k: &str, v: u64) -> JsonObj {
        self.key(k);
        let _ = write!(self.buf, "{v}");
        self
    }

    /// Adds a float field (finite values only; non-finite renders as null,
    /// which JSON cannot express as a number).
    pub fn f64(mut self, k: &str, v: f64) -> JsonObj {
        self.key(k);
        if v.is_finite() {
            let _ = write!(self.buf, "{v}");
        } else {
            self.buf.push_str("null");
        }
        self
    }

    /// Adds a string field (escaped).
    pub fn str(mut self, k: &str, v: &str) -> JsonObj {
        self.key(k);
        push_json_string(&mut self.buf, v);
        self
    }

    /// Adds a boolean field.
    pub fn bool(mut self, k: &str, v: bool) -> JsonObj {
        self.key(k);
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// Adds an array of unsigned integers.
    pub fn arr_u64(mut self, k: &str, vs: &[u64]) -> JsonObj {
        self.key(k);
        self.buf.push('[');
        for (i, v) in vs.iter().enumerate() {
            if i > 0 {
                self.buf.push(',');
            }
            let _ = write!(self.buf, "{v}");
        }
        self.buf.push(']');
        self
    }

    /// Renders the object as one line (no trailing newline).
    pub fn finish(self) -> String {
        format!("{{{}}}", self.buf)
    }
}

/// Appends `s` as a JSON string literal, escaping per RFC 8259.
fn push_json_string(buf: &mut String, s: &str) {
    buf.push('"');
    for c in s.chars() {
        match c {
            '"' => buf.push_str("\\\""),
            '\\' => buf.push_str("\\\\"),
            '\n' => buf.push_str("\\n"),
            '\r' => buf.push_str("\\r"),
            '\t' => buf.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(buf, "\\u{:04x}", c as u32);
            }
            c => buf.push(c),
        }
    }
    buf.push('"');
}

/// One value of a flat object, in the shapes [`JsonObj`] writes.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// A non-negative integer (also how whole non-negative floats read).
    U64(u64),
    /// Any other finite number.
    F64(f64),
    /// A string.
    Str(String),
    /// A boolean.
    Bool(bool),
    /// An array of non-negative integers.
    Arr(Vec<u64>),
    /// `null` (how non-finite floats are written).
    Null,
}

/// A parsed flat object with typed, field-naming accessors.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Fields(BTreeMap<String, Value>);

impl Fields {
    /// The raw value under `key`.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.0.get(key)
    }

    fn typed<'a, T>(
        &'a self,
        key: &str,
        want: &str,
        cast: impl FnOnce(&'a Value) -> Option<T>,
    ) -> Result<T, String> {
        let v = self
            .get(key)
            .ok_or_else(|| format!("missing field {key:?}"))?;
        cast(v).ok_or_else(|| format!("field {key:?}: expected {want}, got {v:?}"))
    }

    /// A required unsigned-integer field.
    pub fn u64(&self, key: &str) -> Result<u64, String> {
        self.typed(key, "an unsigned integer", |v| match v {
            Value::U64(x) => Some(*x),
            _ => None,
        })
    }

    /// A required finite-number field (integers widen).
    pub fn f64(&self, key: &str) -> Result<f64, String> {
        self.typed(key, "a number", |v| match v {
            Value::U64(x) => Some(*x as f64),
            Value::F64(x) => Some(*x),
            _ => None,
        })
    }

    /// A required string field.
    pub fn str(&self, key: &str) -> Result<&str, String> {
        self.typed(key, "a string", |v| match v {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        })
    }

    /// A required boolean field.
    pub fn bool(&self, key: &str) -> Result<bool, String> {
        self.typed(key, "a boolean", |v| match v {
            Value::Bool(b) => Some(*b),
            _ => None,
        })
    }

    /// A required unsigned-integer-array field.
    pub fn arr_u64(&self, key: &str) -> Result<&[u64], String> {
        self.typed(key, "an integer array", |v| match v {
            Value::Arr(xs) => Some(xs.as_slice()),
            _ => None,
        })
    }
}

/// Parses one line [`JsonObj`] wrote. Errors name what was malformed.
pub fn parse_obj(line: &str) -> Result<Fields, String> {
    let mut r = Reader { text: line, pos: 0 };
    r.expect(b'{')?;
    let mut fields = BTreeMap::new();
    if !r.eat(b'}') {
        loop {
            let key = r.string()?;
            r.expect(b':')?;
            fields.insert(key, r.value()?);
            if r.eat(b'}') {
                break;
            }
            r.expect(b',')?;
        }
    }
    if r.pos != line.len() {
        return Err(format!("trailing bytes after object at offset {}", r.pos));
    }
    Ok(Fields(fields))
}

struct Reader<'a> {
    text: &'a str,
    pos: usize,
}

impl Reader<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, want: u8) -> bool {
        let hit = self.peek() == Some(want);
        self.pos += hit as usize;
        hit
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        if self.eat(want) {
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at offset {}, got {:?}",
                want as char,
                self.pos,
                self.peek().map(char::from)
            ))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let rest = &self.text[self.pos..];
            let stop = rest.find(['"', '\\']).ok_or("unterminated string")?;
            out.push_str(&rest[..stop]);
            self.pos += stop + 1;
            if rest.as_bytes()[stop] == b'"' {
                return Ok(out);
            }
            let escaped = self.peek().ok_or("unterminated escape")?;
            self.pos += 1;
            out.push(match escaped {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'n' => '\n',
                b'r' => '\r',
                b't' => '\t',
                b'u' => {
                    let hex = self.text.get(self.pos..self.pos + 4).unwrap_or("");
                    self.pos += 4;
                    u32::from_str_radix(hex, 16)
                        .ok()
                        .and_then(char::from_u32)
                        .ok_or_else(|| format!("bad \\u escape {hex:?}"))?
                }
                other => return Err(format!("bad escape {:?}", other as char)),
            });
        }
    }

    /// `-?digits(.digits)?` — integers that fit `u64` read as [`Value::U64`],
    /// everything else as [`Value::F64`].
    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        let digits = |r: &mut Self| {
            while r.peek().is_some_and(|b| b.is_ascii_digit()) {
                r.pos += 1;
            }
        };
        self.eat(b'-');
        digits(self);
        if self.eat(b'.') {
            digits(self);
        }
        let text = &self.text[start..self.pos];
        match text.parse::<u64>() {
            Ok(v) => Ok(Value::U64(v)),
            Err(_) => text
                .parse::<f64>()
                .map(Value::F64)
                .map_err(|_| format!("bad number {text:?}")),
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        let literal = |r: &mut Self, text: &str, v: Value| {
            if r.text[r.pos..].starts_with(text) {
                r.pos += text.len();
                Ok(v)
            } else {
                Err(format!("bad literal at offset {}", r.pos))
            }
        };
        match self.peek() {
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b't') => literal(self, "true", Value::Bool(true)),
            Some(b'f') => literal(self, "false", Value::Bool(false)),
            Some(b'n') => literal(self, "null", Value::Null),
            Some(b'[') => {
                self.pos += 1;
                let mut arr = Vec::new();
                if !self.eat(b']') {
                    loop {
                        match self.number()? {
                            Value::U64(v) => arr.push(v),
                            other => return Err(format!("array element {other:?} is not a u64")),
                        }
                        if self.eat(b']') {
                            break;
                        }
                        self.expect(b',')?;
                    }
                }
                Ok(Value::Arr(arr))
            }
            other => Err(format!(
                "unexpected value start {:?} at offset {}",
                other.map(char::from),
                self.pos
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_flat_object() {
        let line = JsonObj::new()
            .u64("at", 42)
            .str("ev", "round_entered")
            .bool("leader", true)
            .f64("tps", 1.5)
            .finish();
        assert_eq!(
            line,
            r#"{"at":42,"ev":"round_entered","leader":true,"tps":1.5}"#
        );
    }

    #[test]
    fn escapes_strings() {
        let line = JsonObj::new().str("k", "a\"b\\c\nd\u{1}").finish();
        assert_eq!(line, r#"{"k":"a\"b\\c\nd\u0001"}"#);
    }

    #[test]
    fn empty_object() {
        assert_eq!(JsonObj::new().finish(), "{}");
    }

    #[test]
    fn non_finite_floats_are_null() {
        assert_eq!(JsonObj::new().f64("x", f64::NAN).finish(), r#"{"x":null}"#);
    }

    #[test]
    fn u64_arrays() {
        assert_eq!(
            JsonObj::new().arr_u64("xs", &[3, 1, 2]).finish(),
            r#"{"xs":[3,1,2]}"#
        );
        assert_eq!(JsonObj::new().arr_u64("xs", &[]).finish(), r#"{"xs":[]}"#);
    }
}
