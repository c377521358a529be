//! A minimal JSON *reader* to pair with `elsc_obs::json`'s writer.
//!
//! Offline builds cannot pull `serde_json`, and until this crate nothing
//! in the workspace ever needed to read JSON back. The lab does: `compare`
//! must load a previously written manifest (possibly produced by an older
//! build) and diff its metrics. This is a straightforward recursive-
//! descent parser for RFC 8259 JSON — strict enough to reject garbage,
//! small enough to audit in one sitting. Every error names the byte
//! offset it stopped at, and nesting is bounded by [`MAX_DEPTH`], so a
//! hostile or corrupt file is an `Err`, never a stack overflow.

use std::collections::BTreeMap;

/// The deepest array/object nesting [`Value::parse`] accepts. The
/// committed manifests nest at most 11 deep (a cluster cell's per-node
/// reports); anything past this is not a file this workspace wrote.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`, which covers every value the
    /// manifest writer emits).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object. Keys are sorted (BTreeMap); the manifest format never
    /// relies on member order.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Parses a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected). An error names the byte offset where
    /// parsing stopped: `... at byte N`.
    pub fn parse(text: &str) -> Result<Value, String> {
        let mut p = Parser {
            text,
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.peek().is_some() {
            return Err(p.err("trailing garbage"));
        }
        Ok(v)
    }

    /// Object member lookup; `None` for non-objects or absent keys.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The boolean, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Parser state: the text, the byte position of the cursor (always on a
/// char boundary), and the current array/object nesting depth.
struct Parser<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    /// An error message naming the current byte offset.
    fn err(&self, what: impl std::fmt::Display) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<char> {
        match self.text.as_bytes().get(self.pos) {
            Some(&b) if b.is_ascii() => Some(char::from(b)),
            _ => self.text[self.pos..].chars().next(),
        }
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek();
        if let Some(c) = c {
            self.pos += c.len_utf8();
        }
        c
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(' ' | '\t' | '\n' | '\r')) {
            self.bump();
        }
    }

    fn expect(&mut self, c: char) -> Result<(), String> {
        match self.peek() {
            Some(got) if got == c => {
                self.bump();
                Ok(())
            }
            got => Err(self.err(format_args!("expected '{c}', found {got:?}"))),
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
        for c in word.chars() {
            self.expect(c)?;
        }
        Ok(value)
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            Some(c @ ('{' | '[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err(format_args!("nesting deeper than {MAX_DEPTH}")));
                }
                self.depth += 1;
                let v = if c == '{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some('"') => Ok(Value::Str(self.string()?)),
            Some('t') => self.literal("true", Value::Bool(true)),
            Some('f') => self.literal("false", Value::Bool(false)),
            Some('n') => self.literal("null", Value::Null),
            Some(c) if c == '-' || c.is_ascii_digit() => self.number(),
            other => Err(self.err(format_args!("unexpected {other:?}"))),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect('{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some('}') {
            self.bump();
            return Ok(Value::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(':')?;
            let v = self.value()?;
            map.insert(key, v);
            self.skip_ws();
            match self.peek() {
                Some(',') => self.bump(),
                Some('}') => {
                    self.bump();
                    return Ok(Value::Obj(map));
                }
                got => return Err(self.err(format_args!("expected ',' or '}}', found {got:?}"))),
            };
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect('[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(']') {
            self.bump();
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(',') => self.bump(),
                Some(']') => {
                    self.bump();
                    return Ok(Value::Arr(items));
                }
                got => return Err(self.err(format_args!("expected ',' or ']', found {got:?}"))),
            };
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or escape in one go (both
            // are ASCII, so the run ends on a char boundary).
            let start = self.pos;
            let bytes = self.text.as_bytes();
            while bytes
                .get(self.pos)
                .is_some_and(|&b| b != b'"' && b != b'\\')
            {
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some('"') => return Ok(out),
                Some('\\') => match self.bump() {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('/') => out.push('/'),
                    Some('b') => out.push('\u{0008}'),
                    Some('f') => out.push('\u{000C}'),
                    Some('n') => out.push('\n'),
                    Some('r') => out.push('\r'),
                    Some('t') => out.push('\t'),
                    Some('u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let c = self
                                .bump()
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            code = code * 16
                                + c.to_digit(16)
                                    .ok_or_else(|| self.err(format_args!("bad hex digit '{c}'")))?;
                        }
                        // Surrogate pairs are not produced by our writer;
                        // map lone surrogates to the replacement char.
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                    }
                    got => return Err(self.err(format_args!("bad escape {got:?}"))),
                },
                Some(c) => out.push(c),
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E') {
                self.bump();
            } else {
                break;
            }
        }
        let text = &self.text[start..self.pos];
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err(format_args!("bad number '{text}'")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars() {
        assert_eq!(Value::parse("null").unwrap(), Value::Null);
        assert_eq!(Value::parse("true").unwrap(), Value::Bool(true));
        assert_eq!(Value::parse(" false ").unwrap(), Value::Bool(false));
        assert_eq!(Value::parse("42").unwrap(), Value::Num(42.0));
        assert_eq!(Value::parse("-1.5e3").unwrap(), Value::Num(-1500.0));
        assert_eq!(
            Value::parse("\"hi\\nthere\"").unwrap(),
            Value::Str("hi\nthere".into())
        );
    }

    #[test]
    fn nested_structures() {
        let v = Value::parse(r#"{"a":[1,2,{"b":"c"}],"d":{}}"#).unwrap();
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[2].get("b").unwrap().as_str(), Some("c"));
        assert_eq!(v.get("d"), Some(&Value::Obj(BTreeMap::new())));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn rejects_garbage() {
        assert!(Value::parse("").is_err());
        assert!(Value::parse("{").is_err());
        assert!(Value::parse("[1,]").is_err());
        assert!(Value::parse("{\"a\":1} extra").is_err());
        assert!(Value::parse("nul").is_err());
    }

    #[test]
    fn round_trips_the_obs_writer() {
        use elsc_obs::json::Obj;
        let text = Obj::new()
            .str("name", "figure3 \"quoted\"")
            .u64("cells", 32)
            .f64("share", 0.375)
            .raw("list", "[1,2,3]")
            .build();
        let v = Value::parse(&text).unwrap();
        assert_eq!(v.get("name").unwrap().as_str(), Some("figure3 \"quoted\""));
        assert_eq!(v.get("cells").unwrap().as_f64(), Some(32.0));
        assert_eq!(v.get("share").unwrap().as_f64(), Some(0.375));
        assert_eq!(v.get("list").unwrap().as_arr().unwrap().len(), 3);
    }

    #[test]
    fn every_error_names_its_byte_offset() {
        for (text, at) in [
            ("", "at byte 0"),
            (
                "{\"a\":1 2}",
                "expected ',' or '}', found Some('2') at byte 7",
            ),
            ("[1 2]", "expected ',' or ']', found Some('2') at byte 3"),
            ("\"abc", "unterminated string at byte 4"),
            ("\"\\u12", "truncated \\u escape at byte 5"),
            ("\"\\u12x4\"", "bad hex digit 'x' at byte 6"),
            ("\"\\q\"", "bad escape Some('q') at byte 3"),
            ("-1e", "bad number '-1e' at byte 3"),
            ("[1] x", "trailing garbage at byte 4"),
        ] {
            let e = Value::parse(text).unwrap_err();
            assert!(e.ends_with(at), "{text:?}: {e}");
        }
    }

    #[test]
    fn nesting_is_bounded_not_a_stack_overflow() {
        let deep = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Value::parse(&deep(MAX_DEPTH)).is_ok());
        assert_eq!(
            Value::parse(&deep(MAX_DEPTH + 1)).unwrap_err(),
            format!("nesting deeper than {MAX_DEPTH} at byte {MAX_DEPTH}")
        );
        let objects = "{\"a\":".repeat(200_000);
        assert!(Value::parse(&objects)
            .unwrap_err()
            .contains("nesting deeper"));
        assert!(Value::parse(&deep(200_000)).is_err());
    }

    #[test]
    fn unicode_escapes() {
        // A = 'A', é = 'é' — exercised as actual escapes.
        let text = "\"\\u0041\\u00e9\"";
        assert_eq!(Value::parse(text).unwrap(), Value::Str("Aé".into()));
    }
}
