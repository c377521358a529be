//! A minimal, dependency-free JSON writer.
//!
//! Offline builds cannot pull `serde_json`, and the observability layer
//! only ever *writes* JSON (reports, trace lines) — it never parses it.
//! This module covers that: an escaper, deterministic number formatting
//! so same-seed runs serialize byte-identically, and [`Obj`], a streaming
//! object writer that appends keys and values to one buffer in call
//! order. Nothing is rendered into an intermediate `String` first, so a
//! caller that hands its buffer back ([`Obj::with_buffer`] /
//! [`Obj::into_buffer`]) writes objects without allocating at all.
//!
//! The writers fill byte buffers: everything they append is either a
//! `&str` or ASCII, so the bytes are UTF-8 by construction. A buffer is
//! checked once, where it leaves this crate as a `String`; the trace
//! sink's path hands bytes to its writer and is never checked.

use std::io::Write as _;

/// Appends `s` to `out` as a quoted JSON string (RFC 8259 escaping).
pub(crate) fn push_escaped(out: &mut Vec<u8>, s: &str) {
    out.push(b'"');
    if s.bytes().any(|b| b == b'"' || b == b'\\' || b < 0x20) {
        for &b in s.as_bytes() {
            match b {
                b'"' => out.extend_from_slice(b"\\\""),
                b'\\' => out.extend_from_slice(b"\\\\"),
                b'\n' => out.extend_from_slice(b"\\n"),
                b'\r' => out.extend_from_slice(b"\\r"),
                b'\t' => out.extend_from_slice(b"\\t"),
                b if b < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", b);
                }
                // Bytes of multi-byte characters are never below 0x80.
                b => out.push(b),
            }
        }
    } else {
        out.extend_from_slice(s.as_bytes());
    }
    out.push(b'"');
}

/// `"00"`, `"01"`, … `"99"`, back to back: the two digits of every value
/// below 100.
const DIGIT_PAIRS: [u8; 200] = {
    let mut pairs = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        pairs[2 * i] = b'0' + (i / 10) as u8;
        pairs[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    pairs
};

/// Appends `v` in decimal, two digits per division, without going
/// through `fmt`.
pub(crate) fn push_u64(out: &mut Vec<u8>, mut v: u64) {
    let mut digits = [0u8; 20]; // u64::MAX has 20 digits
    let mut start = digits.len();
    while v >= 100 {
        let pair = (v % 100) as usize * 2;
        v /= 100;
        start -= 2;
        digits[start..start + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    // One or two leading digits are left.
    if v >= 10 {
        let pair = v as usize * 2;
        start -= 2;
        digits[start..start + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        start -= 1;
        digits[start] = b'0' + v as u8;
    }
    out.extend_from_slice(&digits[start..]);
}

/// Appends an `f64` deterministically (finite values via `Display`,
/// non-finite as `null` since JSON has no representation for them).
fn push_f64(out: &mut Vec<u8>, v: f64) {
    if v.is_finite() {
        // `Display` for f64 is the shortest roundtrip representation and
        // is deterministic across runs — exactly what byte-identical
        // artifacts need.
        let _ = write!(out, "{v}");
    } else {
        out.extend_from_slice(b"null");
    }
}

/// The `String` a writer's buffer leaves this crate as: the one UTF-8
/// check its bytes get.
pub(crate) fn into_string(buf: Vec<u8>) -> String {
    String::from_utf8(buf).expect("the JSON writers append only `&str`s and ASCII")
}

/// Escapes a string per RFC 8259 and wraps it in quotes.
pub fn escape(s: &str) -> String {
    let mut out = Vec::with_capacity(s.len() + 2);
    push_escaped(&mut out, s);
    into_string(out)
}

/// Formats an `f64` deterministically (finite values via `Display`,
/// non-finite as `null`).
pub fn num(v: f64) -> String {
    let mut out = Vec::new();
    push_f64(&mut out, v);
    into_string(out)
}

/// A streaming JSON object writer: fields are appended to one buffer in
/// call order (so key order is insertion order).
pub struct Obj {
    /// `{` followed by the fields written so far.
    buf: Vec<u8>,
}

impl Default for Obj {
    fn default() -> Obj {
        Obj::new()
    }
}

impl Obj {
    /// Creates an empty object.
    pub fn new() -> Obj {
        Obj::with_buffer(String::new())
    }

    /// Creates an empty object that writes into `buf`'s allocation (its
    /// old contents are discarded). Pair with [`Obj::into_buffer`] to
    /// write object after object through one buffer.
    pub fn with_buffer(buf: String) -> Obj {
        let mut buf = buf.into_bytes();
        buf.clear();
        buf.push(b'{');
        Obj { buf }
    }

    /// Appends the separator and the quoted key.
    fn key(&mut self, key: &str) {
        if self.buf.len() > 1 {
            self.buf.push(b',');
        }
        push_escaped(&mut self.buf, key);
        self.buf.push(b':');
    }

    /// Adds a pre-rendered JSON value under `key`.
    pub fn raw(mut self, key: &str, value: impl AsRef<str>) -> Obj {
        self.key(key);
        self.buf.extend_from_slice(value.as_ref().as_bytes());
        self
    }

    /// Adds a string value.
    pub fn str(mut self, key: &str, value: &str) -> Obj {
        self.key(key);
        push_escaped(&mut self.buf, value);
        self
    }

    /// Adds an unsigned integer value.
    pub fn u64(mut self, key: &str, value: u64) -> Obj {
        self.key(key);
        push_u64(&mut self.buf, value);
        self
    }

    /// Adds a float value (deterministic formatting, `null` if non-finite).
    pub fn f64(mut self, key: &str, value: f64) -> Obj {
        self.key(key);
        push_f64(&mut self.buf, value);
        self
    }

    /// Renders the object into an exact-size `String`.
    ///
    /// The buffer grew by doubling; callers keep what `build` returns
    /// (the lab holds every cell's report JSON), so the slack is given
    /// back here rather than carried for the life of the value.
    pub fn build(self) -> String {
        let mut s = self.into_buffer();
        s.shrink_to_fit();
        s
    }

    /// Renders the object and returns the buffer with its spare capacity,
    /// for callers that pass it to [`Obj::with_buffer`] again.
    pub fn into_buffer(mut self) -> String {
        self.buf.push(b'}');
        into_string(self.buf)
    }
}

/// Renders an iterator of pre-rendered JSON values as an array.
pub fn array<I: IntoIterator<Item = String>>(items: I) -> String {
    let mut out = String::from("[");
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&item);
    }
    out.push(']');
    out
}

/// The join-based builder this module shipped before [`Obj`] streamed:
/// every field rendered into its own `String`, then joined. Kept as the
/// reference the streaming writer is compared against, byte for byte.
#[cfg(test)]
mod reference {
    use std::fmt::Write as _;

    pub fn escape(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
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
        out
    }

    pub fn num(v: f64) -> String {
        if v.is_finite() {
            format!("{v}")
        } else {
            "null".to_string()
        }
    }

    #[derive(Default)]
    pub struct Obj {
        parts: Vec<String>,
    }

    impl Obj {
        pub fn raw(mut self, key: &str, value: impl Into<String>) -> Obj {
            self.parts.push(format!("{}:{}", escape(key), value.into()));
            self
        }

        pub fn str(self, key: &str, value: &str) -> Obj {
            let v = escape(value);
            self.raw(key, v)
        }

        pub fn u64(self, key: &str, value: u64) -> Obj {
            self.raw(key, value.to_string())
        }

        pub fn f64(self, key: &str, value: f64) -> Obj {
            let v = num(value);
            self.raw(key, v)
        }

        pub fn build(self) -> String {
            format!("{{{}}}", self.parts.join(","))
        }
    }

    pub fn array<I: IntoIterator<Item = String>>(items: I) -> String {
        let v: Vec<String> = items.into_iter().collect();
        format!("[{}]", v.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elsc_simcore::SimRng;

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("a\"b"), r#""a\"b""#);
        assert_eq!(escape("a\\b"), r#""a\\b""#);
        assert_eq!(escape("a\nb"), r#""a\nb""#);
        assert_eq!(escape("\u{1}"), "\"\\u0001\"");
        assert_eq!(escape("plain"), r#""plain""#);
    }

    #[test]
    fn num_is_deterministic_and_finite_only() {
        assert_eq!(num(1.5), "1.5");
        assert_eq!(num(0.0), "0");
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(f64::INFINITY), "null");
    }

    #[test]
    fn obj_preserves_insertion_order() {
        let s = Obj::new().u64("b", 2).str("a", "x").f64("c", 0.5).build();
        assert_eq!(s, r#"{"b":2,"a":"x","c":0.5}"#);
        assert_eq!(Obj::new().build(), "{}");
    }

    #[test]
    fn array_joins() {
        assert_eq!(array(["1".to_string(), "2".to_string()]), "[1,2]");
        assert_eq!(array(Vec::<String>::new()), "[]");
    }

    /// A string drawn from the characters the escaper treats specially,
    /// plain ASCII and multi-byte UTF-8.
    fn random_text(rng: &mut SimRng) -> String {
        const ALPHABET: [char; 16] = [
            'a', 'Z', '0', ' ', '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1}', '\u{1f}', '\u{7f}',
            'é', '調', '🦀',
        ];
        (0..rng.below(12))
            .map(|_| ALPHABET[rng.below(ALPHABET.len() as u64) as usize])
            .collect()
    }

    fn random_u64(rng: &mut SimRng) -> u64 {
        match rng.below(4) {
            0 => 0,
            1 => u64::MAX,
            2 => rng.below(1000),
            _ => rng.next_u64(),
        }
    }

    fn random_f64(rng: &mut SimRng) -> f64 {
        const EDGES: [f64; 8] = [
            0.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            f64::MIN_POSITIVE,
            1e21,
        ];
        match rng.below(3) {
            0 => EDGES[rng.below(EDGES.len() as u64) as usize],
            1 => (rng.f64() - 0.5) * 1e6,
            _ => f64::from_bits(rng.next_u64()),
        }
    }

    /// Builds the same random object through both writers; nested objects
    /// and arrays go in as `raw` values, as the reports do it.
    fn random_pair(rng: &mut SimRng, depth: u32) -> (String, String) {
        let mut new = Obj::new();
        let mut old = reference::Obj::default();
        for _ in 0..rng.below(7) {
            let key = random_text(rng);
            match rng.below(if depth == 0 { 3 } else { 5 }) {
                0 => {
                    let v = random_u64(rng);
                    new = new.u64(&key, v);
                    old = old.u64(&key, v);
                }
                1 => {
                    let v = random_f64(rng);
                    new = new.f64(&key, v);
                    old = old.f64(&key, v);
                }
                2 => {
                    let v = random_text(rng);
                    new = new.str(&key, &v);
                    old = old.str(&key, &v);
                }
                3 => {
                    let (n, o) = random_pair(rng, depth - 1);
                    new = new.raw(&key, n);
                    old = old.raw(&key, o);
                }
                _ => {
                    let len = [0, 1, 5][rng.below(3) as usize];
                    let (n, o): (Vec<_>, Vec<_>) =
                        (0..len).map(|_| random_pair(rng, depth - 1)).unzip();
                    new = new.raw(&key, array(n));
                    old = old.raw(&key, reference::array(o));
                }
            }
        }
        (new.build(), old.build())
    }

    #[test]
    fn streaming_obj_matches_the_join_based_reference() {
        let mut rng = SimRng::new(0x0b5e_55ed);
        for case in 0..2000 {
            let (new, old) = random_pair(&mut rng, 2);
            assert_eq!(new, old, "case {case}");
            let text = random_text(&mut rng);
            assert_eq!(escape(&text), reference::escape(&text), "case {case}");
            let v = random_f64(&mut rng);
            assert_eq!(num(v), reference::num(v), "case {case}: {v:?}");
        }
    }

    #[test]
    fn push_u64_writes_what_to_string_writes() {
        let check = |v: u64| {
            let mut out = b"x".to_vec();
            push_u64(&mut out, v);
            assert_eq!(out[1..], *v.to_string().as_bytes(), "{v}");
        };
        for v in [0, 9, 10, 99, 100, u64::MAX] {
            check(v);
        }
        let mut ten = 1u64;
        for _ in 0..20 {
            check(ten - 1);
            check(ten);
            ten = ten.saturating_mul(10);
        }
        let mut rng = SimRng::new(0xd161_7a11);
        for _ in 0..10_000 {
            // Every width, not only the near-20-digit values most draws are.
            let v = rng.next_u64() >> rng.below(64);
            check(v);
        }
    }

    #[test]
    fn build_returns_an_exact_size_string() {
        // The lab keeps every cell's report JSON alive; a builder that
        // returned its growth-doubled buffer raised `lab-figure4` peak RSS
        // by 30 %. The allocator may round a request up, never double it.
        let small = Obj::new().u64("at", 123456789).build();
        assert_eq!(small.len(), 16);
        assert!(small.capacity() <= small.len() + 16, "{}", small.capacity());
        let big = (0..5000)
            .fold(Obj::new(), |o, i| o.u64("some_key", i))
            .build();
        assert!(big.len() > 64 * 1024);
        assert!(big.capacity() <= big.len() + 16, "{}", big.capacity());
    }

    #[test]
    fn a_handed_back_buffer_is_reused_without_reallocating() {
        let mut buf = Obj::new().str("warm", "up the buffer").into_buffer();
        let (ptr, cap) = (buf.as_ptr(), buf.capacity());
        for i in 0..100 {
            buf = Obj::with_buffer(buf).u64("i", i).into_buffer();
            assert_eq!(buf, format!("{{\"i\":{i}}}"));
        }
        assert_eq!((buf.as_ptr(), buf.capacity()), (ptr, cap));
    }
}
