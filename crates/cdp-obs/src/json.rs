//! Dependency-free JSON value, serializer, and parser.
//!
//! The workspace must build offline with zero registry dependencies, so
//! manifest and JSONL emission cannot use serde. [`Json`] keeps object keys
//! in insertion order (a `Vec` of pairs, not a map) so serialized artifacts
//! are deterministic, and it distinguishes `u64`/`i64` from `f64` so large
//! counters survive a round trip without losing precision.

use std::fmt;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (counters, sequence numbers).
    U64(u64),
    /// A signed integer.
    I64(i64),
    /// A floating-point number. Non-finite values serialize as `null`.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys keep insertion order for deterministic output.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    #[must_use]
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Sets `key: value` in an object — replacing in place if the key
    /// already exists (so re-setting never emits duplicate JSON keys),
    /// appending otherwise. Panics on non-objects (a programming error
    /// in artifact-building code, not a data error).
    pub fn set(&mut self, key: &str, value: Json) {
        match self {
            Json::Obj(pairs) => match pairs.iter_mut().find(|(k, _)| k == key) {
                Some(slot) => slot.1 = value,
                None => pairs.push((key.to_string(), value)),
            },
            other => panic!("Json::set on non-object {other:?}"),
        }
    }

    /// Looks up a key in an object; `None` for non-objects or missing keys.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if it is one (accepts `I64`/`F64`
    /// holding an exact non-negative integer).
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::U64(v) => Some(v),
            Json::I64(v) => u64::try_from(v).ok(),
            Json::F64(v) if v >= 0.0 && v.fract() == 0.0 && v <= u64::MAX as f64 => Some(v as u64),
            _ => None,
        }
    }

    /// The value as a float, if numeric.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::U64(v) => Some(v as f64),
            Json::I64(v) => Some(v as f64),
            Json::F64(v) => Some(v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parses JSON text.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message with a byte offset on malformed
    /// input, trailing garbage, or arrays and objects nested more than 128
    /// levels deep.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(value)
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    write!(f, "\"")?;
    for c in s.chars() {
        match c {
            '"' => write!(f, "\\\"")?,
            '\\' => write!(f, "\\\\")?,
            '\n' => write!(f, "\\n")?,
            '\r' => write!(f, "\\r")?,
            '\t' => write!(f, "\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    write!(f, "\"")
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => write!(f, "null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::U64(v) => write!(f, "{v}"),
            Json::I64(v) => write!(f, "{v}"),
            Json::F64(v) => {
                if v.is_finite() {
                    // Keep a decimal point so the value round-trips as F64.
                    if v.fract() == 0.0 && v.abs() < 1e15 {
                        write!(f, "{v:.1}")
                    } else {
                        write!(f, "{v}")
                    }
                } else {
                    write!(f, "null")
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
            Json::Obj(pairs) => {
                write!(f, "{{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write_escaped(f, k)?;
                    write!(f, ":{v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

/// Deepest nesting of arrays and objects [`Json::parse`] accepts. The
/// parser recurses once per level, so unbounded input could overflow the
/// stack; manifests nest a handful of levels.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(format!("unexpected byte {:?} at {}", b as char, self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| format!("invalid number at byte {start}"))?;
        if !is_float {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::U64(v));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Json::I64(v));
            }
        }
        text.parse::<f64>()
            .map(Json::F64)
            .map_err(|_| format!("invalid number {text:?} at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash in one step.
            // Both are ASCII, so the run ends on a char boundary of the
            // `&str` the bytes came from.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or_else(|| "unterminated string".to_string())?;
            let plain = std::str::from_utf8(&self.bytes[self.pos..self.pos + run])
                .map_err(|_| format!("invalid utf-8 at byte {}", self.pos))?;
            out.push_str(plain);
            self.pos += run;
            if self.bytes[self.pos] == b'"' {
                self.pos += 1;
                return Ok(out);
            }
            self.pos += 1;
            match self.peek() {
                Some(b'"') => out.push('"'),
                Some(b'\\') => out.push('\\'),
                Some(b'/') => out.push('/'),
                Some(b'n') => out.push('\n'),
                Some(b'r') => out.push('\r'),
                Some(b't') => out.push('\t'),
                Some(b'b') => out.push('\u{8}'),
                Some(b'f') => out.push('\u{c}'),
                Some(b'u') => {
                    let mut code = self
                        .hex4(self.pos + 1)
                        .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                    self.pos += 4;
                    // A high surrogate followed by an escaped low one is
                    // one UTF-16 pair; a lone half decodes to U+FFFD.
                    if (0xd800..0xdc00).contains(&code)
                        && self.bytes.get(self.pos + 1..self.pos + 3) == Some(b"\\u")
                    {
                        if let Some(low) = self
                            .hex4(self.pos + 3)
                            .filter(|low| (0xdc00..0xe000).contains(low))
                        {
                            code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                            self.pos += 6;
                        }
                    }
                    out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                }
                _ => return Err(format!("bad escape at byte {}", self.pos)),
            }
            self.pos += 1;
        }
    }

    /// The value of the four hex digits at byte `at`, if there are four.
    fn hex4(&self, at: usize) -> Option<u32> {
        self.bytes
            .get(at..at + 4)
            .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
            .and_then(|h| std::str::from_utf8(h).ok())
            .and_then(|h| u32::from_str_radix(h, 16).ok())
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_object() {
        let mut doc = Json::obj();
        doc.set("name", Json::Str("slsb \"quoted\"\n".into()));
        doc.set("count", Json::U64(u64::MAX));
        doc.set("delta", Json::I64(-3));
        doc.set("ipc", Json::F64(1.25));
        doc.set("ok", Json::Bool(true));
        doc.set("gap", Json::Null);
        doc.set("arr", Json::Arr(vec![Json::U64(1), Json::U64(2)]));
        let text = doc.to_string();
        let back = Json::parse(&text).expect("parse");
        assert_eq!(back, doc);
    }

    #[test]
    fn large_counters_keep_precision() {
        let v = Json::U64(9_007_199_254_740_993); // 2^53 + 1: not representable as f64
        let back = Json::parse(&v.to_string()).unwrap();
        assert_eq!(back.as_u64(), Some(9_007_199_254_740_993));
    }

    #[test]
    fn float_roundtrips_as_float() {
        let back = Json::parse(&Json::F64(2.0).to_string()).unwrap();
        assert_eq!(back, Json::F64(2.0));
        assert_eq!(Json::F64(f64::NAN).to_string(), "null");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{} x").is_err());
        assert!(Json::parse("tru").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn parse_nested_and_escapes() {
        let doc = Json::parse(r#"{ "a": [1, -2, 3.5, "xA\n"], "b": { "c": null, "d": false } }"#)
            .unwrap();
        let arr = doc.get("a").and_then(Json::as_arr).unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1], Json::I64(-2));
        assert_eq!(arr[2], Json::F64(3.5));
        assert_eq!(arr[3].as_str(), Some("xA\n"));
        assert_eq!(doc.get("b").unwrap().get("c"), Some(&Json::Null));
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // A 4 MiB string of plain runs, multi-byte UTF-8 and escapes. It
        // parses on its own thread so that a decoder slower than linear
        // fails on the timeout instead of hanging the suite.
        let unit = "plain text \u{e9}\u{1f600} \"quoted\" back\\slash\n\u{1}/";
        let blob = unit.repeat((4 << 20) / unit.len() + 1);
        let mut doc = Json::obj();
        doc.set("blob", Json::Str(blob));
        let text = doc.to_string();
        let (tx, rx) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            let _ = tx.send(Json::parse(&text));
        });
        let got = rx.recv_timeout(std::time::Duration::from_secs(30));
        assert!(
            !matches!(got, Err(std::sync::mpsc::RecvTimeoutError::Timeout)),
            "a 4 MiB string took over 30 s to parse"
        );
        worker.join().expect("parser thread panicked");
        assert_eq!(got.expect("parser thread sent its result"), Ok(doc));
    }

    #[test]
    fn nesting_past_the_cap_is_an_error() {
        let nest = |open: &str, leaf: &str, close: &str, n: usize| {
            format!("{}{leaf}{}", open.repeat(n), close.repeat(n))
        };
        assert!(Json::parse(&nest("[", "", "]", MAX_DEPTH)).is_ok());
        assert!(Json::parse(&nest("{\"k\":", "1", "}", MAX_DEPTH)).is_ok());
        for n in [MAX_DEPTH + 1, 100_000] {
            let err = Json::parse(&nest("[", "", "]", n)).unwrap_err();
            assert!(err.contains("nesting"), "got {err:?}");
            assert!(Json::parse(&nest("{\"k\":", "1", "}", n)).is_err());
        }
    }

    #[test]
    fn unicode_escapes_need_four_hex_digits() {
        assert_eq!(
            Json::parse(r#""\u0041\u00e9""#),
            Ok(Json::Str("A\u{e9}".into()))
        );
        for bad in [
            r#"{"a":"\u+041"}"#,
            r#""\u-041""#,
            r#""\u 041""#,
            r#""\u004""#,
            r#""\u12""#,
        ] {
            assert!(Json::parse(bad).is_err(), "{bad} parsed");
        }
    }

    #[test]
    fn surrogate_pairs_join_and_lone_halves_are_replaced() {
        for (text, want) in [
            (r#""\ud83d\ude00""#, "\u{1f600}"),
            (r#""\ud834\udd1ex""#, "\u{1d11e}x"),
            (r#""\ud83d""#, "\u{fffd}"),
            (r#""\ude00""#, "\u{fffd}"),
            (r#""\ude00\ud83d""#, "\u{fffd}\u{fffd}"),
            (r#""\ud83dx\ude00""#, "\u{fffd}x\u{fffd}"),
            (r#""\ud83dA""#, "\u{fffd}A"),
            (r#""\ud83d\ud83d\ude00""#, "\u{fffd}\u{1f600}"),
        ] {
            assert_eq!(Json::parse(text), Ok(Json::Str(want.into())), "{text}");
        }
        assert!(Json::parse(r#""\ud83d\ude0""#).is_err());
    }

    #[test]
    fn getters() {
        assert_eq!(Json::U64(5).as_f64(), Some(5.0));
        assert_eq!(Json::F64(5.0).as_u64(), Some(5));
        assert_eq!(Json::F64(5.5).as_u64(), None);
        assert_eq!(Json::Str("s".into()).as_u64(), None);
        assert_eq!(Json::Null.get("k"), None);
    }
}
