//! A minimal JSON value type with a recursive-descent parser and a
//! deterministic serializer.
//!
//! The serve protocol needs structured request/response bodies and the
//! repo is offline (no serde), so — like the LEB128 codec in
//! `algoprof-trace` and the SHA-256 in `algoprof` — the codec is
//! hand-rolled. Objects preserve insertion order, so serializing the
//! same value always yields the same bytes, which the determinism
//! contract ("byte-identical responses for identical submissions")
//! leans on.

use std::fmt;

use algoprof_vm::write_json_str;

/// A JSON value. Numbers are `f64` (the protocol only carries sizes,
/// counts and ids that fit exactly).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Insertion-ordered members (serialization is deterministic).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// Member lookup on an object (first match), `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a u64 (rejects negatives and fractions).
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        if n >= 0.0 && n.fract() == 0.0 && n <= u64::MAX as f64 {
            Some(n as u64)
        } else {
            None
        }
    }

    /// The numeric payload as an i64 (rejects fractions).
    pub fn as_i64(&self) -> Option<i64> {
        let n = self.as_f64()?;
        if n.fract() == 0.0 && (i64::MIN as f64..=i64::MAX as f64).contains(&n) {
            Some(n as i64)
        } else {
            None
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes without any whitespace (the protocol's wire form).
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                // Integral values print without a trailing ".0" so ids
                // and counts round-trip as written.
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    let _ = fmt::Write::write_fmt(out, format_args!("{}", *n as i64));
                } else {
                    let _ = fmt::Write::write_fmt(out, format_args!("{n}"));
                }
            }
            Json::Str(s) => write_json_str(out, s),
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
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_str(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Deepest array/object nesting [`parse`] accepts. The protocol nests
/// three levels; the cap keeps a hostile body from overflowing the
/// stack of the connection thread that parses it.
pub const MAX_DEPTH: usize = 64;

/// Parses one JSON document; trailing non-whitespace is an error, and
/// so is nesting deeper than [`MAX_DEPTH`]. Time is linear in the
/// length of `text`.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser { text, pos: 0 };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    /// One value inside `depth` open arrays and objects.
    fn value(&mut self, depth: usize) -> Result<Json, String> {
        match self.peek() {
            Some(b'[' | b'{') if depth == MAX_DEPTH => Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            )),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(depth + 1),
            Some(b'{') => self.object(depth + 1),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while let Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') = self.peek() {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number {text:?} at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash in one piece:
            // both are ASCII, so the run is whole UTF-8 scalars.
            let rest = &self.text.as_bytes()[self.pos..];
            let run = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(rest.len());
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    // The backslash of one escape.
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
                        Some(b'u') => out.push(self.unicode_escape()?),
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
            }
        }
    }

    /// Decodes the `\uXXXX` escape whose `u` is at `self.pos`, or the
    /// surrogate pair `\uXXXX\uXXXX` it starts, and leaves `self.pos`
    /// on its last hex digit. A lone surrogate is an error.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let start = self.pos - 1;
        let bad = || format!("bad \\u escape at byte {start}");
        let unit = self.hex4(self.pos + 1).ok_or_else(bad)?;
        self.pos += 4;
        let code = match unit {
            0xD800..=0xDBFF => {
                let low = match self.text.as_bytes().get(self.pos + 1..self.pos + 3) {
                    Some(b"\\u") => self.hex4(self.pos + 3).ok_or_else(bad)?,
                    _ => return Err(bad()),
                };
                if !(0xDC00..=0xDFFF).contains(&low) {
                    return Err(bad());
                }
                self.pos += 6;
                0x1_0000 + ((unit - 0xD800) << 10) + (low - 0xDC00)
            }
            0xDC00..=0xDFFF => return Err(bad()),
            _ => unit,
        };
        Ok(char::from_u32(code).expect("a BMP scalar or a decoded surrogate pair"))
    }

    /// The four ASCII hex digits at `at` as a UTF-16 code unit.
    fn hex4(&self, at: usize) -> Option<u32> {
        let digits = self.text.as_bytes().get(at..at + 4)?;
        digits
            .iter()
            .try_fold(0, |unit, &b| Some(unit * 16 + char::from(b).to_digit(16)?))
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth)?);
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

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth)?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
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
    fn round_trips_a_nested_document() {
        let doc = Json::obj(vec![
            ("kind", Json::Str("sweep".into())),
            ("sizes", Json::Arr(vec![Json::Num(4.0), Json::Num(8.0)])),
            ("quiet", Json::Bool(true)),
            ("note", Json::Str("line1\nline2 \"quoted\"".into())),
            ("nothing", Json::Null),
        ]);
        let text = doc.to_string_compact();
        let back = parse(&text).expect("parses");
        assert_eq!(back, doc);
        // Deterministic: serializing again yields the same bytes.
        assert_eq!(back.to_string_compact(), text);
    }

    #[test]
    fn parses_whitespace_and_escapes() {
        let v = parse(" { \"a\" : [ 1 , -2.5 , \"x\\u0041\\n\" ] } ").expect("parses");
        let arr = v.get("a").and_then(Json::as_arr).expect("array");
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].as_f64(), Some(-2.5));
        assert_eq!(arr[2].as_str(), Some("xA\n"));
    }

    #[test]
    fn a_surrogate_pair_decodes_to_one_character() {
        let escaped = parse("\"p\\ud83d\\ude42.jay\"").expect("parses");
        let raw = parse("\"p\u{1f642}.jay\"").expect("parses");
        assert_eq!(escaped, Json::Str("p\u{1f642}.jay".into()));
        assert_eq!(escaped, raw);
        // Upper-case digits, and the largest scalar.
        assert_eq!(
            parse("\"\\uD83D\\uDE42\\udbff\\udfff\"").expect("parses"),
            Json::Str("\u{1f642}\u{10ffff}".into())
        );
    }

    #[test]
    fn a_lone_surrogate_is_rejected() {
        for bad in [
            "\"\\ud83d\"",
            "\"\\ud83dx\"",
            "\"\\ud83d\\n\"",
            "\"\\ud83d\\u0041\"",
            "\"\\ud83d\\ud83d\"",
            "\"\\ude42\"",
            "\"\\ude42\\ud83d\"",
            "\"\\ud83d\\ude4\"",
        ] {
            let err = parse(bad).expect_err(bad);
            assert!(err.starts_with("bad \\u escape at byte"), "{bad}: {err}");
        }
    }

    #[test]
    fn a_u_escape_takes_exactly_four_hex_digits() {
        for bad in [
            "\"\\u+070\"",
            "\"\\u-070\"",
            "\"\\u 070\"",
            "\"\\u07\"",
            "\"\\u00g0\"",
            "\"\\u\u{e9}00\"",
            "\"\\u",
        ] {
            let err = parse(bad).expect_err(bad);
            assert!(err.starts_with("bad \\u escape"), "{bad}: {err}");
        }
        assert_eq!(
            parse("{\"kind\":\"\\u+070rofile\"}").map_err(|e| e.contains("bad \\u escape")),
            Err(true)
        );
        assert_eq!(
            parse("\"\\u00e9\\u00E9\""),
            Ok(Json::Str("\u{e9}\u{e9}".into()))
        );
    }

    #[test]
    fn integral_numbers_print_without_fraction() {
        assert_eq!(Json::Num(42.0).to_string_compact(), "42");
        assert_eq!(Json::Num(-7.0).to_string_compact(), "-7");
        assert_eq!(Json::Num(2.5).to_string_compact(), "2.5");
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "", "{", "[1,]", "{\"a\"}", "nul", "\"open", "1 2", "{\"a\":}",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).expect_err("too deep");
        assert!(err.contains("nesting deeper than 64"), "{err}");
        let objects = format!(
            "{}1{}",
            "{\"k\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(parse(&objects).is_err());
        // Far past the cap: an error, not a stack overflow.
        assert!(parse(&"[".repeat(20_000)).is_err());
    }

    #[test]
    fn a_one_mebibyte_string_parses_in_linear_time() {
        let payload: String = "0123456789abcdef\u{e9}\u{65e5}\u{1f642}"
            .chars()
            .cycle()
            .take(1 << 20)
            .collect();
        let doc = format!("{{\"trace_hex\":\"{payload}\\n\"}}");
        let start = std::time::Instant::now();
        let value = parse(&doc).expect("parses");
        let elapsed = start.elapsed();
        assert_eq!(
            value.get("trace_hex").and_then(Json::as_str),
            Some(format!("{payload}\n").as_str())
        );
        // Linear parsing takes milliseconds even in a debug build;
        // re-validating the rest of the input per character takes
        // minutes.
        assert!(elapsed.as_secs() < 5, "1 MiB string took {elapsed:?}");
    }

    #[test]
    fn accessors_reject_wrong_shapes() {
        assert_eq!(Json::Num(1.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_i64(), Some(-1));
        assert_eq!(Json::Str("x".into()).as_f64(), None);
        assert_eq!(Json::Null.get("k"), None);
    }
}
