//! The workspace's one JSON codec: a [`Value`] tree, a parser and two
//! writers. The Chrome trace, the `BENCH_results.json` bench document and
//! the render-graph dump are all written and read through it, so one string
//! escaper and one number formatter fix the text form of every document and
//! parse → print is a fixed point by construction (DESIGN.md §12).
//!
//! [`parse`] errors name a byte offset; nesting deeper than [`MAX_DEPTH`]
//! is an error, not a stack overflow; a `\u` UTF-16 surrogate pair decodes
//! to one character and a lone surrogate is an error. Numbers are `f64`
//! (integers exact up to 2⁵³), printed in Rust's shortest round-trip form,
//! and a non-finite number prints as `null`.

use std::fmt::{self, Write as _};

/// Deepest container nesting [`parse`] accepts. The deepest document the
/// workspace writes nests 7 levels.
pub const MAX_DEPTH: usize = 64;

/// A JSON document tree. Objects keep their keys in document order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, keys in document order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Build an object from `(key, value)` pairs, in order.
    pub fn object<'a>(fields: impl IntoIterator<Item = (&'a str, Value)>) -> Self {
        Value::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// The first member named `key`, if this is an object that has one.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number, if this is a non-negative integer that fits a `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The items, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Append the compact form, which has no whitespace at all, to `out`.
    pub fn write_compact(&self, out: &mut String) {
        self.write(out, None);
    }

    /// The indented form, ending in a newline: two spaces per level, each
    /// member on its own line, except that a container whose members are
    /// all scalars or arrays of scalars stays on one line.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    fn members(&self) -> Box<dyn Iterator<Item = &Value> + '_> {
        match self {
            Value::Arr(items) => Box::new(items.iter()),
            Value::Obj(fields) => Box::new(fields.iter().map(|(_, v)| v)),
            _ => Box::new(std::iter::empty()),
        }
    }

    fn is_leaf(&self) -> bool {
        self.members().next().is_none()
    }

    fn fits_one_line(&self) -> bool {
        self.members().all(|v| {
            v.is_leaf() || matches!(v, Value::Arr(items) if items.iter().all(Value::is_leaf))
        })
    }

    /// One writer for both forms: `depth` is `None` for the compact form
    /// and the indentation level for the indented one.
    fn write(&self, out: &mut String, depth: Option<usize>) {
        let expand = depth.filter(|_| !self.fits_one_line());
        let inner = depth.map(|d| d + 1);
        let separator = |out: &mut String, i: usize| match expand {
            Some(d) => {
                out.push_str(if i == 0 { "\n" } else { ",\n" });
                indent(out, d + 1);
            }
            None if i > 0 => out.push_str(if depth.is_some() { ", " } else { "," }),
            None => {}
        };
        let close = |out: &mut String, bracket: char| {
            if let Some(d) = expand {
                out.push('\n');
                indent(out, d);
            }
            out.push(bracket);
        };
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            // Shortest round-trip form; JSON has no NaN or infinity.
            Value::Num(x) if x.is_finite() => {
                let _ = write!(out, "{x}");
            }
            Value::Num(_) => out.push_str("null"),
            Value::Str(s) => write_str(out, s),
            Value::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    separator(out, i);
                    v.write(out, inner);
                }
                close(out, ']');
            }
            Value::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    separator(out, i);
                    write_str(out, k);
                    out.push_str(if depth.is_some() { ": " } else { ":" });
                    v.write(out, inner);
                }
                close(out, '}');
            }
        }
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::Num(x)
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Self {
        Value::Num(n as f64)
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Self {
        Value::Num(n as f64)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_owned())
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        v.map_or(Value::Null, Into::into)
    }
}

impl<T: Into<Value>> FromIterator<T> for Value {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        Value::Arr(iter.into_iter().map(Into::into).collect())
    }
}

/// Append `s` as a quoted JSON string: `"` and `\` are escaped, as are
/// control characters (`\n`, `\r`, `\t`, otherwise `\u00XX`). Everything
/// else, non-ASCII included, is written as UTF-8.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c < '\u{20}' => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Why [`parse`] rejected a document, and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input where parsing stopped.
    pub offset: usize,
    /// What was wrong there.
    pub reason: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.reason, self.offset)
    }
}

impl std::error::Error for ParseError {}

/// Parse one JSON document. Whitespace may surround it; anything else after
/// it is an error.
pub fn parse(text: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        text,
        pos: 0,
        depth: 0,
    };
    let value = p.value()?;
    p.skip_ws();
    if p.pos < text.len() {
        return p.fail("trailing characters after the document");
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn fail<T>(&self, reason: impl Into<String>) -> Result<T, ParseError> {
        Self::fail_at(self.pos, reason)
    }

    fn fail_at<T>(offset: usize, reason: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            offset,
            reason: reason.into(),
        })
    }

    fn byte(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.byte(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Skip whitespace, then consume `c` if it is next.
    fn eat(&mut self, c: u8) -> bool {
        self.skip_ws();
        let hit = self.byte() == Some(c);
        self.pos += usize::from(hit);
        hit
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        self.skip_ws();
        match self.byte() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => self.fail("expected a JSON value"),
            None => self.fail("unexpected end of input"),
        }
    }

    /// The comma-separated members of a container whose opening bracket is
    /// next, each parsed by `member`, up to the `close` bracket.
    fn members(
        &mut self,
        close: u8,
        mut member: impl FnMut(&mut Self) -> Result<(), ParseError>,
    ) -> Result<(), ParseError> {
        if self.depth == MAX_DEPTH {
            return self.fail(format!("nesting deeper than {MAX_DEPTH}"));
        }
        self.depth += 1;
        self.pos += 1;
        if !self.eat(close) {
            loop {
                member(self)?;
                if self.eat(close) {
                    break;
                }
                if !self.eat(b',') {
                    return self.fail(format!("expected ',' or '{}'", char::from(close)));
                }
            }
        }
        self.depth -= 1;
        Ok(())
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        let mut items = Vec::new();
        self.members(b']', |p| {
            items.push(p.value()?);
            Ok(())
        })?;
        Ok(Value::Arr(items))
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        let mut fields = Vec::new();
        self.members(b'}', |p| {
            p.skip_ws();
            if p.byte() != Some(b'"') {
                return p.fail("expected a string key");
            }
            let key = p.string()?;
            if !p.eat(b':') {
                return p.fail("expected ':'");
            }
            fields.push((key, p.value()?));
            Ok(())
        })?;
        Ok(Value::Obj(fields))
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, ParseError> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(v)
        } else {
            self.fail(format!("expected '{word}'"))
        }
    }

    /// Consume a run of ASCII digits; whether there was at least one.
    fn digits(&mut self) -> bool {
        let start = self.pos;
        while matches!(self.byte(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos > start
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        self.pos += usize::from(self.byte() == Some(b'-'));
        let int_start = self.pos;
        // At least one digit, and no leading zeros: `0` alone or a non-zero
        // first digit.
        let mut ok =
            self.digits() && (self.text.as_bytes()[int_start] != b'0' || self.pos == int_start + 1);
        if ok && self.byte() == Some(b'.') {
            self.pos += 1;
            ok = self.digits();
        }
        if ok && matches!(self.byte(), Some(b'e' | b'E')) {
            self.pos += 1;
            self.pos += usize::from(matches!(self.byte(), Some(b'+' | b'-')));
            ok = self.digits();
        }
        if !ok {
            return Self::fail_at(start, "bad number");
        }
        match self.text[start..self.pos].parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Value::Num(x)),
            _ => Self::fail_at(start, "number out of range"),
        }
    }

    /// A string at its opening quote.
    fn string(&mut self) -> Result<String, ParseError> {
        self.pos += 1;
        let mut out = String::new();
        loop {
            // Runs end only at ASCII bytes, so they split on char boundaries.
            let start = self.pos;
            while matches!(self.byte(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            match self.byte() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => out.push(self.escape()?),
                Some(_) => return self.fail("control character in string"),
                None => return self.fail("unterminated string"),
            }
        }
    }

    /// An escape sequence at its backslash.
    fn escape(&mut self) -> Result<char, ParseError> {
        let at = self.pos;
        self.pos += 1;
        let c = match self.byte() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                return self.unicode(at);
            }
            _ => return self.fail("bad escape"),
        };
        self.pos += 1;
        Ok(c)
    }

    /// The code point of a `\u` escape whose backslash is at `at`; a UTF-16
    /// high surrogate must be followed by a `\u` low surrogate.
    fn unicode(&mut self, at: usize) -> Result<char, ParseError> {
        let hi = self.hex4()?;
        let mut code = hi;
        if (0xD800..0xDC00).contains(&hi) && self.text[self.pos..].starts_with("\\u") {
            self.pos += 2;
            let lo = self.hex4()?;
            if (0xDC00..0xE000).contains(&lo) {
                code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
            }
        }
        // `char` excludes the surrogate range, so an unpaired one fails here.
        char::from_u32(code).map_or_else(
            || Self::fail_at(at, format!("unpaired surrogate \\u{hi:04x}")),
            Ok,
        )
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut code = 0;
        for _ in 0..4 {
            match self.byte().and_then(|b| char::from(b).to_digit(16)) {
                Some(d) => {
                    code = code * 16 + d;
                    self.pos += 1;
                }
                None => return self.fail("bad \\u escape"),
            }
        }
        Ok(code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    fn compact(v: &Value) -> String {
        let mut out = String::new();
        v.write_compact(&mut out);
        out
    }

    #[test]
    fn parses_every_kind_of_value() {
        let v = parse(r#" {"a": [1, 2.5, -3e2, 0], "s": "q\"\\\nA\/", "b": true, "n": null} "#)
            .unwrap();
        let a = v.get("a").and_then(Value::as_array).unwrap();
        assert_eq!(a.len(), 4);
        assert_eq!(a[2].as_f64(), Some(-300.0));
        assert_eq!(a[3].as_u64(), Some(0));
        assert_eq!(v.get("s").and_then(Value::as_str), Some("q\"\\\nA/"));
        assert_eq!(v.get("b").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("n"), Some(&Value::Null));
        assert_eq!(v.get("missing"), None);
        assert_eq!(a[1].as_u64(), None, "2.5 is not an integer");
    }

    #[test]
    fn errors_name_the_byte_offset() {
        let cases: [(&str, usize, &str); 14] = [
            ("", 0, "unexpected end of input"),
            ("[1, 2", 5, "expected ',' or ']'"),
            ("{\"a\" 1}", 5, "expected ':'"),
            ("{1: 2}", 1, "expected a string key"),
            ("\"abc", 4, "unterminated string"),
            ("[01]", 1, "bad number"),
            ("-", 0, "bad number"),
            ("[-", 1, "bad number"),
            ("{\"a\":-", 5, "bad number"),
            ("[-a]", 1, "bad number"),
            ("[1e999]", 1, "number out of range"),
            ("\"a\u{1}\"", 2, "control character in string"),
            ("[tru]", 1, "expected 'true'"),
            ("{} x", 3, "trailing characters after the document"),
        ];
        for (text, offset, reason) in cases {
            let err = parse(text).expect_err(text);
            assert_eq!(
                (err.offset, err.reason.as_str()),
                (offset, reason),
                "{text:?}"
            );
            assert!(err.to_string().ends_with(&format!("at byte {offset}")));
        }
    }

    #[test]
    fn nesting_deeper_than_the_limit_is_a_located_error() {
        let nest = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        let err = parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH);
        assert_eq!(
            err.to_string(),
            format!("nesting deeper than {MAX_DEPTH} at byte {MAX_DEPTH}")
        );
        // Far past the limit the parser stops at the same place instead of
        // recursing until the stack overflows.
        let deep = format!("{{\"traceEvents\":{}}}", nest(50_000));
        assert_eq!(parse(&deep).unwrap_err().offset, 15 + MAX_DEPTH - 1);
    }

    /// A JSON string literal spelling each code unit in `units` as a `\u`
    /// escape, the form Python's `json.dump` writes non-ASCII text in.
    fn escaped(units: &[u16]) -> String {
        let body: String = units.iter().map(|u| format!("\\u{u:04x}")).collect();
        format!("\"{body}\"")
    }

    #[test]
    fn surrogate_pairs_decode_and_lone_surrogates_are_rejected() {
        assert_eq!(
            parse(&escaped(&[0xd83d, 0xde00])).unwrap().as_str(),
            Some("\u{1F600}")
        );
        assert_eq!(parse(&escaped(&[0xe9])).unwrap().as_str(), Some("\u{e9}"));
        let lone_high = escaped(&[0x41, 0xd83d]);
        let lone_low = escaped(&[0xde00, 0xd83d]);
        let high_then_bmp = escaped(&[0xd83d, 0x41]);
        for (text, offset) in [(&lone_high, 7), (&lone_low, 1), (&high_then_bmp, 1)] {
            let err = parse(text).expect_err(text);
            assert!(err.reason.starts_with("unpaired surrogate"), "{err}");
            assert_eq!(err.offset, offset, "{text}");
        }
    }
    #[test]
    fn strings_escape_quotes_backslashes_and_controls() {
        let mut s = String::new();
        write_str(&mut s, "a\"b\\c\nd\u{1}é");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\u0001é\"");
        assert_eq!(parse(&s).unwrap().as_str(), Some("a\"b\\c\nd\u{1}é"));
    }

    #[test]
    fn numbers_print_shortest_and_non_finite_as_null() {
        let v: Value = [0.1, 2.0, -0.5, 1e-7, f64::NAN, f64::INFINITY]
            .into_iter()
            .collect();
        assert_eq!(compact(&v), "[0.1,2,-0.5,0.0000001,null,null]");
        assert_eq!(compact(&Value::from(u64::from(u32::MAX))), "4294967295");
    }

    #[test]
    fn compact_and_indented_layouts() {
        let v = Value::object([
            ("name", "x".into()),
            ("list", [1u64, 2].into_iter().collect()),
            (
                "rows",
                vec![Value::object([("k", 1u64.into())])]
                    .into_iter()
                    .collect(),
            ),
            ("empty", Value::Arr(Vec::new())),
        ]);
        assert_eq!(
            compact(&v),
            r#"{"name":"x","list":[1,2],"rows":[{"k":1}],"empty":[]}"#
        );
        assert_eq!(
            v.to_pretty(),
            "{\n  \"name\": \"x\",\n  \"list\": [1, 2],\n  \"rows\": [\n    {\"k\": 1}\n  ],\n  \
             \"empty\": []\n}\n"
        );
    }

    /// Characters that exercise every escaping rule, plus non-ASCII text.
    const ALPHABET: [char; 10] = [
        'a',
        'Z',
        ' ',
        '"',
        '\\',
        '\n',
        '\t',
        '\u{1}',
        'é',
        '\u{1F600}',
    ];

    fn random_str(rng: &mut TestRng) -> String {
        (0..rng.next_u64() % 8)
            .map(|_| ALPHABET[(rng.next_u64() % ALPHABET.len() as u64) as usize])
            .collect()
    }

    fn random_value(rng: &mut TestRng, depth: usize) -> Value {
        let kinds = if depth == 0 { 5 } else { 7 };
        let len = |rng: &mut TestRng| rng.next_u64() % 5;
        match rng.next_u64() % kinds {
            0 => Value::Null,
            1 => Value::Bool(any::<bool>().generate(rng)),
            2 => Value::Num(any::<f64>().generate(rng)),
            3 => Value::Num((rng.next_u64() >> 11) as f64),
            4 => Value::Str(random_str(rng)),
            5 => Value::Arr(
                (0..len(rng))
                    .map(|_| random_value(rng, depth - 1))
                    .collect(),
            ),
            _ => Value::Obj(
                (0..len(rng))
                    .map(|_| (random_str(rng), random_value(rng, depth - 1)))
                    .collect(),
            ),
        }
    }

    /// Random trees up to four levels deep: finite numbers (fractions over
    /// 120 binary orders of magnitude, and integers up to 2⁵³) and strings
    /// over [`ALPHABET`].
    struct RandomTree;

    impl Strategy for RandomTree {
        type Value = Value;
        fn generate(&self, rng: &mut TestRng) -> Value {
            random_value(rng, 4)
        }
    }

    /// Tokens of the JSON grammar, fragments of them and characters that
    /// must be escaped; random concatenations are mostly malformed.
    const TOKENS: [&str; 21] = [
        "{", "}", "[", "]", ",", ":", "\"", "\\", "\\u", "d83d", "dc00", "0", "-", "1.5", "e9",
        "true", "nul", " ", "\n", "é", "\u{1}",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Both writers produce text that parses back to an equal tree.
        #[test]
        fn both_layouts_parse_back_to_the_same_tree(v in RandomTree) {
            prop_assert_eq!(&parse(&compact(&v)).unwrap(), &v);
            prop_assert_eq!(&parse(&v.to_pretty()).unwrap(), &v);
        }

        /// Random token strings, and every prefix of one, return a value or
        /// an error, never a panic, and an error's offset lies inside the
        /// input. The prefixes make the input end at every token.
        #[test]
        fn token_soup_never_panics(picks in prop::collection::vec(0..TOKENS.len(), 0..48)) {
            let text: String = picks.iter().map(|&i| TOKENS[i]).collect();
            for cut in (0..=text.len()).filter(|&i| text.is_char_boundary(i)) {
                if let Err(e) = parse(&text[..cut]) {
                    prop_assert!(e.offset <= cut, "{} past {}", e, cut);
                }
            }
        }
    }
}
