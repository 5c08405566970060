//! The harness's one JSON codec: it writes and reads the lines of the
//! resume journal ([`crate::journal`]).
//!
//! It supports only what the journal needs — objects, arrays, strings
//! and numbers. A [`Number`] keeps its JSON text, so a `u64` stays
//! exact and a parsed line writes back unchanged. [`Json::to_line`]
//! writes the whole value on one line with no spaces (the journal's
//! JSONL).
//!
//! The parser scans each string once and refuses input nested deeper
//! than [`MAX_DEPTH`], so corrupt input returns an error instead of
//! overflowing the stack.

/// Deepest container nesting the parser accepts. A journal line nests
/// five levels.
pub const MAX_DEPTH: usize = 64;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// An object; members keep their order, duplicates included.
    Obj(Vec<(String, Json)>),
    /// An array.
    Arr(Vec<Json>),
    /// A string.
    Str(String),
    /// A number.
    Num(Number),
}

/// A JSON number, held as its JSON text. Built by [`Json::uint`] or
/// the parser, so the text is always valid.
#[derive(Debug, Clone, PartialEq)]
pub struct Number(String);

impl Json {
    /// An object from `(key, value)` pairs.
    pub fn obj<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// An unsigned integer, exact over the whole `u64` range.
    pub fn uint(n: u64) -> Json {
        Json::Num(Number(n.to_string()))
    }

    /// The member `key` of an object (the first, if repeated).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64`, when it is a non-negative integer in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(Number(text)) => text.parse().ok(),
            _ => None,
        }
    }

    /// The value as a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parses one JSON document; only whitespace may follow the value.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { text, pos: 0 };
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos < text.len() {
            return p.fail("trailing characters after the value");
        }
        Ok(value)
    }

    /// The one-line layout (no spaces, no trailing newline).
    pub fn to_line(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        let (open, close, members): (char, char, Vec<(Option<&str>, &Json)>) = match self {
            Json::Obj(fields) => (
                '{',
                '}',
                fields.iter().map(|(k, v)| (Some(k.as_str()), v)).collect(),
            ),
            Json::Arr(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
            Json::Str(s) => return write_str(s, out),
            Json::Num(Number(text)) => return out.push_str(text),
        };
        out.push(open);
        for (i, (key, value)) in members.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            if let Some(key) = key {
                write_str(key, out);
                out.push(':');
            }
            value.write(out);
        }
        out.push(close);
    }
}

/// Writes `s` as a JSON string literal.
fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn fail<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("JSON: {what} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.fail(&format!("expected '{}'", b as char))
        }
    }

    /// Consumes `word` if the input continues with it.
    fn eat(&mut self, word: &str) -> bool {
        let found = self.text.as_bytes()[self.pos..].starts_with(word.as_bytes());
        if found {
            self.pos += word.len();
        }
        found
    }

    /// Parses a value inside `depth` enclosing containers.
    fn value(&mut self, depth: usize) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{' | b'[') if depth == MAX_DEPTH => {
                self.fail(&format!("nesting deeper than {MAX_DEPTH} levels"))
            }
            Some(b'{') => self
                .members(b'}', |p| {
                    p.skip_ws();
                    let key = p.string()?;
                    p.skip_ws();
                    p.expect(b':')?;
                    Ok((key, p.value(depth + 1)?))
                })
                .map(Json::Obj),
            Some(b'[') => self.members(b']', |p| p.value(depth + 1)).map(Json::Arr),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => self.fail("expected a value"),
        }
    }

    /// Skips the opening bracket the caller peeked, then parses
    /// comma-separated `member`s up to `close`.
    fn members<T>(
        &mut self,
        close: u8,
        mut member: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(items);
        }
        loop {
            items.push(member(self)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b) if b == close => {
                    self.pos += 1;
                    return Ok(items);
                }
                _ => return self.fail(&format!("expected ',' or '{}'", close as char)),
            }
        }
    }

    /// One pass over the string: runs of plain characters are copied
    /// as slices (`"` and `\` are ASCII, so they always sit on a char
    /// boundary), escapes are decoded in place.
    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while self
                .peek()
                .is_some_and(|b| b != b'"' && b != b'\\' && b >= 0x20)
            {
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            match self.peek() {
                None => return self.fail("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let decoded = match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => {
                            let hex = self.text.get(self.pos + 1..self.pos + 5);
                            match hex
                                .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                            {
                                Some(c) => {
                                    self.pos += 4;
                                    c
                                }
                                None => return self.fail("bad \\u escape"),
                            }
                        }
                        _ => return self.fail("bad escape"),
                    };
                    out.push(decoded);
                    self.pos += 1;
                }
                Some(_) => return self.fail("unescaped control character in string"),
            }
        }
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`, kept as
    /// text.
    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        self.eat("-");
        if !self.eat("0") && self.digits() == 0 {
            return self.fail("expected a digit");
        }
        if self.eat(".") && self.digits() == 0 {
            return self.fail("expected a digit after '.'");
        }
        if self.eat("e") || self.eat("E") {
            let _ = self.eat("+") || self.eat("-");
            if self.digits() == 0 {
                return self.fail("expected an exponent");
            }
        }
        Ok(Json::Num(Number(self.text[start..self.pos].to_string())))
    }

    /// Consumes a run of ASCII digits; returns its length.
    fn digits(&mut self) -> usize {
        let from = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos - from
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::TestRng;

    #[test]
    fn line_layout() {
        let doc = Json::obj([
            ("n", Json::uint(u64::MAX)),
            ("ids", Json::Arr(vec![Json::uint(0), Json::uint(7)])),
            (
                "rows",
                Json::Arr(vec![
                    Json::obj([("k", Json::Str("a\"b".into())), ("v", Json::Arr(vec![]))]),
                    Json::obj([]),
                ]),
            ),
        ]);
        assert_eq!(
            doc.to_line(),
            r#"{"n":18446744073709551615,"ids":[0,7],"rows":[{"k":"a\"b","v":[]},{}]}"#
        );
        assert_eq!(doc.get("n").and_then(Json::as_u64), Some(u64::MAX));
    }

    #[test]
    fn malformed_input_is_an_error() {
        for bad in [
            "",
            "}{",
            "[1,]",
            "{\"a\" 1}",
            "01",
            "1.",
            "-",
            "1e",
            "+1",
            "\"\\x\"",
            "\"\\u12\"",
            "\"\\ud800\"",
            "\"tab\there\"",
            "\"open",
            "tru",
            "null",
            "[1] [2]",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} parsed");
        }
        assert_eq!(
            Json::parse(" -0.5e+3 ").unwrap(),
            Json::Num(Number("-0.5e+3".into()))
        );
        assert_eq!(
            Json::parse("\"\\u00e9\\/\"").unwrap(),
            Json::Str("é/".into())
        );
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(100_000);
        assert!(Json::parse(&deep).unwrap_err().contains("nesting deeper"));
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&ok).is_ok());
        let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(Json::parse(&over).is_err());
    }

    /// Random values: strings drawn to hit every escape, integers from
    /// [`Json::uint`] and decimals from the parser, containers nested
    /// up to four levels.
    struct AnyJson;

    fn any_string(rng: &mut TestRng) -> String {
        const PIECES: [&str; 12] = [
            "a", "Z", " ", "\"", "\\", "/", "\n", "\t", "\r", "\u{1}", "é", "😀",
        ];
        (0..rng.index(6))
            .map(|_| PIECES[rng.index(PIECES.len())])
            .collect()
    }

    fn any_json(rng: &mut TestRng, depth: usize) -> Json {
        match rng.index(if depth == 0 { 3 } else { 5 }) {
            0 => Json::Str(any_string(rng)),
            1 => Json::uint(rng.next_u64() >> rng.index(64)),
            2 => Json::parse(&format!("{:.*}", rng.index(5), (rng.unit() - 0.5) * 1e6))
                .expect("a formatted finite f64 is a JSON number"),
            3 => Json::Arr(
                (0..rng.index(4))
                    .map(|_| any_json(rng, depth - 1))
                    .collect(),
            ),
            _ => Json::Obj(
                (0..rng.index(4))
                    .map(|_| (any_string(rng), any_json(rng, depth - 1)))
                    .collect(),
            ),
        }
    }

    impl Strategy for AnyJson {
        type Value = Json;

        fn sample(&self, rng: &mut TestRng) -> Json {
            any_json(rng, 4)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn values_survive_write_then_parse(v in AnyJson) {
            prop_assert_eq!(Json::parse(&v.to_line()).as_ref(), Ok(&v));
            prop_assert!(!v.to_line().contains('\n'));
        }
    }
}
