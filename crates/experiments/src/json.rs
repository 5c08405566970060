//! The harness's one JSON codec: the journal lines, `BENCH_sweep.json`
//! and the `sweep --time-mode both` timing document all go through it.
//!
//! It supports only what those three need — objects, arrays, strings,
//! numbers and booleans. A [`Number`] keeps its JSON text, so a `u64`
//! stays exact and a parsed file writes back unchanged. There are two
//! layouts over one string-escaping routine:
//!
//! * [`Json::to_line`] — the whole value on one line, no spaces (the
//!   journal's JSONL);
//! * [`Json::to_pretty`] — the `BENCH_sweep.json` layout: a container
//!   holding only scalars on one line (`{"a": 1, "b": 2}`), any other
//!   container one member per line, indented by two spaces per level.
//!
//! The parser scans each string once and refuses input nested deeper
//! than [`MAX_DEPTH`], so corrupt input returns an error instead of
//! overflowing the stack.

/// Deepest container nesting the parser accepts. A journal line nests
/// five levels and `BENCH_sweep.json` three.
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
    /// `true` or `false`.
    Bool(bool),
}

/// A JSON number, held as its JSON text. Built by [`Json::uint`],
/// [`Json::decimal`] or the parser, so the text is always valid.
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

    /// `x` with `places` digits after the decimal point; `x` must be
    /// finite.
    pub fn decimal(x: f64, places: usize) -> Json {
        debug_assert!(x.is_finite(), "JSON has no NaN or infinity");
        Json::Num(Number(format!("{x:.places$}")))
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
        self.write(&mut out, None);
        out
    }

    /// The `BENCH_sweep.json` layout, ending in a newline.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    fn is_container(&self) -> bool {
        matches!(self, Json::Obj(_) | Json::Arr(_))
    }

    /// Writes `self` on one line when `indent` is `None`, else in the
    /// pretty layout with the value's own line indented by `indent`.
    fn write(&self, out: &mut String, indent: Option<usize>) {
        let (open, close, members): (char, char, Vec<(Option<&str>, &Json)>) = match self {
            Json::Obj(fields) => (
                '{',
                '}',
                fields.iter().map(|(k, v)| (Some(k.as_str()), v)).collect(),
            ),
            Json::Arr(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
            Json::Str(s) => return write_str(s, out),
            Json::Num(Number(text)) => return out.push_str(text),
            Json::Bool(b) => return out.push_str(if *b { "true" } else { "false" }),
        };
        // One member per line only in the pretty layout, and only when
        // some member is itself a container.
        let nested = indent.filter(|_| members.iter().any(|(_, v)| v.is_container()));
        let (sep, colon) = match (indent, nested) {
            (None, _) => (",", ":"),
            (Some(_), None) => (", ", ": "),
            (Some(_), Some(_)) => (",", ": "),
        };
        let newline = |out: &mut String, level: usize| {
            out.push('\n');
            out.push_str(&" ".repeat(level));
        };
        out.push(open);
        for (i, (key, value)) in members.iter().enumerate() {
            if i > 0 {
                out.push_str(sep);
            }
            if let Some(level) = nested {
                newline(out, level + 2);
            }
            if let Some(key) = key {
                write_str(key, out);
                out.push_str(colon);
            }
            value.write(out, nested.map(|level| level + 2).or(indent));
        }
        if let Some(level) = nested {
            newline(out, level);
        }
        out.push(close);
    }
}

/// The escaping both layouts share.
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
            _ if self.eat("true") => Ok(Json::Bool(true)),
            _ if self.eat("false") => Ok(Json::Bool(false)),
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
    fn layouts() {
        let doc = Json::obj([
            ("n", Json::uint(u64::MAX)),
            (
                "flags",
                Json::Arr(vec![Json::Bool(true), Json::Bool(false)]),
            ),
            (
                "rows",
                Json::Arr(vec![
                    Json::obj([
                        ("k", Json::Str("a\"b".into())),
                        ("v", Json::decimal(1.5, 3)),
                    ]),
                    Json::obj([]),
                ]),
            ),
        ]);
        assert_eq!(
            doc.to_line(),
            r#"{"n":18446744073709551615,"flags":[true,false],"rows":[{"k":"a\"b","v":1.500},{}]}"#
        );
        assert_eq!(
            doc.to_pretty(),
            "{\n  \"n\": 18446744073709551615,\n  \"flags\": [true, false],\n  \"rows\": [\n    \
             {\"k\": \"a\\\"b\", \"v\": 1.500},\n    {}\n  ]\n}\n"
        );
        assert_eq!(doc.get("n").and_then(Json::as_u64), Some(u64::MAX));
    }

    #[test]
    fn the_committed_bench_file_writes_back_unchanged() {
        let text = include_str!("../../../BENCH_sweep.json");
        assert_eq!(Json::parse(text).unwrap().to_pretty(), text);
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

    /// Random values: strings drawn to hit every escape, numbers from
    /// both constructors, containers nested up to four levels.
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
        match rng.index(if depth == 0 { 4 } else { 6 }) {
            0 => Json::Str(any_string(rng)),
            1 => Json::uint(rng.next_u64() >> rng.index(64)),
            2 => Json::decimal((rng.unit() - 0.5) * 1e6, rng.index(5)),
            3 => Json::Bool(rng.index(2) == 1),
            4 => Json::Arr(
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
        fn values_survive_write_then_parse_in_both_layouts(v in AnyJson) {
            prop_assert_eq!(Json::parse(&v.to_line()).as_ref(), Ok(&v));
            prop_assert_eq!(Json::parse(&v.to_pretty()).as_ref(), Ok(&v));
            prop_assert!(!v.to_line().contains('\n'));
        }
    }
}
