//! Std-only JSON helpers: the push-based writers every hand-rolled JSON
//! renderer in the workspace shares, and a validity checker.
//!
//! The trace writer and the reports (here and in `read-pipeline`) emit JSON
//! by hand through [`push_json_str`] and [`push_json_f64`]; [`validate`]
//! gives the test suite, the examples, and the CI smoke step a
//! dependency-free way to assert that what was emitted actually *parses* as
//! JSON (RFC 8259 grammar), without pulling a serde stack into the
//! workspace.

/// Maximum container nesting the validator accepts — far above anything the
/// trace or report emitters produce, low enough to bound recursion.
const MAX_DEPTH: usize = 256;

/// Checks that `input` is exactly one valid JSON value (plus surrounding
/// whitespace).
///
/// # Errors
///
/// Returns a human-readable message naming the byte offset of the first
/// violation.
///
/// # Example
///
/// ```
/// dataflow_sim::json::validate(r#"{"traceEvents": [], "displayTimeUnit": "ns"}"#).unwrap();
/// assert!(dataflow_sim::json::validate("{\"open\": [").is_err());
/// ```
pub fn validate(input: &str) -> Result<(), String> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(())
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<(), String> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => self.string(),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'n') => self.literal("null"),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn literal(&mut self, word: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn object(&mut self, depth: usize) -> Result<(), String> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(());
        }
        loop {
            self.skip_ws();
            self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            self.value(depth + 1)?;
            self.skip_ws();
            if self.eat(b',') {
                continue;
            }
            return self.expect(b'}');
        }
    }

    fn array(&mut self, depth: usize) -> Result<(), String> {
        self.expect(b'[')?;
        self.skip_ws();
        if self.eat(b']') {
            return Ok(());
        }
        loop {
            self.skip_ws();
            self.value(depth + 1)?;
            self.skip_ws();
            if self.eat(b',') {
                continue;
            }
            return self.expect(b']');
        }
    }

    fn string(&mut self) -> Result<(), String> {
        self.expect(b'"')?;
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(());
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => {
                            self.pos += 1;
                        }
                        Some(b'u') => {
                            self.pos += 1;
                            for _ in 0..4 {
                                match self.peek() {
                                    Some(c) if c.is_ascii_hexdigit() => self.pos += 1,
                                    _ => return Err(self.err("bad \\u escape")),
                                }
                            }
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => self.pos += 1,
            }
        }
    }

    fn number(&mut self) -> Result<(), String> {
        self.eat(b'-');
        match self.peek() {
            Some(b'0') => {
                self.pos += 1;
            }
            Some(b'1'..=b'9') => self.digits(),
            _ => return Err(self.err("expected a digit")),
        }
        if self.eat(b'.') {
            match self.peek() {
                Some(b'0'..=b'9') => self.digits(),
                _ => return Err(self.err("expected a fraction digit")),
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if !self.eat(b'+') {
                self.eat(b'-');
            }
            match self.peek() {
                Some(b'0'..=b'9') => self.digits(),
                _ => return Err(self.err("expected an exponent digit")),
            }
        }
        Ok(())
    }

    fn digits(&mut self) {
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
    }
}

/// Appends `s` as a JSON string literal: quotes, backslashes and control
/// characters escaped, everything else verbatim.
///
/// ```
/// let mut out = String::new();
/// dataflow_sim::json::push_json_str(&mut out, "a \"b\"\n");
/// assert_eq!(out, r#""a \"b\"\n""#);
/// ```
pub fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends `prefix` followed by `v` in shortest round-trip form, or `null`
/// for a non-finite value (never invalid JSON).  Writes straight into `out`:
/// shortest-round-trip float formatting is not worth hand-rolling, but an
/// intermediate `format!` allocation is.
///
/// ```
/// let mut out = String::new();
/// dataflow_sim::json::push_json_f64(&mut out, "\"ter\":", 0.25);
/// dataflow_sim::json::push_json_f64(&mut out, ",\"ber\":", f64::NAN);
/// assert_eq!(out, r#""ter":0.25,"ber":null"#);
/// ```
pub fn push_json_f64(out: &mut String, prefix: &str, v: f64) {
    use std::fmt::Write as _;
    out.push_str(prefix);
    if v.is_finite() {
        let _ = write!(out, "{v:?}");
    } else {
        out.push_str("null");
    }
}

#[cfg(test)]
mod tests {
    use super::validate;

    #[test]
    fn accepts_valid_documents() {
        for doc in [
            "null",
            "true",
            " -12.5e+3 ",
            "\"a \\u00e9 \\n b\"",
            "[]",
            "[1, [2, {\"k\": null}], \"s\"]",
            r#"{"traceEvents": [{"ph": "X", "ts": 0, "dur": 3}], "displayTimeUnit": "ns"}"#,
        ] {
            validate(doc).unwrap_or_else(|e| panic!("{doc:?} rejected: {e}"));
        }
    }

    #[test]
    fn rejects_invalid_documents() {
        for doc in [
            "",
            "{",
            "[1,]",
            "{\"k\" 1}",
            "nul",
            "01",
            "1.",
            "\"unterminated",
            "\"bad \\x escape\"",
            "{} extra",
            "[1] [2]",
        ] {
            assert!(validate(doc).is_err(), "{doc:?} accepted");
        }
    }

    #[test]
    fn bounds_nesting_depth() {
        let deep = "[".repeat(10_000) + &"]".repeat(10_000);
        assert!(validate(&deep).is_err());
        let ok = "[".repeat(100) + "1" + &"]".repeat(100);
        validate(&ok).unwrap();
    }
}
