//! Minimal stand-in for the `serde` crate.
//!
//! The real serde's data model is format-agnostic; the workspace only ever
//! serializes to and from JSON (via the sibling `serde_json` shim), so this
//! shim collapses the two layers: [`Serialize`] writes JSON text directly
//! and [`Deserialize`] reads from a small JSON [`de::Parser`]. The derive
//! macros re-exported here (from the `serde_derive` shim) understand the
//! subset of attributes the workspace uses: `transparent`, `skip`,
//! `default` and `rename_all = "lowercase"`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use serde_derive::{Deserialize, Serialize};

/// A type that can write itself as JSON.
pub trait Serialize {
    /// Appends this value's JSON encoding to `out`.
    fn serialize(&self, out: &mut String);
}

/// A type that can parse itself from JSON.
///
/// The lifetime mirrors real serde's `Deserialize<'de>` so code written
/// against the real trait keeps compiling.
pub trait Deserialize<'de>: Sized {
    /// Parses one value from `p`.
    ///
    /// # Errors
    /// Returns a [`de::Error`] on malformed or mistyped input.
    fn deserialize(p: &mut de::Parser<'de>) -> Result<Self, de::Error>;
}

/// Serialization helpers used by the derive macro.
pub mod ser {
    /// Writes a JSON string literal (with escaping) to `out`.
    pub fn write_string(out: &mut String, s: &str) {
        out.push('"');
        for c in s.chars() {
            match c {
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

    /// Writes an object-field separator and key: a comma unless this is
    /// the first field, then `"key":`.
    pub fn begin_field(out: &mut String, key: &str, first: &mut bool) {
        if *first {
            *first = false;
        } else {
            out.push(',');
        }
        write_string(out, key);
        out.push(':');
    }

    /// Writes an array-element separator (a comma unless first).
    pub fn begin_element(out: &mut String, first: &mut bool) {
        if *first {
            *first = false;
        } else {
            out.push(',');
        }
    }
}

/// A hand-rolled JSON parser and the deserialization error type.
pub mod de {
    /// Error produced when JSON input is malformed or mistyped.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct Error(String);

    impl Error {
        /// Creates an error with an arbitrary message.
        pub fn custom(msg: impl Into<String>) -> Self {
            Error(msg.into())
        }

        /// A required field was absent.
        pub fn missing_field(name: &str) -> Self {
            Error(format!("missing field `{name}`"))
        }

        /// An enum tag did not match any known variant.
        pub fn unknown_variant(name: &str) -> Self {
            Error(format!("unknown variant `{name}`"))
        }
    }

    impl std::fmt::Display for Error {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(&self.0)
        }
    }

    impl std::error::Error for Error {}

    /// A cursor over JSON text.
    #[derive(Debug)]
    pub struct Parser<'de> {
        input: &'de [u8],
        pos: usize,
    }

    impl<'de> Parser<'de> {
        /// Creates a parser over `input`.
        pub fn new(input: &'de str) -> Self {
            Parser {
                input: input.as_bytes(),
                pos: 0,
            }
        }

        fn err(&self, msg: impl std::fmt::Display) -> Error {
            Error::custom(format!("{msg} at byte {}", self.pos))
        }

        /// Skips whitespace and returns the next byte without consuming it.
        pub fn peek(&mut self) -> Option<u8> {
            while let Some(&b) = self.input.get(self.pos) {
                if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                    self.pos += 1;
                } else {
                    return Some(b);
                }
            }
            None
        }

        /// Consumes one expected punctuation byte.
        pub fn expect(&mut self, b: u8) -> Result<(), Error> {
            match self.peek() {
                Some(got) if got == b => {
                    self.pos += 1;
                    Ok(())
                }
                Some(got) => Err(self.err(format_args!(
                    "expected `{}`, found `{}`",
                    b as char, got as char
                ))),
                None => Err(self.err(format_args!("expected `{}`, found end of input", b as char))),
            }
        }

        /// Consumes `b` if it is next; reports whether it did.
        pub fn consume(&mut self, b: u8) -> bool {
            if self.peek() == Some(b) {
                self.pos += 1;
                true
            } else {
                false
            }
        }

        /// Errors unless the input is fully consumed (modulo whitespace).
        pub fn expect_eof(&mut self) -> Result<(), Error> {
            match self.peek() {
                None => Ok(()),
                Some(b) => Err(self.err(format_args!("trailing `{}`", b as char))),
            }
        }

        /// Begins an object (`{`).
        pub fn obj_begin(&mut self) -> Result<(), Error> {
            self.expect(b'{')
        }

        /// Ends an object (`}`).
        pub fn obj_end(&mut self) -> Result<(), Error> {
            self.expect(b'}')
        }

        /// Returns the next object key, or `None` at the closing brace.
        /// Consumes the separating comma and the key's colon.
        pub fn obj_next_key(&mut self, first: &mut bool) -> Result<Option<String>, Error> {
            if self.consume(b'}') {
                return Ok(None);
            }
            if *first {
                *first = false;
            } else {
                self.expect(b',')?;
            }
            let key = self.parse_string()?;
            self.expect(b':')?;
            Ok(Some(key))
        }

        /// Begins an array (`[`).
        pub fn arr_begin(&mut self) -> Result<(), Error> {
            self.expect(b'[')
        }

        /// Steps to the next array element, consuming the separating
        /// comma. Returns `false` at the closing bracket.
        pub fn arr_next(&mut self, first: &mut bool) -> Result<bool, Error> {
            if self.consume(b']') {
                return Ok(false);
            }
            if *first {
                *first = false;
            } else {
                self.expect(b',')?;
            }
            Ok(true)
        }

        /// Parses a JSON string literal.
        pub fn parse_string(&mut self) -> Result<String, Error> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                let Some(&b) = self.input.get(self.pos) else {
                    return Err(self.err("unterminated string"));
                };
                self.pos += 1;
                match b {
                    b'"' => return Ok(out),
                    b'\\' => {
                        let Some(&esc) = self.input.get(self.pos) else {
                            return Err(self.err("unterminated escape"));
                        };
                        self.pos += 1;
                        match esc {
                            b'"' => out.push('"'),
                            b'\\' => out.push('\\'),
                            b'/' => out.push('/'),
                            b'n' => out.push('\n'),
                            b'r' => out.push('\r'),
                            b't' => out.push('\t'),
                            b'b' => out.push('\u{8}'),
                            b'f' => out.push('\u{c}'),
                            b'u' => {
                                let hex = self
                                    .input
                                    .get(self.pos..self.pos + 4)
                                    .ok_or_else(|| Error::custom("truncated \\u escape"))?;
                                self.pos += 4;
                                let hex = std::str::from_utf8(hex)
                                    .map_err(|_| Error::custom("bad \\u escape"))?;
                                let code = u32::from_str_radix(hex, 16)
                                    .map_err(|_| Error::custom("bad \\u escape"))?;
                                out.push(
                                    char::from_u32(code)
                                        .ok_or_else(|| Error::custom("bad \\u code point"))?,
                                );
                            }
                            other => {
                                return Err(
                                    self.err(format_args!("invalid escape `\\{}`", other as char))
                                )
                            }
                        }
                    }
                    _ => {
                        // Collect the full UTF-8 sequence starting at b.
                        let start = self.pos - 1;
                        let len = utf8_len(b);
                        let end = start + len;
                        let bytes = self
                            .input
                            .get(start..end)
                            .ok_or_else(|| Error::custom("truncated UTF-8"))?;
                        let s = std::str::from_utf8(bytes)
                            .map_err(|_| Error::custom("invalid UTF-8 in string"))?;
                        out.push_str(s);
                        self.pos = end;
                    }
                }
            }
        }

        /// Parses a JSON number, returning its textual form.
        pub fn parse_number_str(&mut self) -> Result<&'de str, Error> {
            let Some(first) = self.peek() else {
                return Err(self.err("expected number, found end of input"));
            };
            if first != b'-' && !first.is_ascii_digit() {
                return Err(self.err(format_args!("expected number, found `{}`", first as char)));
            }
            let start = self.pos;
            if first == b'-' {
                self.pos += 1;
            }
            let mut saw_digit = false;
            while let Some(&b) = self.input.get(self.pos) {
                match b {
                    b'0'..=b'9' => {
                        saw_digit = true;
                        self.pos += 1;
                    }
                    b'.' | b'e' | b'E' | b'+' | b'-' => self.pos += 1,
                    _ => break,
                }
            }
            if !saw_digit {
                return Err(self.err("malformed number"));
            }
            std::str::from_utf8(&self.input[start..self.pos])
                .map_err(|_| Error::custom("malformed number"))
        }

        /// Parses `true` or `false`.
        pub fn parse_bool(&mut self) -> Result<bool, Error> {
            if self.consume_word("true") {
                Ok(true)
            } else if self.consume_word("false") {
                Ok(false)
            } else {
                Err(self.err("expected boolean"))
            }
        }

        /// Parses the literal `null`.
        pub fn parse_null(&mut self) -> Result<(), Error> {
            if self.consume_word("null") {
                Ok(())
            } else {
                Err(self.err("expected null"))
            }
        }

        /// Whether the next value is `null` (not consumed).
        pub fn peek_null(&mut self) -> bool {
            self.peek() == Some(b'n')
        }

        fn consume_word(&mut self, word: &str) -> bool {
            self.peek();
            if self.input[self.pos..].starts_with(word.as_bytes()) {
                self.pos += word.len();
                true
            } else {
                false
            }
        }

        /// Skips one JSON value of any shape (for unknown object keys).
        pub fn skip_value(&mut self) -> Result<(), Error> {
            match self.peek() {
                Some(b'"') => {
                    self.parse_string()?;
                }
                Some(b'{') => {
                    self.obj_begin()?;
                    let mut first = true;
                    while self.obj_next_key(&mut first)?.is_some() {
                        self.skip_value()?;
                    }
                }
                Some(b'[') => {
                    self.arr_begin()?;
                    let mut first = true;
                    while self.arr_next(&mut first)? {
                        self.skip_value()?;
                    }
                }
                Some(b't') | Some(b'f') => {
                    self.parse_bool()?;
                }
                Some(b'n') => {
                    self.parse_null()?;
                }
                Some(_) => {
                    self.parse_number_str()?;
                }
                None => return Err(self.err("expected value, found end of input")),
            }
            Ok(())
        }
    }

    fn utf8_len(first: u8) -> usize {
        match first {
            0x00..=0x7F => 1,
            0xC0..=0xDF => 2,
            0xE0..=0xEF => 3,
            _ => 4,
        }
    }
}

macro_rules! impl_serde_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, out: &mut String) {
                out.push_str(&self.to_string());
            }
        }
        impl<'de> Deserialize<'de> for $t {
            fn deserialize(p: &mut de::Parser<'de>) -> Result<Self, de::Error> {
                let s = p.parse_number_str()?;
                s.parse::<$t>()
                    .map_err(|e| de::Error::custom(format!("invalid {}: {e}", stringify!($t))))
            }
        }
    )*};
}
impl_serde_int!(u8, u16, u32, u64, usize, u128, i8, i16, i32, i64, isize, i128);

impl Serialize for f64 {
    fn serialize(&self, out: &mut String) {
        if self.is_finite() {
            out.push_str(&self.to_string());
        } else {
            out.push_str("null");
        }
    }
}

impl<'de> Deserialize<'de> for f64 {
    fn deserialize(p: &mut de::Parser<'de>) -> Result<Self, de::Error> {
        if p.peek_null() {
            p.parse_null()?;
            return Ok(f64::NAN);
        }
        let s = p.parse_number_str()?;
        s.parse::<f64>()
            .map_err(|e| de::Error::custom(format!("invalid f64: {e}")))
    }
}

impl Serialize for f32 {
    fn serialize(&self, out: &mut String) {
        f64::from(*self).serialize(out);
    }
}

impl<'de> Deserialize<'de> for f32 {
    fn deserialize(p: &mut de::Parser<'de>) -> Result<Self, de::Error> {
        Ok(f64::deserialize(p)? as f32)
    }
}

impl Serialize for bool {
    fn serialize(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl<'de> Deserialize<'de> for bool {
    fn deserialize(p: &mut de::Parser<'de>) -> Result<Self, de::Error> {
        p.parse_bool()
    }
}

impl Serialize for String {
    fn serialize(&self, out: &mut String) {
        ser::write_string(out, self);
    }
}

impl Serialize for str {
    fn serialize(&self, out: &mut String) {
        ser::write_string(out, self);
    }
}

impl<'de> Deserialize<'de> for String {
    fn deserialize(p: &mut de::Parser<'de>) -> Result<Self, de::Error> {
        p.parse_string()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self, out: &mut String) {
        match self {
            None => out.push_str("null"),
            Some(v) => v.serialize(out),
        }
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Option<T> {
    fn deserialize(p: &mut de::Parser<'de>) -> Result<Self, de::Error> {
        if p.peek_null() {
            p.parse_null()?;
            Ok(None)
        } else {
            Ok(Some(T::deserialize(p)?))
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self, out: &mut String) {
        self.as_slice().serialize(out);
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize(&self, out: &mut String) {
        out.push('[');
        let mut first = true;
        for v in self {
            ser::begin_element(out, &mut first);
            v.serialize(out);
        }
        out.push(']');
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Vec<T> {
    fn deserialize(p: &mut de::Parser<'de>) -> Result<Self, de::Error> {
        p.arr_begin()?;
        let mut out = Vec::new();
        let mut first = true;
        while p.arr_next(&mut first)? {
            out.push(T::deserialize(p)?);
        }
        Ok(out)
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self, out: &mut String) {
        (**self).serialize(out);
    }
}

macro_rules! impl_serde_tuple {
    ($(($($n:tt $t:ident),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn serialize(&self, out: &mut String) {
                out.push('[');
                let mut first = true;
                $(
                    ser::begin_element(out, &mut first);
                    self.$n.serialize(out);
                )+
                out.push(']');
            }
        }
        impl<'de, $($t: Deserialize<'de>),+> Deserialize<'de> for ($($t,)+) {
            fn deserialize(p: &mut de::Parser<'de>) -> Result<Self, de::Error> {
                p.arr_begin()?;
                let mut first = true;
                let v = ($(
                    {
                        if !p.arr_next(&mut first)? {
                            return Err(de::Error::custom(concat!(
                                "tuple too short, expected element ", stringify!($n)
                            )));
                        }
                        $t::deserialize(p)?
                    },
                )+);
                if p.arr_next(&mut first)? {
                    return Err(de::Error::custom("tuple has trailing elements"));
                }
                Ok(v)
            }
        }
    )*};
}
impl_serde_tuple! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn to_json<T: Serialize>(v: &T) -> String {
        let mut s = String::new();
        v.serialize(&mut s);
        s
    }

    fn from_json<'de, T: Deserialize<'de>>(s: &'de str) -> Result<T, de::Error> {
        let mut p = de::Parser::new(s);
        let v = T::deserialize(&mut p)?;
        p.expect_eof()?;
        Ok(v)
    }

    #[test]
    fn primitives_round_trip() {
        assert_eq!(to_json(&42u64), "42");
        assert_eq!(from_json::<u64>("42").unwrap(), 42);
        assert_eq!(to_json(&-7i32), "-7");
        assert_eq!(from_json::<i32>("-7").unwrap(), -7);
        assert_eq!(to_json(&true), "true");
        assert!(!from_json::<bool>("false").unwrap());
        assert_eq!(to_json(&1.5f64), "1.5");
        assert_eq!(from_json::<f64>("1.5").unwrap(), 1.5);
        assert_eq!(to_json(&u64::MAX), u64::MAX.to_string());
        assert_eq!(from_json::<u64>(&u64::MAX.to_string()).unwrap(), u64::MAX);
    }

    #[test]
    fn strings_escape() {
        let s = "a\"b\\c\nd".to_string();
        let j = to_json(&s);
        assert_eq!(from_json::<String>(&j).unwrap(), s);
    }

    #[test]
    fn containers_round_trip() {
        let v = vec![(1u32, 2u64), (3, 4)];
        let j = to_json(&v);
        assert_eq!(j, "[[1,2],[3,4]]");
        assert_eq!(from_json::<Vec<(u32, u64)>>(&j).unwrap(), v);
        assert_eq!(to_json(&Option::<u32>::None), "null");
        assert_eq!(from_json::<Option<u32>>("null").unwrap(), None);
        assert_eq!(from_json::<Option<u32>>("9").unwrap(), Some(9));
    }

    #[test]
    fn whitespace_tolerated() {
        let v: Vec<u32> = from_json(" [ 1 , 2 ,\n3 ] ").unwrap();
        assert_eq!(v, vec![1, 2, 3]);
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(from_json::<u64>("42x").is_err());
        assert!(from_json::<Vec<u32>>("[1,]").is_err());
    }
}
