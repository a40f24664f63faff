//! Minimal stand-in for the `serde_json` crate, delegating to the JSON
//! machinery built into the `serde` shim.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Error produced when JSON input is malformed or mistyped.
pub type Error = serde::de::Error;

/// Serializes `value` as compact JSON text.
///
/// # Errors
/// Infallible for the shim's data model; the `Result` mirrors the real
/// `serde_json` signature.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    value.serialize(&mut out);
    Ok(out)
}

/// Parses one JSON value from `input`, requiring it to be fully consumed.
///
/// # Errors
/// Returns an [`Error`] on malformed input, type mismatches, or trailing
/// non-whitespace.
pub fn from_str<'de, T: serde::Deserialize<'de>>(input: &'de str) -> Result<T, Error> {
    let mut p = serde::de::Parser::new(input);
    let v = T::deserialize(&mut p)?;
    p.expect_eof()?;
    Ok(v)
}

#[cfg(test)]
mod tests {
    #[test]
    fn round_trips_via_serde_shim() {
        let v = vec![(1u32, "a".to_string()), (2, "b\"c".to_string())];
        let j = super::to_string(&v).unwrap();
        let back: Vec<(u32, String)> = super::from_str(&j).unwrap();
        assert_eq!(v, back);
    }

    #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
    #[serde(rename_all = "lowercase")]
    enum Kind {
        Des,
        Testbed,
    }

    #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
    struct Row {
        kind: Kind,
        count: Option<u64>,
    }

    #[test]
    fn lowercase_tags_and_missing_options_parse_like_serde() {
        let row = Row {
            kind: Kind::Testbed,
            count: None,
        };
        let j = super::to_string(&row).unwrap();
        assert_eq!(j, r#"{"kind":"testbed","count":null}"#);
        assert_eq!(super::from_str::<Row>(&j).unwrap(), row);
        let bare: Row = super::from_str(r#"{"kind":"des"}"#).unwrap();
        assert_eq!((bare.kind, bare.count), (Kind::Des, None));
        assert!(super::from_str::<Row>(r#"{"kind":"Des"}"#).is_err());
    }

    #[test]
    fn error_displays() {
        let e = super::from_str::<u64>("nope").unwrap_err();
        assert!(!e.to_string().is_empty());
    }
}
