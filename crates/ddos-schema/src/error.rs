//! Error types shared across the schema crate.

use std::fmt;

/// Errors produced while parsing, validating, or decoding trace data.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SchemaError {
    /// A textual field failed to parse (field name, offending input).
    Parse {
        /// The name of the field being parsed.
        field: &'static str,
        /// The offending input (possibly truncated).
        input: String,
    },
    /// A numeric value was outside its legal domain.
    OutOfRange {
        /// The name of the value that was out of range.
        what: &'static str,
        /// Human-readable description of the legal domain.
        expected: &'static str,
    },
    /// A record failed semantic validation (e.g. `end_time < timestamp`).
    InvalidRecord(String),
    /// A dataset-level invariant was violated (e.g. duplicate attack id).
    InvalidDataset(String),
    /// The binary codec met malformed input.
    Codec(String),
    /// A trace file could not be opened or mapped.
    Io(String),
    /// The binary codec met a magic/version it does not understand.
    UnsupportedVersion {
        /// Version found in the header.
        found: u16,
        /// The one version this build reads.
        supported: u16,
    },
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemaError::Parse { field, input } => {
                write!(f, "cannot parse {field} from {input:?}")
            }
            SchemaError::OutOfRange { what, expected } => {
                write!(f, "{what} out of range (expected {expected})")
            }
            SchemaError::InvalidRecord(msg) => write!(f, "invalid record: {msg}"),
            SchemaError::InvalidDataset(msg) => write!(f, "invalid dataset: {msg}"),
            SchemaError::Codec(msg) => write!(f, "codec error: {msg}"),
            SchemaError::Io(msg) => write!(f, "io error: {msg}"),
            SchemaError::UnsupportedVersion { found, supported } => {
                write!(
                    f,
                    "unsupported trace version {found} (this build reads version {supported})"
                )
            }
        }
    }
}

impl std::error::Error for SchemaError {}

impl SchemaError {
    /// Convenience constructor for parse failures, truncating long inputs.
    pub fn parse(field: &'static str, input: &str) -> Self {
        let mut input = input.to_owned();
        if input.len() > 64 {
            input.truncate(64);
            input.push('…');
        }
        SchemaError::Parse { field, input }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = SchemaError::parse("ip", "256.1.2.3");
        assert!(e.to_string().contains("ip"));
        assert!(e.to_string().contains("256.1.2.3"));
    }

    #[test]
    fn parse_truncates_long_input() {
        let long = "x".repeat(200);
        let e = SchemaError::parse("city", &long);
        match e {
            SchemaError::Parse { input, .. } => assert!(input.len() < 80),
            _ => panic!("wrong variant"),
        }
    }

    #[test]
    fn error_trait_object_compatible() {
        let e: Box<dyn std::error::Error> = Box::new(SchemaError::Codec("short read".into()));
        assert!(e.to_string().contains("short read"));
    }
}
