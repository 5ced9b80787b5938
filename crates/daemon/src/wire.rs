//! The JSON wire vocabulary: the request body and the error type every
//! handler returns. Bodies are read by the reader spec files are read by
//! ([`sof_spec::field::Reader`]): fields are taken by name, mismatches name
//! the offending path, unknown keys are rejected. This module adds the HTTP
//! side only: what a body is, and that a reading error is a 400.

use sof_spec::field::{put, Reader};
use sof_spec::value::{parse_json, write_json, Value};
use std::ops::{Deref, DerefMut};

/// A handler failure: the HTTP status plus a human-actionable message,
/// serialized as `{"error": …}`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ApiError {
    /// HTTP status code (4xx/5xx).
    pub status: u16,
    /// What went wrong, phrased for the client.
    pub message: String,
}

impl ApiError {
    fn new(status: u16, message: impl Into<String>) -> ApiError {
        let message = message.into();
        ApiError { status, message }
    }

    /// A 400 with a message.
    pub fn bad_request(message: impl Into<String>) -> ApiError {
        ApiError::new(400, message)
    }

    /// A 404 with a message.
    pub fn not_found(message: impl Into<String>) -> ApiError {
        ApiError::new(404, message)
    }

    /// A 409 for semantically-valid requests the engine cannot satisfy
    /// (infeasible embeddings, duplicate names).
    pub fn conflict(message: impl Into<String>) -> ApiError {
        ApiError::new(409, message)
    }

    /// The `{"error": …}` body for this failure.
    pub fn to_json(&self) -> String {
        let mut v = Value::table();
        put(&mut v, "error", &self.message);
        write_json(&v)
    }
}

/// A reading error is the client's: 400.
impl From<String> for ApiError {
    fn from(message: String) -> ApiError {
        ApiError::bad_request(message)
    }
}

/// A parsed JSON request body: the shared strict [`Reader`] over its
/// top-level object (`opt` / `req` / `or` / `within` / `finish`), whose
/// `String` errors become 400s through `?`.
#[derive(Debug)]
pub struct Body(Reader<'static>);

impl Body {
    /// Parses the request body as a JSON object; an empty body reads as
    /// `{}`, so bodyless POSTs to all-optional endpoints work. Anything
    /// else is a 400 naming the parse failure or the non-object top level.
    pub fn parse(bytes: &[u8]) -> Result<Body, ApiError> {
        let text = std::str::from_utf8(bytes)
            .map_err(|_| ApiError::bad_request("request body is not UTF-8"))?
            .trim();
        let value = if text.is_empty() {
            Value::table()
        } else {
            parse_json(text).map_err(|e| format!("request body is not JSON: {e}"))?
        };
        match value {
            Value::Table(entries) => Ok(Body(Reader::owned(entries))),
            other => Err(ApiError::bad_request(format!(
                "request body must be a JSON object, found {}",
                other.type_name()
            ))),
        }
    }
}

impl Deref for Body {
    type Target = Reader<'static>;

    fn deref(&self) -> &Reader<'static> {
        &self.0
    }
}

impl DerefMut for Body {
    fn deref_mut(&mut self) -> &mut Reader<'static> {
        &mut self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sof_topo::RegionDef;

    #[test]
    fn strict_body_reading() {
        let mut b = Body::parse(br#"{"name":"t","seed":7,"dests":[1,2]}"#).unwrap();
        assert_eq!(b.req::<String>("name").unwrap(), "t");
        assert_eq!(b.opt::<u64>("seed").unwrap(), Some(7));
        assert_eq!(b.req::<Vec<usize>>("dests").unwrap(), vec![1, 2]);
        b.finish().unwrap();
        let mut b = Body::parse(br#"{"typo":1}"#).unwrap();
        assert!(b.opt::<u64>("seed").unwrap().is_none());
        let err = ApiError::from(b.finish().unwrap_err());
        assert_eq!(err.status, 400);
        assert!(err.message.contains("'typo'"), "{}", err.message);
        let err = Body::parse(b"[1,2]").unwrap_err();
        assert!(err.message.contains("object"), "{}", err.message);
        let err = Body::parse(b"{nope").unwrap_err();
        assert!(err.message.contains("not JSON"), "{}", err.message);
        assert!(Body::parse(b"  ").unwrap().finish().is_ok());
        let mut b = Body::parse(br#"{"m":[[1,2],[2,"x"]]}"#).unwrap();
        let err = b.opt::<Vec<Vec<f64>>>("m").unwrap_err();
        assert!(err.contains("'m[1][1]'"), "{err}");
        let mut b = Body::parse(br#"{"regions":[{"name":"r","nodes":4,"dcs":1,"x":0}]}"#).unwrap();
        let err = b.opt::<Vec<RegionDef>>("regions").unwrap_err();
        assert!(err.contains("'regions[0].x'"), "{err}");
    }
}
