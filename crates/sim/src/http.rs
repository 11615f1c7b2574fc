//! Byte-accurate HTTP/1.1-style framing for the service-based interfaces.
//!
//! 3GPP SBIs are REST APIs; the paper's P-AKA modules expose "REST API
//! endpoints where each AKA function is mapped to an endpoint handler"
//! (§IV-A). Messages here really serialise to bytes so the latency model's
//! per-byte costs and the Table I parameter sizes are grounded in actual
//! wire lengths.

use crate::SimError;
use serde::{Deserialize, Serialize};

/// HTTP request methods used on the SBIs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Method {
    /// Resource retrieval.
    Get,
    /// Resource creation / RPC-style invocation (the CAPIF norm).
    Post,
    /// Resource update.
    Put,
    /// Resource removal.
    Delete,
}

impl Method {
    fn as_str(self) -> &'static str {
        match self {
            Method::Get => "GET",
            Method::Post => "POST",
            Method::Put => "PUT",
            Method::Delete => "DELETE",
        }
    }

    fn parse(s: &str) -> Result<Self, SimError> {
        match s {
            "GET" => Ok(Method::Get),
            "POST" => Ok(Method::Post),
            "PUT" => Ok(Method::Put),
            "DELETE" => Ok(Method::Delete),
            other => Err(SimError::MalformedHttp(format!("unknown method {other:?}"))),
        }
    }
}

/// An HTTP request.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct HttpRequest {
    /// Request method.
    pub method: Method,
    /// Absolute path, e.g. `/nudm-ueau/v1/generate-auth-data`.
    pub path: String,
    /// Header name/value pairs (names case-sensitive within the sim).
    pub headers: Vec<(String, String)>,
    /// Message body.
    pub body: Vec<u8>,
}

impl HttpRequest {
    /// Creates a request with an empty header set.
    #[must_use]
    pub fn new(method: Method, path: impl Into<String>, body: Vec<u8>) -> Self {
        HttpRequest {
            method,
            path: path.into(),
            headers: Vec::new(),
            body,
        }
    }

    /// Convenience POST constructor (the dominant SBI verb).
    #[must_use]
    pub fn post(path: impl Into<String>, body: Vec<u8>) -> Self {
        Self::new(Method::Post, path, body)
    }

    /// Convenience GET constructor.
    #[must_use]
    pub fn get(path: impl Into<String>) -> Self {
        Self::new(Method::Get, path, Vec::new())
    }

    /// Adds a header (builder style).
    #[must_use]
    pub fn with_header(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.headers.push((name.into(), value.into()));
        self
    }

    /// First value of header `name`, if present.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Serialises to wire bytes, appending a `Content-Length` header.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.body.len());
        out.extend_from_slice(self.method.as_str().as_bytes());
        out.push(b' ');
        out.extend_from_slice(self.path.as_bytes());
        out.extend_from_slice(b" HTTP/1.1\r\n");
        for (n, v) in &self.headers {
            out.extend_from_slice(n.as_bytes());
            out.extend_from_slice(b": ");
            out.extend_from_slice(v.as_bytes());
            out.extend_from_slice(b"\r\n");
        }
        out.extend_from_slice(format!("Content-Length: {}\r\n\r\n", self.body.len()).as_bytes());
        out.extend_from_slice(&self.body);
        out
    }

    /// Parses wire bytes produced by [`HttpRequest::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::MalformedHttp`] on framing violations.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SimError> {
        let (head, body) = split_head(bytes)?;
        let mut lines = head.split("\r\n");
        let request_line = lines
            .next()
            .ok_or_else(|| malformed("missing request line"))?;
        let mut parts = request_line.split(' ');
        let method = Method::parse(parts.next().unwrap_or(""))?;
        let path = parts
            .next()
            .ok_or_else(|| malformed("missing path"))?
            .to_owned();
        let headers = parse_headers(lines)?;
        let body = check_content_length(&headers, body)?;
        let headers = headers
            .into_iter()
            .filter(|(n, _)| n != "Content-Length")
            .collect();
        Ok(HttpRequest {
            method,
            path,
            headers,
            body,
        })
    }

    /// Total serialised size in bytes: what [`HttpRequest::to_bytes`]
    /// would write, counted without writing it.
    #[must_use]
    pub fn wire_len(&self) -> usize {
        let request_line = self.method.as_str().len() + 1 + self.path.len() + " HTTP/1.1\r\n".len();
        request_line + tail_len(&self.headers, &self.body)
    }
}

/// An HTTP response.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct HttpResponse {
    /// Status code (200, 404, ...).
    pub status: u16,
    /// Header name/value pairs.
    pub headers: Vec<(String, String)>,
    /// Message body.
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// A 200 response with `body`.
    #[must_use]
    pub fn ok(body: Vec<u8>) -> Self {
        HttpResponse {
            status: 200,
            headers: Vec::new(),
            body,
        }
    }

    /// An error response with a text body.
    #[must_use]
    pub fn error(status: u16, message: impl Into<String>) -> Self {
        HttpResponse {
            status,
            headers: Vec::new(),
            body: message.into().into_bytes(),
        }
    }

    /// True for 2xx statuses.
    #[must_use]
    pub fn is_success(&self) -> bool {
        (200..300).contains(&self.status)
    }

    /// Adds a header (builder style).
    #[must_use]
    pub fn with_header(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.headers.push((name.into(), value.into()));
        self
    }

    /// Looks up a header value (case-insensitive name).
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Serialises to wire bytes, appending `Content-Length`.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.body.len());
        out.extend_from_slice(
            format!("HTTP/1.1 {} {}\r\n", self.status, reason(self.status)).as_bytes(),
        );
        for (n, v) in &self.headers {
            out.extend_from_slice(n.as_bytes());
            out.extend_from_slice(b": ");
            out.extend_from_slice(v.as_bytes());
            out.extend_from_slice(b"\r\n");
        }
        out.extend_from_slice(format!("Content-Length: {}\r\n\r\n", self.body.len()).as_bytes());
        out.extend_from_slice(&self.body);
        out
    }

    /// Parses wire bytes produced by [`HttpResponse::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::MalformedHttp`] on framing violations.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SimError> {
        let (head, body) = split_head(bytes)?;
        let mut lines = head.split("\r\n");
        let status_line = lines
            .next()
            .ok_or_else(|| malformed("missing status line"))?;
        let status = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| malformed("bad status line"))?;
        let headers = parse_headers(lines)?;
        let body = check_content_length(&headers, body)?;
        let headers = headers
            .into_iter()
            .filter(|(n, _)| n != "Content-Length")
            .collect();
        Ok(HttpResponse {
            status,
            headers,
            body,
        })
    }

    /// Total serialised size in bytes: what [`HttpResponse::to_bytes`]
    /// would write, counted without writing it.
    #[must_use]
    pub fn wire_len(&self) -> usize {
        let status = digits(usize::from(self.status)) + 1 + reason(self.status).len();
        "HTTP/1.1 ".len() + status + 2 + tail_len(&self.headers, &self.body)
    }
}

/// Decimal digits of `n`.
fn digits(n: usize) -> usize {
    n.checked_ilog10().map_or(1, |d| d as usize + 1)
}

/// Bytes `to_bytes` writes after the first line: the header lines, the
/// `Content-Length` line, the blank line and the body.
fn tail_len(headers: &[(String, String)], body: &[u8]) -> usize {
    let lines: usize = headers.iter().map(|(n, v)| n.len() + v.len() + 4).sum();
    lines + "Content-Length: \r\n\r\n".len() + digits(body.len()) + body.len()
}

fn malformed(why: &str) -> SimError {
    SimError::MalformedHttp(why.to_owned())
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        204 => "No Content",
        400 => "Bad Request",
        401 => "Unauthorized",
        403 => "Forbidden",
        404 => "Not Found",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Status",
    }
}

fn split_head(bytes: &[u8]) -> Result<(&str, &[u8]), SimError> {
    let sep = bytes
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| malformed("missing header terminator"))?;
    let head = std::str::from_utf8(&bytes[..sep]).map_err(|_| malformed("non-utf8 header"))?;
    Ok((head, &bytes[sep + 4..]))
}

fn parse_headers<'a>(
    lines: impl Iterator<Item = &'a str>,
) -> Result<Vec<(String, String)>, SimError> {
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(": ")
            .ok_or_else(|| malformed("bad header line"))?;
        headers.push((name.to_owned(), value.to_owned()));
    }
    Ok(headers)
}

fn check_content_length(headers: &[(String, String)], body: &[u8]) -> Result<Vec<u8>, SimError> {
    let declared = headers
        .iter()
        .find(|(n, _)| n == "Content-Length")
        .and_then(|(_, v)| v.parse::<usize>().ok())
        .ok_or_else(|| malformed("missing content-length"))?;
    if declared != body.len() {
        return Err(malformed("content-length mismatch"));
    }
    Ok(body.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trip() {
        let req = HttpRequest::post("/nudm-ueau/v1/generate-auth-data", b"{\"rand\":1}".to_vec())
            .with_header("Accept", "application/json");
        let parsed = HttpRequest::from_bytes(&req.to_bytes()).unwrap();
        assert_eq!(parsed, req);
    }

    #[test]
    fn response_round_trip() {
        let resp = HttpResponse::ok(b"payload".to_vec());
        let parsed = HttpResponse::from_bytes(&resp.to_bytes()).unwrap();
        assert_eq!(parsed, resp);
        assert!(parsed.is_success());
    }

    #[test]
    fn error_response_status_preserved() {
        let resp = HttpResponse::error(404, "no such subscriber");
        let parsed = HttpResponse::from_bytes(&resp.to_bytes()).unwrap();
        assert_eq!(parsed.status, 404);
        assert!(!parsed.is_success());
        assert_eq!(parsed.body, b"no such subscriber");
    }

    #[test]
    fn empty_body_round_trips() {
        let req = HttpRequest::get("/status");
        let parsed = HttpRequest::from_bytes(&req.to_bytes()).unwrap();
        assert!(parsed.body.is_empty());
        assert_eq!(parsed.method, Method::Get);
    }

    #[test]
    fn binary_body_round_trips() {
        let body: Vec<u8> = (0u8..=255).collect();
        let req = HttpRequest::post("/bin", body.clone());
        assert_eq!(HttpRequest::from_bytes(&req.to_bytes()).unwrap().body, body);
    }

    #[test]
    fn wire_len_counts_whole_message() {
        let req = HttpRequest::post("/x", vec![0; 10]);
        assert_eq!(req.wire_len(), req.to_bytes().len());
        assert!(req.wire_len() > 10);
    }

    #[test]
    fn header_lookup() {
        let req = HttpRequest::get("/x").with_header("Via", "oai-bridge");
        assert_eq!(req.header("Via"), Some("oai-bridge"));
        assert_eq!(req.header("Missing"), None);
    }

    #[test]
    fn rejects_truncated_body() {
        let mut bytes = HttpRequest::post("/x", vec![1, 2, 3]).to_bytes();
        bytes.pop();
        assert!(matches!(
            HttpRequest::from_bytes(&bytes),
            Err(SimError::MalformedHttp(_))
        ));
    }

    #[test]
    fn rejects_garbage() {
        assert!(HttpRequest::from_bytes(b"not http at all").is_err());
        assert!(HttpResponse::from_bytes(b"\r\n\r\n").is_err());
        assert!(HttpRequest::from_bytes(b"FROB /x HTTP/1.1\r\n\r\n").is_err());
    }

    #[test]
    fn all_methods_round_trip() {
        for m in [Method::Get, Method::Post, Method::Put, Method::Delete] {
            let req = HttpRequest::new(m, "/p", Vec::new());
            assert_eq!(HttpRequest::from_bytes(&req.to_bytes()).unwrap().method, m);
        }
    }

    proptest::proptest! {
        #[test]
        fn wire_len_is_the_serialised_length(
            method in 0usize..4,
            path in "[a-z/-]{0,40}",
            names in proptest::collection::vec("[A-Za-z-]{1,12}", 0..=4),
            values in proptest::collection::vec("[ -~]{0,24}", 4),
            status in 0usize..10,
            body_len in 0usize..10,
        ) {
            // Known and unknown reason phrases of 1..5 digits; body lengths
            // on both sides of every `Content-Length` digit boundary.
            let status = [200u16, 204, 404, 500, 503, 508, 0, 7, 99, 65_535][status];
            let body_len = [0usize, 1, 9, 10, 99, 100, 999, 1000, 65_535, 65_536][body_len];
            let method = [Method::Get, Method::Post, Method::Put, Method::Delete][method];
            let mut req = HttpRequest::new(method, path, vec![0x5a; body_len]);
            let mut resp = HttpResponse::error(status, "x".repeat(body_len));
            for (n, v) in names.into_iter().zip(values) {
                req = req.with_header(n.clone(), v.clone());
                resp = resp.with_header(n, v);
            }
            proptest::prop_assert_eq!(req.wire_len(), req.to_bytes().len());
            proptest::prop_assert_eq!(resp.wire_len(), resp.to_bytes().len());
        }

        #[test]
        fn arbitrary_bodies_round_trip(body in proptest::collection::vec(0u8.., 0..500)) {
            let req = HttpRequest::post("/fuzz", body.clone());
            proptest::prop_assert_eq!(HttpRequest::from_bytes(&req.to_bytes()).unwrap().body, body);
        }

        #[test]
        fn parser_never_panics(bytes in proptest::collection::vec(0u8.., 0..200)) {
            let _ = HttpRequest::from_bytes(&bytes);
            let _ = HttpResponse::from_bytes(&bytes);
        }
    }
}
