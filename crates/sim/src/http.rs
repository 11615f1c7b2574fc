//! Byte-accurate HTTP/1.1-style framing for the service-based interfaces.
//!
//! 3GPP SBIs are REST APIs; the paper's P-AKA modules expose "REST API
//! endpoints where each AKA function is mapped to an endpoint handler"
//! (§IV-A). Messages here really serialise to bytes so the latency model's
//! per-byte costs and the Table I parameter sizes are grounded in actual
//! wire lengths.
//!
//! A message is framed in place: `write_to` appends head and body to a
//! buffer the caller owns (a TLS record about to be sealed) and `to_bytes`
//! is that into a fresh one. A request names its resource by a shared
//! handle ([`SharedPaths`]), which its engine leg and trace records hold too,
//! and both message types carry their body in a recycled [`Body`].
//!
//! A header name or value is a [`Cow<'static, str>`](Cow): the headers the
//! simulator itself attaches (a shed marker, an injected-fault marker, a
//! priority class) are constants and are borrowed, so marking a reply
//! allocates nothing; a parsed message owns what it read.

use crate::codec::Body;
use crate::SimError;
use std::borrow::Cow;
use std::rc::Rc;

/// HTTP request methods used on the SBIs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
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

/// The request paths a client sends, as shared handles. A client calls a
/// handful of constant paths (its peers' REST resources), so each is
/// allocated the first time it is sent; every later request for it, with
/// its engine leg and trace records, takes a reference-count bump.
#[derive(Clone, Debug, Default)]
pub struct SharedPaths(Vec<Rc<str>>);

impl SharedPaths {
    /// Distinct paths kept. A caller past this is sending generated
    /// paths, which get a fresh handle each instead of growing the table.
    const KEPT: usize = 16;

    /// The shared handle for `path`.
    pub fn get(&mut self, path: &str) -> Rc<str> {
        if let Some(known) = self.0.iter().find(|known| known[..] == *path) {
            return known.clone();
        }
        let fresh: Rc<str> = Rc::from(path);
        if self.0.len() < Self::KEPT {
            self.0.push(fresh.clone());
        }
        fresh
    }
}

/// An HTTP request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HttpRequest {
    /// Request method.
    pub method: Method,
    /// Absolute path, e.g. `/nudm-ueau/v1/generate-auth-data`.
    pub path: Rc<str>,
    /// Header name/value pairs (names match case-insensitively).
    pub headers: Vec<(Cow<'static, str>, Cow<'static, str>)>,
    /// Message body.
    pub body: Body,
}

impl HttpRequest {
    /// Creates a request with an empty header set.
    #[must_use]
    pub fn new(method: Method, path: impl Into<Rc<str>>, body: impl Into<Body>) -> Self {
        HttpRequest {
            method,
            path: path.into(),
            headers: Vec::new(),
            body: body.into(),
        }
    }

    /// Convenience POST constructor (the dominant SBI verb).
    #[must_use]
    pub fn post(path: impl Into<Rc<str>>, body: impl Into<Body>) -> Self {
        Self::new(Method::Post, path, body)
    }

    /// Convenience GET constructor.
    #[must_use]
    pub fn get(path: impl Into<Rc<str>>) -> Self {
        Self::new(Method::Get, path, Body::default())
    }

    /// Adds a header (builder style): a `&'static str` is borrowed, a
    /// `String` moved in.
    #[must_use]
    pub fn with_header(
        mut self,
        name: impl Into<Cow<'static, str>>,
        value: impl Into<Cow<'static, str>>,
    ) -> Self {
        self.headers.push((name.into(), value.into()));
        self
    }

    /// First value of header `name` (case-insensitive), if present.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        find_header(&self.headers, name)
    }

    /// Appends the wire form to `out`: request line, headers, a
    /// `Content-Length` header, the body.
    pub fn write_to(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self.method.as_str().as_bytes());
        out.push(b' ');
        out.extend_from_slice(self.path.as_bytes());
        out.extend_from_slice(b" HTTP/1.1\r\n");
        write_tail(out, &self.headers, &self.body);
    }

    /// Serialises to wire bytes ([`HttpRequest::write_to`] a fresh buffer).
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_len());
        self.write_to(&mut out);
        out
    }

    /// Parses wire bytes produced by [`HttpRequest::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::MalformedHttp`] on framing violations: a
    /// request line that is not exactly `METHOD SP path SP HTTP/1.1`, a
    /// bad header line, a missing or wrong `Content-Length`.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SimError> {
        let (first, headers, body) = parse(bytes)?;
        let mut parts = first.split(' ');
        let (Some(method), Some(path), Some("HTTP/1.1"), None) =
            (parts.next(), parts.next(), parts.next(), parts.next())
        else {
            return Err(malformed("bad request line"));
        };
        Ok(HttpRequest {
            method: Method::parse(method)?,
            path: path.into(),
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
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HttpResponse {
    /// Status code (200, 404, ...).
    pub status: u16,
    /// Header name/value pairs.
    pub headers: Vec<(Cow<'static, str>, Cow<'static, str>)>,
    /// Message body.
    pub body: Body,
}

impl HttpResponse {
    /// A 200 response with `body`.
    #[must_use]
    pub fn ok(body: impl Into<Body>) -> Self {
        HttpResponse {
            status: 200,
            headers: Vec::new(),
            body: body.into(),
        }
    }

    /// An error response with a text body.
    #[must_use]
    pub fn error(status: u16, message: impl Into<String>) -> Self {
        HttpResponse {
            status,
            headers: Vec::new(),
            body: message.into().into(),
        }
    }

    /// True for 2xx statuses.
    #[must_use]
    pub fn is_success(&self) -> bool {
        (200..300).contains(&self.status)
    }

    /// Adds a header (builder style): a `&'static str` is borrowed, a
    /// `String` moved in.
    #[must_use]
    pub fn with_header(
        mut self,
        name: impl Into<Cow<'static, str>>,
        value: impl Into<Cow<'static, str>>,
    ) -> Self {
        self.headers.push((name.into(), value.into()));
        self
    }

    /// First value of header `name` (case-insensitive), if present.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        find_header(&self.headers, name)
    }

    /// Appends the wire form to `out`: status line, headers, a
    /// `Content-Length` header, the body.
    pub fn write_to(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(b"HTTP/1.1 ");
        push_decimal(out, usize::from(self.status));
        out.push(b' ');
        out.extend_from_slice(reason(self.status).as_bytes());
        out.extend_from_slice(b"\r\n");
        write_tail(out, &self.headers, &self.body);
    }

    /// Serialises to wire bytes ([`HttpResponse::write_to`] a fresh buffer).
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_len());
        self.write_to(&mut out);
        out
    }

    /// Parses wire bytes produced by [`HttpResponse::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::MalformedHttp`] on framing violations.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SimError> {
        let (first, headers, body) = parse(bytes)?;
        let status = first
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| malformed("bad status line"))?;
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

const CONTENT_LENGTH: &str = "Content-Length";

/// Decimal digits of `n`.
fn digits(n: usize) -> usize {
    n.checked_ilog10().map_or(1, |d| d as usize + 1)
}

/// Appends `n` in decimal.
fn push_decimal(out: &mut Vec<u8>, mut n: usize) {
    let mut text = [0u8; 20];
    let mut at = text.len();
    loop {
        at -= 1;
        text[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&text[at..]);
}

/// What both message types write after their first line: the header
/// lines, the `Content-Length` line, the blank line and the body.
fn write_tail(out: &mut Vec<u8>, headers: &[Header], body: &[u8]) {
    for (n, v) in headers {
        out.extend_from_slice(n.as_bytes());
        out.extend_from_slice(b": ");
        out.extend_from_slice(v.as_bytes());
        out.extend_from_slice(b"\r\n");
    }
    out.extend_from_slice(CONTENT_LENGTH.as_bytes());
    out.extend_from_slice(b": ");
    push_decimal(out, body.len());
    out.extend_from_slice(b"\r\n\r\n");
    out.extend_from_slice(body);
}

/// Bytes [`write_tail`] writes.
fn tail_len(headers: &[Header], body: &[u8]) -> usize {
    let lines: usize = headers.iter().map(|(n, v)| n.len() + v.len() + 4).sum();
    lines + CONTENT_LENGTH.len() + ": \r\n\r\n".len() + digits(body.len()) + body.len()
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

/// The one header lookup of both message types: first match, names
/// compared case-insensitively (RFC 9110 §5.1).
fn find_header<'a>(headers: &'a [Header], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(n, _)| n.eq_ignore_ascii_case(name))
        .map(|(_, v)| &**v)
}

/// One header line: a name and a value, borrowed when constant.
type Header = (Cow<'static, str>, Cow<'static, str>);

type Headers = Vec<Header>;

/// Splits a message into its first line, its headers without
/// `Content-Length`, and the body that header must account for exactly.
fn parse(bytes: &[u8]) -> Result<(&str, Headers, Body), SimError> {
    let sep = bytes
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| malformed("missing header terminator"))?;
    let head = std::str::from_utf8(&bytes[..sep]).map_err(|_| malformed("non-utf8 header"))?;
    let body = &bytes[sep + 4..];
    let mut lines = head.split("\r\n");
    let first = lines.next().unwrap_or_default();
    let mut headers = Vec::new();
    let mut declared = None;
    for line in lines {
        let (name, value) = line
            .split_once(": ")
            .ok_or_else(|| malformed("bad header line"))?;
        if !name.eq_ignore_ascii_case(CONTENT_LENGTH) {
            headers.push((name.to_owned().into(), value.to_owned().into()));
        } else if declared.is_none() {
            declared = Some(value);
        }
    }
    let declared = declared
        .and_then(|v| v.parse::<usize>().ok())
        .ok_or_else(|| malformed("missing content-length"))?;
    if declared != body.len() {
        return Err(malformed("content-length mismatch"));
    }
    Ok((first, headers, Body::from(body)))
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
    fn header_lookup_ignores_case_on_both_message_types() {
        let req = HttpRequest::get("/x").with_header("X-Sim-Priority", "emergency");
        let resp = HttpResponse::ok(Vec::new()).with_header("X-Sim-Shed", "queue-full");
        assert_eq!(req.header("x-sim-priority"), Some("emergency"));
        assert_eq!(resp.header("x-sim-shed"), Some("queue-full"));
        assert_eq!(req.header("x-sim-shed"), None);
    }

    #[test]
    fn content_length_is_recognised_and_stripped_in_any_case() {
        let req = HttpRequest::from_bytes(b"POST /x HTTP/1.1\r\ncontent-length: 2\r\n\r\nhi");
        assert_eq!(req, Ok(HttpRequest::post("/x", b"hi".to_vec())));
        let resp = HttpResponse::from_bytes(b"HTTP/1.1 200 OK\r\nCONTENT-LENGTH: 2\r\n\r\nhi");
        assert_eq!(resp, Ok(HttpResponse::ok(b"hi".to_vec())));
        // And it must still account for the body exactly.
        let lie = HttpRequest::from_bytes(b"POST /x HTTP/1.1\r\ncontent-length: 3\r\n\r\nhi");
        assert!(matches!(lie, Err(SimError::MalformedHttp(_))));
    }

    #[test]
    fn request_line_must_be_method_path_version() {
        for line in [
            "GET /x",
            "GET /x HTTP/1.1 extra",
            "GET /x HTTP/1.0",
            "GET  /x HTTP/1.1",
            "GET",
            "",
        ] {
            let bytes = format!("{line}\r\nContent-Length: 0\r\n\r\n");
            assert!(
                matches!(
                    HttpRequest::from_bytes(bytes.as_bytes()),
                    Err(SimError::MalformedHttp(_))
                ),
                "{line:?} parsed"
            );
        }
        let exact = HttpRequest::from_bytes(b"GET /x HTTP/1.1\r\nContent-Length: 0\r\n\r\n");
        assert_eq!(exact, Ok(HttpRequest::get("/x")));
    }

    #[test]
    fn shared_paths_hand_out_one_handle_per_path() {
        let mut paths = SharedPaths::default();
        let first = paths.get("/nausf-auth/authenticate");
        assert!(Rc::ptr_eq(&first, &paths.get("/nausf-auth/authenticate")));
        assert_eq!(&*paths.get("/nausf-auth/confirm"), "/nausf-auth/confirm");
        // Generated paths past the kept set still get a handle, unshared.
        for i in 0..2 * SharedPaths::KEPT {
            assert_eq!(
                &*paths.get(&format!("/generated/{i}")),
                format!("/generated/{i}")
            );
        }
        assert!(!Rc::ptr_eq(
            &paths.get("/generated/31"),
            &paths.get("/generated/31")
        ));
        assert!(Rc::ptr_eq(&first, &paths.get("/nausf-auth/authenticate")));
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
