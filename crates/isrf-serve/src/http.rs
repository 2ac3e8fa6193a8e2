//! A hand-rolled HTTP/1.1 subset over blocking sockets.
//!
//! The vendor tree has no hyper/tokio, and the job API needs very little:
//! request line + headers + `Content-Length` bodies, keep-alive
//! connections, and responses with a status, a few headers and a body.
//! Everything else — chunked transfer coding, upgrades, pipelining beyond
//! read-one/write-one — is rejected or ignored. Limits are explicit and
//! enforced *before* buffering, so a hostile peer cannot balloon memory:
//! the header block and the body each have a byte cap, and the body is
//! read only after its declared length passes the cap.

use std::fmt;
use std::io::{self, BufRead, Write};

/// Byte caps for one request.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Max bytes for the request line + headers (incl. terminator).
    pub max_head: usize,
    /// Max bytes for the declared body.
    pub max_body: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_head: 16 * 1024,
            max_body: 8 * 1024 * 1024,
        }
    }
}

/// Why a request could not be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// Syntactically invalid or unsupported request; maps to 400.
    Bad(&'static str),
    /// A limit was exceeded; maps to 431 (head) / 413 (body).
    TooLarge(&'static str),
    /// The peer closed or the stream ended mid-request; no response
    /// can be delivered.
    Truncated(&'static str),
    /// Transport error.
    Io(io::ErrorKind),
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::Bad(m) => write!(f, "bad request: {m}"),
            HttpError::TooLarge(m) => write!(f, "request too large: {m}"),
            HttpError::Truncated(m) => write!(f, "truncated request: {m}"),
            HttpError::Io(k) => write!(f, "io error: {k:?}"),
        }
    }
}

impl HttpError {
    /// The HTTP status this parse failure should be reported as.
    pub fn status(&self) -> u16 {
        match self {
            HttpError::Bad(_) => 400,
            HttpError::TooLarge("body exceeds limit") => 413,
            HttpError::TooLarge(_) => 431,
            HttpError::Truncated(_) | HttpError::Io(_) => 400,
        }
    }
}

/// Methods the server understands.
const METHODS: [&str; 6] = ["GET", "POST", "DELETE", "PUT", "HEAD", "OPTIONS"];

/// One parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// `GET`, `POST`, `DELETE`, ...
    pub method: String,
    /// The request target (path + optional query), e.g. `/jobs/3`.
    pub target: String,
    /// Header `(name, value)` pairs in arrival order, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The body (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of header `name` (ASCII case-insensitive lookup).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// True when the client asked to close the connection after this
    /// exchange.
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }

    /// The path component of the target (query stripped).
    pub fn path(&self) -> &str {
        self.target
            .split_once('?')
            .map_or(self.target.as_str(), |(p, _)| p)
    }
}

/// Read one request from `r`.
///
/// Returns `Ok(None)` on clean EOF before the first byte (the peer closed
/// a keep-alive connection between requests).
///
/// # Errors
///
/// [`HttpError`] on malformed input, exceeded limits, mid-request EOF or
/// transport failure.
pub fn read_request(r: &mut impl BufRead, limits: &Limits) -> Result<Option<Request>, HttpError> {
    // Accumulate the head up to CRLFCRLF, byte-capped.
    let mut head: Vec<u8> = Vec::new();
    loop {
        let buf = r.fill_buf().map_err(|e| HttpError::Io(e.kind()))?;
        if buf.is_empty() {
            return if head.is_empty() {
                Ok(None)
            } else {
                Err(HttpError::Truncated("eof inside header block"))
            };
        }
        // Take at most one byte past the cap: the overflow check below
        // turns that extra byte into a deterministic TooLarge error.
        let take = buf.len().min(limits.max_head + 1 - head.len());
        let before = head.len();
        head.extend_from_slice(&buf[..take]);
        let scan_from = before.saturating_sub(3);
        if let Some(pos) = find_terminator(&head[scan_from..]) {
            let end = scan_from + pos + 4;
            if end > limits.max_head {
                return Err(HttpError::TooLarge("header block exceeds limit"));
            }
            let consumed = take - (head.len() - end);
            r.consume(consumed);
            head.truncate(end);
            return parse_head(&head, r, limits).map(Some);
        }
        if head.len() > limits.max_head {
            return Err(HttpError::TooLarge("header block exceeds limit"));
        }
        r.consume(take);
    }
}

fn find_terminator(b: &[u8]) -> Option<usize> {
    b.windows(4).position(|w| w == b"\r\n\r\n")
}

fn parse_head(head: &[u8], r: &mut impl BufRead, limits: &Limits) -> Result<Request, HttpError> {
    let text = std::str::from_utf8(&head[..head.len() - 4])
        .map_err(|_| HttpError::Bad("head not UTF-8"))?;
    let mut lines = text.split("\r\n");
    let request_line = lines.next().ok_or(HttpError::Bad("empty request"))?;
    let mut parts = request_line.split(' ');
    let method = parts.next().unwrap_or_default();
    let target = parts
        .next()
        .ok_or(HttpError::Bad("missing request target"))?;
    let version = parts.next().ok_or(HttpError::Bad("missing HTTP version"))?;
    if parts.next().is_some() {
        return Err(HttpError::Bad("malformed request line"));
    }
    if !METHODS.contains(&method) {
        return Err(HttpError::Bad("unknown method"));
    }
    if !target.starts_with('/') {
        return Err(HttpError::Bad("target must be origin-form"));
    }
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(HttpError::Bad("unsupported HTTP version"));
    }

    let mut headers = Vec::new();
    for line in lines {
        let (name, value) = line
            .split_once(':')
            .ok_or(HttpError::Bad("header line missing ':'"))?;
        if name.is_empty() || name.contains(' ') {
            return Err(HttpError::Bad("malformed header name"));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }

    let mut req = Request {
        method: method.to_string(),
        target: target.to_string(),
        headers,
        body: Vec::new(),
    };

    if req.header("transfer-encoding").is_some() {
        return Err(HttpError::Bad("chunked transfer coding unsupported"));
    }
    if let Some(cl) = req.header("content-length") {
        let n: usize = cl
            .parse()
            .map_err(|_| HttpError::Bad("unparseable content-length"))?;
        if n > limits.max_body {
            return Err(HttpError::TooLarge("body exceeds limit"));
        }
        let mut body = vec![0u8; n];
        r.read_exact(&mut body).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                HttpError::Truncated("eof inside body")
            } else {
                HttpError::Io(e.kind())
            }
        })?;
        req.body = body;
    }
    Ok(req)
}

/// One response, built then written in a single shot.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Extra headers beyond `Content-Length` / `Content-Type` /
    /// `Connection` (which are emitted automatically).
    pub headers: Vec<(String, String)>,
    /// Content type (emitted when the body is non-empty).
    pub content_type: &'static str,
    /// The body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, v: &crate::Json) -> Response {
        Response {
            status,
            headers: Vec::new(),
            content_type: "application/json",
            body: v.render().into_bytes(),
        }
    }

    /// A raw pre-rendered JSON response (for cached payloads).
    pub fn json_raw(status: u16, body: String) -> Response {
        Response {
            status,
            headers: Vec::new(),
            content_type: "application/json",
            body: body.into_bytes(),
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            headers: Vec::new(),
            content_type: "text/plain; charset=utf-8",
            body: body.into().into_bytes(),
        }
    }

    /// An error response with a JSON `{"error": msg}` body.
    pub fn error(status: u16, msg: &str) -> Response {
        Response::json(
            status,
            &crate::Json::Obj(vec![("error".into(), crate::Json::str(msg))]),
        )
    }

    /// Add a header.
    pub fn with_header(mut self, name: &str, value: impl Into<String>) -> Response {
        self.headers.push((name.to_string(), value.into()));
        self
    }

    /// Serialize to `w` (HTTP/1.1, explicit `Content-Length`).
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    pub fn write_to(&self, w: &mut impl Write, close: bool) -> io::Result<()> {
        let reason = reason(self.status);
        let mut head = format!("HTTP/1.1 {} {}\r\n", self.status, reason);
        for (k, v) in &self.headers {
            head.push_str(&format!("{k}: {v}\r\n"));
        }
        if !self.body.is_empty() {
            head.push_str(&format!("Content-Type: {}\r\n", self.content_type));
        }
        head.push_str(&format!("Content-Length: {}\r\n", self.body.len()));
        head.push_str(if close {
            "Connection: close\r\n\r\n"
        } else {
            "Connection: keep-alive\r\n\r\n"
        });
        w.write_all(head.as_bytes())?;
        w.write_all(&self.body)?;
        w.flush()
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        503 => "Service Unavailable",
        _ => "Response",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &[u8]) -> Result<Option<Request>, HttpError> {
        read_request(&mut BufReader::new(raw), &Limits::default())
    }

    #[test]
    fn parses_post_with_body() {
        let raw = b"POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd";
        let req = parse(raw).unwrap().unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path(), "/jobs");
        assert_eq!(req.body, b"abcd");
        assert_eq!(req.header("HOST"), Some("x"));
        assert!(!req.wants_close());
    }

    #[test]
    fn keep_alive_reads_two_requests() {
        let raw = b"GET /a HTTP/1.1\r\n\r\nGET /b?x=1 HTTP/1.1\r\nConnection: close\r\n\r\n";
        let mut r = BufReader::new(&raw[..]);
        let a = read_request(&mut r, &Limits::default()).unwrap().unwrap();
        let b = read_request(&mut r, &Limits::default()).unwrap().unwrap();
        assert_eq!(a.path(), "/a");
        assert_eq!(b.path(), "/b");
        assert!(b.wants_close());
        assert!(read_request(&mut r, &Limits::default()).unwrap().is_none());
    }

    #[test]
    fn response_writes_head_and_body() {
        let mut out = Vec::new();
        Response::text(200, "hi")
            .with_header("Retry-After", "1")
            .write_to(&mut out, true)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.ends_with("\r\n\r\nhi"));
    }
}
