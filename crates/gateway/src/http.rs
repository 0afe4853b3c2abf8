//! Hand-rolled HTTP/1.1 plumbing over `std::net`.
//!
//! Deliberately minimal: request-line + headers + `Content-Length`
//! bodies, keep-alive, `Expect: 100-continue`, and hard limits on
//! header and body size. Chunked transfer encoding is rejected — the
//! gateway's clients (curl, the load generator) never need it, and
//! refusing it keeps the parser small enough to audit. Malformed input
//! is reported as a value, never a panic: a worker thread survives any
//! byte sequence a client can send.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Parser limits. Requests beyond them are rejected, not truncated.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HttpLimits {
    /// Maximum accepted `Content-Length`.
    pub max_body_bytes: usize,
    /// Maximum total bytes of request line + headers.
    pub max_head_bytes: usize,
}

impl Default for HttpLimits {
    fn default() -> Self {
        HttpLimits {
            max_body_bytes: 16 << 20,
            max_head_bytes: 16 << 10,
        }
    }
}

/// One parsed request.
#[derive(Debug)]
pub(crate) struct Request {
    pub method: String,
    /// Path without the query string.
    pub path: String,
    /// Raw query string (without the `?`), if any.
    pub query: Option<String>,
    pub body: Vec<u8>,
    /// Whether the client wants the connection kept open.
    pub keep_alive: bool,
    /// Inbound `x-request-id` header, if the client sent one (trimmed,
    /// bounded at [`MAX_REQUEST_ID_BYTES`]). The gateway echoes it —
    /// or a generated id — on every response.
    pub request_id: Option<String>,
}

/// Longest accepted inbound `x-request-id`; longer values are truncated
/// at a char boundary rather than rejected.
pub(crate) const MAX_REQUEST_ID_BYTES: usize = 128;

impl Request {
    /// Looks up a `key=value` pair in the query string.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query.as_deref()?.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=')?;
            (k == key).then_some(v)
        })
    }
}

/// What reading one request produced.
#[derive(Debug)]
pub(crate) enum ReadOutcome {
    /// A complete, well-formed request.
    Request(Request),
    /// The peer closed (or timed out) before sending anything: not an
    /// error, just the end of a keep-alive conversation.
    Closed,
    /// A protocol violation, with a human-readable reason. The caller
    /// responds 400 and closes.
    Malformed(String),
    /// The declared body exceeds the limit. The caller responds 413 and
    /// closes without reading the body.
    TooLarge,
}

/// Reads one request from `reader`, answering `Expect: 100-continue`
/// probes on `write` before consuming the body.
///
/// The head is read line by line, never past what is left of
/// `max_head_bytes`, so a peer that sends no newline cannot grow the
/// buffer beyond that limit. A head that is not UTF-8 is malformed.
///
/// # Errors
///
/// Transport-level failures mid-request (timeouts tripping the read
/// deadline, resets): the caller closes the connection.
pub(crate) fn read_request<R: BufRead, W: Write>(
    reader: &mut R,
    write: &mut W,
    limits: HttpLimits,
) -> io::Result<ReadOutcome> {
    let mut raw = Vec::new();
    match read_head_line(reader, limits.max_head_bytes, &mut raw) {
        Ok(0) => return Ok(ReadOutcome::Closed),
        Ok(_) => {}
        // A keep-alive connection idling past the read deadline is a
        // clean end of conversation, not a transport failure.
        Err(e) if raw.is_empty() && is_timeout(&e) => return Ok(ReadOutcome::Closed),
        Err(e) => return Err(e),
    }
    let mut head_bytes = raw.len();
    let line = match head_text(&raw, limits.max_head_bytes) {
        Ok(line) => line,
        Err(reason) => return Ok(ReadOutcome::Malformed(reason.to_string())),
    };
    let mut parts = line.split_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) => (m.to_string(), t.to_string(), v.to_string()),
        _ => return Ok(ReadOutcome::Malformed("bad request line".to_string())),
    };
    if !version.starts_with("HTTP/1.") {
        return Ok(ReadOutcome::Malformed(format!(
            "unsupported version {version}"
        )));
    }
    let http11 = version != "HTTP/1.0";

    let mut content_length: usize = 0;
    let mut keep_alive = http11;
    let mut expect_continue = false;
    let mut request_id: Option<String> = None;
    loop {
        let budget = limits.max_head_bytes.saturating_sub(head_bytes);
        if read_head_line(reader, budget, &mut raw)? == 0 {
            return Ok(ReadOutcome::Malformed("truncated headers".to_string()));
        }
        head_bytes += raw.len();
        let line = match head_text(&raw, budget) {
            Ok(line) => line,
            Err(reason) => return Ok(ReadOutcome::Malformed(reason.to_string())),
        };
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        let Some((name, value)) = header.split_once(':') else {
            return Ok(ReadOutcome::Malformed(format!("bad header {header:?}")));
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        match name.as_str() {
            "content-length" => match value.parse() {
                Ok(v) => content_length = v,
                Err(_) => {
                    return Ok(ReadOutcome::Malformed("bad content-length".to_string()));
                }
            },
            "transfer-encoding" => {
                return Ok(ReadOutcome::Malformed(
                    "chunked transfer encoding unsupported".to_string(),
                ));
            }
            "connection" => {
                let v = value.to_ascii_lowercase();
                if v.contains("close") {
                    keep_alive = false;
                } else if v.contains("keep-alive") {
                    keep_alive = true;
                }
            }
            "expect" => expect_continue = value.eq_ignore_ascii_case("100-continue"),
            "x-request-id" if !value.is_empty() => {
                let mut id = value.to_string();
                if id.len() > MAX_REQUEST_ID_BYTES {
                    let mut cut = MAX_REQUEST_ID_BYTES;
                    while !id.is_char_boundary(cut) {
                        cut -= 1;
                    }
                    id.truncate(cut);
                }
                request_id = Some(id);
            }
            _ => {}
        }
    }
    if content_length > limits.max_body_bytes {
        return Ok(ReadOutcome::TooLarge);
    }
    if expect_continue && content_length > 0 {
        write.write_all(b"HTTP/1.1 100 Continue\r\n\r\n")?;
        write.flush()?;
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;

    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), Some(q.to_string())),
        None => (target, None),
    };
    Ok(ReadOutcome::Request(Request {
        method,
        path,
        query,
        body,
        keep_alive,
        request_id,
    }))
}

/// Reads one head line into `raw` (cleared first), up to and including
/// its `\n` but never more than `budget + 1` bytes: one byte past the
/// budget is enough to tell that the line is too long. Returns the bytes
/// read, 0 at end of stream.
fn read_head_line<R: BufRead>(
    reader: &mut R,
    budget: usize,
    raw: &mut Vec<u8>,
) -> io::Result<usize> {
    raw.clear();
    reader
        .by_ref()
        .take(budget as u64 + 1)
        .read_until(b'\n', raw)
}

/// The text of a head line read by [`read_head_line`], or why it is
/// malformed: longer than `budget`, or not UTF-8.
fn head_text(raw: &[u8], budget: usize) -> Result<&str, &'static str> {
    if raw.len() > budget {
        return Err("headers too large");
    }
    std::str::from_utf8(raw).map_err(|_| "request head is not UTF-8")
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// One response about to be written.
#[derive(Debug)]
pub(crate) struct Response {
    pub status: u16,
    pub reason: &'static str,
    pub content_type: &'static str,
    /// Extra headers, e.g. `Retry-After` on 429.
    pub extra: Vec<(&'static str, String)>,
    pub body: Vec<u8>,
    /// Force `Connection: close` regardless of the request.
    pub close: bool,
}

impl Response {
    pub fn new(status: u16, reason: &'static str, body: impl Into<Vec<u8>>) -> Self {
        Response {
            status,
            reason,
            content_type: "text/plain; charset=utf-8",
            extra: Vec::new(),
            body: body.into(),
            close: false,
        }
    }

    pub fn json(status: u16, reason: &'static str, body: impl Into<Vec<u8>>) -> Self {
        Response {
            content_type: "application/json",
            ..Response::new(status, reason, body)
        }
    }
}

/// Serializes `resp`; `keep_alive` reflects the request side and is
/// overridden by [`Response::close`].
pub(crate) fn write_response(
    w: &mut impl Write,
    resp: &Response,
    keep_alive: bool,
) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
        resp.status,
        resp.reason,
        resp.content_type,
        resp.body.len()
    );
    for (name, value) in &resp.extra {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    let alive = keep_alive && !resp.close;
    head.push_str(if alive {
        "Connection: keep-alive\r\n\r\n"
    } else {
        "Connection: close\r\n\r\n"
    });
    w.write_all(head.as_bytes())?;
    w.write_all(&resp.body)?;
    w.flush()
}

/// A response as seen by [`HttpClient`].
#[derive(Debug)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// Lower-cased header names with trimmed values.
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: Vec<u8>,
    /// Whether the server will keep the connection open.
    pub keep_alive: bool,
}

impl ClientResponse {
    /// First header with the given (lower-case) name.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find_map(|(n, v)| (n == name).then_some(v.as_str()))
    }
}

/// A minimal blocking HTTP/1.1 client speaking exactly the dialect the
/// gateway serves. Shared by the load generator, the CLI and the tests
/// so every consumer exercises the same code path.
#[derive(Debug)]
pub struct HttpClient {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    host: String,
}

impl HttpClient {
    /// Connects with the given I/O timeout applied to reads and writes.
    ///
    /// # Errors
    ///
    /// Propagates connect/configure failures.
    pub fn connect(addr: &str, timeout: Duration) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(HttpClient {
            stream,
            reader,
            host: addr.to_string(),
        })
    }

    /// Sends one request and reads the full response (keep-alive).
    ///
    /// # Errors
    ///
    /// Transport failures and protocol violations surface as
    /// `io::Error`; the connection should then be discarded.
    pub fn request(
        &mut self,
        method: &str,
        target: &str,
        body: &[u8],
    ) -> io::Result<ClientResponse> {
        self.request_with_headers(method, target, body, &[])
    }

    /// [`Self::request`] with extra request headers (e.g.
    /// `x-request-id` for end-to-end attribution).
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::request`].
    pub fn request_with_headers(
        &mut self,
        method: &str,
        target: &str,
        body: &[u8],
        headers: &[(&str, &str)],
    ) -> io::Result<ClientResponse> {
        let mut head = format!(
            "{method} {target} HTTP/1.1\r\nHost: {}\r\nContent-Length: {}\r\n",
            self.host,
            body.len()
        );
        for (name, value) in headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        self.stream.write_all(head.as_bytes())?;
        self.stream.write_all(body)?;
        self.stream.flush()?;
        self.read_response()
    }

    fn read_response(&mut self) -> io::Result<ClientResponse> {
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before status line",
            ));
        }
        let mut parts = line.split_whitespace();
        let version = parts.next().ok_or_else(|| bad("empty status line"))?;
        if !version.starts_with("HTTP/1.") {
            return Err(bad("bad status line"));
        }
        let status: u16 = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad status code"))?;

        let mut headers = Vec::new();
        let mut content_length = 0usize;
        let mut keep_alive = true;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(bad("truncated response headers"));
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            let (name, value) = header.split_once(':').ok_or_else(|| bad("bad header"))?;
            let name = name.trim().to_ascii_lowercase();
            let value = value.trim().to_string();
            if name == "content-length" {
                content_length = value.parse().map_err(|_| bad("bad content-length"))?;
            }
            if name == "connection" && value.to_ascii_lowercase().contains("close") {
                keep_alive = false;
            }
            headers.push((name, value));
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body)?;
        // Interim 100 Continue responses are not expected here: the
        // client never sends Expect.
        Ok(ClientResponse {
            status,
            headers,
            body,
            keep_alive,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    const LIMITS: HttpLimits = HttpLimits {
        max_body_bytes: 64,
        max_head_bytes: 256,
    };

    /// Parses `bytes` as one request, returning the outcome and what the
    /// parser wrote back to the peer.
    fn parse(bytes: &[u8]) -> (ReadOutcome, Vec<u8>) {
        let mut reader = Cursor::new(bytes.to_vec());
        let mut written = Vec::new();
        let outcome = read_request(&mut reader, &mut written, LIMITS).expect("no transport error");
        (outcome, written)
    }

    fn request(bytes: &[u8]) -> Request {
        match parse(bytes).0 {
            ReadOutcome::Request(req) => req,
            other => panic!("expected a request, got {other:?}"),
        }
    }

    fn malformed(bytes: &[u8]) -> String {
        match parse(bytes).0 {
            ReadOutcome::Malformed(reason) => reason,
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn parses_a_request_with_query_and_body() {
        let req = request(b"POST /v1/demand?cell=1 HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/demand");
        assert_eq!(req.query_param("cell"), Some("1"));
        assert_eq!(req.body, b"abc");
        assert!(req.keep_alive);
        assert_eq!(req.request_id, None);
    }

    #[test]
    fn empty_stream_is_a_clean_close() {
        assert!(matches!(parse(b"").0, ReadOutcome::Closed));
    }

    #[test]
    fn idle_timeout_before_any_byte_is_a_clean_close() {
        struct Idle;
        impl Read for Idle {
            fn read(&mut self, _: &mut [u8]) -> io::Result<usize> {
                Err(io::ErrorKind::WouldBlock.into())
            }
        }
        let mut reader = BufReader::new(Idle);
        let outcome = read_request(&mut reader, &mut Vec::new(), LIMITS).unwrap();
        assert!(matches!(outcome, ReadOutcome::Closed));
    }

    #[test]
    fn endless_line_without_newline_is_rejected_within_the_head_limit() {
        // An endless stream with no `\n`, on the request line and on a
        // header line: the parser must stop after the head budget, not
        // buffer until the read deadline.
        let mut reader = BufReader::new(io::repeat(b'a'));
        let outcome = read_request(&mut reader, &mut Vec::new(), LIMITS).unwrap();
        assert!(matches!(outcome, ReadOutcome::Malformed(ref r) if r == "headers too large"));

        let head = Cursor::new(b"GET / HTTP/1.1\r\nx-long: ".to_vec());
        let mut reader = BufReader::new(head.chain(io::repeat(b'b')));
        let outcome = read_request(&mut reader, &mut Vec::new(), LIMITS).unwrap();
        assert!(matches!(outcome, ReadOutcome::Malformed(ref r) if r == "headers too large"));
    }

    #[test]
    fn head_just_within_the_limit_is_accepted() {
        let mut bytes = b"GET / HTTP/1.1\r\nx-pad: ".to_vec();
        let pad = LIMITS.max_head_bytes - bytes.len() - 4;
        bytes.extend(std::iter::repeat_n(b'p', pad));
        bytes.extend_from_slice(b"\r\n\r\n");
        assert_eq!(bytes.len(), LIMITS.max_head_bytes);
        request(&bytes);
        bytes.insert(20, b'p');
        assert_eq!(malformed(&bytes), "headers too large");
    }

    #[test]
    fn non_utf8_head_is_malformed_not_a_transport_error() {
        assert_eq!(
            malformed(b"GET /\xff\xfe HTTP/1.1\r\n\r\n"),
            "request head is not UTF-8"
        );
        assert_eq!(
            malformed(b"GET / HTTP/1.1\r\nx-name: \xc3\x28\r\n\r\n"),
            "request head is not UTF-8"
        );
    }

    #[test]
    fn bad_content_length_is_malformed() {
        for value in ["abc", "-1", "1.5", "", "99999999999999999999999"] {
            let bytes = format!("POST / HTTP/1.1\r\nContent-Length: {value}\r\n\r\n");
            assert_eq!(
                malformed(bytes.as_bytes()),
                "bad content-length",
                "{value:?}"
            );
        }
    }

    #[test]
    fn oversized_body_is_too_large_and_not_read() {
        let (outcome, written) = parse(b"POST / HTTP/1.1\r\nContent-Length: 65\r\n\r\n");
        assert!(matches!(outcome, ReadOutcome::TooLarge));
        assert!(written.is_empty());
    }

    #[test]
    fn chunked_encoding_is_refused() {
        let bytes = b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\n\r\n";
        assert_eq!(malformed(bytes), "chunked transfer encoding unsupported");
    }

    #[test]
    fn truncated_head_and_body() {
        assert_eq!(
            malformed(b"GET / HTTP/1.1\r\nHost: x\r\n"),
            "truncated headers"
        );
        assert_eq!(malformed(b"GET / HTTP/1.1"), "truncated headers");
        assert_eq!(malformed(b"GET /\r\n\r\n"), "bad request line");
        assert_eq!(
            malformed(b"GET / SPDY/3\r\n\r\n"),
            "unsupported version SPDY/3"
        );
        assert!(malformed(b"GET / HTTP/1.1\r\nno colon\r\n\r\n").starts_with("bad header"));
        // A body shorter than its Content-Length is a transport error.
        let mut reader = Cursor::new(b"POST / HTTP/1.1\r\nContent-Length: 5\r\n\r\nab".to_vec());
        let err = read_request(&mut reader, &mut Vec::new(), LIMITS).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn request_id_is_trimmed_and_truncated_at_a_char_boundary() {
        let req = request(b"GET / HTTP/1.1\r\nX-Request-Id:   abc-1  \r\n\r\n");
        assert_eq!(req.request_id.as_deref(), Some("abc-1"));
        let req = request(b"GET / HTTP/1.1\r\nx-request-id: \r\n\r\n");
        assert_eq!(req.request_id, None);

        // 'a' then two-byte chars: byte 128 falls inside a char, so the
        // cut moves back to 127.
        let id = format!("a{}", "é".repeat(80));
        let bytes = format!("GET / HTTP/1.1\r\nx-request-id: {id}\r\n\r\n");
        let req = request(bytes.as_bytes());
        let got = req.request_id.unwrap();
        assert_eq!(got.len(), MAX_REQUEST_ID_BYTES - 1);
        assert!(id.starts_with(&got));
        // An ASCII id is cut at exactly the limit.
        let id = "r".repeat(200);
        let bytes = format!("GET / HTTP/1.1\r\nx-request-id: {id}\r\n\r\n");
        assert_eq!(
            request(bytes.as_bytes()).request_id.unwrap().len(),
            MAX_REQUEST_ID_BYTES
        );
    }

    #[test]
    fn expect_continue_is_answered_before_the_body() {
        let (outcome, written) =
            parse(b"POST / HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 2\r\n\r\nhi");
        assert!(matches!(outcome, ReadOutcome::Request(ref r) if r.body == b"hi"));
        assert_eq!(written, b"HTTP/1.1 100 Continue\r\n\r\n");
        // No body, no interim response.
        let (_, written) = parse(b"POST / HTTP/1.1\r\nExpect: 100-continue\r\n\r\n");
        assert!(written.is_empty());
    }

    #[test]
    fn keep_alive_defaults_follow_the_http_version() {
        assert!(!request(b"GET / HTTP/1.0\r\n\r\n").keep_alive);
        assert!(request(b"GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n").keep_alive);
        assert!(request(b"GET / HTTP/1.1\r\n\r\n").keep_alive);
        assert!(!request(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n").keep_alive);
    }

    #[test]
    fn keep_alive_requests_parse_back_to_back() {
        let mut reader = Cursor::new(
            b"GET /a HTTP/1.1\r\n\r\nPOST /b HTTP/1.1\r\nContent-Length: 1\r\n\r\nx".to_vec(),
        );
        let mut written = Vec::new();
        for path in ["/a", "/b"] {
            match read_request(&mut reader, &mut written, LIMITS).unwrap() {
                ReadOutcome::Request(req) => assert_eq!(req.path, path),
                other => panic!("expected {path}, got {other:?}"),
            }
        }
        assert!(matches!(
            read_request(&mut reader, &mut written, LIMITS).unwrap(),
            ReadOutcome::Closed
        ));
    }
}
