//! A minimal, defensive HTTP/1.1 wire layer on blocking I/O.
//!
//! Hand-rolled because the vendored offline stack has no async runtime or
//! HTTP dependency — and because the server's job is to *survive* hostile
//! input, every read is bounded: request-line and header bytes against
//! [`Limits::max_head_bytes`], bodies against [`Limits::max_body_bytes`],
//! and the underlying socket carries read/write timeouts set by the
//! connection handler. Anything over a limit or outside the grammar
//! becomes a structured [`Reject`] (a 4xx with a JSON error body), never
//! a panic.
//!
//! The response side writes either a complete [`Response`] with
//! `Content-Length`, or a [`ChunkedWriter`] stream for `/suite` (one
//! chunk per task result, so clients see progress while later tasks are
//! still evaluating).
//!
//! Every message leaves in one write, and the server sets `TCP_NODELAY`
//! on each connection it serves; a keep-alive exchange needs both. A
//! head and body written separately go out as two segments, and Nagle's
//! algorithm holds the body until the peer ACKs the head, which a
//! delayed-ACK peer does only after about 40 ms. One write keeps a small
//! message in one segment and one syscall, but without `TCP_NODELAY` a
//! chunk still waits for the ACK of the chunk before it, and a body
//! larger than one segment for the ACK of its first part.

use std::io::{BufRead, Write};

/// Parsing bounds for one request.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Byte budget for the request line plus all headers.
    pub max_head_bytes: usize,
    /// Byte budget for the body (`Content-Length`).
    pub max_body_bytes: usize,
}

impl Default for Limits {
    fn default() -> Limits {
        Limits {
            max_head_bytes: 16 * 1024,
            max_body_bytes: 1024 * 1024,
        }
    }
}

/// One parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Uppercased method token (`GET`, `POST`, …).
    pub method: String,
    /// Request target as sent (path plus any query string).
    pub target: String,
    /// Protocol version token (`HTTP/1.1`).
    pub version: String,
    /// Header `(name, value)` pairs in arrival order.
    pub headers: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a header, case-insensitively.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// The path without any query string.
    pub fn path(&self) -> &str {
        self.target.split('?').next().unwrap_or(&self.target)
    }

    /// Did the client ask to drop the connection after this exchange?
    /// (HTTP/1.0 closes by default; HTTP/1.1 keeps alive by default.)
    pub fn wants_close(&self) -> bool {
        match self.header("connection") {
            Some(v) => v.eq_ignore_ascii_case("close"),
            None => self.version == "HTTP/1.0",
        }
    }
}

/// A protocol-level rejection: status plus human-readable detail, turned
/// into a JSON error body by [`Response::reject`].
#[derive(Debug, Clone)]
pub struct Reject {
    /// HTTP status to respond with (4xx/5xx).
    pub status: u16,
    /// One-line diagnosis, safe to echo to the client.
    pub detail: String,
}

impl Reject {
    /// Build a rejection.
    pub fn new(status: u16, detail: impl Into<String>) -> Reject {
        Reject {
            status,
            detail: detail.into(),
        }
    }
}

/// Why reading a request stopped.
#[derive(Debug)]
pub enum ReadError {
    /// Clean EOF before the first request byte: the keep-alive peer left.
    Closed,
    /// The socket timed out (idle keep-alive or a stalled sender).
    TimedOut,
    /// Any other transport error.
    Io(std::io::Error),
    /// Protocol violation: answer with the [`Reject`] and close.
    Bad(Reject),
}

impl From<std::io::Error> for ReadError {
    fn from(e: std::io::Error) -> ReadError {
        match e.kind() {
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => ReadError::TimedOut,
            _ => ReadError::Io(e),
        }
    }
}

/// Read one line (through `\n`) with a byte cap; returns the line without
/// the trailing `\r\n` and the raw byte count consumed.
fn read_line_bounded<R: BufRead>(
    r: &mut R,
    cap: usize,
    over_cap: &Reject,
) -> Result<(String, usize), ReadError> {
    let mut raw: Vec<u8> = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        let n = r.read(&mut byte)?;
        if n == 0 {
            if raw.is_empty() {
                return Err(ReadError::Closed);
            }
            return Err(ReadError::Bad(Reject::new(
                400,
                "connection closed mid-request",
            )));
        }
        if raw.len() >= cap {
            return Err(ReadError::Bad(over_cap.clone()));
        }
        if byte[0] == b'\n' {
            break;
        }
        raw.push(byte[0]);
    }
    if raw.last() == Some(&b'\r') {
        raw.pop();
    }
    let consumed = raw.len() + 2;
    match String::from_utf8(raw) {
        Ok(s) => Ok((s, consumed)),
        Err(_) => Err(ReadError::Bad(Reject::new(400, "non-UTF-8 request head"))),
    }
}

/// Read and validate one request from `r`.
pub fn read_request<R: BufRead>(r: &mut R, limits: &Limits) -> Result<Request, ReadError> {
    let head_cap = Reject::new(431, "request head exceeds limit");
    let (request_line, mut head_bytes) = read_line_bounded(r, limits.max_head_bytes, &head_cap)?;

    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => {
            (m.to_string(), t.to_string(), v.to_string())
        }
        _ => {
            return Err(ReadError::Bad(Reject::new(
                400,
                format!("malformed request line {request_line:?}"),
            )))
        }
    };
    if !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(ReadError::Bad(Reject::new(
            400,
            format!("malformed method {method:?}"),
        )));
    }
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(ReadError::Bad(Reject::new(
            505,
            format!("unsupported protocol version {version:?}"),
        )));
    }
    if !target.starts_with('/') {
        return Err(ReadError::Bad(Reject::new(
            400,
            format!("unsupported request target {target:?}"),
        )));
    }

    let mut headers: Vec<(String, String)> = Vec::new();
    loop {
        let budget = limits.max_head_bytes.saturating_sub(head_bytes);
        let (line, consumed) = read_line_bounded(r, budget, &head_cap)?;
        head_bytes += consumed;
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(ReadError::Bad(Reject::new(
                400,
                format!("malformed header line {line:?}"),
            )));
        };
        if name.is_empty() || name.contains(' ') {
            return Err(ReadError::Bad(Reject::new(
                400,
                format!("malformed header name {name:?}"),
            )));
        }
        headers.push((name.to_string(), value.trim().to_string()));
    }

    let mut req = Request {
        method,
        target,
        version,
        headers,
        body: Vec::new(),
    };

    if req.header("transfer-encoding").is_some() {
        return Err(ReadError::Bad(Reject::new(
            501,
            "chunked request bodies are not supported",
        )));
    }
    let content_length = match req.header("content-length") {
        None => 0usize,
        Some(v) => match v.parse::<usize>() {
            Ok(n) => n,
            Err(_) => {
                return Err(ReadError::Bad(Reject::new(
                    400,
                    format!("malformed Content-Length {v:?}"),
                )))
            }
        },
    };
    if content_length > limits.max_body_bytes {
        return Err(ReadError::Bad(Reject::new(
            413,
            format!(
                "body of {content_length} bytes exceeds the {}-byte limit",
                limits.max_body_bytes
            ),
        )));
    }
    if content_length > 0 {
        let mut body = vec![0u8; content_length];
        if let Err(e) = r.read_exact(&mut body) {
            return Err(match e.kind() {
                std::io::ErrorKind::UnexpectedEof => {
                    ReadError::Bad(Reject::new(400, "body shorter than Content-Length"))
                }
                _ => ReadError::from(e),
            });
        }
        req.body = body;
    }
    Ok(req)
}

/// Canonical reason phrase for the statuses this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Response",
    }
}

/// One complete (non-streamed) response.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Body bytes (sent with `Content-Length`).
    pub body: Vec<u8>,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Additional `(name, value)` headers.
    pub extra_headers: Vec<(String, String)>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Response {
        Response {
            status,
            body: body.into_bytes(),
            content_type: "application/json",
            extra_headers: Vec::new(),
        }
    }

    /// A structured JSON error body for a [`Reject`].
    pub fn reject(r: &Reject) -> Response {
        let detail =
            serde_json::to_string(&r.detail).unwrap_or_else(|_| "\"rejected\"".to_string());
        let mut resp = Response::json(
            r.status,
            format!("{{\"error\":{detail},\"status\":{}}}", r.status),
        );
        if r.status == 429 {
            resp.extra_headers
                .push(("Retry-After".to_string(), "1".to_string()));
        }
        resp
    }

    /// Attach one extra header.
    pub fn with_header(mut self, name: &str, value: String) -> Response {
        self.extra_headers.push((name.to_string(), value));
        self
    }
}

/// Write a complete response, head and body in one write (see the module
/// doc for why); `close` controls the `Connection` header.
pub fn write_response<W: Write>(w: &mut W, resp: &Response, close: bool) -> std::io::Result<()> {
    let mut msg = Vec::with_capacity(256 + resp.body.len());
    write!(
        msg,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        resp.status,
        reason(resp.status),
        resp.content_type,
        resp.body.len(),
        if close { "close" } else { "keep-alive" },
    )?;
    for (name, value) in &resp.extra_headers {
        write!(msg, "{name}: {value}\r\n")?;
    }
    msg.extend_from_slice(b"\r\n");
    msg.extend_from_slice(&resp.body);
    w.write_all(&msg)?;
    w.flush()
}

/// Incremental chunked-transfer response writer. The head, each chunk
/// (size line, data and trailing CRLF) and the terminator each leave in
/// one write; on a `TCP_NODELAY` socket no chunk waits for the ACK of the
/// one before it.
pub struct ChunkedWriter<'a, W: Write> {
    w: &'a mut W,
}

impl<'a, W: Write> ChunkedWriter<'a, W> {
    /// Write the response head and switch the connection to chunked
    /// transfer. The connection always closes after a stream: a chunked
    /// response interrupted by a slow-reader disconnect must not be
    /// followed by another exchange on the same socket.
    pub fn begin(
        w: &'a mut W,
        status: u16,
        content_type: &str,
    ) -> std::io::Result<ChunkedWriter<'a, W>> {
        let head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {content_type}\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
            status,
            reason(status),
        );
        w.write_all(head.as_bytes())?;
        w.flush()?;
        Ok(ChunkedWriter { w })
    }

    /// Write one chunk in one write (empty input is skipped: a
    /// zero-length chunk would terminate the stream).
    pub fn chunk(&mut self, data: &[u8]) -> std::io::Result<()> {
        if data.is_empty() {
            return Ok(());
        }
        let mut msg = Vec::with_capacity(data.len() + 20);
        write!(msg, "{:x}\r\n", data.len())?;
        msg.extend_from_slice(data);
        msg.extend_from_slice(b"\r\n");
        self.w.write_all(&msg)?;
        self.w.flush()
    }

    /// Terminate the stream.
    pub fn finish(self) -> std::io::Result<()> {
        self.w.write_all(b"0\r\n\r\n")?;
        self.w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> Result<Request, ReadError> {
        read_request(&mut BufReader::new(raw.as_bytes()), &Limits::default())
    }

    #[test]
    fn parses_a_simple_request() {
        let req =
            parse("POST /eval?x=1 HTTP/1.1\r\nHost: localhost\r\nContent-Length: 4\r\n\r\nbody")
                .expect("parses");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path(), "/eval");
        assert_eq!(req.header("host"), Some("localhost"));
        assert_eq!(req.header("HOST"), Some("localhost"));
        assert_eq!(req.body, b"body");
        assert!(!req.wants_close());
    }

    #[test]
    fn connection_close_and_http10_defaults() {
        let req = parse("GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n").expect("parses");
        assert!(req.wants_close());
        let req = parse("GET /healthz HTTP/1.0\r\n\r\n").expect("parses");
        assert!(req.wants_close());
    }

    #[test]
    fn malformed_requests_reject_not_panic() {
        for raw in [
            "not-http\r\n\r\n",
            "GET\r\n\r\n",
            "GET /x HTTP/1.1 extra\r\n\r\n",
            "get /x HTTP/1.1\r\n\r\n",
            "GET x HTTP/1.1\r\n\r\n",
            "GET /x HTTP/2.0\r\n\r\n",
            "GET /x HTTP/1.1\r\nbad header line\r\n\r\n",
            "GET /x HTTP/1.1\r\n: novalue\r\n\r\n",
            "POST /x HTTP/1.1\r\nContent-Length: banana\r\n\r\n",
            "POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
        ] {
            match parse(raw) {
                Err(ReadError::Bad(r)) => assert!(
                    (400..=505).contains(&r.status),
                    "{raw:?} → status {}",
                    r.status
                ),
                other => panic!("{raw:?} should be rejected, got {other:?}"),
            }
        }
    }

    #[test]
    fn eof_before_any_byte_is_closed_and_mid_request_is_bad() {
        assert!(matches!(parse(""), Err(ReadError::Closed)));
        assert!(matches!(
            parse("GET /x HTT"),
            Err(ReadError::Bad(r)) if r.status == 400
        ));
        assert!(matches!(
            parse("POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort"),
            Err(ReadError::Bad(r)) if r.status == 400
        ));
    }

    #[test]
    fn oversized_head_and_body_are_rejected() {
        let long_header = format!(
            "GET /x HTTP/1.1\r\nX-Big: {}\r\n\r\n",
            "a".repeat(Limits::default().max_head_bytes)
        );
        assert!(matches!(
            parse(&long_header),
            Err(ReadError::Bad(r)) if r.status == 431
        ));
        let big_body = format!(
            "POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            Limits::default().max_body_bytes + 1
        );
        assert!(matches!(
            parse(&big_body),
            Err(ReadError::Bad(r)) if r.status == 413
        ));
    }

    /// A sink that keeps the bytes of each `write` call apart, so a test
    /// can pin how many writes a message took as well as its bytes.
    #[derive(Default)]
    struct WriteLog {
        writes: Vec<Vec<u8>>,
    }

    impl WriteLog {
        fn text(&self) -> String {
            String::from_utf8(self.writes.concat()).expect("utf8")
        }
    }

    impl Write for WriteLog {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn response_wire_format() {
        let mut out = WriteLog::default();
        write_response(
            &mut out,
            &Response::json(200, "{\"ok\":true}".into()),
            false,
        )
        .expect("write");
        assert_eq!(out.writes.len(), 1, "head and body leave in one write");
        let text = out.text();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"));
    }

    #[test]
    fn reject_bodies_are_json_with_retry_after_on_429() {
        let resp = Response::reject(&Reject::new(429, "slow down \"now\""));
        assert_eq!(resp.status, 429);
        let body = String::from_utf8(resp.body.clone()).expect("utf8");
        let doc: serde_json::Value = serde_json::from_str(&body).expect("valid JSON");
        assert_eq!(doc["status"], 429u64);
        assert!(resp.extra_headers.iter().any(|(k, _)| k == "Retry-After"));
    }

    #[test]
    fn chunked_stream_format() {
        let mut out = WriteLog::default();
        {
            let mut cw = ChunkedWriter::begin(&mut out, 200, "application/json").expect("begin");
            cw.chunk(b"{\"a\":1}\n").expect("chunk");
            cw.chunk(b"").expect("empty chunk skipped");
            cw.chunk(b"{\"b\":2}\n").expect("chunk");
            cw.finish().expect("finish");
        }
        // head, one write per non-empty chunk, terminator
        assert_eq!(out.writes.len(), 4, "{:?}", out.writes);
        assert_eq!(out.writes[1], b"8\r\n{\"a\":1}\n\r\n");
        assert_eq!(out.writes[2], b"8\r\n{\"b\":2}\n\r\n");
        let text = out.text();
        assert!(text.contains("Transfer-Encoding: chunked"));
        assert!(text.contains("8\r\n{\"a\":1}\n\r\n"));
        assert!(text.ends_with("0\r\n\r\n"));
    }
}
