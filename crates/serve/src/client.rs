//! A small blocking HTTP/1.1 client for the load generator, the smoke
//! harness, and the integration tests.
//!
//! Speaks exactly the subset the server emits: `Content-Length` bodies
//! and chunked transfer (decoded transparently into the response body).
//! [`Conn`] holds one keep-alive connection for multiple exchanges;
//! [`once`] is the connect-request-close convenience.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One parsed response.
#[derive(Debug, Clone)]
pub struct HttpResponse {
    /// Status code.
    pub status: u16,
    /// Header `(name, value)` pairs in arrival order.
    pub headers: Vec<(String, String)>,
    /// Body bytes (chunked transfer already decoded).
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// First value of a header, case-insensitively.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Body as UTF-8 (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

fn bad(detail: impl Into<String>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, detail.into())
}

/// One keep-alive client connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    /// Connect to `addr` with `timeout` applied to connect/read/write.
    /// Like the server, the client sends each request in one write on a
    /// `TCP_NODELAY` socket, so a keep-alive exchange never waits for the
    /// server's delayed ACK (see [`crate::http`]).
    pub fn connect(addr: SocketAddr, timeout: Duration) -> std::io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        let read_half = stream.try_clone()?;
        Ok(Conn {
            reader: BufReader::new(read_half),
            writer: stream,
        })
    }

    /// Perform one exchange on this connection.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> std::io::Result<HttpResponse> {
        let mut msg = Vec::with_capacity(256 + body.len());
        write!(msg, "{method} {path} HTTP/1.1\r\nHost: squ-serve\r\n")?;
        for (name, value) in headers {
            write!(msg, "{name}: {value}\r\n")?;
        }
        if !body.is_empty() || method == "POST" {
            write!(msg, "Content-Length: {}\r\n", body.len())?;
        }
        msg.extend_from_slice(b"\r\n");
        msg.extend_from_slice(body);
        self.writer.write_all(&msg)?;
        self.writer.flush()?;
        read_response(&mut self.reader)
    }
}

/// Connect, perform one exchange, and close.
pub fn once(
    addr: SocketAddr,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &[u8],
    timeout: Duration,
) -> std::io::Result<HttpResponse> {
    let mut conn = Conn::connect(addr, timeout)?;
    conn.request(method, path, headers, body)
}

fn read_line(reader: &mut BufReader<TcpStream>) -> std::io::Result<String> {
    let mut line = String::new();
    let n = reader.read_line(&mut line)?;
    if n == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "connection closed",
        ));
    }
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(line)
}

pub(crate) fn read_response(reader: &mut BufReader<TcpStream>) -> std::io::Result<HttpResponse> {
    let status_line = read_line(reader)?;
    let mut parts = status_line.splitn(3, ' ');
    let (Some(version), Some(code)) = (parts.next(), parts.next()) else {
        return Err(bad(format!("malformed status line {status_line:?}")));
    };
    if !version.starts_with("HTTP/1.") {
        return Err(bad(format!("unexpected protocol {version:?}")));
    }
    let status: u16 = code
        .parse()
        .map_err(|_| bad(format!("malformed status code {code:?}")))?;

    let mut headers: Vec<(String, String)> = Vec::new();
    loop {
        let line = read_line(reader)?;
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(bad(format!("malformed response header {line:?}")));
        };
        headers.push((name.to_string(), value.trim().to_string()));
    }

    let header = |name: &str| {
        headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    };

    let body = if header("transfer-encoding")
        .map(|v| v.eq_ignore_ascii_case("chunked"))
        .unwrap_or(false)
    {
        read_chunked(reader)?
    } else {
        let len: usize = header("content-length")
            .unwrap_or("0")
            .parse()
            .map_err(|_| bad("malformed Content-Length"))?;
        let mut body = vec![0u8; len];
        reader.read_exact(&mut body)?;
        body
    };
    Ok(HttpResponse {
        status,
        headers,
        body,
    })
}

fn read_chunked(reader: &mut BufReader<TcpStream>) -> std::io::Result<Vec<u8>> {
    let mut body = Vec::new();
    loop {
        let size_line = read_line(reader)?;
        let size = usize::from_str_radix(size_line.trim(), 16)
            .map_err(|_| bad(format!("malformed chunk size {size_line:?}")))?;
        if size == 0 {
            // trailing CRLF after the last chunk (no trailers supported)
            let _ = read_line(reader);
            return Ok(body);
        }
        let mut chunk = vec![0u8; size];
        reader.read_exact(&mut chunk)?;
        body.extend_from_slice(&chunk);
        let sep = read_line(reader)?;
        if !sep.is_empty() {
            return Err(bad("missing CRLF after chunk"));
        }
    }
}
