//! A hand-rolled HTTP/1.1 subset over [`std::net::TcpStream`], both ends
//! of the daemon's wire: the server reads requests under hard header/body
//! bounds and writes replies, [`crate::Client`] writes requests and reads
//! replies.
//!
//! The daemon carries its own wire layer for the same reason `sof_spec`
//! carries its own TOML/JSON: the build vendors no real third-party crates.
//! The subset is exactly what a JSON control plane needs — request line,
//! `Content-Length`-framed bodies, `Connection` negotiation — and every
//! violation maps to a status code, never a panic.
//!
//! Each end reads a connection through one [`reader`] for its whole life,
//! with one capped head scanner and one set of framing rules, so a message
//! that arrives in one segment costs one `read(2)` and pipelined requests
//! are answered in order; every message, request or reply, is one
//! `write(2)`.

use std::io::{self, BufRead, BufReader, ErrorKind, Read, Write};
use std::net::SocketAddr;

/// Hard cap on the request line plus all headers (bytes).
pub const MAX_HEAD: usize = 16 * 1024;

/// Hard cap on a reply's status line plus all headers (bytes).
pub const MAX_REPLY_HEAD: usize = 64 * 1024;

/// A parsed request.
#[derive(Clone, Debug)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, `DELETE`, …).
    pub method: String,
    /// The path component, query string stripped.
    pub path: String,
    /// Body bytes (`Content-Length`-framed; empty when absent).
    pub body: Vec<u8>,
    /// Whether the client asked to keep the connection open.
    pub keep_alive: bool,
}

/// Why [`read_request`] produced no request.
#[derive(Debug)]
pub enum ReadError {
    /// Clean end of stream before any request bytes — the peer hung up
    /// between requests; not an error.
    Closed,
    /// The read timed out mid-request (maps to 408).
    TimedOut,
    /// An I/O failure; the connection is unusable.
    Io(io::Error),
    /// A protocol violation with the status code to answer before closing.
    Bad {
        /// HTTP status to answer with (400 / 413 / 431 / 501).
        status: u16,
        /// Human-readable reason, returned verbatim in the error body.
        message: String,
    },
}

fn bad(status: u16, message: impl Into<String>) -> ReadError {
    ReadError::Bad {
        status,
        message: message.into(),
    }
}

fn map_io(e: io::Error) -> ReadError {
    match e.kind() {
        ErrorKind::WouldBlock | ErrorKind::TimedOut => ReadError::TimedOut,
        _ => ReadError::Io(e),
    }
}

/// The reading end of one connection. Build it once per connection, never
/// per message: bytes of a pipelined next message wait in its buffer for
/// the next [`read_request`] or [`read_response`], and a buffer dropped
/// between messages drops them.
pub fn reader<R: Read>(stream: R) -> BufReader<R> {
    BufReader::new(stream)
}

/// Whether `e` says the peer closed the connection.
pub(crate) fn closed(e: &io::Error) -> bool {
    use ErrorKind::*;
    matches!(e.kind(), ConnectionReset | ConnectionAborted | BrokenPipe)
}

/// Reads one message head, start line through blank line, of at most `cap`
/// bytes, and consumes nothing past it. Each fill is scanned from three
/// bytes back, so a blank line split across fills is found. Empty when the
/// peer closed before the first byte; `UnexpectedEof` mid-head and
/// `InvalidData` at `cap` bytes, kinds a socket's `read` never returns.
fn read_head<R: BufRead>(reader: &mut R, cap: usize) -> io::Result<Vec<u8>> {
    let mut head = Vec::with_capacity(512);
    loop {
        let buf = match reader.fill_buf() {
            Ok([]) if head.is_empty() => return Ok(head),
            Ok([]) => return Err(io::Error::new(ErrorKind::UnexpectedEof, "closed mid-head")),
            Ok(buf) => buf,
            Err(e) if head.is_empty() && closed(&e) => return Ok(head),
            Err(e) => return Err(e),
        };
        let start = head.len();
        let from = start.saturating_sub(3);
        let taken = buf.len().min(cap - start);
        head.extend_from_slice(&buf[..taken]);
        if let Some(at) = head[from..].windows(4).position(|w| w == b"\r\n\r\n") {
            let end = from + at + 4;
            reader.consume(end - start);
            head.truncate(end);
            return Ok(head);
        }
        reader.consume(taken);
        if head.len() == cap {
            let message = format!("head exceeds {cap} bytes");
            return Err(io::Error::new(ErrorKind::InvalidData, message));
        }
    }
}

/// The framing a head's header lines declare: the body's `Content-Length`
/// (0 when absent) and the `Connection` header's keep-alive choice, if one
/// is made. A refusal carries the status the server answers it with.
fn framing<'a>(
    lines: impl Iterator<Item = &'a str>,
) -> Result<(usize, Option<bool>), (u16, String)> {
    let (mut content_length, mut keep_alive) = (None::<usize>, None);
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        match name.to_ascii_lowercase().as_str() {
            "content-length" => {
                let n = value
                    .parse()
                    .map_err(|_| (400, format!("bad Content-Length '{value}'")))?;
                // Two framings that disagree are how requests get smuggled
                // past a proxy; refuse rather than let one of them win.
                if let Some(m) = content_length.filter(|&m| m != n) {
                    return Err((
                        400,
                        format!("conflicting Content-Length headers {m} and {n}"),
                    ));
                }
                content_length = Some(n);
            }
            "connection" => keep_alive = Some(!value.eq_ignore_ascii_case("close")),
            "transfer-encoding" => {
                return Err((
                    501,
                    "Transfer-Encoding is not supported; frame bodies with Content-Length".into(),
                ));
            }
            _ => {}
        }
    }
    Ok((content_length.unwrap_or(0), keep_alive))
}

/// Reads one request from the connection's [`reader`], honoring the
/// socket's read timeout and the `max_body` bound. Bytes past the request
/// stay buffered.
///
/// # Errors
///
/// [`ReadError::Closed`] on clean EOF before the first byte,
/// [`ReadError::TimedOut`] when the socket timeout expires mid-request,
/// [`ReadError::Bad`] for protocol violations (the caller answers with the
/// embedded status and closes), [`ReadError::Io`] otherwise.
pub fn read_request<R: BufRead>(reader: &mut R, max_body: usize) -> Result<Request, ReadError> {
    let head = read_head(reader, MAX_HEAD).map_err(|e| match e.kind() {
        ErrorKind::UnexpectedEof => bad(400, "connection closed mid-request"),
        ErrorKind::InvalidData => bad(431, "request head exceeds 16 KiB"),
        _ => map_io(e),
    })?;
    if head.is_empty() {
        return Err(ReadError::Closed);
    }
    let head = String::from_utf8_lossy(&head);
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_ascii_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) => (m.to_ascii_uppercase(), t, v),
        _ => return Err(bad(400, format!("malformed request line '{request_line}'"))),
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(bad(501, format!("unsupported protocol '{version}'")));
    }
    let path = target.split('?').next().unwrap_or("").to_string();
    let (content_length, keep_alive) = framing(lines).map_err(|(status, m)| bad(status, m))?;
    let keep_alive = keep_alive.unwrap_or(version == "HTTP/1.1");
    if content_length > max_body {
        return Err(bad(
            413,
            format!("request body of {content_length} bytes exceeds the {max_body}-byte limit"),
        ));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).map_err(map_io)?;
    Ok(Request {
        method,
        path,
        body,
        keep_alive,
    })
}

/// Reads one reply, `(status, body, close)`, from the connection's
/// [`reader`] with [`read_request`]'s head scanner, capped at
/// [`MAX_REPLY_HEAD`], and framing rules; `close` when the server sent
/// `Connection: close`. `None` when the server closed the connection
/// before the first byte (EOF, reset or abort): the request went unanswered.
///
/// # Errors
///
/// `UnexpectedEof` mid-reply; `InvalidData` for a head past the cap, a bad
/// status line or refused framing; else the socket's own error.
pub fn read_response<R: BufRead>(reader: &mut R) -> io::Result<Option<(u16, Vec<u8>, bool)>> {
    let invalid = |message: String| io::Error::new(ErrorKind::InvalidData, message);
    let head = read_head(reader, MAX_REPLY_HEAD)?;
    if head.is_empty() {
        return Ok(None);
    }
    let head = String::from_utf8_lossy(&head);
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let status = status_line
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| invalid(format!("bad status line '{status_line}'")))?;
    let (content_length, keep_alive) = framing(lines).map_err(|(_, m)| invalid(m))?;
    // The length is the peer's word: allocate only what arrives.
    let mut body = Vec::new();
    reader.take(content_length as u64).read_to_end(&mut body)?;
    if body.len() < content_length {
        return Err(io::Error::new(ErrorKind::UnexpectedEof, "closed mid-body"));
    }
    Ok(Some((status, body, keep_alive == Some(false))))
}

/// The canonical reason phrase for the status codes the daemon uses.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        _ => "Unknown",
    }
}

/// Writes one JSON response, head and body in one write. A trailing
/// newline after the body keeps `curl` output readable without changing
/// any parser's view.
///
/// # Errors
///
/// Propagates socket write failures; the caller drops the connection.
pub fn write_response<W: Write>(
    out: &mut W,
    status: u16,
    json_body: &str,
    keep_alive: bool,
) -> io::Result<()> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let reply = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {connection}\r\n\r\n{json_body}\n",
        reason(status),
        json_body.len() + 1,
    );
    out.write_all(reply.as_bytes())?;
    out.flush()
}

/// Writes one request as [`crate::Client`] sends it, a JSON body to the
/// daemon at `host`, head and body in one write.
///
/// # Errors
///
/// Propagates socket write failures.
pub fn write_request<W: Write>(
    out: &mut W,
    method: &str,
    path: &str,
    host: SocketAddr,
    body: &str,
) -> io::Result<()> {
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {host}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len(),
    );
    out.write_all(request.as_bytes())?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counts the `read` / `write` calls that reach the wrapped peer.
    struct Counted<T> {
        inner: T,
        calls: usize,
    }

    impl<T> Counted<T> {
        fn new(inner: T) -> Counted<T> {
            Counted { inner, calls: 0 }
        }
    }

    impl<T: Read> Read for Counted<T> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.calls += 1;
            self.inner.read(buf)
        }
    }

    impl<T: Write> Write for Counted<T> {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.calls += 1;
            self.inner.write(buf)
        }

        fn flush(&mut self) -> io::Result<()> {
            self.inner.flush()
        }
    }

    /// A join as `Client` has always sent it: 112 bytes of head, 17 of
    /// body. `write_request` is held to these bytes.
    const JOIN: &[u8] = b"POST /v1/sessions/1/join HTTP/1.1\r\nHost: 127.0.0.1:40000\r\n\
        Content-Type: application/json\r\nContent-Length: 17\r\n\r\n{\"destination\":5}";
    const STATS: &[u8] = b"GET /v1/stats HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n";

    fn is_join(req: &Request) -> bool {
        req.method == "POST"
            && req.path == "/v1/sessions/1/join"
            && req.body == b"{\"destination\":5}"
            && req.keep_alive
    }

    fn status_of(e: ReadError) -> (u16, String) {
        match e {
            ReadError::Bad { status, message } => (status, message),
            other => panic!("wanted a status, got {other:?}"),
        }
    }

    /// The work witness of the connection reader: a request whose head and
    /// body are already delivered costs one `read`, where reading the head
    /// byte by byte cost 112 and the body one more.
    #[test]
    fn a_request_delivered_at_once_is_one_read() {
        let mut wire = reader(Counted::new(JOIN));
        let req = read_request(&mut wire, 1 << 20).unwrap();
        assert!(is_join(&req), "{req:?}");
        assert!(wire.get_ref().calls <= 1, "{} reads", wire.get_ref().calls);
    }

    /// The work witness of the client's reader: a reply whose head and body
    /// are already delivered costs one `read`, where reading the head byte
    /// by byte cost one per head byte (95 here) and the body one more.
    #[test]
    fn a_response_delivered_at_once_is_one_read() {
        let mut sent = Vec::new();
        write_response(&mut sent, 200, "{\"ok\":true}", true).unwrap();
        let mut wire = reader(Counted::new(sent.as_slice()));
        let reply = read_response(&mut wire).unwrap();
        assert_eq!(reply, Some((200, b"{\"ok\":true}\n".to_vec(), false)));
        assert!(wire.get_ref().calls <= 1, "{} reads", wire.get_ref().calls);
    }

    /// The bytes of a pipelined second request stay buffered for the next
    /// call: the pair costs at most two `read`s and is read in order.
    #[test]
    fn a_pipelined_pair_is_at_most_two_reads() {
        let pair = [JOIN, STATS].concat();
        let mut wire = reader(Counted::new(pair.as_slice()));
        assert!(is_join(&read_request(&mut wire, 1 << 20).unwrap()));
        let stats = read_request(&mut wire, 1 << 20).unwrap();
        assert_eq!(
            (stats.method.as_str(), stats.path.as_str()),
            ("GET", "/v1/stats")
        );
        assert!(!stats.keep_alive && stats.body.is_empty());
        assert!(wire.get_ref().calls <= 2, "{} reads", wire.get_ref().calls);
        assert!(matches!(
            read_request(&mut wire, 1 << 20),
            Err(ReadError::Closed)
        ));
    }

    /// Fills of every small size split the blank line at every offset, and
    /// each still reads the same two requests.
    #[test]
    fn a_terminator_split_across_fills_is_found() {
        let pair = [JOIN, STATS].concat();
        for capacity in 1..=7 {
            let mut wire = BufReader::with_capacity(capacity, pair.as_slice());
            assert!(
                is_join(&read_request(&mut wire, 1 << 20).unwrap()),
                "{capacity}"
            );
            let stats = read_request(&mut wire, 1 << 20).unwrap();
            assert_eq!(stats.path, "/v1/stats", "{capacity}");
        }
    }

    /// A head of exactly 16 KiB, blank line included, is read; 16 KiB with
    /// no blank line yet is a 431 without waiting for more.
    #[test]
    fn the_head_cap_is_sixteen_kib_inclusive() {
        let line = b"GET /healthz HTTP/1.1\r\nX-Pad: ";
        let pad = MAX_HEAD - line.len() - 4;
        let full = [&line[..], &vec![b'a'; pad], b"\r\n\r\n"].concat();
        for capacity in [1, 7, 8192] {
            let mut wire = BufReader::with_capacity(capacity, full.as_slice());
            assert_eq!(read_request(&mut wire, 0).unwrap().path, "/healthz");
            let over = [&line[..], &vec![b'a'; pad + 1], b"\r\n\r\n"].concat();
            let mut wire = BufReader::with_capacity(capacity, over.as_slice());
            let (status, _) = status_of(read_request(&mut wire, 0).unwrap_err());
            assert_eq!(status, 431, "{capacity}");
        }
    }

    /// Two `Content-Length` headers that disagree are a 400 naming both;
    /// identical ones frame the body as one would.
    #[test]
    fn conflicting_content_lengths_are_refused() {
        let twice = |a: &str, b: &str| {
            format!("POST /v1/sessions HTTP/1.1\r\nContent-Length: {a}\r\nContent-Length: {b}\r\n\r\n{{}}")
        };
        let req = twice("2", "2");
        let req = read_request(&mut reader(req.as_bytes()), 1 << 20).unwrap();
        assert_eq!(req.body, b"{}");
        let req = twice("2", "7");
        let (status, message) =
            status_of(read_request(&mut reader(req.as_bytes()), 1 << 20).unwrap_err());
        assert_eq!(status, 400);
        assert_eq!(message, "conflicting Content-Length headers 2 and 7");
    }

    /// Every request is one `write` of the bytes the client has always sent,
    /// where head and body written apart were two.
    #[test]
    fn a_request_is_one_write_of_the_same_bytes() {
        let mut out = Counted::new(Vec::new());
        let host = "127.0.0.1:40000".parse().unwrap();
        write_request(
            &mut out,
            "POST",
            "/v1/sessions/1/join",
            host,
            "{\"destination\":5}",
        )
        .unwrap();
        assert_eq!(out.calls, 1);
        assert_eq!(out.inner, JOIN);
    }

    /// Every reply is one `write` of the bytes the daemon has always sent.
    #[test]
    fn a_reply_is_one_write_of_the_same_bytes() {
        let cases: [(u16, &str, bool, &str); 2] = [
            (
                200,
                "{\"ok\":true}",
                true,
                "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 12\r\n\
                 Connection: keep-alive\r\n\r\n{\"ok\":true}\n",
            ),
            (
                413,
                "{\"error\":\"too big\"}",
                false,
                "HTTP/1.1 413 Payload Too Large\r\nContent-Type: application/json\r\n\
                 Content-Length: 20\r\nConnection: close\r\n\r\n{\"error\":\"too big\"}\n",
            ),
        ];
        for (status, body, keep_alive, want) in cases {
            let mut out = Counted::new(Vec::new());
            write_response(&mut out, status, body, keep_alive).unwrap();
            assert_eq!(out.calls, 1, "{status}");
            assert_eq!(String::from_utf8(out.inner).unwrap(), want);
        }
    }
}
