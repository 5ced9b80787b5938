//! A minimal blocking HTTP/1.1 client for the daemon's wire API — used by
//! the integration tests and the repo benchmark's `daemon-mixed` workload.
//!
//! One [`Client`] holds one keep-alive connection and reconnects
//! transparently when the server closed it (e.g. after an error response
//! or a shutdown race).

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A keep-alive connection to one daemon.
pub struct Client {
    addr: SocketAddr,
    timeout: Duration,
    stream: Option<TcpStream>,
}

impl Client {
    /// A client for the daemon at `addr`. No connection is opened until
    /// the first request.
    pub fn new(addr: SocketAddr) -> Client {
        Client {
            addr,
            timeout: Duration::from_secs(10),
            stream: None,
        }
    }

    /// Replaces the per-request socket timeout (default 10 s).
    pub fn with_timeout(mut self, timeout: Duration) -> Client {
        self.timeout = timeout;
        self
    }

    fn connect(&mut self) -> io::Result<&mut TcpStream> {
        if self.stream.is_none() {
            let stream = TcpStream::connect_timeout(&self.addr, self.timeout)?;
            stream.set_read_timeout(Some(self.timeout))?;
            stream.set_write_timeout(Some(self.timeout))?;
            stream.set_nodelay(true)?;
            self.stream = Some(stream);
        }
        Ok(self.stream.as_mut().expect("just set"))
    }

    fn try_request(&mut self, method: &str, path: &str, body: &str) -> io::Result<(u16, String)> {
        let addr = self.addr;
        let stream = self.connect()?;
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            body.len(),
        );
        stream.write_all(head.as_bytes())?;
        stream.write_all(body.as_bytes())?;
        stream.flush()?;
        let (status, body, close) = read_response(stream)?;
        if close {
            self.stream = None;
        }
        Ok((status, body))
    }

    /// Issues one request and returns `(status, body)`. Retries once on a
    /// fresh connection when the kept-alive one turns out to be dead.
    ///
    /// # Errors
    ///
    /// The final connection or protocol failure.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> io::Result<(u16, String)> {
        let retry = self.stream.is_some();
        match self.try_request(method, path, body) {
            Ok(r) => Ok(r),
            Err(e) => {
                self.stream = None;
                if retry {
                    self.try_request(method, path, body)
                } else {
                    Err(e)
                }
            }
        }
    }
}

/// Reads one `Content-Length`-framed response; the flag reports whether
/// the server announced `Connection: close`.
fn read_response(stream: &mut TcpStream) -> io::Result<(u16, String, bool)> {
    let mut head = Vec::with_capacity(256);
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        if stream.read(&mut byte)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-response",
            ));
        }
        head.push(byte[0]);
        if head.len() > 64 * 1024 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "response head too large",
            ));
        }
    }
    let head = String::from_utf8_lossy(&head);
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let status: u16 = status_line
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad status line '{status_line}'"),
            )
        })?;
    let mut content_length = 0usize;
    let mut close = false;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        match name.to_ascii_lowercase().as_str() {
            "content-length" => {
                let value = value.trim();
                content_length = value.parse().map_err(|_| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("bad Content-Length '{value}'"),
                    )
                })?;
            }
            "connection" => close = value.trim().eq_ignore_ascii_case("close"),
            _ => {}
        }
    }
    let mut body = vec![0u8; content_length];
    stream.read_exact(&mut body)?;
    let body = String::from_utf8_lossy(&body).trim_end().to_string();
    Ok((status, body, close))
}
