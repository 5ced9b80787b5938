//! A minimal blocking HTTP/1.1 client for the daemon's wire API — used by
//! the integration tests and the repo benchmark's `daemon-mixed` workload.
//!
//! One [`Client`] holds one keep-alive connection, read through one
//! [`http::reader`] for the connection's life. A request that finds the
//! kept connection closed before any reply byte (EOF, reset, broken pipe or
//! abort — the server closes after an error reply or on shutdown) is sent
//! once more on a fresh connection. Nothing else is re-sent: after a
//! timeout or an unreadable reply the daemon may have acted on the request,
//! and a create sent twice embeds two sessions.

use std::io::{self, BufReader, ErrorKind};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use crate::http;

/// A keep-alive connection to one daemon.
pub struct Client {
    addr: SocketAddr,
    timeout: Duration,
    conn: Option<BufReader<TcpStream>>,
}

impl Client {
    /// A client for the daemon at `addr`. No connection is opened until
    /// the first request.
    pub fn new(addr: SocketAddr) -> Client {
        Client {
            addr,
            timeout: Duration::from_secs(10),
            conn: None,
        }
    }

    /// Replaces the per-request socket timeout (default 10 s).
    pub fn with_timeout(mut self, timeout: Duration) -> Client {
        self.timeout = timeout;
        self
    }

    fn connect(&self) -> io::Result<BufReader<TcpStream>> {
        let stream = TcpStream::connect_timeout(&self.addr, self.timeout)?;
        stream.set_read_timeout(Some(self.timeout))?;
        stream.set_write_timeout(Some(self.timeout))?;
        stream.set_nodelay(true)?;
        Ok(http::reader(stream))
    }

    /// Sends one request on `conn`, or on a fresh connection, and reads its
    /// reply; the connection is kept unless the reply closes it. `None`
    /// when the connection turned out closed before any reply byte.
    fn exchange(
        &mut self,
        conn: Option<BufReader<TcpStream>>,
        method: &str,
        path: &str,
        body: &str,
    ) -> io::Result<Option<(u16, Vec<u8>)>> {
        let mut conn = conn.map_or_else(|| self.connect(), Ok)?;
        match http::write_request(conn.get_mut(), method, path, self.addr, body) {
            Err(e) if http::closed(&e) => return Ok(None),
            sent => sent?,
        }
        let Some((status, body, close)) = http::read_response(&mut conn)? else {
            return Ok(None);
        };
        if !close {
            self.conn = Some(conn);
        }
        Ok(Some((status, body)))
    }

    /// Issues one request and returns `(status, body)`. Sends it once more
    /// on a fresh connection when the kept-alive one turns out closed
    /// before any reply byte; never after a timeout or a bad reply.
    ///
    /// # Errors
    ///
    /// The final connection or protocol failure.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> io::Result<(u16, String)> {
        let kept = self.conn.take();
        let reused = kept.is_some();
        let mut reply = self.exchange(kept, method, path, body);
        if reused && matches!(reply, Ok(None)) {
            reply = self.exchange(None, method, path, body);
        }
        let (status, body) = reply?.ok_or_else(|| {
            io::Error::new(
                ErrorKind::UnexpectedEof,
                "connection closed before the reply",
            )
        })?;
        Ok((
            status,
            String::from_utf8_lossy(&body).trim_end().to_string(),
        ))
    }
}
