//! The serving loop: a [`std::net::TcpListener`] accept thread spawning
//! one connection thread per client (keep-alive honored), plus the
//! janitor thread that expires TTL'd sessions.
//!
//! Shutdown is graceful by construction: [`ServerHandle::stop`] raises the
//! stop flag, pokes the accept loop awake, and then *joins* it — and the
//! accept loop in turn joins every connection thread, so in-flight
//! requests finish and get their responses before `stop` returns.

use crate::http::{self, ReadError};
use crate::registry::Registry;
use crate::router;
use crate::wire::ApiError;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Tuning for one daemon instance.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; port `0` picks an ephemeral port (the bound address
    /// is on [`ServerHandle::addr`]).
    pub addr: String,
    /// TTL for sessions that pin no `ttl_secs` of their own
    /// (`None` = never expire).
    pub default_ttl: Option<Duration>,
    /// Per-request socket timeout: reading a request and writing its
    /// response must each make progress within this budget.
    pub read_timeout: Duration,
    /// Hard request-body cap in bytes (larger bodies get a 413).
    pub max_body: usize,
    /// How often the janitor sweeps for expired sessions.
    pub janitor_period: Duration,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            default_ttl: None,
            read_timeout: Duration::from_secs(10),
            max_body: 1 << 20,
            janitor_period: Duration::from_millis(200),
        }
    }
}

/// The daemon entry point; see [`Server::start`].
pub struct Server;

/// A running daemon: the bound address plus the handles needed to stop it.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    janitor: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the accept and janitor threads, and returns
    /// immediately.
    ///
    /// # Errors
    ///
    /// The bind failure, verbatim.
    pub fn start(config: ServerConfig) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let registry = Arc::new(RwLock::new(Registry::new(config.default_ttl)));

        let accept = {
            let registry = Arc::clone(&registry);
            let stop = Arc::clone(&stop);
            let config = config.clone();
            thread::spawn(move || accept_loop(listener, registry, stop, config))
        };
        let janitor = {
            let registry = Arc::clone(&registry);
            let stop = Arc::clone(&stop);
            let period = config.janitor_period;
            thread::spawn(move || janitor_loop(registry, stop, period))
        };
        Ok(ServerHandle {
            addr,
            stop,
            accept: Some(accept),
            janitor: Some(janitor),
        })
    }
}

impl ServerHandle {
    /// The bound address (resolves port `0` binds).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// `http://host:port` for this daemon.
    pub fn base_url(&self) -> String {
        format!("http://{}", self.addr)
    }

    /// Whether a stop has been requested (via [`ServerHandle::stop`], the
    /// [`stop_signal`](ServerHandle::stop_signal), or a client's
    /// `POST /v1/shutdown`).
    pub fn stop_requested(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    /// A clone of the stop flag, for wiring external stop sources (e.g. a
    /// stdin watcher) to this daemon.
    pub fn stop_signal(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.stop)
    }

    /// Graceful shutdown: raises the stop flag, wakes the accept loop,
    /// and joins every thread — in-flight requests have completed (and
    /// been answered) by the time this returns.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        // The accept loop sits in a blocking accept; a throwaway
        // connection wakes it so it can observe the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        if let Some(h) = self.janitor.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(
    listener: TcpListener,
    registry: Arc<RwLock<Registry>>,
    stop: Arc<AtomicBool>,
    config: ServerConfig,
) {
    let mut workers: Vec<JoinHandle<()>> = Vec::new();
    let serve = |stream: TcpStream, workers: &mut Vec<JoinHandle<()>>| {
        workers.retain(|h| !h.is_finished());
        let registry = Arc::clone(&registry);
        let stop = Arc::clone(&stop);
        let config = config.clone();
        workers.push(thread::spawn(move || {
            handle_connection(stream, &registry, &stop, &config);
        }));
    };
    for conn in listener.incoming() {
        let stopping = stop.load(Ordering::Acquire);
        if let Ok(stream) = conn {
            // Serve even the connection that delivered the stop signal: it
            // may be a real client that raced the shutdown wake-up, and a
            // throwaway wake connection just reads EOF and closes.
            serve(stream, &mut workers);
        }
        if stopping {
            break;
        }
    }
    // Drain the backlog: a connection whose request was already written
    // when stop was raised is still accepted and answered. `WouldBlock`
    // means the queue is empty and shutdown can proceed.
    let _ = listener.set_nonblocking(true);
    while let Ok((stream, _)) = listener.accept() {
        let _ = stream.set_nonblocking(false);
        serve(stream, &mut workers);
    }
    // Drain: every in-flight connection finishes its current request and
    // closes before shutdown completes.
    for h in workers {
        let _ = h.join();
    }
}

fn janitor_loop(registry: Arc<RwLock<Registry>>, stop: Arc<AtomicBool>, period: Duration) {
    let nap = period.min(Duration::from_millis(25));
    let mut slept = Duration::ZERO;
    loop {
        if stop.load(Ordering::Acquire) {
            return;
        }
        thread::sleep(nap);
        slept += nap;
        if slept >= period {
            slept = Duration::ZERO;
            router::write(&registry).expire(std::time::Instant::now());
        }
    }
}

fn handle_connection(
    stream: TcpStream,
    registry: &RwLock<Registry>,
    stop: &AtomicBool,
    config: &ServerConfig,
) {
    let _ = stream.set_read_timeout(Some(config.read_timeout));
    let _ = stream.set_write_timeout(Some(config.read_timeout));
    let _ = stream.set_nodelay(true);
    let mut reader = http::reader(&stream);
    let mut writer = &stream;
    loop {
        match http::read_request(&mut reader, config.max_body) {
            Ok(req) => {
                let (status, body) = router::route(registry, stop, &req);
                let keep = req.keep_alive && !stop.load(Ordering::Acquire);
                if http::write_response(&mut writer, status, &body, keep).is_err() || !keep {
                    return;
                }
            }
            Err(ReadError::Closed) | Err(ReadError::Io(_)) => return,
            Err(ReadError::TimedOut) => {
                let e = ApiError {
                    status: 408,
                    message: format!(
                        "no complete request within {:.1}s",
                        config.read_timeout.as_secs_f64()
                    ),
                };
                router::read(registry).count(true);
                let _ = http::write_response(&mut writer, e.status, &e.to_json(), false);
                return;
            }
            Err(ReadError::Bad { status, message }) => {
                let e = ApiError { status, message };
                router::read(registry).count(true);
                let _ = http::write_response(&mut writer, e.status, &e.to_json(), false);
                return;
            }
        }
    }
}
