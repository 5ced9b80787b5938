//! Maps `(method, path)` onto [`Registry`] operations.
//!
//! Routing never panics the connection thread: handler panics are caught
//! and answered as 500s, and every malformed request gets a 4xx naming
//! what was wrong with it.

use crate::http::Request;
use crate::registry::Registry;
use crate::wire::{ApiError, Body};
use sof_spec::value::{write_json, Value};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Takes the registry's shared lock, recovering from poisoning — a
/// panicking handler must not brick the whole daemon. Read-only routes
/// (and the per-route request counting) go through here so they run beside
/// each other; each still waits while a write holds the lock, embeds
/// included (ROADMAP item 1(b)).
pub fn read(registry: &RwLock<Registry>) -> RwLockReadGuard<'_, Registry> {
    registry.read().unwrap_or_else(|e| e.into_inner())
}

/// Takes the registry's exclusive lock, recovering from poisoning. Every
/// route parses its body first: in `write(registry).f(Body::parse(..)?)`
/// the receiver is evaluated first, so up to `max_body` of JSON would be
/// parsed while every other request waits.
pub fn write(registry: &RwLock<Registry>) -> RwLockWriteGuard<'_, Registry> {
    registry.write().unwrap_or_else(|e| e.into_inner())
}

fn method_not_allowed(req: &Request, allowed: &str) -> ApiError {
    ApiError {
        status: 405,
        message: format!(
            "{} is not allowed on {} (use {allowed})",
            req.method, req.path
        ),
    }
}

fn session_id(seg: &str) -> Result<u64, ApiError> {
    seg.parse()
        .map_err(|_| ApiError::bad_request(format!("session id must be an integer, got '{seg}'")))
}

fn dispatch(
    registry: &RwLock<Registry>,
    stop: &AtomicBool,
    req: &Request,
) -> Result<Value, ApiError> {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    let method = req.method.as_str();
    match segments.as_slice() {
        ["healthz"] => match method {
            "GET" => Ok(read(registry).healthz()),
            _ => Err(method_not_allowed(req, "GET")),
        },
        ["v1", "stats"] => match method {
            "GET" => Ok(read(registry).stats_value()),
            _ => Err(method_not_allowed(req, "GET")),
        },
        ["v1", "topologies"] => match method {
            "POST" => {
                let body = Body::parse(&req.body)?;
                write(registry).create_topology(body)
            }
            _ => Err(method_not_allowed(req, "POST")),
        },
        ["v1", "sessions"] => match method {
            "POST" => {
                let body = Body::parse(&req.body)?;
                write(registry).create_session(body)
            }
            _ => Err(method_not_allowed(req, "POST")),
        },
        ["v1", "sessions", id] => {
            let id = session_id(id)?;
            match method {
                "GET" => read(registry).session_get(id),
                "DELETE" => write(registry).session_delete(id),
                _ => Err(method_not_allowed(req, "GET or DELETE")),
            }
        }
        ["v1", "sessions", id, op @ ("join" | "leave" | "fail" | "repair")] => {
            let id = session_id(id)?;
            if method != "POST" {
                return Err(method_not_allowed(req, "POST"));
            }
            let body = Body::parse(&req.body)?;
            match *op {
                "join" => write(registry).session_join(id, body),
                "leave" => write(registry).session_leave(id, body),
                "fail" => write(registry).session_fail(id, body),
                _ => write(registry).session_repair(id, body),
            }
        }
        ["v1", "shutdown"] => match method {
            "POST" => {
                stop.store(true, Ordering::Release);
                let mut v = Value::table();
                v.set("stopping", Value::Bool(true));
                Ok(v)
            }
            _ => Err(method_not_allowed(req, "POST")),
        },
        _ => Err(ApiError::not_found(format!(
            "no route for {} {} (endpoints: /healthz, /v1/stats, /v1/topologies, \
             /v1/sessions[/{{id}}[/join|leave|fail|repair]], /v1/shutdown)",
            req.method, req.path
        ))),
    }
}

/// Routes one request and returns `(status, JSON body)`. Handler panics
/// become 500s; every response is counted in the registry's totals.
pub fn route(registry: &RwLock<Registry>, stop: &AtomicBool, req: &Request) -> (u16, String) {
    let outcome = catch_unwind(AssertUnwindSafe(|| dispatch(registry, stop, req)));
    let (status, body) = match outcome {
        Ok(Ok(value)) => (200, write_json(&value)),
        Ok(Err(e)) => (e.status, e.to_json()),
        Err(_) => {
            let e = ApiError {
                status: 500,
                message: format!("internal error handling {} {}", req.method, req.path),
            };
            (e.status, e.to_json())
        }
    };
    read(registry).count(status >= 400);
    (status, body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{mpsc, Arc};
    use std::thread;
    use std::time::Duration;

    #[test]
    fn a_create_body_is_parsed_before_the_write_lock() {
        // A malformed create is a 400 while a reader holds the registry:
        // its body never waits for the exclusive lock. Fails, by timing
        // out, when a create route takes `write` before `Body::parse`.
        let registry = Arc::new(RwLock::new(Registry::new(None)));
        let held = read(&registry);
        let (tx, rx) = mpsc::channel();
        let shared = Arc::clone(&registry);
        let worker = thread::spawn(move || {
            for path in ["/v1/topologies", "/v1/sessions"] {
                let req = Request {
                    method: "POST".into(),
                    path: path.into(),
                    body: b"{".to_vec(),
                    keep_alive: false,
                };
                let _ = tx.send(route(&shared, &AtomicBool::new(false), &req).0);
            }
        });
        for path in ["/v1/topologies", "/v1/sessions"] {
            let status = rx.recv_timeout(Duration::from_secs(10));
            assert_eq!(status, Ok(400), "POST {path} waited for the lock");
        }
        drop(held);
        worker.join().expect("the routing thread panicked");
    }
}
