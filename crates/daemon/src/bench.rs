//! The closed-loop daemon benchmark behind `sof serve-bench`: N client
//! threads, each holding one keep-alive connection, drive the wire API as
//! fast as the daemon answers; the report carries requests/sec and
//! p50/p99 latency (the `BENCH_8` trajectory entry).

use crate::client::Client;
use sof_spec::field::put;
use sof_spec::value::{parse_json, write_json, Value};
use std::io;
use std::net::SocketAddr;
use std::time::Instant;

/// Shape of one benchmark run.
#[derive(Clone, Copy, Debug)]
pub struct BenchOptions {
    /// Concurrent connections (one client thread each).
    pub connections: usize,
    /// Total request target across all connections (floored at 4 per
    /// connection: create + join + leave + delete).
    pub requests: usize,
}

impl Default for BenchOptions {
    fn default() -> BenchOptions {
        BenchOptions {
            connections: 4,
            requests: 2000,
        }
    }
}

/// What a run measured.
#[derive(Clone, Copy, Debug)]
pub struct BenchReport {
    /// Connections driven.
    pub connections: usize,
    /// Requests completed (success or 4xx — both are answered requests).
    pub requests: usize,
    /// Responses with an unexpected status, or transport failures.
    pub errors: usize,
    /// Wall-clock for the whole run (ms).
    pub wall_ms: f64,
    /// Completed requests per wall-clock second.
    pub requests_per_sec: f64,
    /// Median request latency (ms).
    pub p50_ms: f64,
    /// 99th-percentile request latency (ms).
    pub p99_ms: f64,
}

impl BenchReport {
    /// The report as one JSON object.
    pub fn to_json(&self) -> String {
        let rounded = |x: f64, unit: f64| (x * unit).round() / unit;
        let mut v = Value::table();
        put(&mut v, "connections", &self.connections);
        put(&mut v, "requests", &self.requests);
        put(&mut v, "errors", &self.errors);
        put(&mut v, "wall_ms", &rounded(self.wall_ms, 10.0));
        put(
            &mut v,
            "requests_per_sec",
            &rounded(self.requests_per_sec, 10.0),
        );
        put(&mut v, "p50_ms", &rounded(self.p50_ms, 1000.0));
        put(&mut v, "p99_ms", &rounded(self.p99_ms, 1000.0));
        write_json(&v)
    }
}

/// The two-region topology every benchmark session embeds on. Access
/// nodes 0–5 are us-east (DCs among them), 6–11 eu-west.
const BENCH_TOPOLOGY: &str = r#"{"name":"bench","regions":[
  {"name":"us-east","nodes":6,"dcs":2},
  {"name":"eu-west","nodes":6,"dcs":2}
],"gateway_links":2,"seed":7}"#;

/// Registers the benchmark topology (idempotent: an already-registered
/// `bench` topology is fine).
///
/// # Errors
///
/// Transport failures, or an unexpected (non-200/409) response status.
pub fn register_bench_topology(addr: SocketAddr) -> io::Result<()> {
    let mut client = Client::new(addr);
    let (status, body) = client.request("POST", "/v1/topologies", BENCH_TOPOLOGY)?;
    if status == 200 || status == 409 {
        Ok(())
    } else {
        Err(io::Error::other(format!(
            "registering the bench topology failed with {status}: {body}"
        )))
    }
}

fn percentile(sorted_ms: &[f64], pct: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() as f64 - 1.0) * pct).round() as usize;
    sorted_ms[idx.min(sorted_ms.len() - 1)]
}

/// Runs the closed loop against a daemon at `addr` (which must already
/// serve the `bench` topology — see [`register_bench_topology`]).
///
/// Each connection cycles create → (join ↔ leave)\* → delete on its own
/// session; every request is timed individually.
///
/// # Errors
///
/// Only setup failures error out; per-request failures are counted in
/// [`BenchReport::errors`].
pub fn run_bench(addr: SocketAddr, opts: BenchOptions) -> io::Result<BenchReport> {
    let connections = opts.connections.max(1);
    let per_conn = (opts.requests / connections).max(4);
    let t0 = Instant::now();
    let mut threads = Vec::with_capacity(connections);
    for conn in 0..connections {
        threads.push(std::thread::spawn(move || drive(addr, conn, per_conn)));
    }
    let mut latencies: Vec<f64> = Vec::with_capacity(connections * per_conn);
    let mut errors = 0usize;
    for t in threads {
        match t.join() {
            Ok((lat, errs)) => {
                latencies.extend(lat);
                errors += errs;
            }
            Err(_) => errors += per_conn,
        }
    }
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    latencies.sort_by(|a, b| a.total_cmp(b));
    let requests = latencies.len();
    Ok(BenchReport {
        connections,
        requests,
        errors,
        wall_ms,
        requests_per_sec: requests as f64 / (wall_ms / 1e3).max(1e-9),
        p50_ms: percentile(&latencies, 0.50),
        p99_ms: percentile(&latencies, 0.99),
    })
}

/// One connection's closed loop; returns (per-request latencies in ms,
/// unexpected-response count).
fn drive(addr: SocketAddr, conn: usize, budget: usize) -> (Vec<f64>, usize) {
    let mut client = Client::new(addr);
    let mut latencies = Vec::with_capacity(budget);
    let mut errors = 0usize;
    let mut session: Option<u64> = None;
    let mut joined = false;
    // The two bodies the loop posts: this connection's session, one viewer.
    let mut create = Value::table();
    put(&mut create, "topology", &"bench".to_string());
    put(&mut create, "sources", &vec![0u64]);
    put(&mut create, "destinations", &vec![3u64, 9]);
    put(&mut create, "chain_len", &2u64);
    put(&mut create, "seed", &(100 + conn));
    put(&mut create, "ttl_secs", &0u64);
    let create = write_json(&create);
    let mut viewer = Value::table();
    put(&mut viewer, "destination", &5u64);
    let viewer = write_json(&viewer);
    let timed = |client: &mut Client,
                 latencies: &mut Vec<f64>,
                 errors: &mut usize,
                 method: &str,
                 path: &str,
                 body: &str|
     -> Option<String> {
        let t = Instant::now();
        let outcome = client.request(method, path, body);
        latencies.push(t.elapsed().as_secs_f64() * 1e3);
        match outcome {
            Ok((200, response)) => Some(response),
            Ok(_) | Err(_) => {
                *errors += 1;
                None
            }
        }
    };
    while latencies.len() < budget {
        match session {
            None => {
                let response = timed(
                    &mut client,
                    &mut latencies,
                    &mut errors,
                    "POST",
                    "/v1/sessions",
                    &create,
                );
                session = response.as_deref().and_then(parse_id);
                joined = false;
            }
            Some(id) => {
                let remaining = budget - latencies.len();
                if remaining == 1 {
                    timed(
                        &mut client,
                        &mut latencies,
                        &mut errors,
                        "DELETE",
                        &format!("/v1/sessions/{id}"),
                        "",
                    );
                    session = None;
                } else if joined {
                    timed(
                        &mut client,
                        &mut latencies,
                        &mut errors,
                        "POST",
                        &format!("/v1/sessions/{id}/leave"),
                        &viewer,
                    );
                    joined = false;
                } else {
                    timed(
                        &mut client,
                        &mut latencies,
                        &mut errors,
                        "POST",
                        &format!("/v1/sessions/{id}/join"),
                        &viewer,
                    );
                    joined = true;
                }
            }
        }
    }
    if let Some(id) = session {
        // Untimed cleanup when the budget ran out mid-cycle.
        let _ = client.request("DELETE", &format!("/v1/sessions/{id}"), "");
    }
    (latencies, errors)
}

/// The `id` of a create/join response.
fn parse_id(response: &str) -> Option<u64> {
    match parse_json(response).ok()?.get("id")? {
        Value::Int(id) => u64::try_from(*id).ok(),
        _ => None,
    }
}
