//! `daemon-mixed`: one op is one HTTP request over loopback to an
//! in-process `sof_daemon::Server`.
//!
//! Two keep-alive `sof_daemon::Client` connections, each on its own driver
//! thread and each owning eight sessions on the named topology
//! `softlayer`, send a seeded mix of joins, leaves, reads, deletes,
//! re-creates and link failures. The loop is closed: a caller sends its
//! next request when the reply to the last one has arrived. The serve path
//! (`http`, `wire`, `router`, the registry lock) does the work here and
//! the embed almost none, and reads run beside writes on the registry
//! lock, so a gain for one that costs the other shows.
//!
//! Each connection keeps a membership model of its sessions, so every
//! request it generates is valid and any reply other than 200 is a failure.
//!
//! Set-up is serial: one connection registers the topology and creates all
//! sixteen sessions, one timed step per request, before the two callers
//! connect. Two callers creating their sessions side by side took as long
//! as the scheduler let them (the shortest set-up of a run read 9.8 to
//! 12.9 ms across ten runs).
//!
//! A traced round adds two replays. A *solo* phase runs connection 0's
//! script alone against a fresh server (for `daemon.scaling_2c`). An
//! *in-process* phase sends both scripts through `router::route` on a
//! private registry, with no socket in between: what remains of a
//! request's latency after subtracting it is transport.

use crate::engine;
use crate::metrics::{layer_name, ROUTES};
use crate::stats::median;
use crate::trace::Tracer;
use crate::workload::{Round, Scale, SetupClock, Workload};
use sof_daemon::http::Request as HttpRequest;
use sof_daemon::{router, Body, Client, Registry, Server, ServerConfig};
use sof_graph::Rng64;
use sof_spec::value::{parse_json, Value};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::net::SocketAddr;
use std::sync::atomic::AtomicBool;
use std::sync::{Barrier, RwLock};
use std::time::Instant;

const TOPOLOGY: &str = r#"{"name":"softlayer","topology":"softlayer"}"#;
const CONNECTIONS: usize = 2;
const SLOTS: usize = 8;
/// A group never shrinks below this (a forest needs a destination) …
const MIN_DESTS: usize = 2;
/// … nor grows past this: joins and leaves then stay balanced.
const MAX_DESTS: usize = 12;
const PARSES_PER_SPAN: usize = 1000;

/// One request of a connection's script. Sessions are named by the slot
/// that owns them; the server's ids are only known at run time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// `POST /v1/sessions/{id}/join`.
    Join { slot: usize, node: usize },
    /// `POST /v1/sessions/{id}/leave`.
    Leave { slot: usize, node: usize },
    /// `GET /v1/sessions/{id}`.
    Get { slot: usize },
    /// `GET /v1/stats`.
    Stats,
    /// `GET /healthz`.
    Healthz,
    /// `POST /v1/sessions`, re-creating the slot's session as it first was.
    Create { slot: usize },
    /// `DELETE /v1/sessions/{id}`.
    Delete { slot: usize },
    /// `POST /v1/sessions/{id}/fail` of a link.
    Fail { slot: usize, link: (usize, usize) },
    /// `POST /v1/sessions/{id}/repair` of that link.
    Repair { slot: usize, link: (usize, usize) },
}

impl Op {
    /// Index into [`ROUTES`].
    pub fn route(&self) -> usize {
        match self {
            Op::Join { .. } => 0,
            Op::Leave { .. } => 1,
            Op::Get { .. } => 2,
            Op::Stats => 3,
            Op::Healthz => 4,
            Op::Create { .. } => 5,
            Op::Delete { .. } => 6,
            Op::Fail { .. } => 7,
            Op::Repair { .. } => 8,
        }
    }
}

/// How a slot's session is created: endpoints and the instance seed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SessionSpec {
    sources: Vec<usize>,
    destinations: BTreeSet<usize>,
    seed: u64,
}

impl SessionSpec {
    fn create_body(&self) -> String {
        let list = |nodes: &mut dyn Iterator<Item = &usize>| {
            nodes.map(usize::to_string).collect::<Vec<_>>().join(",")
        };
        format!(
            "{{\"topology\":\"softlayer\",\"sources\":[{}],\"destinations\":[{}],\
             \"chain_len\":3,\"seed\":{},\"ttl_secs\":0}}",
            list(&mut self.sources.iter()),
            list(&mut self.destinations.iter()),
            self.seed
        )
    }
}

/// One connection's script with the membership model's final state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConnScript {
    /// How each slot's session is created (and re-created).
    pub specs: Vec<SessionSpec>,
    /// The requests, in order.
    pub ops: Vec<Op>,
    /// Each slot's destinations after the last op.
    pub final_dests: Vec<BTreeSet<usize>>,
}

/// Generates connection `conn`'s script of `len` ops: a pure function of
/// `(seed, conn, len)`. Draws per op: 30 % join, 30 % leave, 25 % read a
/// session, 5 % stats, 4 % healthz, 4 % delete then re-create (two ops),
/// 2 % fail then repair a link (two ops). A join drawn for a full group
/// becomes a leave and the other way round, so no request is ever invalid.
pub fn script(seed: u64, conn: usize, len: usize) -> ConnScript {
    let topo = sof_topo::softlayer();
    let nodes = topo.graph.node_count();
    let links: Vec<(usize, usize)> = topo
        .graph
        .edges()
        .map(|(_, e)| (e.u.index(), e.v.index()))
        .collect();
    let mut rng = Rng64::seed_from(seed.wrapping_mul(1_000_003).wrapping_add(conn as u64));
    let specs: Vec<SessionSpec> = (0..SLOTS)
        .map(|slot| {
            let picks = rng.sample_indices(nodes, 8);
            SessionSpec {
                sources: picks[..2].to_vec(),
                destinations: picks[2..].iter().copied().collect(),
                seed: seed
                    .wrapping_mul(1_000_003)
                    .wrapping_add((conn * SLOTS + slot) as u64),
            }
        })
        .collect();
    let mut dests: Vec<BTreeSet<usize>> = specs.iter().map(|s| s.destinations.clone()).collect();
    let mut ops = Vec::with_capacity(len);
    while ops.len() < len {
        let draw = rng.below(100);
        let slot = rng.below(SLOTS);
        let pair_fits = len - ops.len() >= 2;
        match draw {
            0..60 => {
                let members = &mut dests[slot];
                let join = if draw < 30 {
                    members.len() < MAX_DESTS
                } else {
                    members.len() <= MIN_DESTS
                };
                if join {
                    let free: Vec<usize> = (0..nodes)
                        .filter(|n| !members.contains(n) && !specs[slot].sources.contains(n))
                        .collect();
                    let node = *rng.pick(&free);
                    members.insert(node);
                    ops.push(Op::Join { slot, node });
                } else {
                    let current: Vec<usize> = members.iter().copied().collect();
                    let node = *rng.pick(&current);
                    members.remove(&node);
                    ops.push(Op::Leave { slot, node });
                }
            }
            60..85 => ops.push(Op::Get { slot }),
            85..90 => ops.push(Op::Stats),
            94..98 if pair_fits => {
                ops.push(Op::Delete { slot });
                ops.push(Op::Create { slot });
                dests[slot] = specs[slot].destinations.clone();
            }
            98..100 if pair_fits => {
                let link = *rng.pick(&links);
                ops.push(Op::Fail { slot, link });
                ops.push(Op::Repair { slot, link });
            }
            _ => ops.push(Op::Healthz),
        }
    }
    ConnScript {
        specs,
        ops,
        final_dests: dests,
    }
}

/// `(method, path, body)` of `op` against the sessions currently in `ids`.
fn request_of(op: &Op, ids: &[u64], specs: &[SessionSpec]) -> (&'static str, String, String) {
    let session = |slot: usize, tail: &str| format!("/v1/sessions/{}{tail}", ids[slot]);
    let link_body = |(u, v): (usize, usize)| format!("{{\"link\":[{u},{v}]}}");
    match op {
        Op::Join { slot, node } => (
            "POST",
            session(*slot, "/join"),
            format!("{{\"destination\":{node}}}"),
        ),
        Op::Leave { slot, node } => (
            "POST",
            session(*slot, "/leave"),
            format!("{{\"destination\":{node}}}"),
        ),
        Op::Get { slot } => ("GET", session(*slot, ""), String::new()),
        Op::Stats => ("GET", "/v1/stats".into(), String::new()),
        Op::Healthz => ("GET", "/healthz".into(), String::new()),
        Op::Create { slot } => ("POST", "/v1/sessions".into(), specs[*slot].create_body()),
        Op::Delete { slot } => ("DELETE", session(*slot, ""), String::new()),
        Op::Fail { slot, link } => ("POST", session(*slot, "/fail"), link_body(*link)),
        Op::Repair { slot, link } => ("POST", session(*slot, "/repair"), link_body(*link)),
    }
}

/// Reads the number after `"key":` without parsing the whole reply (this
/// runs between two timed requests).
fn number_after(reply: &str, key: &str) -> Option<f64> {
    let at = reply.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = &reply[at..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// What a reply to `op` means for the caller's books.
fn settle(op: &Op, status: u16, reply: &str, ids: &mut [u64], round: &mut Round) {
    if status != 200 {
        round.failed += 1;
        return;
    }
    if let Op::Create { slot } = op {
        match number_after(reply, "id") {
            Some(id) => ids[*slot] = id as u64,
            None => round.failed += 1,
        }
    }
    if matches!(op, Op::Join { .. } | Op::Leave { .. } | Op::Create { .. }) {
        match number_after(reply, "forest_cost") {
            Some(cost) => {
                round.cost_sum += cost;
                round.embeds += 1;
            }
            None => round.failed += 1,
        }
    }
}

/// Anything that answers a request with `(status, body)`: a socket client
/// or the router called in process.
trait Transport {
    fn send(&mut self, method: &str, path: &str, body: &str) -> Result<(u16, String), String>;
}

impl Transport for Client {
    fn send(&mut self, method: &str, path: &str, body: &str) -> Result<(u16, String), String> {
        self.request(method, path, body).map_err(|e| e.to_string())
    }
}

struct InProcess<'a> {
    registry: &'a RwLock<Registry>,
    stop: AtomicBool,
}

impl Transport for InProcess<'_> {
    fn send(&mut self, method: &str, path: &str, body: &str) -> Result<(u16, String), String> {
        let request = HttpRequest {
            method: method.to_string(),
            path: path.to_string(),
            body: body.as_bytes().to_vec(),
            keep_alive: true,
        };
        Ok(router::route(self.registry, &self.stop, &request))
    }
}

/// What one connection's replay produced. `requests` counts the script's
/// requests and the checks after it, for the server's totals. The byte
/// totals cover the script's requests (method, path and body) and the
/// bodies of their replies, except the replies of `stats` and `healthz`:
/// those carry an uptime whose digits differ from run to run.
struct ConnOutcome {
    round: Round,
    requests: u64,
    bytes_in: u64,
    bytes_out: u64,
    started: Instant,
    ended: Instant,
}

/// Creates the sessions of `specs`, one request each, and returns their
/// ids. `created` is called after every reply.
fn create_sessions(
    transport: &mut dyn Transport,
    specs: &[SessionSpec],
    mut created: impl FnMut(),
) -> Result<Vec<u64>, String> {
    let mut ids = Vec::with_capacity(specs.len());
    for spec in specs {
        let (status, reply) = transport.send("POST", "/v1/sessions", &spec.create_body())?;
        let id = number_after(&reply, "id")
            .filter(|_| status == 200)
            .ok_or(format!("creating a session failed with {status}: {reply}"))?;
        ids.push(id as u64);
        created();
    }
    Ok(ids)
}

/// Replays a connection's script on its sessions `ids`, every request
/// timed under a span named `span`, then checks that each session lists
/// exactly the model's destinations.
fn run_connection(
    transport: &mut dyn Transport,
    script: &ConnScript,
    mut ids: Vec<u64>,
    first_op: u32,
    span: &'static str,
    tracer: &mut Tracer,
) -> Result<ConnOutcome, String> {
    let mut round = Round::default();
    let (mut requests, mut bytes_in, mut bytes_out) = (0u64, 0u64, 0u64);
    let started = Instant::now();
    for (i, op) in script.ops.iter().enumerate() {
        let (method, path, body) = request_of(op, &ids, &script.specs);
        let t = Instant::now();
        let answer = tracer.span(span, Some(first_op + i as u32), |_| {
            transport.send(method, &path, &body)
        });
        round.op_ms.push(t.elapsed().as_secs_f64() * 1e3);
        round.class.push(op.route() as u8);
        requests += 1;
        bytes_in += (method.len() + path.len() + body.len()) as u64;
        match answer {
            Ok((status, reply)) => {
                if !matches!(op, Op::Stats | Op::Healthz) {
                    bytes_out += reply.len() as u64;
                }
                settle(op, status, &reply, &mut ids, &mut round);
            }
            Err(_) => round.failed += 1,
        }
    }
    let ended = Instant::now();

    for (slot, expected) in script.final_dests.iter().enumerate() {
        let (status, reply) = transport.send("GET", &format!("/v1/sessions/{}", ids[slot]), "")?;
        requests += 1;
        let listed: Option<BTreeSet<usize>> = parse_json(&reply).ok().and_then(|v| {
            let Value::Array(nodes) = v.get("destinations")? else {
                return None;
            };
            nodes
                .iter()
                .map(|n| n.as_f64().map(|f| f as usize))
                .collect()
        });
        if status != 200 || listed.as_ref() != Some(expected) {
            eprintln!(
                "session {} lists {listed:?}, the model has {expected:?}",
                ids[slot]
            );
            round.failed += 1;
        }
    }
    Ok(ConnOutcome {
        round,
        requests,
        bytes_in,
        bytes_out,
        started,
        ended,
    })
}

/// Folds connection outcomes, in connection order, into one round.
fn merge(outcomes: Vec<ConnOutcome>) -> (Round, u64) {
    let mut round = Round::default();
    let mut requests = 0;
    for o in outcomes {
        round.op_ms.extend(o.round.op_ms);
        round.class.extend(o.round.class);
        round.cost_sum += o.round.cost_sum;
        round.embeds += o.round.embeds;
        round.failed += o.round.failed;
        for (k, v) in o.round.counts {
            round.count(k, v);
        }
        requests += o.requests;
    }
    (round, requests)
}

/// Sizes of the daemon workload.
#[derive(Clone, Copy, Debug)]
pub struct Daemon {
    ops_per_connection: usize,
    seed: u64,
}

impl Daemon {
    /// `daemon-mixed` at the given scale.
    pub fn mixed(seed: u64, scale: Scale) -> Daemon {
        Daemon {
            ops_per_connection: scale.pick(5_000, 2_000, 300),
            seed,
        }
    }

    fn scripts(&self) -> Vec<ConnScript> {
        (0..CONNECTIONS)
            .map(|c| script(self.seed, c, self.ops_per_connection))
            .collect()
    }

    /// Starts a fresh server, runs `scripts` on one driver thread each and
    /// checks the server's request and error totals against the callers'.
    /// The timed phase is recorded as a span called `phase_span`, each
    /// request as one called `request_span`.
    fn socket_phase(
        &self,
        scripts: &[ConnScript],
        (phase_span, request_span): (&'static str, &'static str),
        tracer: &mut Tracer,
    ) -> Result<Round, String> {
        // Set-up steps, all on this thread and one connection, so that each
        // is one piece of work the best-of estimator can catch undisturbed:
        // the server, the topology, each session; then the callers.
        let mut setup = SetupClock::start();
        let server = Server::start(ServerConfig::default()).map_err(|e| format!("bind: {e}"))?;
        let addr: SocketAddr = server.addr();
        setup.step();
        let mut admin = Client::new(addr);
        let (status, reply) = admin
            .request("POST", "/v1/topologies", TOPOLOGY)
            .map_err(|e| format!("registering the topology: {e}"))?;
        if status != 200 {
            return Err(format!(
                "registering the topology failed with {status}: {reply}"
            ));
        }
        setup.step();
        let mut ids = Vec::with_capacity(scripts.len());
        for script in scripts {
            ids.push(create_sessions(&mut admin, &script.specs, || setup.step())?);
        }
        drop(admin);
        // The topology, the sessions, and one connecting request per caller.
        let before_scripts = (1 + scripts.len() * SLOTS + scripts.len()) as u64;

        let barrier = Barrier::new(scripts.len());
        let outcomes: Vec<Result<(ConnOutcome, Tracer), String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = scripts
                .iter()
                .zip(ids)
                .enumerate()
                .map(|(c, (script, ids))| {
                    let mut fork = tracer.fork();
                    let barrier = &barrier;
                    let first_op = (c * script.ops.len()) as u32;
                    scope.spawn(move || {
                        let mut client = Client::new(addr);
                        // Connect before the clock starts; wait even after
                        // a failure, or the other caller would wait forever.
                        let connected = client.request("GET", "/healthz", "");
                        barrier.wait();
                        connected.map_err(|e| format!("connecting: {e}"))?;
                        run_connection(&mut client, script, ids, first_op, request_span, &mut fork)
                            .map(|outcome| (outcome, fork))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("a driver thread panicked".into()))
                })
                .collect()
        });
        let mut connections = Vec::with_capacity(outcomes.len());
        for outcome in outcomes {
            let (outcome, fork) = outcome?;
            tracer.absorb(fork);
            connections.push(outcome);
        }
        // Set-up ends when both callers are connected and let go; the timed
        // phase lasts until the last connection has its last reply.
        let first_go = connections
            .iter()
            .map(|c| c.started)
            .min()
            .expect("a connection");
        let last_end = connections
            .iter()
            .map(|c| c.ended)
            .max()
            .expect("a connection");
        tracer.record(phase_span, Some(0), first_go, last_end);
        let (mut round, sent) = merge(connections);
        let sent = sent + before_scripts;
        setup.step_at(first_go);
        round.setup_steps = setup.steps;
        round.wall_s = (last_end - first_go).as_secs_f64();

        let (_, stats) = Client::new(addr)
            .request("GET", "/v1/stats", "")
            .map_err(|e| format!("reading /v1/stats: {e}"))?;
        server.stop();
        let stats = parse_json(&stats).map_err(|e| format!("/v1/stats: {e}"))?;
        let total = |key: &str| stats.get(key).and_then(Value::as_f64).unwrap_or(-1.0) as i64;
        // Set-up, one connecting request per caller, the scripts and the
        // checks; the server counts a request once it is answered, so not
        // the stats request itself.
        if total("requests") != sent as i64 || total("errors") != 0 {
            eprintln!(
                "server counted {} requests and {} errors, the callers sent {sent}",
                total("requests"),
                total("errors"),
            );
            round.failed += 1;
        }
        round.count("server.requests", total("requests") as u64);
        round.count("server.errors", total("errors") as u64);
        if let Some(engine) = stats.get("engine") {
            let tier = |key: &str| engine.get(key).and_then(Value::as_f64).unwrap_or(0.0) as u64;
            round.count("engine.hits", tier("hits"));
            round.count("engine.misses", tier("misses"));
            round.count("engine.stale", tier("stale"));
            round.count("engine.revalidated", tier("repairs"));
            round.count("engine.partial_repairs", tier("partial_repairs"));
            round.count("engine.evictions", tier("evictions"));
        }
        Ok(round)
    }

    /// Both scripts, one after the other, through `router::route` on a
    /// private registry. Byte counts are taken here, where session ids are
    /// handed out in one fixed order: over the sockets the two connections
    /// race for them, and an id's digits are part of paths and replies.
    fn in_process_phase(
        &self,
        scripts: &[ConnScript],
        tracer: &mut Tracer,
        round: &mut Round,
    ) -> Result<(), String> {
        let registry = RwLock::new(Registry::new(None));
        let mut transport = InProcess {
            registry: &registry,
            stop: AtomicBool::new(false),
        };
        transport.send("POST", "/v1/topologies", TOPOLOGY)?;
        for (c, script) in scripts.iter().enumerate() {
            let first_op = (c * script.ops.len()) as u32;
            let ids = create_sessions(&mut transport, &script.specs, || ())?;
            let outcome = run_connection(
                &mut transport,
                script,
                ids,
                first_op,
                "daemon.route",
                tracer,
            )?;
            if outcome.round.failed != 0 {
                return Err(format!(
                    "{} in-process requests failed",
                    outcome.round.failed
                ));
            }
            round.fact("bytes_in", outcome.bytes_in as f64);
            round.fact("bytes_out", outcome.bytes_out as f64);
        }
        tracer.span("wire.parse", Some(0), |_| {
            for _ in 0..PARSES_PER_SPAN {
                black_box(Body::parse(black_box(br#"{"destination":5}"#)).is_ok());
            }
        });
        Ok(())
    }
}

impl Workload for Daemon {
    fn round(&mut self, tracer: &mut Tracer) -> Result<Round, String> {
        let scripts = self.scripts();
        let mut round =
            self.socket_phase(&scripts, ("daemon.timed_phase", "daemon.request"), tracer)?;
        if tracer.is_on() {
            let spans = ("daemon.solo_phase", "daemon.solo_request");
            let solo = self.socket_phase(&scripts[..1], spans, tracer)?;
            if solo.failed != 0 {
                return Err(format!("{} requests of the solo phase failed", solo.failed));
            }
            self.in_process_phase(&scripts, tracer, &mut round)?;
        }
        Ok(round)
    }

    fn ops_per_s(&self, _rounds: &[Round], best_ms: &[f64]) -> f64 {
        // Each caller is a closed loop of its own, so the callers' rates
        // add up: `ops ÷ Σ best` per connection, as for a single driver.
        // The rounds' wall clocks do not repeat (ops over the lower-quartile
        // wall spread by 32 % across ten runs, over the shortest by 34 %):
        // two callers and two server threads share two cores with the
        // neighbours, so a round is as long as its worst stretch. The
        // traced run reports that figure as `daemon.wall_ops_per_s`.
        best_ms
            .chunks(self.ops_per_connection)
            .map(|conn| conn.len() as f64 / (conn.iter().sum::<f64>() / 1e3))
            .sum()
    }

    fn layers(&self, r: &Round, best_ms: &[f64], tracer: &Tracer) -> Vec<(&'static str, f64)> {
        let ops = best_ms.len();
        let p50 = |ms: &[f64], route: usize| {
            let of_route = r.of_class(ms, route as u8);
            if of_route.is_empty() {
                0.0
            } else {
                median(&of_route)
            }
        };
        let routed_ms = tracer.op_ms("daemon.route", ops);
        let mut out: Vec<(&'static str, f64)> = Vec::new();
        for (i, route) in ROUTES.iter().enumerate() {
            out.push((
                layer_name(&format!("daemon.{route}_ms_p50")),
                p50(best_ms, i),
            ));
            out.push((
                layer_name(&format!("daemon.route_us.{route}")),
                p50(&routed_ms, i) * 1e3,
            ));
        }
        let healthz = Op::Healthz.route();
        let transport_us = (p50(best_ms, healthz) - p50(&routed_ms, healthz)) * 1e3;
        let parse_us = tracer.op_ms("wire.parse", 1)[0] * 1e3 / PARSES_PER_SPAN as f64;
        let duo_wall = tracer.op_ms("daemon.timed_phase", 1)[0];
        let solo_wall = tracer.op_ms("daemon.solo_phase", 1)[0];
        let solo_ops = (ops / CONNECTIONS) as f64;
        out.extend(engine::layers(r, 0.0));
        out.extend([
            ("daemon.parse_us", parse_us),
            ("daemon.transport_us", transport_us),
            ("daemon.bytes_in_per_op", r.noted("bytes_in") / ops as f64),
            ("daemon.bytes_out_per_op", r.noted("bytes_out") / ops as f64),
            (
                "daemon.scaling_2c",
                (ops as f64 / duo_wall) / (solo_ops / solo_wall),
            ),
            ("daemon.wall_ops_per_s", ops as f64 / (duo_wall / 1e3)),
            (
                "daemon.server_requests",
                r.counted("server.requests") as f64,
            ),
            ("daemon.server_errors", r.counted("server.errors") as f64),
        ]);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_script_is_a_pure_function_of_seed_and_connection() {
        assert_eq!(script(13, 0, 500), script(13, 0, 500));
        assert_ne!(script(13, 0, 500).ops, script(14, 0, 500).ops);
        assert_ne!(script(13, 0, 500).ops, script(13, 1, 500).ops);
        // A traced run replays a prefix of the full script.
        assert_eq!(script(13, 0, 500).ops[..100], script(13, 0, 100).ops[..]);
        assert_eq!(script(13, 0, 501).ops.len(), 501);
    }

    /// Replays a script against a plain model of the server's rules and
    /// panics on the first request the server would refuse.
    fn replay_against_rules(script: &ConnScript) -> Vec<BTreeSet<usize>> {
        let mut live = [true; SLOTS];
        let mut dests: Vec<BTreeSet<usize>> = script
            .specs
            .iter()
            .map(|s| s.destinations.clone())
            .collect();
        let mut failed_link: Option<(usize, (usize, usize))> = None;
        for (i, op) in script.ops.iter().enumerate() {
            if let Some((slot, link)) = failed_link.take() {
                assert_eq!(
                    op,
                    &Op::Repair { slot, link },
                    "op {i}: a failed link is repaired next"
                );
                continue;
            }
            match op {
                Op::Join { slot, node } => {
                    assert!(live[*slot], "op {i}: join on a deleted session");
                    assert!(
                        !script.specs[*slot].sources.contains(node),
                        "op {i}: joins a source"
                    );
                    assert!(dests[*slot].insert(*node), "op {i}: joins a member");
                    assert!(dests[*slot].len() <= MAX_DESTS);
                }
                Op::Leave { slot, node } => {
                    assert!(live[*slot], "op {i}: leave on a deleted session");
                    assert!(dests[*slot].remove(node), "op {i}: a non-member leaves");
                    assert!(dests[*slot].len() >= MIN_DESTS - 1, "op {i}: group emptied");
                    assert!(!dests[*slot].is_empty());
                }
                Op::Get { slot } => assert!(live[*slot], "op {i}: reads a deleted session"),
                Op::Delete { slot } => {
                    assert!(live[*slot], "op {i}: deletes twice");
                    live[*slot] = false;
                }
                Op::Create { slot } => {
                    assert!(!live[*slot], "op {i}: creates over a live session");
                    live[*slot] = true;
                    dests[*slot] = script.specs[*slot].destinations.clone();
                }
                Op::Fail { slot, link } => {
                    assert!(live[*slot], "op {i}: fails a link of a deleted session");
                    failed_link = Some((*slot, *link));
                }
                Op::Repair { .. } => panic!("op {i}: repairs a link that is not failed"),
                Op::Stats | Op::Healthz => {}
            }
        }
        assert!(failed_link.is_none() && live.iter().all(|&l| l));
        dests
    }

    #[test]
    fn the_membership_model_never_emits_an_invalid_request() {
        for seed in 0..20 {
            for conn in 0..CONNECTIONS {
                let s = script(seed, conn, 3000);
                assert_eq!(replay_against_rules(&s), s.final_dests);
                for spec in &s.specs {
                    assert_eq!((spec.sources.len(), spec.destinations.len()), (2, 6));
                    assert!(spec.sources.iter().all(|n| !spec.destinations.contains(n)));
                }
                let share = |route: usize| {
                    s.ops.iter().filter(|op| op.route() == route).count() as f64 / 3000.0
                };
                assert!((share(0) + share(1) - 0.58).abs() < 0.05, "joins + leaves");
                assert!((share(2) - 0.24).abs() < 0.04, "reads");
                assert!(share(5) > 0.02 && share(7) > 0.005, "pairs occur");
            }
        }
    }

    #[test]
    fn replies_are_read_without_a_full_parse() {
        let reply = r#"{"id":12,"forest_cost":31.25,"rebuilt":false,"joined":1}"#;
        assert_eq!(number_after(reply, "id"), Some(12.0));
        assert_eq!(number_after(reply, "forest_cost"), Some(31.25));
        assert_eq!(number_after(reply, "joined"), Some(1.0));
        assert_eq!(number_after(reply, "missing"), None);
    }

    #[test]
    fn a_check_sized_round_passes_its_own_checks() {
        let mut w = Daemon::mixed(13, Scale::Check);
        let round = w.round(&mut Tracer::off()).unwrap();
        assert_eq!((round.op_ms.len(), round.failed), (600, 0));
        assert!(round.embeds > 300 && round.cost_sum > 0.0);
        assert_eq!(round.counted("server.errors"), 0);
    }
}
