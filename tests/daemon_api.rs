//! Integration tests for `sofd`, the embedding daemon: the full wire
//! round trip on an ephemeral port, malformed-request 4xx behavior, the
//! framing rules over a raw socket (431 / 408 / 501, pipelining), janitor
//! TTL expiry, graceful shutdown with an in-flight request, and the
//! `sof serve` process itself: its address line, a session over TCP, and a
//! clean exit on `POST /v1/shutdown` or a closed stdin.

use sof::core::FAILED_COST;
use sof::daemon::{http, router, Client, Registry, Server, ServerConfig};
use sof::spec::value::{parse_json, Value};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::atomic::AtomicBool;
use std::sync::{mpsc, RwLock};
use std::time::{Duration, Instant};

fn start(config: ServerConfig) -> sof::daemon::ServerHandle {
    Server::start(config).expect("bind 127.0.0.1:0")
}

const BENCH_TOPO: &str = r#"{"name":"t","regions":[
  {"name":"us-east","nodes":6,"dcs":2},
  {"name":"eu-west","nodes":6,"dcs":2}
],"gateway_links":2,"seed":7}"#;

const SESSION: &str = r#"{"topology":"t","sources":[0],"destinations":[3,9],
  "chain_len":2,"seed":11,"ttl_secs":0}"#;

/// The embed → join → leave → fail → stats → delete round trip, all over
/// real HTTP on an ephemeral port.
#[test]
fn wire_round_trip() {
    let handle = start(ServerConfig::default());
    let mut c = Client::new(handle.addr());

    let (status, body) = c.request("GET", "/healthz", "").unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"ok\":true"), "{body}");

    let (status, body) = c.request("POST", "/v1/topologies", BENCH_TOPO).unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"kind\":\"regions\""), "{body}");
    // Duplicate names conflict.
    let (status, body) = c.request("POST", "/v1/topologies", BENCH_TOPO).unwrap();
    assert_eq!(status, 409, "{body}");

    let (status, body) = c.request("POST", "/v1/sessions", SESSION).unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"id\":1"), "{body}");
    assert!(body.contains("\"rebuilt\":true"), "{body}");

    // Join is served incrementally (§VII-C), not by a rebuild.
    let (status, body) = c
        .request("POST", "/v1/sessions/1/join", "{\"destination\":5}")
        .unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"rebuilt\":false"), "{body}");
    assert!(body.contains("\"joined\":1"), "{body}");
    // Joining a destination twice is a client error.
    let (status, body) = c
        .request("POST", "/v1/sessions/1/join", "{\"destination\":5}")
        .unwrap();
    assert_eq!(status, 400, "{body}");

    let (status, body) = c
        .request("POST", "/v1/sessions/1/leave", "{\"destination\":5}")
        .unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"destinations\":[3,9]"), "{body}");

    // A VM failure on a non-VM node is a 400 with the library's message.
    let (status, body) = c
        .request("POST", "/v1/sessions/1/fail", "{\"vm\":0}")
        .unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("not a VM"), "{body}");
    // Access nodes 0..12 come first, then the VMs (one per DC).
    let (status, body) = c
        .request("POST", "/v1/sessions/1/fail", "{\"vm\":12}")
        .unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"disrupted\""), "{body}");

    let (status, body) = c.request("GET", "/v1/sessions/1", "").unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"solver\":\"SOFDA\""), "{body}");
    assert!(body.contains("\"vm_failures\":1"), "{body}");
    // The create and the join are arrivals; the leave is not.
    assert!(body.contains("\"arrivals\":2"), "{body}");

    let (status, body) = c.request("GET", "/v1/stats", "").unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"live\":1"), "{body}");
    assert!(body.contains("\"engine\":"), "{body}");
    assert!(body.contains("\"per_session\":"), "{body}");

    let (status, body) = c.request("DELETE", "/v1/sessions/1", "").unwrap();
    assert_eq!(status, 200, "{body}");
    let (status, _) = c.request("GET", "/v1/sessions/1", "").unwrap();
    assert_eq!(status, 404);

    // The stats survive the deletion and count every request so far.
    let (status, body) = c.request("GET", "/v1/stats", "").unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"deleted\":1"), "{body}");

    handle.stop();
}

/// Every malformed request gets an actionable 4xx, never a dropped
/// connection or a panic.
#[test]
fn malformed_requests_get_4xx() {
    let handle = start(ServerConfig {
        max_body: 256,
        ..ServerConfig::default()
    });
    let mut c = Client::new(handle.addr());

    // Not JSON at all.
    let (status, body) = c.request("POST", "/v1/sessions", "{nope").unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("not JSON"), "{body}");
    // JSON, but not an object.
    let (status, body) = c.request("POST", "/v1/sessions", "[1,2]").unwrap();
    assert_eq!(status, 400, "{body}");
    // Missing required fields name the field.
    let (status, body) = c.request("POST", "/v1/sessions", "{}").unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("'topology'"), "{body}");
    // Unknown fields are rejected, not ignored.
    let (status, body) = c
        .request(
            "POST",
            "/v1/topologies",
            r#"{"name":"x","topology":"testbed","seeds":1}"#,
        )
        .unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("'seeds'"), "{body}");
    // Unknown topology registry names list the valid ones.
    let (status, body) = c
        .request(
            "POST",
            "/v1/topologies",
            r#"{"name":"x","topology":"fatlayer"}"#,
        )
        .unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("softlayer"), "{body}");
    // An invalid pair_cost matrix surfaces the library validator verbatim.
    let bad = r#"{"name":"x","regions":[{"name":"a","nodes":4,"dcs":1},
        {"name":"b","nodes":4,"dcs":1}],"pair_cost":[[1.0,2.0],[3.0,1.0]]}"#;
    let (status, body) = c.request("POST", "/v1/topologies", bad).unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("pair_cost must be symmetric"), "{body}");
    // Unknown routes 404 with the endpoint list; wrong methods 405.
    let (status, body) = c.request("GET", "/v2/nope", "").unwrap();
    assert_eq!(status, 404, "{body}");
    assert!(body.contains("/v1/sessions"), "{body}");
    let (status, body) = c.request("PATCH", "/healthz", "").unwrap();
    assert_eq!(status, 405, "{body}");
    // Session ids must be integers; unknown ids are 404s.
    let (status, body) = c.request("GET", "/v1/sessions/abc", "").unwrap();
    assert_eq!(status, 400, "{body}");
    let (status, _) = c.request("GET", "/v1/sessions/99", "").unwrap();
    assert_eq!(status, 404);
    // Oversized bodies get a 413 naming the limit.
    let huge = format!(r#"{{"topology":"{}"}}"#, "x".repeat(512));
    let (status, body) = c.request("POST", "/v1/sessions", &huge).unwrap();
    assert_eq!(status, 413, "{body}");
    assert!(body.contains("256-byte limit"), "{body}");

    // All of the above counted as errors, and the daemon still serves.
    let (status, body) = c.request("GET", "/v1/stats", "").unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"errors\":11"), "{body}");
    handle.stop();
}

/// The survivability surface: link/node/domain failures, immediate
/// repairs, janitor-applied scheduled repairs, and strict 4xx validation
/// of the element vocabulary.
#[test]
fn survivability_fail_and_repair_endpoints() {
    let handle = start(ServerConfig {
        janitor_period: Duration::from_millis(50),
        ..ServerConfig::default()
    });
    let mut c = Client::new(handle.addr());
    c.request("POST", "/v1/topologies", BENCH_TOPO).unwrap();
    let (status, body) = c.request("POST", "/v1/sessions", SESSION).unwrap();
    assert_eq!(status, 200, "{body}");

    // A transit-node failure reports the disconnected destinations and
    // leaves the forest standing.
    let (status, body) = c
        .request("POST", "/v1/sessions/1/fail", "{\"node\":1}")
        .unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"element\":\"node:1\""), "{body}");
    assert!(body.contains("\"disconnected\""), "{body}");
    let (status, body) = c
        .request("POST", "/v1/sessions/1/repair", "{\"node\":1}")
        .unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"repaired\":\"node:1\""), "{body}");
    // Repairing an element that is not failed is a client error.
    let (status, body) = c
        .request("POST", "/v1/sessions/1/repair", "{\"node\":1}")
        .unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("not a failed node"), "{body}");

    // The topology's graph is seeded, so probe for a real link off node 0
    // and run the fail → repair round trip on it.
    let mut linked = None;
    for u in 1..12 {
        let (status, body) = c
            .request(
                "POST",
                "/v1/sessions/1/fail",
                &format!("{{\"link\":[0,{u}]}}"),
            )
            .unwrap();
        if status == 200 {
            assert!(
                body.contains(&format!("\"element\":\"link:0-{u}\"")),
                "{body}"
            );
            linked = Some(u);
            break;
        }
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("no link between"), "{body}");
    }
    let u = linked.expect("node 0 has at least one incident link");
    let (status, body) = c
        .request(
            "POST",
            "/v1/sessions/1/repair",
            &format!("{{\"link\":[0,{u}]}}"),
        )
        .unwrap();
    assert_eq!(status, 200, "{body}");

    // Domain failures need a regions topology and a known region name…
    let (status, body) = c
        .request("POST", "/v1/sessions/1/fail", "{\"domain\":\"zz\"}")
        .unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("us-east"), "{body}");
    // …and skip the request's endpoint nodes instead of erroring on them.
    let (status, body) = c
        .request("POST", "/v1/sessions/1/fail", "{\"domain\":\"eu-west\"}")
        .unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"element\":\"domain:eu-west\""), "{body}");
    let (status, body) = c
        .request("POST", "/v1/sessions/1/repair", "{\"domain\":\"eu-west\"}")
        .unwrap();
    assert_eq!(status, 200, "{body}");

    // Strict element validation: exactly one element key, well-formed
    // pairs, no unknown fields.
    let (status, body) = c
        .request("POST", "/v1/sessions/1/fail", "{\"vm\":12,\"node\":1}")
        .unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("exactly one of"), "{body}");
    let (status, body) = c.request("POST", "/v1/sessions/1/fail", "{}").unwrap();
    assert_eq!(status, 400, "{body}");
    let (status, body) = c
        .request("POST", "/v1/sessions/1/fail", "{\"link\":[3]}")
        .unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("endpoint pair"), "{body}");
    let (status, body) = c
        .request("POST", "/v1/sessions/1/fail", "{\"link\":[3,3]}")
        .unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("must differ"), "{body}");
    let (status, body) = c
        .request("POST", "/v1/sessions/1/fail", "{\"node\":0}")
        .unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("source or destination"), "{body}");
    let (status, body) = c
        .request("POST", "/v1/sessions/1/fail", "{\"node\":2,\"typo\":1}")
        .unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("'typo'"), "{body}");

    // A scheduled repair shows up in the session view and the janitor
    // applies it once due.
    let (status, body) = c
        .request(
            "POST",
            "/v1/sessions/1/fail",
            "{\"node\":2,\"repair_secs\":1}",
        )
        .unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"repair_in_secs\":1"), "{body}");
    let (status, body) = c.request("GET", "/v1/sessions/1", "").unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"pending_repairs\":1"), "{body}");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        std::thread::sleep(Duration::from_millis(100));
        let (_, body) = c.request("GET", "/v1/sessions/1", "").unwrap();
        if body.contains("\"pending_repairs\":0") {
            break;
        }
        assert!(Instant::now() < deadline, "janitor never repaired: {body}");
    }
    // The janitor really repaired it: a manual repair now 400s.
    let (status, body) = c
        .request("POST", "/v1/sessions/1/repair", "{\"node\":2}")
        .unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("not a failed node"), "{body}");

    handle.stop();
}

/// The number after `"forest_cost":` in a reply.
fn forest_cost(body: &str) -> &str {
    let key = "\"forest_cost\":";
    let rest = &body[body.find(key).expect("forest_cost present") + key.len()..];
    &rest[..rest.find([',', '}']).expect("a number ends")]
}

/// A repaired domain is back in service at its old prices: the same join
/// costs the same before a `domain` fail/repair pair and after it. A domain
/// fails adjacent nodes, so the link between two of them is covered twice
/// and must come back only, and exactly, when both are repaired. The
/// session lives in us-east, so the eu-west failure disrupts nothing and
/// its forest stands; the join reaches node 7, no gateway, over a link
/// between two eu-west nodes. (With a pristine cost remembered per failed
/// node the second node remembered the first one's 1e9, and this join read
/// 2000000122.5773802.) Fails when `repair` leaves any element of the
/// domain priced out.
#[test]
fn a_repaired_domain_prices_a_join_as_before_it_failed() {
    let handle = start(ServerConfig::default());
    let mut c = Client::new(handle.addr());
    c.request("POST", "/v1/topologies", BENCH_TOPO).unwrap();
    let session = r#"{"topology":"t","sources":[0],"destinations":[3,5],
      "chain_len":2,"seed":1,"ttl_secs":0}"#;
    let (status, body) = c.request("POST", "/v1/sessions", session).unwrap();
    assert_eq!(status, 200, "{body}");

    let mut post = |path: &str, body: &str| {
        let (status, reply) = c
            .request("POST", &format!("/v1/sessions/1/{path}"), body)
            .unwrap();
        assert_eq!(status, 200, "{path} {body}: {reply}");
        reply
    };
    let before = post("join", "{\"destination\":7}");
    post("leave", "{\"destination\":7}");
    let failed = post("fail", "{\"domain\":\"eu-west\"}");
    assert!(failed.contains("\"disrupted\":0"), "{failed}");
    post("repair", "{\"domain\":\"eu-west\"}");
    let after = post("join", "{\"destination\":7}");
    assert_eq!(forest_cost(&after), forest_cost(&before));

    drop(c);
    handle.stop();
}

/// `method path` with `body`, routed on `registry` with no socket in
/// between; the status and the parsed reply.
fn route(registry: &RwLock<Registry>, method: &str, path: &str, body: &str) -> (u16, Value) {
    let request = http::Request {
        method: method.into(),
        path: path.into(),
        body: body.as_bytes().to_vec(),
        keep_alive: true,
    };
    let (status, reply) = router::route(registry, &AtomicBool::new(false), &request);
    (status, parse_json(&reply).expect("a JSON reply"))
}

/// `sofd` recovers a failure as a spec run does, through the reactive
/// protector, whatever the element. On a 2-source, 5-destination SoftLayer
/// session, the first link whose failure disrupts the forest is followed
/// by a join that rebuilds around it, and the first VM whose failure does
/// is followed by a leave of a served destination that answers 200 and a
/// `GET` that reports nothing standing. Fails when a link failure leaves a
/// dark forest for the join to extend across the failed link (that join
/// read about 1e9), or when a leave on a dropped forest is refused.
#[test]
fn a_disrupting_failure_is_recovered_for_every_element_kind() {
    let registry = RwLock::new(Registry::new(None));
    let (status, reply) = route(
        &registry,
        "POST",
        "/v1/topologies",
        r#"{"name":"sl","topology":"softlayer"}"#,
    );
    assert_eq!(status, 200, "{reply:?}");
    let create = r#"{"topology":"sl","sources":[0,1],"destinations":[3,9,12,17,21],
      "seed":13,"ttl_secs":0}"#;
    let int = |v: &Value, key: &str| match v.get(key) {
        Some(Value::Int(n)) => *n,
        other => panic!("{key} is {other:?} in {v:?}"),
    };
    let float = |v: &Value, key: &str| match v.get(key) {
        Some(Value::Float(x)) => *x,
        other => panic!("{key} is {other:?} in {v:?}"),
    };

    // Links: fail each in turn, repairing the ones that disrupt nothing.
    let (status, reply) = route(&registry, "POST", "/v1/sessions", create);
    assert_eq!(status, 200, "{reply:?}");
    let links = sof::topo::softlayer().graph;
    let mut disrupting_link = None;
    for (_, edge) in links.edges() {
        let element = format!("{{\"link\":[{},{}]}}", edge.u.index(), edge.v.index());
        let (status, reply) = route(&registry, "POST", "/v1/sessions/1/fail", &element);
        assert_eq!(status, 200, "{reply:?}");
        if int(&reply, "disrupted") > 0 {
            disrupting_link = Some(element);
            break;
        }
        let (status, reply) = route(&registry, "POST", "/v1/sessions/1/repair", &element);
        assert_eq!(status, 200, "{reply:?}");
    }
    let link = disrupting_link.expect("some link carries the forest");
    let (status, reply) = route(
        &registry,
        "POST",
        "/v1/sessions/1/join",
        r#"{"destination":7}"#,
    );
    assert_eq!(status, 200, "{reply:?}");
    assert_eq!(reply.get("rebuilt"), Some(&Value::Bool(true)), "{reply:?}");
    assert!(
        float(&reply, "forest_cost") < FAILED_COST,
        "after {link}: {reply:?}"
    );

    // VMs (ids 27.. follow SoftLayer's 27 access nodes), the same way.
    let (status, reply) = route(&registry, "POST", "/v1/sessions", create);
    assert_eq!(status, 200, "{reply:?}");
    let mut disrupting_vm = None;
    for vm in 27.. {
        let element = format!("{{\"vm\":{vm}}}");
        let (status, reply) = route(&registry, "POST", "/v1/sessions/2/fail", &element);
        assert_eq!(
            status, 200,
            "the forest runs on none of VMs 27..{vm}: {reply:?}"
        );
        if int(&reply, "disrupted") > 0 {
            disrupting_vm = Some(element);
            break;
        }
        route(&registry, "POST", "/v1/sessions/2/repair", &element);
    }
    let vm = disrupting_vm.expect("the loop ends on a disrupting VM");
    let (status, reply) = route(
        &registry,
        "POST",
        "/v1/sessions/2/leave",
        r#"{"destination":9}"#,
    );
    assert_eq!(status, 200, "after {vm}: {reply:?}");
    assert_eq!(float(&reply, "forest_cost"), 0.0, "{reply:?}");
    let (status, reply) = route(&registry, "GET", "/v1/sessions/2", "");
    assert_eq!(status, 200, "{reply:?}");
    assert_eq!(float(&reply, "forest_cost"), 0.0, "after {vm}: {reply:?}");
    let served = Value::Array([3, 12, 17, 21].map(Value::Int).to_vec());
    assert_eq!(reply.get("destinations"), Some(&served), "{reply:?}");
}

/// The janitor expires idle sessions past their TTL; touched sessions
/// live on.
#[test]
fn janitor_expires_idle_sessions() {
    let handle = start(ServerConfig {
        default_ttl: Some(Duration::from_millis(300)),
        janitor_period: Duration::from_millis(50),
        ..ServerConfig::default()
    });
    let mut c = Client::new(handle.addr());
    c.request("POST", "/v1/topologies", BENCH_TOPO).unwrap();
    // ttl_secs omitted → the server default applies.
    let body = r#"{"topology":"t","sources":[0],"destinations":[3,9],"seed":11}"#;
    let (status, resp) = c.request("POST", "/v1/sessions", body).unwrap();
    assert_eq!(status, 200, "{resp}");

    // Idle past the TTL: the janitor reaps it.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        std::thread::sleep(Duration::from_millis(100));
        let (_, stats) = c.request("GET", "/v1/stats", "").unwrap();
        if stats.contains("\"expired\":1") {
            assert!(stats.contains("\"live\":0"), "{stats}");
            break;
        }
        assert!(Instant::now() < deadline, "janitor never expired: {stats}");
    }
    let (status, _) = c.request("GET", "/v1/sessions/1", "").unwrap();
    assert_eq!(status, 404);

    // A ttl_secs of 0 opts out of expiry entirely.
    let immortal = r#"{"topology":"t","sources":[0],"destinations":[3,9],"seed":12,"ttl_secs":0}"#;
    let (status, resp) = c.request("POST", "/v1/sessions", immortal).unwrap();
    assert_eq!(status, 200, "{resp}");
    std::thread::sleep(Duration::from_millis(700));
    let (status, _) = c.request("GET", "/v1/sessions/2", "").unwrap();
    assert_eq!(status, 200, "session with ttl_secs 0 must not expire");
    handle.stop();
}

/// Graceful shutdown drains in-flight requests: a request already written
/// to the socket when `stop` begins still gets its complete response.
#[test]
fn graceful_shutdown_drains_in_flight_requests() {
    let handle = start(ServerConfig::default());
    let addr = handle.addr();

    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
        .unwrap();
    stream.flush().unwrap();

    // Stop the daemon while the request is in flight. `stop` joins the
    // accept loop, which joins every connection thread — so it cannot
    // return until our request has been answered.
    let stopper = std::thread::spawn(move || handle.stop());
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    stopper.join().unwrap();

    assert!(response.starts_with("HTTP/1.1 200"), "{response}");
    assert!(response.contains("\"ok\":true"), "{response}");

    // The daemon is actually gone: new connections are refused (or reset
    // at the first read on lingering backlog accepts).
    match TcpStream::connect(addr) {
        Err(_) => {}
        Ok(mut s) => {
            s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            let _ = s.write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
            let mut buf = String::new();
            assert_eq!(
                s.read_to_string(&mut buf).unwrap_or(0),
                0,
                "daemon answered after shutdown: {buf}"
            );
        }
    }
}

/// Writes `bytes` on a fresh connection as one write and returns all the
/// daemon answers before it closes.
fn exchange(addr: std::net::SocketAddr, bytes: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    stream.write_all(bytes).unwrap();
    let mut reply = String::new();
    stream.read_to_string(&mut reply).unwrap();
    reply
}

/// Each framing rule DAEMON.md promises, over a raw socket: a head that
/// reaches 16 KiB without its blank line is a 431, `Transfer-Encoding`
/// and an `HTTP/2.0` request line are 501s, a request line without three
/// parts is a 400 — each answered, then closed, and the daemon serves on.
#[test]
fn framing_violations_get_their_status_and_close() {
    let handle = start(ServerConfig::default());
    let line = "GET /healthz HTTP/1.1\r\nX-Pad: ";
    let long_head = format!("{line}{}", "a".repeat(16 * 1024 - line.len()));
    let cases = [
        (
            long_head.as_str(),
            "431 Request Header Fields Too Large",
            "exceeds 16 KiB",
        ),
        (
            "POST /v1/sessions HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
            "501 Not Implemented",
            "Transfer-Encoding is not supported",
        ),
        (
            "GET /healthz HTTP/2.0\r\n\r\n",
            "501 Not Implemented",
            "unsupported protocol 'HTTP/2.0'",
        ),
        (
            "NONSENSE\r\n\r\n",
            "400 Bad Request",
            "malformed request line 'NONSENSE'",
        ),
    ];
    for (request, status, message) in cases {
        let reply = exchange(handle.addr(), request.as_bytes());
        assert!(
            reply.starts_with(&format!("HTTP/1.1 {status}\r\n")),
            "{reply}"
        );
        assert!(reply.contains("Connection: close\r\n"), "{reply}");
        assert!(reply.contains(message), "{reply}");
        healthz_on_a_fresh_connection(&handle);
    }
    handle.stop();
}

/// A head that stops partway is answered 408 once the read timeout passes.
#[test]
fn a_head_that_stops_partway_is_a_408() {
    let handle = start(ServerConfig {
        read_timeout: Duration::from_millis(200),
        ..ServerConfig::default()
    });
    let reply = exchange(handle.addr(), b"GET /healthz HTTP/1.1\r\nHo");
    assert!(
        reply.starts_with("HTTP/1.1 408 Request Timeout\r\n"),
        "{reply}"
    );
    assert!(reply.contains("no complete request within 0.2s"), "{reply}");
    healthz_on_a_fresh_connection(&handle);
    handle.stop();
}

/// Two requests sent in one write are both answered, in order: the bytes
/// of the second stay in the connection's buffer while the first, and its
/// body, are served. Fails when the buffer is built per request (the
/// second request is dropped with it and the daemon answers a 408).
#[test]
fn pipelined_requests_are_answered_in_order() {
    let handle = start(ServerConfig::default());
    let pair = format!(
        "POST /v1/topologies HTTP/1.1\r\nContent-Length: {}\r\n\r\n{BENCH_TOPO}\
         GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
        BENCH_TOPO.len()
    );
    let reply = exchange(handle.addr(), pair.as_bytes());
    let replies: Vec<&str> = reply.split("HTTP/1.1 ").skip(1).collect();
    assert_eq!(replies.len(), 2, "{reply}");
    assert!(replies[0].starts_with("200 OK\r\n"), "{reply}");
    assert!(replies[0].contains("Connection: keep-alive\r\n"), "{reply}");
    assert!(replies[0].contains("\"kind\":\"regions\""), "{reply}");
    assert!(replies[1].starts_with("200 OK\r\n"), "{reply}");
    assert!(replies[1].contains("\"ok\":true"), "{reply}");
    handle.stop();
}

/// A head that arrives one byte per write, its blank line split across
/// two reads, parses as if it had arrived at once.
#[test]
fn a_head_sent_one_byte_per_write_still_parses() {
    let handle = start(ServerConfig::default());
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let head = b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n";
    for (i, byte) in head.iter().enumerate() {
        // Long enough before the last byte that "\r\n\r" is read alone.
        let pause = if i + 1 == head.len() { 100 } else { 1 };
        std::thread::sleep(Duration::from_millis(pause));
        stream.write_all(&[*byte]).unwrap();
    }
    let mut reply = String::new();
    stream.read_to_string(&mut reply).unwrap();
    assert!(reply.starts_with("HTTP/1.1 200 OK\r\n"), "{reply}");
    assert!(reply.contains("\"ok\":true"), "{reply}");
    handle.stop();
}

/// A reply whose `Content-Length` is not a number is an `InvalidData`
/// error at the client, not an empty body that misframes the next reply.
#[test]
fn the_client_refuses_a_malformed_content_length() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let peer = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let mut head = Vec::new();
        let mut byte = [0u8; 1];
        while !head.ends_with(b"\r\n\r\n") && stream.read(&mut byte).unwrap() == 1 {
            head.push(byte[0]);
        }
        stream
            .write_all(b"HTTP/1.1 200 OK\r\nContent-Length: twelve\r\n\r\n{\"ok\":true}\n")
            .unwrap();
    });
    let err = Client::new(addr)
        .request("GET", "/healthz", "")
        .unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    assert!(err.to_string().contains("'twelve'"), "{err}");
    peer.join().unwrap();
}

/// A request whose reply outlives the client's timeout is not sent again:
/// the daemon may be embedding it, and a second create would embed a
/// second session. A stub answers one `/healthz` on a keep-alive
/// connection, reads a `POST` and stalls past the 200 ms timeout; it must
/// have seen one connection and two requests. Fails when the client
/// retries every error on a reused connection (a second connection with
/// the `POST` again).
#[test]
fn a_request_that_times_out_is_not_sent_again() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let (client_done, stall) = mpsc::channel::<()>();
    let peer = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut wire = http::reader(&stream);
        let healthz = http::read_request(&mut wire, 1 << 20).unwrap();
        assert_eq!(healthz.path, "/healthz");
        http::write_response(&mut &stream, 200, "{\"ok\":true}", true).unwrap();
        let post = http::read_request(&mut wire, 1 << 20).unwrap();
        assert_eq!(
            (post.method.as_str(), post.path.as_str()),
            ("POST", "/v1/sessions")
        );
        stall.recv().unwrap();
        // Whatever else reached the listener, count it.
        let (mut connections, mut requests) = (1, 2);
        listener.set_nonblocking(true).unwrap();
        while let Ok((extra, _)) = listener.accept() {
            connections += 1;
            extra.set_nonblocking(false).unwrap();
            extra
                .set_read_timeout(Some(Duration::from_secs(2)))
                .unwrap();
            let mut wire = http::reader(&extra);
            while http::read_request(&mut wire, 1 << 20).is_ok() {
                requests += 1;
            }
        }
        while http::read_request(&mut wire, 1 << 20).is_ok() {
            requests += 1;
        }
        (connections, requests)
    });
    let mut c = Client::new(addr).with_timeout(Duration::from_millis(200));
    assert_eq!(c.request("GET", "/healthz", "").unwrap().0, 200);
    let err = c.request("POST", "/v1/sessions", SESSION).unwrap_err();
    assert!(
        matches!(
            err.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        ),
        "{err}"
    );
    drop(c);
    client_done.send(()).unwrap();
    assert_eq!(peer.join().unwrap(), (1, 2), "(connections, requests)");
}

/// `POST /v1/shutdown` flips the stop flag the serving loop watches.
#[test]
fn shutdown_endpoint_requests_stop() {
    let handle = start(ServerConfig::default());
    let mut c = Client::new(handle.addr());
    assert!(!handle.stop_requested());
    let (status, body) = c.request("POST", "/v1/shutdown", "").unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"stopping\":true"), "{body}");
    assert!(handle.stop_requested());
    handle.stop();
}

/// Starts `sof serve --addr 127.0.0.1:0` with `flags`, stdin and stdout
/// piped, and reads the bound address from its one stdout line. Kills it
/// and panics when that line does not arrive within 20 s.
fn sof_serve(flags: &[&str]) -> (Child, SocketAddr) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_sof"))
        .args(["serve", "--addr", "127.0.0.1:0"])
        .args(flags)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn sof serve");
    let stdout = child.stdout.take().expect("stdout is piped");
    let (tx, rx) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        let mut line = String::new();
        let _ = BufReader::new(stdout).read_line(&mut line);
        let _ = tx.send(line);
    });
    let line = rx.recv_timeout(Duration::from_secs(20)).unwrap_or_default();
    let addr = line
        .trim_end()
        .strip_prefix("listening on http://")
        .and_then(|addr| addr.parse().ok());
    let Some(addr) = addr else {
        let _ = child.kill();
        let _ = child.wait();
        let _ = reader.join();
        panic!("sof serve printed {line:?}, not its address");
    };
    reader.join().expect("the stdout reader");
    (child, addr)
}

/// `child`'s exit status, waited for at most 20 s; past that it is killed
/// and the test fails.
fn exit_status(mut child: Child) -> ExitStatus {
    let deadline = Instant::now() + Duration::from_secs(20);
    while Instant::now() < deadline {
        if let Some(status) = child.try_wait().expect("try_wait") {
            return status;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let _ = child.kill();
    let _ = child.wait();
    panic!("sof serve was still running 20 s after it was told to stop");
}

/// The daemon as an operator runs it: `sof serve` on port 0 prints its
/// address as its one stdout line, serves a session's create → join →
/// leave → link fail → repair → get → stats over real TCP, and on
/// `POST /v1/shutdown` drains and exits 0 on its own. Fails when `sof
/// serve` stops printing the address line or exits non-zero after
/// `handle.stop()`.
#[test]
fn sof_serve_serves_a_session_and_exits_0_on_shutdown() {
    let (child, addr) = sof_serve(&[]);
    let mut c = Client::new(addr);
    let ok = |c: &mut Client, method: &str, path: &str, body: &str| {
        let (status, reply) = c.request(method, path, body).unwrap();
        assert_eq!(status, 200, "{method} {path} {body}: {reply}");
        reply
    };
    ok(&mut c, "POST", "/v1/topologies", BENCH_TOPO);
    let created = ok(&mut c, "POST", "/v1/sessions", SESSION);
    assert!(created.contains("\"id\":1"), "{created}");
    let joined = ok(&mut c, "POST", "/v1/sessions/1/join", "{\"destination\":5}");
    assert!(joined.contains("\"joined\":1"), "{joined}");
    let left = ok(
        &mut c,
        "POST",
        "/v1/sessions/1/leave",
        "{\"destination\":5}",
    );
    assert!(left.contains("\"destinations\":[3,9]"), "{left}");
    // The first link off node 0 the daemon accepts (the others are 400s).
    let link = (1..12)
        .map(|v| format!("{{\"link\":[0,{v}]}}"))
        .find(|link| c.request("POST", "/v1/sessions/1/fail", link).unwrap().0 == 200)
        .expect("node 0 has at least one incident link");
    ok(&mut c, "POST", "/v1/sessions/1/repair", &link);
    let session = ok(&mut c, "GET", "/v1/sessions/1", "");
    assert!(session.contains("\"joins\":1"), "{session}");
    let stats = ok(&mut c, "GET", "/v1/stats", "");
    assert!(stats.contains("\"created\":1"), "{stats}");
    let bye = ok(&mut c, "POST", "/v1/shutdown", "");
    assert!(bye.contains("\"stopping\":true"), "{bye}");
    drop(c);
    let status = exit_status(child);
    assert!(status.success(), "sof serve exited with {status}");
}

/// `sof serve --stdin` stops when its stdin reaches EOF, as a supervisor
/// holding the pipe ends it: closing the pipe is a clean exit 0.
#[test]
fn sof_serve_stdin_exits_0_when_its_pipe_closes() {
    let (mut child, addr) = sof_serve(&["--stdin"]);
    let (status, body) = Client::new(addr).request("GET", "/healthz", "").unwrap();
    assert_eq!(status, 200, "{body}");
    drop(child.stdin.take());
    let status = exit_status(child);
    assert!(status.success(), "sof serve --stdin exited with {status}");
}

fn healthz_on_a_fresh_connection(handle: &sof::daemon::ServerHandle) {
    let (status, body) = Client::new(handle.addr())
        .request("GET", "/healthz", "")
        .expect("the daemon is still there");
    assert_eq!(status, 200, "{body}");
}

/// A body of nothing but `[` is refused by the parser's depth limit. Before
/// the limit, `parse_json_value` recursed once per bracket and overflowed
/// the connection thread's 2 MiB stack at about 10 000 of them — an abort,
/// which `catch_unwind` never sees: at the parent commit this test does not
/// fail, it kills the test process.
#[test]
fn deeply_nested_body_is_a_400_not_a_stack_overflow() {
    let handle = start(ServerConfig::default());
    let mut c = Client::new(handle.addr());
    let (status, body) = c
        .request("POST", "/v1/sessions", &"[".repeat(200_000))
        .unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("nest") && body.contains("128"), "{body}");
    healthz_on_a_fresh_connection(&handle);
    drop(c); // an idle keep-alive connection holds `stop` for its read timeout
    handle.stop();
}

/// Sizes that used to be cast to `usize` and built. At the parent commit
/// the first two end the test process by allocation failure
/// (`Graph::add_node`, `ServiceChain::with_len`'s 96 GB `Vec`) and the
/// third is answered 500 (`Instant + Duration` overflows in `touch`).
#[test]
fn absurd_sizes_are_a_400_naming_the_field_not_an_abort() {
    let handle = start(ServerConfig::default());
    let mut c = Client::new(handle.addr());
    let (status, body) = c
        .request(
            "POST",
            "/v1/topologies",
            r#"{"name":"t","topology":"testbed"}"#,
        )
        .unwrap();
    assert_eq!(status, 200, "{body}");
    for (field, value) in [
        ("vm_count", "1000000000000"),
        ("chain_len", "4000000000"),
        ("ttl_secs", "9223372036854775807"),
    ] {
        let request =
            format!(r#"{{"topology":"t","sources":[0],"destinations":[3],"{field}":{value}}}"#);
        let (status, body) = c.request("POST", "/v1/sessions", &request).unwrap();
        assert_eq!(status, 400, "{field}: {body}");
        assert!(
            body.contains(&format!("'{field}' must be between 0 and ")),
            "{body}"
        );
        assert!(body.contains(&format!("found {value}")), "{body}");
        healthz_on_a_fresh_connection(&handle);
    }
    drop(c);
    handle.stop();
}

/// Every integer a body can name has a cap, stated once in
/// `sof::daemon::registry`: one past the cap is a 400 naming the field and
/// the range; at the cap the request gets past the reader (it is accepted,
/// or refused for what it asks — an unknown topology or session, a library
/// validator).
#[test]
fn every_wire_integer_is_capped() {
    use sof::daemon::registry::*;
    let handle = start(ServerConfig::default());
    let mut c = Client::new(handle.addr());
    // `path field body`, with `#` for the value, `@` for a session on a
    // topology nobody registered and `%` for a small region.
    let cases = r#"
        /v1/sessions            chain_len        {@,"chain_len":#}
        /v1/sessions            vm_count         {@,"vm_count":#}
        /v1/sessions            vms_per_dc       {@,"vms_per_dc":#}
        /v1/sessions            ttl_secs         {@,"ttl_secs":#}
        /v1/sessions            sources[1]       {"topology":"nope","sources":[0,#],"destinations":[3]}
        /v1/sessions            destinations[0]  {"topology":"nope","sources":[0],"destinations":[#]}
        /v1/topologies          nodes            {"name":"n","topology":"softlayer","nodes":#}
        /v1/topologies          gateway_links    {"name":"g","regions":[%,%],"gateway_links":#}
        /v1/topologies          regions[1].nodes {"name":"r","regions":[%,{"name":"c","nodes":#}]}
        /v1/sessions/99/join    destination      {"destination":#}
        /v1/sessions/99/leave   destination      {"destination":#}
        /v1/sessions/99/fail    vm               {"vm":#}
        /v1/sessions/99/repair  node             {"node":#}
        /v1/sessions/99/fail    link[1]          {"link":[0,#]}
        /v1/sessions/99/fail    repair_secs      {"node":1,"repair_secs":#}"#;
    let region = r#"{"name":"b","nodes":4,"dcs":1}"#;
    for case in cases.lines().skip(1) {
        let [path, field, template] = case.split_whitespace().collect::<Vec<_>>()[..] else {
            panic!("three columns: {case}");
        };
        let cap = match field {
            "chain_len" => MAX_CHAIN_LEN,
            "vm_count" | "vms_per_dc" => MAX_VM_COUNT,
            "ttl_secs" | "repair_secs" => MAX_SECS,
            "nodes" => MAX_TOPOLOGY_NODES,
            "gateway_links" => MAX_GATEWAY_LINKS,
            "regions[1].nodes" => MAX_REGION_NODES,
            _ => MAX_NODE_INDEX,
        };
        let body = |value: u64| {
            template
                .replace('@', r#""topology":"nope","sources":[0],"destinations":[3]"#)
                .replace('%', region)
                .replace('#', &value.to_string())
        };
        // Past the cap first: at the cap a topology may well register.
        let (status, reply) = c.request("POST", path, &body(cap + 1)).unwrap();
        assert_eq!(status, 400, "{field} past its cap: {reply}");
        let want = format!("'{field}' must be between 0 and {cap}, found {}", cap + 1);
        assert!(reply.contains(&want), "wanted \"{want}\": {reply}");
        let (status, reply) = c.request("POST", path, &body(cap)).unwrap();
        assert!(
            (status == 200 || (400..500).contains(&status)) && !reply.contains("must be between"),
            "{field} at its cap {cap}: {status} {reply}"
        );
    }
    // The list itself is capped, and so is the product the two VM knobs
    // make on a regions topology.
    let many = vec![region; MAX_REGIONS as usize + 1].join(",");
    let many = format!(r#"{{"name":"m","regions":[{many}]}}"#);
    let (status, reply) = c.request("POST", "/v1/topologies", &many).unwrap();
    assert_eq!(status, 400, "{reply}");
    assert!(reply.contains("at most 64 regions"), "{reply}");
    let wide = r#"{"name":"w","regions":[{"name":"a","nodes":1000,"dcs":1000}]}"#;
    let (status, reply) = c.request("POST", "/v1/topologies", wide).unwrap();
    assert_eq!(status, 200, "{reply}");
    let session = r#"{"topology":"w","sources":[0],"destinations":[3],"vms_per_dc":2}"#;
    let (status, reply) = c.request("POST", "/v1/sessions", session).unwrap();
    assert_eq!(status, 400, "{reply}");
    assert!(
        reply.contains("must be at most 1000 VMs, found 2000"),
        "{reply}"
    );
    healthz_on_a_fresh_connection(&handle);
    drop(c); // an idle keep-alive connection holds `stop` for its read timeout
    handle.stop();
}

/// Chains inside the wire caps that no exact search finishes: what bounds
/// the work of a `chain_len` / `vm_count` is the k-stroll search's node
/// budget, not a table sized from the body. Each create is a 200 with a
/// forest — a create with its conflict fallbacks spends one budget and
/// prices the rest of its chains greedily — and a later join answers too.
/// Before the budget the first body ended the test process (the
/// color coding fallback asked for `2^31 · 61` table entries: `memory
/// allocation of 1047972020224 bytes failed`, which `catch_unwind` never
/// sees) and chains of 63 and 64 tripped its `assert!((1..=63).contains(&k))`
/// and were answered 500. Fails when `dfs` never tests the budget: the
/// first create outlives the client's timeout.
#[test]
fn long_chains_inside_the_caps_embed_on_a_budget() {
    let handle = start(ServerConfig::default());
    // A debug build takes 15–20 s to spend a budget.
    let mut c = Client::new(handle.addr()).with_timeout(Duration::from_secs(60));
    let (status, body) = c
        .request(
            "POST",
            "/v1/topologies",
            r#"{"name":"c","topology":"cogent"}"#,
        )
        .unwrap();
    assert_eq!(status, 200, "{body}");
    for (chain_len, vm_count) in [(30, 60), (63, 100), (64, 100)] {
        let request = format!(
            r#"{{"topology":"c","sources":[0,1],"destinations":[5,9,17],"chain_len":{chain_len},"vm_count":{vm_count}}}"#
        );
        let (status, body) = c.request("POST", "/v1/sessions", &request).unwrap();
        assert_eq!(status, 200, "chain_len {chain_len}: {body}");
        let cost: f64 = forest_cost(&body).parse().expect("a number");
        assert!(
            cost.is_finite() && cost > 0.0,
            "chain_len {chain_len}: {body}"
        );
        healthz_on_a_fresh_connection(&handle);
    }
    let (status, body) = c
        .request("POST", "/v1/sessions/1/join", r#"{"destination":23}"#)
        .unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(forest_cost(&body).parse::<f64>().is_ok(), "{body}");
    healthz_on_a_fresh_connection(&handle);
    // The session says over the wire whether its chains are optimal: the
    // chain of 30 spent its node budget and was handed to greedy insertion,
    // a chain of 3 is searched to the end.
    let short = r#"{"topology":"c","sources":[0,1],"destinations":[5,9,17],"chain_len":3}"#;
    let (status, body) = c.request("POST", "/v1/sessions", short).unwrap();
    assert_eq!(status, 200, "{body}");
    let counter = |c: &mut Client, id: u64, name: &str| -> i64 {
        let (status, body) = c.request("GET", &format!("/v1/sessions/{id}"), "").unwrap();
        assert_eq!(status, 200, "{body}");
        let reply = sof::spec::value::parse_json(&body).expect("a JSON reply");
        match reply.get("counters").and_then(|t| t.get(name)) {
            Some(sof::spec::value::Value::Int(n)) => *n,
            other => panic!("counters.{name} is {other:?} in {body}"),
        }
    };
    assert!(counter(&mut c, 1, "stroll_handovers") > 0);
    assert!(counter(&mut c, 1, "stroll_nodes") > 0);
    assert_eq!(counter(&mut c, 4, "stroll_handovers"), 0);
    assert!(counter(&mut c, 4, "stroll_nodes") > 0);
    drop(c); // an idle keep-alive connection holds `stop` for its read timeout
    handle.stop();
}
