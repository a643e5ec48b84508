//! End-to-end suite for the readiness-driven event engine: pipelining
//! byte-equivalence, slow-loris resilience (a thousand idle connections
//! must not starve compose traffic), deterministic `busy` backpressure,
//! wire auth, idle-reaping that spares mid-frame peers, malformed frames
//! that leave the connection usable, and gauges that return to zero after
//! shutdown.

// Integration-test crates are built without `cfg(test)`, so the
// `allow-unwrap-in-tests` exemption in clippy.toml cannot reach them;
// panicking on a surprise is exactly what a test should do.
#![allow(clippy::unwrap_used)]

use std::io::{BufReader, Write as _};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use mapping_composition::prelude::*;
use mapping_composition::service::{read_frame, EventServer};

/// A linear chain catalog `v0 -> v1 -> … -> v{hops}`, one relation per
/// schema, so compose-path requests have deterministic answers.
fn chain_document(hops: usize) -> String {
    let mut text = String::new();
    for i in 0..=hops {
        text.push_str(&format!("schema v{i} {{ R{i}/1; }}\n"));
    }
    for i in 0..hops {
        text.push_str(&format!("mapping m{i} : v{i} -> v{j} {{ R{i} <= R{j}; }}\n", j = i + 1));
    }
    text
}

fn chain_backend(hops: usize) -> LocalService {
    let service = LocalService::new(Catalog::new(), 2);
    service.call(Request::AddDocument { text: chain_document(hops) }).unwrap();
    service
}

fn encode(request: &Request) -> String {
    mapping_composition::service::encode_request(request)
}

/// Connect with retries: under connection bursts the listener's backlog
/// can drop a SYN, which surfaces as a transient refusal.
fn connect_patiently(addr: &str) -> TcpStream {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => return stream,
            Err(error) if Instant::now() < deadline => {
                let _ = error;
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(error) => panic!("cannot connect to {addr}: {error}"),
        }
    }
}

/// The pipelined requests under test: successes, a failure, and repeats
/// (repeats exercise the reorder map; the failure must hold its position).
fn pipeline_requests() -> Vec<Request> {
    vec![
        Request::Ping,
        Request::ComposePath { from: "v0".into(), to: "v4".into() },
        Request::ComposePath { from: "v4".into(), to: "v0".into() },
        Request::ComposePath { from: "v1".into(), to: "v3".into() },
        Request::Ping,
        Request::ComposePath { from: "v0".into(), to: "v4".into() },
    ]
}

/// Run `requests` over one connection to `addr`, lock-step: write one,
/// read one. Returns the raw reply frames.
fn run_sequential(addr: &str, requests: &[Request]) -> Vec<String> {
    let stream = connect_patiently(addr);
    stream.set_nodelay(true).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut frames = Vec::new();
    for request in requests {
        writer.write_all(encode(request).as_bytes()).unwrap();
        writer.flush().unwrap();
        frames.push(read_frame(&mut reader).unwrap().expect("reply frame"));
    }
    frames
}

/// Run `requests` over one connection to `addr`, pipelined: write the
/// whole burst back-to-back, then read every reply. Returns the raw reply
/// frames.
fn run_pipelined(addr: &str, requests: &[Request]) -> Vec<String> {
    let stream = connect_patiently(addr);
    stream.set_nodelay(true).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let burst: String = requests.iter().map(encode).collect();
    writer.write_all(burst.as_bytes()).unwrap();
    writer.flush().unwrap();
    (0..requests.len()).map(|_| read_frame(&mut reader).unwrap().expect("reply frame")).collect()
}

/// Shut a server down through a throwaway client connection.
fn send_shutdown(addr: &str) {
    let client = Client::connect(addr).unwrap();
    client.call(Request::Shutdown).unwrap();
}

#[test]
fn pipelined_replies_are_byte_identical_to_sequential_round_trips() {
    // Two identically seeded servers, so per-request cache counters in the
    // payloads evolve identically: one driven sequentially, one pipelined.
    // The two reply streams must match byte for byte.
    let requests = pipeline_requests();

    let sequential = {
        let backend = chain_backend(4);
        let server = EventServer::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let mut frames = None;
        std::thread::scope(|scope| {
            scope.spawn(|| server.run(&backend, 2).unwrap());
            frames = Some(run_sequential(&addr, &requests));
            send_shutdown(&addr);
        });
        frames.unwrap()
    };

    let pipelined = {
        let backend = chain_backend(4);
        let server = EventServer::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let mut frames = None;
        std::thread::scope(|scope| {
            scope.spawn(|| server.run(&backend, 2).unwrap());
            frames = Some(run_pipelined(&addr, &requests));
            send_shutdown(&addr);
        });
        frames.unwrap()
    };

    assert_eq!(sequential.len(), requests.len());
    assert_eq!(pipelined.len(), requests.len());
    for (index, (seq, pipe)) in sequential.iter().zip(&pipelined).enumerate() {
        assert_eq!(seq, pipe, "reply {index}: pipeline diverged from sequential");
    }
}

#[test]
fn a_thousand_idle_connections_do_not_starve_compose_traffic() {
    // Slow loris: 1024 connections held open without sending a byte. A
    // thread-per-connection server would pin a worker per connection and
    // deadlock at `workers` of them; the event engine must keep serving
    // composes with a 4-thread CPU pool.
    const IDLE: usize = 1024;
    let backend = chain_backend(6);
    let server = EventServer::bind("127.0.0.1:0").unwrap();
    let addr = server.local_addr().unwrap().to_string();
    std::thread::scope(|scope| {
        scope.spawn(|| server.run(&backend, 4).unwrap());

        let idle: Vec<TcpStream> = (0..IDLE).map(|_| connect_patiently(&addr)).collect();

        // Compose traffic proceeds while every idle socket stays open.
        let client = Client::connect(&addr).unwrap();
        for i in 0..6usize {
            let reply = client
                .call(Request::ComposePath { from: format!("v{i}"), to: "v6".into() })
                .unwrap();
            assert!(matches!(reply, Response::Composed(_)));
        }
        assert_eq!(client.call(Request::Ping).unwrap(), Response::Pong);

        // The idle sockets are still connected (the server has not dropped
        // them): a request on one of them still gets served.
        let lazy = idle.into_iter().next_back().unwrap();
        lazy.set_nodelay(true).unwrap();
        let mut writer = lazy.try_clone().unwrap();
        let mut reader = BufReader::new(lazy);
        writer.write_all(encode(&Request::Ping).as_bytes()).unwrap();
        writer.flush().unwrap();
        let frame = read_frame(&mut reader).unwrap().expect("reply on a formerly idle socket");
        assert!(frame.contains("pong"), "unexpected reply frame:\n{frame}");

        client.call(Request::Shutdown).unwrap();
    });
}

/// A backend that sleeps before every compose, so compose requests can be
/// held in flight deterministically.
struct SlowService {
    inner: LocalService,
    delay: Duration,
}

impl MapcompService for SlowService {
    fn call(&self, request: Request) -> Result<Response, ServiceError> {
        if matches!(request, Request::ComposePath { .. }) {
            std::thread::sleep(self.delay);
        }
        self.inner.call(request)
    }
}

#[test]
fn saturating_the_cpu_queue_sheds_with_the_busy_error() {
    // One CPU worker, queue limit 1, and a single connection pipelining
    // three slow composes: the first occupies the worker, the second waits
    // in the connection's pipeline, and the third must be shed with `busy`
    // — deterministically, because frames are processed in arrival order
    // before any completion can drain.
    let backend = SlowService { inner: chain_backend(4), delay: Duration::from_millis(300) };
    let mut server = EventServer::bind("127.0.0.1:0").unwrap();
    server.set_queue_limit(1);
    assert_eq!(server.queue_limit(), 1);
    let addr = server.local_addr().unwrap().to_string();
    std::thread::scope(|scope| {
        scope.spawn(|| server.run(&backend, 1).unwrap());

        let compose = Request::ComposePath { from: "v0".into(), to: "v4".into() };
        let frames = run_pipelined(&addr, &[compose.clone(), compose.clone(), compose]);
        let replies: Vec<_> = frames
            .iter()
            .map(|frame| mapping_composition::service::decode_reply(frame).unwrap())
            .collect();
        assert!(matches!(replies[0], Ok(Response::Composed(_))), "{:?}", replies[0]);
        assert!(matches!(replies[1], Ok(Response::Composed(_))), "{:?}", replies[1]);
        let error = replies[2].as_ref().unwrap_err();
        assert_eq!(error.code, ErrorCode::Busy, "third reply: {error}");

        // The shed is visible in telemetry, and the connection survived to
        // serve more requests after the busy reply.
        let client = Client::connect(&addr).unwrap();
        let Ok(Response::Metrics { text }) = client.call(Request::Metrics) else {
            panic!("metrics request failed");
        };
        let shed: u64 = text
            .lines()
            .find_map(|line| line.strip_prefix("server_busy_rejected_total "))
            .expect("busy counter in the exposition")
            .trim()
            .parse()
            .unwrap();
        assert!(shed >= 1, "busy shed not counted:\n{text}");

        client.call(Request::Shutdown).unwrap();
    });
}

#[test]
fn the_event_engine_enforces_wire_auth() {
    let backend = chain_backend(2);
    let mut server = EventServer::bind("127.0.0.1:0").unwrap();
    server.set_auth_token(Some("swordfish".into()));
    let addr = server.local_addr().unwrap().to_string();
    std::thread::scope(|scope| {
        scope.spawn(|| server.run(&backend, 2).unwrap());

        // No token: refused, but the connection survives to authenticate.
        let anonymous = Client::connect(&addr).unwrap();
        let error = anonymous.call(Request::Ping).unwrap_err();
        assert_eq!(error.code, ErrorCode::Unavailable);
        assert!(error.to_string().contains("auth"), "unhelpful refusal: {error}");

        // Wrong token: still refused.
        let wrong = Client::connect(&addr).unwrap().with_auth_token(Some("sardine".into()));
        assert_eq!(wrong.call(Request::Ping).unwrap_err().code, ErrorCode::Unavailable);

        // Right token: the first frame authenticates the connection and
        // later frames ride without the field.
        let authed = Client::connect(&addr).unwrap().with_auth_token(Some("swordfish".into()));
        assert_eq!(authed.call(Request::Ping).unwrap(), Response::Pong);
        assert!(matches!(
            authed.call(Request::ComposePath { from: "v0".into(), to: "v2".into() }),
            Ok(Response::Composed(_))
        ));

        authed.call(Request::Shutdown).unwrap();
    });
}

#[test]
fn malformed_frames_get_protocol_errors_without_killing_the_connection() {
    let backend = LocalService::new(Catalog::new(), 1);
    let server = EventServer::bind("127.0.0.1:0").unwrap();
    let addr = server.local_addr().unwrap().to_string();
    std::thread::scope(|scope| {
        scope.spawn(|| server.run(&backend, 1).unwrap());

        let stream = connect_patiently(&addr);
        stream.set_nodelay(true).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        writer.write_all(b"garbage frame\nend\n").unwrap();
        writer.flush().unwrap();
        let frame = read_frame(&mut reader).unwrap().expect("reply to a malformed frame");
        let reply = mapping_composition::service::decode_reply(&frame).unwrap();
        assert_eq!(reply.unwrap_err().code, ErrorCode::Protocol);

        // The same connection still serves well-formed frames.
        writer.write_all(encode(&Request::Ping).as_bytes()).unwrap();
        writer.flush().unwrap();
        let frame = read_frame(&mut reader).unwrap().expect("reply after the malformed frame");
        assert_eq!(mapping_composition::service::decode_reply(&frame).unwrap(), Ok(Response::Pong));

        writer.write_all(encode(&Request::Shutdown).as_bytes()).unwrap();
        writer.flush().unwrap();
        let frame = read_frame(&mut reader).unwrap().expect("shutdown reply");
        assert_eq!(
            mapping_composition::service::decode_reply(&frame).unwrap(),
            Ok(Response::ShuttingDown)
        );
    });
}

#[test]
fn a_stalling_half_frame_client_survives_the_event_engines_idle_reaper() {
    let backend = chain_backend(2);
    let mut server = EventServer::bind("127.0.0.1:0").unwrap();
    server.set_idle_timeout(Some(Duration::from_millis(150)));
    let addr = server.local_addr().unwrap().to_string();
    std::thread::scope(|scope| {
        scope.spawn(|| server.run(&backend, 1).unwrap());

        let stream = connect_patiently(&addr);
        stream.set_nodelay(true).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);

        // Deliver a frame in two halves with a pause several idle timeouts
        // long in between: buffered bytes are progress, so the connection
        // must not be reaped.
        let frame = encode(&Request::Ping);
        let (head, tail) = frame.split_at(frame.len() / 2);
        writer.write_all(head.as_bytes()).unwrap();
        writer.flush().unwrap();
        std::thread::sleep(Duration::from_millis(600));
        writer.write_all(tail.as_bytes()).unwrap();
        writer.flush().unwrap();
        let reply = read_frame(&mut reader).unwrap().expect("half-frame client was reaped");
        assert!(reply.contains("pong"), "unexpected reply frame:\n{reply}");

        // A connection that is *genuinely* idle — no buffered bytes — is
        // reaped: the server closes it and read_frame sees clean EOF.
        let idle = connect_patiently(&addr);
        let mut idle_reader = BufReader::new(idle);
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match read_frame(&mut idle_reader) {
                Ok(None) => break, // clean close by the reaper
                Ok(Some(frame)) => panic!("unsolicited frame:\n{frame}"),
                Err(error) => {
                    assert!(Instant::now() < deadline, "idle connection never reaped: {error}");
                }
            }
        }

        send_shutdown(&addr);
    });
}

#[test]
fn gauges_return_to_zero_after_event_engine_shutdown() {
    let backend = chain_backend(3);
    let server = EventServer::bind("127.0.0.1:0").unwrap();
    let addr = server.local_addr().unwrap().to_string();
    std::thread::scope(|scope| {
        scope.spawn(|| server.run(&backend, 2).unwrap());
        let clients: Vec<Client> = (0..4).map(|_| Client::connect(&addr).unwrap()).collect();
        for (i, client) in clients.iter().enumerate() {
            let reply = client
                .call(Request::ComposePath { from: format!("v{}", i % 3), to: "v3".into() })
                .unwrap();
            assert!(matches!(reply, Response::Composed(_)));
        }
        clients[0].call(Request::Shutdown).unwrap();
    });

    // The registry is process-global and other tests in this binary run
    // concurrently, so poll: once *their* servers also quiesce, the active
    // and CPU-queue gauges must read zero.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let text = mapping_composition::telemetry::metrics::global().render();
        let gauge = |name: &str| -> Option<i64> {
            text.lines().find_map(|line| line.strip_prefix(name)?.trim().parse().ok())
        };
        let active = gauge("server_connections_active ");
        let cpu_queue = gauge("server_cpu_queue_depth ");
        if active == Some(0) && cpu_queue == Some(0) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "gauges did not settle to zero: active={active:?} cpu_queue={cpu_queue:?}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}
