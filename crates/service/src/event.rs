//! The TCP front end: one event loop owning every socket, a bounded CPU
//! worker pool doing the compose work.
//!
//! Binding live clients to worker threads one-to-one would make 4 workers
//! mean 4 concurrent connections no matter how idle they are. This engine
//! splits the two resources the way event-driven brokers do: a single loop
//! thread multiplexes *all* connections through an `epoll`/`poll`
//! readiness poller (the offline [`polling`] shim), while a small fixed
//! pool of CPU workers executes decoded requests. Thousands of idle
//! connections cost the loop one fd each; a slow chain compose occupies one
//! CPU worker and nothing else.
//!
//! Per connection the loop keeps a small state machine:
//!
//! * a **read buffer** framed by scanning for the `end` terminator line —
//!   partial frames survive across readiness events, and only a connection
//!   with an *empty* read buffer can be reaped as idle;
//! * a **pipeline**: every decoded frame gets a sequence number, requests
//!   execute strictly in per-connection order (one in the CPU pool at a
//!   time, the rest pending), and completed replies wait in a reorder map
//!   until every earlier sequence has been flushed — so a client may write
//!   N requests back-to-back and always reads N in-order replies;
//! * a **write buffer** drained on writability, with write interest
//!   registered only while bytes are actually waiting.
//!
//! Backpressure is explicit: when the shared CPU queue (or a connection's
//! pending pipeline) already holds `queue_limit` requests, new requests are
//! shed immediately with the stable [`ErrorCode::Busy`] error instead of
//! growing the queue — `server_cpu_queue_depth` gauges the queue and
//! `server_busy_rejected_total` counts the sheds.
//!
//! Shutdown is an in-band handshake: a [`Request::Shutdown`] reply makes
//! the backend persist, the accept socket is deregistered, and every
//! connection is closed as soon as its already-accepted work has been
//! flushed.

use std::collections::{BTreeMap, VecDeque};
use std::io::{Read as _, Write as _};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use mapcomp_catalog::Position;
use mapcomp_replication::{StreamEvent, Subscription};
use mapcomp_telemetry::log::{json_line, LogFormat, LogValue};
use mapcomp_telemetry::metrics::{global, Counter, Gauge};
use polling::{Event, Poller};

use crate::api::{DeltaChunkPayload, ErrorCode, Request, Response, ServiceError};
use crate::service::MapcompService;
use crate::wire::{decode_request_frame, encode_reply, reply_kind, FRAME_END, MAX_FRAME_BYTES};

/// Poller key of the listening socket (connection keys start above it).
const LISTENER_KEY: usize = 0;

/// How many pending requests the CPU queue (and any one connection's
/// pipeline) may hold before new requests are shed with
/// [`ErrorCode::Busy`], unless overridden by
/// [`EventServer::set_queue_limit`].
pub const DEFAULT_QUEUE_LIMIT: usize = 1024;

#[cfg(unix)]
fn raw_fd(socket: &impl std::os::fd::AsRawFd) -> polling::RawFd {
    socket.as_raw_fd()
}

#[cfg(not(unix))]
fn raw_fd<T>(_socket: &T) -> polling::RawFd {
    // The poller itself is unsupported off unix; `Poller::new` fails first.
    -1
}

/// Transport-level metric handles, registered once per server against the
/// process-global registry.
struct ServerTelemetry {
    connections_accepted: &'static Counter,
    connections_closed: &'static Counter,
    connections_active: &'static Gauge,
    frame_bytes_read: &'static Counter,
    frame_bytes_written: &'static Counter,
    cpu_queue_depth: &'static Gauge,
    busy_rejected: &'static Counter,
}

impl ServerTelemetry {
    fn new() -> Self {
        let registry = global();
        ServerTelemetry {
            connections_accepted: registry.counter(
                "server_connections_accepted_total",
                "TCP connections accepted by the serve loop.",
                &[],
            ),
            connections_closed: registry.counter(
                "server_connections_closed_total",
                "TCP connections that finished (disconnect, idle reap, or error).",
                &[],
            ),
            connections_active: registry.gauge(
                "server_connections_active",
                "TCP connections currently open on the event loop.",
                &[],
            ),
            frame_bytes_read: registry.counter(
                "server_frame_bytes_read_total",
                "Request frame bytes read off client connections.",
                &[],
            ),
            frame_bytes_written: registry.counter(
                "server_frame_bytes_written_total",
                "Reply frame bytes written to client connections.",
                &[],
            ),
            cpu_queue_depth: registry.gauge(
                "server_cpu_queue_depth",
                "Decoded requests waiting for a free CPU worker.",
                &[],
            ),
            busy_rejected: registry.counter(
                "server_busy_rejected_total",
                "Requests shed with the `busy` error because the CPU queue was full.",
                &[],
            ),
        }
    }
}

/// Compare a presented auth token against the expected one in constant
/// time: the scan length depends only on the *expected* token, and every
/// byte position contributes to the verdict, so timing reveals neither the
/// match prefix length nor the expected length.
fn token_matches(expected: &str, presented: &str) -> bool {
    let expected = expected.as_bytes();
    let presented = presented.as_bytes();
    let mut diff = expected.len() ^ presented.len();
    for (i, &byte) in expected.iter().enumerate() {
        // Out-of-range presented bytes fold in a constant instead.
        diff |= usize::from(byte ^ presented.get(i).copied().unwrap_or(0));
    }
    diff == 0
}

/// The error a request on a not-yet-authenticated connection gets.
fn auth_required() -> ServiceError {
    ServiceError::new(
        ErrorCode::Unavailable,
        "authentication required: present the server's token in an `auth` field",
    )
}

/// A readiness-driven TCP server for a [`MapcompService`] backend.
pub struct EventServer {
    listener: TcpListener,
    shutdown: AtomicBool,
    /// Reap a connection that has no buffered bytes, no in-flight work and
    /// no unflushed replies after this long without progress (`None` =
    /// keep idle connections forever, the default).
    idle_timeout: Option<Duration>,
    /// Emit structured connection/request log lines on stderr in this
    /// format (`None` = silent, the default).
    log_format: Option<LogFormat>,
    /// Log any request slower than this even when `log_format` is off.
    slow_threshold: Option<Duration>,
    /// When set, connections must present this token in an `auth` frame
    /// field before any request is served.
    auth_token: Option<String>,
    /// Shed requests with [`ErrorCode::Busy`] beyond this queue depth.
    queue_limit: usize,
    telemetry: ServerTelemetry,
    /// Shared so replication subscriptions can hand the hub a `'static`
    /// wake callback that outlives any one `run` call.
    poller: Arc<Poller>,
}

/// One decoded request waiting for (or occupying) a CPU worker.
struct Job {
    slot: usize,
    generation: u64,
    seq: u64,
    request: Request,
    trace: Option<u64>,
    kind: &'static str,
}

/// A finished request on its way back to the event loop.
struct Completion {
    slot: usize,
    generation: u64,
    seq: u64,
    encoded: String,
    kind: &'static str,
    trace: Option<u64>,
    ok: bool,
    elapsed: Duration,
    /// The reply was [`Response::ShuttingDown`]: the loop must begin the
    /// shutdown handshake once this reply is queued.
    shutdown: bool,
}

/// Shared state between the event loop and the CPU workers.
struct CpuPool {
    jobs: Mutex<VecDeque<Job>>,
    available: Condvar,
    completions: Mutex<Vec<Completion>>,
    /// Set by the event loop when it exits; workers drain and stop.
    stop: AtomicBool,
}

impl CpuPool {
    fn new() -> Self {
        CpuPool {
            jobs: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            completions: Mutex::new(Vec::new()),
            stop: AtomicBool::new(false),
        }
    }

    fn lock_jobs(&self) -> std::sync::MutexGuard<'_, VecDeque<Job>> {
        self.jobs.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn lock_completions(&self) -> std::sync::MutexGuard<'_, Vec<Completion>> {
        self.completions.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Per-connection state machine.
struct Conn {
    stream: TcpStream,
    peer: String,
    /// Guards stale completions after a slot is reused: a completion whose
    /// generation does not match the slot's current occupant is dropped.
    generation: u64,
    read_buf: Vec<u8>,
    /// Start of the first read-buffer line not yet scanned for `end`.
    scanned: usize,
    write_buf: Vec<u8>,
    write_pos: usize,
    /// Next sequence number to assign to a decoded frame.
    next_seq: u64,
    /// Next sequence number to append to the write buffer — replies with
    /// later sequences wait in `ready` until this catches up.
    next_flush: u64,
    /// Completed replies waiting for in-order flushing.
    ready: BTreeMap<u64, String>,
    /// Decoded requests waiting for their turn in the CPU pool (strict
    /// per-connection execution order).
    pending: VecDeque<(u64, Request, Option<u64>, &'static str)>,
    /// Is one of this connection's requests in the CPU pool right now?
    executing: bool,
    last_progress: Instant,
    authed: bool,
    /// Current poller registration includes write interest.
    wants_write: bool,
    /// Peer closed its write side; close once everything is flushed.
    eof: bool,
    /// Close once everything is flushed (shutdown, or a fatal error reply).
    closing: bool,
    /// Live replication stream, once a `subscribe` frame has been
    /// accepted: the connection becomes one-way (any further inbound frame
    /// is a protocol violation) and hub events are drained into the write
    /// buffer after the `subscribed` ack and replay have been flushed.
    subscription: Option<Subscription>,
}

impl Conn {
    /// No sequences unexecuted, unflushed or unwritten.
    fn quiesced(&self) -> bool {
        self.next_flush == self.next_seq && self.write_pos == self.write_buf.len()
    }
}

/// The event loop's connection table: a slab with stable keys.
struct LoopState {
    slots: Vec<Option<Conn>>,
    free: Vec<usize>,
    /// Jobs submitted to the CPU pool whose completions have not yet been
    /// drained (counted across all connections, stale ones included).
    outstanding: usize,
    /// Has the loop reacted to the shutdown flag yet?
    shutdown_handled: bool,
    generations: u64,
}

impl LoopState {
    fn new() -> Self {
        LoopState {
            slots: Vec::new(),
            free: Vec::new(),
            outstanding: 0,
            shutdown_handled: false,
            generations: 0,
        }
    }

    fn insert(&mut self, conn: Conn) -> usize {
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot] = Some(conn);
                slot
            }
            None => {
                self.slots.push(Some(conn));
                self.slots.len() - 1
            }
        }
    }

    fn live(&self) -> usize {
        self.slots.iter().filter(|slot| slot.is_some()).count()
    }
}

impl EventServer {
    /// Bind to `addr` (e.g. `127.0.0.1:7171`, or port `0` for an ephemeral
    /// port — read the result off [`EventServer::local_addr`]).
    pub fn bind(addr: &str) -> std::io::Result<EventServer> {
        Ok(EventServer {
            listener: TcpListener::bind(addr)?,
            shutdown: AtomicBool::new(false),
            idle_timeout: None,
            log_format: None,
            slow_threshold: None,
            auth_token: None,
            queue_limit: DEFAULT_QUEUE_LIMIT,
            telemetry: ServerTelemetry::new(),
            poller: Arc::new(Poller::new()?),
        })
    }

    /// Emit one structured log line per connection event and per request on
    /// stderr, in `format`. `None` (the default) keeps the loop silent.
    pub fn set_log_format(&mut self, format: Option<LogFormat>) {
        self.log_format = format;
    }

    /// The configured log format.
    pub fn log_format(&self) -> Option<LogFormat> {
        self.log_format
    }

    /// Log any request whose handling exceeds `threshold`, even when
    /// [`EventServer::set_log_format`] is off. `None` (the default)
    /// disables slow-request logging.
    pub fn set_slow_threshold(&mut self, threshold: Option<Duration>) {
        self.slow_threshold = threshold;
    }

    /// The configured slow-request threshold.
    pub fn slow_threshold(&self) -> Option<Duration> {
        self.slow_threshold
    }

    /// Reap connections with no buffered bytes, no in-flight requests and
    /// no unflushed replies after `timeout` without progress. A peer that
    /// has delivered part of a frame has made progress and is waited on —
    /// only truly idle connections are dropped. `None` disables reaping
    /// (the default); idle connections cost one fd rather than a pinned
    /// worker, so reaping is optional hygiene rather than a liveness
    /// requirement.
    pub fn set_idle_timeout(&mut self, timeout: Option<Duration>) {
        self.idle_timeout = timeout;
    }

    /// The configured idle timeout.
    pub fn idle_timeout(&self) -> Option<Duration> {
        self.idle_timeout
    }

    /// Require every connection to authenticate before serving requests:
    /// until a frame carrying the matching `auth <token>` field arrives,
    /// all requests on the connection are refused with
    /// [`ErrorCode::Unavailable`]. One valid token authenticates the whole
    /// connection. `None` (the default) serves everyone — the right call
    /// for loopback deployments only.
    pub fn set_auth_token(&mut self, token: Option<String>) {
        self.auth_token = token;
    }

    /// The configured auth token.
    pub fn auth_token(&self) -> Option<&str> {
        self.auth_token.as_deref()
    }

    /// Shed requests with [`ErrorCode::Busy`] once the shared CPU queue —
    /// or any single connection's pending pipeline — already holds this
    /// many requests. The floor is 1 (a limit of 0 could never serve
    /// anything); the default is [`DEFAULT_QUEUE_LIMIT`].
    pub fn set_queue_limit(&mut self, limit: usize) {
        self.queue_limit = limit.max(1);
    }

    /// The configured queue limit.
    pub fn queue_limit(&self) -> usize {
        self.queue_limit
    }

    /// The bound address.
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Has a shutdown been requested?
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Request shutdown from outside a connection (tests, signal
    /// handlers): wakes the event loop, which deregisters the accept
    /// socket and drains every connection's in-flight work.
    pub fn begin_shutdown(&self) {
        if !self.shutdown.swap(true, Ordering::SeqCst) {
            let _ = self.poller.notify();
        }
    }

    /// Render one log line if logging is on (`force_slow` bypasses the
    /// format gate for slow-request lines).
    fn log(&self, force_slow: bool, event: &str, fields: &[(&str, LogValue<'_>)]) {
        let format = match self.log_format {
            Some(format) => format,
            None if force_slow => LogFormat::Text,
            None => return,
        };
        eprintln!("{}", json_line(format, event, fields));
    }

    /// Serve until a [`Request::Shutdown`] arrives (or
    /// [`EventServer::begin_shutdown`] is called), with `cpu_workers`
    /// scoped worker threads executing requests. Blocks the calling
    /// thread. Connections accepted before shutdown have their already
    /// decoded and in-flight requests served and flushed; then every
    /// socket is closed and the loop returns.
    pub fn run<S: MapcompService + Sync>(
        &self,
        service: &S,
        cpu_workers: usize,
    ) -> std::io::Result<()> {
        let cpu_workers = cpu_workers.max(1);
        self.listener.set_nonblocking(true)?;
        self.poller.add(raw_fd(&self.listener), Event::readable(LISTENER_KEY))?;
        let pool = CpuPool::new();
        let result = std::thread::scope(|scope| {
            for _ in 0..cpu_workers {
                scope.spawn(|| self.cpu_worker(&pool, service));
            }
            let result = self.event_loop(&pool, service);
            pool.stop.store(true, Ordering::SeqCst);
            pool.available.notify_all();
            result
        });
        let _ = self.poller.delete(raw_fd(&self.listener));
        result
    }

    /// One CPU worker: pop jobs until the loop stops. The shutdown gate
    /// sits here, at execution time, so per-connection execution order
    /// decides which requests still run once a shutdown is accepted.
    fn cpu_worker<S: MapcompService>(&self, pool: &CpuPool, service: &S) {
        loop {
            let job = {
                let mut jobs = pool.lock_jobs();
                loop {
                    if let Some(job) = jobs.pop_front() {
                        self.telemetry.cpu_queue_depth.set(jobs.len() as i64);
                        break Some(job);
                    }
                    if pool.stop.load(Ordering::SeqCst) {
                        break None;
                    }
                    jobs = pool.available.wait(jobs).unwrap_or_else(PoisonError::into_inner);
                }
            };
            let Some(job) = job else { return };
            let started = Instant::now();
            let encoded = if self.is_shutting_down() && !matches!(job.request, Request::Shutdown) {
                encode_reply(&Err(ServiceError::new(
                    ErrorCode::Unavailable,
                    "server is shutting down",
                )))
            } else {
                service.call_encoded(job.request, job.trace)
            };
            let kind = reply_kind(&encoded);
            let shutdown = kind == Response::ShuttingDown.kind();
            let ok = kind != "error";
            pool.lock_completions().push(Completion {
                slot: job.slot,
                generation: job.generation,
                seq: job.seq,
                encoded,
                kind: job.kind,
                trace: job.trace,
                ok,
                elapsed: started.elapsed(),
                shutdown,
            });
            let _ = self.poller.notify();
        }
    }

    /// The loop: wait for readiness, drain completions, accept, read,
    /// write, reap, until shutdown has drained everything.
    fn event_loop<S: MapcompService + Sync>(
        &self,
        pool: &CpuPool,
        service: &S,
    ) -> std::io::Result<()> {
        let mut state = LoopState::new();
        let mut events: Vec<Event> = Vec::new();
        loop {
            if self.is_shutting_down() && !state.shutdown_handled {
                state.shutdown_handled = true;
                let _ = self.poller.delete(raw_fd(&self.listener));
                for slot in 0..state.slots.len() {
                    let Some(conn) = state.slots[slot].as_mut() else { continue };
                    conn.closing = true;
                    self.flush_and_settle(&mut state, slot);
                }
            }
            if state.shutdown_handled && state.live() == 0 && state.outstanding == 0 {
                return Ok(());
            }

            let timeout = self.wait_timeout();
            match self.poller.wait(&mut events, timeout) {
                Ok(_) => {}
                Err(error) if error.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(error) => return Err(error),
            }

            for completion in pool.lock_completions().drain(..).collect::<Vec<_>>() {
                self.apply_completion(&mut state, pool, completion);
            }

            let batch: Vec<Event> = std::mem::take(&mut events);
            for event in batch {
                if event.key == LISTENER_KEY {
                    self.accept_ready(&mut state);
                    continue;
                }
                let slot = event.key - 1;
                if slot >= state.slots.len() || state.slots[slot].is_none() {
                    continue;
                }
                if event.readable {
                    self.conn_readable(&mut state, pool, slot, service);
                }
                if event.writable && state.slots[slot].is_some() {
                    self.flush_and_settle(&mut state, slot);
                }
            }

            // Stream events published by other connections' requests arrive
            // via `notify` without any socket readiness: drain every
            // subscriber's channel into its write buffer.
            for slot in 0..state.slots.len() {
                let is_subscriber =
                    state.slots[slot].as_ref().is_some_and(|conn| conn.subscription.is_some());
                if is_subscriber {
                    self.flush_and_settle(&mut state, slot);
                }
            }

            self.reap_idle(&mut state);
        }
    }

    /// How long to block in the poller: bounded by the idle timeout so
    /// reaping happens even without traffic (completions and external
    /// shutdowns arrive via `notify`, so an unbounded wait is otherwise
    /// fine).
    fn wait_timeout(&self) -> Option<Duration> {
        self.idle_timeout
            .map(|timeout| (timeout / 4).clamp(Duration::from_millis(5), Duration::from_secs(1)))
    }

    /// Accept every pending connection.
    fn accept_ready(&self, state: &mut LoopState) {
        loop {
            match self.listener.accept() {
                Ok((stream, addr)) => {
                    if self.is_shutting_down() {
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let fd = raw_fd(&stream);
                    state.generations += 1;
                    let conn = Conn {
                        stream,
                        peer: addr.to_string(),
                        generation: state.generations,
                        read_buf: Vec::new(),
                        scanned: 0,
                        write_buf: Vec::new(),
                        write_pos: 0,
                        next_seq: 0,
                        next_flush: 0,
                        ready: BTreeMap::new(),
                        pending: VecDeque::new(),
                        executing: false,
                        last_progress: Instant::now(),
                        authed: false,
                        wants_write: false,
                        eof: false,
                        closing: false,
                        subscription: None,
                    };
                    let slot = state.insert(conn);
                    if self.poller.add(fd, Event::readable(slot + 1)).is_err() {
                        state.slots[slot] = None;
                        state.free.push(slot);
                        continue;
                    }
                    self.telemetry.connections_accepted.incr();
                    self.telemetry.connections_active.add(1);
                    if let Some(conn) = state.slots[slot].as_ref() {
                        self.log(false, "connection-open", &[("peer", LogValue::Str(&conn.peer))]);
                    }
                }
                Err(error) if error.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(error) if error.kind() == std::io::ErrorKind::Interrupted => continue,
                // Transient accept failures (per-connection resets) leave
                // the listener usable.
                Err(_) => break,
            }
        }
    }

    /// Drain readable bytes, extract frames, dispatch them.
    fn conn_readable<S: MapcompService + Sync>(
        &self,
        state: &mut LoopState,
        pool: &CpuPool,
        slot: usize,
        service: &S,
    ) {
        let mut frames = Vec::new();
        let mut close_error = false;
        {
            let Some(conn) = state.slots[slot].as_mut() else { return };
            let mut chunk = [0u8; 16 * 1024];
            loop {
                match conn.stream.read(&mut chunk) {
                    Ok(0) => {
                        if conn.read_buf.is_empty() {
                            conn.eof = true;
                        } else {
                            // Mid-frame EOF: the stream is torn.
                            close_error = true;
                        }
                        break;
                    }
                    Ok(read) => {
                        conn.read_buf.extend_from_slice(&chunk[..read]);
                        conn.last_progress = Instant::now();
                        while let Some(frame) = take_frame(conn) {
                            match frame {
                                Ok(frame) => frames.push(frame),
                                Err(()) => {
                                    close_error = true;
                                    break;
                                }
                            }
                        }
                        if close_error || conn.read_buf.len() as u64 > MAX_FRAME_BYTES {
                            close_error = true;
                            break;
                        }
                    }
                    Err(error) if error.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(error) if error.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        close_error = true;
                        break;
                    }
                }
            }
        }
        for frame in frames {
            if state.slots[slot].is_none() {
                return;
            }
            self.process_frame(state, pool, slot, frame, service);
        }
        if close_error {
            self.close_conn(state, slot, false);
        } else if state.slots[slot].is_some() {
            self.flush_and_settle(state, slot);
        }
    }

    /// Decode one frame and either queue its request on the connection's
    /// pipeline or reply immediately (malformed frame, missing auth).
    /// `Request::Subscribe` is handled inline — opening a stream is a hub
    /// registration, not CPU work, and the connection's pipeline ends there.
    fn process_frame<S: MapcompService + Sync>(
        &self,
        state: &mut LoopState,
        pool: &CpuPool,
        slot: usize,
        frame: String,
        service: &S,
    ) {
        self.telemetry.frame_bytes_read.add(frame.len() as u64);
        if state.slots[slot].as_ref().is_some_and(|conn| conn.subscription.is_some()) {
            // A subscribed connection is a one-way stream; a peer that
            // keeps sending frames is violating the protocol.
            self.close_conn(state, slot, false);
            return;
        }
        let decoded = decode_request_frame(&frame);
        let Some(conn) = state.slots[slot].as_mut() else { return };
        let seq = conn.next_seq;
        conn.next_seq += 1;
        match decoded {
            Ok((request, trace, auth)) => {
                let kind = request.kind();
                if let (false, Some(expected)) = (conn.authed, &self.auth_token) {
                    conn.authed =
                        auth.as_deref().is_some_and(|token| token_matches(expected, token));
                }
                if self.auth_token.is_some() && !conn.authed {
                    self.immediate_reply(conn, seq, kind, trace, Err(auth_required()));
                } else if let Request::Subscribe { from_generation, from_seq } = request {
                    let from = Position::new(from_generation, from_seq);
                    let poller = Arc::clone(&self.poller);
                    let wake: Arc<dyn Fn() + Send + Sync> = Arc::new(move || {
                        let _ = poller.notify();
                    });
                    match service.subscribe(from, wake) {
                        Ok(mut subscription) => {
                            // The ack and the replay are staged as one
                            // in-order unit at this frame's sequence; live
                            // tail events follow via `drain_subscription`.
                            let mut encoded = encode_reply(&Ok(Response::Subscribed {
                                position: subscription.ack,
                            }));
                            for chunk in subscription.replay.drain(..) {
                                encoded.push_str(&encode_reply(&Ok(Response::Delta(
                                    DeltaChunkPayload {
                                        first: chunk.first,
                                        last: chunk.last,
                                        chunk: chunk.text.to_string(),
                                    },
                                ))));
                            }
                            conn.ready.insert(seq, encoded);
                            conn.subscription = Some(subscription);
                            self.log_request(&conn.peer, kind, trace, true, Duration::ZERO);
                        }
                        // Stale or unavailable: the peer gets the error and
                        // the connection stays usable (a follower follows up
                        // with a `snapshot` request on the same socket).
                        Err(error) => self.immediate_reply(conn, seq, kind, trace, Err(error)),
                    }
                } else if conn.pending.len() >= self.queue_limit {
                    // This connection's pipeline is already full: shed
                    // before the request ever reaches the shared queue.
                    self.telemetry.busy_rejected.incr();
                    self.immediate_reply(conn, seq, kind, trace, Err(busy()));
                } else {
                    conn.pending.push_back((seq, request, trace, kind));
                }
            }
            // A malformed frame is reported to the peer; the connection
            // survives (frames are line-delimited, so the stream is
            // already re-synchronised at the next frame boundary).
            Err(error) => self.immediate_reply(conn, seq, "?", None, Err(error)),
        }
        self.pump(state, pool, slot);
    }

    /// Encode a reply produced without a CPU worker (protocol error, auth
    /// refusal, busy shed) and stage it at its sequence position.
    fn immediate_reply(
        &self,
        conn: &mut Conn,
        seq: u64,
        kind: &str,
        trace: Option<u64>,
        reply: Result<Response, ServiceError>,
    ) {
        let ok = reply.is_ok();
        let encoded = encode_reply(&reply);
        conn.ready.insert(seq, encoded);
        self.log_request(&conn.peer, kind, trace, ok, Duration::ZERO);
    }

    /// Move the front of a connection's pipeline into the CPU queue if the
    /// connection has no request executing. Strict per-connection order:
    /// at most one of a connection's requests occupies the pool at a time.
    fn pump(&self, state: &mut LoopState, pool: &CpuPool, slot: usize) {
        let LoopState { slots, outstanding, .. } = state;
        let Some(conn) = slots[slot].as_mut() else { return };
        if conn.executing {
            return;
        }
        while let Some((seq, request, trace, kind)) = conn.pending.pop_front() {
            let mut jobs = pool.lock_jobs();
            if jobs.len() >= self.queue_limit {
                drop(jobs);
                // The shared queue is saturated: shed and try the next
                // pending request (a worker may free up in between).
                self.telemetry.busy_rejected.incr();
                self.immediate_reply(conn, seq, kind, trace, Err(busy()));
                continue;
            }
            jobs.push_back(Job { slot, generation: conn.generation, seq, request, trace, kind });
            self.telemetry.cpu_queue_depth.set(jobs.len() as i64);
            drop(jobs);
            *outstanding += 1;
            conn.executing = true;
            pool.available.notify_one();
            return;
        }
    }

    /// Apply one worker completion: stage the reply, resume the pipeline,
    /// flush.
    fn apply_completion(&self, state: &mut LoopState, pool: &CpuPool, completion: Completion) {
        state.outstanding -= 1;
        if completion.shutdown {
            self.begin_shutdown();
        }
        let Some(conn) = state.slots.get_mut(completion.slot).and_then(Option::as_mut) else {
            return;
        };
        if conn.generation != completion.generation {
            return;
        }
        conn.executing = false;
        conn.ready.insert(completion.seq, completion.encoded);
        if completion.shutdown {
            conn.closing = true;
        }
        let peer = conn.peer.clone();
        self.log_request(
            &peer,
            completion.kind,
            completion.trace,
            completion.ok,
            completion.elapsed,
        );
        self.pump(state, pool, completion.slot);
        self.flush_and_settle(state, completion.slot);
    }

    /// One request log line (`request`, or `slow-request` past the slow
    /// threshold).
    fn log_request(&self, peer: &str, kind: &str, trace: Option<u64>, ok: bool, elapsed: Duration) {
        let slow = self.slow_threshold.is_some_and(|threshold| elapsed >= threshold);
        if self.log_format.is_none() && !slow {
            return;
        }
        let trace = trace.map(|id| format!("{id:016x}"));
        let mut fields = vec![
            ("peer", LogValue::Str(peer)),
            ("kind", LogValue::Str(kind)),
            ("ms", LogValue::F64(elapsed.as_secs_f64() * 1e3)),
            ("ok", LogValue::Bool(ok)),
        ];
        if let Some(trace) = &trace {
            fields.push(("trace", LogValue::Str(trace)));
        }
        if slow {
            fields.push(("slow", LogValue::Bool(true)));
        }
        self.log(slow, if slow { "slow-request" } else { "request" }, &fields);
    }

    /// Flush in-order replies into the write buffer, drain it as far as
    /// the socket accepts, fix up write interest, and close the connection
    /// if it has reached its end state.
    fn flush_and_settle(&self, state: &mut LoopState, slot: usize) {
        let mut close = None;
        {
            let Some(conn) = state.slots[slot].as_mut() else { return };
            // Stage every reply whose turn has come.
            while let Some(encoded) = conn.ready.remove(&conn.next_flush) {
                self.telemetry.frame_bytes_written.add(encoded.len() as u64);
                conn.write_buf.extend_from_slice(encoded.as_bytes());
                conn.next_flush += 1;
            }
            self.drain_subscription(conn);
            // Drain.
            while conn.write_pos < conn.write_buf.len() {
                match conn.stream.write(&conn.write_buf[conn.write_pos..]) {
                    Ok(0) => {
                        close = Some(false);
                        break;
                    }
                    Ok(written) => conn.write_pos += written,
                    Err(error) if error.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(error) if error.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        close = Some(false);
                        break;
                    }
                }
            }
            if conn.write_pos == conn.write_buf.len() && !conn.write_buf.is_empty() {
                conn.write_buf.clear();
                conn.write_pos = 0;
            }
            if close.is_none() {
                // Register write interest only while bytes wait.
                let needs_write = conn.write_pos < conn.write_buf.len();
                if needs_write != conn.wants_write {
                    let interest =
                        if needs_write { Event::all(slot + 1) } else { Event::readable(slot + 1) };
                    if self.poller.modify(raw_fd(&conn.stream), interest).is_ok() {
                        conn.wants_write = needs_write;
                    }
                }
                if (conn.closing || conn.eof) && conn.quiesced() {
                    close = Some(true);
                }
            }
        }
        if let Some(ok) = close {
            self.close_conn(state, slot, ok);
        }
    }

    /// Stage pending replication stream events into a subscribed
    /// connection's write buffer — only once every request reply (the
    /// `subscribed` ack and its bundled replay) has been staged, so the
    /// stream order on the wire is ack, replay, live tail.
    fn drain_subscription(&self, conn: &mut Conn) {
        let Some(subscription) = conn.subscription.as_ref() else { return };
        if conn.next_flush != conn.next_seq {
            return;
        }
        let mut staged = false;
        // A disconnected sender (the hub was dropped) simply ends the
        // stream; the follower observes silence and reconnects.
        while let Ok(event) = subscription.receiver.try_recv() {
            let reply = match event {
                StreamEvent::Chunk(chunk) => Response::Delta(DeltaChunkPayload {
                    first: chunk.first,
                    last: chunk.last,
                    chunk: chunk.text.to_string(),
                }),
                StreamEvent::Generation(generation) => Response::Generation { generation },
            };
            let encoded = encode_reply(&Ok(reply));
            self.telemetry.frame_bytes_written.add(encoded.len() as u64);
            conn.write_buf.extend_from_slice(encoded.as_bytes());
            staged = true;
        }
        if staged {
            conn.last_progress = Instant::now();
        }
    }

    /// Reap truly idle connections: empty read buffer, quiesced pipeline,
    /// no progress for the idle timeout. Subscribed connections are never
    /// reaped — a quiet replication stream is healthy, not idle.
    fn reap_idle(&self, state: &mut LoopState) {
        let Some(timeout) = self.idle_timeout else { return };
        let idle: Vec<usize> = state
            .slots
            .iter()
            .enumerate()
            .filter_map(|(slot, conn)| {
                let conn = conn.as_ref()?;
                let idle = conn.subscription.is_none()
                    && conn.read_buf.is_empty()
                    && conn.quiesced()
                    && conn.last_progress.elapsed() >= timeout;
                idle.then_some(slot)
            })
            .collect();
        for slot in idle {
            self.close_conn(state, slot, true);
        }
    }

    /// Deregister and drop a connection, with its close bookkeeping.
    fn close_conn(&self, state: &mut LoopState, slot: usize, ok: bool) {
        let Some(conn) = state.slots[slot].take() else { return };
        state.free.push(slot);
        let _ = self.poller.delete(raw_fd(&conn.stream));
        self.telemetry.connections_active.add(-1);
        self.telemetry.connections_closed.incr();
        self.log(
            false,
            "connection-close",
            &[("peer", LogValue::Str(&conn.peer)), ("ok", LogValue::Bool(ok))],
        );
    }
}

/// The stable `busy` backpressure error.
fn busy() -> ServiceError {
    ServiceError::new(
        ErrorCode::Busy,
        "the server's compose queue is full; retry once in-flight work drains",
    )
}

/// Extract one complete frame from a connection's read buffer, if its
/// `end` terminator line has arrived. `Err(())` means the frame bytes are
/// not valid UTF-8 (the connection is torn). `scanned` always rests on a
/// line *start*, so complete lines are examined once however the reads were
/// sliced; only a trailing partial line is rescanned when more arrives.
fn take_frame(conn: &mut Conn) -> Option<Result<String, ()>> {
    while let Some(offset) = conn.read_buf[conn.scanned..].iter().position(|&b| b == b'\n') {
        let line_end = conn.scanned + offset;
        let line = &conn.read_buf[conn.scanned..line_end];
        let line = line.strip_suffix(b"\r").unwrap_or(line);
        conn.scanned = line_end + 1;
        if line == FRAME_END.as_bytes() {
            let rest = conn.read_buf.split_off(conn.scanned);
            let frame = std::mem::replace(&mut conn.read_buf, rest);
            conn.scanned = 0;
            return Some(String::from_utf8(frame).map_err(|_| ()));
        }
    }
    None
}

impl std::fmt::Debug for EventServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventServer")
            .field("addr", &self.listener.local_addr().ok())
            .field("idle_timeout", &self.idle_timeout)
            .field("queue_limit", &self.queue_limit)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::service::LocalService;
    use crate::wire;
    use mapcomp_catalog::Catalog;
    use std::io::BufReader;

    fn chain_catalog(hops: usize) -> Catalog {
        use mapcomp_algebra::{parse_constraints, Signature};
        let mut catalog = Catalog::new();
        for i in 0..=hops {
            catalog.add_schema(format!("v{i}"), Signature::from_arities([(format!("R{i}"), 1)]));
        }
        for i in 0..hops {
            catalog
                .add_mapping(
                    format!("m{i}"),
                    &format!("v{i}"),
                    &format!("v{}", i + 1),
                    parse_constraints(&format!("R{i} <= R{}", i + 1)).unwrap(),
                )
                .unwrap();
        }
        catalog
    }

    #[test]
    fn token_comparison_accepts_exact_matches_only() {
        assert!(token_matches("secret", "secret"));
        assert!(!token_matches("secret", "secreT"));
        assert!(!token_matches("secret", "secre"));
        assert!(!token_matches("secret", "secrets"));
        assert!(!token_matches("secret", ""));
        assert!(token_matches("", ""));
        assert!(!token_matches("", "x"));
    }

    #[test]
    fn event_server_round_trips_requests_and_shuts_down_cleanly() {
        let service = LocalService::new(chain_catalog(4), 2);
        let server = EventServer::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap().to_string();
        std::thread::scope(|scope| {
            let server = &server;
            let service = &service;
            scope.spawn(move || server.run(service, 2).unwrap());

            let client = Client::connect(&addr).unwrap();
            assert_eq!(client.call(Request::Ping).unwrap(), Response::Pong);
            let remote =
                client.call(Request::ComposePath { from: "v0".into(), to: "v4".into() }).unwrap();
            let local = LocalService::new(chain_catalog(4), 2)
                .call(Request::ComposePath { from: "v0".into(), to: "v4".into() })
                .unwrap();
            assert_eq!(remote, local);

            let error = client
                .call(Request::ComposePath { from: "v4".into(), to: "v0".into() })
                .unwrap_err();
            assert_eq!(error.code, ErrorCode::NoPath);

            // Far more concurrent connections than CPU workers.
            let extras: Vec<Client> = (0..8).map(|_| Client::connect(&addr).unwrap()).collect();
            for extra in &extras {
                assert_eq!(extra.call(Request::Ping).unwrap(), Response::Pong);
            }

            assert_eq!(client.call(Request::Shutdown).unwrap(), Response::ShuttingDown);
        });
        assert!(server.is_shutting_down());
    }

    #[test]
    fn pipelined_requests_come_back_in_order() {
        let service = LocalService::new(chain_catalog(4), 2);
        let server = EventServer::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();
        std::thread::scope(|scope| {
            let server = &server;
            let service = &service;
            scope.spawn(move || server.run(service, 2).unwrap());

            let raw = std::net::TcpStream::connect(addr).unwrap();
            raw.set_nodelay(true).unwrap();
            let mut writer = raw.try_clone().unwrap();
            let mut reader = BufReader::new(raw);
            // Write a whole pipeline before reading anything.
            let requests = [
                Request::Ping,
                Request::ComposePath { from: "v0".into(), to: "v4".into() },
                Request::ComposePath { from: "v9".into(), to: "v0".into() },
                Request::Ping,
                Request::Stats,
            ];
            let mut burst = String::new();
            for request in &requests {
                burst.push_str(&wire::encode_request(request));
            }
            writer.write_all(burst.as_bytes()).unwrap();
            writer.flush().unwrap();
            // The replies arrive in request order.
            let mut replies = Vec::new();
            for _ in &requests {
                let frame = wire::read_frame(&mut reader).unwrap().unwrap();
                replies.push(wire::decode_reply(&frame).unwrap());
            }
            assert_eq!(replies[0], Ok(Response::Pong));
            assert!(matches!(replies[1], Ok(Response::Composed(_))));
            assert_eq!(replies[2].as_ref().unwrap_err().code, ErrorCode::UnknownSchema);
            assert_eq!(replies[3], Ok(Response::Pong));
            assert!(matches!(replies[4], Ok(Response::Stats(_))));

            writer.write_all(wire::encode_request(&Request::Shutdown).as_bytes()).unwrap();
            writer.flush().unwrap();
            let frame = wire::read_frame(&mut reader).unwrap().unwrap();
            assert_eq!(wire::decode_reply(&frame).unwrap().unwrap(), Response::ShuttingDown);
        });
    }

    #[test]
    fn cache_info_round_trips_over_the_event_engine() {
        let service = LocalService::new(chain_catalog(3), 2);
        let server = EventServer::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap().to_string();
        std::thread::scope(|scope| {
            let server = &server;
            let service = &service;
            scope.spawn(move || server.run(service, 1).unwrap());

            let client = Client::connect(&addr).unwrap();
            client.call(Request::ComposePath { from: "v0".into(), to: "v3".into() }).unwrap();
            let Response::CacheInfo(info) = client.call(Request::CacheInfo).unwrap() else {
                panic!("expected a cache-info reply");
            };
            assert!(!info.segments.is_empty());
            let inserted: usize = info.segments.iter().map(|s| s.insertions).sum();
            assert!(inserted > 0, "composing populated the memo cache: {info:?}");

            client.call(Request::Shutdown).unwrap();
        });
    }
}
