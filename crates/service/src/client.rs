//! The blocking TCP client: a [`MapcompService`] whose backend lives on the
//! other side of a socket.
//!
//! One [`Client`] owns one connection and serialises its calls through an
//! internal mutex, so a client can be shared by reference across threads.
//! Each call is one request frame followed by one reply frame — the *wire
//! protocol* supports pipelining (servers answer back-to-back frames in
//! order), but this blocking client keeps the simple lock-step discipline.
//! For *parallel* traffic, open one client per thread; the event-loop
//! server multiplexes any number of connections.
//!
//! Against a server started with an auth token, build the client with
//! [`Client::with_auth_token`]: the token rides the first frame as the
//! optional `auth` field (authenticating the connection once) and is
//! omitted afterwards.

use std::io::{BufReader, Write as _};
use std::net::TcpStream;
use std::sync::{Mutex, PoisonError};

use crate::api::{Request, Response, ServiceError};
use crate::service::MapcompService;
use crate::wire::{decode_reply, encode_request_frame, read_frame};

/// A blocking client over one TCP connection.
pub struct Client {
    connection: Mutex<Connection>,
}

/// One blocking connection speaking raw frames: the [`Client`]'s transport,
/// and the follower's link to its leader (a subscription reads many reply
/// frames per request, so the follower drives `send` and `read` itself).
pub(crate) struct Connection {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    auth_token: Option<String>,
    /// Has the auth token already been presented on this connection?
    auth_sent: bool,
}

impl Connection {
    /// Connect to `addr`, presenting `auth_token` with the first request.
    pub(crate) fn connect(addr: &str, auth_token: Option<String>) -> Result<Self, ServiceError> {
        let stream = TcpStream::connect(addr).map_err(|error| {
            ServiceError::transport(format!("cannot connect to {addr}: {error}"))
        })?;
        let _ = stream.set_nodelay(true);
        let writer = stream
            .try_clone()
            .map_err(|error| ServiceError::transport(format!("cannot clone stream: {error}")))?;
        Ok(Connection { reader: BufReader::new(stream), writer, auth_token, auth_sent: false })
    }

    /// A second handle on the socket, so another thread can shut it down.
    pub(crate) fn try_clone_stream(&self) -> Option<TcpStream> {
        self.writer.try_clone().ok()
    }

    /// Send one request frame carrying `trace` as the optional `trace`
    /// field (and the auth token, on the first frame only).
    pub(crate) fn send(
        &mut self,
        request: &Request,
        trace: Option<u64>,
    ) -> Result<(), ServiceError> {
        let auth = if self.auth_sent { None } else { self.auth_token.as_deref() };
        let frame = encode_request_frame(request, trace, auth);
        self.writer
            .write_all(frame.as_bytes())
            .and_then(|()| self.writer.flush())
            .map_err(|error| ServiceError::transport(format!("cannot send request: {error}")))?;
        self.auth_sent = true;
        Ok(())
    }

    /// Read one reply frame: `Ok(None)` is a clean EOF, the inner result is
    /// the serving side's answer (which may be an error reply).
    pub(crate) fn read(&mut self) -> Result<Option<Result<Response, ServiceError>>, ServiceError> {
        match read_frame(&mut self.reader) {
            Err(error) => Err(ServiceError::transport(format!("cannot read reply: {error}"))),
            Ok(None) => Ok(None),
            Ok(Some(frame)) => Ok(Some(decode_reply(&frame)?)),
        }
    }
}

impl Client {
    /// Connect to a server at `addr` (e.g. `127.0.0.1:7171`).
    pub fn connect(addr: &str) -> Result<Client, ServiceError> {
        Ok(Client { connection: Mutex::new(Connection::connect(addr, None)?) })
    }

    /// Present `token` in the first request frame's `auth` field, for
    /// servers that require authentication. The server remembers the
    /// connection once the token checks out, so later frames omit it —
    /// with no token the client's frames are byte-identical to an
    /// auth-unaware build's.
    pub fn with_auth_token(mut self, token: Option<String>) -> Self {
        self.connection.get_mut().unwrap_or_else(PoisonError::into_inner).auth_token = token;
        self
    }

    /// Send one request and read its reply.
    pub fn call(&self, request: Request) -> Result<Response, ServiceError> {
        self.call_traced(request, None)
    }
}

impl MapcompService for Client {
    fn call(&self, request: Request) -> Result<Response, ServiceError> {
        Client::call(self, request)
    }

    /// Forward `trace` as the optional `trace` frame field, so the serving
    /// side's spans adopt the caller's trace ID.
    fn call_traced(&self, request: Request, trace: Option<u64>) -> Result<Response, ServiceError> {
        let mut connection = self.connection.lock().unwrap_or_else(PoisonError::into_inner);
        connection.send(&request, trace)?;
        connection.read()?.ok_or_else(|| ServiceError::transport("server closed the connection"))?
    }
}
