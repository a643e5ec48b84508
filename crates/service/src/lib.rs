//! # mapcomp-service
//!
//! The transport-agnostic service API over the mapping catalog: the paper
//! positions composition as a reusable component inside model-management
//! systems, and this crate is the component boundary — a typed
//! request/response surface with interchangeable in-process and network
//! backends.
//!
//! * [`api`] — the [`Request`]/[`Response`] enums, the chain/stats wire
//!   payloads, and the unified [`ServiceError`] with stable machine-readable
//!   [`ErrorCode`]s.
//! * [`wire`] — the hand-rolled, line-oriented frame codec (offline, no
//!   serde): percent-escaped tokens over `key value…` lines, terminated by
//!   `end`, with strict decoding.
//! * [`service`] — the [`MapcompService`] trait and the in-process
//!   [`LocalService`] backend over a concurrent
//!   [`mapcomp_catalog::SharedSession`], with optional catalog-file +
//!   sidecar persistence (cross-process `.lock`-protected).
//! * [`event`] — the TCP front end, the readiness-driven [`EventServer`]:
//!   one event loop (epoll/poll via the offline `polling` shim) owning every
//!   socket, per-connection state machines with request pipelining, a
//!   bounded CPU worker pool with explicit `busy` backpressure, and graceful
//!   in-band shutdown.
//! * [`client`] — the blocking [`Client`], itself a [`MapcompService`], so
//!   callers cannot tell (and must not care) whether the catalog is local
//!   or remote.
//! * [`follower`] — follower mode: a read-only replica fed by a leader's
//!   replication stream (subscribe, snapshot bootstrap, live delta apply),
//!   the serving side of `mapcomp serve --follow` — see
//!   `docs/REPLICATION.md`.
//!
//! The wire format is fully specified in `docs/WIRE_PROTOCOL.md` (frame
//! grammar, escaping, every request/response kind, the stable error-code
//! table) and the durability story — incremental delta appends on the
//! serve hot path, compaction, crash recovery — in `docs/PERSISTENCE.md`;
//! both specs are executed by `tests/docs_examples.rs`, and
//! `docs/ARCHITECTURE.md` maps the whole workspace.
//!
//! ## Quick start
//!
//! ```
//! use mapcomp_catalog::Catalog;
//! use mapcomp_service::{Client, EventServer, LocalService, MapcompService, Request, Response};
//!
//! // An in-memory backend, a loopback server, and a client.
//! let service = LocalService::new(Catalog::new(), 2);
//! let server = EventServer::bind("127.0.0.1:0").unwrap();
//! let addr = server.local_addr().unwrap().to_string();
//! std::thread::scope(|scope| {
//!     scope.spawn(|| server.run(&service, 2).unwrap());
//!     let client = Client::connect(&addr).unwrap();
//!     let document = "schema s1 { R/1; } schema s2 { S/1; }\n\
//!                     mapping m : s1 -> s2 { R <= S; }";
//!     client.call(Request::AddDocument { text: document.into() }).unwrap();
//!     match client.call(Request::ComposePath { from: "s1".into(), to: "s2".into() }) {
//!         Ok(Response::Composed(payload)) => assert_eq!(payload.path, vec!["m"]),
//!         other => panic!("unexpected reply: {other:?}"),
//!     }
//!     client.call(Request::Shutdown).unwrap();
//! });
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod api;
pub mod client;
pub mod event;
pub mod follower;
pub mod service;
pub mod wire;

pub use api::{
    AnalysisPayload, CacheInfoPayload, ChainPayload, DeltaChunkPayload, ErrorCode, MappingInfo,
    MigratePayload, ReplicationInfo, Request, Response, SegmentCacheInfo, ServiceError,
    SnapshotPayload, StatsPayload,
};
pub use client::Client;
pub use event::EventServer;
pub use follower::{Follower, FollowerState, ReadOnlyService};
pub use service::{sidecar_path, LocalService, MapcompService, PersistPolicy};
pub use wire::{
    decode_reply, decode_request, decode_request_frame, encode_reply, encode_request,
    encode_request_frame, escape, read_frame, unescape,
};
