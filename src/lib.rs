//! # mapping-composition
//!
//! Umbrella crate for the reproduction of *"Implementing Mapping
//! Composition"* (Bernstein, Green, Melnik, Nash; VLDB 2006): a best-effort,
//! algebra-based, extensible component for composing relational schema
//! mappings.
//!
//! The workspace is organised as four library crates, re-exported here:
//!
//! * [`algebra`] — the relational-algebra substrate: expressions over the six
//!   basic operators plus `D^r`, `∅`, Skolem pseudo-operators and
//!   user-defined operators; schemas, instances, evaluation, constraints,
//!   mappings, and the plain-text task format.
//! * [`compose`] — the composition algorithm: view unfolding, left compose,
//!   right compose (with Skolemization and deskolemization), the best-effort
//!   COMPOSE driver, the operator registry, and a bounded-model equivalence
//!   checker.
//! * [`evolution`] — the schema-evolution simulator used by the paper's
//!   experiments: Figure 1 primitives, event vectors, the schema-editing and
//!   schema-reconciliation scenarios.
//! * [`corpus`] — the 22-problem literature test suite.
//! * [`analysis`] — the static analyzer over conjunctive mappings: the
//!   position dependency graph, the weak-acyclicity decision with a
//!   polynomial chase budget on the `proven` side and a rendered existential
//!   cycle on the `unknown` side, and the rule linter with stable diagnostic
//!   codes. Surfaced as `mapcomp catalog lint` / `mapcomp client lint` and
//!   consulted automatically for chase budgets; specified in
//!   `docs/ANALYSIS.md`.
//! * [`catalog`] — the persistent catalog layer: a versioned catalog of
//!   named schemas and mappings, multi-hop path resolution over the
//!   composition graph (fewest-hops or cheapest operator-count growth), an
//!   n-ary chain driver with a content-addressed memo cache, and
//!   provenance-tracked invalidation for incremental recomposition when one
//!   link of a chain is edited.
//! * [`service`] — the transport-agnostic service API over the catalog:
//!   typed [`service::Request`]/[`service::Response`] enums with one unified
//!   [`service::ServiceError`] (stable error codes), a hand-rolled
//!   line-oriented wire codec, an in-process backend over the concurrent
//!   shared session with incremental append-only persistence, and a
//!   readiness-driven TCP server + blocking client — the `mapcomp serve` /
//!   `mapcomp client` front ends.
//! * [`telemetry`] — the offline observability substrate: a lock-free
//!   metrics registry (counters, gauges, fixed-bucket histograms) rendered
//!   as Prometheus-style text by [`service::Request::Metrics`], structured
//!   tracing spans with wire-propagated trace IDs, and the structured-log
//!   helpers behind `mapcomp serve --log-format`. Specified in
//!   `docs/OBSERVABILITY.md`.
//!
//! The architecture documentation lives under `docs/`:
//! `docs/ARCHITECTURE.md` (crate map, data flow, concurrency model),
//! `docs/PERSISTENCE.md` (the document + sidecar on-disk grammars,
//! delta log, compaction, crash recovery) and `docs/WIRE_PROTOCOL.md`
//! (the `mapcomp-service 1` frame grammar). The two format specs are
//! executed by `tests/docs_examples.rs`, so they cannot drift from the
//! code.
//!
//! ## Quick start
//!
//! ```
//! use mapping_composition::prelude::*;
//!
//! // Parse a composition task written in the plain-text format.
//! let doc = parse_document(r"
//!     schema sigma1 { R/1; }
//!     schema sigma2 { S/1; }
//!     schema sigma3 { T/1; }
//!     mapping m12 : sigma1 -> sigma2 { R <= S; }
//!     mapping m23 : sigma2 -> sigma3 { S <= T; }
//! ").unwrap();
//! let task = doc.task("m12", "m23").unwrap();
//!
//! // Compose: eliminate the intermediate symbol S.
//! let result = compose(&task, &Registry::standard(), &ComposeConfig::default()).unwrap();
//! assert!(result.is_complete());
//! assert_eq!(result.constraints.to_string().trim(), "R <= T;");
//! ```
//!
//! ## Catalog: multi-hop chains and incremental recomposition
//!
//! The same document can be loaded into a [`catalog`] and composed by schema
//! name; the session memoises every pairwise composition and invalidates
//! exactly the affected cache entries when a mapping is edited:
//!
//! ```
//! use mapping_composition::prelude::*;
//!
//! let doc = parse_document(r"
//!     schema sigma1 { R/1; }
//!     schema sigma2 { S/1; }
//!     schema sigma3 { T/1; }
//!     mapping m12 : sigma1 -> sigma2 { R <= S; }
//!     mapping m23 : sigma2 -> sigma3 { S <= T; }
//! ").unwrap();
//!
//! let session = SharedSession::new(Catalog::new());
//! session.ingest_document(&doc).unwrap();
//!
//! // Multi-hop: resolve the path sigma1 → sigma3 and fold it.
//! let cold = session.compose_path("sigma1", "sigma3").unwrap();
//! assert!(cold.is_complete());
//! assert_eq!(cold.compose_calls, 1);
//!
//! // Recomposing is free until a link changes.
//! let warm = session.compose_path("sigma1", "sigma3").unwrap();
//! assert_eq!(warm.compose_calls, 0);
//!
//! // Editing m23 invalidates only compositions that depend on it.
//! session.update_mapping("m23", parse_constraints("project[0](S) <= T").unwrap()).unwrap();
//! let after = session.compose_path("sigma1", "sigma3").unwrap();
//! assert_eq!(after.compose_calls, 1);
//! ```
//!
//! ## Service: the same catalog, local or over TCP
//!
//! The [`service`] layer wraps the catalog in a typed request/response API
//! served identically by an in-process backend and a TCP server — callers
//! hold a [`service::MapcompService`] and cannot tell which:
//!
//! ```
//! use mapping_composition::prelude::*;
//! use mapping_composition::service::EventServer;
//!
//! let backend = LocalService::new(Catalog::new(), 2);
//! let server = EventServer::bind("127.0.0.1:0").unwrap();
//! let addr = server.local_addr().unwrap().to_string();
//! std::thread::scope(|scope| {
//!     scope.spawn(|| server.run(&backend, 2).unwrap());
//!     let client = Client::connect(&addr).unwrap();
//!     client
//!         .call(Request::AddDocument {
//!             text: "schema s1 { R/1; } schema s2 { S/1; }\n\
//!                    mapping m : s1 -> s2 { R <= S; }"
//!                 .into(),
//!         })
//!         .unwrap();
//!     let reply = client
//!         .call(Request::ComposePath { from: "s1".into(), to: "s2".into() })
//!         .unwrap();
//!     let Response::Composed(payload) = reply else { panic!("unexpected reply") };
//!     assert_eq!(payload.path, vec!["m"]);
//!     client.call(Request::Shutdown).unwrap();
//! });
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use mapcomp_algebra as algebra;
pub use mapcomp_analysis as analysis;
pub use mapcomp_catalog as catalog;
pub use mapcomp_compose as compose;
pub use mapcomp_corpus as corpus;
pub use mapcomp_evolution as evolution;
pub use mapcomp_replication as replication;
pub use mapcomp_service as service;
pub use mapcomp_telemetry as telemetry;

/// Convenience re-exports covering the common workflow: parse a task,
/// configure the registry, compose, inspect the result.
pub mod prelude {
    pub use mapcomp_algebra::{
        parse_constraint, parse_constraints, parse_document, parse_expr, Constraint,
        ConstraintKind, ConstraintSet, Expr, Instance, Mapping, OperatorDef, Pred, Relation,
        Signature, Value,
    };
    pub use mapcomp_analysis::{
        analyze_exchange, analyze_mapping, AnalysisReport, Diagnostic, LintCode, Termination,
    };
    pub use mapcomp_catalog::{
        replay_editing, Catalog, CatalogError, ChainOptions, ChainResult, ContentHash, MemoCache,
        PathCost, SessionConfig, SessionStats, SharedCatalog, SharedSession, SidecarWriter,
    };
    pub use mapcomp_compose::{
        compose, compose_constraints, eliminate, ComposeConfig, ComposeResult, EliminateStep,
        Monotonicity, Registry,
    };
    pub use mapcomp_corpus::{problem, problems};
    pub use mapcomp_evolution::{
        run_editing, run_reconciliation, EventVector, PrimitiveKind, PrimitiveOptions,
        ReconcileConfig, ScenarioConfig,
    };
    pub use mapcomp_service::{
        Client, ErrorCode, LocalService, MapcompService, Request, Response, ServiceError,
    };
}
