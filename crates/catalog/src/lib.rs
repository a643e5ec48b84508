//! # mapcomp-catalog
//!
//! A persistent mapping catalog and incremental composition-chain engine on
//! top of the pairwise best-effort composition of *"Implementing Mapping
//! Composition"* (VLDB 2006).
//!
//! The paper's headline scenarios — schema evolution and peer data sharing —
//! are about *chains* of mappings `m12 ∘ m23 ∘ … ∘ m(n-1)n` that get
//! re-composed every time one link changes. This crate provides the service
//! layer those scenarios need:
//!
//! * [`store`] — a versioned [`Catalog`] of named schemas and mappings with
//!   content hashing; round-trips through the plain-text document format.
//! * [`graph`] — the composition graph (schemas = nodes, mappings = directed
//!   edges) with deterministic fewest-hops path resolution, so callers ask
//!   "compose σ1 → σ5" by name.
//! * [`chain`] — the n-ary chain driver folding a path through pairwise
//!   `compose()`, choosing the fold association that reuses the most
//!   memoised partial results, and carrying uneliminated symbols along as
//!   residuals that later steps retry.
//! * [`cache`] — the content-addressed memo cache keyed by
//!   `(left-hash, right-hash, config-hash)`, with provenance-tracked
//!   invalidation: editing one mapping drops exactly the cached segments
//!   that depend on it.
//! * [`shared`] — the session tying the pieces together: the
//!   [`SharedCatalog`] (one catalog behind one `RwLock`) and the
//!   [`SharedSession`] over it, safe to share across threads, with the
//!   parallel batch API and the instrumented pairwise-composition counter.
//! * [`session`] — what every session shares: [`SessionConfig`],
//!   [`SessionStats`] and the analysis-report renderers.
//! * [`replay`] — the schema-evolution simulator hooked into the catalog:
//!   the Figure-2-style editing scenario re-expressed as incremental
//!   recomposition (one pairwise composition per edit, not a full re-fold).
//!
//! An architecture overview of the whole workspace (crate map, data flow,
//! diagrams) lives in `docs/ARCHITECTURE.md`; the complete on-disk grammar
//! of the document + sidecar formats — including the incremental
//! `delta …` records appended by the service layer — is specified in
//! `docs/PERSISTENCE.md` and kept in lockstep with [`persist`] by
//! `tests/docs_examples.rs`.
//!
//! ## Concurrency model
//!
//! Concurrent sessions share three structures, each with its own locking
//! discipline (details in the [`shared`] module docs):
//!
//! * the **store** is one `RwLock` over the [`Catalog`] and the
//!   composition-graph index it maintains — the compose read path (path
//!   resolution, chain materialisation) shares the read guard, and every
//!   writer updates the catalog and the index under one write guard; the
//!   guard is a leaf lock: nothing else is locked while it is held, it is
//!   never held across `compose()` or a memo lock, and no thread takes it
//!   twice;
//! * the **memo cache** — one type, [`cache::ShardedMemoCache`], which a
//!   sidecar load replays into and a snapshot renders from — is striped
//!   into per-segment mutex-guarded LRU segments keyed by memo-key hash,
//!   with cumulative statistics merged atomically across segments and one
//!   dependency index that decides, under its own lock, whether an
//!   insertion is indexed along its derivation or by name;
//! * the **sidecar** is written by a single-writer append protocol with a
//!   mutex-guarded flush ([`persist::SidecarWriter`]); readers never block,
//!   and the last-wins line grammar — snapshot lines plus incremental
//!   [`persist::DeltaRecord`] lines replayed in file order — makes appended
//!   updates supersede older ones without rewriting the file.
//!
//! ## Quick start
//!
//! ```
//! use mapcomp_algebra::{parse_constraints, Signature};
//! use mapcomp_catalog::{Catalog, SharedSession};
//!
//! let mut catalog = Catalog::new();
//! catalog.add_schema("s1", Signature::from_arities([("R", 1)]));
//! catalog.add_schema("s2", Signature::from_arities([("S", 1)]));
//! catalog.add_schema("s3", Signature::from_arities([("T", 1)]));
//! catalog.add_mapping("m12", "s1", "s2", parse_constraints("R <= S").unwrap()).unwrap();
//! catalog.add_mapping("m23", "s2", "s3", parse_constraints("S <= T").unwrap()).unwrap();
//!
//! let session = SharedSession::new(catalog);
//! let result = session.compose_path("s1", "s3").unwrap();
//! assert!(result.is_complete());
//! assert_eq!(result.compose_calls, 1);
//! assert_eq!(result.chain.mapping.constraints.to_string().trim(), "R <= T;");
//!
//! // Composing again is free: the segment is memoised.
//! let warm = session.compose_path("s1", "s3").unwrap();
//! assert_eq!(warm.compose_calls, 0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cache;
pub mod chain;
pub mod error;
pub mod graph;
pub mod hash;
pub mod lock;
pub mod persist;
pub mod replay;
pub mod session;
pub mod shared;
pub mod store;

pub use cache::{CacheEvent, CacheStats, ChainCache, MemoKey, ShardedMemoCache};
pub use chain::{
    compose_chain_with, compose_pair, ChainOptions, ChainResult, ChainSegment, ComposedChain,
    LinkSource, PathNames, SegmentPath,
};
pub use error::CatalogError;
pub use graph::{edge_cost, reachable, resolve_path, resolve_path_with, PathCost};
pub use hash::{hash_config, hash_mapping, hash_signature, ContentHash};
pub use lock::{FileLock, FileLockGuard};
pub use mapcomp_algebra::{escape_field, escape_field_into, unescape_field};
pub use mapcomp_analysis::{analyze_exchange, AnalysisReport};
pub use persist::{
    load_sidecar, parse_chain_document, parse_delta, parse_positioned_delta, render_cache_entry,
    render_chain_document, render_delta, render_generation_marker, render_mapping_decl,
    render_migration_snapshot, render_positioned_delta, render_schema_decl,
    render_version_extension, restore_catalog, save_cache, save_state, strip_torn_tail,
    write_cache, DeltaRecord, EntryRenderer, LineIndex, Position, SidecarState, SidecarWriter,
    VersionManifest,
};
pub use replay::{replay_editing, CatalogReplay, ReplayRecord};
pub use session::{analysis_counts, render_analysis_text, Session, SessionConfig, SessionStats};
pub use shared::{SharedCatalog, SharedSession};
pub use store::{Catalog, MappingEntry, Name, SchemaEntry};
