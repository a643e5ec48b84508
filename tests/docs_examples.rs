//! Executable documentation: the on-disk and wire-format specs under
//! `docs/` are kept in lockstep with the code by round-tripping every
//! marked example through the real parsers and renderers.
//!
//! * `docs/PERSISTENCE.md` — every fenced block preceded by
//!   `<!-- roundtrip:sidecar -->` is parsed line-by-line with the sidecar
//!   grammar; each record must be *recognised* and must re-render
//!   byte-identically (so a stale example, or a grammar change without a
//!   doc update, fails here). The entry blocks of one example load and
//!   re-render together. A block preceded by `<!-- legacy:sidecar -->`
//!   holds forms only older builds write: it must load, and its current
//!   rendering must load to the same versions and entries.
//! * `docs/WIRE_PROTOCOL.md` — every block preceded by
//!   `<!-- roundtrip:request -->` / `<!-- roundtrip:reply -->` must decode
//!   with the real codec and re-encode byte-identically, and the stable
//!   error-code table must list exactly `ErrorCode::ALL`.
//! * `docs/OBSERVABILITY.md` — the metric-catalog table is checked against
//!   a driven registry, the exposition sample and log-line examples are
//!   re-rendered byte-identically, and the traced request frame round-trips
//!   through the trace-aware codec.
//! * `docs/ANALYSIS.md` — every `<!-- analysis:document -->` block is
//!   ingested into a real session and its `<!-- analysis:report -->` twin
//!   must match `analysis_text` byte-for-byte; the lint-code table must
//!   list exactly `LintCode::ALL`.

// Integration-test crates are built without `cfg(test)`, so the
// `allow-unwrap-in-tests` exemption in clippy.toml cannot reach them;
// panicking on a surprise is exactly what a test should do.
#![allow(clippy::unwrap_used)]

use mapping_composition::algebra::parse_document;
use mapping_composition::catalog::{
    load_sidecar, parse_positioned_delta, render_chain_document, render_delta,
    render_generation_marker, render_mapping_decl, render_migration_snapshot,
    render_positioned_delta, render_schema_decl, render_version_extension, save_cache, DeltaRecord,
    Position,
};
use mapping_composition::service::{
    decode_reply, decode_request, decode_request_frame, encode_reply, encode_request,
    encode_request_frame, ErrorCode,
};

fn read_doc(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("docs").join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|error| panic!("cannot read {}: {error}", path.display()))
}

/// Extract every fenced code block immediately preceded by the given
/// `<!-- marker -->` comment line (blank lines between marker and fence are
/// allowed).
fn marked_blocks(doc: &str, marker: &str) -> Vec<String> {
    let marker_line = format!("<!-- {marker} -->");
    let mut blocks = Vec::new();
    let mut lines = doc.lines().peekable();
    while let Some(line) = lines.next() {
        if line.trim() != marker_line {
            continue;
        }
        while lines.peek().is_some_and(|next| next.trim().is_empty()) {
            lines.next();
        }
        let fence = lines.next().unwrap_or_default();
        assert!(
            fence.trim_start().starts_with("```"),
            "marker `{marker_line}` must be followed by a fenced block, found `{fence}`"
        );
        let mut block = String::new();
        for line in lines.by_ref() {
            if line.trim_start().starts_with("```") {
                break;
            }
            block.push_str(line);
            block.push('\n');
        }
        blocks.push(block);
    }
    blocks
}

#[test]
fn persistence_doc_sidecar_examples_round_trip() {
    let doc = read_doc("PERSISTENCE.md");
    let blocks = marked_blocks(&doc, "roundtrip:sidecar");
    assert!(blocks.len() >= 4, "PERSISTENCE.md must keep its marked sidecar examples");
    let mut records = 0usize;
    let mut positioned = 0usize;
    let mut headers = 0usize;
    for block in &blocks {
        // The entry blocks of one example load together: a later block may
        // back-reference lines of an earlier one.
        let mut entry_blocks = String::new();
        let mut lines = block.lines().peekable();
        while let Some(line) = lines.next() {
            let line = line.trim_end();
            if line.is_empty() || line.starts_with("//") {
                continue;
            }
            records += 1;
            if line.starts_with("version ") {
                let manifest = load_sidecar(line).manifest;
                assert!(!manifest.is_empty(), "documented version line must parse: `{line}`");
                let rendered = match manifest.mappings.iter().next() {
                    // Loaded alone, an edit's pairs are the whole history.
                    Some((name, (version, history))) if line.contains(" +") => {
                        render_version_extension(name, *version, history)
                    }
                    _ => manifest.render(),
                };
                assert_eq!(
                    rendered.trim_end(),
                    line,
                    "documented version line must re-render identically"
                );
            } else if let Some(rest) = line.strip_prefix("stats ") {
                let numbers: Vec<usize> =
                    rest.split_whitespace().map(|token| token.parse().unwrap()).collect();
                assert_eq!(numbers.len(), 5, "stats line carries five counters: `{line}`");
                let restored = load_sidecar(&format!("{line}\n")).cache.stats();
                assert_eq!(
                    (restored.hits, restored.misses, restored.insertions),
                    (numbers[0], numbers[1], numbers[2]),
                    "documented stats line must restore: `{line}`"
                );
            } else if let Some(rest) = line.strip_prefix("generation ") {
                let tokens: Vec<u64> =
                    rest.split_whitespace().map(|token| token.parse().unwrap()).collect();
                let [generation, seq] = tokens[..] else {
                    panic!("generation header carries two numbers: `{line}`");
                };
                assert_eq!(
                    render_generation_marker(Position::new(generation, seq)).trim_end(),
                    line,
                    "documented generation header must re-render identically"
                );
                headers += 1;
            } else if line.starts_with("delta ") {
                let (position, delta) = parse_positioned_delta(line)
                    .unwrap_or_else(|| panic!("documented delta line must parse: `{line}`"));
                let rendered = match position {
                    Some(position) => {
                        positioned += 1;
                        render_positioned_delta(position, &delta)
                    }
                    None => render_delta(&delta),
                };
                assert_eq!(rendered, line, "documented delta line must re-render identically");
                // Content payloads must be canonical declarations.
                match &delta {
                    DeltaRecord::Schema { decl } => {
                        let document = parse_document(decl).expect("schema payload parses");
                        assert_eq!(document.schemas.len(), 1);
                        let (name, signature) = document.schemas.iter().next().unwrap();
                        assert_eq!(&render_schema_decl(name, signature), decl);
                    }
                    DeltaRecord::Mapping { decl } => {
                        let document = parse_document(decl).expect("mapping payload parses");
                        assert_eq!(document.mappings.len(), 1);
                        let (name, (source, target, constraints)) =
                            document.mappings.iter().next().unwrap();
                        assert_eq!(&render_mapping_decl(name, source, target, constraints), decl);
                    }
                    _ => {}
                }
            } else if line.starts_with("migrate ") {
                let state = load_sidecar(&format!("{line}\n"));
                assert_eq!(
                    state.migrations.len(),
                    1,
                    "documented migrate snapshot line must load: `{line}`"
                );
                let ((from, to), updates) = state.migrations.iter().next().unwrap();
                assert_eq!(
                    render_migration_snapshot(from, to, updates),
                    line,
                    "documented migrate snapshot line must re-render identically"
                );
            } else if line.starts_with("entry ") {
                // Re-assemble the whole block through `end-document`.
                entry_blocks.push_str(line);
                entry_blocks.push('\n');
                for body in lines.by_ref() {
                    entry_blocks.push_str(body);
                    entry_blocks.push('\n');
                    if body.trim() == "end-document" {
                        break;
                    }
                }
            } else {
                panic!("PERSISTENCE.md documents an unrecognised line kind: `{line}`");
            }
        }
        if !entry_blocks.is_empty() {
            let cache = load_sidecar(&entry_blocks).cache;
            assert_eq!(
                cache.len(),
                entry_blocks.matches("\nbegin-document\n").count(),
                "every documented entry block must load:\n{entry_blocks}"
            );
            // save_cache = comment + stats + the canonical blocks.
            let rendered = save_cache(&cache);
            let tail: String =
                rendered.lines().skip(2).flat_map(|rendered_line| [rendered_line, "\n"]).collect();
            assert_eq!(tail, entry_blocks, "documented entry blocks must re-render identically");
        }
    }
    // Old forms load to what their current rendering loads to.
    let legacy = marked_blocks(&doc, "legacy:sidecar");
    assert!(!legacy.is_empty(), "PERSISTENCE.md must keep its old-form example");
    for block in &legacy {
        let old = load_sidecar(block);
        let entries = block.lines().filter(|line| line.starts_with("entry ")).count();
        assert_eq!(old.cache.stats().insertions, entries, "every old entry block loads:\n{block}");
        assert!(!old.manifest.is_empty(), "old version lines load:\n{block}");
        let current = load_sidecar(&format!("{}{}", old.manifest.render(), save_cache(&old.cache)));
        assert_eq!(current.manifest, old.manifest);
        let documents = |state: &mapping_composition::catalog::SidecarState| -> Vec<String> {
            state
                .cache
                .iter()
                .map(|(_, entry)| {
                    format!("{:?}\n{}", entry.chain.deps, render_chain_document(&entry.chain))
                })
                .collect()
        };
        assert_eq!(documents(&current), documents(&old));
    }
    assert!(records >= 12, "the sidecar examples must cover the grammar, found {records} records");
    assert!(positioned >= 5, "the examples must cover every positioned delta kind");
    assert!(headers >= 1, "the examples must cover the generation header");
}

#[test]
fn wire_doc_request_frames_decode_and_reencode() {
    let doc = read_doc("WIRE_PROTOCOL.md");
    let frames = marked_blocks(&doc, "roundtrip:request");
    assert!(frames.len() >= 9, "WIRE_PROTOCOL.md must document every request kind");
    let mut kinds = std::collections::BTreeSet::new();
    for frame in &frames {
        let request = decode_request(frame)
            .unwrap_or_else(|error| panic!("documented request must decode: {error}\n{frame}"));
        kinds.insert(request.kind());
        assert_eq!(&encode_request(&request), frame, "documented frame must be canonical");
    }
    for kind in [
        "ping",
        "add-document",
        "compose-path",
        "compose-names",
        "compose-batch",
        "invalidate",
        "migrate-delta",
        "analyze",
        "stats",
        "cache-info",
        "metrics",
        "compact",
        "subscribe",
        "snapshot",
        "shutdown",
    ] {
        assert!(kinds.contains(kind), "request kind `{kind}` has no documented example");
    }
}

#[test]
fn wire_doc_authenticated_frame_round_trips() {
    use mapping_composition::service::{decode_request_frame, encode_request_frame};

    let doc = read_doc("WIRE_PROTOCOL.md");
    let frames = marked_blocks(&doc, "roundtrip:request-auth");
    assert!(!frames.is_empty(), "WIRE_PROTOCOL.md must document an authenticated request frame");
    for frame in &frames {
        let (request, trace, auth) = decode_request_frame(frame).unwrap_or_else(|error| {
            panic!("documented authenticated frame must decode: {error}\n{frame}")
        });
        let auth = auth.expect("documented authenticated frame must carry a token");
        assert_eq!(
            &encode_request_frame(&request, trace, Some(&auth)),
            frame,
            "documented authenticated frame must be canonical"
        );
        // The envelope-unaware decoder accepts and discards both fields.
        assert_eq!(decode_request(frame).unwrap(), request);
    }
}

#[test]
fn wire_doc_reply_frames_decode_and_reencode() {
    let doc = read_doc("WIRE_PROTOCOL.md");
    let frames = marked_blocks(&doc, "roundtrip:reply");
    assert!(frames.len() >= 6, "WIRE_PROTOCOL.md must document the reply kinds");
    for frame in &frames {
        let reply = decode_reply(frame)
            .unwrap_or_else(|error| panic!("documented reply must decode: {error}\n{frame}"));
        assert_eq!(&encode_reply(&reply), frame, "documented frame must be canonical");
    }
}

#[test]
fn wire_doc_error_code_table_matches_the_api() {
    let doc = read_doc("WIRE_PROTOCOL.md");
    let start = doc.find("<!-- error-code-table -->").expect("error-code table marker");
    let mut documented = std::collections::BTreeSet::new();
    for line in doc[start..].lines().skip(1) {
        let line = line.trim();
        if !line.starts_with('|') {
            if !documented.is_empty() {
                break;
            }
            continue;
        }
        let Some(cell) = line.trim_start_matches('|').split('|').next() else { continue };
        let cell = cell.trim();
        if let Some(code) = cell.strip_prefix('`').and_then(|c| c.strip_suffix('`')) {
            documented.insert(code.to_string());
        }
    }
    let actual: std::collections::BTreeSet<String> =
        ErrorCode::ALL.iter().map(|code| code.as_str().to_string()).collect();
    assert_eq!(documented, actual, "the documented error-code table must match ErrorCode::ALL");
}

#[test]
fn replication_doc_frames_round_trip() {
    let doc = read_doc("REPLICATION.md");
    let requests = marked_blocks(&doc, "roundtrip:request");
    assert!(requests.len() >= 2, "REPLICATION.md must document subscribe and snapshot requests");
    let mut kinds = std::collections::BTreeSet::new();
    for frame in &requests {
        let request = decode_request(frame)
            .unwrap_or_else(|error| panic!("documented request must decode: {error}\n{frame}"));
        kinds.insert(request.kind());
        assert_eq!(&encode_request(&request), frame, "documented frame must be canonical");
    }
    assert!(kinds.contains("subscribe") && kinds.contains("snapshot"));
    let replies = marked_blocks(&doc, "roundtrip:reply");
    assert!(replies.len() >= 4, "REPLICATION.md must document the stream reply kinds");
    for frame in &replies {
        let reply = decode_reply(frame)
            .unwrap_or_else(|error| panic!("documented reply must decode: {error}\n{frame}"));
        assert_eq!(&encode_reply(&reply), frame, "documented frame must be canonical");
    }
}

#[test]
fn replication_doc_state_table_matches_the_api() {
    use mapping_composition::service::FollowerState;

    let doc = read_doc("REPLICATION.md");
    let start = doc.find("<!-- follower-state-table -->").expect("follower-state table marker");
    let mut documented = std::collections::BTreeSet::new();
    for line in doc[start..].lines().skip(1) {
        let line = line.trim();
        if !line.starts_with('|') {
            if !documented.is_empty() {
                break;
            }
            continue;
        }
        let Some(cell) = line.trim_start_matches('|').split('|').next() else { continue };
        let cell = cell.trim();
        if let Some(state) = cell.strip_prefix('`').and_then(|c| c.strip_suffix('`')) {
            documented.insert(state.to_string());
        }
    }
    let actual: std::collections::BTreeSet<String> =
        FollowerState::ALL.iter().map(|state| state.as_str().to_string()).collect();
    assert_eq!(documented, actual, "the documented state table must match FollowerState::ALL");
}

#[test]
fn analysis_doc_reports_render_identically() {
    use mapping_composition::catalog::{Catalog, SharedSession};

    let doc = read_doc("ANALYSIS.md");
    let documents = marked_blocks(&doc, "analysis:document");
    let reports = marked_blocks(&doc, "analysis:report");
    assert_eq!(documents.len(), reports.len(), "every example document needs a report block");
    assert!(documents.len() >= 2, "ANALYSIS.md must keep its proven and unknown examples");
    for (document, expected) in documents.iter().zip(&reports) {
        let parsed = parse_document(document).expect("documented catalog document parses");
        let session = SharedSession::new(Catalog::new());
        session.ingest_document(&parsed).expect("documented catalog document ingests");
        let rendered = session.analysis_text(None).expect("analysis renders");
        assert_eq!(&rendered, expected, "documented analysis report must match the renderer");
    }
}

#[test]
fn analysis_doc_lint_code_table_matches_the_api() {
    use mapping_composition::analysis::LintCode;

    let doc = read_doc("ANALYSIS.md");
    let start = doc.find("<!-- lint-code-table -->").expect("lint-code table marker");
    let mut documented = std::collections::BTreeSet::new();
    for line in doc[start..].lines().skip(1) {
        let line = line.trim();
        if !line.starts_with('|') {
            if !documented.is_empty() {
                break;
            }
            continue;
        }
        let Some(cell) = line.trim_start_matches('|').split('|').next() else { continue };
        let cell = cell.trim();
        if let Some(code) = cell.strip_prefix('`').and_then(|c| c.strip_suffix('`')) {
            documented.insert(code.to_string());
        }
    }
    let actual: std::collections::BTreeSet<String> =
        LintCode::ALL.iter().map(|code| code.as_str().to_string()).collect();
    assert_eq!(documented, actual, "the documented lint-code table must match LintCode::ALL");
}

#[test]
fn observability_doc_traced_frame_round_trips() {
    let doc = read_doc("OBSERVABILITY.md");
    let frames = marked_blocks(&doc, "roundtrip:request-traced");
    assert!(!frames.is_empty(), "OBSERVABILITY.md must document a traced request frame");
    for frame in &frames {
        let (request, trace, _) = decode_request_frame(frame).unwrap_or_else(|error| {
            panic!("documented traced frame must decode: {error}\n{frame}")
        });
        let trace = trace.expect("documented traced frame must carry a trace ID");
        assert_eq!(
            &encode_request_frame(&request, Some(trace), None),
            frame,
            "documented traced frame must be canonical"
        );
        // The trace-unaware decoder accepts and discards the field.
        assert_eq!(decode_request(frame).unwrap(), request);
    }
}

#[test]
fn observability_doc_exposition_sample_renders_identically() {
    use mapping_composition::telemetry::metrics::MetricsRegistry;

    let doc = read_doc("OBSERVABILITY.md");
    let blocks = marked_blocks(&doc, "exposition:sample");
    assert_eq!(blocks.len(), 1, "OBSERVABILITY.md must keep its exposition sample");

    // Rebuild the documented sample on a fresh registry.
    let registry = MetricsRegistry::new().leak();
    registry
        .counter("mapcomp_demo_requests_total", "Requests served, per kind.", &[("kind", "ping")])
        .add(3);
    registry
        .counter("mapcomp_demo_requests_total", "Requests served, per kind.", &[("kind", "stats")])
        .incr();
    registry.gauge("mapcomp_demo_connections_active", "Open connections.", &[]).set(2);
    let latency = registry.histogram(
        "mapcomp_demo_latency_us",
        "Request latency in microseconds.",
        &[],
        &[100, 1000],
    );
    latency.observe(40);
    latency.observe(250);
    latency.observe(9000);

    assert_eq!(
        registry.render(),
        blocks[0],
        "documented exposition sample must match the renderer"
    );
}

#[test]
fn observability_doc_log_line_examples_render_identically() {
    use mapping_composition::telemetry::log::{json_line, LogFormat, LogValue};

    let doc = read_doc("OBSERVABILITY.md");
    let fields = [
        ("peer", LogValue::Str("127.0.0.1:52114")),
        ("kind", LogValue::Str("compose-path")),
        ("ms", LogValue::F64(1.5)),
        ("ok", LogValue::Bool(true)),
        ("trace", LogValue::Str("4be1a4cd0d7f3a2b")),
    ];
    for (marker, format) in [("logline:json", LogFormat::Json), ("logline:text", LogFormat::Text)] {
        let blocks = marked_blocks(&doc, marker);
        assert_eq!(blocks.len(), 1, "OBSERVABILITY.md must keep its `{marker}` example");
        assert_eq!(
            blocks[0].trim_end(),
            json_line(format, "request", &fields),
            "documented `{marker}` line must match the renderer"
        );
    }
}

#[test]
fn observability_doc_metric_catalog_matches_the_registry() {
    use mapping_composition::algebra::{parse_constraints, Instance, Signature, Value};
    use mapping_composition::catalog::{Catalog, SessionConfig, SidecarWriter};
    use mapping_composition::compose::{exchange, ExchangeConfig, Registry};
    use mapping_composition::replication::ReplicationHub;
    use mapping_composition::service::{EventServer, Follower, LocalService};
    use mapping_composition::telemetry::metrics::global;

    let doc = read_doc("OBSERVABILITY.md");
    let start = doc.find("<!-- metric-catalog -->").expect("metric-catalog marker");
    let mut documented = std::collections::BTreeSet::new();
    for line in doc[start..].lines().skip(1) {
        let line = line.trim();
        if !line.starts_with('|') {
            if !documented.is_empty() {
                break;
            }
            continue;
        }
        let Some(cell) = line.trim_start_matches('|').split('|').next() else { continue };
        let cell = cell.trim();
        if let Some(name) = cell.strip_prefix('`').and_then(|c| c.strip_suffix('`')) {
            documented.insert(name.to_string());
        }
    }
    assert!(documented.len() >= 20, "the catalog must list every built-in metric");

    // Construct one of each instrumented component so every family in the
    // catalog registers on the global registry (registration is eager at
    // component construction; the chase registers on first run).
    let _service = LocalService::new(Catalog::new(), 2);
    let _server = EventServer::bind("127.0.0.1:0").expect("loopback bind");
    let _sidecar = SidecarWriter::new(std::env::temp_dir().join("mapcomp-docs-metrics.sidecar"));
    // The leader-side replication families register on hub construction,
    // the lag gauge on follower construction (no connection is dialled).
    let _hub = ReplicationHub::new();
    let _follower = Follower::open(
        std::env::temp_dir().join("mapcomp-docs-metrics-follower.doc"),
        "127.0.0.1:1",
        Registry::standard(),
        SessionConfig::default(),
        1,
        None,
    )
    .expect("follower opens without dialling");
    let constraints = parse_constraints("R <= T").unwrap().into_vec();
    let full = Signature::from_arities(vec![("R".to_string(), 1), ("T".to_string(), 1)]);
    let target = Signature::from_arities(vec![("T".to_string(), 1)]);
    let mut source = Instance::new();
    source.insert("R", vec![Value::Int(1)]);
    let result = exchange(
        &constraints,
        &full,
        &target,
        &source,
        &Registry::standard(),
        &ExchangeConfig::default(),
    );
    assert!(result.converged);
    // The differential engine registers its chase_delta_* families on the
    // first applied batch.
    let mut engine = mapping_composition::compose::DifferentialChase::new(
        &constraints,
        &full,
        &target,
        source,
        &Registry::standard(),
        &ExchangeConfig::default(),
    );
    engine
        .apply(&[mapping_composition::compose::Update::insert("R", vec![Value::Int(2)])])
        .unwrap();
    // The analyzer registers its verdict/lint families on first run; a
    // cartesian-product premise makes sure at least one lint fires.
    let lint_me = parse_constraints("P * Q <= S").unwrap().into_vec();
    let lint_full = Signature::from_arities(vec![
        ("P".to_string(), 1),
        ("Q".to_string(), 1),
        ("S".to_string(), 2),
    ]);
    let lint_target = Signature::from_arities(vec![("S".to_string(), 2)]);
    let report =
        mapping_composition::analysis::analyze_exchange(&lint_me, &lint_full, &lint_target);
    assert!(report.proven() && !report.diagnostics.is_empty());

    let rendered = global().render();
    for name in &documented {
        assert!(
            rendered.contains(&format!("# TYPE {name} ")),
            "documented metric `{name}` is not registered; rendered families:\n{}",
            rendered.lines().filter(|l| l.starts_with("# TYPE")).collect::<Vec<_>>().join("\n")
        );
    }
}

#[test]
fn differential_doc_update_examples_round_trip() {
    use mapping_composition::compose::parse_update;

    let doc = read_doc("DIFFERENTIAL.md");
    let blocks = marked_blocks(&doc, "roundtrip:update");
    assert!(!blocks.is_empty(), "DIFFERENTIAL.md must document the signed-update grammar");
    let mut updates = 0usize;
    for block in &blocks {
        for line in block.lines().map(str::trim).filter(|line| !line.is_empty()) {
            let update = parse_update(line)
                .unwrap_or_else(|error| panic!("documented update must parse: {error}\n{line}"));
            assert_eq!(update.render(), line, "documented update must be canonical");
            updates += 1;
        }
    }
    assert!(updates >= 4, "the grammar examples must cover signs and every constant kind");
}

#[test]
fn differential_doc_wire_frames_round_trip() {
    let doc = read_doc("DIFFERENTIAL.md");
    let requests = marked_blocks(&doc, "roundtrip:request");
    let replies = marked_blocks(&doc, "roundtrip:reply");
    assert!(
        !requests.is_empty() && !replies.is_empty(),
        "DIFFERENTIAL.md must document the migrate-delta wire frames"
    );
    for frame in &requests {
        let request = decode_request(frame)
            .unwrap_or_else(|error| panic!("documented request must decode: {error}\n{frame}"));
        assert_eq!(request.kind(), "migrate-delta");
        assert_eq!(&encode_request(&request), frame, "documented frame must be canonical");
    }
    for frame in &replies {
        let reply = decode_reply(frame)
            .unwrap_or_else(|error| panic!("documented reply must decode: {error}\n{frame}"));
        assert_eq!(&encode_reply(&reply), frame, "documented frame must be canonical");
    }
}

#[test]
fn differential_doc_migration_scenario_executes() {
    use mapping_composition::catalog::Catalog;
    use mapping_composition::service::{LocalService, MapcompService as _, Request, Response};

    let doc = read_doc("DIFFERENTIAL.md");
    let documents = marked_blocks(&doc, "migrate:document");
    let batches = marked_blocks(&doc, "migrate:batch");
    let targets = marked_blocks(&doc, "migrate:target");
    assert_eq!(documents.len(), 1, "the scenario needs exactly one catalog document");
    assert_eq!(batches.len(), targets.len(), "every batch needs its expected target");
    assert!(batches.len() >= 3, "the scenario must exercise shared support and retraction");

    let service = LocalService::new(Catalog::new(), 2);
    service.call(Request::AddDocument { text: documents[0].clone() }).expect("document ingests");
    let mut payloads = Vec::new();
    for (index, (batch, target)) in batches.iter().zip(&targets).enumerate() {
        let updates: Vec<String> =
            batch.lines().map(str::trim).filter(|l| !l.is_empty()).map(String::from).collect();
        let reply = service
            .call(Request::MigrateDelta { from: "src".into(), to: "dst".into(), updates })
            .unwrap_or_else(|error| panic!("documented batch {index} must apply: {error}"));
        let Response::Migrated(payload) = reply else {
            panic!("expected a migrated reply, got {reply:?}");
        };
        assert_eq!(
            &payload.target, target,
            "batch {index}: the documented target must match the maintained engine"
        );
        payloads.push(payload);
    }
    // The documented `migrated` frame is the *actual* reply of the second
    // batch (the shared-support deletion), byte-for-byte.
    let documented = marked_blocks(&doc, "roundtrip:reply");
    let reply = decode_reply(&documented[0]).expect("documented reply decodes");
    assert_eq!(
        reply,
        Ok(Response::Migrated(payloads[1].clone())),
        "the documented migrated frame must be the live reply of the second batch"
    );
}
