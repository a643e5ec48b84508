//! Property tests for the service wire codec: `decode(encode(x)) == x` for
//! every `Request`/`Response` variant over randomly generated payloads
//! (awkward strings included), plus malformed-frame rejection and a
//! line-mutation property (a duplicated singular line or an unknown line
//! is refused; a repeated line adds one element).
//!
//! Like `tests/property_tests.rs`, the cases are generated with the
//! workspace's deterministic `rand` shim — every failure is reproducible
//! from the fixed seeds below.

// Integration-test crates are built without `cfg(test)`, so the
// `allow-unwrap-in-tests` exemption in clippy.toml cannot reach them;
// panicking on a surprise is exactly what a test should do.
#![allow(clippy::unwrap_used)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mapping_composition::catalog::Position;
use mapping_composition::service::{
    decode_reply, decode_request, decode_request_frame, encode_reply, encode_request,
    encode_request_frame, escape, unescape, AnalysisPayload, CacheInfoPayload, ChainPayload,
    DeltaChunkPayload, ErrorCode, MappingInfo, MigratePayload, ReplicationInfo, Request, Response,
    SegmentCacheInfo, ServiceError, SnapshotPayload, StatsPayload,
};

const CASES: usize = 64;

/// Random string over a palette chosen to stress the codec: token
/// separators, escape characters, newlines, Unicode whitespace, multi-byte
/// characters, and the empty string.
fn gen_string(rng: &mut StdRng) -> String {
    const PALETTE: [&str; 14] =
        ["a", "B", "7", "_", "-", " ", "%", "\n", "\t", "\r", "σ", "→", "\u{2028}", "%e"];
    let length = rng.gen_range(0..8usize);
    (0..length).map(|_| PALETTE[rng.gen_range(0..PALETTE.len())]).collect()
}

fn gen_strings(rng: &mut StdRng, max: usize) -> Vec<String> {
    (0..rng.gen_range(0..=max)).map(|_| gen_string(rng)).collect()
}

fn gen_request(rng: &mut StdRng) -> Request {
    match rng.gen_range(0..15u32) {
        0 => Request::Ping,
        1 => Request::AddDocument { text: gen_string(rng) },
        2 => Request::ComposePath { from: gen_string(rng), to: gen_string(rng) },
        3 => Request::ComposeNames { names: gen_strings(rng, 4) },
        4 => Request::ComposeBatch {
            requests: (0..rng.gen_range(0..4usize))
                .map(|_| (gen_string(rng), gen_string(rng)))
                .collect(),
            workers: rng.gen_range(0..9usize),
        },
        5 => Request::Invalidate { mapping: gen_string(rng) },
        6 => Request::Stats,
        7 => Request::CacheInfo,
        8 => Request::Metrics,
        9 => Request::Compact,
        10 => Request::Subscribe { from_generation: gen_hash(rng), from_seq: gen_hash(rng) },
        11 => Request::Snapshot,
        12 => Request::Shutdown,
        13 => Request::MigrateDelta {
            from: gen_string(rng),
            to: gen_string(rng),
            updates: gen_strings(rng, 4),
        },
        _ => Request::Analyze { mapping: rng.gen_bool(0.5).then(|| gen_string(rng)) },
    }
}

fn gen_error(rng: &mut StdRng) -> ServiceError {
    let code = ErrorCode::ALL[rng.gen_range(0..ErrorCode::ALL.len())];
    ServiceError::new(code, gen_string(rng))
}

fn gen_hash(rng: &mut StdRng) -> u64 {
    use rand::RngCore;
    rng.next_u64()
}

fn gen_chain(rng: &mut StdRng) -> ChainPayload {
    ChainPayload {
        source: gen_string(rng),
        target: gen_string(rng),
        path: gen_strings(rng, 4),
        deps: gen_strings(rng, 4),
        hash: gen_hash(rng),
        document: gen_string(rng),
        compose_calls: rng.gen_range(0..100usize),
        cache_hits: rng.gen_range(0..100usize),
        plan: (0..rng.gen_range(0..4usize)).map(|_| rng.gen_range(1..5usize)).collect(),
    }
}

fn gen_stats(rng: &mut StdRng) -> StatsPayload {
    let entries = (0..rng.gen_range(0..4usize))
        .map(|_| MappingInfo {
            name: gen_string(rng),
            source: gen_string(rng),
            target: gen_string(rng),
            version: rng.gen_range(1..9u64),
            hash: gen_hash(rng),
            constraints: rng.gen_range(0..9usize),
            history: (0..rng.gen_range(0..3usize)).map(|i| (i as u64 + 1, gen_hash(rng))).collect(),
        })
        .collect();
    let mut stats = StatsPayload {
        schemas: rng.gen_range(0..99usize),
        mappings: rng.gen_range(0..99usize),
        entries,
        ..StatsPayload::default()
    };
    stats.session.compose_calls = rng.gen_range(0..999usize);
    stats.session.paths_resolved = rng.gen_range(0..999usize);
    stats.session.chains_composed = rng.gen_range(0..999usize);
    stats.session.cache_entries = rng.gen_range(0..999usize);
    stats.session.cache.hits = rng.gen_range(0..999usize);
    stats.session.cache.misses = rng.gen_range(0..999usize);
    stats.session.cache.insertions = rng.gen_range(0..999usize);
    stats.session.cache.invalidated = rng.gen_range(0..999usize);
    stats.session.cache.evictions = rng.gen_range(0..999usize);
    stats.cache_capacity = if rng.gen_bool(0.5) { Some(rng.gen_range(1..99usize)) } else { None };
    stats.replication = if rng.gen_bool(0.5) {
        Some(ReplicationInfo {
            role: gen_string(rng),
            state: gen_string(rng),
            position: gen_position(rng),
            lag: gen_hash(rng),
        })
    } else {
        None
    };
    stats
}

fn gen_position(rng: &mut StdRng) -> Position {
    Position::new(gen_hash(rng), gen_hash(rng))
}

fn gen_cache_info(rng: &mut StdRng) -> CacheInfoPayload {
    CacheInfoPayload {
        segments: (0..rng.gen_range(0..5usize))
            .map(|segment| SegmentCacheInfo {
                segment,
                entries: rng.gen_range(0..999usize),
                capacity: if rng.gen_bool(0.5) { Some(rng.gen_range(1..99usize)) } else { None },
                hits: rng.gen_range(0..999usize),
                misses: rng.gen_range(0..999usize),
                insertions: rng.gen_range(0..999usize),
                invalidated: rng.gen_range(0..999usize),
                evictions: rng.gen_range(0..999usize),
            })
            .collect(),
    }
}

fn gen_response(rng: &mut StdRng) -> Response {
    match rng.gen_range(0..16u32) {
        0 => Response::Pong,
        1 => Response::Added {
            touched: gen_strings(rng, 4),
            schemas: rng.gen_range(0..99usize),
            mappings: rng.gen_range(0..99usize),
        },
        2 => Response::Composed(gen_chain(rng)),
        3 => Response::Batch(
            (0..rng.gen_range(0..4usize))
                .map(|_| if rng.gen_bool(0.5) { Ok(gen_chain(rng)) } else { Err(gen_error(rng)) })
                .collect(),
        ),
        4 => Response::Invalidated { dropped: rng.gen_range(0..99usize) },
        5 => Response::Stats(gen_stats(rng)),
        6 => Response::Compacted { bytes_before: gen_hash(rng), bytes_after: gen_hash(rng) },
        7 => Response::Metrics { text: gen_string(rng) },
        8 => Response::CacheInfo(gen_cache_info(rng)),
        9 => Response::Subscribed { position: gen_position(rng) },
        10 => Response::Delta(DeltaChunkPayload {
            first: gen_position(rng),
            last: gen_position(rng),
            chunk: gen_string(rng),
        }),
        11 => Response::Generation { generation: gen_hash(rng) },
        12 => Response::Snapshot(SnapshotPayload {
            position: gen_position(rng),
            document: gen_string(rng),
            sidecar: gen_string(rng),
        }),
        13 => Response::ShuttingDown,
        14 => Response::Migrated(MigratePayload {
            from: gen_string(rng),
            to: gen_string(rng),
            applied: rng.gen_range(0..99usize),
            inserted: rng.gen_range(0..99usize),
            deleted: rng.gen_range(0..99usize),
            retracted: rng.gen_range(0..99usize),
            rederived: rng.gen_range(0..99usize),
            fallback: rng.gen_bool(0.5),
            source_rows: rng.gen_range(0..999usize),
            target_rows: rng.gen_range(0..999usize),
            support_entries: rng.gen_range(0..999usize),
            target: gen_string(rng),
        }),
        _ => Response::Analysis(AnalysisPayload {
            proven: rng.gen_range(0..99usize),
            unknown: rng.gen_range(0..99usize),
            diagnostics: rng.gen_range(0..99usize),
            text: gen_string(rng),
        }),
    }
}

#[test]
fn escaped_tokens_round_trip() {
    let mut rng = StdRng::seed_from_u64(0x5EC0DE);
    for case in 0..CASES * 4 {
        let text = gen_string(&mut rng);
        let token = escape(&text);
        assert!(
            !token.contains(char::is_whitespace),
            "case {case}: token `{token}` carries whitespace"
        );
        assert_eq!(unescape(&token).unwrap(), text, "case {case}: via `{token}`");
    }
}

#[test]
fn requests_round_trip_through_the_codec() {
    let mut rng = StdRng::seed_from_u64(0xC0DEC01);
    for case in 0..CASES * 4 {
        let request = gen_request(&mut rng);
        let frame = encode_request(&request);
        let decoded = decode_request(&frame)
            .unwrap_or_else(|error| panic!("case {case}: {error}\nframe:\n{frame}"));
        assert_eq!(decoded, request, "case {case}: frame\n{frame}");
    }
}

#[test]
fn every_request_kind_is_exercised_and_round_trips() {
    // The generator is random; pin one case per variant so a codec
    // regression cannot hide behind generator drift.
    let cases = [
        Request::Ping,
        Request::AddDocument { text: "schema s { R/1; }\n".into() },
        Request::ComposePath { from: String::new(), to: "a schema".into() },
        Request::ComposeNames { names: vec![] },
        Request::ComposeNames { names: vec!["m 1".into(), "%".into()] },
        Request::ComposeBatch { requests: vec![], workers: 0 },
        Request::ComposeBatch {
            requests: vec![("σ1".into(), "σ2".into()), (String::new(), "\n".into())],
            workers: 8,
        },
        Request::Invalidate { mapping: "m\t2".into() },
        Request::Stats,
        Request::CacheInfo,
        Request::Metrics,
        Request::Compact,
        Request::Subscribe { from_generation: 0, from_seq: 0 },
        Request::Subscribe { from_generation: 7, from_seq: u64::MAX },
        Request::Snapshot,
        Request::Shutdown,
    ];
    for request in cases {
        let frame = encode_request(&request);
        assert_eq!(decode_request(&frame).unwrap(), request, "frame:\n{frame}");
    }
}

#[test]
fn replies_round_trip_through_the_codec() {
    let mut rng = StdRng::seed_from_u64(0xC0DEC02);
    for case in 0..CASES * 4 {
        let reply: Result<Response, ServiceError> =
            if rng.gen_bool(0.2) { Err(gen_error(&mut rng)) } else { Ok(gen_response(&mut rng)) };
        let frame = encode_reply(&reply);
        let decoded = decode_reply(&frame)
            .unwrap_or_else(|error| panic!("case {case}: {error}\nframe:\n{frame}"));
        assert_eq!(decoded, reply, "case {case}: frame\n{frame}");
    }
}

#[test]
fn every_error_code_round_trips() {
    for code in ErrorCode::ALL {
        assert_eq!(ErrorCode::parse(code.as_str()), Some(code));
        let reply: Result<Response, ServiceError> =
            Err(ServiceError::new(code, format!("message for {code}")));
        let frame = encode_reply(&reply);
        assert_eq!(decode_reply(&frame).unwrap(), reply);
    }
    assert_eq!(ErrorCode::parse("not-a-code"), None);
}

#[test]
fn malformed_frames_are_rejected() {
    let bad_frames = [
        "",                                                                        // empty
        "end\n",                                                                   // header missing
        "mapcomp-service 1 request\nend\n",                                        // kind missing
        "mapcomp-service 2 request ping\nend\n",                                   // wrong version
        "other-protocol 1 request ping\nend\n",                                    // wrong protocol
        "mapcomp-service 1 request ping extra\nend\n",                             // trailing token
        "mapcomp-service 1 request no-such-kind\nend\n",                           // unknown kind
        "mapcomp-service 1 request ping\nfield x\nend\n",                          // stray field
        "mapcomp-service 1 request compose-path\nend\n",                           // missing fields
        "mapcomp-service 1 request compose-path\nfrom a\nfrom b\nto c\nend\n",     // duplicate
        "mapcomp-service 1 request add-document\ntext %zz\nend\n",                 // bad escape
        "mapcomp-service 1 request compose-batch\nworkers two\nend\n",             // bad number
        "mapcomp-service 1 request compose-batch\nworkers 1\npair onlyone\nend\n", // short pair
        "mapcomp-service 1 request ping\n", // truncated (no end)
    ];
    for frame in bad_frames {
        let error = decode_request(frame).expect_err(&format!("must reject: {frame:?}"));
        assert_eq!(error.code, ErrorCode::Protocol, "frame {frame:?} gave `{error}`");
    }

    let bad_replies = [
        "mapcomp-service 1 response composed\nsource a\nend\n", // missing chain fields
        "mapcomp-service 1 response composed\nsource a\ntarget b\npath\ndeps\nhash zz\ncalls 0\nhits 0\nplan\ndocument %e\nend\n", // bad hash
        "mapcomp-service 1 response batch\ncount 2\nend\n",     // count mismatch
        "mapcomp-service 1 response error\ncode sideways\nmessage %e\nend\n", // unknown code
        "mapcomp-service 1 response stats\nschemas 1\nmappings 1\nsession 1 2 3\nend\n", // short session
        "mapcomp-service 1 request ping\nend\n",                // direction mismatch
    ];
    for frame in bad_replies {
        let error = decode_reply(frame).expect_err(&format!("must reject: {frame:?}"));
        assert_eq!(error.code, ErrorCode::Protocol, "frame {frame:?} gave `{error}`");
    }
}

#[test]
fn truncating_any_valid_frame_breaks_it_loudly() {
    // Dropping the `end` terminator (or any suffix including it) must never
    // decode successfully — frames cannot be silently mistaken for shorter
    // ones.
    let mut rng = StdRng::seed_from_u64(0xC0DEC03);
    for _ in 0..CASES {
        let frame = encode_request(&gen_request(&mut rng));
        let without_end = frame.strip_suffix("end\n").unwrap();
        assert!(decode_request(without_end).is_err(), "frame:\n{frame}");
    }
}

#[test]
fn trace_ids_round_trip_over_the_wire() {
    let mut rng = StdRng::seed_from_u64(0xC0DEC04);
    for case in 0..CASES {
        let request = gen_request(&mut rng);
        let id: u64 = rng.gen_range(1..u64::MAX);
        let frame = encode_request_frame(&request, Some(id), None);
        assert!(
            frame.contains(&format!("\ntrace {id:016x}\n")),
            "case {case}: trace field missing from\n{frame}"
        );
        let (decoded, trace, _) = decode_request_frame(&frame)
            .unwrap_or_else(|error| panic!("case {case}: {error}\nframe:\n{frame}"));
        assert_eq!(decoded, request, "case {case}");
        assert_eq!(trace, Some(id), "case {case}");

        // Servers that predate tracing parse the same frame untouched: the
        // plain decoder accepts and discards the trace field.
        assert_eq!(decode_request(&frame).unwrap(), request, "case {case}");
    }
}

#[test]
fn untraced_frames_are_byte_identical_to_the_legacy_encoding() {
    let mut rng = StdRng::seed_from_u64(0xC0DEC05);
    for _ in 0..CASES {
        let request = gen_request(&mut rng);
        assert_eq!(encode_request_frame(&request, None, None), encode_request(&request));
        let (decoded, trace, _) = decode_request_frame(&encode_request(&request)).unwrap();
        assert_eq!(decoded, request);
        assert_eq!(trace, None);
    }
}

#[test]
fn malformed_trace_fields_are_rejected() {
    let bad_frames = [
        // duplicate trace field
        "mapcomp-service 1 request ping\ntrace 00000000deadbeef\ntrace 00000000deadbeef\nend\n",
        // not hex
        "mapcomp-service 1 request ping\ntrace zz\nend\n",
        // missing value
        "mapcomp-service 1 request ping\ntrace\nend\n",
    ];
    for frame in bad_frames {
        let error = decode_request_frame(frame).expect_err(&format!("must reject: {frame:?}"));
        assert_eq!(error.code, ErrorCode::Protocol, "frame {frame:?} gave `{error}`");
    }
}

#[test]
fn auth_tokens_round_trip_over_the_wire() {
    let mut rng = StdRng::seed_from_u64(0xC0DEC06);
    for case in 0..CASES {
        let request = gen_request(&mut rng);
        let token = format!("tok-{}", gen_string(&mut rng));
        let trace: Option<u64> =
            if rng.gen_bool(0.5) { Some(rng.gen_range(1..u64::MAX)) } else { None };
        let frame = encode_request_frame(&request, trace, Some(&token));
        let (decoded, decoded_trace, decoded_auth) = decode_request_frame(&frame)
            .unwrap_or_else(|error| panic!("case {case}: {error}\nframe:\n{frame}"));
        assert_eq!(decoded, request, "case {case}");
        assert_eq!(decoded_trace, trace, "case {case}");
        assert_eq!(decoded_auth.as_deref(), Some(token.as_str()), "case {case}");

        // Auth-unaware decoders (older servers, the plain helpers) accept
        // and discard the envelope: the auth field never leaks into kinds.
        assert_eq!(decode_request(&frame).unwrap(), request, "case {case}");

        // Canonical order: the auth line follows the trace line (when
        // present), before any kind field.
        let lines: Vec<&str> = frame.lines().collect();
        let auth_at = if trace.is_some() { 2 } else { 1 };
        assert!(
            lines[auth_at].starts_with("auth "),
            "case {case}: auth not at canonical position in\n{frame}"
        );
    }
}

#[test]
fn unauthenticated_frames_are_byte_identical_to_the_legacy_encoding() {
    let mut rng = StdRng::seed_from_u64(0xC0DEC07);
    for _ in 0..CASES {
        let request = gen_request(&mut rng);
        assert_eq!(encode_request_frame(&request, None, None), encode_request(&request));
        let (decoded, trace, auth) = decode_request_frame(&encode_request(&request)).unwrap();
        assert_eq!(decoded, request);
        assert_eq!(trace, None);
        assert_eq!(auth, None);
    }
}

#[test]
fn malformed_auth_fields_are_rejected() {
    let bad_frames = [
        // duplicate auth field
        "mapcomp-service 1 request ping\nauth a\nauth b\nend\n",
        // missing value
        "mapcomp-service 1 request ping\nauth\nend\n",
        // bad escape in the token
        "mapcomp-service 1 request ping\nauth %zz\nend\n",
    ];
    for frame in bad_frames {
        let error = decode_request_frame(frame).expect_err(&format!("must reject: {frame:?}"));
        assert_eq!(error.code, ErrorCode::Protocol, "frame {frame:?} gave `{error}`");
    }
}

/// Keys whose field line may repeat, one element per line; every other
/// key is singular.
const REPEATED_KEYS: [&str; 7] = ["name", "pair", "update", "touched", "item", "segment", "entry"];

/// Elements carried by a request's repeated field lines.
fn request_elements(request: &Request) -> usize {
    match request {
        Request::ComposeNames { names } => names.len(),
        Request::ComposeBatch { requests, .. } => requests.len(),
        Request::MigrateDelta { updates, .. } => updates.len(),
        _ => 0,
    }
}

/// Elements carried by a reply's repeated field lines.
fn reply_elements(reply: &Result<Response, ServiceError>) -> usize {
    match reply {
        Ok(Response::Added { touched, .. }) => touched.len(),
        Ok(Response::Batch(items)) => items.len(),
        Ok(Response::CacheInfo(payload)) => payload.segments.len(),
        Ok(Response::Stats(stats)) => stats.entries.len(),
        _ => 0,
    }
}

/// The frame with line `at` duplicated in place. A repeated line whose
/// count another line declares (`item`/`count`, `segment`/`segments`)
/// bumps that count too, so the copy is a well-formed extra element.
fn with_line_repeated(frame: &str, at: usize) -> String {
    let mut lines: Vec<String> = frame.lines().map(str::to_string).collect();
    let declared = match lines[at].split(' ').next() {
        Some("item") => Some("count "),
        Some("segment") => Some("segments "),
        _ => None,
    };
    if let Some(prefix) = declared {
        let line = lines.iter_mut().find(|line| line.starts_with(prefix)).unwrap();
        let count: usize = line[prefix.len()..].parse().unwrap();
        *line = format!("{prefix}{}", count + 1);
    }
    lines.insert(at, lines[at].clone());
    lines.iter().map(|line| format!("{line}\n")).collect()
}

/// The frame with an unknown `zz 1` field line inserted before line `at`.
fn with_unknown_line(frame: &str, at: usize) -> String {
    let mut lines: Vec<&str> = frame.lines().collect();
    lines.insert(at, "zz 1");
    lines.iter().map(|line| format!("{line}\n")).collect()
}

/// Mutate every field line of `frame` (header first, `end` last): a
/// repeated line decodes with one more element, a duplicated singular line
/// and an inserted unknown line are refused with `protocol`.
fn check_mutations<T: std::fmt::Debug>(
    frame: &str,
    elements: usize,
    decode: impl Fn(&str) -> Result<T, ServiceError>,
    count: impl Fn(&T) -> usize,
) {
    let lines = frame.lines().count();
    for at in 1..lines {
        let unknown = with_unknown_line(frame, at);
        let error = decode(&unknown).expect_err(&format!("unknown line accepted:\n{unknown}"));
        assert_eq!(error.code, ErrorCode::Protocol, "{unknown}");
        if at == lines - 1 {
            break;
        }
        let key = frame.lines().nth(at).unwrap().split(' ').next().unwrap();
        let mutated = with_line_repeated(frame, at);
        if REPEATED_KEYS.contains(&key) {
            let decoded =
                decode(&mutated).unwrap_or_else(|error| panic!("{error}: repeated\n{mutated}"));
            assert_eq!(count(&decoded), elements + 1, "{mutated}");
        } else {
            let error = decode(&mutated).expect_err(&format!("duplicate accepted:\n{mutated}"));
            assert_eq!(error.code, ErrorCode::Protocol, "{mutated}");
        }
    }
}

#[test]
fn mutated_field_lines_are_refused_or_add_one_element() {
    let mut rng = StdRng::seed_from_u64(0xC0DEC08);
    let mut kinds = std::collections::BTreeSet::new();
    for _ in 0..CASES * 2 {
        let request = gen_request(&mut rng);
        kinds.insert(format!("request {}", request.kind()));
        let trace = rng.gen_bool(0.5).then(|| rng.gen_range(1..u64::MAX));
        let auth = rng.gen_bool(0.5).then(|| gen_string(&mut rng));
        let frame = encode_request_frame(&request, trace, auth.as_deref());
        check_mutations(&frame, request_elements(&request), decode_request, request_elements);

        let reply: Result<Response, ServiceError> =
            if rng.gen_bool(0.2) { Err(gen_error(&mut rng)) } else { Ok(gen_response(&mut rng)) };
        kinds.insert(format!("response {}", reply.as_ref().map_or("error", Response::kind)));
        let frame = encode_reply(&reply);
        check_mutations(&frame, reply_elements(&reply), decode_reply, reply_elements);
    }
    // Every request kind (15) and every reply kind (16, plus `error`).
    assert_eq!(kinds.len(), 15 + 17, "{kinds:?}");
}
