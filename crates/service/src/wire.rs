//! The hand-rolled, line-oriented wire codec.
//!
//! A frame is a block of text lines in the spirit of the repo's plain-text
//! task format:
//!
//! ```text
//! mapcomp-service 1 request compose-path
//! from %73%310          (escaped tokens)
//! to sigma3
//! end
//! ```
//!
//! The first line names the protocol, its version, the direction
//! (`request`/`response`) and the kind keyword; field lines follow, one
//! `key value…` pair per line; a literal `end` line terminates the frame.
//! Request frames may carry two optional fields recognised for *every*
//! request kind, before kind-specific parsing: `trace <16-hex>` (the
//! caller's trace ID, so server-side spans correlate with the client that
//! caused them) and `auth <token>` (a percent-escaped shared secret for
//! non-loopback deployments; servers configured with a token refuse
//! requests until a connection has presented it). The canonical field
//! order is `trace`, then `auth`, then kind-specific fields, and encoders
//! emit each field only when set — so a new client talking to an old
//! server sends exactly the old frames.
//! Every value token is percent-escaped ([`escape`]) so arbitrary strings —
//! embedded spaces, newlines, `%`, the empty string — survive the
//! whitespace-separated grammar, and multi-valued fields simply repeat the
//! line or the token. Batch items nest recursively: each item is a complete
//! reply frame escaped into a single token.
//!
//! Decoding is strict where structure is concerned (unknown kinds, missing
//! or duplicated fields, bad numbers and truncated frames all fail with
//! [`ErrorCode::Protocol`]) because a service boundary that silently guesses
//! is worse than one that rejects; round-trip coverage lives in the crate's
//! property suite.

use std::io::BufRead;

use crate::api::{
    AnalysisPayload, CacheInfoPayload, ChainPayload, DeltaChunkPayload, ErrorCode, MappingInfo,
    MigratePayload, ReplicationInfo, Request, Response, SegmentCacheInfo, ServiceError,
    SnapshotPayload, StatsPayload,
};
use mapcomp_catalog::{CacheStats, Position, SessionStats};
use mapcomp_compose::DifferentialChase;

/// Protocol name and version, the first two tokens of every frame.
pub const PROTOCOL: &str = "mapcomp-service 1";

/// The frame terminator line.
pub const FRAME_END: &str = "end";

// ---------------------------------------------------------------------------
// Token escaping
// ---------------------------------------------------------------------------

/// Escape an arbitrary string into a single whitespace-free token: `%` and
/// every whitespace or control character (Unicode included — the grammar
/// tokenises with `split_whitespace`) become `%XX` byte escapes of their
/// UTF-8 encoding, and the empty string becomes the marker `%e` (which no
/// non-empty escape ever produces, since a literal `%` escapes to `%25`).
///
/// This is the field codec the sidecar's delta records use
/// ([`mapcomp_algebra::escape`] — one implementation, so the two grammars
/// cannot silently diverge).
pub fn escape(text: &str) -> String {
    mapcomp_algebra::escape_field(text)
}

/// Undo [`escape`]: `%` must be followed by exactly two hex digits. Fails
/// with [`ErrorCode::Protocol`] on truncated or non-hex escapes and on
/// invalid UTF-8.
pub fn unescape(token: &str) -> Result<String, ServiceError> {
    mapcomp_algebra::unescape_field(token)
        .ok_or_else(|| ServiceError::protocol(format!("malformed escape in token `{token}`")))
}

// ---------------------------------------------------------------------------
// Frame reading
// ---------------------------------------------------------------------------

/// The largest frame [`read_frame`] will buffer (64 MiB) — far above any
/// legitimate catalog payload, low enough that one connection cannot grow
/// the peer's memory without bound.
pub const MAX_FRAME_BYTES: u64 = 64 * 1024 * 1024;

/// Read one frame (everything up to and including the `end` line) from a
/// buffered reader. Returns `Ok(None)` on a clean end-of-stream before any
/// frame content, `Err(UnexpectedEof)` when the stream ends mid-frame, and
/// `Err(InvalidData)` when a frame exceeds [`MAX_FRAME_BYTES`] (the
/// connection is no longer in sync and should be dropped).
pub fn read_frame(reader: &mut impl BufRead) -> std::io::Result<Option<String>> {
    let mut limited = std::io::Read::take(&mut *reader, MAX_FRAME_BYTES);
    let mut frame = String::new();
    loop {
        // Each line is read straight onto the end of the frame.
        let start = frame.len();
        let read = limited.read_line(&mut frame)?;
        if read == 0 {
            return if frame.is_empty() && limited.limit() > 0 {
                Ok(None)
            } else if limited.limit() == 0 {
                Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("frame exceeds the {MAX_FRAME_BYTES}-byte bound"),
                ))
            } else {
                Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "stream ended mid-frame",
                ))
            };
        }
        if frame[start..].trim_end_matches(['\n', '\r']) == FRAME_END {
            return Ok(Some(frame));
        }
    }
}

// ---------------------------------------------------------------------------
// Field-line helpers
// ---------------------------------------------------------------------------

/// Split a frame into its header tokens and field lines, verifying the
/// protocol header, the direction and the trailing `end`.
fn frame_lines<'a>(
    text: &'a str,
    direction: &str,
) -> Result<(&'a str, Vec<&'a str>), ServiceError> {
    let mut lines: Vec<&str> =
        text.lines().map(str::trim).filter(|line| !line.is_empty()).collect();
    match lines.pop() {
        Some(FRAME_END) => {}
        _ => return Err(ServiceError::protocol("frame does not terminate with `end`")),
    }
    if lines.is_empty() {
        return Err(ServiceError::protocol("frame is missing its header line"));
    }
    let header = lines.remove(0);
    let rest =
        header.strip_prefix(PROTOCOL).and_then(|rest| rest.strip_prefix(' ')).ok_or_else(|| {
            ServiceError::protocol(format!("unrecognised protocol header `{header}`"))
        })?;
    let kind =
        rest.strip_prefix(direction).and_then(|rest| rest.strip_prefix(' ')).ok_or_else(|| {
            ServiceError::protocol(format!("expected a {direction} frame, got `{rest}`"))
        })?;
    if kind.is_empty() || kind.contains(' ') {
        return Err(ServiceError::protocol(format!("malformed frame kind `{kind}`")));
    }
    Ok((kind, lines))
}

fn parse_usize(value: &str, field: &str) -> Result<usize, ServiceError> {
    value
        .parse()
        .map_err(|_| ServiceError::protocol(format!("field `{field}` has a bad count `{value}`")))
}

fn parse_u64_hex(value: &str, field: &str) -> Result<u64, ServiceError> {
    u64::from_str_radix(value, 16)
        .map_err(|_| ServiceError::protocol(format!("field `{field}` has a bad hash `{value}`")))
}

fn parse_u64_dec(value: &str, field: &str) -> Result<u64, ServiceError> {
    value
        .parse()
        .map_err(|_| ServiceError::protocol(format!("field `{field}` has a bad count `{value}`")))
}

/// Parse a `<generation> <seq>` log-position value (two decimal tokens).
fn parse_position(value: &str, field: &str) -> Result<Position, ServiceError> {
    let tokens: Vec<&str> = value.split_whitespace().collect();
    let [generation, seq] = tokens.as_slice() else {
        return Err(ServiceError::protocol(format!(
            "field `{field}` does not hold a `<generation> <seq>` position"
        )));
    };
    Ok(Position::new(parse_u64_dec(generation, field)?, parse_u64_dec(seq, field)?))
}

/// One `key value…` field line, split on the first space.
fn split_field(line: &str) -> (&str, &str) {
    match line.split_once(' ') {
        Some((key, value)) => (key, value),
        None => (line, ""),
    }
}

fn missing(field: &str) -> ServiceError {
    ServiceError::protocol(format!("frame is missing the `{field}` field"))
}

fn unknown_field(kind: &str, line: &str) -> ServiceError {
    ServiceError::protocol(format!("unknown field line `{line}` in a `{kind}` frame"))
}

/// Unescape every whitespace-separated token of a multi-token field value.
fn unescape_tokens(value: &str) -> Result<Vec<String>, ServiceError> {
    value.split_whitespace().map(unescape).collect()
}

fn escape_tokens(values: &[String]) -> String {
    values.iter().map(|value| escape(value)).collect::<Vec<_>>().join(" ")
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// Encode a request as a complete frame (terminated by `end`), with no
/// trace or auth field — byte-identical to what older builds emit.
pub fn encode_request(request: &Request) -> String {
    encode_request_frame(request, None, None)
}

/// Encode a request as a complete frame with both optional envelope
/// fields: `trace <16-hex>` first, then `auth <escaped-token>`, then the
/// kind-specific fields. Either may be omitted; with both `None` the frame
/// is byte-identical to [`encode_request`]'s output.
pub fn encode_request_frame(request: &Request, trace: Option<u64>, auth: Option<&str>) -> String {
    let mut out = format!("{PROTOCOL} request {}\n", request.kind());
    if let Some(trace_id) = trace {
        out.push_str(&format!("trace {trace_id:016x}\n"));
    }
    if let Some(token) = auth {
        out.push_str(&format!("auth {}\n", escape(token)));
    }
    match request {
        Request::Ping
        | Request::Stats
        | Request::CacheInfo
        | Request::Metrics
        | Request::Compact
        | Request::Snapshot
        | Request::Shutdown => {}
        Request::Subscribe { from_generation, from_seq } => {
            out.push_str(&format!("generation {from_generation}\n"));
            out.push_str(&format!("seq {from_seq}\n"));
        }
        Request::AddDocument { text } => {
            out.push_str(&format!("text {}\n", escape(text)));
        }
        Request::ComposePath { from, to } => {
            out.push_str(&format!("from {}\n", escape(from)));
            out.push_str(&format!("to {}\n", escape(to)));
        }
        Request::ComposeNames { names } => {
            for name in names {
                out.push_str(&format!("name {}\n", escape(name)));
            }
        }
        Request::ComposeBatch { requests, workers } => {
            out.push_str(&format!("workers {workers}\n"));
            for (from, to) in requests {
                out.push_str(&format!("pair {} {}\n", escape(from), escape(to)));
            }
        }
        Request::Invalidate { mapping } => {
            out.push_str(&format!("mapping {}\n", escape(mapping)));
        }
        Request::MigrateDelta { from, to, updates } => {
            out.push_str(&format!("from {}\n", escape(from)));
            out.push_str(&format!("to {}\n", escape(to)));
            for update in updates {
                out.push_str(&format!("update {}\n", escape(update)));
            }
        }
        Request::Analyze { mapping } => {
            if let Some(mapping) = mapping {
                out.push_str(&format!("mapping {}\n", escape(mapping)));
            }
        }
    }
    out.push_str(FRAME_END);
    out.push('\n');
    out
}

/// Decode a request frame, discarding any trace or auth field (see
/// [`decode_request_frame`] to keep them).
pub fn decode_request(text: &str) -> Result<Request, ServiceError> {
    decode_request_frame(text).map(|(request, _, _)| request)
}

/// Decode a request frame along with its optional `trace` and `auth`
/// envelope fields. Both lines are recognised for every request kind and
/// stripped before kind-specific parsing, so kinds with no fields of their
/// own still accept them; at most one of each may appear.
pub fn decode_request_frame(
    text: &str,
) -> Result<(Request, Option<u64>, Option<String>), ServiceError> {
    let (kind, lines) = frame_lines(text, "request")?;
    let mut trace = None;
    let mut auth = None;
    let mut fields = Vec::with_capacity(lines.len());
    for line in lines {
        match split_field(line) {
            ("trace", value) if trace.is_none() => {
                trace = Some(parse_u64_hex(value, "trace")?);
            }
            ("trace", _) => {
                return Err(ServiceError::protocol("frame carries more than one `trace` field"))
            }
            ("auth", value) if auth.is_none() => {
                if value.is_empty() {
                    return Err(ServiceError::protocol("`auth` field is missing its token"));
                }
                auth = Some(unescape(value)?);
            }
            ("auth", _) => {
                return Err(ServiceError::protocol("frame carries more than one `auth` field"))
            }
            _ => fields.push(line),
        }
    }
    Ok((decode_request_fields(kind, fields)?, trace, auth))
}

/// Decode the kind-specific field lines of a request frame (trace already
/// stripped). Strict: unknown or duplicated fields are protocol errors.
fn decode_request_fields(kind: &str, lines: Vec<&str>) -> Result<Request, ServiceError> {
    match kind {
        "ping" | "stats" | "cache-info" | "metrics" | "compact" | "snapshot" | "shutdown" => {
            if let Some(line) = lines.first() {
                return Err(unknown_field(kind, line));
            }
            Ok(match kind {
                "ping" => Request::Ping,
                "stats" => Request::Stats,
                "cache-info" => Request::CacheInfo,
                "metrics" => Request::Metrics,
                "compact" => Request::Compact,
                "snapshot" => Request::Snapshot,
                _ => Request::Shutdown,
            })
        }
        "subscribe" => {
            let (mut generation, mut seq) = (None, None);
            for line in lines {
                match split_field(line) {
                    ("generation", value) if generation.is_none() => {
                        generation = Some(parse_u64_dec(value, "generation")?);
                    }
                    ("seq", value) if seq.is_none() => {
                        seq = Some(parse_u64_dec(value, "seq")?);
                    }
                    _ => return Err(unknown_field(kind, line)),
                }
            }
            Ok(Request::Subscribe {
                from_generation: generation.ok_or_else(|| missing("generation"))?,
                from_seq: seq.ok_or_else(|| missing("seq"))?,
            })
        }
        "add-document" => {
            let mut text = None;
            for line in lines {
                match split_field(line) {
                    ("text", value) if text.is_none() => text = Some(unescape(value)?),
                    _ => return Err(unknown_field(kind, line)),
                }
            }
            Ok(Request::AddDocument { text: text.ok_or_else(|| missing("text"))? })
        }
        "compose-path" => {
            let (mut from, mut to) = (None, None);
            for line in lines {
                match split_field(line) {
                    ("from", value) if from.is_none() => from = Some(unescape(value)?),
                    ("to", value) if to.is_none() => to = Some(unescape(value)?),
                    _ => return Err(unknown_field(kind, line)),
                }
            }
            Ok(Request::ComposePath {
                from: from.ok_or_else(|| missing("from"))?,
                to: to.ok_or_else(|| missing("to"))?,
            })
        }
        "compose-names" => {
            let mut names = Vec::new();
            for line in lines {
                match split_field(line) {
                    ("name", value) => names.push(unescape(value)?),
                    _ => return Err(unknown_field(kind, line)),
                }
            }
            Ok(Request::ComposeNames { names })
        }
        "compose-batch" => {
            let mut workers = None;
            let mut requests = Vec::new();
            for line in lines {
                match split_field(line) {
                    ("workers", value) if workers.is_none() => {
                        workers = Some(parse_usize(value, "workers")?);
                    }
                    ("pair", value) => {
                        let tokens = unescape_tokens(value)?;
                        let [from, to] = tokens.as_slice() else {
                            return Err(ServiceError::protocol(format!(
                                "batch pair line `{line}` does not hold two tokens"
                            )));
                        };
                        requests.push((from.clone(), to.clone()));
                    }
                    _ => return Err(unknown_field(kind, line)),
                }
            }
            Ok(Request::ComposeBatch {
                requests,
                workers: workers.ok_or_else(|| missing("workers"))?,
            })
        }
        "invalidate" => {
            let mut mapping = None;
            for line in lines {
                match split_field(line) {
                    ("mapping", value) if mapping.is_none() => mapping = Some(unescape(value)?),
                    _ => return Err(unknown_field(kind, line)),
                }
            }
            Ok(Request::Invalidate { mapping: mapping.ok_or_else(|| missing("mapping"))? })
        }
        "migrate-delta" => {
            let (mut from, mut to) = (None, None);
            let mut updates = Vec::new();
            for line in lines {
                match split_field(line) {
                    ("from", value) if from.is_none() => from = Some(unescape(value)?),
                    ("to", value) if to.is_none() => to = Some(unescape(value)?),
                    ("update", value) => updates.push(unescape(value)?),
                    _ => return Err(unknown_field(kind, line)),
                }
            }
            Ok(Request::MigrateDelta {
                from: from.ok_or_else(|| missing("from"))?,
                to: to.ok_or_else(|| missing("to"))?,
                updates,
            })
        }
        "analyze" => {
            let mut mapping = None;
            for line in lines {
                match split_field(line) {
                    ("mapping", value) if mapping.is_none() => mapping = Some(unescape(value)?),
                    _ => return Err(unknown_field(kind, line)),
                }
            }
            Ok(Request::Analyze { mapping })
        }
        other => Err(ServiceError::protocol(format!("unknown request kind `{other}`"))),
    }
}

// ---------------------------------------------------------------------------
// Replies
// ---------------------------------------------------------------------------

fn write_chain(out: &mut String, payload: &ChainPayload) {
    out.push_str(&format!("source {}\n", escape(&payload.source)));
    out.push_str(&format!("target {}\n", escape(&payload.target)));
    out.push_str(&format!("path {}\n", escape_tokens(&payload.path)));
    out.push_str(&format!("deps {}\n", escape_tokens(&payload.deps)));
    out.push_str(&format!("hash {:016x}\n", payload.hash));
    out.push_str(&format!("calls {}\n", payload.compose_calls));
    out.push_str(&format!("hits {}\n", payload.cache_hits));
    let plan: Vec<String> = payload.plan.iter().map(usize::to_string).collect();
    out.push_str(&format!("plan {}\n", plan.join(" ")));
    out.push_str(&format!("document {}\n", escape(&payload.document)));
}

struct ChainFields {
    source: Option<String>,
    target: Option<String>,
    path: Option<Vec<String>>,
    deps: Option<Vec<String>>,
    hash: Option<u64>,
    calls: Option<usize>,
    hits: Option<usize>,
    plan: Option<Vec<usize>>,
    document: Option<String>,
}

impl ChainFields {
    fn new() -> Self {
        ChainFields {
            source: None,
            target: None,
            path: None,
            deps: None,
            hash: None,
            calls: None,
            hits: None,
            plan: None,
            document: None,
        }
    }

    /// Absorb one field line; `Ok(false)` when the key is not a chain field.
    fn absorb(&mut self, line: &str) -> Result<bool, ServiceError> {
        let (key, value) = split_field(line);
        match key {
            "source" if self.source.is_none() => self.source = Some(unescape(value)?),
            "target" if self.target.is_none() => self.target = Some(unescape(value)?),
            "path" if self.path.is_none() => self.path = Some(unescape_tokens(value)?),
            "deps" if self.deps.is_none() => self.deps = Some(unescape_tokens(value)?),
            "hash" if self.hash.is_none() => self.hash = Some(parse_u64_hex(value, "hash")?),
            "calls" if self.calls.is_none() => self.calls = Some(parse_usize(value, "calls")?),
            "hits" if self.hits.is_none() => self.hits = Some(parse_usize(value, "hits")?),
            "plan" if self.plan.is_none() => {
                self.plan = Some(
                    value
                        .split_whitespace()
                        .map(|token| parse_usize(token, "plan"))
                        .collect::<Result<_, _>>()?,
                );
            }
            "document" if self.document.is_none() => self.document = Some(unescape(value)?),
            _ => return Ok(false),
        }
        Ok(true)
    }

    fn finish(self) -> Result<ChainPayload, ServiceError> {
        Ok(ChainPayload {
            source: self.source.ok_or_else(|| missing("source"))?,
            target: self.target.ok_or_else(|| missing("target"))?,
            path: self.path.ok_or_else(|| missing("path"))?,
            deps: self.deps.ok_or_else(|| missing("deps"))?,
            hash: self.hash.ok_or_else(|| missing("hash"))?,
            compose_calls: self.calls.ok_or_else(|| missing("calls"))?,
            cache_hits: self.hits.ok_or_else(|| missing("hits"))?,
            plan: self.plan.ok_or_else(|| missing("plan"))?,
            document: self.document.ok_or_else(|| missing("document"))?,
        })
    }
}

/// Render a `response error` frame.
fn encode_error_frame(error: &ServiceError) -> String {
    let mut out = format!("{PROTOCOL} response error\n");
    out.push_str(&format!("code {}\n", error.code.as_str()));
    out.push_str(&format!("message {}\n", escape(&error.message)));
    out.push_str(FRAME_END);
    out.push('\n');
    out
}

/// Write the field lines of a `migrated` reply: those of `payload` but its
/// `target`, whose escaped token `write_target` appends; `target_len` is
/// the token's length or a lower bound of it. The target dominates the
/// reply, so it goes straight into the frame, which grows once to hold it
/// and the frame's tail.
fn write_migrated(
    out: &mut String,
    payload: &MigratePayload,
    target_len: usize,
    write_target: impl FnOnce(&mut String),
) {
    out.push_str(&format!("from {}\n", escape(&payload.from)));
    out.push_str(&format!("to {}\n", escape(&payload.to)));
    out.push_str(&format!(
        "batch {} {} {} {} {}\n",
        payload.applied, payload.inserted, payload.deleted, payload.retracted, payload.rederived
    ));
    out.push_str(&format!(
        "state {} {} {} {}\n",
        if payload.fallback { "fallback" } else { "incremental" },
        payload.source_rows,
        payload.target_rows,
        payload.support_entries
    ));
    out.push_str("target ");
    out.reserve(target_len + "\nend\n".len());
    write_target(out);
    out.push('\n');
}

/// Encode a `migrated` reply whose target is `engine`'s, copied from the
/// text the engine keeps escaped; `payload.target` is not read.
/// Byte-identical to [`encode_reply`] of the payload with its target set
/// to `engine.rendered_target()`.
pub(crate) fn encode_migrated(payload: &MigratePayload, engine: &DifferentialChase) -> String {
    let mut out = format!("{PROTOCOL} response migrated\n");
    write_migrated(&mut out, payload, engine.escaped_target_len(), |out| {
        engine.escaped_target_into(out);
    });
    out.push_str(FRAME_END);
    out.push('\n');
    out
}

/// The kind keyword in the header of an encoded reply frame: a
/// [`Response::kind`], or `error`.
pub(crate) fn reply_kind(frame: &str) -> &str {
    let header = frame.split('\n').next().unwrap_or_default();
    header.strip_prefix(PROTOCOL).and_then(|rest| rest.strip_prefix(" response ")).unwrap_or("")
}

/// Encode a reply — a successful [`Response`] or a [`ServiceError`] — as a
/// complete frame.
pub fn encode_reply(reply: &Result<Response, ServiceError>) -> String {
    match reply {
        Err(error) => encode_error_frame(error),
        Ok(response) => {
            let mut out = format!("{PROTOCOL} response {}\n", response.kind());
            match response {
                Response::Pong | Response::ShuttingDown => {}
                Response::Added { touched, schemas, mappings } => {
                    for name in touched {
                        out.push_str(&format!("touched {}\n", escape(name)));
                    }
                    out.push_str(&format!("schemas {schemas}\n"));
                    out.push_str(&format!("mappings {mappings}\n"));
                }
                Response::Composed(payload) => write_chain(&mut out, payload),
                Response::Batch(items) => {
                    out.push_str(&format!("count {}\n", items.len()));
                    for item in items {
                        // Encode the nested frame straight from the borrowed
                        // payload — the chain document is the dominant share
                        // of a batch reply, so cloning it per item just to
                        // re-enter `encode_reply` would double the peak
                        // allocation.
                        let nested = match item {
                            Ok(payload) => {
                                let mut inner = format!("{PROTOCOL} response composed\n");
                                write_chain(&mut inner, payload);
                                inner.push_str(FRAME_END);
                                inner.push('\n');
                                inner
                            }
                            Err(error) => encode_error_frame(error),
                        };
                        out.push_str(&format!("item {}\n", escape(&nested)));
                    }
                }
                Response::Invalidated { dropped } => {
                    out.push_str(&format!("dropped {dropped}\n"));
                }
                Response::Migrated(payload) => {
                    write_migrated(&mut out, payload, payload.target.len(), |out| {
                        mapcomp_algebra::escape_field_into(out, &payload.target);
                    });
                }
                Response::Metrics { text } => {
                    out.push_str(&format!("text {}\n", escape(text)));
                }
                Response::Analysis(payload) => {
                    out.push_str(&format!("proven {}\n", payload.proven));
                    out.push_str(&format!("unknown {}\n", payload.unknown));
                    out.push_str(&format!("diagnostics {}\n", payload.diagnostics));
                    out.push_str(&format!("text {}\n", escape(&payload.text)));
                }
                Response::Compacted { bytes_before, bytes_after } => {
                    out.push_str(&format!("before {bytes_before}\n"));
                    out.push_str(&format!("after {bytes_after}\n"));
                }
                Response::CacheInfo(payload) => {
                    out.push_str(&format!("segments {}\n", payload.segments.len()));
                    for info in &payload.segments {
                        let capacity = match info.capacity {
                            Some(capacity) => capacity.to_string(),
                            None => "-".to_string(),
                        };
                        out.push_str(&format!(
                            "segment {} {} {} {} {} {} {} {}\n",
                            info.segment,
                            info.entries,
                            capacity,
                            info.hits,
                            info.misses,
                            info.insertions,
                            info.invalidated,
                            info.evictions
                        ));
                    }
                }
                Response::Stats(stats) => {
                    out.push_str(&format!("schemas {}\n", stats.schemas));
                    out.push_str(&format!("mappings {}\n", stats.mappings));
                    match stats.cache_capacity {
                        Some(capacity) => out.push_str(&format!("capacity {capacity}\n")),
                        None => out.push_str("capacity unbounded\n"),
                    }
                    for entry in &stats.entries {
                        let history: String =
                            entry.history.iter().map(|(v, h)| format!(" {v}:{h:016x}")).collect();
                        out.push_str(&format!(
                            "entry {} {} {} {} {:016x} {}{history}\n",
                            escape(&entry.name),
                            escape(&entry.source),
                            escape(&entry.target),
                            entry.version,
                            entry.hash,
                            entry.constraints
                        ));
                    }
                    let session = &stats.session;
                    out.push_str(&format!(
                        "session {} {} {} {} {} {} {} {} {}\n",
                        session.compose_calls,
                        session.paths_resolved,
                        session.chains_composed,
                        session.cache_entries,
                        session.cache.hits,
                        session.cache.misses,
                        session.cache.insertions,
                        session.cache.invalidated,
                        session.cache.evictions
                    ));
                    if let Some(replication) = &stats.replication {
                        out.push_str(&format!(
                            "replication {} {} {} {} {}\n",
                            escape(&replication.role),
                            escape(&replication.state),
                            replication.position.generation,
                            replication.position.seq,
                            replication.lag
                        ));
                    }
                }
                Response::Subscribed { position } => {
                    out.push_str(&format!("position {} {}\n", position.generation, position.seq));
                }
                Response::Delta(payload) => {
                    out.push_str(&format!(
                        "first {} {}\n",
                        payload.first.generation, payload.first.seq
                    ));
                    out.push_str(&format!(
                        "last {} {}\n",
                        payload.last.generation, payload.last.seq
                    ));
                    out.push_str(&format!("chunk {}\n", escape(&payload.chunk)));
                }
                Response::Generation { generation } => {
                    out.push_str(&format!("generation {generation}\n"));
                }
                Response::Snapshot(payload) => {
                    out.push_str(&format!(
                        "position {} {}\n",
                        payload.position.generation, payload.position.seq
                    ));
                    out.push_str(&format!("document {}\n", escape(&payload.document)));
                    out.push_str(&format!("sidecar {}\n", escape(&payload.sidecar)));
                }
            }
            out.push_str(FRAME_END);
            out.push('\n');
            out
        }
    }
}

/// Decode a reply frame into a successful [`Response`] or the
/// [`ServiceError`] the serving side reported. The outer `Result` is the
/// *decoder's* verdict: `Err` means the frame itself was malformed.
pub fn decode_reply(text: &str) -> Result<Result<Response, ServiceError>, ServiceError> {
    let (kind, lines) = frame_lines(text, "response")?;
    match kind {
        "error" => {
            let (mut code, mut message) = (None, None);
            for line in lines {
                match split_field(line) {
                    ("code", value) if code.is_none() => {
                        code = Some(ErrorCode::parse(value).ok_or_else(|| {
                            ServiceError::protocol(format!("unknown error code `{value}`"))
                        })?);
                    }
                    ("message", value) if message.is_none() => message = Some(unescape(value)?),
                    _ => return Err(unknown_field(kind, line)),
                }
            }
            Ok(Err(ServiceError {
                code: code.ok_or_else(|| missing("code"))?,
                message: message.ok_or_else(|| missing("message"))?,
            }))
        }
        "pong" | "shutting-down" => {
            if let Some(line) = lines.first() {
                return Err(unknown_field(kind, line));
            }
            Ok(Ok(if kind == "pong" { Response::Pong } else { Response::ShuttingDown }))
        }
        "added" => {
            let mut touched = Vec::new();
            let (mut schemas, mut mappings) = (None, None);
            for line in lines {
                match split_field(line) {
                    ("touched", value) => touched.push(unescape(value)?),
                    ("schemas", value) if schemas.is_none() => {
                        schemas = Some(parse_usize(value, "schemas")?);
                    }
                    ("mappings", value) if mappings.is_none() => {
                        mappings = Some(parse_usize(value, "mappings")?);
                    }
                    _ => return Err(unknown_field(kind, line)),
                }
            }
            Ok(Ok(Response::Added {
                touched,
                schemas: schemas.ok_or_else(|| missing("schemas"))?,
                mappings: mappings.ok_or_else(|| missing("mappings"))?,
            }))
        }
        "composed" => {
            let mut fields = ChainFields::new();
            for line in lines {
                if !fields.absorb(line)? {
                    return Err(unknown_field(kind, line));
                }
            }
            Ok(Ok(Response::Composed(fields.finish()?)))
        }
        "batch" => {
            let mut count = None;
            let mut items = Vec::new();
            for line in lines {
                match split_field(line) {
                    ("count", value) if count.is_none() => {
                        count = Some(parse_usize(value, "count")?);
                    }
                    ("item", value) => {
                        let nested = unescape(value)?;
                        match decode_reply(&nested)? {
                            Ok(Response::Composed(payload)) => items.push(Ok(payload)),
                            Ok(other) => {
                                return Err(ServiceError::protocol(format!(
                                    "batch item holds a `{}` frame",
                                    other.kind()
                                )))
                            }
                            Err(error) => items.push(Err(error)),
                        }
                    }
                    _ => return Err(unknown_field(kind, line)),
                }
            }
            let count = count.ok_or_else(|| missing("count"))?;
            if count != items.len() {
                return Err(ServiceError::protocol(format!(
                    "batch frame declares {count} items but carries {}",
                    items.len()
                )));
            }
            Ok(Ok(Response::Batch(items)))
        }
        "invalidated" => {
            let mut dropped = None;
            for line in lines {
                match split_field(line) {
                    ("dropped", value) if dropped.is_none() => {
                        dropped = Some(parse_usize(value, "dropped")?);
                    }
                    _ => return Err(unknown_field(kind, line)),
                }
            }
            Ok(Ok(Response::Invalidated { dropped: dropped.ok_or_else(|| missing("dropped"))? }))
        }
        "migrated" => {
            let (mut from, mut to, mut batch, mut state, mut target) =
                (None, None, None, None, None);
            for line in lines {
                match split_field(line) {
                    ("from", value) if from.is_none() => from = Some(unescape(value)?),
                    ("to", value) if to.is_none() => to = Some(unescape(value)?),
                    ("batch", value) if batch.is_none() => {
                        let parts: Vec<&str> = value.split(' ').collect();
                        let [applied, inserted, deleted, retracted, rederived] = parts.as_slice()
                        else {
                            return Err(ServiceError::protocol(format!(
                                "batch line `{line}` does not hold five counters"
                            )));
                        };
                        batch = Some((
                            parse_usize(applied, "applied")?,
                            parse_usize(inserted, "inserted")?,
                            parse_usize(deleted, "deleted")?,
                            parse_usize(retracted, "retracted")?,
                            parse_usize(rederived, "rederived")?,
                        ));
                    }
                    ("state", value) if state.is_none() => {
                        let parts: Vec<&str> = value.split(' ').collect();
                        let [mode, source_rows, target_rows, support_entries] = parts.as_slice()
                        else {
                            return Err(ServiceError::protocol(format!(
                                "state line `{line}` does not hold four fields"
                            )));
                        };
                        let fallback = match *mode {
                            "fallback" => true,
                            "incremental" => false,
                            other => {
                                return Err(ServiceError::protocol(format!(
                                    "unknown migrate mode `{other}`"
                                )))
                            }
                        };
                        state = Some((
                            fallback,
                            parse_usize(source_rows, "source-rows")?,
                            parse_usize(target_rows, "target-rows")?,
                            parse_usize(support_entries, "support-entries")?,
                        ));
                    }
                    ("target", value) if target.is_none() => target = Some(unescape(value)?),
                    _ => return Err(unknown_field(kind, line)),
                }
            }
            let (applied, inserted, deleted, retracted, rederived) =
                batch.ok_or_else(|| missing("batch"))?;
            let (fallback, source_rows, target_rows, support_entries) =
                state.ok_or_else(|| missing("state"))?;
            Ok(Ok(Response::Migrated(MigratePayload {
                from: from.ok_or_else(|| missing("from"))?,
                to: to.ok_or_else(|| missing("to"))?,
                applied,
                inserted,
                deleted,
                retracted,
                rederived,
                fallback,
                source_rows,
                target_rows,
                support_entries,
                target: target.ok_or_else(|| missing("target"))?,
            })))
        }
        "metrics" => {
            let mut text = None;
            for line in lines {
                match split_field(line) {
                    ("text", value) if text.is_none() => text = Some(unescape(value)?),
                    _ => return Err(unknown_field(kind, line)),
                }
            }
            Ok(Ok(Response::Metrics { text: text.ok_or_else(|| missing("text"))? }))
        }
        "analysis" => {
            let (mut proven, mut unknown, mut diagnostics, mut text) = (None, None, None, None);
            for line in lines {
                match split_field(line) {
                    ("proven", value) if proven.is_none() => {
                        proven = Some(parse_usize(value, "proven")?);
                    }
                    ("unknown", value) if unknown.is_none() => {
                        unknown = Some(parse_usize(value, "unknown")?);
                    }
                    ("diagnostics", value) if diagnostics.is_none() => {
                        diagnostics = Some(parse_usize(value, "diagnostics")?);
                    }
                    ("text", value) if text.is_none() => text = Some(unescape(value)?),
                    _ => return Err(unknown_field(kind, line)),
                }
            }
            Ok(Ok(Response::Analysis(AnalysisPayload {
                proven: proven.ok_or_else(|| missing("proven"))?,
                unknown: unknown.ok_or_else(|| missing("unknown"))?,
                diagnostics: diagnostics.ok_or_else(|| missing("diagnostics"))?,
                text: text.ok_or_else(|| missing("text"))?,
            })))
        }
        "compacted" => {
            let (mut before, mut after) = (None, None);
            for line in lines {
                match split_field(line) {
                    ("before", value) if before.is_none() => {
                        before = Some(parse_u64_dec(value, "before")?);
                    }
                    ("after", value) if after.is_none() => {
                        after = Some(parse_u64_dec(value, "after")?);
                    }
                    _ => return Err(unknown_field(kind, line)),
                }
            }
            Ok(Ok(Response::Compacted {
                bytes_before: before.ok_or_else(|| missing("before"))?,
                bytes_after: after.ok_or_else(|| missing("after"))?,
            }))
        }
        "cache-info" => {
            let mut declared = None;
            let mut segments = Vec::new();
            for line in lines {
                match split_field(line) {
                    ("segments", value) if declared.is_none() => {
                        declared = Some(parse_usize(value, "segments")?);
                    }
                    ("segment", value) => {
                        let tokens: Vec<&str> = value.split_whitespace().collect();
                        let [segment, entries, capacity, hits, misses, ins, inv, evict] =
                            tokens.as_slice()
                        else {
                            return Err(ServiceError::protocol(format!(
                                "cache-info segment line `{line}` does not hold eight tokens"
                            )));
                        };
                        segments.push(SegmentCacheInfo {
                            segment: parse_usize(segment, "segment")?,
                            entries: parse_usize(entries, "entries")?,
                            capacity: if *capacity == "-" {
                                None
                            } else {
                                Some(parse_usize(capacity, "capacity")?)
                            },
                            hits: parse_usize(hits, "hits")?,
                            misses: parse_usize(misses, "misses")?,
                            insertions: parse_usize(ins, "insertions")?,
                            invalidated: parse_usize(inv, "invalidated")?,
                            evictions: parse_usize(evict, "evictions")?,
                        });
                    }
                    _ => return Err(unknown_field(kind, line)),
                }
            }
            let declared = declared.ok_or_else(|| missing("segments"))?;
            if declared != segments.len() {
                return Err(ServiceError::protocol(format!(
                    "cache-info frame declares {declared} segments but carries {}",
                    segments.len()
                )));
            }
            Ok(Ok(Response::CacheInfo(CacheInfoPayload { segments })))
        }
        "stats" => {
            let (mut schemas, mut mappings, mut session) = (None, None, None);
            let mut capacity = None;
            let mut entries = Vec::new();
            let mut replication = None;
            for line in lines {
                match split_field(line) {
                    ("schemas", value) if schemas.is_none() => {
                        schemas = Some(parse_usize(value, "schemas")?);
                    }
                    ("mappings", value) if mappings.is_none() => {
                        mappings = Some(parse_usize(value, "mappings")?);
                    }
                    ("capacity", value) if capacity.is_none() => {
                        capacity = Some(if value == "unbounded" {
                            None
                        } else {
                            Some(parse_usize(value, "capacity")?)
                        });
                    }
                    ("entry", value) => {
                        let tokens: Vec<&str> = value.split_whitespace().collect();
                        let [name, source, target, version, hash, constraints, history @ ..] =
                            tokens.as_slice()
                        else {
                            return Err(ServiceError::protocol(format!(
                                "stats entry line `{line}` holds fewer than six tokens"
                            )));
                        };
                        let history = history
                            .iter()
                            .map(|token| {
                                let (v, h) = token.split_once(':').ok_or_else(|| {
                                    ServiceError::protocol(format!("bad history token `{token}`"))
                                })?;
                                Ok((
                                    v.parse().map_err(|_| {
                                        ServiceError::protocol(format!("bad history version `{v}`"))
                                    })?,
                                    parse_u64_hex(h, "history hash")?,
                                ))
                            })
                            .collect::<Result<Vec<(u64, u64)>, ServiceError>>()?;
                        entries.push(MappingInfo {
                            name: unescape(name)?,
                            source: unescape(source)?,
                            target: unescape(target)?,
                            version: version.parse().map_err(|_| {
                                ServiceError::protocol(format!("bad version `{version}`"))
                            })?,
                            hash: parse_u64_hex(hash, "entry hash")?,
                            constraints: parse_usize(constraints, "entry constraints")?,
                            history,
                        });
                    }
                    ("session", value) if session.is_none() => {
                        let numbers: Vec<usize> = value
                            .split_whitespace()
                            .map(|token| parse_usize(token, "session"))
                            .collect::<Result<_, _>>()?;
                        let &[calls, paths, chains, entries, hits, misses, ins, inv, evict] =
                            numbers.as_slice()
                        else {
                            return Err(ServiceError::protocol(
                                "session line does not hold nine counters",
                            ));
                        };
                        session = Some(SessionStats {
                            compose_calls: calls,
                            paths_resolved: paths,
                            chains_composed: chains,
                            cache_entries: entries,
                            cache: CacheStats {
                                hits,
                                misses,
                                insertions: ins,
                                invalidated: inv,
                                evictions: evict,
                            },
                        });
                    }
                    ("replication", value) if replication.is_none() => {
                        let tokens: Vec<&str> = value.split_whitespace().collect();
                        let [role, state, generation, seq, lag] = tokens.as_slice() else {
                            return Err(ServiceError::protocol(format!(
                                "stats replication line `{line}` does not hold five tokens"
                            )));
                        };
                        replication = Some(ReplicationInfo {
                            role: unescape(role)?,
                            state: unescape(state)?,
                            position: Position::new(
                                parse_u64_dec(generation, "replication generation")?,
                                parse_u64_dec(seq, "replication seq")?,
                            ),
                            lag: parse_u64_dec(lag, "replication lag")?,
                        });
                    }
                    _ => return Err(unknown_field(kind, line)),
                }
            }
            Ok(Ok(Response::Stats(StatsPayload {
                schemas: schemas.ok_or_else(|| missing("schemas"))?,
                mappings: mappings.ok_or_else(|| missing("mappings"))?,
                entries,
                session: session.ok_or_else(|| missing("session"))?,
                cache_capacity: capacity.ok_or_else(|| missing("capacity"))?,
                replication,
            })))
        }
        "subscribed" => {
            let mut position = None;
            for line in lines {
                match split_field(line) {
                    ("position", value) if position.is_none() => {
                        position = Some(parse_position(value, "position")?);
                    }
                    _ => return Err(unknown_field(kind, line)),
                }
            }
            Ok(Ok(Response::Subscribed { position: position.ok_or_else(|| missing("position"))? }))
        }
        "delta-chunk" => {
            let (mut first, mut last, mut chunk) = (None, None, None);
            for line in lines {
                match split_field(line) {
                    ("first", value) if first.is_none() => {
                        first = Some(parse_position(value, "first")?);
                    }
                    ("last", value) if last.is_none() => {
                        last = Some(parse_position(value, "last")?);
                    }
                    ("chunk", value) if chunk.is_none() => chunk = Some(unescape(value)?),
                    _ => return Err(unknown_field(kind, line)),
                }
            }
            Ok(Ok(Response::Delta(DeltaChunkPayload {
                first: first.ok_or_else(|| missing("first"))?,
                last: last.ok_or_else(|| missing("last"))?,
                chunk: chunk.ok_or_else(|| missing("chunk"))?,
            })))
        }
        "generation" => {
            let mut generation = None;
            for line in lines {
                match split_field(line) {
                    ("generation", value) if generation.is_none() => {
                        generation = Some(parse_u64_dec(value, "generation")?);
                    }
                    _ => return Err(unknown_field(kind, line)),
                }
            }
            Ok(Ok(Response::Generation {
                generation: generation.ok_or_else(|| missing("generation"))?,
            }))
        }
        "snapshot" => {
            let (mut position, mut document, mut sidecar) = (None, None, None);
            for line in lines {
                match split_field(line) {
                    ("position", value) if position.is_none() => {
                        position = Some(parse_position(value, "position")?);
                    }
                    ("document", value) if document.is_none() => {
                        document = Some(unescape(value)?);
                    }
                    ("sidecar", value) if sidecar.is_none() => sidecar = Some(unescape(value)?),
                    _ => return Err(unknown_field(kind, line)),
                }
            }
            Ok(Ok(Response::Snapshot(SnapshotPayload {
                position: position.ok_or_else(|| missing("position"))?,
                document: document.ok_or_else(|| missing("document"))?,
                sidecar: sidecar.ok_or_else(|| missing("sidecar"))?,
            })))
        }
        other => Err(ServiceError::protocol(format!("unknown response kind `{other}`"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_round_trips_awkward_strings() {
        for text in ["", " ", "a b", "%", "%e", "line\nbreak", "tab\there", "plain", "σ→τ"] {
            let token = escape(text);
            assert!(!token.contains(' ') && !token.contains('\n'), "token `{token}`");
            assert_eq!(unescape(&token).unwrap(), text, "via `{token}`");
        }
    }

    #[test]
    fn unescape_rejects_truncated_escapes() {
        assert!(unescape("%2").is_err());
        assert!(unescape("abc%").is_err());
        assert!(unescape("%GG").is_err());
    }

    #[test]
    fn frame_tokens_with_a_sign_in_an_escape_are_refused() {
        // `%+A` is not `%0A`: an escape is `%` and exactly two hex digits.
        let frame = "mapcomp-service 1 request compose-path\nfrom s%+A1\nto s3\nend\n";
        let error = decode_request(frame).unwrap_err();
        assert_eq!(error.code, ErrorCode::Protocol, "{error}");
        let good = "mapcomp-service 1 request compose-path\nfrom s%0A1\nto s3\nend\n";
        assert_eq!(
            decode_request(good).unwrap(),
            Request::ComposePath { from: "s\n1".into(), to: "s3".into() }
        );
    }

    #[test]
    fn migrated_replies_escape_the_target_in_place() {
        let payload = MigratePayload {
            from: "s1".into(),
            to: "s3".into(),
            applied: 1,
            inserted: 1,
            deleted: 0,
            retracted: 0,
            rederived: 0,
            fallback: false,
            source_rows: 1,
            target_rows: 2,
            support_entries: 2,
            target: "T('a b%c');\nT(-1);\n".into(),
        };
        let frame = encode_reply(&Ok(Response::Migrated(payload.clone())));
        assert!(frame.contains(&format!("\ntarget {}\n", escape(&payload.target))), "{frame}");
        assert_eq!(decode_reply(&frame).unwrap(), Ok(Response::Migrated(payload)));
    }

    #[test]
    fn simple_request_round_trip() {
        let request = Request::ComposePath { from: "a schema".into(), to: "σ2".into() };
        let frame = encode_request(&request);
        assert!(frame.ends_with("end\n"));
        assert_eq!(decode_request(&frame).unwrap(), request);
    }

    #[test]
    fn traced_requests_round_trip_and_untraced_stay_identical() {
        let request = Request::ComposePath { from: "s1".into(), to: "s3".into() };
        // No trace: traced and untraced encoders agree byte for byte.
        assert_eq!(encode_request_frame(&request, None, None), encode_request(&request));
        // With a trace: the field survives the round trip on every kind,
        // including kinds with no fields of their own.
        for request in [request, Request::Ping, Request::Metrics, Request::Shutdown] {
            let frame = encode_request_frame(&request, Some(0xdead_beef), None);
            assert!(frame.contains("trace 00000000deadbeef\n"), "frame {frame:?}");
            let (decoded, trace, _) = decode_request_frame(&frame).unwrap();
            assert_eq!(decoded, request);
            assert_eq!(trace, Some(0xdead_beef));
            // The trace-unaware decoder accepts and discards the field.
            assert_eq!(decode_request(&frame).unwrap(), request);
        }
    }

    #[test]
    fn duplicate_trace_fields_are_rejected() {
        let frame = "mapcomp-service 1 request ping\ntrace 1\ntrace 2\nend\n";
        let error = decode_request(frame).unwrap_err();
        assert_eq!(error.code, ErrorCode::Protocol);
    }

    #[test]
    fn auth_fields_round_trip_on_every_kind_and_follow_the_trace_line() {
        for request in [
            Request::Ping,
            Request::CacheInfo,
            Request::ComposePath { from: "s1".into(), to: "s3".into() },
        ] {
            let frame = encode_request_frame(&request, Some(0xabc), Some("s3cret token"));
            // Canonical order: trace first, auth second, kind fields after.
            let lines: Vec<&str> = frame.lines().collect();
            assert!(lines[1].starts_with("trace "), "frame {frame:?}");
            assert!(lines[2].starts_with("auth "), "frame {frame:?}");
            let (decoded, trace, auth) = decode_request_frame(&frame).unwrap();
            assert_eq!(decoded, request);
            assert_eq!(trace, Some(0xabc));
            assert_eq!(auth.as_deref(), Some("s3cret token"));
            // The auth-unaware decoder accepts and discards the field.
            assert_eq!(decode_request(&frame).unwrap(), request);
        }
        // Without either envelope field the frame is the legacy encoding.
        let request = Request::Stats;
        assert_eq!(encode_request_frame(&request, None, None), encode_request(&request));
    }

    #[test]
    fn duplicate_auth_fields_are_rejected() {
        let frame = "mapcomp-service 1 request ping\nauth a\nauth b\nend\n";
        let error = decode_request(frame).unwrap_err();
        assert_eq!(error.code, ErrorCode::Protocol);
    }

    #[test]
    fn cache_info_replies_round_trip_and_validate_their_count() {
        let reply = Ok(Response::CacheInfo(crate::api::CacheInfoPayload {
            segments: vec![
                crate::api::SegmentCacheInfo {
                    segment: 0,
                    entries: 3,
                    capacity: Some(64),
                    hits: 10,
                    misses: 4,
                    insertions: 4,
                    invalidated: 1,
                    evictions: 0,
                },
                crate::api::SegmentCacheInfo {
                    segment: 1,
                    entries: 0,
                    capacity: None,
                    hits: 0,
                    misses: 0,
                    insertions: 0,
                    invalidated: 0,
                    evictions: 0,
                },
            ],
        }));
        let frame = encode_reply(&reply);
        assert_eq!(decode_reply(&frame).unwrap(), reply);
        // A count that disagrees with the segment lines is a protocol error.
        let lying = frame.replace("segments 2", "segments 3");
        assert_eq!(decode_reply(&lying).unwrap_err().code, ErrorCode::Protocol);
    }

    #[test]
    fn metrics_reply_round_trips_multiline_exposition() {
        let text = "# HELP a A.\n# TYPE a counter\na{kind=\"x\"} 3\n".to_string();
        let reply = Ok(Response::Metrics { text });
        let frame = encode_reply(&reply);
        assert_eq!(decode_reply(&frame).unwrap(), reply);
    }

    #[test]
    fn analyze_round_trips_with_and_without_a_mapping() {
        for mapping in [None, Some("m12".to_string())] {
            let request = Request::Analyze { mapping };
            let frame = encode_request(&request);
            assert_eq!(decode_request(&frame).unwrap(), request);
        }
        let reply = Ok(Response::Analysis(crate::api::AnalysisPayload {
            proven: 2,
            unknown: 1,
            diagnostics: 3,
            text: "mapping m: proven rank=0 positions=2 rules=1\n".into(),
        }));
        let frame = encode_reply(&reply);
        assert_eq!(decode_reply(&frame).unwrap(), reply);
    }

    #[test]
    fn subscribe_and_snapshot_requests_round_trip() {
        for request in [
            Request::Subscribe { from_generation: 0, from_seq: 0 },
            Request::Subscribe { from_generation: 7, from_seq: 4096 },
            Request::Snapshot,
        ] {
            let frame = encode_request(&request);
            assert_eq!(decode_request(&frame).unwrap(), request, "frame:\n{frame}");
        }
        // Both position fields are mandatory on subscribe.
        let partial = "mapcomp-service 1 request subscribe\ngeneration 3\nend\n";
        assert_eq!(decode_request(partial).unwrap_err().code, ErrorCode::Protocol);
    }

    #[test]
    fn replication_replies_round_trip() {
        let replies = [
            Ok(Response::Subscribed { position: Position::new(3, 17) }),
            Ok(Response::Delta(crate::api::DeltaChunkPayload {
                first: Position::new(3, 17),
                last: Position::new(3, 19),
                chunk: "delta 3 17 invalidate m%20one\nversion m1 4\n".into(),
            })),
            Ok(Response::Generation { generation: 4 }),
            Ok(Response::Snapshot(crate::api::SnapshotPayload {
                position: Position::new(4, 0),
                document: "schema s { R/1; }\n".into(),
                sidecar: "generation 4 0\nstats 0 0 0 0 0\n".into(),
            })),
        ];
        for reply in replies {
            let frame = encode_reply(&reply);
            assert_eq!(decode_reply(&frame).unwrap(), reply, "frame:\n{frame}");
        }
        // A one-token position is malformed.
        let bad = "mapcomp-service 1 response subscribed\nposition 3\nend\n";
        assert_eq!(decode_reply(bad).unwrap_err().code, ErrorCode::Protocol);
    }

    #[test]
    fn stats_replication_line_is_optional_and_round_trips() {
        let mut stats = crate::api::StatsPayload::default();
        let frame = encode_reply(&Ok(Response::Stats(stats.clone())));
        assert!(!frame.contains("\nreplication "), "frame:\n{frame}");
        stats.replication = Some(crate::api::ReplicationInfo {
            role: "follower".into(),
            state: "streaming".into(),
            position: Position::new(2, 40),
            lag: 3,
        });
        let reply = Ok(Response::Stats(stats));
        let frame = encode_reply(&reply);
        assert_eq!(decode_reply(&frame).unwrap(), reply, "frame:\n{frame}");
    }

    #[test]
    fn readonly_and_stale_error_codes_round_trip() {
        for code in [ErrorCode::Readonly, ErrorCode::Stale] {
            assert_eq!(ErrorCode::parse(code.as_str()), Some(code));
            let reply: Result<Response, ServiceError> =
                Err(ServiceError::new(code, "writes go to the leader at 127.0.0.1:7070"));
            let frame = encode_reply(&reply);
            assert_eq!(decode_reply(&frame).unwrap(), reply);
        }
    }

    #[test]
    fn frames_read_off_a_stream_one_at_a_time() {
        let mut wire = String::new();
        wire.push_str(&encode_request(&Request::Ping));
        wire.push_str(&encode_request(&Request::Stats));
        let mut reader = std::io::BufReader::new(wire.as_bytes());
        let first = read_frame(&mut reader).unwrap().unwrap();
        assert_eq!(decode_request(&first).unwrap(), Request::Ping);
        let second = read_frame(&mut reader).unwrap().unwrap();
        assert_eq!(decode_request(&second).unwrap(), Request::Stats);
        assert!(read_frame(&mut reader).unwrap().is_none());
    }

    #[test]
    fn mid_frame_eof_is_an_error() {
        let mut reader = std::io::BufReader::new("mapcomp-service 1 request ping\n".as_bytes());
        let error = read_frame(&mut reader).unwrap_err();
        assert_eq!(error.kind(), std::io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn malformed_frames_are_rejected_with_protocol_errors() {
        for bad in [
            "",
            "end\n",
            "mapcomp-service 9 request ping\nend\n",
            "mapcomp-service 1 response ping\nend\n",
            "mapcomp-service 1 request warble\nend\n",
            "mapcomp-service 1 request ping\nstray field\nend\n",
            "mapcomp-service 1 request compose-path\nfrom a\nend\n",
            "mapcomp-service 1 request compose-batch\nworkers x\nend\n",
        ] {
            let error = decode_request(bad).unwrap_err();
            assert_eq!(error.code, ErrorCode::Protocol, "input {bad:?} gave {error}");
        }
    }
}
