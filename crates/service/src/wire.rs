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
//! whitespace-separated grammar, and multi-valued fields repeat the token
//! or the line (`name`, `pair`, `update`, `touched`, `item`, `segment`,
//! `entry`). Batch items nest recursively: each item is a complete reply
//! frame escaped into a single token.
//!
//! Decoding is strict where structure is concerned (unknown kinds, missing
//! or duplicated fields, bad numbers and truncated frames all fail with
//! [`ErrorCode::Protocol`]) because a service boundary that silently guesses
//! is worse than one that rejects. Each kind declares its singular and
//! repeated keys, and one field reader applies that rule to every frame.
//! An error quotes at most 64 bytes of the offending input. Round-trip
//! coverage lives in the crate's property suite.

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
    mapcomp_algebra::unescape_field(token).ok_or_else(|| {
        ServiceError::protocol(format!("malformed escape in token `{}`", quote(token)))
    })
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

/// The most bytes of peer input an error message repeats back: a reply to
/// a malformed frame stays small however large the frame was.
const QUOTE_BYTES: usize = 64;

/// `text` as an error message quotes it: whole when short, else its first
/// [`QUOTE_BYTES`] bytes (cut back to a char boundary) followed by `…`.
fn quote(text: &str) -> String {
    if text.len() <= QUOTE_BYTES {
        return text.to_string();
    }
    let mut end = QUOTE_BYTES;
    while !text.is_char_boundary(end) {
        end -= 1;
    }
    format!("{}…", &text[..end])
}

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
            ServiceError::protocol(format!("unrecognised protocol header `{}`", quote(header)))
        })?;
    let kind =
        rest.strip_prefix(direction).and_then(|rest| rest.strip_prefix(' ')).ok_or_else(|| {
            ServiceError::protocol(format!("expected a {direction} frame, got `{}`", quote(rest)))
        })?;
    if kind.is_empty() || kind.contains(' ') {
        return Err(ServiceError::protocol(format!("malformed frame kind `{}`", quote(kind))));
    }
    Ok((kind, lines))
}

fn parse_count<T: std::str::FromStr>(value: &str, field: &str) -> Result<T, ServiceError> {
    value.parse().map_err(|_| {
        ServiceError::protocol(format!("field `{field}` has a bad count `{}`", quote(value)))
    })
}

fn parse_u64_hex(value: &str, field: &str) -> Result<u64, ServiceError> {
    u64::from_str_radix(value, 16).map_err(|_| {
        ServiceError::protocol(format!("field `{field}` has a bad hash `{}`", quote(value)))
    })
}

/// Parse a `<generation> <seq>` log-position value (two decimal tokens).
fn parse_position(value: &str, field: &str) -> Result<Position, ServiceError> {
    let tokens: Vec<&str> = value.split_whitespace().collect();
    let [generation, seq] = tokens.as_slice() else {
        return Err(ServiceError::protocol(format!(
            "field `{field}` does not hold a `<generation> <seq>` position"
        )));
    };
    Ok(Position::new(parse_count(generation, field)?, parse_count(seq, field)?))
}

/// One `key value…` field line, split on the first space.
fn split_field(line: &str) -> (&str, &str) {
    match line.split_once(' ') {
        Some((key, value)) => (key, value),
        None => (line, ""),
    }
}

/// The `N` tokens of a field line's value (as `split` cuts them); any
/// other number is an error that names the line as `what` and says what it
/// `holds`.
fn line_tokens<'a, const N: usize>(
    line: &'a str,
    split: fn(&str) -> Vec<&str>,
    what: &str,
    holds: &str,
) -> Result<[&'a str; N], ServiceError> {
    split(split_field(line).1).try_into().map_err(|_| {
        ServiceError::protocol(format!("{what} `{}` does not hold {holds}", quote(line)))
    })
}

fn missing(field: &str) -> ServiceError {
    ServiceError::protocol(format!("frame is missing the `{field}` field"))
}

fn unknown_field(kind: &str, line: &str) -> ServiceError {
    ServiceError::protocol(format!("unknown field line `{}` in a `{kind}` frame", quote(line)))
}

fn unknown_kind(direction: &str, kind: &str) -> ServiceError {
    ServiceError::protocol(format!("unknown {direction} kind `{}`", quote(kind)))
}

/// Unescape every whitespace-separated token of a multi-token field value.
fn unescape_tokens(value: &str) -> Result<Vec<String>, ServiceError> {
    value.split_whitespace().map(unescape).collect()
}

fn escape_tokens(values: &[String]) -> String {
    values.iter().map(|value| escape(value)).collect::<Vec<_>>().join(" ")
}

// ---------------------------------------------------------------------------
// Field reader
// ---------------------------------------------------------------------------

/// The field keys a frame kind declares: `(singular, repeated)`.
type Keys = (&'static [&'static str], &'static [&'static str]);

/// The envelope keys any request frame may carry besides its kind's own.
const ENVELOPE: &[&str] = &["trace", "auth"];

/// A frame's field lines filed by key. [`Fields::read`] checks the rule
/// every kind shares: a singular key appears at most once, a repeated key
/// any number of times, and any other line is refused. Values stay
/// borrowed from the frame text until an accessor parses them, so a value
/// is never copied before its one [`unescape`].
struct Fields<'a> {
    /// `(key, line)` of each singular field present.
    singular: Vec<(&'a str, &'a str)>,
    /// `(key, line)` of each repeated field line, in frame order.
    repeated: Vec<(&'a str, &'a str)>,
}

impl<'a> Fields<'a> {
    /// File `lines` under a kind's `keys` and the `envelope` keys, which
    /// are singular too but refused by name when repeated.
    fn read(
        kind: &str,
        lines: &[&'a str],
        envelope: &[&str],
        (singular, repeated): Keys,
    ) -> Result<Self, ServiceError> {
        let mut fields = Fields { singular: Vec::with_capacity(lines.len()), repeated: Vec::new() };
        for &line in lines {
            let (key, _) = split_field(line);
            if repeated.contains(&key) {
                fields.repeated.push((key, line));
                continue;
            }
            let (seen, envelope_key) = (fields.line(key).is_some(), envelope.contains(&key));
            if !seen && (envelope_key || singular.contains(&key)) {
                fields.singular.push((key, line));
            } else if envelope_key {
                return Err(ServiceError::protocol(format!(
                    "frame carries more than one `{key}` field"
                )));
            } else {
                return Err(unknown_field(kind, line));
            }
        }
        Ok(fields)
    }

    /// The line of a singular field, if present.
    fn line(&self, key: &str) -> Option<&'a str> {
        self.singular.iter().find(|&&(k, _)| k == key).map(|&(_, line)| line)
    }

    /// The value of an optional singular field.
    fn opt(&self, key: &str) -> Option<&'a str> {
        self.line(key).map(|line| split_field(line).1)
    }

    /// The value of a required singular field.
    fn one(&self, key: &str) -> Result<&'a str, ServiceError> {
        self.opt(key).ok_or_else(|| missing(key))
    }

    fn text(&self, key: &str) -> Result<String, ServiceError> {
        unescape(self.one(key)?)
    }

    fn count<T: std::str::FromStr>(&self, key: &str) -> Result<T, ServiceError> {
        parse_count(self.one(key)?, key)
    }

    fn position(&self, key: &str) -> Result<Position, ServiceError> {
        parse_position(self.one(key)?, key)
    }

    /// The lines of a repeated field, in frame order.
    fn all<'k>(&'k self, key: &'k str) -> impl Iterator<Item = &'a str> + 'k {
        self.repeated.iter().filter(move |&&(k, _)| k == key).map(|&(_, line)| line)
    }

    /// The unescaped values of a repeated field, in frame order.
    fn texts(&self, key: &str) -> Result<Vec<String>, ServiceError> {
        self.all(key).map(|line| unescape(split_field(line).1)).collect()
    }
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
/// envelope fields. Both lines are recognised for every request kind, so
/// kinds with no fields of their own still accept them; at most one of
/// each may appear.
pub fn decode_request_frame(
    text: &str,
) -> Result<(Request, Option<u64>, Option<String>), ServiceError> {
    let (kind, lines) = frame_lines(text, "request")?;
    let f = Fields::read(kind, &lines, ENVELOPE, request_keys(kind)?)?;
    let trace = f.opt("trace").map(|value| parse_u64_hex(value, "trace")).transpose()?;
    let auth = match f.opt("auth") {
        Some("") => return Err(ServiceError::protocol("`auth` field is missing its token")),
        value => value.map(unescape).transpose()?,
    };
    let request = match kind {
        "subscribe" => Request::Subscribe {
            from_generation: f.count("generation")?,
            from_seq: f.count("seq")?,
        },
        "add-document" => Request::AddDocument { text: f.text("text")? },
        "compose-path" => Request::ComposePath { from: f.text("from")?, to: f.text("to")? },
        "compose-names" => Request::ComposeNames { names: f.texts("name")? },
        "compose-batch" => Request::ComposeBatch {
            requests: f.all("pair").map(batch_pair).collect::<Result<_, _>>()?,
            workers: f.count("workers")?,
        },
        "invalidate" => Request::Invalidate { mapping: f.text("mapping")? },
        "migrate-delta" => Request::MigrateDelta {
            from: f.text("from")?,
            to: f.text("to")?,
            updates: f.texts("update")?,
        },
        "analyze" => Request::Analyze { mapping: f.opt("mapping").map(unescape).transpose()? },
        _ => fieldless_request(kind)?,
    };
    Ok((request, trace, auth))
}

/// The field keys of each request kind; an unknown kind is refused.
fn request_keys(kind: &str) -> Result<Keys, ServiceError> {
    Ok(match kind {
        "subscribe" => (&["generation", "seq"], &[]),
        "add-document" => (&["text"], &[]),
        "compose-path" => (&["from", "to"], &[]),
        "compose-names" => (&[], &["name"]),
        "compose-batch" => (&["workers"], &["pair"]),
        "invalidate" | "analyze" => (&["mapping"], &[]),
        "migrate-delta" => (&["from", "to"], &["update"]),
        _ => {
            fieldless_request(kind)?;
            (&[], &[])
        }
    })
}

/// The request of a kind without fields of its own.
fn fieldless_request(kind: &str) -> Result<Request, ServiceError> {
    [
        Request::Ping,
        Request::Stats,
        Request::CacheInfo,
        Request::Metrics,
        Request::Compact,
        Request::Snapshot,
        Request::Shutdown,
    ]
    .into_iter()
    .find(|request| request.kind() == kind)
    .ok_or_else(|| unknown_kind("request", kind))
}

/// A `pair <from> <to>` line of a `compose-batch` request.
fn batch_pair(line: &str) -> Result<(String, String), ServiceError> {
    let [from, to]: [String; 2] =
        unescape_tokens(split_field(line).1)?.try_into().map_err(|_| {
            ServiceError::protocol(format!(
                "batch pair line `{}` does not hold two tokens",
                quote(line)
            ))
        })?;
    Ok((from, to))
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
    let f = Fields::read(kind, &lines, &[], reply_keys(kind)?)?;
    Ok(Ok(match kind {
        "error" => {
            let code = f.one("code")?;
            return Ok(Err(ServiceError {
                code: ErrorCode::parse(code).ok_or_else(|| {
                    ServiceError::protocol(format!("unknown error code `{}`", quote(code)))
                })?,
                message: f.text("message")?,
            }));
        }
        "added" => Response::Added {
            touched: f.texts("touched")?,
            schemas: f.count("schemas")?,
            mappings: f.count("mappings")?,
        },
        "composed" => Response::Composed(ChainPayload {
            source: f.text("source")?,
            target: f.text("target")?,
            path: unescape_tokens(f.one("path")?)?,
            deps: unescape_tokens(f.one("deps")?)?,
            hash: parse_u64_hex(f.one("hash")?, "hash")?,
            compose_calls: f.count("calls")?,
            cache_hits: f.count("hits")?,
            plan: f
                .one("plan")?
                .split_whitespace()
                .map(|token| parse_count(token, "plan"))
                .collect::<Result<_, _>>()?,
            document: f.text("document")?,
        }),
        "batch" => {
            let items: Vec<_> = f.all("item").map(batch_item).collect::<Result<_, _>>()?;
            let count: usize = f.count("count")?;
            if count != items.len() {
                return Err(ServiceError::protocol(format!(
                    "batch frame declares {count} items but carries {}",
                    items.len()
                )));
            }
            Response::Batch(items)
        }
        "invalidated" => Response::Invalidated { dropped: f.count("dropped")? },
        "migrated" => {
            let by_space: fn(&str) -> Vec<&str> = |value| value.split(' ').collect();
            let batch = f.line("batch").ok_or_else(|| missing("batch"))?;
            let [applied, inserted, deleted, retracted, rederived] =
                line_tokens(batch, by_space, "batch line", "five counters")?;
            let state = f.line("state").ok_or_else(|| missing("state"))?;
            let [mode, source_rows, target_rows, support_entries] =
                line_tokens(state, by_space, "state line", "four fields")?;
            Response::Migrated(MigratePayload {
                applied: parse_count(applied, "applied")?,
                inserted: parse_count(inserted, "inserted")?,
                deleted: parse_count(deleted, "deleted")?,
                retracted: parse_count(retracted, "retracted")?,
                rederived: parse_count(rederived, "rederived")?,
                fallback: match mode {
                    "fallback" => true,
                    "incremental" => false,
                    other => {
                        return Err(ServiceError::protocol(format!(
                            "unknown migrate mode `{}`",
                            quote(other)
                        )))
                    }
                },
                source_rows: parse_count(source_rows, "source-rows")?,
                target_rows: parse_count(target_rows, "target-rows")?,
                support_entries: parse_count(support_entries, "support-entries")?,
                from: f.text("from")?,
                to: f.text("to")?,
                target: f.text("target")?,
            })
        }
        "metrics" => Response::Metrics { text: f.text("text")? },
        "analysis" => Response::Analysis(AnalysisPayload {
            proven: f.count("proven")?,
            unknown: f.count("unknown")?,
            diagnostics: f.count("diagnostics")?,
            text: f.text("text")?,
        }),
        "compacted" => {
            Response::Compacted { bytes_before: f.count("before")?, bytes_after: f.count("after")? }
        }
        "cache-info" => {
            let segments: Vec<_> = f.all("segment").map(segment_info).collect::<Result<_, _>>()?;
            let declared: usize = f.count("segments")?;
            if declared != segments.len() {
                return Err(ServiceError::protocol(format!(
                    "cache-info frame declares {declared} segments but carries {}",
                    segments.len()
                )));
            }
            Response::CacheInfo(CacheInfoPayload { segments })
        }
        "stats" => Response::Stats(StatsPayload {
            schemas: f.count("schemas")?,
            mappings: f.count("mappings")?,
            entries: f.all("entry").map(mapping_info).collect::<Result<_, _>>()?,
            session: session_stats(f.one("session")?)?,
            cache_capacity: match f.one("capacity")? {
                "unbounded" => None,
                value => Some(parse_count(value, "capacity")?),
            },
            replication: f.line("replication").map(replication_info).transpose()?,
        }),
        "subscribed" => Response::Subscribed { position: f.position("position")? },
        "delta-chunk" => Response::Delta(DeltaChunkPayload {
            first: f.position("first")?,
            last: f.position("last")?,
            chunk: f.text("chunk")?,
        }),
        "generation" => Response::Generation { generation: f.count("generation")? },
        "snapshot" => Response::Snapshot(SnapshotPayload {
            position: f.position("position")?,
            document: f.text("document")?,
            sidecar: f.text("sidecar")?,
        }),
        _ => fieldless_reply(kind)?,
    }))
}

/// The field keys of each reply kind; an unknown kind is refused.
fn reply_keys(kind: &str) -> Result<Keys, ServiceError> {
    Ok(match kind {
        "error" => (&["code", "message"], &[]),
        "added" => (&["schemas", "mappings"], &["touched"]),
        "composed" => (
            &["source", "target", "path", "deps", "hash", "calls", "hits", "plan", "document"],
            &[],
        ),
        "batch" => (&["count"], &["item"]),
        "invalidated" => (&["dropped"], &[]),
        "migrated" => (&["from", "to", "batch", "state", "target"], &[]),
        "metrics" => (&["text"], &[]),
        "analysis" => (&["proven", "unknown", "diagnostics", "text"], &[]),
        "compacted" => (&["before", "after"], &[]),
        "cache-info" => (&["segments"], &["segment"]),
        "stats" => (&["schemas", "mappings", "capacity", "session", "replication"], &["entry"]),
        "subscribed" => (&["position"], &[]),
        "delta-chunk" => (&["first", "last", "chunk"], &[]),
        "generation" => (&["generation"], &[]),
        "snapshot" => (&["position", "document", "sidecar"], &[]),
        _ => {
            fieldless_reply(kind)?;
            (&[], &[])
        }
    })
}

/// The reply of a kind without fields of its own.
fn fieldless_reply(kind: &str) -> Result<Response, ServiceError> {
    [Response::Pong, Response::ShuttingDown]
        .into_iter()
        .find(|response| response.kind() == kind)
        .ok_or_else(|| unknown_kind("response", kind))
}

/// An `item` line of a `batch` reply: a `composed` or `error` frame.
fn batch_item(line: &str) -> Result<Result<ChainPayload, ServiceError>, ServiceError> {
    match decode_reply(&unescape(split_field(line).1)?)? {
        Ok(Response::Composed(payload)) => Ok(Ok(payload)),
        Ok(other) => {
            Err(ServiceError::protocol(format!("batch item holds a `{}` frame", other.kind())))
        }
        Err(error) => Ok(Err(error)),
    }
}

/// A `segment` line of a `cache-info` reply.
fn segment_info(line: &str) -> Result<SegmentCacheInfo, ServiceError> {
    let [segment, entries, capacity, hits, misses, ins, inv, evict] = line_tokens(
        line,
        |value| value.split_whitespace().collect(),
        "cache-info segment line",
        "eight tokens",
    )?;
    Ok(SegmentCacheInfo {
        segment: parse_count(segment, "segment")?,
        entries: parse_count(entries, "entries")?,
        capacity: if capacity == "-" { None } else { Some(parse_count(capacity, "capacity")?) },
        hits: parse_count(hits, "hits")?,
        misses: parse_count(misses, "misses")?,
        insertions: parse_count(ins, "insertions")?,
        invalidated: parse_count(inv, "invalidated")?,
        evictions: parse_count(evict, "evictions")?,
    })
}

/// An `entry` line of a `stats` reply.
fn mapping_info(line: &str) -> Result<MappingInfo, ServiceError> {
    let tokens: Vec<&str> = split_field(line).1.split_whitespace().collect();
    let [name, source, target, version, hash, constraints, history @ ..] = tokens.as_slice() else {
        return Err(ServiceError::protocol(format!(
            "stats entry line `{}` holds fewer than six tokens",
            quote(line)
        )));
    };
    let history = history
        .iter()
        .map(|token| {
            let (v, h) = token.split_once(':').ok_or_else(|| {
                ServiceError::protocol(format!("bad history token `{}`", quote(token)))
            })?;
            Ok((
                v.parse().map_err(|_| {
                    ServiceError::protocol(format!("bad history version `{}`", quote(v)))
                })?,
                parse_u64_hex(h, "history hash")?,
            ))
        })
        .collect::<Result<Vec<(u64, u64)>, ServiceError>>()?;
    Ok(MappingInfo {
        name: unescape(name)?,
        source: unescape(source)?,
        target: unescape(target)?,
        version: version
            .parse()
            .map_err(|_| ServiceError::protocol(format!("bad version `{}`", quote(version))))?,
        hash: parse_u64_hex(hash, "entry hash")?,
        constraints: parse_count(constraints, "entry constraints")?,
        history,
    })
}

/// The `session` value of a `stats` reply: nine counters.
fn session_stats(value: &str) -> Result<SessionStats, ServiceError> {
    let numbers: Vec<usize> = value
        .split_whitespace()
        .map(|token| parse_count(token, "session"))
        .collect::<Result<_, _>>()?;
    let &[calls, paths, chains, entries, hits, misses, ins, inv, evict] = numbers.as_slice() else {
        return Err(ServiceError::protocol("session line does not hold nine counters"));
    };
    Ok(SessionStats {
        compose_calls: calls,
        paths_resolved: paths,
        chains_composed: chains,
        cache_entries: entries,
        cache: CacheStats { hits, misses, insertions: ins, invalidated: inv, evictions: evict },
    })
}

/// The `replication` line of a `stats` reply.
fn replication_info(line: &str) -> Result<ReplicationInfo, ServiceError> {
    let [role, state, generation, seq, lag] = line_tokens(
        line,
        |value| value.split_whitespace().collect(),
        "stats replication line",
        "five tokens",
    )?;
    Ok(ReplicationInfo {
        role: unescape(role)?,
        state: unescape(state)?,
        position: Position::new(
            parse_count(generation, "replication generation")?,
            parse_count(seq, "replication seq")?,
        ),
        lag: parse_count(lag, "replication lag")?,
    })
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

    #[test]
    fn the_field_reader_files_lines_by_declared_key() {
        let keys: Keys = (&["from", "to"], &["update"]);
        let lines = ["update +R(1)", "from s%201", "trace 0a", "update -R(2)"];
        let f = Fields::read("migrate-delta", &lines, ENVELOPE, keys).unwrap();
        assert_eq!(f.text("from").unwrap(), "s 1");
        assert_eq!(f.opt("trace"), Some("0a"));
        assert_eq!(f.opt("to"), None);
        assert_eq!(f.one("to").unwrap_err().message, "frame is missing the `to` field");
        assert_eq!(f.all("update").collect::<Vec<_>>(), ["update +R(1)", "update -R(2)"]);
        assert_eq!(f.texts("update").unwrap(), ["+R(1)", "-R(2)"]);
        assert_eq!(
            f.count::<u64>("from").unwrap_err().message,
            "field `from` has a bad count `s%201`"
        );
        // A duplicated singular line, a duplicated envelope line and an
        // undeclared line are refused while filing.
        for (lines, message) in [
            (["from a", "from b"], "unknown field line `from b` in a `migrate-delta` frame"),
            (["auth a", "auth b"], "frame carries more than one `auth` field"),
            (["from a", "name b"], "unknown field line `name b` in a `migrate-delta` frame"),
        ] {
            let error = Fields::read("migrate-delta", &lines, ENVELOPE, keys).err().unwrap();
            assert_eq!(error.message, message);
        }
        // Without the envelope, its keys are ordinary unknown lines.
        let error = Fields::read("migrated", &["trace 1"], &[], keys).err().unwrap();
        assert_eq!(error.message, "unknown field line `trace 1` in a `migrated` frame");
    }

    #[test]
    fn errors_quote_a_bounded_prefix_of_large_input() {
        // `%` escapes to three bytes in the error frame: the worst case.
        let long = "%".repeat(4096);
        for frame in [
            format!("{PROTOCOL} request ping\nzz {long}\nend\n"),
            format!("{PROTOCOL} request add-document\ntext {long}\nend\n"),
            format!("{PROTOCOL} request compose-batch\nworkers {long}\nend\n"),
            format!("{PROTOCOL} request {long}\nend\n"),
            format!("{long}\nend\n"),
        ] {
            let error = decode_request(&frame).unwrap_err();
            assert!(error.message.contains("%%%%…"), "{error}");
            let reply = encode_reply(&Err(error));
            assert!(reply.len() < 512, "{} bytes: {reply}", reply.len());
        }
        // The cut backs off to a char boundary (`→` is three bytes).
        let arrows = "→".repeat(40);
        assert_eq!(quote(&arrows), format!("{}…", "→".repeat(21)));
        assert_eq!(quote("short"), "short");
    }

    /// One frame per kind and fault class (unknown line, duplicated
    /// singular line, missing field, bad number, bad hash, bad escape,
    /// short multi-token line): `(header, field lines, exact message)`.
    const SINGLE_FAULTS: &[(&str, &str, &str)] = &[
        ("request ping", "zz 1", "unknown field line `zz 1` in a `ping` frame"),
        ("request stats", "zz 1", "unknown field line `zz 1` in a `stats` frame"),
        ("request cache-info", "zz 1", "unknown field line `zz 1` in a `cache-info` frame"),
        ("request metrics", "zz 1", "unknown field line `zz 1` in a `metrics` frame"),
        ("request compact", "zz 1", "unknown field line `zz 1` in a `compact` frame"),
        ("request snapshot", "zz 1", "unknown field line `zz 1` in a `snapshot` frame"),
        ("request shutdown", "zz 1", "unknown field line `zz 1` in a `shutdown` frame"),
        ("request warble", "", "unknown request kind `warble`"),
        ("request ping", "trace 1\ntrace 2", "frame carries more than one `trace` field"),
        ("request ping", "trace zz", "field `trace` has a bad hash `zz`"),
        ("request ping", "auth a\nauth b", "frame carries more than one `auth` field"),
        ("request ping", "auth", "`auth` field is missing its token"),
        ("request ping", "auth %zz", "malformed escape in token `%zz`"),
        ("request subscribe", "generation 1\nseq 2\nzz 1", "unknown field line `zz 1` in a `subscribe` frame"),
        ("request subscribe", "generation 1\ngeneration 2\nseq 2", "unknown field line `generation 2` in a `subscribe` frame"),
        ("request subscribe", "generation 1", "frame is missing the `seq` field"),
        ("request subscribe", "generation x\nseq 2", "field `generation` has a bad count `x`"),
        ("request add-document", "text a\nzz 1", "unknown field line `zz 1` in a `add-document` frame"),
        ("request add-document", "text a\ntext b", "unknown field line `text b` in a `add-document` frame"),
        ("request add-document", "", "frame is missing the `text` field"),
        ("request add-document", "text %zz", "malformed escape in token `%zz`"),
        ("request compose-path", "from a\nto b\nzz 1", "unknown field line `zz 1` in a `compose-path` frame"),
        ("request compose-path", "from a\nfrom b\nto c", "unknown field line `from b` in a `compose-path` frame"),
        ("request compose-path", "from a", "frame is missing the `to` field"),
        ("request compose-path", "from %zz\nto b", "malformed escape in token `%zz`"),
        ("request compose-names", "name a\nzz 1", "unknown field line `zz 1` in a `compose-names` frame"),
        ("request compose-names", "name a\nname %zz", "malformed escape in token `%zz`"),
        ("request compose-batch", "workers 1\nzz 1", "unknown field line `zz 1` in a `compose-batch` frame"),
        ("request compose-batch", "workers 1\nworkers 2", "unknown field line `workers 2` in a `compose-batch` frame"),
        ("request compose-batch", "pair a b", "frame is missing the `workers` field"),
        ("request compose-batch", "workers two", "field `workers` has a bad count `two`"),
        ("request compose-batch", "workers 1\npair a", "batch pair line `pair a` does not hold two tokens"),
        ("request compose-batch", "workers 1\npair a %zz", "malformed escape in token `%zz`"),
        ("request invalidate", "mapping m\nzz 1", "unknown field line `zz 1` in a `invalidate` frame"),
        ("request invalidate", "mapping m\nmapping n", "unknown field line `mapping n` in a `invalidate` frame"),
        ("request invalidate", "", "frame is missing the `mapping` field"),
        ("request invalidate", "mapping %zz", "malformed escape in token `%zz`"),
        ("request migrate-delta", "from a\nto b\nzz 1", "unknown field line `zz 1` in a `migrate-delta` frame"),
        ("request migrate-delta", "from a\nfrom b\nto c", "unknown field line `from b` in a `migrate-delta` frame"),
        ("request migrate-delta", "to b", "frame is missing the `from` field"),
        ("request migrate-delta", "from a\nto b\nupdate %zz", "malformed escape in token `%zz`"),
        ("request analyze", "zz 1", "unknown field line `zz 1` in a `analyze` frame"),
        ("request analyze", "mapping m\nmapping n", "unknown field line `mapping n` in a `analyze` frame"),
        ("request analyze", "mapping %zz", "malformed escape in token `%zz`"),
        ("response warble", "", "unknown response kind `warble`"),
        ("response error", "code busy\nmessage m\nzz 1", "unknown field line `zz 1` in a `error` frame"),
        ("response error", "code busy\ncode busy\nmessage m", "unknown field line `code busy` in a `error` frame"),
        ("response error", "code busy", "frame is missing the `message` field"),
        ("response error", "code sideways\nmessage m", "unknown error code `sideways`"),
        ("response error", "code busy\nmessage %zz", "malformed escape in token `%zz`"),
        ("response pong", "zz 1", "unknown field line `zz 1` in a `pong` frame"),
        ("response shutting-down", "zz 1", "unknown field line `zz 1` in a `shutting-down` frame"),
        ("response added", "schemas 1\nmappings 1\nzz 1", "unknown field line `zz 1` in a `added` frame"),
        ("response added", "schemas 1\nschemas 1\nmappings 1", "unknown field line `schemas 1` in a `added` frame"),
        ("response added", "schemas 1", "frame is missing the `mappings` field"),
        ("response added", "schemas x\nmappings 1", "field `schemas` has a bad count `x`"),
        ("response added", "touched %zz\nschemas 1\nmappings 1", "malformed escape in token `%zz`"),
        ("response composed", "source a\ntarget b\npath p\ndeps d\nhash 00000000000000ff\ncalls 1\nhits 0\nplan 1\ndocument %e\nzz 1", "unknown field line `zz 1` in a `composed` frame"),
        ("response composed", "source a\nsource a\ntarget b\npath p\ndeps d\nhash 00000000000000ff\ncalls 1\nhits 0\nplan 1\ndocument %e", "unknown field line `source a` in a `composed` frame"),
        ("response composed", "source a\ntarget b\npath p\ndeps d\nhash 00000000000000ff\ncalls 1\nhits 0\nplan 1", "frame is missing the `document` field"),
        ("response composed", "source a\ntarget b\npath p\ndeps d\nhash zz\ncalls 1\nhits 0\nplan 1\ndocument %e", "field `hash` has a bad hash `zz`"),
        ("response composed", "source a\ntarget b\npath p\ndeps d\nhash 00000000000000ff\ncalls x\nhits 0\nplan 1\ndocument %e", "field `calls` has a bad count `x`"),
        ("response composed", "source a\ntarget b\npath p\ndeps d\nhash 00000000000000ff\ncalls 1\nhits 0\nplan 1 x\ndocument %e", "field `plan` has a bad count `x`"),
        ("response composed", "source a\ntarget b\npath p %zz\ndeps d\nhash 00000000000000ff\ncalls 1\nhits 0\nplan 1\ndocument %e", "malformed escape in token `%zz`"),
        ("response batch", "count 0\nzz 1", "unknown field line `zz 1` in a `batch` frame"),
        ("response batch", "count 0\ncount 0", "unknown field line `count 0` in a `batch` frame"),
        ("response batch", "", "frame is missing the `count` field"),
        ("response batch", "count x", "field `count` has a bad count `x`"),
        ("response batch", "count 1\nitem %zz", "malformed escape in token `%zz`"),
        ("response batch", "count 1\nitem mapcomp-service%201%20response%20pong%0Aend%0A", "batch item holds a `pong` frame"),
        ("response batch", "count 2", "batch frame declares 2 items but carries 0"),
        ("response invalidated", "dropped 1\nzz 1", "unknown field line `zz 1` in a `invalidated` frame"),
        ("response invalidated", "dropped 1\ndropped 1", "unknown field line `dropped 1` in a `invalidated` frame"),
        ("response invalidated", "", "frame is missing the `dropped` field"),
        ("response invalidated", "dropped x", "field `dropped` has a bad count `x`"),
        ("response migrated", "from a\nto b\nbatch 1 1 0 0 0\nstate incremental 1 1 1\ntarget %e\nzz 1", "unknown field line `zz 1` in a `migrated` frame"),
        ("response migrated", "from a\nfrom a\nto b\nbatch 1 1 0 0 0\nstate incremental 1 1 1\ntarget %e", "unknown field line `from a` in a `migrated` frame"),
        ("response migrated", "from a\nto b\nbatch 1 1 0 0 0\nstate incremental 1 1 1", "frame is missing the `target` field"),
        ("response migrated", "from a\nto b\nbatch 1 1 0 0\nstate incremental 1 1 1\ntarget %e", "batch line `batch 1 1 0 0` does not hold five counters"),
        ("response migrated", "from a\nto b\nbatch 1 x 0 0 0\nstate incremental 1 1 1\ntarget %e", "field `inserted` has a bad count `x`"),
        ("response migrated", "from a\nto b\nbatch 1 1 0 0 0\nstate incremental 1 1\ntarget %e", "state line `state incremental 1 1` does not hold four fields"),
        ("response migrated", "from a\nto b\nbatch 1 1 0 0 0\nstate sideways 1 1 1\ntarget %e", "unknown migrate mode `sideways`"),
        ("response migrated", "from a\nto b\nbatch 1 1 0 0 0\nstate incremental 1 1 1\ntarget %zz", "malformed escape in token `%zz`"),
        ("response metrics", "text t\nzz 1", "unknown field line `zz 1` in a `metrics` frame"),
        ("response metrics", "text t\ntext t", "unknown field line `text t` in a `metrics` frame"),
        ("response metrics", "", "frame is missing the `text` field"),
        ("response metrics", "text %zz", "malformed escape in token `%zz`"),
        ("response analysis", "proven 1\nunknown 0\ndiagnostics 0\ntext t\nzz 1", "unknown field line `zz 1` in a `analysis` frame"),
        ("response analysis", "proven 1\nproven 1\nunknown 0\ndiagnostics 0\ntext t", "unknown field line `proven 1` in a `analysis` frame"),
        ("response analysis", "proven 1\nunknown 0\ndiagnostics 0", "frame is missing the `text` field"),
        ("response analysis", "proven 1\nunknown x\ndiagnostics 0\ntext t", "field `unknown` has a bad count `x`"),
        ("response analysis", "proven 1\nunknown 0\ndiagnostics 0\ntext %zz", "malformed escape in token `%zz`"),
        ("response compacted", "before 1\nafter 1\nzz 1", "unknown field line `zz 1` in a `compacted` frame"),
        ("response compacted", "before 1\nbefore 1\nafter 1", "unknown field line `before 1` in a `compacted` frame"),
        ("response compacted", "before 1", "frame is missing the `after` field"),
        ("response compacted", "before 1\nafter x", "field `after` has a bad count `x`"),
        ("response cache-info", "segments 0\nzz 1", "unknown field line `zz 1` in a `cache-info` frame"),
        ("response cache-info", "segments 0\nsegments 0", "unknown field line `segments 0` in a `cache-info` frame"),
        ("response cache-info", "", "frame is missing the `segments` field"),
        ("response cache-info", "segments x", "field `segments` has a bad count `x`"),
        ("response cache-info", "segments 1\nsegment 0 0 - 0 0 0 0", "cache-info segment line `segment 0 0 - 0 0 0 0` does not hold eight tokens"),
        ("response cache-info", "segments 1\nsegment 0 0 x 0 0 0 0 0", "field `capacity` has a bad count `x`"),
        ("response cache-info", "segments 2\nsegment 0 0 - 0 0 0 0 0", "cache-info frame declares 2 segments but carries 1"),
        ("response stats", "schemas 1\nmappings 1\ncapacity unbounded\nsession 0 0 0 0 0 0 0 0 0\nzz 1", "unknown field line `zz 1` in a `stats` frame"),
        ("response stats", "schemas 1\nschemas 1\nmappings 1\ncapacity unbounded\nsession 0 0 0 0 0 0 0 0 0", "unknown field line `schemas 1` in a `stats` frame"),
        ("response stats", "schemas 1\nmappings 1\ncapacity unbounded", "frame is missing the `session` field"),
        ("response stats", "schemas 1\nmappings 1\nsession 0 0 0 0 0 0 0 0 0", "frame is missing the `capacity` field"),
        ("response stats", "schemas 1\nmappings 1\ncapacity x\nsession 0 0 0 0 0 0 0 0 0", "field `capacity` has a bad count `x`"),
        ("response stats", "schemas 1\nmappings 1\ncapacity unbounded\nsession 0 0 0 0 0 0 0 0", "session line does not hold nine counters"),
        ("response stats", "schemas 1\nmappings 1\ncapacity unbounded\nsession 0 0 0 0 0 0 0 0 x", "field `session` has a bad count `x`"),
        ("response stats", "schemas 1\nmappings 1\ncapacity unbounded\nsession 0 0 0 0 0 0 0 0 0\nentry m s t 1 00000000000000ff", "stats entry line `entry m s t 1 00000000000000ff` holds fewer than six tokens"),
        ("response stats", "schemas 1\nmappings 1\ncapacity unbounded\nsession 0 0 0 0 0 0 0 0 0\nentry m s t 1 zz 2", "field `entry hash` has a bad hash `zz`"),
        ("response stats", "schemas 1\nmappings 1\ncapacity unbounded\nsession 0 0 0 0 0 0 0 0 0\nentry m s t x 00000000000000ff 2", "bad version `x`"),
        ("response stats", "schemas 1\nmappings 1\ncapacity unbounded\nsession 0 0 0 0 0 0 0 0 0\nentry m s t 1 00000000000000ff x", "field `entry constraints` has a bad count `x`"),
        ("response stats", "schemas 1\nmappings 1\ncapacity unbounded\nsession 0 0 0 0 0 0 0 0 0\nentry m s t 1 00000000000000ff 2 1", "bad history token `1`"),
        ("response stats", "schemas 1\nmappings 1\ncapacity unbounded\nsession 0 0 0 0 0 0 0 0 0\nentry m s t 1 00000000000000ff 2 x:00000000000000ff", "bad history version `x`"),
        ("response stats", "schemas 1\nmappings 1\ncapacity unbounded\nsession 0 0 0 0 0 0 0 0 0\nentry m s t 1 00000000000000ff 2 1:zz", "field `history hash` has a bad hash `zz`"),
        ("response stats", "schemas 1\nmappings 1\ncapacity unbounded\nsession 0 0 0 0 0 0 0 0 0\nentry %zz s t 1 00000000000000ff 2", "malformed escape in token `%zz`"),
        ("response stats", "schemas 1\nmappings 1\ncapacity unbounded\nsession 0 0 0 0 0 0 0 0 0\nreplication leader live 1 2", "stats replication line `replication leader live 1 2` does not hold five tokens"),
        ("response stats", "schemas 1\nmappings 1\ncapacity unbounded\nsession 0 0 0 0 0 0 0 0 0\nreplication leader live 1 2 3\nreplication leader live 1 2 3", "unknown field line `replication leader live 1 2 3` in a `stats` frame"),
        ("response stats", "schemas 1\nmappings 1\ncapacity unbounded\nsession 0 0 0 0 0 0 0 0 0\nreplication leader live 1 2 x", "field `replication lag` has a bad count `x`"),
        ("response subscribed", "position 1 2\nzz 1", "unknown field line `zz 1` in a `subscribed` frame"),
        ("response subscribed", "position 1 2\nposition 1 2", "unknown field line `position 1 2` in a `subscribed` frame"),
        ("response subscribed", "", "frame is missing the `position` field"),
        ("response subscribed", "position 1", "field `position` does not hold a `<generation> <seq>` position"),
        ("response subscribed", "position 1 x", "field `position` has a bad count `x`"),
        ("response delta-chunk", "first 1 2\nlast 1 3\nchunk c\nzz 1", "unknown field line `zz 1` in a `delta-chunk` frame"),
        ("response delta-chunk", "first 1 2\nfirst 1 2\nlast 1 3\nchunk c", "unknown field line `first 1 2` in a `delta-chunk` frame"),
        ("response delta-chunk", "first 1 2\nlast 1 3", "frame is missing the `chunk` field"),
        ("response delta-chunk", "first 1 2\nlast 1\nchunk c", "field `last` does not hold a `<generation> <seq>` position"),
        ("response delta-chunk", "first 1 2\nlast 1 3\nchunk %zz", "malformed escape in token `%zz`"),
        ("response generation", "generation 1\nzz 1", "unknown field line `zz 1` in a `generation` frame"),
        ("response generation", "generation 1\ngeneration 1", "unknown field line `generation 1` in a `generation` frame"),
        ("response generation", "", "frame is missing the `generation` field"),
        ("response generation", "generation x", "field `generation` has a bad count `x`"),
        ("response snapshot", "position 1 2\ndocument d\nsidecar s\nzz 1", "unknown field line `zz 1` in a `snapshot` frame"),
        ("response snapshot", "position 1 2\nposition 1 2\ndocument d\nsidecar s", "unknown field line `position 1 2` in a `snapshot` frame"),
        ("response snapshot", "position 1 2\ndocument d", "frame is missing the `sidecar` field"),
        ("response snapshot", "position 1 2\ndocument %zz\nsidecar s", "malformed escape in token `%zz`"),
        ("response error", "code busy\nmessage m\nmessage n", "unknown field line `message n` in a `error` frame"),
    ];

    #[test]
    fn single_fault_frames_fail_with_their_exact_messages() {
        for &(head, body, expected) in SINGLE_FAULTS {
            let fields = if body.is_empty() { String::new() } else { format!("{body}\n") };
            let frame = format!("{PROTOCOL} {head}\n{fields}{FRAME_END}\n");
            let error = if head.starts_with("request ") {
                decode_request_frame(&frame).map(drop).unwrap_err()
            } else {
                decode_reply(&frame).map(drop).unwrap_err()
            };
            assert_eq!(error.code, ErrorCode::Protocol, "{frame}");
            assert_eq!(error.message, expected, "{frame}");
        }
    }
}
