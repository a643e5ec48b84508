//! Persisted bench trajectories: the `BENCH_<figure>.json` files at the
//! repository root.
//!
//! Every `figures` run emits one machine-readable JSON document per figure
//! — the scale tier it ran at, a hash of the experiment configuration, and
//! the data points behind the printed table. The files are committed, so
//! the repository carries its own perf trajectory; `figures --check
//! BENCH_<fig>.json` re-runs the figure at the file's recorded scale and
//! diffs the fresh points against the committed ones.
//!
//! Comparison rules: every experiment here is seeded, so non-timing values
//! (counts, fractions, bytes) must reproduce **exactly**; timing-like
//! fields are inherently machine-dependent, so they are checked for
//! *presence* only. A field is timing-like iff [`is_volatile`] says so —
//! by suffix convention (`_ms`, `_us`, `_s`, `_pct`, `_per_s`) or a
//! `time`/`seconds` substring — which is why every volatile field in the
//! emitted documents is named with one of those suffixes.
//!
//! The writer and parser are hand-rolled (this workspace is offline, no
//! serde); the grammar is the JSON subset the writer produces: one object
//! with string/number fields plus a `points` array of flat objects.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Duration;

use crate::Scale;

/// A scalar field value in a bench document.
#[derive(Debug, Clone, PartialEq)]
pub enum BenchValue {
    /// An unsigned integer (counts, bytes, sizes).
    U64(u64),
    /// A float (fractions, milliseconds).
    F64(f64),
    /// A string (labels, configuration names).
    Str(String),
    /// A boolean (consistency flags).
    Bool(bool),
}

impl BenchValue {
    fn render(&self, out: &mut String) {
        match self {
            BenchValue::U64(n) => {
                let _ = write!(out, "{n}");
            }
            BenchValue::F64(f) => {
                // `{}` on f64 is shortest-round-trip, and a plain integer
                // rendering would re-parse as U64; keep the type explicit.
                if f.fract() == 0.0 && f.is_finite() {
                    let _ = write!(out, "{f:.1}");
                } else {
                    let _ = write!(out, "{f}");
                }
            }
            BenchValue::Str(s) => {
                let _ = write!(out, "\"{}\"", json_escape(s));
            }
            BenchValue::Bool(b) => {
                let _ = write!(out, "{b}");
            }
        }
    }

    /// Do two values agree, for the stable-field comparison? Numbers are
    /// compared numerically across the U64/F64 divide (a `2.0` written by
    /// one run and a `2` by another are the same measurement).
    pub fn agrees_with(&self, other: &BenchValue) -> bool {
        match (self, other) {
            (BenchValue::U64(a), BenchValue::U64(b)) => a == b,
            (BenchValue::F64(a), BenchValue::F64(b)) => {
                a == b || (a - b).abs() <= 1e-9 * a.abs().max(b.abs())
            }
            (BenchValue::U64(a), BenchValue::F64(b)) | (BenchValue::F64(b), BenchValue::U64(a)) => {
                *b == *a as f64
            }
            (BenchValue::Str(a), BenchValue::Str(b)) => a == b,
            (BenchValue::Bool(a), BenchValue::Bool(b)) => a == b,
            _ => false,
        }
    }

    /// The value as a table cell: integers and strings as they are, floats
    /// to four significant digits, booleans as `yes`/`NO`.
    fn cell(&self) -> String {
        match self {
            BenchValue::U64(n) => n.to_string(),
            BenchValue::F64(f) => {
                let magnitude =
                    if *f == 0.0 || !f.is_finite() { 0 } else { f.abs().log10().floor() as i32 };
                let decimals = (3 - magnitude).clamp(0, 9) as usize;
                format!("{f:.decimals$}")
            }
            BenchValue::Str(s) => s.clone(),
            BenchValue::Bool(b) => if *b { "yes" } else { "NO" }.to_string(),
        }
    }

    /// A duration in milliseconds.
    pub fn millis(duration: Duration) -> Self {
        BenchValue::F64(duration.as_secs_f64() * 1000.0)
    }
}

impl From<usize> for BenchValue {
    fn from(n: usize) -> Self {
        BenchValue::U64(n as u64)
    }
}

impl From<u64> for BenchValue {
    fn from(n: u64) -> Self {
        BenchValue::U64(n)
    }
}

impl From<f64> for BenchValue {
    fn from(f: f64) -> Self {
        BenchValue::F64(f)
    }
}

impl From<bool> for BenchValue {
    fn from(b: bool) -> Self {
        BenchValue::Bool(b)
    }
}

impl From<&str> for BenchValue {
    fn from(s: &str) -> Self {
        BenchValue::Str(s.to_string())
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Is `key` a timing-like field, exempt from exact comparison? Suffix
/// convention: `_ms`/`_us`/`_s` (durations), `_per_s` (rates), `_pct`
/// (derived percentages), or a `time`/`seconds` substring.
pub fn is_volatile(key: &str) -> bool {
    key.ends_with("_ms")
        || key.ends_with("_us")
        || key.ends_with("_s")
        || key.ends_with("_pct")
        || key.ends_with("_per_s")
        || key.contains("time")
        || key.contains("seconds")
}

/// One figure's persisted trajectory: identity, scale tier, configuration
/// hash, and the data points behind the printed table.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchDoc {
    /// The figure keyword (`fig2` … `fig12`, `corpus`).
    pub figure: String,
    /// The scale tier the points were produced at (`smoke`/`quick`/`paper`).
    pub scale: String,
    /// FNV-1a hash of the figure name, scale, and every point's field
    /// names — a cheap fingerprint that flags "the experiment's shape
    /// changed" separately from "the numbers moved".
    pub config_hash: u64,
    /// The data points, each an ordered list of `(field, value)` pairs.
    pub points: Vec<Vec<(String, BenchValue)>>,
    /// Invariant violations the figure found on its own results beyond the
    /// generic ones (say, a fig14 batch that fell back to a full re-chase,
    /// which no field records). Reported by
    /// [`invariant_failures`](Self::invariant_failures); never written.
    pub violations: Vec<String>,
}

/// The scale keyword used inside bench documents.
pub fn scale_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Smoke => "smoke",
        Scale::Quick => "quick",
        Scale::Paper => "paper",
    }
}

/// Parse a bench document's scale keyword back to a [`Scale`].
pub fn parse_scale(name: &str) -> Option<Scale> {
    match name {
        "smoke" => Some(Scale::Smoke),
        "quick" => Some(Scale::Quick),
        "paper" => Some(Scale::Paper),
        _ => None,
    }
}

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &byte in bytes {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

impl BenchDoc {
    /// An empty document for `figure` at `scale`; push points, then render.
    pub fn new(figure: &str, scale: Scale) -> Self {
        BenchDoc {
            figure: figure.to_string(),
            scale: scale_name(scale).to_string(),
            config_hash: 0,
            points: Vec::new(),
            violations: Vec::new(),
        }
    }

    /// Append one data point.
    pub fn push_point(&mut self, fields: Vec<(&str, BenchValue)>) {
        self.points.push(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect());
    }

    /// Append points and print them as one table under `title` (see
    /// [`table`]): a figure's table is its record.
    pub fn push_table<'a>(
        &mut self,
        title: &str,
        points: impl IntoIterator<Item = Vec<(&'a str, BenchValue)>>,
    ) {
        let start = self.points.len();
        for point in points {
            self.push_point(point);
        }
        println!("\n{title}\n{}", table(&self.points[start..]));
    }

    /// The invariants a fresh record must hold, as one line per violation:
    /// every `failures` field is 0, every boolean field is true, and the
    /// figure found no [`violations`](Self::violations) of its own.
    pub fn invariant_failures(&self) -> Vec<String> {
        let mut failures = Vec::new();
        for (index, point) in self.points.iter().enumerate() {
            for (key, value) in point {
                match value {
                    BenchValue::Bool(false) => {
                        failures.push(format!("point {index}: `{key}` is false"));
                    }
                    BenchValue::U64(n @ 1..) if key == "failures" => {
                        failures.push(format!("point {index}: {n} failures"));
                    }
                    _ => {}
                }
            }
        }
        failures.extend(self.violations.iter().cloned());
        failures
    }

    /// The configuration fingerprint of this document's current contents.
    fn fingerprint(&self) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        fnv1a(&mut hash, self.figure.as_bytes());
        fnv1a(&mut hash, self.scale.as_bytes());
        for point in &self.points {
            for (key, _) in point {
                fnv1a(&mut hash, key.as_bytes());
            }
        }
        hash
    }

    /// Render as pretty-printed JSON (with `config_hash` recomputed), ready
    /// to be written to `BENCH_<figure>.json`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"figure\": \"{}\",", json_escape(&self.figure));
        let _ = writeln!(out, "  \"scale\": \"{}\",", json_escape(&self.scale));
        let _ = writeln!(out, "  \"config_hash\": \"{:016x}\",", self.fingerprint());
        out.push_str("  \"points\": [\n");
        for (index, point) in self.points.iter().enumerate() {
            out.push_str("    {");
            for (field_index, (key, value)) in point.iter().enumerate() {
                if field_index > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "\"{}\": ", json_escape(key));
                value.render(&mut out);
            }
            out.push('}');
            out.push_str(if index + 1 < self.points.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Write this document as `BENCH_<figure>.json` under `dir`, returning
    /// the path written.
    pub fn write_to(&self, dir: &Path) -> std::io::Result<PathBuf> {
        let path = dir.join(format!("BENCH_{}.json", self.figure));
        std::fs::write(&path, self.render())?;
        Ok(path)
    }

    /// Parse a document previously produced by [`BenchDoc::render`].
    pub fn parse(text: &str) -> Result<BenchDoc, String> {
        let mut parser = Parser { bytes: text.as_bytes(), pos: 0 };
        let doc = parser.document()?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(format!("trailing content at byte {}", parser.pos));
        }
        Ok(doc)
    }

    /// Diff `fresh` (a re-run) against `self` (the committed baseline).
    /// Returns human-readable mismatch lines; empty = the trajectory holds.
    /// Stable fields must agree exactly, [`is_volatile`] fields need only
    /// exist on both sides with the same name.
    pub fn diff(&self, fresh: &BenchDoc) -> Vec<String> {
        let mut problems = Vec::new();
        if self.figure != fresh.figure {
            problems.push(format!("figure: `{}` vs fresh `{}`", self.figure, fresh.figure));
        }
        if self.scale != fresh.scale {
            problems.push(format!("scale: `{}` vs fresh `{}`", self.scale, fresh.scale));
        }
        // An in-memory document (never rendered) has no recorded hash yet;
        // fall back to its live fingerprint.
        let recorded = if self.config_hash == 0 { self.fingerprint() } else { self.config_hash };
        if recorded != fresh.fingerprint() {
            problems.push(format!(
                "config_hash: recorded {:016x}, fresh run fingerprints {:016x} (experiment shape changed)",
                recorded,
                fresh.fingerprint()
            ));
        }
        if self.points.len() != fresh.points.len() {
            problems.push(format!(
                "point count: recorded {}, fresh {}",
                self.points.len(),
                fresh.points.len()
            ));
            return problems;
        }
        for (index, (old, new)) in self.points.iter().zip(&fresh.points).enumerate() {
            let old_keys: Vec<&str> = old.iter().map(|(k, _)| k.as_str()).collect();
            let new_keys: Vec<&str> = new.iter().map(|(k, _)| k.as_str()).collect();
            if old_keys != new_keys {
                problems.push(format!("point {index}: fields {old_keys:?} vs fresh {new_keys:?}"));
                continue;
            }
            for ((key, old_value), (_, new_value)) in old.iter().zip(new) {
                if is_volatile(key) {
                    continue;
                }
                if !old_value.agrees_with(new_value) {
                    problems.push(format!(
                        "point {index}: `{key}` recorded {old_value:?}, fresh {new_value:?}"
                    ));
                }
            }
        }
        problems
    }
}

/// Render points as a text table, one row per point. The columns are the
/// field names in the points' own order; a field a point lacks reads `-`.
pub fn table(points: &[Vec<(String, BenchValue)>]) -> String {
    let mut columns: Vec<&str> = Vec::new();
    for point in points {
        for (index, (key, _)) in point.iter().enumerate() {
            if columns.contains(&key.as_str()) {
                continue;
            }
            // A new field goes just before the next of this point's fields
            // the table already has.
            let at = point[index + 1..]
                .iter()
                .find_map(|(next, _)| columns.iter().position(|column| column == next))
                .unwrap_or(columns.len());
            columns.insert(at, key);
        }
    }
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|point| {
            columns
                .iter()
                .map(|column| {
                    point
                        .iter()
                        .find(|(key, _)| key == column)
                        .map_or_else(|| "-".to_string(), |(_, value)| value.cell())
                })
                .collect()
        })
        .collect();
    let header: Vec<String> = columns.iter().map(ToString::to_string).collect();
    let widths: Vec<usize> = (0..columns.len())
        .map(|index| rows.iter().map(|row| row[index].len()).fold(header[index].len(), usize::max))
        .collect();
    let mut out = format_row(&header, &widths);
    for row in &rows {
        out.push('\n');
        out.push_str(&format_row(row, &widths));
    }
    out
}

/// A row of right-aligned cells of the given widths.
pub fn format_row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(cell, width)| format!("{cell:>width$}"))
        .collect::<Vec<_>>()
        .join("  ")
}

/// Minimal recursive-descent parser over the subset of JSON the renderer
/// emits (one top-level object, flat point objects, scalar values).
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", byte as char, self.pos))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let byte =
                *self.bytes.get(self.pos).ok_or_else(|| "unterminated string".to_string())?;
            self.pos += 1;
            match byte {
                b'"' => return Ok(out),
                b'\\' => {
                    let escape = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| "bad \\u escape".to_string())?;
                            self.pos += 4;
                            out.push(char::from_u32(hex).ok_or("bad \\u scalar")?);
                        }
                        other => return Err(format!("bad escape `\\{}`", other as char)),
                    }
                }
                // The renderer only writes UTF-8; multi-byte sequences pass
                // through byte-wise.
                other => {
                    let start = self.pos - 1;
                    let len = match other {
                        b if b < 0x80 => 1,
                        b if b >= 0xf0 => 4,
                        b if b >= 0xe0 => 3,
                        _ => 2,
                    };
                    let chunk = self
                        .bytes
                        .get(start..start + len)
                        .and_then(|c| std::str::from_utf8(c).ok())
                        .ok_or_else(|| "bad UTF-8 in string".to_string())?;
                    out.push_str(chunk);
                    self.pos = start + len;
                }
            }
        }
    }

    fn value(&mut self) -> Result<BenchValue, String> {
        match self.peek().ok_or("unexpected end of input")? {
            b'"' => Ok(BenchValue::Str(self.string()?)),
            b't' | b'f' => {
                let rest = &self.bytes[self.pos..];
                if rest.starts_with(b"true") {
                    self.pos += 4;
                    Ok(BenchValue::Bool(true))
                } else if rest.starts_with(b"false") {
                    self.pos += 5;
                    Ok(BenchValue::Bool(false))
                } else {
                    Err(format!("bad literal at byte {}", self.pos))
                }
            }
            _ => {
                let start = self.pos;
                while self.bytes.get(self.pos).is_some_and(|b| {
                    b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E')
                }) {
                    self.pos += 1;
                }
                let text = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| "bad number".to_string())?;
                if text.contains(['.', 'e', 'E']) {
                    text.parse().map(BenchValue::F64).map_err(|_| format!("bad float `{text}`"))
                } else {
                    text.parse().map(BenchValue::U64).map_err(|_| format!("bad integer `{text}`"))
                }
            }
        }
    }

    fn point(&mut self) -> Result<Vec<(String, BenchValue)>, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(fields);
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            fields.push((key, self.value()?));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(fields);
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn document(&mut self) -> Result<BenchDoc, String> {
        self.expect(b'{')?;
        let mut figure = None;
        let mut scale = None;
        let mut config_hash = None;
        let mut points = None;
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            match key.as_str() {
                "figure" => figure = Some(self.string()?),
                "scale" => scale = Some(self.string()?),
                "config_hash" => {
                    let hex = self.string()?;
                    config_hash = Some(
                        u64::from_str_radix(&hex, 16)
                            .map_err(|_| format!("bad config_hash `{hex}`"))?,
                    );
                }
                "points" => {
                    self.expect(b'[')?;
                    let mut parsed = Vec::new();
                    if self.peek() == Some(b']') {
                        self.pos += 1;
                    } else {
                        loop {
                            parsed.push(self.point()?);
                            match self.peek() {
                                Some(b',') => self.pos += 1,
                                Some(b']') => {
                                    self.pos += 1;
                                    break;
                                }
                                _ => {
                                    return Err(format!("expected `,` or `]` at byte {}", self.pos))
                                }
                            }
                        }
                    }
                    points = Some(parsed);
                }
                other => return Err(format!("unknown document field `{other}`")),
            }
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    break;
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
        Ok(BenchDoc {
            figure: figure.ok_or("missing `figure`")?,
            scale: scale.ok_or("missing `scale`")?,
            config_hash: config_hash.ok_or("missing `config_hash`")?,
            points: points.ok_or("missing `points`")?,
            violations: Vec::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchDoc {
        let mut doc = BenchDoc::new("fig99", Scale::Smoke);
        doc.push_point(vec![
            ("workers", BenchValue::U64(1)),
            ("fraction", BenchValue::F64(0.25)),
            ("label", BenchValue::Str("no \"keys\"".into())),
            ("elapsed_ms", BenchValue::F64(12.5)),
            ("ok", BenchValue::Bool(true)),
        ]);
        doc.push_point(vec![
            ("workers", BenchValue::U64(2)),
            ("fraction", BenchValue::F64(0.5)),
            ("label", BenchValue::Str("keys".into())),
            ("elapsed_ms", BenchValue::F64(7.0)),
            ("ok", BenchValue::Bool(false)),
        ]);
        doc
    }

    #[test]
    fn documents_round_trip_through_render_and_parse() {
        let doc = sample();
        let text = doc.render();
        let parsed = BenchDoc::parse(&text).unwrap();
        assert_eq!(parsed.figure, "fig99");
        assert_eq!(parsed.scale, "smoke");
        assert_eq!(parsed.config_hash, doc.fingerprint());
        assert_eq!(parsed.points, doc.points);
        // Rendering the parsed document reproduces the text byte for byte.
        assert_eq!(parsed.render(), text);
    }

    #[test]
    fn volatile_fields_are_presence_only_and_stable_fields_exact() {
        let baseline = sample();
        let mut fresh = sample();
        // A timing wobble is fine…
        fresh.points[0][3].1 = BenchValue::F64(99.9);
        assert!(baseline.diff(&fresh).is_empty(), "{:?}", baseline.diff(&fresh));
        // …a stable-value drift is not…
        fresh.points[1][1].1 = BenchValue::F64(0.75);
        let problems = baseline.diff(&fresh);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("fraction"), "{problems:?}");
        // …and a renamed field changes the configuration fingerprint too.
        fresh.points[1][1].0 = "ratio".into();
        let problems = baseline.diff(&fresh);
        assert!(problems.iter().any(|p| p.contains("config_hash")), "{problems:?}");
        assert!(problems.iter().any(|p| p.contains("fields")), "{problems:?}");
    }

    #[test]
    fn volatility_follows_the_naming_convention() {
        for key in [
            "elapsed_ms",
            "duration_us",
            "wall_s",
            "overhead_pct",
            "req_per_s",
            "mean_time",
            "run_seconds",
        ] {
            assert!(is_volatile(key), "{key} should be volatile");
        }
        for key in ["mappings", "workers", "fraction", "bytes", "rounds", "mss"] {
            assert!(!is_volatile(key), "{key} should be stable");
        }
    }

    #[test]
    fn number_comparison_crosses_the_int_float_divide() {
        assert!(BenchValue::U64(2).agrees_with(&BenchValue::F64(2.0)));
        assert!(!BenchValue::U64(2).agrees_with(&BenchValue::F64(2.5)));
        assert!(!BenchValue::Bool(true).agrees_with(&BenchValue::U64(1)));
    }

    #[test]
    fn the_table_prints_every_field_of_every_point() {
        let mut doc = sample();
        doc.push_point(vec![("workers", BenchValue::U64(3)), ("extra", BenchValue::U64(77))]);
        let text = table(&doc.points);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1 + doc.points.len(), "{text}");
        let header: Vec<&str> = lines[0].split_whitespace().collect();
        assert_eq!(header, ["workers", "fraction", "label", "elapsed_ms", "ok", "extra"]);
        for (point, line) in doc.points.iter().zip(&lines[1..]) {
            for (_, value) in point {
                assert!(line.contains(&value.cell()), "{line} lacks {value:?}");
            }
        }
        // A field a point lacks reads `-`; booleans read yes/NO.
        assert!(lines[3].trim_end().ends_with("77") && lines[3].contains(" - "), "{text}");
        assert!(lines[1].contains("yes") && lines[2].contains("NO"), "{text}");
    }

    #[test]
    fn floats_print_with_four_significant_digits() {
        for (value, cell) in
            [(0.000064608, "0.00006461"), (0.1, "0.1000"), (0.9333, "0.9333"), (12.5, "12.50")]
        {
            assert_eq!(BenchValue::F64(value).cell(), cell);
        }
        assert_eq!(BenchValue::F64(42403.37).cell(), "42403");
    }

    #[test]
    fn invariants_require_zero_failures_and_true_flags() {
        let mut doc = sample();
        assert_eq!(doc.invariant_failures(), ["point 1: `ok` is false"]);
        doc.points[1][4].1 = BenchValue::Bool(true);
        doc.push_point(vec![("failures", BenchValue::U64(0))]);
        assert!(doc.invariant_failures().is_empty());
        doc.push_point(vec![("failures", BenchValue::U64(2))]);
        assert_eq!(doc.invariant_failures(), ["point 3: 2 failures"]);
        doc.violations.push("the figure's own check".into());
        assert_eq!(doc.invariant_failures(), ["point 3: 2 failures", "the figure's own check"]);
    }

    #[test]
    fn format_row_aligns() {
        let row = format_row(&["a".into(), "bb".into()], &[3, 4]);
        assert_eq!(row, "  a    bb");
    }

    #[test]
    fn scale_names_round_trip() {
        for scale in [Scale::Smoke, Scale::Quick, Scale::Paper] {
            assert_eq!(parse_scale(scale_name(scale)), Some(scale));
        }
        assert_eq!(parse_scale("warp"), None);
    }
}
