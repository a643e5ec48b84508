//! The field codec: percent-escaping of arbitrary strings into single
//! whitespace-free tokens.
//!
//! One implementation serves every text format that tokenises on
//! whitespace: the sidecar's delta records, the service wire's field
//! values, and the differential engine's reply text, which is kept in this
//! escaped form so a `migrate-delta` reply copies it instead of escaping
//! it anew.
//!
//! `%` and every whitespace or control character (Unicode classes
//! included) become `%XX` byte escapes of their UTF-8 encoding; the empty
//! string becomes the marker `%e`, which no non-empty escape produces,
//! since a literal `%` escapes to `%25`. Both directions look for the next
//! byte that needs attention eight bytes at a time (one `u64` per step),
//! so a run of plain text costs a few word operations per eight bytes.

/// Escape `text` into one whitespace-free token (see the module docs).
pub fn escape_field(text: &str) -> String {
    let mut out = String::new();
    escape_field_into(&mut out, text);
    out
}

/// [`escape_field`], appended to `out`. Runs that need no escaping are
/// copied whole and escapes are spelled through a table; only a non-ASCII
/// byte decodes its character, to test the Unicode whitespace and control
/// classes.
pub fn escape_field_into(out: &mut String, text: &str) {
    if text.is_empty() {
        out.push_str("%e");
        return;
    }
    out.reserve(text.len());
    let bytes = text.as_bytes();
    // `run` starts the verbatim bytes not yet copied; `index` is where the
    // scan for the next byte that may need escaping resumes.
    let mut run = 0;
    let mut index = 0;
    while let Some(at) = find(bytes, index, may_escape_lanes, |byte| MAY_ESCAPE[usize::from(byte)])
    {
        let width = if bytes[at].is_ascii() {
            1
        } else {
            let ch = text[at..].chars().next().expect("the scan stops only on char boundaries");
            if !ch.is_whitespace() && !ch.is_control() {
                index = at + ch.len_utf8();
                continue;
            }
            ch.len_utf8()
        };
        out.push_str(&text[run..at]);
        for &byte in &bytes[at..at + width] {
            let byte = usize::from(byte);
            out.push_str(&BYTE_ESCAPES[3 * byte..3 * byte + 3]);
        }
        index = at + width;
        run = index;
    }
    out.push_str(&text[run..]);
}

/// Undo [`escape_field`]: `%` must be followed by exactly two hex digits
/// (either case). Returns `None` on truncated or non-hex escapes and on
/// escapes that decode to invalid UTF-8.
pub fn unescape_field(token: &str) -> Option<String> {
    if token == "%e" {
        return Some(String::new());
    }
    let bytes = token.as_bytes();
    let mut out: Vec<u8> = Vec::with_capacity(bytes.len());
    let mut run = 0;
    while let Some(at) = find(bytes, run, percent_lanes, |byte| byte == b'%') {
        out.extend_from_slice(&bytes[run..at]);
        let high = HEX_VALUES[usize::from(*bytes.get(at + 1)?)];
        let low = HEX_VALUES[usize::from(*bytes.get(at + 2)?)];
        if high > 0xF || low > 0xF {
            return None;
        }
        out.push(high << 4 | low);
        run = at + 3;
    }
    out.extend_from_slice(&bytes[run..]);
    String::from_utf8(out).ok()
}

/// The first index at or after `from` whose byte satisfies `wanted`.
/// Whole words are tested with `lanes`, which must flag (set the high bit
/// of) the lowest lane whose byte is wanted and no lower lane; lanes above
/// the first hit may be flagged falsely, so only the lowest flag counts.
/// The tail shorter than a word is tested byte by byte.
fn find(
    bytes: &[u8],
    from: usize,
    lanes: impl Fn(u64) -> u64,
    wanted: impl Fn(u8) -> bool,
) -> Option<usize> {
    let rest = &bytes[from..];
    let mut words = rest.chunks_exact(WORD);
    for (word_index, word) in words.by_ref().enumerate() {
        let flags = lanes(u64::from_le_bytes(word.try_into().expect("chunks are one word long")));
        if flags != 0 {
            return Some(from + word_index * WORD + flags.trailing_zeros() as usize / 8);
        }
    }
    let tail = words.remainder();
    let tail_start = from + rest.len() - tail.len();
    tail.iter().position(|&byte| wanted(byte)).map(|offset| tail_start + offset)
}

/// Bytes per scanned word.
const WORD: usize = 8;
/// `0x01` in every lane.
const ONES: u64 = u64::from_le_bytes([0x01; WORD]);
/// `0x80` (the lane's high bit) in every lane.
const HIGHS: u64 = u64::from_le_bytes([0x80; WORD]);

/// Flags the lanes below `bound` (at most `0x80`). A lane below the bound
/// borrows from the lane above it, so only the lowest flag is exact.
const fn lanes_below(word: u64, bound: u8) -> u64 {
    word.wrapping_sub(ONES * bound as u64) & !word & HIGHS
}

/// Flags the lanes above `bound` (at most `0x7F`). A lane of `0xFF` may
/// carry into the lane above it, so only the lowest flag is exact.
const fn lanes_above(word: u64, bound: u8) -> u64 {
    (word.wrapping_add(ONES * (0x7F - bound) as u64) | word) & HIGHS
}

/// Flags the `%` lanes.
const fn percent_lanes(word: u64) -> u64 {
    lanes_below(word ^ (ONES * b'%' as u64), 1)
}

/// Flags the lanes [`MAY_ESCAPE`] holds: below `0x21`, `%`, and from
/// `0x7F` up.
const fn may_escape_lanes(word: u64) -> u64 {
    lanes_below(word, 0x21) | percent_lanes(word) | lanes_above(word, 0x7E)
}

/// Bytes the escaper must look at: `%`, ASCII whitespace and controls
/// (exactly `0x00..=0x20` and `0x7F`), and every non-ASCII byte.
const MAY_ESCAPE: [bool; 256] = {
    let mut table = [false; 256];
    let mut byte = 0;
    while byte < 256 {
        table[byte] = byte <= 0x20 || byte == 0x25 || byte >= 0x7F;
        byte += 1;
    }
    table
};

/// `%00%01…%FF`: the escape of byte `b` is `BYTE_ESCAPES[3 * b..3 * b + 3]`.
const BYTE_ESCAPES: &str = {
    const DIGITS: &[u8; 16] = b"0123456789ABCDEF";
    const BYTES: [u8; 768] = {
        let mut table = [0; 768];
        let mut byte = 0;
        while byte < 256 {
            table[3 * byte] = b'%';
            table[3 * byte + 1] = DIGITS[byte >> 4];
            table[3 * byte + 2] = DIGITS[byte & 0xF];
            byte += 1;
        }
        table
    };
    match std::str::from_utf8(&BYTES) {
        Ok(table) => table,
        Err(_) => panic!("hex escapes are ASCII"),
    }
};

/// The value of every byte as a hex digit; `0xFF` for non-digits.
const HEX_VALUES: [u8; 256] = {
    let mut table = [0xFF; 256];
    let mut digit = 0;
    while digit < 10 {
        table[b'0' as usize + digit] = digit as u8;
        digit += 1;
    }
    let mut letter = 0;
    while letter < 6 {
        table[b'A' as usize + letter] = 10 + letter as u8;
        table[b'a' as usize + letter] = 10 + letter as u8;
        letter += 1;
    }
    table
};

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};
    use std::fmt::Write as _;

    /// The byte-at-a-time escaper the word scan replaced, kept as the
    /// byte-identity reference.
    fn scalar_escape(text: &str) -> String {
        if text.is_empty() {
            return "%e".to_string();
        }
        let mut out = String::with_capacity(text.len());
        let bytes = text.as_bytes();
        let mut run = 0;
        let mut index = 0;
        while let Some(offset) =
            bytes[index..].iter().position(|&byte| MAY_ESCAPE[usize::from(byte)])
        {
            let at = index + offset;
            let width = if bytes[at].is_ascii() {
                1
            } else {
                let ch = text[at..].chars().next().expect("char boundary");
                if !ch.is_whitespace() && !ch.is_control() {
                    index = at + ch.len_utf8();
                    continue;
                }
                ch.len_utf8()
            };
            out.push_str(&text[run..at]);
            for &byte in &bytes[at..at + width] {
                let byte = usize::from(byte);
                out.push_str(&BYTE_ESCAPES[3 * byte..3 * byte + 3]);
            }
            index = at + width;
            run = index;
        }
        out.push_str(&text[run..]);
        out
    }

    /// The byte-at-a-time unescaper the word scan replaced.
    fn scalar_unescape(token: &str) -> Option<String> {
        if token == "%e" {
            return Some(String::new());
        }
        let bytes = token.as_bytes();
        let mut out: Vec<u8> = Vec::with_capacity(bytes.len());
        let mut run = 0;
        while let Some(offset) = bytes[run..].iter().position(|&byte| byte == b'%') {
            let at = run + offset;
            out.extend_from_slice(&bytes[run..at]);
            let high = HEX_VALUES[usize::from(*bytes.get(at + 1)?)];
            let low = HEX_VALUES[usize::from(*bytes.get(at + 2)?)];
            if high > 0xF || low > 0xF {
                return None;
            }
            out.push(high << 4 | low);
            run = at + 3;
        }
        out.extend_from_slice(&bytes[run..]);
        String::from_utf8(out).ok()
    }

    /// The char-by-char escaper that defines the token grammar.
    fn char_escape(text: &str) -> String {
        if text.is_empty() {
            return "%e".to_string();
        }
        let mut out = String::new();
        let mut buf = [0u8; 4];
        for ch in text.chars() {
            if ch == '%' || ch.is_whitespace() || ch.is_control() {
                for byte in ch.encode_utf8(&mut buf).bytes() {
                    let _ = write!(out, "%{byte:02X}");
                }
            } else {
                out.push(ch);
            }
        }
        out
    }

    fn assert_escape_matches_references(text: &str) {
        let escaped = escape_field(text);
        assert_eq!(escaped, scalar_escape(text), "escape of {text:?}");
        assert_eq!(escaped, char_escape(text), "escape of {text:?}");
        assert!(!escaped.chars().any(char::is_whitespace), "escape of {text:?} has whitespace");
        assert_eq!(unescape_field(&escaped).as_deref(), Some(text), "round trip of {text:?}");
        let mut appended = String::from("prefix ");
        escape_field_into(&mut appended, text);
        assert_eq!(appended, format!("prefix {escaped}"));
    }

    fn assert_unescape_matches_reference(token: &str) {
        assert_eq!(unescape_field(token), scalar_unescape(token), "unescape of {token:?}");
    }

    /// Seeded random strings over a pool biased toward the classes the
    /// codec distinguishes: plain ASCII, `%`, ASCII whitespace and
    /// controls, DEL, C1 controls, U+00A0, U+1680, U+2028 and U+3000, and
    /// two- to four-byte characters, which land across word boundaries as
    /// the lengths vary; plus uniformly random code points.
    fn random_text(rng: &mut StdRng, pool: &[char]) -> String {
        let len = rng.gen_range(0..40);
        (0..len)
            .map(|_| {
                if rng.gen_bool(0.8) {
                    pool[rng.gen_range(0..pool.len())]
                } else {
                    char::from_u32(rng.gen_range(0..0x11_0000u32)).unwrap_or('?')
                }
            })
            .collect()
    }

    const POOL: &str = "aaaaZZZZ0909;,()'%%  \t\n\r\u{b}\u{c}\u{7f}\u{0}\u{1f}\u{80}\u{85}\
                        \u{9f}\u{a0}é\u{ff}\u{1680}\u{2028}\u{3000}漢\u{fffd}😀𝄞";

    #[test]
    fn escape_field_matches_the_references() {
        let awkward = [
            "",
            "%",
            "%%e",
            "%e",
            "plain",
            "a b%c",
            "tab\there\r\n",
            "\u{0}\u{1f}\u{7f}",
            "c1 \u{80}\u{85}\u{9f} controls",
            "nbsp\u{a0}ogham\u{1680}",
            "\u{2000}\u{200a}\u{2028}\u{2029}\u{202f}\u{205f}\u{3000}",
            "é ü ß 漢字",
            "4-byte 😀𝄞\u{10ffff}",
            "trailing space ",
            " ",
            // Multi-byte characters straddling the first and second word
            // boundaries, and whitespace just before and after them.
            "1234567é",
            "123456漢x",
            "12345😀xyz",
            "1234567\u{a0}89abcdef",
            "123456\u{2028}xyzabcdefgh",
            "1234567 9abcdef%",
            "abcdefghijklmno\u{3000}",
        ];
        for text in awkward {
            assert_escape_matches_references(text);
        }
        let pool: Vec<char> = POOL.chars().collect();
        let mut rng = StdRng::seed_from_u64(0xE5C);
        for _ in 0..if cfg!(miri) { 200 } else { 4_000 } {
            let text = random_text(&mut rng, &pool);
            assert_escape_matches_references(&text);
            // Every suffix start shifts the text across word boundaries.
            for (start, _) in text.char_indices().take(8) {
                assert_escape_matches_references(&text[start..]);
            }
        }
    }

    #[test]
    fn unescape_field_matches_the_reference_on_good_and_malformed_tokens() {
        let malformed = ["%", "%4", "%zz", "%+A", "%FF", "%-1", "% A", "%g0", "%0g", "%C3"];
        let pool: Vec<char> = POOL.chars().collect();
        let mut rng = StdRng::seed_from_u64(0xDEC);
        for _ in 0..if cfg!(miri) { 200 } else { 4_000 } {
            let text = random_text(&mut rng, &pool);
            let token = escape_field(&text);
            assert_unescape_matches_reference(&token);
            // Splice a malformed escape in at a random char boundary, or
            // leave a truncated one at the end.
            let bad = malformed[rng.gen_range(0..malformed.len())];
            let boundaries: Vec<usize> =
                token.char_indices().map(|(at, _)| at).chain([token.len()]).collect();
            let at = boundaries[rng.gen_range(0..boundaries.len())];
            assert_unescape_matches_reference(&format!("{}{bad}{}", &token[..at], &token[at..]));
            assert_unescape_matches_reference(&format!("{token}%4"));
            // Raw (unescaped) text decodes or is refused exactly alike.
            assert_unescape_matches_reference(&text);
        }
        for token in malformed {
            assert_eq!(unescape_field(token), None, "`{token}` must be refused");
            assert_unescape_matches_reference(token);
        }
    }

    #[test]
    fn unescape_field_requires_exactly_two_hex_digits() {
        assert_eq!(unescape_field("%0A").as_deref(), Some("\n"));
        assert_eq!(unescape_field("%0a%25x").as_deref(), Some("\n%x"));
        // `u8::from_str_radix` would take a sign where a digit belongs.
        for malformed in ["%+A", "a%+Ab", "%-1", "% A", "%0", "%", "%g0", "%0g", "x%"] {
            assert_eq!(unescape_field(malformed), None, "`{malformed}` must be refused");
        }
        // Escapes that decode to invalid UTF-8 are refused too.
        assert_eq!(unescape_field("%FF"), None);
        assert_eq!(unescape_field("valid so far %C3"), None);
        assert_eq!(unescape_field("%C3%A9").as_deref(), Some("é"));
    }

    #[test]
    fn word_scans_flag_exactly_the_first_wanted_byte() {
        // Every byte value in every lane, over backgrounds that are plain,
        // full of candidates, or random: the lowest flag must be the first
        // wanted byte, and a word with none must not be flagged.
        let check = |word: [u8; WORD]| {
            let value = u64::from_le_bytes(word);
            let first = word.iter().position(|&byte| MAY_ESCAPE[usize::from(byte)]);
            let flags = may_escape_lanes(value);
            let flagged = (flags != 0).then(|| flags.trailing_zeros() as usize / 8);
            assert_eq!(flagged, first, "may-escape scan of {word:02x?}");
            let first = word.iter().position(|&byte| byte == b'%');
            let flags = percent_lanes(value);
            let flagged = (flags != 0).then(|| flags.trailing_zeros() as usize / 8);
            assert_eq!(flagged, first, "percent scan of {word:02x?}");
        };
        let mut rng = StdRng::seed_from_u64(0x5CA);
        for lane in 0..WORD {
            for byte in 0..=255u8 {
                for background in [b'a', 0xFF, 0x00, b'%', 0x21, 0x7E] {
                    let mut word = [background; WORD];
                    word[lane] = byte;
                    check(word);
                }
                let mut word = rng.next_u64().to_le_bytes();
                word[lane] = byte;
                check(word);
            }
        }
    }
}
