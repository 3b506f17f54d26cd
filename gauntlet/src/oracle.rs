//! The correctness oracle: an order-independent signature of a result body
//! and the pinned per-class signatures for seed 1.
//!
//! One digester serves every path. In-process and mirrored-pipeline results
//! are serialized with the engine's own writers and digested; HTTP bodies
//! are digested as received. Equal results give equal signatures whatever
//! the row order, which a commit beside a read may change.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The three SELECT/ASK wire formats the workloads negotiate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Format {
    Json,
    Tsv,
    Csv,
}

impl Format {
    pub fn accept(self) -> &'static str {
        match self {
            Format::Json => "application/sparql-results+json",
            Format::Tsv => "text/tab-separated-values",
            Format::Csv => "text/csv",
        }
    }

    pub fn serialize(
        self,
        results: &sparqlog::QueryResults,
        out: &mut Vec<u8>,
    ) -> Result<(), sparqlog::WriteError> {
        match self {
            Format::Json => sparqlog::results_io::write_json(results, out),
            Format::Tsv => sparqlog::results_io::write_tsv(results, out),
            Format::Csv => sparqlog::results_io::write_csv(results, out),
        }
    }
}

/// Signature of one result body: row count, byte count and the wrapping
/// sum of per-row hashes (so row order does not matter).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Sig {
    pub rows: u64,
    pub bytes: u64,
    pub digest: u64,
}

const SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into `h`, eight bytes at a time.
fn mix(mut h: u64, bytes: &[u8]) -> u64 {
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let w = u64::from_le_bytes(c.try_into().expect("chunk of 8"));
        h = (h.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
    for &b in chunks.remainder() {
        h = (h.rotate_left(5) ^ u64::from(b)).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
    h
}

fn finish(h: u64, len: usize) -> u64 {
    let mut z = h ^ (len as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 32)).wrapping_mul(0xd6e8_feb8_6659_fd93);
    z ^ (z >> 32)
}

pub fn hash_bytes(bytes: &[u8]) -> u64 {
    finish(mix(SEED, bytes), bytes.len())
}

/// Signature of a serialized result body.
pub fn digest_body(format: Format, body: &[u8]) -> Sig {
    let (rows, digest) = match format {
        Format::Json => digest_json(body),
        Format::Tsv | Format::Csv => digest_lines(body),
    };
    Sig {
        rows,
        bytes: body.len() as u64,
        digest,
    }
}

/// CSV/TSV: one record per line; the first line is the header.
fn digest_lines(body: &[u8]) -> (u64, u64) {
    let mut digest = 0u64;
    let mut lines = 0u64;
    for line in body.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
        digest = digest.wrapping_add(hash_bytes(line));
        lines += 1;
    }
    (lines.saturating_sub(1), digest)
}

/// Results-JSON: a record ends wherever the nesting depth returns to 3,
/// which is exactly the end of each element of `results.bindings` (and of
/// the two array openers before it). Commas at depth 3 separate records
/// and are not hashed, so a record's hash does not depend on its position.
fn digest_json(body: &[u8]) -> (u64, u64) {
    let mut digest = 0u64;
    let mut rows = 0u64;
    let mut depth = 0u32;
    let (mut h, mut len) = (SEED, 0usize);
    let mut i = 0;
    while i < body.len() {
        let b = body[i];
        match b {
            b'"' => {
                // Hash the whole string literal in one slice.
                let mut j = i + 1;
                while j < body.len() && body[j] != b'"' {
                    j += if body[j] == b'\\' { 2 } else { 1 };
                }
                let end = (j + 1).min(body.len());
                h = mix(h, &body[i..end]);
                len += end - i;
                i = end;
                continue;
            }
            b',' if depth == 3 => {}
            _ => {
                h = mix(h, &[b]);
                len += 1;
                let closed_row = b == b'}' && depth == 4;
                match b {
                    b'{' | b'[' => depth += 1,
                    b'}' | b']' => depth = depth.saturating_sub(1),
                    _ => {}
                }
                if depth == 3 && (closed_row || b == b'[') {
                    digest = digest.wrapping_add(finish(h, len));
                    rows += u64::from(closed_row);
                    (h, len) = (SEED, 0);
                }
            }
        }
        i += 1;
    }
    (rows, digest.wrapping_add(finish(h, len)))
}

/// Per-class aggregate over the class's distinct texts, as pinned.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClassSig {
    pub texts: u64,
    pub rows: u64,
    pub digest: u64,
}

impl ClassSig {
    pub fn absorb(&mut self, text: &str, sig: Sig) {
        self.texts += 1;
        self.rows += sig.rows;
        self.digest = self.digest.wrapping_add(finish(
            hash_bytes(text.as_bytes()) ^ sig.digest,
            sig.bytes as usize,
        ));
    }
}

/// The seed whose per-class signatures are pinned.
pub const PINNED_SEED: u64 = 1;

/// The pinned signatures for seed 1 (`gauntlet pin` rewrites the file).
const PINNED: &str = include_str!("../oracle_seed1.tsv");

pub type ClassTable = BTreeMap<String, ClassSig>;

/// Pinned classes of `workload`, or `None` if the file has no such rows.
pub fn pinned(workload: &str) -> Option<ClassTable> {
    let mut table = ClassTable::new();
    for line in PINNED.lines().filter(|l| !l.starts_with('#')) {
        let f: Vec<&str> = line.split('\t').collect();
        if f.len() != 5 || f[0] != workload {
            continue;
        }
        let sig = ClassSig {
            texts: f[2].parse().ok()?,
            rows: f[3].parse().ok()?,
            digest: u64::from_str_radix(f[4], 16).ok()?,
        };
        table.insert(f[1].to_string(), sig);
    }
    (!table.is_empty()).then_some(table)
}

/// Renders `table` as the rows of the pinned file.
pub fn render(workload: &str, table: &ClassTable) -> String {
    let mut out = String::new();
    for (class, s) in table {
        writeln!(
            out,
            "{workload}\t{class}\t{}\t{}\t{:016x}",
            s.texts, s.rows, s.digest
        )
        .expect("writing to a String");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_rows_are_order_independent() {
        let head = r#"{"head":{"vars":["x","y"]},"results":{"bindings":["#;
        let a = r#"{"x":{"type":"uri","value":"a}}b"},"y":{"type":"literal","value":"1,\"2"}}"#;
        let b = r#"{"x":{"type":"uri","value":"c"}}"#;
        let ab = format!("{head}{a},{b}]}}}}");
        let ba = format!("{head}{b},{a}]}}}}");
        let (sa, sb) = (
            digest_body(Format::Json, ab.as_bytes()),
            digest_body(Format::Json, ba.as_bytes()),
        );
        assert_eq!(sa, sb);
        assert_eq!(sa.rows, 2);
        let other = format!("{head}{b},{b}]}}}}");
        assert_ne!(
            digest_body(Format::Json, other.as_bytes()).digest,
            sa.digest
        );
    }

    #[test]
    fn ask_and_lines() {
        let ask = digest_body(Format::Json, br#"{"head":{},"boolean":true}"#);
        assert_eq!(ask.rows, 0);
        let t1 = digest_body(Format::Tsv, b"?x\n<a>\n<b>\n");
        let t2 = digest_body(Format::Tsv, b"?x\n<b>\n<a>\n");
        assert_eq!(t1, t2);
        assert_eq!(t1.rows, 2);
    }
}
