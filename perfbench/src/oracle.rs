//! The correctness oracle: one reference digest per experiment document.
//!
//! `experiments --json` prints one pretty-printed JSON document per
//! experiment, each opening with a `{` line and closing with a `}` line.
//! The committed `perfbench/reference.json` holds a digest of every
//! document's exact bytes, taken from a direct run; a run's document
//! counts as correct only when its digest matches.

use serde::Value;
use std::collections::BTreeMap;
use std::path::Path;

/// The member `key` of a JSON object.
#[must_use]
pub fn field<'v>(value: &'v Value, key: &str) -> Option<&'v Value> {
    value
        .as_object()?
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
}

/// The selection every batch workload runs (store and fabric variants
/// add flags, never experiments).
pub const PAPER_SELECTION: &[&str] = &["all", "x10", "x11"];

/// The documents `experiments all x10 x11 --json` prints.
pub const PAPER_DOCS: &[&str] = &[
    "x1",
    "x2",
    "x3-bounds",
    "x3-exec",
    "x4",
    "x5",
    "x6",
    "x7",
    "x8",
    "x9",
    "x10",
    "x11",
];

/// The documents `experiments x10 x11 --json` prints.
pub const TOPO_DOCS: &[&str] = &["x10", "x11"];

/// 128-bit digest (two FNV-1a 64 lanes with distinct offsets), as hex.
/// Not cryptographic: it guards against wrong bytes, not adversaries.
#[must_use]
pub fn digest(bytes: &[u8]) -> String {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut a: u64 = 0xcbf2_9ce4_8422_2325;
    let mut b: u64 = 0x6c62_272e_07bb_0142;
    for &byte in bytes {
        a = (a ^ u64::from(byte)).wrapping_mul(PRIME);
        b = (b ^ u64::from(byte.rotate_left(3))).wrapping_mul(PRIME);
    }
    b ^= bytes.len() as u64;
    format!("{a:016x}{b:016x}")
}

/// Splits `--json` output into `(experiment id, exact document bytes)`.
/// A document that does not parse or has no `experiment` field gets the
/// id `?`, so it can never match a reference.
#[must_use]
pub fn split_docs(stdout: &str) -> Vec<(String, String)> {
    let mut docs = Vec::new();
    let mut current = String::new();
    for line in stdout.split_inclusive('\n') {
        current.push_str(line);
        if line.trim_end_matches('\n') == "}" {
            docs.push(std::mem::take(&mut current));
        }
    }
    if !current.trim().is_empty() {
        docs.push(current);
    }
    docs.into_iter()
        .map(|doc| {
            let id = serde_json::from_str::<Value>(&doc)
                .ok()
                .and_then(|v| match field(&v, "experiment") {
                    Some(Value::String(id)) => Some(id.clone()),
                    _ => None,
                })
                .unwrap_or_else(|| "?".into());
            (id, doc)
        })
        .collect()
}

/// Reference digests by experiment id.
#[derive(Debug, Clone, Default)]
pub struct Reference {
    digests: BTreeMap<String, String>,
}

impl Reference {
    /// Digests every document of a trusted run's output.
    #[must_use]
    pub fn from_output(stdout: &str) -> Reference {
        Reference {
            digests: split_docs(stdout)
                .into_iter()
                .map(|(id, doc)| (id, digest(doc.as_bytes())))
                .collect(),
        }
    }

    /// Loads the committed reference file.
    ///
    /// # Errors
    ///
    /// A message when the file is missing or malformed.
    pub fn load(path: &Path) -> Result<Reference, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let value: Value = serde_json::from_str(&text)
            .map_err(|e| format!("{} is not JSON: {e}", path.display()))?;
        let docs = field(&value, "documents")
            .and_then(Value::as_object)
            .ok_or_else(|| format!("{} has no `documents` object", path.display()))?;
        let digests = docs
            .iter()
            .filter_map(|(k, v)| match v {
                Value::String(d) => Some((k.clone(), d.clone())),
                _ => None,
            })
            .collect();
        Ok(Reference { digests })
    }

    /// The reference file's JSON text.
    #[must_use]
    pub fn to_json(&self, source: &str) -> String {
        let documents = self
            .digests
            .iter()
            .map(|(id, d)| (id.clone(), Value::String(d.clone())))
            .collect();
        let doc = Value::Object(vec![
            ("source".into(), Value::String(source.into())),
            ("documents".into(), Value::Object(documents)),
        ]);
        serde_json::to_string_pretty(&doc).expect("serializable reference") + "\n"
    }

    /// Checks one run's output against the reference: every `expected`
    /// document must appear exactly once with its reference digest.
    /// Returns the ids that failed (wrong bytes, missing or duplicated);
    /// unexpected extra documents fail under their own id.
    #[must_use]
    pub fn check(&self, stdout: &str, expected: &[&str]) -> Vec<String> {
        let docs = split_docs(stdout);
        let mut failed = Vec::new();
        for &id in expected {
            let matching: Vec<&(String, String)> = docs.iter().filter(|(d, _)| d == id).collect();
            let ok = matching.len() == 1
                && self.digests.get(id).map(String::as_str)
                    == Some(digest(matching[0].1.as_bytes()).as_str());
            if !ok {
                failed.push(id.to_string());
            }
        }
        for (id, _) in &docs {
            if !expected.contains(&id.as_str()) {
                failed.push(id.clone());
            }
        }
        failed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const OUTPUT: &str = "{\n  \"experiment\": \"x1\",\n  \"rows\": [\n    {\n      \"cost\": 135\n    }\n  ]\n}\n{\n  \"experiment\": \"x2\",\n  \"rows\": []\n}\n";

    #[test]
    fn splits_pretty_documents_by_id() {
        let docs = split_docs(OUTPUT);
        let ids: Vec<&str> = docs.iter().map(|(id, _)| id.as_str()).collect();
        assert_eq!(ids, ["x1", "x2"]);
        assert_eq!(
            docs.iter().map(|(_, d)| d.as_str()).collect::<String>(),
            OUTPUT
        );
    }

    #[test]
    fn clean_output_passes() {
        let reference = Reference::from_output(OUTPUT);
        assert!(reference.check(OUTPUT, &["x1", "x2"]).is_empty());
    }

    /// The oracle's self-test: flipping any single byte of the output
    /// makes at least one document fail.
    #[test]
    fn every_one_byte_corruption_is_caught() {
        let reference = Reference::from_output(OUTPUT);
        for i in 0..OUTPUT.len() {
            let mut bytes = OUTPUT.as_bytes().to_vec();
            bytes[i] = if bytes[i] == b'7' { b'8' } else { b'7' };
            let corrupted = String::from_utf8(bytes).expect("ascii");
            assert!(
                !reference.check(&corrupted, &["x1", "x2"]).is_empty(),
                "corruption at byte {i} went unnoticed"
            );
        }
    }

    #[test]
    fn missing_and_extra_documents_fail() {
        let reference = Reference::from_output(OUTPUT);
        let only_x2 = OUTPUT
            .split_once("}\n{")
            .map(|(_, b)| format!("{{{b}"))
            .unwrap();
        assert_eq!(reference.check(&only_x2, &["x1", "x2"]), ["x1"]);
        assert_eq!(reference.check(OUTPUT, &["x2"]), ["x1"]);
        assert_eq!(reference.check("", &["x1"]), ["x1"]);
    }
}
