//! Differential tests of the typed JSON path (`Serialize::write_json`,
//! `Deserialize::from_json`) against an oracle: the tree-only writer and
//! parser that `serde_json` was before, kept verbatim in
//! `json_oracle/tree.rs`.
//!
//! * Every committed JSON file (the scenario corpus, both scenario
//!   goldens, the server smoke script and transcript, the step transcripts
//!   and the at-scale DLE golden) reads through the typed path alone, with
//!   no tree fallback, to the oracle's values, and writes back to the
//!   oracle's bytes.
//! * Mutated `Request`, `Response` and `SessionCheckpoint` lines: deleted,
//!   inserted and replaced characters; duplicate, unknown and escaped keys;
//!   fractions, exponents, leading zeros and values past `u64` in integer
//!   fields; nesting around the recursion limit; values of the wrong kind.
//!   `serde_json::from_str` and the oracle agree on success, on the value
//!   and on the error text, and a typed read that succeeds on its own
//!   returns the oracle's value.
//!
//! The `#[ignore]`d case repeats the committed-file check on a
//! hexagon(182) `Done` line (1.76 MB). Run it in release mode:
//!
//! ```text
//! cargo test --release -p pm-server --test json_oracle -- --ignored
//! ```

#[allow(dead_code)]
#[path = "json_oracle/tree.rs"]
mod oracle;

use pm_amoebot::scheduler::SeededRandom;
use pm_core::api::{LeaderElection, PaperPipeline, RunOptions};
use pm_grid::builder::hexagon;
use pm_scenarios::{CorpusEntry, ScenarioReport};
use pm_server::{Request, Response, SessionCheckpoint};
use proptest::prelude::*;
use serde::{Deserialize, JsonReader, Serialize, Value};
use std::fmt::Debug;
use std::path::Path;
use std::sync::OnceLock;

/// A committed file, by its path below `crates/`.
fn committed(path: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join(path);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// The start of a long text, for failure messages.
fn brief(text: &str) -> String {
    text.chars().take(300).collect()
}

/// Reads `text` through the typed path alone: `from_json`, then nothing but
/// whitespace.
fn typed<T: Deserialize>(text: &str) -> Result<T, String> {
    let mut reader = JsonReader::new(text);
    T::from_json(&mut reader)
        .and_then(|value| reader.end().map(|()| value))
        .map_err(|e| e.0)
}

/// Reads and writes `text` as a `T` through the library and the oracle:
/// `from_str` must give the oracle's value or error text, a typed read
/// that succeeds must give the oracle's value, and a value must write to
/// the oracle's bytes. Returns the oracle's reading.
fn compare<T>(text: &str) -> Result<Result<T, String>, String>
where
    T: Serialize + Deserialize + PartialEq + Debug,
{
    let expected = oracle::from_str::<T>(text).map_err(|e| e.0);
    let library = serde_json::from_str::<T>(text).map_err(|e| e.0);
    if library != expected {
        return Err(format!(
            "from_str read {}, the oracle {}",
            brief(&format!("{library:?}")),
            brief(&format!("{expected:?}"))
        ));
    }
    if let Ok(value) = typed::<T>(text) {
        if expected.as_ref() != Ok(&value) {
            return Err(format!(
                "the typed path alone read {}, the oracle {}",
                brief(&format!("{value:?}")),
                brief(&format!("{expected:?}"))
            ));
        }
    }
    if let Ok(value) = &expected {
        let written = serde_json::to_string(value).map_err(|e| e.0);
        let oracle_written = oracle::to_string(value).map_err(|e| e.0);
        if written != oracle_written {
            return Err("to_string wrote other bytes than the oracle".to_string());
        }
    }
    Ok(expected)
}

/// A committed text must read through the typed path alone, as the oracle
/// reads it, and write back to the oracle's bytes.
fn check_committed<T>(text: &str, what: &str) -> T
where
    T: Serialize + Deserialize + PartialEq + Debug,
{
    let value =
        typed::<T>(text).unwrap_or_else(|e| panic!("{what}: the typed path alone fails: {e}"));
    match compare::<T>(text) {
        Ok(Ok(expected)) => assert!(expected == value, "{what}: values differ"),
        Ok(Err(e)) => panic!("{what}: the oracle fails: {e}"),
        Err(e) => panic!("{what}: {e}"),
    }
    value
}

/// A pretty-printed committed file (written as `to_string_pretty` plus a
/// newline) reads and writes as the oracle's, pretty bytes included.
fn check_pretty<T>(path: &str)
where
    T: Serialize + Deserialize + PartialEq + Debug,
{
    let text = committed(path);
    let value = check_committed::<T>(&text, path);
    let pretty = serde_json::to_string_pretty(&value).expect("committed values serialize");
    assert_eq!(
        pretty,
        oracle::to_string_pretty(&value).expect("oracle"),
        "{path}"
    );
    assert_eq!(pretty, text.trim_end_matches('\n'), "{path}: pretty bytes");
}

/// The JSON lines of a committed line file (comments, blank lines and
/// script directives left out).
fn json_lines(text: &str) -> impl Iterator<Item = &str> {
    text.lines()
        .map(str::trim)
        .filter(|line| !line.is_empty() && !line.starts_with('#') && !line.starts_with('!'))
}

#[test]
fn the_corpus_and_scenario_goldens_read_and_write_as_the_oracle() {
    check_pretty::<Vec<CorpusEntry>>("pm-scenarios/corpus/scenarios.json");
    check_pretty::<Vec<ScenarioReport>>("pm-scenarios/golden/smoke.json");
    check_pretty::<Vec<ScenarioReport>>("pm-scenarios/golden/faults.json");
}

#[test]
fn the_server_smoke_script_and_transcript_read_and_write_as_the_oracle() {
    let script = committed("pm-server/scripts/server_smoke.jsonl");
    for line in json_lines(&script) {
        check_committed::<Request>(line, "script line");
    }
    let transcript = committed("pm-server/golden/server_smoke.jsonl");
    let mut checkpoints = 0;
    for line in json_lines(&transcript) {
        if let Response::Checkpointed { checkpoint, .. } =
            check_committed::<Response>(line, "transcript line")
        {
            let text = serde_json::to_string(&checkpoint).expect("checkpoints serialize");
            check_committed::<SessionCheckpoint>(&text, "checkpoint");
            checkpoints += 1;
        }
    }
    assert!(checkpoints > 0, "the transcript checkpoints a session");
}

#[test]
fn the_step_and_dle_goldens_read_and_write_as_the_oracle() {
    for path in [
        "programmable-matter/tests/golden/step_transcripts.jsonl",
        "pm-core/tests/golden/dle_at_scale.jsonl",
    ] {
        let text = committed(path);
        for line in json_lines(&text) {
            let value = check_committed::<Value>(line, path);
            assert_eq!(serde_json::to_string(&value).unwrap(), line, "{path}");
        }
    }
}

/// Seed lines for the mutations, from the committed script and transcript.
struct Seeds {
    requests: Vec<String>,
    responses: Vec<String>,
    checkpoints: Vec<String>,
}

fn seeds() -> &'static Seeds {
    static SEEDS: OnceLock<Seeds> = OnceLock::new();
    SEEDS.get_or_init(|| {
        let script = committed("pm-server/scripts/server_smoke.jsonl");
        let transcript = committed("pm-server/golden/server_smoke.jsonl");
        let responses: Vec<String> = json_lines(&transcript).map(str::to_string).collect();
        let checkpoints = responses
            .iter()
            .filter_map(|line| {
                let value: Value = oracle::from_str(line).ok()?;
                let checkpoint = value.get("Checkpointed")?.get("checkpoint")?;
                oracle::to_string(checkpoint).ok()
            })
            .collect();
        Seeds {
            requests: json_lines(&script).map(str::to_string).collect(),
            responses,
            checkpoints,
        }
    })
}

/// SplitMix64: the mutations' own small generator, seeded per case.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound.max(1) as u64) as usize
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

/// Characters inserted into or written over a line.
const CHARS: &[char] = &[
    '{', '}', '[', ']', '"', ':', ',', '\\', '/', '0', '1', '9', '-', '.', 'e', 'E', '+', 'n', 'u',
    'l', 't', 'r', 'f', 'a', 'z', ' ', '\n', '\t', 'é', '😀', '\u{1}',
];

/// Numbers written over a number of a line: integers within and past the
/// `i64`/`u64` limits, leading zeros, fractions, exponents and malformed
/// ones.
const NUMBERS: &[&str] = &[
    "0",
    "-0",
    "00",
    "007",
    "-007",
    "1",
    "-1",
    "1.0",
    "1e3",
    "1E3",
    "1e-3",
    "-1.5",
    "2.5e+2",
    "1.",
    "-",
    "1e",
    "255",
    "256",
    "65536",
    "4294967295",
    "4294967296",
    "-2147483649",
    "9223372036854775807",
    "9223372036854775808",
    "-9223372036854775808",
    "-9223372036854775809",
    "18446744073709551615",
    "18446744073709551616",
    "99999999999999999999999",
];

/// Keys given to duplicate and unknown entries: the protocol's own field
/// and variant names, near misses, and strangers.
const KEYS: &[&str] = &[
    "session",
    "rounds",
    "spec",
    "name",
    "report",
    "n",
    "q",
    "r",
    "status",
    "phase",
    "checkpoint",
    "execution",
    "steps",
    "algorithm",
    "leader",
    "final_positions",
    "Run",
    "Done",
    "Session",
    "sessio",
    "sessions",
    "",
    "zz",
    "é",
];

/// Raw values given to unknown keys in the text: some well-formed, some
/// malformed in ways a tree never writes.
const RAW_VALUES: &[&str] = &[
    "1e3",
    "-0.5e-3",
    "[[]]",
    "{\"a\":[1,{\"b\":null}]}",
    "\"\\u00e9\\n\"",
    "1e",
    "-",
    "1.e",
    "--1",
    "1e+",
    "01.5",
    "\"\\x\"",
    "\"\\u12\"",
    "\"\\ud800\"",
    "[1,]",
    "{\"a\"}",
    "{,}",
    "tru",
    "nul",
    "[",
    "}",
];

/// Strings given to generated values.
const STRINGS: &[&str] = &["", "x", "Run", "a\"b\\c\n\t\u{1}", "é😀", "session"];

/// A random value of at most `depth` more levels.
fn random_value(mix: &mut Mix, depth: usize) -> Value {
    let kinds = if depth == 0 { 6 } else { 8 };
    match mix.below(kinds) {
        0 => Value::Null,
        1 => Value::Bool(mix.below(2) == 1),
        2 => Value::Int(*mix.pick(&[0, 1, -1, 7, 300, i64::MIN, i64::MAX])),
        3 => Value::UInt(u64::MAX),
        4 => Value::Float(*mix.pick(&[0.5, -1.5, 1.0, 1e300])),
        5 => Value::Str(mix.pick(STRINGS).to_string()),
        6 => Value::Array(
            (0..mix.below(4))
                .map(|_| random_value(mix, depth - 1))
                .collect(),
        ),
        _ => Value::Object(
            (0..mix.below(4))
                .map(|_| (mix.pick(KEYS).to_string(), random_value(mix, depth - 1)))
                .collect(),
        ),
    }
}

/// `depth` levels of arrays and objects around `inner`.
fn nested(mix: &mut Mix, depth: usize, inner: Value) -> Value {
    (0..depth).fold(inner, |inner, _| {
        if mix.below(2) == 0 {
            Value::Array(vec![inner])
        } else {
            Value::Object(vec![(mix.pick(KEYS).to_string(), inner)])
        }
    })
}

/// The paths (child indices from the root) of every node of `value`, each
/// with whether the node is an object.
fn node_paths(value: &Value, path: &mut Vec<usize>, out: &mut Vec<(Vec<usize>, bool)>) {
    out.push((path.clone(), matches!(value, Value::Object(_))));
    let children: Vec<&Value> = match value {
        Value::Array(items) => items.iter().collect(),
        Value::Object(entries) => entries.iter().map(|(_, v)| v).collect(),
        _ => Vec::new(),
    };
    for (i, child) in children.into_iter().enumerate() {
        path.push(i);
        node_paths(child, path, out);
        path.pop();
    }
}

fn node_mut<'v>(value: &'v mut Value, path: &[usize]) -> &'v mut Value {
    path.iter().fold(value, |node, &i| match node {
        Value::Array(items) => &mut items[i],
        Value::Object(entries) => &mut entries[i].1,
        _ => unreachable!("paths lead through containers"),
    })
}

/// One mutation of a tree: a duplicate or unknown entry, deep nesting, or
/// a node replaced by a value of any kind. `None` when the tree has no
/// place for the mutation chosen.
fn mutate_tree(mut value: Value, mix: &mut Mix) -> Option<Value> {
    let mut nodes = Vec::new();
    node_paths(&value, &mut Vec::new(), &mut nodes);
    let objects: Vec<&Vec<usize>> = nodes.iter().filter(|n| n.1).map(|n| &n.0).collect();
    let paths: Vec<&Vec<usize>> = nodes.iter().map(|n| &n.0).collect();
    let kind = mix.below(4);
    if kind < 2 && objects.is_empty() {
        return None;
    }
    match kind {
        // A duplicate key, before or after the original: with the same
        // value, another entry's value, or a random one.
        0 => {
            let path = (*mix.pick(&objects)).clone();
            let Value::Object(entries) = node_mut(&mut value, &path) else {
                unreachable!()
            };
            if entries.is_empty() {
                return None;
            }
            let (key, original) = entries[mix.below(entries.len())].clone();
            let duplicate = match mix.below(3) {
                0 => original,
                1 => entries[mix.below(entries.len())].1.clone(),
                _ => random_value(mix, 2),
            };
            let at = mix.below(entries.len() + 1);
            entries.insert(at, (key, duplicate));
        }
        // An unknown (or near-miss) key, its value sometimes nested around
        // the recursion limit.
        1 => {
            let path = (*mix.pick(&objects)).clone();
            let entry = random_value(mix, 2);
            let entry = if mix.below(3) == 0 {
                let depth = 110 + mix.below(30);
                nested(mix, depth, entry)
            } else {
                entry
            };
            let key = mix.pick(KEYS).to_string();
            let Value::Object(entries) = node_mut(&mut value, &path) else {
                unreachable!()
            };
            let at = mix.below(entries.len() + 1);
            entries.insert(at, (key, entry));
        }
        // A node nested in arrays and objects, up to past the limit.
        2 => {
            let path = (*mix.pick(&paths)).clone();
            let depth = 1 + mix.below(140);
            let node = node_mut(&mut value, &path);
            let inner = std::mem::replace(node, Value::Null);
            *node = nested(mix, depth, inner);
        }
        // A node replaced by a value of any kind.
        _ => {
            let path = (*mix.pick(&paths)).clone();
            *node_mut(&mut value, &path) = random_value(mix, 2);
        }
    }
    Some(value)
}

/// One textual mutation: characters deleted, inserted or written over, a
/// key character escaped, a number replaced, an unknown key with a raw
/// value, or the line opened deeper.
fn mutate_text(text: &str, mix: &mut Mix) -> String {
    let mut chars: Vec<char> = text.chars().collect();
    match mix.below(7) {
        0 if !chars.is_empty() => {
            let at = mix.below(chars.len());
            let end = (at + 1 + mix.below(3)).min(chars.len());
            chars.drain(at..end);
        }
        1 => {
            let at = mix.below(chars.len() + 1);
            chars.insert(at, *mix.pick(CHARS));
        }
        2 if !chars.is_empty() => {
            let at = mix.below(chars.len());
            chars[at] = *mix.pick(CHARS);
        }
        // A character of a key escaped as `\uXXXX`, in either case.
        3 => {
            let keys: Vec<(usize, usize)> = (0..chars.len())
                .filter(|&i| chars[i] == '"')
                .filter_map(|open| {
                    let len = chars[open + 1..]
                        .iter()
                        .position(|&c| c == '"' || c == '\\')?;
                    let close = open + 1 + len;
                    (len > 0 && chars[close] == '"' && chars.get(close + 1) == Some(&':'))
                        .then_some((open + 1, close))
                })
                .collect();
            if keys.is_empty() {
                return chars.into_iter().collect();
            }
            let (start, end) = *mix.pick(&keys);
            let at = start + mix.below(end - start);
            let escape = if mix.below(2) == 0 {
                format!("\\u{:04x}", chars[at] as u32)
            } else {
                format!("\\u{:04X}", chars[at] as u32)
            };
            chars.splice(at..at + 1, escape.chars());
        }
        // A number replaced by another, or by a non-integer.
        4 => {
            let mut numbers = Vec::new();
            let mut i = 0;
            while i < chars.len() {
                if chars[i].is_ascii_digit() || chars[i] == '-' {
                    let start = i;
                    while i < chars.len() && (chars[i].is_ascii_digit() || chars[i] == '-') {
                        i += 1;
                    }
                    if chars[start..i].iter().any(char::is_ascii_digit) {
                        numbers.push((start, i));
                    }
                } else {
                    i += 1;
                }
            }
            if numbers.is_empty() {
                return chars.into_iter().collect();
            }
            let (start, end) = *mix.pick(&numbers);
            chars.splice(start..end, mix.pick(NUMBERS).chars());
        }
        // An unknown key with a raw value, at the start of an object.
        5 => {
            let opens: Vec<usize> = (0..chars.len()).filter(|&i| chars[i] == '{').collect();
            if opens.is_empty() {
                return chars.into_iter().collect();
            }
            let at = *mix.pick(&opens) + 1;
            let separator = if chars.get(at) == Some(&'}') { "" } else { "," };
            let entry = format!("\"zz\":{}{separator}", mix.pick(RAW_VALUES));
            chars.splice(at..at, entry.chars());
        }
        // The whole line opened deeper than the limit allows.
        _ => {
            let depth = 100 + mix.below(40);
            return "[".repeat(depth) + text + &"]".repeat(depth);
        }
    }
    chars.into_iter().collect()
}

/// One or two mutations of `line`, half of them on its tree.
fn mutate(line: &str, seed: u64) -> String {
    let mut mix = Mix(seed);
    let mut text = line.to_string();
    for _ in 0..1 + mix.below(2) {
        let tree = if mix.below(2) == 0 {
            oracle::from_str::<Value>(&text)
                .ok()
                .and_then(|value| mutate_tree(value, &mut mix))
                .and_then(|value| oracle::to_string(&value).ok())
        } else {
            None
        };
        text = tree.unwrap_or_else(|| mutate_text(&text, &mut mix));
    }
    text
}

/// Mutates seed line `pick` of `lines` by `seed` and compares the result.
fn check_mutation<T>(lines: &[String], pick: u64, seed: u64) -> Result<(), TestCaseError>
where
    T: Serialize + Deserialize + PartialEq + Debug,
{
    let text = mutate(&lines[pick as usize % lines.len()], seed);
    match compare::<T>(&text) {
        Ok(_) => Ok(()),
        Err(e) => Err(TestCaseError::Fail(format!("{e}\non {}", brief(&text)))),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    #[test]
    fn mutated_request_lines_read_as_the_oracle(pick in any::<u64>(), seed in any::<u64>()) {
        check_mutation::<Request>(&seeds().requests, pick, seed)?;
    }

    #[test]
    fn mutated_response_lines_read_as_the_oracle(pick in any::<u64>(), seed in any::<u64>()) {
        check_mutation::<Response>(&seeds().responses, pick, seed)?;
    }

    #[test]
    fn mutated_checkpoint_lines_read_as_the_oracle(pick in any::<u64>(), seed in any::<u64>()) {
        check_mutation::<SessionCheckpoint>(&seeds().checkpoints, pick, seed)?;
    }
}

/// The mutations reach both outcomes, and the typed path succeeds on its
/// own on many of the accepted lines, so the properties above compare
/// typed reads and not only the tree path's re-read.
#[test]
fn mutations_are_often_accepted_and_often_rejected() {
    let lines = &seeds().responses;
    let (mut accepted, mut typed_alone, mut rejected) = (0, 0, 0);
    for seed in 0..600u64 {
        let text = mutate(&lines[seed as usize % lines.len()], seed);
        match oracle::from_str::<Response>(&text) {
            Ok(_) => {
                accepted += 1;
                typed_alone += usize::from(typed::<Response>(&text).is_ok());
            }
            Err(_) => rejected += 1,
        }
    }
    assert!(
        accepted >= 100 && rejected >= 100,
        "{accepted} accepted, {rejected} rejected"
    );
    assert!(
        typed_alone * 10 >= accepted * 9,
        "{typed_alone} of {accepted} read typed"
    );
}

#[test]
#[ignore = "n = 10^5; run in release"]
fn a_hexagon_182_done_line_reads_and_writes_as_the_oracle() {
    let shape = hexagon(182);
    let report = PaperPipeline
        .start(&shape, &mut SeededRandom::new(7), &RunOptions::default())
        .expect("the election starts")
        .finish()
        .expect("the election finishes");
    let line = oracle::to_string(&Response::Done { session: 1, report }).expect("oracle");
    assert!(line.len() > 1_700_000, "{} bytes", line.len());
    check_committed::<Response>(&line, "hexagon(182) Done line");
}
