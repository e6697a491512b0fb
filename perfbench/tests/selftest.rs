//! The benchmark's self-test:
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.
//!
//! Runs every workload briefly in both modes and checks the printed metrics
//! against `BENCHMARK.json`; checks that one seed always yields the same
//! requests and that a chunk replay is deterministic.

use std::path::PathBuf;
use std::process::{Command, Output};

use dsg::Request;
use perfbench::replay::replay_plain;
use perfbench::spec::{WorkloadId, ALL, OUTSTANDING};

fn perfbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("the benchmark binary runs")
}

fn benchmark_json() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    parse(&text)
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(list)
        .array()
        .iter()
        .map(|m| (m.get("name").string(), m.get("unit").string()))
        .collect()
}

fn check_run(w: WorkloadId, trace: bool) {
    let out = perfbench(&[
        "--workload",
        w.name(),
        "--seed",
        "7",
        "--seconds",
        "0.3",
        "--trace",
        if trace { "1" } else { "0" },
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "{} trace {trace} failed:\n{stderr}",
        w.name()
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let result = parse(stdout.lines().last().expect("a result line"));
    let keys: Vec<&str> = result.object().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct"), &Json::Bool(true));
    assert!(result.get("attempted").number() >= 1.0);
    assert_eq!(result.get("failed").number(), 0.0);

    let printed: Vec<(String, String)> = result
        .get("metrics")
        .object()
        .iter()
        .map(|(name, m)| {
            assert!(m.get("value").number().is_finite(), "{name} is not finite");
            assert_eq!(m.object().len(), 2, "{name} has exactly a value and a unit");
            (name.clone(), m.get("unit").string())
        })
        .collect();
    let expected = declared(if trace { "per_layer" } else { "end_to_end" });
    assert_eq!(printed, expected, "{} trace {trace}", w.name());
}

#[test]
fn every_workload_prints_the_declared_end_to_end_metrics() {
    for w in ALL {
        check_run(w, false);
    }
}

#[test]
fn every_workload_prints_the_declared_per_layer_metrics() {
    for w in ALL {
        check_run(w, true);
    }
}

#[test]
fn the_declared_workloads_are_the_implemented_ones() {
    let declared: Vec<String> = benchmark_json()
        .get("workloads")
        .array()
        .iter()
        .map(|w| w.get("name").string())
        .collect();
    let implemented: Vec<String> = ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(declared, implemented);
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        &["--workload", "nope", "--seed", "1", "--seconds", "1"][..],
        &["--workload", "pairs-steady", "--seconds", "1"][..],
        &[
            "--workload",
            "pairs-steady",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ][..],
    ] {
        let out = perfbench(args);
        assert!(!out.status.success(), "{args:?} succeeded");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}

fn requests(w: WorkloadId, seed: u64, m: usize) -> Vec<Request> {
    let mut stream = w.requests(seed);
    (0..m).map(|_| stream.next_request()).collect()
}

#[test]
fn one_seed_always_yields_the_same_requests() {
    for w in ALL {
        assert_eq!(requests(w, 5, 300), requests(w, 5, 300), "{}", w.name());
        assert_ne!(requests(w, 5, 300), requests(w, 6, 300), "{}", w.name());
    }
}

#[test]
fn a_chunk_replay_reproduces_its_counts_exactly() {
    for w in ALL {
        let trace = requests(w, 11, w.warmup_requests() + 4 * OUTSTANDING);
        let chunks: Vec<Vec<Request>> = trace.chunks(OUTSTANDING).map(<[_]>::to_vec).collect();
        let first = replay_plain(w, &chunks).expect("replay succeeds");
        let second = replay_plain(w, &chunks).expect("replay succeeds");
        assert_eq!(first, second, "{}", w.name());
        assert_eq!(first.stats.requests, trace.len(), "{}", w.name());
    }
}

/// Just enough JSON for `BENCHMARK.json` and the result line.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Json>),
    Object(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        self.object()
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing key {key}"))
    }

    fn object(&self) -> &[(String, Json)] {
        match self {
            Json::Object(fields) => fields,
            other => panic!("expected an object, got {other:?}"),
        }
    }

    fn array(&self) -> &[Json] {
        match self {
            Json::Array(items) => items,
            other => panic!("expected an array, got {other:?}"),
        }
    }

    fn string(&self) -> String {
        match self {
            Json::String(s) => s.clone(),
            other => panic!("expected a string, got {other:?}"),
        }
    }

    fn number(&self) -> f64 {
        match self {
            Json::Number(x) => *x,
            other => panic!("expected a number, got {other:?}"),
        }
    }
}

fn parse(text: &str) -> Json {
    let mut p = Parser {
        bytes: text.as_bytes(),
        at: 0,
    };
    let value = p.value();
    p.skip_ws();
    assert_eq!(p.at, p.bytes.len(), "trailing characters in {text:?}");
    value
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.bytes.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn eat(&mut self, byte: u8) {
        self.skip_ws();
        assert_eq!(self.bytes.get(self.at), Some(&byte), "at byte {}", self.at);
        self.at += 1;
    }

    fn peek(&mut self) -> u8 {
        self.skip_ws();
        *self.bytes.get(self.at).expect("unexpected end of JSON")
    }

    fn value(&mut self) -> Json {
        match self.peek() {
            b'{' => {
                self.eat(b'{');
                let mut fields = Vec::new();
                if self.peek() != b'}' {
                    loop {
                        let key = self.string();
                        self.eat(b':');
                        fields.push((key, self.value()));
                        if self.peek() != b',' {
                            break;
                        }
                        self.eat(b',');
                    }
                }
                self.eat(b'}');
                Json::Object(fields)
            }
            b'[' => {
                self.eat(b'[');
                let mut items = Vec::new();
                if self.peek() != b']' {
                    loop {
                        items.push(self.value());
                        if self.peek() != b',' {
                            break;
                        }
                        self.eat(b',');
                    }
                }
                self.eat(b']');
                Json::Array(items)
            }
            b'"' => Json::String(self.string()),
            b't' => self.word("true", Json::Bool(true)),
            b'f' => self.word("false", Json::Bool(false)),
            b'n' => self.word("null", Json::Null),
            _ => {
                let start = self.at;
                while self
                    .bytes
                    .get(self.at)
                    .is_some_and(|b| b"+-.eE0123456789".contains(b))
                {
                    self.at += 1;
                }
                let token = std::str::from_utf8(&self.bytes[start..self.at]).expect("ascii");
                Json::Number(
                    token
                        .parse()
                        .unwrap_or_else(|_| panic!("bad number {token:?}")),
                )
            }
        }
    }

    fn word(&mut self, word: &str, value: Json) -> Json {
        assert!(self.bytes[self.at..].starts_with(word.as_bytes()));
        self.at += word.len();
        value
    }

    /// Strings in these files carry no escapes other than `\"` and `\\`.
    fn string(&mut self) -> String {
        self.eat(b'"');
        let mut out = Vec::new();
        loop {
            match self.bytes[self.at] {
                b'"' => break,
                b'\\' => {
                    out.push(self.bytes[self.at + 1]);
                    self.at += 2;
                }
                b => {
                    out.push(b);
                    self.at += 1;
                }
            }
        }
        self.at += 1;
        String::from_utf8(out).expect("utf-8 string")
    }
}
