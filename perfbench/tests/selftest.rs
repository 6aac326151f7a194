//! Self-test at a tiny input size: every workload, untraced twice and
//! traced once. Checks that the result line has exactly the contract's
//! keys, that every metric `BENCHMARK.json` names is printed, finite and
//! with its unit, and that all three runs produce the same digest.

use std::collections::BTreeMap;
use std::process::Command;

#[derive(Debug, Clone, PartialEq)]
enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(BTreeMap<String, Value>),
}

impl Value {
    fn get(&self, key: &str) -> &Value {
        match self {
            Value::Obj(m) => m.get(key).unwrap_or(&Value::Null),
            _ => &Value::Null,
        }
    }

    fn str(&self) -> &str {
        match self {
            Value::Str(s) => s,
            other => panic!("expected a string, got {other:?}"),
        }
    }
}

/// A minimal JSON reader, enough for the benchmark's own output.
struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn parse(text: &str) -> Value {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing bytes in {text}");
        v
    }

    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.s[self.i], c,
            "expected {} at byte {}",
            c as char, self.i
        );
        self.i += 1;
    }

    fn value(&mut self) -> Value {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Value::Obj(m);
                }
                loop {
                    self.ws();
                    let Value::Str(k) = self.value() else {
                        panic!("object key must be a string")
                    };
                    self.eat(b':');
                    let v = self.value();
                    assert!(m.insert(k.clone(), v).is_none(), "duplicate key {k}");
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Value::Obj(m);
                    }
                    assert_eq!(self.s[self.i - 1], b',');
                }
            }
            b'[' => {
                self.i += 1;
                let mut a = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Value::Arr(a);
                }
                loop {
                    a.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return Value::Arr(a);
                    }
                    assert_eq!(self.s[self.i - 1], b',');
                }
            }
            b'"' => {
                self.i += 1;
                let mut out = String::new();
                loop {
                    let c = self.s[self.i];
                    self.i += 1;
                    match c {
                        b'"' => return Value::Str(out),
                        b'\\' => {
                            let e = self.s[self.i];
                            self.i += 1;
                            match e {
                                b'u' => {
                                    let hex = std::str::from_utf8(&self.s[self.i..self.i + 4])
                                        .expect("ascii escape");
                                    let code = u32::from_str_radix(hex, 16).expect("hex escape");
                                    out.push(char::from_u32(code).expect("valid escape"));
                                    self.i += 4;
                                }
                                b'n' => out.push('\n'),
                                b't' => out.push('\t'),
                                other => out.push(other as char),
                            }
                        }
                        _ => {
                            let start = self.i - 1;
                            let len = match c {
                                0x00..=0x7F => 1,
                                0xC0..=0xDF => 2,
                                0xE0..=0xEF => 3,
                                _ => 4,
                            };
                            out.push_str(
                                std::str::from_utf8(&self.s[start..start + len]).expect("utf-8"),
                            );
                            self.i = start + len;
                        }
                    }
                }
            }
            b't' => self.word("true", Value::Bool(true)),
            b'f' => self.word("false", Value::Bool(false)),
            b'n' => self.word("null", Value::Null),
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).expect("ascii number");
                Value::Num(text.parse().unwrap_or_else(|_| panic!("bad number {text}")))
            }
        }
    }

    fn word(&mut self, w: &str, v: Value) -> Value {
        assert_eq!(&self.s[self.i..self.i + w.len()], w.as_bytes());
        self.i += w.len();
        v
    }
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let Value::Arr(items) = Parser::parse(&text).get(section).clone() else {
        panic!("{section} is not a list")
    };
    items
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

fn workloads() -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let Value::Arr(items) = Parser::parse(&text).get("workloads").clone() else {
        panic!("workloads is not a list")
    };
    items
        .iter()
        .map(|w| w.get("name").str().to_string())
        .collect()
}

/// Runs one tiny benchmark; returns the result line and the digest.
fn run(workload: &str, trace: bool) -> (Value, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0.2"])
        .args(["--trace", if trace { "1" } else { "0" }, "--scale", "tiny"])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed: {stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<&str> = stdout.trim_end().lines().collect();
    assert!(lines.len() >= 2, "expected an info line and a result line");
    let info = Parser::parse(lines[lines.len() - 2]);
    let result = Parser::parse(lines[lines.len() - 1]);
    (result, info.get("info").get("digest").str().to_string())
}

fn check_result(result: &Value, section: &str, context: &str) {
    let Value::Obj(top) = result else {
        panic!("{context}: result is not an object")
    };
    let keys: Vec<&str> = top.keys().map(String::as_str).collect();
    assert_eq!(
        keys,
        ["attempted", "correct", "failed", "metrics"],
        "{context}"
    );
    assert_eq!(result.get("correct"), &Value::Bool(true), "{context}");
    assert_eq!(result.get("failed"), &Value::Num(0.0), "{context}");
    let Value::Num(attempted) = result.get("attempted") else {
        panic!("{context}: attempted is not a number")
    };
    assert!(*attempted >= 1.0 && attempted.fract() == 0.0, "{context}");
    let Value::Obj(metrics) = result.get("metrics") else {
        panic!("{context}: metrics is not an object")
    };
    let expected = declared(section);
    let mut names: Vec<&str> = expected.iter().map(|(n, _)| n.as_str()).collect();
    names.sort_unstable();
    let printed: Vec<&str> = metrics.keys().map(String::as_str).collect();
    assert_eq!(
        printed, names,
        "{context}: printed metrics differ from {section}"
    );
    for (name, unit) in &expected {
        let m = &metrics[name];
        let Value::Num(v) = m.get("value") else {
            panic!("{context}: {name} has no numeric value")
        };
        assert!(v.is_finite(), "{context}: {name} = {v}");
        assert_eq!(m.get("unit").str(), unit, "{context}: unit of {name}");
    }
}

#[test]
fn every_workload_prints_every_metric_and_repeats_its_digest() {
    let names = workloads();
    assert!(!names.is_empty());
    for w in &names {
        let (first, digest) = run(w, false);
        check_result(&first, "end_to_end", &format!("{w} untraced"));
        let (_, again) = run(w, false);
        assert_eq!(digest, again, "{w}: two untraced runs differ");
        let (traced, traced_digest) = run(w, true);
        check_result(&traced, "per_layer", &format!("{w} traced"));
        assert_eq!(
            digest, traced_digest,
            "{w}: traced run differs from untraced"
        );
    }
}

#[test]
fn bad_arguments_are_refused() {
    for args in [
        vec![
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        vec!["--workload", "paper_scan", "--seed", "1", "--seconds", "1"],
        vec![
            "--workload",
            "paper_scan",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        vec![
            "--workload",
            "paper_scan",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(&args)
            .output()
            .expect("benchmark binary runs");
        assert!(!out.status.success(), "{args:?} was accepted");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
