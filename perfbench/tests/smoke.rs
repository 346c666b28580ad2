//! Tiny-size runs of every workload: each emits exactly the metrics
//! `BENCHMARK.json` names, with their units, and passes its correctness
//! gate; a deliberately broken expectation trips the gate.

use perfbench::durable::DaemonProbe;
use perfbench::{run, Gate, Options, Outcome, Size, Workload};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

/// A parsed JSON value — just the subset `BENCHMARK.json` uses.
#[derive(Debug)]
enum Json {
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing bytes after the JSON value");
        v
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key {key}")),
            _ => panic!("not an object"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            _ => panic!("not a string"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            _ => panic!("not an array"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, b: u8) {
        self.ws();
        assert_eq!(self.s.get(self.i), Some(&b), "expected '{}'", b as char);
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(m);
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.value() else {
                        panic!("object key is not a string")
                    };
                    self.eat(b':');
                    m.insert(k, self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Json::Obj(m);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut a = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(a);
                }
                loop {
                    a.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return Json::Arr(a);
                    }
                }
            }
            b'"' => {
                self.i += 1;
                let start = self.i;
                while self.s[self.i] != b'"' {
                    assert_ne!(self.s[self.i], b'\\', "escapes are not expected here");
                    self.i += 1;
                }
                self.i += 1;
                Json::Str(String::from_utf8(self.s[start..self.i - 1].to_vec()).unwrap())
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.0123456789eE".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).unwrap();
                Json::Num(text.parse().unwrap_or_else(|_| panic!("bad number {text}")))
            }
        }
    }
}

fn manifest() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark"))
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    manifest()
        .get(section)
        .arr()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

fn tiny(workload: Workload, trace: bool, sabotage: bool) -> Outcome {
    let state_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "smoke-{}-{}-{}",
        workload.name(),
        u8::from(trace),
        u8::from(sabotage)
    ));
    run(&Options {
        workload,
        seed: 5,
        seconds: 0.01,
        trace,
        size: Size::Tiny,
        state_dir,
        sabotage,
    })
}

fn emitted(o: &Outcome) -> Vec<(String, String)> {
    o.metrics
        .iter()
        .map(|(n, _, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn manifest_lists_the_workloads_and_legal_bounds() {
    let m = manifest();
    let names: Vec<&str> = m
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, ours);
    for w in m.get("workloads").arr() {
        assert!(!w.get("why").str().is_empty());
    }
    for e in m.get("end_to_end").arr() {
        let Json::Num(bound) = e.get("bound") else {
            panic!("bound is not a number")
        };
        assert!(*bound > 0.0 && *bound <= 0.25);
    }
    assert!(declared("end_to_end")
        .iter()
        .any(|(n, u)| n == "setup_s" && u == "s"));
}

#[test]
fn every_metric_is_emitted_with_its_unit() {
    for workload in Workload::ALL {
        let plain = tiny(workload, false, false);
        assert!(plain.correct, "{}: {:?}", workload.name(), plain.failures);
        assert_eq!(plain.failed, 0);
        assert!(plain.attempted > 0);
        assert_eq!(
            emitted(&plain),
            declared("end_to_end"),
            "{}",
            workload.name()
        );
        for (name, value, _) in &plain.metrics {
            assert!(
                value.is_finite() && *value > 0.0,
                "{}: {name} = {value}",
                workload.name()
            );
        }

        let traced = tiny(workload, true, false);
        assert!(traced.correct, "{}: {:?}", workload.name(), traced.failures);
        assert_eq!(
            emitted(&traced),
            declared("per_layer"),
            "{}",
            workload.name()
        );
        assert!(traced.metrics.iter().all(|(_, v, _)| v.is_finite()));
        assert!(!traced.table.is_empty());
        let coverage = traced
            .metrics
            .iter()
            .find(|(n, _, _)| *n == "coverage_frac")
            .map(|m| m.1)
            .unwrap();
        assert!(coverage > 0.5 && coverage <= 1.0, "coverage {coverage}");
    }
}

#[test]
fn broken_expectation_trips_the_gate() {
    for workload in Workload::ALL {
        let o = tiny(workload, false, true);
        assert!(!o.correct, "{} passed a sabotaged gate", workload.name());
        assert!(o.failed > 0 && o.failed <= o.attempted);
        assert!(!o.failures.is_empty());
    }
}

#[test]
fn daemon_probe_checks_jobs_against_the_in_process_reference() {
    for sabotage in [false, true] {
        let opts = Options {
            workload: Workload::EsaLrStream,
            seed: 5,
            seconds: 0.01,
            trace: true,
            size: Size::Tiny,
            state_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
                .join(format!("smoke-daemon-{}", u8::from(sabotage))),
            sabotage,
        };
        let mut gate = Gate::default();
        let mut daemon = DaemonProbe::new(&opts, &mut gate);
        let (metrics, failed_jobs) = daemon.probe(&mut None, &mut gate);
        if sabotage {
            assert_eq!(failed_jobs, 2);
            assert!(gate.failures.iter().any(|f| f.contains("in-process")));
        } else {
            assert_eq!(failed_jobs, 0, "{:?}", gate.failures);
            assert!(gate.correct());
            assert!(metrics["campaignd.wal_bytes"] > 0.0);
            assert!(metrics["campaignd.events"] > 0.0);
        }
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "no-such-workload", "--seed", "1"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(!String::from_utf8_lossy(&out.stdout).contains("\"correct\""));
}
