//! Metric collection, the host/build stamp, and the result line.
//!
//! Metric names and units come from `BENCHMARK.json` at the root of the
//! checkout, the one list both the benchmark and its readers use. A run
//! must produce every end-to-end metric; per-layer metrics a workload
//! does not exercise (the socket layers on a DES workload and the other
//! way round) print as 0 and are listed as such.

use std::collections::BTreeMap;
use std::process::Command;

use ccdb_obs::Json;

/// One declared metric.
#[derive(Clone, Debug)]
pub struct Declared {
    pub name: String,
    pub unit: String,
}

/// The metric lists of `BENCHMARK.json`.
pub struct Declaration {
    pub end_to_end: Vec<Declared>,
    pub per_layer: Vec<Declared>,
}

pub fn load_declaration(path: &str) -> Result<Declaration, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("parse {path}: {e}"))?;
    let list = |key: &str| -> Result<Vec<Declared>, String> {
        doc.get(key)
            .and_then(|v| v.items())
            .ok_or_else(|| format!("{path}: no {key} list"))?
            .iter()
            .map(|m| {
                let field = |k: &str| {
                    m.get(k)
                        .and_then(|v| v.as_str())
                        .map(str::to_string)
                        .ok_or_else(|| format!("{path}: {key} entry without {k}"))
                };
                Ok(Declared {
                    name: field("name")?,
                    unit: field("unit")?,
                })
            })
            .collect()
    };
    Ok(Declaration {
        end_to_end: list("end_to_end")?,
        per_layer: list("per_layer")?,
    })
}

/// Metrics produced by one run, by name, with sample counts where the
/// value is an order statistic.
#[derive(Default)]
pub struct Metrics {
    values: BTreeMap<String, (f64, &'static str, Option<usize>)>,
}

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.values.insert(name.to_string(), (value, unit, None));
    }

    /// A percentile or median, with the number of samples it was taken
    /// from.
    pub fn set_counted(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.values
            .insert(name.to_string(), (value, unit, Some(samples)));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|v| v.0)
    }

    /// Print every metric of `declared` as a human-readable line and
    /// return the `metrics` object of the result line. Fails on a
    /// produced metric that is not declared (in either list), a unit
    /// that differs from its declaration, or a missing metric that
    /// `required` says must be present.
    pub fn emit(
        &self,
        declared: &[Declared],
        all: &Declaration,
        required: bool,
    ) -> Result<String, String> {
        for (name, (_, unit, _)) in &self.values {
            let decl = all
                .end_to_end
                .iter()
                .chain(&all.per_layer)
                .find(|d| &d.name == name)
                .ok_or_else(|| format!("metric {name} is not declared in BENCHMARK.json"))?;
            if decl.unit != *unit {
                return Err(format!(
                    "metric {name} measured in {unit}, declared in {}",
                    decl.unit
                ));
            }
        }
        let mut out = Vec::new();
        let mut absent = Vec::new();
        for d in declared {
            let (value, samples) = match self.values.get(&d.name) {
                Some((v, _, n)) => (*v, *n),
                None if required => {
                    return Err(format!("end-to-end metric {} was not measured", d.name))
                }
                None => {
                    absent.push(d.name.as_str());
                    (0.0, None)
                }
            };
            if !value.is_finite() {
                return Err(format!("metric {} is not finite ({value})", d.name));
            }
            match samples {
                Some(n) => println!("{:<36} {value:>16.6} {:<6} n={n}", d.name, d.unit),
                None => println!("{:<36} {value:>16.6} {}", d.name, d.unit),
            }
            out.push(format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&d.name),
                json_num(value),
                json_str(&d.unit)
            ));
        }
        if !absent.is_empty() {
            println!(
                "(not exercised by this workload, printed as 0: {})",
                absent.join(", ")
            );
        }
        Ok(format!("{{{}}}", out.join(", ")))
    }
}

/// A JSON number with every digit Rust's shortest round-trip formatting
/// gives (integers keep a trailing `.0` off).
pub fn json_num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

pub fn json_str(s: &str) -> String {
    let mut o = String::with_capacity(s.len() + 2);
    o.push('"');
    for c in s.chars() {
        match c {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            c if (c as u32) < 0x20 => o.push_str(&format!("\\u{:04x}", c as u32)),
            c => o.push(c),
        }
    }
    o.push('"');
    o
}

/// Where and how a result was produced. Results are comparable only
/// when `nproc`, `cpu` and `profile` agree.
pub struct Stamp {
    pub nproc: usize,
    pub cpu: String,
    pub rustc: String,
    pub commit: String,
    pub profile: &'static str,
}

impl Stamp {
    pub fn collect() -> Stamp {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|t| {
                t.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let run = |prog: &str, args: &[&str]| {
            Command::new(prog)
                .args(args)
                .output()
                .ok()
                .filter(|o| o.status.success())
                .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        };
        Stamp {
            nproc,
            cpu,
            rustc: run("rustc", &["-V"]).unwrap_or_else(|| "unknown".to_string()),
            // Benchmark checkouts need not be git repositories; never
            // report the commit of some enclosing repository instead.
            commit: std::path::Path::new(".git")
                .exists()
                .then(|| run("git", &["rev-parse", "--short=12", "HEAD"]))
                .flatten()
                .unwrap_or_else(|| "none".to_string()),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"cpu\": {}, \"rustc\": {}, \"commit\": {}, \"profile\": {}}}",
            self.nproc,
            json_str(&self.cpu),
            json_str(&self.rustc),
            json_str(&self.commit),
            json_str(self.profile)
        )
    }
}

/// Compare two saved results (`--out` files). Refuses results from
/// different hosts or build profiles; prints each metric's change.
pub fn compare(a_path: &str, b_path: &str) -> Result<(), String> {
    let load = |p: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("read {p}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("parse {p}: {e}"))
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let host = |d: &Json, k: &str| {
        d.get("host")
            .and_then(|h| h.get(k))
            .map(|v| v.render())
            .unwrap_or_default()
    };
    for key in ["nproc", "cpu", "profile"] {
        if host(&a, key) != host(&b, key) {
            return Err(format!(
                "refusing to compare results from different hosts or builds: {key} {} vs {}",
                host(&a, key),
                host(&b, key)
            ));
        }
    }
    let workload = |d: &Json| d.get("workload").map(|v| v.render()).unwrap_or_default();
    if workload(&a) != workload(&b) {
        return Err(format!(
            "refusing to compare different workloads: {} vs {}",
            workload(&a),
            workload(&b)
        ));
    }
    if host(&a, "rustc") != host(&b, "rustc") {
        println!(
            "note: compilers differ ({} vs {})",
            host(&a, "rustc"),
            host(&b, "rustc")
        );
    }
    let metrics = |d: &Json| -> Vec<(String, f64)> {
        match d.get("result").and_then(|r| r.get("metrics")) {
            Some(Json::Obj(pairs)) => pairs
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
                .collect(),
            _ => Vec::new(),
        }
    };
    let bm = metrics(&b);
    println!(
        "{:<36} {:>14} {:>14} {:>9}",
        "metric", "before", "after", "change"
    );
    for (name, va) in metrics(&a) {
        if let Some((_, vb)) = bm.iter().find(|(n, _)| *n == name) {
            let change = if va != 0.0 {
                format!("{:+.1}%", (vb - va) / va.abs() * 100.0)
            } else {
                "-".to_string()
            };
            println!("{name:<36} {va:>14.6} {vb:>14.6} {change:>9}");
        }
    }
    Ok(())
}
