//! The repository's benchmark. See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! flux-benchmark run [--workload <name>] [--seed <n>] [--seconds <s>]
//!                    [--trace <0|1>] [--runs <n>] [--out <file>] [--smoke]
//! flux-benchmark compare <a.json> <b.json> [--spec <BENCHMARK.json>]
//! flux-benchmark serve --workload <name> --seed <n>
//! ```
//!
//! `run` with one `--workload` and one `--trace` prints, as the last
//! line of standard output, one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. Without them it runs every
//! workload, timed and then traced.

mod adapter;
mod child;
mod compare;
mod json;
mod loadgen;
mod metrics;
mod replay;
mod run;
mod stats;
mod sys;
mod trace;
mod workload;

use json::Json;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// How long one run measures unless `--seconds` says otherwise; also
/// `run_seconds` in `BENCHMARK.json`.
const RUN_SECONDS: f64 = 24.0;

/// The benchmark's own directory: where `out/` lives.
fn manifest_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")))
}

struct Args(Vec<String>);

impl Args {
    /// Removes `--name value` and returns the value.
    fn value(&mut self, name: &str) -> Result<Option<String>, String> {
        let Some(at) = self.0.iter().position(|a| a == name) else {
            return Ok(None);
        };
        if at + 1 >= self.0.len() {
            return Err(format!("{name} needs a value"));
        }
        self.0.remove(at);
        Ok(Some(self.0.remove(at)))
    }

    fn parsed<T: std::str::FromStr>(&mut self, name: &str) -> Result<Option<T>, String> {
        match self.value(name)? {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("{name}: cannot read `{v}`")),
        }
    }

    fn flag(&mut self, name: &str) -> bool {
        let before = self.0.len();
        self.0.retain(|a| a != name);
        self.0.len() != before
    }

    fn finish(self) -> Result<Vec<String>, String> {
        match self.0.iter().find(|a| a.starts_with("--")) {
            Some(unknown) => Err(format!("unknown option {unknown}")),
            None => Ok(self.0),
        }
    }
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `BENCHMARK.json`: in the working directory when run from the
/// repository's root, else beside the benchmark's directory.
fn spec_path() -> PathBuf {
    let here = PathBuf::from("BENCHMARK.json");
    if here.exists() {
        here
    } else {
        manifest_dir().join("../BENCHMARK.json")
    }
}

fn cmd_run(mut args: Args) -> Result<bool, String> {
    let smoke = args.flag("--smoke");
    let workload = args.value("--workload")?;
    let seed: u64 = args.parsed("--seed")?.unwrap_or(1);
    let seconds: f64 = args
        .parsed("--seconds")?
        .unwrap_or(if smoke { 2.0 } else { RUN_SECONDS });
    let trace: Option<u8> = args.parsed("--trace")?;
    let runs: u64 = args.parsed("--runs")?.unwrap_or(1);
    let out = args.value("--out")?.map(PathBuf::from);
    args.finish()?;
    if !(1.0..=600.0).contains(&seconds) {
        return Err("--seconds must be between 1 and 600".into());
    }
    if trace.is_some_and(|t| t > 1) {
        return Err("--trace is 0 or 1".into());
    }
    let specs: Vec<&workload::Spec> = match &workload {
        Some(name) => vec![workload::spec(name).ok_or_else(|| format!("unknown workload {name}"))?],
        None => workload::SPECS.iter().collect(),
    };
    let traces: Vec<u8> = trace.map_or(vec![0, 1], |t| vec![t]);
    let dir = manifest_dir();
    child::clear_flux_env();

    let mut records = Vec::new();
    let mut all_passed = true;
    let mut header = Json::Null;
    for run_index in 0..runs {
        let cfg = run::Config {
            seed: seed + run_index,
            seconds,
            out_dir: dir.join("out"),
        };
        header = run::header(&cfg, &dir);
        for spec in &specs {
            for &trace in &traces {
                println!(
                    "# {} seed {} trace {trace} {}",
                    spec.name,
                    cfg.seed,
                    header.render()
                );
                let outcome = match trace {
                    0 => run::timed(spec, &cfg),
                    _ => run::traced(spec, &cfg, &header),
                }
                .map_err(|e| format!("{}: {e}", spec.name))?;
                for note in &outcome.notes {
                    println!("# {note}");
                }
                for (name, value, unit) in &outcome.metrics {
                    match metrics::PER_LAYER.iter().find(|m| m.name == *name) {
                        Some(m) => println!("{name} {value} {unit}  # {}: {}", m.part, m.reads),
                        None => println!("{name} {value} {unit}"),
                    }
                }
                let result = outcome.to_json();
                println!("{}", result.render());
                all_passed &= outcome.correct;
                let Json::Obj(mut fields) = result else {
                    unreachable!("a result is an object")
                };
                fields.splice(
                    0..0,
                    [
                        ("workload".to_string(), Json::str(spec.name)),
                        ("seed".to_string(), Json::Num(cfg.seed as f64)),
                        ("trace".to_string(), Json::Num(trace as f64)),
                    ],
                );
                records.push(Json::Obj(fields));
            }
        }
    }

    // A single run of the contract's shape leaves its result as the last
    // line; anything larger is also kept as a file for `compare`.
    let single = specs.len() == 1 && traces.len() == 1 && runs == 1;
    if !single || out.is_some() {
        let path = out.unwrap_or_else(|| dir.join("out/results.json"));
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).map_err(|e| e.to_string())?;
        }
        let file = Json::obj([("header", header), ("runs", Json::Arr(records.clone()))]);
        std::fs::write(&path, file.render() + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("results written to {}", path.display());
    }

    if smoke {
        if !all_passed {
            return Err("smoke: a run failed its checks".into());
        }
        eprintln!("smoke: all checks passed");
    }
    // A run that measured has done its job: whether its checks passed is
    // in `correct`, not in the exit code.
    Ok(true)
}

fn cmd_compare(mut args: Args) -> Result<bool, String> {
    let spec = args.value("--spec")?.map_or_else(spec_path, PathBuf::from);
    let files = args.finish()?;
    let [a, b] = &files[..] else {
        return Err("compare takes two result files".into());
    };
    let rows = compare::compare(
        &read_json(&spec)?,
        &read_json(Path::new(a))?,
        &read_json(Path::new(b))?,
    )?;
    print!("{}", compare::render(&rows));
    Ok(rows.iter().all(|r| r.verdict != compare::Verdict::Worse))
}

fn cmd_serve(mut args: Args) -> Result<bool, String> {
    let name = args.value("--workload")?.ok_or("serve needs --workload")?;
    let seed: u64 = args.parsed("--seed")?.ok_or("serve needs --seed")?;
    args.finish()?;
    child::serve(&name, seed).map_err(|e| e.to_string())?;
    Ok(true)
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let command = if argv.is_empty() {
        String::new()
    } else {
        argv.remove(0)
    };
    let result = match command.as_str() {
        "run" => cmd_run(Args(argv)),
        "compare" => cmd_compare(Args(argv)),
        "serve" => cmd_serve(Args(argv)),
        _ => Err("usage: flux-benchmark run|compare|serve ... (see README.md)".into()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        // A comparison with a worse row.
        Ok(false) => ExitCode::from(2),
        Err(message) => {
            eprintln!("flux-benchmark: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` must declare exactly what a run prints: the same
    /// workloads, the same metrics with the same units, in the same
    /// order, and the run length the command defaults to. A run prints
    /// what `metrics.rs` declares and nothing else, so this is the one
    /// place the two are held together.
    #[test]
    fn benchmark_json_matches_the_declarations() {
        let spec = read_json(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")).unwrap();
        let declared = |key: &str, field: &str| -> Vec<String> {
            spec.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| m.get(field).and_then(Json::as_str).unwrap().to_string())
                .collect()
        };
        let own = |all: Vec<&str>| all.into_iter().map(str::to_string).collect::<Vec<_>>();
        assert_eq!(
            declared("end_to_end", "name"),
            own(metrics::END_TO_END.iter().map(|m| m.name).collect())
        );
        assert_eq!(
            declared("end_to_end", "unit"),
            own(metrics::END_TO_END.iter().map(|m| m.unit).collect())
        );
        assert_eq!(
            declared("per_layer", "name"),
            own(metrics::PER_LAYER.iter().map(|m| m.name).collect())
        );
        assert_eq!(
            declared("per_layer", "unit"),
            own(metrics::PER_LAYER.iter().map(|m| m.unit).collect())
        );
        assert_eq!(
            declared("workloads", "name"),
            own(workload::SPECS.iter().map(|w| w.name).collect())
        );
        assert_eq!(spec.get("run_seconds").and_then(Json::as_f64), Some(RUN_SECONDS));
        // The issue's ceiling on a bound, and the contract's rule that
        // set-up time has the largest.
        let bounds: Vec<f64> = spec
            .get("end_to_end")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| m.get("bound").and_then(Json::as_f64).unwrap())
            .collect();
        assert_eq!(metrics::END_TO_END[0].name, "setup_s");
        assert!(bounds.iter().all(|&b| b > 0.0 && b <= bounds[0]), "{bounds:?}");
    }

    #[test]
    fn options_are_taken_out_of_the_argument_list() {
        let mut args = Args(
            ["--seed", "7", "a.json", "--smoke", "b.json"]
                .map(String::from)
                .to_vec(),
        );
        assert_eq!(args.parsed::<u64>("--seed"), Ok(Some(7)));
        assert_eq!(args.parsed::<u64>("--runs"), Ok(None));
        assert!(args.flag("--smoke") && !args.flag("--smoke"));
        assert_eq!(
            args.finish(),
            Ok(vec!["a.json".to_string(), "b.json".to_string()])
        );
        assert!(Args(vec!["--bogus".into()]).finish().is_err());
        assert!(Args(vec!["--seed".into()]).value("--seed").is_err());
    }
}
