//! `benchmark` — the one benchmark of the BBS service.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--scale full|smoke]
//! benchmark run [--seed 2002] [--runs 5] [--seconds 16] [--scale full|smoke] [--trace] [--out FILE]
//! benchmark compare OLD.json NEW.json
//! benchmark spec                      # prints BENCHMARK.json from the tables
//! ```
//!
//! The first form is what `BENCHMARK.json`'s `command` runs: one workload,
//! one process, one JSON object as the last line of standard output
//! (everything else goes to standard error).  `run` drives the first form
//! once per workload and repetition and summarises; `compare` judges two
//! of its documents.  `README.md` beside this package has the metrics and
//! what is predicted to move them.

mod deploy;
mod e2e;
mod gen;
mod host;
mod json;
mod layers;
mod oracle;
mod report;
mod spec;
mod stats;
mod trace;

use deploy::DataDir;
use e2e::Tally;
use gen::Scale;
use json::Json;
use std::process::ExitCode;

/// How long one workload may take before the process gives up on it.
const WATCHDOG: std::time::Duration = std::time::Duration::from_secs(170);

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut scale = Scale::Full;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad {flag} {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds {value} outside (0, 60]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--scale" => scale = Scale::parse(value).ok_or_else(bad)?,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale,
    })
}

/// The result object: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_line(tally: Tally, metrics: &[(&str, &str, f64)]) -> Json {
    Json::obj([
        ("correct", Json::Bool(tally.failed == 0)),
        ("attempted", Json::Num(tally.attempted as f64)),
        ("failed", Json::Num(tally.failed as f64)),
        (
            "metrics",
            Json::obj(metrics.iter().map(|(name, unit, value)| {
                (
                    *name,
                    Json::obj([("value", Json::Num(*value)), ("unit", Json::str(*unit))]),
                )
            })),
        ),
    ])
}

/// One workload, untraced (every end-to-end metric) or traced (every
/// per-layer metric).  The table goes to standard error.
fn run_workload(args: &Args, data: &DataDir) -> Result<Json, String> {
    let spec = e2e::workload(&args.workload).ok_or_else(|| {
        let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        format!(
            "unknown workload {}; one of {}",
            args.workload,
            names.join(", ")
        )
    })?;
    if args.trace {
        let spans_path = deploy::target_dir()
            .join("benchmark-trace")
            .join(format!("{}-{}.spans.json", spec.name, args.seed));
        let outcome = layers::run(&spec, args.scale, args.seed, data, spans_path)
            .map_err(|e| format!("{} (traced): {e}", spec.name))?;
        eprintln!("# stream digest {:016x}", outcome.digest);
        let mut metrics = Vec::new();
        for ((name, value), m) in outcome.metrics.iter().zip(&spec::LAYER) {
            let exact = if m.exact { "(=)" } else { "" };
            eprintln!(
                "{name:<40} {value:>16.4} {:<7} {exact:<3} moves {} on {}",
                m.unit, m.moves, m.on
            );
            metrics.push((*name, m.unit, *value));
        }
        eprintln!("# self time by span name (span minus its children), the ten largest:");
        for (name, t) in outcome.self_times.iter().take(10) {
            eprintln!(
                "#   {name:<32} {:>8} spans {:>10.3} ms self {:>10.3} ms total",
                t.count,
                t.self_ns as f64 / 1e6,
                t.total_ns as f64 / 1e6
            );
        }
        eprintln!(
            "# attempted {} failed {}; spans in {}",
            outcome.tally.attempted,
            outcome.tally.failed,
            outcome.spans_path.display()
        );
        Ok(result_line(outcome.tally, &metrics))
    } else {
        let outcome = e2e::run(&spec, args.scale, args.seed, args.seconds, data)
            .map_err(|e| format!("{}: {e}", spec.name))?;
        eprintln!("# stream digest {:016x}", outcome.digest);
        let mut metrics = Vec::new();
        for (name, value) in &outcome.metrics {
            let m = spec::e2e_metric(name).expect("emitters use table names");
            let n = outcome
                .samples
                .iter()
                .find(|(s, _)| s == name)
                .map_or(String::new(), |(_, n)| format!("  (n={n})"));
            eprintln!(
                "{:<22} {value:>14.4} {:<10}{n:<12}  {}",
                m.name, m.unit, m.what
            );
            metrics.push((m.name, m.unit, *value));
        }
        eprintln!(
            "# attempted {} failed {}",
            outcome.tally.attempted, outcome.tally.failed
        );
        Ok(result_line(outcome.tally, &metrics))
    }
}

fn single(args: &[String]) -> Result<(), String> {
    let args = parse_args(args)?;
    let host_cpus = host::cpus();
    let pinned = host::pin_to_one_cpu();
    let data = DataDir::create().map_err(|e| format!("data directory: {e}"))?;
    if let Some(w) = spec::workload_index(&args.workload) {
        eprintln!("# {}", spec::WORKLOADS[w].why);
    }
    eprintln!(
        "# {} seed {} scale {} ({} s) on {} ({}), {host_cpus} cpus, pinned to {}, kernel tier {}",
        args.workload,
        args.seed,
        args.scale.name(),
        args.seconds,
        data.path().display(),
        host::fs_type(data.path()),
        pinned.map_or("none".into(), |c| format!("cpu {c}")),
        bbs_bitslice::ops_simd::active_tier().name(),
    );
    // A hang must not hold up whoever is waiting: well inside the driver's
    // 180 s, the scratch data goes and the process exits without a result.
    let scratch = data.path().to_path_buf();
    std::thread::spawn(move || {
        std::thread::sleep(WATCHDOG);
        eprintln!("benchmark: no result after {WATCHDOG:?}; giving up");
        std::fs::remove_dir_all(&scratch).ok();
        std::process::exit(2);
    });
    let line = run_workload(&args, &data)?;
    // The data directory goes before the result does: a caller that sees
    // the last line may remove the checkout.
    drop(data);
    println!("{}", line.render());
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => report::RunArgs::parse(&args[1..]).and_then(|a| report::run(&a)),
        Some("spec") => {
            print!("{}", spec::benchmark_json().render_pretty());
            Ok(true)
        }
        Some("compare") => match &args[1..] {
            [old, new] => report::compare(old, new),
            _ => Err("usage: benchmark compare OLD.json NEW.json".into()),
        },
        _ => single(&args).map(|()| true),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload at smoke scale, untraced and traced: every phase,
    /// every seam and every correctness check runs, every metric of the
    /// tables is emitted and nothing else, and nothing fails.
    #[test]
    fn smoke_scale_walks_every_phase_and_emits_exactly_the_tables() {
        let data = DataDir::create().expect("data directory");
        for workload in &spec::WORKLOADS {
            for trace in [false, true] {
                let args = Args {
                    workload: workload.name.into(),
                    seed: 2002,
                    seconds: 1.0,
                    trace,
                    scale: Scale::Smoke,
                };
                let line = run_workload(&args, &data)
                    .unwrap_or_else(|e| panic!("{} trace {trace}: {e}", workload.name));
                let keys: Vec<&str> = line
                    .as_obj()
                    .expect("an object")
                    .iter()
                    .map(|(k, _)| k.as_str())
                    .collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
                assert_eq!(
                    line.get("correct"),
                    Some(&Json::Bool(true)),
                    "{}",
                    workload.name
                );
                assert_eq!(line.get("failed").and_then(Json::as_f64), Some(0.0));
                assert!(line.get("attempted").and_then(Json::as_f64) >= Some(1.0));
                let emitted: Vec<(&str, &str)> = line
                    .get("metrics")
                    .and_then(Json::as_obj)
                    .expect("metrics")
                    .iter()
                    .map(|(name, m)| {
                        let value = m.get("value").and_then(Json::as_f64).expect("a value");
                        assert!(value.is_finite(), "{name} is {value}");
                        // A gated metric may never read 0.
                        assert!(trace || value > 0.0, "{name} is {value}");
                        let unit = m.get("unit").and_then(Json::as_str).expect("a unit");
                        (name.as_str(), unit)
                    })
                    .collect();
                let table: Vec<(&str, &str)> = if trace {
                    spec::LAYER.iter().map(|m| (m.name, m.unit)).collect()
                } else {
                    spec::E2E.iter().map(|m| (m.name, m.unit)).collect()
                };
                assert_eq!(emitted, table, "{} trace {trace}", workload.name);
            }
        }
    }

    #[test]
    fn the_driver_flags_are_all_required_and_checked() {
        let ok: Vec<String> = "--workload quest-warm --seed 7 --seconds 16 --trace 0"
            .split(' ')
            .map(String::from)
            .collect();
        let parsed = parse_args(&ok).unwrap();
        assert_eq!(
            (parsed.seed, parsed.seconds, parsed.trace),
            (7, 16.0, false)
        );
        assert!(parse_args(&ok[..6]).is_err(), "--trace missing");
        for (at, bad) in [(3, "x"), (5, "0"), (5, "61"), (7, "2")] {
            let mut args = ok.clone();
            args[at] = bad.into();
            assert!(parse_args(&args).is_err(), "{bad} accepted");
        }
    }
}
