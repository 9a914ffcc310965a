//! `benchmark run`: every workload, each run in a child process of this
//! executable (so `rss_peak_mib` is one workload's and a hang is killed,
//! not waited for), repeated and summarised into one JSON document — and
//! `benchmark compare`, which judges two such documents against the
//! bounds in [`crate::spec::E2E`].

use crate::gen::Scale;
use crate::host;
use crate::json::Json;
use crate::spec::{self, Better};
use crate::stats::Spread;
use std::io::Read;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// A workload that has not printed its result by now is killed and every
/// operation it still owed counts as failed.
const WORKLOAD_TIMEOUT: Duration = Duration::from_secs(170);

pub struct RunArgs {
    pub seed: u64,
    pub runs: usize,
    pub seconds: f64,
    pub scale: Scale,
    pub trace: bool,
    pub out: Option<PathBuf>,
}

impl RunArgs {
    pub fn parse(args: &[String]) -> Result<RunArgs, String> {
        let mut parsed = RunArgs {
            seed: 2002,
            runs: 0,
            seconds: 0.0,
            scale: Scale::Full,
            trace: false,
            out: None,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if flag == "--trace" {
                parsed.trace = true;
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad {flag} {value}");
            match flag.as_str() {
                "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
                "--runs" => parsed.runs = value.parse().map_err(|_| bad())?,
                "--seconds" => parsed.seconds = value.parse().map_err(|_| bad())?,
                "--scale" => parsed.scale = Scale::parse(value).ok_or_else(bad)?,
                "--out" => parsed.out = Some(PathBuf::from(value)),
                other => return Err(format!("unknown argument {other}")),
            }
        }
        // A smoke run is one quick pass; a full run repeats so that spread
        // is a recorded number.
        let (runs, seconds) = match parsed.scale {
            Scale::Full => (5, 16.0),
            Scale::Smoke => (1, 1.0),
        };
        if parsed.runs == 0 {
            parsed.runs = runs;
        }
        if parsed.seconds == 0.0 {
            parsed.seconds = seconds;
        }
        Ok(parsed)
    }
}

/// One child's last stdout line, or why there is none.
fn run_child(workload: &str, args: &RunArgs) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut child = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .args(["--scale", args.scale.name()])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn: {e}"))?;
    let deadline = Instant::now() + WORKLOAD_TIMEOUT;
    let status = loop {
        match child.try_wait().map_err(|e| e.to_string())? {
            Some(status) => break status,
            None if Instant::now() >= deadline => {
                child.kill().ok();
                child.wait().ok();
                return Err(format!("no result within {WORKLOAD_TIMEOUT:?}; killed"));
            }
            None => std::thread::sleep(Duration::from_millis(50)),
        }
    };
    let mut stdout = String::new();
    child
        .stdout
        .take()
        .expect("stdout was piped")
        .read_to_string(&mut stdout)
        .map_err(|e| e.to_string())?;
    if !status.success() {
        return Err(format!("exited with {status}"));
    }
    let line = stdout.lines().last().ok_or("printed nothing")?;
    Json::parse(line)
}

struct WorkloadRuns {
    name: &'static str,
    attempted: u64,
    failed: u64,
    /// `(metric, unit, one value per successful run)`, in table order.
    metrics: Vec<(String, String, Vec<f64>)>,
}

pub fn run(args: &RunArgs) -> Result<bool, String> {
    let target = crate::deploy::target_dir();
    std::fs::create_dir_all(&target).map_err(|e| e.to_string())?;
    let header = Json::obj([
        ("git_rev", Json::str(host::git_rev())),
        ("host_cpus", Json::Num(host::cpus() as f64)),
        (
            "kernel_tier",
            Json::str(bbs_bitslice::ops_simd::active_tier().name()),
        ),
        ("fs_type", Json::str(host::fs_type(&target))),
        ("seed", Json::Num(args.seed as f64)),
        ("scale", Json::str(args.scale.name())),
        ("seconds", Json::Num(args.seconds)),
        ("runs", Json::Num(args.runs as f64)),
        ("traced", Json::Bool(args.trace)),
    ]);
    println!("# {}", header.render());

    let mut all = Vec::new();
    for workload in &spec::WORKLOADS {
        let mut runs = WorkloadRuns {
            name: workload.name,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
        };
        for round in 0..args.runs {
            match run_child(workload.name, args) {
                Ok(line) => {
                    let count = |key: &str| line.get(key).and_then(Json::as_f64).unwrap_or(0.0);
                    runs.attempted += count("attempted") as u64;
                    runs.failed += count("failed") as u64;
                    let reported = line.get("metrics").and_then(Json::as_obj).unwrap_or(&[]);
                    for (name, metric) in reported {
                        let value = metric.get("value").and_then(Json::as_f64);
                        let unit = metric.get("unit").and_then(Json::as_str).unwrap_or("");
                        let Some(value) = value else { continue };
                        match runs.metrics.iter_mut().find(|(n, _, _)| n == name) {
                            Some((_, _, values)) => values.push(value),
                            None => runs.metrics.push((name.clone(), unit.into(), vec![value])),
                        }
                    }
                }
                Err(why) => {
                    // The run owed at least its result; it delivered nothing.
                    eprintln!("benchmark run: {} run {round}: {why}", workload.name);
                    runs.attempted += 1;
                    runs.failed += 1;
                }
            }
        }
        println!(
            "\n{}  (attempted {}, failed {}, failed_ratio {})",
            runs.name,
            runs.attempted,
            runs.failed,
            runs.failed as f64 / runs.attempted.max(1) as f64
        );
        for (name, unit, values) in &runs.metrics {
            let s = Spread::of(values);
            println!(
                "  {name:<40} {:>14.4} {unit:<10} q1 {:<12.4} q3 {:<12.4} n={}",
                s.median, s.q1, s.q3, s.n
            );
        }
        all.push(runs);
    }

    let failed: u64 = all.iter().map(|w| w.failed).sum();
    let workloads = all
        .iter()
        .map(|w| {
            let metrics = w
                .metrics
                .iter()
                .map(|(name, unit, values)| {
                    let s = Spread::of(values);
                    (
                        name.clone(),
                        Json::obj([
                            ("unit", Json::str(unit)),
                            ("median", Json::Num(s.median)),
                            ("q1", Json::Num(s.q1)),
                            ("q3", Json::Num(s.q3)),
                            ("n", Json::Num(s.n as f64)),
                            (
                                "values",
                                Json::Arr(values.iter().map(|v| Json::Num(*v)).collect()),
                            ),
                        ]),
                    )
                })
                .collect();
            Json::obj([
                ("name", Json::str(w.name)),
                ("attempted", Json::Num(w.attempted as f64)),
                ("failed", Json::Num(w.failed as f64)),
                (
                    "failed_ratio",
                    Json::Num(w.failed as f64 / w.attempted.max(1) as f64),
                ),
                ("metrics", Json::Obj(metrics)),
            ])
        })
        .collect();
    let doc = Json::obj([("header", header), ("workloads", Json::Arr(workloads))]);
    if let Some(out) = &args.out {
        std::fs::write(out, doc.render_pretty()).map_err(|e| format!("{}: {e}", out.display()))?;
        println!("\nwrote {}", out.display());
    }
    Ok(failed == 0)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    WithinBound,
    Regressed,
    /// The two files' own run-to-run spread exceeds the bound: no claim
    /// either way.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::WithinBound => "within-bound",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges one (workload, metric) pair.  `*_spread` is each side's
/// interquartile distance as a share of its median.
pub fn verdict(
    better: Better,
    bound: f64,
    old: f64,
    new: f64,
    old_spread: f64,
    new_spread: f64,
) -> Verdict {
    let spread = old_spread.max(new_spread);
    let worsening = better.worsening(old, new);
    if spread > bound {
        Verdict::Unresolved
    } else if worsening > 1.0 + bound {
        Verdict::Regressed
    } else if 1.0 / worsening > 1.0 + spread && worsening < 1.0 {
        Verdict::Improved
    } else {
        Verdict::WithinBound
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// The median and quartiles a `run` document records for one metric.
fn recorded_spread(metric: &Json) -> Option<Spread> {
    let field = |k: &str| metric.get(k).and_then(Json::as_f64);
    Some(Spread {
        median: field("median")?,
        q1: field("q1")?,
        q3: field("q3")?,
        n: field("n")? as usize,
    })
}

/// `Ok(true)` when nothing regressed and no `failed_ratio` rose.
pub fn compare(old_path: &str, new_path: &str) -> Result<bool, String> {
    let (old, new) = (load(old_path)?, load(new_path)?);
    for key in ["scale", "seed", "traced"] {
        let of = |doc: &Json| doc.get("header").and_then(|h| h.get(key)).cloned();
        if of(&old) != of(&new) {
            return Err(format!(
                "refusing to compare: {key} differs ({:?} vs {:?})",
                of(&old),
                of(&new)
            ));
        }
    }
    let workloads = |doc: &Json| -> Vec<Json> {
        doc.get("workloads")
            .and_then(Json::as_arr)
            .map(<[Json]>::to_vec)
            .unwrap_or_default()
    };
    let (old_workloads, new_workloads) = (workloads(&old), workloads(&new));
    let mut clean = true;
    println!(
        "{:<14} {:<22} {:>14} {:>14} {:>18} {:>6}  verdict",
        "workload", "metric", "old", "new", "new/old (base old)", "bound"
    );
    for w_old in &old_workloads {
        let name = w_old.get("name").and_then(Json::as_str).unwrap_or("");
        let Some(w_new) = new_workloads
            .iter()
            .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
        else {
            continue;
        };
        let ratio = |w: &Json| w.get("failed_ratio").and_then(Json::as_f64).unwrap_or(0.0);
        if ratio(w_new) > ratio(w_old) {
            println!(
                "{name:<14} {:<22} {:>14} {:>14}  failed_ratio rose",
                "failed_ratio",
                ratio(w_old),
                ratio(w_new)
            );
            clean = false;
        }
        for m in &spec::E2E {
            let of = |w: &Json| w.get("metrics").and_then(|ms| ms.get(m.name)).cloned();
            let (Some(m_old), Some(m_new)) = (of(w_old), of(w_new)) else {
                continue;
            };
            let (Some(s_old), Some(s_new)) = (recorded_spread(&m_old), recorded_spread(&m_new))
            else {
                continue;
            };
            let (a, b) = (s_old.median, s_new.median);
            let v = verdict(
                m.better,
                m.bound,
                a,
                b,
                s_old.relative_iqr(),
                s_new.relative_iqr(),
            );
            clean &= v != Verdict::Regressed;
            println!(
                "{name:<14} {:<22} {a:>14.4} {b:>14.4} {:>11.3} of {a:<9.4} {:>5.0}%  {}",
                m.name,
                b / a,
                m.bound * 100.0,
                v.as_str()
            );
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_and_spread() {
        use Better::{Higher, Lower};
        // Lower is better, bound 10 %.
        assert_eq!(
            verdict(Lower, 0.1, 100.0, 105.0, 0.02, 0.03),
            Verdict::WithinBound
        );
        assert_eq!(
            verdict(Lower, 0.1, 100.0, 111.0, 0.02, 0.03),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(Lower, 0.1, 100.0, 90.0, 0.02, 0.03),
            Verdict::Improved
        );
        // A gain smaller than the run-to-run spread is not a gain.
        assert_eq!(
            verdict(Lower, 0.1, 100.0, 98.0, 0.02, 0.03),
            Verdict::WithinBound
        );
        // Spread wider than the bound: no claim, even for a big move.
        assert_eq!(
            verdict(Lower, 0.1, 100.0, 150.0, 0.12, 0.03),
            Verdict::Unresolved
        );
        // Higher is better: the same moves read the other way round.
        assert_eq!(
            verdict(Higher, 0.1, 100.0, 89.0, 0.01, 0.01),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(Higher, 0.1, 100.0, 120.0, 0.01, 0.01),
            Verdict::Improved
        );
        assert_eq!(
            verdict(Higher, 0.1, 100.0, 95.0, 0.01, 0.01),
            Verdict::WithinBound
        );
    }

    #[test]
    fn run_args_default_by_scale() {
        let full = RunArgs::parse(&[]).unwrap();
        assert_eq!((full.seed, full.runs, full.seconds), (2002, 5, 16.0));
        let smoke = RunArgs::parse(&["--scale".into(), "smoke".into(), "--trace".into()]).unwrap();
        assert_eq!((smoke.runs, smoke.seconds, smoke.trace), (1, 1.0, true));
        assert!(RunArgs::parse(&["--runs".into()]).is_err());
        assert!(RunArgs::parse(&["--bogus".into(), "1".into()]).is_err());
    }
}
