//! The repository benchmark.
//!
//! ```text
//! mbdr-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload in this process, checks its outputs, and prints a detail
//! line followed by the result line: one JSON object with `correct`,
//! `attempted`, `failed` and the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics (`--trace 1`). Exits 0 when the run was correct, 1 when a
//! check failed, 2 on bad arguments. Scratch files live under
//! `.perfbench_work/` in the working directory and are removed on exit; the
//! traced run leaves its spans in `.perfbench_out/`.

mod city;
mod device;
mod inputs;
mod metrics;
mod procfs;
mod rush;
mod spans;
mod stats;

use metrics::{Outcome, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::time::Duration;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["city_served", "rush_hour_query", "device_protocol"];

/// How many times each workload builds its inputs and serving stack. Only the
/// last build, from `--seed` itself, is measured; the others draw their inputs
/// from seeds derived from it (see [`setup_seed`]). `setup_s` is the mean build
/// time. Set-up cost depends on the inputs: on about two device seeds in five
/// one city map takes ten times longer to build than the others. With every
/// build on the run's own seed, `setup_s` was bimodal across seeds, and its
/// median over ten seeds moved by 21 % between two sets of seeds.
pub const SETUP_REPS: usize = 6;

/// Seed of set-up build `rep`: a derived seed for all but the last build,
/// which builds the run's own inputs.
pub fn setup_seed(seed: u64, rep: usize) -> u64 {
    if rep + 1 == SETUP_REPS {
        seed
    } else {
        seed ^ (rep as u64 + 1).wrapping_mul(0xD6E8_FEB8_6659_FD93)
    }
}

const USAGE: &str =
    "usage: mbdr-perfbench --workload <city_served|rush_hour_query|device_protocol> \
     --seed <u64> --seconds <1..=600> --trace <0|1>";

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub run_for: Duration,
    pub trace: bool,
    /// Per-run scratch directory (journals).
    pub work_dir: PathBuf,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<u64>().ok().filter(|s| (1..=600).contains(s)),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => return Err(format!("unknown flag or value: {flag} {value}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let work_dir =
        PathBuf::from(".perfbench_work").join(format!("{workload}-{}", std::process::id()));
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed must be an unsigned integer")?,
        run_for: Duration::from_secs(seconds.ok_or("--seconds must be in 1..=600")?),
        trace: trace.ok_or("--trace must be 0 or 1")?,
        work_dir,
    })
}

/// Rounds each workload's measured time is split into. Each end-to-end
/// figure is the median of the per-round figures, so that a disturbance in one
/// round does not move it.
pub const ROUNDS: usize = 9;

/// Per-round figures of the end-to-end metrics a round measures.
#[derive(Default)]
pub struct Rounds {
    ops_per_s: Vec<f64>,
    p50_ms: Vec<f64>,
    p99_ms: Vec<f64>,
    cpu_us_per_op: Vec<f64>,
    samples: usize,
    min_beyond: Option<usize>,
}

impl Rounds {
    /// Adds one round's throughput, process CPU per operation and latency
    /// samples. A round with too few samples for a p99 is a failed check.
    pub fn add(
        &mut self,
        out: &mut Outcome,
        ops_per_s: f64,
        cpu_us_per_op: f64,
        latencies_ms: &mut [f64],
    ) {
        self.ops_per_s.push(ops_per_s);
        self.cpu_us_per_op.push(cpu_us_per_op);
        let n = latencies_ms.len();
        match stats::p50_p99(latencies_ms) {
            Some((p50, p99)) => {
                self.p50_ms.push(p50.value);
                self.p99_ms.push(p99.value);
                self.samples += p99.samples;
                self.min_beyond = Some(self.min_beyond.map_or(p99.beyond, |b| b.min(p99.beyond)));
            }
            None => out.problem(format!("a round had {n} latency samples, too few for a p99")),
        }
    }

    /// Sets the medians over rounds, peak memory, and the sample counts.
    pub fn set_metrics(&self, out: &mut Outcome) {
        let med = |v: &[f64]| if v.is_empty() { 0.0 } else { stats::median(v) };
        out.set("ops_per_s", med(&self.ops_per_s));
        out.set("latency_p50_ms", med(&self.p50_ms));
        out.set("latency_p99_ms", med(&self.p99_ms));
        out.set("cpu_us_per_op", med(&self.cpu_us_per_op));
        out.set("peak_rss_mb", procfs::peak_rss_mib().unwrap_or(0.0));
        for (i, v) in self.ops_per_s.iter().enumerate() {
            out.detail(&format!("round{i}_ops_per_s"), *v);
        }
        for (i, v) in self.p99_ms.iter().enumerate() {
            out.detail(&format!("round{i}_p99_ms"), *v);
        }
        out.detail("rounds", self.ops_per_s.len() as f64);
        out.detail("latency_samples", self.samples as f64);
        out.detail("latency_p99_min_beyond_per_round", self.min_beyond.unwrap_or(0) as f64);
    }
}

/// Sets the per-layer self times and span counts of a traced run, and writes
/// its spans to `.perfbench_out/spans-<workload>-<seed>.tsv`.
pub fn finish_trace(out: &mut Outcome, bufs: &[&spans::SpanBuf], args: &Args) -> spans::Summary {
    let mut summary = spans::Summary::default();
    for buf in bufs {
        summary.add(buf);
    }
    for (layer, name) in metrics::SELF_TIME {
        out.set(name, summary.layer_mean_self_ns(layer));
    }
    out.set("trace.spans", summary.spans as f64);
    out.set("trace.spans_dropped", summary.dropped as f64);
    let path =
        PathBuf::from(".perfbench_out").join(format!("spans-{}-{}.tsv", args.workload, args.seed));
    if let Err(e) = spans::write_tsv(&path, bufs) {
        out.problem(format!("writing {}: {e}", path.display()));
    }
    summary
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let _ = std::fs::remove_dir_all(&args.work_dir);
    let mut out = match args.workload.as_str() {
        "city_served" => city::run(&args),
        "rush_hour_query" => rush::run(&args),
        _ => device::run(&args),
    };
    let _ = std::fs::remove_dir_all(&args.work_dir);
    // Remove the scratch root too when no concurrent run still uses it.
    let _ = std::fs::remove_dir(".perfbench_work");

    let (catalogue, other) =
        if args.trace { (PER_LAYER, END_TO_END) } else { (END_TO_END, PER_LAYER) };
    for name in out.complete(catalogue, other) {
        out.problem(format!("metric {name} is not in the catalogue"));
    }
    if !args.trace {
        let ok = (out.attempted.max(1) - out.failed.min(out.attempted)) as f64;
        out.set("ok_op_ratio", ok / out.attempted.max(1) as f64);
        for d in END_TO_END {
            if out.metrics[d.name] <= 0.0 {
                out.problem(format!("end-to-end metric {} was not measured", d.name));
            }
        }
    }
    out.detail("attempted", out.attempted as f64);
    out.detail("failed", out.failed as f64);
    println!("{}", out.detail_line());
    println!("{}", out.result_line(catalogue));
    std::process::exit(if out.correct() { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse("--workload rush_hour_query --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.run_for.as_secs(), a.trace),
            ("rush_hour_query", 7, 12, true)
        );
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            "",
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload city_served --seed -1 --seconds 1 --trace 0",
            "--workload city_served --seed 1 --seconds 0 --trace 0",
            "--workload city_served --seed 1 --seconds 5 --trace 2",
            "--workload city_served --seed 1 --seconds 5",
            "--workload city_served --seed 1 --seconds 5 --trace 0 --extra 1",
            "--workload city_served --seed",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should be refused");
        }
    }
}
