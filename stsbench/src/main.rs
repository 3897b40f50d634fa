//! The STS-k stack benchmark.
//!
//! ```text
//! cargo run --release --manifest-path stsbench/Cargo.toml -- \
//!     --workload pcg_grid3d --seed 1 --seconds 25 --trace 0
//! ```
//!
//! An untraced run (`--trace 0`) reports the end-to-end metrics; a traced
//! run (`--trace 1`) reports the per-layer metrics and writes a Chrome
//! trace to `stsbench/out/`. Every output is checked; the last line of
//! standard output is the JSON summary. See `stsbench/README.md`.

mod check;
mod inproc;
mod inputs;
mod layers;
mod pcg_grid3d;
mod report;
mod served;
mod spans;
mod stats;

use check::Tally;
use report::Metrics;
use spans::Tracer;
use stats::{median, percentile};
use std::process::ExitCode;
use std::time::Duration;

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 3] = ["pcg_grid3d", "serve_grid2d", "serve_churn"];

/// Solves a timed loop needs at least: 200 leave ten beyond p95.
const MIN_SOLVES: usize = 200;
/// Solves a traced loop needs at least: 20 leave ten beyond p50.
const MIN_TRACED_SOLVES: usize = 20;

/// Command-line settings of one run.
pub struct Config {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Worker threads: the host's available parallelism.
    threads: usize,
}

impl Config {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Config, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or(format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
                "--seconds" => {
                    seconds = value
                        .parse()
                        .map_err(|_| format!("bad --seconds {value}"))?
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("bad --trace {value}; 0 or 1")),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
        }
        if !seconds.is_finite() || seconds <= 0.0 {
            return Err("--seconds must be positive".to_string());
        }
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        Ok(Config {
            workload,
            seed,
            seconds,
            trace,
            threads,
        })
    }

    /// The untraced closed loop: `--seconds` long and at least
    /// [`MIN_SOLVES`] solves, in every run.
    pub fn untraced_loop(&self) -> (Duration, usize) {
        (Duration::from_secs_f64(self.seconds), MIN_SOLVES)
    }

    /// The traced loop a traced run adds: half as long, at least
    /// [`MIN_TRACED_SOLVES`] solves.
    pub fn traced_loop(&self) -> (Duration, usize) {
        (
            Duration::from_secs_f64(self.seconds / 2.0),
            MIN_TRACED_SOLVES,
        )
    }
}

/// The state one run accumulates.
#[derive(Default)]
pub struct Run {
    m: Metrics,
    tally: Tally,
    /// Created by the first traced loop, timed by its clock.
    tracer: Option<Tracer>,
}

impl Run {
    /// The untraced closed loop's metrics: `solve_ms.p50` in an untraced
    /// run; in a traced run the tail and throughput, `solve_ms.p95` and
    /// `solves_per_s`, which steal-time bursts on a shared host move too far
    /// between runs to carry a bound.
    pub fn put_loop_metrics(&mut self, trace: bool, solve_ns: &[f64]) -> Result<(), String> {
        if !trace {
            self.m
                .put("solve_ms.p50", percentile(solve_ns, 50.0)? / 1e6, "ms");
            return Ok(());
        }
        self.m
            .put("solve_ms.p95", percentile(solve_ns, 95.0)? / 1e6, "ms");
        let busy_s: f64 = solve_ns.iter().sum::<f64>() / 1e9;
        self.m
            .put("solves_per_s", solve_ns.len() as f64 / busy_s, "1/s");
        Ok(())
    }

    /// `setup_s`: the median of the run's set-ups.
    pub fn put_setup(&mut self, setup_ns: &[f64]) {
        self.m.put("setup_s", median(setup_ns) / 1e9, "s");
    }

    /// The benchmark-level shares of a traced run.
    pub fn put_bench_shares(
        &mut self,
        unattributed: f64,
        untraced_ns: &[f64],
        traced_ns: &[f64],
    ) -> Result<(), String> {
        self.m
            .put("bench.unattributed_share", unattributed, "ratio");
        let overhead = percentile(traced_ns, 50.0)? / percentile(untraced_ns, 50.0)? - 1.0;
        self.m.put("bench.trace_overhead_share", overhead, "ratio");
        let dropped = self.tracer.as_ref().map_or(0, Tracer::dropped);
        self.m.put("trace.spans_dropped", dropped as f64, "count");
        Ok(())
    }
}

/// The process's resident-set high-water mark (`VmHWM`), MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Host CPU time so far as `(total, stolen)` clock ticks, from the first
/// line of `/proc/stat`; `None` where the host does not report steal time.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    Some((ticks.iter().sum(), *ticks.get(7)?))
}

fn execute(cfg: &Config) -> Result<Run, String> {
    let ticks_before = cpu_ticks();
    let mut run = Run::default();
    match cfg.workload.as_str() {
        "pcg_grid3d" => pcg_grid3d::run(cfg, &mut run)?,
        "serve_grid2d" => served::run(cfg, &mut run, false)?,
        _ => served::run(cfg, &mut run, true)?,
    }
    if cfg.trace {
        run.m
            .put("bench.failed_share", run.tally.failed_share(), "ratio");
        run.m.put("host.nproc", cfg.threads as f64, "count");
        // The share of the host's CPU time the hypervisor stole during the
        // run (0 where unreported): the first suspect of a slow run.
        let steal = match (ticks_before, cpu_ticks()) {
            (Some((t0, s0)), Some((t1, s1))) => (s1 - s0) as f64 / (t1 - t0).max(1) as f64,
            _ => 0.0,
        };
        run.m.put("host.steal_share", steal, "ratio");
        layers::triad_layer(&mut run.m, cfg.threads);
        if let Some(tracer) = &run.tracer {
            let dir = std::path::Path::new("stsbench/out");
            std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
            let path = dir.join(format!("trace-{}-{}.json", cfg.workload, cfg.seed));
            std::fs::write(&path, tracer.chrome_json()).map_err(|e| e.to_string())?;
            eprintln!("chrome trace: {}", path.display());
        }
    } else {
        run.m.put("peak_rss_mb", peak_rss_mb()?, "MiB");
    }
    Ok(run)
}

fn main() -> ExitCode {
    let cfg = match Config::parse(std::env::args().skip(1)) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("stsbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut run = match execute(&cfg) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("stsbench: {} failed: {e}", cfg.workload);
            return ExitCode::FAILURE;
        }
    };
    if let Some(name) = run.m.non_finite() {
        run.tally
            .record(Err::<(), String>(format!("metric {name} is not finite")));
    }
    if let Some(failure) = run.tally.first_failure() {
        eprintln!("stsbench: first failure: {failure}");
    }
    println!(
        "{} seed {} ({} workers, {} run): {} attempted, {} failed",
        cfg.workload,
        cfg.seed,
        cfg.threads,
        if cfg.trace { "traced" } else { "untraced" },
        run.tally.attempted(),
        run.tally.failed()
    );
    print!("{}", run.m.table());
    println!("{}", run.m.summary_json(&run.tally));
    ExitCode::SUCCESS
}
