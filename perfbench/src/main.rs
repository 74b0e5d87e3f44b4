//! The MSROPM benchmark: one command, three workloads, every output
//! checked.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_2116 --seed 1 --seconds 45 --trace 0
//! ```
//!
//! - `paper_2116`: the paper's 46×46 King's graph at its default
//!   operating point, 8-lane jobs solved back to back through
//!   `Msropm::solve_lanes` on the shard pool.
//! - `serve_hot_open`: the reactor front end over the binary wire, fed
//!   open loop by seeded Poisson arrivals at a fixed rate.
//! - `problems_cold_http`: the HTTP/JSON front end, driven closed loop
//!   with a fresh problem instance per request on the fixed-point kernel.
//!
//! With `--trace 0` the run measures the end-to-end metrics; with
//! `--trace 1` it measures the per-layer metrics and prints a table of
//! layer self-times with the unattributed residual. The last line of
//! standard output is always one JSON object; the exit code is nonzero
//! when any output failed verification.

mod layers;
mod paper;
mod problems;
mod serve;
mod stats;

use std::collections::BTreeMap;
use std::process::ExitCode;

/// Command-line arguments shared by every workload.
pub struct Args {
    /// Which workload to run.
    pub workload: String,
    /// Workload seed: every input is generated from it.
    pub seed: u64,
    /// Measured time of the run, seconds.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
}

/// How many times each run repeats its set-up; the median is reported.
pub const SETUP_REPEATS: usize = 5;

/// End-to-end metrics, printed by every `--trace 0` run.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("completed_frac", "frac"),
    ("quality", "frac"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by every `--trace 1` run. A layer a
/// workload does not pass through reads 0.
pub const PER_LAYER: [(&str, &str); 28] = [
    ("osc.rhs_ns", "ns"),
    ("osc.step_ns", "ns"),
    ("ode.noise_ns", "ns"),
    ("core.stage1_ms", "ms"),
    ("core.stage2_ms", "ms"),
    ("core.shard_speedup", "x"),
    ("core.compile_us", "us"),
    ("core.cache_hit_rate", "frac"),
    ("core.rhs_evals", "count"),
    ("core.edge_visits", "count"),
    ("ode.noise_draws", "count"),
    ("problems.parse_us", "us"),
    ("problems.compile_us", "us"),
    ("problems.decode_us", "us"),
    ("server.queue_ms", "ms"),
    ("server.service_ms", "ms"),
    ("server.transport_ms", "ms"),
    ("server.submit_rtt_ms", "ms"),
    ("server.codec_ns", "ns"),
    ("server.http_parse_ns", "ns"),
    ("server.http_polls_per_job", "count"),
    ("server.jobs_sharded", "count"),
    ("server.shard_width_max", "count"),
    ("server.report_bytes", "bytes"),
    ("graph.hash_us", "us"),
    ("bench.gen_lag_ms", "ms"),
    ("bench.unattributed_frac", "frac"),
    ("bench.trace_overhead_frac", "frac"),
];

/// The measured, untraced part of a run.
pub struct Measured {
    /// Median of the repeated set-ups, seconds.
    pub setup_s: f64,
    /// Wall time of the measured loop, seconds.
    pub wall_s: f64,
    /// Latency of every completed job, ms.
    pub latencies_ms: Vec<f64>,
    /// The tail percentile this workload reports (100 = maximum).
    pub tail_pct: f64,
    /// Mean quality over completed jobs (see each workload).
    pub quality: f64,
}

/// The traced part of a run: per-layer metrics and the layer table.
pub struct Traced {
    /// Per-layer metric values by name (missing names read 0).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Layer self-times, ms per job, in blocking order; they sum to the
    /// traced per-job time.
    pub layers: Vec<(&'static str, f64)>,
    /// Measurements inside those layers, for reading only (not summed).
    pub inside: Vec<(&'static str, f64)>,
    /// Untraced per-job time the layers should account for, ms.
    pub untraced_job_ms: f64,
}

/// Everything one workload run hands back.
pub struct Report {
    /// Jobs attempted (all segments).
    pub attempted: u64,
    /// Jobs that failed, were refused, or failed verification.
    pub failed: u64,
    /// One line per verification failure.
    pub errors: Vec<String>,
    /// Lines printed before the result (paper anchor, notes).
    pub notes: Vec<String>,
    /// End-to-end results (untraced runs).
    pub measured: Option<Measured>,
    /// Per-layer results (traced runs).
    pub traced: Option<Traced>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(20.0),
        trace: trace.unwrap_or(false),
    })
}

fn json_metric(out: &mut String, name: &str, value: f64, unit: &str) {
    if !out.ends_with('{') {
        out.push(',');
    }
    out.push_str(&format!(
        "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
    ));
}

fn print_layer_table(workload: &str, traced: &Traced) {
    let sum: f64 = traced.layers.iter().map(|(_, ms)| ms).sum();
    println!("layer self-times, {workload} (ms per job, traced segment):");
    for (name, ms) in &traced.layers {
        println!("  {name:<28} {ms:>12.4}  {:>6.1}%", 100.0 * ms / sum);
    }
    println!("  {:<28} {sum:>12.4}", "sum of layers");
    println!(
        "  {:<28} {:>12.4}",
        "untraced per-job time", traced.untraced_job_ms
    );
    println!(
        "  {:<28} {:>12.4}  {:>6.2}%",
        "unattributed",
        traced.untraced_job_ms - sum,
        100.0 * (1.0 - sum / traced.untraced_job_ms)
    );
    if !traced.inside.is_empty() {
        println!("  measured inside those layers:");
        for (name, value) in &traced.inside {
            println!("    {name:<26} {value:>12.4}");
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload paper_2116|serve_hot_open|problems_cold_http \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "paper_2116" => paper::run(&args),
        "serve_hot_open" => serve::run(&args),
        "problems_cold_http" => problems::run(&args),
        other => Err(format!("unknown workload {other}")),
    };
    let report = match result {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    for note in &report.notes {
        println!("{note}");
    }
    for error in &report.errors {
        eprintln!("perfbench: verification failed: {error}");
    }

    // A whole-run failure (an invalid open loop, a replay mismatch) adds
    // to the per-job ones, so cap the count at what was attempted.
    let attempted = report.attempted.max(1);
    let failed = report.failed.min(attempted);
    let mut metrics = String::from("{");
    if let Some(m) = &report.measured {
        let completed = m.latencies_ms.len();
        let beyond = stats::samples_beyond(completed, m.tail_pct);
        println!(
            "{completed} jobs in {:.3} s; tail = p{} ({} samples beyond it{})",
            m.wall_s,
            m.tail_pct,
            beyond,
            if m.tail_pct >= 100.0 {
                "; fewer than 11 samples, so the maximum"
            } else {
                ""
            }
        );
        let values = [
            m.setup_s,
            completed as f64 / m.wall_s,
            stats::percentile(&m.latencies_ms, 50.0),
            stats::percentile(&m.latencies_ms, m.tail_pct),
            (attempted - failed) as f64 / attempted as f64,
            m.quality,
            stats::peak_rss_mb(),
        ];
        for ((name, unit), value) in END_TO_END.iter().zip(values) {
            json_metric(&mut metrics, name, value, unit);
        }
    }
    if let Some(t) = &report.traced {
        print_layer_table(&args.workload, t);
        for (name, unit) in PER_LAYER {
            let value = t.metrics.get(name).copied().unwrap_or(0.0);
            println!("  {name:<28} {value:>16.4} {unit}");
            json_metric(&mut metrics, name, value, unit);
        }
    }
    metrics.push('}');
    let finite = !metrics.contains("NaN") && !metrics.contains("inf");
    let correct = failed == 0 && report.errors.is_empty() && finite && report.attempted > 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{metrics}}}"
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
