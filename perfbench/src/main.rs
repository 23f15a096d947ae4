//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload uk_gather [--seed 2025] [--seconds 10] [--trace 0|1]
//! ```
//!
//! With `--trace 0` it times whole points (generate, route, simulate,
//! check) for `--seconds` and prints the end-to-end metrics; with
//! `--trace 1` it records spans around every layer call, replays the
//! point's streams through the component models and prints the per-layer
//! metrics. Every point's outputs are checked either way. The last line
//! of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! See `perfbench/README.md` for the workloads and what each metric is
//! expected to move.

mod replay;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use netsparse::SimReport;
use stats::{median, quantile, supported_percentile};
use trace::Recorder;
use workload::{
    run_point, simulate_caught, Fingerprint, Point, PointTimes, Seeds, Workload, WORKLOADS,
};

/// Matrix generator seed when `--matrix-seed` is not given; `--seed`
/// (the input relabeling) defaults to it too.
const DEFAULT_SEED: u64 = 2025;
/// Matrix seed held out from tuning: a claimed gain must also hold on it.
const HELD_OUT_SEED: u64 = 7919;
/// Repetitions of the component replays in a traced run.
const REPLAY_REPS: usize = 3;

struct Args {
    workload: Workload,
    seeds: Seeds,
    seconds: f64,
    trace: bool,
    rss_probe: bool,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: perfbench --workload <{}> [--seed N] [--matrix-seed N] [--seconds S] [--trace 0|1]\n\
         seeds default to {DEFAULT_SEED}; matrix seed {HELD_OUT_SEED} is held out for checking claims",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut matrix_seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut rss_probe = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--rss-probe" {
            rss_probe = true;
            continue;
        }
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what} '{val}'");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::find(&val).ok_or_else(|| bad("workload"))?);
            }
            "--seed" => seed = val.parse().map_err(|_| bad("seed"))?,
            "--matrix-seed" => matrix_seed = val.parse().map_err(|_| bad("matrix seed"))?,
            "--seconds" => {
                seconds = val.parse().map_err(|_| bad("seconds"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(bad("seconds"));
                }
            }
            "--trace" => {
                trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seeds: Seeds {
            matrix: matrix_seed,
            relabel: seed,
        },
        seconds,
        trace,
        rss_probe,
    })
}

/// One reported metric; `samples` is how many observations it rests on.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: usize,
    /// Highest supported percentile and its value, for timings.
    tail: Option<(u32, f64)>,
}

impl Metric {
    fn once(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric {
            name,
            value,
            unit,
            samples: 1,
            tail: None,
        }
    }

    /// Median of `xs`, with the tail percentile the sample supports.
    fn timing(name: &'static str, xs: &[f64], unit: &'static str) -> Self {
        Metric {
            name,
            value: median(xs),
            unit,
            samples: xs.len(),
            tail: supported_percentile(xs.len()).map(|p| (p, quantile(xs, p as f64 / 100.0))),
        }
    }
}

/// What one run observed.
struct Outcome {
    attempted: u64,
    failed: u64,
    /// Reasons the run is not correct (failed points, replay errors, ...).
    errors: Vec<String>,
    metrics: Vec<Metric>,
}

impl Outcome {
    fn new() -> Self {
        Outcome {
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            metrics: Vec::new(),
        }
    }

    fn tally(&mut self, p: &Point) {
        self.attempted += 1;
        if let Some(f) = &p.failure {
            self.failed += 1;
            if self.errors.len() < 8 {
                self.errors.push(f.clone());
            }
        }
    }

    fn ok_frac(&self) -> f64 {
        1.0 - self.failed as f64 / self.attempted.max(1) as f64
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if args.rss_probe {
        return rss_probe(&args);
    }
    let out = if args.trace {
        traced_run(&args)
    } else {
        timed_run(&args)
    };
    print_result(&args, &out);
    ExitCode::SUCCESS
}

/// The untimed first point of a run: it sets the reference fingerprint
/// and report, and warms caches and the allocator.
fn warm_up(args: &Args, out: &mut Outcome, reference: &mut Option<Fingerprint>) -> Point {
    let cfg = args.workload.config();
    let p = run_point(
        &args.workload,
        &cfg,
        args.seeds,
        &mut Recorder::new(false),
        reference,
    );
    out.tally(&p);
    p
}

/// End-to-end metrics, untraced.
fn timed_run(args: &Args) -> Outcome {
    let mut out = Outcome::new();
    // First, before this process allocates anything large.
    let rss = peak_rss_of_fresh_process(args);
    let cfg = args.workload.config();
    let mut reference = None;
    let first = warm_up(args, &mut out, &mut reference);
    let mut rec = Recorder::new(false);
    let mut times: Vec<PointTimes> = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    while times.is_empty() || Instant::now() < deadline {
        let p = run_point(&args.workload, &cfg, args.seeds, &mut rec, &mut reference);
        out.tally(&p);
        times.push(p.times);
    }
    let col = |f: fn(&PointTimes) -> f64| times.iter().map(f).collect::<Vec<f64>>();
    let sim_s = col(|t| t.sim_s);
    let events = first.report.as_ref().map_or(0, |r| r.events) as f64;
    let eps: Vec<f64> = sim_s.iter().map(|s| events / s).collect();
    let rss_mib = match rss {
        Ok(kib) => kib as f64 / 1024.0,
        Err(e) => {
            out.errors.push(e);
            0.0
        }
    };
    let (comm_us, wire_mib) = first.report.as_ref().map_or((0.0, 0.0), |r| {
        (
            r.comm_time.as_us_f64(),
            r.total_link_bytes as f64 / (1 << 20) as f64,
        )
    });
    out.metrics = vec![
        Metric::timing("point_s", &col(|t| t.point_s), "s"),
        Metric::timing("sim_s", &sim_s, "s"),
        Metric::timing("events_per_s", &eps, "events/s"),
        Metric::timing("setup_s", &col(PointTimes::setup_s), "s"),
        Metric::once("peak_rss_mib", rss_mib, "MiB"),
        Metric::once("sim_comm_us", comm_us, "sim_us"),
        Metric::once("wire_mib", wire_mib, "MiB"),
        Metric {
            samples: out.attempted as usize,
            ..Metric::once("ok_frac", out.ok_frac(), "ratio")
        },
    ];
    out
}

/// Per-layer metrics: alternates traced and untraced points (so the
/// tracing overhead is measured on the same machine state), then replays
/// the run's input streams through the component models.
fn traced_run(args: &Args) -> Outcome {
    let mut out = Outcome::new();
    let w = &args.workload;
    let cfg = w.config();
    let mut reference = None;
    let first = warm_up(args, &mut out, &mut reference);
    let mut traced = Recorder::new(true);
    let mut plain = Recorder::new(false);
    let (mut on, mut off): (Vec<PointTimes>, Vec<PointTimes>) = (Vec::new(), Vec::new());
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    while on.len() < 2 || off.len() < 2 || Instant::now() < deadline {
        let rec = if on.len() <= off.len() {
            &mut traced
        } else {
            &mut plain
        };
        let p = run_point(w, &cfg, args.seeds, rec, &mut reference);
        out.tally(&p);
        if rec.is_on() { &mut on } else { &mut off }.push(p.times);
    }

    let report = first.report.as_ref();
    let events = report.map_or(0, |r| r.events);
    let wl = args.seeds.input(w);
    let mut costs = Vec::new();
    for _ in 0..REPLAY_REPS {
        traced.next_point();
        match replay::run(&mut traced, &cfg, &wl, events) {
            Ok(c) => costs.push(c),
            Err(e) => out.errors.push(e),
        }
    }
    let slowdown = match (w.lossless_twin(), report) {
        (None, _) | (_, None) => 1.0,
        (Some(twin_cfg), Some(r)) => match simulate_caught(&twin_cfg, &wl) {
            Ok(twin) => r.comm_time.as_ps() as f64 / twin.comm_time.as_ps().max(1) as f64,
            Err(e) => {
                out.errors.push(format!("lossless twin: {e}"));
                0.0
            }
        },
    };

    let spans_path = spans_path(args);
    if let Err(e) = traced.write_json(&spans_path) {
        out.errors
            .push(format!("writing {}: {e}", spans_path.display()));
    } else {
        eprintln!(
            "spans: {} written to {}",
            traced.spans.len(),
            spans_path.display()
        );
    }

    let col = |ts: &[PointTimes], f: fn(&PointTimes) -> f64| ts.iter().map(f).collect::<Vec<f64>>();
    let loop_s: Vec<f64> = on.iter().map(|t| t.sim_s - t.build_s).collect();
    let ns_per_event: Vec<f64> = loop_s
        .iter()
        .map(|s| s * 1e9 / events.max(1) as f64)
        .collect();
    let overhead =
        100.0 * (median(&col(&on, |t| t.point_s)) / median(&col(&off, |t| t.point_s)) - 1.0);
    let cost = |f: fn(&replay::ReplayCosts) -> f64| costs.iter().map(f).collect::<Vec<f64>>();
    let mut m = vec![
        Metric::timing("sparse.gen_s", &col(&on, |t| t.gen_s), "s"),
        Metric::timing("netsim.route_s", &col(&on, |t| t.route_s), "s"),
        Metric::timing("sim.build_s", &col(&on, |t| t.build_s), "s"),
        Metric::timing("sim.loop_s", &loop_s, "s"),
        Metric::timing("sim.ns_per_event", &ns_per_event, "ns"),
        Metric::timing("snic.scan_ns_per_idx", &cost(|c| c.scan_ns_per_idx), "ns"),
        Metric::timing(
            "switch.cache_ns_per_probe",
            &cost(|c| c.cache_ns_per_probe),
            "ns",
        ),
        Metric::timing(
            "switch.reduce_ns_per_fold",
            &cost(|c| c.reduce_ns_per_fold),
            "ns",
        ),
        Metric::timing("desim.queue_ns_per_op", &cost(|c| c.queue_ns_per_op), "ns"),
        Metric {
            samples: on.len() + off.len(),
            ..Metric::once("bench.trace_overhead_pct", overhead, "%")
        },
        Metric::once("fault.recovery_slowdown", slowdown, "ratio"),
    ];
    let self_times = traced.self_times();
    for layer in SELF_TIME_LAYERS {
        let xs = self_times.get(layer.0).cloned().unwrap_or_default();
        m.push(Metric::timing(layer.1, &xs, "s"));
    }
    if let Some(r) = report {
        m.extend(report_metrics(r, wl.total_nnz(), wl.n_cols()));
    }
    out.metrics = m;
    out
}

/// Layers whose self time the traced run reports, with the metric name.
/// Point layers are summed per point; replay layers per replay pass.
const SELF_TIME_LAYERS: [(&str, &str); 7] = [
    ("bench", "bench.self_s"),
    ("sparse", "sparse.self_s"),
    ("netsim", "netsim.self_s"),
    ("sim", "sim.self_s"),
    ("snic", "snic.self_s"),
    ("switch", "switch.self_s"),
    ("desim", "desim.self_s"),
];

/// The simulator's own deterministic counters for one point.
fn report_metrics(r: &SimReport, nnz: u64, n_cols: u32) -> Vec<Metric> {
    let sum =
        |f: fn(&netsparse::metrics::NodeReport) -> u64| r.nodes.iter().map(f).sum::<u64>() as f64;
    let remote = sum(|n| n.remote_refs());
    let reduce = r.reduce.clone().unwrap_or_default();
    let faults = r.faults.clone().unwrap_or_default();
    let lat = |q: f64| r.pr_latency_quantile(q).map_or(0.0, |t| t.as_ns_f64());
    vec![
        Metric::once("sparse.nnz", nnz as f64, "count"),
        Metric::once("sparse.n_cols", n_cols as f64, "count"),
        Metric::once("desim.events", r.events as f64, "count"),
        Metric::once("snic.idxs_scanned", sum(|n| n.idxs_scanned), "count"),
        Metric::once("snic.issued", sum(|n| n.issued), "count"),
        Metric::once(
            "snic.fc_rate",
            sum(|n| n.filtered + n.coalesced) / remote.max(1.0),
            "ratio",
        ),
        Metric::once(
            "snic.duplicate_responses",
            sum(|n| n.duplicate_responses),
            "count",
        ),
        Metric::once("snic.stalls", sum(|n| n.stalls), "count"),
        Metric::once("snic.prs_per_packet", r.prs_per_packet.mean(), "prs/pkt"),
        Metric::once("switch.cache_lookups", r.cache_lookups as f64, "count"),
        Metric::once("switch.cache_hit_rate", r.cache_hit_rate(), "ratio"),
        Metric::once("switch.reduce_merges", reduce.merges as f64, "count"),
        Metric::once("switch.reduce_bypassed", reduce.bypassed as f64, "count"),
        Metric::once(
            "switch.root_wire_kib",
            reduce.root_wire_bytes as f64 / 1024.0,
            "KiB",
        ),
        Metric::once(
            "netsim.max_backlog_kib",
            r.max_link_backlog_bytes as f64 / 1024.0,
            "KiB",
        ),
        Metric::once(
            "netsim.hot_link_util",
            r.hot_links.first().map_or(0.0, |h| h.utilization),
            "ratio",
        ),
        Metric::once("sim.pr_latency_p50_ns", lat(0.5), "sim_ns"),
        Metric::once("sim.pr_latency_p99_ns", lat(0.99), "sim_ns"),
        Metric::once("fault.dropped", faults.total_dropped() as f64, "count"),
        Metric::once(
            "fault.watchdog_retries",
            faults.watchdog_retries as f64,
            "count",
        ),
        Metric::once("fault.abandoned_prs", faults.abandoned_prs as f64, "count"),
        Metric::once(
            "fault.abandoned_cmds",
            faults.abandoned_commands as f64,
            "count",
        ),
        Metric::once(
            "fault.backoff_wait_us",
            faults.backoff_wait.as_us_f64(),
            "sim_us",
        ),
    ]
}

fn spans_path(args: &Args) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("spans")
        .join(format!(
            "{}-m{}-s{}.json",
            args.workload.name, args.seeds.matrix, args.seeds.relabel
        ))
}

/// Peak resident memory (KiB) of a fresh process running one point of
/// the workload: the allocator's high-water mark carries over between
/// points, so only a fresh process gives a per-point figure.
fn peak_rss_of_fresh_process(args: &Args) -> Result<u64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("rss probe: {e}"))?;
    let seed = args.seeds.relabel.to_string();
    let matrix_seed = args.seeds.matrix.to_string();
    let output = Command::new(exe)
        .args([
            "--rss-probe",
            "--workload",
            args.workload.name,
            "--seed",
            &seed,
        ])
        .args(["--matrix-seed", &matrix_seed])
        .output()
        .map_err(|e| format!("rss probe: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!("rss probe failed: {}", stdout.trim()));
    }
    stdout
        .lines()
        .last()
        .and_then(|l| l.strip_prefix("vmhwm_kib "))
        .and_then(|v| v.trim().parse().ok())
        .ok_or_else(|| format!("rss probe: unexpected output '{}'", stdout.trim()))
}

/// Child side of [`peak_rss_of_fresh_process`]: one checked point, then
/// `VmHWM` from `/proc/self/status`.
fn rss_probe(args: &Args) -> ExitCode {
    let cfg = args.workload.config();
    let p = run_point(
        &args.workload,
        &cfg,
        args.seeds,
        &mut Recorder::new(false),
        &mut None,
    );
    if let Some(f) = p.failure {
        println!("point failed: {f}");
        return ExitCode::FAILURE;
    }
    drop(p);
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let hwm = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok());
    match hwm {
        Some(kib) => {
            println!("vmhwm_kib {kib}");
            ExitCode::SUCCESS
        }
        None => {
            println!("no VmHWM in /proc/self/status");
            ExitCode::FAILURE
        }
    }
}

/// A readable table (one metric per line, with unit and sample count),
/// then the JSON result as the last line.
fn print_result(args: &Args, out: &Outcome) {
    let mut errors = out.errors.clone();
    println!(
        "# {} matrix seed {} seed {} ({}): {} points checked, {} failed",
        args.workload.name,
        args.seeds.matrix,
        args.seeds.relabel,
        if args.trace { "traced" } else { "untraced" },
        out.attempted,
        out.failed
    );
    let mut json = String::new();
    for m in &out.metrics {
        let value = if m.value.is_finite() {
            m.value
        } else {
            errors.push(format!("{} is not finite", m.name));
            0.0
        };
        let tail = m
            .tail
            .map_or(String::new(), |(p, v)| format!("  p{p} {v:.6}"));
        println!(
            "{:<28} {:>16.6} {:<9} n={}{}",
            m.name, value, m.unit, m.samples, tail
        );
        if !json.is_empty() {
            json.push_str(", ");
        }
        json.push_str(&format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, value, m.unit
        ));
    }
    for e in &errors {
        println!("# error: {e}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        errors.is_empty() && out.failed == 0,
        out.attempted.max(1),
        out.failed,
        json
    );
}
