//! End-to-end benchmark of the multi-GPM reproduction: cold sweeps,
//! full-scale 32-GPM points, and warm and cold what-if serving. See
//! README.md next to this file for why each workload exists and which
//! end-to-end figure each layer metric should move.
//!
//! ```text
//! e2e_bench --workload <sweep|point32|serve_hot|serve_whatif|all>
//!           --seed N --seconds S --trace 0|1
//! e2e_bench --write-refs
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics, or with
//! `--trace 1` the per-layer metrics). A human-readable report with
//! every metric, its unit and sample count goes to standard error.

mod check;
mod gen;
mod point32;
mod probe;
mod refs;
mod serve;
mod stats;
mod sweep;
mod tracer;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

pub const WORKLOADS: [&str; 4] = ["sweep", "point32", "serve_hot", "serve_whatif"];

/// Set-up runs this many times per run; `setup_s` is the median.
pub const SETUP_REPS: usize = 3;

/// The end-to-end metrics every workload reports (see README.md for
/// what each means per workload).
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("latency_ms", "ms"),
];

/// The per-layer metrics every traced run measures: those of the layers
/// every gated workload calls go on the result line ([`RESULT_LAYERS`]
/// of them); the serving layers, which `sweep` and `point32` never call,
/// are in the report only, since a time that reads 0 on every run of
/// those workloads would say nothing. A layer a workload does not call
/// is listed as "not called" in the report.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("workloads.gen_ns_per_instr", "ns"),
    ("sim.run_s", "s"),
    ("sim.ns_per_cycle", "ns"),
    ("sim.ns_per_instr", "ns"),
    ("sim.ff_skip_ratio", "ratio"),
    ("sim.sm_step_ratio", "ratio"),
    ("sim.par_fallback_ratio", "ratio"),
    ("sim.cycles", "count"),
    ("sim.warp_instrs", "count"),
    ("sim.dram_txns", "count"),
    ("sim.inter_gpm_hop_bytes", "B"),
    ("core.estimate_us", "us"),
    ("runtime.prime_s", "s"),
    ("runtime.worker_idle_ratio", "ratio"),
    ("runtime.cache_hit_ratio", "ratio"),
    ("runtime.retries", "count"),
    ("runtime.errors", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("xp.digest_us", "us"),
    ("xp.evaluate_ms", "ms"),
    ("xpd.store_get_us", "us"),
    ("xpd.roundtrip_us", "us"),
    ("xpd.store_put_us", "us"),
    ("xpd.store_evictions", "count"),
    ("xpd.queue_wait_ms", "ms"),
    ("xpd.batch_linger_ms", "ms"),
    ("xpd.eval_ms", "ms"),
    ("xpd.store_write_ms", "ms"),
    ("xpd.store_hit_ratio", "ratio"),
    ("xpd.batch_points", "count"),
    ("xpd.dedup_join_ratio", "ratio"),
    ("xpd.busy_ratio", "ratio"),
    ("common.json_parse_us_per_kb", "us/KB"),
    ("common.json_render_us", "us"),
];

/// How many leading [`PER_LAYER`] metrics the traced result line carries.
pub const RESULT_LAYERS: usize = 18;

/// Everything a workload run needs.
pub struct Ctx {
    pub seed: u64,
    pub seconds: Duration,
    /// Sweep and serving parallelism: the host's core count, as the
    /// program's own default resolves it.
    pub threads: usize,
    /// Where the run keeps its stores and sockets.
    pub dir: PathBuf,
}

/// One reported figure with the number of samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub samples: usize,
}

pub fn metric(name: &str, unit: &'static str, value: f64, samples: usize) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        value,
        samples,
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// The [`END_TO_END`] metrics (untraced runs).
    pub e2e: Vec<Metric>,
    /// The workload's own figures under the names README.md uses
    /// (`hot_p99_ms`, `whatif_qps`, ...), for the report.
    pub detail: Vec<Metric>,
    /// Measured [`PER_LAYER`] metrics (traced runs); missing names
    /// report 0.
    pub layers: Vec<Metric>,
    /// The traced phase's spans, for the trace file.
    pub spans: Vec<tracer::SpanRec>,
}

impl Outcome {
    /// Counts `n` operations of which `failed` failed.
    pub fn count(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    pub fn layer(&mut self, name: &str, value: f64, samples: usize) {
        let unit = PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, u)| *u)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        self.layers.push(metric(name, unit, value, samples));
    }
}

/// Peak resident set size of this process, in MB (from `VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    write_refs: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        write_refs: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds == 0 {
                    return Err("--seconds must be at least 1".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got {other:?}")),
                }
            }
            "--write-refs" => args.write_refs = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !args.write_refs && !WORKLOADS.contains(&args.workload.as_str()) && args.workload != "all" {
        return Err(format!(
            "--workload must be one of {} or all, got {:?}",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    Ok(args)
}

fn run_workload(name: &str, ctx: &Ctx, trace: bool) -> Result<Outcome, String> {
    match name {
        "sweep" => sweep::run(ctx, trace),
        "point32" => point32::run(ctx, trace),
        "serve_hot" => serve::run_hot(ctx, trace),
        "serve_whatif" => serve::run_whatif(ctx, trace),
        other => Err(format!("unknown workload {other}")),
    }
}

/// The machine-readable result line: the last line of standard output.
fn result_line(out: &Outcome, trace: bool) -> String {
    let mut metrics = String::new();
    let names: Vec<(&str, &str)> = if trace {
        PER_LAYER[..RESULT_LAYERS].to_vec()
    } else {
        END_TO_END.to_vec()
    };
    let pool = if trace { &out.layers } else { &out.e2e };
    for (i, (name, unit)) in names.iter().enumerate() {
        let value = pool
            .iter()
            .find(|m| m.name == *name)
            .map(|m| m.value)
            .unwrap_or(0.0);
        let value = if value.is_finite() { value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        out.failed == 0 && out.attempted > 0,
        out.attempted,
        out.failed
    )
}

/// The human-readable report: every metric with unit and samples.
fn report(workload: &str, seed: u64, out: &Outcome, trace: bool) -> String {
    let mut s = format!("== {workload} (seed {seed}) ==\n");
    let _ = writeln!(
        s,
        "{:<30} {:>16} {:<8} {:>8}",
        "metric", "value", "unit", "samples"
    );
    let mut row = |m: &Metric, note: &str| {
        let _ = writeln!(
            s,
            "{:<30} {:>16.6} {:<8} {:>8}{note}",
            m.name, m.value, m.unit, m.samples
        );
    };
    for m in out.e2e.iter().chain(&out.detail) {
        row(m, "");
    }
    if trace {
        for (name, unit) in PER_LAYER {
            match out.layers.iter().find(|m| m.name == name) {
                Some(m) => row(m, ""),
                None => row(&metric(name, unit, 0.0, 0), "  (not called)"),
            }
        }
    }
    let fail_ratio = stats::ratio(out.failed as f64, out.attempted as f64);
    let _ = writeln!(
        s,
        "{:<30} {:>16.6} {:<8} {:>8}",
        "fail_ratio", fail_ratio, "ratio", out.attempted
    );
    s
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2e_bench: {e}");
            return ExitCode::from(2);
        }
    };
    // The benchmark measures the program's shipped defaults.
    let overrides: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("MMGPU_"))
        .collect();
    if !overrides.is_empty() {
        eprintln!(
            "e2e_bench: unset {} — the benchmark runs the shipped defaults",
            overrides.join(", ")
        );
        return ExitCode::from(2);
    }
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let dir = PathBuf::from(".bench_out").join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("e2e_bench: cannot create {}: {e}", dir.display());
        return ExitCode::from(1);
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: Duration::from_secs(args.seconds),
        threads,
        dir: dir.clone(),
    };
    let code = if args.write_refs {
        match refs::write_all(&ctx) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("e2e_bench: {e}");
                ExitCode::from(1)
            }
        }
    } else {
        eprintln!("e2e_bench: {threads} host threads (available_parallelism)");
        let names: Vec<&str> = if args.workload == "all" {
            WORKLOADS.to_vec()
        } else {
            vec![args.workload.as_str()]
        };
        let mut code = ExitCode::SUCCESS;
        for name in names {
            match run_workload(name, &ctx, args.trace) {
                Ok(out) => {
                    if args.trace {
                        if let Err(e) = write_trace(&ctx, name, &out) {
                            eprintln!("e2e_bench: {e}");
                            code = ExitCode::from(1);
                            continue;
                        }
                    }
                    eprint!("{}", report(name, args.seed, &out, args.trace));
                    println!("{}", result_line(&out, args.trace));
                }
                Err(e) => {
                    eprintln!("e2e_bench: {name}: {e}");
                    code = ExitCode::from(1);
                }
            }
        }
        code
    };
    let _ = std::fs::remove_dir_all(&dir);
    code
}

/// Writes the traced phase's Chrome trace and self-time table next to
/// the run directory (`.bench_out/<workload>-seed<N>.*`), and echoes the
/// table to standard error.
fn write_trace(ctx: &Ctx, workload: &str, out: &Outcome) -> Result<(), String> {
    let base = PathBuf::from(".bench_out").join(format!("{workload}-seed{}", ctx.seed));
    let table = tracer::render_self_times(&tracer::self_times(&out.spans));
    let chrome = tracer::chrome_json(&out.spans);
    for (ext, body) in [("trace.json", &chrome), ("selftime.txt", &table)] {
        let path = base.with_extension(ext);
        std::fs::write(&path, body).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    eprintln!(
        "trace: {} ({} spans)\n{table}",
        base.with_extension("trace.json").display(),
        out.spans.len()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_lists_every_declared_metric() {
        let mut out = Outcome::default();
        out.count(10, 0);
        out.e2e.push(metric("setup_s", "s", 0.5, 3));
        let line = result_line(&out, false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0"));
        for (name, _) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\"")), "{name} missing");
        }
        out.count(1, 1);
        assert!(result_line(&out, true).starts_with("{\"correct\": false"));
    }

    #[test]
    fn traced_result_line_carries_the_layers_every_workload_calls() {
        let line = result_line(&Outcome::default(), true);
        for (i, (name, _)) in PER_LAYER.iter().enumerate() {
            let listed = line.contains(&format!("\"{name}\""));
            assert_eq!(listed, i < RESULT_LAYERS, "{name}");
            let layer = tracer::layer_of(name);
            let shared = ["workloads", "sim", "core", "runtime", "trace"].contains(&layer);
            assert_eq!(shared, i < RESULT_LAYERS, "{name} is in the wrong list");
        }
    }
}
