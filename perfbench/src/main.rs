//! perfbench — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --rpc-rate <req/s>
//! ```
//!
//! Workloads: `sim-sweep`, `tcp-pipelined`, `tcp-rpc`, `replay-engines`
//! (see each module). Every workload derives its inputs from `--seed`,
//! sets itself up fifteen times (the median set-up time is reported), then
//! measures for `--seconds`. Correctness gates run on every repetition; a
//! failed gate exits with code 1 and prints no metrics.
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` measures half
//! the time untraced and half traced (the difference is the tracing
//! overhead), runs short cells of the other workloads and the isolated
//! layer costs, prints every per-layer metric, and writes the spans to
//! `traces/` next to this package's manifest.
//!
//! The last line of standard output is one JSON object:
//! `{"correct": true, "attempted": …, "failed": …, "metrics": {…}}`.

#![deny(unsafe_code)]

mod affinity;
mod engines;
mod hist;
mod layers;
mod procfs;
mod report;
mod sim;
mod tcp;
mod trace;

use std::fmt::Write as _;
use std::time::Duration;

use report::{median, metric, ratio, Metric, Plan, Window, WorkloadRun};
use trace::Tracer;

/// Set-up passes per run; the median is reported.
const SETUPS: usize = 15;

const WORKLOADS: [&str; 4] = ["sim-sweep", "tcp-pipelined", "tcp-rpc", "replay-engines"];

/// Every per-layer metric a traced run prints, in order.
const PER_LAYER: [&str; 38] = [
    "sim.run_ns_per_ball.g_bounded",
    "sim.run_ns_per_ball.g_myopic",
    "sim.run_ns_per_ball.sigma_noisy_load",
    "sim.run_ns_per_ball.b_batch",
    "workpool.busy_share",
    "serve.decide_run_ns_per_req",
    "serve.call_block_ns_per_req",
    "serve.refresh_ns",
    "serve.refreshes_per_kreq",
    "serve.layer_ns_per_req.load_shed",
    "serve.layer_ns_per_req.inflight_limit",
    "serve.hop_ns_per_apply.direct",
    "serve.hop_ns_per_apply.buffered",
    "serve.hop_ns_per_refresh.buffered",
    "shard.cpu_share",
    "shard.wakeups_per_req",
    "serve.layer_ns_per_req.retry",
    "serve.layer_ns_per_req.hedge",
    "serve.layer_ns_per_req.timeout",
    "serve.layer_ns_per_req.rate_limit",
    "serve.layer_ns_per_req.breaker",
    "engine.ns_per_req.resilient",
    "engine.ns_per_req.churn",
    "engine.retries_per_kreq",
    "engine.hedge_rescue_ratio",
    "engine.breaker_rejections_per_kreq",
    "engine.migrated_per_kreq",
    "engine.refreshes_per_kreq",
    "wire.encode_ns_per_frame",
    "wire.decode_ns_per_frame",
    "reactor.cpu_user_share",
    "reactor.cpu_sys_share",
    "reactor.reqs_per_wakeup",
    "reactor.cpu_ns_per_req",
    "reactor.unattributed_ns_per_req",
    "loadgen.cpu_share",
    "loadgen.lag_p99_us",
    "trace.overhead_share",
];

#[derive(Debug)]
struct Opts {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// The open-loop offered rate of `tcp-rpc`, fixed in BENCHMARK.json.
    rpc_rate: Option<f64>,
}

fn parse_args() -> Result<Opts, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = Opts {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
        rpc_rate: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => opts.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--rpc-rate" => {
                let rate: f64 = value.parse().map_err(|_| bad())?;
                if !(rate.is_finite() && rate > 0.0) {
                    return Err(format!("--rpc-rate must be positive, not {value}"));
                }
                opts.rpc_rate = Some(rate);
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if opts.seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    if opts.rpc_rate.is_none() && (opts.workload == "tcp-rpc" || opts.trace) {
        return Err("tcp-rpc needs --rpc-rate <req/s>".into());
    }
    Ok(opts)
}

fn run_workload(
    name: &str,
    opts: &Opts,
    plan: &Plan,
    tracer: &mut Tracer,
) -> Result<WorkloadRun, String> {
    match name {
        "sim-sweep" => sim::run(opts.seed, plan, tracer),
        "tcp-pipelined" => tcp::run(tcp::Kind::Pipelined, opts.seed, plan, tracer),
        "tcp-rpc" => {
            let rate = opts.rpc_rate.expect("checked when parsing the arguments");
            tcp::run(tcp::Kind::Rpc { rate }, opts.seed, plan, tracer)
        }
        _ => engines::run(opts.seed, plan, tracer),
    }
}

/// A short run of another workload inside a traced run, for the
/// per-layer metrics only that workload yields.
fn cell_plan() -> Plan {
    Plan {
        setups: 1,
        windows: vec![(Duration::from_secs(1), false)],
    }
}

fn end_to_end(run: &WorkloadRun, w: &Window) -> Vec<Metric> {
    vec![
        metric("setup_s", median(&run.setup_s), "s"),
        metric("ops_per_s", w.ops_per_s(), "1/s"),
        metric("latency_p50_us", w.latency_p50_us(), "us"),
        metric("latency_p99_us", w.latency_p99_us(), "us"),
        metric(
            "success_rate",
            1.0 - ratio(w.failed as f64, w.attempted as f64),
            "share",
        ),
        metric(
            "cpu_us_per_op",
            ratio(w.process_cpu_s * 1e6, w.completed as f64),
            "us",
        ),
        metric("peak_rss_mb", procfs::peak_rss_mb(), "MiB"),
    ]
}

fn describe(label: &str, w: &Window) {
    println!(
        "{label}: {:.2} s over {} slices: ops_per_s {:.1}, latency_p50_us {:.2} (means over \
         the better 3/4 of slices), latency_p99_us {:.2} (lower-decile slice); whole window: \
         {:.1} ops/s, p50 {:.2} us, p99 {:.2} us, p99.9 {:.2} us over {} samples; \
         error_rate {} = {} failed / {} attempted",
        w.elapsed_s,
        w.rates.len(),
        w.ops_per_s(),
        w.latency_p50_us(),
        w.latency_p99_us(),
        w.attempted as f64 / w.elapsed_s,
        w.latency.quantile_us(0.50),
        w.latency.quantile_us(0.99),
        w.latency.quantile_us(0.999),
        w.latency.count(),
        ratio(w.failed as f64, w.attempted as f64),
        w.failed,
        w.attempted
    );
    for (role, r) in &w.roles {
        let switches = if r.cpu.voluntary + r.cpu.involuntary == 0 && r.cpu.cpu_s() > 0.0 {
            "switches not kept for exited threads".to_string()
        } else {
            format!(
                "voluntary {} involuntary {} switches",
                r.cpu.voluntary, r.cpu.involuntary
            )
        };
        println!(
            "{label}: cpu role {role:<9} threads {} user {:.2} s sys {:.2} s ({:.3} cores) {switches}",
            r.threads,
            r.cpu.user_s,
            r.cpu.sys_s,
            r.cpu.cpu_s() / w.elapsed_s,
        );
    }
    println!(
        "{label}: process cpu {:.2} s ({:.3} cores); host steal {:.1} % of cpu time",
        w.process_cpu_s,
        w.process_cpu_s / w.elapsed_s,
        100.0 * w.steal_share
    );
    if let Some(lag) = &w.lag {
        println!(
            "{label}: generator lateness p50 {:.2} us p99 {:.2} us max-bucket p99.9 {:.2} us",
            lag.quantile_us(0.5),
            lag.quantile_us(0.99),
            lag.quantile_us(0.999)
        );
    }
}

fn find(metrics: &[Metric], name: &str) -> Result<f64, String> {
    metrics
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.value)
        .ok_or_else(|| format!("missing metric {name}"))
}

/// The traced run: per-layer metrics from the workload's traced window,
/// short cells of the other workloads, and the isolated layer costs.
fn per_layer(opts: &Opts, run: &WorkloadRun, tracer: &mut Tracer) -> Result<Vec<Metric>, String> {
    let (untraced, traced) = (&run.windows[0], &run.windows[1]);
    let mut out: Vec<Metric> = traced.layer.clone();
    for other in WORKLOADS.iter().filter(|w| **w != opts.workload) {
        let mut off = Tracer::new(false);
        let cell = run_workload(other, opts, &cell_plan(), &mut off)?;
        out.extend(cell.windows[0].layer.iter().cloned());
    }
    out.extend(sim::kernel_costs(opts.seed, tracer));
    out.extend(layers::measure(opts.seed, tracer)?);

    let cpu = find(&out, "reactor.cpu_ns_per_req")?;
    let decode = find(&out, "wire.decode_ns_per_frame")?;
    let block = find(&out, "serve.call_block_ns_per_req")?;
    let encode = find(&out, "wire.encode_ns_per_frame")?;
    let attributed = decode + block + encode;
    println!(
        "reactor budget (tcp-pipelined, ns per request): cpu {cpu:.1} = ALLOC decode {decode:.1} \
         + call_block {block:.1} + RESP_BIN encode {encode:.1} (sum {attributed:.1}) \
         + unattributed {:.1}",
        cpu - attributed
    );
    out.push(metric(
        "reactor.unattributed_ns_per_req",
        cpu - attributed,
        "ns",
    ));
    let overhead = 1.0 - ratio(traced.ops_per_s(), untraced.ops_per_s());
    println!(
        "tracing overhead: ops_per_s untraced {:.1}, traced {:.1}; cpu_us_per_op untraced {:.4}, traced {:.4}",
        untraced.ops_per_s(),
        traced.ops_per_s(),
        ratio(untraced.process_cpu_s * 1e6, untraced.completed as f64),
        ratio(traced.process_cpu_s * 1e6, traced.completed as f64)
    );
    out.push(metric("trace.overhead_share", overhead, "share"));

    PER_LAYER
        .iter()
        .map(|name| {
            let found: Vec<&Metric> = out.iter().filter(|m| m.name == *name).collect();
            match found.as_slice() {
                [m] => Ok((*m).clone()),
                _ => Err(format!(
                    "per-layer metric {name} measured {} times",
                    found.len()
                )),
            }
        })
        .collect()
}

fn write_trace(opts: &Opts, host: &str, tracer: &Tracer) -> Result<String, String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-seed{}.json", opts.workload, opts.seed));
    let header = format!(
        "\"workload\":\"{}\",\"seed\":{},\"host\":\"{}\"",
        opts.workload,
        opts.seed,
        host.replace('"', "'")
    );
    std::fs::write(&path, tracer.to_json(&header))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

fn execute(opts: &Opts) -> Result<String, String> {
    let host = procfs::host_class();
    println!("host: {host}");
    let secs = Duration::from_secs(opts.seconds);
    let plan = Plan {
        setups: SETUPS,
        windows: if opts.trace {
            vec![(secs / 2, false), (secs / 2, true)]
        } else {
            vec![(secs, false)]
        },
    };
    let mut tracer = Tracer::new(opts.trace);
    let run = run_workload(&opts.workload, opts, &plan, &mut tracer)?;
    for line in &run.info {
        println!("{line}");
    }
    println!(
        "set-up: {} passes, {:?} s",
        run.setup_s.len(),
        run.setup_s
            .iter()
            .map(|s| (s * 1e4).round() / 1e4)
            .collect::<Vec<_>>()
    );
    for (i, w) in run.windows.iter().enumerate() {
        describe(if w.traced { "traced window" } else { "window" }, w);
        if i == 0 {
            for m in end_to_end(&run, w) {
                println!("  {:<16} {:>16.4} {}", m.name, m.value, m.unit);
            }
        }
    }
    let metrics = if opts.trace {
        let layer = per_layer(opts, &run, &mut tracer)?;
        for (name, spans, total, own) in tracer.summary() {
            println!(
                "span {name:<20} {spans:>8} spans, total {:.3} ms, self {:.3} ms",
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
        let path = write_trace(opts, &host, &tracer)?;
        println!(
            "trace: {} spans ({} dropped) written to {path}",
            tracer.len(),
            tracer.dropped()
        );
        for m in &layer {
            println!("  {:<40} {:>16.4} {}", m.name, m.value, m.unit);
        }
        layer
    } else {
        end_to_end(&run, &run.windows[0])
    };
    let (attempted, failed) = run
        .windows
        .iter()
        .fold((0, 0), |(a, f), w| (a + w.attempted, f + w.failed));
    let mut json = format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        report::gate(m.value.is_finite(), || {
            format!("metric {} is {}", m.name, m.value)
        })?;
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    json.push_str("}}");
    Ok(json)
}

fn main() {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match execute(&opts) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
