//! The repository benchmark. See README.md in this directory.
//!
//! ```text
//! perfbench --workload train|serve_cold|serve_mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is the result: `correct`,
//! `attempted`, `failed`, and the metrics (the end-to-end set with
//! `--trace 0`, the per-layer set with `--trace 1`). The line before it
//! carries provenance and the workload's own named numbers.

mod inputs;
mod provenance;
mod serve;
mod stats;
mod trace;
mod train;

use provenance::{nproc, Provenance};
use stats::{median, percentile, quieter_half, summarize, tail};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use trace::Tracer;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Where runs keep their files (checkpoints, stores, traces), relative
/// to the working directory.
const RUN_DIR: &str = ".bench_run";

/// End-to-end metrics: every untraced run reports all of them.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cycles_vs_o3", "ratio"),
    ("ops_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
];

/// Layers timed by spans (or derived per-request values); each reports
/// count, p50, p99 and sum.
const TIMED_LAYERS: [&str; 17] = [
    "rl.collect_ns",
    "rl.update_ns",
    "rl.policy_ns",
    "core.step_ns",
    "core.reset_ns",
    "core.fingerprint_ns",
    "ir.parse_ns",
    "store.lookup_ns",
    "store.record_ns",
    "hls.baseline_profile_ns",
    "hls.final_profile_ns",
    "engine.rollout_ns",
    "engine.infer_wait_ns",
    "engine.linger_ns",
    "nn.forward_ns",
    "passes.apply_ns",
    "features.resync_ns",
];

/// Single-number per-layer metrics.
const LAYER_SCALARS: [(&str, &str); 10] = [
    ("core.profiler_runs_per_step", "ratio"),
    ("core.snapshot_hit_ratio", "ratio"),
    ("store.compactions", "count"),
    ("engine.infer_calls", "count"),
    ("engine.batch_max", "count"),
    ("passes.changed_ratio", "ratio"),
    ("engine.rollout_accounted_ratio", "ratio"),
    ("serve.store_wait_est_ns", "ns"),
    ("trace.overhead_steps_per_s", "1/s"),
    ("trace.overhead_cold_p50_ms", "ms"),
];

/// Daemon pipeline stages read from `STATS` (`serve.stage_ns{stage}`).
const STAGES: [&str; 9] = [
    "queue_wait",
    "parse",
    "store",
    "baseline_profile",
    "rollout",
    "profile",
    "record",
    "reply_write",
    "total",
];

/// Every per-layer metric, with its unit, in output order.
fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for layer in TIMED_LAYERS {
        out.push((format!("{layer}.count"), "count"));
        for stat in ["p50", "p99", "sum"] {
            out.push((format!("{layer}.{stat}"), "ns"));
        }
    }
    for (name, unit) in LAYER_SCALARS {
        out.push((name.to_string(), unit));
    }
    for stage in STAGES {
        for stat in ["p50", "p99"] {
            out.push((format!("serve.stage.{stage}_ns.{stat}"), "ns"));
        }
    }
    out
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    Train,
    ServeCold,
    ServeMixed,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "train" => Some(Workload::Train),
            "serve_cold" => Some(Workload::ServeCold),
            "serve_mixed" => Some(Workload::ServeMixed),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Train => "train",
            Workload::ServeCold => "serve_cold",
            Workload::ServeMixed => "serve_mixed",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut flags: HashMap<&str, &str> = HashMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        flags.insert(flag.as_str(), value.as_str());
    }
    let get = |k: &str| flags.get(k).copied().ok_or(format!("missing {k}"));
    let workload = get("--workload")?;
    let args = Args {
        workload: Workload::parse(workload).ok_or(format!("unknown workload {workload}"))?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace must be 0 or 1, not {t}")),
        },
    };
    if flags.len() != 4 {
        return Err("unexpected flag".into());
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// What a run reports.
#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
    /// Workload-specific named numbers for the detail line.
    details: Vec<(String, String)>,
}

impl Report {
    fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    fn detail(&mut self, name: &str, value: impl std::fmt::Display) {
        self.details.push((name.to_string(), value.to_string()));
    }

    /// The pooled median and tail of `lat_ms` under `prefix`, with the
    /// sample count and the percentile the tail is taken at.
    fn latency_details(&mut self, prefix: &str, lat_ms: &[f64]) {
        let mut v = lat_ms.to_vec();
        v.sort_by(f64::total_cmp);
        self.detail(&format!("{prefix}_n"), v.len());
        if v.is_empty() {
            return;
        }
        self.detail(&format!("{prefix}_p50_ms"), percentile(&v, 0.5));
        if let Some(t) = tail(&v) {
            self.detail(&format!("{prefix}_tail_pct"), t.pct);
            self.detail(&format!("{prefix}_tail_ms"), t.value);
            self.detail(&format!("{prefix}_tail_beyond"), t.beyond);
        }
    }

    /// Sub-window medians of one client under `prefix`.
    fn window_details(&mut self, prefix: &str, phase: &serve::Phase, log: &serve::ClientLog) {
        self.latency_details(prefix, &log.lat_ms());
        if let Some(w) = phase.windowed(log) {
            self.detail(&format!("{prefix}_windows"), w.windows);
            self.detail(&format!("{prefix}_window_p50_ms"), w.p50);
            self.detail(&format!("{prefix}_window_p90_ms"), w.p90);
            self.detail(&format!("{prefix}_window_per_s"), w.per_s);
        }
    }
}

/// Peak resident set of this process, in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Time `SETUPS` identical set-ups and keep the last. Each earlier one
/// is dropped before the next starts, so at most one is alive. `key`
/// identifies what a set-up produced; a set-up whose key differs from
/// the previous one's counts as a failure.
fn repeated_setup<S, K: PartialEq>(
    report: &mut Report,
    mut make: impl FnMut(usize) -> Result<S, String>,
    key: impl Fn(&S) -> K,
    mut drop_old: impl FnMut(S),
) -> Result<S, String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut kept: Option<S> = None;
    for k in 0..SETUPS {
        let prev = kept.take().map(|s| {
            let prev = key(&s);
            drop_old(s);
            prev
        });
        let t = Instant::now();
        let s = make(k)?;
        times.push(t.elapsed().as_secs_f64());
        if let Some(prev) = prev {
            report.attempted += 1;
            if key(&s) != prev {
                eprintln!("perfbench: set-up {k} differs from set-up {}", k - 1);
                report.failed += 1;
            }
        }
        kept = Some(s);
    }
    report.set("setup_s", median(&times));
    report.detail("setups", SETUPS);
    report.detail(
        "setup_s_each",
        format!(
            "\"{}\"",
            times
                .iter()
                .map(|t| format!("{t:.4}"))
                .collect::<Vec<_>>()
                .join(" ")
        ),
    );
    Ok(kept.expect("at least one set-up"))
}

fn run_train(args: &Args, report: &mut Report, tracer: Option<&Arc<Tracer>>) -> Result<(), String> {
    let workers = nproc();
    let s = if tracer.is_none() {
        repeated_setup(
            report,
            |_| Ok(train::setup(args.seed, workers)),
            train::TrainSetup::quality_o3,
            drop,
        )?
    } else {
        train::setup(args.seed, workers)
    };
    let start = Instant::now();
    let mut plain: Vec<train::Round> = Vec::new();
    let mut traced: Vec<train::Round> = Vec::new();
    let mut counters = train::EnvCounters::default();
    // Untraced runs train round after round; traced runs alternate an
    // untraced and a traced round, so both see the same machine state.
    loop {
        let (r, _) = train::round(&s, plain.len(), None);
        plain.push(r);
        if let Some(t) = tracer {
            let (r, tc) = train::round(&s, traced.len(), Some(t));
            let tc = tc.expect("traced round returns counters");
            if tc.steps != train::expected_steps() {
                eprintln!(
                    "perfbench: traced round took {} steps, expected {}",
                    tc.steps,
                    train::expected_steps()
                );
                report.failed += 1;
            }
            counters += tc;
            traced.push(r);
        }
        if start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let first = &plain[0];
    for r in plain.iter().chain(&traced) {
        report.attempted += 1 + (r.cycles.len() + r.rollout_ms.len()) as u64;
        if !r.same_result(first) {
            eprintln!(
                "perfbench: a round's reward curve or greedy cycles differ from the first round's"
            );
            report.failed += 1;
        }
    }
    let rate =
        |rs: &[&train::Round]| median(&rs.iter().map(|r| r.steps_per_s()).collect::<Vec<_>>());
    // Each round is one sub-window. The rate is the median over the
    // quieter half of the rounds; the latency percentiles pool those
    // rounds' held-out rollouts (a different slice of programs each).
    let quiet = quieter_half(plain.iter().map(|r| (r.steal, r)).collect());
    let mut lat: Vec<f64> = quiet
        .iter()
        .flat_map(|r| r.rollout_ms.iter().copied())
        .collect();
    lat.sort_by(f64::total_cmp);
    report.set("cycles_vs_o3", first.cycles_vs_o3);
    report.set("ops_per_s", rate(&quiet));
    report.set("p50_ms", percentile(&lat, 0.5));
    report.set("p90_ms", percentile(&lat, 0.9));
    report.detail("rounds", plain.len());
    report.detail("rounds_kept", quiet.len());
    report.detail("env_steps_per_s", rate(&quiet));
    report.detail("steps_per_round", train::expected_steps());
    report.latency_details("greedy_rollout", &lat);
    if tracer.is_some() {
        let c = counters;
        let all = |rs: &[train::Round]| rate(&rs.iter().collect::<Vec<_>>());
        report.set("trace.overhead_steps_per_s", all(&traced) - all(&plain));
        report.set(
            "core.profiler_runs_per_step",
            c.samples as f64 / c.steps.max(1) as f64,
        );
        let lookups = (c.snapshot_hits + c.snapshot_misses).max(1);
        report.set(
            "core.snapshot_hit_ratio",
            c.snapshot_hits as f64 / lookups as f64,
        );
        report.detail("traced_rounds", traced.len());
        report.detail("traced_env_steps_per_s", all(&traced));
    }
    Ok(())
}

fn run_serve(
    args: &Args,
    report: &mut Report,
    tracer: Option<&Arc<Tracer>>,
    run_dir: &Path,
) -> Result<(), String> {
    let workers = nproc();
    let mixed = args.workload == Workload::ServeMixed;
    let setup_dir = |k: usize| run_dir.join(format!("setup-{k}"));
    let s = if tracer.is_none() {
        repeated_setup(
            report,
            |k| serve::setup(args.seed, workers, mixed, &setup_dir(k)),
            |s| (s.ckpt_bytes.clone(), s.warm_answers.clone()),
            serve::ServeSetup::teardown,
        )?
    } else {
        serve::setup(args.seed, workers, mixed, &setup_dir(0))?
    };
    let result = measure_serve(args, report, tracer, run_dir, &s);
    s.teardown();
    result
}

fn measure_serve(
    args: &Args,
    report: &mut Report,
    tracer: Option<&Arc<Tracer>>,
    run_dir: &Path,
    s: &serve::ServeSetup,
) -> Result<(), String> {
    let mut phases = Vec::new();
    let secs = if tracer.is_some() {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    // The daemon's STATS view covers the untraced phase only.
    autophase_telemetry::reset();
    phases.push(serve::measure(s, &s.cold, secs, None)?);
    let mut replay = None;
    if let Some(t) = tracer {
        let stats = serve::daemon_stats(s)?;
        for stage in STAGES {
            let h = stats.hist("serve.stage_ns", stage).unwrap_or_default();
            report.set(&format!("serve.stage.{stage}_ns.p50"), h.p50 as f64);
            report.set(&format!("serve.stage.{stage}_ns.p99"), h.p99 as f64);
        }
        let r = serve::Replay::new(Arc::clone(t), s, run_dir)?;
        let next = phases[0].cold.replies.len();
        phases.push(serve::measure(s, &s.cold[next..], secs, Some(&r))?);
        replay = Some(r);
    }
    let (quality, attempted, failed) = serve::score(s)?;
    report.set("cycles_vs_o3", quality);
    report.attempted += attempted;
    report.failed += failed;

    let mut offset = 0;
    let mut checked = 0;
    for p in &phases {
        report.attempted += p.cold.attempted;
        report.failed += p.cold.failed;
        if let Some(w) = &p.warm {
            report.attempted += w.attempted;
            report.failed += w.failed;
        }
        let (n, failed) = serve::check_sample(args.seed, &s.cold[offset..], &p.cold.replies);
        checked += n;
        report.failed += failed;
        offset += p.cold.replies.len();
    }
    report.detail("output_checks", checked + s.quality.len() as u64);

    let a = &phases[0];
    let primary = a.warm.as_ref().unwrap_or(&a.cold);
    let w = a
        .windowed(primary)
        .ok_or(format!("too few requests: {}", primary.reqs.len()))?;
    report.set("ops_per_s", w.per_s);
    report.set("p50_ms", w.p50);
    report.set("p90_ms", w.p90);
    let steal: Vec<String> = a
        .steal
        .iter()
        .map(|x| format!("{:.1}", 100.0 * x))
        .collect();
    report.detail("window_steal_pct", format!("\"{}\"", steal.join(" ")));
    report.window_details("cold", a, &a.cold);
    if let Some(warm) = &a.warm {
        report.window_details("warm", a, warm);
    }
    if let (Some(r), Some(t)) = (&replay, tracer) {
        let b = &phases[1];
        report.set(
            "trace.overhead_cold_p50_ms",
            median(&b.cold.lat_ms()) - median(&a.cold.lat_ms()),
        );
        layer_metrics(report, r, t);
    }
    Ok(())
}

/// Per-request sums of one span name.
fn sums_by_request(spans: &[trace::Span], name: &str) -> HashMap<u64, f64> {
    let mut out = HashMap::new();
    for s in spans.iter().filter(|s| s.name == name) {
        *out.entry(s.request).or_insert(0.0) += s.duration() as f64;
    }
    out
}

/// Serve per-layer metrics derived from the replay: linger, the rollout
/// accounting, counters, and the store lock-wait estimate.
fn layer_metrics(report: &mut Report, r: &serve::Replay, t: &Tracer) {
    let spans = t.spans();
    let forward = sums_by_request(&spans, "nn.forward_ns");
    let apply = sums_by_request(&spans, "passes.apply_ns");
    let resync = sums_by_request(&spans, "features.resync_ns");
    let rollout = sums_by_request(&spans, "engine.rollout_ns");
    let waits = t.values_named("engine.infer_wait_ns");
    let (mut accounted, mut total) = (0.0, 0.0);
    for (rid, wait) in waits {
        let get = |m: &HashMap<u64, f64>| m.get(&rid).copied().unwrap_or(0.0);
        let linger = wait - get(&forward);
        t.value("engine.linger_ns", rid, linger);
        accounted += get(&forward) + get(&apply) + get(&resync) + linger;
        total += get(&rollout);
    }
    report.set("engine.rollout_accounted_ratio", accounted / total.max(1.0));
    let c = r.counters();
    report.set("engine.infer_calls", c.infer_calls as f64);
    report.set("engine.batch_max", f64::from(c.batch_max));
    report.set(
        "passes.changed_ratio",
        c.changed as f64 / c.applies.max(1) as f64,
    );
    report.set("store.compactions", r.compactions() as f64);
}

/// Fill in the span-derived per-layer metrics and default every missing
/// per-layer metric to zero (a layer the workload never calls).
fn finish_layers(report: &mut Report, t: &Tracer) {
    let samples = t.samples();
    for layer in TIMED_LAYERS {
        let s = summarize(samples.get(layer).map_or(&[][..], Vec::as_slice));
        report.set(&format!("{layer}.count"), s.count as f64);
        report.set(&format!("{layer}.p50"), s.p50);
        report.set(&format!("{layer}.p99"), s.p99);
        report.set(&format!("{layer}.sum"), s.sum);
    }
    if let (Some(stage), Some(fp), Some(lookup)) = (
        report.metrics.get("serve.stage.store_ns.p50").copied(),
        report.metrics.get("core.fingerprint_ns.p50").copied(),
        report.metrics.get("store.lookup_ns.p50").copied(),
    ) {
        if stage > 0.0 {
            report.set("serve.store_wait_est_ns", stage - fp - lookup);
        }
    }
    for (name, _) in per_layer_metrics() {
        report.metrics.entry(name).or_insert(0.0);
    }
}

fn json_number(v: f64) -> Result<String, String> {
    if v.is_finite() {
        Ok(format!("{v}"))
    } else {
        Err(format!("non-finite value {v}"))
    }
}

fn run(args: &Args) -> Result<String, String> {
    let run_dir = PathBuf::from(RUN_DIR).join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&run_dir).map_err(|e| format!("{}: {e}", run_dir.display()))?;
    let prov = Provenance::collect(&run_dir);
    let jiffies = provenance::cpu_jiffies();
    let tracer = args.trace.then(|| Arc::new(Tracer::new()));
    let mut report = Report::default();
    let outcome = match args.workload {
        Workload::Train => run_train(args, &mut report, tracer.as_ref()),
        Workload::ServeCold | Workload::ServeMixed => {
            run_serve(args, &mut report, tracer.as_ref(), &run_dir)
        }
    };
    let _ = std::fs::remove_dir_all(&run_dir);
    outcome?;
    report.set("peak_rss_mb", peak_rss_mb());
    let steal = provenance::steal_share(jiffies, provenance::cpu_jiffies());
    report.detail("cpu_steal_pct", 100.0 * steal);

    let wanted: Vec<(String, &str)> = match &tracer {
        Some(t) => {
            finish_layers(&mut report, t);
            let path = PathBuf::from(RUN_DIR).join(format!(
                "trace-{}-{}.jsonl",
                args.workload.name(),
                args.seed
            ));
            std::fs::write(&path, t.to_jsonl()).map_err(|e| format!("{}: {e}", path.display()))?;
            report.detail("trace_file", format!("\"{}\"", path.display()));
            per_layer_metrics()
        }
        None => END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect(),
    };
    let mut metrics = Vec::with_capacity(wanted.len());
    for (name, unit) in &wanted {
        let v = report
            .metrics
            .get(name)
            .ok_or(format!("metric {name} was not measured"))?;
        metrics.push(format!(
            "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
            json_number(*v)?
        ));
    }
    let details: Vec<String> = report
        .details
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    println!(
        "{{\"perfbench\":{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},{},{}}}}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace,
        prov.json_fields(),
        details.join(",")
    );
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.failed == 0,
        report.attempted.max(1),
        report.failed,
        metrics.join(",")
    ))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload train|serve_cold|serve_mixed --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every metric object in one section of
    /// BENCHMARK.json, read without a JSON library: each metric object
    /// lists `name` then `unit`.
    fn declared(section: &str) -> Vec<(String, String)> {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section closes")];
        let field = |s: &str, key: &str| -> Option<(String, usize)> {
            let at = s.find(&format!("\"{key}\": \""))? + key.len() + 5;
            let end = at + s[at..].find('"')?;
            Some((s[at..end].to_string(), end))
        };
        let mut out = Vec::new();
        let mut rest = body;
        while let Some((name, end)) = field(rest, "name") {
            rest = &rest[end..];
            let (unit, end) = field(rest, "unit").expect("unit follows name");
            rest = &rest[end..];
            out.push((name, unit));
        }
        out
    }

    #[test]
    fn end_to_end_metrics_match_benchmark_json() {
        let want: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared("end_to_end"), want);
    }

    #[test]
    fn per_layer_metrics_match_benchmark_json() {
        let want: Vec<(String, String)> = per_layer_metrics()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(declared("per_layer"), want);
    }

    #[test]
    fn args_parse_and_reject() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv(
            "--workload serve_cold --seed 7 --seconds 20 --trace 1",
        ))
        .unwrap();
        assert!(a.workload == Workload::ServeCold && a.seed == 7 && a.trace);
        assert_eq!(a.seconds, 20.0);
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload train --seed 1 --seconds 1 --trace 2",
            "--workload train --seed 1 --seconds 0 --trace 0",
            "--workload train --seed 1 --seconds 1",
            "--workload train --seed 1 --seconds 1 --trace 0 --extra 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
