//! Shared helpers for the benchmark/experiment binaries.
//!
//! Each paper table/figure has a binary target:
//!
//! | target | regenerates |
//! |--------|-------------|
//! | `table1` | Table 1 (pass list) |
//! | `table2` | Table 2 (feature list) |
//! | `table3` | Table 3 (algorithm spaces) |
//! | `fig5` | Figure 5 (feature-importance heat map) |
//! | `fig6` | Figure 6 (pass-history-importance heat map) |
//! | `fig7` | Figure 7 (per-program speedups + samples) |
//! | `fig8` | Figure 8 (learning curves) |
//! | `fig9` | Figure 9 (generalization) |
//! | `generalize_random` | §6.2's random-program generalization number |
//! | `rollout_bench` | rollout throughput: full recompute vs. incremental, serial vs. parallel/shared cache |
//!
//! Run with `--scale small|medium|paper` (default `small`); `paper`
//! approaches the paper's sample counts and takes correspondingly long.
//!
//! Every binary also takes `--telemetry off|summary|jsonl|prom`
//! (default `off`, except `rollout_bench` which defaults to `summary`).
//! Any enabled mode records spans/counters/histograms across the whole
//! stack and writes a machine-readable event log to
//! `results/<bin>_telemetry.jsonl` at exit; `summary` additionally
//! prints the human table, `prom` a Prometheus text dump to
//! `results/<bin>_telemetry.prom`.

use autophase_telemetry as telemetry;

/// Experiment scale from the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-scale smoke run.
    Small,
    /// Minutes-scale run with meaningful statistics.
    Medium,
    /// Corpus-scale run (≥10k programs) that stays short of the paper's
    /// full sample counts; the corpus bench's acceptance scale.
    Large,
    /// Hours-scale run approaching the paper's sample counts.
    Paper,
}

impl Scale {
    /// Parse `--scale <s>` from argv (defaults to `Small`).
    pub fn from_args() -> Scale {
        let args: Vec<String> = std::env::args().collect();
        for w in args.windows(2) {
            if w[0] == "--scale" {
                return match w[1].as_str() {
                    "paper" => Scale::Paper,
                    "large" => Scale::Large,
                    "medium" => Scale::Medium,
                    _ => Scale::Small,
                };
            }
        }
        Scale::Small
    }

    /// Scale-dependent pick. Binaries predating the `large` tier treat
    /// it as `medium` (their workloads have no corpus-scale knob).
    pub fn pick<T>(self, small: T, medium: T, paper: T) -> T {
        match self {
            Scale::Small => small,
            Scale::Medium | Scale::Large => medium,
            Scale::Paper => paper,
        }
    }

    /// Four-tier pick for binaries with a distinct corpus-scale setting.
    pub fn pick4<T>(self, small: T, medium: T, large: T, paper: T) -> T {
        match self {
            Scale::Small => small,
            Scale::Medium => medium,
            Scale::Large => large,
            Scale::Paper => paper,
        }
    }
}

/// How a benchmark binary reports telemetry, from `--telemetry <mode>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TelemetryMode {
    /// Telemetry disabled: the instrumented call sites pay one relaxed
    /// atomic load each and record nothing.
    Off,
    /// Record and print the end-of-run human summary table.
    Summary,
    /// Record and write only the JSONL event log.
    Jsonl,
    /// Record and additionally write a Prometheus text dump.
    Prom,
}

impl TelemetryMode {
    /// Parse `--telemetry <mode>` from argv, with a per-binary default.
    pub fn from_args_or(default: TelemetryMode) -> TelemetryMode {
        let args: Vec<String> = std::env::args().collect();
        for w in args.windows(2) {
            if w[0] == "--telemetry" {
                return match w[1].as_str() {
                    "summary" => TelemetryMode::Summary,
                    "jsonl" => TelemetryMode::Jsonl,
                    "prom" => TelemetryMode::Prom,
                    _ => TelemetryMode::Off,
                };
            }
        }
        default
    }

    /// Parse `--telemetry <mode>` from argv (defaults to `Off`).
    pub fn from_args() -> TelemetryMode {
        TelemetryMode::from_args_or(TelemetryMode::Off)
    }

    /// True unless the mode is [`TelemetryMode::Off`].
    pub fn is_on(self) -> bool {
        self != TelemetryMode::Off
    }
}

/// Turn telemetry on (or leave it off) according to `mode`. Call at the
/// top of a benchmark binary's `main`.
pub fn telemetry_init(mode: TelemetryMode) {
    if mode.is_on() {
        telemetry::enable();
    }
}

/// Flush telemetry at the end of a benchmark binary: always writes the
/// machine-readable event log `results/<bin>_telemetry.jsonl` (so every
/// binary that prints partial results also leaves structured data
/// behind), plus the mode's extra output — the human summary table on
/// stdout for [`TelemetryMode::Summary`], a Prometheus text dump at
/// `results/<bin>_telemetry.prom` for [`TelemetryMode::Prom`]. A no-op
/// for [`TelemetryMode::Off`].
pub fn telemetry_finish(bin: &str, mode: TelemetryMode) {
    if !mode.is_on() {
        return;
    }
    if let Some(p) = telemetry::write_artifact(
        "results",
        &format!("{bin}_telemetry.jsonl"),
        &telemetry::render_jsonl(),
    ) {
        eprintln!("telemetry: wrote {}", p.display());
    }
    match mode {
        TelemetryMode::Summary => print!("{}", telemetry::render_summary()),
        TelemetryMode::Prom => {
            if let Some(p) = telemetry::write_artifact(
                "results",
                &format!("{bin}_telemetry.prom"),
                &telemetry::render_prometheus(),
            ) {
                eprintln!("telemetry: wrote {}", p.display());
            }
        }
        TelemetryMode::Jsonl | TelemetryMode::Off => {}
    }
}

/// RAII wrapper for the `--telemetry` lifecycle every benchmark binary
/// shares: parse the flag, enable recording, and flush the artifacts when
/// the session ends (explicitly via [`TelemetrySession::finish`] or on
/// drop, so early returns still leave the event log behind).
///
/// ```no_run
/// let session = autophase_bench::TelemetrySession::start("mybench");
/// // ... run the experiment ...
/// session.finish();
/// ```
#[must_use = "dropping the session immediately would flush telemetry before the run"]
pub struct TelemetrySession {
    bin: &'static str,
    mode: TelemetryMode,
    finished: bool,
}

impl TelemetrySession {
    /// Parse `--telemetry` (default `off`) and start recording.
    pub fn start(bin: &'static str) -> TelemetrySession {
        TelemetrySession::start_with_default(bin, TelemetryMode::Off)
    }

    /// Parse `--telemetry` with a per-binary default and start recording.
    pub fn start_with_default(bin: &'static str, default: TelemetryMode) -> TelemetrySession {
        let mode = TelemetryMode::from_args_or(default);
        telemetry_init(mode);
        TelemetrySession {
            bin,
            mode,
            finished: false,
        }
    }

    /// The parsed mode, for binaries that branch on it.
    pub fn mode(&self) -> TelemetryMode {
        self.mode
    }

    /// Flush artifacts now (idempotent; drop would do the same).
    pub fn finish(mut self) {
        self.flush();
    }

    fn flush(&mut self) {
        if !self.finished {
            self.finished = true;
            telemetry_finish(self.bin, self.mode);
        }
    }
}

impl Drop for TelemetrySession {
    fn drop(&mut self) {
        self.flush();
    }
}

/// The benchmark suite as `(name, module)` pairs for the experiment APIs.
pub fn named_suite() -> Vec<(String, autophase_ir::Module)> {
    autophase_benchmarks::suite()
        .into_iter()
        .map(|b| (b.name.to_string(), b.module))
        .collect()
}

/// Render a live daemon's per-stage latency breakdown (the
/// `serve.stage_ns` histogram family from a parsed `STATS` reply) as a
/// JSON object body — one key per stage with count, p50/p95/p99, and
/// mean in nanoseconds. Serve-facing benches embed this in their
/// `BENCH_*.json` so latency regressions can be attributed to a stage
/// (queue wait vs inference vs profiling), not just observed end to end.
pub fn stage_breakdown_json(stats: &autophase_serve::StatsSnapshot) -> String {
    let stages = stats.hist_family("serve.stage_ns");
    let entries: Vec<String> = stages
        .iter()
        .map(|(label, h)| {
            let mean = h.sum.checked_div(h.count).unwrap_or(0);
            format!(
                "\"{label}\": {{ \"count\": {}, \"p50_ns\": {}, \"p95_ns\": {}, \"p99_ns\": {}, \"mean_ns\": {mean} }}",
                h.count, h.p50, h.p95, h.p99
            )
        })
        .collect();
    format!("{{ {} }}", entries.join(", "))
}
