//! One run of one benchmark workload.
//!
//! ```text
//! perfbench <steady|migrate|q8-durable> --seed N --seconds S
//!           [--trace-out FILE] [--data-dir DIR] [--workers W]
//!           [--setup-only] [--unpaced-only] [--corrupt]
//! ```
//!
//! Prints `READY <ns>` when the first timed epoch is due (the end of set-up),
//! with the time it was scheduled for on the run's clock, then
//! one `RESULT {json}` line with the run's end-to-end metrics, the per-layer
//! metrics when `--trace-out` is given, and the outcome of the output check.
//! `perfbench/run.py` drives this binary: it builds it, runs each workload in
//! its own process under a wall-clock budget and assembles the final report.

mod check;
mod count;
mod pace;
mod q8;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;

use megaphone::prelude::*;
use megaphone::StorageStats;

use crate::check::Digest;
use crate::pace::{Episodes, Plan, WorkerReport, EPOCH_NS};
use crate::stats::{
    classify, median, quantile, stalls_of, Episode, EpisodeKind, EpochSample, MIN_P99_SAMPLES,
};
use crate::trace::{Layer, LayerTotals, Span};

/// Base-2 logarithm of the bin count: 256 bins.
pub const BIN_SHIFT: u32 = 8;
/// Paced epochs reserved for an all-at-once episode.
pub const AAO_SLOT: u64 = 25;
/// Paced epochs reserved for a fluid episode.
pub const STEPWISE_SLOT: u64 = 140;
/// Paced epochs of one round of episodes (see `Episodes::rounds`).
const ROUND: u64 = 3 * AAO_SLOT + STEPWISE_SLOT;
/// Paced warm-up epochs before timing starts.
const WARMUP: u64 = 50;
/// Paced epochs after the timed ones, so the last timed epoch is followed
/// by ordinary load rather than by a quiet input.
const COOL_DOWN: u64 = 10;
/// Unpaced epochs of the counting workloads.
const UNPACED: u64 = 80;
/// How long outstanding epochs may take to complete after the last is due.
const DRAIN_NS: u64 = 10_000_000_000;

/// Command-line options.
pub struct Opts {
    workload: String,
    /// Input seed.
    pub seed: u64,
    seconds: u64,
    /// Worker threads.
    pub workers: usize,
    trace_out: Option<PathBuf>,
    /// Durable store root (`q8-durable`).
    pub data_dir: Option<PathBuf>,
    setup_only: bool,
    unpaced_only: bool,
    /// Damage one output row so the output check must fail.
    pub corrupt: bool,
}

fn parse() -> Result<Opts, String> {
    let mut args = std::env::args().skip(1);
    let workload = args.next().ok_or("missing workload")?;
    let mut opts = Opts {
        workload,
        seed: 1,
        seconds: 12,
        workers: 2,
        trace_out: None,
        data_dir: None,
        setup_only: false,
        unpaced_only: false,
        corrupt: false,
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--workers" => {
                opts.workers = value()?.parse().map_err(|e| format!("--workers: {e}"))?
            }
            "--trace-out" => opts.trace_out = Some(PathBuf::from(value()?)),
            "--data-dir" => opts.data_dir = Some(PathBuf::from(value()?)),
            "--setup-only" => opts.setup_only = true,
            "--unpaced-only" => opts.unpaced_only = true,
            "--corrupt" => opts.corrupt = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if opts.workers == 0 || opts.seconds == 0 {
        return Err("--workers and --seconds must be positive".into());
    }
    Ok(opts)
}

/// Per-worker storage counters and the storage cycle's timings.
#[derive(Clone, Copy, Debug, Default)]
pub struct StorageTotals {
    wal_bytes: u64,
    wal_records: u64,
    tables: u64,
    table_bytes: u64,
    compactions: u64,
    spilled_bins: u64,
    checkpoint_ns: u64,
    checkpoint_busy_retries: u64,
    spill_ns: u64,
}

impl StorageTotals {
    fn add(&mut self, counters: &StorageStats) {
        self.wal_bytes += counters.wal_bytes;
        self.wal_records += counters.wal_records;
        self.tables += counters.tables;
        self.table_bytes += counters.table_bytes;
        self.compactions += counters.compactions;
    }

    fn merge(&mut self, other: &StorageTotals) {
        self.wal_bytes += other.wal_bytes;
        self.wal_records += other.wal_records;
        self.tables += other.tables;
        self.table_bytes += other.table_bytes;
        self.compactions += other.compactions;
        self.spilled_bins += other.spilled_bins;
        self.checkpoint_ns += other.checkpoint_ns;
        self.checkpoint_busy_retries += other.checkpoint_busy_retries;
        self.spill_ns += other.spill_ns;
    }
}

/// What one worker thread hands back.
pub struct WorkerOutcome {
    report: WorkerReport,
    spans: Vec<Span>,
    fold_records: u64,
    episodes: Vec<Episode>,
    steps_issued: u64,
    stats: BinStats,
    tracked_bytes: u64,
    storage: StorageTotals,
    digest: Digest,
}

/// A finished run.
pub struct Outcome {
    workers: Vec<WorkerOutcome>,
    peak_rss: u64,
    check: Result<(), String>,
    plan: Plan,
}

/// The peak resident set size of this process (`VmHWM`), in bytes.
pub fn peak_rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .ok()
        })
        .map_or(0, |kb| kb * 1024)
}

fn main() {
    let opts = match parse() {
        Ok(opts) => opts,
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(2);
        }
    };
    if opts.trace_out.is_some() {
        trace::enable();
    }
    let timed = if opts.unpaced_only {
        0
    } else {
        opts.seconds * 100
    };
    let warmup = if opts.unpaced_only { 0 } else { WARMUP };
    let plan = |rate, extra, unpaced, unpaced_batch| Plan {
        rate,
        warmup,
        timed,
        extra,
        unpaced,
        unpaced_batch,
        drain_ns: DRAIN_NS,
        setup_only: opts.setup_only,
    };
    enum Run {
        Count(count::Shape, Vec<(u64, EpisodeKind)>),
        Q8(Vec<u64>),
    }
    let (plan, run) = match opts.workload.as_str() {
        "steady" => {
            // Timed epochs see no migration; a sub-phase after them runs three
            // rounds of episodes over the same hash-count state.
            let rounds = if opts.unpaced_only { 0 } else { 3 };
            let schedule = Episodes::rounds(warmup + timed + 20, rounds, AAO_SLOT, STEPWISE_SLOT);
            let extra = if rounds == 0 { 0 } else { 20 + rounds * ROUND };
            (
                plan(2_000_000, extra, UNPACED, 400_000),
                Run::Count(count::Shape::Hash, schedule),
            )
        }
        "migrate" => {
            // As many rounds of episodes as fit the timed epochs.
            let rounds = timed.saturating_sub(60) / ROUND;
            let schedule = Episodes::rounds(warmup + 30, rounds, AAO_SLOT, STEPWISE_SLOT);
            (
                plan(400_000, COOL_DOWN, UNPACED, 400_000),
                Run::Count(count::Shape::Dense, schedule),
            )
        }
        "q8-durable" => {
            let cycles =
                (0..timed.saturating_sub(20) / q8::CYCLE).map(|c| warmup + 20 + c * q8::CYCLE);
            (
                plan(q8::RATE, COOL_DOWN, 50, q8::UNPACED_PER_EPOCH),
                Run::Q8(cycles.collect()),
            )
        }
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    // Announced first, so a run that dies still has its epochs counted.
    println!("EPOCHS {}", plan.paced() + plan.unpaced);
    let outcome = match run {
        Run::Count(shape, schedule) => count::run(&opts, shape, plan, schedule),
        Run::Q8(cycles) => q8::run(&opts, plan, &cycles),
    };
    if let Some(path) = &opts.trace_out {
        if let Err(error) = write_trace(path, &outcome.workers) {
            eprintln!("perfbench: writing {}: {error}", path.display());
        }
    }
    println!("RESULT {}", render(&opts, &outcome));
}

fn write_trace(path: &std::path::Path, workers: &[WorkerOutcome]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (index, worker) in workers.iter().enumerate() {
        trace::write_jsonl(&mut out, index, &worker.spans)?;
    }
    std::io::Write::flush(&mut out)
}

const MS: f64 = 1e6;
const MB: f64 = (1 << 20) as f64;

/// Metric values in order of insertion, rendered as a JSON object.
#[derive(Default)]
struct Metrics(Vec<(String, f64)>);

impl Metrics {
    fn put(&mut self, name: &str, value: f64) {
        self.0.push((name.to_string(), value));
    }

    fn json(&self) -> String {
        let mut out = String::from("{");
        // A value that could not be measured (NaN) is left out, which makes
        // `run.py` report the run as incorrect.
        let finite = self.0.iter().filter(|(_, value)| value.is_finite());
        for (n, (name, value)) in finite.enumerate() {
            let _ = write!(out, "{}\"{name}\":{value}", if n > 0 { "," } else { "" });
        }
        out.push('}');
        out
    }
}

fn json_string(text: &str) -> String {
    let mut out = String::from("\"");
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Unpaced epochs per throughput sample.
const THROUGHPUT_CHUNK: usize = 5;

/// Records per second over each run of `chunk` consecutive unpaced epochs of
/// `batch` records, given each epoch's completion time from the phase's start.
fn chunk_rates(done_ns: &[u64], batch: u64, chunk: usize) -> Vec<f64> {
    let mut rates = Vec::new();
    let mut from = 0;
    for window in done_ns.chunks_exact(chunk) {
        let to = *window.last().expect("chunks are non-empty");
        rates.push((chunk as u64 * batch) as f64 * 1e9 / (to - from).max(1) as f64);
        from = to;
    }
    rates
}

/// Worker 0's samples of the paced epochs after the warm-up.
fn after_warmup(outcome: &Outcome) -> &[EpochSample] {
    outcome.workers[0]
        .report
        .samples
        .get(outcome.plan.warmup as usize..)
        .unwrap_or(&[])
}

/// The median over storage episodes of their largest epoch latency, 0 for
/// a run without storage episodes.
fn storage_stall_ms(samples: &[EpochSample], episodes: &[Episode]) -> f64 {
    let (_, stalls) = classify(samples, episodes);
    let worst: Vec<f64> = stalls_of(&stalls, episodes, EpisodeKind::Storage)
        .iter()
        .flatten()
        .map(|&ns| ns as f64 / MS)
        .collect();
    median(&worst).unwrap_or(0.0)
}

/// The median over the steps of stepwise episodes of each step's time from
/// the scheduled end of its epoch to its completion, 0 for a run without
/// stepwise episodes.
fn step_ms(episodes: &[Episode]) -> f64 {
    let steps: Vec<f64> = episodes
        .iter()
        .filter(|e| e.kind == EpisodeKind::Stepwise)
        .flat_map(|e| e.step_ns.iter().map(|&ns| ns as f64 / MS))
        .collect();
    median(&steps).unwrap_or(0.0)
}

/// Renders the run as the `RESULT` object.
fn render(opts: &Opts, outcome: &Outcome) -> String {
    let plan = &outcome.plan;
    let lead = &outcome.workers[0];
    let episodes = &lead.episodes;
    let attempted = plan.paced() + plan.unpaced;
    let failed = outcome
        .workers
        .iter()
        .map(|w| w.report.failed)
        .max()
        .unwrap_or(0);

    // Latencies of the timed epochs, all-at-once and storage episodes
    // excluded; stalls over every epoch after the warm-up.
    let after_warmup = after_warmup(outcome);
    let timed = &after_warmup[..after_warmup.len().min(plan.timed as usize)];
    let (latencies, _) = classify(timed, episodes);
    let (_, stalls) = classify(after_warmup, episodes);
    let ms = |ns: u64| ns as f64 / MS;
    let mut problems = Vec::new();
    if let Err(message) = &outcome.check {
        problems.push(message.clone());
    }
    if failed > 0 {
        problems.push(format!("{failed} epochs missed the drain deadline"));
    }
    // The p99 and the maximum are refused (left out) below this many
    // samples; the printed p90 needs ten samples beyond it.
    let tail = |q: f64| {
        if latencies.len() >= MIN_P99_SAMPLES {
            quantile(&latencies, q).map_or(f64::NAN, ms)
        } else {
            f64::NAN
        }
    };
    if plan.timed > 0 && latencies.len() < 100 {
        problems.push(format!("only {} latency samples", latencies.len()));
    }

    let mut e2e = Metrics::default();
    if plan.timed > 0 {
        e2e.put(
            "latency_p50_ms",
            quantile(&latencies, 0.5).map_or(f64::NAN, ms),
        );
        e2e.put(
            "latency_p75_ms",
            quantile(&latencies, 0.75).map_or(f64::NAN, ms),
        );
        e2e.put(
            "latency_p90_ms",
            quantile(&latencies, 0.9).map_or(f64::NAN, ms),
        );
        e2e.put(
            "latency_p95_ms",
            quantile(&latencies, 0.95).map_or(f64::NAN, ms),
        );
        e2e.put("latency_p99_ms", tail(0.99));
        e2e.put("latency_max_ms", tail(1.0));
        e2e.put("latency_samples", latencies.len() as f64);
        let aao = stalls_of(&stalls, episodes, EpisodeKind::AllAtOnce);
        let aao_ms: Vec<f64> = aao.iter().flatten().map(|&ns| ms(ns)).collect();
        e2e.put("aao_stall_ms", median(&aao_ms).unwrap_or(f64::NAN));
        e2e.put("aao_episodes", aao.len() as f64);
        e2e.put("storage_stall_ms", storage_stall_ms(after_warmup, episodes));
        e2e.put(
            "storage_episodes",
            stalls_of(&stalls, episodes, EpisodeKind::Storage).len() as f64,
        );
        let fluid: Vec<f64> = episodes
            .iter()
            .filter(|e| e.kind == EpisodeKind::Stepwise)
            .map(|e| ms(e.end_ns - e.start_ns))
            .collect();
        e2e.put("fluid_migration_ms", median(&fluid).unwrap_or(f64::NAN));
        e2e.put("fluid_episodes", fluid.len() as f64);
        e2e.put("fluid_step_ms", step_ms(episodes));
        if aao.is_empty() || fluid.is_empty() {
            problems.push("a migration kind completed no episode".into());
        }
    }
    if plan.unpaced > 0 && lead.report.unpaced_done_ns.len() as u64 == plan.unpaced {
        let rates = chunk_rates(
            &lead.report.unpaced_done_ns,
            plan.unpaced_batch,
            THROUGHPUT_CHUNK,
        );
        e2e.put("throughput_rps", median(&rates).unwrap_or(f64::NAN));
        e2e.put(
            "throughput_records",
            (plan.unpaced * plan.unpaced_batch) as f64,
        );
    }
    e2e.put("peak_rss_mb", outcome.peak_rss as f64 / MB);

    let layers = if opts.trace_out.is_some() {
        layer_metrics(opts, outcome).json()
    } else {
        "{}".into()
    };
    format!(
        "{{\"correct\":{},\"detail\":{},\"attempted\":{attempted},\"failed\":{},\"e2e\":{},\"layers\":{layers}}}",
        problems.is_empty(),
        json_string(&problems.join("; ")),
        if problems.is_empty() { failed } else { attempted },
        e2e.json(),
    )
}

/// The per-layer table of a traced run.
fn layer_metrics(opts: &Opts, outcome: &Outcome) -> Metrics {
    let workers = &outcome.workers;
    let lead = &workers[0];
    let mut totals = LayerTotals::default();
    for worker in workers {
        totals.merge(&trace::totals(&worker.spans, worker.report.wall_ns));
    }
    let sum = |f: &dyn Fn(&WorkerOutcome) -> u64| workers.iter().map(f).sum::<u64>();
    let is_q8 = opts.workload == "q8-durable";
    let mut m = Metrics::default();

    let lags: Vec<u64> = workers
        .iter()
        .flat_map(|w| w.report.emit_lag_ns.iter().copied())
        .collect();
    m.put(
        "driver.emit_lag_p99_ms",
        quantile(&lags, 0.99).unwrap_or(0) as f64 / MS,
    );
    m.put("driver.backlog_max_epochs", lead.report.backlog_max as f64);
    m.put("driver.gen_ms", totals.self_of(Layer::Gen) as f64 / MS);
    let generated = sum(&|w| w.report.records_sent + w.report.prefill_sent);
    m.put(
        "nexmark.generator.ms",
        if is_q8 {
            totals.self_of(Layer::Gen) as f64 / MS
        } else {
            0.0
        },
    );
    m.put(
        "nexmark.generator.events",
        if is_q8 { generated as f64 } else { 0.0 },
    );
    m.put(
        "timelite.input.ms",
        totals.self_of(Layer::Input) as f64 / MS,
    );
    m.put("timelite.input.records", generated as f64);

    let busy = totals.total_of(Layer::Step);
    let steps = sum(&|w| w.report.steps.0);
    let quiet = sum(&|w| w.report.steps.1);
    m.put("timelite.worker.busy_ms", busy as f64 / MS);
    m.put(
        "timelite.worker.idle_ms",
        totals.total_of(Layer::Idle) as f64 / MS,
    );
    m.put(
        "timelite.worker.active_share",
        (steps - quiet) as f64 / steps.max(1) as f64,
    );
    m.put(
        "timelite.worker.step_max_ms",
        totals.step_ns.iter().max().copied().unwrap_or(0) as f64 / MS,
    );
    m.put(
        "timelite.worker.step_p99_us",
        quantile(&totals.step_ns, 0.99).unwrap_or(0) as f64 / 1e3,
    );
    m.put(
        "timelite.progress.pending_max",
        workers
            .iter()
            .map(|w| w.report.progress_max.0)
            .max()
            .unwrap_or(0) as f64,
    );
    m.put(
        "timelite.progress.activated_max",
        workers
            .iter()
            .map(|w| w.report.progress_max.1)
            .max()
            .unwrap_or(0) as f64,
    );

    let fold_calls = totals.count_of(Layer::Fold);
    let fold_records = sum(&|w| w.fold_records);
    m.put(
        "megaphone.operator.fold_ms",
        totals.total_of(Layer::Fold) as f64 / MS,
    );
    m.put("megaphone.operator.fold_calls", fold_calls as f64);
    m.put(
        "megaphone.operator.records_per_call",
        fold_records as f64 / fold_calls.max(1) as f64,
    );
    m.put(
        "megaphone.operator.engine_ms",
        totals.self_of(Layer::Step) as f64 / MS,
    );

    let mut stats = BinStats::default();
    workers.iter().for_each(|w| stats.merge(&w.stats));
    let peers = workers.len();
    m.put(
        "megaphone.bins.state_mb",
        sum(&|w| w.tracked_bytes) as f64 / MB,
    );
    m.put("megaphone.bins.records", stats.total_records() as f64);
    m.put(
        "megaphone.bins.imbalance",
        stats.imbalance(&balanced_assignment(1 << BIN_SHIFT, peers), peers),
    );

    let episodes = &lead.episodes;
    let stepwise: Vec<&Episode> = episodes
        .iter()
        .filter(|e| e.kind == EpisodeKind::Stepwise)
        .collect();
    // Worker 0 sees the bytes of the bins it sends: the all-at-once moves to
    // the imbalanced assignment.
    let aao: Vec<&Episode> = episodes
        .iter()
        .filter(|e| e.kind == EpisodeKind::AllAtOnce && e.moved_bytes > 0)
        .collect();
    m.put(
        "megaphone.controller.us",
        totals.total_of(Layer::Controller) as f64 / 1e3,
    );
    m.put(
        "megaphone.controller.steps_issued",
        lead.steps_issued as f64,
    );
    let per_step: Vec<f64> = stepwise
        .iter()
        .map(|e| (e.end_ns - e.start_ns) as f64 / EPOCH_NS as f64 / e.steps.max(1) as f64)
        .collect();
    m.put(
        "megaphone.controller.epochs_per_step",
        median(&per_step).unwrap_or(0.0),
    );
    m.put("megaphone.controller.step_ms", step_ms(episodes));
    let moved: Vec<f64> = aao.iter().map(|e| e.moved_bytes as f64 / MB).collect();
    m.put(
        "megaphone.controller.moved_mb",
        median(&moved).unwrap_or(0.0),
    );
    let rates: Vec<f64> = aao
        .iter()
        .map(|e| e.moved_bytes as f64 / MB / ((e.end_ns - e.start_ns) as f64 / 1e9))
        .collect();
    m.put(
        "megaphone.controller.aao_mb_per_s",
        median(&rates).unwrap_or(0.0),
    );

    let mut storage = StorageTotals::default();
    workers.iter().for_each(|w| storage.merge(&w.storage));
    m.put("megaphone.storage.wal_mb", storage.wal_bytes as f64 / MB);
    m.put("megaphone.storage.wal_records", storage.wal_records as f64);
    m.put("megaphone.storage.sstables", storage.tables as f64);
    m.put("megaphone.storage.compactions", storage.compactions as f64);
    m.put(
        "megaphone.storage.spilled_bins",
        storage.spilled_bins as f64,
    );
    m.put(
        "megaphone.storage.disk_mb",
        (storage.wal_bytes + storage.table_bytes) as f64 / MB,
    );
    m.put(
        "megaphone.storage.checkpoint_ms",
        storage.checkpoint_ns as f64 / MS,
    );
    m.put(
        "megaphone.storage.checkpoint_busy_retries",
        storage.checkpoint_busy_retries as f64,
    );
    m.put("megaphone.storage.spill_ms", storage.spill_ns as f64 / MS);
    m.put(
        "megaphone.storage.stall_ms",
        storage_stall_ms(after_warmup(outcome), episodes),
    );

    m.put(
        "nexmark.queries.q8_rows",
        if is_q8 {
            sum(&|w| w.digest.rows) as f64
        } else {
            0.0
        },
    );
    m.put("trace.unattributed_ms", totals.unattributed_ns as f64 / MS);
    m.put(
        "trace.spans",
        workers.iter().map(|w| w.spans.len()).sum::<usize>() as f64,
    );
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_rates_divide_records_by_chunk_time() {
        // Epochs of 100 records completing every 10 ns, then every 20 ns.
        let done = [10, 20, 30, 40, 60, 80, 100];
        assert_eq!(chunk_rates(&done, 100, 2), vec![1e10, 1e10, 5e9]);
    }
}
