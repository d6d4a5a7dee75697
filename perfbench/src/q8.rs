//! The `q8-durable` workload: NEXMark Q8 over durable stores, cycling through
//! a rebalance, a checkpoint of every store and a spill of every bin.

use std::cell::Cell;
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use megaphone::prelude::*;
use megaphone::{StorageConfig, StorageError};
use nexmark::{build_native_query, build_query, Event, NexmarkConfig, NexmarkGenerator};
use timelite::prelude::*;

use crate::check::{compare, mix64, text_row_hash, Digest};
use crate::pace::{drive, Episodes, Lane, Plan, Script, Source};
use crate::stats::{Episode, EpisodeKind};
use crate::trace::{self, Layer};
use crate::{Opts, Outcome, StorageTotals, WorkerOutcome, BIN_SHIFT};

/// Offered load: events per second.
pub const RATE: u64 = 1_000_000;
/// Events sent at set-up, before the paced phase: the first second of the
/// stream.
const PREFILL: u64 = RATE;
/// Events per epoch of the unpaced phase.
pub const UNPACED_PER_EPOCH: u64 = 100_000;
/// Paced epochs per cycle.
pub const CYCLE: u64 = 300;
/// Epochs from one rebalance of a cycle to the next.
const REBALANCE_SLOT: u64 = 25;
/// Rounds of rebalances per cycle (`Episodes::rounds`), each four
/// rebalances long.
const ROUNDS_PER_CYCLE: u64 = 2;
/// Epochs from a cycle's checkpoint and spill to its first rebalance, by
/// which the spill's aftermath (every bin faulting back in) has settled.
const REBALANCE_AT: u64 = 80;
/// Logical time units (event-time milliseconds) per epoch.
const UNIT: u64 = 10;

fn generator(seed: u64) -> NexmarkGenerator {
    NexmarkGenerator::new(NexmarkConfig {
        seed: mix64(seed),
        ..NexmarkConfig::with_rate(RATE)
    })
}

/// This worker's events among indices `first..first + count`, dealt
/// round-robin across workers.
fn events(
    generator: &NexmarkGenerator,
    first: u64,
    count: u64,
    worker: usize,
    peers: usize,
) -> Vec<Event> {
    (first + worker as u64..first + count)
        .step_by(peers)
        .map(|i| generator.event(i))
        .collect()
}

/// The event stream in order of index, one epoch's worth at a time.
struct EventSource {
    generator: NexmarkGenerator,
    next: u64,
    worker: usize,
    peers: usize,
}

impl Source for EventSource {
    type Record = Event;

    fn prefill(&mut self) -> Vec<Event> {
        self.batch(PREFILL)
    }

    fn batch(&mut self, total: u64) -> Vec<Event> {
        let batch = events(&self.generator, self.next, total, self.worker, self.peers);
        self.next += total;
        batch
    }
}

/// Checkpoints every store of this worker at the listed paced epochs
/// (retrying on the next epoch while an install is in flight), then spills
/// every bin. Each cycle is recorded as a storage episode, from the first
/// checkpoint attempt until the epoch sent after the spill (whose records
/// fault the bins back in) has completed.
struct StorageCycle {
    handles: Vec<StorageHandle>,
    due: Vec<u64>,
    next: usize,
    /// When the pending cycle's first checkpoint attempt began.
    pending: Option<u64>,
    /// The open episode's start and the epoch that ends it.
    open: Option<(u64, u64)>,
    totals: StorageTotals,
    done: Vec<Episode>,
}

impl<D: timelite::Data> Script<D> for StorageCycle {
    fn before_epoch(&mut self, paced: u64, now_ns: u64, _lane: &mut Lane<D>) {
        if self.open.is_none() && self.due.get(self.next).is_some_and(|&at| paced >= at) {
            self.next += 1;
            self.pending = Some(now_ns);
        }
        let Some(start_ns) = self.pending else {
            return;
        };
        let began = Instant::now();
        let result = trace::time(Layer::Checkpoint, || {
            self.handles.iter().try_for_each(|h| h.checkpoint())
        });
        self.totals.checkpoint_ns += began.elapsed().as_nanos() as u64;
        match result {
            Ok(()) => {
                self.pending = None;
                // Paced epoch `paced` is global epoch `paced + 1`.
                self.open = Some((start_ns, paced + 1));
                let began = Instant::now();
                let spilled = trace::time(Layer::Spill, || {
                    self.handles
                        .iter()
                        .map(|h| h.spill_cold(u64::MAX))
                        .sum::<Result<usize, _>>()
                });
                self.totals.spill_ns += began.elapsed().as_nanos() as u64;
                self.totals.spilled_bins +=
                    spilled.unwrap_or_else(|error| panic!("spill failed: {error}")) as u64;
            }
            Err(StorageError::Busy(_)) => self.totals.checkpoint_busy_retries += 1,
            Err(error) => panic!("checkpoint failed: {error}"),
        }
    }

    fn after_step(&mut self, now_ns: u64, lane: &Lane<D>) {
        if let Some((start_ns, epoch)) = self.open {
            if lane.done(epoch) {
                self.open = None;
                self.done.push(Episode {
                    kind: EpisodeKind::Storage,
                    start_ns,
                    end_ns: now_ns,
                    steps: 0,
                    step_ns: Vec::new(),
                    moved_bytes: 0,
                });
            }
        }
    }
}

/// Runs Q8 over durable stores under `data_dir` and checks its rows against
/// the native Q8 on the same events. Each cycle, starting at the listed paced
/// epochs, checkpoints and spills every store, then runs two rounds of
/// rebalances (`Episodes::rounds`), each three all at once and then back to
/// the balanced assignment in `Batched(16)` steps.
pub fn run(opts: &Opts, plan: Plan, cycles: &[u64]) -> Outcome {
    let data_dir: PathBuf = opts.data_dir.clone().expect("q8-durable needs --data-dir");
    let origin = Instant::now();
    let start = Arc::new(OnceLock::new());
    let seed = opts.seed;
    let corrupt = opts.corrupt;
    let schedule = cycles.to_vec();
    let results = timelite::execute(Config::process(opts.workers), move |worker| {
        // The shipped durable defaults except fsync: on a shared virtual
        // disk fsync latency alone spreads the run-to-run latency and
        // migration figures by up to 40%, beyond the benchmark's bounds.
        // Every WAL, SSTable, checkpoint and spill write still happens.
        let durable = DurableConfig::new(&data_dir).with_fsync(false);
        megaphone::set_worker_storage(StorageConfig::Durable(durable));
        trace::install(origin);
        let index = worker.index();
        let peers = worker.peers();
        let config = MegaphoneConfig::new(BIN_SHIFT);
        let digest = Rc::new(Cell::new(Digest::default()));
        let sink = digest.clone();
        let (control, data, output) = worker.dataflow::<u64, _, _>(|scope| {
            let (control_input, control) = scope.new_input::<ControlInst>();
            let (event_input, events) = scope.new_input::<Event>();
            let output = build_query("q8", config, &control, &events);
            let mut corrupt_next = corrupt && index == 0;
            output.stream.inspect_batch(move |_time, rows| {
                let mut seen = sink.get();
                for row in rows {
                    if std::mem::take(&mut corrupt_next) {
                        seen.add(text_row_hash(&format!("{row}!")));
                    } else {
                        seen.add(text_row_hash(row));
                    }
                }
                sink.set(seen);
            });
            (control_input, event_input, output)
        });
        let stats = output.stats.clone().expect("Q8 is stateful");
        let mut lane = Lane {
            control,
            data,
            probe: output.probe.clone(),
            unit: UNIT,
        };
        let mut source = EventSource {
            generator: generator(seed),
            next: 0,
            worker: index,
            peers,
        };
        let episodes = (index == 0).then(|| {
            let schedule = schedule
                .iter()
                .flat_map(|&at| {
                    Episodes::rounds(
                        at + REBALANCE_AT,
                        ROUNDS_PER_CYCLE,
                        REBALANCE_SLOT,
                        REBALANCE_SLOT,
                    )
                })
                .collect();
            Episodes::new(
                config.bins(),
                peers,
                MigrationStrategy::Batched(16),
                schedule,
                stats.clone(),
            )
        });
        let cycle = StorageCycle {
            handles: output.storage.clone(),
            due: schedule.clone(),
            next: 0,
            pending: None,
            open: None,
            totals: StorageTotals::default(),
            done: Vec::new(),
        };
        let mut script = (episodes, cycle);
        let report = drive(worker, &mut lane, &mut source, &mut script, &plan, &start);
        let (spans, fold_records) = trace::take();
        let (episodes, cycle) = script;
        let mut storage = cycle.totals;
        for handle in &output.storage {
            if let Some(counters) = handle.stats() {
                storage.add(&counters);
            }
        }
        let (mut episodes, steps_issued) = episodes
            .map(|script| (script.done, script.steps_issued))
            .unwrap_or_default();
        episodes.extend(cycle.done);
        episodes.sort_by_key(|episode| episode.start_ns);
        WorkerOutcome {
            report,
            spans,
            fold_records,
            episodes,
            steps_issued,
            stats: stats.snapshot(),
            tracked_bytes: stats.tracked_bytes(),
            storage,
            digest: digest.get(),
        }
    });
    let peak_rss = crate::peak_rss_bytes();
    let events = PREFILL + plan.paced() * RATE / 100 + plan.unpaced * plan.unpaced_batch;
    let check = if results.iter().any(|r| r.report.failed > 0) {
        Err("epochs missed the drain deadline".to_string())
    } else {
        let mut observed = Digest::default();
        results.iter().for_each(|r| observed.merge(r.digest));
        compare(
            "Q8 rows",
            observed,
            native_digest(opts.seed, opts.workers, events),
        )
    };
    Outcome {
        workers: results,
        peak_rss,
        check,
        plan,
    }
}

/// The row digest of the native (non-migrateable) Q8 over the first `count`
/// events of the same stream. Q8's rows depend on event times only (its
/// expiry lies beyond any run), so the replay batches events freely.
fn native_digest(seed: u64, workers: usize, count: u64) -> Digest {
    let digests = timelite::execute(Config::process(workers), move |worker| {
        let index = worker.index();
        let peers = worker.peers();
        let digest = Rc::new(Cell::new(Digest::default()));
        let sink = digest.clone();
        let (mut input, probe) = worker.dataflow::<u64, _, _>(|scope| {
            let (input, events) = scope.new_input::<Event>();
            let output = build_native_query("q8", &events);
            output.stream.inspect_batch(move |_time, rows| {
                let mut seen = sink.get();
                rows.iter().for_each(|row| seen.add(text_row_hash(row)));
                sink.set(seen);
            });
            (input, output.probe)
        });
        let generator = generator(seed);
        let mut epoch = 0;
        for first in (0..count).step_by(UNPACED_PER_EPOCH as usize) {
            let size = UNPACED_PER_EPOCH.min(count - first);
            input.send_batch(&mut events(&generator, first, size, index, peers));
            epoch += 1;
            input.advance_to(epoch * UNIT);
            // Keep at most a few epochs in flight.
            let settled = epoch.saturating_sub(3) * UNIT;
            worker.step_while(|| probe.less_than(&settled));
        }
        drop(input);
        worker.step_until_complete();
        digest.get()
    });
    let mut total = Digest::default();
    digests.into_iter().for_each(|d| total.merge(d));
    total
}
