//! The counting workloads: `steady` (hash-count over a 2^20-key domain, no
//! migration while timed) and `migrate` (dense key-count over 2^25 keys with
//! alternating all-at-once and fluid episodes).

use std::cell::Cell;
use std::rc::Rc;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use megaphone::prelude::*;
use timelite::hashing::{hash_code, FxHashMap};
use timelite::prelude::*;

use crate::check::{compare, count_row_hash, mix64, CountReference, Digest};
use crate::pace::{drive, share_of, Episodes, Lane, Plan, Source};
use crate::stats::EpisodeKind;
use crate::trace::{self, Layer};
use crate::{Opts, Outcome, WorkerOutcome, BIN_SHIFT};

/// How a counting workload keeps its per-bin state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// `FxHashMap<key, count>` bins over a 2^20-key domain.
    Hash,
    /// Dense `Vec<u64>` bins over a 2^25-key domain, each bin a contiguous
    /// slice of the key space (binned by the key's low bits).
    Dense,
}

impl Shape {
    /// Base-2 logarithm of the key domain.
    fn domain_bits(self) -> u32 {
        match self {
            Shape::Hash => 20,
            Shape::Dense => 25,
        }
    }

    /// The routing hash the operator bins a key by.
    fn route(self, key: u64) -> u64 {
        match self {
            Shape::Hash => hash_code(&key),
            Shape::Dense => key.reverse_bits(),
        }
    }
}

/// A worker's uniform key stream: splitmix64 over a per-(seed, worker) state.
pub struct Keys {
    state: u64,
    mask: u64,
}

impl Keys {
    /// The stream of `worker` under `seed` over a `2^bits`-key domain.
    pub fn new(seed: u64, worker: usize, bits: u32) -> Self {
        Keys {
            state: mix64(seed ^ (worker as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
            mask: (1u64 << bits) - 1,
        }
    }

    /// The next key.
    #[inline]
    pub fn next_key(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix64(self.state) & self.mask
    }
}

/// The pre-fill keys of `worker`: every key of the hash domain once, or for
/// dense bins the largest key of each bin (sizing every bin's vector to its
/// full slice of the domain).
fn prefill_keys(shape: Shape, worker: usize, peers: usize) -> Vec<u64> {
    let peers = peers as u64;
    match shape {
        Shape::Hash => (worker as u64..1 << shape.domain_bits())
            .step_by(peers as usize)
            .collect(),
        Shape::Dense => {
            let top = (1u64 << (shape.domain_bits() - BIN_SHIFT)) - 1;
            (0..1u64 << BIN_SHIFT)
                .filter(|low| low % peers == worker as u64)
                .map(|low| (top << BIN_SHIFT) | low)
                .collect()
        }
    }
}

struct KeySource {
    shape: Shape,
    worker: usize,
    peers: usize,
    keys: Keys,
}

impl Source for KeySource {
    type Record = u64;

    fn prefill(&mut self) -> Vec<u64> {
        prefill_keys(self.shape, self.worker, self.peers)
    }

    fn batch(&mut self, total: u64) -> Vec<u64> {
        let share = share_of(total, self.worker, self.peers);
        (0..share).map(|_| self.keys.next_key()).collect()
    }
}

/// The count fold over hash-map bins, emitting `(key, running count)`.
fn hash_fold(records: Vec<u64>, state: &mut FxHashMap<u64, u64>) -> Vec<(u64, u64)> {
    let open = trace::begin(Layer::Fold);
    trace::count_fold_records(records.len());
    let mut outputs = Vec::with_capacity(records.len());
    for key in records {
        let count = state.entry(key).or_insert(0);
        *count += 1;
        outputs.push((key, *count));
    }
    trace::end(open);
    outputs
}

/// The count fold over dense bins: the key's slot is its offset within the
/// bin's slice of the domain.
fn dense_fold(records: Vec<u64>, state: &mut Vec<u64>) -> Vec<(u64, u64)> {
    let open = trace::begin(Layer::Fold);
    trace::count_fold_records(records.len());
    let mut outputs = Vec::with_capacity(records.len());
    for key in records {
        let offset = (key >> BIN_SHIFT) as usize;
        if state.len() <= offset {
            state.resize(offset + 1, 0);
        }
        state[offset] += 1;
        outputs.push((key, state[offset]));
    }
    trace::end(open);
    outputs
}

/// Runs a counting workload and checks its output.
pub fn run(opts: &Opts, shape: Shape, plan: Plan, schedule: Vec<(u64, EpisodeKind)>) -> Outcome {
    let origin = Instant::now();
    let start = Arc::new(OnceLock::new());
    let seed = opts.seed;
    let corrupt = opts.corrupt;
    let results = timelite::execute(Config::process(opts.workers), move |worker| {
        trace::install(origin);
        let index = worker.index();
        let peers = worker.peers();
        let config = MegaphoneConfig::new(BIN_SHIFT);
        let digest = Rc::new(Cell::new(Digest::default()));
        let sink = digest.clone();
        let (control, data, output) = worker.dataflow::<u64, _, _>(|scope| {
            let (control_input, control) = scope.new_input::<ControlInst>();
            let (data_input, data) = scope.new_input::<u64>();
            let output = match shape {
                Shape::Hash => stateful_unary::<_, u64, FxHashMap<u64, u64>, (u64, u64), _, _>(
                    config,
                    &control,
                    &data,
                    "HashCount",
                    move |key| shape.route(*key),
                    |_time, records, state, _notificator| hash_fold(records, state),
                ),
                Shape::Dense => stateful_unary::<_, u64, Vec<u64>, (u64, u64), _, _>(
                    config,
                    &control,
                    &data,
                    "KeyCount",
                    move |key| shape.route(*key),
                    |_time, records, state, _notificator| dense_fold(records, state),
                ),
            };
            let mut corrupt_next = corrupt && index == 0;
            output.stream.inspect_batch(move |_time, rows| {
                let mut seen = sink.get();
                for &(key, count) in rows {
                    // `--corrupt` damages the first row this worker sees, to
                    // prove the output check can fail.
                    let count = count + u64::from(std::mem::take(&mut corrupt_next));
                    seen.add(count_row_hash(key, count));
                }
                sink.set(seen);
            });
            (control_input, data_input, output)
        });
        let mut lane = Lane {
            control,
            data,
            probe: output.probe.clone(),
            unit: 1,
        };
        let mut source = KeySource {
            shape,
            worker: index,
            peers,
            keys: Keys::new(seed, index, shape.domain_bits()),
        };
        let mut script = (index == 0 && !schedule.is_empty()).then(|| {
            Episodes::new(
                config.bins(),
                peers,
                MigrationStrategy::Fluid,
                schedule.clone(),
                output.stats.clone(),
            )
        });
        let report = drive(worker, &mut lane, &mut source, &mut script, &plan, &start);
        let (spans, fold_records) = trace::take();
        let stats = output.stats.snapshot();
        let tracked_bytes = output.stats.tracked_bytes();
        let digest = digest.get();
        let (episodes, steps_issued) = script
            .map(|script| (script.done, script.steps_issued))
            .unwrap_or_default();
        WorkerOutcome {
            report,
            spans,
            fold_records,
            episodes,
            steps_issued,
            stats,
            tracked_bytes,
            storage: Default::default(),
            digest,
        }
    });
    let peak_rss = crate::peak_rss_bytes();
    let check = reference_check(opts, shape, &results);
    Outcome {
        workers: results,
        peak_rss,
        check,
        plan,
    }
}

/// Recounts the generated keys with a plain per-key count and compares the
/// operator's output digest, plus the records its load accounting saw on the
/// bins no migration touches (migrated bins restart their accounting).
fn reference_check(opts: &Opts, shape: Shape, results: &[WorkerOutcome]) -> Result<(), String> {
    let config = MegaphoneConfig::new(BIN_SHIFT);
    let peers = results.len();
    let mut reference = CountReference::new(shape.domain_bits());
    for (worker, outcome) in results.iter().enumerate() {
        for key in prefill_keys(shape, worker, peers) {
            reference.record(key);
        }
        let mut keys = Keys::new(opts.seed, worker, shape.domain_bits());
        for _ in 0..outcome.report.records_sent {
            reference.record(keys.next_key());
        }
    }
    let mut observed = Digest::default();
    let mut stats = BinStats::default();
    for outcome in results {
        observed.merge(outcome.digest);
        stats.merge(&outcome.stats);
    }
    compare("(key, count) rows", observed, reference.digest())?;
    let moved = Episodes::moved_bins(config.bins(), peers);
    let seen: u64 = stats
        .loads()
        .iter()
        .filter(|(bin, _)| !moved[*bin])
        .map(|(_, load)| load.records)
        .sum();
    let expected = reference.records_where(|key| !moved[config.key_to_bin(shape.route(key))]);
    if seen != expected {
        return Err(format!(
            "BinStats records on unmoved bins: observed {seen}, expected {expected}"
        ));
    }
    Ok(())
}
