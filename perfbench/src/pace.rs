//! The per-worker driving loop shared by every workload: pre-fill, a paced
//! open-loop phase (warm-up, timed epochs, migration episodes, storage
//! cycles) and an unpaced closed-loop phase, with the benchmark's spans taken
//! around each call into the engine.

use std::io::Write;
use std::sync::OnceLock;
use std::time::Instant;

use megaphone::prelude::*;
use mp_harness::EpochDriver;
use timelite::prelude::*;
use timelite::Data;

use crate::stats::{Episode, EpisodeKind, EpochSample};
use crate::trace::{self, Layer};

/// Length of one epoch: 10 ms.
pub const EPOCH_NS: u64 = 10_000_000;

/// The inputs and output probe of one worker's benchmark dataflow.
pub struct Lane<D: Data> {
    /// Configuration updates (only worker 0 sends).
    pub control: InputHandle<u64, ControlInst>,
    /// The workload's records.
    pub data: InputHandle<u64, D>,
    /// The output probe: epoch `e` is complete once it passes `(e + 1) * unit`.
    pub probe: ProbeHandle<u64>,
    /// Logical time units per epoch.
    pub unit: u64,
}

impl<D: Data> Lane<D> {
    /// Sends this worker's records of `epoch` and closes the epoch.
    fn send(&mut self, epoch: u64, mut batch: Vec<D>) {
        let _input = InputSpan::open();
        self.data.send_batch(&mut batch);
        // The control input runs one epoch ahead so records never wait for
        // their configuration.
        self.control.advance_to((epoch + 2) * self.unit);
        self.data.advance_to((epoch + 1) * self.unit);
    }

    /// Whether the output frontier has passed `epoch`.
    pub fn done(&self, epoch: u64) -> bool {
        !self.probe.less_than(&((epoch + 1) * self.unit))
    }
}

/// Closes its `Input` span when dropped.
struct InputSpan(trace::Open);

impl InputSpan {
    fn open() -> Self {
        InputSpan(trace::begin(Layer::Input))
    }
}

impl Drop for InputSpan {
    fn drop(&mut self) {
        trace::end(self.0);
    }
}

/// A worker's share of a workload's generated inputs.
pub trait Source {
    /// The record type.
    type Record: Data;
    /// This worker's pre-fill records (sent as epoch 0, before timing).
    fn prefill(&mut self) -> Vec<Self::Record>;
    /// This worker's records of the next epoch, which holds `total` records
    /// across all workers.
    fn batch(&mut self, total: u64) -> Vec<Self::Record>;
}

/// `worker`'s share of `total` records dealt across `peers` workers.
pub fn share_of(total: u64, worker: usize, peers: usize) -> u64 {
    total / peers as u64 + u64::from((worker as u64) < total % peers as u64)
}

/// Actions a workload takes while the paced phase runs.
pub trait Script<D: Data> {
    /// Runs before paced epoch `paced` is sent, at `now_ns` on the run clock.
    fn before_epoch(&mut self, paced: u64, now_ns: u64, lane: &mut Lane<D>);
    /// Runs after every step of the paced phase.
    fn after_step(&mut self, now_ns: u64, lane: &Lane<D>);
}

/// The shape of one run.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// Offered load of the paced phase, records per second (all workers).
    pub rate: u64,
    /// Paced warm-up epochs before the first timed epoch.
    pub warmup: u64,
    /// Paced epochs whose latencies form the sample (after the warm-up).
    pub timed: u64,
    /// Paced epochs after the timed ones (migration sub-phase).
    pub extra: u64,
    /// Unpaced epochs.
    pub unpaced: u64,
    /// Records per unpaced epoch (all workers).
    pub unpaced_batch: u64,
    /// How long after the last paced epoch's scheduled end the run waits for
    /// outstanding epochs before counting them failed.
    pub drain_ns: u64,
    /// Exit right after set-up (the first timed epoch is due).
    pub setup_only: bool,
}

impl Plan {
    /// All paced epochs.
    pub fn paced(&self) -> u64 {
        self.warmup + self.timed + self.extra
    }
}

/// What one worker observed.
#[derive(Debug, Default)]
pub struct WorkerReport {
    /// Per paced epoch (index `p`), when it was due and when it completed.
    pub samples: Vec<EpochSample>,
    /// Paced and unpaced epochs that missed their deadline.
    pub failed: u64,
    /// Emission lag of each paced epoch: when it was sent minus when it was due.
    pub emit_lag_ns: Vec<u64>,
    /// The most paced epochs emitted but not yet complete at any one time.
    pub backlog_max: u64,
    /// Unpaced phase: when each epoch completed, from the phase's start.
    pub unpaced_done_ns: Vec<u64>,
    /// Records generated and sent after the pre-fill.
    pub records_sent: u64,
    /// Pre-fill records sent.
    pub prefill_sent: u64,
    /// `(steps, quiet steps)` over the driving loop.
    pub steps: (u64, u64),
    /// Largest pending-progress and activated-operator counts sampled.
    pub progress_max: (usize, usize),
    /// Wall time of the driving loop, from the pre-fill to the end.
    pub wall_ns: u64,
}

/// Steps `worker` once inside a span; yields when nothing happened.
fn step(worker: &mut Worker) -> bool {
    let open = trace::begin(Layer::Step);
    let active = worker.step();
    if !active {
        std::thread::yield_now();
    }
    trace::end_step(open, active);
    active
}

fn generate<S: Source>(source: &mut S, total: u64) -> Vec<S::Record> {
    trace::time(Layer::Gen, || source.batch(total))
}

/// Runs one worker through `plan`. `start` is shared by the workers: the
/// first to see the pre-fill complete starts the run clock for all.
pub fn drive<S: Source, C: Script<S::Record>>(
    worker: &mut Worker,
    lane: &mut Lane<S::Record>,
    source: &mut S,
    script: &mut C,
    plan: &Plan,
    start: &OnceLock<Instant>,
) -> WorkerReport {
    let index = worker.index();
    let mut report = WorkerReport::default();
    let steps_before = worker.step_counts();
    let loop_start = Instant::now();

    // Pre-fill: epoch 0, unpaced and untimed.
    let prefill = trace::time(Layer::Gen, || source.prefill());
    report.prefill_sent = prefill.len() as u64;
    lane.send(0, prefill);
    while !lane.done(0) {
        step(worker);
    }
    let clock = *start.get_or_init(Instant::now);
    let elapsed = || clock.elapsed().as_nanos() as u64;

    // Paced phase: epoch `p` is global epoch `p + 1`, due at its scheduled end.
    let paced = plan.paced();
    let mut driver = EpochDriver::new(plan.rate, EPOCH_NS);
    let mut next: Option<Vec<S::Record>> =
        (paced > 0).then(|| generate(source, driver.records_for(0, 0, 1)));
    let (mut emitted, mut completed) = (0u64, 0u64);
    let deadline = paced * EPOCH_NS + plan.drain_ns;
    loop {
        let now = elapsed();
        for p in driver.due_epochs(now) {
            if p >= paced {
                break;
            }
            if p == plan.warmup && index == 0 {
                // The first timed epoch is due: set-up is over. Its scheduled
                // time is printed too, so the fixed wait for the warm-up
                // schedule can be taken out of the set-up time.
                println!("READY {}", (p + 1) * EPOCH_NS);
                let _ = std::io::stdout().flush();
                if plan.setup_only {
                    std::process::exit(0);
                }
            }
            script.before_epoch(p, now, lane);
            let batch = next
                .take()
                .unwrap_or_else(|| generate(source, driver.records_for(p, 0, 1)));
            report.records_sent += batch.len() as u64;
            lane.send(p + 1, batch);
            report
                .emit_lag_ns
                .push(now.saturating_sub((p + 1) * EPOCH_NS));
            emitted = p + 1;
            trace::set_epoch(p + 1);
            if emitted < paced {
                // The next epoch's inputs exist before that epoch is due.
                next = Some(generate(source, driver.records_for(emitted, 0, 1)));
            }
            let summary = trace::time(Layer::Stats, || worker.progress_summary());
            for dataflow in summary {
                report.progress_max.0 = report.progress_max.0.max(dataflow.pending_progress);
                report.progress_max.1 = report.progress_max.1.max(dataflow.activated);
            }
        }
        if completed == paced {
            break;
        }
        if now > deadline {
            report.failed += paced - completed;
            break;
        }
        step(worker);
        let now = elapsed();
        while completed < emitted && lane.done(completed + 1) {
            report.samples.push(EpochSample {
                due_ns: (completed + 1) * EPOCH_NS,
                done_ns: now,
            });
            completed += 1;
        }
        report.backlog_max = report.backlog_max.max(emitted - completed);
        script.after_step(now, lane);
    }

    // Unpaced phase: fixed-size epochs as fast as the system completes them,
    // with at most two in flight.
    if report.failed == 0 && plan.unpaced > 0 {
        let base = paced + 1;
        let began = elapsed();
        let deadline = began + plan.drain_ns + plan.unpaced * EPOCH_NS * 10;
        let (mut sent, mut done) = (0u64, 0u64);
        while done < plan.unpaced {
            while sent < plan.unpaced && sent < done + 2 {
                let batch = generate(source, plan.unpaced_batch);
                report.records_sent += batch.len() as u64;
                trace::set_epoch(base + sent);
                lane.send(base + sent, batch);
                sent += 1;
            }
            if elapsed() > deadline {
                report.failed += plan.unpaced - done;
                break;
            }
            step(worker);
            while done < sent && lane.done(base + done) {
                report.unpaced_done_ns.push(elapsed() - began);
                done += 1;
            }
        }
    }
    worker.flush_progress();
    let steps_after = worker.step_counts();
    report.steps = (
        steps_after.0 - steps_before.0,
        steps_after.1 - steps_before.1,
    );
    report.wall_ns = loop_start.elapsed().as_nanos() as u64;
    report
}

/// Migration episodes driven from worker 0, each moving every bin whose owner
/// differs between the balanced and the imbalanced assignment to the
/// assignment not current, all at once or stepwise.
pub struct Episodes {
    /// Paced epochs at which episodes start, with their kinds.
    schedule: Vec<(u64, EpisodeKind)>,
    next: usize,
    bins: usize,
    peers: usize,
    stepwise: MigrationStrategy,
    current: Vec<usize>,
    stats: StatsHandle,
    active: Option<Active>,
    /// Completed episodes.
    pub done: Vec<Episode>,
    /// Controller steps issued across all episodes.
    pub steps_issued: u64,
}

struct Active {
    controller: MigrationController<u64>,
    kind: EpisodeKind,
    target: Vec<usize>,
    start_ns: Option<u64>,
    /// Logical time of the last step issued.
    last_step: Option<u64>,
    /// Whether the last step issued has not been observed complete yet.
    step_open: bool,
    step_ns: Vec<u64>,
    moved_bytes: u64,
}

impl Episodes {
    /// Episodes at the paced epochs and of the kinds `schedule` lists, each
    /// starting once its epoch is due and the previous episode completed.
    /// `stats` is worker 0's bin-load handle.
    pub fn new(
        bins: usize,
        peers: usize,
        stepwise: MigrationStrategy,
        schedule: Vec<(u64, EpisodeKind)>,
        stats: StatsHandle,
    ) -> Self {
        Episodes {
            schedule,
            next: 0,
            bins,
            peers,
            stepwise,
            current: balanced_assignment(bins, peers),
            stats,
            active: None,
            done: Vec::new(),
            steps_issued: 0,
        }
    }

    /// `rounds` rounds from paced epoch `first`, each three all-at-once
    /// episodes (to the imbalanced assignment, back, and to it again) and a
    /// stepwise episode back to the balanced one, with `aao_slot` and
    /// `stepwise_slot` epochs reserved for each kind. Three all-at-once
    /// episodes per stepwise one give the stall median three times the
    /// samples at little cost: an all-at-once episode ends within a few
    /// epochs, a fluid one takes over a second.
    pub fn rounds(
        first: u64,
        rounds: u64,
        aao_slot: u64,
        stepwise_slot: u64,
    ) -> Vec<(u64, EpisodeKind)> {
        let round = 3 * aao_slot + stepwise_slot;
        (0..rounds)
            .flat_map(|n| {
                let at = first + n * round;
                [
                    (at, EpisodeKind::AllAtOnce),
                    (at + aao_slot, EpisodeKind::AllAtOnce),
                    (at + 2 * aao_slot, EpisodeKind::AllAtOnce),
                    (at + 3 * aao_slot, EpisodeKind::Stepwise),
                ]
            })
            .collect()
    }

    /// Bins whose owner differs between the two assignments.
    pub fn moved_bins(bins: usize, peers: usize) -> Vec<bool> {
        let balanced = balanced_assignment(bins, peers);
        let imbalanced = imbalanced_assignment(bins, peers);
        balanced
            .iter()
            .zip(&imbalanced)
            .map(|(a, b)| a != b)
            .collect()
    }
}

impl<D: Data> Script<D> for Episodes {
    fn before_epoch(&mut self, paced: u64, now_ns: u64, lane: &mut Lane<D>) {
        if self.active.is_none()
            && self.next < self.schedule.len()
            && paced >= self.schedule[self.next].0
        {
            let kind = self.schedule[self.next].1;
            self.next += 1;
            let balanced = balanced_assignment(self.bins, self.peers);
            let target = if self.current == balanced {
                imbalanced_assignment(self.bins, self.peers)
            } else {
                balanced
            };
            let strategy = match kind {
                EpisodeKind::AllAtOnce => MigrationStrategy::AllAtOnce,
                EpisodeKind::Stepwise => self.stepwise,
                EpisodeKind::Storage => {
                    unreachable!("migration schedules hold no storage episodes")
                }
            };
            let plan = trace::time(Layer::Controller, || {
                plan_migration(strategy, &self.current, &target)
            });
            // Bytes leaving this worker, by its own load accounting.
            let loads = trace::time(Layer::Stats, || self.stats.snapshot());
            let moved_bytes = loads
                .loads()
                .iter()
                .filter(|(bin, _)| self.current[*bin] != target[*bin])
                .map(|(_, load)| load.bytes)
                .sum();
            self.active = Some(Active {
                controller: MigrationController::new(plan, false),
                kind,
                target,
                start_ns: None,
                last_step: None,
                step_open: false,
                step_ns: Vec::new(),
                moved_bytes,
            });
        }
        if let Some(active) = self.active.as_mut() {
            let issue_time = *lane.control.time();
            let status = trace::time(Layer::Controller, || {
                active.controller.advance(&lane.probe, &mut lane.control)
            });
            if status == ControllerStatus::Issued {
                self.steps_issued += 1;
                active.last_step = Some(issue_time);
                active.step_open = true;
                active.start_ns.get_or_insert(now_ns);
            }
        }
    }

    fn after_step(&mut self, now_ns: u64, lane: &Lane<D>) {
        let Some(active) = self.active.as_mut() else {
            return;
        };
        let Some(time) = active.last_step else {
            return;
        };
        if active.step_open && !lane.probe.less_equal(&time) {
            // The step rode in epoch `time / unit`; the frontier could not
            // pass it before that epoch's scheduled end.
            active
                .step_ns
                .push(now_ns.saturating_sub(time / lane.unit * EPOCH_NS));
            active.step_open = false;
        }
        if !active.step_open && active.controller.remaining_steps() == 0 {
            let active = self.active.take().expect("checked above");
            self.done.push(Episode {
                kind: active.kind,
                start_ns: active.start_ns.expect("a step was issued"),
                end_ns: now_ns,
                steps: active.controller.issued_steps() as u64,
                step_ns: active.step_ns,
                moved_bytes: active.moved_bytes,
            });
            self.current = active.target;
        }
    }
}

impl<D: Data, C: Script<D>> Script<D> for Option<C> {
    fn before_epoch(&mut self, paced: u64, now_ns: u64, lane: &mut Lane<D>) {
        if let Some(script) = self {
            script.before_epoch(paced, now_ns, lane);
        }
    }
    fn after_step(&mut self, now_ns: u64, lane: &Lane<D>) {
        if let Some(script) = self {
            script.after_step(now_ns, lane);
        }
    }
}

impl<D: Data, A: Script<D>, B: Script<D>> Script<D> for (A, B) {
    fn before_epoch(&mut self, paced: u64, now_ns: u64, lane: &mut Lane<D>) {
        self.0.before_epoch(paced, now_ns, lane);
        self.1.before_epoch(paced, now_ns, lane);
    }
    fn after_step(&mut self, now_ns: u64, lane: &Lane<D>) {
        self.0.after_step(now_ns, lane);
        self.1.after_step(now_ns, lane);
    }
}
