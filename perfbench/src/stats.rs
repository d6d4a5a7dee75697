//! Pure measurement arithmetic: exact quantiles over raw samples and the
//! classification of epochs into migration episodes.

/// The fewest latency samples from which a p99 is reported: with fewer, the
/// 99th percentile would have under ten samples beyond it.
pub const MIN_P99_SAMPLES: usize = 1000;

/// The exact `q`-quantile (`0 < q <= 1`) of `samples` by the nearest-rank
/// rule: the value at 1-based rank `ceil(q * n)` of the sorted samples.
/// Returns `None` for an empty sample.
pub fn quantile(samples: &[u64], q: f64) -> Option<u64> {
    if samples.is_empty() {
        return None;
    }
    assert!(q > 0.0 && q <= 1.0, "quantile {q} outside (0, 1]");
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    Some(sorted[nearest_rank(sorted.len(), q) - 1])
}

/// The 1-based nearest rank `ceil(q * n)`, clamped to `1..=n`.
pub fn nearest_rank(n: usize, q: f64) -> usize {
    // Round before taking the ceiling so that e.g. 0.99 * 1000 (which is
    // 989.999… in binary floating point) ranks 990, not 991.
    let exact = (q * n as f64 * 1e9).round() / 1e9;
    (exact.ceil() as usize).clamp(1, n)
}

/// The median of `values` (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// How a migration is revealed to the system.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EpisodeKind {
    /// Every changed bin in one step.
    AllAtOnce,
    /// Bins in several steps, each awaiting the previous one.
    Stepwise,
    /// A checkpoint of every store and a spill of every bin, up to the
    /// completion of the first epoch after it, whose records fault the
    /// spilled bins back in.
    Storage,
}

/// One migration episode, in nanoseconds on the run's clock: from the first
/// step issued to the last step observed complete.
#[derive(Clone, Debug, PartialEq)]
pub struct Episode {
    /// The strategy of the episode.
    pub kind: EpisodeKind,
    /// When the first step was issued.
    pub start_ns: u64,
    /// When the last step was observed complete.
    pub end_ns: u64,
    /// Steps issued.
    pub steps: u64,
    /// Per step, the time from the scheduled end of the epoch the step rode
    /// in to the step observed complete: the migration's own share of the
    /// step, beyond the cadence at which epochs are emitted.
    pub step_ns: Vec<u64>,
    /// Approximate encoded bytes of the moved bins (source-side load
    /// accounting), as worker 0 sees them.
    pub moved_bytes: u64,
}

/// One timed epoch: when its inputs were due to be complete (its scheduled
/// end) and when the output frontier passed it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EpochSample {
    /// Scheduled end of the epoch.
    pub due_ns: u64,
    /// Completion time.
    pub done_ns: u64,
}

impl EpochSample {
    /// The epoch's latency: completion minus scheduled end.
    pub fn latency_ns(&self) -> u64 {
        self.done_ns.saturating_sub(self.due_ns)
    }
}

/// The episode (index into `episodes`) an epoch belongs to: the first whose
/// window `[start, end]` overlaps the epoch's `[due, done]` interval. An epoch
/// due before the episode started but completed during it was held up by the
/// migration; one due during it was emitted into it.
pub fn episode_of(sample: &EpochSample, episodes: &[Episode]) -> Option<usize> {
    episodes
        .iter()
        .position(|episode| sample.due_ns <= episode.end_ns && sample.done_ns >= episode.start_ns)
}

/// Splits `samples` into the latencies the latency quantiles are taken over
/// (every epoch outside all-at-once and storage episodes) and, per episode,
/// the largest latency of an epoch it took out of them (`None` for a
/// stepwise episode, whose epochs stay in, or an episode no epoch overlapped).
pub fn classify(samples: &[EpochSample], episodes: &[Episode]) -> (Vec<u64>, Vec<Option<u64>>) {
    let mut kept = Vec::with_capacity(samples.len());
    let mut stalls: Vec<Option<u64>> = vec![None; episodes.len()];
    for sample in samples {
        match episode_of(sample, episodes) {
            Some(index) if episodes[index].kind != EpisodeKind::Stepwise => {
                let worst = stalls[index].get_or_insert(0);
                *worst = (*worst).max(sample.latency_ns());
            }
            _ => kept.push(sample.latency_ns()),
        }
    }
    (kept, stalls)
}

/// The stalls `classify` found for the episodes of `kind`, one per episode.
pub fn stalls_of(
    stalls: &[Option<u64>],
    episodes: &[Episode],
    kind: EpisodeKind,
) -> Vec<Option<u64>> {
    stalls
        .iter()
        .zip(episodes)
        .filter(|(_, episode)| episode.kind == kind)
        .map(|(worst, _)| *worst)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let samples: Vec<u64> = (1..=1000).collect();
        assert_eq!(quantile(&samples, 0.5), Some(500));
        assert_eq!(quantile(&samples, 0.99), Some(990));
        assert_eq!(quantile(&samples, 1.0), Some(1000));
        assert_eq!(quantile(&[7], 0.99), Some(7));
        assert_eq!(quantile(&[], 0.5), None);
        // Order of the input does not matter.
        assert_eq!(quantile(&[5, 1, 4, 2, 3], 0.5), Some(3));
        // 0.99 * 1200 = 1188 exactly: 12 samples lie beyond the p99.
        assert_eq!(nearest_rank(1200, 0.99), 1188);
        assert_eq!(nearest_rank(1001, 0.99), 991);
        assert_eq!(nearest_rank(3, 0.01), 1);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    fn episode(kind: EpisodeKind, start_ns: u64, end_ns: u64) -> Episode {
        Episode {
            kind,
            start_ns,
            end_ns,
            steps: 1,
            step_ns: Vec::new(),
            moved_bytes: 0,
        }
    }

    #[test]
    fn epochs_are_classified_into_overlapping_episodes() {
        let episodes = vec![
            episode(EpisodeKind::AllAtOnce, 100, 200),
            episode(EpisodeKind::Stepwise, 400, 600),
            episode(EpisodeKind::Storage, 800, 900),
        ];
        let at = |due_ns, done_ns| EpochSample { due_ns, done_ns };
        // Entirely before, held up by, emitted into, and after the first.
        assert_eq!(episode_of(&at(10, 90), &episodes), None);
        assert_eq!(episode_of(&at(90, 150), &episodes), Some(0));
        assert_eq!(episode_of(&at(150, 260), &episodes), Some(0));
        assert_eq!(episode_of(&at(200, 205), &episodes), Some(0));
        assert_eq!(episode_of(&at(201, 205), &episodes), None);
        assert_eq!(episode_of(&at(500, 510), &episodes), Some(1));

        let samples = vec![
            at(10, 12),
            at(90, 150),
            at(150, 260),
            at(300, 301),
            at(500, 530),
            at(700, 702),
            at(790, 850),
            at(800, 880),
            at(950, 951),
        ];
        let (kept, stalls) = classify(&samples, &episodes);
        // All-at-once and storage epochs leave the quantile sample;
        // stepwise ones stay.
        assert_eq!(kept, vec![2, 1, 30, 2, 1]);
        assert_eq!(stalls, vec![Some(110), None, Some(80)]);
        assert_eq!(
            stalls_of(&stalls, &episodes, EpisodeKind::AllAtOnce),
            vec![Some(110)]
        );
        assert_eq!(
            stalls_of(&stalls, &episodes, EpisodeKind::Storage),
            vec![Some(80)]
        );
    }

    #[test]
    fn an_episode_without_epochs_has_no_stall() {
        let episodes = vec![episode(EpisodeKind::AllAtOnce, 100, 200)];
        let (kept, stalls) = classify(
            &[EpochSample {
                due_ns: 0,
                done_ns: 5,
            }],
            &episodes,
        );
        assert_eq!(kept, vec![5]);
        assert_eq!(stalls, vec![None]);
    }
}
