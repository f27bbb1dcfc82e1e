//! Attack scheduling: start times, intervals, durations, magnitudes.
//!
//! The interval model is a five-component mixture matching the paper's
//! observations (Figs. 3–5): a point mass at zero (simultaneous attacks —
//! more than half of all intervals), log-normal modes at 6–7 minutes,
//! 20–40 minutes, and 2–3 hours ("most commonly shared by all botnet
//! families", Fig. 4), and a broad long tail. Multi-day and multi-week
//! intervals are *not* drawn from the mixture: they emerge from duty
//! cycles and activity-window gaps, exactly as the paper's 59-day
//! Blackenergy gap did.

use ddos_schema::{Seconds, Timestamp, Window};
use ddos_stats::dist::{Categorical, Distribution, LogNormal, Normal};
use ddos_stats::Rng;

use crate::profile::FamilyProfile;

/// Upper clamp on a single within-day interval draw (the long-tail
/// component occasionally produces more; anything longer is represented
/// by day gaps instead).
const MAX_INTERVAL_S: f64 = 100_000.0;

/// Upper clamp on a duration draw: two days.
const MAX_DURATION_S: f64 = 172_800.0;

/// Per-family interval sampler.
#[derive(Debug)]
pub struct IntervalSampler {
    weights: Categorical,
    floor_60s: bool,
    concurrent_fraction: f64,
    components: [IntervalComponent; 5],
}

#[derive(Debug, Clone, Copy)]
enum IntervalComponent {
    Zero,
    LogNormal(LogNormal),
}

impl IntervalSampler {
    /// Builds the sampler from a family profile.
    pub fn new(profile: &FamilyProfile) -> IntervalSampler {
        IntervalSampler {
            weights: Categorical::new(&profile.cal.interval_weights)
                .expect("calibrated weights are a distribution"),
            floor_60s: profile.cal.min_interval_60s,
            concurrent_fraction: profile.cal.interval_weights[0],
            components: [
                IntervalComponent::Zero,
                // 6–7 minute mode.
                IntervalComponent::LogNormal(LogNormal::from_median(390.0, 0.25)),
                // 20–40 minute mode.
                IntervalComponent::LogNormal(LogNormal::from_median(1_800.0, 0.35)),
                // 2–3 hour mode.
                IntervalComponent::LogNormal(LogNormal::from_median(9_000.0, 0.45)),
                // Broad long tail.
                IntervalComponent::LogNormal(LogNormal::from_median(25_000.0, 0.9)),
            ],
        }
    }

    /// Draws one inter-attack interval in whole seconds.
    pub fn sample(&self, rng: &mut Rng) -> i64 {
        let i = self.weights.sample_index(rng);
        let raw = match self.components[i] {
            IntervalComponent::Zero => 0.0,
            IntervalComponent::LogNormal(ln) => ln.sample(rng).min(MAX_INTERVAL_S),
        };
        let v = raw.round() as i64;
        if self.floor_60s {
            v.max(61)
        } else {
            v
        }
    }

    /// Whether this family never attacks twice within 60 seconds.
    pub fn floor_60s(&self) -> bool {
        self.floor_60s
    }

    /// Draws a strictly positive interval (the gap between two concurrency
    /// events; the zero component is handled by bursts instead).
    pub fn sample_positive(&self, rng: &mut Rng) -> i64 {
        for _ in 0..64 {
            let v = self.sample(rng);
            if v > 0 {
                return v;
            }
        }
        60 // calibrated weights always leave positive mass; defensive only
    }

    /// Probability that a scheduling event is a simultaneous *burst*,
    /// derived so that bursts of mean length [`Self::MEAN_BURST`] yield
    /// the calibrated fraction of simultaneous attacks. The paper's §III-B
    /// arithmetic (3,692 single-family concurrent events covering more
    /// than half of all attacks) implies runs of ≈7 simultaneous attacks
    /// per event, not independent coin flips.
    pub fn burst_event_prob(&self) -> f64 {
        let w0 = self.concurrent_fraction;
        if w0 <= 0.0 {
            return 0.0;
        }
        w0 / (Self::MEAN_BURST - w0 * (Self::MEAN_BURST - 1.0))
    }

    /// Mean simultaneous-burst length (§III-B's 3,692 single-family
    /// events over ~25k simultaneous attacks imply runs of ≈7–8).
    pub const MEAN_BURST: f64 = 8.0;

    /// Draws a burst length (mean [`Self::MEAN_BURST`]).
    pub fn burst_len(&self, rng: &mut Rng) -> usize {
        4 + rng.below(9) as usize
    }
}

/// Samples an attack duration in seconds for a family.
pub fn sample_duration(profile: &FamilyProfile, rng: &mut Rng) -> Seconds {
    let ln = LogNormal::from_median(profile.cal.duration_median_s, profile.cal.duration_sigma);
    Seconds(ln.sample(rng).clamp(10.0, MAX_DURATION_S).round() as i64)
}

/// Distributes `total` attacks over the family's active days.
///
/// Daily weights are log-normal (bursty but not periodic — the paper
/// found no diurnal/weekly pattern, §III-A). `spike` optionally forces a
/// minimum count onto one day (the 2012-08-30 Dirtjumper event); the
/// total is preserved by thinning other days.
pub fn allocate_daily_counts(
    active_days: &[usize],
    total: u32,
    spike: Option<(usize, u32)>,
    rng: &mut Rng,
) -> Vec<(usize, u32)> {
    assert!(!active_days.is_empty());
    let noise = LogNormal::new(0.0, 0.6);
    let weights: Vec<f64> = active_days.iter().map(|_| noise.sample(rng)).collect();
    let wsum: f64 = weights.iter().sum();
    let mut counts: Vec<u32> = weights
        .iter()
        .map(|w| ((total as f64) * w / wsum).floor() as u32)
        .collect();
    // Distribute the rounding remainder one by one.
    let mut assigned: u32 = counts.iter().sum();
    while assigned < total {
        let i = rng.below(counts.len() as u64) as usize;
        counts[i] += 1;
        assigned += 1;
    }

    if let Some((spike_day, spike_min)) = spike {
        if let Some(pos) = active_days.iter().position(|&d| d == spike_day) {
            while counts[pos] < spike_min.min(total) {
                // Move one attack from the currently largest other day.
                let donor = counts
                    .iter()
                    .enumerate()
                    .filter(|&(i, &c)| i != pos && c > 0)
                    .max_by_key(|&(_, &c)| c)
                    .map(|(i, _)| i);
                match donor {
                    Some(i) => {
                        counts[i] -= 1;
                        counts[pos] += 1;
                    }
                    None => break,
                }
            }
        }
    }

    active_days
        .iter()
        .copied()
        .zip(counts)
        .filter(|&(_, c)| c > 0)
        .collect()
}

/// Generates `count` start timestamps within one day by walking the
/// interval mixture from an early-day phase. Simultaneous attacks arrive
/// in *bursts* (runs at one timestamp, §III-B); positive intervals come
/// from the mixture's log-normal modes. Runs may spill past midnight;
/// that is deliberate (real attacks do not respect day boundaries).
pub fn day_start_times(
    window: Window,
    day: usize,
    count: u32,
    sampler: &IntervalSampler,
    rng: &mut Rng,
) -> Vec<Timestamp> {
    let day_start = window.day_start(day);
    let day_end = day_start + Seconds::DAY;
    let mut t = day_start + Seconds(rng.below(4 * 3_600) as i64);
    let burst_prob = sampler.burst_event_prob();
    let mut out: Vec<Timestamp> = Vec::with_capacity(count as usize);
    while out.len() < count as usize {
        if !out.is_empty() {
            t += Seconds(sampler.sample_positive(rng));
        }
        // Busy days wrap instead of spilling: the walk re-anchors at a
        // fresh phase inside the same day, so daily counts (and the
        // 2012-08-30 spike) stay on the day they were allocated to.
        if t >= day_end.min(window.end) {
            t = day_start + Seconds(rng.below(86_400) as i64);
            if t >= window.end {
                t = window.end - Seconds(1 + rng.below(3_600) as i64);
            }
        }
        let remaining = count as usize - out.len();
        let run = if burst_prob > 0.0 && rng.chance(burst_prob) {
            sampler.burst_len(rng).min(remaining)
        } else {
            1
        };
        out.extend(std::iter::repeat(t).take(run));
    }
    out.sort_unstable();
    if sampler.floor_60s() {
        // Re-anchoring on busy days can interleave two walks; restore
        // the family's 60-second spacing guarantee (Fig. 5).
        for i in 1..out.len() {
            if out[i] < out[i - 1] + Seconds(61) {
                out[i] = out[i - 1] + Seconds(61);
            }
        }
        if let Some(&last) = out.last() {
            if last >= window.end {
                // Extremely dense floor-family days cannot occur with the
                // calibrated volumes; clamp defensively anyway.
                let mut t = window.end - Seconds(1);
                for slot in out.iter_mut().rev() {
                    if *slot >= window.end {
                        *slot = t;
                        t = t - Seconds(61);
                    }
                }
                out.sort_unstable();
            }
        }
    }
    out
}

/// Slowly drifting per-family attack-magnitude process.
///
/// Campaign sizes persist: the number of bots a botmaster commits to an
/// attack stays at a similar level for many consecutive attacks and
/// drifts over days. Modeled as a log-AR(1) level plus per-attack
/// log-normal noise. The persistence is what makes the dispersion series
/// (which scales with magnitude) predictable enough for the paper's
/// Table IV similarities.
#[derive(Debug)]
pub struct MagnitudeProcess {
    log_median: f64,
    level: f64,
}

impl MagnitudeProcess {
    /// AR(1) persistence of the log-level.
    const PHI: f64 = 0.995;
    /// Innovation std of the log-level.
    const INNOV: f64 = 0.05;
    /// Per-attack log-normal noise around the level.
    const NOISE: f64 = 0.2;

    /// Starts the process at a family's calibrated median.
    pub fn new(profile: &FamilyProfile, rng: &mut Rng) -> MagnitudeProcess {
        let stationary = Self::INNOV / (1.0 - Self::PHI * Self::PHI).sqrt();
        let init = Normal::new(0.0, stationary);
        MagnitudeProcess {
            log_median: profile.cal.magnitude_median.ln(),
            level: init.sample(rng),
        }
    }

    /// Draws the next attack's magnitude (bot IP count).
    pub fn next(&mut self, rng: &mut Rng) -> usize {
        let innov = Normal::new(0.0, Self::INNOV);
        self.level = Self::PHI * self.level + innov.sample(rng);
        let noise = Normal::new(0.0, Self::NOISE);
        let m = (self.log_median + self.level + noise.sample(rng)).exp();
        (m.round() as usize).clamp(4, 500)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration::calibration_for;
    use crate::config::SimConfig;
    use ddos_schema::Family;

    fn profile(family: Family) -> FamilyProfile {
        let mut rng = Rng::new(2).fork(family.index() as u64);
        FamilyProfile::resolve(
            calibration_for(family).unwrap(),
            &SimConfig::default(),
            &mut rng,
        )
    }

    #[test]
    fn concurrent_mass_matches_weight() {
        let p = profile(Family::Dirtjumper);
        let s = IntervalSampler::new(&p);
        let mut rng = Rng::new(1);
        let n = 20_000;
        let zeros = (0..n).filter(|_| s.sample(&mut rng) == 0).count();
        let frac = zeros as f64 / n as f64;
        assert!((frac - 0.72).abs() < 0.02, "zero fraction {frac}");
    }

    #[test]
    fn floor_families_never_sample_below_60s() {
        for family in [Family::Aldibot, Family::Optima] {
            let p = profile(family);
            let s = IntervalSampler::new(&p);
            let mut rng = Rng::new(2);
            for _ in 0..5_000 {
                assert!(s.sample(&mut rng) > 60, "{family}");
            }
        }
    }

    #[test]
    fn interval_modes_cover_paper_bands() {
        let p = profile(Family::Pandora);
        let s = IntervalSampler::new(&p);
        let mut rng = Rng::new(3);
        let xs: Vec<i64> = (0..50_000).map(|_| s.sample(&mut rng)).collect();
        let in_band = |lo: i64, hi: i64| xs.iter().filter(|&&x| x >= lo && x < hi).count();
        // 6–7 min, 20–40 min, and 2–3 h bands must all be populated.
        assert!(in_band(360, 420) > 500, "6-7 min band");
        assert!(in_band(1_200, 2_400) > 1_000, "20-40 min band");
        assert!(in_band(7_200, 10_800) > 1_000, "2-3 h band");
        assert!(xs.iter().all(|&x| x <= MAX_INTERVAL_S as i64));
    }

    #[test]
    fn durations_are_heavy_tailed_lognormal() {
        let p = profile(Family::Dirtjumper);
        let mut rng = Rng::new(4);
        let xs: Vec<f64> = (0..20_000)
            .map(|_| sample_duration(&p, &mut rng).as_f64())
            .collect();
        let mut sorted = xs.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = sorted[sorted.len() / 2];
        assert!((median / 1_600.0 - 1.0).abs() < 0.15, "median {median}");
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!(mean > 2.0 * median, "mean {mean} vs median {median}");
        assert!(xs.iter().all(|&x| x <= MAX_DURATION_S));
    }

    #[test]
    fn daily_allocation_conserves_total() {
        let days: Vec<usize> = (0..100).collect();
        let mut rng = Rng::new(6);
        let alloc = allocate_daily_counts(&days, 5_000, None, &mut rng);
        assert_eq!(alloc.iter().map(|&(_, c)| c).sum::<u32>(), 5_000);
        assert!(alloc.iter().all(|&(d, _)| d < 100));
    }

    #[test]
    fn spike_forces_minimum_on_spike_day() {
        let days: Vec<usize> = (0..207).collect();
        let mut rng = Rng::new(7);
        let alloc = allocate_daily_counts(&days, 34_620, Some((1, 900)), &mut rng);
        let spike = alloc.iter().find(|&&(d, _)| d == 1).unwrap().1;
        assert!(spike >= 900, "spike day has {spike}");
        assert_eq!(alloc.iter().map(|&(_, c)| c).sum::<u32>(), 34_620);
    }

    #[test]
    fn spike_on_inactive_day_is_ignored() {
        let days: Vec<usize> = (10..20).collect();
        let mut rng = Rng::new(8);
        let alloc = allocate_daily_counts(&days, 100, Some((1, 50)), &mut rng);
        assert_eq!(alloc.iter().map(|&(_, c)| c).sum::<u32>(), 100);
        assert!(alloc.iter().all(|&(d, _)| d >= 10));
    }

    #[test]
    fn day_start_times_are_ordered_and_in_window() {
        let p = profile(Family::Pandora);
        let s = IntervalSampler::new(&p);
        let mut rng = Rng::new(9);
        let w = Window::PAPER;
        let times = day_start_times(w, 50, 200, &s, &mut rng);
        assert_eq!(times.len(), 200);
        for pair in times.windows(2) {
            assert!(pair[0] <= pair[1]);
        }
        assert!(times.iter().all(|&t| w.contains(t)));
        // Starts on (or shortly after) the requested day.
        assert_eq!(w.day_index(times[0]), Some(50));
    }

    #[test]
    fn bursts_make_simultaneous_runs() {
        let p = profile(Family::Dirtjumper);
        let s = IntervalSampler::new(&p);
        let mut rng = Rng::new(11);
        let w = Window::PAPER;
        let times = day_start_times(w, 10, 2_000, &s, &mut rng);
        // Fraction of attacks sharing a timestamp with a neighbour ≈ the
        // calibrated concurrent fraction.
        let mut concurrent = 0;
        for (i, &t) in times.iter().enumerate() {
            let prev = i > 0 && times[i - 1] == t;
            let next = i + 1 < times.len() && times[i + 1] == t;
            if prev || next {
                concurrent += 1;
            }
        }
        let frac = concurrent as f64 / times.len() as f64;
        assert!((frac - 0.72).abs() < 0.08, "concurrent fraction {frac}");
        // Runs are bursts (length > 2 exists), not just pairs.
        let mut best_run = 1;
        let mut run = 1;
        for pair in times.windows(2) {
            if pair[0] == pair[1] {
                run += 1;
                best_run = best_run.max(run);
            } else {
                run = 1;
            }
        }
        assert!(best_run >= 4, "longest run {best_run}");
    }

    #[test]
    fn no_burst_families_have_distinct_times() {
        let p = profile(Family::Optima);
        let s = IntervalSampler::new(&p);
        assert_eq!(s.burst_event_prob(), 0.0);
        let mut rng = Rng::new(12);
        let times = day_start_times(Window::PAPER, 30, 300, &s, &mut rng);
        for pair in times.windows(2) {
            assert!(pair[0] < pair[1], "floor-60s family repeated a timestamp");
        }
    }

    #[test]
    fn sample_positive_is_positive() {
        let p = profile(Family::Dirtjumper);
        let s = IntervalSampler::new(&p);
        let mut rng = Rng::new(13);
        for _ in 0..2_000 {
            assert!(s.sample_positive(&mut rng) > 0);
        }
    }

    #[test]
    fn late_day_times_clamp_to_window() {
        let p = profile(Family::Dirtjumper);
        let s = IntervalSampler::new(&p);
        let mut rng = Rng::new(10);
        let w = Window::PAPER;
        let times = day_start_times(w, 206, 500, &s, &mut rng);
        assert!(times.iter().all(|&t| w.contains(t)));
    }
}
