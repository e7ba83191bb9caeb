//! Deterministic telemetry: log2-bucketed latency histograms, engine-mode
//! timelines, cycle-windowed time-series samplers and speculation-lifecycle
//! event traces.
//!
//! Everything in this module is timestamped in *simulated cycles* — never
//! wall clock — so its output is bit-identical across repeated runs and
//! hosts. The recorder is disabled by default
//! ([`TelemetryConfig::default`]) and costs nothing when off; the engine's
//! mode timeline is always on but only does one array increment per cycle
//! plus a vector push per mode *transition* (transitions are as rare as
//! recoveries).

use crate::time::Cycle;

/// Number of buckets in a [`Log2Histogram`]: bucket 0 holds exact zeros,
/// bucket `k` (1..=64) holds samples in `[2^(k-1), 2^k - 1]`, so the full
/// `u64` range is covered with no overflow bucket.
pub const LOG2_BUCKETS: usize = 65;

/// A latency histogram with power-of-two bucket boundaries.
///
/// 65 fixed `u64` buckets cover the whole `u64` sample range, so recording
/// never saturates into an overflow bucket and merging two histograms is
/// elementwise addition. Percentile queries return the *upper edge* of the
/// bucket containing the requested rank — a deterministic, conservative
/// (never under-reporting) estimate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Log2Histogram {
    buckets: [u64; LOG2_BUCKETS],
    count: u64,
    sum: u64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Self {
            buckets: [0; LOG2_BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl Log2Histogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The bucket index a sample falls into.
    #[must_use]
    pub fn bucket_of(sample: u64) -> usize {
        (u64::BITS - sample.leading_zeros()) as usize
    }

    /// The largest sample value bucket `index` can hold.
    #[must_use]
    pub fn bucket_upper(index: usize) -> u64 {
        match index {
            0 => 0,
            1..=63 => (1u64 << index) - 1,
            _ => u64::MAX,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, sample: u64) {
        self.buckets[Self::bucket_of(sample)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(sample);
    }

    /// Adds every sample of `other` into this histogram.
    pub fn merge(&mut self, other: &Self) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when no samples have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Occupancy of bucket `index`.
    #[must_use]
    pub fn bucket(&self, index: usize) -> u64 {
        self.buckets[index]
    }

    /// Exact mean of the recorded samples (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The upper edge of the bucket holding the sample at rank
    /// `ceil(fraction * count)` (0 when empty). `fraction` is clamped to
    /// `(0, 1]`; by construction the result is monotone in `fraction`.
    #[must_use]
    pub fn percentile(&self, fraction: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((fraction.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return Self::bucket_upper(i);
            }
        }
        Self::bucket_upper(LOG2_BUCKETS - 1)
    }

    /// Median estimate (upper bucket edge).
    #[must_use]
    pub fn p50(&self) -> u64 {
        self.percentile(0.50)
    }

    /// 95th-percentile estimate (upper bucket edge).
    #[must_use]
    pub fn p95(&self) -> u64 {
        self.percentile(0.95)
    }

    /// 99th-percentile estimate (upper bucket edge).
    #[must_use]
    pub fn p99(&self) -> u64 {
        self.percentile(0.99)
    }

    /// One-line summary used by run reports: `mean/p50/p95/p99 (n)`.
    #[must_use]
    pub fn summary(&self) -> String {
        if self.count == 0 {
            return "n=0".to_string();
        }
        format!(
            "mean {:.1}, p50 {}, p95 {}, p99 {} (n={})",
            self.mean(),
            self.p50(),
            self.p95(),
            self.p99(),
            self.count
        )
    }
}

/// Number of distinct [`EngineMode`]s.
pub const ENGINE_MODE_COUNT: usize = 5;

/// The engine's operating mode at a given cycle, as tracked by the
/// always-on [`ModeTimeline`]. This is the availability view of
/// [the forward-progress machinery]: `Normal` cycles commit work at full
/// speed, every other mode is a degraded phase of the
/// speculation/recovery lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineMode {
    /// Full-speed execution.
    Normal,
    /// Adaptive routing disabled after a reordering mis-speculation
    /// (degraded but near-full-speed).
    AdaptiveDegraded,
    /// Slow-start window after a timeout recovery: outstanding
    /// transactions are capped.
    SlowStart,
    /// Reserved buffer slots after a detected buffer deadlock.
    ReservedSlots,
    /// The recovery procedure itself is restoring state; no forward
    /// progress.
    Rollback,
}

/// Every [`EngineMode`], in `index()` order.
pub const ALL_ENGINE_MODES: [EngineMode; ENGINE_MODE_COUNT] = [
    EngineMode::Normal,
    EngineMode::AdaptiveDegraded,
    EngineMode::SlowStart,
    EngineMode::ReservedSlots,
    EngineMode::Rollback,
];

impl EngineMode {
    /// Dense index into per-mode arrays.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            EngineMode::Normal => 0,
            EngineMode::AdaptiveDegraded => 1,
            EngineMode::SlowStart => 2,
            EngineMode::ReservedSlots => 3,
            EngineMode::Rollback => 4,
        }
    }

    /// Short label used in experiment output and trace exports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            EngineMode::Normal => "normal",
            EngineMode::AdaptiveDegraded => "adaptive-degraded",
            EngineMode::SlowStart => "slow-start",
            EngineMode::ReservedSlots => "reserved-slots",
            EngineMode::Rollback => "rollback",
        }
    }
}

/// One mode change on a [`ModeTimeline`]: at cycle `at` the engine left
/// `from` and entered `to` (cycle `at` itself is accounted to `to`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModeTransition {
    /// First cycle executed in the new mode.
    pub at: Cycle,
    /// Mode before the change.
    pub from: EngineMode,
    /// Mode after the change.
    pub to: EngineMode,
}

/// Always-on per-run record of which [`EngineMode`] each simulated cycle
/// executed in: per-mode cycle totals plus the (sparse) transition list.
/// The engine observes exactly one mode per cycle, so the totals sum to
/// the number of cycles run and availability fractions fall out directly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModeTimeline {
    current: EngineMode,
    cycles_in: [u64; ENGINE_MODE_COUNT],
    transitions: Vec<ModeTransition>,
}

impl Default for ModeTimeline {
    fn default() -> Self {
        Self::new()
    }
}

impl ModeTimeline {
    /// Creates a timeline starting in [`EngineMode::Normal`].
    #[must_use]
    pub fn new() -> Self {
        Self {
            current: EngineMode::Normal,
            cycles_in: [0; ENGINE_MODE_COUNT],
            transitions: Vec::new(),
        }
    }

    /// Accounts cycle `now` to `mode`, recording a transition if the mode
    /// changed. Called exactly once per simulated cycle.
    pub fn observe(&mut self, now: Cycle, mode: EngineMode) {
        if mode != self.current {
            self.transitions.push(ModeTransition {
                at: now,
                from: self.current,
                to: mode,
            });
            self.current = mode;
        }
        self.cycles_in[mode.index()] += 1;
    }

    /// Accounts the `cycles` consecutive cycles starting at `now` to
    /// `mode`, exactly as `cycles` calls to [`ModeTimeline::observe`] would
    /// (a mode change is recorded at `now`). Used by the engine to account
    /// a fast-forwarded quiescent span in one step; no-op when `cycles` is
    /// 0.
    pub fn observe_span(&mut self, now: Cycle, mode: EngineMode, cycles: u64) {
        if cycles == 0 {
            return;
        }
        self.observe(now, mode);
        self.cycles_in[mode.index()] += cycles - 1;
    }

    /// The mode most recently observed.
    #[must_use]
    pub fn current(&self) -> EngineMode {
        self.current
    }

    /// Cycles observed in `mode`.
    #[must_use]
    pub fn cycles_in(&self, mode: EngineMode) -> u64 {
        self.cycles_in[mode.index()]
    }

    /// Per-mode cycle totals, indexed by [`EngineMode::index`].
    #[must_use]
    pub fn cycle_totals(&self) -> [u64; ENGINE_MODE_COUNT] {
        self.cycles_in
    }

    /// Total cycles observed across every mode.
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.cycles_in.iter().sum()
    }

    /// Fraction of observed cycles spent in `mode` (0 when nothing has
    /// been observed).
    #[must_use]
    pub fn fraction(&self, mode: EngineMode) -> f64 {
        let total = self.total_cycles();
        if total == 0 {
            0.0
        } else {
            self.cycles_in(mode) as f64 / total as f64
        }
    }

    /// Every recorded mode change, in cycle order.
    #[must_use]
    pub fn transitions(&self) -> &[ModeTransition] {
        &self.transitions
    }

    /// Contiguous `(first_cycle, last_cycle, mode)` spans covering cycles
    /// `1..=end`, reconstructed from the transition list. Assumes the
    /// timeline observed every cycle from 1 (as the engine does); empty
    /// when `end` is 0.
    #[must_use]
    pub fn spans(&self, end: Cycle) -> Vec<(Cycle, Cycle, EngineMode)> {
        if end == 0 {
            return Vec::new();
        }
        let mut spans = Vec::with_capacity(self.transitions.len() + 1);
        let mut start = 1;
        let mut mode = self.transitions.first().map_or(self.current, |t| t.from);
        for t in &self.transitions {
            if t.at > start {
                spans.push((start, t.at - 1, mode));
            }
            start = t.at;
            mode = t.to;
        }
        if start <= end {
            spans.push((start, end, mode));
        }
        spans
    }
}

/// Telemetry knobs. The default (`window_cycles == 0`) is fully disabled:
/// the engine allocates no recorder and the per-cycle cost is a single
/// `Option` check. With windows on, the recorder also keeps the
/// speculation-lifecycle event trace (checkpoints, mis-speculations,
/// rollbacks, fault fire/detect).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TelemetryConfig {
    /// Width of the time-series sampler windows in simulated cycles; 0
    /// disables telemetry.
    pub window_cycles: u64,
}

impl TelemetryConfig {
    /// The disabled default.
    #[must_use]
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Windowed sampling of `window_cycles`-cycle windows plus the event
    /// trace.
    #[must_use]
    pub fn windowed(window_cycles: u64) -> Self {
        Self { window_cycles }
    }

    /// True when the recorder runs.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.window_cycles > 0
    }
}

/// A cumulative counter snapshot taken at a window boundary; the recorder
/// differences successive snapshots into a [`WindowSample`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowCounters {
    /// Memory operations completed so far.
    pub ops_completed: u64,
    /// Recoveries performed so far (mis-speculation plus injected).
    pub recoveries: u64,
    /// Fabric link-busy cycles so far (`NetStats::link_busy_cycles`).
    pub link_busy_cycles: u64,
    /// Unidirectional fabric links (instantaneous).
    pub num_links: u64,
    /// Fabric messages delivered so far.
    pub messages_delivered: u64,
    /// SafetyNet log entries recorded so far.
    pub log_entries: u64,
    /// Outstanding coherence transactions (instantaneous).
    pub outstanding: u64,
    /// SafetyNet log occupancy summed over nodes (instantaneous).
    pub log_occupancy: u64,
}

/// One window of the time-series sampler, covering simulated cycles
/// `(end - window, end]`. Rate fields are deltas over the window;
/// `outstanding` and `log_occupancy` are sampled at the boundary.
///
/// `ops`, `delivered` and `link_utilization` difference counters that live
/// in the checkpointed machine state, so a rollback rewinds them. A window
/// that spans a restore differences the restored counter against its value
/// at the window's start: it undercounts, and reads 0 while the restored
/// counter is still below that value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowSample {
    /// First cycle of the window.
    pub start: Cycle,
    /// Last cycle of the window (the sampling boundary).
    pub end: Cycle,
    /// Memory operations completed in the window.
    pub ops: u64,
    /// Recoveries begun in the window.
    pub recoveries: u64,
    /// Fabric messages delivered in the window.
    pub delivered: u64,
    /// SafetyNet log entries recorded in the window.
    pub log_entries: u64,
    /// Mean fabric link utilization over the window (0..=1).
    pub link_utilization: f64,
    /// Outstanding coherence transactions at the boundary.
    pub outstanding: u64,
    /// SafetyNet log occupancy (entries held across nodes) at the boundary.
    pub log_occupancy: u64,
    /// Engine mode at the boundary.
    pub mode: EngineMode,
}

impl WindowSample {
    /// The sample as one JSON object (a JSONL line, no trailing newline).
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"window_start\":{},\"window_end\":{},\"ops\":{},\"recoveries\":{},\
             \"delivered\":{},\"log_entries\":{},\"link_utilization\":{:.6},\
             \"outstanding\":{},\"log_occupancy\":{},\"mode\":\"{}\"}}",
            self.start,
            self.end,
            self.ops,
            self.recoveries,
            self.delivered,
            self.log_entries,
            self.link_utilization,
            self.outstanding,
            self.log_occupancy,
            self.mode.label()
        )
    }
}

/// One speculation-lifecycle event. All cycle stamps are simulated time;
/// `kind`/`cause` labels come from the protocol's stable label functions,
/// so serialized traces are bit-stable across kernels and runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecEvent {
    /// SafetyNet took a checkpoint.
    Checkpoint {
        /// Checkpoint cycle.
        at: Cycle,
    },
    /// A mis-speculation was detected.
    MisSpec {
        /// Detection cycle.
        at: Cycle,
        /// Mis-speculation kind label.
        kind: &'static str,
        /// Node that declared it.
        node: u64,
    },
    /// The fault director injected a transient fault.
    FaultFired {
        /// Injection cycle.
        at: Cycle,
        /// Fault kind label.
        kind: &'static str,
    },
    /// A transaction timeout was classified as an injected transient fault.
    FaultDetected {
        /// Detection cycle.
        at: Cycle,
        /// Cycle the fault was injected (detection latency = `at` − this).
        injected_at: Cycle,
        /// Fault kind label.
        kind: &'static str,
    },
    /// A recovery began: state rolls back and the engine stalls until
    /// `resume_at`.
    Rollback {
        /// Cycle the recovery was initiated.
        at: Cycle,
        /// First cycle of post-recovery execution.
        resume_at: Cycle,
        /// What triggered it (mis-speculation kind label or `"injected"`).
        cause: &'static str,
    },
}

/// The gated telemetry recorder: windowed time-series samples plus the
/// speculation-lifecycle event trace, with JSONL and Chrome-trace-event
/// exporters. Constructed only when [`TelemetryConfig::enabled`].
#[derive(Debug, Clone)]
pub struct TelemetryRecorder {
    cfg: TelemetryConfig,
    /// Next window boundary.
    next_window: Cycle,
    last: WindowCounters,
    samples: Vec<WindowSample>,
    events: Vec<SpecEvent>,
}

impl TelemetryRecorder {
    /// Builds a recorder for `cfg`, or `None` when telemetry is disabled.
    #[must_use]
    pub fn new(cfg: TelemetryConfig) -> Option<Self> {
        cfg.enabled().then(|| Self {
            cfg,
            next_window: cfg.window_cycles,
            last: WindowCounters::default(),
            samples: Vec::new(),
            events: Vec::new(),
        })
    }

    /// The recorder's configuration.
    #[must_use]
    pub fn config(&self) -> TelemetryConfig {
        self.cfg
    }

    /// True when cycle `now` is a window boundary the sampler must close.
    #[must_use]
    pub fn window_due(&self, now: Cycle) -> bool {
        now >= self.next_window
    }

    /// The first cycle at which [`TelemetryRecorder::window_due`] holds:
    /// the engine never fast-forwards past a window boundary.
    #[must_use]
    pub fn next_window_at(&self) -> Cycle {
        self.next_window
    }

    /// Closes the window ending at `now` from the cumulative counter
    /// snapshot `c` (differenced against the previous boundary).
    pub fn sample_window(&mut self, now: Cycle, mode: EngineMode, c: WindowCounters) {
        let window = self.cfg.window_cycles;
        let start = now + 1 - window;
        let busy = c
            .link_busy_cycles
            .saturating_sub(self.last.link_busy_cycles);
        let link_cycles = window.saturating_mul(c.num_links);
        let link_utilization = if link_cycles == 0 {
            0.0
        } else {
            (busy as f64 / link_cycles as f64).clamp(0.0, 1.0)
        };
        self.samples.push(WindowSample {
            start,
            end: now,
            ops: c.ops_completed.saturating_sub(self.last.ops_completed),
            recoveries: c.recoveries.saturating_sub(self.last.recoveries),
            delivered: c
                .messages_delivered
                .saturating_sub(self.last.messages_delivered),
            log_entries: c.log_entries.saturating_sub(self.last.log_entries),
            link_utilization,
            outstanding: c.outstanding,
            log_occupancy: c.log_occupancy,
            mode,
        });
        self.last = c;
        self.next_window = now + window;
    }

    /// Appends a lifecycle event.
    pub fn record(&mut self, ev: SpecEvent) {
        self.events.push(ev);
    }

    /// The collected window samples.
    #[must_use]
    pub fn samples(&self) -> &[WindowSample] {
        &self.samples
    }

    /// The collected lifecycle events.
    #[must_use]
    pub fn events(&self) -> &[SpecEvent] {
        &self.events
    }

    /// The window samples as JSONL (one JSON object per line, trailing
    /// newline after each).
    #[must_use]
    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.samples {
            out.push_str(&s.to_json());
            out.push('\n');
        }
        out
    }

    /// The event trace plus the mode timeline as a Chrome trace-event JSON
    /// document (loadable in Perfetto / `chrome://tracing`). Timestamps map
    /// one simulated cycle to one trace microsecond. Track 0 carries the
    /// engine-mode spans, track 1 the instant lifecycle events, track 2 the
    /// rollback duration events.
    #[must_use]
    pub fn chrome_trace(&self, timeline: &ModeTimeline, end: Cycle) -> String {
        let mut events: Vec<String> = Vec::new();
        for (start, last, mode) in timeline.spans(end) {
            events.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"mode\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":0,\"tid\":0}}",
                mode.label(),
                start,
                last + 1 - start
            ));
        }
        for ev in &self.events {
            events.push(match *ev {
                SpecEvent::Checkpoint { at } => format!(
                    "{{\"name\":\"checkpoint\",\"cat\":\"safetynet\",\"ph\":\"i\",\"ts\":{at},\
                     \"pid\":0,\"tid\":1,\"s\":\"g\"}}"
                ),
                SpecEvent::MisSpec { at, kind, node } => format!(
                    "{{\"name\":\"misspec:{kind}\",\"cat\":\"speculation\",\"ph\":\"i\",\
                     \"ts\":{at},\"pid\":0,\"tid\":1,\"s\":\"g\",\"args\":{{\"node\":{node}}}}}"
                ),
                SpecEvent::FaultFired { at, kind } => format!(
                    "{{\"name\":\"fault-fired:{kind}\",\"cat\":\"fault\",\"ph\":\"i\",\
                     \"ts\":{at},\"pid\":0,\"tid\":1,\"s\":\"g\"}}"
                ),
                SpecEvent::FaultDetected {
                    at,
                    injected_at,
                    kind,
                } => format!(
                    "{{\"name\":\"fault-detected:{kind}\",\"cat\":\"fault\",\"ph\":\"i\",\
                     \"ts\":{at},\"pid\":0,\"tid\":1,\"s\":\"g\",\
                     \"args\":{{\"injected_at\":{injected_at},\"latency\":{}}}}}",
                    at.saturating_sub(injected_at)
                ),
                SpecEvent::Rollback {
                    at,
                    resume_at,
                    cause,
                } => format!(
                    "{{\"name\":\"rollback:{cause}\",\"cat\":\"recovery\",\"ph\":\"X\",\
                     \"ts\":{at},\"dur\":{},\"pid\":0,\"tid\":2}}",
                    resume_at.saturating_sub(at)
                ),
            });
        }
        let mut out = String::from("{\"traceEvents\":[\n");
        out.push_str(&events.join(",\n"));
        out.push_str("\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"time_unit\":\"1 ts = 1 simulated cycle\"}}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn log2_bucket_boundaries_are_exact_powers_of_two() {
        assert_eq!(Log2Histogram::bucket_of(0), 0);
        assert_eq!(Log2Histogram::bucket_of(1), 1);
        assert_eq!(Log2Histogram::bucket_of(2), 2);
        assert_eq!(Log2Histogram::bucket_of(3), 2);
        assert_eq!(Log2Histogram::bucket_of(4), 3);
        assert_eq!(Log2Histogram::bucket_of(u64::MAX), 64);
        for k in 1..=63usize {
            let low = 1u64 << (k - 1);
            let high = (1u64 << k) - 1;
            assert_eq!(Log2Histogram::bucket_of(low), k, "lower edge of bucket {k}");
            assert_eq!(
                Log2Histogram::bucket_of(high),
                k,
                "upper edge of bucket {k}"
            );
            assert_eq!(Log2Histogram::bucket_upper(k), high);
        }
    }

    #[test]
    fn log2_percentiles_and_mean() {
        let mut h = Log2Histogram::new();
        for v in [1u64, 2, 3, 4, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert!((h.mean() - (1.0 + 2.0 + 3.0 + 4.0 + 100.0 + 1000.0) / 6.0).abs() < 1e-12);
        // Ranks: p50 → 3rd sample (3, bucket upper 3); p99 → 6th (1000,
        // bucket [512,1023] upper 1023).
        assert_eq!(h.p50(), 3);
        assert_eq!(h.p99(), 1023);
        assert_eq!(Log2Histogram::new().p95(), 0);
    }

    #[test]
    fn log2_merge_is_elementwise_sum() {
        let mut a = Log2Histogram::new();
        let mut b = Log2Histogram::new();
        let mut all = Log2Histogram::new();
        for v in [0u64, 5, 17] {
            a.record(v);
            all.record(v);
        }
        for v in [2u64, 300, u64::MAX] {
            b.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a, all);
    }

    proptest! {
        #[test]
        fn log2_count_equals_bucket_sum(samples in proptest::collection::vec(any::<u64>(), 0..200)) {
            let mut h = Log2Histogram::new();
            for &s in &samples {
                h.record(s);
            }
            let bucket_sum: u64 = (0..LOG2_BUCKETS).map(|i| h.bucket(i)).sum();
            prop_assert_eq!(h.count(), bucket_sum);
            prop_assert_eq!(h.count(), samples.len() as u64);
        }

        #[test]
        fn log2_percentile_is_monotone_and_bounds_samples(
            samples in proptest::collection::vec(0u64..1_000_000, 1..200),
            f1 in 0.01f64..1.0,
            f2 in 0.01f64..1.0,
        ) {
            let mut h = Log2Histogram::new();
            for &s in &samples {
                h.record(s);
            }
            let (lo, hi) = if f1 <= f2 { (f1, f2) } else { (f2, f1) };
            prop_assert!(h.percentile(lo) <= h.percentile(hi));
            // p100 never under-reports the maximum sample.
            let max = *samples.iter().max().unwrap();
            prop_assert!(h.percentile(1.0) >= max);
        }

        #[test]
        fn log2_merge_matches_recording_everything(
            a in proptest::collection::vec(any::<u64>(), 0..100),
            b in proptest::collection::vec(any::<u64>(), 0..100),
        ) {
            let mut ha = Log2Histogram::new();
            let mut hb = Log2Histogram::new();
            let mut hall = Log2Histogram::new();
            for &s in &a {
                ha.record(s);
                hall.record(s);
            }
            for &s in &b {
                hb.record(s);
                hall.record(s);
            }
            ha.merge(&hb);
            prop_assert_eq!(ha, hall);
        }
    }

    #[test]
    fn mode_timeline_accounts_every_cycle_and_chains_transitions() {
        let mut t = ModeTimeline::new();
        for now in 1..=10u64 {
            t.observe(now, EngineMode::Normal);
        }
        for now in 11..=13u64 {
            t.observe(now, EngineMode::Rollback);
        }
        for now in 14..=20u64 {
            t.observe(now, EngineMode::SlowStart);
        }
        assert_eq!(t.total_cycles(), 20);
        assert_eq!(t.cycles_in(EngineMode::Normal), 10);
        assert_eq!(t.cycles_in(EngineMode::Rollback), 3);
        assert_eq!(t.cycles_in(EngineMode::SlowStart), 7);
        let fracs: f64 = ALL_ENGINE_MODES.iter().map(|&m| t.fraction(m)).sum();
        assert!((fracs - 1.0).abs() < 1e-12);
        let trs = t.transitions();
        assert_eq!(trs.len(), 2);
        assert_eq!(trs[0].at, 11);
        assert_eq!(trs[0].from, EngineMode::Normal);
        assert_eq!(trs[0].to, EngineMode::Rollback);
        // Transitions chain: each starts where the previous ended.
        assert_eq!(trs[1].from, trs[0].to);
        assert_eq!(
            t.spans(20),
            vec![
                (1, 10, EngineMode::Normal),
                (11, 13, EngineMode::Rollback),
                (14, 20, EngineMode::SlowStart),
            ]
        );
    }

    #[test]
    fn observe_span_equals_observing_every_cycle() {
        // Each segment is `(first cycle, mode, cycles)`; the spans include
        // one that continues the current mode, one whose mode change lands
        // on its first cycle, a zero-length span and a one-cycle span.
        let segments = [
            (1, EngineMode::Normal, 10),
            (11, EngineMode::Normal, 5),
            (16, EngineMode::Rollback, 1_000),
            (1_016, EngineMode::SlowStart, 0),
            (1_016, EngineMode::SlowStart, 1),
            (1_017, EngineMode::SlowStart, 40),
            (1_057, EngineMode::Normal, 3),
        ];
        let mut bulk = ModeTimeline::new();
        let mut each = ModeTimeline::new();
        for (start, mode, cycles) in segments {
            bulk.observe_span(start, mode, cycles);
            for now in start..start + cycles {
                each.observe(now, mode);
            }
            assert_eq!(bulk, each, "diverged after the span at {start}");
        }
        assert_eq!(bulk.total_cycles(), 1_059);
        assert_eq!(bulk.transitions().len(), 3);
        assert_eq!(bulk.transitions()[0].at, 16);
        assert_eq!(bulk.transitions()[1].at, 1_016);
    }

    #[test]
    fn window_sampler_differences_cumulative_counters() {
        let cfg = TelemetryConfig::windowed(100);
        let mut r = TelemetryRecorder::new(cfg).expect("enabled");
        assert!(!r.window_due(99));
        assert!(r.window_due(100));
        r.sample_window(
            100,
            EngineMode::Normal,
            WindowCounters {
                ops_completed: 50,
                link_busy_cycles: 200,
                num_links: 4,
                ..WindowCounters::default()
            },
        );
        r.sample_window(
            200,
            EngineMode::SlowStart,
            WindowCounters {
                ops_completed: 80,
                recoveries: 1,
                link_busy_cycles: 300,
                num_links: 4,
                ..WindowCounters::default()
            },
        );
        let s = r.samples();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].start, s[0].end, s[0].ops), (1, 100, 50));
        assert_eq!((s[1].start, s[1].end, s[1].ops), (101, 200, 30));
        assert_eq!(s[1].recoveries, 1);
        // 100 extra busy cycles over 100 cycles × 4 links = 0.25.
        assert!((s[1].link_utilization - 0.25).abs() < 1e-12);
        let jsonl = r.jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl.starts_with("{\"window_start\":1,\"window_end\":100,"));
    }

    #[test]
    fn disabled_config_builds_no_recorder() {
        assert!(TelemetryRecorder::new(TelemetryConfig::default()).is_none());
        assert!(!TelemetryConfig::default().enabled());
    }

    #[test]
    fn chrome_trace_contains_mode_spans_and_events() {
        let mut t = ModeTimeline::new();
        for now in 1..=5u64 {
            t.observe(now, EngineMode::Normal);
        }
        for now in 6..=8u64 {
            t.observe(now, EngineMode::Rollback);
        }
        let mut r = TelemetryRecorder::new(TelemetryConfig::windowed(100)).expect("enabled");
        r.record(SpecEvent::Checkpoint { at: 3 });
        r.record(SpecEvent::MisSpec {
            at: 5,
            kind: "transaction-timeout",
            node: 2,
        });
        r.record(SpecEvent::Rollback {
            at: 5,
            resume_at: 9,
            cause: "transaction-timeout",
        });
        let trace = r.chrome_trace(&t, 8);
        assert!(trace.contains("\"traceEvents\""));
        assert!(trace.contains("\"name\":\"normal\""));
        assert!(trace.contains("\"name\":\"rollback\""));
        assert!(trace.contains("\"name\":\"checkpoint\""));
        assert!(trace.contains("\"name\":\"misspec:transaction-timeout\""));
        assert!(trace.contains("\"name\":\"rollback:transaction-timeout\",\"cat\":\"recovery\""));
    }
}
