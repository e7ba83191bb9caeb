//! A due-cycle timing wheel for event-driven kernels.
//!
//! A cycle-driven simulator that polls every component each cycle pays for
//! the components that cannot act. A [`TimingWheel`] instead indexes
//! entries by the cycle they come due, so the per-cycle loop pops only the
//! ripe ones. The torus files its link arrivals and parked-switch wakes
//! here; the engine files its processor wakes and parked-outbox wakes.

use std::collections::BTreeMap;

use crate::time::Cycle;

/// Minimum number of buckets in a [`TimingWheel`] (always a power of two).
/// Each wheel is sized at construction from its owner's scheduling horizon
/// (see [`TimingWheel::with_horizon`]); this constant is the floor. Rarer,
/// longer distances spill into the overflow map.
const MIN_WHEEL_BUCKETS: usize = 64;

/// Due-cycle index over entries of type `T`: the entries for cycle `c` are
/// popped, in the order they were scheduled, by the first drain at or after
/// `c`.
///
/// The index is a **ring-buffer timing wheel**: cycle `c` lives in bucket
/// `c % buckets`, and buckets are drained in place ([`Vec::append`] keeps
/// their allocation), so steady-state scheduling allocates nothing. One
/// occupancy bit per bucket lets drains and horizon queries skip runs of
/// empty buckets a word at a time.
/// Entries beyond the wheel horizon spill into a `BTreeMap` overflow. The
/// cursor is the lowest cycle not yet drained; an entry scheduled behind it
/// is clamped to it, so the next drain pops it. Because the cursor is
/// monotone and an entry overflows only when its cycle is at least one full
/// wheel lap past the cursor, all overflow entries for a cycle were
/// scheduled before all wheel entries for it, so draining overflow-first
/// preserves exact schedule order.
#[derive(Debug, Clone)]
pub struct TimingWheel<T> {
    wheel: Vec<Vec<T>>,
    /// One bit per bucket, set exactly while the bucket holds entries.
    occupied: Vec<u64>,
    overflow: BTreeMap<Cycle, Vec<T>>,
    /// Lowest cycle not yet drained. A drain that finds the wheel empty
    /// re-anchors it to the cycle after the drain.
    next: Cycle,
    /// Entries currently indexed (wheel + overflow).
    pending: usize,
}

impl<T: Copy> TimingWheel<T> {
    /// Builds a wheel that covers at least `horizon` cycles of look-ahead:
    /// the bucket count is `horizon + 1` rounded up to a power of two,
    /// floored at `MIN_WHEEL_BUCKETS` (64). Callers pass their longest
    /// *common* scheduling distance; anything rarer overflows into the map.
    #[must_use]
    pub fn with_horizon(horizon: Cycle) -> Self {
        let buckets = (horizon as usize + 1)
            .next_power_of_two()
            .max(MIN_WHEEL_BUCKETS);
        Self {
            wheel: vec![Vec::new(); buckets],
            occupied: vec![0; buckets / 64],
            overflow: BTreeMap::new(),
            next: 0,
            pending: 0,
        }
    }

    /// The lowest cycle not yet drained.
    #[must_use]
    pub fn cursor(&self) -> Cycle {
        self.next
    }

    fn bucket_of(&self, cycle: Cycle) -> usize {
        (cycle as usize) & (self.wheel.len() - 1)
    }

    /// The earliest occupied wheel cycle in `[cursor, cursor + span)`.
    /// The wheel holds only cycles in `[cursor, cursor + buckets)`, so
    /// walking the occupancy words in ring order from the cursor's bucket
    /// finds it; the walk stops after `span` buckets.
    fn first_occupied_within(&self, span: Cycle) -> Option<Cycle> {
        let span = span.min(self.wheel.len() as Cycle) as usize;
        let start = self.bucket_of(self.next);
        let mut ahead = 0;
        while ahead < span {
            // Bucket counts are multiples of 64, so a word never straddles
            // the end of the ring.
            let b = (start + ahead) & (self.wheel.len() - 1);
            let bits = self.occupied[b / 64] >> (b % 64);
            if bits != 0 {
                let found = ahead + bits.trailing_zeros() as usize;
                return (found < span).then(|| self.next + found as Cycle);
            }
            ahead += 64 - b % 64;
        }
        None
    }

    /// Files `entry` under cycle `at`, or under the cursor when `at` is
    /// behind it (the entry is then popped by the next drain).
    pub fn schedule(&mut self, at: Cycle, entry: T) {
        let at = at.max(self.next);
        if at - self.next < self.wheel.len() as Cycle {
            let b = self.bucket_of(at);
            self.wheel[b].push(entry);
            self.occupied[b / 64] |= 1 << (b % 64);
        } else {
            self.overflow.entry(at).or_default().push(entry);
        }
        self.pending += 1;
    }

    /// Fills `out` with the earliest batch due at or before `now` (replacing
    /// its contents, keeping its allocation) and returns `true`, or returns
    /// `false` when nothing is ripe. Within a batch, entries come out in
    /// schedule order. Once it returns `false` the cursor is `now + 1`.
    /// The drain jumps to the earliest occupied bucket or overflow key,
    /// reading the occupancy bits a word at a time, instead of visiting
    /// every empty cycle on the way.
    pub fn pop_ripe_into(&mut self, now: Cycle, out: &mut Vec<T>) -> bool {
        out.clear();
        if self.pending == 0 {
            // Re-anchor the cursor so the wheel horizon always starts at the
            // present when scheduling resumes.
            self.next = now + 1;
            return false;
        }
        // Jump straight to the earliest indexed cycle due by `now`: the
        // overflow's first key or the first occupied bucket.
        let wheel_first = self.first_occupied_within((now + 1).saturating_sub(self.next));
        let overflow_first = self
            .overflow
            .first_key_value()
            .map(|(&c, _)| c)
            .filter(|&c| c <= now);
        let Some(cycle) = wheel_first.into_iter().chain(overflow_first).min() else {
            self.next = self.next.max(now + 1);
            return false;
        };
        if overflow_first == Some(cycle) {
            let far = self.overflow.remove(&cycle).expect("key just observed");
            out.extend_from_slice(&far);
        }
        // `append` empties the bucket while keeping its allocation.
        let b = self.bucket_of(cycle);
        out.append(&mut self.wheel[b]);
        self.occupied[b / 64] &= !(1 << (b % 64));
        self.next = cycle + 1;
        self.pending -= out.len();
        true
    }

    /// The earliest cycle holding an indexed entry, or `limit` when none is
    /// due before it. The occupancy words locate the first non-empty bucket
    /// from the cursor, 64 buckets at a time.
    #[must_use]
    pub fn earliest_due(&self, limit: Cycle) -> Cycle {
        if self.pending == 0 {
            return limit;
        }
        let limit = self
            .overflow
            .first_key_value()
            .map_or(limit, |(&c, _)| c.min(limit));
        self.first_occupied_within(limit.saturating_sub(self.next))
            .unwrap_or(limit)
    }

    /// Discards every entry; the cursor stays where it is.
    pub fn clear(&mut self) {
        for bucket in &mut self.wheel {
            bucket.clear();
        }
        self.occupied.fill(0);
        self.overflow.clear();
        self.pending = 0;
    }

    /// True when `entry` is pending at `cycle` (invariant checks: the wheel
    /// holds only cycles in `[cursor, cursor + buckets)`, so one bucket plus
    /// the overflow covers a cycle).
    #[must_use]
    pub fn holds(&self, cycle: Cycle, entry: T) -> bool
    where
        T: PartialEq,
    {
        let in_wheel = cycle >= self.next
            && cycle - self.next < self.wheel.len() as Cycle
            && self.wheel[self.bucket_of(cycle)].contains(&entry);
        in_wheel
            || self
                .overflow
                .get(&cycle)
                .is_some_and(|v| v.contains(&entry))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DetRng;
    use proptest::prelude::*;

    type Entry = (u32, u8);

    /// Drains one batch from the wheel.
    fn pop_batch(wheel: &mut TimingWheel<Entry>, now: Cycle) -> Option<Vec<Entry>> {
        let mut out = Vec::new();
        wheel.pop_ripe_into(now, &mut out).then_some(out)
    }

    #[test]
    fn drains_cycles_in_order_and_batches_in_schedule_order() {
        let mut wheel = TimingWheel::with_horizon(0);
        assert!(pop_batch(&mut wheel, 0).is_none());
        wheel.schedule(5, (1, 0));
        wheel.schedule(3, (2, 1));
        wheel.schedule(5, (3, 2));
        // Nothing ripe before cycle 3.
        assert!(pop_batch(&mut wheel, 2).is_none());
        // Earliest cycle first; within a cycle, schedule order.
        assert_eq!(pop_batch(&mut wheel, 10), Some(vec![(2, 1)]));
        assert_eq!(pop_batch(&mut wheel, 10), Some(vec![(1, 0), (3, 2)]));
        assert!(pop_batch(&mut wheel, 10).is_none());
        // Empty again: the cursor re-anchors and far-future cycles work.
        wheel.schedule(11, (4, 3));
        assert!(pop_batch(&mut wheel, 10).is_none());
        assert_eq!(pop_batch(&mut wheel, 11), Some(vec![(4, 3)]));
    }

    #[test]
    fn overflow_beyond_the_wheel_horizon_is_preserved_in_order() {
        let mut wheel = TimingWheel::with_horizon(0);
        let far = MIN_WHEEL_BUCKETS as Cycle + 500;
        // Scheduled while the cursor is 0, so `far` lands in the overflow
        // map...
        wheel.schedule(far, (9, 1));
        wheel.schedule(2, (1, 0));
        // ...and an in-wheel entry for the same far cycle, scheduled later
        // (after the cursor advanced), must drain *after* the overflow one.
        assert_eq!(pop_batch(&mut wheel, 2), Some(vec![(1, 0)]));
        wheel.schedule(far, (7, 2));
        assert!(pop_batch(&mut wheel, far - 1).is_none());
        assert_eq!(pop_batch(&mut wheel, far), Some(vec![(9, 1), (7, 2)]));
        assert!(pop_batch(&mut wheel, far + MIN_WHEEL_BUCKETS as Cycle).is_none());
    }

    #[test]
    fn in_cycle_order_holds_across_overflow_and_wheel() {
        // Three entries for one cycle: two filed while it lies past the
        // horizon (overflow), one filed once it is in reach (wheel), then a
        // fourth overflow-era entry for a later cycle. The cycle drains as
        // one batch, overflow entries first in their schedule order.
        let mut wheel = TimingWheel::with_horizon(0);
        let lap = MIN_WHEEL_BUCKETS as Cycle;
        let due = lap + 40;
        wheel.schedule(due, (1, 0));
        wheel.schedule(due + 1, (4, 0));
        wheel.schedule(due, (2, 0));
        assert!(pop_batch(&mut wheel, 100).is_none());
        wheel.schedule(due, (3, 0));
        assert!(wheel.holds(due, (1, 0)) && wheel.holds(due, (3, 0)));
        assert_eq!(wheel.pending, 4);
        assert_eq!(
            pop_batch(&mut wheel, due + 1),
            Some(vec![(1, 0), (2, 0), (3, 0)])
        );
        assert_eq!(pop_batch(&mut wheel, due + 1), Some(vec![(4, 0)]));
        assert_eq!(wheel.pending, 0);
    }

    #[test]
    fn a_drain_across_a_jump_longer_than_the_wheel_pops_every_entry() {
        // A caller that skipped several laps (a fast-forward) drains late:
        // every entry still comes out, cycle by cycle, and the cursor ends
        // just past the drain cycle.
        let mut wheel = TimingWheel::with_horizon(0);
        let lap = MIN_WHEEL_BUCKETS as Cycle;
        wheel.schedule(3, (1, 0));
        wheel.schedule(lap - 1, (2, 0));
        wheel.schedule(2 * lap + 5, (3, 0));
        let now = 4 * lap;
        let mut got = Vec::new();
        while let Some(batch) = pop_batch(&mut wheel, now) {
            got.extend(batch);
        }
        assert_eq!(got, vec![(1, 0), (2, 0), (3, 0)]);
        assert_eq!(wheel.pending, 0);
        assert_eq!(wheel.cursor(), now + 1);
        // The wheel keeps working from the new cursor.
        wheel.schedule(now + 2, (4, 0));
        assert!(pop_batch(&mut wheel, now + 1).is_none());
        assert_eq!(pop_batch(&mut wheel, now + 2), Some(vec![(4, 0)]));
    }

    #[test]
    fn an_entry_scheduled_behind_the_cursor_is_clamped_to_it() {
        let mut wheel = TimingWheel::with_horizon(0);
        wheel.schedule(50, (9, 0));
        assert!(pop_batch(&mut wheel, 20).is_none());
        assert_eq!(wheel.cursor(), 21);
        // Cycle 7 was drained long ago: the entry lands on the cursor and
        // is popped by the next drain, ahead of the later entry.
        wheel.schedule(7, (1, 0));
        assert!(wheel.holds(21, (1, 0)));
        assert_eq!(wheel.earliest_due(Cycle::MAX), 21);
        assert_eq!(pop_batch(&mut wheel, 21), Some(vec![(1, 0)]));
        assert_eq!(pop_batch(&mut wheel, 50), Some(vec![(9, 0)]));
    }

    #[test]
    fn earliest_due_counts_stale_entries_and_respects_the_limit() {
        // The wheel does not know which entries its owner has since
        // superseded: a stale entry still bounds `earliest_due` (a caller
        // that skips up to it only loses a skippable cycle, never an
        // event), until a drain pops it.
        let mut wheel = TimingWheel::with_horizon(0);
        assert_eq!(wheel.earliest_due(77), 77);
        wheel.schedule(10, (1, 0)); // superseded by the owner
        wheel.schedule(30, (1, 0)); // the live entry
        wheel.schedule(MIN_WHEEL_BUCKETS as Cycle * 3, (2, 0));
        assert_eq!(wheel.earliest_due(Cycle::MAX), 10);
        assert_eq!(wheel.earliest_due(5), 5);
        assert_eq!(pop_batch(&mut wheel, 10), Some(vec![(1, 0)]));
        assert_eq!(wheel.earliest_due(Cycle::MAX), 30);
        assert_eq!(pop_batch(&mut wheel, 30), Some(vec![(1, 0)]));
        // Only the overflow entry remains, beyond the wheel's reach.
        assert_eq!(
            wheel.earliest_due(Cycle::MAX),
            MIN_WHEEL_BUCKETS as Cycle * 3
        );
        assert_eq!(wheel.earliest_due(100), 100);
    }

    #[test]
    fn clear_discards_everything_but_keeps_working() {
        let mut wheel = TimingWheel::with_horizon(0);
        wheel.schedule(4, (1, 0));
        wheel.schedule(MIN_WHEEL_BUCKETS as Cycle + 9, (2, 1));
        wheel.clear();
        assert_eq!(wheel.pending, 0);
        assert!(pop_batch(&mut wheel, MIN_WHEEL_BUCKETS as Cycle * 2).is_none());
        wheel.schedule(MIN_WHEEL_BUCKETS as Cycle * 2 + 3, (5, 3));
        assert_eq!(
            pop_batch(&mut wheel, MIN_WHEEL_BUCKETS as Cycle * 2 + 3),
            Some(vec![(5, 3)])
        );
    }

    #[test]
    fn wheel_is_sized_from_the_horizon() {
        // The floor applies when the horizon fits the minimum wheel...
        let buckets = |h| TimingWheel::<Entry>::with_horizon(h).wheel.len();
        assert_eq!(buckets(0), MIN_WHEEL_BUCKETS);
        assert_eq!(buckets(MIN_WHEEL_BUCKETS as Cycle - 1), MIN_WHEEL_BUCKETS);
        // ...and a longer horizon rounds up to the next power of two, so the
        // full common scheduling distance stays on the wheel.
        assert_eq!(buckets(MIN_WHEEL_BUCKETS as Cycle), 2 * MIN_WHEEL_BUCKETS);
        assert_eq!(buckets(1023), 1024);
        assert_eq!(buckets(3000), 4096);
    }

    #[test]
    fn overflow_heavy_schedule_drains_in_exact_order() {
        // Park far more entries in the overflow map than on the wheel —
        // every distinct due cycle beyond the horizon, interleaved with
        // near-term wheel entries — and require the global drain order to be
        // exactly (due cycle asc, schedule order within a cycle), overflow
        // entries strictly before wheel entries for the same cycle.
        let mut wheel = TimingWheel::with_horizon(0);
        let lap = MIN_WHEEL_BUCKETS as Cycle;
        let mut expected: BTreeMap<Cycle, Vec<Entry>> = BTreeMap::new();
        // 64 overflow cycles, several laps deep, three entries each.
        for k in 0..64u32 {
            let due = lap + 17 + 3 * Cycle::from(k) * 37 % (5 * lap);
            for j in 0..3u8 {
                wheel.schedule(due, (k, j));
                expected.entry(due).or_default().push((k, j));
            }
        }
        // A handful of near entries that must drain first.
        for k in 0..8u32 {
            let due = 2 + Cycle::from(k) * 5;
            wheel.schedule(due, (100 + k, 0));
            expected.entry(due).or_default().push((100 + k, 0));
        }
        // Same-cycle mix: an overflow entry scheduled first must come out
        // before a wheel entry scheduled for the same cycle later.
        let mixed = lap + 17; // already in overflow from the loop above
        let mut now = 0;
        let mut got: Vec<(Cycle, Vec<Entry>)> = Vec::new();
        while now < 8 * lap {
            now += 1;
            if now == mixed {
                // Close enough now to land on the wheel.
                wheel.schedule(mixed, (999, 3));
                expected.entry(mixed).or_default().push((999, 3));
            }
            while let Some(batch) = pop_batch(&mut wheel, now) {
                got.push((now, batch));
            }
        }
        let want: Vec<(Cycle, Vec<Entry>)> = expected.into_iter().collect();
        assert_eq!(got, want);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn random_operation_sequences_match_a_btreemap_model(
            horizon in 0u64..300,
            ops in proptest::collection::vec((0u64..8, 0u64..4, 0u64..1_000), 1..300),
        ) {
            // Drive the wheel and a BTreeMap<Cycle, Vec> model with the same
            // schedule / drain / horizon / clear stream. The shapes cover
            // near entries, entries anywhere on the ring (bucket
            // wrap-around), overflow entries, entries behind the cursor,
            // and drains that jump many laps at once.
            let mut wheel = TimingWheel::with_horizon(horizon);
            let lap = wheel.wheel.len() as Cycle;
            let mut model: BTreeMap<Cycle, Vec<Entry>> = BTreeMap::new();
            let mut now: Cycle = 0;
            let mut cursor: Cycle = 0;
            for (k, (op, shape, x)) in ops.into_iter().enumerate() {
                match op {
                    0..=3 => {
                        let at = match shape {
                            0 => cursor + x % 8,
                            1 => cursor + x % lap,
                            2 => cursor + lap + x,
                            _ => cursor.saturating_sub(1 + x),
                        };
                        let entry = (k as u32, shape as u8);
                        wheel.schedule(at, entry);
                        // Behind the cursor is clamped to it.
                        model.entry(at.max(cursor)).or_default().push(entry);
                    }
                    4 | 5 => {
                        now += match shape {
                            0 => x % 4,
                            1 => x % lap,
                            2 => lap * (1 + x % 5) + x,
                            _ => x,
                        };
                        loop {
                            let expected = match model.first_key_value() {
                                Some((&c, _)) if c <= now => model.remove(&c),
                                _ => None,
                            };
                            let got = pop_batch(&mut wheel, now);
                            prop_assert_eq!(&got, &expected);
                            if got.is_none() {
                                break;
                            }
                        }
                        cursor = now + 1;
                        prop_assert_eq!(wheel.cursor(), cursor);
                    }
                    6 => {
                        let first = model.first_key_value().map_or(Cycle::MAX, |(&c, _)| c);
                        let limit = match shape {
                            0 => Cycle::MAX,
                            1 => cursor + x % 8,
                            2 => cursor + x,
                            _ => cursor.saturating_sub(x),
                        };
                        prop_assert_eq!(wheel.earliest_due(limit), first.min(limit));
                    }
                    _ => {
                        wheel.clear();
                        model.clear();
                        prop_assert_eq!(wheel.cursor(), cursor);
                    }
                }
                prop_assert_eq!(wheel.pending, model.values().map(Vec::len).sum::<usize>());
            }
        }
    }

    #[test]
    fn matches_a_btreemap_model_under_random_traffic() {
        // Drive the wheel and a plain BTreeMap<Cycle, Vec> with the same
        // schedule/pop stream and require identical batches.
        let mut wheel = TimingWheel::with_horizon(0);
        let mut model: BTreeMap<Cycle, Vec<Entry>> = BTreeMap::new();
        let mut rng = DetRng::new(71);
        let mut now: Cycle = 0;
        for _ in 0..3_000 {
            now += 1 + rng.next_below(3);
            // Drain everything ripe, comparing batch-for-batch (the model
            // pops its earliest entry).
            loop {
                let expected = match model.first_key_value() {
                    Some((&c, _)) if c <= now => model.remove(&c),
                    _ => None,
                };
                let got = pop_batch(&mut wheel, now);
                assert_eq!(got, expected, "divergence at cycle {now}");
                if got.is_none() {
                    break;
                }
            }
            // The earliest due cycle is the model's first key, and the limit
            // caps it.
            let first = model.first_key_value().map_or(Cycle::MAX, |(&c, _)| c);
            assert_eq!(wheel.earliest_due(Cycle::MAX), first);
            assert_eq!(wheel.earliest_due(now + 2), first.min(now + 2));
            // Schedule a burst of entries, occasionally far enough out to
            // exercise the overflow map.
            for _ in 0..rng.next_below(4) {
                let horizon = if rng.next_below(10) == 0 {
                    MIN_WHEEL_BUCKETS as Cycle + rng.next_below(400)
                } else {
                    1 + rng.next_below(800)
                };
                let at = now + horizon;
                let entry = (rng.next_below(16) as u32, rng.next_below(4) as u8);
                wheel.schedule(at, entry);
                model.entry(at).or_default().push(entry);
            }
        }
    }
}
