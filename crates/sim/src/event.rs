//! The event queue: a deterministic timer wheel keyed to the 100 ms
//! control-slot structure, with a sorted overflow heap for far-future
//! events and a retained [`ReferenceEventQueue`] (the pre-optimization
//! binary heap) for equivalence testing.
//!
//! Both queues implement the same contract: events pop in ascending
//! `(time, insertion order)` — equal-time events are FIFO. The wheel
//! version is allocation-free in steady state (bucket `Vec`s are reused
//! across laps) and locates the next event with a 4-word occupancy-bitmap
//! scan instead of a heap sift.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use empower_model::{LinkId, NodeId};

/// Simulator events. Hot variants are kept small (`u32` indices, `f32`
/// price — lossless, the wire header stores `f32`) so a `Scheduled`
/// entry stays within one cache line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// A frame finishes transmitting on `link`.
    TxEnd { link: LinkId },
    /// The application of flow `flow` offers its next packet.
    Emit { flow: u32 },
    /// The 100 ms control slot boundary: demand measurement, price
    /// broadcasts, dual updates, ACKs, controller steps, stats sampling.
    ControlTick,
    /// Failure injection / capacity change.
    LinkChange { link: LinkId, capacity_mbps: f64 },
    /// Node crash (`up = false`) or recovery (`up = true`): every link
    /// adjacent to `node` goes down with it and comes back at the capacity
    /// it had when the node crashed.
    NodeChange { node: NodeId, up: bool },
    /// Delay-equalization release of a held packet into the reorder buffer.
    Release { flow: u32, route: u16, seq: u32, price: f32, created_at: f64 },
    /// A TCP acknowledgement arrives back at the sender of `flow`.
    TcpAckArrival { flow: u32, ack_seq: u32, dup: bool },
    /// TCP retransmission-timeout check for `flow`.
    TcpRtoCheck { flow: u32 },
    /// Start generating traffic for `flow`.
    FlowStart { flow: u32 },
    /// Stop generating traffic for `flow`.
    FlowStop { flow: u32 },
}

#[derive(Debug, Clone, Copy)]
struct Scheduled {
    at: f64,
    /// Insertion counter: deterministic FIFO tie-break at equal times.
    seq: u64,
    event: Event,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first.
        other.at.total_cmp(&self.at).then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Wheel slots. 256 buckets of `0.1 s / 64` each cover a 400 ms horizon —
/// four control slots — so every steady-state event (frame service times,
/// ACK delays, the next `ControlTick`) lands in the wheel; only far-future
/// injections (`FlowStop`, scenario faults) hit the overflow heap.
const WHEEL_BUCKETS: usize = 256;
/// Occupancy-bitmap words covering [`WHEEL_BUCKETS`] slots.
const OCC_WORDS: usize = WHEEL_BUCKETS / 64;
/// Bucket width, seconds: 1/64th of the 100 ms control slot.
const BUCKET_SECS: f64 = 0.1 / 64.0;

/// Time-ordered event queue with deterministic tie-breaking: a 256-slot
/// timer wheel over absolute bucket indices (`cursor` tracks the earliest
/// non-empty bucket) plus a sorted overflow heap for events beyond the
/// wheel horizon. Overflow entries are lazily promoted into the wheel as
/// the cursor advances, before any pop or peek can observe them out of
/// order.
#[derive(Debug)]
pub struct EventQueue {
    /// `buckets[b % WHEEL_BUCKETS]` holds every wheel event whose absolute
    /// bucket is `b`, for `cursor <= b < cursor + WHEEL_BUCKETS`.
    buckets: Vec<Vec<Scheduled>>,
    /// One bit per slot: set iff the slot's bucket is non-empty.
    occupied: [u64; OCC_WORDS],
    /// Absolute bucket index of the earliest possibly-occupied slot.
    cursor: u64,
    /// Events scheduled beyond the wheel horizon, earliest first.
    overflow: BinaryHeap<Scheduled>,
    /// Insertion counter shared by wheel and overflow entries.
    counter: u64,
    /// Number of events currently stored in wheel buckets.
    wheel_len: usize,
}

impl Default for EventQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            buckets: (0..WHEEL_BUCKETS).map(|_| Vec::new()).collect(),
            occupied: [0; OCC_WORDS],
            cursor: 0,
            overflow: BinaryHeap::new(),
            counter: 0,
            wheel_len: 0,
        }
    }

    /// Schedules `event` at absolute time `at` (seconds).
    pub fn push(&mut self, at: f64, event: Event) {
        debug_assert!(at.is_finite() && at >= 0.0, "bad event time {at}");
        let seq = self.counter;
        self.counter += 1;
        self.insert(Scheduled { at, seq, event });
    }

    /// Pops the earliest event.
    pub fn pop(&mut self) -> Option<(f64, Event)> {
        let (slot, idx) = self.locate()?;
        let s = self.buckets[slot].swap_remove(idx);
        self.wheel_len -= 1;
        if self.buckets[slot].is_empty() {
            self.occupied[slot / 64] &= !(1u64 << (slot % 64));
        }
        Some((s.at, s.event))
    }

    /// Time of the next event without removing it. Advances the internal
    /// cursor (hence `&mut`) but consumes nothing.
    pub fn peek_time(&mut self) -> Option<f64> {
        let (slot, idx) = self.locate()?;
        Some(self.buckets[slot][idx].at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.wheel_len + self.overflow.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Largest absolute bucket index handed out: keeps the horizon
    /// arithmetic (`cursor + WHEEL_BUCKETS`, and the same sum after a
    /// cursor jump in [`EventQueue::promote`]) overflow-free.
    const MAX_BUCKET: u64 = u64::MAX - 2 * WHEEL_BUCKETS as u64;

    fn bucket_of(at: f64) -> u64 {
        // Far-future saturation guard: beyond ~2.8e16 s the `as u64` cast
        // of `at / BUCKET_SECS` would saturate to `u64::MAX`, and the
        // promotion horizon `cursor + WHEEL_BUCKETS` would then overflow —
        // a panic in debug builds and, with wrapping, a cursor the
        // occupancy scan can never reach in release builds, stranding
        // every overflow event. Collapsing such times into the last
        // representable bucket is exact: the per-bucket `(at, seq)`
        // min-scan still pops them in time-then-FIFO order.
        let b = at / BUCKET_SECS;
        if b >= Self::MAX_BUCKET as f64 {
            Self::MAX_BUCKET
        } else {
            b as u64
        }
    }

    /// Files an entry into its wheel bucket, or into the overflow heap if
    /// it lies beyond the horizon. Entries whose natural bucket is behind
    /// the cursor (late pushes at the current instant, after the cursor
    /// skipped their bucket) are clamped into the cursor bucket; the
    /// per-bucket `(at, seq)` min-scan keeps them correctly ordered, and
    /// every bucket between their natural slot and the cursor is provably
    /// empty (the cursor only advances over empty buckets).
    fn insert(&mut self, s: Scheduled) {
        let b = Self::bucket_of(s.at).max(self.cursor);
        if b >= self.cursor + WHEEL_BUCKETS as u64 {
            self.overflow.push(s);
            return;
        }
        let slot = (b % WHEEL_BUCKETS as u64) as usize;
        self.buckets[slot].push(s);
        self.occupied[slot / 64] |= 1u64 << (slot % 64);
        self.wheel_len += 1;
    }

    /// Moves every overflow entry whose bucket has entered the wheel
    /// horizon into its bucket. When the wheel is empty the cursor first
    /// jumps to the earliest overflow bucket, so promotion always lands
    /// inside the (new) horizon and overflow entries can never pop before
    /// a wheel entry they precede in time.
    fn promote(&mut self) {
        if self.wheel_len == 0 {
            if let Some(s) = self.overflow.peek() {
                self.cursor = self.cursor.max(Self::bucket_of(s.at));
            }
        }
        let horizon = self.cursor + WHEEL_BUCKETS as u64;
        while self.overflow.peek().is_some_and(|s| Self::bucket_of(s.at) < horizon) {
            if let Some(s) = self.overflow.pop() {
                self.insert(s);
            }
        }
    }

    /// Finds the earliest pending event: promotes due overflow entries,
    /// advances the cursor to the first occupied slot, and returns the
    /// `(slot, index)` of the bucket's `(at, seq)` minimum.
    fn locate(&mut self) -> Option<(usize, usize)> {
        if self.wheel_len == 0 && self.overflow.is_empty() {
            return None;
        }
        self.promote();
        let cslot = (self.cursor % WHEEL_BUCKETS as u64) as usize;
        let slot = self.next_occupied_from(cslot)?;
        let delta = (slot + WHEEL_BUCKETS - cslot) % WHEEL_BUCKETS;
        self.cursor += delta as u64;
        let bucket = &self.buckets[slot];
        let mut best = 0;
        for (i, s) in bucket.iter().enumerate().skip(1) {
            let b = &bucket[best];
            if s.at.total_cmp(&b.at).then_with(|| s.seq.cmp(&b.seq)) == Ordering::Less {
                best = i;
            }
        }
        Some((slot, best))
    }

    /// Circular occupancy-bitmap scan: first occupied slot at or after
    /// `start`, wrapping once around the wheel.
    fn next_occupied_from(&self, start: usize) -> Option<usize> {
        let (sw, sb) = (start / 64, start % 64);
        let first = self.occupied[sw] & (!0u64 << sb);
        if first != 0 {
            return Some(sw * 64 + first.trailing_zeros() as usize);
        }
        for step in 1..=OCC_WORDS {
            let w = (sw + step) % OCC_WORDS;
            let mut word = self.occupied[w];
            if step == OCC_WORDS {
                // Wrapped back to the start word: only bits below `start`.
                word &= !(!0u64 << sb);
            }
            if word != 0 {
                return Some(w * 64 + word.trailing_zeros() as usize);
            }
        }
        None
    }
}

/// The pre-optimization event queue: a plain binary heap. Retained as the
/// ordering oracle for the timer wheel (property-tested to pop identical
/// sequences) and as the queue behind [`crate::ReferenceSimulation`].
#[derive(Debug, Default)]
pub struct ReferenceEventQueue {
    heap: BinaryHeap<Scheduled>,
    counter: u64,
}

impl ReferenceEventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `event` at absolute time `at` (seconds).
    pub fn push(&mut self, at: f64, event: Event) {
        debug_assert!(at.is_finite() && at >= 0.0, "bad event time {at}");
        self.heap.push(Scheduled { at, seq: self.counter, event });
        self.counter += 1;
    }

    /// Pops the earliest event.
    pub fn pop(&mut self) -> Option<(f64, Event)> {
        self.heap.pop().map(|s| (s.at, s.event))
    }

    /// Time of the next event without removing it.
    pub fn peek_time(&self) -> Option<f64> {
        self.heap.peek().map(|s| s.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use empower_model::rng::{Rng, SeedableRng, StdRng};

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.push(2.0, Event::ControlTick);
        q.push(1.0, Event::Emit { flow: 0 });
        q.push(3.0, Event::ControlTick);
        assert_eq!(q.pop().unwrap().0, 1.0);
        assert_eq!(q.pop().unwrap().0, 2.0);
        assert_eq!(q.pop().unwrap().0, 3.0);
        assert!(q.pop().is_none());
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        q.push(1.0, Event::Emit { flow: 0 });
        q.push(1.0, Event::Emit { flow: 1 });
        q.push(1.0, Event::Emit { flow: 2 });
        for expect in 0..3 {
            match q.pop().unwrap().1 {
                Event::Emit { flow } => assert_eq!(flow, expect),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn peek_does_not_consume() {
        let mut q = EventQueue::new();
        q.push(5.0, Event::ControlTick);
        assert_eq!(q.peek_time(), Some(5.0));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn far_future_overflow_pops_in_order() {
        let mut q = EventQueue::new();
        // Beyond the 400 ms wheel horizon from t=0.
        q.push(10.0, Event::Emit { flow: 10 });
        q.push(0.05, Event::Emit { flow: 0 });
        q.push(3.0, Event::Emit { flow: 3 });
        q.push(300.0, Event::Emit { flow: 300 });
        let order: Vec<f64> = std::iter::from_fn(|| q.pop().map(|(at, _)| at)).collect();
        assert_eq!(order, vec![0.05, 3.0, 10.0, 300.0]);
    }

    /// Regression: an overflow entry must not pop before a later wheel
    /// push that precedes it in time, even after the cursor jumps forward
    /// to reach the overflow region.
    #[test]
    fn overflow_window_extension_keeps_order() {
        let mut q = EventQueue::new();
        q.push(50.0, Event::Emit { flow: 50 });
        q.push(0.01, Event::Emit { flow: 0 });
        // Pop the near event: cursor is now at bucket(0.01).
        assert!(matches!(q.pop(), Some((_, Event::Emit { flow: 0 }))));
        // Push between now and the overflow entry, inside a future lap.
        q.push(49.9, Event::Emit { flow: 49 });
        q.push(0.02, Event::Emit { flow: 1 });
        let flows: Vec<u32> = std::iter::from_fn(|| {
            q.pop().map(|(_, e)| match e {
                Event::Emit { flow } => flow,
                other => panic!("unexpected {other:?}"),
            })
        })
        .collect();
        assert_eq!(flows, vec![1, 49, 50]);
    }

    /// Late pushes at the current instant (after the cursor advanced past
    /// their natural bucket) are clamped into the cursor bucket and still
    /// pop before everything later.
    #[test]
    fn late_push_at_current_time_pops_first() {
        let mut q = EventQueue::new();
        q.push(0.2, Event::Emit { flow: 2 });
        assert_eq!(q.peek_time(), Some(0.2)); // cursor advanced to bucket(0.2)
        q.push(0.11, Event::Emit { flow: 1 }); // natural bucket already skipped
        assert!(matches!(q.pop(), Some((_, Event::Emit { flow: 1 }))));
        assert!(matches!(q.pop(), Some((_, Event::Emit { flow: 2 }))));
    }

    /// Regression for the far-future saturation guard: times past the
    /// `bucket_of` cast range used to overflow the promotion horizon
    /// (debug panic; stranded overflow events in release). They must pop
    /// in exact `(time, insertion)` order like any other event.
    #[test]
    fn saturating_far_future_times_pop_in_order() {
        let mut q = EventQueue::new();
        q.push(1.0e18, Event::Emit { flow: 2 });
        q.push(0.01, Event::Emit { flow: 0 });
        q.push(9.0e18, Event::Emit { flow: 3 });
        q.push(5.0, Event::Emit { flow: 1 });
        q.push(1.0e18, Event::Emit { flow: 4 }); // equal-time, saturated bucket
        let flows: Vec<u32> = std::iter::from_fn(|| {
            q.pop().map(|(_, e)| match e {
                Event::Emit { flow } => flow,
                other => panic!("unexpected {other:?}"),
            })
        })
        .collect();
        assert_eq!(flows, vec![0, 1, 2, 4, 3]);
    }

    /// The campus-lookahead overflow property test: schedules are driven
    /// far past the 256-slot window — multi-lap gaps, repeated far-future
    /// collision times so equal-time ties straddle the overflow/wheel
    /// boundary, pushes below an already-advanced cursor, interleaved
    /// peeks (which advance the cursor), and bucket-saturating times —
    /// and the wheel must pop the exact `(time, FIFO)` sequence of the
    /// heap reference throughout.
    #[test]
    fn overflow_past_window_matches_heap_reference() {
        for seed in 0..30u64 {
            let mut rng = StdRng::seed_from_u64(0x0F10_0000 + seed);
            let mut wheel = EventQueue::new();
            let mut heap = ReferenceEventQueue::new();
            let mut now = 0.0f64;
            let mut next_id = 0u32;
            // Shared far-future collision instants: some pushes reach them
            // through the overflow heap, later pushes (after the cursor
            // advanced) land directly in the wheel at the same time.
            let marks: [f64; 6] = [97.3, 194.6, 291.9, 389.2, 486.5, 583.8];
            for step in 0..600 {
                let burst = 1 + (rng.next_u64() % 3) as usize;
                for _ in 0..burst {
                    let at = match rng.next_u64() % 12 {
                        // Equal-time burst at the current instant (its
                        // natural bucket may be behind the cursor).
                        0 => now,
                        // Far-future equal-time ties.
                        1 | 2 => marks[(rng.next_u64() % 6) as usize],
                        // One to two laps beyond the wheel horizon.
                        3 => now + 0.41 + (rng.next_u64() % 100) as f64 * 0.4,
                        // Many laps out: up to 600 s.
                        4 => now + (rng.next_u64() % 60_000) as f64 * 0.01,
                        // Bucket-saturating far future.
                        5 => 4.0e17 + (rng.next_u64() % 3) as f64 * 1.0e17,
                        // In-horizon frame/ACK-scale delays.
                        _ => now + (rng.next_u64() % 4000) as f64 * 1e-4,
                    };
                    let at = at.max(now);
                    wheel.push(at, Event::Emit { flow: next_id });
                    heap.push(at, Event::Emit { flow: next_id });
                    next_id += 1;
                }
                if step % 5 == 0 {
                    // Peeks advance the wheel cursor without consuming.
                    assert_eq!(wheel.peek_time(), heap.peek_time(), "seed {seed} peek");
                }
                for _ in 0..rng.next_u64() % 3 {
                    match (wheel.pop(), heap.pop()) {
                        (Some((wa, we)), Some((ha, he))) => {
                            assert_eq!(wa.to_bits(), ha.to_bits(), "seed {seed}: time mismatch");
                            assert_eq!(we, he, "seed {seed}: event mismatch at t={wa}");
                            now = wa;
                        }
                        (None, None) => {}
                        (w, h) => panic!("seed {seed}: emptiness mismatch {w:?} vs {h:?}"),
                    }
                }
            }
            loop {
                match (wheel.pop(), heap.pop()) {
                    (Some((wa, we)), Some((ha, he))) => {
                        assert_eq!(wa.to_bits(), ha.to_bits(), "seed {seed}: drain time");
                        assert_eq!(we, he, "seed {seed}: drain event");
                    }
                    (None, None) => break,
                    (w, h) => panic!("seed {seed}: drain emptiness mismatch {w:?} vs {h:?}"),
                }
            }
        }
    }

    /// The satellite property test: wheel and heap pop identical
    /// `(time, event)` sequences over randomized seeded schedules with
    /// equal-time bursts, in-horizon delays, and far-future overflow,
    /// under interleaved push/pop. Events are pairwise distinct so any
    /// tie-break divergence is observable.
    #[test]
    fn wheel_matches_heap_on_random_schedules() {
        for seed in 0..20u64 {
            let mut rng = StdRng::seed_from_u64(0xEC0_0000 + seed);
            let mut wheel = EventQueue::new();
            let mut heap = ReferenceEventQueue::new();
            let mut now = 0.0f64;
            let mut next_id = 0u32;
            for _ in 0..400 {
                let burst = 1 + (rng.next_u64() % 4) as usize;
                for _ in 0..burst {
                    let at = match rng.next_u64() % 10 {
                        // Equal-time burst at the current instant.
                        0 | 1 => now,
                        // Far future: beyond the 400 ms wheel horizon.
                        2 => now + 0.5 + (rng.next_u64() % 1000) as f64 * 0.01,
                        // In-horizon frame/ACK-scale delays.
                        _ => now + (rng.next_u64() % 4000) as f64 * 1e-4,
                    };
                    wheel.push(at, Event::Emit { flow: next_id });
                    heap.push(at, Event::Emit { flow: next_id });
                    next_id += 1;
                }
                let pops = rng.next_u64() % 3;
                for _ in 0..pops {
                    let w = wheel.pop();
                    let h = heap.pop();
                    match (w, h) {
                        (Some((wa, we)), Some((ha, he))) => {
                            assert_eq!(wa.to_bits(), ha.to_bits(), "seed {seed}: time mismatch");
                            assert_eq!(we, he, "seed {seed}: event mismatch at t={wa}");
                            now = wa;
                        }
                        (None, None) => {}
                        (w, h) => panic!("seed {seed}: emptiness mismatch {w:?} vs {h:?}"),
                    }
                }
            }
            // Drain both completely.
            loop {
                match (wheel.pop(), heap.pop()) {
                    (Some((wa, we)), Some((ha, he))) => {
                        assert_eq!(wa.to_bits(), ha.to_bits(), "seed {seed}: drain time mismatch");
                        assert_eq!(we, he, "seed {seed}: drain event mismatch");
                    }
                    (None, None) => break,
                    (w, h) => panic!("seed {seed}: drain emptiness mismatch {w:?} vs {h:?}"),
                }
            }
        }
    }
}
