//! The event queue: a binary heap shared by every engine. Events pop in
//! ascending `(time, insertion order)`, so equal-time events are FIFO and
//! a run is deterministic.

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

/// Time-ordered event queue with deterministic tie-breaking: a binary
/// min-heap on `(at, seq)`, where `seq` is the insertion counter.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Scheduled>,
    counter: u64,
}

impl EventQueue {
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
        q.push(10.0, Event::Emit { flow: 10 });
        q.push(0.05, Event::Emit { flow: 0 });
        q.push(3.0, Event::Emit { flow: 3 });
        q.push(300.0, Event::Emit { flow: 300 });
        let order: Vec<f64> = std::iter::from_fn(|| q.pop().map(|(at, _)| at)).collect();
        assert_eq!(order, vec![0.05, 3.0, 10.0, 300.0]);
    }

    /// A far-future entry must not pop before a later push that precedes
    /// it in time.
    #[test]
    fn overflow_window_extension_keeps_order() {
        let mut q = EventQueue::new();
        q.push(50.0, Event::Emit { flow: 50 });
        q.push(0.01, Event::Emit { flow: 0 });
        // Pop the near event.
        assert!(matches!(q.pop(), Some((_, Event::Emit { flow: 0 }))));
        // Push between now and the far-future entry.
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

    /// A push earlier than an already-peeked time still pops first.
    #[test]
    fn late_push_at_current_time_pops_first() {
        let mut q = EventQueue::new();
        q.push(0.2, Event::Emit { flow: 2 });
        assert_eq!(q.peek_time(), Some(0.2));
        q.push(0.11, Event::Emit { flow: 1 });
        assert!(matches!(q.pop(), Some((_, Event::Emit { flow: 1 }))));
        assert!(matches!(q.pop(), Some((_, Event::Emit { flow: 2 }))));
    }

    /// Times of order 1e18 s must pop in exact `(time, insertion)` order
    /// like any other event.
    #[test]
    fn saturating_far_future_times_pop_in_order() {
        let mut q = EventQueue::new();
        q.push(1.0e18, Event::Emit { flow: 2 });
        q.push(0.01, Event::Emit { flow: 0 });
        q.push(9.0e18, Event::Emit { flow: 3 });
        q.push(5.0, Event::Emit { flow: 1 });
        q.push(1.0e18, Event::Emit { flow: 4 }); // equal time
        let flows: Vec<u32> = std::iter::from_fn(|| {
            q.pop().map(|(_, e)| match e {
                Event::Emit { flow } => flow,
                other => panic!("unexpected {other:?}"),
            })
        })
        .collect();
        assert_eq!(flows, vec![0, 1, 2, 4, 3]);
    }

    /// Property test against a trivially correct model: every push is
    /// appended to a `Vec` that is stable-sorted by time, so its head is
    /// the `(time, FIFO)` minimum. Schedules mix equal-time bursts at the
    /// current instant, repeated far-future marks, gaps of many 0.4 s
    /// laps, times of 1e17–1e18 s and frame/ACK-scale delays, under
    /// interleaved pushes, peeks and pops. Events are pairwise distinct so
    /// any tie-break divergence is observable.
    #[test]
    fn pops_match_stable_sorted_model() {
        let marks: [f64; 6] = [97.3, 194.6, 291.9, 389.2, 486.5, 583.8];
        for seed in 0..30u64 {
            let mut rng = StdRng::seed_from_u64(0x0F10_0000 + seed);
            let mut q = EventQueue::new();
            let mut model: Vec<(f64, Event)> = Vec::new();
            let mut now = 0.0f64;
            let mut next_id = 0u32;
            let check_pop = |q: &mut EventQueue, model: &mut Vec<(f64, Event)>| {
                let want = (!model.is_empty()).then(|| model.remove(0));
                let got = q.pop();
                assert_eq!(
                    got.map(|(at, e)| (at.to_bits(), e)),
                    want.map(|(at, e)| (at.to_bits(), e)),
                    "seed {seed}"
                );
                got.map(|(at, _)| at)
            };
            for step in 0..600 {
                for _ in 0..1 + rng.next_u64() % 4 {
                    let at = match rng.next_u64() % 12 {
                        0 | 1 => now,
                        2 | 3 => marks[(rng.next_u64() % 6) as usize],
                        4 => now + 0.41 + (rng.next_u64() % 100) as f64 * 0.4,
                        5 => now + (rng.next_u64() % 60_000) as f64 * 0.01,
                        6 => 1.0e17 + (rng.next_u64() % 10) as f64 * 1.0e17,
                        _ => now + (rng.next_u64() % 4000) as f64 * 1e-4,
                    };
                    let at = at.max(now);
                    let event = Event::Emit { flow: next_id };
                    next_id += 1;
                    q.push(at, event);
                    model.push((at, event));
                    model.sort_by(|a, b| a.0.total_cmp(&b.0));
                }
                if step % 5 == 0 {
                    assert_eq!(q.peek_time(), model.first().map(|m| m.0), "seed {seed} peek");
                }
                for _ in 0..rng.next_u64() % 3 {
                    if let Some(at) = check_pop(&mut q, &mut model) {
                        now = at;
                    }
                }
                assert_eq!(q.len(), model.len(), "seed {seed} len");
            }
            while check_pop(&mut q, &mut model).is_some() {}
            assert!(q.is_empty());
        }
    }
}
