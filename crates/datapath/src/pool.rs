//! A free-list slab: the simulator's packet storage.
//!
//! Slots are recycled through a LIFO free list, so after warm-up the
//! steady-state churn performs no heap allocation — `insert` overwrites a
//! freed slot in place and `release` just pushes the index back. Queues
//! hold 4-byte [`Handle`]s instead of moving packet-sized structs around;
//! `empower-sim` re-exports them as `PacketSlab`/`PacketId`.

/// Handle into a [`Pool`]: 4 bytes, `Copy`, index-stable for the life of
/// the pooled item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Handle(pub u32);

/// Free-list slab pooling `T` storage.
#[derive(Debug, Default)]
pub struct Pool<T> {
    slots: Vec<T>,
    free: Vec<u32>,
    hits: u64,
    grows: u64,
}

impl<T> Pool<T> {
    /// An empty pool.
    pub fn new() -> Self {
        Pool { slots: Vec::new(), free: Vec::new(), hits: 0, grows: 0 }
    }

    /// Stores `item`, reusing a freed slot when one exists (the recycled
    /// slot is overwritten).
    pub fn insert(&mut self, item: T) -> Handle {
        if let Some(idx) = self.free.pop() {
            self.hits += 1;
            self.slots[idx as usize] = item;
            Handle(idx)
        } else {
            self.grows += 1;
            let idx = self.slots.len() as u32;
            self.slots.push(item);
            Handle(idx)
        }
    }

    /// Returns `h`'s slot to the free list. The slot's contents stay in
    /// place until a later insert reuses them; reading through a released
    /// handle is a logic error the debug assertion catches.
    pub fn release(&mut self, h: Handle) {
        debug_assert!(!self.free.contains(&h.0), "double release of {h:?}");
        self.free.push(h.0);
    }

    /// Read access to a live item.
    pub fn get(&self, h: Handle) -> &T {
        &self.slots[h.0 as usize]
    }

    /// Write access to a live item.
    pub fn get_mut(&mut self, h: Handle) -> &mut T {
        &mut self.slots[h.0 as usize]
    }

    /// Inserts that reused a freed slot (no allocation).
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Inserts that grew the pool (one allocation-class event each).
    pub fn grows(&self) -> u64 {
        self.grows
    }

    /// Items currently live (inserted and not yet released).
    pub fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_recycle_lifo() {
        let mut pool: Pool<u64> = Pool::new();
        let a = pool.insert(1);
        let b = pool.insert(2);
        assert_eq!(pool.grows(), 2);
        assert_eq!(pool.live(), 2);
        pool.release(a);
        let c = pool.insert(3);
        assert_eq!(c, a, "freed slot is reused LIFO");
        assert_eq!(pool.hits(), 1);
        assert_eq!(*pool.get(c), 3);
        assert_eq!(*pool.get(b), 2);
    }

    #[test]
    fn steady_state_churn_stops_growing() {
        let mut pool: Pool<u32> = Pool::new();
        let mut live = Vec::new();
        for i in 0..10_000u32 {
            live.push(pool.insert(i));
            if live.len() > 8 {
                pool.release(live.remove(0));
            }
            if i == 100 {
                // After warm-up the pool never grows again.
                assert!(pool.grows() <= 9 + 1);
            }
        }
        assert!(pool.grows() <= 10, "steady-state churn must not grow the pool");
        assert!(pool.hits() > 9_000);
    }
}
