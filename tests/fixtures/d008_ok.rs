use std::sync::atomic::{AtomicUsize, Ordering};

pub fn read(c: &AtomicUsize) -> usize {
    c.load(Ordering::Relaxed)
}

#[expect(clippy::disallowed_methods, reason = "each index is claimed once")]
pub fn claim(c: &AtomicUsize) -> usize {
    c.fetch_add(1, Ordering::Relaxed)
}
