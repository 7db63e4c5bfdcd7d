use std::hash::BuildHasher;

pub fn salt() -> u64 {
    std::collections::hash_map::RandomState::new().hash_one(0u32)
}
