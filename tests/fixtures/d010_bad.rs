use std::sync::Mutex;
use std::sync::RwLock;

pub struct Shared {
    pub queue: Mutex<Vec<u32>>,
    pub map: RwLock<Vec<u32>>,
}
