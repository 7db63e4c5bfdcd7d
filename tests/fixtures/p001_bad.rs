#[allow(clippy::unwrap_used)]
pub fn get(x: Option<u32>) -> u32 {
    x.unwrap()
}
