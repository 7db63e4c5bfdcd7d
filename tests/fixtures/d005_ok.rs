pub fn get(x: Option<u32>) -> u32 {
    x.unwrap_or(0)
}

#[expect(clippy::unwrap_used, reason = "the caller checks is_some")]
pub fn must(x: Option<u32>) -> u32 {
    x.unwrap()
}
