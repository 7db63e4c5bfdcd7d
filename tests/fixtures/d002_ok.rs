#[expect(clippy::disallowed_methods, reason = "progress display only")]
pub fn stamp() -> std::time::SystemTime {
    std::time::SystemTime::now()
}
