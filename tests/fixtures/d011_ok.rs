#[expect(clippy::disallowed_methods, reason = "HOME: where to cache")]
pub fn home() -> Option<String> {
    std::env::var("HOME").ok()
}
