pub struct Config {
    #[expect(clippy::disallowed_types, reason = "set once before the run")]
    pub overrides: std::sync::Mutex<Vec<u32>>,
}
