pub fn build() -> std::collections::BTreeMap<u32, u32> {
    Default::default()
}

#[expect(clippy::disallowed_types, reason = "membership only")]
pub fn has(m: &std::collections::HashSet<u32>) -> bool {
    m.contains(&1)
}
