pub fn corpus_size() -> Option<String> {
    std::env::var("EMPOWER_EQUIV_TOPOLOGIES").ok()
}

pub fn unrelated() -> Option<String> {
    std::env::var("PATH").ok()
}
