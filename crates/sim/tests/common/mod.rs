//! The one reader of `EMPOWER_SIM_EQUIV_SCENARIOS`, shared by the corpus
//! gates (`equivalence.rs`, `shard_equivalence.rs`).

fn parse_budget(raw: &str) -> usize {
    raw.parse()
        .unwrap_or_else(|_| panic!("EMPOWER_SIM_EQUIV_SCENARIOS={raw} is not a scenario count"))
}

/// How many corpus scenarios to sweep (a prefix); unset = all. An
/// unparsable value is an error, not a silent full run.
pub fn scenario_budget() -> usize {
    std::env::var_os("EMPOWER_SIM_EQUIV_SCENARIOS")
        .map_or(usize::MAX, |v| parse_budget(&v.to_string_lossy()))
}

#[test]
#[should_panic(expected = "EMPOWER_SIM_EQUIV_SCENARIOS=ten is not a scenario count")]
fn an_unparsable_scenario_budget_is_an_error() {
    parse_budget("ten");
}
