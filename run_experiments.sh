#!/bin/sh
# Regenerates every table and figure of the paper's evaluation.
# Full run takes a few hours on one core; RUNS=... scales the sweeps.
set -x
cd "$(dirname "$0")"
R=results
mkdir -p "$R"
run() { name=$1; shift; ./target/release/empower figure "$name" "$@" --json "$R/$name.json" > "$R/$name.txt" 2>&1; }

run fig4_hybrid_cdf  --runs ${RUNS_FIG4:-1000}
run fig5_worst_flows --runs ${RUNS_FIG4:-1000}
run fig6_vs_optimal  --runs ${RUNS_FIG6:-400}
run fig7_utility     --runs ${RUNS_FIG7:-300}
run convergence_table --runs ${RUNS_CONV:-40}
run fig9_example
run fig10_testbed_cdf --runs ${RUNS_FIG10:-50}
run fig11_flow_bars
run table1_downloads --runs ${RUNS_T1:-10}
run fig12_tcp_timeseries
run fig13_tcp_bars
run ablation_routing --runs 200
run ablation_delta
run ablation_delay_eq
run ablation_fairness
echo ALL_EXPERIMENTS_DONE
