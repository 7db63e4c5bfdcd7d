#![forbid(unsafe_code)]
//! `empower` — command-line front end to the reproduction.
//!
//! ```text
//! empower topology residential --seed 7        # generate + print a topology
//! empower routes   residential --seed 7 0 3    # EMPoWER's route combination
//! empower evaluate residential --seed 7 0 3    # all 8 schemes, equilibrium
//! empower simulate residential --seed 7 0 3    # packet-level run (300 s)
//! empower scenario run   examples/fig12_drop.toml   # dynamics + faults
//! empower scenario fluid examples/fig12_drop.toml   # quasi-static timeline
//! empower workload run   examples/workload_iot_floor.toml  # workload DSL + SLOs
//! empower figure fig4_hybrid_cdf --quick --json d.json   # a paper figure
//! ```
//!
//! Every verb but `topology` and `routes` writes a run manifest (seed,
//! parameters, counters), byte-identical across same-seed runs, to
//! `--metrics <path>`. A flag the verb does not read is a usage error.

use empower_bench::sweep::make_instance;
use empower_bench::{Opts, FIGURES};
use empower_core::{RunConfig, Scheme};
use empower_dynamics::{fluid_timeline, run_scenario, Scenario};
use empower_model::topology::random::TopologyClass;
use empower_model::{InterferenceMap, Network, NodeId};
use empower_sim::{SimConfig, TrafficPattern};
use empower_telemetry::{CounterType, Manifest, Telemetry};

fn usage() -> ! {
    let names: Vec<&str> = FIGURES.iter().map(|(name, _)| *name).collect();
    eprintln!(
        "usage: empower topology <residential|enterprise|testbed> [--seed S]\n\
         \x20      empower routes <residential|enterprise|testbed> [--seed S] src dst\n\
         \x20      empower <evaluate|simulate> <residential|enterprise|testbed> [--seed S] \
         [--metrics PATH] src dst\n\
         \x20      empower scenario <run|fluid> <scenario.toml|.json> [--metrics PATH]\n\
         \x20      empower workload run <workload.toml|.json> [--metrics PATH]\n\
         \x20      empower figure <name> [--runs N] [--quick] [--seed S] [--jobs J] \
         [--json PATH] [--metrics PATH]\n\
         figures: {}",
        names.join(" ")
    );
    std::process::exit(2)
}

/// Reports a bad command line, then the usage.
fn bad(message: &str) -> ! {
    eprintln!("empower: {message}");
    usage()
}

/// Prints the error and exits 1.
fn or_exit<T>(result: Result<T, impl std::fmt::Display>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1)
    })
}

/// Every flag of every verb; `figure` reads them all.
const FLAGS: [&str; 6] = ["--runs", "--quick", "--seed", "--jobs", "--json", "--metrics"];

/// The command line: the positional words and the flags.
#[derive(Default)]
struct Args {
    positional: Vec<String>,
    seed: u64,
    runs: Option<usize>,
    jobs: usize,
    quick: bool,
    json: Option<String>,
    metrics: Option<String>,
}

impl Args {
    /// Parses the words after the verb; a flag outside `reads` (the flags
    /// `verb` reads) is a usage error.
    fn parse(verb: &str, reads: &[&str]) -> Args {
        let mut args = Args { seed: 1, jobs: 1, ..Args::default() };
        let mut it = std::env::args().skip(2);
        while let Some(word) = it.next() {
            if !word.starts_with("--") {
                args.positional.push(word);
                continue;
            }
            if FLAGS.contains(&word.as_str()) && !reads.contains(&word.as_str()) {
                bad(&format!("`{verb}` does not read {word}"));
            }
            let it = &mut it;
            match word.as_str() {
                "--seed" => args.seed = value(it, &word),
                "--runs" => args.runs = Some(value(it, &word)),
                "--jobs" => args.jobs = value(it, &word),
                "--quick" => args.quick = true,
                "--json" => args.json = Some(value(it, &word)),
                "--metrics" => args.metrics = Some(value(it, &word)),
                _ => bad(&format!("unknown flag {word}")),
            }
        }
        args
    }

    /// Positional word `i` after the verb, or usage.
    fn word(&self, i: usize) -> &str {
        self.positional.get(i).map_or_else(|| usage(), String::as_str)
    }

    /// Writes `manifest` if `--metrics` was given.
    fn write_manifest(&self, manifest: &Manifest) {
        if let Some(path) = &self.metrics {
            write(path, &manifest.render());
        }
    }
}

/// The word after `flag`, parsed as its value.
fn value<T: std::str::FromStr>(it: &mut impl Iterator<Item = String>, flag: &str) -> T {
    let word = it.next().filter(|v| !v.starts_with("--"));
    let word = word.unwrap_or_else(|| bad(&format!("{flag} needs a value")));
    word.parse().unwrap_or_else(|_| bad(&format!("{flag} does not take {word:?}")))
}

fn write(path: &str, contents: &str) {
    or_exit(std::fs::write(path, contents).map_err(|e| format!("cannot write {path}: {e}")));
}

fn build(class: &str, seed: u64) -> (Network, InterferenceMap) {
    let class = match class {
        "residential" => TopologyClass::Residential,
        "enterprise" => TopologyClass::Enterprise,
        "testbed" => return empower_bench::testbed::network(seed),
        _ => usage(),
    };
    let (net, imap, _) = make_instance(class, seed, 0);
    (net, imap)
}

fn read(path: &str) -> String {
    or_exit(std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}")))
}

fn load_scenario(path: &str) -> Scenario {
    or_exit(Scenario::parse_str(&read(path)).map_err(|e| format!("{path}: {e}")))
}

fn fmt_opt_secs(v: Option<f64>) -> String {
    v.map_or_else(|| "—".to_string(), |s| format!("{s:.1} s"))
}

/// `empower scenario run <file>`: packet-level run with fault injection,
/// route monitoring and resilience metrics.
fn scenario_run(args: &Args, path: &str) {
    let scenario = load_scenario(path);
    let tele = Telemetry::enabled();
    let outcome = or_exit(run_scenario(&scenario, &tele));
    println!(
        "scenario {:?}: {} on {}, {:.0} s horizon",
        scenario.name,
        scenario.run.scheme,
        scenario.topology.kind.label(),
        scenario.run.horizon_secs
    );
    println!(
        "{} faults injected, {} route changes, {} fault episodes",
        outcome.faults.len(),
        outcome.reroutes.len(),
        outcome.resilience.len()
    );
    for r in &outcome.reroutes {
        println!("  t={:>7.1}  flow {}  {} → {} routes", r.at, r.flow, r.reason, r.routes);
    }
    println!(
        "{:>10} {:>12} {:>10} {:>12} {:>12} {:>8}",
        "fault", "baseline", "detect", "reconverge", "dip", "lost"
    );
    for m in &outcome.resilience {
        println!(
            "{:>8.1} s {:>7.2} Mbps {:>10} {:>12} {:>7.1} Mbit {:>8}",
            m.fault_at_secs,
            m.baseline_mbps,
            fmt_opt_secs(m.time_to_detect_secs),
            fmt_opt_secs(m.time_to_reconverge_secs),
            m.dip_area_mbit,
            m.packets_lost
        );
    }
    let horizon = scenario.run.horizon_secs;
    let mean = empower_bench::mean(&outcome.aggregate_series);
    println!("mean aggregate goodput over {horizon:.0} s: {mean:.2} Mbps");

    let mut m = Manifest::new("scenario");
    m.set("name", scenario.name.as_str())
        .set("scheme", scenario.run.scheme.label())
        .set("topology", scenario.topology.kind.label())
        .set("seed", scenario.run.seed)
        .set("horizon_secs", horizon)
        .set("faults", outcome.faults.len() as u64)
        .set("reroutes", outcome.reroutes.len() as u64)
        .set("resilience", &outcome.resilience[..])
        .attach_counters(&tele);
    args.write_manifest(&m);
}

/// `empower scenario fluid <file>`: the quasi-static segment timeline.
fn scenario_fluid(args: &Args, path: &str) {
    let scenario = load_scenario(path);
    let segments = or_exit(fluid_timeline(&scenario, &Telemetry::disabled()));
    println!(
        "scenario {:?}: {} fluid segments ({} on {})",
        scenario.name,
        segments.len(),
        scenario.run.scheme,
        scenario.topology.kind.label()
    );
    for s in &segments {
        let rates: Vec<String> = s.flow_rates.iter().map(|r| format!("{r:.2}")).collect();
        println!(
            "  [{:>7.1}, {:>7.1})  rates [{}] Mbps  utility {:.3}",
            s.from_secs,
            s.to_secs,
            rates.join(", "),
            s.utility
        );
    }
    let mut m = Manifest::new("scenario-fluid");
    m.set("name", scenario.name.as_str())
        .set("scheme", scenario.run.scheme.label())
        .set("segments", &segments[..]);
    args.write_manifest(&m);
}

/// `empower workload run <file>`: compiles a workload DSL document into a
/// deterministic flow program, runs it packet-level and prints the
/// per-client SLO metrics.
fn workload_run(args: &Args, path: &str) {
    let w = load_scenario(path);
    let out = or_exit(empower_workload::run_workload(&w));
    println!(
        "workload {:?}: {} client groups, {} flows on {}, {:.0} s horizon, seed {}",
        w.name,
        out.slo.clients.len(),
        out.compiled.flows.len(),
        w.topology.kind.label(),
        w.run.horizon_secs,
        w.run.seed
    );
    println!(
        "{:<14} {:>5} {:>9} {:>22} {:>17} {:>6}",
        "client", "flows", "MB", "fct p50/p95/p99 ms", "goodput p50 kbps", "jain"
    );
    for c in &out.slo.clients {
        println!(
            "{:<14} {:>5} {:>9.2} {:>10}/{:>5}/{:>5} {:>17} {:>6}",
            c.label,
            c.flows,
            c.delivered_bytes as f64 / 1e6,
            c.fct_ms.p50,
            c.fct_ms.p95,
            c.fct_ms.p99,
            c.goodput_kbps.p50,
            c.jain_milli,
        );
    }
    if let Some(path) = &args.metrics {
        // The workload manifest already carries configuration, counters
        // and SLO gauges; write it verbatim.
        write(path, &out.manifest);
    }
}

/// `empower figure <name>`: computes one paper figure, prints its table
/// and writes its raw rows (`--json`) and run manifest (`--metrics`).
fn figure(args: &Args, name: &str) {
    let Some((name, compute)) = FIGURES.iter().find(|(n, _)| *n == name) else {
        bad(&format!("no figure named {name}"))
    };
    let opts = Opts { runs: args.runs, quick: args.quick, seed: args.seed, jobs: args.jobs };
    let tele = if args.metrics.is_some() { Telemetry::enabled() } else { Telemetry::disabled() };
    let fig = or_exit(compute(&opts, &tele));
    let mut m = Manifest::new(name);
    m.set("seed", opts.seed).set("quick", opts.quick).set("runs_flag", opts.runs.map(|r| r as u64));
    fig.render(&opts, &mut m);
    if let Some(path) = &args.json {
        write(path, &fig.to_json().to_string_pretty());
    }
    args.write_manifest(m.attach_counters(&tele));
}

fn main() {
    let verb = std::env::args().nth(1).unwrap_or_else(|| usage());
    let reads: &[&str] = match verb.as_str() {
        "topology" | "routes" => &["--seed"],
        "evaluate" | "simulate" => &["--seed", "--metrics"],
        "scenario" | "workload" => &["--metrics"],
        "figure" => &FLAGS,
        _ => usage(),
    };
    let args = Args::parse(&verb, reads);
    match (verb.as_str(), args.word(0)) {
        ("scenario", "run") => scenario_run(&args, args.word(1)),
        ("scenario", "fluid") => scenario_fluid(&args, args.word(1)),
        ("workload", "run") => workload_run(&args, args.word(1)),
        ("scenario" | "workload", _) => usage(),
        ("figure", name) => figure(&args, name),
        (verb, class) => network_verb(&args, verb, class),
    }
}

/// The verbs on one generated network: `topology`, `routes`, `evaluate`
/// and `simulate`.
fn network_verb(args: &Args, verb: &str, class: &str) {
    let (net, imap) = build(class, args.seed);
    let endpoints = || match (args.word(1).parse(), args.word(2).parse()) {
        (Ok(a), Ok(b)) => (a, b),
        _ => usage(),
    };
    let tele = if args.metrics.is_some() { Telemetry::enabled() } else { Telemetry::disabled() };
    match verb {
        "topology" => {
            println!("{class} topology, seed {}", args.seed);
            println!("{} nodes, {} directed links", net.node_count(), net.link_count());
            for n in net.nodes() {
                let mediums: Vec<String> = n.mediums.iter().map(|m| m.label()).collect();
                let (id, x, y, mediums) = (n.id, n.pos.x, n.pos.y, mediums.join("+"));
                println!("  {id}  ({x:>5.1},{y:>5.1})  [{mediums}]");
            }
            for l in net.links().iter().filter(|l| l.from < l.to) {
                let (from, to, medium, mbps) = (l.from, l.to, l.medium.label(), l.capacity_mbps);
                println!("  {from} <-> {to}  {medium:<6} {mbps:>6.1} Mbps");
            }
        }
        "routes" => {
            let (s, d) = endpoints();
            let routes = Scheme::Empower.compute_routes(&net, &imap, NodeId(s), NodeId(d), 5);
            if routes.is_empty() {
                println!("n{s} and n{d} are not connected on PLC/WiFi");
                return;
            }
            println!("EMPoWER combination for n{s} → n{d}:");
            for r in &routes.routes {
                println!("  {}   R(P) = {:.1} Mbps", r.path.render(&net), r.nominal_rate);
            }
            println!("total nominal capacity: {:.1} Mbps", routes.total_rate());
        }
        "evaluate" => {
            let (s, d) = endpoints();
            println!("{:<12} {:>10}", "scheme", "Mbps");
            for scheme in Scheme::ALL {
                let out = RunConfig::new(scheme)
                    .telemetry(tele.clone())
                    .evaluate_equilibrium(&net, &imap, &[(NodeId(s), NodeId(d))])
                    .expect("tolerant mode cannot fail");
                let (label, rate) = (scheme.label(), out.flow_rates[0]);
                println!("{label:<12} {rate:>10.2}");
                // Counters aggregate across the eight schemes; each rate is
                // a gauge of its own.
                tele.counter(format!("eval/{label}/mbps_x100"), CounterType::Gauge)
                    .set((rate * 100.0).round() as u64);
            }
        }
        "simulate" => {
            let (s, d) = endpoints();
            let flows =
                [(NodeId(s), NodeId(d), TrafficPattern::SaturatedUdp { start: 0.0, stop: 300.0 })];
            let (mut sim, mapping) = RunConfig::new(Scheme::Empower)
                .telemetry(tele.clone())
                .build_simulation(
                    &net,
                    &imap,
                    &flows,
                    SimConfig { seed: args.seed, ..Default::default() },
                )
                .expect("tolerant mode cannot fail");
            let Some(f) = mapping[0] else {
                println!("n{s} and n{d} are not connected");
                return;
            };
            let report = sim.run(300.0);
            println!(
                "300 s packet-level run: {:.1} Mbps final ({} frames delivered, {} lost)",
                report.final_throughput(f, 10),
                report.flows[f].delivered_bits / SimConfig::default().frame_bits,
                report.flows[f].declared_lost,
            );
        }
        _ => usage(),
    }
    let mut m = Manifest::new(verb);
    args.write_manifest(m.set("class", class).set("seed", args.seed).attach_counters(&tele));
}
