//! `route_eval`: no packet simulation. Every ordered pair of the testbed
//! through `RunConfig::routes`, then the equilibrium of every scheme on
//! seeded residential and enterprise topologies (the shape of Figs. 4-6)
//! through `RunConfig::evaluate_equilibrium`. Routing search and the
//! controller's fixed point do the work; a change to the simulator or the
//! datapath must leave this workload flat.

use std::fmt::Write as _;

use empower_core::{RunConfig, Scheme};
use empower_model::{CarrierSense, InterferenceMap, InterferenceModel, Network};
use empower_telemetry::{Manifest, Telemetry};

use super::{probes, AllocPhases, Tr};
use crate::gen::{RouteEvalInputs, Size};
use crate::harness::{Bench, Ledger, Outcome, ProbeCtx};
use crate::spans::Recorder;

pub struct RouteEvalBench {
    inputs: RouteEvalInputs,
}

impl RouteEvalBench {
    pub fn new(seed: u64, size: Size) -> RouteEvalBench {
        RouteEvalBench { inputs: crate::gen::route_eval_inputs(seed, size) }
    }
}

fn imap_of(net: &Network, tr: &mut Tr) -> InterferenceMap {
    tr.call("model.imap", || CarrierSense::default().build_map(net))
}

impl RouteEvalBench {
    /// One iteration; the span recorder is off in the timed pass.
    fn run(&self, tr: &mut Tr, alloc: &mut AllocPhases) -> Outcome {
        let mut out = Outcome::default();
        let tele = Telemetry::enabled();
        let mut routes_text = String::new();
        let mut rates_text = String::new();

        // Half one: every ordered pair of the testbed.
        let testbed = &self.inputs.testbed;
        let imap = imap_of(&testbed.net, tr);
        alloc.end_setup();
        let config = RunConfig::new(Scheme::Empower).telemetry(tele.clone());
        for &(src, dst) in &testbed.flows {
            out.ops += 1;
            match tr.call("routing.query", || config.routes(&testbed.net, &imap, src, dst)) {
                Ok(routes) => {
                    let _ = write!(routes_text, "{}>{}:", src.0, dst.0);
                    for r in &routes.routes {
                        let _ = write!(
                            routes_text,
                            " {} @{:?}",
                            r.path.render(&testbed.net),
                            r.nominal_rate
                        );
                    }
                    routes_text.push('\n');
                }
                // Every pair of the testbed is connected over PLC, so an
                // error here is a failed query.
                Err(e) => {
                    out.failed += 1;
                    out.failed_ops.push(format!("route query {}>{}: {e}", src.0, dst.0));
                }
            }
        }

        // Half two: all schemes at equilibrium on the topology family.
        let (mut empower_sum, mut empower_flows) = (0.0, 0usize);
        for case in &self.inputs.topologies {
            let imap = imap_of(&case.net, tr);
            let _ = write!(rates_text, "{}:", case.label);
            for scheme in Scheme::ALL {
                out.ops += 1;
                let config = RunConfig::new(scheme).telemetry(tele.clone());
                let eval = tr.call("core.equilibrium", || {
                    config.evaluate_equilibrium(&case.net, &imap, &case.flows)
                });
                match eval {
                    Ok(eval) => {
                        let _ = write!(rates_text, " {}={:?}", scheme.label(), eval.flow_rates);
                        if scheme == Scheme::Empower {
                            empower_sum += eval.flow_rates.iter().sum::<f64>();
                            empower_flows += eval.flow_rates.len();
                        }
                    }
                    Err(e) => {
                        out.failed += 1;
                        out.failed_ops.push(format!(
                            "equilibrium of {} on {}: {e}",
                            scheme.label(),
                            case.label
                        ));
                    }
                }
            }
            rates_text.push('\n');
        }
        alloc.end_run();

        // Mean EMPoWER equilibrium flow rate: this workload's "goodput".
        out.goodput_mbps = empower_sum / empower_flows.max(1) as f64;
        let manifest = tr.call("telemetry.manifest", || {
            let mut m = Manifest::new("route_eval");
            m.set("queries", self.inputs.testbed.flows.len() as u64)
                .set("topologies", self.inputs.topologies.len() as u64)
                .attach_counters(&tele);
            m.render()
        });
        out.rendered = vec![("routes", routes_text), ("rates", rates_text), ("manifest", manifest)];
        alloc.end_render();
        out
    }
}

impl Bench for RouteEvalBench {
    fn inputs(&self) -> String {
        let mut s = String::new();
        for case in std::iter::once(&self.inputs.testbed).chain(&self.inputs.topologies) {
            let _ = writeln!(
                s,
                "{}: {} nodes, {} links, total capacity {:?} Mbit/s, {} flows",
                case.label,
                case.net.node_count(),
                case.net.link_count(),
                case.net.total_capacity(),
                case.flows.len()
            );
        }
        s
    }

    /// Before the first query there is only the testbed's interference
    /// map to build.
    fn setup(&self) {
        std::hint::black_box(imap_of(&self.inputs.testbed.net, &mut Tr::off()));
    }

    fn iterate(&self) -> Outcome {
        self.run(&mut Tr::off(), &mut AllocPhases::start())
    }

    fn iterate_traced(&self, rec: &mut Recorder, ledger: &mut Ledger) -> Outcome {
        let mut alloc = AllocPhases::start();
        let out = self.run(&mut Tr::on(rec), &mut alloc);
        alloc.finish(ledger);
        ledger.set("telemetry.manifest_bytes", out.rendered_bytes("manifest"));
        out
    }

    fn probes(&self, _ctx: &mut ProbeCtx, ledger: &mut Ledger) {
        let testbed = &self.inputs.testbed;
        let imap = imap_of(&testbed.net, &mut Tr::off());
        probes::network_counts(&testbed.net, &imap, ledger);
        probes::explorer_counts(&testbed.net, &imap, Scheme::Empower, &testbed.flows, ledger);

        // The controller on the first evaluated topology's own problem.
        let Some(case) = self.inputs.topologies.first() else { return };
        let imap = imap_of(&case.net, &mut Tr::off());
        let config = RunConfig::new(Scheme::Empower);
        let routes = case
            .flows
            .iter()
            .map(|&(s, d)| {
                config.routes(&case.net, &imap, s, d).map(|r| r.paths()).unwrap_or_default()
            })
            .collect();
        if let Some((updates, violations)) = probes::cc_step(&case.net, &imap, routes, ledger) {
            ledger.set("cc.price_updates", updates as f64);
            ledger.set("cc.margin_violations", violations as f64);
        }
    }
}
