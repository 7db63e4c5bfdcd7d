//! The workload vocabulary. A workload is a document of the one grammar
//! ([`empower_dynamics::scenario`]) whose traffic is `[[clients]]`
//! populations; these are its names for the same types. See DESIGN.md §6
//! for the grammar and the determinism contract.

pub use empower_dynamics::scenario::{
    ClientKind, ClientSpec, Diurnal, Scenario as Workload, TopologyKind as WorkloadTopology,
};

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
schema = 1
name = "sample"

[topology]
kind = "fig1"

[run]
seed = 7
horizon_secs = 30.0

[[clients]]
label = "web"
kind = "request_response"
src = 0
dst = 2
count = 2
requests = 10
response_bytes = 200000
think_secs = 0.5

[[clients]]
kind = "churn"
src = 0
dst = 2
base_rate_per_sec = 0.2
mean_session_secs = 4.0
max_sessions = 8

[clients.diurnal]
period_secs = 15.0
amplitude = 0.5
"#;

    #[test]
    fn parses_toml_with_nested_diurnal() {
        let w = Workload::parse_str(SAMPLE).unwrap();
        assert_eq!(w.name, "sample");
        assert_eq!(w.run.seed, 7);
        assert_eq!(w.clients.len(), 2);
        assert_eq!(w.clients[0].count, 2);
        assert!(matches!(w.clients[0].kind, ClientKind::RequestResponse { requests: 10, .. }));
        let d = w.clients[1].diurnal.unwrap();
        assert_eq!(d.period_secs, 15.0);
        assert_eq!(w.client_label(0), "web");
        assert_eq!(w.client_label(1), "client1");
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let w = Workload::parse_str(SAMPLE).unwrap();
        let back = Workload::from_json(&w.to_json()).unwrap();
        assert_eq!(w, back);
    }

    #[test]
    fn toml_round_trip_is_lossless() {
        let w = Workload::parse_str(SAMPLE).unwrap();
        let back = Workload::parse_str(&w.to_toml()).unwrap();
        assert_eq!(w, back);
    }

    #[test]
    fn rejects_bad_documents() {
        // Wrong schema version.
        assert!(Workload::parse_str("schema = 9\nname = \"x\"").is_err());
        // Unsupported fig1 pair.
        let bad = SAMPLE.replace("src = 0\ndst = 2\ncount = 2", "src = 2\ndst = 0\ncount = 2");
        assert!(Workload::parse_str(&bad).unwrap_err().path.contains("src"));
        // count on a population kind.
        let bad = SAMPLE.replace("base_rate_per_sec = 0.2", "count = 3\nbase_rate_per_sec = 0.2");
        assert!(Workload::parse_str(&bad).unwrap_err().path.contains("count"));
        // Diurnal on a kind that has no arrival process.
        let bad = SAMPLE
            .replace("kind = \"churn\"", "kind = \"closed_loop\"")
            .replace("base_rate_per_sec = 0.2\nmean_session_secs = 4.0\nmax_sessions = 8", "");
        assert!(Workload::parse_str(&bad).unwrap_err().path.contains("diurnal"));
        // A horizon that never ends the run, or noise that is no standard
        // deviation.
        for v in ["inf", "nan", "0.0"] {
            let bad = SAMPLE.replace("horizon_secs = 30.0", &format!("horizon_secs = {v}"));
            assert_eq!(Workload::parse_str(&bad).unwrap_err().path, "run.horizon_secs", "{v}");
        }
        for v in ["inf", "nan", "-0.1"] {
            let bad =
                SAMPLE.replace("horizon_secs = 30.0", &format!("horizon_secs = 30.0\nnoise = {v}"));
            assert_eq!(Workload::parse_str(&bad).unwrap_err().path, "run.noise", "{v}");
        }
        // A client's traffic starts at a finite time ≥ 0 and stops no
        // earlier.
        let closed = SAMPLE
            .replace("kind = \"churn\"", "kind = \"closed_loop\"")
            .replace("base_rate_per_sec = 0.2\nmean_session_secs = 4.0\nmax_sessions = 8", "WINDOW")
            .replace("[clients.diurnal]\nperiod_secs = 15.0\namplitude = 0.5\n", "");
        assert!(Workload::parse_str(&closed.replace("WINDOW", "start = 1.0\nstop = 5.0")).is_ok());
        for (window, path) in [
            ("stop = nan", "clients[1].stop"),
            ("start = 5.0\nstop = 1.0", "clients[1].stop"),
            ("start = -1.0", "clients[1].start"),
        ] {
            let bad = closed.replace("WINDOW", window);
            assert_eq!(Workload::parse_str(&bad).unwrap_err().path, path, "{window}");
        }
        // A number that is no finite quantity is rejected where it is read:
        // an infinite rate or arrival rate never finishes the run.
        let open = closed
            .replace("kind = \"closed_loop\"", "kind = \"open_loop\"")
            .replace("WINDOW", "rate_mbps = 1e400");
        assert_eq!(Workload::parse_str(&open).unwrap_err().path, "clients[1].rate_mbps");
        let bad = SAMPLE.replace("base_rate_per_sec = 0.2", "base_rate_per_sec = 1e400");
        assert_eq!(Workload::parse_str(&bad).unwrap_err().path, "clients[1].base_rate_per_sec");
    }
}
