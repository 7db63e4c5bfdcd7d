#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
//! # empower-testbed
//!
//! The simulated stand-in for the paper's 22-node hybrid testbed (§6) and
//! the runners for every testbed experiment:
//!
//! * [`fig9`] — the two-flow worked example (Flow 1-13 over two routes,
//!   Flow 4-7 switching on and off);
//! * [`fig10`] — throughput ratios over 50 random node pairs, plus the
//!   convergence snapshot (10–20 s and 190–200 s windows);
//! * [`fig11`] — mean ± std throughput of 10 selected flows for
//!   EMPoWER / MP-mWiFi / SP;
//! * [`table1`] — the Tiny/Short/Long/Conc download-time experiments;
//! * [`fig12`]/[`fig13`] — TCP over the datapath (time series and
//!   10-flow comparison, δ = 0.3).
//!
//! Each runner returns plain data structures; `empower-bench` renders them
//! into the tables/series the paper prints (`empower figure <name>`).

pub mod brute_force;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig9;
pub mod table1;

pub use brute_force::brute_force_single_path;
