#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
//! Workspace root crate: re-exports the public facade for examples and integration tests.
pub use empower_core as core;
