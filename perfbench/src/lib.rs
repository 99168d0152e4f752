//! End-to-end and per-layer benchmark of the batched DIDO server.
//!
//! The server runs in this process, wired as `dido-server --batched`
//! wires it, and a closed-loop load generator drives it over loopback
//! TCP, checking every reply. See `README.md` in this directory for the
//! workloads, the metrics and the layer each one attributes.

pub mod client;
pub mod harness;
pub mod procstat;
pub mod spans;
pub mod verify;
pub mod workload;
