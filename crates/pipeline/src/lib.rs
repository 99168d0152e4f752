//! Query-processing pipelines for DIDO.
//!
//! This crate implements the paper's eight fine-grained tasks
//! (`RV, PP, MM, IN, KC, RD, WR, SD` — §III-A) as real functions over a
//! [`KvEngine`] (cuckoo index + object store + NIC), generic over what
//! they account for ([`tasks::Account`]), and three ways to run them:
//!
//! * [`SimExecutor`] — deterministic virtual-time execution on the
//!   simulated coupled CPU-GPU chip: per-stage resource accounting,
//!   GPU kernels per task and per index-operation type, CPU↔GPU
//!   interference, wavefront-granular work stealing, and batch-size
//!   calibration under the paper's periodical scheduling. This is what
//!   every experiment in the evaluation uses.
//! * [`ThreadedPipeline`] — the same stages on real host threads wired
//!   by channels, demonstrating the design live (including tag-based
//!   co-processing of the GPU stage when work stealing is on).
//! * [`tasks::serve`] — the live server's data path: one fused pass of
//!   every task over a batch on the calling thread, with no stage plan,
//!   no cost accounting and no cache filters.
//!   [`ShardedEngine::serve_batch`] runs it per shard.
//!
//! ```
//! use dido_apu_sim::{HwSpec, TimingEngine};
//! use dido_model::{PipelineConfig, Query};
//! use dido_pipeline::{EngineConfig, KvEngine, SimExecutor};
//!
//! let hw = HwSpec::kaveri_apu();
//! let engine = KvEngine::new(EngineConfig::new(1 << 20, hw.cpu.cache_bytes, hw.gpu.cache_bytes));
//! let sim = SimExecutor::new(TimingEngine::new(hw));
//! let (report, responses) = sim.run_batch(
//!     &engine,
//!     vec![Query::set("k", "v"), Query::get("k")],
//!     PipelineConfig::mega_kv(),
//! );
//! assert_eq!(&responses[1].value[..], b"v");
//! assert!(report.t_max_ns > 0.0);
//! ```

#![warn(missing_docs)]

mod batch;
mod cache;
mod engine;
mod setup;
mod sharded;
pub mod shardmap;
mod sim;
pub mod sync;
pub mod tasks;
mod threaded;

pub use batch::{Batch, QueryState, StagingArena};
pub use cache::LruFilter;
pub use engine::{EngineConfig, IntegrityReport, KvEngine, OpCounts};
pub use setup::{preloaded_engine, TestbedOptions};
pub use sharded::{MigrateProgress, ResizeError, ShardedEngine};
pub use shardmap::{route_of, MapState, ShardMap};
pub use sim::{
    BatchReport, KernelReport, RunOptions, SimExecutor, StageReport, StealReport, WorkloadReport,
};
pub use sync::{Backoff, Claim, ClaimCtrl};
pub use tasks::StageCtx;
pub use threaded::{ExecStats, ThreadedPipeline};
