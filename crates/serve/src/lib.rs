//! Mitigation-as-a-service: a persistent TCP/HTTP 1.1 front-end over the
//! staged QuTracer pipeline (`plan → execute → recombine`), with
//! concurrent result caching and **cross-request trie batching** —
//! requests from unrelated clients are drained into one execution batch,
//! deduplicated by structural [`qt_sim::JobKey`], and their shared
//! circuit prefixes merge into a single state evolution.
//!
//! Entirely `std`: the HTTP subset ([`http`]) and the JSON codec
//! ([`json`]) are dependency-free in the same vendored-shim spirit as
//! `crates/{rand,proptest,criterion}`, so the crate builds offline.
//!
//! # Layers
//!
//! * [`json`] / [`wire`] — the codec and the typed wire forms (exact
//!   float round-trips; `u64` outcomes as decimal strings);
//! * [`service`] — the engine: one lock over a sans-IO state machine
//!   (bounded non-blocking admission, the size-or-deadline batch window,
//!   the job registry, the counters), the sharded LRU result cache (from
//!   [`qt_sim::cache`]), cross-request dedup + merged execution;
//! * [`server`] / [`client`] — the HTTP shell and a blocking client;
//! * [`error`] — [`ServiceError`] with HTTP status mapping.
//!
//! # Example
//!
//! ```
//! use qt_serve::{serve, ServiceClient, ServiceConfig};
//! use qt_sim::{Backend, Executor, NoiseModel};
//! use qt_core::QuTracerConfig;
//! use qt_circuit::Circuit;
//!
//! let runner = Executor::with_backend(
//!     NoiseModel::depolarizing(0.001, 0.01).with_readout(0.02),
//!     Backend::DensityMatrix,
//! );
//! let server = serve("127.0.0.1:0", runner, ServiceConfig::default()).unwrap();
//! let client = ServiceClient::new(server.addr());
//!
//! let mut c = Circuit::new(2);
//! c.h(0).cx(0, 1);
//! let job = client.submit(&c, &[0, 1], &QuTracerConfig::single()).unwrap();
//! let report = client
//!     .wait_result(job, std::time::Duration::from_secs(60))
//!     .unwrap();
//! assert!((report.distribution.total() - 1.0).abs() < 1e-9);
//! server.shutdown();
//! ```

pub mod client;
mod core;
pub mod error;
pub mod http;
pub mod json;
pub mod server;
pub mod service;
pub mod wire;

pub use client::{ClientError, ServiceClient};
pub use error::ServiceError;
pub use json::{Json, JsonError};
pub use server::{serve, ServerHandle};
pub use service::{JobState, MitigationService, ServiceConfig, ServiceStats};
