//! `ld-serve` — a long-running sweep service over the `ld-runner` streaming
//! pipeline.
//!
//! The one-shot CLI (`ldx run`) executes a single sweep and exits; this
//! crate turns the same machinery into a daemon that multiplexes many sweep
//! jobs over one process:
//!
//! * **Protocol** ([`http`], [`client`]): a hand-rolled minimal HTTP/1.1
//!   server and client over `std::net` — the build container is offline, so
//!   external HTTP stacks are out, exactly as `vendor/` stands in for
//!   rand.  One request per connection, `Connection: close`.
//! * **Jobs** ([`job`]): a submission is a JSON body parsed by the in-repo
//!   `Json` reader into a [`job::JobSpec`] (scenario, priority, a full
//!   `SweepConfig`).  Typed submission errors map `ConfigError` variants to
//!   HTTP 400 bodies carrying the same stable token and process exit code
//!   `ldx run` uses.
//! * **Queue** ([`queue`]): a priority job queue plus an exactly-once job
//!   state table, both generic over the `interleave::SyncFacade` bundle so
//!   the `model_*` suite explores their schedules exhaustively under
//!   `ModelSync` while production monomorphises to plain `std::sync`.
//! * **Spool** ([`spool`]): every job persists a spec sidecar next to its
//!   streamed report and checkpoint, so a killed daemon restarted over the
//!   same spool directory recovers every job — in-flight ones resume
//!   through `ld_runner::stream::resume` and finish byte-identically.
//! * **Server** ([`server`]): the accept loop, worker pool and endpoint
//!   routing (`POST /jobs`, `GET /jobs`, `GET /jobs/<id>`,
//!   `GET /jobs/<id>/report` as a chunked live tail of the report file,
//!   `DELETE /jobs/<id>`, `GET /scenarios`, `POST /shards`,
//!   `POST /shutdown`).  Every job and every `POST /shards` lease plans
//!   its sweep afresh, canonical-view caches included, exactly as
//!   `ldx run` does: the daemon keeps no cache between jobs.
//! * **Distributed dispatch** ([`lease`], [`coordinator`], `shards`):
//!   `ldx dispatch` splits one sweep's shard layout across N worker
//!   daemons under time-bounded, epoch-fenced leases, retries lost workers
//!   with capped exponential backoff, and merges the verified shard
//!   results through the sweep driver's own report sink — the remote
//!   shard source beside the local pipeline — into a report
//!   byte-identical to a single-process deterministic run.  The
//!   `POST /shards` wire format (request and result line, both ends)
//!   lives in one private module, `shards`.  See `docs/FAULTS.md` for
//!   the failure-mode matrix.
//!
//! See `crates/serve/DESIGN.md` for the protocol, the job lifecycle state
//! machine, the spool layout and the model-checking story.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod coordinator;
pub mod http;
pub mod job;
pub mod lease;
pub mod queue;
pub mod server;
mod shards;
pub mod spool;

pub use client::RetryPolicy;
pub use coordinator::{dispatch, DispatchOptions, DispatchStats};
pub use job::{JobRecord, JobSpec, JobState, SubmitError};
pub use lease::{LeasePolicy, LeaseTable};
pub use queue::{JobQueue, JobTable};
pub use server::{ServeOptions, Server};
pub use spool::{Spool, SpoolError};
