//! Online serving gateway: a production request API over the
//! deterministic core.
//!
//! Everything below this crate is a deterministic discrete-event world —
//! traces in, byte-identical [`cluster::RunReport`]s out. This crate adds
//! the missing production face on top of it:
//!
//! - **Sessions & streaming** ([`Gateway::submit`], [`Gateway::poll`],
//!   [`Gateway::status`], [`Gateway::cancel`]): submissions return a
//!   [`RequestHandle`] whose token stream is polled incrementally between
//!   pumps.
//! - **Tenancy** ([`Gateway::register_tenant`], [`Quota`]): API keys
//!   resolve to tenants with request/token quotas, checked at submit time
//!   against reserved usage so admission depends only on the submissions.
//! - **Elastic model ops** ([`Gateway::unload_model`],
//!   [`Gateway::load_model`]): first-class KunServe operations — unload
//!   drains and merges a model's groups, freeing duplicate parameter
//!   bytes as lendable KV in the [`cluster::MemoryLedger`]; load streams
//!   the parked copy back (ParamRestore) and splits the group again.
//!   Each is a [`cluster::Action`] applied through the session; the
//!   engine advances it at every monitor-tick instant.
//! - **Virtual time only**: the gateway reads no wall clock, so a session
//!   of submissions produces the same report as a batch
//!   [`kunserve::serving::Run`] of those arrivals, as long as none lands
//!   exactly on a monitor tick. A caller who wants wall-time pacing sleeps
//!   between [`Gateway::pump_until`] calls. The [`Clock`] parameter and
//!   its one implementation, [`Virtual`], are kept for the benchmark,
//!   which names `Gateway<Virtual>`. The gateway only injects and steps;
//!   the engine steps model ops.
//!
//! The gateway owns a [`kunserve::serving::ServingSession`]; it never
//! constructs engines itself, keeping `core::serving` the single engine
//! construction path.
//!
//! ```
//! use gateway::{Gateway, Quota, SubmitSpec, Virtual};
//! use kunserve::serving::SystemKind;
//! use cluster::ClusterConfig;
//! use sim_core::{SimDuration, SimTime};
//! use workload::ModelId;
//!
//! let mut gw = Gateway::new(SystemKind::KunServe, ClusterConfig::tiny_test(2), Virtual);
//! gw.register_tenant("acme", "k-acme", Quota::UNLIMITED);
//! let h = gw
//!     .submit("k-acme", SubmitSpec::new(ModelId::PRIMARY, SimTime::from_millis(50), 128, 16))
//!     .unwrap();
//! gw.pump_until(SimTime::from_secs(30));
//! let update = gw.poll(h).unwrap();
//! assert!(update.generated > 0);
//! let (report, _state) = gw.finish(SimDuration::from_secs(60));
//! assert_eq!(report.finished_requests, 1);
//! ```

pub mod api;
pub mod clock;
pub mod tenant;

pub use api::{Gateway, GatewayError, RequestHandle, RequestStatus, SubmitSpec, TokenEvent};
pub use clock::{Clock, Virtual};
pub use tenant::{Quota, TenantId};
