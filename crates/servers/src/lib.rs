//! # flux-servers — the paper's four servers plus a streaming fifth, written in Flux
//!
//! Each module embeds its Flux program source (compiled at start-up by
//! `flux-core`), the Rust node implementations it binds, and a *spec*
//! type consumed by the one typed [`ServerBuilder`]. The same server
//! runs unchanged on any of the four runtimes — the paper's "runtime
//! independence" claim, exercised by the test suites of every module —
//! and, one layer down, on any readiness backend (`poll(2)` or
//! `epoll(7)`, chosen through [`flux_net::NetConfig`]).
//!
//! | module | paper section | style | spec |
//! |--------|---------------|-------|------|
//! | [`web`]    | §4.2 | request-response (HTTP/1.1 + FluxScript) | [`web::WebSpec`] |
//! | [`image`]  | §2, §5.1 | request-response (PPM -> JPEG, LFU cache) | [`image::ImageConfig`] |
//! | [`bt`]     | §4.3 | peer-to-peer (BitTorrent, Figure 7) | [`bt::BtConfig`] |
//! | [`game`]   | §4.4 | heartbeat client-server (Tag at 10 Hz) | [`game::GameConfig`] |
//! | [`pubsub`] | beyond the paper | streaming (windowed aggregation, multicast fan-out) | [`pubsub::PubSubSpec`] |
//!
//! The pub/sub module stresses what the request/response servers never
//! do: one inbound publish fans out to N subscribers through a single
//! refcounted payload ([`flux_net::SharedPayload`]), and flows run on
//! their *topic's* home shard rather than their connection's (the
//! session key is the topic: [`flux_runtime::NodeRegistry::session`]);
//! see its module docs for the wire protocol and window semantics.
//!
//! Construction is uniform across servers, examples, benches and
//! tests:
//!
//! ```ignore
//! use flux_servers::{ServerBuilder, web::WebSpec};
//! let server = ServerBuilder::new(WebSpec::new(listener, docroot))
//!     .runtime(RuntimeKind::event_driven_sharded(4, 4))
//!     .spawn();
//! // ... server.ctx, server.handle ...
//! web::stop(server);
//! ```
//!
//! The builder decides runtime kind, network configuration (readiness
//! backend, per-connection write-buffer bound, event-poll timeout) and
//! the stats/profiling toggles in one place; each module keeps a
//! `stop` helper for orderly shutdown.

pub mod bt;
pub mod builder;
pub mod game;
pub mod image;
pub mod profile_service;
pub mod pubsub;
pub mod web;

pub use builder::{RunningServer, ServerBuilder, ServerSpec};

/// Adapter publishing a [`flux_net::DriverCounters`] block through the
/// runtime's [`flux_runtime::NetCounters`] stats view (the runtime
/// crate does not depend on the net crate).
#[derive(Debug)]
pub struct DriverNetCounters(pub std::sync::Arc<flux_net::DriverCounters>);

impl flux_runtime::NetCounters for DriverNetCounters {
    fn accept_retries(&self) -> u64 {
        self.0
            .accept_retries
            .load(std::sync::atomic::Ordering::Relaxed)
    }
    fn writes_submitted(&self) -> u64 {
        self.0
            .writes_submitted
            .load(std::sync::atomic::Ordering::Relaxed)
    }
    fn writes_drained(&self) -> u64 {
        self.0
            .writes_drained
            .load(std::sync::atomic::Ordering::Relaxed)
    }
    fn write_would_block(&self) -> u64 {
        self.0
            .write_would_block
            .load(std::sync::atomic::Ordering::Relaxed)
    }
    fn writes_failed(&self) -> u64 {
        self.0
            .writes_failed
            .load(std::sync::atomic::Ordering::Relaxed)
    }
    fn writes_shared(&self) -> u64 {
        self.0
            .writes_shared
            .load(std::sync::atomic::Ordering::Relaxed)
    }
    fn slow_consumer_evicted(&self) -> u64 {
        self.0
            .slow_consumer_evicted
            .load(std::sync::atomic::Ordering::Relaxed)
    }
    fn accepts_admitted(&self) -> u64 {
        self.0
            .accepts_admitted
            .load(std::sync::atomic::Ordering::Relaxed)
    }
    fn accepts_governed(&self) -> u64 {
        self.0
            .accepts_governed
            .load(std::sync::atomic::Ordering::Relaxed)
    }
    fn idle_reaped(&self) -> u64 {
        self.0
            .idle_reaped
            .load(std::sync::atomic::Ordering::Relaxed)
    }
    fn writes_deferred(&self) -> u64 {
        self.0
            .writes_deferred
            .load(std::sync::atomic::Ordering::Relaxed)
    }
}
