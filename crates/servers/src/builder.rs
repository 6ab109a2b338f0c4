//! One typed construction surface for all five servers.
//!
//! The paper's runtime-independence claim says the same Flux program
//! runs on any concurrency substrate; this module makes the *public
//! API* reflect that. Before it, each server exposed its own divergent
//! `spawn(config, runtime, profile)` signature; now every server,
//! example, bench harness and test constructs through one
//! [`ServerBuilder`]:
//!
//! ```ignore
//! let server = ServerBuilder::new(WebSpec::new(listener, docroot))
//!     .runtime(
//!         RuntimeKind::event_driven_sharded(4, 4).overload(OverloadPolicy::bounded(1024)),
//!     )
//!     .net(NetConfig {
//!         max_conns: 10_000,
//!         idle_timeout: Some(Duration::from_secs(30)),
//!         ..NetConfig::default()
//!     })
//!     .profile(true)
//!     .spawn();
//! ```
//!
//! The builder owns the glue every server shared but re-implemented:
//! compiling the program and binding the registry (via the server's
//! [`ServerSpec`]), toggling path profiling, installing the network
//! driver's counters into [`flux_runtime::ServerStats`], and starting
//! the chosen [`RuntimeKind`]. Each value has one setter: the runtime
//! and its overload policy live in the [`RuntimeKind`], and the
//! readiness backend (poll/epoll), the per-connection output-buffer
//! bound, the connection cap and the idle deadline live in the
//! [`NetConfig`], which travels into the spec's `build`.

use flux_core::CompiledProgram;
use flux_net::{ConnDriver, NetConfig};
use flux_runtime::{NodeRegistry, RuntimeKind};
use std::sync::Arc;

/// What a server kind must provide to be built: its compiled program,
/// bound node registry and shared context, plus access to its network
/// driver (when it has one) for stats installation.
pub trait ServerSpec {
    /// The per-flow payload type.
    type Flow: Send + 'static;
    /// The shared server context handed back to the caller
    /// (`Arc<WebCtx>`, `Arc<BtCtx>`, ...).
    type Ctx;

    /// Compiles the Flux program, binds the node implementations and
    /// builds the shared context, constructing any [`ConnDriver`]
    /// through `net`.
    fn build(self, net: &NetConfig) -> (CompiledProgram, NodeRegistry<Self::Flow>, Self::Ctx);

    /// The context's network driver, when the server has one (used to
    /// publish [`flux_net::DriverCounters`] into the runtime stats).
    fn driver(ctx: &Self::Ctx) -> Option<Arc<ConnDriver>>;

    /// The context's fan-out counter block, when the server is a
    /// streaming (pub/sub) server. The builder shares it into
    /// [`flux_runtime::ServerStats::fanout`] so `describe()` reports
    /// publishes/deliveries/coalesced next to the flow counters.
    fn fanout(ctx: &Self::Ctx) -> Option<Arc<flux_runtime::FanoutStat>> {
        let _ = ctx;
        None
    }
}

/// A running server: the runtime handle plus the server's shared
/// context. The per-server aliases (`web::WebServer`, `bt::BtServer`,
/// `image::ImageServer`, `game::GameServer`, `pubsub::PubSubServer`)
/// are instantiations of this one type.
pub struct RunningServer<P: Send + 'static, C> {
    pub handle: flux_runtime::ServerHandle<P>,
    pub ctx: C,
}

/// The one typed builder behind all five servers (see module docs).
pub struct ServerBuilder<S: ServerSpec> {
    spec: S,
    runtime: RuntimeKind,
    net: NetConfig,
    profile: bool,
}

impl<S: ServerSpec> ServerBuilder<S> {
    /// A builder with the defaults: the paper's event-driven runtime
    /// (one dispatcher shard, four I/O workers), the default
    /// [`NetConfig`] (epoll on Linux, poll elsewhere or when
    /// `epoll_create1` fails), profiling off. Every runtime
    /// interprets the flow graph one node per step; there is no
    /// interpreter to choose.
    pub fn new(spec: S) -> Self {
        ServerBuilder {
            spec,
            runtime: RuntimeKind::event_driven_sharded(1, 4),
            net: NetConfig::default(),
            profile: false,
        }
    }

    /// Which runtime executes the flows (paper §3.2), with its overload
    /// policy ([`RuntimeKind::overload`]).
    pub fn runtime(mut self, kind: RuntimeKind) -> Self {
        self.runtime = kind;
        self
    }

    /// The network configuration: readiness backend, output-buffer
    /// bound, connection cap and idle deadline.
    pub fn net(mut self, net: NetConfig) -> Self {
        self.net = net;
        self
    }

    /// Enables Ball–Larus path profiling (paper §5.2).
    pub fn profile(mut self, on: bool) -> Self {
        self.profile = on;
        self
    }

    /// Compiles, binds and starts the server.
    pub fn spawn(self) -> RunningServer<S::Flow, S::Ctx> {
        let (program, registry, ctx) = self.spec.build(&self.net);
        let server = if self.profile {
            flux_runtime::FluxServer::with_profiling(program, registry)
        } else {
            flux_runtime::FluxServer::new(program, registry)
        };
        let mut server = server.expect("registry satisfies the program");
        if let Some(fanout) = S::fanout(&ctx) {
            server.stats.fanout = fanout;
        }
        if let Some(driver) = S::driver(&ctx) {
            server
                .stats
                .install_net(Arc::new(crate::DriverNetCounters(driver.counters())));
        }
        let handle = flux_runtime::start(Arc::new(server), self.runtime);
        RunningServer { handle, ctx }
    }
}
