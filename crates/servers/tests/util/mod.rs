//! Shared helper for the server integration tests: one network
//! configuration per readiness backend this host has, so every test
//! that runs a whole server over real TCP runs it on each of them.

use flux_net::NetConfig;

/// The default [`NetConfig`] on each readiness backend of this host,
/// paired with the name the server's driver must then report
/// (`ConnDriver::poller_backend`): the platform's default backend first
/// (epoll on Linux, poll elsewhere), then poll on Linux. A host without
/// a poller gets the one default configuration.
pub fn per_backend() -> Vec<(&'static str, NetConfig)> {
    #[cfg(unix)]
    {
        use flux_net::PollerBackend;
        let mut backends = vec![PollerBackend::default()];
        if cfg!(target_os = "linux") {
            backends.push(PollerBackend::Poll);
        }
        backends
            .into_iter()
            .map(|backend| {
                let net = NetConfig {
                    backend,
                    ..NetConfig::default()
                };
                (backend.label(), net)
            })
            .collect()
    }
    #[cfg(not(unix))]
    {
        vec![("none", NetConfig::default())]
    }
}
