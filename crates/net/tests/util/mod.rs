//! Shared helpers for the integration-test binaries: one place that
//! knows which [`PollerBackend`]s exist on this host, so adding a
//! backend (kqueue) extends every suite at once.

use flux_net::{ConnDriver, NetConfig, PollerBackend};
use std::sync::Arc;

/// Every backend on this host: poll, plus epoll on Linux.
pub fn backends() -> Vec<PollerBackend> {
    let mut v = vec![PollerBackend::Poll];
    if cfg!(target_os = "linux") {
        v.push(PollerBackend::Epoll);
    }
    v
}

/// A driver configured for `backend`, asserting the request was
/// honoured (no silent fallback on a host that has the backend).
pub fn driver_on(backend: PollerBackend) -> Arc<ConnDriver> {
    let driver = Arc::new(ConnDriver::with_config(&NetConfig {
        backend,
        ..NetConfig::default()
    }));
    assert_eq!(driver.poller_backend(), backend.label(), "backend honoured");
    assert_eq!(
        driver
            .counters()
            .poller_fallbacks
            .load(std::sync::atomic::Ordering::Relaxed),
        0,
        "no fallback recorded for an honoured backend"
    );
    driver
}
