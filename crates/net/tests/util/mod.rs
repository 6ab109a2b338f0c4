//! Shared helpers for the integration-test binaries: one place that
//! knows which transports exist on this host — TCP over every
//! [`PollerBackend`], and the in-memory transport — so adding a backend
//! (kqueue) or a transport extends every suite at once.

// Each suite compiles its own copy of this module and uses a subset.
#![allow(dead_code)]

use flux_net::{Conn, ConnDriver, Listener as _, MemNet, NetConfig, PollerBackend, TcpAcceptor};
use flux_net::{TcpConn, Token};
use std::sync::Arc;
use std::time::Duration;

/// One way to carry a connection: TCP over loopback with the reactor on
/// a given backend, or an in-memory link (the reactor on the platform's
/// backend, which then watches only its self-pipe).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    Tcp(PollerBackend),
    Mem,
}

/// Defines, for each scenario `fn(Transport)`, a module of that name
/// holding one `#[test]` per transport on this host — `tcp_poll`,
/// `tcp_epoll` (Linux) and `mem` — so a suite's output names every
/// transport a case ran on.
#[allow(unused_macros)] // `hot_path.rs` spells its proptests out
macro_rules! on_every_transport {
    ($($scenario:ident),+ $(,)?) => {$(
        mod $scenario {
            use crate::util::Transport;
            use flux_net::PollerBackend;

            #[test]
            fn tcp_poll() {
                super::$scenario(Transport::Tcp(PollerBackend::Poll));
            }

            #[test]
            #[cfg(target_os = "linux")]
            fn tcp_epoll() {
                super::$scenario(Transport::Tcp(PollerBackend::Epoll));
            }

            #[test]
            fn mem() {
                super::$scenario(Transport::Mem);
            }
        }
    )+};
}
#[allow(unused_imports)]
pub(crate) use on_every_transport;

/// The in-memory link's rate: slow enough that [`Transport::big`] bytes
/// take the reactor's drain a few hundred milliseconds.
const MEM_LINK_BYTES_PER_S: f64 = 16_000_000.0;

/// Where clients of a listening driver connect.
pub enum Dialer {
    Tcp(String),
    Mem(Arc<MemNet>),
}

impl Dialer {
    pub fn connect(&self) -> Box<dyn Conn> {
        match self {
            Dialer::Tcp(addr) => Box::new(TcpConn::connect(addr).unwrap()),
            Dialer::Mem(net) => Box::new(net.connect("srv").unwrap()),
        }
    }
}

impl Transport {
    /// A driver accepting on a fresh listener of this transport. An
    /// in-memory link is shaped, so a large write is buffered and
    /// drained by the reactor, as a socket's is.
    pub fn listen(self) -> (Arc<ConnDriver>, Dialer) {
        match self {
            Transport::Tcp(backend) => {
                let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
                let addr = acceptor.local_addr();
                let driver = driver_on(backend);
                driver.spawn_acceptor(Box::new(acceptor));
                (driver, Dialer::Tcp(addr))
            }
            Transport::Mem => {
                let net = MemNet::new();
                net.set_link_capacity(Some(MEM_LINK_BYTES_PER_S));
                let listener = net.listen("srv").unwrap();
                let driver = driver_on(PollerBackend::default());
                driver.spawn_acceptor(Box::new(listener));
                (driver, Dialer::Mem(net))
            }
        }
    }

    /// A write this transport cannot take at once: far past loopback's
    /// socket buffers, or past the shaped link's burst.
    pub fn big(self) -> usize {
        match self {
            Transport::Tcp(_) => 8 * 1024 * 1024,
            Transport::Mem => 4 * 1024 * 1024,
        }
    }
}

/// Connects one client and returns it with its server-side token.
pub fn accept_one(driver: &ConnDriver, dialer: &Dialer) -> (Box<dyn Conn>, Token) {
    let client = dialer.connect();
    match driver.next_event(Duration::from_secs(2)) {
        Some(flux_net::DriverEvent::Incoming(token)) => (client, token),
        other => panic!("expected Incoming, got {other:?}"),
    }
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
