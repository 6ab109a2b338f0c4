//! Hermetic in-memory transport: duplex pipes, a listener registry and
//! optional link shaping. Tests and the paper-figure binaries run on
//! this transport so results do not depend on kernel socket buffers or
//! loopback quirks.
//!
//! Readiness goes through the driver's reactor, as a socket's does: an
//! armed endpoint ([`MemEndpoint`]) pushes its token onto the reactor's
//! ready list when a write or a close makes it readable, and a shaped
//! link's buffered output is drained by the reactor's write path, which
//! waits for the shaper's next tokens instead of sleeping in the bucket.

use crate::driver::Token;
use crate::pool::{OutBuf, SharedPayload};
use crate::reactor::Waker;
use crate::shaper::Shaper;
use crate::traits::{Conn, Datagram, Listener, Readiness, WriteProgress};
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::collections::{HashMap, VecDeque};
use std::io;
use std::sync::Arc;
use std::time::Duration;

/// The tokens a drain that ran the bucket dry waits for before the
/// reactor re-offers it: each later drain sends about this much.
const DRAIN_CHUNK: usize = 16 * 1024;

/// One direction of a duplex in-memory connection.
#[derive(Default)]
struct PipeState {
    data: VecDeque<u8>,
    closed: bool,
    /// The armed reader's token and the reactor to report it to:
    /// one-shot, taken by the write or close that makes the pipe
    /// readable.
    armed: Option<(Arc<Waker>, Token)>,
}

#[derive(Default)]
struct Pipe {
    state: Mutex<PipeState>,
    cond: Condvar,
}

impl Pipe {
    fn write(&self, buf: &[u8]) -> io::Result<usize> {
        let mut s = self.state.lock();
        if s.closed {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "peer closed the connection",
            ));
        }
        s.data.extend(buf);
        self.became_readable(s);
        Ok(buf.len())
    }

    fn read(&self, buf: &mut [u8], timeout: Option<Duration>) -> io::Result<usize> {
        let mut s = self.state.lock();
        loop {
            if !s.data.is_empty() {
                let n = buf.len().min(s.data.len());
                for b in buf.iter_mut().take(n) {
                    *b = s.data.pop_front().expect("checked non-empty");
                }
                return Ok(n);
            }
            if s.closed {
                return Ok(0); // EOF
            }
            match timeout {
                None => self.cond.wait(&mut s),
                Some(d) => {
                    if self.cond.wait_for(&mut s, d).timed_out() && s.data.is_empty() && !s.closed {
                        return Err(io::Error::new(io::ErrorKind::TimedOut, "read timed out"));
                    }
                }
            }
        }
    }

    fn close(&self) {
        let mut s = self.state.lock();
        s.closed = true;
        self.became_readable(s);
    }

    /// Wakes blocked readers and reports the armed token, if any, after
    /// releasing the state lock.
    fn became_readable(&self, mut s: MutexGuard<'_, PipeState>) {
        let armed = s.armed.take();
        drop(s);
        self.cond.notify_all();
        if let Some((waker, token)) = armed {
            waker.ready(token);
        }
    }
}

/// What the reactor holds to watch one in-memory endpoint: the pipe it
/// reads from and the link shaper its writes pass.
#[derive(Clone)]
pub struct MemEndpoint {
    rx: Arc<Pipe>,
    shaper: Option<Arc<Shaper>>,
}

impl MemEndpoint {
    /// Arms one-shot read readiness for `token`. Returns `true`, arming
    /// nothing, when the endpoint is readable (or closed) already.
    pub(crate) fn arm(&self, waker: &Arc<Waker>, token: Token) -> bool {
        let mut s = self.rx.state.lock();
        if !s.data.is_empty() || s.closed {
            return true;
        }
        s.armed = Some((waker.clone(), token));
        false
    }

    /// Drops the armed token, if any (the connection was deregistered).
    pub(crate) fn disarm(&self) {
        self.rx.state.lock().armed = None;
    }

    /// How long a drain that found no tokens waits before the link can
    /// take its next chunk (zero on an unshaped link).
    pub(crate) fn write_ready_in(&self) -> Duration {
        self.shaper
            .as_ref()
            .map_or(Duration::ZERO, |s| s.ready_in(DRAIN_CHUNK))
    }
}

/// One endpoint of an in-memory connection.
pub struct MemConn {
    rx: Arc<Pipe>,
    tx: Arc<Pipe>,
    read_timeout: Option<Duration>,
    shaper: Option<Arc<Shaper>>,
    /// Output segment queue for enqueued writes on *shaped* links,
    /// drained by the reactor as the shaper's tokens accrue (see
    /// [`Conn::enqueue_write`] below). Shared fan-out payloads buffer a
    /// reference, not a copy.
    out: OutBuf,
    peer: String,
}

impl MemConn {
    /// Creates a connected pair `(client, server)` without a network.
    pub fn pair() -> (MemConn, MemConn) {
        Self::pair_shaped(None)
    }

    /// Connected pair sharing a link shaper.
    pub fn pair_shaped(shaper: Option<Arc<Shaper>>) -> (MemConn, MemConn) {
        let a = Arc::new(Pipe::default());
        let b = Arc::new(Pipe::default());
        (
            MemConn {
                rx: a.clone(),
                tx: b.clone(),
                read_timeout: None,
                shaper: shaper.clone(),
                out: OutBuf::new(),
                peer: "mem:server".into(),
            },
            MemConn {
                rx: b,
                tx: a,
                read_timeout: None,
                shaper,
                out: OutBuf::new(),
                peer: "mem:client".into(),
            },
        )
    }
}

impl io::Read for MemConn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        self.rx.read(buf, self.read_timeout)
    }
}

impl io::Write for MemConn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if let Some(s) = &self.shaper {
            s.consume(buf.len());
        }
        self.tx.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Conn for MemConn {
    fn peer_addr(&self) -> String {
        self.peer.clone()
    }

    fn set_read_timeout(&mut self, d: Option<Duration>) -> io::Result<()> {
        self.read_timeout = d;
        Ok(())
    }

    fn readiness(&self) -> Readiness {
        Readiness::Mem(MemEndpoint {
            rx: self.rx.clone(),
            shaper: self.shaper.clone(),
        })
    }

    fn enqueue_write(&mut self, bytes: &[u8]) -> io::Result<WriteProgress> {
        if let Some(shaper) = self.shaper.clone() {
            // A shaped link models transmission time with its token
            // bucket. Burst-sized traffic whose tokens are available
            // passes synchronously; anything past the bucket is
            // buffered for the reactor's drain, which sends it as the
            // tokens accrue (the submitting dispatcher shard must not
            // wait for them).
            if !self.out.is_empty() || !shaper.try_consume(bytes.len()) {
                self.out.push_owned(bytes, 0);
                return Ok(WriteProgress::Pending);
            }
            // Tokens already consumed: write to the pipe directly so
            // the shaper is not charged twice.
            self.tx.write(bytes)?;
            return Ok(WriteProgress::Complete);
        }
        // The unshaped pipe never exerts backpressure: enqueues complete
        // synchronously and no drain watch is needed.
        io::Write::write_all(self, bytes)?;
        Ok(WriteProgress::Complete)
    }

    fn enqueue_write_shared(&mut self, payload: &SharedPayload) -> io::Result<WriteProgress> {
        if let Some(shaper) = self.shaper.clone() {
            if !self.out.is_empty() || !shaper.try_consume(payload.len()) {
                // Blocked: buffer a reference, not a per-subscriber copy.
                self.out.push_shared(payload, 0);
                return Ok(WriteProgress::Pending);
            }
            self.tx.write(payload)?;
            return Ok(WriteProgress::Complete);
        }
        self.tx.write(payload)?;
        Ok(WriteProgress::Complete)
    }

    fn enqueue_write_parts(
        &mut self,
        head: &[u8],
        body: &SharedPayload,
    ) -> io::Result<WriteProgress> {
        if let Some(shaper) = self.shaper.clone() {
            if !self.out.is_empty() || !shaper.try_consume(head.len() + body.len()) {
                // Blocked: the whole message waits for the drain, the
                // body as a reference.
                self.out.push_parts(head, body, 0);
                return Ok(WriteProgress::Pending);
            }
        }
        self.tx.write(head)?;
        self.tx.write(body)?;
        Ok(WriteProgress::Complete)
    }

    fn pending_out(&self) -> usize {
        self.out.len()
    }

    fn drain_out(&mut self) -> io::Result<WriteProgress> {
        // Runs on the reactor thread, so it never waits in the shaper:
        // it sends what the bucket holds at the call (at most a burst,
        // which also bounds how long it holds the connection lock) and
        // reports `Pending` for the rest; the reactor then parks the
        // watch until the shaper's next chunk of tokens. The buffered
        // bytes never passed `try_consume`, so they are paid for here.
        let mut budget = match &self.shaper {
            Some(s) => s.take_up_to(self.out.len()),
            None => self.out.len(),
        };
        while budget > 0 {
            let Some(front) = self.out.front() else {
                break;
            };
            let n = front.len().min(budget);
            self.tx.write(&front[..n])?;
            self.out.advance(n);
            budget -= n;
        }
        Ok(if self.out.is_empty() {
            WriteProgress::Complete
        } else {
            WriteProgress::Pending
        })
    }

    fn shutdown_write(&mut self) -> io::Result<()> {
        self.tx.close();
        Ok(())
    }
}

impl Drop for MemConn {
    fn drop(&mut self) {
        // Each pipe has one writer, this endpoint: its drop is the EOF.
        self.tx.close();
    }
}

type PendingConn = (MemConn, Sender<()>);

struct ListenerEntry {
    tx: Sender<PendingConn>,
}

/// An in-memory network: a registry of listeners by address, with an
/// optional shared link shaper applied to every connection's writes.
#[derive(Default)]
pub struct MemNet {
    listeners: Mutex<HashMap<String, ListenerEntry>>,
    shaper: Mutex<Option<Arc<Shaper>>>,
    datagrams: Mutex<HashMap<String, Sender<(Vec<u8>, String)>>>,
}

impl MemNet {
    pub fn new() -> Arc<Self> {
        Arc::new(MemNet::default())
    }

    /// Caps aggregate write throughput across all connections (the
    /// simulated link capacity). Applies to connections made afterwards.
    pub fn set_link_capacity(&self, bytes_per_s: Option<f64>) {
        *self.shaper.lock() = bytes_per_s.map(|r| Arc::new(Shaper::new(r)));
    }

    /// Starts listening on `addr`.
    pub fn listen(self: &Arc<Self>, addr: &str) -> io::Result<MemListener> {
        let (tx, rx) = bounded(1024);
        let mut map = self.listeners.lock();
        if map.contains_key(addr) {
            return Err(io::Error::new(
                io::ErrorKind::AddrInUse,
                format!("mem address `{addr}` already bound"),
            ));
        }
        map.insert(addr.to_string(), ListenerEntry { tx });
        Ok(MemListener {
            net: self.clone(),
            addr: addr.to_string(),
            rx,
            accept_timeout: Mutex::new(None),
        })
    }

    /// Connects to a listening address.
    pub fn connect(self: &Arc<Self>, addr: &str) -> io::Result<MemConn> {
        let entry_tx = {
            let map = self.listeners.lock();
            match map.get(addr) {
                Some(e) => e.tx.clone(),
                None => {
                    return Err(io::Error::new(
                        io::ErrorKind::ConnectionRefused,
                        format!("nothing listening on mem address `{addr}`"),
                    ))
                }
            }
        };
        let shaper = self.shaper.lock().clone();
        let (client, server) = MemConn::pair_shaped(shaper);
        let (ack_tx, ack_rx) = bounded(1);
        entry_tx
            .send((server, ack_tx))
            .map_err(|_| io::Error::new(io::ErrorKind::ConnectionRefused, "listener closed"))?;
        // Wait for accept so connect() has TCP-like semantics.
        ack_rx
            .recv_timeout(Duration::from_secs(10))
            .map_err(|_| io::Error::new(io::ErrorKind::TimedOut, "accept timed out"))?;
        Ok(client)
    }

    /// Binds a datagram socket on `addr`.
    pub fn bind_datagram(self: &Arc<Self>, addr: &str) -> io::Result<MemDatagram> {
        let (tx, rx) = bounded(4096);
        let mut map = self.datagrams.lock();
        if map.contains_key(addr) {
            return Err(io::Error::new(
                io::ErrorKind::AddrInUse,
                format!("mem datagram address `{addr}` already bound"),
            ));
        }
        map.insert(addr.to_string(), tx);
        Ok(MemDatagram {
            net: self.clone(),
            addr: addr.to_string(),
            rx,
        })
    }
}

/// An in-memory listener.
pub struct MemListener {
    net: Arc<MemNet>,
    addr: String,
    rx: Receiver<PendingConn>,
    accept_timeout: Mutex<Option<Duration>>,
}

impl Listener for MemListener {
    fn accept(&self) -> io::Result<Box<dyn Conn>> {
        let timeout = *self.accept_timeout.lock();
        let (conn, ack) = match timeout {
            None => self
                .rx
                .recv()
                .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "net closed"))?,
            Some(d) => match self.rx.recv_timeout(d) {
                Ok(p) => p,
                Err(RecvTimeoutError::Timeout) => {
                    return Err(io::Error::new(io::ErrorKind::TimedOut, "accept timed out"))
                }
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(io::Error::new(io::ErrorKind::BrokenPipe, "net closed"))
                }
            },
        };
        // Ack the connect so the client's connect() returns.
        let _ = ack.send(());
        Ok(Box::new(conn))
    }

    fn set_accept_timeout(&self, d: Option<Duration>) {
        *self.accept_timeout.lock() = d;
    }

    fn local_addr(&self) -> String {
        self.addr.clone()
    }
}

impl Drop for MemListener {
    fn drop(&mut self) {
        self.net.listeners.lock().remove(&self.addr);
    }
}

/// An in-memory datagram socket.
pub struct MemDatagram {
    net: Arc<MemNet>,
    addr: String,
    rx: Receiver<(Vec<u8>, String)>,
}

impl Datagram for MemDatagram {
    fn send_to(&self, buf: &[u8], addr: &str) -> io::Result<usize> {
        let map = self.net.datagrams.lock();
        if let Some(tx) = map.get(addr) {
            // Datagram semantics: drop on full queue or dead receiver.
            let _ = tx.try_send((buf.to_vec(), self.addr.clone()));
        }
        Ok(buf.len())
    }

    fn recv_from(
        &self,
        buf: &mut [u8],
        timeout: Option<Duration>,
    ) -> io::Result<Option<(usize, String)>> {
        let msg = match timeout {
            None => self.rx.recv().ok(),
            Some(d) => self.rx.recv_timeout(d).ok(),
        };
        match msg {
            None => Ok(None),
            Some((data, from)) => {
                let n = data.len().min(buf.len());
                buf[..n].copy_from_slice(&data[..n]);
                Ok(Some((n, from)))
            }
        }
    }

    fn local_addr(&self) -> String {
        self.addr.clone()
    }
}

impl Drop for MemDatagram {
    fn drop(&mut self) {
        self.net.datagrams.lock().remove(&self.addr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::thread;

    #[test]
    fn pair_round_trip() {
        let (mut a, mut b) = MemConn::pair();
        a.write_all(b"hello").unwrap();
        let mut buf = [0u8; 5];
        b.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"hello");
        b.write_all(b"world").unwrap();
        a.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"world");
    }

    #[test]
    fn eof_after_shutdown() {
        let (mut a, mut b) = MemConn::pair();
        a.write_all(b"x").unwrap();
        a.shutdown_write().unwrap();
        let mut buf = Vec::new();
        b.read_to_end(&mut buf).unwrap();
        assert_eq!(buf, b"x");
    }

    #[test]
    fn read_timeout_fires() {
        let (a, mut b) = MemConn::pair();
        b.set_read_timeout(Some(Duration::from_millis(20))).unwrap();
        let mut buf = [0u8; 1];
        let err = b.read(&mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        drop(a);
    }

    /// A fresh waker, as the reactor's thread would install it (no
    /// self-pipe: the tests read its ready list directly).
    fn waker() -> Arc<Waker> {
        Arc::new(Waker::default())
    }

    #[test]
    fn arm_reports_on_write() {
        let (mut a, b) = MemConn::pair();
        let Readiness::Mem(ep) = b.readiness() else {
            panic!("an in-memory endpoint")
        };
        let w = waker();
        assert!(!ep.arm(&w, 7), "not readable yet");
        assert!(w.take_ready().is_empty());
        a.write_all(b"!").unwrap();
        assert_eq!(w.take_ready(), vec![7]);
        a.write_all(b"!").unwrap();
        assert!(w.take_ready().is_empty(), "one-shot until re-armed");
    }

    #[test]
    fn arm_reports_readable_at_once_when_data_pending() {
        let (mut a, b) = MemConn::pair();
        a.write_all(b"!").unwrap();
        let Readiness::Mem(ep) = b.readiness() else {
            panic!("an in-memory endpoint")
        };
        let w = waker();
        assert!(ep.arm(&w, 7), "readable already: nothing armed");
        assert!(w.take_ready().is_empty());
    }

    #[test]
    fn arm_reports_on_close_but_not_after_disarm() {
        let (a, b) = MemConn::pair();
        let Readiness::Mem(ep) = b.readiness() else {
            panic!("an in-memory endpoint")
        };
        let w = waker();
        assert!(!ep.arm(&w, 7));
        ep.disarm();
        let (c, d) = MemConn::pair();
        let Readiness::Mem(ep2) = d.readiness() else {
            panic!("an in-memory endpoint")
        };
        assert!(!ep2.arm(&w, 8));
        drop(a);
        drop(c);
        assert_eq!(
            w.take_ready(),
            vec![8],
            "the disarmed endpoint stays silent"
        );
    }

    #[test]
    fn listener_accept_connect() {
        let net = MemNet::new();
        let listener = net.listen("srv").unwrap();
        let net2 = net.clone();
        let client = thread::spawn(move || {
            let mut c = net2.connect("srv").unwrap();
            c.write_all(b"ping").unwrap();
            let mut buf = [0u8; 4];
            c.read_exact(&mut buf).unwrap();
            buf
        });
        let mut server = listener.accept().unwrap();
        let mut buf = [0u8; 4];
        server.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");
        server.write_all(b"pong").unwrap();
        assert_eq!(&client.join().unwrap(), b"pong");
    }

    #[test]
    fn connect_refused_without_listener() {
        let net = MemNet::new();
        let err = net.connect("nobody").err().unwrap();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused);
    }

    #[test]
    fn accept_timeout() {
        let net = MemNet::new();
        let l = net.listen("srv").unwrap();
        l.set_accept_timeout(Some(Duration::from_millis(20)));
        let err = l.accept().err().unwrap();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
    }

    #[test]
    fn address_reuse_after_drop() {
        let net = MemNet::new();
        let l = net.listen("srv").unwrap();
        assert!(net.listen("srv").is_err());
        drop(l);
        assert!(net.listen("srv").is_ok());
    }

    #[test]
    fn datagram_send_recv() {
        let net = MemNet::new();
        let a = net.bind_datagram("a").unwrap();
        let b = net.bind_datagram("b").unwrap();
        a.send_to(b"tick", "b").unwrap();
        let mut buf = [0u8; 16];
        let (n, from) = b
            .recv_from(&mut buf, Some(Duration::from_secs(1)))
            .unwrap()
            .unwrap();
        assert_eq!(&buf[..n], b"tick");
        assert_eq!(from, "a");
    }

    #[test]
    fn datagram_to_nowhere_is_dropped() {
        let net = MemNet::new();
        let a = net.bind_datagram("a").unwrap();
        assert_eq!(a.send_to(b"x", "ghost").unwrap(), 1);
    }

    #[test]
    fn shaped_link_caps_throughput() {
        let net = MemNet::new();
        net.set_link_capacity(Some(1_000_000.0)); // 1 MB/s
        let l = net.listen("srv").unwrap();
        let net2 = net.clone();
        let t = thread::spawn(move || {
            let mut c = net2.connect("srv").unwrap();
            let chunk = vec![0u8; 64 * 1024];
            let t0 = std::time::Instant::now();
            // 320 KB beyond the 64KB burst at 1MB/s ≈ 0.26+ s.
            for _ in 0..5 {
                c.write_all(&chunk).unwrap();
            }
            t0.elapsed()
        });
        let mut server = l.accept().unwrap();
        let mut sunk = 0usize;
        let mut buf = vec![0u8; 64 * 1024];
        while sunk < 5 * 64 * 1024 {
            sunk += server.read(&mut buf).unwrap();
        }
        let dt = t.join().unwrap();
        assert!(
            dt > Duration::from_millis(180),
            "shaping must slow writes, took {dt:?}"
        );
    }
}
