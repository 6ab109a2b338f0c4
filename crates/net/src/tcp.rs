//! Real TCP/UDP transports over `std::net`: what the servers, the
//! baselines and the repository benchmark (`benchmark/`) run on.
//!
//! Every wait at this edge is a kernel wait. The listener is
//! non-blocking from `bind` on and [`TcpAcceptor::accept`] blocks in
//! `poll(2)` on its fd (bounded by the accept timeout, when one is
//! set), so a connect wakes the acceptor at once and a backlog drains
//! without sleeping between accepts. Output is sent with
//! `sendmsg(MSG_DONTWAIT)`, a gather write: a response's head and its
//! shared body, or several queued segments on a `POLLOUT` drain, leave
//! in one system call and are copied nowhere on the way. The socket's
//! `O_NONBLOCK` flag — which lives on the open file description and is
//! therefore shared with every duplicate of the descriptor — is never
//! touched, so a blocking `read` on a duplicate cannot see a spurious
//! `WouldBlock`.
//! Accepted and connected sockets carry `TCP_NODELAY`: responses are
//! written whole, and a small write must not wait out the peer's
//! delayed ACK.

use crate::pool::{OutBuf, SharedPayload};
use crate::traits::{Conn, Datagram, Listener, Readiness, WriteProgress};
use parking_lot::Mutex;
use std::io::{self, IoSlice};
use std::net::{TcpListener, TcpStream, UdpSocket};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// A TCP connection implementing [`Conn`].
///
/// Besides the plain blocking [`io::Write`] path, the connection keeps a
/// per-handle output buffer behind [`Conn::enqueue_write`]: writes that
/// would block are buffered and drained with non-blocking partial
/// writes, so the reactor can finish them on `POLLOUT` without ever
/// parking a thread in `send(2)`. The buffer is a segment queue
/// ([`OutBuf`]): plain writes copy their unwritten tail, shared
/// payloads ([`Conn::enqueue_write_shared`], the body of
/// [`Conn::enqueue_write_parts`]) buffer a refcounted reference
/// instead of a copy.
pub struct TcpConn {
    stream: TcpStream,
    peer: String,
    /// Output segment queue for reactor-drained writes.
    out: OutBuf,
    /// Test hook: the next gather send offers the socket at most this
    /// many bytes, so a test can stop a write wherever it likes.
    #[cfg(test)]
    send_cap: Option<usize>,
}

/// Segments handed to one `sendmsg` on a drain. A response is two
/// (head, body); more only queue up behind a stalled peer.
const GATHER_SEGS: usize = 8;

impl TcpConn {
    pub fn new(stream: TcpStream) -> Self {
        let peer = stream
            .peer_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| "<unknown>".into());
        TcpConn {
            stream,
            peer,
            out: OutBuf::new(),
            #[cfg(test)]
            send_cap: None,
        }
    }

    /// Connects to `addr` (e.g. `127.0.0.1:8080`).
    pub fn connect(addr: &str) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(TcpConn::new(stream))
    }

    /// Arms the test hook: the next gather send is cut to `cap` bytes.
    #[cfg(test)]
    pub(crate) fn cap_next_send(&mut self, cap: usize) {
        self.send_cap = Some(cap);
    }

    /// Offers `bufs` (in order, not all empty) to the socket in one
    /// gather send and returns how many bytes it took. Fewer than
    /// offered — possibly none — means the socket buffer is full: the
    /// caller buffers the rest and waits for `POLLOUT`, which fires at
    /// once if there is room after all.
    fn send_gather(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        #[cfg(test)]
        if let Some(cap) = self.send_cap.take() {
            return capped_send(&self.stream, bufs, cap);
        }
        send_some(&self.stream, bufs)
    }

    /// Non-blocking drain of the output buffer: the front segments go
    /// out together, one `sendmsg` per [`GATHER_SEGS`] of them.
    fn drain_nonblocking(&mut self) -> io::Result<WriteProgress> {
        while !self.out.is_empty() {
            let mut iov = [IoSlice::new(&[]); GATHER_SEGS];
            let (segs, offered) = self.out.io_slices(&mut iov);
            let sent = send_some(&self.stream, &iov[..segs])?;
            self.out.advance(sent);
            if sent < offered {
                return Ok(WriteProgress::Pending);
            }
        }
        Ok(WriteProgress::Complete)
    }

    /// Common body of the three enqueue paths. With nothing buffered
    /// the parts go straight to the socket and only the unwritten rest
    /// is kept (via `keep`, which is told how many bytes were taken);
    /// behind buffered bytes they are queued whole and the drain is
    /// tried once more.
    fn enqueue(
        &mut self,
        parts: &[IoSlice<'_>],
        keep: impl FnOnce(&mut OutBuf, usize),
    ) -> io::Result<WriteProgress> {
        let total: usize = parts.iter().map(|p| p.len()).sum();
        if total == 0 {
            return Ok(WriteProgress::Complete);
        }
        if !self.out.is_empty() {
            keep(&mut self.out, 0);
            return self.drain_nonblocking();
        }
        let sent = self.send_gather(parts)?;
        if sent == total {
            return Ok(WriteProgress::Complete);
        }
        keep(&mut self.out, sent);
        Ok(WriteProgress::Pending)
    }
}

/// One gather send of `bufs` (not all empty): the bytes the socket
/// took, `0` when it would have blocked.
fn send_some(stream: &TcpStream, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
    loop {
        match sendmsg_nowait(stream, bufs) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "socket accepted zero bytes",
                ))
            }
            Ok(n) => return Ok(n),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(0),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
}

/// [`send_some`] over at most the first `cap` bytes of `bufs`.
#[cfg(test)]
fn capped_send(stream: &TcpStream, bufs: &[IoSlice<'_>], mut cap: usize) -> io::Result<usize> {
    let mut cut = Vec::new();
    for b in bufs {
        let take = b.len().min(cap);
        cap -= take;
        if take > 0 {
            cut.push(IoSlice::new(&b[..take]));
        }
    }
    if cut.is_empty() {
        return Ok(0);
    }
    send_some(stream, &cut)
}

/// One `sendmsg(2)` over `bufs` that fails with `WouldBlock` instead of
/// waiting for socket-buffer room: non-blocking per call
/// (`MSG_DONTWAIT`), leaving the shared `O_NONBLOCK` flag alone (see the
/// module docs).
#[cfg(target_os = "linux")]
fn sendmsg_nowait(stream: &TcpStream, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
    use std::ffi::{c_int, c_void};
    use std::os::fd::AsRawFd;
    const MSG_DONTWAIT: c_int = 0x40;
    const MSG_NOSIGNAL: c_int = 0x4000;
    /// `struct msghdr` of `<sys/socket.h>`.
    #[repr(C)]
    struct MsgHdr {
        name: *mut c_void,
        namelen: u32,
        iov: *const c_void,
        iovlen: usize,
        control: *mut c_void,
        controllen: usize,
        flags: c_int,
    }
    extern "C" {
        fn sendmsg(fd: c_int, msg: *const MsgHdr, flags: c_int) -> isize;
    }
    let msg = MsgHdr {
        name: std::ptr::null_mut(),
        namelen: 0,
        iov: bufs.as_ptr().cast(),
        iovlen: bufs.len(),
        control: std::ptr::null_mut(),
        controllen: 0,
        flags: 0,
    };
    // SAFETY: `msg` is a fully initialised `msghdr` that lives across
    // the call; `IoSlice` is guaranteed ABI-compatible with `iovec` on
    // Unix, so `iov`/`iovlen` describe `bufs.len()` valid `iovec`s, each
    // over a live slice that `sendmsg` only reads; no address or control
    // data is passed; the fd is owned by `stream`, which outlives the
    // call.
    let n = unsafe { sendmsg(stream.as_raw_fd(), &msg, MSG_DONTWAIT | MSG_NOSIGNAL) };
    if n < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(n as usize)
    }
}

/// Off Linux `std` offers no per-call flag and no gather send, so the
/// mode is flipped around one write per segment (and restored before
/// returning).
#[cfg(not(target_os = "linux"))]
fn sendmsg_nowait(stream: &TcpStream, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
    use std::io::Write as _;
    stream.set_nonblocking(true)?;
    let mut sent = 0;
    let mut result = Ok(());
    for buf in bufs.iter().filter(|b| !b.is_empty()) {
        match (&mut &*stream).write(buf) {
            Ok(n) => {
                sent += n;
                if n < buf.len() {
                    break;
                }
            }
            Err(e) => {
                result = Err(e);
                break;
            }
        }
    }
    stream.set_nonblocking(false)?;
    match result {
        Err(e) if sent == 0 => Err(e),
        _ => Ok(sent),
    }
}

impl io::Read for TcpConn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.stream.read(buf)
    }
}

impl io::Write for TcpConn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.stream.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.stream.flush()
    }
}

impl Conn for TcpConn {
    fn peer_addr(&self) -> String {
        self.peer.clone()
    }

    fn set_read_timeout(&mut self, d: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(d)
    }

    fn readiness(&self) -> Readiness {
        Readiness::Fd(self.stream.as_raw_fd())
    }

    fn enqueue_write(&mut self, bytes: &[u8]) -> io::Result<WriteProgress> {
        self.enqueue(&[IoSlice::new(bytes)], |out, sent| {
            out.push_owned(bytes, sent)
        })
    }

    fn enqueue_write_shared(&mut self, payload: &SharedPayload) -> io::Result<WriteProgress> {
        self.enqueue(&[IoSlice::new(payload)], |out, sent| {
            out.push_shared(payload, sent)
        })
    }

    fn enqueue_write_parts(
        &mut self,
        head: &[u8],
        body: &SharedPayload,
    ) -> io::Result<WriteProgress> {
        self.enqueue(&[IoSlice::new(head), IoSlice::new(body)], |out, sent| {
            out.push_parts(head, body, sent)
        })
    }

    fn pending_out(&self) -> usize {
        self.out.len()
    }

    fn drain_out(&mut self) -> io::Result<WriteProgress> {
        self.drain_nonblocking()
    }

    fn shutdown_write(&mut self) -> io::Result<()> {
        self.stream.shutdown(std::net::Shutdown::Write)
    }
}

/// A TCP listener implementing [`Listener`]. The listening socket is
/// non-blocking for its whole life; [`Listener::accept`] waits for a
/// connection in `poll(2)`, for the accept timeout when one is set and
/// indefinitely otherwise.
pub struct TcpAcceptor {
    listener: TcpListener,
    timeout: Mutex<Option<Duration>>,
}

impl TcpAcceptor {
    /// Binds to `addr` (use port 0 for an ephemeral port).
    pub fn bind(addr: &str) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(TcpAcceptor {
            listener,
            timeout: Mutex::new(None),
        })
    }

    /// Waits until the listener has a connection to accept, or `left`
    /// has passed, or a signal interrupts the wait; the caller tries
    /// `accept` again in every case.
    fn wait_acceptable(&self, left: Option<Duration>) -> io::Result<()> {
        crate::poller::wait_readable(self.listener.as_raw_fd(), left)
    }

    /// Raises the kernel listen backlog above the std default (128).
    ///
    /// Under overload, clients whose connections were shed reconnect in
    /// bursts; on a saturated host the acceptor thread drains the
    /// backlog in scheduling slices, and a 128-deep queue overflows
    /// between slices — dropped SYNs then stall each client in a
    /// full retransmission timeout. A deeper backlog absorbs the burst
    /// so reconnects fail fast (governor) or get served, never hang.
    /// On Linux, `listen(2)` on an already-listening socket just
    /// updates the backlog.
    pub fn set_backlog(&self, backlog: u32) -> io::Result<()> {
        extern "C" {
            fn listen(sockfd: std::ffi::c_int, backlog: std::ffi::c_int) -> std::ffi::c_int;
        }
        let rc = unsafe {
            listen(
                self.listener.as_raw_fd(),
                backlog.min(i32::MAX as u32) as std::ffi::c_int,
            )
        };
        if rc == 0 {
            Ok(())
        } else {
            Err(io::Error::last_os_error())
        }
    }
}

/// Wraps a freshly accepted socket. Linux's `accept4` never passes the
/// listener's `O_NONBLOCK` on; the BSDs' `accept` does, so there it is
/// cleared. A peer that has already reset can make `TCP_NODELAY` fail;
/// that is the connection's first read's error to report, not the
/// listener's.
fn accepted(stream: TcpStream) -> io::Result<Box<dyn Conn>> {
    #[cfg(not(target_os = "linux"))]
    stream.set_nonblocking(false)?;
    let _ = stream.set_nodelay(true);
    Ok(Box::new(TcpConn::new(stream)))
}

impl Listener for TcpAcceptor {
    fn accept(&self) -> io::Result<Box<dyn Conn>> {
        let deadline = (*self.timeout.lock()).map(|d| Instant::now() + d);
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => return accepted(stream),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    let left = deadline.map(|d| d.saturating_duration_since(Instant::now()));
                    if left == Some(Duration::ZERO) {
                        return Err(io::Error::new(io::ErrorKind::TimedOut, "accept timed out"));
                    }
                    self.wait_acceptable(left)?;
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn set_accept_timeout(&self, d: Option<Duration>) {
        *self.timeout.lock() = d;
    }

    fn local_addr(&self) -> String {
        self.listener
            .local_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| "<unknown>".into())
    }
}

/// A UDP socket implementing [`Datagram`].
pub struct UdpDatagram {
    socket: UdpSocket,
}

impl UdpDatagram {
    pub fn bind(addr: &str) -> io::Result<Self> {
        Ok(UdpDatagram {
            socket: UdpSocket::bind(addr)?,
        })
    }
}

impl Datagram for UdpDatagram {
    fn send_to(&self, buf: &[u8], addr: &str) -> io::Result<usize> {
        self.socket.send_to(buf, addr)
    }

    fn recv_from(
        &self,
        buf: &mut [u8],
        timeout: Option<Duration>,
    ) -> io::Result<Option<(usize, String)>> {
        self.socket.set_read_timeout(timeout)?;
        match self.socket.recv_from(buf) {
            Ok((n, from)) => Ok(Some((n, from.to_string()))),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }

    fn local_addr(&self) -> String {
        self.socket
            .local_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| "<unknown>".into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::thread;

    #[test]
    fn tcp_round_trip() {
        let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
        let addr = acceptor.local_addr();
        let t = thread::spawn(move || {
            let mut c = TcpConn::connect(&addr).unwrap();
            c.write_all(b"ping").unwrap();
            let mut buf = [0u8; 4];
            c.read_exact(&mut buf).unwrap();
            buf
        });
        let mut server = acceptor.accept().unwrap();
        let mut buf = [0u8; 4];
        server.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");
        server.write_all(b"pong").unwrap();
        assert_eq!(&t.join().unwrap(), b"pong");
    }

    #[test]
    fn tcp_accept_timeout() {
        let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
        let timeout = Duration::from_millis(30);
        acceptor.set_accept_timeout(Some(timeout));
        let t0 = Instant::now();
        let err = acceptor.accept().err().unwrap();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        assert!(
            t0.elapsed() >= timeout,
            "timed out early: {:?}",
            t0.elapsed()
        );
    }

    /// Timed or not, the acceptor sleeps in the kernel until a connect
    /// arrives, however late, and returns it without sitting out the
    /// rest of its timeout.
    #[test]
    fn tcp_accept_wakes_on_connect() {
        for timeout in [None, Some(Duration::from_secs(5))] {
            let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
            acceptor.set_accept_timeout(timeout);
            let addr = acceptor.local_addr();
            let delay = Duration::from_millis(80);
            let t = thread::spawn(move || {
                thread::sleep(delay);
                TcpStream::connect(addr).unwrap()
            });
            let t0 = Instant::now();
            let server = acceptor.accept().unwrap();
            let waited = t0.elapsed();
            assert!(waited >= delay / 2, "returned before the connect");
            assert!(waited < Duration::from_secs(2), "{timeout:?}: {waited:?}");
            let client = t.join().unwrap();
            assert_eq!(server.peer_addr(), client.local_addr().unwrap().to_string());
        }
    }

    /// `O_NONBLOCK` belongs to the open file description, which a
    /// duplicated descriptor shares: a writer that flipped it around
    /// each send would make a blocking `read` on the clone fail with
    /// `WouldBlock` whenever the read began mid-flip. The peer trickles
    /// bytes so the reader keeps re-entering `read` while the writer
    /// sends without pause.
    #[test]
    fn blocking_read_on_a_clone_never_sees_would_block() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut reader, _) = listener.accept().unwrap();
        let mut writer = TcpConn::new(reader.try_clone().unwrap());
        let stop = Arc::new(AtomicBool::new(false));

        let reading = thread::spawn(move || {
            let mut buf = [0u8; 64];
            loop {
                match reader.read(&mut buf) {
                    Ok(0) => return Ok(()),
                    Ok(_) => {}
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
        });
        let mut peer_in = peer.try_clone().unwrap();
        let discarding = thread::spawn(move || {
            let mut buf = [0u8; 4096];
            while matches!(peer_in.read(&mut buf), Ok(n) if n > 0) {}
        });
        let trickling = {
            let stop = stop.clone();
            thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    peer.write_all(b".").unwrap();
                    thread::yield_now();
                }
                peer.shutdown(std::net::Shutdown::Write).unwrap();
            })
        };

        let until = Instant::now() + Duration::from_secs(1);
        while Instant::now() < until {
            writer.enqueue_write(b"0123456789abcdef").unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        trickling.join().unwrap();
        let read_result = reading.join().unwrap();
        assert!(read_result.is_ok(), "blocking read failed: {read_result:?}");
        drop(writer);
        discarding.join().unwrap();
    }

    #[test]
    fn udp_round_trip() {
        let a = UdpDatagram::bind("127.0.0.1:0").unwrap();
        let b = UdpDatagram::bind("127.0.0.1:0").unwrap();
        a.send_to(b"tick", &b.local_addr()).unwrap();
        let mut buf = [0u8; 16];
        let (n, from) = b
            .recv_from(&mut buf, Some(Duration::from_secs(1)))
            .unwrap()
            .unwrap();
        assert_eq!(&buf[..n], b"tick");
        assert_eq!(from, a.local_addr());
    }

    #[test]
    fn udp_timeout_returns_none() {
        let a = UdpDatagram::bind("127.0.0.1:0").unwrap();
        let mut buf = [0u8; 4];
        assert!(a
            .recv_from(&mut buf, Some(Duration::from_millis(20)))
            .unwrap()
            .is_none());
    }
}
