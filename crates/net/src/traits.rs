//! Transport abstraction: byte-stream connections and listeners.
//!
//! The paper's servers use POSIX sockets directly; this crate puts a thin
//! trait in front so the same server code runs on real TCP (examples,
//! interop) and on a hermetic in-memory transport (tests, benchmarks)
//! with optional link shaping.

use crate::mem::MemEndpoint;
use crate::pool::SharedPayload;
use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

/// How one connection reports readiness to the driver's reactor. Both
/// kinds are armed, delivered and re-armed by the same reactor round.
#[derive(Clone)]
pub enum Readiness {
    /// A socket: the OS poller (`poll(2)`/`epoll(7)`) watches its fd.
    Fd(RawFd),
    /// An in-memory endpoint: once armed, the write (or close) that
    /// makes it readable pushes the connection's token onto the
    /// reactor's ready list.
    Mem(MemEndpoint),
}

impl Readiness {
    /// The file descriptor, for a socket.
    pub fn fd(&self) -> Option<RawFd> {
        match self {
            Readiness::Fd(fd) => Some(*fd),
            Readiness::Mem(_) => None,
        }
    }
}

/// Progress of a buffered (reactor-drained) write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteProgress {
    /// Every byte was handed to the transport; nothing is buffered.
    Complete,
    /// Bytes remain in the connection's output buffer. The owner must
    /// call [`Conn::drain_out`] again when the transport is writable
    /// (the driver arms a write watch on the reactor for this: `POLLOUT`
    /// for a socket, the link shaper's next tokens for a shaped pipe).
    Pending,
}

/// A bidirectional byte stream (one TCP connection or an in-memory
/// duplex pipe).
pub trait Conn: io::Read + io::Write + Send {
    /// Peer address, for logging.
    fn peer_addr(&self) -> String;

    /// Sets the read timeout (None blocks forever).
    fn set_read_timeout(&mut self, d: Option<Duration>) -> io::Result<()>;

    /// Where the driver's reactor learns that this connection is ready.
    fn readiness(&self) -> Readiness;

    /// Queues `bytes` for transmission without blocking the caller.
    ///
    /// Transports that can stall (TCP with a full socket buffer) append
    /// to a per-connection output buffer and return
    /// [`WriteProgress::Pending`] after a partial write; the reactor
    /// then drains the rest via [`Conn::drain_out`] on `POLLOUT`; a
    /// shaped in-memory link buffers what its token bucket cannot pass
    /// yet, and the reactor drains it as tokens accrue. Transports that
    /// cannot stall (the unshaped in-memory pipe) complete the enqueue
    /// synchronously. The default implementation performs a
    /// blocking `write_all`, which is correct for any transport but
    /// forfeits the non-blocking guarantee.
    fn enqueue_write(&mut self, bytes: &[u8]) -> io::Result<WriteProgress> {
        self.write_all(bytes)?;
        self.flush()?;
        Ok(WriteProgress::Complete)
    }

    /// Queues a refcounted payload for transmission without copying.
    ///
    /// Fan-out transports (TCP, in-memory) buffer a clone of the
    /// payload in their segment-queue output buffer when the write
    /// cannot complete immediately, so one encoded buffer serves N
    /// connections; the payload's buffer returns to its pool when the
    /// last connection drains (or drops) it. The default falls back to
    /// the copying [`Conn::enqueue_write`] path.
    fn enqueue_write_shared(&mut self, payload: &SharedPayload) -> io::Result<WriteProgress> {
        self.enqueue_write(payload)
    }

    /// Queues a message in two parts — a small serialized `head` and a
    /// refcounted `body` — as one write, copying neither.
    ///
    /// TCP hands both to a single `sendmsg` and buffers only what the
    /// socket did not take: a copy of the head's unwritten tail and a
    /// *reference* to the body at its offset. This is how a static file
    /// leaves the web server. The default queues the parts one after
    /// the other, which is correct for any transport whose output
    /// buffer is FIFO.
    fn enqueue_write_parts(
        &mut self,
        head: &[u8],
        body: &SharedPayload,
    ) -> io::Result<WriteProgress> {
        self.enqueue_write(head)?;
        self.enqueue_write_shared(body)
    }

    /// Bytes accepted by [`Conn::enqueue_write`] but not yet handed to
    /// the transport.
    fn pending_out(&self) -> usize {
        0
    }

    /// Writes as much of the output buffer as the transport accepts
    /// without blocking (the reactor calls it on writability). Returns [`WriteProgress::Complete`] when the
    /// buffer is empty.
    fn drain_out(&mut self) -> io::Result<WriteProgress> {
        Ok(WriteProgress::Complete)
    }

    /// Closes the write side, signalling EOF to the peer.
    fn shutdown_write(&mut self) -> io::Result<()>;
}

/// Accepts incoming connections.
pub trait Listener: Send {
    /// Waits for the next connection. With an accept timeout configured,
    /// returns `ErrorKind::TimedOut` when none arrives in time.
    fn accept(&self) -> io::Result<Box<dyn Conn>>;

    /// Sets the accept timeout (None blocks forever). Sources use this to
    /// poll their shutdown flag.
    fn set_accept_timeout(&self, d: Option<Duration>);

    /// The address clients connect to.
    fn local_addr(&self) -> String;
}

/// A connectionless datagram socket (UDP or in-memory), used by the game
/// server's 10 Hz heartbeat protocol.
pub trait Datagram: Send + Sync {
    /// Sends one datagram to `addr`.
    fn send_to(&self, buf: &[u8], addr: &str) -> io::Result<usize>;

    /// Receives one datagram; `Ok(None)` on timeout.
    fn recv_from(
        &self,
        buf: &mut [u8],
        timeout: Option<Duration>,
    ) -> io::Result<Option<(usize, String)>>;

    /// The local address peers send to.
    fn local_addr(&self) -> String;
}

/// Reads exactly `buf.len()` bytes or fails.
pub fn read_exact_timeout(
    conn: &mut dyn Conn,
    buf: &mut [u8],
    timeout: Option<Duration>,
) -> io::Result<()> {
    conn.set_read_timeout(timeout)?;
    let mut read = 0;
    while read < buf.len() {
        match conn.read(&mut buf[read..]) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "peer closed mid-message",
                ))
            }
            Ok(n) => read += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}
