//! Bounded buffer pools for the allocation-free hot path.
//!
//! Two recycling loops keep the steady-state event path off the
//! allocator:
//!
//! * [`BytePool`] recycles `Vec<u8>` payload buffers: servers check one
//!   out, serialize a small message or a response *head* into it, hand
//!   it to [`crate::ConnDriver::submit_write_buf`] or
//!   [`crate::ConnDriver::submit_response`], and the driver returns it
//!   to the pool once the transport has taken (or buffered) the bytes.
//! * [`BatchPool`] recycles the event vectors the reactor ships to the
//!   driver: one `Vec<DriverEvent>` per `wait` round travels through
//!   the channel and comes back empty when the consumer unpacks it.
//!
//! Both pools are bounded (a burst allocates, the steady state reuses)
//! and drop oversized buffers so one huge message cannot pin its
//! high-water mark forever.
//!
//! Bytes that many writes share — one encoded result multicast to N
//! connections, or a static file served to every client that asks for
//! it — travel as a [`SharedPayload`], a reference-counted buffer:
//! every [`crate::ConnDriver::submit_write_shared`] or
//! [`crate::ConnDriver::submit_response`] holds a clone while the
//! bytes sit in that connection's output buffer, and a pool-sealed
//! buffer returns to its pool exactly once, when the last drain (or
//! connection teardown) drops the last clone. [`OutBuf`] is the
//! segment-queue output buffer transports use so a blocked shared
//! write buffers a *reference*, never a copy; its gather view
//! ([`OutBuf::io_slices`]) lets a transport hand several queued
//! segments to one `sendmsg`.

use parking_lot::Mutex;
use std::collections::VecDeque;
use std::io::IoSlice;
use std::sync::Arc;

/// A bounded stack of reusable `Vec<u8>` buffers.
pub struct BytePool {
    bufs: Mutex<Vec<Vec<u8>>>,
    /// Maximum buffers retained (excess returns are dropped).
    max_pooled: usize,
    /// Buffers whose capacity grew past this are dropped instead of
    /// pooled, so a one-off giant response does not stay resident.
    max_capacity: usize,
}

impl BytePool {
    pub fn new(max_pooled: usize, max_capacity: usize) -> Self {
        BytePool {
            bufs: Mutex::new(Vec::new()),
            max_pooled,
            max_capacity,
        }
    }

    /// Checks out an empty buffer (pooled capacity when available).
    pub fn take(&self) -> Vec<u8> {
        self.bufs.lock().pop().unwrap_or_default()
    }

    /// Returns a buffer to the pool. The contents are cleared; the
    /// capacity is kept for the next checkout unless it exceeds the
    /// pool's bound.
    pub fn put(&self, mut buf: Vec<u8>) {
        if buf.capacity() > self.max_capacity {
            return;
        }
        buf.clear();
        let mut bufs = self.bufs.lock();
        if bufs.len() < self.max_pooled {
            bufs.push(buf);
        }
    }

    /// Buffers currently resident in the pool (test hook).
    pub fn pooled(&self) -> usize {
        self.bufs.lock().len()
    }

    /// Seals an encoded buffer into a refcounted [`SharedPayload`].
    ///
    /// The buffer returns to this pool exactly once, when the final
    /// clone of the payload is dropped — no matter how many
    /// connections the payload was submitted to or which thread
    /// (reactor, drain helper, driver) releases last.
    pub fn seal(self: &Arc<Self>, bytes: Vec<u8>) -> SharedPayload {
        SharedPayload(Arc::new(PayloadCell {
            bytes,
            pool: Some(Arc::clone(self)),
        }))
    }
}

/// An immutable, refcounted payload buffer.
///
/// One encode, N submissions: the driver clones the payload into each
/// connection's [`OutBuf`] instead of copying the bytes, so the
/// per-publish payload-copy count stays at 1 regardless of subscriber
/// count. Pool-sealed payloads (see [`BytePool::seal`]) recycle their
/// buffer on last drop; [`SharedPayload::detached`] (also
/// `From<Vec<u8>>`) wraps a buffer that is simply freed — a document
/// root's file, a dynamic page — without copying it.
#[derive(Clone)]
pub struct SharedPayload(Arc<PayloadCell>);

struct PayloadCell {
    bytes: Vec<u8>,
    pool: Option<Arc<BytePool>>,
}

impl Drop for PayloadCell {
    fn drop(&mut self) {
        if let Some(pool) = self.pool.take() {
            pool.put(std::mem::take(&mut self.bytes));
        }
    }
}

impl SharedPayload {
    /// Wraps bytes without a backing pool (dropped, not recycled).
    pub fn detached(bytes: Vec<u8>) -> Self {
        SharedPayload(Arc::new(PayloadCell { bytes, pool: None }))
    }

    /// Live references to the underlying buffer (test hook).
    pub fn ref_count(&self) -> usize {
        Arc::strong_count(&self.0)
    }
}

impl From<Vec<u8>> for SharedPayload {
    fn from(bytes: Vec<u8>) -> Self {
        SharedPayload::detached(bytes)
    }
}

impl std::ops::Deref for SharedPayload {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.0.bytes
    }
}

impl std::fmt::Debug for SharedPayload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedPayload")
            .field("len", &self.0.bytes.len())
            .field("refs", &Arc::strong_count(&self.0))
            .finish()
    }
}

/// A transport output buffer holding a queue of byte segments.
///
/// Owned segments hold copied tails of plain writes; shared segments
/// hold an [`SharedPayload`] reference, so buffering a blocked shared
/// write costs one `Arc` clone rather than a copy. Transports drain
/// front-to-back: one segment at a time via [`OutBuf::front`], or
/// several per `sendmsg` via [`OutBuf::io_slices`], then
/// [`OutBuf::advance`] past what the transport took.
#[derive(Default)]
pub struct OutBuf {
    segs: VecDeque<OutSeg>,
    /// Bytes of the front segment already written.
    front_pos: usize,
    /// Total unwritten bytes across all segments.
    len: usize,
}

enum OutSeg {
    Owned(Vec<u8>),
    Shared(SharedPayload),
}

impl OutSeg {
    fn bytes(&self) -> &[u8] {
        match self {
            OutSeg::Owned(v) => v,
            OutSeg::Shared(p) => p,
        }
    }
}

impl OutBuf {
    pub fn new() -> Self {
        OutBuf::default()
    }

    /// Unwritten bytes buffered.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Buffers a copy of `bytes[from..]`, coalescing into the trailing
    /// owned segment when there is one (keeps the segment count bounded
    /// under streams of small plain writes).
    pub fn push_owned(&mut self, bytes: &[u8], from: usize) {
        let tail = &bytes[from..];
        if tail.is_empty() {
            return;
        }
        self.len += tail.len();
        if let Some(OutSeg::Owned(last)) = self.segs.back_mut() {
            last.extend_from_slice(tail);
            return;
        }
        self.segs.push_back(OutSeg::Owned(tail.to_vec()));
    }

    /// Buffers a reference to `payload`, with the first `from` bytes
    /// already written.
    pub fn push_shared(&mut self, payload: &SharedPayload, from: usize) {
        debug_assert!(from <= payload.len());
        if from >= payload.len() {
            return;
        }
        self.len += payload.len() - from;
        if self.segs.is_empty() {
            self.front_pos = from;
        } else {
            debug_assert_eq!(from, 0, "only the front segment can be mid-write");
        }
        self.segs.push_back(OutSeg::Shared(payload.clone()));
    }

    /// Buffers what a gather write of `[head, body]` left unwritten
    /// after the transport took the first `written` bytes: a copy of the
    /// head's tail (if the write stopped inside it) and a reference to
    /// `body` at its offset. `written` is 0 unless the buffer was empty
    /// (nothing is written ahead of bytes already queued).
    pub fn push_parts(&mut self, head: &[u8], body: &SharedPayload, written: usize) {
        self.push_owned(head, written.min(head.len()));
        self.push_shared(body, written.saturating_sub(head.len()));
    }

    /// The unwritten remainder of the front segment.
    pub fn front(&self) -> Option<&[u8]> {
        self.segs.front().map(|s| &s.bytes()[self.front_pos..])
    }

    /// The gather view: fills `dst` with the unwritten bytes of the
    /// front segments, in order, and returns `(slices, bytes)` filled.
    /// Segments past `dst.len()` wait for the next call.
    pub fn io_slices<'a>(&'a self, dst: &mut [IoSlice<'a>]) -> (usize, usize) {
        let filled = dst.len().min(self.segs.len());
        let mut bytes = 0;
        for (i, (slot, seg)) in dst.iter_mut().zip(&self.segs).enumerate() {
            let from = if i == 0 { self.front_pos } else { 0 };
            let part = &seg.bytes()[from..];
            bytes += part.len();
            *slot = IoSlice::new(part);
        }
        (filled, bytes)
    }

    /// Marks the first `n` buffered bytes written, releasing every
    /// segment (and its shared-payload reference) that `n` exhausts.
    pub fn advance(&mut self, mut n: usize) {
        assert!(n <= self.len, "advance past end of OutBuf");
        self.len -= n;
        while n > 0 {
            let front = self.segs.front().expect("len covers n");
            let remaining = front.bytes().len() - self.front_pos;
            if n < remaining {
                self.front_pos += n;
                return;
            }
            n -= remaining;
            self.segs.pop_front();
            self.front_pos = 0;
        }
    }

    /// Drops every buffered segment (releases shared references).
    pub fn clear(&mut self) {
        self.segs.clear();
        self.front_pos = 0;
        self.len = 0;
    }
}

impl Default for BytePool {
    /// 32 buffers of up to 64 KiB each (2 MiB resident at most). What
    /// is serialized into a pooled buffer is small: a response head, a
    /// pub/sub line, a BitTorrent block reply (16 KiB plus its header).
    /// Bodies travel as [`SharedPayload`]s and never pass through here.
    fn default() -> Self {
        BytePool::new(32, 64 * 1024)
    }
}

/// A bounded stack of reusable event vectors (see module docs).
pub(crate) struct BatchPool<T> {
    bufs: Mutex<Vec<Vec<T>>>,
    max_pooled: usize,
}

impl<T> BatchPool<T> {
    pub(crate) fn new(max_pooled: usize) -> Self {
        BatchPool {
            bufs: Mutex::new(Vec::new()),
            max_pooled,
        }
    }

    pub(crate) fn take(&self) -> Vec<T> {
        self.bufs.lock().pop().unwrap_or_default()
    }

    pub(crate) fn put(&self, mut buf: Vec<T>) {
        buf.clear();
        let mut bufs = self.bufs.lock();
        if bufs.len() < self.max_pooled {
            bufs.push(buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_pool_recycles_capacity() {
        let pool = BytePool::new(4, 1024);
        let mut b = pool.take();
        b.extend_from_slice(&[1, 2, 3]);
        let cap = b.capacity();
        pool.put(b);
        let b2 = pool.take();
        assert!(b2.is_empty(), "recycled buffer comes back cleared");
        assert_eq!(b2.capacity(), cap, "capacity survives the round trip");
    }

    #[test]
    fn byte_pool_drops_oversized_and_excess() {
        let pool = BytePool::new(2, 64);
        pool.put(Vec::with_capacity(1024)); // over max_capacity: dropped
        assert_eq!(pool.pooled(), 0);
        pool.put(Vec::with_capacity(16));
        pool.put(Vec::with_capacity(16));
        pool.put(Vec::with_capacity(16)); // over max_pooled: dropped
        assert_eq!(pool.pooled(), 2);
    }

    #[test]
    fn shared_payload_returns_to_pool_on_last_drop() {
        let pool = Arc::new(BytePool::new(4, 1024));
        let payload = pool.seal(b"hello".to_vec());
        let clone = payload.clone();
        assert_eq!(&*payload, b"hello");
        assert_eq!(payload.ref_count(), 2);
        drop(payload);
        assert_eq!(pool.pooled(), 0, "live clone keeps the buffer out");
        drop(clone);
        assert_eq!(pool.pooled(), 1, "last drop recycles exactly once");
    }

    #[test]
    fn detached_payload_has_no_pool() {
        let p = SharedPayload::detached(vec![1, 2, 3]);
        assert_eq!(&*p, &[1, 2, 3]);
        assert_eq!(p.ref_count(), 1);
    }

    #[test]
    fn out_buf_interleaves_owned_and_shared() {
        let pool = Arc::new(BytePool::new(4, 1024));
        let payload = pool.seal(b"shared".to_vec());
        let mut out = OutBuf::new();
        out.push_owned(b"abc", 1); // buffers "bc"
        out.push_shared(&payload, 0);
        out.push_owned(b"xy", 0);
        assert_eq!(out.len(), 2 + 6 + 2);
        let mut drained = Vec::new();
        while let Some(front) = out.front() {
            let take = front.len().min(3);
            drained.extend_from_slice(&front[..take]);
            out.advance(take);
        }
        assert_eq!(drained, b"bcsharedxy");
        assert!(out.is_empty());
        drop(payload);
        assert_eq!(pool.pooled(), 1, "drain released the shared segment");
    }

    #[test]
    fn out_buf_partial_front_shared_segment() {
        let payload = SharedPayload::detached(b"0123456789".to_vec());
        let mut out = OutBuf::new();
        out.push_shared(&payload, 4); // first 4 bytes already written
        assert_eq!(out.len(), 6);
        assert_eq!(out.front().unwrap(), b"456789");
        out.advance(2);
        assert_eq!(out.front().unwrap(), b"6789");
        out.clear();
        assert!(out.is_empty());
        assert_eq!(payload.ref_count(), 1, "clear released the reference");
    }

    /// Concatenation of everything the gather view exposes.
    fn gathered(out: &OutBuf) -> Vec<u8> {
        let mut iov = [IoSlice::new(&[]); 64];
        let (k, bytes) = out.io_slices(&mut iov);
        let flat: Vec<u8> = iov[..k].iter().flat_map(|s| s.iter().copied()).collect();
        assert_eq!(flat.len(), bytes);
        flat
    }

    /// Every place a gather write of `[head, body]` can stop — inside
    /// the head, at the boundary, inside the body, at either end —
    /// leaves exactly the unwritten suffix buffered, and the body is
    /// referenced only while some of it is unwritten.
    #[test]
    fn push_parts_buffers_exactly_the_unwritten_suffix() {
        let head = b"HEAD:".to_vec();
        let body = SharedPayload::detached(b"0123456789".to_vec());
        let wire: Vec<u8> = [&head[..], &body[..]].concat();
        for written in 0..=wire.len() {
            let mut out = OutBuf::new();
            out.push_parts(&head, &body, written);
            assert_eq!(out.len(), wire.len() - written, "written={written}");
            assert_eq!(gathered(&out), &wire[written..], "written={written}");
            let body_pending = written < wire.len();
            assert_eq!(body.ref_count(), 1 + body_pending as usize);
        }
        let empty = SharedPayload::detached(Vec::new());
        let mut out = OutBuf::new();
        out.push_parts(&head, &empty, 2);
        assert_eq!(gathered(&out), b"AD:");
        assert_eq!(empty.ref_count(), 1, "an empty body is never queued");
    }

    #[test]
    fn advance_crosses_segment_boundaries() {
        let a = SharedPayload::detached(b"aaaa".to_vec());
        let b = SharedPayload::detached(b"bbbb".to_vec());
        let mut out = OutBuf::new();
        out.push_owned(b"hh", 0);
        out.push_shared(&a, 0);
        out.push_shared(&b, 0);
        out.advance(2 + 4 + 1); // all of the head, all of `a`, one of `b`
        assert_eq!(a.ref_count(), 1, "released with its last byte");
        assert_eq!(b.ref_count(), 2);
        assert_eq!(out.len(), 3);
        assert_eq!(out.front().unwrap(), b"bbb");
        out.advance(3);
        assert!(out.is_empty());
        assert_eq!(b.ref_count(), 1);
        assert!(out.front().is_none());
    }

    #[test]
    fn gather_view_is_bounded_by_the_callers_array() {
        let mut out = OutBuf::new();
        let payloads: Vec<SharedPayload> = (0..5u8)
            .map(|i| SharedPayload::detached(vec![i; 3]))
            .collect();
        for p in &payloads {
            out.push_shared(p, 0);
        }
        out.advance(1);
        let mut iov = [IoSlice::new(&[]); 2];
        assert_eq!(out.io_slices(&mut iov), (2, 2 + 3));
        assert_eq!(&*iov[0], &[0, 0]);
        assert_eq!(&*iov[1], &[1, 1, 1]);
        assert_eq!(OutBuf::new().io_slices(&mut iov), (0, 0));
    }

    mod out_buf_properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Any mix of owned and shared segments (queued before and
            /// between drains), drained through the gather view in
            /// partial writes of any size: the bytes handed out are the
            /// concatenation of what was queued, `len()` is exact after
            /// every step, and a shared payload is released exactly when
            /// its last byte is advanced past — no earlier, no later.
            #[test]
            fn gather_drain_matches_concatenation(seed in 0u64..1_000_000) {
                let mut rng = proptest::test_rng(&format!("outbuf-{seed}"));
                let mut out = OutBuf::new();
                let mut queued: Vec<u8> = Vec::new();
                let mut drained: Vec<u8> = Vec::new();
                // (payload, offset in `queued` one past its last byte)
                let mut shared: Vec<(SharedPayload, usize)> = Vec::new();
                let mut next_byte = 0u8;
                let mut fresh = |n: usize| -> Vec<u8> {
                    (0..n).map(|_| { next_byte = next_byte.wrapping_add(1); next_byte }).collect()
                };
                for _ in 0..40 {
                    match rng.next_u64() % 4 {
                        0 => {
                            let bytes = fresh((rng.next_u64() % 9) as usize);
                            out.push_owned(&bytes, 0);
                            queued.extend_from_slice(&bytes);
                        }
                        1 => {
                            let payload = SharedPayload::detached(fresh((rng.next_u64() % 9) as usize));
                            out.push_shared(&payload, 0);
                            queued.extend_from_slice(&payload);
                            shared.push((payload, queued.len()));
                        }
                        _ => {
                            let mut iov = [IoSlice::new(&[]); 3];
                            let (k, bytes) = out.io_slices(&mut iov);
                            let flat: Vec<u8> =
                                iov[..k].iter().flat_map(|s| s.iter().copied()).collect();
                            prop_assert_eq!(flat.len(), bytes);
                            let take = (rng.next_u64() as usize) % (bytes + 1);
                            drained.extend_from_slice(&flat[..take]);
                            out.advance(take);
                        }
                    }
                    prop_assert_eq!(out.len(), queued.len() - drained.len());
                    prop_assert_eq!(out.is_empty(), queued.len() == drained.len());
                    for (payload, end) in &shared {
                        let held = !payload.is_empty() && drained.len() < *end;
                        prop_assert_eq!(payload.ref_count(), 1 + held as usize,
                            "payload ending at {} with {} drained", end, drained.len());
                    }
                }
                while !out.is_empty() {
                    let mut iov = [IoSlice::new(&[]); 3];
                    let (k, bytes) = out.io_slices(&mut iov);
                    prop_assert!(bytes > 0, "a non-empty buffer exposes bytes");
                    for s in &iov[..k] {
                        drained.extend_from_slice(s);
                    }
                    out.advance(bytes);
                }
                prop_assert_eq!(&drained, &queued);
                for (payload, _) in &shared {
                    prop_assert_eq!(payload.ref_count(), 1);
                }
            }
        }
    }

    /// The default pool still recycles what is serialized into pooled
    /// buffers: a response head and a BitTorrent block reply (13-byte
    /// header + 16 KiB block) — and drops a body-sized buffer.
    #[test]
    fn default_pool_recycles_heads_and_block_replies() {
        let pool = BytePool::default();
        for len in [150, 13 + 16 * 1024] {
            let mut buf = pool.take();
            buf.resize(len, 7);
            pool.put(buf);
            assert_eq!(pool.pooled(), 1, "{len}-byte buffer recycled");
            assert!(pool.take().capacity() >= len);
        }
        pool.put(Vec::with_capacity(256 * 1024));
        assert_eq!(pool.pooled(), 0, "a body-sized buffer is not kept");
    }

    #[test]
    fn out_buf_coalesces_owned_tails() {
        let mut out = OutBuf::new();
        out.push_owned(b"aa", 0);
        out.advance(1);
        out.push_owned(b"bb", 0); // extends the (partially drained) front
        assert_eq!(out.len(), 3);
        assert_eq!(out.front().unwrap(), b"abb");
    }

    #[test]
    fn batch_pool_round_trip() {
        let pool: BatchPool<u32> = BatchPool::new(2);
        let mut v = pool.take();
        v.push(7);
        pool.put(v);
        assert!(pool.take().is_empty());
    }
}
