//! TCP transport with length-prefixed framing.
//!
//! Cross-device pipeline edges use this transport: a [`TcpListenerHandle`]
//! accepts any number of peers and funnels their frames into one receiver
//! (matching ZeroMQ PULL semantics), and [`TcpSender`] is the connecting
//! side. Frames carry a `u32` length prefix; both directions run the
//! zero-copy wire path — receivers reassemble frames in pooled chunks via
//! [`StreamDecoder`] so payloads are shared slices of the read buffer, and
//! senders stage frames in a [`FrameBatch`] flushed with vectored writes so
//! a whole coalesced burst (see [`CoalescePolicy`]) is one syscall with no
//! payload copy.

use crate::error::NetError;
use crate::pool::BufferPool;
use crate::wire::{FrameBatch, StreamDecoder, WireMessage};
use crate::{MsgReceiver, MsgSender};
use crossbeam::channel::{unbounded, Receiver, Sender, TryRecvError};
use parking_lot::Mutex;
use std::io::Read;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A bound TCP endpoint: accepts peers in the background and exposes their
/// merged frame stream as a [`MsgReceiver`].
pub struct TcpListenerHandle {
    local_port: u16,
    rx: Receiver<WireMessage>,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl TcpListenerHandle {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port).
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn bind(addr: &str) -> Result<Self, NetError> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_port = listener.local_addr()?.port();
        let (tx, rx) = unbounded();
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let accept_thread = std::thread::Builder::new()
            .name(format!("vp-tcp-accept-{local_port}"))
            .spawn(move || accept_loop(listener, tx, flag))
            .expect("spawn accept thread");
        Ok(TcpListenerHandle {
            local_port,
            rx,
            shutdown,
            accept_thread: Some(accept_thread),
        })
    }

    /// The port actually bound (useful with port 0).
    pub fn local_port(&self) -> u16 {
        self.local_port
    }

    /// Requests shutdown of the accept loop (reader threads end when their
    /// peers disconnect).
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }
}

impl Drop for TcpListenerHandle {
    fn drop(&mut self) {
        self.shutdown();
        if let Some(handle) = self.accept_thread.take() {
            // The accept loop polls every few ms; joining is quick.
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for TcpListenerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpListenerHandle")
            .field("local_port", &self.local_port)
            .finish_non_exhaustive()
    }
}

fn accept_loop(listener: TcpListener, tx: Sender<WireMessage>, shutdown: Arc<AtomicBool>) {
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let tx = tx.clone();
                let flag = Arc::clone(&shutdown);
                let _ = std::thread::Builder::new()
                    .name("vp-tcp-reader".into())
                    .spawn(move || reader_loop(stream, tx, flag));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => break,
        }
    }
}

fn reader_loop(mut stream: TcpStream, tx: Sender<WireMessage>, shutdown: Arc<AtomicBool>) {
    // Blocking reads with a timeout so shutdown is honoured. Bytes land
    // directly in the decoder's pooled chunk; decoded payloads are
    // zero-copy slices of it.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let mut decoder = StreamDecoder::new(Arc::new(BufferPool::default()));
    while !shutdown.load(Ordering::SeqCst) {
        let space = decoder.read_space();
        if space.is_empty() {
            break; // corrupt stream
        }
        match stream.read(space) {
            Ok(0) => break, // clean EOF
            Ok(n) => {
                decoder.commit(n);
                while let Some(msg) = decoder.next_frame() {
                    if tx.send(msg).is_err() {
                        return; // receiver dropped
                    }
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => break, // disconnect
        }
    }
}

impl MsgReceiver for TcpListenerHandle {
    fn recv(&self) -> Result<WireMessage, NetError> {
        self.rx.recv().map_err(|_| NetError::Disconnected)
    }

    fn try_recv(&self) -> Result<WireMessage, NetError> {
        self.rx.try_recv().map_err(|e| match e {
            TryRecvError::Empty => NetError::WouldBlock,
            TryRecvError::Disconnected => NetError::Disconnected,
        })
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<WireMessage, NetError> {
        self.rx.recv_timeout(timeout).map_err(|e| match e {
            crossbeam::channel::RecvTimeoutError::Timeout => NetError::Timeout,
            crossbeam::channel::RecvTimeoutError::Disconnected => NetError::Disconnected,
        })
    }
}

/// Reconnect behaviour for a [`TcpSender`].
///
/// With a policy installed, `send` never surfaces a disconnect: messages are
/// buffered (up to `buffer_limit`, oldest dropped first) while the sender
/// re-dials the peer with exponential backoff. Without one, a broken pipe is
/// reported as a typed [`NetError::Disconnected`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReconnectPolicy {
    /// Delay before the first re-dial after a failed attempt.
    pub base_backoff: Duration,
    /// Ceiling for the doubling backoff.
    pub max_backoff: Duration,
    /// Messages buffered while disconnected; beyond this the oldest is
    /// dropped (and counted) — bounded memory, like a ZeroMQ high-water mark.
    pub buffer_limit: usize,
}

impl Default for ReconnectPolicy {
    fn default() -> Self {
        ReconnectPolicy {
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(500),
            buffer_limit: 1024,
        }
    }
}

/// Small-message coalescing for a [`TcpSender`].
///
/// With a policy installed, messages are staged in the sender and flushed
/// as one vectored batch write when the pending bytes reach `max_bytes`
/// or the oldest staged message has waited `max_delay` (a background
/// flusher honours the deadline when sends pause). Trades a bounded,
/// sub-millisecond latency hit for one syscall per batch instead of one
/// per message — the classic Nagle trade, but with an explicit budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoalescePolicy {
    /// Flush once the staged batch reaches this many bytes.
    pub max_bytes: usize,
    /// Flush no later than this after the first message was staged.
    pub max_delay: Duration,
    /// Ceiling on I/O slices per vectored write (≈ 2 per frame: header +
    /// payload). Bounds per-syscall setup cost and stays well under the
    /// kernel's `IOV_MAX`.
    pub max_iovecs: usize,
}

impl Default for CoalescePolicy {
    fn default() -> Self {
        CoalescePolicy {
            max_bytes: 16 * 1024,
            max_delay: Duration::from_micros(500),
            max_iovecs: DEFAULT_MAX_IOVECS,
        }
    }
}

/// Default iovec ceiling per vectored write.
pub const DEFAULT_MAX_IOVECS: usize = 64;

/// Ceiling on a single batch write: bounds the bytes that can be torn or
/// resent around a mid-batch disconnect.
const FLUSH_CHUNK: usize = 64 * 1024;

/// Everything about the connection that changes over its lifetime.
struct SenderState {
    stream: Option<TcpStream>,
    /// Staged frames awaiting the wire: headers pre-encoded into pooled
    /// arenas, payloads shared — flushed with vectored writes.
    batch: FrameBatch,
    /// When the oldest staged message was queued (coalescing deadline).
    batch_since: Option<Instant>,
    next_attempt: Instant,
    backoff: Duration,
}

impl SenderState {
    fn new(stream: Option<TcpStream>) -> Self {
        SenderState {
            stream,
            batch: FrameBatch::new(),
            batch_since: None,
            next_attempt: Instant::now(),
            backoff: Duration::from_millis(5),
        }
    }

    fn clear_backlog(&mut self) {
        self.batch.clear();
        self.batch_since = None;
    }
}

/// State and counters shared with the background deadline flusher.
struct SenderShared {
    state: Mutex<SenderState>,
    dropped: AtomicU64,
    reconnects: AtomicU64,
    /// Vectored writes issued (each is one batch of frame segments).
    wire_writes: AtomicU64,
    /// Messages those writes carried.
    wire_messages: AtomicU64,
    /// Iovec ceiling per write (from [`CoalescePolicy::max_iovecs`]).
    max_iovecs: AtomicUsize,
}

impl SenderShared {
    /// Writes as much of the backlog as the connection accepts, in order,
    /// flushing vectored batches of up to [`FLUSH_CHUNK`] bytes. On a
    /// disconnect-flavoured error the stream is dropped and the unsent
    /// tail stays staged for the next attempt, with the front frame's
    /// write cursor rewound so the replacement connection sees it whole.
    fn flush(&self, state: &mut SenderState) -> Result<(), NetError> {
        let max_iovecs = self.max_iovecs.load(Ordering::Relaxed);
        let mut lost = false;
        while !state.batch.is_empty() {
            let Some(stream) = state.stream.as_mut() else {
                break;
            };
            match state.batch.write_some(stream, FLUSH_CHUNK, max_iovecs) {
                Ok((completed, _bytes)) => {
                    self.wire_writes.fetch_add(1, Ordering::Relaxed);
                    self.wire_messages
                        .fetch_add(completed as u64, Ordering::Relaxed);
                }
                Err(e) if is_disconnect(e.kind()) => {
                    lost = true;
                    break;
                }
                Err(e) => return Err(NetError::Io(e)),
            }
        }
        if state.batch.is_empty() {
            state.batch_since = None;
        }
        if lost {
            state.stream = None;
            state.batch.reset_cursor();
            state.next_attempt = Instant::now();
        }
        Ok(())
    }
}

/// True for the error kinds a dead peer produces on write.
fn is_disconnect(kind: std::io::ErrorKind) -> bool {
    matches!(
        kind,
        std::io::ErrorKind::BrokenPipe
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::NotConnected
            | std::io::ErrorKind::UnexpectedEof
    )
}

/// The connecting side of a TCP edge.
pub struct TcpSender {
    shared: Arc<SenderShared>,
    peer: String,
    reconnect: Option<ReconnectPolicy>,
    coalesce: Option<CoalescePolicy>,
    stop_flusher: Arc<AtomicBool>,
    flusher: Option<std::thread::JoinHandle<()>>,
}

impl TcpSender {
    /// Connects to `addr` (`host:port`).
    ///
    /// # Errors
    ///
    /// Propagates connection errors.
    pub fn connect(addr: &str) -> Result<Self, NetError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(TcpSender {
            shared: Arc::new(SenderShared {
                state: Mutex::new(SenderState::new(Some(stream))),
                dropped: AtomicU64::new(0),
                reconnects: AtomicU64::new(0),
                wire_writes: AtomicU64::new(0),
                wire_messages: AtomicU64::new(0),
                max_iovecs: AtomicUsize::new(DEFAULT_MAX_IOVECS),
            }),
            peer: addr.to_string(),
            reconnect: None,
            coalesce: None,
            stop_flusher: Arc::new(AtomicBool::new(false)),
            flusher: None,
        })
    }

    /// Connects, retrying for up to `timeout` (used when the bind side races
    /// the connect side during deployment).
    ///
    /// # Errors
    ///
    /// Returns the last connection error after the deadline.
    pub fn connect_retry(addr: &str, timeout: Duration) -> Result<Self, NetError> {
        let deadline = Instant::now() + timeout;
        loop {
            match Self::connect(addr) {
                Ok(sender) => return Ok(sender),
                Err(e) => {
                    if Instant::now() >= deadline {
                        return Err(e);
                    }
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        }
    }

    /// Installs a reconnect policy: mid-stream disconnects buffer and
    /// re-dial instead of erroring.
    #[must_use]
    pub fn with_reconnect(mut self, policy: ReconnectPolicy) -> Self {
        self.shared.state.lock().backoff = policy.base_backoff;
        self.reconnect = Some(policy);
        self
    }

    /// Installs a coalescing policy and starts the background deadline
    /// flusher; see [`CoalescePolicy`].
    #[must_use]
    pub fn with_coalescing(mut self, policy: CoalescePolicy) -> Self {
        self.coalesce = Some(policy);
        self.shared
            .max_iovecs
            .store(policy.max_iovecs.max(1), Ordering::Relaxed);
        let shared = Arc::clone(&self.shared);
        let stop = Arc::clone(&self.stop_flusher);
        // Tick well inside the deadline so a staged batch overshoots
        // `max_delay` by at most ~half a tick.
        let tick = (policy.max_delay / 2).max(Duration::from_micros(100));
        let flusher = std::thread::Builder::new()
            .name("vp-tcp-flush".into())
            .spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    std::thread::sleep(tick);
                    let mut state = shared.state.lock();
                    if state.stream.is_none() || state.batch.is_empty() {
                        continue;
                    }
                    let expired = state
                        .batch_since
                        .is_some_and(|since| since.elapsed() >= policy.max_delay);
                    if expired {
                        // Errors surface on the caller's next send.
                        let _ = shared.flush(&mut state);
                    }
                }
            })
            .expect("spawn tcp flusher thread");
        self.flusher = Some(flusher);
        self
    }

    /// The peer address.
    pub fn peer(&self) -> &str {
        &self.peer
    }

    /// Messages dropped because the reconnect buffer overflowed.
    pub fn dropped_frames(&self) -> u64 {
        self.shared.dropped.load(Ordering::Relaxed)
    }

    /// Successful re-dials after a mid-stream disconnect.
    pub fn reconnects(&self) -> u64 {
        self.shared.reconnects.load(Ordering::Relaxed)
    }

    /// Messages currently buffered awaiting a flush or reconnect.
    pub fn buffered(&self) -> usize {
        self.shared.state.lock().batch.len()
    }

    /// Vectored stream writes issued so far (each carries one batch of
    /// one or more frames).
    pub fn wire_writes(&self) -> u64 {
        self.shared.wire_writes.load(Ordering::Relaxed)
    }

    /// Messages carried by those writes.
    pub fn wire_messages(&self) -> u64 {
        self.shared.wire_messages.load(Ordering::Relaxed)
    }

    /// Flushes any staged batch immediately (coalescing senders).
    ///
    /// # Errors
    ///
    /// Propagates encode and I/O errors, as [`MsgSender::send`] does.
    pub fn flush_now(&self) -> Result<(), NetError> {
        let mut state = self.shared.state.lock();
        self.shared.flush(&mut state)
    }

    /// Severs the current connection (chaos testing): the next send either
    /// reports [`NetError::Disconnected`] or, with a reconnect policy,
    /// buffers and re-dials. Returns whether a live connection was cut.
    pub fn inject_disconnect(&self) -> bool {
        let mut state = self.shared.state.lock();
        state.next_attempt = Instant::now();
        // Any partially-written front frame must replay whole on the next
        // connection.
        state.batch.reset_cursor();
        if let Some(policy) = &self.reconnect {
            state.backoff = policy.base_backoff;
        }
        match state.stream.take() {
            Some(stream) => {
                let _ = stream.shutdown(Shutdown::Both);
                true
            }
            None => false,
        }
    }

    /// Attempts to (re-)establish the connection if the backoff allows it.
    fn try_redial(&self, state: &mut SenderState, policy: &ReconnectPolicy) {
        let now = Instant::now();
        if state.stream.is_some() || now < state.next_attempt {
            return;
        }
        match TcpStream::connect(&self.peer) {
            Ok(stream) => {
                let _ = stream.set_nodelay(true);
                state.stream = Some(stream);
                state.backoff = policy.base_backoff;
                self.shared.reconnects.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                state.next_attempt = now + state.backoff;
                state.backoff = (state.backoff * 2).min(policy.max_backoff);
            }
        }
    }
}

impl Drop for TcpSender {
    fn drop(&mut self) {
        self.stop_flusher.store(true, Ordering::SeqCst);
        if let Some(handle) = self.flusher.take() {
            let _ = handle.join();
        }
        // Best-effort: push any staged batch out before the socket closes.
        let mut state = self.shared.state.lock();
        let _ = self.shared.flush(&mut state);
    }
}

impl std::fmt::Debug for TcpSender {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpSender")
            .field("peer", &self.peer)
            .field("reconnect", &self.reconnect)
            .field("coalesce", &self.coalesce)
            .finish()
    }
}

impl MsgSender for TcpSender {
    fn send(&self, msg: WireMessage) -> Result<(), NetError> {
        let mut state = self.shared.state.lock();
        // Without a reconnect policy a dead connection fails fast with a
        // typed error so callers can react.
        if self.reconnect.is_none() && state.stream.is_none() {
            return Err(NetError::Disconnected);
        }
        if state.batch.is_empty() {
            state.batch_since = Some(Instant::now());
        }
        // Staging encodes the header now, so an unencodable message fails
        // here — at its own call site — and the batch is untouched.
        state.batch.stage(&msg)?;
        if let Some(policy) = &self.reconnect {
            if state.batch.len() > policy.buffer_limit && state.batch.drop_front().is_some() {
                self.shared.dropped.fetch_add(1, Ordering::Relaxed);
            }
            self.try_redial(&mut state, policy);
        }
        // Coalescing: hold the batch back while it is both small and
        // young; the background flusher honours the deadline.
        if let Some(policy) = &self.coalesce {
            if state.stream.is_some()
                && state.batch.pending_bytes() < policy.max_bytes
                && state
                    .batch_since
                    .is_some_and(|since| since.elapsed() < policy.max_delay)
            {
                return Ok(());
            }
        }
        let result = self.shared.flush(&mut state);
        if self.reconnect.is_none() && state.stream.is_none() {
            // The write died mid-stream: report it and do not replay the
            // backlog into a future connection nobody asked for.
            state.clear_backlog();
            return Err(NetError::Disconnected);
        }
        result
    }
}

/// A non-blocking poll-mode TCP ingress: the same wire format as
/// [`TcpListenerHandle`], but with *zero* background threads. One caller —
/// typically a reactor I/O thread multiplexing many endpoints — drives
/// [`PollEndpoint::poll`], which accepts pending peers, drains whatever
/// bytes the kernel has buffered, and emits every completed frame into the
/// provided sink. Each connection reads straight into a pooled
/// [`StreamDecoder`] chunk — decoded payloads are zero-copy slices of the
/// read buffer — and partial frames persist across calls, so frames may
/// arrive byte-by-byte without ever blocking the poller.
pub struct PollEndpoint {
    listener: TcpListener,
    local_port: u16,
    conns: Vec<PollConn>,
    accepted: u64,
    pool: Arc<BufferPool>,
    /// Set when `accept` failed hard (e.g. EMFILE): until then the
    /// endpoint neither accepts nor offers the listener for readiness
    /// waits, since the unaccepted peer keeps it readable.
    accept_paused_until: Option<Instant>,
}

/// How long a [`PollEndpoint`] stops accepting after `accept` fails with
/// anything but `WouldBlock`. The failed peer stays in the backlog, so the
/// listener stays readable: retrying at once would spin a readiness loop.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

struct PollConn {
    stream: TcpStream,
    decoder: StreamDecoder,
}

impl PollEndpoint {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) in non-blocking mode with a
    /// private buffer pool.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn bind(addr: &str) -> Result<Self, NetError> {
        Self::bind_with_pool(addr, Arc::new(BufferPool::default()))
    }

    /// Binds `addr` drawing read chunks from `pool` — endpoints multiplexed
    /// on one I/O thread share a pool so chunks recycle across connections.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn bind_with_pool(addr: &str, pool: Arc<BufferPool>) -> Result<Self, NetError> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_port = listener.local_addr()?.port();
        Ok(PollEndpoint {
            listener,
            local_port,
            conns: Vec::new(),
            accepted: 0,
            pool,
            accept_paused_until: None,
        })
    }

    /// The port actually bound (useful with port 0).
    pub fn local_port(&self) -> u16 {
        self.local_port
    }

    /// Currently open peer connections.
    pub fn connections(&self) -> usize {
        self.conns.len()
    }

    /// Peers accepted over the endpoint's lifetime.
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// One poll pass: accepts pending peers, reads every connection until
    /// the kernel has nothing more, and feeds each completed frame to
    /// `sink`. Dead or corrupt connections are dropped. Never blocks;
    /// returns the number of frames delivered (0 means "nothing ready —
    /// come back later").
    pub fn poll(&mut self, sink: &mut dyn FnMut(WireMessage)) -> usize {
        self.poll_budget(usize::MAX, sink)
    }

    /// Like [`PollEndpoint::poll`], but stops reading once `budget` frames
    /// have been delivered in this pass. A shared I/O thread multiplexing
    /// many endpoints uses this so one firehose peer cannot pin the poll
    /// loop while its siblings starve; undelivered bytes stay in the
    /// kernel socket buffer (and the reassembly buffer) for the next pass.
    pub fn poll_budget(&mut self, budget: usize, sink: &mut dyn FnMut(WireMessage)) -> usize {
        if self
            .accept_paused_until
            .is_some_and(|until| Instant::now() >= until)
        {
            self.accept_paused_until = None;
        }
        while self.accept_paused_until.is_none() {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if stream.set_nonblocking(true).is_ok() {
                        let _ = stream.set_nodelay(true);
                        self.accepted += 1;
                        self.conns.push(PollConn {
                            stream,
                            decoder: StreamDecoder::new(Arc::clone(&self.pool)),
                        });
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::Interrupted | std::io::ErrorKind::ConnectionAborted
                    ) =>
                {
                    continue
                }
                Err(_) => self.accept_paused_until = Some(Instant::now() + ACCEPT_BACKOFF),
            }
        }
        let mut delivered = 0usize;
        self.conns.retain_mut(|conn| {
            if delivered >= budget {
                return true;
            }
            // Frames decoded but undelivered by an earlier budget-capped
            // pass must drain even when the kernel has nothing new to read.
            while delivered < budget {
                match conn.decoder.next_frame() {
                    Some(msg) => {
                        sink(msg);
                        delivered += 1;
                    }
                    None => break,
                }
            }
            if conn.decoder.is_corrupt() {
                // Good frames decoded before the poison point deliver
                // first; once the queue is dry the connection goes.
                return conn.decoder.pending_frames() > 0;
            }
            loop {
                if delivered >= budget {
                    // Budget exhausted mid-pass: keep the connection and
                    // whatever the kernel still holds for the next pass.
                    return true;
                }
                // Read straight into the decoder's pooled chunk: no
                // intermediate stack buffer, no copy into a reassembly Vec.
                let space = conn.decoder.read_space();
                if space.is_empty() {
                    break;
                }
                match conn.stream.read(space) {
                    Ok(0) => {
                        // Clean EOF: flush complete frames already decoded
                        // (up to the budget), then drop the connection —
                        // unless the budget cut the flush short, in which
                        // case it stays for the next pass.
                        while delivered < budget {
                            match conn.decoder.next_frame() {
                                Some(msg) => {
                                    sink(msg);
                                    delivered += 1;
                                }
                                None => break,
                            }
                        }
                        return conn.decoder.pending_frames() > 0;
                    }
                    Ok(n) => {
                        conn.decoder.commit(n);
                        while delivered < budget {
                            match conn.decoder.next_frame() {
                                Some(msg) => {
                                    sink(msg);
                                    delivered += 1;
                                }
                                None => break,
                            }
                        }
                        if conn.decoder.is_corrupt() {
                            return conn.decoder.pending_frames() > 0;
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => return false,
                }
            }
            true
        });
        delivered
    }

    /// Appends the descriptors a readiness wait on this endpoint watches:
    /// every open connection, plus the listener unless accepting is paused
    /// (see [`PollEndpoint::accept_paused_until`]). A connection that hung
    /// up or failed reports ready, and the next poll pass drops it.
    pub fn append_fds(&self, fds: &mut Vec<RawFd>) {
        if self.accept_paused_until.is_none() {
            fds.push(self.listener.as_raw_fd());
        }
        fds.extend(self.conns.iter().map(|conn| conn.stream.as_raw_fd()));
    }

    /// When `accept` failed hard on the last pass (e.g. EMFILE), the
    /// instant the endpoint tries again; a readiness wait should end by
    /// then, since the listener is left out of
    /// [`PollEndpoint::append_fds`] until a poll pass after it.
    pub fn accept_paused_until(&self) -> Option<Instant> {
        self.accept_paused_until
    }
}

impl std::fmt::Debug for PollEndpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PollEndpoint")
            .field("local_port", &self.local_port)
            .field("connections", &self.conns.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::{Bytes, BytesMut};
    use std::io::Write;

    #[test]
    fn end_to_end_over_loopback() {
        let listener = TcpListenerHandle::bind("127.0.0.1:0").unwrap();
        let addr = format!("127.0.0.1:{}", listener.local_port());
        let sender = TcpSender::connect_retry(&addr, Duration::from_secs(2)).unwrap();
        for i in 0..10u64 {
            sender
                .send(WireMessage::data(
                    "mod_b",
                    i,
                    i * 10,
                    Bytes::from(vec![i as u8; 100]),
                ))
                .unwrap();
        }
        for i in 0..10u64 {
            let msg = listener.recv_timeout(Duration::from_secs(2)).unwrap();
            assert_eq!(msg.seq, i);
            assert_eq!(msg.payload.len(), 100);
        }
    }

    #[test]
    fn multiple_senders_merge() {
        let listener = TcpListenerHandle::bind("127.0.0.1:0").unwrap();
        let addr = format!("127.0.0.1:{}", listener.local_port());
        let s1 = TcpSender::connect_retry(&addr, Duration::from_secs(2)).unwrap();
        let s2 = TcpSender::connect_retry(&addr, Duration::from_secs(2)).unwrap();
        s1.send(WireMessage::signal("x", 1)).unwrap();
        s2.send(WireMessage::signal("x", 2)).unwrap();
        let mut seqs = vec![
            listener.recv_timeout(Duration::from_secs(2)).unwrap().seq,
            listener.recv_timeout(Duration::from_secs(2)).unwrap().seq,
        ];
        seqs.sort_unstable();
        assert_eq!(seqs, vec![1, 2]);
    }

    #[test]
    fn connect_to_dead_port_fails() {
        // Bind then drop to find a (very likely) free port.
        let port = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().port()
        };
        assert!(TcpSender::connect(&format!("127.0.0.1:{port}")).is_err());
    }

    #[test]
    fn large_payload_roundtrip() {
        let listener = TcpListenerHandle::bind("127.0.0.1:0").unwrap();
        let addr = format!("127.0.0.1:{}", listener.local_port());
        let sender = TcpSender::connect_retry(&addr, Duration::from_secs(2)).unwrap();
        let payload = Bytes::from(vec![7u8; 512 * 1024]);
        sender
            .send(WireMessage::data("m", 0, 0, payload.clone()))
            .unwrap();
        let msg = listener.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(msg.payload, payload);
    }

    #[test]
    fn try_recv_empty_then_message() {
        let listener = TcpListenerHandle::bind("127.0.0.1:0").unwrap();
        assert!(matches!(listener.try_recv(), Err(NetError::WouldBlock)));
        let addr = format!("127.0.0.1:{}", listener.local_port());
        let sender = TcpSender::connect_retry(&addr, Duration::from_secs(2)).unwrap();
        sender.send(WireMessage::signal("s", 9)).unwrap();
        // Poll until the reader thread delivers.
        let msg = listener.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(msg.seq, 9);
    }

    #[test]
    fn shutdown_is_clean() {
        let listener = TcpListenerHandle::bind("127.0.0.1:0").unwrap();
        let port = listener.local_port();
        drop(listener); // must not hang
                        // Port becomes reusable shortly after.
        let _ = port;
    }

    #[test]
    fn mid_stream_listener_death_is_a_typed_error() {
        let listener = TcpListenerHandle::bind("127.0.0.1:0").unwrap();
        let addr = format!("127.0.0.1:{}", listener.local_port());
        let sender = TcpSender::connect_retry(&addr, Duration::from_secs(2)).unwrap();
        sender.send(WireMessage::signal("x", 0)).unwrap();
        assert_eq!(
            listener.recv_timeout(Duration::from_secs(2)).unwrap().seq,
            0
        );
        // Kill the listener mid-stream: the reader thread exits and the
        // peer socket closes underneath the sender.
        drop(listener);
        // The kernel may accept a few writes into its buffer before the
        // reset surfaces; keep sending until the failure shows up.
        let deadline = Instant::now() + Duration::from_secs(5);
        let err = loop {
            match sender.send(WireMessage::signal("x", 1)) {
                Ok(()) => {
                    assert!(Instant::now() < deadline, "disconnect never surfaced");
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => break e,
            }
        };
        assert!(
            matches!(err, NetError::Disconnected),
            "expected Disconnected, got {err:?}"
        );
        // Once detected, subsequent sends fail fast.
        assert!(matches!(
            sender.send(WireMessage::signal("x", 2)),
            Err(NetError::Disconnected)
        ));
    }

    #[test]
    fn reconnect_policy_survives_mid_stream_disconnect() {
        let listener = TcpListenerHandle::bind("127.0.0.1:0").unwrap();
        let addr = format!("127.0.0.1:{}", listener.local_port());
        let sender = TcpSender::connect_retry(&addr, Duration::from_secs(2))
            .unwrap()
            .with_reconnect(ReconnectPolicy {
                base_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(20),
                buffer_limit: 64,
            });
        sender.send(WireMessage::signal("x", 0)).unwrap();
        assert_eq!(
            listener.recv_timeout(Duration::from_secs(2)).unwrap().seq,
            0
        );

        assert!(sender.inject_disconnect());
        // Sends during the outage buffer instead of erroring, and the
        // sender re-dials the (still listening) peer with backoff.
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut seq = 1u64;
        let received = loop {
            sender.send(WireMessage::signal("x", seq)).unwrap();
            seq += 1;
            match listener.recv_timeout(Duration::from_millis(20)) {
                Ok(msg) => break msg,
                Err(_) => assert!(Instant::now() < deadline, "never reconnected"),
            }
        };
        // In-order delivery resumes from the buffered backlog.
        assert_eq!(received.seq, 1);
        assert!(sender.reconnects() >= 1);
        assert_eq!(sender.dropped_frames(), 0);
    }

    #[test]
    fn coalescing_batches_small_messages_into_fewer_writes() {
        let listener = TcpListenerHandle::bind("127.0.0.1:0").unwrap();
        let addr = format!("127.0.0.1:{}", listener.local_port());
        let sender = TcpSender::connect_retry(&addr, Duration::from_secs(2))
            .unwrap()
            .with_coalescing(CoalescePolicy {
                max_bytes: 4 * 1024,
                max_delay: Duration::from_millis(5),
                ..CoalescePolicy::default()
            });
        for i in 0..100u64 {
            sender.send(WireMessage::signal("x", i)).unwrap();
        }
        // Everything arrives, in order.
        for i in 0..100u64 {
            let msg = listener.recv_timeout(Duration::from_secs(2)).unwrap();
            assert_eq!(msg.seq, i);
        }
        assert_eq!(sender.wire_messages(), 100);
        assert!(
            sender.wire_writes() < 100,
            "100 small messages took {} writes — nothing coalesced",
            sender.wire_writes()
        );
    }

    #[test]
    fn coalescing_deadline_flushes_a_lone_message() {
        let listener = TcpListenerHandle::bind("127.0.0.1:0").unwrap();
        let addr = format!("127.0.0.1:{}", listener.local_port());
        let sender = TcpSender::connect_retry(&addr, Duration::from_secs(2))
            .unwrap()
            .with_coalescing(CoalescePolicy {
                max_bytes: 1024 * 1024,
                max_delay: Duration::from_millis(2),
                ..CoalescePolicy::default()
            });
        // One message, far below max_bytes: only the deadline can flush it.
        sender.send(WireMessage::signal("x", 7)).unwrap();
        let msg = listener.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(msg.seq, 7);
    }

    #[test]
    fn coalescing_oversized_batch_flushes_inline() {
        let listener = TcpListenerHandle::bind("127.0.0.1:0").unwrap();
        let addr = format!("127.0.0.1:{}", listener.local_port());
        let sender = TcpSender::connect_retry(&addr, Duration::from_secs(2))
            .unwrap()
            .with_coalescing(CoalescePolicy {
                max_bytes: 256,
                // A deadline long enough that only the size trigger can
                // explain a prompt flush.
                max_delay: Duration::from_secs(30),
                ..CoalescePolicy::default()
            });
        let payload = Bytes::from(vec![3u8; 512]);
        sender.send(WireMessage::data("m", 1, 0, payload)).unwrap();
        let msg = listener.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(msg.seq, 1);
        assert_eq!(msg.payload.len(), 512);
    }

    #[test]
    fn coalescing_composes_with_reconnect() {
        let listener = TcpListenerHandle::bind("127.0.0.1:0").unwrap();
        let addr = format!("127.0.0.1:{}", listener.local_port());
        let sender = TcpSender::connect_retry(&addr, Duration::from_secs(2))
            .unwrap()
            .with_reconnect(ReconnectPolicy {
                base_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(20),
                buffer_limit: 256,
            })
            .with_coalescing(CoalescePolicy {
                max_bytes: 4 * 1024,
                max_delay: Duration::from_millis(2),
                ..CoalescePolicy::default()
            });
        sender.send(WireMessage::signal("x", 0)).unwrap();
        assert_eq!(
            listener.recv_timeout(Duration::from_secs(2)).unwrap().seq,
            0
        );
        assert!(sender.inject_disconnect());
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut seq = 1u64;
        let received = loop {
            sender.send(WireMessage::signal("x", seq)).unwrap();
            seq += 1;
            match listener.recv_timeout(Duration::from_millis(20)) {
                Ok(msg) => break msg,
                Err(_) => assert!(Instant::now() < deadline, "never reconnected"),
            }
        };
        assert_eq!(received.seq, 1, "backlog must replay in order");
        assert!(sender.reconnects() >= 1);
        assert_eq!(sender.dropped_frames(), 0);
    }

    #[test]
    fn poll_endpoint_merges_peers_without_threads() {
        let mut ep = PollEndpoint::bind("127.0.0.1:0").unwrap();
        let addr = format!("127.0.0.1:{}", ep.local_port());
        let s1 = TcpSender::connect_retry(&addr, Duration::from_secs(2)).unwrap();
        let s2 = TcpSender::connect_retry(&addr, Duration::from_secs(2)).unwrap();
        for i in 0..50u64 {
            s1.send(WireMessage::signal("a", i)).unwrap();
            s2.send(WireMessage::signal("b", i)).unwrap();
        }
        let mut got = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        while got.len() < 100 {
            assert!(Instant::now() < deadline, "only {} frames", got.len());
            let n = ep.poll(&mut |msg| got.push(msg));
            if n == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        assert_eq!(ep.connections(), 2);
        assert_eq!(ep.accepted(), 2);
        // Per-peer ordering survives the merge.
        let a: Vec<u64> = got
            .iter()
            .filter(|m| m.channel == "a")
            .map(|m| m.seq)
            .collect();
        let b: Vec<u64> = got
            .iter()
            .filter(|m| m.channel == "b")
            .map(|m| m.seq)
            .collect();
        assert_eq!(a, (0..50).collect::<Vec<_>>());
        assert_eq!(b, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn poll_endpoint_fds_signal_data_and_hangup_then_go_quiet() {
        use crate::sys::wait_readable;
        let wait = Some(Duration::from_secs(5));
        let mut ep = PollEndpoint::bind("127.0.0.1:0").unwrap();
        let mut fds = Vec::new();
        ep.append_fds(&mut fds);
        assert_eq!(fds.len(), 1, "an idle endpoint watches only its listener");
        let mut raw = TcpStream::connect(format!("127.0.0.1:{}", ep.local_port())).unwrap();
        crate::wire::write_frame(&mut raw, &WireMessage::signal("x", 7)).unwrap();
        // Readiness alone drives the endpoint: every wait ends because a
        // descriptor is ready (the pending peer, then its bytes).
        let mut got = Vec::new();
        while got.is_empty() {
            fds.clear();
            ep.append_fds(&mut fds);
            assert!(wait_readable(&fds, wait).unwrap() > 0, "no readiness");
            ep.poll(&mut |m| got.push(m));
        }
        assert_eq!(got[0].seq, 7);
        assert_eq!(ep.connections(), 1);
        // A hang-up is readiness too; the next pass drops the connection,
        // and afterwards nothing is ready, so a waiter blocks.
        drop(raw);
        fds.clear();
        ep.append_fds(&mut fds);
        assert_eq!(fds.len(), 2);
        assert!(
            wait_readable(&fds, wait).unwrap() > 0,
            "hang-up not reported"
        );
        assert_eq!(ep.poll(&mut |_| {}), 0);
        assert_eq!(ep.connections(), 0);
        fds.clear();
        ep.append_fds(&mut fds);
        assert_eq!(
            wait_readable(&fds, Some(Duration::from_millis(50))).unwrap(),
            0
        );
        assert_eq!(ep.accept_paused_until(), None);
    }

    #[test]
    fn poll_budget_caps_one_pass_without_losing_frames() {
        let mut ep = PollEndpoint::bind("127.0.0.1:0").unwrap();
        let addr = format!("127.0.0.1:{}", ep.local_port());
        let sender = TcpSender::connect_retry(&addr, Duration::from_secs(2)).unwrap();
        for i in 0..50u64 {
            sender.send(WireMessage::signal("x", i)).unwrap();
        }
        // Wait until a full budgeted pass actually hits the cap, proving
        // the kernel had more buffered than one pass was allowed to take.
        let mut got = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let n = ep.poll_budget(10, &mut |m| got.push(m));
            assert!(n <= 10, "budgeted pass delivered {n} frames");
            if n == 10 {
                break;
            }
            assert!(Instant::now() < deadline, "budget cap never reached");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(ep.connections(), 1, "capped pass must keep the peer");
        // The remainder drains across later passes with nothing lost and
        // per-peer ordering intact.
        while got.len() < 50 {
            assert!(Instant::now() < deadline, "only {} frames", got.len());
            if ep.poll_budget(10, &mut |m| got.push(m)) == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        let seqs: Vec<u64> = got.iter().map(|m| m.seq).collect();
        assert_eq!(seqs, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn poll_endpoint_reassembles_split_frames() {
        let mut ep = PollEndpoint::bind("127.0.0.1:0").unwrap();
        let addr = format!("127.0.0.1:{}", ep.local_port());
        let mut raw = TcpStream::connect(&addr).unwrap();
        raw.set_nodelay(true).unwrap();
        let msg = WireMessage::data("chan", 42, 7, Bytes::from(vec![9u8; 300]));
        let mut framed = BytesMut::new();
        msg.encode_framed_into(&mut framed).unwrap();
        // Dribble the frame one byte at a time across many poll passes.
        let mut got = Vec::new();
        for byte in framed.iter() {
            raw.write_all(&[*byte]).unwrap();
            raw.flush().unwrap();
            ep.poll(&mut |m| got.push(m));
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while got.is_empty() {
            assert!(Instant::now() < deadline, "frame never reassembled");
            ep.poll(&mut |m| got.push(m));
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].seq, 42);
        assert_eq!(got[0].payload.len(), 300);
    }

    #[test]
    fn poll_endpoint_drops_corrupt_connection() {
        let mut ep = PollEndpoint::bind("127.0.0.1:0").unwrap();
        let addr = format!("127.0.0.1:{}", ep.local_port());
        let mut raw = TcpStream::connect(&addr).unwrap();
        // An implausible length prefix (beyond MAX_FRAME_LEN).
        raw.write_all(&u32::MAX.to_be_bytes()).unwrap();
        raw.flush().unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            ep.poll(&mut |_| panic!("no frame should decode"));
            if ep.accepted() == 1 && ep.connections() == 0 {
                break; // accepted, then dropped as corrupt
            }
            assert!(Instant::now() < deadline, "corrupt peer never dropped");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn poll_endpoint_handles_peer_disconnect() {
        let mut ep = PollEndpoint::bind("127.0.0.1:0").unwrap();
        let addr = format!("127.0.0.1:{}", ep.local_port());
        let sender = TcpSender::connect_retry(&addr, Duration::from_secs(2)).unwrap();
        sender.send(WireMessage::signal("x", 1)).unwrap();
        drop(sender);
        let mut got = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        while got.is_empty() || ep.connections() > 0 {
            assert!(Instant::now() < deadline, "disconnect never processed");
            ep.poll(&mut |m| got.push(m));
            std::thread::sleep(Duration::from_millis(1));
        }
        // The in-flight frame still arrived before the close was seen.
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].seq, 1);
    }

    #[test]
    fn reconnect_buffer_is_bounded_and_counts_drops() {
        // Connect to a real listener, then kill it so re-dials fail and the
        // buffer can only grow.
        let listener = TcpListenerHandle::bind("127.0.0.1:0").unwrap();
        let addr = format!("127.0.0.1:{}", listener.local_port());
        let sender = TcpSender::connect_retry(&addr, Duration::from_secs(2))
            .unwrap()
            .with_reconnect(ReconnectPolicy {
                base_backoff: Duration::from_millis(50),
                max_backoff: Duration::from_millis(50),
                buffer_limit: 8,
            });
        drop(listener);
        sender.inject_disconnect();
        for i in 0..20u64 {
            sender.send(WireMessage::signal("x", i)).unwrap();
        }
        assert!(
            sender.buffered() <= 8,
            "buffer grew to {}",
            sender.buffered()
        );
        assert!(sender.dropped_frames() >= 12 - 8);
    }
}
