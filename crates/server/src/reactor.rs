//! The readiness-driven serving core: one reactor thread multiplexes
//! every connection over `poll(2)` while simulation runs on the shared
//! [`JobPool`](adc_runtime::JobPool).
//!
//! ## Shape
//!
//! * The reactor owns the listener and every [`Conn`]: nonblocking
//!   sockets, an incremental [`FrameAssembler`] per connection, and a
//!   bounded outbound frame queue ([`ConnOut`]) flushed opportunistically
//!   whenever the socket is writable.
//! * Decoded requests either complete inline (`Ping`, `Metrics`, cache
//!   traffic) or park in a bounded per-connection **admission queue**.
//!   A full queue sheds the newest request with a typed
//!   [`ErrorCode::Overloaded`] frame instead of buffering unboundedly.
//! * [`Reactor::dispatch`] drains admission queues round-robin (one
//!   request per connection per round, resuming after the last admitted
//!   connection) into pool jobs, bounded by global and per-connection
//!   in-flight caps. One admitted request is one pool job: it converts
//!   through the exact in-process path, under its own deadline, and
//!   streams its record as soon as it is converted.
//! * A failed `accept(2)` is classified by [`accept_verdict`]: an
//!   aborted handshake is skipped, resource exhaustion (`EMFILE`,
//!   `ENFILE`, `ENOBUFS`, `ENOMEM`) pauses accepting for one poll
//!   round, and only an unknown error stops the server.
//! * Workers never touch sockets: they push encoded frames into the
//!   connection's [`ConnOut`] (blocking on the bound, polling their
//!   deadline) and signal completion through an event list plus a
//!   [`Waker`] byte that interrupts `poll`.
//!
//! ## Correlation
//!
//! Every digitization arrives as a [`SubmitRequest`] under a nonzero
//! client-chosen correlation id, may complete out of order, and has
//! every frame of its answer wrapped in [`Response::Tagged`]. Control
//! requests are answered inline with one untagged frame.
//!
//! ## Determinism
//!
//! Scheduling here decides *when* a record is computed, never *what* it
//! contains: a job derives entirely from its request (preset,
//! overrides, seed, waveform) and runs the same [`run_digitize`] call
//! an in-process capture does. The module is in `adc-lint`'s
//! determinism scope to keep it that way.

use std::collections::{BTreeMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use adc_runtime::{JobCtx, JobError};

use crate::protocol::{
    encode_response, error_code_for_build, DigitizeDone, DigitizeRequest, ErrorCode,
    FrameAssembler, GangedDone, GangedRequest, Request, Response, SubmitBody, SubmitRequest,
    WireError,
};
use crate::server::{
    error_code_for_ganged, run_digitize, run_ganged, run_job_batch, stream_crc, validate,
    validate_ganged, value_stream_crc, ServerConfig, Shared,
};

/// Bytes read from a socket per `read(2)` call.
const READ_CHUNK: usize = 64 * 1024;
/// Outbound bytes staged per `write(2)` call.
const WRITE_CHUNK: usize = 64 * 1024;

/// Minimal `poll(2)` binding — the only system interface the reactor
/// needs beyond std. Kept to one symbol so the surface is auditable.
#[cfg(unix)]
mod sys {
    use std::io;

    /// Mirror of the C `struct pollfd` (identical layout on every
    /// platform std supports).
    #[repr(C)]
    #[derive(Clone, Copy, Debug)]
    pub struct PollFd {
        /// File descriptor to watch.
        pub fd: i32,
        /// Requested readiness events.
        pub events: i16,
        /// Kernel-reported readiness events.
        pub revents: i16,
    }

    /// Readable (or peer-closed) readiness.
    pub const POLLIN: i16 = 0x001;
    /// Writable readiness.
    pub const POLLOUT: i16 = 0x004;

    extern "C" {
        fn poll(
            fds: *mut PollFd,
            nfds: std::ffi::c_ulong,
            timeout: std::ffi::c_int,
        ) -> std::ffi::c_int;
    }

    /// Blocks until a descriptor is ready or `timeout_ms` passes,
    /// retrying on `EINTR`. Returns the ready count.
    pub fn poll_wait(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
        loop {
            // SAFETY: `fds` is a valid exclusive slice of #[repr(C)]
            // pollfd-layout structs for the whole call, and `nfds`
            // matches its length — exactly the poll(2) contract.
            let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as std::ffi::c_ulong, timeout_ms) };
            if rc >= 0 {
                return Ok(rc as usize);
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }
}

/// Wakes the reactor out of `poll` by writing one byte into a
/// socketpair the reactor watches. Cloneable; shared with every worker
/// through every [`Ticket`] and [`ConnOut`].
#[derive(Clone, Debug)]
pub(crate) struct Waker {
    #[cfg(unix)]
    tx: Arc<std::os::unix::net::UnixStream>,
}

impl Waker {
    /// Nudges the reactor. Best-effort: a full pipe already guarantees
    /// a pending wakeup, and a closed one means the reactor is gone.
    pub(crate) fn wake(&self) {
        #[cfg(unix)]
        {
            let _ = (&*self.tx).write_all(&[1u8]);
        }
    }
}

/// The reactor-side read end of the waker channel.
#[cfg(unix)]
pub(crate) type WakerRx = std::os::unix::net::UnixStream;
/// Fallback waker read end on non-unix hosts (the reactor falls back to
/// timeout-tick polling there).
#[cfg(not(unix))]
pub(crate) type WakerRx = ();

/// Builds a connected waker pair, both ends nonblocking.
pub(crate) fn waker_pair() -> io::Result<(Waker, WakerRx)> {
    #[cfg(unix)]
    {
        let (tx, rx) = std::os::unix::net::UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok((Waker { tx: Arc::new(tx) }, rx))
    }
    #[cfg(not(unix))]
    {
        Ok((Waker {}, ()))
    }
}

/// A completion notice a worker posts into [`Shared::events`] before
/// waking the reactor: one request finished (success or failure).
#[derive(Debug)]
pub(crate) struct JobDone {
    /// Connection the request belonged to.
    conn: u64,
    /// `true` when the request held a global in-flight slot (batch jobs
    /// run on their own thread and don't).
    global: bool,
    /// `true` when the request failed (for the error counter).
    failed: bool,
}

/// Outbound frame state for one connection.
struct OutState {
    frames: VecDeque<Vec<u8>>,
    closed: bool,
}

/// The bounded outbound frame queue of one connection — the
/// backpressure mechanism. Workers push (blocking on the bound while
/// polling their deadline); the reactor pops while flushing.
pub(crate) struct ConnOut {
    state: Mutex<OutState>,
    space: Condvar,
    capacity: usize,
    waker: Waker,
}

impl std::fmt::Debug for ConnOut {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConnOut")
            .field("capacity", &self.capacity)
            .finish()
    }
}

impl ConnOut {
    fn new(capacity: usize, waker: Waker) -> Arc<Self> {
        Arc::new(Self {
            state: Mutex::new(OutState {
                frames: VecDeque::new(),
                closed: false,
            }),
            space: Condvar::new(),
            capacity: capacity.max(1),
            waker,
        })
    }

    /// Queues a frame, blocking while the queue is at capacity. Returns
    /// `false` once the connection closed or the job's deadline fired —
    /// the streaming worker must stop.
    fn push_wait(&self, ctx: &JobCtx, frame: Vec<u8>) -> bool {
        let mut state = self.state.lock().expect("conn out lock");
        loop {
            if state.closed {
                return false;
            }
            if state.frames.len() < self.capacity {
                state.frames.push_back(frame);
                drop(state);
                self.waker.wake();
                return true;
            }
            if ctx.timed_out() || ctx.cancelled() {
                return false;
            }
            let (next, _) = self
                .space
                .wait_timeout(state, Duration::from_millis(1))
                .expect("conn out lock");
            state = next;
        }
    }

    /// Queues a frame without blocking or respecting the bound — for
    /// reactor-inline responses and terminal error frames, which must
    /// never stall the reactor thread.
    fn push_now(&self, frame: Vec<u8>) -> bool {
        let mut state = self.state.lock().expect("conn out lock");
        if state.closed {
            return false;
        }
        state.frames.push_back(frame);
        drop(state);
        self.waker.wake();
        true
    }

    /// Takes the oldest queued frame, releasing one unit of
    /// backpressure.
    fn pop(&self) -> Option<Vec<u8>> {
        let mut state = self.state.lock().expect("conn out lock");
        let frame = state.frames.pop_front();
        if frame.is_some() {
            drop(state);
            self.space.notify_all();
        }
        frame
    }

    fn is_empty(&self) -> bool {
        self.state.lock().expect("conn out lock").frames.is_empty()
    }

    /// Marks the connection gone: queued frames are dropped and every
    /// blocked pusher unblocks with `false`.
    fn close(&self) {
        let mut state = self.state.lock().expect("conn out lock");
        state.closed = true;
        state.frames.clear();
        drop(state);
        self.space.notify_all();
    }
}

/// Encodes a response, wrapped in [`Response::Tagged`] for a
/// digitization's nonzero correlation id; control replies pass `0` and
/// travel untagged.
fn wrap(corr: u64, response: Response) -> Vec<u8> {
    if corr == 0 {
        encode_response(&response)
    } else {
        encode_response(&Response::Tagged {
            corr_id: corr,
            inner: Box::new(response),
        })
    }
}

/// A worker's handle for streaming responses to one request: the
/// connection's queue plus the request's correlation id (applied to
/// every frame).
pub(crate) struct ConnSink {
    out: Arc<ConnOut>,
    corr: u64,
}

impl std::fmt::Debug for ConnSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConnSink")
            .field("corr", &self.corr)
            .finish()
    }
}

impl ConnSink {
    /// Queues a response, blocking on backpressure until the deadline
    /// fires or the peer leaves.
    fn send(&self, ctx: &JobCtx, response: Response) -> bool {
        self.out.push_wait(ctx, wrap(self.corr, response))
    }

    /// Queues a response unconditionally (terminal frames).
    fn send_now(&self, response: Response) -> bool {
        self.out.push_now(wrap(self.corr, response))
    }
}

/// One dispatched request's completion obligation. Dropping it posts
/// exactly one [`JobDone`] — also when the job closure unwinds
/// or is dropped unrun, in which case the client first gets a typed
/// `Internal` error — so in-flight accounting can never leak and drain
/// can never hang.
struct Ticket {
    shared: Arc<Shared>,
    conn: u64,
    sink: ConnSink,
    /// `true` when the request holds a global in-flight slot (batch
    /// jobs run on their own thread and don't).
    global: bool,
    /// `Some(failed)` once the job has settled the request.
    failed: Option<bool>,
}

impl Ticket {
    fn new(shared: &Arc<Shared>, conn: u64, sink: ConnSink, global: bool) -> Self {
        Self {
            shared: Arc::clone(shared),
            conn,
            sink,
            global,
            failed: None,
        }
    }

    /// Records the request's outcome and releases its slots.
    fn settle(mut self, failed: bool) {
        self.failed = Some(failed);
    }

    /// Queues a served request's summary frame, then releases it.
    fn finish(self, done: Response) {
        let _ = self.sink.send_now(done);
        self.settle(false);
    }
}

impl Drop for Ticket {
    fn drop(&mut self) {
        let failed = *self.failed.get_or_insert_with(|| {
            let _ = self.sink.send_now(Response::Error {
                code: ErrorCode::Internal,
                detail: "request lost: the serving job unwound".to_string(),
            });
            true
        });
        self.shared
            .events
            .lock()
            .expect("reactor event lock")
            .push(JobDone {
                conn: self.conn,
                global: self.global,
                failed,
            });
        self.shared.waker.wake();
    }
}

/// Per-connection reactor state.
struct Conn {
    stream: TcpStream,
    assembler: FrameAssembler,
    out: Arc<ConnOut>,
    /// Partially-written outbound bytes (staged from `out`).
    wbuf: Vec<u8>,
    wpos: usize,
    /// Admitted requests waiting for an in-flight slot.
    pending: VecDeque<SubmitRequest>,
    /// Requests currently running on the pool (or a batch thread).
    inflight: u32,
    read_closed: bool,
    dead: bool,
}

impl Conn {
    fn has_write_intent(&self) -> bool {
        self.wpos < self.wbuf.len() || !self.out.is_empty()
    }
}

/// The event loop state. Single-threaded: only [`run`] touches it.
struct Reactor {
    shared: Arc<Shared>,
    listener: TcpListener,
    #[cfg_attr(not(unix), allow(dead_code))]
    waker_rx: WakerRx,
    conns: BTreeMap<u64, Conn>,
    next_conn: u64,
    /// Requests holding global in-flight slots: one pool job each.
    inflight: usize,
    /// Pool-depth ceiling: workers + 1 (one job running per worker,
    /// one queued ahead so workers never idle waiting on the reactor).
    /// Holding the rest back in `pending` keeps the order of service
    /// the round-robin dispatch picks, instead of the pool's FIFO.
    pool_cap: usize,
    /// Set when `accept(2)` ran out of a resource: the next `wait`
    /// leaves the listener out of its poll set, so the poll tick is
    /// the back-off before accepting again.
    accept_paused: bool,
    /// Fairness cursor: dispatch resumes after this connection id.
    cursor: u64,
    batch_threads: Vec<std::thread::JoinHandle<()>>,
    scratch: Vec<u8>,
}

/// Runs the reactor until drained: the listener has stopped accepting,
/// every connection has flushed and closed, and every dispatched job
/// has completed.
pub(crate) fn run(listener: TcpListener, waker_rx: WakerRx, shared: Arc<Shared>) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    let pool_cap = shared.pool.threads() + 1;
    let mut reactor = Reactor {
        shared,
        listener,
        waker_rx,
        conns: BTreeMap::new(),
        next_conn: 1,
        inflight: 0,
        pool_cap,
        accept_paused: false,
        cursor: 0,
        batch_threads: Vec::new(),
        scratch: vec![0u8; READ_CHUNK],
    };
    let result = reactor.event_loop();
    for join in reactor.batch_threads.drain(..) {
        let _ = join.join();
    }
    for conn in reactor.conns.values() {
        conn.out.close();
    }
    result
}

impl Reactor {
    fn event_loop(&mut self) -> io::Result<()> {
        loop {
            self.wait()?;
            self.process_events();
            self.accept()?;
            self.read_phase();
            self.dispatch();
            self.write_phase();
            self.reap();
            if self.shared.draining.load(Ordering::SeqCst)
                && self.conns.is_empty()
                && self.inflight == 0
            {
                return Ok(());
            }
        }
    }

    /// Blocks in `poll` until a socket is ready, a worker wakes us, or
    /// the poll tick elapses (the tick bounds drain latency and is the
    /// whole loop on non-unix hosts).
    fn wait(&mut self) -> io::Result<()> {
        let timeout = self.shared.cfg.read_poll;
        #[cfg(unix)]
        {
            use std::os::unix::io::AsRawFd;
            let draining = self.shared.draining.load(Ordering::SeqCst);
            let paused = std::mem::take(&mut self.accept_paused);
            let mut fds = Vec::with_capacity(self.conns.len() + 2);
            fds.push(sys::PollFd {
                fd: self.waker_rx.as_raw_fd(),
                events: sys::POLLIN,
                revents: 0,
            });
            if !draining && !paused {
                fds.push(sys::PollFd {
                    fd: self.listener.as_raw_fd(),
                    events: sys::POLLIN,
                    revents: 0,
                });
            }
            for conn in self.conns.values() {
                if conn.dead {
                    continue;
                }
                let mut events = 0i16;
                if !draining && !conn.read_closed {
                    events |= sys::POLLIN;
                }
                if conn.has_write_intent() {
                    events |= sys::POLLOUT;
                }
                if events == 0 {
                    continue;
                }
                fds.push(sys::PollFd {
                    fd: conn.stream.as_raw_fd(),
                    events,
                    revents: 0,
                });
            }
            let timeout_ms = i32::try_from(timeout.as_millis())
                .unwrap_or(i32::MAX)
                .max(1);
            sys::poll_wait(&mut fds, timeout_ms)?;
            // Drain the waker channel: wakeups are level cleared here,
            // and workers always post state *before* waking, so a
            // drained byte's work is always visible to this iteration.
            let mut sink = [0u8; 64];
            loop {
                match (&self.waker_rx).read(&mut sink) {
                    Ok(0) => break,
                    Ok(_) => continue,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => break,
                }
            }
        }
        #[cfg(not(unix))]
        {
            std::thread::sleep(
                timeout
                    .min(Duration::from_millis(1))
                    .max(Duration::from_micros(100)),
            );
        }
        Ok(())
    }

    /// Applies completion events posted by workers since the last
    /// iteration.
    fn process_events(&mut self) {
        let events = std::mem::take(&mut *self.shared.events.lock().expect("reactor event lock"));
        for done in events {
            if done.global {
                self.inflight = self.inflight.saturating_sub(1);
            }
            if done.failed {
                self.shared.metrics.error();
            }
            if let Some(c) = self.conns.get_mut(&done.conn) {
                c.inflight = c.inflight.saturating_sub(1);
            }
        }
    }

    /// Accepts every pending connection, acting on each failure as
    /// [`accept_verdict`] classifies it.
    fn accept(&mut self) -> io::Result<()> {
        if self.shared.draining.load(Ordering::SeqCst) {
            return Ok(());
        }
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    self.shared.metrics.connection_opened();
                    let id = self.next_conn;
                    self.next_conn += 1;
                    let out = ConnOut::new(
                        self.shared.cfg.write_queue_frames,
                        self.shared.waker.clone(),
                    );
                    self.conns.insert(
                        id,
                        Conn {
                            stream,
                            assembler: FrameAssembler::new(),
                            out,
                            wbuf: Vec::new(),
                            wpos: 0,
                            pending: VecDeque::new(),
                            inflight: 0,
                            read_closed: false,
                            dead: false,
                        },
                    );
                }
                Err(e) => match accept_verdict(&e) {
                    AcceptVerdict::Retry => continue,
                    AcceptVerdict::Drained => return Ok(()),
                    AcceptVerdict::Exhausted => {
                        self.accept_paused = true;
                        return Ok(());
                    }
                    AcceptVerdict::Fatal => return Err(e),
                },
            }
        }
    }

    /// Reads every readable socket to exhaustion, feeding the per-
    /// connection assembler and handling decoded requests.
    fn read_phase(&mut self) {
        if self.shared.draining.load(Ordering::SeqCst) {
            return;
        }
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        for id in ids {
            let mut decoded = Vec::new();
            {
                let Some(conn) = self.conns.get_mut(&id) else {
                    continue;
                };
                if conn.dead || conn.read_closed {
                    continue;
                }
                loop {
                    match conn.stream.read(&mut self.scratch) {
                        Ok(0) => {
                            conn.read_closed = true;
                            break;
                        }
                        Ok(n) => {
                            match ingest(
                                &mut conn.assembler,
                                &self.scratch[..n],
                                self.shared.cfg.max_payload,
                            ) {
                                Ok(requests) => decoded.extend(requests),
                                Err(w) => {
                                    // Framing is lost: report and stop
                                    // reading (resync is impossible on a
                                    // corrupt length-prefixed stream).
                                    self.shared.metrics.error();
                                    let _ = conn.out.push_now(wrap(
                                        0,
                                        Response::Error {
                                            code: ErrorCode::Protocol,
                                            detail: w.to_string(),
                                        },
                                    ));
                                    conn.read_closed = true;
                                    break;
                                }
                            }
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        Err(_) => {
                            conn.dead = true;
                            conn.out.close();
                            break;
                        }
                    }
                }
            }
            for request in decoded {
                self.handle_request(id, request);
            }
        }
    }

    /// Serves one decoded request: inline for control traffic, admission
    /// queue for digitization.
    fn handle_request(&mut self, id: u64, request: Request) {
        let shared = Arc::clone(&self.shared);
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        match request {
            Request::Ping { token } => {
                shared.metrics.ping();
                let _ = conn.out.push_now(wrap(0, Response::Pong { token }));
            }
            Request::Metrics => {
                shared.metrics.metrics_request();
                let snapshot = shared.metrics.snapshot();
                let _ = conn.out.push_now(wrap(0, Response::Metrics(snapshot)));
            }
            Request::Shutdown => {
                // Begin the drain *before* acking: once the client has
                // the ack in hand, `is_draining()` must already be true.
                shared.draining.store(true, Ordering::SeqCst);
                let _ = conn.out.push_now(wrap(0, Response::ShutdownAck));
                conn.read_closed = true;
            }
            Request::Submit(submit) => {
                shared.metrics.digitize();
                let verdict = match &submit.body {
                    SubmitBody::Digitize(req) => validate(req, &shared.cfg),
                    SubmitBody::Ganged(req) => validate_ganged(req, &shared.cfg),
                };
                if let Err(detail) = verdict {
                    shared.metrics.error();
                    let _ = conn.out.push_now(wrap(
                        submit.corr_id,
                        Response::Error {
                            code: ErrorCode::InvalidRequest,
                            detail,
                        },
                    ));
                    return;
                }
                enqueue(conn, &shared, submit);
            }
            Request::JobBatch(req) => {
                shared.metrics.job_batch();
                let Some(runner) = shared.cfg.job_runner.clone() else {
                    shared.metrics.error();
                    let _ = conn.out.push_now(wrap(
                        0,
                        Response::Error {
                            code: ErrorCode::Unsupported,
                            detail: "this host has no job runner registered".to_string(),
                        },
                    ));
                    return;
                };
                conn.inflight += 1;
                let sink = ConnSink {
                    out: Arc::clone(&conn.out),
                    corr: 0,
                };
                let ticket = Ticket::new(&shared, id, sink, false);
                // Batch jobs orchestrate their own pool fan-out and
                // block on cache I/O, so they get a plain thread instead
                // of occupying a pool worker.
                self.batch_threads.push(std::thread::spawn(move || {
                    let result = run_job_batch(&req, &runner, &shared);
                    let delivered = ticket.sink.send_now(Response::JobResult(result));
                    ticket.settle(!delivered);
                }));
            }
            Request::CacheQuery(q) => {
                let cache = shared.caches.for_campaign(&q.campaign);
                let entries: Vec<(u64, String)> = q
                    .keys
                    .iter()
                    .filter_map(|&key| cache.get_line(key).map(|line| (key, line)))
                    .collect();
                let _ = conn.out.push_now(wrap(0, Response::CacheHits { entries }));
            }
            Request::CacheFill(c) => {
                let cache = shared.caches.for_campaign(&c.campaign);
                let mut accepted = 0u32;
                for (key, line) in &c.entries {
                    if cache.get_line(*key).is_none() {
                        cache.put_line(*key, line);
                        accepted += 1;
                    }
                }
                let _ = cache.persist(&c.campaign);
                let _ = conn
                    .out
                    .push_now(wrap(0, Response::CacheFillAck { accepted }));
            }
        }
    }

    /// Moves admitted work onto the pool, one job per request: fair
    /// round-robin across connections, bounded by the global and
    /// per-connection in-flight caps and the pool-depth ceiling.
    fn dispatch(&mut self) {
        let cap = self.shared.cfg.max_inflight.max(1).min(self.pool_cap);
        let per_conn = self.shared.cfg.max_inflight_per_conn.max(1);
        if self.inflight >= cap {
            return;
        }
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        // Resume after the last connection that got a slot so one
        // chatty connection cannot starve the rest.
        let pivot = ids.partition_point(|&id| id <= self.cursor);
        let order: Vec<u64> = ids[pivot..]
            .iter()
            .chain(ids[..pivot].iter())
            .copied()
            .collect();
        loop {
            let mut progressed = false;
            for &id in &order {
                if self.inflight >= cap {
                    return;
                }
                let Some(conn) = self.conns.get_mut(&id) else {
                    continue;
                };
                if conn.dead || conn.inflight as usize >= per_conn {
                    continue;
                }
                let Some(work) = conn.pending.pop_front() else {
                    continue;
                };
                conn.inflight += 1;
                self.inflight += 1;
                self.cursor = id;
                let sink = ConnSink {
                    out: Arc::clone(&conn.out),
                    corr: work.corr_id,
                };
                let ticket = Ticket::new(&self.shared, id, sink, true);
                let deadline_ms = match &work.body {
                    SubmitBody::Digitize(req) => req.deadline_ms,
                    SubmitBody::Ganged(req) => req.deadline_ms,
                };
                let deadline =
                    (deadline_ms > 0).then(|| Duration::from_millis(u64::from(deadline_ms)));
                let cfg = self.shared.cfg.clone();
                // The summary frame goes out from `then`, once the pool
                // has accounted the job: a client holding its whole
                // record never reads metrics still counting the job.
                self.shared.pool.submit_then(
                    deadline,
                    move |ctx| serve_job(&cfg, ctx, ticket, &work.body),
                    |served, _report| {
                        if let Some((ticket, done)) = served {
                            ticket.finish(done);
                        }
                    },
                );
                progressed = true;
            }
            if !progressed {
                return;
            }
        }
    }

    /// Flushes every connection with queued or partially-written
    /// outbound bytes.
    fn write_phase(&mut self) {
        for conn in self.conns.values_mut() {
            if conn.dead {
                continue;
            }
            flush_conn(conn);
            if conn.dead {
                conn.out.close();
            }
        }
    }

    /// Removes finished connections and reaps finished batch threads.
    fn reap(&mut self) {
        let draining = self.shared.draining.load(Ordering::SeqCst);
        let done: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| {
                if c.inflight > 0 {
                    return false;
                }
                if c.dead {
                    return true;
                }
                c.pending.is_empty()
                    && c.wpos >= c.wbuf.len()
                    && c.out.is_empty()
                    && (c.read_closed || draining)
            })
            .map(|(&id, _)| id)
            .collect();
        for id in done {
            if let Some(conn) = self.conns.remove(&id) {
                conn.out.close();
            }
        }
        self.batch_threads.retain(|h| !h.is_finished());
    }
}

/// Parks a request in the connection's admission queue, shedding the
/// newest request with a typed [`ErrorCode::Overloaded`] frame when the
/// queue is full.
fn enqueue(conn: &mut Conn, shared: &Arc<Shared>, work: SubmitRequest) {
    let cap = shared.cfg.max_pending_per_conn.max(1);
    if conn.pending.len() >= cap {
        shared.metrics.overloaded();
        shared.metrics.error();
        let _ = conn.out.push_now(wrap(
            work.corr_id,
            Response::Error {
                code: ErrorCode::Overloaded,
                detail: format!(
                    "admission queue full: {} requests parked on this connection",
                    conn.pending.len()
                ),
            },
        ));
        return;
    }
    conn.pending.push_back(work);
}

/// What the accept loop does after `accept(2)` fails.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum AcceptVerdict {
    /// Interrupted, or the peer gave up on the handshake before it was
    /// accepted: skip that connection and keep accepting.
    Retry,
    /// No connection is pending: accepting is done for this round.
    Drained,
    /// The process or system ran out of descriptors, buffers or
    /// memory: stop accepting and leave the listener out of the next
    /// poll, so the poll tick is the back-off.
    Exhausted,
    /// Anything else: the listener is unusable and the server stops.
    Fatal,
}

/// `errno` values of an `accept(2)` that ran out of a resource:
/// `EMFILE`, `ENFILE`, `ENOMEM` and `ENOBUFS` (105 on Linux, 55 on the
/// BSDs and macOS).
#[cfg(unix)]
const EXHAUSTED_ERRNOS: [i32; 4] = [
    24,
    23,
    12,
    if cfg!(any(target_os = "linux", target_os = "android")) {
        105
    } else {
        55
    },
];
#[cfg(not(unix))]
const EXHAUSTED_ERRNOS: [i32; 0] = [];

/// Classifies an `accept(2)` failure. Pure: the accept loop acts on
/// the verdict, and the unit tests cover every class without a socket.
fn accept_verdict(err: &io::Error) -> AcceptVerdict {
    use io::ErrorKind::{ConnectionAborted, ConnectionReset, Interrupted, OutOfMemory, WouldBlock};
    match err.kind() {
        WouldBlock => AcceptVerdict::Drained,
        Interrupted | ConnectionAborted | ConnectionReset => AcceptVerdict::Retry,
        OutOfMemory => AcceptVerdict::Exhausted,
        _ if err
            .raw_os_error()
            .is_some_and(|errno| EXHAUSTED_ERRNOS.contains(&errno)) =>
        {
            AcceptVerdict::Exhausted
        }
        _ => AcceptVerdict::Fatal,
    }
}

/// Feeds raw socket bytes through the connection's assembler and
/// decodes every complete frame. Pure buffer work — no locks, no I/O,
/// no pool — and panic-free by construction (it is a symbol-level
/// panic root in `adc-lint`).
pub(crate) fn ingest(
    assembler: &mut FrameAssembler,
    bytes: &[u8],
    max_payload: u32,
) -> Result<Vec<Request>, WireError> {
    assembler.extend(bytes);
    let mut requests = Vec::new();
    while let Some((kind, payload)) = assembler.next_frame(max_payload)? {
        requests.push(Request::decode(kind, &payload)?);
    }
    Ok(requests)
}

/// Writes staged bytes to the socket until it would block, refilling
/// the stage from the frame queue in [`WRITE_CHUNK`] pieces.
fn flush_conn(conn: &mut Conn) {
    loop {
        if conn.wpos >= conn.wbuf.len() {
            conn.wbuf.clear();
            conn.wpos = 0;
            while conn.wbuf.len() < WRITE_CHUNK {
                match conn.out.pop() {
                    Some(frame) => conn.wbuf.extend_from_slice(&frame),
                    None => break,
                }
            }
            if conn.wbuf.is_empty() {
                return;
            }
        }
        match conn.stream.write(&conn.wbuf[conn.wpos..]) {
            Ok(0) => {
                conn.dead = true;
                return;
            }
            Ok(n) => conn.wpos += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
}

/// Serves one request through its kind's job, settling its ticket as
/// soon as its stream ends. Runs on a pool worker.
fn serve_job(
    cfg: &ServerConfig,
    ctx: &JobCtx,
    ticket: Ticket,
    body: &SubmitBody,
) -> Result<(Ticket, Response), JobError> {
    let seed = match body {
        SubmitBody::Digitize(req) => req.seed,
        SubmitBody::Ganged(req) => req.seed,
    };
    // Scope span ids to the request's fabrication seed — two server
    // runs serving the same request produce the same span identities.
    let _trace_task = adc_trace::task(seed);
    let _trace_job = adc_trace::span_with("request", ctx.id.0);
    let result = match body {
        SubmitBody::Digitize(req) => digitize_job(req, cfg, ctx, &ticket.sink),
        SubmitBody::Ganged(req) => ganged_job(req, cfg, ctx, &ticket.sink),
    };
    match result {
        Ok(done) => Ok((ticket, done)),
        Err(err) => {
            ticket.settle(true);
            Err(err)
        }
    }
}

/// Sends a request's terminal error frame and returns the job error it
/// stands for.
fn fail(sink: &ConnSink, code: ErrorCode, detail: String) -> Result<Response, JobError> {
    let _ = sink.send_now(Response::Error {
        code,
        detail: detail.clone(),
    });
    Err(match code {
        ErrorCode::TimedOut => JobError::TimedOut,
        _ => JobError::Failed(detail),
    })
}

/// Samples (or values) per streamed batch frame for a request.
fn batch_len(cfg: &ServerConfig, requested: u32) -> usize {
    match requested {
        0 => cfg.default_batch.max(1) as usize,
        n => n as usize,
    }
}

/// Converts one digitize request through [`run_digitize`] and streams
/// its record; returns the summary frame, still to be sent.
fn digitize_job(
    req: &DigitizeRequest,
    cfg: &ServerConfig,
    ctx: &JobCtx,
    sink: &ConnSink,
) -> Result<Response, JobError> {
    if ctx.timed_out() {
        let detail = "deadline expired before simulation started".to_string();
        return fail(sink, ErrorCode::TimedOut, detail);
    }
    let converted = {
        let _trace_digitize = adc_trace::span("digitize");
        run_digitize(req)
    };
    let (codes, f_in_hz) = match converted {
        Ok(result) => result,
        Err(build) => return fail(sink, error_code_for_build(&build), build.to_string()),
    };
    if ctx.timed_out() {
        let detail = "deadline expired during conversion".to_string();
        return fail(sink, ErrorCode::TimedOut, detail);
    }
    let batch = batch_len(cfg, req.batch_size);
    stream_record(
        sink,
        ctx,
        &codes,
        batch,
        |seq, samples| Response::Batch { seq, samples },
        |batches| {
            Response::Done(DigitizeDone {
                total_samples: codes.len() as u32,
                batches,
                f_in_hz,
                stream_crc32: stream_crc(&codes),
            })
        },
    )
}

/// Captures one ganged request through [`run_ganged`] and streams its
/// record; returns the summary frame, still to be sent.
fn ganged_job(
    req: &GangedRequest,
    cfg: &ServerConfig,
    ctx: &JobCtx,
    sink: &ConnSink,
) -> Result<Response, JobError> {
    if ctx.timed_out() {
        let detail = "deadline expired before simulation started".to_string();
        return fail(sink, ErrorCode::TimedOut, detail);
    }
    let capture = {
        let _trace_ganged = adc_trace::span("ganged");
        run_ganged(req)
    };
    let capture = match capture {
        Ok(capture) => capture,
        Err(err) => return fail(sink, error_code_for_ganged(&err), err.to_string()),
    };
    if ctx.timed_out() {
        let detail = "deadline expired during conversion".to_string();
        return fail(sink, ErrorCode::TimedOut, detail);
    }
    let batch = batch_len(cfg, req.batch_size);
    stream_record(
        sink,
        ctx,
        &capture.values,
        batch,
        |seq, values| Response::GangedBatch { seq, values },
        |batches| {
            Response::GangedDone(GangedDone {
                total_samples: capture.values.len() as u32,
                batches,
                f_in_hz: capture.f_in_hz,
                epochs_run: capture.epochs_run,
                converged: capture.converged,
                stream_crc32: value_stream_crc(&capture.values),
            })
        },
    )
}

/// Streams one converted record into its sink as `batch`-sized frames
/// built by `frame`, and returns the summary `done` builds from the
/// batch count (the caller sends it once the job is accounted). The
/// deadline is polled between frames, also while blocked on
/// backpressure.
fn stream_record<T: Copy>(
    sink: &ConnSink,
    ctx: &JobCtx,
    items: &[T],
    batch: usize,
    frame: fn(u32, Vec<T>) -> Response,
    done: impl FnOnce(u32) -> Response,
) -> Result<Response, JobError> {
    let _trace_stream = adc_trace::span("stream");
    let mut batches = 0u32;
    for chunk in items.chunks(batch) {
        if !sink.send(ctx, frame(batches, chunk.to_vec())) {
            let timed_out = ctx.timed_out();
            let _ = sink.send_now(Response::Error {
                code: ErrorCode::TimedOut,
                detail: format!("deadline expired after {batches} batches"),
            });
            return Err(if timed_out {
                JobError::TimedOut
            } else {
                JobError::Failed("client went away mid-stream".to_string())
            });
        }
        batches += 1;
        ctx.record_samples(chunk.len() as u64);
    }
    Ok(done(batches))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::encode_request;
    use adc_runtime::{JobCtx, JobId};

    #[test]
    fn accept_errors_are_classified_by_what_the_loop_can_do() {
        use io::ErrorKind;
        let kind = |k: ErrorKind| accept_verdict(&io::Error::from(k));
        assert_eq!(kind(ErrorKind::WouldBlock), AcceptVerdict::Drained);
        for k in [
            ErrorKind::Interrupted,
            ErrorKind::ConnectionAborted,
            ErrorKind::ConnectionReset,
        ] {
            assert_eq!(kind(k), AcceptVerdict::Retry, "{k:?}");
        }
        assert_eq!(kind(ErrorKind::OutOfMemory), AcceptVerdict::Exhausted);
        for errno in EXHAUSTED_ERRNOS {
            assert_eq!(
                accept_verdict(&io::Error::from_raw_os_error(errno)),
                AcceptVerdict::Exhausted,
                "errno {errno}"
            );
        }
        for k in [
            ErrorKind::PermissionDenied,
            ErrorKind::InvalidInput,
            ErrorKind::Other,
        ] {
            assert_eq!(kind(k), AcceptVerdict::Fatal, "{k:?}");
        }
    }

    #[test]
    fn conn_out_delivers_in_order_and_closes_cleanly() {
        let (waker, _rx) = waker_pair().unwrap();
        let out = ConnOut::new(4, waker);
        assert!(out.push_now(vec![1]));
        assert!(out.push_now(vec![2]));
        assert_eq!(out.pop(), Some(vec![1]));
        assert_eq!(out.pop(), Some(vec![2]));
        assert_eq!(out.pop(), None);
        out.close();
        assert!(!out.push_now(vec![3]), "closed queues reject frames");
        assert!(out.is_empty());
    }

    #[test]
    fn push_wait_applies_backpressure_until_a_pop_frees_space() {
        let (waker, _rx) = waker_pair().unwrap();
        let out = ConnOut::new(1, waker);
        assert!(out.push_now(vec![0])); // fill the single slot
        let ctx = JobCtx::standalone(7, JobId(0));
        let pusher = {
            let out = Arc::clone(&out);
            std::thread::spawn(move || out.push_wait(&ctx, vec![9]))
        };
        // The pusher is blocked on the bound; free a slot and it lands.
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(out.pop(), Some(vec![0]));
        assert!(pusher.join().unwrap());
        assert_eq!(out.pop(), Some(vec![9]));
    }

    #[test]
    fn push_wait_gives_up_when_the_deadline_fires() {
        let (waker, _rx) = waker_pair().unwrap();
        let out = ConnOut::new(1, waker);
        assert!(out.push_now(vec![0])); // fill the single slot, never pop
        let pool = adc_runtime::JobPool::new("reactor-test", 7, 1);
        let blocked = Arc::clone(&out);
        let handle = pool.submit(Some(Duration::ZERO), move |ctx| {
            std::thread::sleep(Duration::from_millis(2));
            if blocked.push_wait(ctx, vec![1]) {
                Ok(1u64)
            } else {
                Err(JobError::TimedOut)
            }
        });
        let (value, report) = handle.wait();
        assert!(value.is_none());
        assert_eq!(report.error, Some(JobError::TimedOut));
        pool.shutdown();
    }

    #[test]
    fn ingest_decodes_pipelined_frames_across_arbitrary_chunk_cuts() {
        let frames: Vec<u8> = [
            encode_request(&Request::Ping { token: 7 }),
            encode_request(&Request::Metrics),
            encode_request(&Request::Ping { token: 9 }),
        ]
        .concat();
        for cut in 1..frames.len() {
            let mut assembler = FrameAssembler::new();
            let mut decoded = Vec::new();
            for chunk in frames.chunks(cut) {
                decoded.extend(ingest(&mut assembler, chunk, 1 << 20).unwrap());
            }
            assert_eq!(decoded.len(), 3, "chunk size {cut}");
            assert_eq!(decoded[0], Request::Ping { token: 7 });
            assert_eq!(decoded[2], Request::Ping { token: 9 });
        }
    }

    #[test]
    fn waker_pair_wakes_and_drains() {
        let (waker, rx) = waker_pair().unwrap();
        waker.wake();
        waker.wake();
        #[cfg(unix)]
        {
            let mut buf = [0u8; 8];
            let n = (&rx).read(&mut buf).unwrap();
            assert!(n >= 1);
        }
        #[cfg(not(unix))]
        let _ = rx;
    }
}
