//! The readiness-driven serving core: one reactor thread multiplexes
//! every connection over `poll(2)` while simulation runs on the shared
//! [`JobPool`](adc_runtime::JobPool).
//!
//! ## Shape
//!
//! * The reactor owns the listener and every [`Conn`]: nonblocking
//!   sockets, an incremental [`FrameAssembler`] per connection, and an
//!   [`Outbound`] stage that frames finished [`Answer`]s into bytes
//!   only as the socket drains, one [`WRITE_CHUNK`] at a time.
//! * Decoded requests either complete inline (`Ping`, `Metrics`, cache
//!   traffic) or park in a bounded per-connection **admission queue**.
//!   A full queue sheds the newest request with a typed
//!   [`ErrorCode::Overloaded`] frame instead of buffering unboundedly.
//! * [`Reactor::dispatch`] drains admission queues round-robin (one
//!   request per connection per round, resuming after the last admitted
//!   connection) into pool jobs, bounded by global and per-connection
//!   in-flight caps. One admitted request is one pool job: it converts
//!   through the exact in-process path, under its own deadline, and
//!   ends with its answer ready. The request keeps its per-connection
//!   slot until the answer's last byte is written, so the slot cap is
//!   the backpressure: a peer that never reads gets no more work
//!   dispatched and holds no pool worker.
//! * A failed `accept(2)` is classified by [`accept_verdict`]: an
//!   aborted handshake is skipped, resource exhaustion (`EMFILE`,
//!   `ENFILE`, `ENOBUFS`, `ENOMEM`) pauses accepting for one poll
//!   round, and only an unknown error stops the server.
//! * Workers compute, the reactor writes: no pool worker or batch
//!   thread touches connection state. A finished job's [`Ticket`]
//!   posts its answer through an event list plus a [`Waker`] byte that
//!   interrupts `poll`, and only the reactor turns answers into bytes.
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
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use adc_calib::GangedCapture;
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
/// through [`Shared`], which every [`Ticket`] holds.
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
/// waking the reactor: one request finished, and its answer is ready.
#[derive(Debug)]
pub(crate) struct JobDone {
    /// Connection the request belonged to.
    conn: u64,
    /// `true` when the request held a global in-flight slot (batch jobs
    /// run on their own thread and don't).
    global: bool,
    answer: Answer,
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

/// The items of a converted record.
#[derive(Debug)]
enum Record {
    None,
    Codes(Vec<u16>),
    Values(Vec<f64>),
}

/// A request's finished answer: an optional record, framed lazily as
/// `batch`-sized `Batch`/`GangedBatch` frames, then one last frame (the
/// record's summary, an error, or a control reply). Every frame is
/// wrapped for `corr` by [`wrap`].
#[derive(Debug)]
pub(crate) struct Answer {
    corr: u64,
    record: Record,
    batch: usize,
    /// Items framed so far.
    framed: usize,
    /// Sequence number of the next batch frame.
    seq: u32,
    /// The last frame, until it has been taken.
    last: Option<Response>,
    /// `true` when the answer holds its connection's in-flight slot
    /// until its last byte is written.
    slot: bool,
}

impl Answer {
    /// An answer of one frame.
    fn reply(corr: u64, response: Response) -> Self {
        Self {
            corr,
            record: Record::None,
            batch: 0,
            framed: 0,
            seq: 0,
            last: Some(response),
            slot: false,
        }
    }

    /// A converted digitize record and its summary.
    fn digitize(corr: u64, codes: Vec<u16>, f_in_hz: f64, batch: usize) -> Self {
        let done = Response::Done(DigitizeDone {
            total_samples: codes.len() as u32,
            batches: codes.len().div_ceil(batch) as u32,
            f_in_hz,
            stream_crc32: stream_crc(&codes),
        });
        Self {
            record: Record::Codes(codes),
            batch,
            ..Self::reply(corr, done)
        }
    }

    /// A ganged capture's value record and its summary.
    fn ganged(corr: u64, capture: GangedCapture, batch: usize) -> Self {
        let done = Response::GangedDone(GangedDone {
            total_samples: capture.values.len() as u32,
            batches: capture.values.len().div_ceil(batch) as u32,
            f_in_hz: capture.f_in_hz,
            epochs_run: capture.epochs_run,
            converged: capture.converged,
            stream_crc32: value_stream_crc(&capture.values),
        });
        Self {
            record: Record::Values(capture.values),
            batch,
            ..Self::reply(corr, done)
        }
    }

    /// Encodes the answer's next frame: the next batch of the record,
    /// then the last frame, then `None`.
    fn take_frame(&mut self) -> Option<Vec<u8>> {
        let (seq, from) = (self.seq, self.framed);
        let to = from.saturating_add(self.batch);
        let batch = match &self.record {
            Record::None => None,
            Record::Codes(codes) => window(codes, from, to).map(|samples| Response::Batch {
                seq,
                samples: samples.to_vec(),
            }),
            Record::Values(values) => {
                window(values, from, to).map(|values| Response::GangedBatch {
                    seq,
                    values: values.to_vec(),
                })
            }
        };
        let response = match batch {
            Some(batch) => {
                self.framed = to;
                self.seq += 1;
                batch
            }
            None => self.last.take()?,
        };
        Some(wrap(self.corr, response))
    }

    /// `true` for an error answer (the request failed).
    fn is_error(&self) -> bool {
        matches!(self.last, Some(Response::Error { .. }))
    }
}

/// `items[from..to]` clipped to the record; `None` once it is empty.
fn window<T>(items: &[T], from: usize, to: usize) -> Option<&[T]> {
    items
        .get(from..to.min(items.len()))
        .filter(|window| !window.is_empty())
}

/// One connection's outbound side: finished answers in completion
/// order, framed into a byte stage only as the socket drains. The stage
/// holds at most [`WRITE_CHUNK`] bytes plus one frame, so a connection
/// costs its unwritten answers and one stage, never a record's worth of
/// encoded frames.
#[derive(Debug, Default)]
struct Outbound {
    answers: VecDeque<Answer>,
    stage: Vec<u8>,
    /// Bytes of `stage` already written.
    written: usize,
    /// Slot-holding answers not yet fully written.
    held: u32,
    /// Slot-holding answers whose last frame is in `stage`.
    staged_last: u32,
}

impl Outbound {
    fn push(&mut self, answer: Answer) {
        self.held += u32::from(answer.slot);
        self.answers.push_back(answer);
    }

    /// `true` while bytes remain to be written.
    fn has_bytes(&self) -> bool {
        self.written < self.stage.len() || !self.answers.is_empty()
    }

    /// Releases the slots of the answers the written stage finished,
    /// then restages frames from the head answers until the stage holds
    /// [`WRITE_CHUNK`] bytes or nothing is left. Runs on the reactor
    /// thread and is panic-free by construction (a symbol-level panic
    /// root in `adc-lint`).
    fn stage_frames(&mut self) {
        self.held = self.held.saturating_sub(self.staged_last);
        self.staged_last = 0;
        self.stage.clear();
        self.written = 0;
        while self.stage.len() < WRITE_CHUNK {
            // Typed, so adc-lint's panic pass follows `take_frame`.
            let Some(answer): Option<&mut Answer> = self.answers.front_mut() else {
                break;
            };
            if let Some(frame) = answer.take_frame() {
                self.stage.extend_from_slice(&frame);
            }
            if answer.last.is_none() {
                self.staged_last += u32::from(answer.slot);
                self.answers.pop_front();
            }
        }
    }

    /// Writes to `sink` until it would block or nothing is left.
    fn flush(&mut self, sink: &mut impl Write) -> io::Result<()> {
        loop {
            if self.written >= self.stage.len() {
                self.stage_frames();
                if self.stage.is_empty() {
                    return Ok(());
                }
            }
            match sink.write(&self.stage[self.written..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.written += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }
}

/// One dispatched request's completion obligation. It posts exactly one
/// [`JobDone`] carrying the request's answer — a typed `Internal` error
/// when it is dropped unposted (the job unwound, or was dropped unrun) —
/// so in-flight accounting can never leak and drain can never hang.
struct Ticket {
    shared: Arc<Shared>,
    conn: u64,
    corr: u64,
    /// `true` when the request holds a global in-flight slot (batch
    /// jobs run on their own thread and don't).
    global: bool,
    /// The answer, once posted.
    answer: Option<Answer>,
}

impl Ticket {
    fn new(shared: &Arc<Shared>, conn: u64, corr: u64, global: bool) -> Self {
        Self {
            shared: Arc::clone(shared),
            conn,
            corr,
            global,
            answer: None,
        }
    }

    /// Posts the request's answer.
    fn post(mut self, answer: Answer) {
        self.answer = Some(answer);
    }
}

impl Drop for Ticket {
    fn drop(&mut self) {
        let mut answer = self.answer.take().unwrap_or_else(|| {
            let lost = Response::Error {
                code: ErrorCode::Internal,
                detail: "request lost: the serving job unwound".to_string(),
            };
            Answer::reply(self.corr, lost)
        });
        answer.slot = true;
        self.shared
            .events
            .lock()
            .expect("reactor event lock")
            .push(JobDone {
                conn: self.conn,
                global: self.global,
                answer,
            });
        self.shared.waker.wake();
    }
}

/// Per-connection reactor state. Only the reactor thread touches it.
struct Conn {
    stream: TcpStream,
    assembler: FrameAssembler,
    out: Outbound,
    /// Admitted requests waiting for an in-flight slot.
    pending: VecDeque<SubmitRequest>,
    /// Requests running on the pool (or a batch thread).
    running: u32,
    read_closed: bool,
    dead: bool,
}

impl Conn {
    /// Requests holding this connection's in-flight slots: running, or
    /// answered with bytes still unwritten.
    fn slots(&self) -> u32 {
        self.running + self.out.held
    }

    /// Queues a one-frame answer that holds no slot.
    fn reply(&mut self, corr: u64, response: Response) {
        self.out.push(Answer::reply(corr, response));
    }

    /// Marks the peer gone: its unwritten answers are dropped, and
    /// their slots with them.
    fn kill(&mut self) {
        self.dead = true;
        self.out = Outbound::default();
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
    result
}

impl Reactor {
    fn event_loop(&mut self) -> io::Result<()> {
        loop {
            self.wait()?;
            self.process_events();
            self.accept()?;
            self.read_phase();
            // Flush first: a slot the flush frees is dispatched this round.
            self.write_phase();
            self.dispatch();
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
                if conn.out.has_bytes() {
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
    /// iteration: each answer joins its connection's outbound stage,
    /// still holding the request's per-connection slot.
    fn process_events(&mut self) {
        let events = std::mem::take(&mut *self.shared.events.lock().expect("reactor event lock"));
        for done in events {
            if done.global {
                self.inflight = self.inflight.saturating_sub(1);
            }
            if done.answer.is_error() {
                self.shared.metrics.error();
            }
            if let Some(c) = self.conns.get_mut(&done.conn) {
                c.running = c.running.saturating_sub(1);
                if !c.dead {
                    c.out.push(done.answer);
                }
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
                    self.conns.insert(
                        id,
                        Conn {
                            stream,
                            assembler: FrameAssembler::new(),
                            out: Outbound::default(),
                            pending: VecDeque::new(),
                            running: 0,
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
                                    conn.reply(
                                        0,
                                        Response::Error {
                                            code: ErrorCode::Protocol,
                                            detail: w.to_string(),
                                        },
                                    );
                                    conn.read_closed = true;
                                    break;
                                }
                            }
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        Err(_) => {
                            conn.kill();
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
                conn.reply(0, Response::Pong { token });
            }
            Request::Metrics => {
                shared.metrics.metrics_request();
                let snapshot = shared.metrics.snapshot();
                conn.reply(0, Response::Metrics(snapshot));
            }
            Request::Shutdown => {
                // Begin the drain *before* acking: once the client has
                // the ack in hand, `is_draining()` must already be true.
                shared.draining.store(true, Ordering::SeqCst);
                conn.reply(0, Response::ShutdownAck);
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
                    conn.reply(
                        submit.corr_id,
                        Response::Error {
                            code: ErrorCode::InvalidRequest,
                            detail,
                        },
                    );
                    return;
                }
                enqueue(conn, &shared, submit);
            }
            Request::JobBatch(req) => {
                shared.metrics.job_batch();
                let Some(runner) = shared.cfg.job_runner.clone() else {
                    shared.metrics.error();
                    conn.reply(
                        0,
                        Response::Error {
                            code: ErrorCode::Unsupported,
                            detail: "this host has no job runner registered".to_string(),
                        },
                    );
                    return;
                };
                conn.running += 1;
                let ticket = Ticket::new(&shared, id, 0, false);
                // Batch jobs orchestrate their own pool fan-out and
                // block on cache I/O, so they get a plain thread instead
                // of occupying a pool worker.
                self.batch_threads.push(std::thread::spawn(move || {
                    let result = run_job_batch(&req, &runner, &shared);
                    ticket.post(Answer::reply(0, Response::JobResult(result)));
                }));
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
                conn.reply(0, Response::CacheFillAck { accepted });
            }
        }
    }

    /// Moves admitted work onto the pool, one job per request: fair
    /// round-robin across connections, bounded by the global and
    /// per-connection in-flight caps and the pool-depth ceiling. A
    /// connection's cap counts its unwritten answers too, so a peer
    /// that stops reading stops getting work dispatched.
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
                if conn.dead || conn.slots() as usize >= per_conn {
                    continue;
                }
                let Some(work) = conn.pending.pop_front() else {
                    continue;
                };
                conn.running += 1;
                self.inflight += 1;
                self.cursor = id;
                let corr = work.corr_id;
                let ticket = Ticket::new(&self.shared, id, corr, true);
                let deadline_ms = match &work.body {
                    SubmitBody::Digitize(req) => req.deadline_ms,
                    SubmitBody::Ganged(req) => req.deadline_ms,
                };
                let deadline =
                    (deadline_ms > 0).then(|| Duration::from_millis(u64::from(deadline_ms)));
                let cfg = self.shared.cfg.clone();
                // The pool reports a failed job as a bare `JobError`, so
                // the job leaves its error frame here for `then`.
                let failure = Arc::new(OnceLock::new());
                let cause = Arc::clone(&failure);
                // The answer is posted from `then`, once the pool has
                // accounted the job: a client holding its whole record
                // never reads metrics still counting the job.
                self.shared.pool.submit_then(
                    deadline,
                    move |ctx| serve_job(&cfg, ctx, corr, &work.body, &cause),
                    move |answer, _report| match (answer, failure.get()) {
                        (Some(answer), _) => ticket.post(answer),
                        (None, Some(error)) => ticket.post(Answer::reply(corr, error.clone())),
                        // Unwound or never run: the ticket's drop
                        // posts the `Internal` error.
                        (None, None) => {}
                    },
                );
                progressed = true;
            }
            if !progressed {
                return;
            }
        }
    }

    /// Flushes every connection with unwritten answers, freeing the
    /// slots of the answers whose last byte went out.
    fn write_phase(&mut self) {
        for conn in self.conns.values_mut() {
            if !conn.dead && conn.out.flush(&mut conn.stream).is_err() {
                conn.kill();
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
                if c.running > 0 {
                    return false;
                }
                if c.dead {
                    return true;
                }
                c.pending.is_empty() && !c.out.has_bytes() && (c.read_closed || draining)
            })
            .map(|(&id, _)| id)
            .collect();
        for id in done {
            self.conns.remove(&id);
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
        let detail = format!(
            "admission queue full: {} requests parked on this connection",
            conn.pending.len()
        );
        conn.reply(
            work.corr_id,
            Response::Error {
                code: ErrorCode::Overloaded,
                detail,
            },
        );
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

/// A job's failure: the error frame's code and detail.
type Failure = (ErrorCode, String);

/// Serves one request through its kind's job on a pool worker and
/// returns its answer. A failure's error frame is left in `failure`
/// for the completion callback to post.
fn serve_job(
    cfg: &ServerConfig,
    ctx: &JobCtx,
    corr: u64,
    body: &SubmitBody,
    failure: &OnceLock<Response>,
) -> Result<Answer, JobError> {
    let seed = match body {
        SubmitBody::Digitize(req) => req.seed,
        SubmitBody::Ganged(req) => req.seed,
    };
    // Scope span ids to the request's fabrication seed — two server
    // runs serving the same request produce the same span identities.
    let _trace_task = adc_trace::task(seed);
    let _trace_job = adc_trace::span_with("request", ctx.id.0);
    let result = match body {
        SubmitBody::Digitize(req) => digitize_job(req, cfg, ctx, corr),
        SubmitBody::Ganged(req) => ganged_job(req, cfg, ctx, corr),
    };
    result.map_err(|(code, detail)| {
        let err = match code {
            ErrorCode::TimedOut => JobError::TimedOut,
            _ => JobError::Failed(detail.clone()),
        };
        let _ = failure.set(Response::Error { code, detail });
        err
    })
}

/// The failure of a job whose deadline fired `when`.
fn expired(when: &str) -> Failure {
    (ErrorCode::TimedOut, format!("deadline expired {when}"))
}

/// Samples (or values) per streamed batch frame for a request.
fn batch_len(cfg: &ServerConfig, requested: u32) -> usize {
    match requested {
        0 => cfg.default_batch.max(1) as usize,
        n => n as usize,
    }
}

/// Converts one digitize request through [`run_digitize`] into its
/// answer.
fn digitize_job(
    req: &DigitizeRequest,
    cfg: &ServerConfig,
    ctx: &JobCtx,
    corr: u64,
) -> Result<Answer, Failure> {
    if ctx.timed_out() {
        return Err(expired("before simulation started"));
    }
    let converted = {
        let _trace_digitize = adc_trace::span("digitize");
        run_digitize(req)
    };
    let (codes, f_in_hz) =
        converted.map_err(|build| (error_code_for_build(&build), build.to_string()))?;
    if ctx.timed_out() {
        return Err(expired("during conversion"));
    }
    ctx.record_samples(codes.len() as u64);
    let batch = batch_len(cfg, req.batch_size);
    Ok(Answer::digitize(corr, codes, f_in_hz, batch))
}

/// Captures one ganged request through [`run_ganged`] into its answer.
fn ganged_job(
    req: &GangedRequest,
    cfg: &ServerConfig,
    ctx: &JobCtx,
    corr: u64,
) -> Result<Answer, Failure> {
    if ctx.timed_out() {
        return Err(expired("before simulation started"));
    }
    let capture = {
        let _trace_ganged = adc_trace::span("ganged");
        run_ganged(req)
    };
    let capture = capture.map_err(|err| (error_code_for_ganged(&err), err.to_string()))?;
    if ctx.timed_out() {
        return Err(expired("during conversion"));
    }
    ctx.record_samples(capture.values.len() as u64);
    let batch = batch_len(cfg, req.batch_size);
    Ok(Answer::ganged(corr, capture, batch))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::encode_request;

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

    /// A socket stand-in that takes at most `max` bytes per write and
    /// would block on every other call.
    struct Trickle {
        bytes: Vec<u8>,
        max: usize,
        block: bool,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.block = !self.block;
            if self.block {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let n = buf.len().min(self.max);
            self.bytes.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// A peer that never reads: every write would block.
    struct Stalled;

    impl Write for Stalled {
        fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
            Err(io::ErrorKind::WouldBlock.into())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn tagged(corr: u64, response: Response) -> Vec<u8> {
        encode_response(&Response::Tagged {
            corr_id: corr,
            inner: Box::new(response),
        })
    }

    /// The frames a worker used to stream for a record: one tagged
    /// batch frame per `batch` items, then the tagged summary built from
    /// the batch count.
    fn streamed_frames<T: Copy>(
        corr: u64,
        items: &[T],
        batch: usize,
        frame: fn(u32, Vec<T>) -> Response,
        done: impl FnOnce(u32) -> Response,
    ) -> Vec<Vec<u8>> {
        let mut frames: Vec<Vec<u8>> = items
            .chunks(batch)
            .zip(0u32..)
            .map(|(chunk, seq)| tagged(corr, frame(seq, chunk.to_vec())))
            .collect();
        let batches = frames.len() as u32;
        frames.push(tagged(corr, done(batches)));
        frames
    }

    /// Pushes `answer` as a slot-holding job answer and drains it
    /// through `max`-byte writes, checking the stage bound and that the
    /// slot is held until the last byte is written.
    fn drain(mut answer: Answer, max: usize, largest_frame: usize) -> Vec<u8> {
        answer.slot = true;
        let mut out = Outbound::default();
        out.push(answer);
        let mut sink = Trickle {
            bytes: Vec::new(),
            max,
            block: false,
        };
        loop {
            out.flush(&mut sink).unwrap();
            assert!(out.stage.len() <= WRITE_CHUNK + largest_frame);
            if !out.has_bytes() {
                break;
            }
            assert_eq!(out.held, 1, "the slot is held until the last byte");
        }
        assert_eq!(out.held, 0, "the written answer frees its slot");
        sink.bytes
    }

    const RECORD_LEN: usize = 3000;
    const BATCHES: [usize; 4] = [1, 7, 1024, 4096];
    const WRITES: [usize; 4] = [1, 3, 4096, usize::MAX];

    #[test]
    fn digitize_answers_drain_into_the_streamed_frame_bytes() {
        let codes: Vec<u16> = (0..RECORD_LEN).map(|i| (i * 37 % 4096) as u16).collect();
        let f_in_hz = 10.017e6;
        for batch in BATCHES {
            let frames = streamed_frames(
                9,
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
            );
            let largest = frames.iter().map(Vec::len).max().unwrap();
            let expected = frames.concat();
            for max in WRITES {
                let answer = Answer::digitize(9, codes.clone(), f_in_hz, batch);
                let bytes = drain(answer, max, largest);
                assert!(bytes == expected, "batch {batch}, {max}-byte writes");
            }
        }
    }

    #[test]
    fn ganged_answers_drain_into_the_streamed_frame_bytes() {
        let values: Vec<f64> = (0..RECORD_LEN).map(|i| (i as f64 * 0.37).sin()).collect();
        let capture = || GangedCapture {
            values: values.clone(),
            f_in_hz: 10.017e6,
            epochs_run: 5,
            converged: true,
        };
        for batch in BATCHES {
            let frames = streamed_frames(
                11,
                &values,
                batch,
                |seq, values| Response::GangedBatch { seq, values },
                |batches| {
                    Response::GangedDone(GangedDone {
                        total_samples: values.len() as u32,
                        batches,
                        f_in_hz: 10.017e6,
                        epochs_run: 5,
                        converged: true,
                        stream_crc32: value_stream_crc(&values),
                    })
                },
            );
            let largest = frames.iter().map(Vec::len).max().unwrap();
            let expected = frames.concat();
            for max in WRITES {
                let bytes = drain(Answer::ganged(11, capture(), batch), max, largest);
                assert!(bytes == expected, "batch {batch}, {max}-byte writes");
            }
        }
    }

    #[test]
    fn a_peer_that_never_reads_holds_one_stage_not_the_record() {
        let n = 1 << 20;
        let mut answer = Answer::digitize(3, vec![0x0ABC; n], 10e6, 1);
        answer.slot = true;
        let frame = tagged(
            3,
            Response::Batch {
                seq: 0,
                samples: vec![0x0ABC],
            },
        )
        .len();
        assert_eq!(frame, 34, "a tagged batch-of-1 frame");
        let mut out = Outbound::default();
        out.push(answer);
        for _ in 0..3 {
            out.flush(&mut Stalled).unwrap();
            assert!(
                out.stage.len() <= WRITE_CHUNK + frame,
                "staged {} bytes",
                out.stage.len()
            );
            assert_eq!(out.written, 0);
        }
        assert!(out.has_bytes());
        assert_eq!(out.held, 1, "the unread answer keeps its slot");
        assert_eq!(out.answers.len(), 1, "the record stays unframed");
    }

    #[test]
    fn answers_leave_in_completion_order_and_free_their_slots_as_written() {
        let answers = || {
            [
                (Answer::digitize(1, vec![1, 2, 3], 1e6, 2), true),
                (Answer::reply(0, Response::Pong { token: 5 }), false),
                (Answer::digitize(2, vec![4; 40_000], 1e6, 1), true),
            ]
        };
        let mut expected = Vec::new();
        for (mut answer, _) in answers() {
            while let Some(frame) = answer.take_frame() {
                expected.extend(frame);
            }
        }
        let mut out = Outbound::default();
        for (mut answer, slot) in answers() {
            answer.slot = slot;
            out.push(answer);
        }
        assert_eq!(out.held, 2, "control replies hold no slot");
        let mut sink = Trickle {
            bytes: Vec::new(),
            max: 4096,
            block: false,
        };
        let mut held = Vec::new();
        while out.has_bytes() {
            out.flush(&mut sink).unwrap();
            held.push(out.held);
        }
        assert!(sink.bytes == expected);
        assert!(
            held.contains(&1),
            "the first answer frees its slot while the second is still being written"
        );
        assert_eq!(out.held, 0);
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
