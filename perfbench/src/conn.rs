//! The load generator's side of the wire: pipelined connections over
//! the public `adc_server::protocol` codec, and the single-thread
//! open-loop and closed-loop load loops built on them.
//!
//! `PipelinedClient` keeps its socket private, so one thread cannot
//! wait on two of them and on its next send instant at once. These
//! connections speak the same `Submit`/`Tagged` frames, reassemble
//! streams the same way and check the same count, batch-order and
//! stream-CRC invariants, and expose their descriptors to `ppoll(2)`,
//! which wakes the generator the moment a response lands.

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use adc_server::protocol::{
    crc32, decode_response_frame, encode_request, FrameAssembler, MAX_PAYLOAD,
};
use adc_server::{DigitizeRequest, Request, Response, SubmitBody, SubmitRequest};

mod sys {
    use std::ffi::{c_int, c_long, c_short, c_ulong, c_void};
    use std::io;
    use std::time::Duration;

    #[repr(C)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: c_short,
        pub revents: c_short,
    }

    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }

    pub const POLLIN: c_short = 0x1;

    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: c_ulong,
            timeout: *const Timespec,
            sigmask: *const c_void,
        ) -> c_int;
    }

    /// Waits until a descriptor is readable or `timeout` passes
    /// (nanosecond timeout, unlike `poll`'s milliseconds).
    pub fn wait(fds: &mut [PollFd], timeout: Duration) -> io::Result<()> {
        let ts = Timespec {
            tv_sec: c_long::try_from(timeout.as_secs()).unwrap_or(c_long::MAX),
            tv_nsec: timeout.subsec_nanos() as c_long,
        };
        // SAFETY: `fds` is an exclusive slice of #[repr(C)] pollfd
        // records whose length is passed alongside it; `ts` outlives the
        // call; a null sigmask leaves the signal mask unchanged.
        let rc = unsafe {
            ppoll(
                fds.as_mut_ptr(),
                fds.len() as c_ulong,
                &ts,
                std::ptr::null(),
            )
        };
        if rc < 0 {
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
        Ok(())
    }
}

/// How one request ended: its record, whole and past the stream
/// checks, or why not (a typed server error such as an `Overloaded`
/// shed, a stream that failed its checks, or a timeout).
pub type Outcome = Result<Vec<u16>, String>;

/// A finished request: its index in the phase's request list, how it
/// ended, and when the generator saw it end.
#[derive(Debug)]
pub struct Completion {
    /// Index into the phase's request slice.
    pub index: usize,
    /// How it ended.
    pub outcome: Outcome,
    /// When the final frame was processed.
    pub at: Instant,
}

#[derive(Debug)]
struct Pending {
    index: usize,
    seed: u64,
    samples: Vec<u16>,
    next_seq: u32,
}

/// One pipelined connection.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    assembler: FrameAssembler,
    next_corr: u64,
    pending: BTreeMap<u64, Pending>,
    buf: Vec<u8>,
    /// Request bytes written so far.
    pub bytes_out: u64,
    /// Response bytes read so far.
    pub bytes_in: u64,
}

impl Conn {
    /// Connects with Nagle off, like the library clients.
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            stream,
            assembler: FrameAssembler::new(),
            next_corr: 1,
            pending: BTreeMap::new(),
            buf: vec![0; 64 * 1024],
            bytes_out: 0,
            bytes_in: 0,
        })
    }

    /// Requests in flight on this connection.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// Sends request `index` as a pipelined `Submit`.
    pub fn submit(&mut self, index: usize, req: &DigitizeRequest) -> io::Result<()> {
        let corr = self.next_corr;
        self.next_corr += 1;
        let _task = adc_trace::task(req.seed);
        let _span = adc_trace::span_with("bench.submit", corr);
        let frame = encode_request(&Request::Submit(SubmitRequest {
            corr_id: corr,
            body: SubmitBody::Digitize(req.clone()),
        }));
        self.stream.write_all(&frame)?;
        self.bytes_out += frame.len() as u64;
        self.pending.insert(
            corr,
            Pending {
                index,
                seed: req.seed,
                samples: Vec::new(),
                next_seq: 0,
            },
        );
        Ok(())
    }

    /// Reads what the socket holds (call only when it polled readable)
    /// and appends every request that finished to `out`.
    fn pump(&mut self, out: &mut Vec<Completion>) -> io::Result<()> {
        let n = self.stream.read(&mut self.buf)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        self.bytes_in += n as u64;
        self.assembler.extend(&self.buf[..n]);
        while let Some((kind, payload)) = self
            .assembler
            .next_frame(MAX_PAYLOAD)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{e:?}")))?
        {
            let response = decode_response_frame(kind, &payload)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{e:?}")))?;
            let Response::Tagged { corr_id, inner } = response else {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "untagged frame on a pipelined connection",
                ));
            };
            if let Some((index, outcome)) = self.accept(corr_id, *inner)? {
                out.push(Completion {
                    index,
                    outcome,
                    at: Instant::now(),
                });
            }
        }
        Ok(())
    }

    /// Folds one tagged frame into its stream; `Some` when the stream
    /// ended. A frame for no request in flight breaks the protocol.
    fn accept(&mut self, corr: u64, inner: Response) -> io::Result<Option<(usize, Outcome)>> {
        let Some(p) = self.pending.get_mut(&corr) else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame for unknown request {corr}"),
            ));
        };
        if let Response::Batch { seq, samples } = &inner {
            if *seq == p.next_seq {
                p.next_seq += 1;
                p.samples.extend_from_slice(samples);
                return Ok(None);
            }
        }
        let Some(p) = self.pending.remove(&corr) else {
            unreachable!("looked up above")
        };
        let outcome = match inner {
            Response::Batch { seq, .. } => Err(format!("batch {seq} out of order")),
            Response::Done(done) => {
                let _task = adc_trace::task(p.seed);
                let _span = adc_trace::span_with("bench.verify", corr);
                let bytes: Vec<u8> = p.samples.iter().flat_map(|c| c.to_le_bytes()).collect();
                if done.total_samples as usize != p.samples.len()
                    || done.batches != p.next_seq
                    || crc32(&bytes) != done.stream_crc32
                {
                    Err(format!("request {corr}: stream failed its checks"))
                } else {
                    Ok(p.samples)
                }
            }
            Response::Error { code, detail } => Err(format!("{code:?}: {detail}")),
            other => Err(format!("unexpected frame {other:?}")),
        };
        Ok(Some((p.index, outcome)))
    }

    /// Abandons everything in flight, reporting each as timed out.
    fn abandon(&mut self, out: &mut Vec<Completion>) {
        let now = Instant::now();
        for (_, p) in std::mem::take(&mut self.pending) {
            out.push(Completion {
                index: p.index,
                outcome: Err("timed out".to_string()),
                at: now,
            });
        }
    }
}

/// Waits up to `timeout` for any connection to turn readable and pumps
/// each readable one into `out`.
fn wait_and_pump(
    conns: &mut [Conn],
    timeout: Duration,
    out: &mut Vec<Completion>,
) -> io::Result<()> {
    let mut fds: Vec<sys::PollFd> = conns
        .iter()
        .map(|c| sys::PollFd {
            fd: c.stream.as_raw_fd(),
            events: sys::POLLIN,
            revents: 0,
        })
        .collect();
    sys::wait(&mut fds, timeout)?;
    for (conn, fd) in conns.iter_mut().zip(&fds) {
        if fd.revents != 0 {
            conn.pump(out)?;
        }
    }
    Ok(())
}

/// How long the load loops wait for stragglers before calling them
/// timed out.
pub const DRAIN_TIMEOUT: Duration = Duration::from_secs(5);

/// What an open-loop phase saw.
#[derive(Debug)]
pub struct OpenLoop {
    /// Every request's ending, in completion order.
    pub completions: Vec<Completion>,
    /// Each request's scheduled send instant, by index.
    pub scheduled: Vec<Instant>,
    /// How late each send went out, microseconds.
    pub late_us: Vec<f64>,
    /// Request plus response bytes on the wire.
    pub wire_bytes: u64,
}

/// Sends `reqs[i]` at `t0 + arrivals[i]` regardless of how the server
/// is doing, round-robin over `conns`, from this one thread, and
/// collects every ending.
pub fn open_loop(
    conns: &mut [Conn],
    reqs: &[DigitizeRequest],
    arrivals: &[Duration],
) -> io::Result<OpenLoop> {
    let t0 = Instant::now() + Duration::from_millis(5);
    let scheduled: Vec<Instant> = arrivals.iter().map(|&a| t0 + a).collect();
    let mut completions = Vec::with_capacity(reqs.len());
    let mut late_us = Vec::with_capacity(reqs.len());
    let bytes_before: u64 = conns.iter().map(|c| c.bytes_in + c.bytes_out).sum();
    let urgent = crate::sched::Urgent::enter();
    for (i, (req, &due)) in reqs.iter().zip(&scheduled).enumerate() {
        loop {
            let now = Instant::now();
            if now >= due {
                late_us.push((now - due).as_secs_f64() * 1e6);
                break;
            }
            wait_and_pump(conns, due - now, &mut completions)?;
        }
        let k = conns.len();
        conns[i % k].submit(i, req)?;
    }
    drain(conns, &mut completions)?;
    drop(urgent);
    let bytes_after: u64 = conns.iter().map(|c| c.bytes_in + c.bytes_out).sum();
    Ok(OpenLoop {
        completions,
        scheduled,
        late_us,
        wire_bytes: bytes_after - bytes_before,
    })
}

/// Keeps `window` requests in flight on every connection until all of
/// `reqs` have ended; returns the endings and the wall time.
pub fn closed_loop(
    conns: &mut [Conn],
    reqs: &[DigitizeRequest],
    window: usize,
) -> io::Result<(Vec<Completion>, Duration)> {
    let urgent = crate::sched::Urgent::enter();
    let start = Instant::now();
    let mut next = 0;
    for c in conns.iter_mut() {
        while c.in_flight() < window && next < reqs.len() {
            c.submit(next, &reqs[next])?;
            next += 1;
        }
    }
    let mut completions = Vec::with_capacity(reqs.len());
    let deadline = Instant::now() + DRAIN_TIMEOUT;
    while completions.len() < reqs.len() && Instant::now() < deadline {
        wait_and_pump(conns, Duration::from_millis(100), &mut completions)?;
        for c in conns.iter_mut() {
            while c.in_flight() < window && next < reqs.len() {
                c.submit(next, &reqs[next])?;
                next += 1;
            }
        }
    }
    let wall = start.elapsed();
    drop(urgent);
    for c in conns.iter_mut() {
        c.abandon(&mut completions);
    }
    Ok((completions, wall))
}

/// Waits for everything in flight, up to [`DRAIN_TIMEOUT`].
fn drain(conns: &mut [Conn], out: &mut Vec<Completion>) -> io::Result<()> {
    let deadline = Instant::now() + DRAIN_TIMEOUT;
    while conns.iter().any(|c| c.in_flight() > 0) {
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        wait_and_pump(conns, deadline - now, out)?;
    }
    for c in conns.iter_mut() {
        c.abandon(out);
    }
    Ok(())
}
