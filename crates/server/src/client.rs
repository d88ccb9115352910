//! Clients for the digitization service.
//!
//! [`PipelinedClient`] owns one connection and keeps many requests in
//! flight on it: each [`PipelinedClient::submit`] assigns a correlation
//! id and returns immediately; [`PipelinedClient::next_completion`]
//! yields finished requests in whatever order the server completes
//! them, each reassembled and checked (batch order, sample count,
//! stream CRC).
//!
//! [`Client`] is the blocking face of the same connection:
//! [`Client::digitize`] is a submit followed by its completion, and the
//! control calls ([`Client::ping`], [`Client::metrics`], job batches,
//! cache traffic, [`Client::shutdown`]) are one untagged round trip
//! each. Both clients share one frame assembler and one verification
//! path.

use std::collections::{BTreeMap, VecDeque};
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::protocol::{
    self, encode_request, CacheFillRequest, DigitizeDone, DigitizeRequest, ErrorCode,
    FrameAssembler, GangedDone, GangedRequest, JobBatchRequest, JobResultBatch, MetricsSnapshot,
    Request, Response, SubmitBody, SubmitRequest, WireError,
};
use crate::server::{stream_crc, value_stream_crc};

/// Everything a client call can fail with.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(std::io::Error),
    /// The server sent a frame this client could not decode.
    Wire(WireError),
    /// The server answered with a typed error frame.
    Server {
        /// The error class.
        code: ErrorCode,
        /// Human-readable detail.
        detail: String,
    },
    /// The server answered with a well-formed frame of the wrong kind
    /// for the request in flight.
    UnexpectedResponse(&'static str),
    /// The reassembled stream failed a local consistency check.
    StreamCorrupt(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "transport error: {e}"),
            Self::Wire(e) => write!(f, "wire error: {e}"),
            Self::Server { code, detail } => write!(f, "server error ({code:?}): {detail}"),
            Self::UnexpectedResponse(what) => write!(f, "unexpected response: {what}"),
            Self::StreamCorrupt(detail) => write!(f, "stream corrupt: {detail}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// A completed digitization: the full reassembled record plus the
/// server's completion summary.
#[derive(Debug, Clone)]
pub struct DigitizeResult {
    /// The converted codes, in order.
    pub samples: Vec<u16>,
    /// The server's end-of-stream summary (exact stimulus frequency,
    /// batch count, stream CRC).
    pub done: DigitizeDone,
}

/// A completed ganged digitization: the reassembled interleaved record
/// (reconstructed volts, bit-exact) plus the server's summary.
#[derive(Debug, Clone)]
pub struct GangedResult {
    /// The interleaved record values, in order.
    pub values: Vec<f64>,
    /// The server's end-of-stream summary (stimulus frequency,
    /// calibration epochs, convergence, stream CRC).
    pub done: GangedDone,
}

/// One blocking connection to an `adc-server`: a [`PipelinedClient`]
/// with at most one request in flight.
///
/// A digitize call is a submit followed by its completion, checked on
/// the pipelined path; control calls are one untagged round trip each.
#[derive(Debug)]
pub struct Client {
    inner: PipelinedClient,
}

impl Client {
    /// Connects with the protocol's default payload ceiling.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<Self> {
        Ok(Self {
            inner: PipelinedClient::connect(addr)?,
        })
    }

    /// Sets a read timeout on the underlying socket (`None` blocks
    /// forever). Useful around [`Client::digitize`] with server-side
    /// deadlines.
    ///
    /// # Errors
    ///
    /// Propagates socket option failures.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.inner.set_read_timeout(timeout)
    }

    /// Waits for request `corr` to finish; a typed server error becomes
    /// [`ClientError::Server`].
    fn completion(&mut self, corr: u64) -> Result<PipelinedOutcome, ClientError> {
        match self.inner.next_completion()? {
            (done, _) if done != corr => Err(ClientError::UnexpectedResponse(
                "completion for another request",
            )),
            (_, PipelinedOutcome::ServerError { code, detail }) => {
                Err(ClientError::Server { code, detail })
            }
            (_, outcome) => Ok(outcome),
        }
    }

    /// Round-trips a liveness probe, returning the echoed token.
    ///
    /// # Errors
    ///
    /// Transport, wire, or server errors; see [`ClientError`].
    pub fn ping(&mut self, token: u64) -> Result<u64, ClientError> {
        match self.inner.round_trip(&Request::Ping { token })? {
            Response::Pong { token } => Ok(token),
            _ => Err(ClientError::UnexpectedResponse("expected pong")),
        }
    }

    /// Runs one digitization, blocking until the full record has
    /// streamed back. Verifies batch ordering, the sample count, and
    /// the server's stream CRC before returning.
    ///
    /// # Errors
    ///
    /// Transport, wire, or server errors (including mid-stream typed
    /// errors like `TimedOut`), and [`ClientError::StreamCorrupt`] if
    /// reassembly fails a consistency check.
    pub fn digitize(&mut self, request: &DigitizeRequest) -> Result<DigitizeResult, ClientError> {
        let corr = self.inner.submit(request)?;
        match self.completion(corr)? {
            PipelinedOutcome::Digitize(result) => Ok(result),
            _ => Err(ClientError::UnexpectedResponse(
                "expected a digitize record",
            )),
        }
    }

    /// Runs one ganged digitization through a server-side interleaved
    /// array, blocking until the full record has streamed back. Verifies
    /// batch ordering, the value count, and the server's stream CRC
    /// before returning; values are bit-identical to an in-process
    /// `adc_calib::GangedScenario` capture of the same request.
    ///
    /// # Errors
    ///
    /// Transport, wire, or server errors, and
    /// [`ClientError::StreamCorrupt`] if reassembly fails a consistency
    /// check.
    pub fn digitize_ganged(
        &mut self,
        request: &GangedRequest,
    ) -> Result<GangedResult, ClientError> {
        let corr = self.inner.submit_ganged(request)?;
        match self.completion(corr)? {
            PipelinedOutcome::Ganged(result) => Ok(result),
            _ => Err(ClientError::UnexpectedResponse("expected a ganged record")),
        }
    }

    /// Submits a batch of campaign jobs and blocks for the outcomes.
    ///
    /// The response carries one [`protocol::JobOutcome`] per submitted
    /// job, in submission order; the caller (normally the
    /// `adc-cluster` executor) decides what to resubmit based on each
    /// outcome's typed status.
    ///
    /// # Errors
    ///
    /// Transport, wire, or server errors (notably
    /// [`ErrorCode::Unsupported`] from a host with no job runner), and
    /// [`ClientError::StreamCorrupt`] if the response does not answer
    /// the submitted batch.
    pub fn job_batch(&mut self, request: &JobBatchRequest) -> Result<JobResultBatch, ClientError> {
        match self.inner.round_trip(&Request::JobBatch(request.clone()))? {
            Response::JobResult(result) => {
                if result.batch_id != request.batch_id {
                    return Err(ClientError::StreamCorrupt(format!(
                        "job result for batch {}, expected {}",
                        result.batch_id, request.batch_id
                    )));
                }
                if result.outcomes.len() != request.jobs.len() {
                    return Err(ClientError::StreamCorrupt(format!(
                        "{} outcomes for {} jobs",
                        result.outcomes.len(),
                        request.jobs.len()
                    )));
                }
                Ok(result)
            }
            _ => Err(ClientError::UnexpectedResponse("expected job result")),
        }
    }

    /// Merges `(key, encoded line)` entries into the host's warm cache
    /// for `campaign`, returning how many were newly inserted.
    ///
    /// # Errors
    ///
    /// Transport, wire, or server errors; see [`ClientError`].
    pub fn cache_fill(
        &mut self,
        campaign: &str,
        entries: &[(u64, String)],
    ) -> Result<u32, ClientError> {
        let request = Request::CacheFill(CacheFillRequest {
            campaign: campaign.to_string(),
            entries: entries.to_vec(),
        });
        match self.inner.round_trip(&request)? {
            Response::CacheFillAck { accepted } => Ok(accepted),
            _ => Err(ClientError::UnexpectedResponse("expected cache fill ack")),
        }
    }

    /// Fetches the server's metrics snapshot.
    ///
    /// # Errors
    ///
    /// Transport, wire, or server errors; see [`ClientError`].
    pub fn metrics(&mut self) -> Result<MetricsSnapshot, ClientError> {
        match self.inner.round_trip(&Request::Metrics)? {
            Response::Metrics(snapshot) => Ok(snapshot),
            _ => Err(ClientError::UnexpectedResponse("expected metrics")),
        }
    }

    /// Asks the server to begin a graceful drain. Returns once the
    /// server acknowledges.
    ///
    /// # Errors
    ///
    /// Transport, wire, or server errors; see [`ClientError`].
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.inner.round_trip(&Request::Shutdown)? {
            Response::ShutdownAck => Ok(()),
            _ => Err(ClientError::UnexpectedResponse("expected shutdown ack")),
        }
    }
}

/// How one pipelined request ended.
#[derive(Debug, Clone)]
pub enum PipelinedOutcome {
    /// The digitization completed and passed reassembly checks.
    Digitize(DigitizeResult),
    /// The ganged digitization completed and passed reassembly checks.
    Ganged(GangedResult),
    /// The server answered this request with a typed error frame
    /// (validation, overload shed, deadline, ...). Per-request — the
    /// connection and the other in-flight requests are unaffected.
    ServerError {
        /// The error class.
        code: ErrorCode,
        /// Human-readable detail.
        detail: String,
    },
}

/// One streamed record being reassembled: the items so far and the
/// batch sequence number expected next.
#[derive(Debug, Default)]
struct Reassembly<T> {
    items: Vec<T>,
    next_seq: u32,
}

impl<T: Copy> Reassembly<T> {
    fn batch(&mut self, seq: u32, chunk: &[T]) -> Result<(), String> {
        if seq != self.next_seq {
            return Err(format!("batch {seq} arrived, expected {}", self.next_seq));
        }
        self.next_seq += 1;
        self.items.extend_from_slice(chunk);
        Ok(())
    }

    /// Checks the server's end-of-stream summary against what arrived.
    fn finish(
        self,
        total: u32,
        batches: u32,
        crc: u32,
        stream_crc: fn(&[T]) -> u32,
    ) -> Result<Vec<T>, String> {
        if total as usize != self.items.len() {
            return Err(format!(
                "done claims {total} items, reassembled {}",
                self.items.len()
            ));
        }
        if batches != self.next_seq {
            return Err(format!(
                "done claims {batches} batches, received {}",
                self.next_seq
            ));
        }
        let computed = stream_crc(&self.items);
        if computed != crc {
            return Err(format!("stream CRC {computed:08x} != server's {crc:08x}"));
        }
        Ok(self.items)
    }
}

/// In-progress reassembly of one pipelined request.
#[derive(Debug)]
enum Accum {
    Digitize(Reassembly<u16>),
    Ganged(Reassembly<f64>),
}

/// A pipelined connection: many requests in flight at once, completed
/// out of order.
///
/// Every submission gets a nonzero correlation id (assigned here,
/// counting up from 1); the server tags each response frame with it,
/// so interleaved streams demultiplex unambiguously. Completions are
/// yielded in **server finish order**, each verified for batch
/// ordering, sample count, and stream CRC.
///
/// ```
/// use adc_server::{DigitizeRequest, PipelinedClient, PipelinedOutcome, Server, ServerConfig};
///
/// let (handle, join) = Server::spawn("127.0.0.1:0", ServerConfig::default()).unwrap();
/// let mut client = PipelinedClient::connect(handle.addr()).unwrap();
/// let a = client.submit(&DigitizeRequest::tone(7, 10e6, 1024)).unwrap();
/// let b = client.submit(&DigitizeRequest::tone(8, 10e6, 1024)).unwrap();
/// let mut seen = Vec::new();
/// while client.in_flight() > 0 {
///     let (corr, outcome) = client.next_completion().unwrap();
///     assert!(matches!(outcome, PipelinedOutcome::Digitize(_)));
///     seen.push(corr);
/// }
/// seen.sort_unstable();
/// assert_eq!(seen, vec![a, b]);
/// handle.shutdown();
/// join.join().unwrap().unwrap();
/// ```
#[derive(Debug)]
pub struct PipelinedClient {
    stream: TcpStream,
    assembler: FrameAssembler,
    next_corr: u64,
    pending: BTreeMap<u64, Accum>,
    ready: VecDeque<(u64, PipelinedOutcome)>,
    /// Untagged frames not yet consumed: control replies, or a
    /// connection-level error.
    untagged: VecDeque<Response>,
}

impl PipelinedClient {
    /// Connects with the protocol's default payload ceiling.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            stream,
            assembler: FrameAssembler::new(),
            next_corr: 1,
            pending: BTreeMap::new(),
            ready: VecDeque::new(),
            untagged: VecDeque::new(),
        })
    }

    /// Sets a read timeout on the underlying socket (`None` blocks
    /// forever). With a timeout set, [`Self::try_next_completion`]
    /// returns `Ok(None)` when it expires with nothing decoded.
    ///
    /// # Errors
    ///
    /// Propagates socket option failures.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    /// Switches the underlying socket between blocking and non-blocking
    /// mode. Non-blocking makes [`Self::try_next_completion`] return
    /// immediately instead of waiting out the read timeout — kernels
    /// round `SO_RCVTIMEO` up to scheduler-tick granularity, so a
    /// "1 ms" timeout can block for several milliseconds, which matters
    /// to open-loop load generators pacing precise arrival schedules.
    /// Partial frames are preserved across calls either way. Callers
    /// must restore blocking mode before using the blocking APIs
    /// ([`Self::next_completion`], [`Self::submit`] under a full send
    /// buffer).
    ///
    /// # Errors
    ///
    /// Propagates socket option failures.
    pub fn set_nonblocking(&self, nonblocking: bool) -> std::io::Result<()> {
        self.stream.set_nonblocking(nonblocking)
    }

    /// Requests submitted but not yet yielded by a completion call.
    pub fn in_flight(&self) -> usize {
        self.pending.len() + self.ready.len()
    }

    fn send(&mut self, request: &Request) -> Result<(), ClientError> {
        self.stream.write_all(&encode_request(request))?;
        self.stream.flush()?;
        Ok(())
    }

    fn submit_body(&mut self, body: SubmitBody, accum: Accum) -> Result<u64, ClientError> {
        let corr = self.next_corr;
        self.next_corr += 1;
        self.send(&Request::Submit(SubmitRequest {
            corr_id: corr,
            body,
        }))?;
        self.pending.insert(corr, accum);
        Ok(corr)
    }

    /// Submits a digitization without waiting, returning its
    /// correlation id.
    ///
    /// # Errors
    ///
    /// Transport failures writing the request frame.
    pub fn submit(&mut self, request: &DigitizeRequest) -> Result<u64, ClientError> {
        self.submit_body(
            SubmitBody::Digitize(request.clone()),
            Accum::Digitize(Reassembly::default()),
        )
    }

    /// Submits a ganged digitization without waiting, returning its
    /// correlation id.
    ///
    /// # Errors
    ///
    /// Transport failures writing the request frame.
    pub fn submit_ganged(&mut self, request: &GangedRequest) -> Result<u64, ClientError> {
        self.submit_body(
            SubmitBody::Ganged(request.clone()),
            Accum::Ganged(Reassembly::default()),
        )
    }

    /// Sends one control request and blocks for its untagged reply; a
    /// typed error reply becomes [`ClientError::Server`]. Tagged frames
    /// arriving meanwhile go to their requests as usual.
    fn round_trip(&mut self, request: &Request) -> Result<Response, ClientError> {
        self.send(request)?;
        loop {
            match self.untagged.pop_front() {
                Some(Response::Error { code, detail }) => {
                    return Err(ClientError::Server { code, detail })
                }
                Some(response) => return Ok(response),
                None => self.pump()?,
            }
        }
    }

    /// Blocks for the next finished request, in server completion
    /// order.
    ///
    /// # Errors
    ///
    /// Transport or wire errors, connection-level server errors (e.g. a
    /// protocol fault, which poisons the whole stream), and
    /// [`ClientError::StreamCorrupt`] if any in-flight reassembly fails
    /// a consistency check. Per-request server errors are **not**
    /// errors here — they arrive as [`PipelinedOutcome::ServerError`].
    pub fn next_completion(&mut self) -> Result<(u64, PipelinedOutcome), ClientError> {
        loop {
            if let Some(done) = self.take_completion()? {
                return Ok(done);
            }
            self.pump()?;
        }
    }

    /// Like [`Self::next_completion`] but yields `Ok(None)` instead of
    /// blocking past the socket's read timeout (see
    /// [`Self::set_read_timeout`]).
    ///
    /// # Errors
    ///
    /// As [`Self::next_completion`].
    pub fn try_next_completion(&mut self) -> Result<Option<(u64, PipelinedOutcome)>, ClientError> {
        if let Some(done) = self.take_completion()? {
            return Ok(Some(done));
        }
        match self.pump() {
            Ok(()) => self.take_completion(),
            Err(ClientError::Io(e))
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }

    /// The next finished request, if any. An untagged frame here is
    /// connection-level: an error frame means a protocol fault has
    /// poisoned the stream.
    fn take_completion(&mut self) -> Result<Option<(u64, PipelinedOutcome)>, ClientError> {
        if let Some(done) = self.ready.pop_front() {
            return Ok(Some(done));
        }
        match self.untagged.pop_front() {
            None => Ok(None),
            Some(Response::Error { code, detail }) => Err(ClientError::Server { code, detail }),
            Some(_) => Err(ClientError::UnexpectedResponse(
                "untagged frame on a pipelined connection",
            )),
        }
    }

    /// Reads once from the socket and routes every completed frame:
    /// tagged frames to their request's reassembly, untagged ones to
    /// [`Self::untagged`].
    fn pump(&mut self) -> Result<(), ClientError> {
        let mut buf = [0u8; 64 * 1024];
        let n = self.stream.read(&mut buf)?;
        if n == 0 {
            return Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )));
        }
        self.assembler.extend(&buf[..n]);
        while let Some((kind, payload)) = self
            .assembler
            .next_frame(protocol::MAX_PAYLOAD)
            .map_err(ClientError::Wire)?
        {
            match Response::decode(kind, &payload).map_err(ClientError::Wire)? {
                Response::Tagged { corr_id, inner } => self.accept_tagged(corr_id, *inner)?,
                untagged => self.untagged.push_back(untagged),
            }
        }
        Ok(())
    }

    /// Routes one tagged frame to its request's reassembly state.
    fn accept_tagged(&mut self, corr: u64, inner: Response) -> Result<(), ClientError> {
        let corrupt =
            |detail: String| ClientError::StreamCorrupt(format!("request {corr}: {detail}"));
        let unknown = |what: &str| corrupt(format!("{what} for no such pending request"));
        let outcome = match inner {
            Response::Batch { seq, samples } => {
                return match self.pending.get_mut(&corr) {
                    Some(Accum::Digitize(r)) => r.batch(seq, &samples).map_err(corrupt),
                    _ => Err(unknown("code batch")),
                }
            }
            Response::GangedBatch { seq, values } => {
                return match self.pending.get_mut(&corr) {
                    Some(Accum::Ganged(r)) => r.batch(seq, &values).map_err(corrupt),
                    _ => Err(unknown("ganged batch")),
                }
            }
            Response::Done(done) => match self.pending.remove(&corr) {
                Some(Accum::Digitize(r)) => {
                    let samples = r
                        .finish(
                            done.total_samples,
                            done.batches,
                            done.stream_crc32,
                            stream_crc,
                        )
                        .map_err(corrupt)?;
                    PipelinedOutcome::Digitize(DigitizeResult { samples, done })
                }
                _ => return Err(unknown("done")),
            },
            Response::GangedDone(done) => match self.pending.remove(&corr) {
                Some(Accum::Ganged(r)) => {
                    let values = r
                        .finish(
                            done.total_samples,
                            done.batches,
                            done.stream_crc32,
                            value_stream_crc,
                        )
                        .map_err(corrupt)?;
                    PipelinedOutcome::Ganged(GangedResult { values, done })
                }
                _ => return Err(unknown("ganged done")),
            },
            // Typed per-request failure (validation, overload shed,
            // deadline): the request is over, the connection fine.
            Response::Error { code, detail } => {
                self.pending.remove(&corr);
                PipelinedOutcome::ServerError { code, detail }
            }
            _ => {
                return Err(ClientError::UnexpectedResponse(
                    "unexpected tagged frame kind",
                ))
            }
        };
        self.ready.push_back((corr, outcome));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{encode_response, MAX_PAYLOAD};
    use std::net::TcpListener;

    fn tagged(corr_id: u64, inner: Response) -> Response {
        Response::Tagged {
            corr_id,
            inner: Box::new(inner),
        }
    }

    fn done(total_samples: u32, batches: u32, stream_crc32: u32) -> Response {
        Response::Done(DigitizeDone {
            total_samples,
            batches,
            f_in_hz: 0.0,
            stream_crc32,
        })
    }

    /// Accepts one connection, waits for its first request frame, and
    /// answers it with `frames`.
    fn forge(frames: Vec<Response>) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let join = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut assembler = FrameAssembler::new();
            let mut buf = [0u8; 4096];
            while assembler.next_frame(MAX_PAYLOAD).unwrap().is_none() {
                let n = stream.read(&mut buf).unwrap();
                assert!(n > 0, "client closed before its request");
                assembler.extend(&buf[..n]);
            }
            for frame in &frames {
                stream.write_all(&encode_response(frame)).unwrap();
            }
        });
        (addr, join)
    }

    #[test]
    fn forged_streams_are_stream_corrupt_on_both_clients() {
        // Every first submission on a connection is correlation id 1.
        let good_crc = stream_crc(&[1, 2]);
        let batch = || {
            tagged(
                1,
                Response::Batch {
                    seq: 0,
                    samples: vec![1, 2],
                },
            )
        };
        let cases = [
            (
                "skipped seq",
                vec![tagged(
                    1,
                    Response::Batch {
                        seq: 1,
                        samples: vec![1, 2],
                    },
                )],
            ),
            (
                "wrong total",
                vec![batch(), tagged(1, done(3, 1, good_crc))],
            ),
            (
                "bad stream crc",
                vec![batch(), tagged(1, done(2, 1, good_crc ^ 1))],
            ),
            (
                "done for an unknown id",
                vec![tagged(99, done(0, 0, stream_crc(&[])))],
            ),
        ];
        let request = DigitizeRequest::tone(1, 10e6, 2);
        for (name, frames) in cases {
            let (addr, join) = forge(frames.clone());
            let blocking = Client::connect(addr).unwrap().digitize(&request);
            assert!(
                matches!(blocking, Err(ClientError::StreamCorrupt(_))),
                "{name}: Client::digitize gave {blocking:?}"
            );
            join.join().unwrap();

            let (addr, join) = forge(frames);
            let mut pipelined = PipelinedClient::connect(addr).unwrap();
            pipelined.submit(&request).unwrap();
            let completion = pipelined.next_completion();
            assert!(
                matches!(completion, Err(ClientError::StreamCorrupt(_))),
                "{name}: next_completion gave {completion:?}"
            );
            join.join().unwrap();
        }
    }
}
