//! The wire protocol: length-prefixed binary frames with CRC integrity.
//!
//! Every message — request or response — travels as one frame:
//!
//! ```text
//! offset  size  field
//!      0     4  magic       0x41444353 ("ADCS"), little endian
//!      4     2  version     protocol version, currently 3
//!      6     1  kind        frame type (request 0x01..=0x0F, response 0x81..=0x8F)
//!      7     4  payload_len bytes of payload that follow (bounded)
//!     11     n  payload     kind-specific body, little-endian scalars
//!   11+n     4  crc32       CRC-32/IEEE over bytes 0..11+n
//! ```
//!
//! Scalars are little-endian; `f64`s travel as their IEEE-754 bit
//! patterns, so a decoded value is **bit-identical** to the encoded one
//! — the property the serving-determinism guarantee rests on. Strings
//! are `u32` length + UTF-8 bytes; sample batches are `u32` count +
//! packed `u16` codes.
//!
//! Decoding is total: any byte sequence either parses or yields a typed
//! [`WireError`] — never a panic, never a partial value. Frames that
//! fail the magic, version, size, or CRC checks are rejected before
//! their payload is interpreted; [`FrameAssembler::next_frame`] is the
//! one place those checks live.
//!
//! Digitization travels only as [`Request::Submit`] under a nonzero
//! client-chosen correlation id, and every frame of its answer comes
//! back as [`Response::Tagged`]. Control requests (ping, metrics,
//! shutdown, cluster and cache traffic) are answered by one untagged
//! frame each.

/// Frame magic: `"ADCS"` as a little-endian `u32`.
pub const MAGIC: u32 = 0x5343_4441;
/// Protocol version this build speaks. Version 2 dropped the bare
/// digitize and ganged frames (kinds 0x02 and 0x05) in favour of
/// [`Request::Submit`]; version 3 dropped the cache probe and its
/// answer (kinds 0x07 and 0x8A). An older peer gets
/// [`WireError::BadVersion`] rather than an unknown kind.
pub const VERSION: u16 = 3;
/// Fixed frame-header size (magic + version + kind + payload_len).
pub const HEADER_LEN: usize = 11;
/// Hard ceiling on payload size a peer may declare (16 MiB) — guards
/// the length-prefixed read against garbage lengths. Servers usually
/// configure a lower limit.
pub const MAX_PAYLOAD: u32 = 16 << 20;

/// CRC-32/IEEE (reflected, polynomial 0xEDB88320), the zlib/PNG CRC.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = !0;
    for &byte in bytes {
        crc ^= u32::from(byte);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Why a frame or payload failed to decode. Typed, total, and panic-free.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The first four bytes were not [`MAGIC`].
    BadMagic(u32),
    /// The peer speaks a different protocol version.
    BadVersion(u16),
    /// The declared payload length exceeds the configured bound.
    Oversize {
        /// Declared payload length.
        declared: u32,
        /// The enforced maximum.
        max: u32,
    },
    /// The CRC trailer did not match the frame bytes.
    BadCrc {
        /// CRC computed over the received bytes.
        computed: u32,
        /// CRC carried by the frame.
        received: u32,
    },
    /// The frame kind byte is not a known request or response.
    UnknownKind(u8),
    /// The payload ended before the field being read.
    Truncated,
    /// A field held an invalid value (enum discriminant, UTF-8, ...).
    Malformed(&'static str),
    /// Payload bytes were left over after the last field.
    TrailingBytes(usize),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BadMagic(m) => write!(f, "bad frame magic {m:#010x}"),
            Self::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            Self::Oversize { declared, max } => {
                write!(f, "payload of {declared} bytes exceeds limit {max}")
            }
            Self::BadCrc { computed, received } => {
                write!(
                    f,
                    "crc mismatch: computed {computed:#010x}, frame carries {received:#010x}"
                )
            }
            Self::UnknownKind(k) => write!(f, "unknown frame kind {k:#04x}"),
            Self::Truncated => write!(f, "payload truncated"),
            Self::Malformed(what) => write!(f, "malformed field: {what}"),
            Self::TrailingBytes(n) => write!(f, "{n} trailing payload bytes"),
        }
    }
}

impl std::error::Error for WireError {}

/// Reads the `N`-byte little-endian field at `offset`, or `Truncated`.
///
/// This is the panic-free backbone of frame parsing: every fixed-width
/// header access goes through a bounds-checked `get` and an infallible
/// array conversion, so no byte layout can reach a slice-index panic.
fn field<const N: usize>(bytes: &[u8], offset: usize) -> Result<[u8; N], WireError> {
    offset
        .checked_add(N)
        .and_then(|end| bytes.get(offset..end))
        .and_then(|slice| <[u8; N]>::try_from(slice).ok())
        .ok_or(WireError::Truncated)
}

// ---------------------------------------------------------------------------
// Payload reader/writer
// ---------------------------------------------------------------------------

/// Little-endian payload writer.
#[derive(Debug, Default)]
pub(crate) struct PayloadWriter {
    buf: Vec<u8>,
}

impl PayloadWriter {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    pub fn samples(&mut self, codes: &[u16]) {
        self.u32(codes.len() as u32);
        for &c in codes {
            self.u16(c);
        }
    }

    pub fn values(&mut self, values: &[f64]) {
        self.u32(values.len() as u32);
        for &v in values {
            self.f64(v);
        }
    }
}

/// Little-endian payload reader over a received slice.
#[derive(Debug)]
pub(crate) struct PayloadReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> PayloadReader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        let slice = self.buf.get(self.pos..end).ok_or(WireError::Truncated)?;
        self.pos = end;
        Ok(slice)
    }

    /// Takes `N` bytes as a fixed array (total: short input is
    /// `Truncated`, never a panic).
    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        <[u8; N]>::try_from(self.take(N)?).map_err(|_| WireError::Truncated)
    }

    pub fn u8(&mut self) -> Result<u8, WireError> {
        let [byte] = self.array()?;
        Ok(byte)
    }

    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub fn str(&mut self) -> Result<String, WireError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Malformed("utf-8 string"))
    }

    pub fn samples(&mut self) -> Result<Vec<u16>, WireError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len.checked_mul(2).ok_or(WireError::Truncated)?)?;
        let mut codes = Vec::with_capacity(len);
        for pair in bytes.chunks_exact(2) {
            let code = <[u8; 2]>::try_from(pair).map_err(|_| WireError::Truncated)?;
            codes.push(u16::from_le_bytes(code));
        }
        Ok(codes)
    }

    pub fn values(&mut self) -> Result<Vec<f64>, WireError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len.checked_mul(8).ok_or(WireError::Truncated)?)?;
        let mut values = Vec::with_capacity(len);
        for chunk in bytes.chunks_exact(8) {
            let bits = <[u8; 8]>::try_from(chunk).map_err(|_| WireError::Truncated)?;
            values.push(f64::from_bits(u64::from_le_bytes(bits)));
        }
        Ok(values)
    }

    /// Consumes and returns every remaining payload byte (used to hand
    /// a nested frame body to an inner decoder, which enforces its own
    /// trailing-bytes check).
    pub fn rest(&mut self) -> &'a [u8] {
        let out = self.buf.get(self.pos..).unwrap_or(&[]);
        self.pos = self.buf.len();
        out
    }

    pub fn finish(self) -> Result<(), WireError> {
        let left = self.buf.len().saturating_sub(self.pos);
        if left == 0 {
            Ok(())
        } else {
            Err(WireError::TrailingBytes(left))
        }
    }
}

// ---------------------------------------------------------------------------
// Message types
// ---------------------------------------------------------------------------

/// The converter preset a digitize request starts from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preset {
    /// `AdcConfig::nominal_110ms()` — the paper's calibrated design.
    Nominal110,
    /// `AdcConfig::ideal(f_cr)` — a noiseless ideal quantizer.
    Ideal,
    /// `AdcConfig::sibling_220ms_10b()` — the ref. \[1\] sibling part.
    Sibling220,
}

impl Preset {
    fn to_u8(self) -> u8 {
        match self {
            Self::Nominal110 => 0,
            Self::Ideal => 1,
            Self::Sibling220 => 2,
        }
    }

    fn from_u8(v: u8) -> Result<Self, WireError> {
        match v {
            0 => Ok(Self::Nominal110),
            1 => Ok(Self::Ideal),
            2 => Ok(Self::Sibling220),
            _ => Err(WireError::Malformed("preset discriminant")),
        }
    }
}

/// Sparse overrides applied on top of the preset configuration.
///
/// Encoded as a presence bitmask followed by the set fields in order,
/// so adding fields later stays wire-compatible within a version.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ConfigOverrides {
    /// Conversion rate, hertz.
    pub f_cr_hz: Option<f64>,
    /// Stimulus amplitude, volts peak (defaults to the session's
    /// near-full-scale level).
    pub amplitude_v: Option<f64>,
    /// Enable/disable thermal noise injection.
    pub thermal_noise: Option<bool>,
}

impl ConfigOverrides {
    fn encode(&self, w: &mut PayloadWriter) {
        let mut mask = 0u8;
        if self.f_cr_hz.is_some() {
            mask |= 1;
        }
        if self.amplitude_v.is_some() {
            mask |= 2;
        }
        if self.thermal_noise.is_some() {
            mask |= 4;
        }
        w.u8(mask);
        if let Some(v) = self.f_cr_hz {
            w.f64(v);
        }
        if let Some(v) = self.amplitude_v {
            w.f64(v);
        }
        if let Some(v) = self.thermal_noise {
            w.u8(u8::from(v));
        }
    }

    fn decode(r: &mut PayloadReader<'_>) -> Result<Self, WireError> {
        let mask = r.u8()?;
        if mask & !0b111 != 0 {
            return Err(WireError::Malformed("override mask"));
        }
        Ok(Self {
            f_cr_hz: if mask & 1 != 0 { Some(r.f64()?) } else { None },
            amplitude_v: if mask & 2 != 0 { Some(r.f64()?) } else { None },
            thermal_noise: if mask & 4 != 0 {
                Some(match r.u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(WireError::Malformed("thermal_noise flag")),
                })
            } else {
                None
            },
        })
    }
}

/// The stimulus a digitize request drives into the converter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WaveformSpec {
    /// A coherent single tone near `f_target_hz` (the frequency is
    /// snapped to the coherent FFT grid exactly as the bench does;
    /// the response's `f_in_hz` reports the frequency used).
    Tone {
        /// Requested stimulus frequency, hertz.
        f_target_hz: f64,
    },
    /// A constant level (offset / static testing).
    Dc {
        /// The level, volts.
        level_v: f64,
    },
    /// A linear ramp spanning the record (histogram linearity).
    Ramp {
        /// Start voltage.
        from_v: f64,
        /// End voltage.
        to_v: f64,
    },
}

impl WaveformSpec {
    fn encode(&self, w: &mut PayloadWriter) {
        match *self {
            Self::Tone { f_target_hz } => {
                w.u8(0);
                w.f64(f_target_hz);
            }
            Self::Dc { level_v } => {
                w.u8(1);
                w.f64(level_v);
            }
            Self::Ramp { from_v, to_v } => {
                w.u8(2);
                w.f64(from_v);
                w.f64(to_v);
            }
        }
    }

    fn decode(r: &mut PayloadReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(Self::Tone {
                f_target_hz: r.f64()?,
            }),
            1 => Ok(Self::Dc { level_v: r.f64()? }),
            2 => Ok(Self::Ramp {
                from_v: r.f64()?,
                to_v: r.f64()?,
            }),
            _ => Err(WireError::Malformed("waveform discriminant")),
        }
    }
}

/// One digitization request: fabricate the configured die at `seed`,
/// drive the stimulus, stream `n_samples` codes back in batches.
#[derive(Debug, Clone, PartialEq)]
pub struct DigitizeRequest {
    /// Base configuration preset.
    pub preset: Preset,
    /// Fabrication seed — the same seed given to a direct in-process
    /// `MeasurementSession::new(config, seed)` yields bit-identical
    /// samples.
    pub seed: u64,
    /// Sparse config overrides on top of the preset.
    pub overrides: ConfigOverrides,
    /// The stimulus.
    pub waveform: WaveformSpec,
    /// Samples to convert. Tone requests require a power of two (the
    /// coherent-capture grid); all requests are bounded by the server's
    /// configured maximum.
    pub n_samples: u32,
    /// Samples per streamed batch frame; `0` selects the server default.
    pub batch_size: u32,
    /// Per-request deadline in milliseconds; `0` means no deadline. The
    /// server enforces it cooperatively from dispatch through
    /// conversion; delivering the converted record is not under it.
    pub deadline_ms: u32,
}

impl DigitizeRequest {
    /// A tone capture with bench defaults: golden-style explicit seed,
    /// no overrides, server-default batching, no deadline.
    pub fn tone(seed: u64, f_target_hz: f64, n_samples: u32) -> Self {
        Self {
            preset: Preset::Nominal110,
            seed,
            overrides: ConfigOverrides::default(),
            waveform: WaveformSpec::Tone { f_target_hz },
            n_samples,
            batch_size: 0,
            deadline_ms: 0,
        }
    }
}

/// Most channels a ganged request may ask for; counts outside
/// `1..=MAX_GANGED_CHANNELS` are rejected at decode time as
/// [`WireError::Malformed`].
pub const MAX_GANGED_CHANNELS: u8 = 16;

/// Channel alignment mode of a ganged request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GangedCal {
    /// No alignment: the raw mismatch spurs on display.
    Raw,
    /// Foreground DC alignment with the server's fixed averaging.
    Foreground,
    /// Background calibration from live data, run to convergence (or
    /// the server's fixed epoch budget) before the capture.
    Background,
}

impl GangedCal {
    fn to_u8(self) -> u8 {
        match self {
            Self::Raw => 0,
            Self::Foreground => 1,
            Self::Background => 2,
        }
    }

    fn from_u8(v: u8) -> Result<Self, WireError> {
        match v {
            0 => Ok(Self::Raw),
            1 => Ok(Self::Foreground),
            2 => Ok(Self::Background),
            _ => Err(WireError::Malformed("ganged cal discriminant")),
        }
    }
}

/// One ganged digitization: fabricate an M-way interleaved array at
/// `seed`, align it as requested, and stream the interleaved record
/// (reconstructed volts) back in batches.
///
/// The served record is **bit-identical** to an in-process
/// `adc_calib::GangedScenario::capture_tone` built from the same fields
/// (the server publishes its fixed alignment constants for exactly this
/// purpose).
#[derive(Debug, Clone, PartialEq)]
pub struct GangedRequest {
    /// Per-channel base configuration preset.
    pub preset: Preset,
    /// Array fabrication seed (channel `k` is die `seed + k`).
    pub seed: u64,
    /// Channel count, `1..=MAX_GANGED_CHANNELS`.
    pub channels: u8,
    /// Draw the typical array-level skew/bandwidth mismatch (`true`) or
    /// build a perfectly matched array (`false`).
    pub mismatch: bool,
    /// Channel alignment before the capture.
    pub cal: GangedCal,
    /// Requested stimulus frequency, hertz (coherently snapped; the
    /// response reports the frequency used).
    pub f_target_hz: f64,
    /// Samples to capture (power of two — ganged captures are coherent
    /// tone records).
    pub n_samples: u32,
    /// Values per streamed batch frame; `0` selects the server default.
    pub batch_size: u32,
    /// Per-request deadline in milliseconds; `0` means none.
    pub deadline_ms: u32,
}

impl GangedRequest {
    /// A background-calibrated capture of a mismatched array — the
    /// interesting mode — with server-default batching and no deadline.
    pub fn tone(seed: u64, channels: u8, f_target_hz: f64, n_samples: u32) -> Self {
        Self {
            preset: Preset::Nominal110,
            seed,
            channels,
            mismatch: true,
            cal: GangedCal::Background,
            f_target_hz,
            n_samples,
            batch_size: 0,
            deadline_ms: 0,
        }
    }
}

/// Most jobs one [`JobBatchRequest`] frame may carry; larger batches
/// are rejected at decode time as [`WireError::Malformed`]. Bounds the
/// allocation a declared count can force before the payload is walked.
pub const MAX_BATCH_JOBS: u32 = 4096;

/// Most entries one [`CacheFillRequest`] frame may carry; same
/// decode-time rejection rationale as [`MAX_BATCH_JOBS`].
pub const MAX_CACHE_ENTRIES: u32 = 65_536;

/// One campaign job as it travels the wire: the rendered canonical
/// config (the wire cannot carry arbitrary `Debug` types), the
/// schedule-independent derived seed, and the content-addressed cache
/// key the result lands under.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Stable campaign job id (submission index) — results assemble
    /// into id-indexed slots, so completion order and host placement
    /// are invisible.
    pub id: u64,
    /// Content-addressed cache key (`canonical_key` namespace, epoch
    /// salted) — shared verbatim between hosts.
    pub key: u64,
    /// Derived per-job seed, `derive_seed(campaign_seed, id)` —
    /// identical whichever host runs the job.
    pub seed: u64,
    /// Canonically rendered job configuration, interpreted by the
    /// executing host's registered job runner.
    pub config: String,
}

/// A batch of campaign jobs for remote execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobBatchRequest {
    /// Client-chosen batch id, echoed in the [`Response::JobResult`].
    pub batch_id: u64,
    /// Campaign name — salts cache keys and names the server-side
    /// cache file the results merge into.
    pub campaign: String,
    /// Job kind, dispatched through the server's job runner registry.
    pub kind: String,
    /// Per-batch deadline in milliseconds; `0` means none.
    pub deadline_ms: u32,
    /// The jobs; at most [`MAX_BATCH_JOBS`].
    pub jobs: Vec<JobSpec>,
}

/// How one job in a batch concluded on the serving host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// The host ran the job; `value` is the encoded result line.
    Computed,
    /// The host's warm cache already held the key; `value` is the
    /// cached line (bit-identical to a fresh computation).
    Cached,
    /// The job failed *deterministically* (unknown kind, malformed
    /// config): retrying elsewhere would fail identically, so the
    /// client must not resubmit. `value` carries the detail.
    Failed,
    /// The job failed *transiently* (draining, deadline, worker loss):
    /// the client should resubmit it — possibly to another host.
    /// `value` carries the detail.
    Rejected,
}

impl JobStatus {
    fn to_u8(self) -> u8 {
        match self {
            Self::Computed => 0,
            Self::Cached => 1,
            Self::Failed => 2,
            Self::Rejected => 3,
        }
    }

    fn from_u8(v: u8) -> Result<Self, WireError> {
        match v {
            0 => Ok(Self::Computed),
            1 => Ok(Self::Cached),
            2 => Ok(Self::Failed),
            3 => Ok(Self::Rejected),
            _ => Err(WireError::Malformed("job status discriminant")),
        }
    }
}

/// Outcome of one job from a [`JobBatchRequest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobOutcome {
    /// The job's id, copied from the spec.
    pub id: u64,
    /// The job's cache key, copied from the spec.
    pub key: u64,
    /// How the job concluded.
    pub status: JobStatus,
    /// Encoded result line (Computed/Cached) or failure detail
    /// (Failed/Rejected).
    pub value: String,
}

/// Completion of a [`JobBatchRequest`]: one outcome per submitted job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobResultBatch {
    /// Echo of the request's batch id.
    pub batch_id: u64,
    /// One outcome per job, in the order submitted.
    pub outcomes: Vec<JobOutcome>,
}

/// Bulk insert into a host's warm cache (fill-after-compute). Inserts are first-writer-wins: under the canonical-key contract any
/// two writers for a key hold bit-identical lines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheFillRequest {
    /// Campaign whose namespace the entries live in.
    pub campaign: String,
    /// `(key, encoded line)` pairs; at most [`MAX_CACHE_ENTRIES`].
    pub entries: Vec<(u64, String)>,
}

/// The work a [`Request::Submit`] frame carries — the digitizing
/// request kinds that may be pipelined under a correlation id.
#[derive(Debug, Clone, PartialEq)]
pub enum SubmitBody {
    /// A single-die digitization.
    Digitize(DigitizeRequest),
    /// A ganged (interleaved-array) digitization.
    Ganged(GangedRequest),
}

/// A digitization request: the client picks `corr_id` and may send
/// further `Submit` frames without waiting; every response frame
/// belonging to this request comes back wrapped in
/// [`Response::Tagged`] with the same id, and requests complete in
/// whatever order the server finishes them.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitRequest {
    /// Client-chosen correlation id, nonzero (the decoder rejects `0`
    /// as [`WireError::Malformed`]); echoed on every response frame of
    /// this request.
    pub corr_id: u64,
    /// The digitization to run.
    pub body: SubmitBody,
}

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe; the token is echoed back.
    Ping {
        /// Opaque token echoed in the pong.
        token: u64,
    },
    /// Snapshot the server's metrics registry.
    Metrics,
    /// Begin graceful drain-then-shutdown.
    Shutdown,
    /// Execute a batch of campaign jobs through the host's job runner.
    JobBatch(JobBatchRequest),
    /// Merge computed entries into the host's warm cache.
    CacheFill(CacheFillRequest),
    /// A digitization (single die or ganged array) under a
    /// client-chosen correlation id.
    Submit(SubmitRequest),
}

// Kinds 0x02 and 0x05 carried the version-1 bare digitize and ganged
// frames, and kinds 0x07 and 0x8A the version-2 cache probe and its
// hits; they stay unassigned.
const KIND_PING: u8 = 0x01;
const KIND_METRICS: u8 = 0x03;
const KIND_SHUTDOWN: u8 = 0x04;
const KIND_JOB_BATCH: u8 = 0x06;
const KIND_CACHE_FILL: u8 = 0x08;
const KIND_SUBMIT: u8 = 0x09;
const KIND_PONG: u8 = 0x81;
const KIND_BATCH: u8 = 0x82;
const KIND_DONE: u8 = 0x83;
const KIND_METRICS_SNAPSHOT: u8 = 0x84;
const KIND_ERROR: u8 = 0x85;
const KIND_SHUTDOWN_ACK: u8 = 0x86;
const KIND_GANGED_BATCH: u8 = 0x87;
const KIND_GANGED_DONE: u8 = 0x88;
const KIND_JOB_RESULT: u8 = 0x89;
const KIND_CACHE_FILL_ACK: u8 = 0x8B;
const KIND_TAGGED: u8 = 0x8C;

fn encode_digitize_fields(d: &DigitizeRequest, w: &mut PayloadWriter) {
    w.u8(d.preset.to_u8());
    w.u64(d.seed);
    d.overrides.encode(w);
    d.waveform.encode(w);
    w.u32(d.n_samples);
    w.u32(d.batch_size);
    w.u32(d.deadline_ms);
}

fn decode_digitize_fields(r: &mut PayloadReader<'_>) -> Result<DigitizeRequest, WireError> {
    let preset = Preset::from_u8(r.u8()?)?;
    let seed = r.u64()?;
    let overrides = ConfigOverrides::decode(r)?;
    let waveform = WaveformSpec::decode(r)?;
    Ok(DigitizeRequest {
        preset,
        seed,
        overrides,
        waveform,
        n_samples: r.u32()?,
        batch_size: r.u32()?,
        deadline_ms: r.u32()?,
    })
}

fn encode_ganged_fields(g: &GangedRequest, w: &mut PayloadWriter) {
    w.u8(g.preset.to_u8());
    w.u64(g.seed);
    w.u8(g.channels);
    w.u8(u8::from(g.mismatch));
    w.u8(g.cal.to_u8());
    w.f64(g.f_target_hz);
    w.u32(g.n_samples);
    w.u32(g.batch_size);
    w.u32(g.deadline_ms);
}

fn decode_ganged_fields(r: &mut PayloadReader<'_>) -> Result<GangedRequest, WireError> {
    let preset = Preset::from_u8(r.u8()?)?;
    let seed = r.u64()?;
    let channels = r.u8()?;
    if channels == 0 || channels > MAX_GANGED_CHANNELS {
        return Err(WireError::Malformed("channel count"));
    }
    let mismatch = match r.u8()? {
        0 => false,
        1 => true,
        _ => return Err(WireError::Malformed("mismatch flag")),
    };
    let cal = GangedCal::from_u8(r.u8()?)?;
    Ok(GangedRequest {
        preset,
        seed,
        channels,
        mismatch,
        cal,
        f_target_hz: r.f64()?,
        n_samples: r.u32()?,
        batch_size: r.u32()?,
        deadline_ms: r.u32()?,
    })
}

impl Request {
    fn kind(&self) -> u8 {
        match self {
            Self::Ping { .. } => KIND_PING,
            Self::Metrics => KIND_METRICS,
            Self::Shutdown => KIND_SHUTDOWN,
            Self::JobBatch(_) => KIND_JOB_BATCH,
            Self::CacheFill(_) => KIND_CACHE_FILL,
            Self::Submit(_) => KIND_SUBMIT,
        }
    }

    fn payload(&self) -> Vec<u8> {
        let mut w = PayloadWriter::new();
        match self {
            Self::Ping { token } => w.u64(*token),
            Self::Submit(s) => {
                w.u64(s.corr_id);
                match &s.body {
                    SubmitBody::Digitize(d) => {
                        w.u8(0);
                        encode_digitize_fields(d, &mut w);
                    }
                    SubmitBody::Ganged(g) => {
                        w.u8(1);
                        encode_ganged_fields(g, &mut w);
                    }
                }
            }
            Self::JobBatch(b) => {
                w.u64(b.batch_id);
                w.str(&b.campaign);
                w.str(&b.kind);
                w.u32(b.deadline_ms);
                w.u32(b.jobs.len() as u32);
                for job in &b.jobs {
                    w.u64(job.id);
                    w.u64(job.key);
                    w.u64(job.seed);
                    w.str(&job.config);
                }
            }
            Self::CacheFill(c) => {
                w.str(&c.campaign);
                w.u32(c.entries.len() as u32);
                for (key, line) in &c.entries {
                    w.u64(*key);
                    w.str(line);
                }
            }
            Self::Metrics | Self::Shutdown => {}
        }
        w.into_bytes()
    }

    pub(crate) fn decode(kind: u8, payload: &[u8]) -> Result<Self, WireError> {
        let mut r = PayloadReader::new(payload);
        let request = match kind {
            KIND_PING => Self::Ping { token: r.u64()? },
            KIND_METRICS => Self::Metrics,
            KIND_SHUTDOWN => Self::Shutdown,
            KIND_SUBMIT => {
                let corr_id = r.u64()?;
                if corr_id == 0 {
                    return Err(WireError::Malformed("submit corr_id 0"));
                }
                let body = match r.u8()? {
                    0 => SubmitBody::Digitize(decode_digitize_fields(&mut r)?),
                    1 => SubmitBody::Ganged(decode_ganged_fields(&mut r)?),
                    _ => return Err(WireError::Malformed("submit body discriminant")),
                };
                Self::Submit(SubmitRequest { corr_id, body })
            }
            KIND_JOB_BATCH => {
                let batch_id = r.u64()?;
                let campaign = r.str()?;
                let kind = r.str()?;
                let deadline_ms = r.u32()?;
                let count = r.u32()?;
                if count > MAX_BATCH_JOBS {
                    return Err(WireError::Malformed("job count"));
                }
                let mut jobs = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    jobs.push(JobSpec {
                        id: r.u64()?,
                        key: r.u64()?,
                        seed: r.u64()?,
                        config: r.str()?,
                    });
                }
                Self::JobBatch(JobBatchRequest {
                    batch_id,
                    campaign,
                    kind,
                    deadline_ms,
                    jobs,
                })
            }
            KIND_CACHE_FILL => {
                let campaign = r.str()?;
                let count = r.u32()?;
                if count > MAX_CACHE_ENTRIES {
                    return Err(WireError::Malformed("cache entry count"));
                }
                let mut entries = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    let key = r.u64()?;
                    let line = r.str()?;
                    entries.push((key, line));
                }
                Self::CacheFill(CacheFillRequest { campaign, entries })
            }
            other => return Err(WireError::UnknownKind(other)),
        };
        r.finish()?;
        Ok(request)
    }
}

/// Typed error classes a server can return.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request frame failed protocol validation.
    Protocol,
    /// Request fields were out of the server's accepted bounds.
    InvalidRequest,
    /// Converter build failed: no stages configured.
    NoStages,
    /// Converter build failed: non-positive conversion rate.
    InvalidRate,
    /// Converter build failed: non-positive reference voltage.
    InvalidReference,
    /// Converter build failed: clocking leaves no settling time.
    NoSettlingTime,
    /// The request exceeded its deadline.
    TimedOut,
    /// The server is draining and no longer accepts work.
    Draining,
    /// An unexpected server-side failure (worker panic, ...).
    Internal,
    /// The request names a capability this server does not provide
    /// (e.g. a job batch on a host with no job runner).
    Unsupported,
    /// Admission control shed this request: the server's bounded queues
    /// were full. The request was *not* run; retry later (in-flight
    /// requests on the same connection are unaffected).
    Overloaded,
}

impl ErrorCode {
    fn to_u8(self) -> u8 {
        match self {
            Self::Protocol => 0,
            Self::InvalidRequest => 1,
            Self::NoStages => 2,
            Self::InvalidRate => 3,
            Self::InvalidReference => 4,
            Self::NoSettlingTime => 5,
            Self::TimedOut => 6,
            Self::Draining => 7,
            Self::Internal => 8,
            Self::Unsupported => 9,
            Self::Overloaded => 10,
        }
    }

    fn from_u8(v: u8) -> Result<Self, WireError> {
        Ok(match v {
            0 => Self::Protocol,
            1 => Self::InvalidRequest,
            2 => Self::NoStages,
            3 => Self::InvalidRate,
            4 => Self::InvalidReference,
            5 => Self::NoSettlingTime,
            6 => Self::TimedOut,
            7 => Self::Draining,
            8 => Self::Internal,
            9 => Self::Unsupported,
            10 => Self::Overloaded,
            _ => return Err(WireError::Malformed("error code")),
        })
    }
}

/// Maps a converter build failure onto its wire error class.
pub fn error_code_for_build(err: &adc_pipeline::error::BuildAdcError) -> ErrorCode {
    use adc_pipeline::error::BuildAdcError as E;
    match err {
        E::NoStages => ErrorCode::NoStages,
        E::InvalidRate(_) => ErrorCode::InvalidRate,
        E::InvalidReference(_) => ErrorCode::InvalidReference,
        E::NoSettlingTime { .. } => ErrorCode::NoSettlingTime,
    }
}

/// Completion summary of a digitize stream.
#[derive(Debug, Clone, PartialEq)]
pub struct DigitizeDone {
    /// Total samples streamed across all batches.
    pub total_samples: u32,
    /// Number of batch frames that preceded this frame.
    pub batches: u32,
    /// The exact stimulus frequency used (coherent snap), hertz; `0.0`
    /// for non-tone waveforms.
    pub f_in_hz: f64,
    /// CRC-32 over the little-endian byte stream of all samples, in
    /// order — lets a client verify reassembly without re-requesting.
    pub stream_crc32: u32,
}

/// Completion summary of a ganged stream.
#[derive(Debug, Clone, PartialEq)]
pub struct GangedDone {
    /// Total values streamed across all batches.
    pub total_samples: u32,
    /// Number of ganged-batch frames that preceded this frame.
    pub batches: u32,
    /// The exact stimulus frequency used (coherent snap), hertz.
    pub f_in_hz: f64,
    /// Background-calibration epochs run before the capture (zero for
    /// raw/foreground alignment).
    pub epochs_run: u32,
    /// Whether the background loop reached its hold state within the
    /// server's epoch budget (always `true` for raw/foreground).
    pub converged: bool,
    /// CRC-32 over the little-endian IEEE-754 byte stream of all
    /// values, in order.
    pub stream_crc32: u32,
}

/// Point-in-time metrics snapshot (see `metrics` module for semantics).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Connections accepted over the server's lifetime.
    pub connections: u64,
    /// Ping requests served.
    pub pings: u64,
    /// Digitize requests accepted (including ones that later failed).
    pub digitizes: u64,
    /// Metrics requests served.
    pub metrics_requests: u64,
    /// Error frames sent, any class.
    pub errors: u64,
    /// Digitize jobs currently queued or running.
    pub in_flight: u64,
    /// Digitize jobs completed successfully.
    pub completed: u64,
    /// Samples streamed to clients.
    pub samples_streamed: u64,
    /// Cluster job batches accepted.
    pub job_batches: u64,
    /// Cluster jobs answered from the warm cache.
    pub cluster_cache_hits: u64,
    /// Median digitize latency, microseconds (0 with no completed jobs).
    pub p50_us: u64,
    /// 90th-percentile digitize latency, microseconds.
    pub p90_us: u64,
    /// 99th-percentile digitize latency, microseconds.
    pub p99_us: u64,
    /// Requests shed by admission control (`Overloaded` frames sent).
    pub overloaded: u64,
    /// Always 0: the server runs every request as its own job and
    /// coalesces nothing. Kept so the version-2 `Metrics` frame layout
    /// and the readers of this field stay unchanged.
    pub coalesced: u64,
}

impl MetricsSnapshot {
    fn encode(&self, w: &mut PayloadWriter) {
        for v in [
            self.connections,
            self.pings,
            self.digitizes,
            self.metrics_requests,
            self.errors,
            self.in_flight,
            self.completed,
            self.samples_streamed,
            self.job_batches,
            self.cluster_cache_hits,
            self.p50_us,
            self.p90_us,
            self.p99_us,
            self.overloaded,
            self.coalesced,
        ] {
            w.u64(v);
        }
    }

    fn decode(r: &mut PayloadReader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            connections: r.u64()?,
            pings: r.u64()?,
            digitizes: r.u64()?,
            metrics_requests: r.u64()?,
            errors: r.u64()?,
            in_flight: r.u64()?,
            completed: r.u64()?,
            samples_streamed: r.u64()?,
            job_batches: r.u64()?,
            cluster_cache_hits: r.u64()?,
            p50_us: r.u64()?,
            p90_us: r.u64()?,
            p99_us: r.u64()?,
            overloaded: r.u64()?,
            coalesced: r.u64()?,
        })
    }
}

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Echo of a [`Request::Ping`].
    Pong {
        /// The echoed token.
        token: u64,
    },
    /// One streamed batch of converted codes.
    Batch {
        /// Zero-based batch index within the stream.
        seq: u32,
        /// The codes, in conversion order.
        samples: Vec<u16>,
    },
    /// End of a digitize stream.
    Done(DigitizeDone),
    /// Snapshot answering a [`Request::Metrics`].
    Metrics(MetricsSnapshot),
    /// A typed failure; terminates the active request.
    Error {
        /// The error class.
        code: ErrorCode,
        /// Human-readable detail.
        detail: String,
    },
    /// Acknowledges a [`Request::Shutdown`]; the server drains and
    /// closes.
    ShutdownAck,
    /// One streamed batch of a ganged (interleaved, corrected) record.
    GangedBatch {
        /// Zero-based batch index within the stream.
        seq: u32,
        /// Reconstructed voltages, in conversion order, bit-exact.
        values: Vec<f64>,
    },
    /// End of a ganged stream.
    GangedDone(GangedDone),
    /// Completion of a [`Request::JobBatch`]: one outcome per job.
    JobResult(JobResultBatch),
    /// Acknowledges a [`Request::CacheFill`].
    CacheFillAck {
        /// Entries newly inserted (existing keys are kept, not
        /// overwritten — see [`CacheFillRequest`]).
        accepted: u32,
    },
    /// A response frame belonging to a pipelined [`Request::Submit`]
    /// stream: the correlation id names which in-flight request the
    /// inner frame continues or completes. The inner response is one of
    /// `Batch`, `Done`, `GangedBatch`, `GangedDone`, or `Error` — never
    /// another `Tagged`.
    Tagged {
        /// The correlation id the client chose at submit time.
        corr_id: u64,
        /// The wrapped stream frame.
        inner: Box<Response>,
    },
}

impl Response {
    fn kind(&self) -> u8 {
        match self {
            Self::Pong { .. } => KIND_PONG,
            Self::Batch { .. } => KIND_BATCH,
            Self::Done(_) => KIND_DONE,
            Self::Metrics(_) => KIND_METRICS_SNAPSHOT,
            Self::Error { .. } => KIND_ERROR,
            Self::ShutdownAck => KIND_SHUTDOWN_ACK,
            Self::GangedBatch { .. } => KIND_GANGED_BATCH,
            Self::GangedDone(_) => KIND_GANGED_DONE,
            Self::JobResult(_) => KIND_JOB_RESULT,
            Self::CacheFillAck { .. } => KIND_CACHE_FILL_ACK,
            Self::Tagged { .. } => KIND_TAGGED,
        }
    }

    fn payload(&self) -> Vec<u8> {
        let mut w = PayloadWriter::new();
        match self {
            Self::Pong { token } => w.u64(*token),
            Self::Batch { seq, samples } => {
                w.u32(*seq);
                w.samples(samples);
            }
            Self::Done(d) => {
                w.u32(d.total_samples);
                w.u32(d.batches);
                w.f64(d.f_in_hz);
                w.u32(d.stream_crc32);
            }
            Self::Metrics(m) => m.encode(&mut w),
            Self::Error { code, detail } => {
                w.u8(code.to_u8());
                w.str(detail);
            }
            Self::ShutdownAck => {}
            Self::GangedBatch { seq, values } => {
                w.u32(*seq);
                w.values(values);
            }
            Self::GangedDone(d) => {
                w.u32(d.total_samples);
                w.u32(d.batches);
                w.f64(d.f_in_hz);
                w.u32(d.epochs_run);
                w.u8(u8::from(d.converged));
                w.u32(d.stream_crc32);
            }
            Self::JobResult(b) => {
                w.u64(b.batch_id);
                w.u32(b.outcomes.len() as u32);
                for outcome in &b.outcomes {
                    w.u64(outcome.id);
                    w.u64(outcome.key);
                    w.u8(outcome.status.to_u8());
                    w.str(&outcome.value);
                }
            }
            Self::CacheFillAck { accepted } => w.u32(*accepted),
            Self::Tagged { corr_id, inner } => {
                w.u64(*corr_id);
                w.u8(inner.kind());
                w.bytes(&inner.payload());
            }
        }
        w.into_bytes()
    }

    pub(crate) fn decode(kind: u8, payload: &[u8]) -> Result<Self, WireError> {
        let mut r = PayloadReader::new(payload);
        let response = match kind {
            KIND_PONG => Self::Pong { token: r.u64()? },
            KIND_BATCH => Self::Batch {
                seq: r.u32()?,
                samples: r.samples()?,
            },
            KIND_DONE => Self::Done(DigitizeDone {
                total_samples: r.u32()?,
                batches: r.u32()?,
                f_in_hz: r.f64()?,
                stream_crc32: r.u32()?,
            }),
            KIND_METRICS_SNAPSHOT => Self::Metrics(MetricsSnapshot::decode(&mut r)?),
            KIND_ERROR => Self::Error {
                code: ErrorCode::from_u8(r.u8()?)?,
                detail: r.str()?,
            },
            KIND_SHUTDOWN_ACK => Self::ShutdownAck,
            KIND_GANGED_BATCH => Self::GangedBatch {
                seq: r.u32()?,
                values: r.values()?,
            },
            KIND_GANGED_DONE => Self::GangedDone(GangedDone {
                total_samples: r.u32()?,
                batches: r.u32()?,
                f_in_hz: r.f64()?,
                epochs_run: r.u32()?,
                converged: match r.u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(WireError::Malformed("converged flag")),
                },
                stream_crc32: r.u32()?,
            }),
            KIND_JOB_RESULT => {
                let batch_id = r.u64()?;
                let count = r.u32()?;
                if count > MAX_BATCH_JOBS {
                    return Err(WireError::Malformed("outcome count"));
                }
                let mut outcomes = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    outcomes.push(JobOutcome {
                        id: r.u64()?,
                        key: r.u64()?,
                        status: JobStatus::from_u8(r.u8()?)?,
                        value: r.str()?,
                    });
                }
                Self::JobResult(JobResultBatch { batch_id, outcomes })
            }
            KIND_CACHE_FILL_ACK => Self::CacheFillAck { accepted: r.u32()? },
            KIND_TAGGED => {
                let corr_id = r.u64()?;
                let inner_kind = r.u8()?;
                match inner_kind {
                    KIND_BATCH | KIND_DONE | KIND_ERROR | KIND_GANGED_BATCH | KIND_GANGED_DONE => {}
                    _ => return Err(WireError::Malformed("tagged inner kind")),
                }
                // The inner decoder enforces its own trailing-bytes
                // check over the rest of the payload.
                let inner = Self::decode(inner_kind, r.rest())?;
                return Ok(Self::Tagged {
                    corr_id,
                    inner: Box::new(inner),
                });
            }
            other => return Err(WireError::UnknownKind(other)),
        };
        r.finish()?;
        Ok(response)
    }
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

fn encode_frame(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(HEADER_LEN + payload.len() + 4);
    frame.extend_from_slice(&MAGIC.to_le_bytes());
    frame.extend_from_slice(&VERSION.to_le_bytes());
    frame.push(kind);
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    let crc = crc32(&frame);
    frame.extend_from_slice(&crc.to_le_bytes());
    frame
}

/// Encodes a request into one wire frame.
pub fn encode_request(request: &Request) -> Vec<u8> {
    encode_frame(request.kind(), &request.payload())
}

/// Encodes a response into one wire frame.
pub fn encode_response(response: &Response) -> Vec<u8> {
    encode_frame(response.kind(), &response.payload())
}

/// Decodes the `(kind, payload)` pair a [`FrameAssembler`] yields into
/// a [`Request`].
///
/// # Errors
///
/// [`WireError`] when the kind is unknown or the payload malformed.
pub fn decode_request_frame(kind: u8, payload: &[u8]) -> Result<Request, WireError> {
    Request::decode(kind, payload)
}

/// Decodes the `(kind, payload)` pair a [`FrameAssembler`] yields into
/// a [`Response`].
///
/// # Errors
///
/// [`WireError`] when the kind is unknown or the payload malformed.
pub fn decode_response_frame(kind: u8, payload: &[u8]) -> Result<Response, WireError> {
    Response::decode(kind, payload)
}

/// Runs `bytes` through a [`FrameAssembler`] as exactly one frame: an
/// incomplete frame is `Truncated`, bytes after it `TrailingBytes`.
fn single_frame(bytes: &[u8]) -> Result<(u8, Vec<u8>), WireError> {
    let mut assembler = FrameAssembler::new();
    assembler.extend(bytes);
    let frame = assembler
        .next_frame(MAX_PAYLOAD)?
        .ok_or(WireError::Truncated)?;
    match assembler.buffered() {
        0 => Ok(frame),
        left => Err(WireError::TrailingBytes(left)),
    }
}

/// Decodes one complete request frame from a byte slice.
pub fn decode_request(bytes: &[u8]) -> Result<Request, WireError> {
    let (kind, payload) = single_frame(bytes)?;
    Request::decode(kind, &payload)
}

/// Decodes one complete response frame from a byte slice.
pub fn decode_response(bytes: &[u8]) -> Result<Response, WireError> {
    let (kind, payload) = single_frame(bytes)?;
    Response::decode(kind, &payload)
}

/// Incremental frame assembler for nonblocking transports.
///
/// Bytes arrive in arbitrary chunks ([`FrameAssembler::extend`]);
/// [`FrameAssembler::next_frame`] yields one complete, CRC-verified
/// frame at a time or `Ok(None)` while a frame is still partial. Header
/// fields (magic, version, declared size) are validated as soon as the
/// header is buffered, so garbage input fails fast instead of stalling
/// a length-prefixed read.
///
/// Decoding is total — any input either yields frames or a typed
/// [`WireError`], never a panic. After an error the stream offset is
/// unrecoverable; the caller must drop the connection (exactly what the
/// server does).
#[derive(Debug, Default)]
pub struct FrameAssembler {
    buf: Vec<u8>,
    start: usize,
}

/// Compact the assembler's buffer once the consumed prefix passes this
/// size, amortizing the copy against at least as many parsed bytes.
const ASSEMBLER_COMPACT_AT: usize = 64 * 1024;

impl FrameAssembler {
    /// An empty assembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends freshly received bytes to the stream buffer.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed as frames.
    pub fn buffered(&self) -> usize {
        self.buf.len().saturating_sub(self.start)
    }

    /// Extracts the next complete frame, if one is fully buffered.
    ///
    /// Returns `Ok(Some((kind, payload)))` for a verified frame,
    /// `Ok(None)` while the stream is mid-frame.
    ///
    /// # Errors
    ///
    /// A typed [`WireError`] on bad magic, version, an oversize
    /// declaration (checked against `max_payload`), or a CRC mismatch.
    pub fn next_frame(&mut self, max_payload: u32) -> Result<Option<(u8, Vec<u8>)>, WireError> {
        let bytes = self.buf.get(self.start..).unwrap_or(&[]);
        if bytes.len() < HEADER_LEN {
            return Ok(None);
        }
        let magic = u32::from_le_bytes(field(bytes, 0)?);
        if magic != MAGIC {
            return Err(WireError::BadMagic(magic));
        }
        let version = u16::from_le_bytes(field(bytes, 4)?);
        if version != VERSION {
            return Err(WireError::BadVersion(version));
        }
        let [kind] = field(bytes, 6)?;
        let declared = u32::from_le_bytes(field(bytes, 7)?);
        if declared > max_payload {
            return Err(WireError::Oversize {
                declared,
                max: max_payload,
            });
        }
        let body_len = HEADER_LEN + declared as usize;
        let total = body_len + 4;
        if bytes.len() < total {
            return Ok(None);
        }
        let body = bytes.get(..body_len).ok_or(WireError::Truncated)?;
        let received = u32::from_le_bytes(field(bytes, body_len)?);
        let computed = crc32(body);
        if computed != received {
            return Err(WireError::BadCrc { computed, received });
        }
        let payload = body.get(HEADER_LEN..).ok_or(WireError::Truncated)?.to_vec();
        self.start = self.start.saturating_add(total);
        if self.start >= self.buf.len() {
            self.buf.clear();
            self.start = 0;
        } else if self.start >= ASSEMBLER_COMPACT_AT {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        Ok(Some((kind, payload)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digitize(corr_id: u64, d: DigitizeRequest) -> Request {
        Request::Submit(SubmitRequest {
            corr_id,
            body: SubmitBody::Digitize(d),
        })
    }

    fn ganged(corr_id: u64, g: GangedRequest) -> Request {
        Request::Submit(SubmitRequest {
            corr_id,
            body: SubmitBody::Ganged(g),
        })
    }

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Ping { token: 0xDEAD_BEEF },
            Request::Metrics,
            Request::Shutdown,
            digitize(1, DigitizeRequest::tone(7, 10e6, 4096)),
            digitize(
                u64::MAX,
                DigitizeRequest {
                    preset: Preset::Ideal,
                    seed: 42,
                    overrides: ConfigOverrides {
                        f_cr_hz: Some(55e6),
                        amplitude_v: Some(0.75),
                        thermal_noise: Some(false),
                    },
                    waveform: WaveformSpec::Ramp {
                        from_v: -1.0,
                        to_v: 1.0,
                    },
                    n_samples: 1000,
                    batch_size: 128,
                    deadline_ms: 2500,
                },
            ),
            ganged(2, GangedRequest::tone(7, 2, 20e6, 4096)),
            ganged(
                3,
                GangedRequest {
                    preset: Preset::Ideal,
                    seed: 99,
                    channels: MAX_GANGED_CHANNELS,
                    mismatch: false,
                    cal: GangedCal::Foreground,
                    f_target_hz: 31e6,
                    n_samples: 2048,
                    batch_size: 512,
                    deadline_ms: 10_000,
                },
            ),
            Request::JobBatch(JobBatchRequest {
                batch_id: 11,
                campaign: "monte_carlo-0123456789abcdef".to_string(),
                kind: "die-tone-metrics".to_string(),
                deadline_ms: 30_000,
                jobs: vec![
                    JobSpec {
                        id: 0,
                        key: 0xd124_c4b6_f72f_81c2,
                        seed: 0x9e37_79b9_7f4a_7c15,
                        config: "(0, 10000000.0, 4096, 1)".to_string(),
                    },
                    JobSpec {
                        id: 1,
                        key: 2,
                        seed: 3,
                        config: String::new(),
                    },
                ],
            }),
            Request::JobBatch(JobBatchRequest {
                batch_id: 0,
                campaign: String::new(),
                kind: "probe-mix".to_string(),
                deadline_ms: 0,
                jobs: Vec::new(),
            }),
            Request::CacheFill(CacheFillRequest {
                campaign: "mc".to_string(),
                entries: vec![
                    (7, "404020000000000,4050100000000000".to_string()),
                    (8, String::new()),
                ],
            }),
            digitize(0x0123_4567_89AB_CDEF, DigitizeRequest::tone(7, 10e6, 4096)),
            ganged(4, GangedRequest::tone(7, 2, 20e6, 2048)),
        ]
    }

    fn sample_responses() -> Vec<Response> {
        vec![
            Response::Pong { token: 1 },
            Response::Batch {
                seq: 3,
                samples: vec![0, 1, 4095, 2048],
            },
            Response::Done(DigitizeDone {
                total_samples: 8192,
                batches: 8,
                f_in_hz: 10_009_765.625,
                stream_crc32: 0x1234_5678,
            }),
            Response::Metrics(MetricsSnapshot {
                connections: 4,
                digitizes: 10,
                p99_us: 1500,
                ..MetricsSnapshot::default()
            }),
            Response::Error {
                code: ErrorCode::NoSettlingTime,
                detail: "no settling time left at 600 MS/s".to_string(),
            },
            Response::ShutdownAck,
            Response::GangedBatch {
                seq: 5,
                values: vec![0.0, -0.5, 0.999_755_859_375, -0.0],
            },
            Response::GangedDone(GangedDone {
                total_samples: 4096,
                batches: 4,
                f_in_hz: 20_093_750.0,
                epochs_run: 7,
                converged: true,
                stream_crc32: 0x8BAD_F00D,
            }),
            Response::JobResult(JobResultBatch {
                batch_id: 11,
                outcomes: vec![
                    JobOutcome {
                        id: 0,
                        key: 10,
                        status: JobStatus::Computed,
                        value: "4050100000000000".to_string(),
                    },
                    JobOutcome {
                        id: 1,
                        key: 11,
                        status: JobStatus::Cached,
                        value: "4050100000000000".to_string(),
                    },
                    JobOutcome {
                        id: 2,
                        key: 12,
                        status: JobStatus::Failed,
                        value: "unknown job kind".to_string(),
                    },
                    JobOutcome {
                        id: 3,
                        key: 13,
                        status: JobStatus::Rejected,
                        value: "pool is draining".to_string(),
                    },
                ],
            }),
            Response::CacheFillAck { accepted: 17 },
            Response::Error {
                code: ErrorCode::Overloaded,
                detail: "admission queue full".to_string(),
            },
            Response::Tagged {
                corr_id: 42,
                inner: Box::new(Response::Batch {
                    seq: 0,
                    samples: vec![7, 4095, 0],
                }),
            },
            Response::Tagged {
                corr_id: u64::MAX,
                inner: Box::new(Response::Done(DigitizeDone {
                    total_samples: 2048,
                    batches: 2,
                    f_in_hz: 10_009_765.625,
                    stream_crc32: 0xFEED_FACE,
                })),
            },
            Response::Tagged {
                corr_id: 9,
                inner: Box::new(Response::Error {
                    code: ErrorCode::Overloaded,
                    detail: "shed".to_string(),
                }),
            },
            Response::Tagged {
                corr_id: 3,
                inner: Box::new(Response::GangedDone(GangedDone {
                    total_samples: 1024,
                    batches: 1,
                    f_in_hz: 20_093_750.0,
                    epochs_run: 3,
                    converged: true,
                    stream_crc32: 0x0BAD_CAFE,
                })),
            },
        ]
    }

    #[test]
    fn requests_round_trip() {
        for req in sample_requests() {
            let frame = encode_request(&req);
            assert_eq!(decode_request(&frame).unwrap(), req, "{req:?}");
        }
    }

    #[test]
    fn responses_round_trip() {
        for resp in sample_responses() {
            let frame = encode_response(&resp);
            assert_eq!(decode_response(&frame).unwrap(), resp, "{resp:?}");
        }
    }

    #[test]
    fn corrupted_magic_version_crc_are_typed_errors() {
        let frame = encode_request(&Request::Ping { token: 9 });
        let mut bad_magic = frame.clone();
        bad_magic[0] ^= 0xFF;
        assert!(matches!(
            decode_request(&bad_magic),
            Err(WireError::BadMagic(_))
        ));
        let mut bad_version = frame.clone();
        bad_version[4] = 0xFE;
        assert!(matches!(
            decode_request(&bad_version),
            Err(WireError::BadVersion(_))
        ));
        // Trailing bytes after one complete frame are rejected.
        let mut trailing = frame.clone();
        trailing.push(0);
        assert_eq!(decode_request(&trailing), Err(WireError::TrailingBytes(1)));
        let mut bad_payload = frame.clone();
        let n = bad_payload.len();
        bad_payload[n - 6] ^= 0x01; // payload byte: CRC must catch it
        assert!(matches!(
            decode_request(&bad_payload),
            Err(WireError::BadCrc { .. })
        ));
    }

    #[test]
    fn truncation_at_every_length_is_rejected_not_panicking() {
        let frame = encode_request(&digitize(1, DigitizeRequest::tone(1, 10e6, 512)));
        for len in 0..frame.len() {
            assert!(
                decode_request(&frame[..len]).is_err(),
                "truncated to {len} must not decode"
            );
        }
    }

    #[test]
    fn oversize_declaration_is_rejected_before_reading() {
        let mut frame = encode_request(&Request::Metrics);
        frame[7..11].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        assert!(matches!(
            decode_request(&frame),
            Err(WireError::Oversize { .. })
        ));
    }

    #[test]
    fn ganged_channel_counts_outside_bounds_are_malformed() {
        let template = GangedRequest::tone(1, 2, 20e6, 1024);
        for channels in [0u8, MAX_GANGED_CHANNELS + 1, 255] {
            let bad = ganged(
                1,
                GangedRequest {
                    channels,
                    ..template.clone()
                },
            );
            // Encode bypasses decode validation; the decoder must reject.
            let frame = encode_request(&bad);
            assert_eq!(
                decode_request(&frame),
                Err(WireError::Malformed("channel count")),
                "channels = {channels}"
            );
        }
        // The boundary values decode fine.
        for channels in [1u8, MAX_GANGED_CHANNELS] {
            let ok = ganged(
                1,
                GangedRequest {
                    channels,
                    ..template.clone()
                },
            );
            assert_eq!(decode_request(&encode_request(&ok)).unwrap(), ok);
        }
    }

    #[test]
    fn ganged_flag_and_discriminant_bytes_are_malformed_not_panics() {
        // Corrupt the mismatch flag (offset past corr_id 8 + body tag 1:
        // preset 1 + seed 8 + channels 1).
        let base = encode_request(&ganged(1, GangedRequest::tone(1, 2, 20e6, 1024)));
        let payload_start = HEADER_LEN + 9;
        let patch = |offset: usize, value: u8| {
            let mut f = base.clone();
            f[payload_start + offset] = value;
            let body_len = f.len() - 4;
            let crc = crc32(&f[..body_len]);
            f[body_len..].copy_from_slice(&crc.to_le_bytes());
            f
        };
        assert_eq!(
            decode_request(&patch(10, 7)),
            Err(WireError::Malformed("mismatch flag"))
        );
        assert_eq!(
            decode_request(&patch(11, 9)),
            Err(WireError::Malformed("ganged cal discriminant"))
        );
    }

    #[test]
    fn oversized_job_and_cache_counts_are_malformed() {
        // Forge a JobBatch frame whose declared job count exceeds the
        // cap but whose payload is otherwise well-formed framing: the
        // count check must fire before any per-job reads.
        let mut w = PayloadWriter::new();
        w.u64(1); // batch_id
        w.str("c");
        w.str("k");
        w.u32(0); // deadline
        w.u32(MAX_BATCH_JOBS + 1);
        let frame = encode_frame(KIND_JOB_BATCH, &w.into_bytes());
        assert_eq!(
            decode_request(&frame),
            Err(WireError::Malformed("job count"))
        );

        let mut w = PayloadWriter::new();
        w.str("c");
        w.u32(MAX_CACHE_ENTRIES + 1);
        let frame = encode_frame(KIND_CACHE_FILL, &w.into_bytes());
        assert_eq!(
            decode_request(&frame),
            Err(WireError::Malformed("cache entry count"))
        );

        let mut w = PayloadWriter::new();
        w.u64(1);
        w.u32(MAX_BATCH_JOBS + 1);
        let frame = encode_frame(KIND_JOB_RESULT, &w.into_bytes());
        assert_eq!(
            decode_response(&frame),
            Err(WireError::Malformed("outcome count"))
        );
    }

    #[test]
    fn invalid_job_status_byte_is_malformed_not_panic() {
        let mut w = PayloadWriter::new();
        w.u64(1); // batch_id
        w.u32(1); // one outcome
        w.u64(0); // id
        w.u64(0); // key
        w.u8(4); // invalid status discriminant
        w.str("x");
        let frame = encode_frame(KIND_JOB_RESULT, &w.into_bytes());
        assert_eq!(
            decode_response(&frame),
            Err(WireError::Malformed("job status discriminant"))
        );
    }

    #[test]
    fn job_frames_truncated_at_every_length_are_rejected() {
        let frames = [
            encode_request(&Request::JobBatch(JobBatchRequest {
                batch_id: 5,
                campaign: "mc".to_string(),
                kind: "die-tone-metrics".to_string(),
                deadline_ms: 1000,
                jobs: vec![JobSpec {
                    id: 0,
                    key: 1,
                    seed: 2,
                    config: "(0, 10000000.0, 4096, 1)".to_string(),
                }],
            })),
            encode_response(&Response::JobResult(JobResultBatch {
                batch_id: 5,
                outcomes: vec![JobOutcome {
                    id: 0,
                    key: 1,
                    status: JobStatus::Computed,
                    value: "4050100000000000".to_string(),
                }],
            })),
        ];
        for frame in &frames {
            for len in 0..frame.len() {
                assert!(
                    decode_request(&frame[..len]).is_err()
                        && decode_response(&frame[..len]).is_err(),
                    "truncated to {len} must not decode"
                );
            }
        }
    }

    #[test]
    fn ganged_values_survive_the_wire_bit_exactly() {
        let values = vec![0.0, -0.0, f64::MIN_POSITIVE, 1.0 / 3.0, -0.999];
        let resp = Response::GangedBatch {
            seq: 0,
            values: values.clone(),
        };
        let back = decode_response(&encode_response(&resp)).unwrap();
        let Response::GangedBatch { values: got, .. } = back else {
            panic!("wrong kind");
        };
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&values));
    }

    #[test]
    fn tagged_inner_kind_is_whitelisted() {
        // Forge a Tagged frame wrapping a Pong — a kind the stream
        // demultiplexer must never see inside a correlation stream.
        let mut w = PayloadWriter::new();
        w.u64(5);
        w.u8(KIND_PONG);
        w.u64(1); // pong token
        let frame = encode_frame(KIND_TAGGED, &w.into_bytes());
        assert_eq!(
            decode_response(&frame),
            Err(WireError::Malformed("tagged inner kind"))
        );
        // Nesting Tagged inside Tagged is likewise rejected.
        let mut w = PayloadWriter::new();
        w.u64(5);
        w.u8(KIND_TAGGED);
        let frame = encode_frame(KIND_TAGGED, &w.into_bytes());
        assert_eq!(
            decode_response(&frame),
            Err(WireError::Malformed("tagged inner kind"))
        );
    }

    #[test]
    fn submit_body_discriminant_is_validated() {
        let mut w = PayloadWriter::new();
        w.u64(1); // corr_id
        w.u8(2); // invalid body tag
        let frame = encode_frame(KIND_SUBMIT, &w.into_bytes());
        assert_eq!(
            decode_request(&frame),
            Err(WireError::Malformed("submit body discriminant"))
        );
    }

    #[test]
    fn submit_and_tagged_truncation_sweeps_are_rejected_not_panicking() {
        let frames = [
            encode_request(&Request::Submit(SubmitRequest {
                corr_id: 77,
                body: SubmitBody::Digitize(DigitizeRequest::tone(1, 10e6, 512)),
            })),
            encode_response(&Response::Tagged {
                corr_id: 77,
                inner: Box::new(Response::Batch {
                    seq: 1,
                    samples: vec![1, 2, 3],
                }),
            }),
        ];
        for frame in &frames {
            for len in 0..frame.len() {
                assert!(
                    decode_request(&frame[..len]).is_err()
                        && decode_response(&frame[..len]).is_err(),
                    "truncated to {len} must not decode"
                );
            }
        }
    }

    #[test]
    fn assembler_reassembles_frames_from_arbitrary_chunkings() {
        let mut stream = Vec::new();
        for req in sample_requests() {
            stream.extend_from_slice(&encode_request(&req));
        }
        for chunk in [1usize, 2, 3, 7, 11, 64, 1024] {
            let mut asm = FrameAssembler::new();
            let mut decoded = Vec::new();
            for piece in stream.chunks(chunk) {
                asm.extend(piece);
                while let Some((kind, payload)) = asm.next_frame(MAX_PAYLOAD).unwrap() {
                    decoded.push(Request::decode(kind, &payload).unwrap());
                }
            }
            assert_eq!(decoded, sample_requests(), "chunk size {chunk}");
            assert_eq!(asm.buffered(), 0);
        }
    }

    #[test]
    fn assembler_rejects_garbage_as_soon_as_the_header_lands() {
        let mut asm = FrameAssembler::new();
        asm.extend(&[0xFF; HEADER_LEN]);
        assert!(matches!(
            asm.next_frame(MAX_PAYLOAD),
            Err(WireError::BadMagic(_))
        ));

        let mut asm = FrameAssembler::new();
        let mut frame = encode_request(&Request::Metrics);
        frame[7..11].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        asm.extend(&frame[..HEADER_LEN]);
        assert!(matches!(
            asm.next_frame(MAX_PAYLOAD),
            Err(WireError::Oversize { .. })
        ));
    }

    #[test]
    fn assembler_catches_crc_corruption_mid_stream() {
        let good = encode_request(&Request::Ping { token: 3 });
        let mut bad = encode_request(&Request::Ping { token: 4 });
        let n = bad.len();
        bad[n - 6] ^= 0x40; // flip a payload bit; CRC must catch it
        let mut asm = FrameAssembler::new();
        asm.extend(&good);
        asm.extend(&bad);
        assert!(asm.next_frame(MAX_PAYLOAD).unwrap().is_some());
        assert!(matches!(
            asm.next_frame(MAX_PAYLOAD),
            Err(WireError::BadCrc { .. })
        ));
    }

    #[test]
    fn assembler_waits_while_a_frame_is_partial() {
        let request = digitize(1, DigitizeRequest::tone(1, 10e6, 256));
        let frame = encode_request(&request);
        let mut asm = FrameAssembler::new();
        for (i, &byte) in frame.iter().enumerate() {
            asm.extend(&[byte]);
            let got = asm.next_frame(MAX_PAYLOAD).unwrap();
            if i + 1 < frame.len() {
                assert!(got.is_none(), "byte {i}: frame incomplete");
            } else {
                let (kind, payload) = got.expect("final byte completes the frame");
                assert_eq!(Request::decode(kind, &payload).unwrap(), request);
            }
        }
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The canonical CRC-32/IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn f64_fields_are_bit_exact_on_the_wire() {
        for value in [0.0, -0.0, f64::MIN_POSITIVE, 10e6 + 1e-7, f64::INFINITY] {
            let req = digitize(
                1,
                DigitizeRequest {
                    waveform: WaveformSpec::Dc { level_v: value },
                    ..DigitizeRequest::tone(0, 0.0, 16)
                },
            );
            let back = decode_request(&encode_request(&req)).unwrap();
            let Request::Submit(SubmitRequest {
                body: SubmitBody::Digitize(d),
                ..
            }) = back
            else {
                panic!("wrong kind");
            };
            let WaveformSpec::Dc { level_v } = d.waveform else {
                panic!("wrong waveform");
            };
            assert_eq!(level_v.to_bits(), value.to_bits());
        }
    }
}
