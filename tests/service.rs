//! End-to-end tests of the streaming digitization service: the TCP
//! boundary must add transport, not nondeterminism — records streamed
//! to concurrent clients are bit-identical to direct in-process
//! measurement at the same seed — and the failure paths (invalid
//! requests, corrupt frames, deadlines, drain) must all surface as
//! typed protocol errors, never hangs or panics.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use pipeline_adc::pipeline::AdcConfig;
use pipeline_adc::server::protocol::{
    self, decode_response_frame, encode_request, FrameAssembler, Request,
};
use pipeline_adc::server::{
    Client, ClientError, ConfigOverrides, DigitizeRequest, ErrorCode, PipelinedClient,
    PipelinedOutcome, Response, Server, ServerConfig, WaveformSpec,
};
use pipeline_adc::testbench::MeasurementSession;

const RECORD: u32 = 2048;
const F_TARGET: f64 = 10e6;

/// The in-process reference: what a direct library user gets for this
/// seed, bit for bit.
fn direct_record(seed: u64) -> (Vec<u16>, f64) {
    direct_record_n(seed, RECORD)
}

/// Same reference at an explicit record length.
fn direct_record_n(seed: u64, n_samples: u32) -> (Vec<u16>, f64) {
    let mut session =
        MeasurementSession::new(AdcConfig::nominal_110ms(), seed).expect("nominal builds");
    session.record_len = n_samples as usize;
    session.capture_tone(F_TARGET)
}

/// Writes `frame` on a raw socket and collects every response frame
/// until the server closes the connection (a read timeout fails the
/// test instead of hanging it).
fn raw_exchange(addr: SocketAddr, frame: &[u8]) -> Vec<Response> {
    let mut raw = TcpStream::connect(addr).expect("raw connect");
    raw.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    raw.write_all(frame).expect("write raw frame");
    let mut assembler = FrameAssembler::new();
    let mut buf = [0u8; 4096];
    let mut responses = Vec::new();
    loop {
        let n = raw.read(&mut buf).expect("server answers, then closes");
        if n == 0 {
            return responses;
        }
        assembler.extend(&buf[..n]);
        while let Some((kind, payload)) = assembler
            .next_frame(protocol::MAX_PAYLOAD)
            .expect("well-formed reply frame")
        {
            responses.push(decode_response_frame(kind, &payload).expect("decodable reply"));
        }
    }
}

#[test]
fn concurrent_clients_get_bit_identical_records() {
    let (handle, join) = Server::spawn("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let addr = handle.addr();

    // Six concurrent clients, distinct seeds, all in flight at once.
    let seeds: Vec<u64> = (40..46).collect();
    let workers: Vec<_> = seeds
        .iter()
        .map(|&seed| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let result = client
                    .digitize(&DigitizeRequest::tone(seed, F_TARGET, RECORD))
                    .expect("digitize");
                (seed, result)
            })
        })
        .collect();

    for worker in workers {
        let (seed, served) = worker.join().expect("client thread");
        let (expected, f_in) = direct_record(seed);
        assert_eq!(
            served.samples, expected,
            "seed {seed}: streamed record differs from in-process record"
        );
        assert_eq!(
            served.done.f_in_hz.to_bits(),
            f_in.to_bits(),
            "seed {seed}: snapped stimulus frequency differs"
        );
    }

    // Distinct seeds are distinct dies: the records must not all match.
    let (a, _) = direct_record(seeds[0]);
    let (b, _) = direct_record(seeds[1]);
    assert_ne!(a, b, "different seeds should fabricate different dies");

    let metrics = handle.metrics().snapshot();
    assert_eq!(metrics.digitizes, seeds.len() as u64);
    assert_eq!(metrics.completed, seeds.len() as u64);
    assert_eq!(metrics.errors, 0);
    assert_eq!(metrics.in_flight, 0);
    assert_eq!(
        metrics.samples_streamed,
        u64::from(RECORD) * seeds.len() as u64
    );

    handle.shutdown();
    join.join().expect("server thread").expect("serve returns");
}

#[test]
fn pipelined_clients_stream_bit_identical_records() {
    // Eight clients, each keeping three correlated requests in flight
    // on one connection. Identical tone shapes with distinct seeds
    // arrive together, and each is served as its own pool job: every
    // record must match the in-process reference bit for bit,
    // whatever order the server finished them in.
    let (handle, join) = Server::spawn("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let addr = handle.addr();

    const CLIENTS: u64 = 8;
    const PER_CLIENT: u64 = 3;
    let workers: Vec<_> = (0..CLIENTS)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = PipelinedClient::connect(addr).expect("connect");
                let mut by_corr = std::collections::BTreeMap::new();
                for k in 0..PER_CLIENT {
                    let seed = 100 + c * PER_CLIENT + k;
                    let corr = client
                        .submit(&DigitizeRequest::tone(seed, F_TARGET, RECORD))
                        .expect("submit");
                    by_corr.insert(corr, seed);
                }
                let mut results = Vec::new();
                while client.in_flight() > 0 {
                    let (corr, outcome) = client.next_completion().expect("completion");
                    let seed = by_corr.remove(&corr).expect("known corr id");
                    match outcome {
                        PipelinedOutcome::Digitize(result) => results.push((seed, result)),
                        other => panic!("seed {seed}: unexpected outcome {other:?}"),
                    }
                }
                results
            })
        })
        .collect();

    let mut total = 0u64;
    for worker in workers {
        for (seed, served) in worker.join().expect("client thread") {
            let (expected, f_in) = direct_record(seed);
            assert_eq!(
                served.samples, expected,
                "seed {seed}: pipelined record differs from in-process record"
            );
            assert_eq!(
                served.done.f_in_hz.to_bits(),
                f_in.to_bits(),
                "seed {seed}: snapped stimulus frequency differs"
            );
            total += 1;
        }
    }
    assert_eq!(total, CLIENTS * PER_CLIENT);

    let metrics = handle.metrics().snapshot();
    assert_eq!(metrics.digitizes, CLIENTS * PER_CLIENT);
    assert_eq!(metrics.completed, CLIENTS * PER_CLIENT);
    assert_eq!(metrics.coalesced, 0, "one request, one job");
    assert_eq!(metrics.errors, 0);
    assert_eq!(metrics.in_flight, 0);
    assert_eq!(
        metrics.samples_streamed,
        u64::from(RECORD) * CLIENTS * PER_CLIENT
    );

    handle.shutdown();
    join.join().expect("server thread").expect("serve returns");
}

#[test]
fn overload_sheds_typed_errors_while_admitted_requests_complete() {
    // One worker, one admission slot, one parked request: a burst of
    // twelve pipelined submissions must shed most of the queue with
    // typed Overloaded frames *immediately* — before the admitted
    // request's record has streamed — while everything that was
    // admitted still completes bit-identically.
    let cfg = ServerConfig {
        threads: 1,
        max_inflight: 1,
        max_inflight_per_conn: 1,
        max_pending_per_conn: 1,
        ..ServerConfig::default()
    };
    let (handle, join) = Server::spawn("127.0.0.1:0", cfg).expect("bind");
    let mut client = PipelinedClient::connect(handle.addr()).expect("connect");

    const BURST: u64 = 12;
    const BIG: u32 = 8192; // ~8 ms of conversion keeps corr 1 in flight
    let mut seeds = std::collections::BTreeMap::new();
    for k in 0..BURST {
        let seed = 300 + k;
        let corr = client
            .submit(&DigitizeRequest::tone(seed, F_TARGET, BIG))
            .expect("submit");
        seeds.insert(corr, seed);
    }

    let mut order = Vec::new();
    let mut served = 0u64;
    let mut shed = 0u64;
    while client.in_flight() > 0 {
        let (corr, outcome) = client.next_completion().expect("completion");
        let seed = seeds[&corr];
        match outcome {
            PipelinedOutcome::Digitize(result) => {
                let (expected, _) = direct_record_n(seed, BIG);
                assert_eq!(
                    result.samples, expected,
                    "seed {seed}: record served under overload differs"
                );
                served += 1;
            }
            PipelinedOutcome::ServerError { code, .. } => {
                assert_eq!(code, ErrorCode::Overloaded, "corr {corr}: wrong error code");
                shed += 1;
            }
        }
        order.push(corr);
    }

    assert_eq!(served + shed, BURST);
    assert!(served >= 1, "the admitted head of the burst must complete");
    assert!(shed >= 1, "a 12-deep burst into a 1-slot queue must shed");
    // Out-of-order completion, observed: the shed frames come back
    // while corr 1 is still converting, so corr 1 cannot be first.
    assert_eq!(
        seeds[&order[0]],
        300 + order[0] - 1,
        "corr ids were issued in submit order"
    );
    assert_ne!(
        order[0], 1,
        "a shed response must overtake the in-flight head"
    );
    assert!(
        order.contains(&1),
        "the first-admitted request still completes"
    );

    let metrics = handle.metrics().snapshot();
    assert_eq!(metrics.overloaded, shed);
    assert_eq!(metrics.in_flight, 0);
    // With one lane per job every request is served alone, and only
    // jobs of two or more members count as coalesced.
    assert_eq!(metrics.coalesced, 0);

    handle.shutdown();
    join.join().expect("server thread").expect("serve returns");
}

#[test]
fn mixed_pipelined_requests_complete_in_any_order_and_all_verify() {
    // One connection, one burst mixing a long, a medium and short
    // digitizes. Completions may arrive in any order the server
    // finished them; each must verify against its own in-process
    // reference.
    let (handle, join) = Server::spawn("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let mut client = PipelinedClient::connect(handle.addr()).expect("connect");

    let long_corr = client
        .submit(&DigitizeRequest::tone(77, F_TARGET, 1 << 14))
        .expect("submit long");
    let medium_corr = client
        .submit(&DigitizeRequest::tone(23, F_TARGET, RECORD))
        .expect("submit medium");
    let short_corrs: Vec<u64> = (0..4)
        .map(|k| {
            client
                .submit(&DigitizeRequest::tone(400 + k, F_TARGET, 512))
                .expect("submit short")
        })
        .collect();

    let mut outcomes = std::collections::BTreeMap::new();
    while client.in_flight() > 0 {
        let (corr, outcome) = client.next_completion().expect("completion");
        assert!(
            outcomes.insert(corr, outcome).is_none(),
            "corr {corr} completed twice"
        );
    }
    assert_eq!(outcomes.len(), 6);

    match &outcomes[&long_corr] {
        PipelinedOutcome::Digitize(result) => {
            assert_eq!(result.samples, direct_record_n(77, 1 << 14).0);
        }
        other => panic!("long request: unexpected outcome {other:?}"),
    }
    match &outcomes[&medium_corr] {
        PipelinedOutcome::Digitize(result) => {
            assert_eq!(result.samples, direct_record(23).0);
        }
        other => panic!("medium request: unexpected outcome {other:?}"),
    }
    for (k, corr) in short_corrs.iter().enumerate() {
        match &outcomes[corr] {
            PipelinedOutcome::Digitize(result) => {
                assert_eq!(result.samples, direct_record_n(400 + k as u64, 512).0);
            }
            other => panic!("short request {k}: unexpected outcome {other:?}"),
        }
    }

    handle.shutdown();
    join.join().expect("server thread").expect("serve returns");
}

#[test]
fn invalid_requests_come_back_as_typed_errors() {
    let (handle, join) = Server::spawn("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let mut client = Client::connect(handle.addr()).expect("connect");

    // Out-of-bounds request fields → InvalidRequest, connection stays up.
    let cases = [
        DigitizeRequest::tone(1, F_TARGET, 0),
        DigitizeRequest::tone(1, F_TARGET, 1000), // not a power of two
        DigitizeRequest::tone(1, -5e6, RECORD),
        // Too short to place a coherent tone clear of DC and Nyquist.
        DigitizeRequest::tone(1, F_TARGET, 16),
        DigitizeRequest::tone(1, F_TARGET, 32),
        DigitizeRequest {
            overrides: ConfigOverrides {
                amplitude_v: Some(f64::NAN),
                ..ConfigOverrides::default()
            },
            ..DigitizeRequest::tone(1, F_TARGET, RECORD)
        },
    ];
    for request in &cases {
        match client.digitize(request) {
            Err(ClientError::Server { code, .. }) => {
                assert_eq!(code, ErrorCode::InvalidRequest, "request {request:?}")
            }
            other => panic!("expected typed InvalidRequest, got {other:?}"),
        }
    }

    // A request that builds-then-fails in the converter maps the typed
    // BuildAdcError onto the wire.
    let bad_rate = DigitizeRequest {
        overrides: ConfigOverrides {
            f_cr_hz: Some(-1.0),
            ..ConfigOverrides::default()
        },
        ..DigitizeRequest::tone(1, F_TARGET, RECORD)
    };
    match client.digitize(&bad_rate) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::InvalidRate),
        other => panic!("expected typed InvalidRate, got {other:?}"),
    }

    // The connection survives all of the above.
    assert_eq!(client.ping(99).expect("ping after errors"), 99);

    // Pipelined, the short tones fail per request while their
    // neighbours on the same connection complete and verify.
    let mut pipelined = PipelinedClient::connect(handle.addr()).expect("pipelined connect");
    let short16 = pipelined
        .submit(&DigitizeRequest::tone(2, F_TARGET, 16))
        .expect("submit");
    let good = pipelined
        .submit(&DigitizeRequest::tone(3, F_TARGET, 64))
        .expect("submit");
    let short32 = pipelined
        .submit(&DigitizeRequest::tone(4, F_TARGET, 32))
        .expect("submit");
    for _ in 0..3 {
        match pipelined.next_completion().expect("completion") {
            (corr, PipelinedOutcome::ServerError { code, .. }) => {
                assert!(corr == short16 || corr == short32, "corr {corr}");
                assert_eq!(code, ErrorCode::InvalidRequest);
            }
            (corr, PipelinedOutcome::Digitize(result)) => {
                assert_eq!(corr, good);
                assert_eq!(result.samples, direct_record_n(3, 64).0);
            }
        }
    }

    // A corrupt frame, and a frame of the retired bare-digitize kind
    // 0x02, each get a Protocol error and a close — not a hang.
    let ping = encode_request(&Request::Ping { token: 1 });
    let mut corrupt = ping.clone();
    corrupt[0] ^= 0xFF; // destroy the magic
    let mut retired = ping;
    retired[6] = 0x02;
    let body = retired.len() - 4;
    let crc = protocol::crc32(&retired[..body]);
    retired[body..].copy_from_slice(&crc.to_le_bytes());
    for frame in [corrupt, retired] {
        match raw_exchange(handle.addr(), &frame).as_slice() {
            [Response::Error { code, .. }] => assert_eq!(*code, ErrorCode::Protocol),
            other => panic!("expected one protocol error frame, got {other:?}"),
        }
    }

    handle.shutdown();
    join.join().expect("server thread").expect("serve returns");
}

#[test]
fn a_peer_that_never_reads_does_not_stall_other_connections() {
    // One worker. Connection A asks for a 2^20-sample record in batches
    // of one sample — 34 bytes per tagged frame, ~36 MB in all, far more
    // than the loopback socket buffers hold — with no deadline, and
    // never reads. Connection B must still be served; its read timeout
    // turns a stalled server into a test failure instead of a hang.
    let cfg = ServerConfig {
        threads: 1,
        ..ServerConfig::default()
    };
    let (handle, join) = Server::spawn("127.0.0.1:0", cfg).expect("bind");
    let mut a = PipelinedClient::connect(handle.addr()).expect("connect A");
    a.submit(&DigitizeRequest {
        batch_size: 1,
        deadline_ms: 0,
        ..DigitizeRequest::tone(21, F_TARGET, 1 << 20)
    })
    .expect("submit A");
    // B's request must queue behind A's on the one worker.
    let started = std::time::Instant::now();
    while handle.metrics().snapshot().in_flight == 0 {
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "A's request never started"
        );
        std::thread::sleep(Duration::from_millis(1));
    }

    let mut b = Client::connect(handle.addr()).expect("connect B");
    b.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let served = b
        .digitize(&DigitizeRequest::tone(22, F_TARGET, RECORD))
        .expect("B is served while A never reads");
    assert_eq!(served.samples, direct_record(22).0);

    drop(a);
    handle.shutdown();
    join.join().expect("server thread").expect("serve returns");
}

#[test]
fn deadlines_surface_as_timed_out() {
    let (handle, join) = Server::spawn("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let mut client = Client::connect(handle.addr()).expect("connect");

    // A 1 ms budget cannot cover a 64k-sample conversion; the worker
    // must notice at a poll point and answer with TimedOut.
    let request = DigitizeRequest {
        deadline_ms: 1,
        ..DigitizeRequest::tone(7, F_TARGET, 1 << 16)
    };
    match client.digitize(&request) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::TimedOut),
        other => panic!("expected TimedOut, got {other:?}"),
    }

    // An ample budget on the same connection still succeeds.
    let relaxed = DigitizeRequest {
        deadline_ms: 120_000,
        ..DigitizeRequest::tone(7, F_TARGET, RECORD)
    };
    let served = client.digitize(&relaxed).expect("relaxed deadline");
    assert_eq!(served.samples, direct_record(7).0);

    handle.shutdown();
    join.join().expect("server thread").expect("serve returns");
}

#[test]
fn shutdown_request_drains_and_stops_the_server() {
    let (handle, join) = Server::spawn("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let mut client = Client::connect(handle.addr()).expect("connect");

    // Do real work first so the drain has something behind it.
    let served = client
        .digitize(&DigitizeRequest::tone(11, F_TARGET, RECORD))
        .expect("digitize before shutdown");
    assert_eq!(served.samples, direct_record(11).0);

    client.shutdown().expect("shutdown acknowledged");
    assert!(
        handle.is_draining(),
        "drain flag set after shutdown request"
    );

    // serve() must return on its own — bounded wait, no external kick.
    join.join().expect("server thread").expect("serve returns");

    // Dc and Ramp waveforms also decode/validate (exercise the
    // non-tone arms end-to-end on a fresh server).
    let (handle2, join2) = Server::spawn("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let mut client2 = Client::connect(handle2.addr()).expect("connect");
    for waveform in [
        WaveformSpec::Dc { level_v: 0.25 },
        WaveformSpec::Ramp {
            from_v: -0.9,
            to_v: 0.9,
        },
    ] {
        let request = DigitizeRequest {
            waveform,
            n_samples: 1000, // non-tone records need no power of two
            ..DigitizeRequest::tone(3, F_TARGET, RECORD)
        };
        let result = client2.digitize(&request).expect("non-tone digitize");
        assert_eq!(result.samples.len(), 1000);
        assert_eq!(result.done.f_in_hz, 0.0);
    }
    client2.shutdown().expect("second shutdown");
    join2.join().expect("server thread").expect("serve returns");
}
