//! Property tests over the wire protocol: encode/decode is a lossless
//! round trip for arbitrary well-formed messages, and decoding is a
//! *total* function — truncated, corrupted, retired-kind, or
//! wrong-version frames come back as typed [`WireError`]s, never
//! panics.

use proptest::prelude::*;

use adc_server::protocol::{
    decode_request, decode_response, encode_request, encode_response, CacheFillRequest,
    ConfigOverrides, DigitizeDone, DigitizeRequest, ErrorCode, FrameAssembler, GangedCal,
    GangedDone, GangedRequest, JobBatchRequest, JobOutcome, JobResultBatch, JobSpec, JobStatus,
    MetricsSnapshot, Preset, Request, Response, SubmitBody, SubmitRequest, WaveformSpec, WireError,
    MAX_GANGED_CHANNELS,
};

fn preset(tag: u8) -> Preset {
    match tag % 3 {
        0 => Preset::Nominal110,
        1 => Preset::Ideal,
        _ => Preset::Sibling220,
    }
}

fn waveform(tag: u8, a: f64, b: f64) -> WaveformSpec {
    match tag % 3 {
        0 => WaveformSpec::Tone { f_target_hz: a },
        1 => WaveformSpec::Dc { level_v: b },
        _ => WaveformSpec::Ramp { from_v: a, to_v: b },
    }
}

#[allow(clippy::too_many_arguments)]
fn digitize(
    preset_tag: u8,
    seed: u64,
    mask: u8,
    wf_tag: u8,
    f_a: f64,
    f_b: f64,
    n_samples: u32,
    batch_size: u32,
    deadline_ms: u32,
) -> DigitizeRequest {
    DigitizeRequest {
        preset: preset(preset_tag),
        seed,
        overrides: ConfigOverrides {
            f_cr_hz: (mask & 1 != 0).then_some(f_a * 1e6),
            amplitude_v: (mask & 2 != 0).then_some(f_b),
            thermal_noise: (mask & 4 != 0).then_some(mask & 8 != 0),
        },
        waveform: waveform(wf_tag, f_a, f_b),
        n_samples,
        batch_size,
        deadline_ms,
    }
}

#[allow(clippy::too_many_arguments)]
fn ganged(
    preset_tag: u8,
    seed: u64,
    channels: u8,
    flags: u8,
    f_a: f64,
    n_samples: u32,
    batch_size: u32,
    deadline_ms: u32,
) -> GangedRequest {
    GangedRequest {
        preset: preset(preset_tag),
        seed,
        channels,
        mismatch: flags & 1 != 0,
        cal: match (flags >> 1) % 3 {
            0 => GangedCal::Raw,
            1 => GangedCal::Foreground,
            _ => GangedCal::Background,
        },
        f_target_hz: f_a * 1e6,
        n_samples,
        batch_size,
        deadline_ms,
    }
}

/// A deterministic cluster job batch derived from a handful of scalars,
/// so the round-trip property covers variable-length job lists and
/// arbitrary config strings without a bespoke strategy type.
fn job_batch(batch_id: u64, seed: u64, jobs: usize, cfg_len: usize) -> JobBatchRequest {
    JobBatchRequest {
        batch_id,
        campaign: format!("camp-{}", batch_id & 0xFF),
        kind: "probe-mix".to_string(),
        deadline_ms: (batch_id % 100_000) as u32,
        jobs: (0..jobs)
            .map(|i| JobSpec {
                id: i as u64,
                key: seed.wrapping_mul(i as u64 + 1),
                seed: seed.rotate_left(i as u32),
                config: "c\u{1f},;\t"
                    .repeat(cfg_len % 8)
                    .chars()
                    .take(cfg_len)
                    .collect(),
            })
            .collect(),
    }
}

fn submit(corr_id: u64, body: SubmitBody) -> Request {
    Request::Submit(SubmitRequest { corr_id, body })
}

/// Recomputes a frame's CRC trailer after a deliberate header or
/// payload edit, so the decoder sees the edit rather than a bad CRC.
fn reseal(frame: &mut [u8]) {
    let body = frame.len() - 4;
    let crc = adc_server::protocol::crc32(&frame[..body]);
    frame[body..].copy_from_slice(&crc.to_le_bytes());
}

/// `frame` with its kind byte replaced, CRC resealed.
fn with_kind(frame: &[u8], kind: u8) -> Vec<u8> {
    let mut forged = frame.to_vec();
    forged[6] = kind;
    reseal(&mut forged);
    forged
}

/// `frame` with its header version replaced, CRC resealed.
fn with_version(frame: &[u8], version: u16) -> Vec<u8> {
    let mut forged = frame.to_vec();
    forged[4..6].copy_from_slice(&version.to_le_bytes());
    reseal(&mut forged);
    forged
}

fn cache_entries(seed: u64, n: usize, line_len: usize) -> Vec<(u64, String)> {
    (0..n)
        .map(|i| {
            (
                seed.wrapping_add(i as u64),
                format!("{:016x};{}", seed ^ i as u64, "x".repeat(line_len % 32)),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every request kind round-trips bit-exactly through the codec,
    /// and the same frame is rejected with a typed error when forged
    /// into a retired kind (the version-1 bare digitize 0x02 and
    /// ganged 0x05, the version-2 cache probe 0x07), a version-1 or
    /// version-2 header, or a `Submit` under correlation id 0.
    #[test]
    fn requests_round_trip(
        kind in 0u8..8,
        token in 0u64..u64::MAX,
        corr_id in 1u64..u64::MAX,
        preset_tag in 0u8..3,
        seed in 0u64..u64::MAX,
        mask in 0u8..16,
        wf_tag in 0u8..3,
        f_a in 0.001f64..200.0,
        f_b in -1.0f64..1.0,
        n_samples in 1u32..100_000,
        batch_size in 0u32..10_000,
        deadline_ms in 0u32..100_000,
        channels in 1u8..=MAX_GANGED_CHANNELS,
    ) {
        let request = match kind {
            0 => Request::Ping { token },
            1 => submit(corr_id, SubmitBody::Digitize(digitize(
                preset_tag, seed, mask, wf_tag, f_a, f_b, n_samples, batch_size, deadline_ms,
            ))),
            2 => Request::Metrics,
            3 => submit(corr_id, SubmitBody::Ganged(ganged(
                preset_tag, seed, channels, mask, f_a, n_samples, batch_size, deadline_ms,
            ))),
            4 => Request::Shutdown,
            5 => Request::JobBatch(job_batch(
                token, seed, n_samples as usize % 20, batch_size as usize % 48,
            )),
            6 => Request::CacheFill(CacheFillRequest {
                campaign: format!("fill-{}", token & 0xF),
                entries: cache_entries(seed, n_samples as usize % 16, batch_size as usize),
            }),
            // Submissions: any nonzero correlation id survives
            // exactly.
            _ => submit(token.max(1), if wf_tag % 2 == 0 {
                SubmitBody::Digitize(digitize(
                    preset_tag, seed, mask, wf_tag, f_a, f_b, n_samples, batch_size,
                    deadline_ms,
                ))
            } else {
                SubmitBody::Ganged(ganged(
                    preset_tag, seed, channels, mask, f_a, n_samples, batch_size, deadline_ms,
                ))
            }),
        };
        let frame = encode_request(&request);
        let decoded = decode_request(&frame);
        prop_assert_eq!(decoded.as_ref(), Ok(&request));

        for retired in [0x02u8, 0x05, 0x07] {
            prop_assert_eq!(
                decode_request(&with_kind(&frame, retired)),
                Err(WireError::UnknownKind(retired))
            );
        }
        for old in [1u16, 2] {
            prop_assert_eq!(
                decode_request(&with_version(&frame, old)),
                Err(WireError::BadVersion(old))
            );
        }
        if let Request::Submit(SubmitRequest { body, .. }) = request {
            prop_assert_eq!(
                decode_request(&encode_request(&submit(0, body))),
                Err(WireError::Malformed("submit corr_id 0"))
            );
        }
    }

    /// Out-of-range channel counts in a ganged frame decode to the typed
    /// malformed error — for *any* surrounding field values.
    #[test]
    fn ganged_channel_counts_out_of_bounds_are_malformed(
        preset_tag in 0u8..3,
        seed in 0u64..u64::MAX,
        raw_channels in 0u8..=255,
        flags in 0u8..16,
        f_a in 0.001f64..200.0,
        n_samples in 1u32..100_000,
    ) {
        // Map the raw byte onto the out-of-range set: 0, or anything
        // strictly above the ceiling.
        let bad_channels = if raw_channels <= MAX_GANGED_CHANNELS {
            raw_channels
                .checked_add(MAX_GANGED_CHANNELS)
                .map_or(0, |c| if c <= MAX_GANGED_CHANNELS { 0 } else { c })
        } else {
            raw_channels
        };
        let request = submit(1, SubmitBody::Ganged(ganged(
            preset_tag, seed, bad_channels, flags, f_a, n_samples, 0, 0,
        )));
        // The encoder writes whatever it is given; the decoder must
        // reject it with the typed error, never a panic.
        let decoded = decode_request(&encode_request(&request));
        prop_assert_eq!(decoded, Err(WireError::Malformed("channel count")));
    }

    /// Truncating a ganged frame anywhere yields a typed error.
    #[test]
    fn truncated_ganged_frames_are_rejected(
        seed in 0u64..u64::MAX,
        channels in 1u8..=MAX_GANGED_CHANNELS,
        n_samples in 1u32..100_000,
        cut_frac in 0.0f64..1.0,
    ) {
        let frame = encode_request(&submit(1, SubmitBody::Ganged(GangedRequest {
            channels,
            n_samples,
            ..GangedRequest::tone(seed, 2, 20e6, 4096)
        })));
        let cut = ((frame.len() as f64 * cut_frac) as usize).min(frame.len() - 1);
        prop_assert!(decode_request(&frame[..cut]).is_err());
    }

    /// Truncating a cluster job/cache frame anywhere yields a typed
    /// error — variable-length job lists never panic the decoder.
    #[test]
    fn truncated_job_frames_are_rejected(
        which in 0u8..2,
        batch_id in 0u64..u64::MAX,
        seed in 0u64..u64::MAX,
        jobs in 0usize..12,
        cfg_len in 0usize..32,
        cut_frac in 0.0f64..1.0,
    ) {
        let frame = encode_request(&match which {
            0 => Request::JobBatch(job_batch(batch_id, seed, jobs, cfg_len)),
            _ => Request::CacheFill(CacheFillRequest {
                campaign: "mc".to_string(),
                entries: cache_entries(seed, jobs, cfg_len),
            }),
        });
        let cut = ((frame.len() as f64 * cut_frac) as usize).min(frame.len() - 1);
        prop_assert!(decode_request(&frame[..cut]).is_err());
    }

    /// Any out-of-range job status byte in a `JobResult` frame decodes
    /// to the typed malformed error — never a panic, never a silent
    /// reinterpretation.
    #[test]
    fn invalid_job_status_bytes_are_malformed(
        batch_id in 0u64..u64::MAX,
        key in 0u64..u64::MAX,
        bad_status in 4u8..=255,
        value_len in 0usize..24,
    ) {
        let outcome = |status| Response::JobResult(JobResultBatch {
            batch_id,
            outcomes: vec![JobOutcome {
                id: 3,
                key,
                status,
                value: "v".repeat(value_len),
            }],
        });
        // Locate the status byte by diffing two encodings that differ
        // only in status, then forge an out-of-range discriminant and
        // re-seal the CRC trailer.
        let mut frame = encode_response(&outcome(JobStatus::Computed));
        let other = encode_response(&outcome(JobStatus::Cached));
        let pos = frame
            .iter()
            .zip(other.iter())
            .position(|(a, b)| a != b)
            .expect("encodings differ in the status byte");
        frame[pos] = bad_status;
        reseal(&mut frame);
        prop_assert_eq!(
            decode_response(&frame),
            Err(WireError::Malformed("job status discriminant"))
        );
    }

    /// Every response kind round-trips bit-exactly through the codec,
    /// including non-finite floats (f64s travel as IEEE-754 bits), and
    /// the same frame forged into the retired cache-hits kind 0x8A is
    /// rejected as unknown.
    #[test]
    fn responses_round_trip(
        kind in 0u8..11,
        token in 0u64..u64::MAX,
        seq in 0u32..u32::MAX,
        len in 0usize..512,
        fill in 0u16..4096,
        f_sel in 0u8..4,
        f_val in -250.0f64..250.0,
        code_tag in 0u8..12,
        counters in prop::collection::vec(0u64..1_000_000, 15),
        detail_len in 0usize..64,
    ) {
        let f_in_hz = match f_sel {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => 0.0,
            _ => f_val * 1e6,
        };
        let response = match kind {
            0 => Response::Pong { token },
            1 => Response::Batch {
                seq,
                samples: (0..len).map(|i| fill.wrapping_add(i as u16) & 0x0FFF).collect(),
            },
            2 => Response::Done(DigitizeDone {
                total_samples: seq,
                batches: seq / 7,
                f_in_hz,
                stream_crc32: token as u32,
            }),
            3 => Response::Metrics(MetricsSnapshot {
                connections: counters[0],
                pings: counters[1],
                digitizes: counters[2],
                metrics_requests: counters[3],
                errors: counters[4],
                in_flight: counters[5],
                completed: counters[6],
                samples_streamed: counters[7],
                job_batches: counters[8],
                cluster_cache_hits: counters[9],
                p50_us: counters[10],
                p90_us: counters[11],
                p99_us: counters[12],
                overloaded: counters[13],
                coalesced: counters[14],
            }),
            4 => {
                use adc_server::ErrorCode as C;
                let codes = [
                    C::Protocol,
                    C::InvalidRequest,
                    C::NoStages,
                    C::InvalidRate,
                    C::InvalidReference,
                    C::NoSettlingTime,
                    C::TimedOut,
                    C::Draining,
                    C::Internal,
                    C::Unsupported,
                    C::Overloaded,
                ];
                Response::Error {
                    code: codes[code_tag as usize % codes.len()],
                    detail: "e".repeat(detail_len),
                }
            }
            5 => Response::GangedBatch {
                seq,
                values: (0..len)
                    .map(|i| match (i + f_sel as usize) % 5 {
                        0 => f64::NAN,
                        1 => f64::NEG_INFINITY,
                        2 => -0.0,
                        3 => f_val * (i as f64 + 1.0),
                        _ => f64::MIN_POSITIVE,
                    })
                    .collect(),
            },
            6 => Response::GangedDone(GangedDone {
                total_samples: seq,
                batches: seq / 3,
                f_in_hz,
                epochs_run: fill as u32,
                converged: fill & 1 != 0,
                stream_crc32: token as u32,
            }),
            7 => Response::ShutdownAck,
            8 => Response::JobResult(JobResultBatch {
                batch_id: token,
                outcomes: (0..len % 24)
                    .map(|i| JobOutcome {
                        id: i as u64,
                        key: token.wrapping_add(i as u64),
                        status: match i % 4 {
                            0 => JobStatus::Computed,
                            1 => JobStatus::Cached,
                            2 => JobStatus::Failed,
                            _ => JobStatus::Rejected,
                        },
                        value: format!("{:016x}", token ^ i as u64),
                    })
                    .collect(),
            }),
            9 => Response::CacheFillAck { accepted: seq },
            // Tagged (pipelined) responses: any streamable inner frame
            // under any correlation id.
            _ => Response::Tagged {
                corr_id: token,
                inner: Box::new(match f_sel {
                    0 => Response::Batch {
                        seq,
                        samples: (0..len).map(|i| fill.wrapping_add(i as u16) & 0x0FFF).collect(),
                    },
                    1 => Response::Done(DigitizeDone {
                        total_samples: seq,
                        batches: seq / 7,
                        f_in_hz: f_val * 1e6,
                        stream_crc32: token as u32,
                    }),
                    2 => Response::Error {
                        code: ErrorCode::Overloaded,
                        detail: "o".repeat(detail_len),
                    },
                    _ => Response::GangedDone(GangedDone {
                        total_samples: seq,
                        batches: seq / 3,
                        f_in_hz: f_val * 1e6,
                        epochs_run: fill as u32,
                        converged: fill & 1 != 0,
                        stream_crc32: token as u32,
                    }),
                }),
            },
        };
        let frame = encode_response(&response);
        prop_assert_eq!(
            decode_response(&with_kind(&frame, 0x8A)),
            Err(WireError::UnknownKind(0x8A))
        );
        let decoded = decode_response(&frame).unwrap();
        // NaN != NaN under PartialEq; compare f64s by bit pattern.
        match (&decoded, &response) {
            (Response::Done(a), Response::Done(b)) => {
                prop_assert_eq!(a.f_in_hz.to_bits(), b.f_in_hz.to_bits());
                prop_assert_eq!(a.total_samples, b.total_samples);
                prop_assert_eq!(a.batches, b.batches);
                prop_assert_eq!(a.stream_crc32, b.stream_crc32);
            }
            (Response::GangedBatch { seq: sa, values: va },
             Response::GangedBatch { seq: sb, values: vb }) => {
                prop_assert_eq!(sa, sb);
                prop_assert_eq!(va.len(), vb.len());
                for (a, b) in va.iter().zip(vb.iter()) {
                    prop_assert_eq!(a.to_bits(), b.to_bits());
                }
            }
            (Response::GangedDone(a), Response::GangedDone(b)) => {
                prop_assert_eq!(a.f_in_hz.to_bits(), b.f_in_hz.to_bits());
                prop_assert_eq!(a.total_samples, b.total_samples);
                prop_assert_eq!(a.batches, b.batches);
                prop_assert_eq!(a.epochs_run, b.epochs_run);
                prop_assert_eq!(a.converged, b.converged);
                prop_assert_eq!(a.stream_crc32, b.stream_crc32);
            }
            _ => prop_assert_eq!(&decoded, &response),
        }
    }

    /// Truncating a valid frame anywhere yields a typed error — decoding
    /// never panics and never misreads a prefix as a complete message.
    #[test]
    fn truncated_frames_are_rejected(
        seed in 0u64..u64::MAX,
        n_samples in 1u32..10_000,
        cut_frac in 0.0f64..1.0,
    ) {
        let frame = encode_request(&submit(
            1,
            SubmitBody::Digitize(DigitizeRequest::tone(seed, 10e6, n_samples)),
        ));
        let cut = ((frame.len() as f64 * cut_frac) as usize).min(frame.len() - 1);
        prop_assert!(decode_request(&frame[..cut]).is_err());
    }

    /// Flipping any byte of a valid frame is detected (the CRC-32
    /// trailer catches payload damage; header fields are validated
    /// first) — again without panicking.
    #[test]
    fn corrupted_frames_are_rejected(
        token in 0u64..u64::MAX,
        pos_frac in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        let mut frame = encode_request(&Request::Ping { token });
        let pos = ((frame.len() as f64 * pos_frac) as usize).min(frame.len() - 1);
        frame[pos] ^= flip;
        prop_assert!(decode_request(&frame).is_err());
    }

    /// Arbitrary byte soup never decodes to a request and never panics.
    #[test]
    fn random_bytes_never_panic_the_decoder(
        len in 0usize..64,
        fill in 0u8..=255,
        step in 1u8..=255,
    ) {
        let bytes: Vec<u8> = (0..len)
            .map(|i| fill.wrapping_add((i as u8).wrapping_mul(step)))
            .collect();
        // Random soup essentially never carries a valid magic + CRC; the
        // property under test is totality (no panic), so accept either
        // outcome but exercise the decoder.
        let _ = decode_request(&bytes);
        let _ = decode_response(&bytes);
    }

    /// Truncating a pipelined `Submit` frame anywhere yields a typed
    /// error — the correlation-id prefix never lets a partial body
    /// decode.
    #[test]
    fn truncated_submit_frames_are_rejected(
        corr_id in 1u64..u64::MAX,
        seed in 0u64..u64::MAX,
        n_samples in 1u32..100_000,
        cut_frac in 0.0f64..1.0,
    ) {
        let frame = encode_request(&Request::Submit(SubmitRequest {
            corr_id,
            body: SubmitBody::Digitize(DigitizeRequest::tone(seed, 10e6, n_samples)),
        }));
        let cut = ((frame.len() as f64 * cut_frac) as usize).min(frame.len() - 1);
        prop_assert!(decode_request(&frame[..cut]).is_err());
    }

    /// Tone requests too short to place a coherent tone clear of DC
    /// and Nyquist (16 and 32 samples) are still well-formed frames:
    /// they round-trip through the pipelined framing, so the server's
    /// validation — not the decoder — answers them, with a typed
    /// `InvalidRequest`. The placement rule it applies refuses them at
    /// every preset rate and target.
    #[test]
    fn short_tone_requests_decode_but_cannot_be_placed(
        corr_id in 1u64..u64::MAX,
        seed in 0u64..u64::MAX,
        preset_tag in 0u8..3,
        f_mhz in 0.1f64..500.0,
        short in 0usize..2,
    ) {
        let n = [16u32, 32][short];
        let req = DigitizeRequest {
            preset: preset(preset_tag),
            ..DigitizeRequest::tone(seed, f_mhz * 1e6, n)
        };
        let submit = Request::Submit(SubmitRequest {
            corr_id,
            body: SubmitBody::Digitize(req.clone()),
        });
        prop_assert_eq!(decode_request(&encode_request(&submit)), Ok(submit));
        let f_cr = adc_server::preset_config(req.preset).f_cr_hz;
        prop_assert!(adc_testbench::clear_tone_hz(f_cr, n as usize, f_mhz * 1e6).is_none());
        prop_assert!(adc_testbench::clear_tone_hz(f_cr, 64, f_mhz * 1e6).is_some());
    }

    /// A pipelined response stream — tagged frames from many requests
    /// interleaved out of order — reassembles exactly through the
    /// incremental [`FrameAssembler`] no matter how the transport
    /// fragments it, and truncating the stream anywhere never panics
    /// and never yields a frame beyond the cut.
    #[test]
    fn interleaved_tagged_streams_survive_fragmentation_and_truncation(
        corr_pool in prop::collection::vec(1u64..u64::MAX, 5),
        n_requests in 1usize..6,
        order_seed in 0u64..u64::MAX,
        chunk in 1usize..97,
        cut_frac in 0.0f64..1.0,
    ) {
        let corr_ids = &corr_pool[..n_requests];
        // Each request contributes a batch frame and a done frame; a
        // seed-driven shuffle interleaves completions out of order.
        let mut frames: Vec<(u64, Response)> = Vec::new();
        for (i, &corr) in corr_ids.iter().enumerate() {
            frames.push((corr, Response::Batch {
                seq: 0,
                samples: vec![i as u16; 3],
            }));
            frames.push((corr, Response::Done(DigitizeDone {
                total_samples: 3,
                batches: 1,
                f_in_hz: 10e6,
                stream_crc32: corr as u32,
            })));
        }
        let mut rng = order_seed | 1;
        for i in (1..frames.len()).rev() {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (rng >> 33) as usize % (i + 1);
            // Keep each request's batch before its done; swapping is
            // fine when the pair order within a corr id is preserved.
            let (ci, cj) = (frames[i].0, frames[j].0);
            if ci != cj {
                frames.swap(i, j);
            }
        }
        let expected: Vec<Response> = frames
            .iter()
            .map(|(corr, inner)| Response::Tagged {
                corr_id: *corr,
                inner: Box::new(inner.clone()),
            })
            .collect();
        let stream: Vec<u8> = expected.iter().flat_map(encode_response).collect();

        // Fragmented feed: every frame comes back, in stream order.
        let mut assembler = FrameAssembler::new();
        let mut decoded = Vec::new();
        for piece in stream.chunks(chunk) {
            assembler.extend(piece);
            while let Some((kind, payload)) = assembler.next_frame(1 << 20).unwrap() {
                decoded.push(
                    adc_server::protocol::decode_response_frame(kind, &payload).unwrap()
                );
            }
        }
        prop_assert_eq!(&decoded, &expected);

        // Truncated feed: never panics, never invents a frame past the
        // cut.
        let cut = ((stream.len() as f64 * cut_frac) as usize).min(stream.len());
        let mut assembler = FrameAssembler::new();
        assembler.extend(&stream[..cut]);
        let mut complete = 0usize;
        while let Ok(Some(_)) = assembler.next_frame(1 << 20) {
            complete += 1;
        }
        prop_assert!(complete <= expected.len());
    }

    /// `Overloaded` error frames decode to the typed code — tagged or
    /// untagged — so clients can tell admission shed from hard failure.
    #[test]
    fn overloaded_frames_decode_typed(
        corr_id in 1u64..u64::MAX,
        detail_len in 0usize..64,
    ) {
        let detail = "q".repeat(detail_len);
        let untagged = decode_response(&encode_response(&Response::Error {
            code: ErrorCode::Overloaded,
            detail: detail.clone(),
        })).unwrap();
        prop_assert_eq!(untagged, Response::Error {
            code: ErrorCode::Overloaded,
            detail: detail.clone(),
        });
        let tagged = decode_response(&encode_response(&Response::Tagged {
            corr_id,
            inner: Box::new(Response::Error {
                code: ErrorCode::Overloaded,
                detail: detail.clone(),
            }),
        })).unwrap();
        match tagged {
            Response::Tagged { corr_id: c, inner } => {
                prop_assert_eq!(c, corr_id);
                prop_assert_eq!(*inner, Response::Error {
                    code: ErrorCode::Overloaded,
                    detail,
                });
            }
            other => prop_assert!(false, "expected tagged error, got {:?}", other),
        }
    }
}
