//! Ingest conformance suite for the framed v2 trace format.
//!
//! Two guarantees, over arbitrary traces:
//!
//! * **Bit identity** — the framed v2 container (serial, forced
//!   multi-worker, any frame length, memory-mapped from disk) decodes
//!   to exactly the in-memory dataset it encoded, proven by re-encoding
//!   both into one frame per section and comparing bytes.
//! * **No panics on corrupt input** — flipped payload bytes, truncated
//!   directories, and overlapping frame offsets are reported as
//!   `Err(SchemaError)`, never a panic or a silently wrong dataset.
//!
//! The CSV path rides along: a sim trace's CSV export parses back to its
//! attack records, and the chunked parser reports the serial parser's
//! first error.

use std::collections::BTreeSet;
use std::ops::Range;
use std::sync::OnceLock;

use ddos_schema::{csv, framed, Dataset, SchemaError};
use ddos_sim::{generate, SimConfig};
use proptest::prelude::*;

/// The canonical fingerprint: identical one-frame-per-section
/// encodings mean an identical window and identical records in
/// identical order.
fn fingerprint(ds: &Dataset) -> bytes::Bytes {
    framed::encode_with(ds, usize::MAX)
}

proptest! {
    // Trace generation dominates the cost; a handful of configurations
    // across seeds, scales, and injection toggles exercises every
    // section shape (empty snapshot series included).
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn framed_decode_is_bit_identical_to_the_dataset(
        seed in 0u64..(1u64 << 48),
        scale in 0.002f64..0.006,
        snapshots in any::<bool>(),
        spike in any::<bool>(),
        collaborations in any::<bool>(),
        chains in any::<bool>(),
    ) {
        let cfg = SimConfig {
            seed,
            scale,
            snapshots,
            spike,
            collaborations,
            chains,
            ..SimConfig::small()
        };
        let ds = generate(&cfg).dataset;
        let want = fingerprint(&ds);

        // Frame length 1 maximizes frame count (every cross-frame seam
        // exercised); a larger-than-section length collapses each
        // section to a single frame.
        for frame_len in [1, framed::DEFAULT_FRAME_LEN, usize::MAX] {
            let v2 = framed::encode_with(&ds, frame_len);
            let (serial, _) = framed::decode_with_workers(&v2, 1).unwrap();
            prop_assert_eq!(&fingerprint(&serial), &want);
            let (threaded, _) = framed::decode_with_workers(&v2, 4).unwrap();
            prop_assert_eq!(&fingerprint(&threaded), &want);
        }

        // The mmap path reads the same bytes back off disk.
        let path = std::env::temp_dir().join(format!("ingest_prop_{seed:x}.ddtl"));
        std::fs::write(&path, framed::encode(&ds)).unwrap();
        let opened = Dataset::open(&path);
        let _ = std::fs::remove_file(&path);
        prop_assert_eq!(&fingerprint(&opened.unwrap()), &want);
    }
}

fn small_v2() -> bytes::Bytes {
    static CLEAN: OnceLock<bytes::Bytes> = OnceLock::new();
    CLEAN
        .get_or_init(|| {
            let ds = generate(&SimConfig::small()).dataset;
            framed::encode(&ds)
        })
        .clone()
}

/// Reads the frame directory the same way the decoder does (header,
/// then frame count and payload length varints, then `n` directory
/// entries). Returns the payload's byte offset and, per frame, its
/// section kind and its absolute byte range in `bytes`.
fn directory(bytes: &[u8]) -> (usize, Vec<(u8, Range<usize>)>) {
    fn varint(bytes: &[u8], pos: &mut usize) -> usize {
        let mut v = 0u64;
        let mut shift = 0;
        loop {
            let b = bytes[*pos];
            *pos += 1;
            v |= u64::from(b & 0x7F) << shift;
            if b & 0x80 == 0 {
                return v as usize;
            }
            shift += 7;
        }
    }
    let mut pos = 4 + 2 + 16;
    let n_frames = varint(bytes, &mut pos);
    let _payload_len = varint(bytes, &mut pos);
    let mut frames = Vec::with_capacity(n_frames);
    for _ in 0..n_frames {
        let kind = bytes[pos];
        pos += 2; // kind, family
        let _count = varint(bytes, &mut pos);
        let offset = varint(bytes, &mut pos);
        let len = varint(bytes, &mut pos);
        pos += 8; // checksum
        frames.push((kind, offset..offset + len));
    }
    for (_, range) in &mut frames {
        *range = pos + range.start..pos + range.end;
    }
    (pos, frames)
}

#[test]
fn corrupt_payload_bytes_error_never_panic() {
    // A small trace in small frames keeps the debug-build decode cheap
    // while still giving every section kind several frames.
    let ds = generate(&SimConfig {
        scale: 0.002,
        ..SimConfig::small()
    })
    .dataset;
    let clean = framed::encode_with(&ds, 16);
    let (_, frames) = directory(&clean);
    let kinds: BTreeSet<u8> = frames.iter().map(|(kind, _)| *kind).collect();
    assert_eq!(kinds.len(), 4, "trace must cover every section kind");
    // Flipping a byte of any frame must trip that frame's checksum.
    for (kind, range) in &frames {
        assert!(!range.is_empty(), "kind {kind}: empty frame");
        let i = range.start + range.len() / 2;
        let mut bad = clean.to_vec();
        bad[i] ^= 0x40;
        let err = framed::decode(&bad).expect_err("corrupt payload accepted");
        assert!(
            err.to_string().contains("checksum mismatch"),
            "kind {kind}, byte {i}: unexpected error {err}"
        );
    }
}

#[test]
fn truncated_directory_errors_never_panic() {
    let clean = small_v2();
    let (start, _) = directory(&clean);
    // Every prefix that cuts the header or directory short must error.
    for len in 0..start {
        let err = framed::decode(&clean[..len]);
        assert!(err.is_err(), "prefix of {len} bytes accepted");
    }
    // Truncating the payload must error too (spot checks: whole-frame
    // and mid-frame cuts).
    for len in [start, start + 1, clean.len() - 1] {
        assert!(framed::decode(&clean[..len]).is_err());
    }
}

#[test]
fn overlapping_frame_offsets_are_rejected() {
    // Two one-record attack frames, then rewrite frame 1's offset to 0
    // so it overlaps frame 0 (compensating the payload-length varint by
    // keeping total coverage consistent is impossible — the contiguity
    // check rejects the rewind before any frame is decoded).
    let ds = generate(&SimConfig {
        scale: 0.002,
        snapshots: false,
        ..SimConfig::small()
    })
    .dataset;
    let clean = framed::encode_with(&ds, ds.attacks().len().div_ceil(2).max(1));
    // Find the second directory entry and zero its offset varint. The
    // directory layout is kind(1) family(1) count(v) offset(v) len(v)
    // checksum(8) per frame; varints here are short, so walk them.
    let mut pos = 4 + 2 + 16;
    let varint_end = |bytes: &[u8], pos: &mut usize| {
        while bytes[*pos] & 0x80 != 0 {
            *pos += 1;
        }
        *pos += 1;
    };
    let mut bad = clean.to_vec();
    varint_end(&bad, &mut pos); // frame count
    varint_end(&bad, &mut pos); // payload length
                                // Skip frame 0's entry.
    pos += 2;
    varint_end(&bad, &mut pos);
    varint_end(&bad, &mut pos);
    varint_end(&bad, &mut pos);
    pos += 8;
    // Frame 1: skip kind/family/count, then stomp the offset.
    pos += 2;
    varint_end(&bad, &mut pos);
    let offset_at = pos;
    varint_end(&bad, &mut pos);
    assert!(
        bad[offset_at] != 0,
        "frame 1 offset unexpectedly zero already"
    );
    for b in &mut bad[offset_at..pos] {
        *b = 0x80; // continuation bytes...
    }
    bad[pos - 1] = 0; // ...terminated: same varint width, value 0.
    let err = framed::decode(&bad).expect_err("overlapping offsets accepted");
    match &err {
        SchemaError::Codec(msg) => assert!(
            msg.contains("does not follow previous frame end"),
            "unexpected error {msg}"
        ),
        other => panic!("unexpected error {other}"),
    }
}

/// The retired unframed stream (version 1) and any future version are
/// rejected the same way by the decoder and by `Dataset::open`.
#[test]
fn wrong_versions_are_cross_rejected() {
    let clean = small_v2();
    let path =
        std::env::temp_dir().join(format!("ingest_wrong_version_{}.ddtl", std::process::id()));
    for found in [1u16, 3] {
        // A version-1 header is the same magic, version field and window
        // as the framed container's.
        let mut bad = clean.to_vec();
        bad[4..6].copy_from_slice(&found.to_be_bytes());
        std::fs::write(&path, &bad).unwrap();
        let opened = Dataset::open(&path);
        let _ = std::fs::remove_file(&path);
        for (entry, got) in [
            ("framed::decode", framed::decode(&bad)),
            ("Dataset::open", opened),
        ] {
            match got {
                Err(SchemaError::UnsupportedVersion {
                    found: f,
                    supported: 2,
                }) if f == found => {}
                other => panic!("{entry} on version {found}: {:?}", other.map(|_| ())),
            }
        }
    }
}

// ----------------------------------------- structured container fuzzing

/// Byte ranges of the directory entries in a *clean* v2 container
/// (layout per entry: kind(1) family(1) count(v) offset(v) len(v)
/// checksum(8)), for the frame-reorder mutation below.
fn directory_entry_ranges(bytes: &[u8]) -> Vec<std::ops::Range<usize>> {
    let varint_end = |bytes: &[u8], pos: &mut usize| {
        while bytes[*pos] & 0x80 != 0 {
            *pos += 1;
        }
        *pos += 1;
    };
    let varint = |bytes: &[u8], pos: &mut usize| {
        let mut v = 0u64;
        let mut shift = 0;
        loop {
            let b = bytes[*pos];
            *pos += 1;
            v |= u64::from(b & 0x7F) << shift;
            if b & 0x80 == 0 {
                return v;
            }
            shift += 7;
        }
    };
    let mut pos = 4 + 2 + 16;
    let n_frames = varint(bytes, &mut pos);
    varint_end(bytes, &mut pos); // payload length
    let mut ranges = Vec::with_capacity(n_frames as usize);
    for _ in 0..n_frames {
        let start = pos;
        pos += 2;
        varint_end(bytes, &mut pos);
        varint_end(bytes, &mut pos);
        varint_end(bytes, &mut pos);
        pos += 8;
        ranges.push(start..pos);
    }
    ranges
}

/// Swaps two directory entries (by their clean-container byte ranges)
/// inside `bad`, if both ranges survived earlier mutations in-bounds.
fn swap_directory_entries(
    bad: &mut Vec<u8>,
    ranges: &[std::ops::Range<usize>],
    i: usize,
    j: usize,
) {
    if ranges.len() < 2 {
        return;
    }
    let (i, j) = (i % ranges.len(), j % ranges.len());
    let (a, b) = (ranges[i.min(j)].clone(), ranges[i.max(j)].clone());
    if i == j || b.end > bad.len() {
        return;
    }
    let mut rebuilt = Vec::with_capacity(bad.len());
    rebuilt.extend_from_slice(&bad[..a.start]);
    rebuilt.extend_from_slice(&bad[b.clone()]);
    rebuilt.extend_from_slice(&bad[a.end..b.start]);
    rebuilt.extend_from_slice(&bad[a.clone()]);
    rebuilt.extend_from_slice(&bad[b.end..]);
    *bad = rebuilt;
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Structured fuzzing of the v2 directory decoder: arbitrary
    /// compositions of byte flips, length edits (truncate/extend), and
    /// frame reorders applied to a valid container must either error or
    /// decode consistently — never panic. The serial and worker decode
    /// paths must agree on accept/reject, and anything accepted must
    /// re-encode and round-trip cleanly. (The header window bytes are
    /// not checksummed, so a mutation there may legitimately decode to
    /// a *different* valid dataset — consistency, not bit-rejection, is
    /// the contract.)
    #[test]
    fn mutated_containers_error_or_round_trip_never_panic(
        mutations in prop::collection::vec(
            (0u8..3, any::<usize>(), any::<u8>()),
            1..4,
        ),
        workers in 2usize..6,
    ) {
        let clean = small_v2();
        let ranges = directory_entry_ranges(&clean);
        let mut bad = clean.to_vec();
        for (kind, pos, val) in mutations {
            match kind {
                0 => {
                    // Byte flip (always at least one bit).
                    let i = pos % bad.len();
                    bad[i] ^= val | 1;
                }
                1 => {
                    // Length edit: truncate, or extend with junk.
                    if val & 1 == 0 {
                        bad.truncate(pos % (bad.len() + 1));
                        if bad.is_empty() {
                            bad.push(val);
                        }
                    } else {
                        bad.extend(std::iter::repeat(val).take(1 + pos % 64));
                    }
                }
                _ => swap_directory_entries(&mut bad, &ranges, pos, val as usize),
            }
        }
        let serial = framed::decode(&bad);
        let threaded = framed::decode_with_workers(&bad, workers);
        prop_assert!(
            serial.is_ok() == threaded.is_ok(),
            "serial {:?} vs {} workers {:?}",
            serial.as_ref().err().map(|e| e.to_string()),
            workers,
            threaded.as_ref().err().map(|e| e.to_string())
        );
        if let (Ok(a), Ok((b, _))) = (serial, threaded) {
            prop_assert_eq!(&fingerprint(&a), &fingerprint(&b));
            // Whatever was accepted must survive its own re-encoding.
            let re = framed::encode(&a);
            let back = framed::decode(&re).expect("re-encoded container decodes");
            prop_assert_eq!(&fingerprint(&back), &fingerprint(&a));
        }
    }
}

// --------------------------------------- CSV chunked error attribution

fn small_csv() -> &'static str {
    static CSV: OnceLock<String> = OnceLock::new();
    CSV.get_or_init(|| {
        let ds = generate(&SimConfig::small()).dataset;
        csv::attacks_to_csv(ds.attacks())
    })
}

/// The CSV export of a sim trace parses back to exactly its attack
/// records, serially and in chunks.
#[test]
fn csv_round_trips_the_small_trace() {
    let ds = generate(&SimConfig::small()).dataset;
    let serial = csv::attacks_from_csv_with(small_csv(), 1).expect("serial CSV parse");
    assert!(serial == ds.attacks(), "serial CSV parse diverged");
    let chunked = csv::attacks_from_csv_with(small_csv(), 4).expect("chunked CSV parse");
    assert!(chunked == ds.attacks(), "chunked CSV parse diverged");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Error attribution under chunking: whatever rows are corrupted and
    /// wherever the chunk boundaries fall, the chunked parser must
    /// report exactly the error the serial parser reports — the one for
    /// the earliest offending line.
    #[test]
    fn chunked_csv_reports_the_serial_first_error(
        corrupt in prop::collection::vec((any::<usize>(), 0u8..2), 0..4),
        workers in 2usize..10,
    ) {
        let lines: Vec<&str> = small_csv().lines().collect();
        let n_rows = lines.len() - 1; // minus header
        let mut mutated: Vec<String> = lines.iter().map(|s| s.to_string()).collect();
        let mut first_bad_line: Option<usize> = None;
        for (row, kind) in corrupt {
            let lineno = 1 + row % n_rows + 1; // 1-based, after the header
            mutated[lineno - 1] = match kind {
                0 => "not,enough,columns".to_string(),
                _ => {
                    // Break the first field (the attack id) in place.
                    let line = &lines[lineno - 1];
                    let rest = line.split_once(',').map(|(_, r)| r).unwrap_or("");
                    format!("bogus,{rest}")
                }
            };
            first_bad_line = Some(first_bad_line.map_or(lineno, |l| l.min(lineno)));
        }
        let text = mutated.join("\n");
        let serial = csv::attacks_from_csv_with(&text, 1);
        let chunked = csv::attacks_from_csv_with(&text, workers);
        match first_bad_line {
            None => {
                prop_assert_eq!(
                    serial.as_ref().expect("clean csv parses serially"),
                    chunked.as_ref().expect("clean csv parses chunked")
                );
            }
            Some(lineno) => {
                let serial = serial.expect_err("corrupt csv must fail serially");
                let chunked = chunked.expect_err("corrupt csv must fail chunked");
                prop_assert!(
                    serial.to_string().contains(&format!("line {lineno}")),
                    "serial error {serial} does not name line {lineno}"
                );
                let (serial, chunked) = (serial.to_string(), chunked.to_string());
                prop_assert!(
                    serial == chunked,
                    "chunked ({workers} workers) error attribution diverged: \
                     serial `{serial}` vs chunked `{chunked}`"
                );
            }
        }
    }
}
