//! Framed binary trace format (`DDTL`, version 2) with parallel decode.
//!
//! Version 2 keeps version 1's per-record wire encoding untouched but
//! splits each section (attacks, bots, botnets, per-family snapshots)
//! into frames of at most `frame_len` records and moves the layout into
//! a directory between the header and the payload:
//!
//! ```text
//! magic     b"DDTL"
//! version   u16 = 2
//! window    start:i64 end:i64
//! directory varint frame-count, varint payload-len, then per frame:
//!           kind:u8 family:u8 varint record-count
//!           varint byte-offset varint byte-len checksum:u64
//! payload   the frame bodies, back to back
//! ```
//!
//! `kind` is the section (0 attacks, 1 bots, 2 botnets, 3 snapshots);
//! `family` is the snapshot family index (`0xFF` for the other kinds).
//! The directory is validated up front: frames must be contiguous
//! (each offset equals the previous frame's end — overlapping or
//! gapped offsets are rejected), kinds must appear in section order,
//! and snapshot families must stay grouped and never reappear.
//!
//! Decoding then needs no cross-frame state: each frame is a
//! self-delimited run of whole records, so workers on scoped threads
//! (`crossbeam`, the same work-stealing pattern as the pass scheduler)
//! pull frame indices from an atomic counter, verify the frame
//! checksum, and decode through a zero-copy `SliceReader` cursor over
//! the input — typically a memory-mapped file, so pages fault in as
//! the cursors reach them and nothing is buffered up front. Results
//! are spliced in frame order and the first error in frame order wins,
//! so output (dataset *and* diagnostics) is deterministic regardless
//! of thread interleaving. Concatenating the frames of a section in
//! frame order reproduces the v1 record sequence exactly, hence the
//! decoded [`Dataset`] is bit-identical to the serial v1 reference
//! decode — `tests/ingest.rs` proves this by proptest over arbitrary
//! sim configs and frame lengths.

use std::sync::atomic::{AtomicUsize, Ordering};

use bytes::{BufMut, Bytes, BytesMut};

use crate::codec::{
    get_attack, get_bot, get_botnet, get_snapshot, put_attack, put_bot, put_botnet, put_snapshot,
    put_varint, MAGIC,
};
use crate::dataset::{Dataset, DatasetBuilder};
use crate::error::SchemaError;
use crate::family::Family;
use crate::record::{AttackRecord, BotRecord, BotnetRecord};
use crate::snapshot::{HourlySnapshot, SnapshotSeries};
use crate::time::{Timestamp, Window};
use crate::wire::{get_varint, need, SliceReader, WireBuf};

/// The framed binary format version.
pub const FRAMED_VERSION: u16 = 2;

/// Default records-per-frame bound: large enough that directory and
/// per-frame overheads vanish, small enough that a paper-scale trace
/// (~50k attacks, ~300k bots) still yields dozens of frames to spread
/// over decode workers.
pub const DEFAULT_FRAME_LEN: usize = 8_192;

const KIND_ATTACKS: u8 = 0;
const KIND_BOTS: u8 = 1;
const KIND_BOTNETS: u8 = 2;
const KIND_SNAPSHOTS: u8 = 3;
/// `family` byte for frames that are not snapshot frames.
const NO_FAMILY: u8 = 0xFF;

/// Statistics describing one binary trace load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestStats {
    /// Container version the input carried (1 or 2).
    pub version: u16,
    /// Total input size in bytes.
    pub bytes: usize,
    /// Frames decoded (1 for the unframed v1 format).
    pub frames: usize,
    /// Decode worker threads used.
    pub workers: usize,
}

impl IngestStats {
    /// Stats for a serial v1 decode (one implicit frame, one worker).
    pub(crate) fn serial_v1(bytes: usize) -> IngestStats {
        IngestStats {
            version: 1,
            bytes,
            frames: 1,
            workers: 1,
        }
    }
}

/// A 64-bit integrity checksum over a frame body.
///
/// Multiply-xor fold over 8-byte little-endian words (length mixed into
/// the seed, zero-padded tail, final avalanche), in the FNV spirit but
/// word-at-a-time, and striped across four independent lanes so the
/// multiply dependency chain does not serialize the loop — integrity
/// checking stays a small fraction of frame decode time. Every step is
/// bijective in its input word (xor, then multiply by an odd constant),
/// so any single-word change — in particular any single flipped byte —
/// always changes the digest. Not cryptographic: it guards against
/// corruption, not adversaries.
pub fn checksum64(bytes: &[u8]) -> u64 {
    const MUL: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut lanes = [
        0xcbf2_9ce4_8422_2325u64 ^ (bytes.len() as u64).wrapping_mul(MUL),
        0x8445_2dbe_6b93_d5a1,
        0x9ddf_ea08_eb38_2d69,
        0xa076_1d64_78bd_642f,
    ];
    let mut blocks = bytes.chunks_exact(32);
    for b in &mut blocks {
        for (j, lane) in lanes.iter_mut().enumerate() {
            let w = u64::from_le_bytes(b[j * 8..j * 8 + 8].try_into().expect("8-byte stripe"));
            *lane = (*lane ^ w).wrapping_mul(MUL);
        }
    }
    // At most three whole words and a zero-padded tail remain; fold
    // them into lane 0 (length is in the seed, so padding is not free).
    let mut words = blocks.remainder().chunks_exact(8);
    for w in &mut words {
        let w = u64::from_le_bytes(w.try_into().expect("chunks_exact yields 8 bytes"));
        lanes[0] = (lanes[0] ^ w).wrapping_mul(MUL);
    }
    let rem = words.remainder();
    if !rem.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rem.len()].copy_from_slice(rem);
        lanes[0] = (lanes[0] ^ u64::from_le_bytes(tail)).wrapping_mul(MUL);
    }
    let mut h = lanes[0];
    for lane in &lanes[1..] {
        h = (h ^ lane).wrapping_mul(MUL);
    }
    h ^= h >> 32;
    h = h.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    h ^ (h >> 32)
}

struct RawFrame {
    kind: u8,
    family: u8,
    count: usize,
    body: BytesMut,
}

/// Serializes a dataset into the framed v2 format with
/// [`DEFAULT_FRAME_LEN`] records per frame.
pub fn encode(ds: &Dataset) -> Bytes {
    encode_with(ds, DEFAULT_FRAME_LEN)
}

/// Serializes with an explicit records-per-frame bound (clamped to 1).
pub fn encode_with(ds: &Dataset, frame_len: usize) -> Bytes {
    let frame_len = frame_len.max(1);
    let mut frames: Vec<RawFrame> = Vec::new();
    let mut section = |kind: u8, family: u8, count: usize, body: BytesMut| {
        frames.push(RawFrame {
            kind,
            family,
            count,
            body,
        });
    };
    for chunk in ds.attacks().chunks(frame_len) {
        let mut body = BytesMut::with_capacity(chunk.len() * 64);
        for a in chunk {
            put_attack(&mut body, a);
        }
        section(KIND_ATTACKS, NO_FAMILY, chunk.len(), body);
    }
    for chunk in ds.bots().chunks(frame_len) {
        let mut body = BytesMut::with_capacity(chunk.len() * 48);
        for b in chunk {
            put_bot(&mut body, b);
        }
        section(KIND_BOTS, NO_FAMILY, chunk.len(), body);
    }
    for chunk in ds.botnets().chunks(frame_len) {
        let mut body = BytesMut::with_capacity(chunk.len() * 48);
        for b in chunk {
            put_botnet(&mut body, b);
        }
        section(KIND_BOTNETS, NO_FAMILY, chunk.len(), body);
    }
    for family in ds.snapshot_families() {
        let series = ds.snapshots(family).expect("family listed");
        if series.is_empty() {
            // One empty frame keeps the family present in the round trip.
            section(KIND_SNAPSHOTS, family.index() as u8, 0, BytesMut::new());
            continue;
        }
        for chunk in series.as_slice().chunks(frame_len) {
            let mut body = BytesMut::with_capacity(chunk.len() * 64);
            for s in chunk {
                put_snapshot(&mut body, s);
            }
            section(KIND_SNAPSHOTS, family.index() as u8, chunk.len(), body);
        }
    }

    let payload_len: usize = frames.iter().map(|f| f.body.len()).sum();
    let mut out = BytesMut::with_capacity(64 + frames.len() * 24 + payload_len);
    out.put_slice(MAGIC);
    out.put_u16(FRAMED_VERSION);
    out.put_i64(ds.window().start.0);
    out.put_i64(ds.window().end.0);
    put_varint(&mut out, frames.len() as u64);
    put_varint(&mut out, payload_len as u64);
    let mut offset = 0usize;
    for f in &frames {
        out.put_u8(f.kind);
        out.put_u8(f.family);
        put_varint(&mut out, f.count as u64);
        put_varint(&mut out, offset as u64);
        put_varint(&mut out, f.body.len() as u64);
        out.put_u64(checksum64(&f.body));
        offset += f.body.len();
    }
    for f in &frames {
        out.put_slice(&f.body);
    }
    out.freeze()
}

#[derive(Debug, Clone, Copy)]
struct FrameMeta {
    kind: u8,
    family: u8,
    count: usize,
    offset: usize,
    len: usize,
    checksum: u64,
}

enum FramePayload {
    Attacks(Vec<AttackRecord>),
    Bots(Vec<BotRecord>),
    Botnets(Vec<BotnetRecord>),
    Snapshots(Family, Vec<HourlySnapshot>),
}

/// Decoded sections accumulated in frame order, pre-sized from the
/// directory's record counts so no vector ever regrows mid-decode.
struct Sections {
    attacks: Vec<AttackRecord>,
    bots: Vec<BotRecord>,
    botnets: Vec<BotnetRecord>,
    snaps: Vec<(Family, Vec<HourlySnapshot>)>,
}

/// Deserializes a dataset from the framed v2 format.
pub fn decode(bytes: &[u8]) -> Result<Dataset, SchemaError> {
    decode_with_stats(bytes).map(|(ds, _)| ds)
}

/// Like [`decode`], also returning [`IngestStats`] describing the load.
pub fn decode_with_stats(bytes: &[u8]) -> Result<(Dataset, IngestStats), SchemaError> {
    decode_with_workers(bytes, worker_count())
}

/// Like [`decode_with_stats`] with an explicit decode worker count
/// (clamped to `[1, frames]`); the default uses one worker per
/// available core. Lets tests and benches pin the parallel merge path
/// (or the serial one) regardless of the host's core count.
pub fn decode_with_workers(
    bytes: &[u8],
    workers: usize,
) -> Result<(Dataset, IngestStats), SchemaError> {
    let mut r = SliceReader::new(bytes);
    need(&r, 4 + 2 + 16, "header")?;
    let mut magic = [0u8; 4];
    r.take_into(&mut magic);
    if &magic != MAGIC {
        return Err(SchemaError::Codec("bad magic (not a DDTL trace)".into()));
    }
    let version = r.take_u16();
    if version != FRAMED_VERSION {
        return Err(SchemaError::UnsupportedVersion {
            found: version,
            supported: FRAMED_VERSION,
        });
    }
    let start = Timestamp(r.take_i64());
    let end = Timestamp(r.take_i64());
    let window = Window::new(start, end)?;

    let n_frames = get_varint(&mut r)? as usize;
    let payload_len = get_varint(&mut r)? as usize;
    // A directory entry is at least 13 bytes (kind, family, three
    // one-byte varints, checksum); reject absurd counts before sizing
    // any allocation off them.
    if r.left() < n_frames.saturating_mul(13) {
        return Err(SchemaError::Codec("truncated frame directory".into()));
    }
    let mut metas = Vec::with_capacity(n_frames);
    let mut expect_offset = 0usize;
    let mut prev_kind = KIND_ATTACKS;
    let mut current_family: Option<u8> = None;
    let mut seen_families: Vec<u8> = Vec::new();
    for i in 0..n_frames {
        need(&r, 2, "frame kind/family")?;
        let kind = r.take_u8();
        let family = r.take_u8();
        let count = get_varint(&mut r)? as usize;
        let offset = get_varint(&mut r)? as usize;
        let len = get_varint(&mut r)? as usize;
        need(&r, 8, "frame checksum")?;
        let checksum = r.take_u64();
        if kind > KIND_SNAPSHOTS {
            return Err(SchemaError::Codec(format!("frame {i}: bad kind {kind}")));
        }
        if kind < prev_kind {
            return Err(SchemaError::Codec(format!(
                "frame {i}: section kind {kind} after kind {prev_kind}"
            )));
        }
        prev_kind = kind;
        if kind == KIND_SNAPSHOTS {
            Family::from_index(family as usize)
                .ok_or_else(|| SchemaError::Codec(format!("frame {i}: bad family index")))?;
            if current_family != Some(family) {
                if seen_families.contains(&family) {
                    return Err(SchemaError::Codec(format!(
                        "frame {i}: snapshot family {family} reappears"
                    )));
                }
                seen_families.push(family);
                current_family = Some(family);
            }
        } else if family != NO_FAMILY {
            return Err(SchemaError::Codec(format!(
                "frame {i}: family byte on non-snapshot frame"
            )));
        }
        // Contiguity pins every frame to exactly one byte range; an
        // offset that rewinds (overlap) or skips ahead (gap) is corrupt.
        if offset != expect_offset {
            return Err(SchemaError::Codec(format!(
                "frame {i}: offset {offset} does not follow previous frame end {expect_offset}"
            )));
        }
        expect_offset = offset
            .checked_add(len)
            .ok_or_else(|| SchemaError::Codec(format!("frame {i}: length overflow")))?;
        metas.push(FrameMeta {
            kind,
            family,
            count,
            offset,
            len,
            checksum,
        });
    }
    if expect_offset != payload_len {
        return Err(SchemaError::Codec(format!(
            "frame directory covers {expect_offset} bytes but payload length is {payload_len}"
        )));
    }
    let payload = &bytes[r.pos()..];
    if payload.len() != payload_len {
        return Err(SchemaError::Codec(format!(
            "payload is {} bytes but directory declares {payload_len}",
            payload.len()
        )));
    }

    crate::fail::check(crate::fail::INGEST_FRAMED_HEADER)?;

    // Size each section once from the directory's record counts,
    // bounded by the payload size (every record is > 1 byte on the
    // wire) so corrupt counts cannot oversize an allocation.
    let mut totals = [0usize; 4];
    for m in &metas {
        totals[m.kind as usize] += m.count;
    }
    let mut sections = Sections {
        attacks: Vec::with_capacity(totals[KIND_ATTACKS as usize].min(payload_len)),
        bots: Vec::with_capacity(totals[KIND_BOTS as usize].min(payload_len)),
        botnets: Vec::with_capacity(totals[KIND_BOTNETS as usize].min(payload_len)),
        snaps: Vec::new(),
    };
    let workers = workers.min(metas.len()).max(1);
    if workers <= 1 {
        // Serial fast path: records land in the final pre-sized
        // vectors as they decode — no per-frame buffers and no splice
        // copy. At paper scale this is the difference between ~1.5x
        // and >2x over the v1 serial decode (see BENCH_ingest.json).
        for (i, meta) in metas.iter().enumerate() {
            decode_frame_into(meta, i, payload, &mut sections)?;
        }
    } else {
        let mut slots: Vec<Option<Result<FramePayload, SchemaError>>> =
            metas.iter().map(|_| None).collect();
        let next = AtomicUsize::new(0);
        let plan = crate::fail::Handoff::current();
        crossbeam::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let (next, metas, plan) = (&next, &metas, &plan);
                    scope.spawn(move |_| {
                        let _plan = plan.enter();
                        let mut done = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= metas.len() {
                                break;
                            }
                            done.push((i, decode_frame(&metas[i], i, payload)));
                        }
                        done
                    })
                })
                .collect();
            for h in handles {
                for (i, res) in h.join().expect("frame decode worker panicked") {
                    slots[i] = Some(res);
                }
            }
        })
        .expect("frame decode scope panicked");

        // Splice in frame order; the first error in frame order wins,
        // so diagnostics are deterministic regardless of worker
        // interleaving.
        for slot in slots {
            match slot.expect("every frame decoded")? {
                FramePayload::Attacks(v) => sections.attacks.extend(v),
                FramePayload::Bots(v) => sections.bots.extend(v),
                FramePayload::Botnets(v) => sections.botnets.extend(v),
                FramePayload::Snapshots(family, v) => match sections.snaps.last_mut() {
                    Some((f, acc)) if *f == family => acc.extend(v),
                    _ => sections.snaps.push((family, v)),
                },
            }
        }
    }

    // The builder starts empty, so each section vector moves in whole.
    let mut builder = DatasetBuilder::new(window).allow_out_of_window();
    builder.extend_attacks_prevalidated(sections.attacks);
    builder.extend_bots_prevalidated(sections.bots);
    builder.extend_botnets_prevalidated(sections.botnets);
    for (family, series) in sections.snaps {
        builder.set_snapshots(family, SnapshotSeries::from_snapshots(series)?)?;
    }
    let stats = IngestStats {
        version: FRAMED_VERSION,
        bytes: bytes.len(),
        frames: metas.len(),
        workers,
    };
    Ok((builder.build()?, stats))
}

/// Decodes one frame straight into the final section vectors — the
/// serial path, where per-frame buffers and the splice copy would be
/// pure overhead. The parallel path uses [`decode_frame`] instead.
fn decode_frame_into(
    meta: &FrameMeta,
    idx: usize,
    payload: &[u8],
    sections: &mut Sections,
) -> Result<(), SchemaError> {
    crate::fail::check(crate::fail::INGEST_FRAMED_FRAME)?;
    // The directory contiguity check proved this range is in bounds.
    let body = &payload[meta.offset..meta.offset + meta.len];
    if checksum64(body) != meta.checksum {
        return Err(SchemaError::Codec(format!(
            "frame {idx}: checksum mismatch"
        )));
    }
    let mut r = SliceReader::new(body);
    match meta.kind {
        KIND_ATTACKS => {
            for _ in 0..meta.count {
                let a = get_attack(&mut r)?;
                a.validate()?;
                sections.attacks.push(a);
            }
        }
        KIND_BOTS => {
            for _ in 0..meta.count {
                let b = get_bot(&mut r)?;
                b.validate()?;
                sections.bots.push(b);
            }
        }
        KIND_BOTNETS => {
            for _ in 0..meta.count {
                let b = get_botnet(&mut r)?;
                b.validate()?;
                sections.botnets.push(b);
            }
        }
        _ => {
            let family = Family::from_index(meta.family as usize)
                .ok_or_else(|| SchemaError::Codec(format!("frame {idx}: bad family index")))?;
            if sections.snaps.last().map(|(f, _)| *f) != Some(family) {
                sections.snaps.push((family, Vec::new()));
            }
            let acc = &mut sections.snaps.last_mut().expect("family run started").1;
            for _ in 0..meta.count {
                acc.push(get_snapshot(&mut r, family)?);
            }
        }
    }
    if r.left() > 0 {
        return Err(SchemaError::Codec(format!(
            "frame {idx}: {} trailing bytes",
            r.left()
        )));
    }
    Ok(())
}

fn decode_frame(meta: &FrameMeta, idx: usize, payload: &[u8]) -> Result<FramePayload, SchemaError> {
    crate::fail::check(crate::fail::INGEST_FRAMED_FRAME)?;
    // The directory contiguity check proved this range is in bounds.
    let body = &payload[meta.offset..meta.offset + meta.len];
    if checksum64(body) != meta.checksum {
        return Err(SchemaError::Codec(format!(
            "frame {idx}: checksum mismatch"
        )));
    }
    let mut r = SliceReader::new(body);
    // Every record is > 1 byte on the wire, so this caps preallocation
    // from an untrusted count at the frame size.
    let cap = meta.count.min(body.len());
    let payload = match meta.kind {
        KIND_ATTACKS => {
            let mut v = Vec::with_capacity(cap);
            for _ in 0..meta.count {
                let a = get_attack(&mut r)?;
                a.validate()?;
                v.push(a);
            }
            FramePayload::Attacks(v)
        }
        KIND_BOTS => {
            let mut v = Vec::with_capacity(cap);
            for _ in 0..meta.count {
                let b = get_bot(&mut r)?;
                b.validate()?;
                v.push(b);
            }
            FramePayload::Bots(v)
        }
        KIND_BOTNETS => {
            let mut v = Vec::with_capacity(cap);
            for _ in 0..meta.count {
                let b = get_botnet(&mut r)?;
                b.validate()?;
                v.push(b);
            }
            FramePayload::Botnets(v)
        }
        _ => {
            let family = Family::from_index(meta.family as usize)
                .ok_or_else(|| SchemaError::Codec(format!("frame {idx}: bad family index")))?;
            let mut v = Vec::with_capacity(cap);
            for _ in 0..meta.count {
                v.push(get_snapshot(&mut r, family)?);
            }
            FramePayload::Snapshots(family, v)
        }
    };
    if r.left() > 0 {
        return Err(SchemaError::Codec(format!(
            "frame {idx}: {} trailing bytes",
            r.left()
        )));
    }
    Ok(payload)
}

fn worker_count() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec;
    use crate::geo::{CountryCode, LatLon};
    use crate::ids::BotnetId;
    use crate::ip::IpAddr4;
    use crate::record::test_fixtures::attack;
    use crate::snapshot::BotPresence;

    fn sample_dataset() -> Dataset {
        let window = Window::new(Timestamp(0), Timestamp(1_000_000)).unwrap();
        let mut b = DatasetBuilder::new(window);
        for id in 1..=9u64 {
            let mut a = attack(id, id as i64 * 1_000);
            a.sources.push(IpAddr4::from_octets(203, 0, 113, id as u8));
            b.push_attack(a).unwrap();
        }
        for i in 1..=5u8 {
            b.push_bot(BotRecord {
                ip: IpAddr4::from_octets(203, 0, 113, 100 + i),
                botnet: BotnetId(7),
                family: Family::Dirtjumper,
                location: crate::record::test_fixtures::location(),
                first_seen: Timestamp(500),
                last_seen: Timestamp(90_000),
            })
            .unwrap();
        }
        b.push_botnet(BotnetRecord {
            id: BotnetId(7),
            family: Family::Dirtjumper,
            binary_hash: [0x5A; 20],
            controller: IpAddr4::from_octets(192, 0, 2, 10),
            enrolled_bots: 5,
            first_seen: Timestamp(0),
            last_seen: Timestamp(100_000),
        })
        .unwrap();
        let series = SnapshotSeries::from_snapshots(
            (1..=4i64)
                .map(|h| HourlySnapshot {
                    family: Family::Dirtjumper,
                    taken_at: Timestamp(h * 3_600),
                    bots: vec![BotPresence {
                        ip: IpAddr4::from_octets(203, 0, 113, 5),
                        country: CountryCode::literal("RU"),
                        coords: LatLon::new_unchecked(55.75, 37.61),
                    }],
                })
                .collect(),
        )
        .unwrap();
        b.set_snapshots(Family::Dirtjumper, series).unwrap();
        b.build().unwrap()
    }

    fn assert_same(a: &Dataset, b: &Dataset) {
        assert_eq!(
            serde_json::to_string(a).unwrap(),
            serde_json::to_string(b).unwrap()
        );
    }

    #[test]
    fn round_trip_matches_v1_decode() {
        let ds = sample_dataset();
        let v1 = codec::decode(&codec::encode(&ds)).unwrap();
        for frame_len in [1, 2, 3, 1_000_000] {
            let bytes = encode_with(&ds, frame_len);
            let (v2, stats) = decode_with_stats(&bytes).unwrap();
            assert_same(&v1, &v2);
            // Force the scoped-thread path even on a 1-core host.
            let (v2_par, par_stats) = decode_with_workers(&bytes, 4).unwrap();
            assert_same(&v1, &v2_par);
            assert!(par_stats.workers >= 1 && par_stats.workers <= 4);
            assert_eq!(stats.version, FRAMED_VERSION);
            assert_eq!(stats.bytes, bytes.len());
            if frame_len == 1_000_000 {
                // One frame per non-empty section.
                assert_eq!(stats.frames, 4);
            }
        }
    }

    #[test]
    fn decode_any_reads_both_versions() {
        let ds = sample_dataset();
        let v1 = codec::decode_any(&codec::encode(&ds)).unwrap();
        let v2 = codec::decode_any(&encode(&ds)).unwrap();
        assert_same(&v1, &v2);
        let (_, stats) = codec::decode_any_with_stats(&codec::encode(&ds)).unwrap();
        assert_eq!((stats.version, stats.frames), (1, 1));
    }

    #[test]
    fn empty_dataset_round_trips() {
        let window = Window::new(Timestamp(0), Timestamp(1_000)).unwrap();
        let ds = DatasetBuilder::new(window).build().unwrap();
        let (back, stats) = decode_with_stats(&encode(&ds)).unwrap();
        assert_same(&ds, &back);
        assert_eq!(stats.frames, 0);
    }

    #[test]
    fn empty_snapshot_series_survives() {
        let window = Window::new(Timestamp(0), Timestamp(1_000)).unwrap();
        let mut b = DatasetBuilder::new(window);
        b.set_snapshots(Family::Optima, SnapshotSeries::new())
            .unwrap();
        let ds = b.build().unwrap();
        let back = decode(&encode(&ds)).unwrap();
        assert_eq!(
            back.snapshot_families().collect::<Vec<_>>(),
            vec![Family::Optima]
        );
        assert_eq!(back.snapshots(Family::Optima).unwrap().len(), 0);
    }

    #[test]
    fn rejects_checksum_corruption_anywhere_in_payload() {
        let ds = sample_dataset();
        let clean = encode_with(&ds, 2).to_vec();
        let (_, stats) = decode_with_stats(&clean).unwrap();
        assert!(stats.frames > 1);
        // Flipping any payload byte must be caught by a frame checksum
        // (or, for the rare flip that keeps the checksum word intact,
        // by record validation).
        let start = clean.len() - payload_size(&clean);
        for i in (start..clean.len()).step_by(7) {
            let mut bad = clean.clone();
            bad[i] ^= 0x40;
            let err = decode(&bad).expect_err("corruption must be detected");
            assert!(
                matches!(err, SchemaError::Codec(_) | SchemaError::InvalidRecord(_)),
                "unexpected error {err}"
            );
        }
    }

    /// Total payload size of an encoded v2 trace (sum of directory lens).
    fn payload_size(bytes: &[u8]) -> usize {
        let mut r = SliceReader::new(bytes);
        let mut skip = [0u8; 22];
        r.take_into(&mut skip);
        let _n = get_varint(&mut r).unwrap();
        get_varint(&mut r).unwrap() as usize
    }

    #[test]
    fn rejects_truncation_everywhere() {
        let ds = sample_dataset();
        let bytes = encode_with(&ds, 2);
        for len in 0..bytes.len() {
            assert!(decode(&bytes[..len]).is_err(), "prefix {len} should fail");
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut bytes = encode(&sample_dataset()).to_vec();
        bytes.push(0);
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn rejects_wrong_version() {
        let bytes = codec::encode(&sample_dataset());
        assert!(matches!(
            decode(&bytes).unwrap_err(),
            SchemaError::UnsupportedVersion {
                found: 1,
                supported: FRAMED_VERSION
            }
        ));
    }

    #[test]
    fn checksum_is_stable_and_sensitive() {
        assert_eq!(checksum64(b""), checksum64(b""));
        assert_ne!(checksum64(b"a"), checksum64(b"b"));
        assert_ne!(checksum64(b"ab"), checksum64(b"ba"));
        // Length is part of the digest: zero padding is not free.
        assert_ne!(checksum64(&[0u8; 7]), checksum64(&[0u8; 8]));
        assert_ne!(checksum64(&[]), checksum64(&[0u8; 1]));
    }
}
