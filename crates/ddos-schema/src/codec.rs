//! Trace persistence: a compact binary format plus JSON interchange.
//!
//! The binary format (`DDTL`, version 1) exists so full-size generated
//! traces (~50k attacks, ~300k bots, ~40k snapshots) can be written and
//! reloaded quickly without the overhead of JSON. Layout:
//!
//! ```text
//! magic   b"DDTL"
//! version u16 LE
//! window  start:i64 end:i64
//! attacks varint count, then records
//! bots    varint count, then records
//! botnets varint count, then records
//! snaps   varint family-count, then per family:
//!         family:u8, varint snapshot-count, snapshots
//! ```
//!
//! Integers that are usually small (counts, magnitudes) use LEB128
//! varints; timestamps are fixed-width `i64`; coordinates are `f64`.
//!
//! Version 2 of the container ([`crate::framed`]) reuses the same
//! per-record encoding but splits sections into independently-decodable
//! frames; [`decode_any`] dispatches on the header version so callers
//! can read either. The record decoders here are generic over
//! `WireBuf` so v1 keeps its `Bytes` reference path while v2 reads
//! zero-copy slices.

use bytes::{BufMut, Bytes, BytesMut};

use crate::dataset::{Dataset, DatasetBuilder};
use crate::error::SchemaError;
use crate::family::Family;
use crate::framed::IngestStats;
use crate::geo::{CountryCode, LatLon};
use crate::ids::{Asn, BotnetId, CityId, DdosId, OrgId};
use crate::ip::IpAddr4;
use crate::protocol::Protocol;
use crate::record::{AttackRecord, BotRecord, BotnetRecord, Location};
use crate::snapshot::{BotPresence, HourlySnapshot, SnapshotSeries};
use crate::time::{Timestamp, Window};
use crate::wire::{get_varint, need, WireBuf};

pub(crate) const MAGIC: &[u8; 4] = b"DDTL";
/// The original (serial) binary format version.
pub const VERSION: u16 = 1;

pub(crate) fn put_varint(buf: &mut BytesMut, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

fn put_location(buf: &mut BytesMut, loc: &Location) {
    buf.put_slice(loc.country.as_str().as_bytes());
    put_varint(buf, u64::from(loc.city.0));
    put_varint(buf, u64::from(loc.org.0));
    put_varint(buf, u64::from(loc.asn.0));
    buf.put_f64(loc.coords.lat);
    buf.put_f64(loc.coords.lon);
}

fn get_location<B: WireBuf>(buf: &mut B) -> Result<Location, SchemaError> {
    need(buf, 2, "country code")?;
    let (a, b) = (buf.take_u8(), buf.take_u8());
    let country =
        CountryCode::new(a, b).map_err(|_| SchemaError::Codec("malformed country code".into()))?;
    let city = CityId(get_varint(buf)? as u32);
    let org = OrgId(get_varint(buf)? as u32);
    let asn = Asn(get_varint(buf)? as u32);
    need(buf, 16, "coordinates")?;
    let lat = buf.take_f64();
    let lon = buf.take_f64();
    let coords =
        LatLon::new(lat, lon).map_err(|_| SchemaError::Codec("coordinates out of range".into()))?;
    Ok(Location {
        country,
        city,
        org,
        asn,
        coords,
    })
}

pub(crate) fn put_attack(buf: &mut BytesMut, a: &AttackRecord) {
    put_varint(buf, a.id.0);
    put_varint(buf, u64::from(a.botnet.0));
    buf.put_u8(a.family.index() as u8);
    buf.put_u8(a.category.index() as u8);
    buf.put_u32(a.target_ip.0);
    put_location(buf, &a.target);
    buf.put_i64(a.start.0);
    buf.put_i64(a.end.0);
    put_varint(buf, a.sources.len() as u64);
    for ip in &a.sources {
        buf.put_u32(ip.0);
    }
}

pub(crate) fn get_attack<B: WireBuf>(buf: &mut B) -> Result<AttackRecord, SchemaError> {
    let id = DdosId(get_varint(buf)?);
    let botnet = BotnetId(get_varint(buf)? as u32);
    need(buf, 2, "family/category")?;
    let family = Family::from_index(buf.take_u8() as usize)
        .ok_or_else(|| SchemaError::Codec("bad family index".into()))?;
    let fam_idx = buf.take_u8() as usize;
    let category = *Protocol::ALL
        .get(fam_idx)
        .ok_or_else(|| SchemaError::Codec("bad protocol index".into()))?;
    need(buf, 4, "target ip")?;
    let target_ip = IpAddr4(buf.take_u32());
    let target = get_location(buf)?;
    need(buf, 16, "timestamps")?;
    let start = Timestamp(buf.take_i64());
    let end = Timestamp(buf.take_i64());
    let n = get_varint(buf)? as usize;
    // Sanity bound: one source is 4 bytes on the wire.
    if buf.left() < n.saturating_mul(4) {
        return Err(SchemaError::Codec("truncated source list".into()));
    }
    let mut sources = Vec::with_capacity(n);
    for _ in 0..n {
        sources.push(IpAddr4(buf.take_u32()));
    }
    Ok(AttackRecord {
        id,
        botnet,
        family,
        category,
        target_ip,
        target,
        start,
        end,
        sources,
    })
}

pub(crate) fn put_bot(buf: &mut BytesMut, b: &BotRecord) {
    buf.put_u32(b.ip.0);
    put_varint(buf, u64::from(b.botnet.0));
    buf.put_u8(b.family.index() as u8);
    put_location(buf, &b.location);
    buf.put_i64(b.first_seen.0);
    buf.put_i64(b.last_seen.0);
}

pub(crate) fn get_bot<B: WireBuf>(buf: &mut B) -> Result<BotRecord, SchemaError> {
    need(buf, 4, "bot ip")?;
    let ip = IpAddr4(buf.take_u32());
    let botnet = BotnetId(get_varint(buf)? as u32);
    need(buf, 1, "bot family")?;
    let family = Family::from_index(buf.take_u8() as usize)
        .ok_or_else(|| SchemaError::Codec("bad family index".into()))?;
    let location = get_location(buf)?;
    need(buf, 16, "bot timestamps")?;
    let first_seen = Timestamp(buf.take_i64());
    let last_seen = Timestamp(buf.take_i64());
    Ok(BotRecord {
        ip,
        botnet,
        family,
        location,
        first_seen,
        last_seen,
    })
}

pub(crate) fn put_botnet(buf: &mut BytesMut, b: &BotnetRecord) {
    put_varint(buf, u64::from(b.id.0));
    buf.put_u8(b.family.index() as u8);
    buf.put_slice(&b.binary_hash);
    buf.put_u32(b.controller.0);
    put_varint(buf, u64::from(b.enrolled_bots));
    buf.put_i64(b.first_seen.0);
    buf.put_i64(b.last_seen.0);
}

pub(crate) fn get_botnet<B: WireBuf>(buf: &mut B) -> Result<BotnetRecord, SchemaError> {
    let id = BotnetId(get_varint(buf)? as u32);
    need(buf, 1 + 20 + 4, "botnet record")?;
    let family = Family::from_index(buf.take_u8() as usize)
        .ok_or_else(|| SchemaError::Codec("bad family index".into()))?;
    let mut binary_hash = [0u8; 20];
    buf.take_into(&mut binary_hash);
    let controller = IpAddr4(buf.take_u32());
    let enrolled_bots = get_varint(buf)? as u32;
    need(buf, 16, "botnet timestamps")?;
    let first_seen = Timestamp(buf.take_i64());
    let last_seen = Timestamp(buf.take_i64());
    Ok(BotnetRecord {
        id,
        family,
        binary_hash,
        controller,
        enrolled_bots,
        first_seen,
        last_seen,
    })
}

pub(crate) fn put_snapshot(buf: &mut BytesMut, s: &HourlySnapshot) {
    buf.put_i64(s.taken_at.0);
    put_varint(buf, s.bots.len() as u64);
    for b in &s.bots {
        buf.put_u32(b.ip.0);
        buf.put_slice(b.country.as_str().as_bytes());
        buf.put_f64(b.coords.lat);
        buf.put_f64(b.coords.lon);
    }
}

pub(crate) fn get_snapshot<B: WireBuf>(
    buf: &mut B,
    family: Family,
) -> Result<HourlySnapshot, SchemaError> {
    need(buf, 8, "snapshot timestamp")?;
    let taken_at = Timestamp(buf.take_i64());
    let n = get_varint(buf)? as usize;
    if buf.left() < n.saturating_mul(4 + 2 + 16) {
        return Err(SchemaError::Codec("truncated snapshot".into()));
    }
    let mut bots = Vec::with_capacity(n);
    for _ in 0..n {
        let ip = IpAddr4(buf.take_u32());
        let (a, b) = (buf.take_u8(), buf.take_u8());
        let country = CountryCode::new(a, b)
            .map_err(|_| SchemaError::Codec("malformed country code".into()))?;
        let lat = buf.take_f64();
        let lon = buf.take_f64();
        let coords = LatLon::new(lat, lon)
            .map_err(|_| SchemaError::Codec("coordinates out of range".into()))?;
        bots.push(BotPresence {
            ip,
            country,
            coords,
        });
    }
    Ok(HourlySnapshot {
        family,
        taken_at,
        bots,
    })
}

/// Serializes a dataset into the binary trace format.
pub fn encode(ds: &Dataset) -> Bytes {
    let mut buf = BytesMut::with_capacity(1024 + ds.attacks().len() * 64);
    buf.put_slice(MAGIC);
    buf.put_u16(VERSION);
    buf.put_i64(ds.window().start.0);
    buf.put_i64(ds.window().end.0);
    put_varint(&mut buf, ds.attacks().len() as u64);
    for a in ds.attacks() {
        put_attack(&mut buf, a);
    }
    put_varint(&mut buf, ds.bots().len() as u64);
    for b in ds.bots() {
        put_bot(&mut buf, b);
    }
    put_varint(&mut buf, ds.botnets().len() as u64);
    for b in ds.botnets() {
        put_botnet(&mut buf, b);
    }
    let families: Vec<Family> = ds.snapshot_families().collect();
    put_varint(&mut buf, families.len() as u64);
    for family in families {
        let series = ds.snapshots(family).expect("family listed");
        buf.put_u8(family.index() as u8);
        put_varint(&mut buf, series.len() as u64);
        for s in series {
            put_snapshot(&mut buf, s);
        }
    }
    buf.freeze()
}

/// Deserializes a dataset from the version-1 binary trace format.
///
/// This is the serial reference path; [`decode_any`] additionally
/// understands the framed v2 container.
pub fn decode(bytes: &[u8]) -> Result<Dataset, SchemaError> {
    crate::fail::check(crate::fail::INGEST_V1_DECODE)?;
    let mut buf = Bytes::copy_from_slice(bytes);
    need(&buf, 4 + 2 + 16, "header")?;
    let mut magic = [0u8; 4];
    buf.take_into(&mut magic);
    if &magic != MAGIC {
        return Err(SchemaError::Codec("bad magic (not a DDTL trace)".into()));
    }
    let version = buf.take_u16();
    if version > VERSION {
        return Err(SchemaError::UnsupportedVersion {
            found: version,
            supported: VERSION,
        });
    }
    let start = Timestamp(buf.take_i64());
    let end = Timestamp(buf.take_i64());
    let window = Window::new(start, end)?;
    let mut builder = DatasetBuilder::new(window).allow_out_of_window();
    let n_attacks = get_varint(&mut buf)? as usize;
    for _ in 0..n_attacks {
        builder.push_attack(get_attack(&mut buf)?)?;
    }
    let n_bots = get_varint(&mut buf)? as usize;
    for _ in 0..n_bots {
        builder.push_bot(get_bot(&mut buf)?)?;
    }
    let n_botnets = get_varint(&mut buf)? as usize;
    for _ in 0..n_botnets {
        builder.push_botnet(get_botnet(&mut buf)?)?;
    }
    let n_series = get_varint(&mut buf)? as usize;
    for _ in 0..n_series {
        need(&buf, 1, "snapshot family")?;
        let family = Family::from_index(buf.take_u8() as usize)
            .ok_or_else(|| SchemaError::Codec("bad family index".into()))?;
        let n_snaps = get_varint(&mut buf)? as usize;
        let mut snaps = Vec::with_capacity(n_snaps);
        for _ in 0..n_snaps {
            snaps.push(get_snapshot(&mut buf, family)?);
        }
        builder.set_snapshots(family, SnapshotSeries::from_snapshots(snaps)?)?;
    }
    if buf.left() > 0 {
        return Err(SchemaError::Codec(format!(
            "{} trailing bytes after trace",
            buf.left()
        )));
    }
    builder.build()
}

/// Reads the `DDTL` magic and format version without consuming input.
pub(crate) fn peek_version(bytes: &[u8]) -> Result<u16, SchemaError> {
    if bytes.len() < 6 {
        return Err(SchemaError::Codec(format!(
            "truncated input: need 6 bytes for magic/version, have {}",
            bytes.len()
        )));
    }
    if &bytes[..4] != MAGIC {
        return Err(SchemaError::Codec("bad magic (not a DDTL trace)".into()));
    }
    Ok(u16::from_be_bytes([bytes[4], bytes[5]]))
}

/// Deserializes a dataset from any supported binary trace version.
///
/// Dispatches on the header: version 1 takes the serial [`decode`]
/// reference path, version 2 the parallel [`crate::framed`] decoder.
pub fn decode_any(bytes: &[u8]) -> Result<Dataset, SchemaError> {
    decode_any_with_stats(bytes).map(|(ds, _)| ds)
}

/// Like [`decode_any`], also returning [`IngestStats`] describing the
/// load (format version, bytes, frames, decode workers).
pub fn decode_any_with_stats(bytes: &[u8]) -> Result<(Dataset, IngestStats), SchemaError> {
    match peek_version(bytes)? {
        0 | 1 => decode(bytes).map(|ds| (ds, IngestStats::serial_v1(bytes.len()))),
        _ => crate::framed::decode_with_stats(bytes),
    }
}

/// Serializes a dataset as JSON (interchange format).
pub fn to_json(ds: &Dataset) -> String {
    serde_json::to_string(ds).expect("dataset is always serializable")
}

/// Deserializes a dataset from JSON produced by [`to_json`].
pub fn from_json(json: &str) -> Result<Dataset, SchemaError> {
    serde_json::from_str(json).map_err(|e| SchemaError::Codec(format!("json: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::test_fixtures::attack;

    fn sample_dataset() -> Dataset {
        let window = Window::new(Timestamp(0), Timestamp(1_000_000)).unwrap();
        let mut b = DatasetBuilder::new(window);
        let mut a1 = attack(1, 1_000);
        a1.sources.push(IpAddr4::from_octets(203, 0, 113, 99));
        b.push_attack(a1).unwrap();
        b.push_attack(attack(2, 77_000)).unwrap();
        b.push_bot(BotRecord {
            ip: IpAddr4::from_octets(203, 0, 113, 5),
            botnet: BotnetId(7),
            family: Family::Dirtjumper,
            location: crate::record::test_fixtures::location(),
            first_seen: Timestamp(500),
            last_seen: Timestamp(90_000),
        })
        .unwrap();
        b.push_botnet(BotnetRecord {
            id: BotnetId(7),
            family: Family::Dirtjumper,
            binary_hash: [0x5A; 20],
            controller: IpAddr4::from_octets(192, 0, 2, 10),
            enrolled_bots: 2,
            first_seen: Timestamp(0),
            last_seen: Timestamp(100_000),
        })
        .unwrap();
        let series = SnapshotSeries::from_snapshots(vec![HourlySnapshot {
            family: Family::Dirtjumper,
            taken_at: Timestamp(3_600),
            bots: vec![BotPresence {
                ip: IpAddr4::from_octets(203, 0, 113, 5),
                country: CountryCode::literal("RU"),
                coords: LatLon::new_unchecked(55.75, 37.61),
            }],
        }])
        .unwrap();
        b.set_snapshots(Family::Dirtjumper, series).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn binary_round_trip() {
        let ds = sample_dataset();
        let bytes = encode(&ds);
        let back = decode(&bytes).unwrap();
        assert_eq!(back.attacks(), ds.attacks());
        assert_eq!(back.bots(), ds.bots());
        assert_eq!(back.botnets(), ds.botnets());
        assert_eq!(
            back.snapshots(Family::Dirtjumper),
            ds.snapshots(Family::Dirtjumper)
        );
        assert_eq!(back.window(), ds.window());
    }

    #[test]
    fn json_round_trip() {
        let ds = sample_dataset();
        let back = from_json(&to_json(&ds)).unwrap();
        assert_eq!(back.attacks(), ds.attacks());
        assert_eq!(back.attacks_of(Family::Dirtjumper).count(), 2);
    }

    #[test]
    fn rejects_bad_magic() {
        let err = decode(b"NOPE").unwrap_err();
        assert!(matches!(err, SchemaError::Codec(_)));
        let mut bytes = encode(&sample_dataset()).to_vec();
        bytes[0] = b'X';
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn rejects_future_version() {
        let mut bytes = encode(&sample_dataset()).to_vec();
        bytes[4] = 0xFF;
        bytes[5] = 0xFF;
        assert!(matches!(
            decode(&bytes).unwrap_err(),
            SchemaError::UnsupportedVersion { .. }
        ));
    }

    #[test]
    fn rejects_truncation_everywhere() {
        let bytes = encode(&sample_dataset());
        // Truncating at every prefix length must error, never panic.
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
    fn varint_round_trip() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = BytesMut::new();
            put_varint(&mut buf, v);
            let mut bytes = buf.freeze();
            assert_eq!(get_varint(&mut bytes).unwrap(), v);
            assert_eq!(bytes.left(), 0);
        }
    }
}
