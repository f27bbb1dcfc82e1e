//! Trace persistence: the binary record encoding plus JSON interchange.
//!
//! The framed `DDTL` container ([`crate::framed`]) stores every record
//! in the encoding below, so full-size generated traces (~50k attacks,
//! ~300k bots, ~40k snapshots) can be written and reloaded quickly
//! without the overhead of JSON. Integers that are usually small
//! (counts, magnitudes) use LEB128 varints; timestamps are fixed-width
//! `i64`; coordinates are `f64`; everything is big-endian:
//!
//! ```text
//! location  country:2 bytes, varint city, varint org, varint asn,
//!           lat:f64 lon:f64
//! attack    varint id, varint botnet, family:u8, category:u8,
//!           target-ip:u32, location, start:i64 end:i64,
//!           varint source-count, source-ip:u32 each
//! bot       ip:u32, varint botnet, family:u8, location,
//!           first-seen:i64 last-seen:i64
//! botnet    varint id, family:u8, binary-hash:20 bytes,
//!           controller:u32, varint enrolled-bots,
//!           first-seen:i64 last-seen:i64
//! snapshot  taken-at:i64, varint bot-count, then per bot:
//!           ip:u32 country:2 bytes lat:f64 lon:f64
//! ```
//!
//! Each `get_*` decoder reads one record through the crate's zero-copy
//! `SliceReader` cursor and errors, never panics, on truncated or
//! malformed input.

use bytes::{BufMut, BytesMut};

use crate::dataset::Dataset;
use crate::error::SchemaError;
use crate::family::Family;
use crate::geo::{CountryCode, LatLon};
use crate::ids::{Asn, BotnetId, CityId, DdosId, OrgId};
use crate::ip::IpAddr4;
use crate::protocol::Protocol;
use crate::record::{AttackRecord, BotRecord, BotnetRecord, Location};
use crate::snapshot::{BotPresence, HourlySnapshot};
use crate::time::Timestamp;
use crate::wire::{get_varint, need, SliceReader};

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

fn get_location(buf: &mut SliceReader<'_>) -> Result<Location, SchemaError> {
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

pub(crate) fn get_attack(buf: &mut SliceReader<'_>) -> Result<AttackRecord, SchemaError> {
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

pub(crate) fn get_bot(buf: &mut SliceReader<'_>) -> Result<BotRecord, SchemaError> {
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

pub(crate) fn get_botnet(buf: &mut SliceReader<'_>) -> Result<BotnetRecord, SchemaError> {
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

pub(crate) fn get_snapshot(
    buf: &mut SliceReader<'_>,
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
    use crate::dataset::DatasetBuilder;
    use crate::record::test_fixtures::attack;
    use crate::snapshot::SnapshotSeries;
    use crate::time::Window;

    fn sample_dataset() -> Dataset {
        let window = Window::new(Timestamp(0), Timestamp(1_000_000)).unwrap();
        let mut b = DatasetBuilder::new(window);
        b.push_attack(sample_attack()).unwrap();
        b.push_attack(attack(2, 77_000)).unwrap();
        b.push_bot(sample_bot()).unwrap();
        b.push_botnet(sample_botnet()).unwrap();
        let series = SnapshotSeries::from_snapshots(vec![sample_snapshot()]).unwrap();
        b.set_snapshots(Family::Dirtjumper, series).unwrap();
        b.build().unwrap()
    }

    fn sample_attack() -> AttackRecord {
        let mut a = attack(1, 1_000);
        a.sources.push(IpAddr4::from_octets(203, 0, 113, 99));
        a
    }

    fn sample_bot() -> BotRecord {
        BotRecord {
            ip: IpAddr4::from_octets(203, 0, 113, 5),
            botnet: BotnetId(7),
            family: Family::Dirtjumper,
            location: crate::record::test_fixtures::location(),
            first_seen: Timestamp(500),
            last_seen: Timestamp(90_000),
        }
    }

    fn sample_botnet() -> BotnetRecord {
        BotnetRecord {
            id: BotnetId(7),
            family: Family::Dirtjumper,
            binary_hash: [0x5A; 20],
            controller: IpAddr4::from_octets(192, 0, 2, 10),
            enrolled_bots: 2,
            first_seen: Timestamp(0),
            last_seen: Timestamp(100_000),
        }
    }

    fn sample_snapshot() -> HourlySnapshot {
        HourlySnapshot {
            family: Family::Dirtjumper,
            taken_at: Timestamp(3_600),
            bots: vec![BotPresence {
                ip: IpAddr4::from_octets(203, 0, 113, 5),
                country: CountryCode::literal("RU"),
                coords: LatLon::new_unchecked(55.75, 37.61),
            }],
        }
    }

    fn encoded<T>(record: &T, put: fn(&mut BytesMut, &T)) -> Vec<u8> {
        let mut buf = BytesMut::new();
        put(&mut buf, record);
        buf.to_vec()
    }

    #[test]
    fn binary_round_trip() {
        let bytes = encoded(&sample_attack(), put_attack);
        let mut r = SliceReader::new(&bytes);
        assert_eq!(get_attack(&mut r).unwrap(), sample_attack());
        assert_eq!(r.left(), 0);
        let bytes = encoded(&sample_bot(), put_bot);
        let mut r = SliceReader::new(&bytes);
        assert_eq!(get_bot(&mut r).unwrap(), sample_bot());
        assert_eq!(r.left(), 0);
        let bytes = encoded(&sample_botnet(), put_botnet);
        let mut r = SliceReader::new(&bytes);
        assert_eq!(get_botnet(&mut r).unwrap(), sample_botnet());
        assert_eq!(r.left(), 0);
        let bytes = encoded(&sample_snapshot(), put_snapshot);
        let mut r = SliceReader::new(&bytes);
        assert_eq!(
            get_snapshot(&mut r, Family::Dirtjumper).unwrap(),
            sample_snapshot()
        );
        assert_eq!(r.left(), 0);
    }

    #[test]
    fn json_round_trip() {
        let ds = sample_dataset();
        let back = from_json(&to_json(&ds)).unwrap();
        assert_eq!(back.attacks(), ds.attacks());
        assert_eq!(back.attacks_of(Family::Dirtjumper).count(), 2);
    }

    #[test]
    fn rejects_trailing_garbage() {
        // A complete dataset followed by anything but whitespace is not a
        // dataset; the framed container's own check is in `framed::tests`.
        let json = to_json(&sample_dataset());
        for tail in ["0", "x", "{}", "\u{0}"] {
            let err = from_json(&format!("{json}{tail}")).unwrap_err();
            assert!(
                matches!(err, SchemaError::Codec(ref m) if m.starts_with("json: trailing")),
                "tail {tail:?}: {err}"
            );
        }
        assert!(from_json(&format!("{json}\n")).is_ok());
    }

    #[test]
    fn rejects_truncation_everywhere() {
        // Cutting any record short must error, never panic.
        let records = [
            encoded(&sample_attack(), put_attack),
            encoded(&sample_bot(), put_bot),
            encoded(&sample_botnet(), put_botnet),
            encoded(&sample_snapshot(), put_snapshot),
        ];
        for (kind, bytes) in records.iter().enumerate() {
            for len in 0..bytes.len() {
                let mut r = SliceReader::new(&bytes[..len]);
                let err = match kind {
                    0 => get_attack(&mut r).err(),
                    1 => get_bot(&mut r).err(),
                    2 => get_botnet(&mut r).err(),
                    _ => get_snapshot(&mut r, Family::Dirtjumper).err(),
                };
                assert!(err.is_some(), "record {kind}: prefix {len} should fail");
            }
        }
    }

    #[test]
    fn varint_round_trip() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = BytesMut::new();
            put_varint(&mut buf, v);
            let mut r = SliceReader::new(&buf);
            assert_eq!(get_varint(&mut r).unwrap(), v);
            assert_eq!(r.left(), 0);
        }
    }
}
