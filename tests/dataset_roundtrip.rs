//! Persistence round-trips: the framed binary container and JSON
//! interchange over full generated datasets, plus property tests on
//! arbitrary records.

use ddos_schema::record::{AttackRecord, Location};
use ddos_schema::{
    codec, framed, Asn, BotnetId, CityId, CountryCode, DatasetBuilder, DdosId, Family, IpAddr4,
    LatLon, OrgId, Protocol, Timestamp, Window,
};
use ddos_sim::{generate, SimConfig};
use proptest::prelude::*;

#[test]
fn generated_trace_binary_round_trip() {
    let mut config = SimConfig::small();
    config.snapshots = true;
    let trace = generate(&config);
    let bytes = framed::encode(&trace.dataset);
    let back = framed::decode(&bytes).expect("decode own encoding");
    assert_eq!(back.attacks(), trace.dataset.attacks());
    assert_eq!(back.bots(), trace.dataset.bots());
    assert_eq!(back.botnets(), trace.dataset.botnets());
    for family in trace.dataset.snapshot_families() {
        assert_eq!(back.snapshots(family), trace.dataset.snapshots(family));
    }
}

#[test]
fn generated_trace_json_round_trip() {
    let mut config = SimConfig::small();
    config.snapshots = false; // keep the JSON manageable
    let trace = generate(&config);
    let json = codec::to_json(&trace.dataset);
    let back = codec::from_json(&json).expect("parse own JSON");
    assert_eq!(back.attacks(), trace.dataset.attacks());
    // Indexes are rebuilt on deserialization.
    assert_eq!(
        back.attacks_of(Family::Dirtjumper).count(),
        trace.dataset.attacks_of(Family::Dirtjumper).count()
    );
}

#[test]
fn binary_encoding_is_much_denser_than_json() {
    let mut config = SimConfig::small();
    config.snapshots = false;
    let trace = generate(&config);
    let bytes = framed::encode(&trace.dataset).len();
    let json = codec::to_json(&trace.dataset).len();
    assert!(
        bytes * 3 < json,
        "binary {bytes} vs json {json}: expected ≥3× denser"
    );
}

// ------------------------------------------------- promoted regressions

/// The shrunk counterexample from `dataset_roundtrip.proptest-regressions`
/// (seed `98fd6852…`), promoted to a named test so it re-runs on every
/// CI build regardless of the proptest runner's regression-file support.
/// The original failure was a single-attack dataset whose record mixes
/// extremes: zero-valued ids alongside a near-`u64::MAX` attack id,
/// a southern-hemisphere coordinate, and a full 5-source list.
#[test]
fn regression_single_extreme_record_round_trips() {
    let attack = AttackRecord {
        id: DdosId(3945675640486820723),
        botnet: BotnetId(0),
        family: Family::Aldibot,
        category: Protocol::Http,
        target_ip: IpAddr4(0),
        target: Location {
            country: "US".parse::<CountryCode>().unwrap(),
            city: CityId(0),
            org: OrgId(0),
            asn: Asn(9866),
            coords: LatLon::new(-70.51412646754858, 95.69015784959879).unwrap(),
        },
        start: Timestamp(405931),
        end: Timestamp(490838),
        sources: [
            3926682790u32,
            3594714260,
            2735647511,
            1921924798,
            4000217094,
        ]
        .into_iter()
        .map(IpAddr4)
        .collect(),
    };
    let window = Window::new(Timestamp(0), Timestamp(2_000_000)).unwrap();
    let mut builder = DatasetBuilder::new(window);
    builder.push_attack(attack).unwrap();
    let ds = builder.build().unwrap();
    let back = framed::decode(&framed::encode(&ds)).unwrap();
    assert_eq!(back.attacks(), ds.attacks());
    let back_json = codec::from_json(&codec::to_json(&ds)).unwrap();
    assert_eq!(back_json.attacks(), ds.attacks());
}

// ------------------------------------------------------ property tests

fn arb_location() -> impl Strategy<Value = Location> {
    (
        prop::sample::select(vec!["US", "RU", "DE", "CN", "BR"]),
        0u32..1_000,
        0u32..1_000,
        1u32..100_000,
        -89.0f64..89.0,
        -179.0f64..179.0,
    )
        .prop_map(|(cc, city, org, asn, lat, lon)| Location {
            country: cc.parse::<CountryCode>().unwrap(),
            city: CityId(city),
            org: OrgId(org),
            asn: Asn(asn),
            coords: LatLon::new(lat, lon).unwrap(),
        })
}

fn arb_attack(id: u64) -> impl Strategy<Value = AttackRecord> {
    (
        0usize..10,
        prop::sample::select(Family::ALL.to_vec()),
        prop::sample::select(Protocol::ALL.to_vec()),
        any::<u32>(),
        arb_location(),
        0i64..1_000_000,
        0i64..100_000,
        prop::collection::vec(any::<u32>(), 1..20),
    )
        .prop_map(
            move |(botnet, family, category, target, loc, start, dur, sources)| AttackRecord {
                id: DdosId(id),
                botnet: BotnetId(botnet as u32),
                family,
                category,
                target_ip: IpAddr4(target),
                target: loc,
                start: Timestamp(start),
                end: Timestamp(start + dur),
                sources: sources.into_iter().map(IpAddr4).collect(),
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn arbitrary_datasets_round_trip(
        attacks in prop::collection::vec((0u64..u64::MAX).prop_flat_map(arb_attack), 0..25)
    ) {
        let window = Window::new(Timestamp(0), Timestamp(2_000_000)).unwrap();
        let mut builder = DatasetBuilder::new(window);
        let mut seen = std::collections::HashSet::new();
        for a in attacks {
            if seen.insert(a.id) {
                builder.push_attack(a).unwrap();
            }
        }
        let ds = builder.build().unwrap();
        let back = framed::decode(&framed::encode(&ds)).unwrap();
        prop_assert_eq!(back.attacks(), ds.attacks());
        let back_json = codec::from_json(&codec::to_json(&ds)).unwrap();
        prop_assert_eq!(back_json.attacks(), ds.attacks());
    }

    #[test]
    fn decode_never_panics_on_corruption(
        mut bytes in prop::collection::vec(any::<u8>(), 0..300),
        flip in any::<u8>(),
        pos in any::<usize>(),
    ) {
        // Random bytes.
        let _ = framed::decode(&bytes);
        // A real header with corrupted tail.
        let window = Window::new(Timestamp(0), Timestamp(1_000)).unwrap();
        let ds = DatasetBuilder::new(window).build().unwrap();
        let mut valid = framed::encode(&ds).to_vec();
        if !valid.is_empty() {
            let i = pos % valid.len();
            valid[i] ^= flip;
            let _ = framed::decode(&valid);
        }
        bytes.clear();
    }
}
