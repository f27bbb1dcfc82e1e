//! The pass-based pipeline's contract off the golden trace: every cell
//! of the testkit's variant matrix — schedulers, job lengths, context
//! builds (monolithic, and the epoch engine's weekly and ragged
//! incremental appends), ingest round-trips, and the dataset-scan
//! baseline — serializes to the exact same report on arbitrary small
//! datasets and on the paper-scale trace (the golden suite runs the
//! matrix on the canonical trace). Likewise for the context build
//! underneath: the parallel build, the serial build, and a
//! one-attack-per-job build carry bit-identical analysis inputs.
//!
//! The variant enumeration itself lives in `ddos_testkit::matrix` (one
//! definition shared with the golden suite and the soak loop); this
//! suite only owns the dataset shapes it runs the matrix against.

use ddos_analytics::{AnalysisContext, KernelPolicy};
use ddos_obs::Obs;
use ddos_schema::record::{AttackRecord, BotRecord, Location};
use ddos_schema::{
    Asn, BotnetId, CityId, CountryCode, Dataset, DatasetBuilder, DdosId, Family, IpAddr4, LatLon,
    OrgId, Protocol, Timestamp, Window,
};
use ddos_sim::{generate, SimConfig};
use ddos_stats::ArimaSpec;
use ddos_testkit::{assert_cells_agree, matrix, small_dataset};
use proptest::prelude::*;

/// Builds the context all three ways and asserts the analysis inputs
/// (dispersion series bit-for-bit, weekly bot maps, timelines) agree.
/// Digest agreement across matrix cells checks the *outputs*; this
/// checks the intermediate inputs, so a compensating double-bug cannot
/// slip through.
fn assert_context_builds_agree(ds: &Dataset) {
    let build = |parallel, policy| {
        AnalysisContext::build_kernels(ds, ArimaSpec::DEFAULT, parallel, policy, &Obs::disabled())
    };
    let serial = build(false, KernelPolicy::Auto);
    serial.assert_same_analysis(&build(true, KernelPolicy::Auto));
    serial.assert_same_analysis(&build(true, KernelPolicy::Chunked(1)));
}

#[test]
fn simulated_trace_context_builds_are_bit_identical() {
    assert_context_builds_agree(small_dataset());
}

/// Paper-scale variant of the equivalence check (~50k attacks). Slow in
/// debug builds; run with `cargo test --release -- --ignored`.
#[test]
#[ignore = "paper-scale trace; minutes in debug builds"]
fn paper_scale_reports_are_byte_identical() {
    let trace = generate(&SimConfig::default());
    assert_cells_agree(&trace.dataset, &matrix());
    assert_context_builds_agree(&trace.dataset);
}

// ------------------------------------------------------ property tests

/// Source/bot IPs live in a small space so random attacks frequently
/// reference geolocatable bots (exercising the shared geolocation join).
fn ip(last: u8) -> IpAddr4 {
    IpAddr4::from_octets(203, 0, 113, last)
}

fn arb_location() -> impl Strategy<Value = Location> {
    (
        prop::sample::select(vec!["US", "RU", "DE", "CN", "BR"]),
        0u32..50,
        0u32..50,
        1u32..5_000,
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
        0u32..6,
        prop::sample::select(Family::ACTIVE.to_vec()),
        prop::sample::select(Protocol::ALL.to_vec()),
        0u8..8,
        arb_location(),
        0i64..800_000,
        0i64..50_000,
        prop::collection::vec(any::<u8>(), 1..12),
    )
        .prop_map(
            move |(botnet, family, category, target, loc, start, dur, sources)| AttackRecord {
                id: DdosId(id),
                botnet: BotnetId(botnet),
                family,
                category,
                target_ip: ip(target),
                target: loc,
                start: Timestamp(start),
                end: Timestamp(start + dur),
                sources: sources.into_iter().map(ip).collect(),
            },
        )
}

fn arb_bot(last: u8) -> impl Strategy<Value = BotRecord> {
    (
        0u32..6,
        prop::sample::select(Family::ACTIVE.to_vec()),
        arb_location(),
    )
        .prop_map(move |(botnet, family, location)| BotRecord {
            ip: ip(last),
            botnet: BotnetId(botnet),
            family,
            location,
            first_seen: Timestamp(0),
            last_seen: Timestamp(1_000_000),
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn arbitrary_datasets_report_identically(
        attacks in prop::collection::vec((0u64..u64::MAX).prop_flat_map(arb_attack), 0..30),
        bots in prop::collection::vec((0u8..64).prop_flat_map(arb_bot), 0..24),
    ) {
        let window = Window::new(Timestamp(0), Timestamp(1_000_000)).unwrap();
        let mut builder = DatasetBuilder::new(window);
        let mut seen_bots = std::collections::HashSet::new();
        for b in bots {
            if seen_bots.insert(b.ip) {
                builder.push_bot(b).unwrap();
            }
        }
        let mut seen = std::collections::HashSet::new();
        for a in attacks {
            if seen.insert(a.id) {
                builder.push_attack(a).unwrap();
            }
        }
        let ds = builder.build().unwrap();
        assert_cells_agree(&ds, &matrix());
        assert_context_builds_agree(&ds);
    }
}
