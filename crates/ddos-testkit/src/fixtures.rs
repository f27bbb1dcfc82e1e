//! Hand-built miniature datasets for unit tests: the attack and dataset
//! builders every analysis module's tests start from, and the carry
//! fixture whose epochs walk each carried pass state through its resume
//! paths.

use ddos_schema::record::Location;
use ddos_schema::{
    Asn, AttackRecord, BotRecord, BotnetId, CityId, Dataset, DatasetBuilder, DdosId, Family,
    IpAddr4, LatLon, OrgId, Protocol, Seconds, Timestamp, Window,
};

/// Window of 10 days starting at the epoch.
pub fn window() -> Window {
    Window::new(Timestamp(0), Timestamp(10 * 86_400)).unwrap()
}

/// A location in country `cc`, with city, organization and AS derived
/// from `city`.
pub fn location(cc: &str, city: u32) -> Location {
    Location {
        country: cc.parse().unwrap(),
        city: CityId(city),
        org: OrgId(city),
        asn: Asn(64_000 + city),
        coords: LatLon::new_unchecked(10.0 + city as f64, 20.0),
    }
}

/// A minimal attack: family, id, start, duration, target ip last
/// octet.
pub fn attack(
    family: Family,
    id: u64,
    start: i64,
    duration: i64,
    target_octet: u8,
) -> AttackRecord {
    AttackRecord {
        id: DdosId(id),
        botnet: BotnetId(family.index() as u32 * 10 + 1),
        family,
        category: Protocol::Http,
        target_ip: IpAddr4::from_octets(198, 51, 100, target_octet),
        target: location("US", 1),
        start: Timestamp(start),
        end: Timestamp(start + duration),
        sources: vec![IpAddr4::from_octets(203, 0, 113, 1)],
    }
}

/// A dataset over [`window`] holding `attacks` and no bot records.
pub fn dataset(attacks: Vec<AttackRecord>) -> Dataset {
    let mut b = DatasetBuilder::new(window());
    b.extend_attacks(attacks).unwrap();
    b.build().unwrap()
}

/// The epoch length of [`carry_fixture`]: three epochs, of days 0–3,
/// 4–7 and 8–9.
pub const CARRY_EPOCH: Seconds = Seconds::days(4);

/// A 10-day trace whose three [`CARRY_EPOCH`] epochs walk every carried
/// pass state through its resume paths:
///
/// * target 1 is attacked in epochs 1 and 3, and its epoch-3 attack
///   lists one source twice, so the blacklist re-stamps the ids of its
///   epoch-1 attack and scores the duplicate once per listing; target 2
///   is attacked in epochs 1 and 2, with a duplicate in its epoch-1
///   attack;
/// * Pandora attacks in epochs 1 and 3 only, so its interval sample
///   must not move in epoch 2;
/// * epoch 2 opens inside week 0 and adds a bot to Dirtjumper's week-0
///   map, so the shift grid recounts a week it counted before; epoch 3
///   brings week 1 and a new country (BR);
/// * two Dirtjumper attacks share a start (a zero interval).
pub fn carry_fixture() -> Dataset {
    let day = 86_400;
    let ip = |last: u8| IpAddr4::from_octets(203, 0, 113, last);
    let mut b = DatasetBuilder::new(window());
    for (last, cc) in [(1, "RU"), (2, "RU"), (3, "UA"), (4, "DE"), (5, "BR")] {
        b.push_bot(BotRecord {
            ip: ip(last),
            botnet: BotnetId(1),
            family: Family::Dirtjumper,
            location: location(cc, u32::from(last)),
            first_seen: Timestamp(0),
            last_seen: Timestamp(10 * day),
        })
        .unwrap();
    }
    let attacks = [
        (Family::Dirtjumper, 100, 1, vec![1, 2]),
        (Family::Pandora, day, 2, vec![1, 3]),
        (Family::Pandora, 2 * day + 50, 3, vec![2]),
        (Family::Dirtjumper, 3 * day, 2, vec![3, 3]),
        (Family::Dirtjumper, 5 * day, 2, vec![1, 4]),
        (Family::Dirtjumper, 5 * day, 4, vec![2]),
        (Family::Dirtjumper, 8 * day, 1, vec![1, 4, 4]),
        (Family::Pandora, 9 * day, 3, vec![2, 5]),
    ];
    for (k, (family, start, target, sources)) in attacks.into_iter().enumerate() {
        let mut a = attack(family, k as u64 + 1, start, 600 + 300 * k as i64, target);
        a.sources = sources.into_iter().map(ip).collect();
        b.push_attack(a).unwrap();
    }
    b.build().unwrap()
}
