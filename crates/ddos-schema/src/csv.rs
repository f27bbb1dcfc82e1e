//! Plain-text (CSV) interchange for the `DDoSattack` schema.
//!
//! The binary `DDTL` format is for fast round trips of generated traces;
//! this module is the path for getting *external* data in and out — a
//! CSV with one attack per row, columns mirroring Table I. A real feed
//! exported to this layout drops straight into every analysis.
//!
//! Layout (header required, comma-separated, no quoting — all fields are
//! numeric or enumerated):
//!
//! ```text
//! ddos_id,botnet_id,family,category,target_ip,timestamp,end_time,asn,cc,city,org,latitude,longitude,botnet_ips
//! 17,42,dirtjumper,HTTP,198.51.100.7,1346203800,1346208900,64512,RU,31,77,55.7558,37.6173,203.0.113.5 203.0.113.9
//! ```
//!
//! `botnet_ips` is space-separated (the one list-valued field).

use std::fmt::Write as _;

use crate::error::SchemaError;
use crate::record::{AttackRecord, Location};
use crate::{Asn, BotnetId, CityId, DdosId, Family, IpAddr4, LatLon, OrgId, Protocol, Timestamp};

/// The header row this module writes and requires on input.
pub const HEADER: &str = "ddos_id,botnet_id,family,category,target_ip,timestamp,end_time,\
                          asn,cc,city,org,latitude,longitude,botnet_ips";

/// Serializes attack records to CSV (with header).
pub fn attacks_to_csv<'a, I>(attacks: I) -> String
where
    I: IntoIterator<Item = &'a AttackRecord>,
{
    let mut out = String::new();
    out.push_str(HEADER);
    out.push('\n');
    for a in attacks {
        let _ = write!(
            out,
            "{},{},{},{},{},{},{},{},{},{},{},{},{},",
            a.id.value(),
            a.botnet.value(),
            a.family.name(),
            a.category.name(),
            a.target_ip,
            a.start.unix(),
            a.end.unix(),
            a.target.asn.value(),
            a.target.country,
            a.target.city.value(),
            a.target.org.value(),
            a.target.coords.lat,
            a.target.coords.lon,
        );
        for (i, ip) in a.sources.iter().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            let _ = write!(out, "{ip}");
        }
        out.push('\n');
    }
    out
}

/// Parses attack records from CSV produced by [`attacks_to_csv`] (or an
/// external export in the same layout), with one parse worker per
/// available core. Blank lines and `#` comments are skipped; every data
/// row is fully validated. Diagnostics carry the 1-based line number in
/// the original input.
pub fn attacks_from_csv(text: &str) -> Result<Vec<AttackRecord>, SchemaError> {
    let workers = std::thread::available_parallelism().map_or(1, usize::from);
    attacks_from_csv_with(text, workers)
}

/// [`attacks_from_csv`] with an explicit worker count, so tests and
/// benches can pin the parallel path (or the serial one) regardless of
/// host cores. The line index is built in one sweep, contiguous chunks
/// of rows are parsed on scoped threads, and the per-chunk results are
/// spliced in chunk order. Because chunks partition the rows in order,
/// scanning results in chunk order makes the error for the earliest
/// offending line win, so output and diagnostics do not depend on the
/// worker count — proptest in `tests/ingest.rs` pins this. Parses
/// serially when the input is too small to be worth splitting.
pub fn attacks_from_csv_with(text: &str, workers: usize) -> Result<Vec<AttackRecord>, SchemaError> {
    let lines = indexed_lines(text);
    let data = check_header(&lines)?;
    let workers = workers.min(data.len() / MIN_ROWS_PER_CHUNK);
    if workers <= 1 {
        return parse_rows(data);
    }
    let chunk_len = data.len().div_ceil(workers);
    let chunks: Vec<&[(usize, &str)]> = data.chunks(chunk_len).collect();
    let plan = crate::fail::Handoff::current();
    let parsed: Vec<Result<Vec<AttackRecord>, SchemaError>> = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .iter()
            .map(|&chunk| {
                let plan = &plan;
                scope.spawn(move |_| {
                    let _plan = plan.enter();
                    parse_rows(chunk)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("csv chunk worker panicked"))
            .collect()
    })
    .expect("csv chunk scope panicked");
    let mut out = Vec::with_capacity(data.len());
    for chunk in parsed {
        out.extend(chunk?);
    }
    Ok(out)
}

/// Parses one chunk of data rows (the serial parse is one chunk), with
/// one field buffer reused across its rows instead of a fresh
/// `Vec<&str>` per row.
fn parse_rows(rows: &[(usize, &str)]) -> Result<Vec<AttackRecord>, SchemaError> {
    crate::fail::check(crate::fail::INGEST_CSV_CHUNK)?;
    let mut out = Vec::with_capacity(rows.len());
    let mut fields: Vec<&str> = Vec::with_capacity(14);
    for &(lineno, line) in rows {
        out.push(parse_line(lineno, line, &mut fields)?);
    }
    Ok(out)
}

/// Below this many rows per would-be chunk the spawn overhead outweighs
/// the parse work and the parse runs serially.
const MIN_ROWS_PER_CHUNK: usize = 256;

/// One sweep over the input: trims, drops blank/comment lines, and
/// tags every surviving line with its 1-based original line number.
fn indexed_lines(text: &str) -> Vec<(usize, &str)> {
    text.lines()
        .enumerate()
        .filter_map(|(i, line)| {
            let line = line.trim();
            (!line.is_empty() && !line.starts_with('#')).then_some((i + 1, line))
        })
        .collect()
}

/// Validates the header line and returns the data rows after it.
fn check_header<'a, 'b>(
    lines: &'a [(usize, &'b str)],
) -> Result<&'a [(usize, &'b str)], SchemaError> {
    let ((_, header), data) = lines
        .split_first()
        .ok_or_else(|| SchemaError::Codec("empty CSV input".into()))?;
    if normalize_header(header) != normalize_header(HEADER) {
        return Err(SchemaError::Codec(format!(
            "unexpected CSV header {header:?}"
        )));
    }
    Ok(data)
}

fn parse_line<'a>(
    lineno: usize,
    line: &'a str,
    fields: &mut Vec<&'a str>,
) -> Result<AttackRecord, SchemaError> {
    fields.clear();
    fields.extend(line.split(','));
    if fields.len() != 14 {
        return Err(SchemaError::Codec(format!(
            "line {lineno}: expected 14 columns, found {}",
            fields.len()
        )));
    }
    let attack =
        parse_row(fields).map_err(|e| SchemaError::Codec(format!("line {lineno}: {e}")))?;
    attack.validate()?;
    Ok(attack)
}

fn normalize_header(h: &str) -> String {
    h.chars().filter(|c| !c.is_whitespace()).collect()
}

fn parse_row(row: &[&str]) -> Result<AttackRecord, SchemaError> {
    let num = |field: &'static str, s: &str| -> Result<i64, SchemaError> {
        s.parse().map_err(|_| SchemaError::parse(field, s))
    };
    let fnum = |field: &'static str, s: &str| -> Result<f64, SchemaError> {
        s.parse().map_err(|_| SchemaError::parse(field, s))
    };
    let sources = row[13]
        .split_whitespace()
        .map(str::parse)
        .collect::<Result<Vec<IpAddr4>, _>>()?;
    Ok(AttackRecord {
        id: DdosId(num("ddos_id", row[0])? as u64),
        botnet: BotnetId(num("botnet_id", row[1])? as u32),
        family: row[2].parse::<Family>()?,
        category: row[3].parse::<Protocol>()?,
        target_ip: row[4].parse()?,
        start: Timestamp(num("timestamp", row[5])?),
        end: Timestamp(num("end_time", row[6])?),
        target: Location {
            asn: Asn(num("asn", row[7])? as u32),
            country: row[8].parse()?,
            city: CityId(num("city", row[9])? as u32),
            org: OrgId(num("org", row[10])? as u32),
            coords: LatLon::new(fnum("latitude", row[11])?, fnum("longitude", row[12])?)?,
        },
        sources,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::test_fixtures::attack;

    #[test]
    fn round_trip() {
        let mut a1 = attack(17, 1_000);
        a1.sources.push(IpAddr4::from_octets(203, 0, 113, 9));
        let a2 = attack(18, 5_000);
        let csv = attacks_to_csv([&a1, &a2]);
        assert!(csv.starts_with("ddos_id,"));
        let back = attacks_from_csv(&csv).unwrap();
        assert_eq!(back, vec![a1, a2]);
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let a = attack(1, 100);
        let mut csv = attacks_to_csv([&a]);
        csv.push_str("\n# trailing comment\n\n");
        assert_eq!(attacks_from_csv(&csv).unwrap().len(), 1);
    }

    #[test]
    fn header_is_required_and_checked() {
        assert!(attacks_from_csv("").is_err());
        assert!(attacks_from_csv("a,b,c\n").is_err());
        // Header with different spacing still accepted.
        let a = attack(1, 100);
        let csv = attacks_to_csv([&a]);
        let spaced = csv.replacen("ddos_id,botnet_id", "ddos_id, botnet_id", 1);
        assert!(attacks_from_csv(&spaced).is_ok());
    }

    #[test]
    fn chunked_parse_matches_serial() {
        let attacks: Vec<AttackRecord> = (1..=700)
            .map(|i| {
                let mut a = attack(i, i as i64 * 10);
                a.sources.push(IpAddr4::from_octets(203, 0, 113, 9));
                a
            })
            .collect();
        let csv = attacks_to_csv(&attacks);
        let serial = attacks_from_csv_with(&csv, 1).unwrap();
        assert_eq!(serial, attacks_from_csv(&csv).unwrap());
        assert_eq!(serial, attacks);
        // Force the scoped-thread path even on a 1-core host.
        assert_eq!(serial, attacks_from_csv_with(&csv, 2).unwrap());
    }

    #[test]
    fn chunked_parse_reports_the_earliest_bad_line() {
        let attacks: Vec<AttackRecord> = (1..=600).map(|i| attack(i, i as i64 * 10)).collect();
        let mut csv = attacks_to_csv(&attacks);
        // Corrupt a row near the front and one near the back; the
        // front one (line 42: header is line 1, rows start at 2) wins.
        let lines: Vec<&str> = csv.lines().collect();
        let (front, back) = (lines[41].to_owned(), lines[550].to_owned());
        csv = csv.replacen(&front, "broken,row", 1);
        csv = csv.replacen(&back, "also,broken", 1);
        let serial = attacks_from_csv_with(&csv, 1).unwrap_err();
        assert_eq!(serial, attacks_from_csv(&csv).unwrap_err());
        assert!(serial.to_string().contains("line 42"), "{serial}");
        // Even when the first chunk is clean and a later chunk errors
        // first in wall-clock time, the earliest line still wins.
        assert_eq!(serial, attacks_from_csv_with(&csv, 2).unwrap_err());
    }

    #[test]
    fn malformed_rows_carry_line_numbers() {
        let a = attack(1, 100);
        let mut csv = attacks_to_csv([&a]);
        csv.push_str("not,enough,columns\n");
        let err = attacks_from_csv(&csv).unwrap_err();
        assert!(err.to_string().contains("line 3"), "{err}");
    }

    #[test]
    fn invalid_fields_are_rejected() {
        let a = attack(1, 100);
        let csv = attacks_to_csv([&a]);
        for (from, to) in [("dirtjumper", "mirai"), ("HTTP", "QUIC"), ("US", "USA")] {
            let bad = csv.replacen(from, to, 1);
            assert!(attacks_from_csv(&bad).is_err(), "{from}->{to} accepted");
        }
    }

    #[test]
    fn semantic_validation_applies() {
        // end before start.
        let a = attack(1, 100); // start 100, end 700
        let csv = attacks_to_csv([&a]).replace(",700,", ",50,");
        assert!(attacks_from_csv(&csv).is_err());
    }

    #[test]
    fn empty_source_list_rejected() {
        let a = attack(1, 100);
        let csv = attacks_to_csv([&a]);
        // Blank the sources column.
        let line = csv.lines().nth(1).unwrap();
        let blanked = format!("{HEADER}\n{},\n", &line[..line.rfind(',').unwrap()]);
        assert!(attacks_from_csv(&blanked).is_err());
    }
}
