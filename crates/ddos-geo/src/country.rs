//! The country registry: the static backbone of the synthetic world.
//!
//! 195 countries with ISO 3166-1 alpha-2 codes, an approximate centroid of
//! the populated area, a geographic `spread_km` (how far synthesized
//! cities scatter from the centroid), and a relative `weight` approximating
//! the size of the country's internet population circa the trace period —
//! the prior from which the generator draws bot locations when a family
//! has no stronger affinity.
//!
//! Coordinates are deliberately coarse (this substrate reproduces
//! *distributional shape*, not street-level accuracy), but each centroid is
//! within a few hundred km of the country's population center, which is
//! what the paper's dispersion analysis (thousands of km scale) needs.

use ddos_schema::{CountryCode, LatLon};

/// Static description of one country.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CountryInfo {
    /// ISO 3166-1 alpha-2 code.
    pub code: CountryCode,
    /// English short name.
    pub name: &'static str,
    /// Approximate centroid of the populated area.
    pub centroid: LatLon,
    /// Scatter radius for synthesized cities, in kilometers.
    pub spread_km: f64,
    /// Relative internet-population weight (arbitrary units).
    pub weight: f64,
}

macro_rules! country {
    ($code:literal, $name:literal, $lat:expr, $lon:expr, $spread:expr, $weight:expr) => {
        CountryInfo {
            code: CountryCode::literal($code),
            name: $name,
            centroid: LatLon::new_unchecked($lat, $lon),
            spread_km: $spread,
            weight: $weight,
        }
    };
}

/// All countries in the registry, sorted by alpha-2 code.
pub const COUNTRIES: &[CountryInfo] = &[
    country!("AD", "Andorra", 42.5, 1.5, 20.0, 0.1),
    country!("AE", "United Arab Emirates", 24.3, 54.4, 150.0, 8.0),
    country!("AF", "Afghanistan", 34.5, 69.2, 300.0, 1.5),
    country!("AG", "Antigua and Barbuda", 17.1, -61.8, 20.0, 0.1),
    country!("AL", "Albania", 41.3, 19.8, 80.0, 1.5),
    country!("AM", "Armenia", 40.2, 44.5, 80.0, 1.5),
    country!("AO", "Angola", -8.8, 13.2, 400.0, 1.5),
    country!("AR", "Argentina", -34.6, -58.4, 600.0, 28.0),
    country!("AT", "Austria", 48.2, 16.4, 150.0, 7.0),
    country!("AU", "Australia", -33.9, 151.2, 900.0, 19.0),
    country!("AZ", "Azerbaijan", 40.4, 49.9, 120.0, 4.0),
    country!("BA", "Bosnia and Herzegovina", 43.9, 18.4, 100.0, 2.0),
    country!("BB", "Barbados", 13.1, -59.6, 15.0, 0.2),
    country!("BD", "Bangladesh", 23.7, 90.4, 200.0, 9.0),
    country!("BE", "Belgium", 50.8, 4.4, 90.0, 9.0),
    country!("BF", "Burkina Faso", 12.4, -1.5, 250.0, 0.5),
    country!("BG", "Bulgaria", 42.7, 23.3, 150.0, 4.0),
    country!("BH", "Bahrain", 26.2, 50.6, 20.0, 1.0),
    country!("BI", "Burundi", -3.4, 29.4, 80.0, 0.1),
    country!("BJ", "Benin", 6.5, 2.6, 150.0, 0.3),
    country!("BN", "Brunei", 4.9, 114.9, 40.0, 0.3),
    country!("BO", "Bolivia", -16.5, -68.1, 350.0, 2.0),
    country!("BR", "Brazil", -23.5, -46.6, 1200.0, 88.0),
    country!("BS", "Bahamas", 25.0, -77.4, 60.0, 0.2),
    country!("BT", "Bhutan", 27.5, 89.6, 60.0, 0.1),
    country!("BW", "Botswana", -24.7, 25.9, 200.0, 0.4),
    country!("BY", "Belarus", 53.9, 27.6, 200.0, 5.0),
    country!("BZ", "Belize", 17.5, -88.2, 60.0, 0.1),
    country!("CA", "Canada", 45.4, -75.7, 1200.0, 28.0),
    country!("CD", "DR Congo", -4.3, 15.3, 600.0, 1.0),
    country!("CF", "Central African Republic", 4.4, 18.6, 250.0, 0.1),
    country!("CG", "Congo", -4.3, 15.2, 150.0, 0.2),
    country!("CH", "Switzerland", 47.4, 8.5, 100.0, 7.0),
    country!("CI", "Ivory Coast", 5.3, -4.0, 200.0, 0.8),
    country!("CL", "Chile", -33.4, -70.7, 500.0, 10.0),
    country!("CM", "Cameroon", 4.0, 9.7, 300.0, 0.8),
    country!("CN", "China", 34.0, 110.0, 1400.0, 120.0),
    country!("CO", "Colombia", 4.6, -74.1, 400.0, 15.0),
    country!("CR", "Costa Rica", 9.9, -84.1, 80.0, 1.5),
    country!("CU", "Cuba", 23.1, -82.4, 250.0, 1.5),
    country!("CV", "Cape Verde", 14.9, -23.5, 40.0, 0.1),
    country!("CY", "Cyprus", 35.2, 33.4, 50.0, 0.7),
    country!("CZ", "Czechia", 50.1, 14.4, 150.0, 7.0),
    country!("DE", "Germany", 51.2, 10.4, 300.0, 60.0),
    country!("DJ", "Djibouti", 11.6, 43.1, 30.0, 0.1),
    country!("DK", "Denmark", 55.7, 12.6, 120.0, 5.0),
    country!("DM", "Dominica", 15.4, -61.4, 15.0, 0.05),
    country!("DO", "Dominican Republic", 18.5, -69.9, 120.0, 3.0),
    country!("DZ", "Algeria", 36.8, 3.1, 400.0, 5.0),
    country!("EC", "Ecuador", -0.2, -78.5, 200.0, 4.0),
    country!("EE", "Estonia", 59.4, 24.8, 80.0, 1.0),
    country!("EG", "Egypt", 30.0, 31.2, 300.0, 20.0),
    country!("ER", "Eritrea", 15.3, 38.9, 120.0, 0.05),
    country!("ES", "Spain", 40.4, -3.7, 400.0, 25.0),
    country!("ET", "Ethiopia", 9.0, 38.8, 350.0, 0.8),
    country!("FI", "Finland", 60.2, 24.9, 250.0, 5.0),
    country!("FJ", "Fiji", -18.1, 178.4, 80.0, 0.3),
    country!("FM", "Micronesia", 6.9, 158.2, 60.0, 0.02),
    country!("FR", "France", 48.9, 2.4, 400.0, 45.0),
    country!("GA", "Gabon", 0.4, 9.5, 120.0, 0.2),
    country!("GB", "United Kingdom", 51.5, -0.1, 350.0, 50.0),
    country!("GD", "Grenada", 12.1, -61.7, 15.0, 0.05),
    country!("GE", "Georgia", 41.7, 44.8, 120.0, 1.5),
    country!("GH", "Ghana", 5.6, -0.2, 200.0, 1.5),
    country!("GM", "Gambia", 13.5, -16.6, 40.0, 0.1),
    country!("GN", "Guinea", 9.5, -13.7, 180.0, 0.2),
    country!("GQ", "Equatorial Guinea", 3.8, 8.8, 50.0, 0.05),
    country!("GR", "Greece", 38.0, 23.7, 250.0, 5.0),
    country!("GT", "Guatemala", 14.6, -90.5, 120.0, 1.5),
    country!("GW", "Guinea-Bissau", 11.9, -15.6, 50.0, 0.03),
    country!("GY", "Guyana", 6.8, -58.2, 100.0, 0.2),
    country!("HK", "Hong Kong", 22.3, 114.2, 30.0, 6.0),
    country!("HN", "Honduras", 14.1, -87.2, 120.0, 1.0),
    country!("HR", "Croatia", 45.8, 16.0, 120.0, 2.5),
    country!("HT", "Haiti", 18.5, -72.3, 80.0, 0.5),
    country!("HU", "Hungary", 47.5, 19.1, 150.0, 6.0),
    country!("ID", "Indonesia", -6.2, 106.8, 900.0, 35.0),
    country!("IE", "Ireland", 53.3, -6.3, 120.0, 3.5),
    country!("IL", "Israel", 32.1, 34.8, 80.0, 5.5),
    country!("IN", "India", 22.0, 79.0, 1200.0, 80.0),
    country!("IQ", "Iraq", 33.3, 44.4, 250.0, 2.5),
    country!("IR", "Iran", 35.7, 51.4, 500.0, 18.0),
    country!("IS", "Iceland", 64.1, -21.9, 80.0, 0.3),
    country!("IT", "Italy", 42.5, 12.5, 400.0, 30.0),
    country!("JM", "Jamaica", 18.0, -76.8, 60.0, 0.8),
    country!("JO", "Jordan", 31.9, 35.9, 80.0, 1.5),
    country!("JP", "Japan", 35.7, 139.7, 500.0, 75.0),
    country!("KE", "Kenya", -1.3, 36.8, 250.0, 4.0),
    country!("KG", "Kyrgyzstan", 42.9, 74.6, 150.0, 1.0),
    country!("KH", "Cambodia", 11.6, 104.9, 150.0, 0.8),
    country!("KI", "Kiribati", 1.5, 173.0, 60.0, 0.01),
    country!("KM", "Comoros", -11.7, 43.3, 30.0, 0.02),
    country!("KN", "Saint Kitts and Nevis", 17.3, -62.7, 10.0, 0.03),
    country!("KP", "North Korea", 39.0, 125.8, 120.0, 0.05),
    country!("KR", "South Korea", 37.6, 127.0, 200.0, 30.0),
    country!("KW", "Kuwait", 29.4, 48.0, 40.0, 1.5),
    country!("KZ", "Kazakhstan", 43.2, 76.9, 700.0, 6.0),
    country!("LA", "Laos", 17.9, 102.6, 180.0, 0.4),
    country!("LB", "Lebanon", 33.9, 35.5, 50.0, 1.5),
    country!("LC", "Saint Lucia", 14.0, -61.0, 15.0, 0.05),
    country!("LI", "Liechtenstein", 47.1, 9.5, 10.0, 0.03),
    country!("LK", "Sri Lanka", 6.9, 79.9, 120.0, 2.0),
    country!("LR", "Liberia", 6.3, -10.8, 100.0, 0.1),
    country!("LS", "Lesotho", -29.3, 27.5, 60.0, 0.1),
    country!("LT", "Lithuania", 54.7, 25.3, 100.0, 2.0),
    country!("LU", "Luxembourg", 49.6, 6.1, 30.0, 0.5),
    country!("LV", "Latvia", 56.9, 24.1, 100.0, 1.5),
    country!("LY", "Libya", 32.9, 13.2, 300.0, 1.0),
    country!("MA", "Morocco", 33.6, -7.6, 300.0, 8.0),
    country!("MC", "Monaco", 43.7, 7.4, 5.0, 0.03),
    country!("MD", "Moldova", 47.0, 28.9, 80.0, 1.2),
    country!("ME", "Montenegro", 42.4, 19.3, 50.0, 0.4),
    country!("MG", "Madagascar", -18.9, 47.5, 300.0, 0.5),
    country!("MH", "Marshall Islands", 7.1, 171.4, 40.0, 0.01),
    country!("MK", "North Macedonia", 42.0, 21.4, 60.0, 0.8),
    country!("ML", "Mali", 12.6, -8.0, 300.0, 0.3),
    country!("MM", "Myanmar", 16.8, 96.2, 350.0, 0.5),
    country!("MN", "Mongolia", 47.9, 106.9, 300.0, 0.6),
    country!("MR", "Mauritania", 18.1, -15.9, 250.0, 0.1),
    country!("MT", "Malta", 35.9, 14.5, 15.0, 0.3),
    country!("MU", "Mauritius", -20.2, 57.5, 30.0, 0.4),
    country!("MV", "Maldives", 4.2, 73.5, 40.0, 0.1),
    country!("MW", "Malawi", -14.0, 33.8, 150.0, 0.2),
    country!("MX", "Mexico", 19.4, -99.1, 700.0, 40.0),
    country!("MY", "Malaysia", 3.1, 101.7, 400.0, 18.0),
    country!("MZ", "Mozambique", -25.9, 32.6, 400.0, 0.5),
    country!("NA", "Namibia", -22.6, 17.1, 250.0, 0.3),
    country!("NE", "Niger", 13.5, 2.1, 300.0, 0.1),
    country!("NG", "Nigeria", 9.1, 7.4, 500.0, 12.0),
    country!("NI", "Nicaragua", 12.1, -86.3, 120.0, 0.6),
    country!("NL", "Netherlands", 52.4, 4.9, 120.0, 15.0),
    country!("NO", "Norway", 59.9, 10.8, 300.0, 4.5),
    country!("NP", "Nepal", 27.7, 85.3, 200.0, 1.5),
    country!("NR", "Nauru", -0.5, 166.9, 5.0, 0.005),
    country!("NZ", "New Zealand", -36.8, 174.8, 400.0, 3.5),
    country!("OM", "Oman", 23.6, 58.4, 200.0, 1.5),
    country!("PA", "Panama", 9.0, -79.5, 100.0, 1.2),
    country!("PE", "Peru", -12.0, -77.0, 400.0, 8.0),
    country!("PG", "Papua New Guinea", -9.5, 147.2, 250.0, 0.1),
    country!("PH", "Philippines", 14.6, 121.0, 500.0, 25.0),
    country!("PK", "Pakistan", 31.5, 74.3, 500.0, 15.0),
    country!("PL", "Poland", 52.2, 21.0, 350.0, 20.0),
    country!("PS", "Palestine", 31.9, 35.2, 40.0, 1.0),
    country!("PT", "Portugal", 38.7, -9.1, 200.0, 5.5),
    country!("PW", "Palau", 7.5, 134.6, 30.0, 0.01),
    country!("PY", "Paraguay", -25.3, -57.6, 200.0, 1.5),
    country!("QA", "Qatar", 25.3, 51.5, 30.0, 1.0),
    country!("RO", "Romania", 44.4, 26.1, 300.0, 9.0),
    country!("RS", "Serbia", 44.8, 20.5, 120.0, 3.5),
    country!("RU", "Russia", 55.8, 37.6, 1500.0, 70.0),
    country!("RW", "Rwanda", -1.9, 30.1, 60.0, 0.3),
    country!("SA", "Saudi Arabia", 24.7, 46.7, 500.0, 12.0),
    country!("SB", "Solomon Islands", -9.4, 160.0, 100.0, 0.02),
    country!("SC", "Seychelles", -4.6, 55.5, 20.0, 0.05),
    country!("SD", "Sudan", 15.6, 32.5, 400.0, 1.5),
    country!("SE", "Sweden", 59.3, 18.1, 350.0, 8.5),
    country!("SG", "Singapore", 1.35, 103.8, 20.0, 4.5),
    country!("SI", "Slovenia", 46.1, 14.5, 60.0, 1.3),
    country!("SK", "Slovakia", 48.2, 17.1, 120.0, 3.5),
    country!("SL", "Sierra Leone", 8.5, -13.2, 80.0, 0.05),
    country!("SM", "San Marino", 43.9, 12.5, 5.0, 0.02),
    country!("SN", "Senegal", 14.7, -17.4, 150.0, 0.8),
    country!("SO", "Somalia", 2.0, 45.3, 250.0, 0.1),
    country!("SR", "Suriname", 5.9, -55.2, 80.0, 0.2),
    country!("SS", "South Sudan", 4.9, 31.6, 250.0, 0.02),
    country!("ST", "Sao Tome and Principe", 0.3, 6.7, 20.0, 0.01),
    country!("SV", "El Salvador", 13.7, -89.2, 60.0, 0.8),
    country!("SY", "Syria", 33.5, 36.3, 200.0, 1.8),
    country!("SZ", "Eswatini", -26.3, 31.1, 40.0, 0.1),
    country!("TD", "Chad", 12.1, 15.0, 300.0, 0.05),
    country!("TG", "Togo", 6.1, 1.2, 80.0, 0.2),
    country!("TH", "Thailand", 13.8, 100.5, 400.0, 18.0),
    country!("TJ", "Tajikistan", 38.6, 68.8, 120.0, 0.8),
    country!("TL", "Timor-Leste", -8.6, 125.6, 60.0, 0.02),
    country!("TM", "Turkmenistan", 37.9, 58.4, 200.0, 0.3),
    country!("TN", "Tunisia", 36.8, 10.2, 150.0, 2.5),
    country!("TO", "Tonga", -21.1, -175.2, 30.0, 0.01),
    country!("TR", "Turkey", 39.9, 32.9, 500.0, 25.0),
    country!("TT", "Trinidad and Tobago", 10.7, -61.5, 40.0, 0.5),
    country!("TV", "Tuvalu", -8.5, 179.2, 10.0, 0.005),
    country!("TW", "Taiwan", 25.0, 121.5, 150.0, 12.0),
    country!("TZ", "Tanzania", -6.8, 39.3, 350.0, 1.5),
    country!("UA", "Ukraine", 50.5, 30.5, 400.0, 18.0),
    country!("UG", "Uganda", 0.3, 32.6, 150.0, 1.0),
    country!("US", "United States", 39.8, -96.6, 1500.0, 110.0),
    country!("UY", "Uruguay", -34.9, -56.2, 150.0, 1.8),
    country!("UZ", "Uzbekistan", 41.3, 69.2, 250.0, 3.5),
    country!("VC", "Saint Vincent", 13.2, -61.2, 15.0, 0.03),
    country!("VE", "Venezuela", 10.5, -66.9, 350.0, 9.0),
    country!("VN", "Vietnam", 16.0, 107.8, 500.0, 20.0),
    country!("VU", "Vanuatu", -17.7, 168.3, 60.0, 0.02),
    country!("WS", "Samoa", -13.8, -171.8, 30.0, 0.02),
    country!("YE", "Yemen", 15.4, 44.2, 250.0, 1.0),
    country!("ZA", "South Africa", -26.2, 28.0, 500.0, 10.0),
    country!("ZM", "Zambia", -15.4, 28.3, 250.0, 0.5),
    country!("ZW", "Zimbabwe", -17.8, 31.0, 200.0, 0.6),
];

/// Looks up a country by its alpha-2 code (binary search; the table is
/// sorted by code).
pub fn lookup(code: CountryCode) -> Option<&'static CountryInfo> {
    COUNTRIES
        .binary_search_by(|c| c.code.cmp(&code))
        .ok()
        .map(|i| &COUNTRIES[i])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn registry_is_large_enough_for_the_paper() {
        // The paper observes bots in 186 countries (Table III); the
        // registry must be able to cover that.
        assert!(COUNTRIES.len() >= 186, "only {} countries", COUNTRIES.len());
    }

    #[test]
    fn codes_are_sorted_and_unique() {
        let mut seen = HashSet::new();
        for pair in COUNTRIES.windows(2) {
            assert!(pair[0].code < pair[1].code, "unsorted at {}", pair[1].code);
        }
        for c in COUNTRIES {
            assert!(seen.insert(c.code), "duplicate {}", c.code);
        }
    }

    #[test]
    fn centroids_are_valid_coordinates() {
        for c in COUNTRIES {
            assert!(
                (-90.0..=90.0).contains(&c.centroid.lat),
                "{} lat {}",
                c.code,
                c.centroid.lat
            );
            assert!(
                (-180.0..=180.0).contains(&c.centroid.lon),
                "{} lon {}",
                c.code,
                c.centroid.lon
            );
            assert!(c.spread_km > 0.0, "{} spread", c.code);
            assert!(c.weight > 0.0, "{} weight", c.code);
        }
    }

    #[test]
    fn lookup_finds_paper_countries() {
        for code in [
            "US", "RU", "DE", "UA", "NL", "FR", "ES", "VE", "SG", "IN", "PK", "BW", "TH", "ID",
            "CN", "KR", "HK", "JP", "MX", "UY", "CL", "CA", "GB", "KG",
        ] {
            let cc = code.parse().unwrap();
            assert!(lookup(cc).is_some(), "missing {code}");
        }
        assert!(lookup("XX".parse().unwrap()).is_none());
    }

    #[test]
    fn major_countries_dominate_weight() {
        let total: f64 = COUNTRIES.iter().map(|c| c.weight).sum();
        let major: f64 = ["CN", "US", "IN", "BR", "JP", "RU", "DE"]
            .iter()
            .map(|c| lookup(c.parse().unwrap()).unwrap().weight)
            .sum();
        assert!(major / total > 0.35, "major share {}", major / total);
    }
}
