//! Attack transport categories (`category` in Table I).
//!
//! The feed classifies each attack by the protocol used to launch it. The
//! paper's Table III counts seven distinct traffic types; Figure 1 shows
//! HTTP dominating, and the paper stresses that `Undetermined` (an attack
//! using multiple protocols) differs from `Unknown` (traffic of unknown
//! type).

use std::fmt;
use std::str::FromStr;

use serde::{Deserialize, Serialize};

use crate::error::SchemaError;

/// The transport/protocol category of an attack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Protocol {
    /// HTTP-layer flood (application-level; connection oriented).
    Http,
    /// Generic TCP flood.
    Tcp,
    /// UDP flood.
    Udp,
    /// The attack used multiple protocols and no single one could be
    /// assigned.
    Undetermined,
    /// ICMP flood.
    Icmp,
    /// Traffic of unknown type.
    Unknown,
    /// TCP SYN flood (tracked separately from generic TCP by the feed).
    Syn,
}

impl Protocol {
    /// All seven traffic types, in the paper's Table II order.
    pub const ALL: [Protocol; 7] = [
        Protocol::Http,
        Protocol::Tcp,
        Protocol::Udp,
        Protocol::Undetermined,
        Protocol::Icmp,
        Protocol::Unknown,
        Protocol::Syn,
    ];

    /// Canonical uppercase name as printed in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            Protocol::Http => "HTTP",
            Protocol::Tcp => "TCP",
            Protocol::Udp => "UDP",
            Protocol::Undetermined => "UNDETERMINED",
            Protocol::Icmp => "ICMP",
            Protocol::Unknown => "UNKNOWN",
            Protocol::Syn => "SYN",
        }
    }

    /// Stable dense index (0..7) for array-backed counters.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Whether the transport is connection oriented.
    ///
    /// The paper leans on this to argue source-IP spoofing is implausible
    /// for the bulk of the observed attacks (§III-B): HTTP, TCP and SYN
    /// all require a completed or attempted TCP handshake.
    pub fn is_connection_oriented(self) -> bool {
        matches!(self, Protocol::Http | Protocol::Tcp | Protocol::Syn)
    }
}

impl fmt::Display for Protocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Protocol {
    type Err = SchemaError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let upper = s.to_ascii_uppercase();
        Self::ALL
            .iter()
            .copied()
            .find(|p| p.name() == upper)
            .ok_or_else(|| SchemaError::parse("Protocol", s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seven_traffic_types() {
        // Table III: "# of traffic types: 7".
        assert_eq!(Protocol::ALL.len(), 7);
    }

    #[test]
    fn names_round_trip() {
        for p in Protocol::ALL {
            assert_eq!(p.name().parse::<Protocol>().unwrap(), p);
        }
        assert_eq!("http".parse::<Protocol>().unwrap(), Protocol::Http);
        assert!("QUIC".parse::<Protocol>().is_err());
    }

    #[test]
    fn connection_oriented_classification() {
        assert!(Protocol::Http.is_connection_oriented());
        assert!(Protocol::Syn.is_connection_oriented());
        assert!(!Protocol::Udp.is_connection_oriented());
        assert!(!Protocol::Icmp.is_connection_oriented());
    }

    #[test]
    fn indexes_are_dense() {
        for (i, p) in Protocol::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
    }
}
