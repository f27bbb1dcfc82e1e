//! Memory-mapped trace loading.
//!
//! [`Dataset::open`] maps a binary trace file read-only and decodes it
//! in place: the framed v2 decoder walks zero-copy cursors over the
//! mapping, so pages fault in lazily as the decode workers reach them
//! instead of being read (and copied) up front.
//!
//! The mapping itself comes from the vendored `memmap2` shim, which
//! degrades to a buffered read when a real mapping is unavailable —
//! callers see identical bytes either way.

use std::fs::File;
use std::path::Path;

use memmap2::Mmap;

use crate::dataset::Dataset;
use crate::error::SchemaError;
use crate::framed::{self, IngestStats};

impl Dataset {
    /// Opens a binary trace file (the framed `DDTL` container) via a
    /// read-only memory map and decodes it.
    pub fn open(path: impl AsRef<Path>) -> Result<Dataset, SchemaError> {
        Dataset::open_with_stats(path).map(|(ds, _)| ds)
    }

    /// Like [`Dataset::open`], also returning [`IngestStats`] for the
    /// load (bytes, frames, decode workers) so callers can feed ingest
    /// telemetry.
    pub fn open_with_stats(path: impl AsRef<Path>) -> Result<(Dataset, IngestStats), SchemaError> {
        let path = path.as_ref();
        let io_err = |e: std::io::Error| SchemaError::Io(format!("{}: {e}", path.display()));
        crate::fail::check(crate::fail::INGEST_OPEN)?;
        let file = File::open(path).map_err(io_err)?;
        let map = Mmap::map(&file).map_err(io_err)?;
        framed::decode_with_stats(&map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetBuilder;
    use crate::ip::IpAddr4;
    use crate::record::test_fixtures::attack;
    use crate::time::{Timestamp, Window};

    fn sample() -> Dataset {
        let window = Window::new(Timestamp(0), Timestamp(1_000_000)).unwrap();
        let mut b = DatasetBuilder::new(window);
        let mut a = attack(1, 1_000);
        a.sources.push(IpAddr4::from_octets(203, 0, 113, 9));
        b.push_attack(a).unwrap();
        b.push_attack(attack(2, 2_000)).unwrap();
        b.build().unwrap()
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("ddos-schema-mmap-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn open_reads_the_framed_container() {
        let ds = sample();
        let bytes = framed::encode(&ds);
        let path = temp_path("v2.ddtl");
        std::fs::write(&path, &bytes).unwrap();
        let (back, stats) = Dataset::open_with_stats(&path).unwrap();
        assert_eq!(back.attacks(), ds.attacks());
        assert_eq!(stats.bytes, bytes.len());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_missing_file_is_an_io_error() {
        let err = Dataset::open(temp_path("does-not-exist")).unwrap_err();
        assert!(matches!(err, SchemaError::Io(_)), "{err}");
        assert!(err.to_string().contains("does-not-exist"), "{err}");
    }

    #[test]
    fn open_corrupt_file_is_a_codec_error() {
        let path = temp_path("corrupt.ddtl");
        std::fs::write(&path, b"XXXXXXXX").unwrap();
        let err = Dataset::open(&path).unwrap_err();
        assert!(matches!(err, SchemaError::Codec(_)), "{err}");
        std::fs::remove_file(&path).unwrap();
    }
}
