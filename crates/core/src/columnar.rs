//! The columnar bot substrate: the trace's two big joins as sorted
//! columns instead of hash maps.
//!
//! The paper's source analyses (§IV) resolve every one of the trace's
//! bot IPs once per attack-participation — and bots recur across
//! hundreds of attacks. This module amortizes that work to once per
//! *trace*:
//!
//! * [`BotTable`] — the `Botlist` as parallel columns: a sorted IP
//!   column plus country codes and precomputed trigonometry
//!   ([`PointTrig`]: `sin(lat)`, `cos(lat)`, `sin(lon)`, …) per bot, so
//!   the dispersion kernels never call `sin`/`cos` on a bot twice.
//! * [`SourceTable`] — the attack→source join in CSR form: every
//!   distinct source IP is interned into a dictionary once and each
//!   attack's source list becomes a dense `u32` id slice. The id space
//!   *is* the join — a per-id row column maps each id to its bot row, a
//!   resolved id's row being the id itself — so a single load replaces
//!   the per-lookup hash probe. Downstream passes (dispersion, shift,
//!   weekly bot counts, the defense blacklist replay) work on row ids and
//!   cached triples.
//!
//! The monolithic build derives both tables purely from the dataset, and
//! the CSR fill is data-parallel over disjoint output slices, so a
//! parallel build is trivially deterministic — the context build
//! exploits this. The epoch fold ([`crate::epoch::EpochContext`]) grows
//! a [`SourceTable`] in place instead, interning ids in arrival order.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

use ddos_geo::PointTrig;
use ddos_schema::{CountryCode, Dataset, IpAddr4, LatLon};

/// Sentinel "row" for source IPs absent from the `Botlist`.
pub const NO_BOT: u32 = u32::MAX;

/// Splits `len` items into at most `pieces` contiguous ranges of
/// near-equal size (used to hand disjoint work to scoped threads).
pub(crate) fn chunk_ranges(len: usize, pieces: usize) -> Vec<Range<usize>> {
    if len == 0 || pieces == 0 {
        return Vec::new();
    }
    let pieces = pieces.min(len);
    let base = len / pieces;
    let extra = len % pieces;
    let mut out = Vec::with_capacity(pieces);
    let mut start = 0;
    for i in 0..pieces {
        let size = base + usize::from(i < extra);
        out.push(start..start + size);
        start += size;
    }
    out
}

/// Worker threads to use for data-parallel build phases.
pub(crate) fn worker_count() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Runs `job(i, slot)` for every `i` in `0..n` on a pool of one worker
/// per entry of `slots` (at most `n`) and returns the results in index
/// order.
///
/// The calling thread is one of the workers, so the pool starts at most
/// `slots.len() - 1` scoped threads. Workers claim indices from a shared
/// counter, so a long job never leaves the others idle behind it, and
/// each worker owns one slot, its working state, across the jobs it
/// claims; a caller that keeps its slots keeps their buffers warm across
/// calls. With one slot every job runs on the calling thread, in index
/// order.
///
/// # Panics
///
/// If `slots` is empty, or a job panics.
pub(crate) fn fan_out<S, R, F>(n: usize, slots: &mut [S], job: F) -> Vec<R>
where
    S: Send,
    R: Send,
    F: Fn(usize, &mut S) -> R + Sync,
{
    assert!(!slots.is_empty(), "a pool needs a worker");
    let workers = slots.len().min(n).max(1);
    let (mine, helpers) = slots[..workers]
        .split_first_mut()
        .expect("at least one worker");
    if helpers.is_empty() {
        return (0..n).map(|i| job(i, mine)).collect();
    }
    let next = AtomicUsize::new(0);
    let drain = |slot: &mut S| {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break done;
            }
            done.push((i, job(i, slot)));
        }
    };
    let mut done: Vec<(usize, R)> = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = helpers
            .iter_mut()
            .map(|slot| scope.spawn(|_| drain(slot)))
            .collect();
        let mut done = drain(mine);
        for handle in handles {
            done.extend(handle.join().expect("pool worker panicked"));
        }
        done
    })
    .expect("pool scope panicked");
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

/// A 16-bit-prefix bucket index over a sorted IP column.
///
/// `starts[p]..starts[p + 1]` is the run of addresses whose high half
/// is `p`, so a lookup binary-searches only that run instead of the
/// whole column. Same result as a full binary search (the column is
/// sorted and the prefix is its leading bits). This is the *point
/// lookup* path; bulk joins of sorted source lists go through
/// [`resolve_sorted_run`] instead, which never touches the index.
#[derive(Debug, Clone, Default)]
struct IpBuckets {
    starts: Vec<u32>,
}

impl IpBuckets {
    const BUCKETS: usize = 1 << 16;

    fn build(sorted: &[IpAddr4]) -> IpBuckets {
        let mut starts = vec![0u32; Self::BUCKETS + 1];
        for ip in sorted {
            starts[(ip.value() >> 16) as usize + 1] += 1;
        }
        for p in 0..Self::BUCKETS {
            starts[p + 1] += starts[p];
        }
        IpBuckets { starts }
    }

    #[inline]
    fn resolve(&self, sorted: &[IpAddr4], ip: IpAddr4) -> Option<u32> {
        if self.starts.is_empty() {
            // Default-constructed (no index): plain binary search.
            return sorted.binary_search(&ip).ok().map(|i| i as u32);
        }
        let p = (ip.value() >> 16) as usize;
        let lo = self.starts[p] as usize;
        let hi = self.starts[p + 1] as usize;
        sorted[lo..hi]
            .binary_search(&ip)
            .ok()
            .map(|i| (lo + i) as u32)
    }
}

/// Stable LSD radix sort of `(ip << 32) | position` keys by the IP
/// half: two 16-bit digit passes, each a counting sort. Equal IPs keep
/// their relative (position) order, and two linear passes beat a
/// comparison sort's `n log n` at roster scale.
pub(crate) fn radix_sort_by_ip(order: &mut Vec<u64>) {
    // The scatter buffer must be exactly as long as `order`:
    // `mem::swap` makes it the output.
    let mut scratch = vec![0u64; order.len()];
    let mut lo_counts = vec![0u32; (1 << 16) + 1];
    let mut hi_counts = vec![0u32; (1 << 16) + 1];
    // Both digit histograms in one read pass, then two stable scatters.
    for &key in order.iter() {
        lo_counts[((key >> 32) as u16 as usize) + 1] += 1;
        hi_counts[((key >> 48) as u16 as usize) + 1] += 1;
    }
    for d in 0..1 << 16 {
        lo_counts[d + 1] += lo_counts[d];
        hi_counts[d + 1] += hi_counts[d];
    }
    for (shift, counts) in [(32u32, &mut lo_counts), (48, &mut hi_counts)] {
        for &key in order.iter() {
            let slot = &mut counts[(key >> shift) as u16 as usize];
            scratch[*slot as usize] = key;
            *slot += 1;
        }
        std::mem::swap(order, &mut scratch);
    }
}

/// The `Botlist` as a columnar table: one sorted IP column plus
/// parallel arrays of countries, coordinates, and precomputed
/// trigonometry. Row ids are `u32` indices into the columns.
///
/// Duplicate bot records for one IP collapse to the **last** record, the
/// same overwrite semantics as [`crate::util::BotIndex::build`] — the property tests
/// below hold the two joins bit-equal on arbitrary rosters.
#[derive(Debug, Clone, Default)]
pub struct BotTable {
    ips: Vec<IpAddr4>,
    countries: Vec<CountryCode>,
    coords: Vec<LatLon>,
    trig: Vec<PointTrig>,
    buckets: IpBuckets,
}

impl BotTable {
    /// Builds the table from a dataset's bot records: sort by IP,
    /// collapse duplicates last-wins, precompute each survivor's
    /// trigonometry exactly once.
    pub fn build(ds: &Dataset) -> BotTable {
        let records = ds.bots();
        // (ip, roster position) packed into one u64 so the sort never
        // touches the records themselves. A stable LSD radix sort over
        // the IP half (two 16-bit digits) keeps the *last* record of an
        // IP's run last — the positions start ascending and stability
        // preserves that — matching the hash map overwrite semantics.
        let mut order: Vec<u64> = records
            .iter()
            .enumerate()
            .map(|(seq, b)| (u64::from(b.ip.value()) << 32) | seq as u64)
            .collect();
        radix_sort_by_ip(&mut order);

        let mut ips = Vec::with_capacity(order.len());
        let mut countries = Vec::with_capacity(order.len());
        let mut coords = Vec::with_capacity(order.len());
        let mut trig = Vec::with_capacity(order.len());
        let mut run = 0;
        while run < order.len() {
            let ip = IpAddr4((order[run] >> 32) as u32);
            let mut last = run;
            while last + 1 < order.len() && (order[last + 1] >> 32) as u32 == ip.value() {
                last += 1;
            }
            let bot = &records[order[last] as u32 as usize];
            ips.push(ip);
            countries.push(bot.location.country);
            coords.push(bot.location.coords);
            trig.push(PointTrig::new(bot.location.coords));
            run = last + 1;
        }
        let buckets = IpBuckets::build(&ips);
        BotTable {
            ips,
            countries,
            coords,
            trig,
            buckets,
        }
    }

    /// Number of distinct bots.
    pub fn len(&self) -> usize {
        self.ips.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.ips.is_empty()
    }

    /// The sorted IP column.
    pub fn ips(&self) -> &[IpAddr4] {
        &self.ips
    }

    /// Resolves one address to its row id (bucketed binary search on
    /// the sorted IP column).
    #[inline]
    pub fn resolve(&self, ip: IpAddr4) -> Option<u32> {
        self.buckets.resolve(&self.ips, ip)
    }

    /// Batch resolution: appends the row of every *resolvable* address
    /// in `ips`, preserving input order (the row-id counterpart of
    /// [`crate::util::BotIndex::coords_of`]).
    pub fn resolve_rows(&self, ips: &[IpAddr4], out: &mut Vec<u32>) {
        for &ip in ips {
            if let Some(row) = self.resolve(ip) {
                out.push(row);
            }
        }
    }

    /// The IP of one row.
    #[inline]
    pub fn ip(&self, row: u32) -> IpAddr4 {
        self.ips[row as usize]
    }

    /// The country of one row.
    #[inline]
    pub fn country(&self, row: u32) -> CountryCode {
        self.countries[row as usize]
    }

    /// The coordinates of one row.
    #[inline]
    pub fn coords(&self, row: u32) -> LatLon {
        self.coords[row as usize]
    }

    /// The precomputed trigonometry of one row.
    #[inline]
    pub fn trig(&self, row: u32) -> &PointTrig {
        &self.trig[row as usize]
    }

    /// The whole trigonometry column, for indexed kernels that read it
    /// in place through a row list instead of gathering copies.
    #[inline]
    pub fn trigs(&self) -> &[PointTrig] {
        &self.trig
    }

    /// The whole country column, by row.
    #[inline]
    pub fn countries(&self) -> &[CountryCode] {
        &self.countries
    }
}

/// The trace-wide attack→source join in CSR form.
///
/// Every distinct source IP (resolvable through the `Botlist` or not)
/// is interned into a dictionary; attack `i`'s source list is the id
/// slice [`SourceTable::ids_of`]`(i)`, in original source order. The id
/// space *is* the join: [`SourceTable::bot_row`] is one load from a
/// per-id row column, and a resolved id's row is the id itself, so
/// after the build no pass ever hashes or searches an IP again.
///
/// Two layouts fill the columns. The monolithic [`SourceTable::build`]
/// numbers the [`BotTable`] rows first, then the sorted unresolvable
/// sources. The epoch fold interns every IP it meets, bot or source, in
/// arrival order and never renumbers one, promoting a source-only id in
/// place when its bot record arrives.
#[derive(Debug, Clone)]
pub struct SourceTable {
    /// The IP of each dictionary id.
    dict: Vec<IpAddr4>,
    /// The bot row of each dictionary id (the id itself), or [`NO_BOT`].
    rows: Vec<u32>,
    offsets: Vec<u32>,
    ids: Vec<u32>,
    /// Unresolvable sources per attack. Zero (the overwhelmingly common
    /// case) means attack `i`'s id slice is a valid row list verbatim.
    unresolved: Vec<u32>,
}

impl Default for SourceTable {
    /// The empty table an epoch fold grows.
    fn default() -> SourceTable {
        SourceTable {
            dict: Vec::new(),
            rows: Vec::new(),
            offsets: vec![0],
            ids: Vec::new(),
            unresolved: Vec::new(),
        }
    }
}

impl SourceTable {
    /// Builds the join. With `parallel` set, the unresolved-IP sweep and
    /// the CSR id fill run chunked on scoped threads over disjoint
    /// output slices; the result is identical either way.
    pub fn build(ds: &Dataset, bots: &BotTable, parallel: bool) -> SourceTable {
        let attacks = ds.attacks();
        let mut offsets = Vec::with_capacity(attacks.len() + 1);
        let mut total: u64 = 0;
        offsets.push(0u32);
        for a in attacks {
            total += a.sources.len() as u64;
            assert!(
                total < u64::from(NO_BOT),
                "trace exceeds u32 participations"
            );
            offsets.push(total as u32);
        }

        // Pass 1 — resolve every source against the BotTable once: hits
        // write their bot row (== dictionary id) straight into the id
        // column, misses record their position and IP. Chunked over
        // disjoint slices of the id column on scoped threads when
        // `parallel`; chunk results concatenate in chunk order, so the
        // miss list is identical either way.
        let mut ids = vec![0u32; total as usize];
        // Direct-mapped resolve cache, `(ip << 32) | row` per slot. A
        // bot participates in ~5 attacks on average and rosters recur
        // week over week, so most lookups re-resolve a recent address:
        // a cache hit is one multiply and one load instead of a bucket
        // search. Only successful resolutions are cached (a hit entry's
        // low word is a row `< NO_BOT`, so no live entry equals the
        // `u64::MAX` empty sentinel) and stale slots merely fall through
        // to the search — the output is identical with or without it.
        const CACHE_BITS: u32 = 18;
        let sweep = |range: Range<usize>, out: &mut [u32]| -> Vec<(u32, IpAddr4)> {
            let base = offsets[range.start] as usize;
            let mut misses = Vec::new();
            let mut cache = vec![u64::MAX; 1 << CACHE_BITS];
            for i in range {
                let lo = offsets[i] as usize - base;
                for (k, &ip) in attacks[i].sources.iter().enumerate() {
                    let h = (ip.value().wrapping_mul(0x9E37_79B9) >> (32 - CACHE_BITS)) as usize;
                    let entry = cache[h];
                    if (entry >> 32) as u32 == ip.value() && entry != u64::MAX {
                        out[lo + k] = entry as u32;
                        continue;
                    }
                    match bots.resolve(ip) {
                        Some(row) => {
                            cache[h] = (u64::from(ip.value()) << 32) | u64::from(row);
                            out[lo + k] = row;
                        }
                        None => {
                            out[lo + k] = NO_BOT;
                            misses.push(((base + lo + k) as u32, ip));
                        }
                    }
                }
            }
            misses
        };
        let ranges = chunk_ranges(attacks.len(), if parallel { worker_count() } else { 1 });
        let misses: Vec<(u32, IpAddr4)> = if parallel && ranges.len() > 1 {
            let mut slices: Vec<(Range<usize>, &mut [u32])> = Vec::with_capacity(ranges.len());
            let mut rest: &mut [u32] = &mut ids;
            for r in ranges {
                let size = (offsets[r.end] - offsets[r.start]) as usize;
                let (head, tail) = rest.split_at_mut(size);
                slices.push((r, head));
                rest = tail;
            }
            crossbeam::thread::scope(|scope| {
                let handles: Vec<_> = slices
                    .into_iter()
                    .map(|(r, out)| scope.spawn(|_| sweep(r, out)))
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("source sweep panicked"))
                    .collect()
            })
            .expect("source sweep scope panicked")
        } else {
            let mut collected = Vec::new();
            for r in ranges {
                let size = (offsets[r.end] - offsets[r.start]) as usize;
                let start = offsets[r.start] as usize;
                collected.extend(sweep(r, &mut ids[start..start + size]));
            }
            collected
        };

        // Pass 2 — intern the misses: the distinct unresolvable IPs,
        // sorted (erasing any trace of the chunking), take the id range
        // after the bot rows. Only miss positions are revisited.
        let mut extras: Vec<IpAddr4> = misses.iter().map(|&(_, ip)| ip).collect();
        extras.sort_unstable();
        extras.dedup();
        let bots_len = bots.len() as u32;
        assert!(
            bots.len() + extras.len() < NO_BOT as usize,
            "trace exceeds u32 dictionary ids"
        );
        let extra_buckets = IpBuckets::build(&extras);
        let mut unresolved = vec![0u32; attacks.len()];
        for &(pos, ip) in &misses {
            let e = extra_buckets
                .resolve(&extras, ip)
                .expect("every unresolved source IP is interned");
            ids[pos as usize] = bots_len + e;
            // `offsets[i] <= pos < offsets[i + 1]` locates the attack.
            unresolved[offsets.partition_point(|&o| o <= pos) - 1] += 1;
        }

        let mut dict = Vec::with_capacity(bots.len() + extras.len());
        dict.extend_from_slice(bots.ips());
        dict.extend_from_slice(&extras);
        let mut rows: Vec<u32> = (0..bots_len).collect();
        rows.resize(dict.len(), NO_BOT);
        SourceTable {
            dict,
            rows,
            offsets,
            ids,
            unresolved,
        }
    }

    /// Number of distinct source IPs in the trace.
    pub fn dict_len(&self) -> usize {
        self.dict.len()
    }

    /// Total attack-participations (sum of all source list lengths).
    pub fn participations(&self) -> usize {
        self.ids.len()
    }

    /// Attack `i`'s source list as dictionary ids, in source order.
    #[inline]
    pub fn ids_of(&self, attack: usize) -> &[u32] {
        &self.ids[self.offsets[attack] as usize..self.offsets[attack + 1] as usize]
    }

    /// The bot row of a dictionary id — the id itself — or [`NO_BOT`].
    #[inline]
    pub fn bot_row(&self, id: u32) -> u32 {
        self.rows[id as usize]
    }

    /// The IP behind a dictionary id.
    #[inline]
    pub fn ip_of(&self, id: u32) -> IpAddr4 {
        self.dict[id as usize]
    }

    /// How many of attack `i`'s sources did not resolve to a bot row.
    /// When zero, [`SourceTable::ids_of`]`(i)` is a row list verbatim —
    /// consumers skip the per-id resolve scan entirely.
    #[inline]
    pub fn unresolved_in(&self, attack: usize) -> u32 {
        self.unresolved[attack]
    }

    /// Total participations across the trace that did not resolve to a
    /// bot row (telemetry: the `context/unresolved_sources` gauge).
    pub fn unresolved_total(&self) -> u64 {
        self.unresolved.iter().map(|&n| u64::from(n)).sum()
    }

    /// Interns `ip` as the next dictionary id, a bot row when `bot`.
    pub(crate) fn intern(&mut self, ip: IpAddr4, bot: bool) -> u32 {
        let id = self.dict.len() as u32;
        assert!(id < NO_BOT, "trace exceeds u32 dictionary ids");
        self.dict.push(ip);
        self.rows.push(if bot { id } else { NO_BOT });
        id
    }

    /// Promotes a source-only id to a bot row, in place.
    pub(crate) fn promote(&mut self, id: u32) {
        self.rows[id as usize] = id;
    }

    /// Appends the next attack's id slice.
    pub(crate) fn push_attack(&mut self, ids: impl IntoIterator<Item = u32>) {
        let mut unresolved = 0;
        for id in ids {
            unresolved += u32::from(self.rows[id as usize] == NO_BOT);
            self.ids.push(id);
        }
        assert!(
            self.ids.len() < NO_BOT as usize,
            "trace exceeds u32 participations"
        );
        self.offsets.push(self.ids.len() as u32);
        self.unresolved.push(unresolved);
    }

    /// Recounts attack `i`'s unresolved sources after a promotion.
    pub(crate) fn recount_unresolved(&mut self, attack: usize) {
        let rows = &self.rows;
        self.unresolved[attack] = self.ids
            [self.offsets[attack] as usize..self.offsets[attack + 1] as usize]
            .iter()
            .filter(|&&id| rows[id as usize] == NO_BOT)
            .count() as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::BotIndex;
    use ddos_schema::record::{BotRecord, Location};
    use ddos_schema::{
        Asn, AttackRecord, BotnetId, CityId, DatasetBuilder, DdosId, Family, OrgId, Protocol,
        Timestamp, Window,
    };
    use proptest::prelude::*;

    fn ip(last: u8) -> IpAddr4 {
        IpAddr4::from_octets(203, 0, 113, last)
    }

    fn bot(last: u8, cc: &str, lat: f64, lon: f64) -> BotRecord {
        BotRecord {
            ip: ip(last),
            botnet: BotnetId(1),
            family: Family::Pandora,
            location: Location {
                country: cc.parse().unwrap(),
                city: CityId(1),
                org: OrgId(1),
                asn: Asn(64_001),
                coords: LatLon::new_unchecked(lat, lon),
            },
            first_seen: Timestamp(0),
            last_seen: Timestamp(1_000),
        }
    }

    fn attack(id: u64, sources: Vec<u8>) -> AttackRecord {
        AttackRecord {
            id: DdosId(id),
            botnet: BotnetId(1),
            family: Family::Pandora,
            category: Protocol::Http,
            target_ip: IpAddr4::from_octets(198, 51, 100, 1),
            target: Location {
                country: "US".parse().unwrap(),
                city: CityId(9),
                org: OrgId(9),
                asn: Asn(64_009),
                coords: LatLon::new_unchecked(38.0, -77.0),
            },
            start: Timestamp(id as i64 * 100),
            end: Timestamp(id as i64 * 100 + 60),
            sources: sources.into_iter().map(ip).collect(),
        }
    }

    fn dataset(bots: Vec<BotRecord>, attacks: Vec<AttackRecord>) -> Dataset {
        let window = Window::new(Timestamp(0), Timestamp(1_000_000)).unwrap();
        let mut b = DatasetBuilder::new(window);
        for bot in bots {
            b.push_bot(bot).unwrap();
        }
        for a in attacks {
            b.push_attack(a).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn bot_table_sorted_and_resolvable() {
        let ds = dataset(
            vec![bot(9, "RU", 55.0, 37.0), bot(1, "US", 40.0, -74.0)],
            vec![],
        );
        let t = BotTable::build(&ds);
        assert_eq!(t.len(), 2);
        assert!(t.ips().windows(2).all(|w| w[0] < w[1]));
        let row = t.resolve(ip(9)).unwrap();
        assert_eq!(t.ip(row), ip(9));
        assert_eq!(t.country(row), "RU".parse().unwrap());
        assert_eq!(t.coords(row).lat, 55.0);
        assert_eq!(t.trig(row).lat, 55.0);
        assert!(t.resolve(ip(7)).is_none());
        let mut rows = Vec::new();
        t.resolve_rows(&[ip(1), ip(7), ip(9)], &mut rows);
        assert_eq!(rows.len(), 2);
        assert_eq!(t.ip(rows[0]), ip(1));
    }

    #[test]
    fn duplicate_bot_ips_are_last_wins() {
        let ds = dataset(
            vec![bot(5, "RU", 55.0, 37.0), bot(5, "DE", 52.0, 13.0)],
            vec![],
        );
        let t = BotTable::build(&ds);
        let idx = BotIndex::build(&ds);
        assert_eq!(t.len(), 1);
        let row = t.resolve(ip(5)).unwrap();
        let (cc, coords) = idx.lookup(ip(5)).unwrap();
        assert_eq!(t.country(row), cc);
        assert_eq!(t.coords(row), coords);
        assert_eq!(t.country(row), "DE".parse().unwrap());
    }

    #[test]
    fn source_table_interns_every_source() {
        let ds = dataset(
            vec![bot(1, "RU", 55.0, 37.0)],
            vec![
                attack(1, vec![1, 2, 1]),
                attack(2, vec![2]),
                attack(3, vec![3]),
            ],
        );
        let bots = BotTable::build(&ds);
        for parallel in [false, true] {
            let s = SourceTable::build(&ds, &bots, parallel);
            assert_eq!(s.participations(), 5);
            assert_eq!(s.dict_len(), 3); // 203.0.113.{1,2,3}
            let a0 = s.ids_of(0);
            assert_eq!(a0.len(), 3);
            assert_eq!(s.ip_of(a0[0]), ip(1));
            assert_eq!(s.ip_of(a0[1]), ip(2));
            assert_eq!(a0[0], a0[2], "same IP, same id");
            assert_eq!(s.bot_row(a0[0]), bots.resolve(ip(1)).unwrap());
            assert_eq!(s.bot_row(a0[1]), NO_BOT);
            let a2 = s.ids_of(2);
            assert_eq!(a2.len(), 1);
            assert_eq!(s.ip_of(a2[0]), ip(3));
            assert_eq!(s.bot_row(a2[0]), NO_BOT, "unknown source has no bot row");
        }
    }

    #[test]
    fn empty_dataset_builds_empty_tables() {
        let ds = dataset(vec![], vec![]);
        let t = BotTable::build(&ds);
        assert!(t.is_empty());
        let s = SourceTable::build(&ds, &t, true);
        assert_eq!(s.dict_len(), 0);
        assert_eq!(s.participations(), 0);
    }

    #[test]
    fn fan_out_returns_every_result_in_index_order() {
        for (n, workers) in [(0, 4), (1, 4), (7, 1), (7, 2), (40, 3)] {
            // Each worker's slot counts the jobs it ran.
            let mut ran = vec![0usize; workers];
            let out = fan_out(n, &mut ran, |i, ran: &mut usize| {
                *ran += 1;
                (i * i, *ran)
            });
            let squares: Vec<usize> = out.iter().map(|&(sq, _)| sq).collect();
            assert_eq!(squares, (0..n).map(|i| i * i).collect::<Vec<_>>());
            assert_eq!(ran.iter().sum::<usize>(), n, "every job ran once");
            assert!(ran[workers.min(n.max(1))..].iter().all(|&r| r == 0));
            if workers == 1 {
                let runs: Vec<usize> = out.iter().map(|&(_, ran)| ran).collect();
                assert_eq!(runs, (1..=n).collect::<Vec<_>>(), "one slot, in order");
            }
        }
    }

    #[test]
    fn chunk_ranges_cover_exactly() {
        for (len, pieces) in [(0, 4), (3, 4), (10, 3), (16, 4), (7, 1)] {
            let ranges = chunk_ranges(len, pieces);
            let covered: usize = ranges.iter().map(|r| r.len()).sum();
            assert_eq!(covered, len);
            for w in ranges.windows(2) {
                assert_eq!(w[0].end, w[1].start);
            }
            if let (Some(first), Some(last)) = (ranges.first(), ranges.last()) {
                assert_eq!(first.start, 0);
                assert_eq!(last.end, len);
            }
        }
    }

    proptest! {
        /// Satellite: `BotTable` batch resolution agrees with
        /// `BotIndex::lookup`/`coords_of` on arbitrary rosters,
        /// duplicates included.
        #[test]
        fn bot_table_matches_bot_index(
            roster in proptest::collection::vec(
                (0u8..48, prop::sample::select(vec!["US", "RU", "DE"]),
                 -89.0f64..89.0, -179.0f64..179.0),
                0..64,
            ),
            probes in proptest::collection::vec(0u8..64, 0..48),
        ) {
            let bots: Vec<BotRecord> = roster
                .into_iter()
                .map(|(last, cc, lat, lon)| bot(last, cc, lat, lon))
                .collect();
            let ds = dataset(bots, vec![]);
            let table = BotTable::build(&ds);
            let index = BotIndex::build(&ds);
            prop_assert_eq!(table.len(), index.len());
            let probe_ips: Vec<IpAddr4> = probes.iter().map(|&l| ip(l)).collect();
            for &p in &probe_ips {
                match (table.resolve(p), index.lookup(p)) {
                    (Some(row), Some((cc, coords))) => {
                        prop_assert_eq!(table.ip(row), p);
                        prop_assert_eq!(table.country(row), cc);
                        prop_assert_eq!(table.coords(row), coords);
                        prop_assert_eq!(
                            table.trig(row).lat.to_bits(), coords.lat.to_bits()
                        );
                    }
                    (None, None) => {}
                    (a, b) => prop_assert!(false, "diverged: {:?} vs {:?}", a, b.is_some()),
                }
            }
            let mut rows = Vec::new();
            table.resolve_rows(&probe_ips, &mut rows);
            let via_rows: Vec<LatLon> = rows.iter().map(|&r| table.coords(r)).collect();
            prop_assert_eq!(via_rows, index.coords_of(&probe_ips));
            let via_cc: Vec<CountryCode> = rows.iter().map(|&r| table.country(r)).collect();
            prop_assert_eq!(via_cc, index.countries_of(&probe_ips));
        }

        /// The CSR join reproduces every attack's source list exactly,
        /// serial and parallel builds alike.
        #[test]
        fn source_table_round_trips_sources(
            roster in proptest::collection::vec(0u8..32, 0..16),
            source_lists in proptest::collection::vec(
                proptest::collection::vec(0u8..64, 1..12), 0..12,
            ),
        ) {
            let bots: Vec<BotRecord> = roster
                .iter()
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .map(|&l| bot(l, "US", 10.0, 20.0))
                .collect();
            let attacks: Vec<AttackRecord> = source_lists
                .iter()
                .enumerate()
                .map(|(i, s)| attack(i as u64 + 1, s.clone()))
                .collect();
            let ds = dataset(bots, attacks);
            let table = BotTable::build(&ds);
            let index = BotIndex::build(&ds);
            let serial = SourceTable::build(&ds, &table, false);
            let threaded = SourceTable::build(&ds, &table, true);
            for (i, a) in ds.attacks().iter().enumerate() {
                for s in [&serial, &threaded] {
                    let back: Vec<IpAddr4> =
                        s.ids_of(i).iter().map(|&id| s.ip_of(id)).collect();
                    prop_assert_eq!(&back, &a.sources);
                    for &id in s.ids_of(i) {
                        let row = s.bot_row(id);
                        prop_assert_eq!(row != NO_BOT, index.lookup(s.ip_of(id)).is_some());
                        if row != NO_BOT {
                            prop_assert_eq!(table.ip(row), s.ip_of(id));
                        }
                    }
                }
            }
            prop_assert_eq!(serial.dict_len(), threaded.dict_len());
            prop_assert_eq!(&serial.ids, &threaded.ids);
            prop_assert_eq!(&serial.rows, &threaded.rows);
            prop_assert_eq!(&serial.dict, &threaded.dict);
        }
    }
}
