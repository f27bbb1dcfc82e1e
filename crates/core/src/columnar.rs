//! The columnar bot substrate: the trace's big join as sorted columns
//! instead of hash maps.
//!
//! The paper's source analyses (§IV) resolve every one of the trace's
//! bot IPs once per attack-participation — and bots recur across
//! hundreds of attacks. This module amortizes that work to once per
//! *trace*, through the pieces the epoch fold
//! ([`crate::epoch::EpochContext`]) joins an epoch with:
//!
//! * `last_per_ip` — an epoch's bot records as radix-sorted
//!   `(ip << 32) | position` keys, one per IP, the last record winning;
//! * [`SourceTable`] — the attack→source join in CSR form: every
//!   distinct source IP is interned into a dictionary once and each
//!   attack's source list becomes a dense `u32` id slice. The id space
//!   *is* the join — a per-id row column maps each id to its bot row, a
//!   resolved id's row being the id itself — so a single load replaces
//!   the per-lookup hash probe. Downstream passes (dispersion, shift,
//!   weekly bot counts, the defense blacklist replay) work on row ids
//!   and cached triples;
//! * `fan_out` — the worker pool the source sweep and the family
//!   resolution jobs run on, in deterministic chunks, so a pooled fold
//!   is the same as a serial one.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use ddos_schema::hashing::FastMap;
use ddos_schema::{AttackRecord, IpAddr4};

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

/// Runs `side` on a scoped thread while the calling thread runs `main`
/// when `pooled`, or both on the calling thread, `side` first,
/// otherwise. The two must not share mutable state, so the results are
/// the same either way.
///
/// # Panics
///
/// If either job panics.
pub(crate) fn beside<A, B>(
    pooled: bool,
    side: impl FnOnce() -> A + Send,
    main: impl FnOnce() -> B,
) -> (A, B)
where
    A: Send,
{
    if !pooled {
        return (side(), main());
    }
    crossbeam::thread::scope(|scope| {
        let handle = scope.spawn(|_| side());
        let b = main();
        (handle.join().expect("side job panicked"), b)
    })
    .expect("side job scope panicked")
}

/// A 16-bit-prefix bucket index over a sorted IP column.
///
/// `starts[p]..starts[p + 1]` is the run of addresses whose high half
/// is `p`, so a lookup binary-searches only that run instead of the
/// whole column. Same result as a full binary search (the column is
/// sorted and the prefix is its leading bits). Bot IPs cluster into
/// country-sized /16 blocks, so a bucket is a short sorted run; the
/// source sweep looks an epoch's new bots up through it.
#[derive(Debug, Clone)]
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

/// Sorts `(ip << 32) | position` keys by IP and keeps one key per IP:
/// the one with the greatest position, the roster's last-wins rule.
/// The radix sort is stable and the full key breaks ties by position,
/// so each IP's run ends with its last record.
pub(crate) fn last_per_ip(keys: &mut Vec<u64>) {
    radix_sort_by_ip(keys);
    let mut kept = 0;
    for i in 0..keys.len() {
        if i + 1 == keys.len() || keys[i + 1] >> 32 != keys[i] >> 32 {
            keys[kept] = keys[i];
            kept += 1;
        }
    }
    keys.truncate(kept);
}

/// Slots of a [`ResolveCache`]: 2 MiB of entries per worker.
const CACHE_BITS: u32 = 18;

/// One pool worker's direct-mapped resolve cache, `(ip << 32) | id` per
/// slot, allocated on first use.
///
/// A bot takes part in ~5 attacks on average and rosters recur week
/// over week, so most lookups re-resolve a recent address: a cache hit
/// is one multiply and one load instead of a hash probe or a bucket
/// search. Only resolved ids are cached (an id is `< NO_BOT`, so no
/// live entry equals the `u64::MAX` empty sentinel). A dictionary id
/// never changes, so an entry stays valid across appends, and a stale
/// slot merely falls through to the lookup: the output is identical
/// with or without the cache.
#[derive(Debug, Clone, Default)]
pub(crate) struct ResolveCache {
    slots: Vec<u64>,
}

impl ResolveCache {
    /// Resolves `ip` through the cache, filling the slot from `lookup`
    /// on a miss.
    #[inline]
    fn resolve(&mut self, ip: IpAddr4, lookup: impl FnOnce(IpAddr4) -> Option<u32>) -> Option<u32> {
        let slot = (ip.value().wrapping_mul(0x9E37_79B9) >> (32 - CACHE_BITS)) as usize;
        let entry = self.slots[slot];
        if (entry >> 32) as u32 == ip.value() && entry != u64::MAX {
            return Some(entry as u32);
        }
        let id = lookup(ip)?;
        self.slots[slot] = (u64::from(ip.value()) << 32) | u64::from(id);
        Some(id)
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
/// The epoch fold ([`crate::epoch::EpochContext`]) grows the table one
/// epoch at a time and never renumbers an id. Each epoch numbers its
/// new bot IPs in IP order, then its new unresolvable sources in IP
/// order; a source-only id is promoted in place when its bot record
/// arrives. A one-epoch fold, the one-shot build, therefore numbers
/// the sorted bot IPs first and the sorted unresolvable sources after
/// them.
#[derive(Debug, Clone, PartialEq, Eq)]
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
    /// Appends the id slices of an epoch's `attacks` and returns how
    /// many new unresolvable sources it interned. The epoch's new bot
    /// IPs must be the ids from `fresh` on, interned in ascending IP
    /// order, and `index` must map every id below `fresh`.
    ///
    /// The attacks are cut into one chunk per cache, and the pool sweeps
    /// each chunk into its own slices of the id and unresolved columns
    /// ([`fan_out`]). A source resolves through the worker's cache, then
    /// `index`, then a bucketed search of the new bots' sorted IPs; a
    /// miss is counted unresolved. The distinct misses are then interned
    /// after the new bots, in IP order, so the numbering does not depend
    /// on the chunking.
    pub(crate) fn append_attacks(
        &mut self,
        attacks: &[AttackRecord],
        fresh: usize,
        index: &FastMap<IpAddr4, u32>,
        caches: &mut [ResolveCache],
    ) -> usize {
        let first = self.unresolved.len();
        let base = self.ids.len();
        let mut total = base as u64;
        for a in attacks {
            total += a.sources.len() as u64;
            assert!(
                total < u64::from(NO_BOT),
                "trace exceeds u32 participations"
            );
            self.offsets.push(total as u32);
        }
        // The sweep and the miss interning below write every new slot,
        // so a fresh column takes zeroed pages instead of a fill.
        if self.ids.is_empty() {
            self.ids = vec![0; total as usize];
        } else {
            self.ids.resize(total as usize, 0);
        }
        self.unresolved.resize(first + attacks.len(), 0);

        let new_bots = &self.dict[fresh..];
        let buckets = IpBuckets::build(new_bots);
        let lookup = |ip: IpAddr4| {
            index.get(&ip).copied().or_else(|| {
                let k = buckets.resolve(new_bots, ip)?;
                Some(fresh as u32 + k)
            })
        };
        let rows = &self.rows;
        let offsets = &self.offsets[first..];
        let ranges = chunk_ranges(attacks.len(), caches.len());
        let mut chunks = Vec::with_capacity(ranges.len());
        let (mut ids, mut unresolved) = (&mut self.ids[base..], &mut self.unresolved[first..]);
        for r in &ranges {
            let len = (offsets[r.end] - offsets[r.start]) as usize;
            let (chunk_ids, rest_ids) = std::mem::take(&mut ids).split_at_mut(len);
            let (counts, rest) = std::mem::take(&mut unresolved).split_at_mut(r.len());
            (ids, unresolved) = (rest_ids, rest);
            chunks.push(Mutex::new(Some((chunk_ids, counts))));
        }
        let misses = fan_out(ranges.len(), caches, |j, cache| {
            if cache.slots.is_empty() {
                cache.slots = vec![u64::MAX; 1 << CACHE_BITS];
            }
            let (out, counts) = chunks[j]
                .lock()
                .expect("chunk lock")
                .take()
                .expect("each chunk is swept once");
            let chunk_base = offsets[ranges[j].start];
            // Each miss as `(ip << 32) | position`.
            let mut misses: Vec<u64> = Vec::new();
            for (i, count) in ranges[j].clone().zip(counts.iter_mut()) {
                let lo = offsets[i] - chunk_base;
                for (k, &ip) in (lo..).zip(&attacks[i].sources) {
                    match cache.resolve(ip, lookup) {
                        Some(id) => {
                            out[k as usize] = id;
                            // The epoch's new bots are bots; an earlier
                            // id may be source-only.
                            *count +=
                                u32::from((id as usize) < fresh && rows[id as usize] == NO_BOT);
                        }
                        None => {
                            *count += 1;
                            misses.push((u64::from(ip.value()) << 32) | u64::from(chunk_base + k));
                        }
                    }
                }
            }
            misses
        });
        drop(chunks);

        let mut misses = misses.concat();
        misses.sort_unstable();
        let before = self.dict.len();
        let mut id = NO_BOT;
        for (i, &key) in misses.iter().enumerate() {
            let ip = (key >> 32) as u32;
            if i == 0 || misses[i - 1] >> 32 != u64::from(ip) {
                id = self.intern(IpAddr4(ip), false);
            }
            self.ids[key as u32 as usize] = id;
        }
        self.dict.len() - before
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

    /// Makes room for `additional` more dictionary ids.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.dict.reserve(additional);
        self.rows.reserve(additional);
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
        Asn, BotnetId, CityId, Dataset, DatasetBuilder, DdosId, Family, LatLon, OrgId, Protocol,
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

    /// An epoch's bot keys, `(ip << 32) | roster position`.
    fn keys_of(ds: &Dataset) -> Vec<u64> {
        ds.bots()
            .iter()
            .enumerate()
            .map(|(p, b)| (u64::from(b.ip.value()) << 32) | p as u64)
            .collect()
    }

    /// A table whose new bots are `bots` (ascending, as an epoch interns
    /// them) and whose attacks are `ds`'s, swept by `workers` caches.
    fn joined(bots: &[u8], ds: &Dataset, workers: usize) -> SourceTable {
        let mut table = SourceTable::default();
        for &last in bots {
            table.intern(ip(last), true);
        }
        let mut caches = vec![ResolveCache::default(); workers];
        table.append_attacks(ds.attacks(), 0, &FastMap::default(), &mut caches);
        table
    }

    #[test]
    fn duplicate_bot_ips_are_last_wins() {
        let ds = dataset(
            vec![
                bot(5, "RU", 55.0, 37.0),
                bot(5, "DE", 52.0, 13.0),
                bot(3, "US", 40.0, -74.0),
            ],
            vec![],
        );
        let mut keys = keys_of(&ds);
        last_per_ip(&mut keys);
        let key = |last: u8, position: u64| (u64::from(ip(last).value()) << 32) | position;
        assert_eq!(keys, [key(3, 2), key(5, 1)]);
        let kept = ds.bots()[1].location;
        assert_eq!(kept.country, "DE".parse().unwrap());
        let idx = BotIndex::build(&ds);
        assert_eq!(idx.lookup(ip(5)), Some((kept.country, kept.coords)));
    }

    #[test]
    fn source_table_interns_every_source() {
        let ds = dataset(
            vec![],
            vec![
                attack(1, vec![3, 2, 1, 3]),
                attack(2, vec![2]),
                attack(3, vec![3]),
            ],
        );
        for workers in [1, 2] {
            let s = joined(&[1], &ds, workers);
            assert_eq!(s.participations(), 6);
            assert_eq!(s.dict_len(), 3); // 203.0.113.{1,2,3}
            let a0 = s.ids_of(0);
            let back: Vec<IpAddr4> = a0.iter().map(|&id| s.ip_of(id)).collect();
            assert_eq!(back, [ip(3), ip(2), ip(1), ip(3)]);
            assert_eq!(a0[0], a0[3], "same IP, same id");
            // The bot first, then the misses in IP order.
            assert_eq!(a0, [2, 1, 0, 2]);
            assert_eq!(s.bot_row(0), 0, "a bot's row is its id");
            assert_eq!((s.bot_row(1), s.bot_row(2)), (NO_BOT, NO_BOT));
            let unresolved: Vec<u32> = (0..3).map(|i| s.unresolved_in(i)).collect();
            assert_eq!(unresolved, [3, 1, 1]);
            assert_eq!(s.unresolved_total(), 5);
        }
    }

    #[test]
    fn empty_dataset_builds_empty_tables() {
        let ds = dataset(vec![], vec![]);
        let s = joined(&[], &ds, 2);
        assert_eq!(s.dict_len(), 0);
        assert_eq!(s.participations(), 0);
        assert_eq!(s.unresolved_total(), 0);
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
        /// The sorted bot keys keep exactly `BotIndex`'s IPs, ascending,
        /// each with the record `BotIndex::lookup` returns, on arbitrary
        /// rosters, duplicates included.
        #[test]
        fn last_per_ip_matches_bot_index(
            roster in proptest::collection::vec(
                (0u8..48, prop::sample::select(vec!["US", "RU", "DE"]),
                 -89.0f64..89.0, -179.0f64..179.0),
                0..64,
            ),
        ) {
            let bots: Vec<BotRecord> = roster
                .into_iter()
                .map(|(last, cc, lat, lon)| bot(last, cc, lat, lon))
                .collect();
            let ds = dataset(bots, vec![]);
            let index = BotIndex::build(&ds);
            let mut keys = keys_of(&ds);
            last_per_ip(&mut keys);
            prop_assert_eq!(keys.len(), index.len());
            prop_assert!(keys.windows(2).all(|w| w[0] >> 32 < w[1] >> 32));
            for &key in &keys {
                let b = &ds.bots()[key as u32 as usize];
                prop_assert_eq!(u64::from(b.ip.value()), key >> 32);
                prop_assert_eq!(
                    index.lookup(b.ip),
                    Some((b.location.country, b.location.coords))
                );
            }
        }

        /// The CSR join reproduces every attack's source list exactly,
        /// and one cache and several build the same columns.
        #[test]
        fn source_table_round_trips_sources(
            roster in proptest::collection::vec(0u8..32, 0..16),
            source_lists in proptest::collection::vec(
                proptest::collection::vec(0u8..64, 1..12), 0..12,
            ),
        ) {
            let roster: Vec<u8> = roster
                .into_iter()
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .collect();
            let bots: Vec<BotRecord> =
                roster.iter().map(|&l| bot(l, "US", 10.0, 20.0)).collect();
            let attacks: Vec<AttackRecord> = source_lists
                .iter()
                .enumerate()
                .map(|(i, s)| attack(i as u64 + 1, s.clone()))
                .collect();
            let ds = dataset(bots, attacks);
            let index = BotIndex::build(&ds);
            let serial = joined(&roster, &ds, 1);
            let threaded = joined(&roster, &ds, 3);
            for (i, a) in ds.attacks().iter().enumerate() {
                for s in [&serial, &threaded] {
                    let back: Vec<IpAddr4> =
                        s.ids_of(i).iter().map(|&id| s.ip_of(id)).collect();
                    prop_assert_eq!(&back, &a.sources);
                    let mut misses = 0;
                    for &id in s.ids_of(i) {
                        let row = s.bot_row(id);
                        prop_assert_eq!(row != NO_BOT, index.lookup(s.ip_of(id)).is_some());
                        if row == NO_BOT {
                            misses += 1;
                        } else {
                            prop_assert_eq!(row, id);
                        }
                    }
                    prop_assert_eq!(s.unresolved_in(i), misses);
                }
            }
            prop_assert_eq!(serial.dict_len(), threaded.dict_len());
            prop_assert_eq!(&serial.ids, &threaded.ids);
            prop_assert_eq!(&serial.rows, &threaded.rows);
            prop_assert_eq!(&serial.dict, &threaded.dict);
            prop_assert_eq!(&serial.unresolved, &threaded.unresolved);
        }
    }
}
