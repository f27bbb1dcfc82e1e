//! Epoch slicing: time-partitioned views over a [`Dataset`].
//!
//! The epoch engine folds the trace epoch by epoch. A [`DatasetShard`]
//! is a borrowed view of one epoch's slice: the attacks that *start*
//! inside the epoch (a contiguous range of the globally
//! `(start, id)`-sorted attack list, so shard-local structures keep
//! stable global indices) plus the bot records *first seen* inside it.
//!
//! Epoch boundaries clamp (`clamped_epoch`): an attack starting, or a
//! bot record first seen, before the window lands in the first epoch,
//! one at/after the window end in the last. So every attack and every
//! bot record belongs to exactly one shard, the shards concatenate back
//! to the full trace, and the shards below a watermark hold exactly the
//! records of [`Dataset::epoch_prefix`].

use std::ops::Range;

use crate::dataset::{Dataset, DatasetBuilder};
use crate::record::{AttackRecord, BotRecord};
use crate::time::{Seconds, Timestamp, Window};

/// A borrowed view of one epoch's slice of a dataset.
#[derive(Debug, Clone)]
pub struct DatasetShard<'a> {
    dataset: &'a Dataset,
    epoch: usize,
    attack_range: Range<usize>,
    bot_rows: Vec<u32>,
}

impl<'a> DatasetShard<'a> {
    /// The dataset this shard views.
    #[inline]
    pub fn dataset(&self) -> &'a Dataset {
        self.dataset
    }

    /// Zero-based epoch index within the partition.
    #[inline]
    pub fn epoch(&self) -> usize {
        self.epoch
    }

    /// Global index range of the shard's attacks within
    /// [`Dataset::attacks`]; shards partition `0..dataset.len()` into
    /// consecutive ranges.
    #[inline]
    pub fn attack_range(&self) -> Range<usize> {
        self.attack_range.clone()
    }

    /// The shard's attacks, in global `(start, id)` order.
    pub fn attacks(&self) -> &'a [AttackRecord] {
        &self.dataset.attacks()[self.attack_range.clone()]
    }

    /// The shard's bot records as `(global row, record)`, ascending by
    /// global row: the records whose clamped first-seen epoch this is.
    /// Each record lands in exactly one shard, however long its
    /// observation span; a later record of a known IP overwrites the
    /// fold's row only when its global row is greater, matching the
    /// monolithic last-wins build.
    pub fn bots(&self) -> impl Iterator<Item = (u32, &'a BotRecord)> + '_ {
        let bots = self.dataset.bots();
        self.bot_rows.iter().map(move |&r| (r, &bots[r as usize]))
    }
}

/// The epoch holding `t` when `window` is sliced into `epochs` epochs of
/// `epoch_len` ([`Window::epochs`]), clamped to the first and last
/// epoch. The one assignment rule of [`Dataset::shards`] and
/// [`Dataset::epoch_prefix`], so the engine and its test oracle agree
/// on it exactly. A one-epoch slicing (the one-shot build's) divides
/// nothing.
fn clamped_epoch(window: Window, epoch_len: Seconds, epochs: usize, t: Timestamp) -> usize {
    if epochs <= 1 {
        return 0;
    }
    let last = (epochs - 1) as i64;
    (t - window.start)
        .get()
        .div_euclid(epoch_len.get().max(1))
        .clamp(0, last) as usize
}

impl Dataset {
    /// Partitions the trace into epoch shards of length `epoch_len`.
    ///
    /// Attacks are assigned by start time and bot records by first
    /// sighting, both through one clamped rule, so the shards' attack
    /// ranges are consecutive and cover `0..len()` exactly, and each bot
    /// record lands in exactly one shard.
    pub fn shards(&self, epoch_len: Seconds) -> Vec<DatasetShard<'_>> {
        let window = self.window();
        let epochs = window.epochs(epoch_len);
        let n = epochs.len();
        // Attack boundaries: boundary[i] = first attack of epoch i.
        // Clamping means epoch 0 starts at index 0 and the last epoch
        // runs to the end regardless of out-of-window starts.
        let mut bounds = Vec::with_capacity(n + 1);
        bounds.push(0usize);
        for e in &epochs[1..] {
            bounds.push(self.attacks().partition_point(|a| a.start < e.start));
        }
        bounds.push(self.len());
        let mut bot_rows: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (row, bot) in self.bots().iter().enumerate() {
            bot_rows[clamped_epoch(window, epoch_len, n, bot.first_seen)].push(row as u32);
        }
        bot_rows
            .into_iter()
            .enumerate()
            .map(|(i, rows)| DatasetShard {
                dataset: self,
                epoch: i,
                attack_range: bounds[i]..bounds[i + 1],
                bot_rows: rows,
            })
            .collect()
    }

    /// Materializes the dataset a consumer of the first `epochs` shards
    /// of [`Dataset::shards`]`(epoch_len)` has seen: the attacks of
    /// those shards (a prefix of the `(start, id)`-sorted attack list,
    /// clamping included) and the bot records *first seen* inside them,
    /// in original order, with botnet records and snapshot series
    /// carried over verbatim (they are trace-wide metadata, not epoch
    /// streams). The window stays the full trace window, so epoch
    /// boundaries — and therefore shard slicing of the prefix — line up
    /// with the original partition.
    ///
    /// With `epochs` equal to the shard count the result is equivalent
    /// to the original dataset. This is the test oracle of the
    /// incremental engine: a fresh run over `epoch_prefix(len, w)` is
    /// what the engine's report at watermark `w` must equal byte for
    /// byte. The engine itself never materializes a prefix — its passes
    /// borrow the covered slice of the attack list instead.
    ///
    /// # Panics
    ///
    /// If `epochs` is zero or exceeds the number of shards the slicing
    /// produces.
    pub fn epoch_prefix(&self, epoch_len: Seconds, epochs: usize) -> Dataset {
        let window = self.window();
        let spans = window.epochs(epoch_len);
        let n = spans.len();
        assert!(
            epochs >= 1 && epochs <= n,
            "epoch_prefix: epochs {epochs} outside 1..={n}"
        );
        // Same boundary rule as `shards`: epoch e starts at the first
        // attack with `start >= spans[e].start`; the last epoch (and so
        // a full prefix) runs to the end regardless of clamping.
        let attack_end = if epochs == n {
            self.len()
        } else {
            self.attacks()
                .partition_point(|a| a.start < spans[epochs].start)
        };
        let mut builder = DatasetBuilder::new(window).allow_out_of_window();
        builder.extend_attacks_prevalidated(self.attacks()[..attack_end].to_vec());
        builder.extend_bots_prevalidated(
            self.bots()
                .iter()
                .filter(|b| clamped_epoch(window, epoch_len, n, b.first_seen) < epochs)
                .copied()
                .collect(),
        );
        builder.extend_botnets_prevalidated(self.botnets().to_vec());
        for family in self.snapshot_families().collect::<Vec<_>>() {
            let series = self
                .snapshots(family)
                .expect("snapshot_families listed it")
                .clone();
            builder
                .set_snapshots(family, series)
                .expect("series copied from a valid dataset");
        }
        builder
            .build()
            .expect("a prefix of a valid dataset is valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetBuilder;
    use crate::record::test_fixtures::attack;
    use crate::time::Timestamp;

    fn window() -> Window {
        Window::new(Timestamp(0), Timestamp(1_000)).unwrap()
    }

    fn dataset() -> Dataset {
        let mut b = DatasetBuilder::new(window());
        for (id, start) in [(1, 50), (2, 250), (3, 260), (4, 990)] {
            b.push_attack(attack(id, start)).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn shards_partition_attacks_contiguously() {
        let ds = dataset();
        let shards = ds.shards(Seconds(250));
        assert_eq!(shards.len(), 4);
        let ranges: Vec<_> = shards.iter().map(|s| s.attack_range()).collect();
        assert_eq!(ranges, vec![0..1, 1..3, 3..3, 3..4]);
        assert_eq!(shards[1].attacks().len(), 2);
        assert!(shards[2].attacks().is_empty());
        // Concatenated ranges cover the whole trace.
        assert_eq!(ranges.last().unwrap().end, ds.len());
    }

    #[test]
    fn out_of_window_attacks_clamp_to_edge_epochs() {
        let mut b = DatasetBuilder::new(window()).allow_out_of_window();
        for (id, start) in [(1, -100), (2, 500), (3, 2_000)] {
            b.push_attack(attack(id, start)).unwrap();
        }
        let ds = b.build().unwrap();
        let shards = ds.shards(Seconds(500));
        assert_eq!(shards.len(), 2);
        assert_eq!(shards[0].attack_range(), 0..1);
        assert_eq!(shards[1].attack_range(), 1..3);
    }

    #[test]
    fn single_epoch_holds_everything() {
        let ds = dataset();
        let shards = ds.shards(Seconds(100_000));
        assert_eq!(shards.len(), 1);
        assert_eq!(shards[0].attack_range(), 0..ds.len());
    }

    fn bot(ip: u8, first_seen: i64, last_seen: i64) -> BotRecord {
        BotRecord {
            ip: crate::ip::IpAddr4::from_octets(10, 0, 0, ip),
            botnet: crate::ids::BotnetId(7),
            family: crate::family::Family::Dirtjumper,
            location: crate::record::test_fixtures::location(),
            first_seen: Timestamp(first_seen),
            last_seen: Timestamp(last_seen),
        }
    }

    fn dataset_with_bots() -> Dataset {
        let mut b = DatasetBuilder::new(window());
        for (id, start) in [(1, 50), (2, 250), (3, 260), (4, 990)] {
            b.push_attack(attack(id, start)).unwrap();
        }
        // First seen in epochs 0, 1, and 3 of a 250 s slicing; the
        // second record re-observes into epoch 2.
        b.push_bot(bot(1, 40, 60)).unwrap();
        b.push_bot(bot(2, 300, 600)).unwrap();
        b.push_bot(bot(3, 800, 990)).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn full_epoch_prefix_is_the_original_dataset() {
        let ds = dataset_with_bots();
        let n = ds.shards(Seconds(250)).len();
        let full = ds.epoch_prefix(Seconds(250), n);
        assert_eq!(
            crate::framed::encode(&full),
            crate::framed::encode(&ds),
            "a full prefix must round-trip the dataset"
        );
    }

    #[test]
    fn epoch_prefix_tracks_shard_attack_bounds_and_first_seen() {
        let ds = dataset_with_bots();
        let shards = ds.shards(Seconds(250));
        let expect_bots = [1, 2, 2, 3];
        for w in 1..=shards.len() {
            let prefix = ds.epoch_prefix(Seconds(250), w);
            assert_eq!(
                prefix.len(),
                shards[w - 1].attack_range().end,
                "watermark {w}: attack prefix"
            );
            assert_eq!(
                prefix.bots().len(),
                expect_bots[w - 1],
                "watermark {w}: bots first seen before epoch {w}"
            );
            // The window (and so any re-slicing) matches the original.
            assert_eq!(prefix.window(), ds.window());
            assert_eq!(prefix.botnets().len(), ds.botnets().len());
        }
    }

    #[test]
    fn each_bot_record_lands_in_its_clamped_first_seen_shard() {
        let mut b = DatasetBuilder::new(window());
        for (id, start) in [(1, 50), (2, 250), (3, 260), (4, 990)] {
            b.push_attack(attack(id, start)).unwrap();
        }
        // First seen before the window, after its end, inside epoch 1
        // while spanning epochs 1–3, and inside epoch 2, under a 250 s
        // slicing.
        b.push_bot(bot(1, -100, 40)).unwrap();
        b.push_bot(bot(2, 1_500, 1_600)).unwrap();
        b.push_bot(bot(3, 300, 900)).unwrap();
        b.push_bot(bot(4, 520, 530)).unwrap();
        let ds = b.build().unwrap();
        let len = Seconds(250);
        let shards = ds.shards(len);
        let rows: Vec<Vec<u32>> = shards
            .iter()
            .map(|s| s.bots().map(|(row, _)| row).collect())
            .collect();
        assert_eq!(rows, vec![vec![0], vec![2], vec![3], vec![1]]);
        for w in 1..=shards.len() {
            let mut seen: Vec<(u32, BotRecord)> = shards[..w]
                .iter()
                .flat_map(|s| s.bots().map(|(row, b)| (row, *b)))
                .collect();
            seen.sort_unstable_by_key(|&(row, _)| row);
            let seen: Vec<BotRecord> = seen.into_iter().map(|(_, b)| b).collect();
            assert_eq!(seen, ds.epoch_prefix(len, w).bots(), "watermark {w}");
        }
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn epoch_prefix_rejects_zero_epochs() {
        let _ = dataset_with_bots().epoch_prefix(Seconds(250), 0);
    }
}
