//! [`ObjectTable`] — the chunked, structurally shared per-object table
//! of the organization models.
//!
//! Every organization keeps one record per stored object (where its
//! exact representation lives, how large it is). A flat `HashMap` makes
//! a store snapshot cost O(objects): the copy-on-write write path of
//! `spatialdb-core` clones the store for every commit, and the map has
//! to be deep-copied each time. `ObjectTable` borrows the grid file's
//! shape instead — a small **directory** of pointers to fixed-load
//! **buckets**:
//!
//! * A bucket is an immutable, `Arc`-shared slice of `(id, record)`
//!   pairs; the directory holds the bucket pointers in `Arc`-shared
//!   chunks of `CHUNK`. [`Clone`] copies the chunk table only — one
//!   refcount bump per `CHUNK` buckets, no per-object work — and both
//!   copies share every bucket.
//! * [`insert`](ObjectTable::insert) and [`remove`](ObjectTable::remove)
//!   write a new version of the one bucket they change and repoint the
//!   directory (shadow-copying that chunk's pointers if a clone still
//!   shares them); [`update`](ObjectTable::update) edits a bucket in
//!   place unless a clone shares it. Everything else stays shared.
//! * A lookup is the directory entry (two small, hot arrays) and one
//!   pointer to the bucket, whose pairs sit inline behind it.
//! * The table grows by *linear hashing*: when the average load exceeds
//!   the bucket load constant, the next bucket in round-robin order is
//!   split in two. Growth is therefore one bucket at a time as well —
//!   there is never a whole-table rehash for a commit to pay for.
//!   Buckets are not merged back on removal; the directory keeps its
//!   high-water size. A bulk load skips the one-at-a-time growth
//!   ([`from_records`](ObjectTable::from_records)).
//!
//! Buckets are addressed by a fixed integer hash of the object id
//! rather than the standard library's keyed SipHash: ids are dense
//! integers handed out by the database's caller, the table sits on the
//! per-candidate read path, and a fixed hash keeps bucket assignment —
//! hence [`shared_buckets`](ObjectTable::shared_buckets) and the bytes a
//! commit copies — identical from run to run. Nothing observable
//! (answers, placement, statistics) depends on bucket order.

use spatialdb_disk::mix64;
use spatialdb_rtree::ObjectId;
use std::sync::Arc;

/// Average number of records per bucket above which the table splits
/// its next bucket. Larger buckets make a lookup's scan and a commit's
/// bucket copy longer, smaller ones the directory larger.
const BUCKET_LOAD: usize = 16;

/// Bucket pointers per directory chunk: what the first write to a
/// shared chunk copies, and the factor by which a clone is cheaper than
/// one refcount bump per bucket.
const CHUNK: usize = 64;

/// One bucket: its `(id, record)` pairs inline behind a single pointer.
type Bucket<V> = Arc<[(u64, V)]>;

#[inline]
fn position<V>(bucket: &[(u64, V)], key: u64) -> Option<usize> {
    bucket.iter().position(|e| e.0 == key)
}

/// A copy-on-write map from [`ObjectId`] to a per-object record `V`.
/// See the [module documentation](self).
#[derive(Clone, Debug)]
pub struct ObjectTable<V> {
    /// Bucket `i` — chunk `i / CHUNK`, position `i % CHUNK` — holds the
    /// keys whose hash addresses `i` (linear hashing:
    /// `(1 << level) + split` buckets).
    directory: Vec<Arc<Vec<Bucket<V>>>>,
    buckets: usize,
    /// Completed doubling rounds: buckets `split..1 << level` are still
    /// addressed by `level` hash bits, all others by `level + 1`.
    level: u32,
    /// The next bucket to split in the current round.
    split: usize,
    len: usize,
}

impl<V: Clone> Default for ObjectTable<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Clone> ObjectTable<V> {
    /// An empty table (one empty bucket).
    pub fn new() -> Self {
        let mut table = ObjectTable {
            directory: Vec::new(),
            buckets: 0,
            level: 0,
            split: 0,
            len: 0,
        };
        table.push_bucket(Vec::new().into());
        table
    }

    /// The table `records.len()` successive [`insert`](Self::insert)s
    /// build — same directory, same buckets in the same order — with the
    /// directory sized up front and every bucket slice allocated once
    /// instead of once per record: the bulk-load path.
    ///
    /// # Panics
    ///
    /// Panics if an id repeats.
    pub fn from_records(records: Vec<(ObjectId, V)>) -> Self {
        let buckets = records.len().div_ceil(BUCKET_LOAD).max(1);
        let level = buckets.ilog2();
        let mut table = ObjectTable {
            directory: Vec::with_capacity(buckets.div_ceil(CHUNK)),
            buckets: 0,
            level,
            split: buckets - (1 << level),
            len: records.len(),
        };
        // Stable counting sort of the record indices by bucket: `ends`
        // holds each bucket's fill position, finally its end.
        let slots: Vec<usize> = records.iter().map(|r| table.slot(r.0 .0)).collect();
        let mut ends = vec![0usize; buckets];
        for &slot in &slots {
            ends[slot] += 1;
        }
        let mut next = 0;
        for end in &mut ends {
            next += std::mem::replace(end, next);
        }
        let mut order = vec![0usize; records.len()];
        for (i, &slot) in slots.iter().enumerate() {
            order[ends[slot]] = i;
            ends[slot] += 1;
        }
        let mut start = 0;
        for end in ends {
            let members = order[start..end].iter().map(|&i| &records[i]);
            let bucket: Bucket<V> = members.map(|(oid, v)| (oid.0, v.clone())).collect();
            let distinct = (1..bucket.len()).all(|i| position(&bucket[..i], bucket[i].0).is_none());
            assert!(distinct, "an object id repeats in a bulk-built table");
            table.push_bucket(bucket);
            start = end;
        }
        table
    }

    /// Number of stored records.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// The ids of all records, in bucket order (sort if order matters).
    pub fn keys(&self) -> impl Iterator<Item = ObjectId> + '_ {
        let buckets = self.directory.iter().flat_map(|chunk| chunk.iter());
        buckets.flat_map(|bucket| bucket.iter().map(|e| ObjectId(e.0)))
    }

    /// `true` if no record is stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Directory index of the bucket responsible for `key`.
    #[inline]
    fn slot(&self, key: u64) -> usize {
        let h = mix64(key);
        let low = (h & ((1u64 << self.level) - 1)) as usize;
        if low < self.split {
            (h & ((1u64 << (self.level + 1)) - 1)) as usize
        } else {
            low
        }
    }

    #[inline]
    fn bucket(&self, slot: usize) -> &Bucket<V> {
        &self.directory[slot / CHUNK][slot % CHUNK]
    }

    /// The directory entry of bucket `slot`, its chunk shadow-copied
    /// first if a clone still shares it.
    fn bucket_entry(&mut self, slot: usize) -> &mut Bucket<V> {
        &mut Arc::make_mut(&mut self.directory[slot / CHUNK])[slot % CHUNK]
    }

    fn push_bucket(&mut self, bucket: Bucket<V>) {
        if self.buckets.is_multiple_of(CHUNK) {
            self.directory.push(Arc::new(Vec::with_capacity(CHUNK)));
        }
        let last = self.directory.last_mut().expect("chunk pushed above");
        Arc::make_mut(last).push(bucket);
        self.buckets += 1;
    }

    /// The record of `oid`, if stored.
    #[inline]
    pub fn get(&self, oid: ObjectId) -> Option<&V> {
        let bucket = self.bucket(self.slot(oid.0));
        position(bucket, oid.0).map(|i| &bucket[i].1)
    }

    /// `true` if `oid` has a record.
    #[inline]
    pub fn contains(&self, oid: ObjectId) -> bool {
        position(self.bucket(self.slot(oid.0)), oid.0).is_some()
    }

    /// Replace the record of `oid` by `f(record)`. The bucket is
    /// shadow-copied only if the record actually changes, so a caller
    /// re-asserting what is already recorded dirties nothing.
    ///
    /// # Panics
    ///
    /// Panics if `oid` is not stored.
    pub fn update(&mut self, oid: ObjectId, f: impl FnOnce(&V) -> V)
    where
        V: PartialEq,
    {
        let old = &self[oid];
        let new = f(old);
        if new != *old {
            let slot = self.slot(oid.0);
            let i = position(self.bucket(slot), oid.0).expect("record read above");
            Arc::make_mut(self.bucket_entry(slot))[i].1 = new;
        }
    }

    /// Store `value` under `oid`, returning the record it replaces.
    pub fn insert(&mut self, oid: ObjectId, value: V) -> Option<V> {
        let slot = self.slot(oid.0);
        if let Some(i) = position(self.bucket(slot), oid.0) {
            let record = &mut Arc::make_mut(self.bucket_entry(slot))[i].1;
            return Some(std::mem::replace(record, value));
        }
        let grown = self.bucket(slot).iter().cloned();
        let grown = grown.chain(std::iter::once((oid.0, value))).collect();
        *self.bucket_entry(slot) = grown;
        self.len += 1;
        if self.len > self.buckets * BUCKET_LOAD {
            self.split_next();
        }
        None
    }

    /// Remove the record of `oid`, returning it. A missing id copies
    /// nothing.
    pub fn remove(&mut self, oid: ObjectId) -> Option<V> {
        let slot = self.slot(oid.0);
        let bucket = self.bucket(slot);
        let i = position(bucket, oid.0)?;
        let removed = bucket[i].1.clone();
        let (before, after) = (&bucket[..i], &bucket[i + 1..]);
        let shrunk = before.iter().chain(after).cloned().collect();
        *self.bucket_entry(slot) = shrunk;
        self.len -= 1;
        Some(removed)
    }

    /// Linear hashing's growth step: split bucket `split` on the next
    /// hash bit, appending the new bucket to the directory.
    fn split_next(&mut self) {
        let bit = 1u64 << self.level;
        let (moved, kept): (Vec<_>, Vec<_>) = self
            .bucket(self.split)
            .iter()
            .cloned()
            .partition(|e| mix64(e.0) & bit != 0);
        *self.bucket_entry(self.split) = kept.into();
        self.push_bucket(moved.into());
        self.split += 1;
        if self.split as u64 == bit {
            self.level += 1;
            self.split = 0;
        }
    }

    /// Number of buckets.
    pub fn num_buckets(&self) -> usize {
        self.buckets
    }

    /// Number of buckets whose storage is shared with another (cloned)
    /// table — i.e. not yet shadow-copied. Diagnostics for the
    /// copy-on-write tests, like `NodeStore::shared_nodes`.
    pub fn shared_buckets(&self) -> usize {
        self.directory
            .iter()
            .map(|chunk| {
                if Arc::strong_count(chunk) > 1 {
                    chunk.len()
                } else {
                    chunk.iter().filter(|b| Arc::strong_count(b) > 1).count()
                }
            })
            .sum()
    }
}

impl<V: Clone> std::ops::Index<ObjectId> for ObjectTable<V> {
    type Output = V;

    /// The record of `oid`.
    ///
    /// # Panics
    ///
    /// Panics if `oid` is not stored.
    #[inline]
    fn index(&self, oid: ObjectId) -> &V {
        self.get(oid)
            .unwrap_or_else(|| panic!("object {oid} is not stored"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spatialdb_geom::rng::SmallRng;
    use std::collections::BTreeMap;

    #[test]
    fn random_stream_mirrors_std_hashmap() {
        let mut rng = SmallRng::seed_from_u64(1994);
        let mut table: ObjectTable<u64> = ObjectTable::new();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for step in 0..40_000u64 {
            // Skewed key universe: dense small ids plus strided large
            // ones (every low bit zero), to exercise the hash fold.
            let key = match rng.gen_range(0..3u64) {
                0 => rng.gen_range(0..2_000u64),
                1 => rng.gen_range(0..2_000u64) << 20,
                _ => rng.gen_range(0..50u64),
            };
            match rng.gen_range(0..4u64) {
                0 | 1 => {
                    assert_eq!(table.insert(ObjectId(key), step), model.insert(key, step));
                }
                2 => assert_eq!(table.remove(ObjectId(key)), model.remove(&key)),
                _ => {
                    if let Some(v) = model.get_mut(&key) {
                        *v += 1;
                        table.update(ObjectId(key), |v| v + 1);
                    }
                }
            }
            assert_eq!(table.get(ObjectId(key)), model.get(&key));
            assert_eq!(table.len(), model.len());
        }
        assert!(table.num_buckets() > 16, "the stream must force splits");
        for (k, v) in &model {
            assert_eq!(table[ObjectId(*k)], *v);
        }
        for k in 0..2_000u64 {
            assert_eq!(table.contains(ObjectId(k)), model.contains_key(&k));
        }
    }

    #[test]
    fn bulk_built_table_equals_the_insert_built_one() {
        let mut rng = SmallRng::seed_from_u64(7);
        // Sizes around the split thresholds, then several chunks.
        for n in [0usize, 1, 16, 17, 32, 33, 1_000, 40_000] {
            let mut model: BTreeMap<u64, u64> = BTreeMap::new();
            while model.len() < n {
                let key = match rng.gen_range(0..2u64) {
                    0 => rng.gen_range(0..100_000u64),
                    _ => rng.gen_range(0..100_000u64) << 20,
                };
                model.insert(key, rng.next_u64());
            }
            // Any order must build equal tables: shuffle the sorted ids.
            let mut records: Vec<_> = model.iter().map(|(k, v)| (ObjectId(*k), *v)).collect();
            for i in (1..records.len()).rev() {
                records.swap(i, rng.gen_range(0..i as u64 + 1) as usize);
            }
            let mut inserted: ObjectTable<u64> = ObjectTable::new();
            for (oid, v) in &records {
                inserted.insert(*oid, *v);
            }
            let built = ObjectTable::from_records(records);
            assert_eq!(built.len(), n);
            assert_eq!(built.num_buckets(), inserted.num_buckets(), "{n} records");
            for slot in 0..built.num_buckets() {
                assert_eq!(built.bucket(slot)[..], inserted.bucket(slot)[..]);
            }
            for (k, v) in &model {
                assert_eq!(built.get(ObjectId(*k)), Some(v));
            }
            assert!(built.keys().all(|oid| model.contains_key(&oid.0)));
            assert_eq!(built.keys().count(), n);
        }
    }

    #[test]
    #[should_panic(expected = "repeats")]
    fn bulk_build_rejects_a_repeated_id() {
        let records = (0..100u64).map(|k| (ObjectId(k % 99), k)).collect();
        let _ = ObjectTable::from_records(records);
    }

    #[test]
    fn load_stays_bounded_without_a_rehash() {
        let mut table: ObjectTable<u32> = ObjectTable::new();
        for k in 0..100_000u64 {
            table.insert(ObjectId(k), k as u32);
            assert!(table.len() <= table.num_buckets() * BUCKET_LOAD);
        }
        // Linear hashing leaves unsplit buckets at up to twice the load
        // of split ones; a good hash keeps the worst one within the
        // Poisson tail of that.
        let longest = (0..table.num_buckets())
            .map(|slot| table.bucket(slot).len())
            .max()
            .unwrap();
        assert!(longest <= 4 * BUCKET_LOAD, "longest bucket {longest}");
    }

    #[test]
    fn clone_then_mutate_leaves_the_clone_unchanged() {
        let mut table: ObjectTable<u64> = ObjectTable::new();
        for k in 0..5_000u64 {
            table.insert(ObjectId(k), k);
        }
        let snapshot = table.clone();
        assert_eq!(table.shared_buckets(), table.num_buckets());
        for k in (0..5_000u64).step_by(7) {
            table.remove(ObjectId(k));
        }
        for k in 5_000..6_000u64 {
            table.insert(ObjectId(k), k);
        }
        table.update(ObjectId(1), |_| 99);
        assert_eq!(snapshot.len(), 5_000);
        for k in 0..5_000u64 {
            assert_eq!(snapshot.get(ObjectId(k)), Some(&k), "snapshot lost {k}");
        }
        assert!(!snapshot.contains(ObjectId(5_500)));
        assert_eq!(table.get(ObjectId(0)), None);
        assert_eq!(table[ObjectId(1)], 99);
        assert_eq!(table[ObjectId(5_500)], 5_500);
    }

    #[test]
    fn one_mutation_unshares_exactly_one_bucket() {
        let mut table: ObjectTable<u64> = ObjectTable::new();
        for k in 0..5_000u64 {
            table.insert(ObjectId(k), k);
        }
        let buckets = table.num_buckets();

        let snapshot = table.clone();
        table.update(ObjectId(17), |v| v + 1);
        assert_eq!(table.shared_buckets(), buckets - 1);

        let snapshot2 = table.clone();
        assert_eq!(table.remove(ObjectId(18)), Some(18));
        assert_eq!(table.shared_buckets(), buckets - 1);

        // One below the split threshold now: this insert grows nothing.
        let snapshot3 = table.clone();
        table.insert(ObjectId(9_999), 1);
        assert_eq!(table.num_buckets(), buckets);
        assert_eq!(table.shared_buckets(), buckets - 1);

        // Misses and no-op updates copy nothing.
        let snapshot4 = table.clone();
        assert!(table.remove(ObjectId(77_777)).is_none());
        table.update(ObjectId(20), |v| *v);
        assert_eq!(table.shared_buckets(), buckets);
        table.update(ObjectId(20), |v| *v + 1);
        assert_eq!(table.shared_buckets(), buckets - 1);
        assert_eq!((table[ObjectId(20)], snapshot4[ObjectId(20)]), (21, 20));
        drop((snapshot, snapshot2, snapshot3, snapshot4));
        assert_eq!(table.shared_buckets(), 0);
    }
}
