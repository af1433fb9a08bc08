//! [`CowSlab`] — the copy-on-write slot table under every structure a
//! store snapshot shares.
//!
//! The engine's writers build each commit on a clone of the store and
//! publish it atomically (shadow paging), so every per-store table must
//! make [`Clone`] cheap and a point update proportional to what it
//! touches. `CowSlab` is that table: a slab of `Arc`-shared values
//! addressed by a dense index, held in **chunks** of `CHUNK`
//! pointers that are themselves `Arc`-shared.
//!
//! * [`Clone`] copies the chunk table only — one refcount bump per
//!   `CHUNK` slots, no per-value work.
//! * The first [`get_mut`](CowSlab::get_mut), [`set`](CowSlab::set) or
//!   [`take`](CowSlab::take) on a shared slot shadow-copies its chunk
//!   (`CHUNK` pointers) and then exactly that one value
//!   ([`Arc::make_mut`]); every other value stays shared with the
//!   clones.
//! * An unshared slab pays two pointer indirections and no copies, so
//!   exclusive (`&mut`) update paths behave as on a plain `Vec`.
//!
//! The R\*-tree's node store keys it by `NodeId`; the storage layer
//! reuses it for the cluster units (also keyed by `NodeId`). The
//! per-object table (`spatialdb_storage::ObjectTable`) chunks its
//! bucket directory the same way but keeps its own chunk vector.

use std::sync::Arc;

/// Slots per chunk: what the first write to a shared chunk copies
/// (pointers, not values), and the factor by which a clone is cheaper
/// than one refcount bump per value.
const CHUNK: usize = 64;

type Chunk<T> = [Option<Arc<T>>; CHUNK];

/// A chunked slab of `Arc`-shared values with copy-on-write clones. See
/// the [module documentation](self).
#[derive(Clone, Debug)]
pub struct CowSlab<T> {
    chunks: Vec<Arc<Chunk<T>>>,
    /// One past the highest slot ever occupied.
    slots: usize,
    /// Occupied slots.
    len: usize,
}

impl<T> Default for CowSlab<T> {
    fn default() -> Self {
        CowSlab {
            chunks: Vec::new(),
            slots: 0,
            len: 0,
        }
    }
}

impl<T: Clone> CowSlab<T> {
    /// Empty slab.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of occupied slots.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no slot is occupied.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// One past the highest slot ever occupied — the index an
    /// append-style caller stores its next value at.
    #[inline]
    pub fn slots(&self) -> usize {
        self.slots
    }

    #[inline]
    fn slot(&self, index: usize) -> Option<&Arc<T>> {
        self.chunks.get(index / CHUNK)?[index % CHUNK].as_ref()
    }

    /// The value in slot `index`, if occupied.
    #[inline]
    pub fn get(&self, index: usize) -> Option<&T> {
        self.slot(index).map(|v| &**v)
    }

    /// Mutable access to the value in slot `index`, shadow-copying its
    /// chunk and the value first if a clone still shares them. An empty
    /// slot copies nothing.
    pub fn get_mut(&mut self, index: usize) -> Option<&mut T> {
        self.slot(index)?;
        let chunk = Arc::make_mut(&mut self.chunks[index / CHUNK]);
        chunk[index % CHUNK].as_mut().map(Arc::make_mut)
    }

    /// Store `value` in slot `index` (growing the slab as needed),
    /// returning the value it replaces.
    pub fn set(&mut self, index: usize, value: T) -> Option<Arc<T>> {
        while self.chunks.len() <= index / CHUNK {
            self.chunks.push(Arc::new(std::array::from_fn(|_| None)));
        }
        self.slots = self.slots.max(index + 1);
        let chunk = Arc::make_mut(&mut self.chunks[index / CHUNK]);
        let old = chunk[index % CHUNK].replace(Arc::new(value));
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Empty slot `index`, returning what it held. Handed back behind
    /// its `Arc`: a value a clone still shares is not copied just to be
    /// inspected and dropped.
    pub fn take(&mut self, index: usize) -> Option<Arc<T>> {
        self.slot(index)?;
        self.len -= 1;
        Arc::make_mut(&mut self.chunks[index / CHUNK])[index % CHUNK].take()
    }

    /// `(index, value)` pairs of the occupied slots, ascending.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &T)> {
        self.chunks
            .iter()
            .flat_map(|chunk| chunk.iter())
            .enumerate()
            .filter_map(|(i, v)| v.as_deref().map(|v| (i, v)))
    }

    /// Number of occupied slots whose value is shared with another
    /// (cloned) slab — i.e. not yet shadow-copied. Diagnostics for the
    /// copy-on-write tests.
    pub fn shared(&self) -> usize {
        self.chunks
            .iter()
            .map(|chunk| {
                let values = chunk.iter().flatten();
                if Arc::strong_count(chunk) > 1 {
                    values.count()
                } else {
                    values.filter(|v| Arc::strong_count(v) > 1).count()
                }
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_take_and_growth() {
        let mut s: CowSlab<String> = CowSlab::new();
        assert!(s.is_empty());
        assert_eq!(s.get(3), None);
        assert_eq!(s.set(3, "c".into()), None);
        assert_eq!(s.set(200, "z".into()), None);
        assert_eq!((s.len(), s.slots()), (2, 201));
        assert_eq!(s.get(3).map(String::as_str), Some("c"));
        assert_eq!(s.get(4), None);
        assert_eq!(s.get(10_000), None);
        assert_eq!(s.set(3, "C".into()).as_deref(), Some(&"c".to_string()));
        assert_eq!(s.len(), 2);
        s.get_mut(200).unwrap().push('!');
        assert_eq!(
            s.iter().map(|(i, v)| (i, v.as_str())).collect::<Vec<_>>(),
            vec![(3, "C"), (200, "z!")]
        );
        assert_eq!(s.take(3).as_deref(), Some(&"C".to_string()));
        assert_eq!(s.take(3), None);
        assert_eq!((s.len(), s.slots()), (1, 201));
        assert!(s.get_mut(3).is_none());
    }

    #[test]
    fn clone_is_copy_on_write_per_value() {
        let mut s: CowSlab<Vec<u32>> = CowSlab::new();
        for i in 0..300 {
            s.set(i, vec![i as u32]);
        }
        let snapshot = s.clone();
        assert_eq!(s.shared(), 300, "a clone shares every value");

        // One write unshares exactly one value (and its chunk's
        // pointers, which `shared` sees through).
        s.get_mut(70).unwrap().push(7);
        assert_eq!(s.shared(), 299);
        assert_eq!(snapshot.get(70), Some(&vec![70]));
        assert_eq!(s.get(70), Some(&vec![70, 7]));

        // Misses copy nothing.
        assert!(s.get_mut(5_000).is_none());
        assert!(s.take(5_000).is_none());
        assert_eq!(s.shared(), 299);

        // Removing and replacing leave the snapshot's view intact.
        assert_eq!(s.take(71).as_deref(), Some(&vec![71]));
        s.set(72, vec![0]);
        s.set(300, vec![300]);
        assert_eq!(snapshot.len(), 300);
        assert_eq!(snapshot.get(71), Some(&vec![71]));
        assert_eq!(snapshot.get(72), Some(&vec![72]));
        assert_eq!(snapshot.get(300), None);
        assert_eq!((s.len(), s.slots()), (300, 301));

        drop(snapshot);
        assert_eq!(s.shared(), 0);
    }
}
