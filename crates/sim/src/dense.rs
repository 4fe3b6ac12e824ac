//! State per id, found by index.
//!
//! Ids issued densely from zero — the fabric's connection ids, the
//! tenants of a run — index a `Vec` instead of being hashed, the way a
//! flow-steered NIC hands the dataplane a connection it finds by index.

use std::collections::HashMap;
use std::hash::Hash;

/// An id a [`DenseTable`] finds by index.
pub trait DenseId: Copy + Eq + Hash {
    /// The id's index.
    fn index(self) -> u64;
    /// The id whose index is `index`.
    fn from_index(index: u64) -> Self;
}

/// Indices below this address the dense table. A run would have to issue
/// a million ids to reach one at or above it; an id that large is one
/// nobody issued, and it goes to a side map so that it costs memory for
/// one entry, not for every id below it.
const DENSE_IDS: u64 = 1 << 20;

/// A map from id to `T`: an index into a `Vec` for the ids a run issues,
/// which is every lookup of a run.
#[derive(Debug, Clone)]
pub struct DenseTable<K, T> {
    dense: Vec<Option<T>>,
    /// Entries for ids at or above [`DENSE_IDS`]; empty in practice.
    stray: HashMap<K, T>,
    len: usize,
}

impl<K, T> Default for DenseTable<K, T> {
    fn default() -> Self {
        DenseTable {
            dense: Vec::new(),
            stray: HashMap::new(),
            len: 0,
        }
    }
}

impl<K: DenseId, T> DenseTable<K, T> {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ids with an entry.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no id has an entry.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The entry for `id`, if any.
    #[inline]
    pub fn get(&self, id: K) -> Option<&T> {
        match self.dense.get(id.index() as usize) {
            Some(slot) => slot.as_ref(),
            None => self.stray_get(id),
        }
    }

    #[cold]
    fn stray_get(&self, id: K) -> Option<&T> {
        self.stray.get(&id)
    }

    /// Exclusive access to the entry for `id`, if any.
    #[inline]
    pub fn get_mut(&mut self, id: K) -> Option<&mut T> {
        if id.index() < DENSE_IDS {
            self.dense.get_mut(id.index() as usize)?.as_mut()
        } else {
            self.stray.get_mut(&id)
        }
    }

    /// The entry for `id`, made by `make` if there is none yet.
    #[inline]
    pub fn get_or_insert_with(&mut self, id: K, make: impl FnOnce() -> T) -> &mut T {
        let len = &mut self.len;
        if id.index() >= DENSE_IDS {
            return self.stray.entry(id).or_insert_with(|| {
                *len += 1;
                make()
            });
        }
        let i = id.index() as usize;
        if i >= self.dense.len() {
            self.dense.resize_with(i + 1, || None);
        }
        self.dense[i].get_or_insert_with(|| {
            *len += 1;
            make()
        })
    }

    /// Sets the entry for `id`, returning the one it replaces. The dense
    /// table grows here, to the largest index inserted, and nowhere else.
    pub fn insert(&mut self, id: K, value: T) -> Option<T> {
        let old = if id.index() < DENSE_IDS {
            let i = id.index() as usize;
            if i >= self.dense.len() {
                self.dense.resize_with(i + 1, || None);
            }
            self.dense[i].replace(value)
        } else {
            self.stray.insert(id, value)
        };
        self.len += usize::from(old.is_none());
        old
    }

    /// Removes and returns the entry for `id`.
    pub fn remove(&mut self, id: K) -> Option<T> {
        let old = if id.index() < DENSE_IDS {
            self.dense.get_mut(id.index() as usize)?.take()
        } else {
            self.stray.remove(&id)
        };
        self.len -= usize::from(old.is_some());
        old
    }

    /// Every entry: the dense ones in index order, then the strays.
    pub fn iter(&self) -> impl Iterator<Item = (K, &T)> {
        let dense = self.dense.iter().enumerate();
        let dense = dense.filter_map(|(i, slot)| Some((K::from_index(i as u64), slot.as_ref()?)));
        dense.chain(self.stray.iter().map(|(&id, v)| (id, v)))
    }

    /// Keeps only the entries `keep` approves of.
    pub fn retain(&mut self, mut keep: impl FnMut(K, &T) -> bool) {
        let mut removed = 0;
        for (i, slot) in self.dense.iter_mut().enumerate() {
            if slot
                .as_ref()
                .is_some_and(|v| !keep(K::from_index(i as u64), v))
            {
                *slot = None;
                removed += 1;
            }
        }
        let strays = self.stray.len();
        self.stray.retain(|&id, v| keep(id, v));
        self.len -= removed + (strays - self.stray.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl DenseId for u64 {
        fn index(self) -> u64 {
            self
        }

        fn from_index(index: u64) -> Self {
            index
        }
    }

    #[test]
    fn behaves_like_a_map_on_dense_and_stray_ids() {
        let ids = [0, 1, 7, 4_999, DENSE_IDS - 1, DENSE_IDS, u64::MAX];
        let mut t = DenseTable::new();
        let mut model = HashMap::new();
        for (n, &id) in ids.iter().enumerate() {
            assert_eq!(t.insert(id, n), model.insert(id, n));
        }
        assert_eq!(t.insert(7, 70), model.insert(7, 70));
        assert_eq!(*t.get_or_insert_with(7, || 0), 70);
        assert_eq!(
            *t.get_or_insert_with(8, || 80),
            *model.entry(8).or_insert(80)
        );
        assert_eq!(t.len(), model.len());
        for id in ids
            .into_iter()
            .chain([2, 8, 5_000, DENSE_IDS + 1, u64::MAX - 1])
        {
            assert_eq!(t.get(id), model.get(&id), "id {id}");
            assert_eq!(t.get_mut(id).copied(), model.get(&id).copied());
        }
        let mut seen: Vec<(u64, usize)> = t.iter().map(|(id, &v)| (id, v)).collect();
        let mut want: Vec<(u64, usize)> = model.iter().map(|(&id, &v)| (id, v)).collect();
        seen.sort_unstable();
        want.sort_unstable();
        assert_eq!(seen, want);
        t.retain(|id, _| id % 2 == 1);
        model.retain(|id, _| id % 2 == 1);
        assert_eq!(t.len(), model.len());
        for id in ids {
            assert_eq!(t.remove(id), model.remove(&id), "id {id}");
            assert_eq!(t.remove(id), None);
        }
        assert_eq!(t.len(), model.len());
    }

    #[test]
    fn a_hostile_id_costs_one_entry() {
        let mut t = DenseTable::new();
        t.insert(u64::MAX, ());
        t.get_or_insert_with(DENSE_IDS, || ());
        t.insert(3, ());
        assert_eq!(
            t.dense.len(),
            4,
            "the dense table grew for the issued id only"
        );
        assert_eq!(t.stray.len(), 2);
    }
}
