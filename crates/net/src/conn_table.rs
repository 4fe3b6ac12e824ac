//! Per-connection state found by index.
//!
//! [`Fabric::new_conn`](crate::Fabric::new_conn) issues connection ids
//! densely from zero, so whoever keeps state per connection — a dataplane
//! thread's flow table, the server's routes — can index a `Vec` with the
//! id instead of hashing it, the way a flow-steered NIC hands the
//! dataplane a connection it finds by index.

use std::collections::HashMap;

use crate::fabric::ConnId;

/// Ids below this index the dense table. A fabric would have to open a
/// million connections to issue one at or above it; an id that large is
/// one nobody issued, and it goes to a side map so that it costs memory
/// for one entry, not for every id below it.
const DENSE_IDS: u64 = 1 << 20;

/// A map from [`ConnId`] to `T`: an index into a `Vec` for the ids a
/// fabric issues, which is every lookup of a run.
#[derive(Debug, Clone)]
pub struct ConnTable<T> {
    dense: Vec<Option<T>>,
    /// Entries for ids at or above [`DENSE_IDS`]; empty in practice.
    stray: HashMap<ConnId, T>,
    len: usize,
}

impl<T> Default for ConnTable<T> {
    fn default() -> Self {
        ConnTable {
            dense: Vec::new(),
            stray: HashMap::new(),
            len: 0,
        }
    }
}

impl<T> ConnTable<T> {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Connections with an entry.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no connection has an entry.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The entry for `conn`, if any.
    #[inline]
    pub fn get(&self, conn: ConnId) -> Option<&T> {
        match self.dense.get(conn.0 as usize) {
            Some(slot) => slot.as_ref(),
            None => self.stray_get(conn),
        }
    }

    #[cold]
    fn stray_get(&self, conn: ConnId) -> Option<&T> {
        self.stray.get(&conn)
    }

    /// Exclusive access to the entry for `conn`, if any.
    pub fn get_mut(&mut self, conn: ConnId) -> Option<&mut T> {
        if conn.0 < DENSE_IDS {
            self.dense.get_mut(conn.0 as usize)?.as_mut()
        } else {
            self.stray.get_mut(&conn)
        }
    }

    /// Sets the entry for `conn`, returning the one it replaces. The dense
    /// table grows here, to the largest id inserted, and nowhere else.
    pub fn insert(&mut self, conn: ConnId, value: T) -> Option<T> {
        let old = if conn.0 < DENSE_IDS {
            let i = conn.0 as usize;
            if i >= self.dense.len() {
                self.dense.resize_with(i + 1, || None);
            }
            self.dense[i].replace(value)
        } else {
            self.stray.insert(conn, value)
        };
        self.len += usize::from(old.is_none());
        old
    }

    /// Removes and returns the entry for `conn`.
    pub fn remove(&mut self, conn: ConnId) -> Option<T> {
        let old = if conn.0 < DENSE_IDS {
            self.dense.get_mut(conn.0 as usize)?.take()
        } else {
            self.stray.remove(&conn)
        };
        self.len -= usize::from(old.is_some());
        old
    }

    /// Keeps only the entries `keep` approves of.
    pub fn retain(&mut self, mut keep: impl FnMut(ConnId, &T) -> bool) {
        let mut removed = 0;
        for (i, slot) in self.dense.iter_mut().enumerate() {
            if slot.as_ref().is_some_and(|v| !keep(ConnId(i as u64), v)) {
                *slot = None;
                removed += 1;
            }
        }
        let strays = self.stray.len();
        self.stray.retain(|&conn, v| keep(conn, v));
        self.len -= removed + (strays - self.stray.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn behaves_like_a_map_on_dense_and_stray_ids() {
        let ids = [0, 1, 7, 4_999, DENSE_IDS - 1, DENSE_IDS, u64::MAX];
        let mut t = ConnTable::new();
        let mut model = HashMap::new();
        for (n, &id) in ids.iter().enumerate() {
            assert_eq!(t.insert(ConnId(id), n), model.insert(id, n));
        }
        assert_eq!(t.insert(ConnId(7), 70), model.insert(7, 70));
        assert_eq!(t.len(), model.len());
        for id in ids
            .into_iter()
            .chain([2, 5_000, DENSE_IDS + 1, u64::MAX - 1])
        {
            assert_eq!(t.get(ConnId(id)), model.get(&id), "id {id}");
            assert_eq!(t.get_mut(ConnId(id)).copied(), model.get(&id).copied());
        }
        t.retain(|conn, _| conn.0 % 2 == 1);
        model.retain(|id, _| id % 2 == 1);
        assert_eq!(t.len(), model.len());
        for id in ids {
            assert_eq!(t.remove(ConnId(id)), model.remove(&id), "id {id}");
            assert_eq!(t.remove(ConnId(id)), None);
        }
        assert!(t.is_empty());
    }

    #[test]
    fn a_hostile_id_costs_one_entry() {
        let mut t = ConnTable::new();
        t.insert(ConnId(u64::MAX), ());
        t.insert(ConnId(3), ());
        assert_eq!(
            t.dense.len(),
            4,
            "the dense table grew for the issued id only"
        );
        assert_eq!(t.stray.len(), 1);
    }
}
