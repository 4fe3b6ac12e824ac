//! A generation-checked object pool for hot-path state.
//!
//! [`SlabPool`] recycles slots through an intrusive free list, so a
//! steady-state insert/take cycle performs zero heap allocations once the
//! pool has grown to its high-water mark. Every slot carries a generation
//! counter bumped on release; a [`PoolKey`] captures (slot, generation),
//! so a key held across a slot's reuse can never alias the new occupant —
//! lookups with a stale key return `None`.
//!
//! Keys pack losslessly into a `u64` ([`PoolKey::as_u64`]), which lets
//! them travel through existing cookie / command-id fields on the wire
//! and in NVMe commands without widening those types.

/// Sentinel for "no slot" in the free list.
const NIL: u32 = u32::MAX;

/// A generation-checked reference to a pooled value.
///
/// Obtained from [`SlabPool::insert`]; becomes stale once the value is
/// taken out (the slot's generation advances).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PoolKey {
    slot: u32,
    gen: u32,
}

impl PoolKey {
    /// Packs the key into a `u64` (slot in the high half, generation in
    /// the low half). The mapping is bijective: [`PoolKey::from_u64`]
    /// recovers the exact key.
    #[inline]
    pub fn as_u64(self) -> u64 {
        (u64::from(self.slot) << 32) | u64::from(self.gen)
    }

    /// Recovers a key packed by [`PoolKey::as_u64`].
    #[inline]
    pub const fn from_u64(v: u64) -> Self {
        PoolKey {
            slot: (v >> 32) as u32,
            gen: v as u32,
        }
    }
}

/// One pool slot: its current generation plus either a live value or a
/// free-list link.
#[derive(Debug, Clone)]
struct Slot<T> {
    gen: u32,
    /// `Some` while occupied; `None` while on the free list.
    value: Option<T>,
    /// Free-list link, `NIL` while occupied.
    next_free: u32,
}

/// A free-list slab recycling objects of type `T`.
///
/// See the module docs for the aliasing guarantees.
#[derive(Debug, Clone)]
pub struct SlabPool<T> {
    slots: Vec<Slot<T>>,
    free_head: u32,
    len: usize,
}

impl<T> Default for SlabPool<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> SlabPool<T> {
    /// Bytes one slot occupies: the value and its generation and
    /// free-list words, the unit a pool's memory grows by.
    pub const SLOT_BYTES: usize = std::mem::size_of::<Slot<T>>();

    /// An empty pool.
    pub fn new() -> Self {
        SlabPool {
            slots: Vec::new(),
            free_head: NIL,
            len: 0,
        }
    }

    /// Live values currently stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no values are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Stores `value`, reusing a free slot when one exists.
    pub fn insert(&mut self, value: T) -> PoolKey {
        self.len += 1;
        if self.free_head != NIL {
            let slot = self.free_head;
            let s = &mut self.slots[slot as usize];
            self.free_head = s.next_free;
            s.next_free = NIL;
            s.value = Some(value);
            PoolKey { slot, gen: s.gen }
        } else {
            let slot = u32::try_from(self.slots.len()).expect("pool exceeds u32 slots");
            self.slots.push(Slot {
                gen: 0,
                value: Some(value),
                next_free: NIL,
            });
            PoolKey { slot, gen: 0 }
        }
    }

    /// Removes and returns the value for `key`.
    ///
    /// Returns `None` when the key is stale (the slot was already taken
    /// and possibly reused) — the generation check makes double-take and
    /// use-after-reuse impossible.
    pub fn take(&mut self, key: PoolKey) -> Option<T> {
        let s = self.slots.get_mut(key.slot as usize)?;
        if s.gen != key.gen || s.value.is_none() {
            return None;
        }
        let value = s.value.take();
        s.gen = s.gen.wrapping_add(1);
        s.next_free = self.free_head;
        self.free_head = key.slot;
        self.len -= 1;
        value
    }

    /// Shared access to the value for `key` (`None` when stale).
    pub fn get(&self, key: PoolKey) -> Option<&T> {
        let s = self.slots.get(key.slot as usize)?;
        if s.gen != key.gen {
            return None;
        }
        s.value.as_ref()
    }

    /// Exclusive access to the value for `key` (`None` when stale).
    pub fn get_mut(&mut self, key: PoolKey) -> Option<&mut T> {
        let s = self.slots.get_mut(key.slot as usize)?;
        if s.gen != key.gen {
            return None;
        }
        s.value.as_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_take_round_trips() {
        let mut p = SlabPool::new();
        let k = p.insert("hello");
        assert_eq!(p.len(), 1);
        assert_eq!(p.get(k), Some(&"hello"));
        assert_eq!(p.take(k), Some("hello"));
        assert_eq!(p.len(), 0);
        assert_eq!(p.take(k), None, "double take must fail");
    }

    #[test]
    fn stale_keys_never_alias_reused_slots() {
        let mut p = SlabPool::new();
        let k1 = p.insert(1u32);
        assert_eq!(p.take(k1), Some(1));
        let k2 = p.insert(2u32);
        // Same slot, new generation: the old key sees nothing.
        assert_eq!(k1.slot, k2.slot);
        assert_ne!(k1, k2);
        assert_eq!(p.get(k1), None);
        assert_eq!(p.take(k1), None);
        assert_eq!(p.take(k2), Some(2));
    }

    #[test]
    fn slots_are_recycled_lifo() {
        let mut p = SlabPool::new();
        let keys: Vec<_> = (0..8u32).map(|i| p.insert(i)).collect();
        for &k in &keys {
            p.take(k);
        }
        for _ in 0..100 {
            let k = p.insert(9u32);
            p.take(k);
        }
        assert_eq!(p.slots.len(), 8, "churn must not grow the pool");
    }

    #[test]
    fn u64_packing_round_trips() {
        let mut p = SlabPool::new();
        for i in 0..5u32 {
            let k = p.insert(i);
            assert_eq!(PoolKey::from_u64(k.as_u64()), k);
        }
        // Distinct generations pack to distinct integers.
        let k1 = p.insert(10u32);
        p.take(k1);
        let k2 = p.insert(11u32);
        assert_ne!(k1.as_u64(), k2.as_u64());
    }

    #[test]
    fn get_mut_mutates_in_place() {
        let mut p = SlabPool::new();
        let k = p.insert(vec![1, 2]);
        p.get_mut(k).unwrap().push(3);
        assert_eq!(p.take(k), Some(vec![1, 2, 3]));
    }
}
