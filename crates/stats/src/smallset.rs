//! An inline small-vector of `u32` ids for cache keys.
//!
//! The skeleton hot loop probes the CI-outcome LRU once per conditioning
//! set; with `Vec<u32>` keys every probe allocates. [`SmallIdSet`] stores up
//! to eight ids on the stack (conditioning sets are almost always tiny —
//! the default search depth is 2) and spills to a boxed slice only beyond
//! that. Equality and hashing are defined over the logical slice, so an
//! inline set and a spilled set with the same ids compare and hash
//! identically.

use std::hash::{Hash, Hasher};

/// A compact sequence of `u32` ids: inline up to 8, heap-spilled beyond.
#[derive(Debug, Clone)]
pub enum SmallIdSet {
    /// Stack storage for at most eight ids.
    Inline {
        /// Number of live ids in `buf`.
        len: u8,
        /// Storage; only `buf[..len]` is meaningful.
        buf: [u32; SmallIdSet::INLINE],
    },
    /// Heap spill for longer sets.
    Heap(Box<[u32]>),
}

impl SmallIdSet {
    /// Maximum inline length.
    const INLINE: usize = 8;

    /// Builds from a slice of ids (inline when it fits).
    #[cfg(test)]
    fn from_slice(ids: &[u32]) -> Self {
        if ids.len() <= Self::INLINE {
            let mut buf = [0u32; Self::INLINE];
            buf[..ids.len()].copy_from_slice(ids);
            SmallIdSet::Inline {
                len: ids.len() as u8,
                buf,
            }
        } else {
            SmallIdSet::Heap(ids.into())
        }
    }

    /// Builds from `usize` indices (the pervasive column-index type),
    /// without an intermediate `Vec` for the inline case.
    pub fn from_indices(ids: &[usize]) -> Self {
        if ids.len() <= Self::INLINE {
            let mut buf = [0u32; Self::INLINE];
            for (slot, &v) in buf.iter_mut().zip(ids) {
                *slot = v as u32;
            }
            SmallIdSet::Inline {
                len: ids.len() as u8,
                buf,
            }
        } else {
            SmallIdSet::Heap(ids.iter().map(|&v| v as u32).collect())
        }
    }

    /// The logical contents.
    pub fn as_slice(&self) -> &[u32] {
        match self {
            SmallIdSet::Inline { len, buf } => &buf[..*len as usize],
            SmallIdSet::Heap(b) => b,
        }
    }

    /// Number of ids.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// True when no ids are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sorts the ids in place (small sets sort on the stack).
    pub fn sort(&mut self) {
        match self {
            SmallIdSet::Inline { len, buf } => buf[..*len as usize].sort_unstable(),
            SmallIdSet::Heap(b) => b.sort_unstable(),
        }
    }
}

impl PartialEq for SmallIdSet {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for SmallIdSet {}

impl Hash for SmallIdSet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Hash the logical slice so inline and spilled forms agree.
        self.as_slice().hash(state);
    }
}

impl From<&[usize]> for SmallIdSet {
    fn from(ids: &[usize]) -> Self {
        Self::from_indices(ids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(s: &SmallIdSet) -> u64 {
        let mut h = DefaultHasher::new();
        s.hash(&mut h);
        h.finish()
    }

    #[test]
    fn inline_and_heap_forms_agree() {
        let ids: Vec<u32> = (0..8).collect();
        let inline = SmallIdSet::from_slice(&ids);
        let heap = SmallIdSet::Heap(ids.clone().into_boxed_slice());
        assert!(matches!(inline, SmallIdSet::Inline { .. }));
        assert_eq!(inline, heap);
        assert_eq!(hash_of(&inline), hash_of(&heap));
        assert_eq!(inline.as_slice(), &ids[..]);
    }

    #[test]
    fn spills_beyond_inline_capacity() {
        let ids: Vec<u32> = (0..9).collect();
        let s = SmallIdSet::from_slice(&ids);
        assert!(matches!(s, SmallIdSet::Heap(_)));
        assert_eq!(s.len(), 9);
    }

    #[test]
    fn length_distinguishes_prefixes() {
        // Inline padding must not make [1] equal [1, 0].
        let a = SmallIdSet::from_slice(&[1]);
        let b = SmallIdSet::from_slice(&[1, 0]);
        assert_ne!(a, b);
    }

    #[test]
    fn sort_and_from_indices() {
        let mut s = SmallIdSet::from_indices(&[5, 2, 9]);
        s.sort();
        assert_eq!(s.as_slice(), &[2, 5, 9]);
        assert!(SmallIdSet::from_indices(&[]).is_empty());
    }
}
