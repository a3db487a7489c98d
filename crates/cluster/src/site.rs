//! Dense `(u16, u16)`-keyed lookup tables for deployment sites.
//!
//! The fleet driver resolves a `(service, cluster)` pair to site state on
//! every simulated span. A `HashMap` keyed by the pair costs a hash and a
//! probe per lookup and iterates in nondeterministic order; with dense id
//! spaces (services and clusters are both small sequential `u16`s) the
//! lookup collapses to one bounds-checked vector index. [`DensePairMap`]
//! is that table: an `index` vector over the full `major × minor` key
//! grid mapping each present key to a slot in a packed value vector.
//!
//! Values iterate in insertion order, which the caller controls — the
//! fleet driver inserts sites in (service, deployment-position) order, so
//! iteration is deterministic, unlike the `HashMap` it replaces.

/// A dense map from `(u16, u16)` keys to values.
///
/// Lookup is one multiply and one vector index. Memory is
/// `4 * major_dim * minor_dim` bytes for the index grid plus the packed
/// values, which for fleet-shaped inputs (hundreds of services × ~48
/// clusters) is a few hundred kilobytes.
#[derive(Debug, Clone)]
pub struct DensePairMap<T> {
    /// `key -> slot + 1`; 0 means absent.
    index: Vec<u32>,
    values: Vec<T>,
    minor_dim: usize,
}

impl<T> DensePairMap<T> {
    /// Builds a map over the `major_dim × minor_dim` key grid from
    /// `(key, value)` entries. Values keep the entry order.
    ///
    /// # Panics
    ///
    /// Panics if a key is outside the grid or inserted twice.
    pub fn build(
        major_dim: usize,
        minor_dim: usize,
        entries: impl IntoIterator<Item = ((u16, u16), T)>,
    ) -> Self {
        let mut map = DensePairMap {
            index: vec![0u32; major_dim * minor_dim],
            values: Vec::new(),
            minor_dim,
        };
        for ((major, minor), value) in entries {
            assert!(
                (major as usize) < major_dim && (minor as usize) < minor_dim,
                "key ({major}, {minor}) outside {major_dim}x{minor_dim} grid"
            );
            let cell = major as usize * minor_dim + minor as usize;
            assert_eq!(map.index[cell], 0, "duplicate key ({major}, {minor})");
            map.values.push(value);
            map.index[cell] = map.values.len() as u32;
        }
        map
    }

    /// The slot of a key in `values`, if present.
    #[inline]
    fn index_of(&self, major: u16, minor: u16) -> Option<u32> {
        let cell = major as usize * self.minor_dim + minor as usize;
        match self.index.get(cell) {
            Some(&slot) if slot != 0 => Some(slot - 1),
            _ => None,
        }
    }

    /// The value of a key, if present.
    #[inline]
    pub fn get(&self, major: u16, minor: u16) -> Option<&T> {
        self.index_of(major, minor)
            .map(|s| &self.values[s as usize])
    }

    /// All values, in insertion order.
    pub fn values(&self) -> std::slice::Iter<'_, T> {
        self.values.iter()
    }

    /// Number of present keys.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    #[test]
    fn get_and_index_of_agree() {
        let m = DensePairMap::build(4, 3, [((0u16, 0u16), "a"), ((1, 2), "b"), ((3, 0), "c")]);
        assert_eq!(m.len(), 3);
        assert!(!m.is_empty());
        assert_eq!(m.get(0, 0), Some(&"a"));
        assert_eq!(m.get(1, 2), Some(&"b"));
        assert_eq!(m.get(3, 0), Some(&"c"));
        assert_eq!(m.get(2, 2), None);
        let slot = m.index_of(1, 2).unwrap();
        assert_eq!(m.values[slot as usize], "b");
        assert_eq!(m.index_of(0, 1), None);
    }

    #[test]
    fn values_iterate_in_insertion_order() {
        let m = DensePairMap::build(8, 8, (0..8u16).map(|i| ((i, 7 - i), i)));
        let got: Vec<u16> = m.values().copied().collect();
        assert_eq!(got, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn empty_map_has_no_entries() {
        let m: DensePairMap<u8> = DensePairMap::build(2, 2, []);
        assert!(m.is_empty());
        assert_eq!(m.get(0, 0), None);
    }

    #[test]
    #[should_panic(expected = "duplicate key")]
    fn duplicate_keys_panic() {
        let _ = DensePairMap::build(2, 2, [((0u16, 0u16), 1), ((0, 0), 2)]);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_grid_keys_panic() {
        let _ = DensePairMap::build(2, 2, [((2u16, 0u16), 1)]);
    }

    proptest! {
        #[test]
        fn behaves_like_a_hashmap(
            keys in proptest::collection::vec((0u16..40, 0u16..48), 0..120),
            probes in proptest::collection::vec((0u16..40, 0u16..48), 0..60),
        ) {
            // Last write wins in the reference; deduplicate before
            // building (the dense map rejects duplicate keys).
            let reference: HashMap<(u16, u16), u32> = keys
                .iter()
                .enumerate()
                .map(|(i, &k)| (k, i as u32))
                .collect();
            let entries: Vec<((u16, u16), u32)> =
                reference.iter().map(|(&k, &v)| (k, v)).collect();
            let dense = DensePairMap::build(40, 48, entries);
            prop_assert_eq!(dense.len(), reference.len());
            for (a, b) in probes {
                prop_assert_eq!(dense.get(a, b), reference.get(&(a, b)));
            }
        }
    }
}
