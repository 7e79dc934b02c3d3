//! Compact typed identifiers for nodes, edges and data points.
//!
//! All identifiers are dense `u32` indices. Using 32-bit ids halves the
//! memory footprint of adjacency arrays relative to `usize` on 64-bit
//! platforms, which matters for the paper-scale graphs (hundreds of
//! thousands of nodes, each appearing in several adjacency lists).

use std::fmt;

macro_rules! define_id {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
        pub struct $name(pub u32);

        impl $name {
            /// Creates an identifier from a dense index.
            ///
            /// # Panics
            /// Panics if `index` does not fit in `u32`.
            #[inline]
            pub fn new(index: usize) -> Self {
                debug_assert!(index <= u32::MAX as usize, "id index overflows u32");
                Self(index as u32)
            }

            /// Returns the identifier as a dense `usize` index.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl From<u32> for $name {
            #[inline]
            fn from(v: u32) -> Self {
                Self(v)
            }
        }

        impl From<$name> for u32 {
            #[inline]
            fn from(v: $name) -> Self {
                v.0
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

define_id!(
    /// Identifier of a graph node (a vertex of the network).
    NodeId,
    "n"
);

define_id!(
    /// Identifier of an undirected graph edge.
    ///
    /// Each undirected edge `{a, b}` has exactly one [`EdgeId`], shared by the
    /// two directed arcs stored in the CSR adjacency.
    EdgeId,
    "e"
);

define_id!(
    /// Identifier of a data point (an object of the data set `P` or `Q`).
    PointId,
    "p"
);

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn node_id_round_trips_index() {
        let n = NodeId::new(42);
        assert_eq!(n.index(), 42);
        assert_eq!(u32::from(n), 42);
        assert_eq!(NodeId::from(42u32), n);
    }

    #[test]
    fn ids_format_with_prefix() {
        assert_eq!(format!("{}", NodeId::new(3)), "n3");
        assert_eq!(format!("{}", EdgeId::new(7)), "e7");
        assert_eq!(format!("{}", PointId::new(0)), "p0");
        assert_eq!(format!("{:?}", NodeId::new(3)), "n3");
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        assert!(NodeId::new(1) < NodeId::new(2));
        let mut set = HashSet::new();
        set.insert(PointId::new(1));
        set.insert(PointId::new(1));
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(NodeId::default(), NodeId::new(0));
        assert_eq!(EdgeId::default().index(), 0);
    }
}
