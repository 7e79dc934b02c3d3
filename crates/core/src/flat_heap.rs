//! The one priority queue of this crate: a flat 4-ary min-heap of packed
//! `(distance, a, b)` keys.
//!
//! A key is one `u128`: `distance.to_bits() << 64 | a << 32 | b`. Distances
//! are non-negative and never NaN ([`Weight`]'s contract), and non-negative
//! IEEE-754 doubles order exactly like their bit patterns, so the integer
//! order of the keys *is* the lexicographic order of `(Weight, u32, u32)` —
//! the order `BinaryHeap<Reverse<(Weight, NodeId, PointId)>>` popped in. The
//! order is total, so the pop sequence of a given push sequence does not
//! depend on the shape of the heap, only on the keys. What the packing buys
//! is the comparison: one integer compare without the NaN branch of
//! `f64::partial_cmp` or the chained compare of a tuple.
//!
//! That comparison is also the reason for the way [`FlatHeap::pop`] picks
//! among four children. Written as a running minimum (`if keys[i] <
//! keys[child] { child = i }`), the pick compiles to a jump over a move per
//! compare, and on frontier keys every one of them is a coin flip to the
//! predictor; written as a two-round tournament in index arithmetic it
//! compiles to `setb` / `adc` / `cmov`. The `frontier/push_pop` rows of the
//! `core_kernels` bench show the difference (2× at 1 024 entries) should an
//! edit bring the branches back. Arity alone is not the gain: a 4-ary heap
//! over `(f64, u32)` with branching compares measured no faster than `std`'s
//! binary heap.

use rnn_graph::Weight;

/// Children per node.
const ARITY: usize = 4;

/// A min-heap of `(distance, a, b)` triples in ascending lexicographic order.
#[derive(Debug, Default)]
pub(crate) struct FlatHeap {
    keys: Vec<u128>,
}

#[inline]
fn pack(dist: Weight, a: u32, b: u32) -> u128 {
    // `+ 0.0` turns `-0.0` (sign bit set, so the *largest* bit pattern) into
    // `+0.0`; every other value is unchanged.
    let bits = (dist.value() + 0.0).to_bits();
    (bits as u128) << 64 | (a as u128) << 32 | b as u128
}

#[inline]
fn unpack(key: u128) -> (Weight, u32, u32) {
    (Weight::new(f64::from_bits((key >> 64) as u64)), (key >> 32) as u32, key as u32)
}

impl FlatHeap {
    pub(crate) fn clear(&mut self) {
        self.keys.clear();
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The smallest triple, which [`FlatHeap::pop`] would return.
    #[inline]
    pub(crate) fn peek(&self) -> Option<(Weight, u32, u32)> {
        self.keys.first().map(|&key| unpack(key))
    }

    #[inline]
    pub(crate) fn push(&mut self, dist: Weight, a: u32, b: u32) {
        let key = pack(dist, a, b);
        let mut hole = self.keys.len();
        self.keys.push(key);
        let keys = self.keys.as_mut_slice();
        while hole > 0 {
            let parent = (hole - 1) / ARITY;
            if keys[parent] <= key {
                break;
            }
            keys[hole] = keys[parent];
            hole = parent;
        }
        keys[hole] = key;
    }

    /// Removes and returns the smallest triple.
    ///
    /// The hole left by the root walks to the bottom along the smallest child
    /// of each level without looking at the key that will fill it, and the
    /// last key of the array is then sifted up from there: it came from the
    /// bottom level, so it rarely moves, and the walk down compares children
    /// with each other only.
    #[inline]
    pub(crate) fn pop(&mut self) -> Option<(Weight, u32, u32)> {
        let last = self.keys.pop()?;
        let keys = self.keys.as_mut_slice();
        let Some(&top) = keys.first() else { return Some(unpack(last)) };
        let len = keys.len();
        let mut hole = 0;
        let mut first = 1;
        while first + ARITY <= len {
            let c: &[u128; ARITY] =
                keys[first..first + ARITY].try_into().expect("a slice of ARITY keys");
            // Arithmetic, not `if`: see the module docs.
            let a = usize::from(c[1] < c[0]);
            let b = 2 + usize::from(c[3] < c[2]);
            let child = first + [a, b][usize::from(c[b] < c[a])];
            keys[hole] = keys[child];
            hole = child;
            first = ARITY * hole + 1;
        }
        if first < len {
            // The last, partial family; its members have no children.
            let mut child = first;
            for i in first + 1..len {
                if keys[i] < keys[child] {
                    child = i;
                }
            }
            keys[hole] = keys[child];
            hole = child;
        }
        while hole > 0 {
            let parent = (hole - 1) / ARITY;
            if keys[parent] <= last {
                break;
            }
            keys[hole] = keys[parent];
            hole = parent;
        }
        keys[hole] = last;
        Some(unpack(top))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// Distances drawn to collide: the two zeros, the smallest positive
    /// values, infinity, and a handful of ordinary ones.
    const DISTS: [f64; 10] = [
        0.0,
        -0.0,
        f64::MIN_POSITIVE,
        5e-324,
        0.5,
        1.0,
        1.0 + f64::EPSILON,
        2.5,
        1e300,
        f64::INFINITY,
    ];

    #[derive(Copy, Clone, Debug)]
    enum Step {
        Push(usize, u32, u32),
        Pop,
        Peek,
    }

    fn step() -> impl Strategy<Value = Step> {
        // Few distinct ids, so equal distances with different ids and exact
        // duplicates are both common; `u32::MAX` exercises the field edges.
        let id = || prop_oneof![0u32..4, 0u32..4, 0u32..4, Just(u32::MAX)];
        let push = || (0..DISTS.len(), id(), id()).prop_map(|(d, a, b)| Step::Push(d, a, b));
        prop_oneof![push(), push(), push(), Just(Step::Pop), Just(Step::Pop), Just(Step::Peek)]
    }

    proptest! {
        #[test]
        fn pops_like_a_binary_heap_of_reversed_tuples(
            steps in proptest::collection::vec(step(), 0..400)
        ) {
            let mut flat = FlatHeap::default();
            let mut reference: BinaryHeap<Reverse<(Weight, u32, u32)>> = BinaryHeap::new();
            // Bit patterns, so that a `-0.0` coming back out would show.
            let bits = |e: Option<(Weight, u32, u32)>| e.map(|(d, a, b)| (d.value().to_bits(), a, b));
            let folded = |Reverse((d, a, b)): Reverse<(Weight, u32, u32)>| {
                (Weight::new(d.value() + 0.0), a, b)
            };
            for step in steps {
                match step {
                    Step::Push(d, a, b) => {
                        let dist = Weight::new(DISTS[d]);
                        flat.push(dist, a, b);
                        reference.push(Reverse((dist, a, b)));
                    }
                    Step::Pop => {
                        prop_assert_eq!(bits(flat.pop()), bits(reference.pop().map(folded)));
                    }
                    Step::Peek => {
                        prop_assert_eq!(bits(flat.peek()), bits(reference.peek().copied().map(folded)));
                    }
                }
                prop_assert_eq!(flat.is_empty(), reference.is_empty());
            }
            while let Some(expected) = reference.pop() {
                prop_assert_eq!(bits(flat.pop()), bits(Some(folded(expected))));
            }
            prop_assert!(flat.pop().is_none() && flat.is_empty());
        }
    }

    #[test]
    fn drains_in_ascending_order_at_every_family_shape() {
        // Sizes around the full/partial last family: 4k + 1 is a root plus
        // full families, everything else ends in a partial one.
        for len in 0..70u32 {
            let mut heap = FlatHeap::default();
            for i in 0..len {
                // A permutation of 0..len with repeated distances.
                let v = i * 37 % len.max(1);
                heap.push(Weight::new(f64::from(v / 3)), v % 3, i);
            }
            let drained: Vec<_> = std::iter::from_fn(|| heap.pop()).collect();
            assert_eq!(drained.len(), len as usize);
            assert!(drained.windows(2).all(|w| w[0] <= w[1]), "len {len}: {drained:?}");
            heap.push(Weight::ZERO, 0, 0);
            heap.clear();
            assert!(heap.is_empty() && heap.peek().is_none());
        }
    }
}
