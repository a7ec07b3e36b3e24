//! An inline-then-spill sequence: the first `N` elements live in the
//! value itself, and only a sequence that outgrows `N` moves to the
//! heap.
//!
//! A commit instance is many small sequences — a byte per peer on its
//! vote board and on each stage board, the handful of payloads a step
//! sends — each far below a cache line at the populations the system
//! runs. Held as `Vec`s they are one heap object apiece, allocated when
//! the instance is built and freed when its epoch ends, and an epoch's
//! worth of those frees overflows the allocator's per-thread cache.
//! Held inline they are part of the instance. Every capacity is a
//! constant at its use site, with the measurement that chose it.
//!
//! Safe code throughout. Every element type is `Copy`, so the inline
//! buffer is a plain `[T; N]` built by copying `T::default()` — no
//! per-element constructor call, which every commit instance and every
//! step's bundle of kinds would pay (docs/PERF.md "PR 45") — and its
//! unused tail holds that default.

use std::fmt;
use std::ops::{Deref, DerefMut};

/// A growable sequence of `T` that allocates only past `N` elements.
///
/// Reads go through [`Deref`] to a slice. `Debug`, `PartialEq` and `Eq`
/// are the slice's: two sequences with equal elements are equal and
/// print alike whichever side of `N` they were built on.
#[derive(Clone)]
pub struct InlineVec<T, const N: usize> {
    repr: Repr<T, N>,
}

#[derive(Clone)]
enum Repr<T, const N: usize> {
    /// `buf[..len]` is the sequence; `buf[len..]` is `T::default()`.
    Inline { len: u8, buf: [T; N] },
    /// A sequence that grew past `N` at some point; it stays here.
    Spilled(Vec<T>),
}

impl<T: Copy + Default, const N: usize> InlineVec<T, N> {
    /// The empty sequence (no heap object).
    pub fn new() -> InlineVec<T, N> {
        const { assert!(N <= u8::MAX as usize, "the inline length is a byte") };
        InlineVec {
            repr: Repr::Inline {
                len: 0,
                buf: [T::default(); N],
            },
        }
    }

    /// `len` copies of `value`.
    pub fn filled(len: usize, value: T) -> InlineVec<T, N> {
        if len > N {
            return InlineVec {
                repr: Repr::Spilled(vec![value; len]),
            };
        }
        const { assert!(N <= u8::MAX as usize, "the inline length is a byte") };
        let mut buf = [T::default(); N];
        buf[..len].fill(value);
        InlineVec {
            repr: Repr::Inline {
                len: len as u8,
                buf,
            },
        }
    }

    /// Appends `value`, moving the sequence to the heap if it is the
    /// `N + 1`th element.
    pub fn push(&mut self, value: T) {
        match &mut self.repr {
            Repr::Inline { len, buf } => {
                if let Some(free) = buf.get_mut(usize::from(*len)) {
                    *free = value;
                    *len += 1;
                } else {
                    let mut spilled = Vec::with_capacity(2 * N.max(1));
                    spilled.extend_from_slice(buf);
                    spilled.push(value);
                    self.repr = Repr::Spilled(spilled);
                }
            }
            Repr::Spilled(spilled) => spilled.push(value),
        }
    }

    /// Whether the sequence has moved to the heap.
    pub fn spilled(&self) -> bool {
        matches!(self.repr, Repr::Spilled(_))
    }
}

impl<T: Copy + Default, const N: usize> Default for InlineVec<T, N> {
    fn default() -> InlineVec<T, N> {
        InlineVec::new()
    }
}

impl<T, const N: usize> Deref for InlineVec<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match &self.repr {
            Repr::Inline { len, buf } => &buf[..usize::from(*len)],
            Repr::Spilled(spilled) => spilled,
        }
    }
}

impl<T, const N: usize> DerefMut for InlineVec<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        match &mut self.repr {
            Repr::Inline { len, buf } => &mut buf[..usize::from(*len)],
            Repr::Spilled(spilled) => spilled,
        }
    }
}

impl<T: fmt::Debug, const N: usize> fmt::Debug for InlineVec<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl<T: PartialEq, const N: usize> PartialEq for InlineVec<T, N> {
    fn eq(&self, other: &InlineVec<T, N>) -> bool {
        **self == **other
    }
}

impl<T: Eq, const N: usize> Eq for InlineVec<T, N> {}

impl<T: Copy + Default, const N: usize> Extend<T> for InlineVec<T, N> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for value in iter {
            self.push(value);
        }
    }
}

impl<T: Copy + Default, const N: usize> FromIterator<T> for InlineVec<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> InlineVec<T, N> {
        let mut seq = InlineVec::new();
        seq.extend(iter);
        seq
    }
}

impl<T: Copy + Default, const N: usize> From<Vec<T>> for InlineVec<T, N> {
    fn from(values: Vec<T>) -> InlineVec<T, N> {
        if values.len() > N {
            InlineVec {
                repr: Repr::Spilled(values),
            }
        } else {
            values.into_iter().collect()
        }
    }
}

impl<T: Copy + Default, const N: usize, const M: usize> From<[T; M]> for InlineVec<T, N> {
    fn from(values: [T; M]) -> InlineVec<T, N> {
        values.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grows_inline_then_spills_and_reads_as_one_slice() {
        let mut seq: InlineVec<u32, 3> = InlineVec::new();
        assert!(seq.is_empty());
        for i in 0..3 {
            seq.push(i);
        }
        assert!(!seq.spilled());
        assert_eq!(seq[..], [0, 1, 2]);
        seq.push(3);
        assert!(seq.spilled());
        seq.push(4);
        assert_eq!(seq[..], [0, 1, 2, 3, 4]);
        seq[1] = 9;
        assert_eq!(seq.iter().sum::<u32>(), 18);
    }

    #[test]
    fn equality_and_debug_are_the_slices_on_both_sides_of_the_capacity() {
        let inline: InlineVec<u8, 4> = [1, 2, 3].into();
        let pushed: InlineVec<u8, 4> = (1..=5).collect();
        let moved: InlineVec<u8, 4> = vec![1, 2, 3, 4, 5].into();
        assert!(!inline.spilled() && pushed.spilled() && moved.spilled());
        assert_eq!(pushed, moved, "built by pushes or moved from a Vec");
        assert_eq!(format!("{inline:?}"), "[1, 2, 3]");
        assert_eq!(
            format!("{pushed:?}"),
            format!("{:?}", &[1u8, 2, 3, 4, 5][..])
        );
        assert_ne!(inline, pushed);
        assert_ne!(inline, InlineVec::from([1, 2]));
    }

    #[test]
    fn filled_picks_its_side_by_length() {
        let empty: InlineVec<u8, 16> = InlineVec::filled(0, 7);
        let small: InlineVec<u8, 16> = InlineVec::filled(9, 7);
        let full: InlineVec<u8, 16> = InlineVec::filled(16, 7);
        let large: InlineVec<u8, 16> = InlineVec::filled(17, 7);
        assert!(!empty.spilled() && !small.spilled() && !full.spilled());
        assert!(large.spilled());
        let lens = [&empty, &small, &full, &large].map(|seq| seq.len());
        assert_eq!(lens, [0, 9, 16, 17]);
        assert!(small.iter().chain(&*full).chain(&*large).all(|&b| b == 7));
        // A filled sequence grows like a pushed one.
        let mut grown = small;
        grown.push(1);
        assert_eq!(grown[..], [7, 7, 7, 7, 7, 7, 7, 7, 7, 1]);
        assert_eq!(empty, InlineVec::new());
    }
}
