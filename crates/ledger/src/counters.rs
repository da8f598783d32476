//! Counter sets: a group of monotone `u64` counters declared once.
//!
//! The paper's method is a cross-check of ledgers (§3.1), and every
//! ledger in this workspace is a struct of `u64` counters that needs the
//! same four things: a sum, a `(label, value)` list, a lock-free mirror a
//! worker thread can write while others read, and a `k=v` line. Writing
//! those by hand per ledger means six field lists that a new counter has
//! to be threaded through; [`counter_set!`](crate::counter_set) takes the
//! one list — field, doc, label — and derives the rest through
//! [`CounterSet`], so a field that is declared *is* summed, mirrored,
//! listed and rendered.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};

/// A struct of `N` monotone `u64` counters with one label per field.
/// Implemented by [`counter_set!`](crate::counter_set); everything
/// generic over ledgers (the atomic mirror, the scrape feed, the `k=v`
/// line) is written once against this trait.
pub trait CounterSet<const N: usize>: Copy + Default {
    /// One label per field, in declaration order: the `kind` label of a
    /// scraped series and the key of the rendered line.
    const LABELS: [&'static str; N];

    /// The field values, in declaration order.
    fn values(&self) -> [u64; N];

    /// The set holding `values`, in declaration order.
    fn from_values(values: [u64; N]) -> Self;

    /// `(label, value)` per field, in declaration order.
    fn kinds(&self) -> [(&'static str, u64); N] {
        let values = self.values();
        std::array::from_fn(|i| (Self::LABELS[i], values[i]))
    }

    /// The canonical `label=value` line, space-separated, in
    /// declaration order.
    fn line(&self) -> String {
        kv_line(&self.kinds())
    }
}

/// Renders `(label, value)` pairs as one space-separated `k=v` line.
pub fn kv_line(kinds: &[(&str, u64)]) -> String {
    kinds.iter().map(|(k, v)| format!("{k}={v}")).collect::<Vec<_>>().join(" ")
}

/// The lock-free mirror of a [`CounterSet`]: one relaxed atomic per
/// field. Writers add whole deltas, readers take point-in-time
/// snapshots; the counters are independent monotone sums, so relaxed
/// ordering is all either side needs.
pub struct AtomicSet<S, const N: usize> {
    cells: [AtomicU64; N],
    _set: PhantomData<fn() -> S>,
}

impl<S, const N: usize> Default for AtomicSet<S, N> {
    fn default() -> Self {
        AtomicSet { cells: std::array::from_fn(|_| AtomicU64::new(0)), _set: PhantomData }
    }
}

impl<S, const N: usize> std::fmt::Debug for AtomicSet<S, N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.cells.iter().map(|c| c.load(Ordering::Relaxed))).finish()
    }
}

impl<S: CounterSet<N>, const N: usize> AtomicSet<S, N> {
    /// Adds `delta` field by field (zero fields cost no atomic).
    pub fn add(&self, delta: S) {
        for (cell, v) in self.cells.iter().zip(delta.values()) {
            if v != 0 {
                cell.fetch_add(v, Ordering::Relaxed);
            }
        }
    }

    /// A point-in-time copy.
    pub fn snapshot(&self) -> S {
        S::from_values(std::array::from_fn(|i| self.cells[i].load(Ordering::Relaxed)))
    }
}

/// Declares a [`CounterSet`]: a `Copy` struct of public `u64` fields
/// with `Default`/`PartialEq`/`Add`/`AddAssign`/`Sum`, each field
/// written once as `/// doc` + `name => "label"`.
///
/// ```
/// use dnswild_ledger::{counter_set, AtomicSet, CounterSet};
///
/// counter_set! {
///     /// What one door saw.
///     pub struct DoorStats {
///         /// People in.
///         entered => "in",
///         /// People out.
///         left => "out",
///     }
/// }
///
/// let cell = AtomicSet::<DoorStats, 2>::default();
/// cell.add(DoorStats { entered: 2, left: 1 });
/// cell.add(DoorStats { entered: 1, ..Default::default() });
/// assert_eq!(cell.snapshot().line(), "in=3 out=1");
/// ```
#[macro_export]
macro_rules! counter_set {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $( $(#[$fmeta:meta])* $field:ident => $label:literal ),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        $vis struct $name {
            $( $(#[$fmeta])* pub $field: u64, )+
        }

        impl $crate::CounterSet<{ [$($label),+].len() }> for $name {
            const LABELS: [&'static str; [$($label),+].len()] = [$($label),+];

            fn values(&self) -> [u64; [$($label),+].len()] {
                [$(self.$field),+]
            }

            fn from_values(values: [u64; [$($label),+].len()]) -> Self {
                let [$($field),+] = values;
                $name { $($field),+ }
            }
        }

        impl ::std::ops::Add for $name {
            type Output = $name;
            fn add(self, rhs: $name) -> $name {
                $name { $( $field: self.$field + rhs.$field ),+ }
            }
        }

        impl ::std::ops::AddAssign for $name {
            fn add_assign(&mut self, rhs: $name) {
                *self = *self + rhs;
            }
        }

        impl ::std::iter::Sum for $name {
            fn sum<I: Iterator<Item = $name>>(iter: I) -> $name {
                iter.fold($name::default(), ::std::ops::Add::add)
            }
        }
    };
}

/// Asserts that a declared set is covered end to end: labels are
/// distinct, every field survives the value round-trip, the sum, the
/// atomic mirror and the rendered line. Each crate's "covers every
/// field" test is one call of this on its own ledger.
pub fn assert_counter_set_covers_every_field<S, const N: usize>()
where
    S: CounterSet<N> + std::ops::Add<Output = S> + PartialEq + std::fmt::Debug,
{
    for (i, label) in S::LABELS.iter().enumerate() {
        assert!(!label.is_empty(), "field {i} has an empty label");
        assert!(!S::LABELS[..i].contains(label), "label {label} declared twice");
    }
    // Distinct per-field values, so a swapped or dropped field shows.
    let values: [u64; N] = std::array::from_fn(|i| i as u64 + 1);
    let ones = S::from_values(values);
    assert_eq!(ones.values(), values, "values/from_values round-trip");
    assert_eq!((ones + ones).values(), values.map(|v| v * 2), "sum");
    assert_eq!(ones.kinds().map(|(_, v)| v), values, "kinds carry the values in order");
    assert_eq!(ones.kinds().map(|(k, _)| k), S::LABELS, "kinds carry the labels in order");
    let cell = AtomicSet::<S, N>::default();
    cell.add(ones);
    cell.add(ones);
    assert_eq!(cell.snapshot(), ones + ones, "atomic round-trip");
    let line = ones.line();
    let want: Vec<String> = (0..N).map(|i| format!("{}={}", S::LABELS[i], values[i])).collect();
    assert_eq!(line.split(' ').collect::<Vec<_>>(), want, "rendered line");
}

#[cfg(test)]
mod tests {
    use super::*;

    counter_set! {
        /// A toy ledger.
        struct Toy {
            /// First.
            alpha => "a",
            /// Second, labelled differently from its field.
            beta => "bee",
        }
    }

    counter_set! {
        /// [`Toy`] with one more field declared — and nothing else
        /// written.
        struct ToyGrown {
            /// First.
            alpha => "a",
            /// Second.
            beta => "bee",
            /// The added field.
            gamma => "g",
        }
    }

    #[test]
    fn a_declared_field_is_summed_listed_mirrored_and_rendered() {
        assert_counter_set_covers_every_field::<Toy, 2>();
        assert_counter_set_covers_every_field::<ToyGrown, 3>();
        // The added field shows up everywhere from the declaration alone.
        let grown = ToyGrown { alpha: 1, beta: 2, gamma: 5 };
        assert_eq!((grown + grown).gamma, 10);
        assert_eq!(grown.kinds()[2], ("g", 5));
        let cell = AtomicSet::<ToyGrown, 3>::default();
        cell.add(grown);
        assert_eq!(cell.snapshot().gamma, 5);
        assert_eq!(grown.line(), "a=1 bee=2 g=5");
        assert_eq!([grown, grown, grown].into_iter().sum::<ToyGrown>().gamma, 15);
    }

    #[test]
    fn zero_fields_cost_no_atomic_and_snapshots_are_monotone() {
        let cell = AtomicSet::<Toy, 2>::default();
        cell.add(Toy::default());
        assert_eq!(cell.snapshot(), Toy::default());
        cell.add(Toy { beta: 3, ..Default::default() });
        assert_eq!(cell.snapshot(), Toy { alpha: 0, beta: 3 });
    }
}
