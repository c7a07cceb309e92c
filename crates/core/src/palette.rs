//! Colors and growable color sets.
//!
//! Colors are dense small integers (the paper indexes its palette from the
//! lowest color upward), so sets of colors are bitsets over 64-bit words.
//! [`ColorSet`] grows on demand — the algorithms never need to fix a
//! palette size in advance, and the `2Δ−1` bound emerges from the
//! lowest-available selection rule rather than from truncation.
//! [`PortColorSets`] holds one such set per port of a node in a single
//! flat bitset matrix.

use std::fmt;

/// An edge color (equivalently: a channel or time slot). Colors are dense
/// indices starting at 0; the paper's "color 1" is `Color(0)` here.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Color(pub u32);

impl Color {
    /// The color index as `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Color {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

impl fmt::Display for Color {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A growable set of colors, backed by a bitset.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct ColorSet {
    words: Vec<u64>,
    len: usize,
}

impl ColorSet {
    /// The empty set.
    pub fn new() -> Self {
        ColorSet::default()
    }

    /// An empty set with room for colors `0..capacity` without
    /// reallocating.
    pub fn with_capacity(capacity: usize) -> Self {
        ColorSet { words: Vec::with_capacity(capacity.div_ceil(64)), len: 0 }
    }

    /// Number of colors in the set.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no colors are present.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, c: Color) -> bool {
        let w = c.index() / 64;
        w < self.words.len() && (self.words[w] >> (c.index() % 64)) & 1 == 1
    }

    /// Insert `c`; returns `true` if it was new.
    pub fn insert(&mut self, c: Color) -> bool {
        let w = c.index() / 64;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let mask = 1u64 << (c.index() % 64);
        if self.words[w] & mask != 0 {
            return false;
        }
        self.words[w] |= mask;
        self.len += 1;
        true
    }

    /// Remove `c`; returns `true` if it was present.
    pub fn remove(&mut self, c: Color) -> bool {
        let w = c.index() / 64;
        if w >= self.words.len() {
            return false;
        }
        let mask = 1u64 << (c.index() % 64);
        if self.words[w] & mask == 0 {
            return false;
        }
        self.words[w] &= !mask;
        self.len -= 1;
        true
    }

    /// The lowest color **not** in the set — the paper's "first available
    /// color" selection (Algorithm 1, line 1.11).
    pub fn first_absent(&self) -> Color {
        for (i, &w) in self.words.iter().enumerate() {
            if w != u64::MAX {
                return Color((i * 64 + w.trailing_ones() as usize) as u32);
            }
        }
        Color((self.words.len() * 64) as u32)
    }

    /// The lowest color in **neither** set — the "lowest color legal for
    /// both endpoints" rule: `live_u \ used_v` where both sides are
    /// represented by their *used* sets.
    pub fn first_absent_in_union(&self, other: &ColorSet) -> Color {
        first_absent_in_words(&self.words, &other.words)
    }

    /// The colors in **neither** set, in increasing order and without
    /// end: the first `k` are the `k` lowest colors legal for both sides.
    pub fn absent_in_union<'a>(&'a self, other: &'a ColorSet) -> impl Iterator<Item = Color> + 'a {
        (0usize..).flat_map(move |i| {
            let used =
                self.words.get(i).copied().unwrap_or(0) | other.words.get(i).copied().unwrap_or(0);
            iter_word(i, !used)
        })
    }

    /// Add every color of `other` to this set.
    pub fn union_with(&mut self, other: &ColorSet) {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (w, &o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
        self.len = self.words.iter().map(|w| w.count_ones() as usize).sum();
    }

    /// Remove every color, keeping the backing words for reuse.
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.len = 0;
    }

    /// The greatest color in the set, if any.
    pub fn max(&self) -> Option<Color> {
        for (i, &w) in self.words.iter().enumerate().rev() {
            if w != 0 {
                return Some(Color((i * 64 + 63 - w.leading_zeros() as usize) as u32));
            }
        }
        None
    }

    /// Iterate the colors in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = Color> + '_ {
        iter_words(&self.words)
    }

    /// Colors in `0..bound` **not** in the set, in increasing order
    /// (used by the random-legal-color ablation policy). Allocation-free:
    /// the policies call this inside their per-round proposal loop, so it
    /// walks the complemented bitset words lazily instead of materializing
    /// a `Vec`. The iterator is `Clone`, which lets callers make a
    /// counting pass and a selection pass over the same gaps.
    pub fn absent_below(&self, bound: u32) -> impl Iterator<Item = Color> + Clone + '_ {
        let nwords = bound.div_ceil(64) as usize;
        (0..nwords).flat_map(move |i| {
            let mut absent = !self.words.get(i).copied().unwrap_or(0);
            if i == nwords - 1 && !bound.is_multiple_of(64) {
                absent &= (1u64 << (bound % 64)) - 1;
            }
            iter_word(i, absent)
        })
    }
}

/// The colors of a bitset, in increasing order.
fn iter_words(words: &[u64]) -> impl Iterator<Item = Color> + '_ {
    words.iter().enumerate().flat_map(|(i, &w)| iter_word(i, w))
}

/// The colors of bitset word `w` at word index `i`, in increasing order.
fn iter_word(i: usize, mut w: u64) -> impl Iterator<Item = Color> + Clone {
    std::iter::from_fn(move || {
        if w == 0 {
            return None;
        }
        let bit = w.trailing_zeros() as usize;
        w &= w - 1;
        Some(Color((i * 64 + bit) as u32))
    })
}

/// The lowest color absent from both bitsets (of any word counts).
fn first_absent_in_words(a: &[u64], b: &[u64]) -> Color {
    let max_words = a.len().max(b.len());
    for i in 0..max_words {
        let u = a.get(i).copied().unwrap_or(0) | b.get(i).copied().unwrap_or(0);
        if u != u64::MAX {
            return Color((i * 64 + u.trailing_ones() as usize) as u32);
        }
    }
    Color((max_words * 64) as u32)
}

/// One color set per port, flattened into a single bitset matrix:
/// `stride` 64-bit words per port, in port order, in one allocation.
///
/// The stride starts at one word (colors `0..64`) and grows only when a
/// color past it is inserted; growth re-lays every row at the new stride
/// and keeps each port's bits. Against a `Vec<ColorSet>`, a node of
/// degree `d` holds `8·d` bytes in one allocation instead of `d` set
/// headers plus `d` allocations.
#[derive(Clone, PartialEq, Eq)]
pub struct PortColorSets {
    words: Vec<u64>,
    /// Words per port; always at least 1.
    stride: usize,
}

impl PortColorSets {
    /// `ports` empty sets.
    pub fn new(ports: usize) -> Self {
        PortColorSets { words: vec![0; ports], stride: 1 }
    }

    /// One port per set in `sets`, each holding the same colors. The
    /// sets are borrowed: the matrix copies their bits, so callers can
    /// hand out rows of a shared table without cloning it per port.
    pub fn from_sets<'a, I>(sets: I) -> Self
    where
        I: IntoIterator<Item = &'a ColorSet>,
        I::IntoIter: Clone,
    {
        let sets = sets.into_iter();
        let (ports, widest) = sets.clone().fold((0, 0), |(n, w), s| (n + 1, w.max(s.words.len())));
        let stride = widest.max(1);
        let mut words = vec![0; ports * stride];
        for (row, set) in words.chunks_exact_mut(stride).zip(sets) {
            row[..set.words.len()].copy_from_slice(&set.words);
        }
        PortColorSets { words, stride }
    }

    /// Number of ports.
    #[inline]
    pub fn ports(&self) -> usize {
        self.words.len() / self.stride
    }

    #[inline]
    fn row(&self, port: usize) -> &[u64] {
        &self.words[port * self.stride..(port + 1) * self.stride]
    }

    /// Membership of `c` in `port`'s set.
    #[inline]
    pub fn contains(&self, port: usize, c: Color) -> bool {
        let w = c.index() / 64;
        w < self.stride && (self.row(port)[w] >> (c.index() % 64)) & 1 == 1
    }

    /// Insert `c` into `port`'s set; returns `true` if it was new.
    pub fn insert(&mut self, port: usize, c: Color) -> bool {
        let w = c.index() / 64;
        if w >= self.stride {
            self.grow(w + 1);
        }
        let word = &mut self.words[port * self.stride + w];
        let mask = 1u64 << (c.index() % 64);
        let new = *word & mask == 0;
        *word |= mask;
        new
    }

    /// Replace `port`'s set with `colors`, in place.
    pub fn assign(&mut self, port: usize, colors: impl IntoIterator<Item = Color>) {
        self.words[port * self.stride..(port + 1) * self.stride].fill(0);
        for c in colors {
            self.insert(port, c);
        }
    }

    /// Re-lay every row at `stride` words, keeping its bits.
    fn grow(&mut self, stride: usize) {
        let mut words = vec![0; self.ports() * stride];
        for (row, old) in words.chunks_exact_mut(stride).zip(self.words.chunks_exact(self.stride)) {
            row[..self.stride].copy_from_slice(old);
        }
        self.words = words;
        self.stride = stride;
    }

    /// The lowest color in neither `own` nor `port`'s set — the
    /// [`ColorSet::first_absent_in_union`] rule against one port.
    #[inline]
    pub fn first_absent_in_union(&self, own: &ColorSet, port: usize) -> Color {
        first_absent_in_words(&own.words, self.row(port))
    }

    /// The colors of `port`'s set, in increasing order.
    pub fn iter(&self, port: usize) -> impl Iterator<Item = Color> + '_ {
        iter_words(self.row(port))
    }
}

impl fmt::Debug for PortColorSets {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list()
            .entries((0..self.ports()).map(|p| ColorSet::from_iter(self.iter(p))))
            .finish()
    }
}

impl fmt::Debug for ColorSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<Color> for ColorSet {
    fn from_iter<I: IntoIterator<Item = Color>>(iter: I) -> Self {
        let mut s = ColorSet::new();
        for c in iter {
            s.insert(c);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = ColorSet::new();
        assert!(s.is_empty());
        assert!(!s.contains(Color(3)));
        assert!(s.insert(Color(3)));
        assert!(!s.insert(Color(3)));
        assert!(s.contains(Color(3)));
        assert_eq!(s.len(), 1);
        assert!(s.remove(Color(3)));
        assert!(!s.remove(Color(3)));
        assert!(s.is_empty());
        assert!(!s.remove(Color(1000))); // out of allocated range
    }

    #[test]
    fn first_absent_walks_past_full_words() {
        let mut s = ColorSet::new();
        assert_eq!(s.first_absent(), Color(0));
        for c in 0..130 {
            s.insert(Color(c));
        }
        assert_eq!(s.first_absent(), Color(130));
        s.remove(Color(64));
        assert_eq!(s.first_absent(), Color(64));
    }

    #[test]
    fn first_absent_in_union_interleaved() {
        let a: ColorSet = [0u32, 2, 4].into_iter().map(Color).collect();
        let b: ColorSet = [1u32, 3].into_iter().map(Color).collect();
        assert_eq!(a.first_absent_in_union(&b), Color(5));
        let empty = ColorSet::new();
        assert_eq!(a.first_absent_in_union(&empty), Color(1));
        assert_eq!(empty.first_absent_in_union(&empty), Color(0));
        // Different word counts.
        let big: ColorSet = [70u32].into_iter().map(Color).collect();
        assert_eq!(a.first_absent_in_union(&big), Color(1));
    }

    #[test]
    fn absent_in_union_runs_past_both_sets() {
        let a: ColorSet = (0u32..64).filter(|c| c % 2 == 0).map(Color).collect();
        let b: ColorSet = (0u32..70).filter(|c| c % 2 == 1).map(Color).collect();
        // The union covers 0..64 and the odd colors up to 69.
        let free: Vec<u32> = a.absent_in_union(&b).take(5).map(|c| c.0).collect();
        assert_eq!(free, vec![64, 66, 68, 70, 71]);
        // Agrees with repeated first_absent_in_union on a growing set.
        let mut taken = b.clone();
        for c in a.absent_in_union(&b).take(5) {
            assert_eq!(a.first_absent_in_union(&taken), c);
            taken.insert(c);
        }
    }

    #[test]
    fn union_with_and_clear() {
        let mut a: ColorSet = [1u32, 3].into_iter().map(Color).collect();
        let b: ColorSet = [3u32, 130].into_iter().map(Color).collect();
        a.union_with(&b);
        assert_eq!(a.iter().map(|c| c.0).collect::<Vec<_>>(), vec![1, 3, 130]);
        assert_eq!(a.len(), 3);
        a.clear();
        assert!(a.is_empty() && a.max().is_none());
        assert_eq!(a.first_absent(), Color(0));
    }

    #[test]
    fn max_and_iter_ordering() {
        let s: ColorSet = [9u32, 1, 200, 64].into_iter().map(Color).collect();
        assert_eq!(s.max(), Some(Color(200)));
        let order: Vec<u32> = s.iter().map(|c| c.0).collect();
        assert_eq!(order, vec![1, 9, 64, 200]);
        assert_eq!(ColorSet::new().max(), None);
    }

    #[test]
    fn absent_below_lists_gaps() {
        let s: ColorSet = [0u32, 2].into_iter().map(Color).collect();
        let gaps: Vec<u32> = s.absent_below(5).map(|c| c.0).collect();
        assert_eq!(gaps, vec![1, 3, 4]);
        assert_eq!(s.absent_below(0).count(), 0);
    }

    #[test]
    fn absent_below_word_boundaries() {
        // Bounds at, below, and past the 64-bit word edge; sparse set far
        // beyond the bound must not leak colors >= bound.
        let s: ColorSet = [0u32, 63, 64, 127, 200].into_iter().map(Color).collect();
        let below_64: Vec<u32> = s.absent_below(64).map(|c| c.0).collect();
        assert_eq!(below_64, (1..63).collect::<Vec<u32>>());
        let below_65: Vec<u32> = s.absent_below(65).map(|c| c.0).collect();
        assert_eq!(below_65, (1..63).collect::<Vec<u32>>());
        let empty = ColorSet::new();
        assert_eq!(empty.absent_below(130).count(), 130);
        assert_eq!(s.absent_below(300).count(), 300 - 5);
        // Two passes over a clone see the same gaps.
        let it = s.absent_below(70);
        assert_eq!(it.clone().count(), it.count());
    }

    #[test]
    fn with_capacity_behaves_like_new() {
        let mut s = ColorSet::with_capacity(256);
        assert!(s.is_empty());
        s.insert(Color(255));
        assert!(s.contains(Color(255)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn port_sets_insert_contains_per_port() {
        let mut m = PortColorSets::new(3);
        assert_eq!(m.ports(), 3);
        assert!(m.insert(1, Color(5)));
        assert!(!m.insert(1, Color(5)));
        assert!(m.contains(1, Color(5)));
        assert!(!m.contains(0, Color(5)));
        assert!(!m.contains(2, Color(5)));
        assert!(!m.contains(1, Color(500))); // past the stride
        assert_eq!(PortColorSets::new(0).ports(), 0);
        assert_eq!(PortColorSets::from_sets(&[]).ports(), 0);
    }

    #[test]
    fn port_sets_grow_past_64_colors_keeping_other_ports() {
        let mut m = PortColorSets::new(3);
        for (p, c) in [(0, 0), (0, 63), (1, 7), (2, 40)] {
            m.insert(p, Color(c));
        }
        assert!(m.insert(1, Color(130)));
        let rows: Vec<Vec<u32>> = (0..3).map(|p| m.iter(p).map(|c| c.0).collect()).collect();
        assert_eq!(rows, vec![vec![0, 63], vec![7, 130], vec![40]]);
        assert_eq!(format!("{m:?}"), "[{c0, c63}, {c7, c130}, {c40}]");
    }

    #[test]
    fn port_sets_first_absent_in_union_matches_colorset() {
        let own: ColorSet = [0u32, 2].into_iter().map(Color).collect();
        let sets: Vec<ColorSet> = vec![
            [1u32, 3].into_iter().map(Color).collect(),
            ColorSet::new(),
            (0..64).chain(65..70).map(Color).collect(),
        ];
        let m = PortColorSets::from_sets(&sets);
        for (p, set) in sets.iter().enumerate() {
            assert_eq!(m.first_absent_in_union(&own, p), own.first_absent_in_union(set));
        }
        assert_eq!(m.first_absent_in_union(&own, 2), Color(64));
    }

    #[test]
    fn debug_format_lists_members() {
        let s: ColorSet = [2u32, 0].into_iter().map(Color).collect();
        assert_eq!(format!("{s:?}"), "{c0, c2}");
        assert_eq!(format!("{:?}", Color(7)), "c7");
        assert_eq!(Color(7).to_string(), "7");
    }
}
