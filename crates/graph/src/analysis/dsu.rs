//! Disjoint-set union (union-find) with path halving and union by size.

/// A classic disjoint-set forest over `0..n`.
#[derive(Clone, Debug)]
pub struct DisjointSets {
    parent: Vec<u32>,
    size: Vec<u32>,
}

impl DisjointSets {
    /// `n` singleton sets.
    pub fn new(n: usize) -> Self {
        DisjointSets { parent: (0..n as u32).collect(), size: vec![1; n] }
    }

    /// Representative of `x`'s set, with path halving.
    pub fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] as usize != x {
            let grandparent = self.parent[self.parent[x] as usize];
            self.parent[x] = grandparent;
            x = grandparent as usize;
        }
        x
    }

    /// Merge the sets of `a` and `b`; returns `true` if they were distinct.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        if self.size[ra] < self.size[rb] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb] = ra as u32;
        self.size[ra] += self.size[rb];
        true
    }

    /// Compact labels: every element mapped to a component id in
    /// `0..count`, ids assigned in order of first appearance.
    pub fn component_labels(mut self) -> (usize, Vec<usize>) {
        let n = self.parent.len();
        let mut label = vec![usize::MAX; n];
        let mut next = 0usize;
        let mut out = vec![0usize; n];
        for (x, slot) in out.iter_mut().enumerate() {
            let r = self.find(x);
            if label[r] == usize::MAX {
                label[r] = next;
                next += 1;
            }
            *slot = label[r];
        }
        (next, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons() {
        let (count, labels) = DisjointSets::new(4).component_labels();
        assert_eq!(count, 4);
        assert_eq!(labels, vec![0, 1, 2, 3]);
    }

    #[test]
    fn union_merges_and_counts() {
        let mut d = DisjointSets::new(5);
        assert!(d.union(0, 1));
        assert!(d.union(1, 2));
        assert!(!d.union(0, 2)); // already connected
        assert_eq!(d.find(0), d.find(2));
        let (count, labels) = d.component_labels();
        assert_eq!(count, 3);
        assert_eq!(labels, vec![0, 0, 0, 1, 2]);
    }

    #[test]
    fn labels_are_compact_and_consistent() {
        let mut d = DisjointSets::new(6);
        d.union(4, 5);
        d.union(0, 2);
        let (count, labels) = d.component_labels();
        assert_eq!(count, 4);
        assert_eq!(labels[0], labels[2]);
        assert_eq!(labels[4], labels[5]);
        assert!(labels.iter().all(|&l| l < count));
        // First-appearance ordering: vertex 0's component gets label 0.
        assert_eq!(labels[0], 0);
        assert_eq!(labels[1], 1);
    }

    #[test]
    fn empty_structure() {
        let d = DisjointSets::new(0);
        let (count, labels) = d.component_labels();
        assert_eq!(count, 0);
        assert!(labels.is_empty());
    }

    #[test]
    fn large_chain_flattens() {
        let n = 10_000;
        let mut d = DisjointSets::new(n);
        for i in 1..n {
            d.union(i - 1, i);
        }
        assert_eq!(d.find(0), d.find(n - 1));
        let (count, labels) = d.component_labels();
        assert_eq!(count, 1);
        assert!(labels.iter().all(|&l| l == 0));
    }
}
