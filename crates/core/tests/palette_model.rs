//! Model-based property tests: `ColorSet` against `BTreeSet<u32>`, and
//! the flat per-port `PortColorSets` against one `ColorSet` per port,
//! under random operation sequences. The bitsets are the hot data
//! structures of every protocol, so their correctness is checked
//! exhaustively rather than assumed.

use std::collections::BTreeSet;

use dima_core::palette::{Color, ColorSet, PortColorSets};
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum Op {
    Insert(u32),
    Remove(u32),
    Contains(u32),
    FirstAbsent,
    Max,
    Len,
    AbsentBelow(u32),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u32..300).prop_map(Op::Insert),
        (0u32..300).prop_map(Op::Remove),
        (0u32..300).prop_map(Op::Contains),
        Just(Op::FirstAbsent),
        Just(Op::Max),
        Just(Op::Len),
        (0u32..80).prop_map(Op::AbsentBelow),
    ]
}

#[derive(Clone, Debug)]
enum PortOp {
    Insert(usize, u32),
    Contains(usize, u32),
    OwnInsert(u32),
    FirstAbsentInUnion(usize),
}

/// Ports are drawn from `0..8` and wrapped onto the matrix's port count;
/// colors reach past two 64-bit words so the stride grows mid-sequence.
fn arb_port_op() -> impl Strategy<Value = PortOp> {
    prop_oneof![
        (0usize..8, 0u32..200).prop_map(|(p, c)| PortOp::Insert(p, c)),
        (0usize..8, 0u32..200).prop_map(|(p, c)| PortOp::Contains(p, c)),
        (0u32..200).prop_map(PortOp::OwnInsert),
        (0usize..8).prop_map(PortOp::FirstAbsentInUnion),
    ]
}

fn model_first_absent(model: &BTreeSet<u32>) -> u32 {
    (0..).find(|c| !model.contains(c)).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn colorset_matches_btreeset_model(ops in proptest::collection::vec(arb_op(), 0..200)) {
        let mut set = ColorSet::new();
        let mut model: BTreeSet<u32> = BTreeSet::new();
        for op in ops {
            match op {
                Op::Insert(c) => {
                    prop_assert_eq!(set.insert(Color(c)), model.insert(c));
                }
                Op::Remove(c) => {
                    prop_assert_eq!(set.remove(Color(c)), model.remove(&c));
                }
                Op::Contains(c) => {
                    prop_assert_eq!(set.contains(Color(c)), model.contains(&c));
                }
                Op::FirstAbsent => {
                    prop_assert_eq!(set.first_absent().0, model_first_absent(&model));
                }
                Op::Max => {
                    prop_assert_eq!(set.max().map(|c| c.0), model.last().copied());
                }
                Op::Len => {
                    prop_assert_eq!(set.len(), model.len());
                    prop_assert_eq!(set.is_empty(), model.is_empty());
                }
                Op::AbsentBelow(bound) => {
                    let got: Vec<u32> = set.absent_below(bound).map(|c| c.0).collect();
                    let expect: Vec<u32> =
                        (0..bound).filter(|c| !model.contains(c)).collect();
                    prop_assert_eq!(got, expect);
                }
            }
        }
        // Final sweep: iteration order and content.
        let got: Vec<u32> = set.iter().map(|c| c.0).collect();
        let expect: Vec<u32> = model.iter().copied().collect();
        prop_assert_eq!(got, expect);
    }

    /// `first_absent_in_union` equals first-absent of the model union.
    #[test]
    fn union_first_absent_matches_model(
        a in proptest::collection::btree_set(0u32..200, 0..60),
        b in proptest::collection::btree_set(0u32..200, 0..60),
    ) {
        let sa: ColorSet = a.iter().map(|&c| Color(c)).collect();
        let sb: ColorSet = b.iter().map(|&c| Color(c)).collect();
        let union: BTreeSet<u32> = a.union(&b).copied().collect();
        prop_assert_eq!(
            sa.first_absent_in_union(&sb).0,
            model_first_absent(&union)
        );
        // Symmetric.
        prop_assert_eq!(sa.first_absent_in_union(&sb), sb.first_absent_in_union(&sa));
    }

    /// `PortColorSets` behaves like one `ColorSet` per port, through
    /// stride growth: no insert on one port disturbs another.
    #[test]
    fn port_sets_match_colorset_per_port_model(
        ports in 1usize..6,
        ops in proptest::collection::vec(arb_port_op(), 0..200),
    ) {
        let mut flat = PortColorSets::new(ports);
        let mut model: Vec<ColorSet> = vec![ColorSet::new(); ports];
        let mut own = ColorSet::new();
        for op in ops {
            match op {
                PortOp::Insert(p, c) => {
                    let p = p % ports;
                    prop_assert_eq!(flat.insert(p, Color(c)), model[p].insert(Color(c)));
                }
                PortOp::Contains(p, c) => {
                    let p = p % ports;
                    prop_assert_eq!(flat.contains(p, Color(c)), model[p].contains(Color(c)));
                }
                PortOp::OwnInsert(c) => {
                    own.insert(Color(c));
                }
                PortOp::FirstAbsentInUnion(p) => {
                    let p = p % ports;
                    prop_assert_eq!(
                        flat.first_absent_in_union(&own, p),
                        own.first_absent_in_union(&model[p])
                    );
                }
            }
        }
        prop_assert_eq!(flat.ports(), ports);
        for (p, set) in model.iter().enumerate() {
            let got: Vec<u32> = flat.iter(p).map(|c| c.0).collect();
            let expect: Vec<u32> = set.iter().map(|c| c.0).collect();
            prop_assert_eq!(got, expect, "port {}", p);
        }
        prop_assert_eq!(PortColorSets::from_sets(&model), flat.clone());
    }

    /// `PortColorSets::assign` replaces one port's set, as assigning a
    /// fresh `ColorSet` would, and leaves every other port alone; the
    /// rows answer `first_absent_in_union` like their models.
    #[test]
    fn port_sets_assign_matches_model(
        ports in 1usize..6,
        rows in proptest::collection::vec(
            (0usize..8, proptest::collection::vec(0u32..200, 0..6)),
            0..40,
        ),
        own in proptest::collection::btree_set(0u32..200, 0..20),
    ) {
        let mut flat = PortColorSets::new(ports);
        let mut model: Vec<ColorSet> = vec![ColorSet::new(); ports];
        let own: ColorSet = own.iter().map(|&c| Color(c)).collect();
        for (p, colors) in rows {
            let p = p % ports;
            flat.assign(p, colors.iter().map(|&c| Color(c)));
            model[p] = colors.iter().map(|&c| Color(c)).collect();
            for (q, set) in model.iter().enumerate() {
                let got: Vec<u32> = flat.iter(q).map(|c| c.0).collect();
                let expect: Vec<u32> = set.iter().map(|c| c.0).collect();
                prop_assert_eq!(got, expect, "port {}", q);
                prop_assert_eq!(
                    flat.first_absent_in_union(&own, q),
                    own.first_absent_in_union(set)
                );
            }
        }
    }
}
