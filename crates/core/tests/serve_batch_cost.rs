//! Count gate for a serve batch's repair and accounting: the nodes one
//! batch steps and the rows its accounting reads follow the batch, not
//! the graph.
//!
//! The workload is the Kempe gate's (`kempe_batch_cost.rs`): batches of
//! two double-edge swaps on random 8-regular graphs of 2,000 and 20,000
//! nodes. Per batch, the repair's node steps
//! ([`dima_core::ServeBatchReport::node_steps`]) and the nodes whose rows
//! the accounting read ([`dima_core::ServeBatchReport::nodes_touched`])
//! must stay under one bound that is the same at both sizes. An engine
//! round that steps every node, or an accounting pass that reads every
//! row, passes the smaller graph's 2,000 nodes in a single round or
//! batch and fails it.

mod swaps;

const BATCHES: usize = 6;
/// Most node steps, and most rows read, one batch may cost at any graph
/// size. The measured worst is 108 node steps (a batch at n = 20,000)
/// and 95 rows (n = 2,000); one round over every node of the smaller
/// graph costs 2,000.
const MAX_PER_BATCH: u64 = 400;

#[test]
fn per_batch_steps_and_reads_do_not_grow_with_n() {
    for n in [2_000, 20_000] {
        let costs: Vec<(u64, u64)> = swaps::swap_batch_reports(n, BATCHES)
            .iter()
            .map(|r| (r.node_steps, r.nodes_touched))
            .collect();
        for &(steps, touched) in &costs {
            assert!(steps > 0 && touched > 0, "n = {n}: a batch did no work: {costs:?}");
            assert!(steps <= MAX_PER_BATCH, "n = {n}: a repair stepped {steps} nodes: {costs:?}");
            assert!(touched <= MAX_PER_BATCH, "n = {n}: a batch read {touched} rows: {costs:?}");
        }
    }
}
