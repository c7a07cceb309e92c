//! Count gates for serve mode's Kempe post-pass: the work one batch's
//! pass does follows the batch, not the graph, and the steps of any pass
//! follow its messages and the nodes it builds, not its rounds.
//!
//! A service with the Kempe pass on serves batches of two double-edge
//! swaps (8 link events, every degree kept at 8) on random 8-regular
//! graphs of 2,000 and 20,000 nodes. Per batch, the pass's built nodes,
//! node steps and messages must stay under one bound that is the same
//! at both sizes. A pass that builds, steps or greets every node grows
//! tenfold between the two and fails it.

mod swaps;

const BATCHES: usize = 6;
/// Most nodes one batch's pass may build, at any graph size. The
/// measured worst is 87 (a batch at n = 2,000); the bound stays below
/// the smaller graph's node count, which a per-node pass reaches.
const MAX_NODES_BUILT: u64 = 200;
/// Most node steps one batch's pass may take, at any graph size. The
/// measured worst is 455 (a batch at n = 2,000). A pass whose waiting
/// nodes are stepped every round instead of sleeping took 9,529 there; a
/// pass that steps every node in its first two rounds takes 40,000 at
/// the larger size alone.
const MAX_NODE_STEPS: u64 = 1_200;
/// Most messages one batch's pass may send, at any graph size. The
/// measured worst is 529; one greeting per node would add 2,000 at the
/// smaller size alone.
const MAX_MESSAGES: u64 = 1_200;

/// Per batch: (nodes the pass built, node steps, messages it sent).
fn batch_costs(n: usize) -> Vec<(u64, u64, u64)> {
    let reports = swaps::swap_batch_reports(n, BATCHES);
    reports
        .iter()
        .map(|r| {
            let k = r.reduction.expect("Kempe is on");
            assert!(k.max_color_after.is_none_or(|c| c.0 < k.target_colors), "{k:?}");
            (k.nodes_built, k.node_steps, k.messages_sent)
        })
        .collect()
}

#[test]
fn per_batch_kempe_work_does_not_grow_with_n() {
    let mut ran = 0;
    for n in [2_000, 20_000] {
        let costs = batch_costs(n);
        for &(built, steps, messages) in &costs {
            assert!(built <= MAX_NODES_BUILT, "n = {n}: a pass built {built} nodes: {costs:?}");
            assert!(steps <= MAX_NODE_STEPS, "n = {n}: a pass took {steps} steps: {costs:?}");
            assert!(messages <= MAX_MESSAGES, "n = {n}: a pass sent {messages}: {costs:?}");
        }
        ran += costs.iter().filter(|&&(built, ..)| built > 0).count();
    }
    assert!(ran > 0, "no batch needed the pass: the gate measured nothing");
}

/// Most node steps the set-up compaction may take per message sent and
/// node built. A built node is stepped when it is built, when mail
/// reaches it and when a wait of its own runs out, so its steps follow
/// the pass's messages. A node stepped every round while it waits for a
/// reply, a lock's release or its backoff's end takes about 7 steps per
/// message and node built here.
const MAX_STEPS_PER_UNIT: u64 = 2;

#[test]
fn setup_compaction_steps_follow_its_messages() {
    let (_, svc) = swaps::settled_service(2_000);
    let k = svc.last_compaction().expect("Kempe is on");
    assert!(k.comm_rounds > 0, "the set-up compaction did nothing: {k:?}");
    let units = k.messages_sent + k.nodes_built;
    assert!(
        k.node_steps <= MAX_STEPS_PER_UNIT * units,
        "{} node steps for {} messages and {} nodes built: {k:?}",
        k.node_steps,
        k.messages_sent,
        k.nodes_built
    );
}
