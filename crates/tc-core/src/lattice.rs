//! One walk of the pattern lattice, shared by TCFI (Algorithm 3) and
//! TC-Tree construction (Algorithm 4).
//!
//! Both enumerate the set-enumeration tree over the item order `≺`: the
//! children of a qualified `p ∪ {a}` are `p ∪ {a, b}`, one per qualified
//! sibling `p ∪ {b}` with `a ≺ b`, each induced inside the intersection of
//! its parents' join edges (Proposition 5.3; empty ⇒ pruned unevaluated).
//! They differ only in the [`Evaluator`]: `C*_p(α)` by MPTD for the miner,
//! the decomposition `L_p` for the tree.
//!
//! The walk runs on the work-stealing executor ([`tc_util::steal`]) with one
//! barrier, after level 1. From there a task is one member of a sibling
//! group: it joins that member with each later sibling and spawns the
//! qualified results as the next group at once, so one worker can be deep
//! in one branch while another is near the root of a different one.
//!
//! No candidate's theme network is materialised. The walk asks the network
//! for its [`Frame`](crate::theme::Frame) — the whole network's triangles,
//! listed once — and builds each candidate's [`PeelState`] as a mask of it
//! (see [`crate::theme`]). A group holds its prefix and, per member, the
//! member's join edges as sorted index edge ids and the tidsets of the
//! databases on them. When the group's last task ends, all of it is freed.
//! Each worker keeps its own per-edge and per-vertex scratch.
//!
//! Each sibling pair is joined exactly once, so the counters depend on the
//! qualified patterns alone, not on the thread count. The order nodes are
//! found in does: callers sort by something intrinsic.

use crate::peel::PeelState;
use crate::result::MinerStats;
use crate::theme::{Carry, Scratch, ThemeSource};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use tc_txdb::{Item, Pattern};
use tc_util::steal::Executor;

/// What a [`walk`] makes of a candidate pattern.
pub trait Evaluator: Sync {
    /// A qualified candidate's result.
    type Value: Send;

    /// Evaluates `pattern`, whose theme network `state` holds unpeeled (it
    /// may have no edge): `None` when the candidate is unqualified, else its
    /// value and the sorted index ids of the edges its children join on
    /// ([`PeelState::alive_index_ids`] at the step that defines them).
    /// Counters of the evaluation itself go to `stats`.
    fn evaluate(
        &self,
        pattern: Pattern,
        state: PeelState,
        stats: &mut MinerStats,
    ) -> Option<(Self::Value, Vec<u32>)>;
}

/// A qualified pattern found by [`walk`].
pub struct Node<V> {
    /// Unique within one walk: `1..=n` for `n` nodes, in no given order.
    pub id: u32,
    /// The `id` of the node this one extends by `item`; `0` for an item.
    pub parent: u32,
    /// The last item of the pattern.
    pub item: Item,
    /// What the evaluator made of the pattern.
    pub value: V,
}

/// Qualified patterns `prefix ∪ {a}` sharing a parent, ascending by `a`:
/// `(node id, a, what its children join on)`.
struct Group {
    prefix: Pattern,
    members: Vec<(u32, Item, Carry)>,
}

/// Join member `.1` of the group with each later member.
type Task = (Arc<Group>, usize);

/// A qualified candidate: its last item, value and carry.
type Found<V> = (Item, V, Carry);

/// One worker's nodes, its share of the counters, and its scratch.
type Share<V> = (Vec<Node<V>>, MinerStats, Scratch);

/// Walks the pattern lattice of `network` on `threads` workers (1 runs
/// inline on the caller), evaluating every candidate of at most `max_len`
/// items — level 1 always — with `eval`.
///
/// Returns the qualified nodes in no particular order, and the counters:
/// `candidates_generated` and `pruned_by_intersection` are the walk's,
/// `mptd_calls` whatever the evaluator counted. `elapsed_secs` is left 0.
pub fn walk<N, E>(
    network: &N,
    eval: &E,
    threads: usize,
    max_len: usize,
) -> (Vec<Node<E::Value>>, MinerStats)
where
    N: ThemeSource + ?Sized,
    E: Evaluator,
{
    let frame = network.frame();
    let next_id = AtomicU32::new(1);
    // Evaluates `pattern`, ending in `item`, over `state`, and carries what
    // its children join on out of `scratch`, where the state was built.
    let evaluate = |item, pattern, state, stats: &mut _, scratch: &mut Scratch| {
        eval.evaluate(pattern, state, stats)
            .map(|(value, join)| (item, value, frame.carry(join, scratch)))
    };
    // Numbers `children`, the qualified extensions of node `parent` (whose
    // pattern is `prefix`) in ascending order, into `nodes`, and returns
    // their sibling group when two of them may join.
    let adopt = |parent, prefix: Pattern, children: Vec<Found<E::Value>>, nodes: &mut Vec<_>| {
        let joins = children.len() > 1 && prefix.len() + 1 < max_len;
        let mut members = Vec::new();
        for (item, value, carry) in children {
            // Relaxed: an id only has to be unique; it publishes nothing.
            let id = next_id.fetch_add(1, Ordering::Relaxed);
            if joins {
                members.push((id, item, carry));
            }
            nodes.push(Node {
                id,
                parent,
                item,
                value,
            });
        }
        joins.then(|| Arc::new(Group { prefix, members }))
    };
    let ex = Executor::new(threads);

    // Level 1, the only barrier: every item over the whole network.
    let (mut nodes, mut stats) = (Vec::new(), MinerStats::default());
    let mut level1 = Vec::new();
    let seeded = ex.run(
        network.items_in_use(),
        |_| (Vec::new(), MinerStats::default(), frame.scratch()),
        |(found, stats, scratch), item, _| {
            stats.candidates_generated += 1;
            let (pattern, state) = (Pattern::singleton(item), frame.seed(item, scratch));
            found.extend(evaluate(item, pattern, state, stats, scratch));
        },
    );
    for (found, part, _) in seeded {
        level1.extend(found);
        add(&mut stats, &part);
    }
    level1.sort_unstable_by_key(|&(item, _, _)| item);
    let seeds = adopt(0, Pattern::empty(), level1, &mut nodes);

    // Below it, a task joins member `i` of a group with each later member
    // and spawns the tasks of the qualified results' group.
    let shares = ex.run(
        seeds.into_iter().flat_map(tasks).collect(),
        |_| (Vec::new(), MinerStats::default(), frame.scratch()),
        |(nodes, stats, scratch): &mut Share<E::Value>, (group, i): Task, worker| {
            let (id, item, ref carry) = group.members[i];
            let pattern = group.prefix.with_item(item);
            let mut children = Vec::new();
            for &(_, sibling, ref sibling_carry) in &group.members[i + 1..] {
                stats.candidates_generated += 1;
                let Some(state) = frame.join(carry, sibling_carry, scratch) else {
                    stats.pruned_by_intersection += 1;
                    continue;
                };
                let child = pattern.with_item(sibling);
                children.extend(evaluate(sibling, child, state, stats, scratch));
            }
            if let Some(group) = adopt(id, pattern, children, nodes) {
                tasks(group).for_each(|task| worker.spawn(task));
            }
        },
    );
    for (mut part, counts, _) in shares {
        // Keep the largest buffer: at one thread, the walk's whole output
        // is never copied.
        if part.len() > nodes.len() {
            std::mem::swap(&mut part, &mut nodes);
        }
        nodes.append(&mut part);
        add(&mut stats, &counts);
    }
    nodes.shrink_to_fit();
    (nodes, stats)
}

/// The tasks of a group: every member but the last has a later sibling.
fn tasks(group: Arc<Group>) -> impl Iterator<Item = Task> {
    (0..group.members.len() - 1).map(move |i| (Arc::clone(&group), i))
}

fn add(total: &mut MinerStats, part: &MinerStats) {
    total.mptd_calls += part.mptd_calls;
    total.candidates_generated += part.candidates_generated;
    total.pruned_by_intersection += part.pruned_by_intersection;
}
