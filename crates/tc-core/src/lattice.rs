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
//! in one branch while another is near the root of a different one. A
//! group's join edges are freed when its last task ends.
//!
//! Each sibling pair is joined exactly once, so the counters depend on the
//! qualified patterns alone, not on the thread count. The order nodes are
//! found in does: callers sort by something intrinsic.

use crate::result::MinerStats;
use crate::theme::{ThemeNetwork, ThemeSource};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use tc_graph::EdgeKey;
use tc_txdb::{Item, Pattern};
use tc_util::steal::Executor;

/// What a [`walk`] makes of a candidate pattern.
pub trait Evaluator: Sync {
    /// A qualified candidate's result.
    type Value: Send;

    /// Evaluates a candidate's theme network: `None` when the candidate is
    /// unqualified. Counters of the evaluation itself go to `stats`.
    fn evaluate(&self, theme: &ThemeNetwork, stats: &mut MinerStats) -> Option<Self::Value>;

    /// The sorted edge set the children of `value`'s pattern join on. Asked
    /// once per node that has a sibling to join, by the task that found it.
    fn join_edges(&self, value: &Self::Value) -> Vec<EdgeKey>;
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
/// `(node id, a, join edges)`.
struct Group {
    prefix: Pattern,
    members: Vec<(u32, Item, Vec<EdgeKey>)>,
}

/// Join member `.1` of the group with each later member.
type Task = (Arc<Group>, usize);

/// One worker's nodes and its share of the counters.
type Share<V> = (Vec<Node<V>>, MinerStats);

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
    let next_id = AtomicU32::new(1);
    // Numbers `children`, the qualified extensions of node `parent` (whose
    // pattern is `prefix`) in ascending order, into `share`, and returns
    // their sibling group when two of them may join.
    let adopt = |parent, prefix: Pattern, children: Vec<_>, share: &mut Share<E::Value>| {
        let joins = children.len() > 1 && prefix.len() + 1 < max_len;
        let mut members = Vec::new();
        for (item, value) in children {
            // Relaxed: an id only has to be unique; it publishes nothing.
            let id = next_id.fetch_add(1, Ordering::Relaxed);
            if joins {
                members.push((id, item, eval.join_edges(&value)));
            }
            share.0.push(Node {
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
    let mut out = Share::default();
    let mut level1 = Vec::new();
    let seeded = ex.run(
        network.items_in_use(),
        |_| (Vec::new(), MinerStats::default()),
        |(found, stats), item, _| {
            stats.candidates_generated += 1;
            let theme = network.theme(&Pattern::singleton(item));
            found.extend(eval.evaluate(&theme, stats).map(|value| (item, value)));
        },
    );
    for (found, stats) in seeded {
        level1.extend(found);
        add(&mut out.1, &stats);
    }
    level1.sort_unstable_by_key(|&(item, _)| item);
    let seeds = adopt(0, Pattern::empty(), level1, &mut out);

    // Below it, a task joins member `i` of a group with each later member
    // and spawns the tasks of the qualified results' group.
    let shares = ex.run(
        seeds.into_iter().flat_map(tasks).collect(),
        |_| Share::default(),
        |share, (group, i): Task, worker| {
            let (id, item, ref join) = group.members[i];
            let pattern = group.prefix.with_item(item);
            let mut children = Vec::new();
            for &(_, sibling, ref sibling_join) in &group.members[i + 1..] {
                share.1.candidates_generated += 1;
                let within = tc_util::sorted::intersect(join, sibling_join);
                if within.is_empty() {
                    share.1.pruned_by_intersection += 1;
                    continue;
                }
                let theme = network.theme_within(&pattern.with_item(sibling), &within);
                if let Some(value) = eval.evaluate(&theme, &mut share.1) {
                    children.push((sibling, value));
                }
            }
            if let Some(group) = adopt(id, pattern, children, share) {
                tasks(group).for_each(|task| worker.spawn(task));
            }
        },
    );
    for (mut nodes, stats) in shares {
        // Keep the largest buffer: at one thread, the walk's whole output
        // is never copied.
        if nodes.len() > out.0.len() {
            std::mem::swap(&mut nodes, &mut out.0);
        }
        out.0.append(&mut nodes);
        add(&mut out.1, &stats);
    }
    out.0.shrink_to_fit();
    out
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
