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
//! for its [`Frame`] — the whole network's triangles, listed once — and
//! builds each candidate's [`PeelState`] as a mask of it (see
//! [`crate::theme`]).
//!
//! A group holds its prefix, each member's node id and last item, and the
//! members' [`Carries`]: each one's join edges as sorted index edge ids
//! and the tidsets of the databases on them, in three flat arrays. When
//! the group's last task ends, all of it is freed.
//!
//! A worker keeps its buffers between tasks: its per-edge and per-vertex
//! scratch, one [`PeelState`] that every candidate it evaluates refills in
//! place, the join ids its evaluator writes, and the current task's
//! qualified children — their values, and their carries appended to one
//! [`Carries`]. A carry is copied once more, at exact size, only when the
//! task's children form a group that joins (two or more, below
//! `max_len`); a leaf's carry is overwritten by the next task's.
//!
//! Each sibling pair is joined exactly once, so the counters depend on the
//! qualified patterns alone, not on the thread count. The order nodes are
//! found in does: callers sort by something intrinsic.

use crate::peel::PeelState;
use crate::result::MinerStats;
use crate::theme::{Carries, Frame, Scratch, ThemeSource};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use tc_txdb::{Item, Pattern};
use tc_util::steal::Executor;

/// What a [`walk`] makes of a candidate pattern.
///
/// The walk lends the evaluator its worker's buffers: `state`, which the
/// next candidate refills, and `join`, which the walk copies from.
pub trait Evaluator: Sync {
    /// A qualified candidate's result.
    type Value: Send;

    /// Evaluates `pattern`, whose theme network `state` holds unpeeled (it
    /// may have no edge, and the evaluator may peel it): `None` when the
    /// candidate is unqualified, else its value, with the sorted index ids
    /// of the edges its children join on appended to `join`, which it finds
    /// empty ([`PeelState::extend_alive_index_ids`] at the step that
    /// defines them). Counters of the evaluation itself go to `stats`.
    fn evaluate(
        &self,
        pattern: Pattern,
        state: &mut PeelState,
        join: &mut Vec<u32>,
        stats: &mut MinerStats,
    ) -> Option<Self::Value>;
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

/// Qualified patterns `prefix ∪ {a}` sharing a parent, ascending by `a`.
struct Group {
    prefix: Pattern,
    /// Per member: `(node id, a)`.
    members: Vec<(u32, Item)>,
    /// Per member, in the same order: what its children join on.
    carries: Carries,
}

/// Join member `.1` of the group with each later member.
type Task = (Arc<Group>, usize);

/// One worker's nodes and share of the counters, and the buffers it
/// keeps between tasks.
struct Share<V> {
    nodes: Vec<Node<V>>,
    stats: MinerStats,
    scratch: Scratch,
    /// The candidate being evaluated.
    state: PeelState,
    /// What the evaluator says the candidate's children join on.
    join: Vec<u32>,
    /// The qualified candidates of the current task (at level 1, all of
    /// the worker's): last item and value, and their carries in the same
    /// order.
    found: Vec<(Item, V)>,
    carries: Carries,
}

impl<V> Share<V> {
    fn new(frame: &Frame<'_>) -> Self {
        Share {
            nodes: Vec::new(),
            stats: MinerStats::default(),
            scratch: frame.scratch(),
            state: PeelState::default(),
            join: Vec::new(),
            found: Vec::new(),
            carries: Carries::default(),
        }
    }

    /// Evaluates `pattern`, ending in `item`, whose theme network is in
    /// `state`; keeps its value and carry when it qualifies.
    fn evaluate<E>(&mut self, frame: &Frame<'_>, eval: &E, item: Item, pattern: Pattern)
    where
        E: Evaluator<Value = V>,
    {
        self.join.clear();
        let value = eval.evaluate(pattern, &mut self.state, &mut self.join, &mut self.stats);
        if let Some(value) = value {
            frame.carry(&self.join, &mut self.scratch, &mut self.carries);
            self.found.push((item, value));
        }
    }
}

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
    // Numbers `found`, the qualified extensions of node `parent` (whose
    // pattern is `prefix`) in ascending order, into `nodes`, and returns
    // their sibling group — with a copy of `carries`, theirs in the same
    // order — when two of them may join.
    let adopt = |parent,
                 prefix: Pattern,
                 found: &mut Vec<(Item, E::Value)>,
                 carries: &Carries,
                 nodes: &mut Vec<_>| {
        let joins = found.len() > 1 && prefix.len() + 1 < max_len;
        let mut members = Vec::with_capacity(if joins { found.len() } else { 0 });
        for (item, value) in found.drain(..) {
            // Relaxed: an id only has to be unique; it publishes nothing.
            let id = next_id.fetch_add(1, Ordering::Relaxed);
            if joins {
                members.push((id, item));
            }
            nodes.push(Node {
                id,
                parent,
                item,
                value,
            });
        }
        joins.then(|| {
            let carries = carries.clone();
            Arc::new(Group {
                prefix,
                members,
                carries,
            })
        })
    };
    let ex = Executor::new(threads);

    // Level 1, the only barrier: every item over the whole network.
    let (mut nodes, mut stats) = (Vec::new(), MinerStats::default());
    let seeded = ex.run(
        network.items_in_use(),
        |_| Share::new(&frame),
        |w: &mut Share<E::Value>, item, _| {
            w.stats.candidates_generated += 1;
            frame.seed(item, &mut w.scratch, &mut w.state);
            w.evaluate(&frame, eval, item, Pattern::singleton(item));
        },
    );
    let mut level1 = Vec::new();
    let mut parts = Vec::new();
    for (w, mut share) in seeded.into_iter().enumerate() {
        let found = share.found.drain(..).enumerate();
        level1.extend(found.map(|(i, (item, value))| (item, w, i, value)));
        add(&mut stats, &share.stats);
        parts.push(share.carries);
    }
    level1.sort_unstable_by_key(|&(item, ..)| item);
    let mut carries = Carries::default();
    for &(_, w, i, _) in &level1 {
        carries.push(parts[w].get(i));
    }
    let mut found = level1
        .into_iter()
        .map(|(item, .., value)| (item, value))
        .collect();
    let seeds = adopt(0, Pattern::empty(), &mut found, &carries, &mut nodes);
    // The seeds' group holds its own copy.
    drop((parts, carries));

    // Below it, a task joins member `i` of a group with each later member
    // and spawns the tasks of the qualified results' group.
    let shares = ex.run(
        seeds.into_iter().flat_map(tasks).collect(),
        |_| Share::new(&frame),
        |w: &mut Share<E::Value>, (group, i): Task, worker| {
            let (id, item) = group.members[i];
            let pattern = group.prefix.with_item(item);
            let carry = group.carries.get(i);
            w.carries.clear();
            for (j, &(_, sibling)) in group.members.iter().enumerate().skip(i + 1) {
                w.stats.candidates_generated += 1;
                let sibling_carry = group.carries.get(j);
                if !frame.join(carry, sibling_carry, &mut w.scratch, &mut w.state) {
                    w.stats.pruned_by_intersection += 1;
                    continue;
                }
                w.evaluate(&frame, eval, sibling, pattern.with_item(sibling));
            }
            if let Some(group) = adopt(id, pattern, &mut w.found, &w.carries, &mut w.nodes) {
                tasks(group).for_each(|task| worker.spawn(task));
            }
        },
    );
    for Share {
        nodes: mut part,
        stats: counts,
        ..
    } in shares
    {
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
