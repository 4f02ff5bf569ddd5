//! Binary segment persistence for [`TcTree`] (segment kind 2), with a
//! **lazy** reader that serves QBA / QBP queries straight off the file.
//!
//! Format version 3 (versions 1 and 2 are refused at open), two sections,
//! every `varint` an unsigned LEB128, canonical and range-checked for its
//! field:
//!
//! | id | name   | stream layout |
//! |----|--------|---------------|
//! | 1  | NODES  | `count varint`, then per node (root first) `parent varint` (zigzag of the difference from the previous record's parent; the root's is 0) `· item varint · levels varint` (`level count << 1 \| relative`) `· max_alpha f64 · blob_len varint`; a blob's offset is the sum of the `blob_len`s before it |
//! | 2  | LEVELS | per node, in directory order, per level: `alpha f64` (omitted for the last level, whose alpha is `max_alpha`) `· edge_count varint`, then the edges: an *absolute* blob codes the first as `u · v−u−1` and each next one as `du = u−u' · (du = 0 ? v−v'−1 : v−u−1)`; a *relative* blob codes each as its index into the parent's edge set, the first as is and each next one as `idx−idx'−1`; all varints |
//!
//! A node's *edge set* is the sorted, deduplicated union of its levels. A
//! blob is relative exactly when its parent is a *base* — not the root,
//! with a blob of 1 to 512 bytes — and every edge it holds lies in the
//! parent's edge set (by Theorem 5.1, true of every node a builder makes
//! below depth 1); it is absolute otherwise. The reader refuses either
//! bit where the other belongs, so a segment that decodes re-saves
//! byte-identically. Depth-1 blobs are always absolute, so a root-child
//! subtree is self-contained. A walk fetches a base's edge set once, on
//! the first of its children that misses the cache, and holds it until
//! the base's children are done: a resident base's flat decomposition
//! holds it sorted as it lies; a base a counting walk decodes for itself
//! gives its one level as it lies, or its levels merged once.
//!
//! [`SegmentTcTree::open`] streams only the NODES directory — parents,
//! items, per-node `α*` bounds, level counts and blob offsets into the
//! LEVELS blob — into flat records, a level-count array and CSR children;
//! a blob runs to the next node's offset, and patterns come from the
//! parent chain. That is enough to run Algorithm 5's pruning walk; the truss
//! decompositions themselves (the bulk of the data) are materialised per
//! node on first touch, from exactly the pages that overlap the node's
//! byte range, the last page a walk verified serving every node on it. A
//! query that prunes a subtree never reads its pages.
//!
//! The walk is written once and reduced two ways:
//! [`SegmentTcTree::query`] rebuilds every retrieved truss (the library
//! answer) by Equation 1 as one filter of the node's
//! [`FlatDecomposition`], [`SegmentTcTree::summarize`] reads its vertex
//! and edge counts — all a served response carries — off the node's count
//! ladder, one binary search and no edge.
//!
//! Materialised nodes live in a byte-budgeted node cache
//! ([`crate::cache`]): each as its count ladder when a counting walk
//! reached it, or as its flat decomposition — `L_p` in edge-set order,
//! with its ladder — once a caller asked for edges (`truss`, `query`).
//! Unbounded by default
//! (every touched node stays resident, the original behaviour), or
//! byte-budgeted via [`StoreOptions::cache_bytes`] so a daemon can serve a
//! segment much larger than its memory envelope. A counting walk caches
//! ladders alone: a miss decodes the node and keeps its ladder, and a
//! base whose edges a missed child needs is decoded for the walk and not
//! kept, so a served working set costs tens of bytes a node. Page reads go
//! through a [`crate::source::PageSource`] (a file, or an in-memory image).
//! See `docs/SEGMENT_FORMAT.md` for the byte-level format specification.

use crate::cache::{CacheStats, NodeCache, NodeEntry};
use crate::page::{write_segment, PageCursor, PageFile, SectionInfo, SegmentKind, PAGE_CAP};
use std::io::Write;
use std::path::Path;
use tc_core::{FlatDecomposition, TrussDecomposition, TrussLevel};
use tc_index::{QueryResult, TcNode, TcTree};
use tc_txdb::{Item, Pattern};
use tc_util::bytes::{checked_len_u32, put_f64, put_varint, unzigzag, zigzag, ByteReader};
use tc_util::sync::Arc;
use tc_util::{float, LoadError, Stopwatch};

const SEC_NODES: u32 = 1;
const SEC_LEVELS: u32 = 2;
/// NODES record lengths: an f64 and four varints of 10, 5, 5 and 10 bytes
/// at most, 1 byte each at least.
const MAX_RECORD: usize = 38;
const MIN_RECORD: u64 = 12;

fn corrupt(msg: impl Into<String>) -> LoadError {
    LoadError::Corrupt(format!("treeseg: {}", msg.into()))
}

/// The edge LEVELS codes as `(du, dv)` after `prev`, the level's previous
/// edge (`(0, 0)` before its first); `None` if an endpoint overflows `u32`.
#[inline]
fn edge_from((pu, pv): (u32, u32), du: u32, dv: u32) -> Option<(u32, u32)> {
    // A select, not a branch (`du = 0` is a coin flip); `v > u` fits u32.
    let u = u64::from(pu) + u64::from(du);
    let base = if du == 0 { u64::from(pv) } else { u };
    let v = u32::try_from(base + u64::from(dv) + 1).ok()?;
    Some((u as u32, v))
}

/// The high bit of a [`SegmentTcTree`] level-count entry: the node's blob
/// is coded against its parent's edge set.
const RELATIVE: u32 = 1 << 31;

/// The largest blob a node may have and still be a base for its children.
/// A child decodes against its parent's edge set, the sorted union of the
/// parent's levels. A parent resident with its edges holds that set as it
/// lies (its [`FlatDecomposition`]), but a parent a counting walk decodes
/// for itself must merge its levels first, and the writer merges each
/// base's once — a cost in the parent's edges, which its blob bounds (an
/// edge takes one byte at least). When every parent merged afresh, larger
/// ones cost more than the child's decode saved: with no bound, a
/// `coauthor-dense` QBP of two or three items under a tenth-of-working-set
/// budget first merged parents of thousands of edges and took twice as
/// long. The bound is part of the format: open refuses a relative blob
/// under a larger parent, so changing it changes the version.
const MAX_BASE_BLOB: u64 = 512;

/// Whether a node whose blob is `blob_len` bytes is a base.
fn is_base(blob_len: u64) -> bool {
    (1..=MAX_BASE_BLOB).contains(&blob_len)
}

/// Replaces `out` with the sorted, deduplicated union of `truss`'s levels.
fn merge_levels(truss: &TrussDecomposition, out: &mut Vec<(u32, u32)>) {
    out.clear();
    out.reserve(truss.num_edges());
    let mut levels = truss.levels.iter();
    if let Some(first) = levels.next() {
        out.extend_from_slice(&first.edges);
    }
    // Each further level is a sorted run: merge it into `out` from the
    // back, in place. Only a base's set is built, and a base's blob bounds
    // its levels and edges, so a pass per level costs less than a sort.
    for level in levels {
        let (mut i, mut j) = (out.len(), level.edges.len());
        out.resize(i + j, (0, 0));
        for k in (0..out.len()).rev() {
            if j == 0 {
                break;
            }
            if i > 0 && out[i - 1] > level.edges[j - 1] {
                i -= 1;
                out[k] = out[i];
            } else {
                j -= 1;
                out[k] = level.edges[j];
            }
        }
    }
    out.dedup();
}

/// A base's edge set, as the writer and [`SegmentTcTree::to_tree`] code
/// and decode a child's relative blob against it from the base's
/// level-order decomposition: a one-level base's only level as it lies
/// (already sorted and free of repeats), or the levels of a larger one
/// merged once for a run of its children.
#[derive(Debug, Default)]
struct BaseSet {
    /// The base whose levels `merged` holds (0, the root: none).
    merged_of: u32,
    merged: Vec<(u32, u32)>,
}

impl BaseSet {
    /// The edge set of node `id`, whose decomposition is `truss`.
    fn of<'a>(&'a mut self, id: u32, truss: &'a TrussDecomposition) -> &'a [(u32, u32)] {
        if let [level] = &truss.levels[..] {
            return &level.edges;
        }
        if self.merged_of != id {
            merge_levels(truss, &mut self.merged);
            self.merged_of = id;
        }
        &self.merged
    }
}

/// A base's edge set, which its children's relative blobs index into, held
/// for as long as a walk decodes them.
enum EdgeSet {
    /// A base resident with its edges: its flat decomposition's, as they
    /// lie.
    Flat(Arc<FlatDecomposition>),
    /// A base a counting walk decoded for itself and does not keep: its
    /// one level's edges, or its levels merged.
    Merged(Vec<(u32, u32)>),
}

impl EdgeSet {
    /// The edge set of `truss`, which is not kept.
    fn merged(mut truss: TrussDecomposition) -> EdgeSet {
        if let [_] = &truss.levels[..] {
            return EdgeSet::Merged(truss.levels.pop().map(|l| l.edges).unwrap_or_default());
        }
        let mut merged = Vec::new();
        merge_levels(&truss, &mut merged);
        EdgeSet::Merged(merged)
    }

    fn edges(&self) -> &[(u32, u32)] {
        match self {
            EdgeSet::Flat(flat) => flat.edges(),
            EdgeSet::Merged(edges) => edges,
        }
    }
}

/// The index of `e` in `set` (strictly ascending) at or after `from`,
/// found by a forward scan.
fn index_from(set: &[(u32, u32)], from: usize, e: (u32, u32)) -> Option<usize> {
    let at = from + set[from..].iter().take_while(|&&x| x < e).count();
    (set.get(at) == Some(&e)).then_some(at)
}

/// Whether every edge of `levels` lies in `set`, a parent's edge set: the
/// condition for a relative blob.
fn nested(levels: &[TrussLevel], set: &[(u32, u32)]) -> bool {
    levels.iter().all(|level| {
        let mut from = 0;
        level
            .edges
            .iter()
            .all(|&e| index_from(set, from, e).map(|at| from = at + 1).is_some())
    })
}

/// Appends `node`'s LEVELS blob to `out`, relative to `set` (its parent's
/// edge set) if given and absolute otherwise. `Ok(false)`, with part of a
/// blob appended, if an edge lies outside `set`; `InvalidInput` unless
/// level alphas are finite, ≥ 0 and ascend and level edges are canonical
/// and ascend.
fn put_blob(out: &mut Vec<u8>, node: &TcNode, set: Option<&[(u32, u32)]>) -> std::io::Result<bool> {
    let invalid = |what| {
        let msg = format!("{}: level {what}", node.pattern());
        Err(std::io::Error::new(std::io::ErrorKind::InvalidInput, msg))
    };
    let truss = &node.truss.levels;
    let mut prev_alpha = f64::NEG_INFINITY;
    for (i, level) in truss.iter().enumerate() {
        if !level.alpha.is_finite() || level.alpha < 0.0 || level.alpha <= prev_alpha {
            return invalid("alphas must be finite, ≥ 0 and ascend");
        }
        prev_alpha = level.alpha;
        if i + 1 < truss.len() {
            put_f64(out, level.alpha);
        }
        let m = checked_len_u32(level.edges.len(), "level edge count")?;
        put_varint(out, m.into());
        if let Some(set) = set {
            // A repeated or descending edge is not found past its
            // predecessor, and is coded absolute, where it fails below.
            let mut from = 0;
            for &e in &level.edges {
                let Some(at) = index_from(set, from, e) else {
                    return Ok(false);
                };
                put_varint(out, (at - from) as u64);
                from = at + 1;
            }
            continue;
        }
        let mut prev = (0, 0);
        for &(u, v) in &level.edges {
            // A non-ascending edge wraps a delta, and fails to decode.
            let du = u.wrapping_sub(prev.0);
            let base = if du == 0 { prev.1 } else { u };
            let dv = v.wrapping_sub(base).wrapping_sub(1);
            if edge_from(prev, du, dv) != Some((u, v)) {
                return invalid("edges must be canonical and ascend");
            }
            put_varint(out, du.into());
            put_varint(out, dv.into());
            prev = (u, v);
        }
    }
    Ok(true)
}

/// Writes `tree` to `w` as a segment file; `InvalidInput` unless level
/// alphas are finite, ≥ 0 and ascend and level edges are canonical and
/// ascend, as every builder emits them and as the reader demands.
pub fn save_tree_segment<W: Write>(tree: &TcTree, w: &mut W) -> std::io::Result<()> {
    let mut nodes = Vec::new();
    let mut levels = Vec::new();
    put_varint(&mut nodes, tree.nodes().len() as u64);
    let mut prev_parent = 0;
    // Each node's blob length so far. Builders number siblings
    // contiguously, so a base of several levels is merged once for all its
    // children.
    let mut blob_lens = Vec::with_capacity(tree.nodes().len());
    let mut base = BaseSet::default();
    for node in tree.nodes() {
        let blob_off = levels.len();
        // The edge set of a parent written before this node, if a base.
        let set = match blob_lens.get(node.parent as usize) {
            Some(&len) if node.parent != 0 && is_base(len) => {
                Some(base.of(node.parent, &tree.node(node.parent).truss))
            }
            _ => None,
        };
        let relative = set.is_some() && put_blob(&mut levels, node, set)?;
        if !relative {
            levels.truncate(blob_off);
            put_blob(&mut levels, node, None)?;
        }
        let truss = &node.truss.levels;
        put_varint(&mut nodes, zigzag(i64::from(node.parent) - prev_parent));
        prev_parent = node.parent.into();
        put_varint(&mut nodes, node.item.0.into());
        let field = checked_len_u32(2 * truss.len() + usize::from(relative), "level count")?;
        put_varint(&mut nodes, field.into());
        put_f64(&mut nodes, node.truss.max_alpha().unwrap_or(0.0));
        let blob_len = (levels.len() - blob_off) as u64;
        put_varint(&mut nodes, blob_len);
        blob_lens.push(blob_len);
    }
    write_segment(
        w,
        SegmentKind::TcTree,
        &[(SEC_NODES, nodes), (SEC_LEVELS, levels)],
    )
}

/// Writes to a file path.
pub fn save_tree_segment_to_path(tree: &TcTree, path: &Path) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    save_tree_segment(tree, &mut f)
}

/// One NODES directory record, decoded: everything Algorithm 5 needs to
/// walk and prune a node, but no truss edges and nothing on the heap.
/// A blob's length is not kept: it runs to the next record's `blob_off`
/// (the last to the end of LEVELS). Level counts, which only
/// materialisation reads, sit in an array of their own.
#[derive(Debug, Clone, Copy)]
struct NodeRec {
    parent: u32,
    item: Item,
    max_alpha: f64,
    blob_off: u64,
}

// A field creeping back into the record fails the build here, by name.
const _: () = assert!(std::mem::size_of::<NodeRec>() == 24);

/// How to open a [`SegmentTcTree`]: whether materialised nodes are
/// byte-budgeted. The default (unbounded cache) is exactly the pre-cache
/// behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreOptions {
    /// Byte budget for resident node-cache entries (count ladders, and
    /// flat decompositions once edges were read); `None` = unbounded.
    pub cache_bytes: Option<u64>,
}

/// A TC-Tree served lazily from a segment file.
///
/// Opening validates the header, the file length, and the NODES directory;
/// truss decompositions are parsed on demand (checksum-verified per page)
/// and held in the node cache — as count ladders for counting callers and
/// flat decompositions for edge callers — so repeated queries touch the file
/// once per node — until the cache's byte budget (if any) evicts cold nodes,
/// after which a re-touch re-parses the identical bytes. Per node, an open
/// tree holds a 24-byte directory record, a 4-byte level count and 8
/// bytes of CSR children — 36 bytes whatever the budget, and no
/// allocation of its own. The cache adds a 16-byte slot and a 1-byte
/// second-chance bit a node only in the blocks of
/// [`crate::cache::BLOCK`] nodes a lookup has cached a node in.
#[derive(Debug)]
pub struct SegmentTcTree {
    pages: PageFile,
    levels: SectionInfo,
    nodes: Box<[NodeRec]>,
    /// Node `id`'s level count, read only to materialise it, with
    /// [`RELATIVE`] set if its blob is coded against its parent's edges.
    level_counts: Box<[u32]>,
    /// Node `id`'s children: `child_ids[first_child[id]..first_child[id + 1]]`.
    first_child: Box<[u32]>,
    child_ids: Box<[u32]>,
    /// The root's children's items: the `q = S` of a QBA.
    all_items: Pattern,
    /// `max_p α*_p` over the directory.
    alpha_bound: f64,
    cache: NodeCache,
}

/// One retrieved node of a [`QuerySummary`]: the sizes of `C*_p(α_q)`,
/// with `p` = [`SegmentTcTree::pattern`]`(node)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrussCount {
    /// The node's id in the segment's directory.
    pub node: u32,
    /// `|V*_p(α_q)|`.
    pub vertices: usize,
    /// `|E*_p(α_q)|`, never zero.
    pub edges: usize,
}

/// What [`SegmentTcTree::summarize`] answers: a [`QueryResult`] with each
/// truss reduced to its sizes — all a served response carries of it.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySummary {
    /// Every node with `C*_p(α_q) ≠ ∅` and `p ⊆ q`, in tree BFS order; its
    /// length is the paper's "Retrieved Nodes".
    pub trusses: Vec<TrussCount>,
    /// Total nodes visited during the walk (including pruned frontier).
    pub visited_nodes: usize,
    /// Wall-clock query time in seconds.
    pub elapsed_secs: f64,
}

impl SegmentTcTree {
    /// Opens a tree segment at `path` with default [`StoreOptions`].
    pub fn open(path: &Path) -> Result<SegmentTcTree, LoadError> {
        Self::open_with(path, StoreOptions::default())
    }

    /// Opens a tree segment at `path` with an explicit cache budget.
    pub fn open_with(path: &Path, opts: StoreOptions) -> Result<SegmentTcTree, LoadError> {
        Self::from_pages(PageFile::open(path)?, opts)
    }

    /// Opens an in-memory segment image (tests, conversions).
    pub fn from_bytes(bytes: Vec<u8>) -> Result<SegmentTcTree, LoadError> {
        Self::from_bytes_with(bytes, StoreOptions::default())
    }

    /// Opens an in-memory segment image with an explicit cache budget.
    pub fn from_bytes_with(bytes: Vec<u8>, opts: StoreOptions) -> Result<SegmentTcTree, LoadError> {
        Self::from_pages(PageFile::from_bytes(bytes)?, opts)
    }

    fn from_pages(pages: PageFile, opts: StoreOptions) -> Result<SegmentTcTree, LoadError> {
        if pages.header().kind != SegmentKind::TcTree {
            return Err(corrupt("segment holds a network, not a TC-Tree"));
        }
        let levels = pages.header().section(SEC_LEVELS)?;
        let dir = pages.header().section(SEC_NODES)?;
        // Read page by page, each verified as reached, through one cursor
        // into a window holding a whole record; each record is validated
        // as it is read.
        let mut cursor = PageCursor::new();
        let mut window = Vec::with_capacity(PAGE_CAP + MAX_RECORD);
        let (mut at, mut read) = (0, 0);
        // Tops `window[at..]`, what the parser has yet to consume, up to
        // `need` bytes (or the directory's end) by the rest of one page at
        // a time, so a record that straddles pages reaches the parser whole.
        let mut fill = |window: &mut Vec<u8>, at: &mut usize, need: usize| {
            if window.len() - *at < need {
                window.drain(..*at);
                *at = 0;
                while window.len() < need && read < dir.byte_len {
                    let span = (dir.byte_len - read).min(PAGE_CAP as u64 - read % PAGE_CAP as u64);
                    window.extend_from_slice(&pages.read_range(&dir, read, span, &mut cursor)?);
                    read += span;
                }
            }
            Ok::<_, LoadError>(())
        };
        fill(&mut window, &mut at, MAX_RECORD)?;
        let bad = || corrupt("NODES directory truncated or malformed");
        let mut r = ByteReader::new(&window);
        let count = r.varint(u64::MAX).ok_or_else(bad)?;
        at = window.len() - r.remaining();
        if count == 0 {
            return Err(corrupt("a tree has at least the root node"));
        }
        // A count the directory cannot hold is corrupt; this bounds `nodes`.
        if count > (dir.byte_len - at as u64) / MIN_RECORD {
            return Err(corrupt("node count exceeds directory size"));
        }
        let mut nodes = Vec::with_capacity(count as usize);
        let mut level_counts = Vec::with_capacity(count as usize);
        // Children as CSR by a counting pass: children are counted into
        // their parent's slot as records arrive, prefix sums leave each slot
        // at its range's end, and placing ids from the highest down fills
        // every range ascending, in whatever order the directory lists them.
        let mut first_child = vec![0u32; count as usize + 1].into_boxed_slice();
        let mut alpha_bound = 0.0f64;
        let (mut parent, mut blob_off) = (0i64, 0u64);
        for id in 0..count {
            fill(&mut window, &mut at, MAX_RECORD)?;
            let mut r = ByteReader::new(&window[at..]);
            let delta = r.varint(u64::MAX).map(unzigzag).ok_or_else(bad)?;
            let item = Item(r.varint(u32::MAX.into()).ok_or_else(bad)? as u32);
            let levels_field = r.varint(u32::MAX.into()).ok_or_else(bad)? as u32;
            let max_alpha = r.f64().ok_or_else(bad)?;
            let blob_len = r.varint(u64::MAX).ok_or_else(bad)?;
            at = window.len() - r.remaining();
            // The root's parent is 0; any other node's precedes it.
            parent = parent.checked_add(delta).unwrap_or(-1);
            if !(0..(id as i64).max(1)).contains(&parent) {
                return Err(corrupt("parent must precede child"));
            }
            let (level_count, relative) = (levels_field >> 1, levels_field & 1 == 1);
            if relative && parent == 0 {
                return Err(corrupt(format!("node {id} is coded against the root")));
            }
            if relative {
                // The parent's blob runs to the next record's, maybe this one's.
                let p = parent as usize;
                let end = nodes
                    .get(p + 1)
                    .map_or(blob_off, |next: &NodeRec| next.blob_off);
                if !is_base(end - nodes[p].blob_off) {
                    return Err(corrupt(format!(
                        "node {id} is coded against a parent whose blob is empty or over \
                         {MAX_BASE_BLOB} bytes"
                    )));
                }
            }
            // Without levels there is no last alpha to be the bound: +0.0.
            let unbound = level_count == 0 && max_alpha.to_bits() != 0;
            if !max_alpha.is_finite() || max_alpha < 0.0 || unbound {
                return Err(corrupt(format!("node {id} has invalid alpha bound")));
            }
            if id > 0 {
                first_child[parent as usize] += 1;
            }
            alpha_bound = alpha_bound.max(max_alpha);
            nodes.push(NodeRec {
                parent: parent as u32,
                item,
                max_alpha,
                blob_off,
            });
            level_counts.push(level_count | if relative { RELATIVE } else { 0 });
            blob_off = blob_off.saturating_add(blob_len);
        }
        fill(&mut window, &mut at, 1)?;
        if at < window.len() {
            return Err(corrupt("trailing bytes in NODES directory"));
        }
        if blob_off != levels.byte_len {
            return Err(corrupt("node blobs do not sum to the LEVELS length"));
        }
        let nodes = nodes.into_boxed_slice();
        let level_counts = level_counts.into_boxed_slice();
        for i in 1..first_child.len() {
            first_child[i] += first_child[i - 1];
        }
        let mut child_ids = vec![0u32; nodes.len() - 1].into_boxed_slice();
        for id in (1..nodes.len()).rev() {
            let slot = &mut first_child[nodes[id].parent as usize];
            *slot -= 1;
            child_ids[*slot as usize] = id as u32;
        }
        let all_items = child_ids[..first_child[1] as usize]
            .iter()
            .map(|&c| nodes[c as usize].item)
            .collect();
        let cache = NodeCache::new(nodes.len(), opts.cache_bytes);
        Ok(SegmentTcTree {
            pages,
            levels,
            nodes,
            level_counts,
            first_child,
            child_ids,
            all_items,
            alpha_bound,
            cache,
        })
    }

    /// Node `id`'s children, ascending.
    fn children(&self, id: u32) -> &[u32] {
        let id = id as usize;
        &self.child_ids[self.first_child[id] as usize..self.first_child[id + 1] as usize]
    }

    /// Number of nodes **excluding** the root, matching
    /// [`TcTree::num_nodes`].
    pub fn num_nodes(&self) -> usize {
        self.nodes.len() - 1
    }

    /// The pattern spelled by node `id`'s root path, rebuilt from the
    /// parent chain (one directory lookup per item).
    pub fn pattern(&self, id: u32) -> Pattern {
        let trail = || {
            std::iter::successors(Some(id), |&at| Some(self.nodes[at as usize].parent))
                .take_while(|&at| at != 0)
        };
        // Sized first, so the pattern is one allocation and never a regrowth.
        let mut items = Vec::with_capacity(trail().count());
        items.extend(trail().map(|at| self.nodes[at as usize].item));
        Pattern::new(items)
    }

    /// Every item with a level-1 node — the query pattern of a QBA, built
    /// once at open.
    pub fn all_items(&self) -> &Pattern {
        &self.all_items
    }

    /// `max_p α*_p` over all nodes, from the directory alone — no truss
    /// materialisation; computed once at open.
    pub fn alpha_upper_bound(&self) -> f64 {
        self.alpha_bound
    }

    /// Nodes **currently resident** in the cache — a true gauge: it rises
    /// on materialisation and falls on eviction. (Cumulative work is
    /// [`SegmentTcTree::materialized_total`].)
    pub fn materialized_nodes(&self) -> usize {
        self.cache.resident()
    }

    /// Materialisations since open, cumulative — a re-materialised
    /// (previously evicted) node counts again.
    pub fn materialized_total(&self) -> u64 {
        self.cache.stats().materialized_total
    }

    /// Snapshot of the node-cache counters (bytes, budget, hits, misses,
    /// evictions).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The node cache itself, for tests that inspect its entries.
    #[doc(hidden)]
    pub fn cache(&self) -> &NodeCache {
        &self.cache
    }

    /// The decomposition of node `id` in edge-set order, reading it from
    /// the file on first touch (or again after eviction, or when only its
    /// counts are resident). The returned `Arc` pins the data for the
    /// caller — eviction can never invalidate it mid-query.
    pub fn truss(&self, id: u32) -> Result<Arc<FlatDecomposition>, LoadError> {
        match self.resolve(id, &mut PageCursor::new(), true)? {
            EdgeSet::Flat(flat) => Ok(flat),
            EdgeSet::Merged(_) => unreachable!("a resolve that caches edges yields them flat"),
        }
    }

    /// Node `id`'s edge set, reading through `cursor`'s page: a miss
    /// climbs to the nearest ancestor whose edges are resident or that
    /// needs no parent to decode, and decodes the chain back down, each
    /// node against its parent's edge set — caching each with its edges if
    /// `cache_edges` is set, and none of them otherwise.
    fn resolve(
        &self,
        id: u32,
        cursor: &mut PageCursor,
        cache_edges: bool,
    ) -> Result<EdgeSet, LoadError> {
        if let Some(entry) = self.cache.get(id, true) {
            return Ok(EdgeSet::Flat(flat_of(&entry).clone()));
        }
        let mut chain = vec![id];
        let mut parent = None;
        while let Some(up) = self.base_of(*chain.last().unwrap()) {
            if let Some(entry) = self.cache.get(up, true) {
                parent = Some(EdgeSet::Flat(flat_of(&entry).clone()));
                break;
            }
            chain.push(up);
        }
        for &at in chain.iter().rev() {
            let truss = self.decode(at, cursor, parent.as_ref().map(EdgeSet::edges))?;
            // The parent is unpinned before its child is inserted, so the
            // sweep may evict it to make room.
            drop(parent.take());
            parent = Some(if cache_edges {
                EdgeSet::Flat(flat_of(&self.cache.insert(at, NodeEntry::edges(&truss))).clone())
            } else {
                EdgeSet::merged(truss)
            });
        }
        Ok(parent.expect("the chain holds at least `id`"))
    }

    /// The parent node `id` decodes against: its parent, unless that is
    /// the root or not a base (see [`MAX_BASE_BLOB`]).
    fn base_of(&self, id: u32) -> Option<u32> {
        let parent = self.nodes[id as usize].parent;
        (parent != 0 && is_base(self.blob_range(parent).1)).then_some(parent)
    }

    /// Node `id`'s blob as `(offset, length)` in LEVELS; open checked that
    /// the offsets ascend to the LEVELS length.
    fn blob_range(&self, id: u32) -> (u64, u64) {
        let i = id as usize;
        let end = self
            .nodes
            .get(i + 1)
            .map_or(self.levels.byte_len, |next| next.blob_off);
        (self.nodes[i].blob_off, end - self.nodes[i].blob_off)
    }

    /// Reads and decodes node `id`'s LEVELS blob through `cursor`'s page,
    /// leaving the cache alone. `parent_set` is the edge set of
    /// [`SegmentTcTree::base_of`]`(id)`, if any: a relative blob indexes
    /// into it, and an absolute one must not fit inside it.
    fn decode(
        &self,
        id: u32,
        cursor: &mut PageCursor,
        parent_set: Option<&[(u32, u32)]>,
    ) -> Result<TrussDecomposition, LoadError> {
        let i = id as usize;
        debug_assert_eq!(
            parent_set.is_some(),
            self.base_of(id).is_some(),
            "node {id}"
        );
        let (off, len) = self.blob_range(id);
        let blob = self.pages.read_range(&self.levels, off, len, cursor)?;
        let relative = self.level_counts[i] & RELATIVE != 0;
        let level_count = self.level_counts[i] & !RELATIVE;
        let base = parent_set.filter(|_| relative);
        let levels = decode_levels(&blob, level_count, self.nodes[i].max_alpha, base)
            .map_err(|what| corrupt(format!("node {id} {what}")))?;
        if let Some(set) = parent_set.filter(|_| !relative) {
            if nested(&levels, set) {
                return Err(corrupt(format!(
                    "node {id} lies in its parent's edges but is coded absolute"
                )));
            }
        }
        Ok(TrussDecomposition {
            pattern: self.pattern(id),
            levels,
        })
    }

    /// Algorithm 5 over the segment, written once for both answers: walks
    /// the directory skeleton for `(q, α_q)`, materialising only the nodes
    /// the pruned walk retrieves — with their edges if `edges`, else their
    /// counts alone — and collects what `keep` makes of each node's cache
    /// entry, `None` meaning `C*_p(α_q) = ∅`, which prunes the subtree
    /// (Proposition 5.2). Returns the kept values in BFS order and the
    /// number of nodes visited.
    fn walk<T>(
        &self,
        q: &Pattern,
        alpha_q: f64,
        edges: bool,
        mut keep: impl FnMut(u32, &NodeEntry) -> Option<T>,
    ) -> Result<(Vec<T>, usize), LoadError> {
        let mut kept = Vec::new();
        let mut visited = 0usize;
        let mut cursor = PageCursor::new();
        let mut queue = std::collections::VecDeque::from([0u32]);
        while let Some(nf) = queue.pop_front() {
            // `nf`'s edge set once a child of it misses, pinned until its
            // children are done: the queue holds ids, never an entry, and
            // the walk pins one base at a time.
            let mut parent = None;
            for &nc in self.children(nf) {
                let node = &self.nodes[nc as usize];
                visited += 1;
                // Prune subtrees branching on items outside q.
                if !q.contains(node.item) {
                    continue;
                }
                // Prune by the directory's α* bound before touching the
                // file: C*_p(α) = ∅ for α ≥ α*_p (Proposition 5.2 again).
                if !float::gt_eps(node.max_alpha, alpha_q) {
                    continue;
                }
                let entry = match self.cache.get(nc, edges) {
                    Some(entry) => entry,
                    None => {
                        let set = match self.base_of(nc) {
                            Some(_) => {
                                // A counting walk decodes the base's edges
                                // for itself: cached, they would crowd out
                                // the ladders they serve.
                                if parent.is_none() {
                                    parent = Some(self.resolve(nf, &mut cursor, edges)?);
                                }
                                parent.as_ref().map(EdgeSet::edges)
                            }
                            None => None,
                        };
                        let truss = self.decode(nc, &mut cursor, set)?;
                        let entry = if edges {
                            NodeEntry::edges(&truss)
                        } else {
                            NodeEntry::counts(&truss)
                        };
                        // A concurrent materialisation of the same node
                        // parses identical bytes, so losing the insert race
                        // is harmless — `insert` adopts the winner's entry.
                        self.cache.insert(nc, entry)
                    }
                };
                // The pin lasts for this one reduction only.
                let Some(k) = keep(nc, &entry) else {
                    continue;
                };
                kept.push(k);
                queue.push_back(nc);
            }
            // The sweeps of `nf`'s children passed over its pin.
            if parent.take().is_some() {
                self.cache.trim();
            }
        }
        Ok((kept, visited))
    }

    /// Answers `(q, α_q)` with every retrieved truss rebuilt in full
    /// (Equation 1, [`FlatDecomposition::truss_at`]); every node it
    /// retrieves is cached with its edges.
    pub fn query(&self, q: &Pattern, alpha_q: f64) -> Result<QueryResult, LoadError> {
        let sw = Stopwatch::start();
        let (trusses, visited) = self.walk(q, alpha_q, true, |_, entry| {
            let flat = flat_of(entry);
            (flat.ladder().at(alpha_q).1 > 0).then(|| flat.truss_at(alpha_q))
        })?;
        Ok(QueryResult {
            query: q.clone(),
            alpha: alpha_q,
            retrieved_nodes: trusses.len(),
            visited_nodes: visited,
            trusses,
            elapsed_secs: sw.elapsed_secs(),
        })
    }

    /// Answers `(q, α_q)` with every retrieved truss *counted* instead of
    /// rebuilt: the same walk, nodes and order as [`SegmentTcTree::query`],
    /// but `(|V|, |E|)` are read off each node's
    /// [`CountLadder`](tc_core::CountLadder) by one binary search — no
    /// edge is touched on a hit, and the request holds no truss. Any
    /// resident entry serves (one of edges carries its ladder); a miss
    /// decodes the node and caches its ladder alone, tens of bytes where
    /// its edges take kilobytes. This is
    /// what the daemon answers with; a QBA passes
    /// [`SegmentTcTree::all_items`] as `q`, a QBP `α_q = 0`.
    pub fn summarize(&self, q: &Pattern, alpha_q: f64) -> Result<QuerySummary, LoadError> {
        let sw = Stopwatch::start();
        let (trusses, visited_nodes) = self.walk(q, alpha_q, false, |node, entry| {
            let (vertices, edges) = entry.ladder().at(alpha_q);
            (edges > 0).then_some(TrussCount {
                node,
                vertices,
                edges,
            })
        })?;
        Ok(QuerySummary {
            trusses,
            visited_nodes,
            elapsed_secs: sw.elapsed_secs(),
        })
    }

    /// Query-by-alpha (QBA): `q = S`, only `α_q` filters.
    pub fn query_by_alpha(&self, alpha_q: f64) -> Result<QueryResult, LoadError> {
        self.query(&self.all_items, alpha_q)
    }

    /// Query-by-pattern (QBP): `α_q = 0`.
    pub fn query_by_pattern(&self, q: &Pattern) -> Result<QueryResult, LoadError> {
        self.query(q, 0.0)
    }

    /// Decodes every node into an in-memory [`TcTree`] (the eager
    /// conversion path). Each truss goes straight into its [`TcNode`]; the
    /// cache is never filled, so no truss is held twice.
    pub fn to_tree(&self) -> Result<TcTree, LoadError> {
        let mut nodes: Vec<TcNode> = Vec::with_capacity(self.nodes.len());
        let mut cursor = PageCursor::new();
        // Parents precede children, so a parent is already decoded.
        let mut base = BaseSet::default();
        for id in 0..self.nodes.len() as u32 {
            let n = &self.nodes[id as usize];
            let parent_set = self
                .base_of(id)
                .map(|p| base.of(p, &nodes[p as usize].truss));
            let truss = self.decode(id, &mut cursor, parent_set)?;
            nodes.push(TcNode {
                item: n.item,
                parent: n.parent,
                children: self.children(id).to_vec(),
                truss,
            });
        }
        Ok(TcTree::from_nodes(nodes))
    }
}

/// The flat decomposition of an entry an edge lookup or insert returned.
fn flat_of(entry: &NodeEntry) -> &Arc<FlatDecomposition> {
    entry
        .flat()
        .expect("an edge lookup yields an entry with edges")
}

/// Decodes a node's LEVELS blob of `level_count` levels, the last at
/// `max_alpha` — relative to `base`, its parent's edge set, if given, and
/// absolute otherwise — or names what is wrong with it.
fn decode_levels(
    blob: &[u8],
    level_count: u32,
    max_alpha: f64,
    base: Option<&[(u32, u32)]>,
) -> Result<Vec<TrussLevel>, &'static str> {
    const EOF: &str = "levels truncated or malformed";
    let mut r = ByteReader::new(blob);
    // Reserve by the bytes present (a level takes one at least, an edge
    // two): crafted counts hit EOF below instead of a huge reservation.
    let mut levels = Vec::with_capacity((level_count as usize).min(blob.len()));
    let mut prev_alpha = f64::NEG_INFINITY;
    for i in 1..=level_count {
        let alpha = if i < level_count {
            r.f64().ok_or(EOF)?
        } else {
            max_alpha
        };
        if !alpha.is_finite() || alpha < 0.0 || alpha <= prev_alpha {
            return Err("level alphas must ascend");
        }
        prev_alpha = alpha;
        let m = r.varint(u32::MAX.into()).ok_or(EOF)? as usize;
        // Each edge follows the last by construction: sorted, no repeats.
        // An absolute edge takes two bytes at least, a relative one one.
        let per_edge = if base.is_some() { 1 } else { 2 };
        let mut edges = Vec::with_capacity(m.min(r.remaining() / per_edge));
        if let Some(base) = base {
            // Indices ascend into a sorted set: so do the edges.
            let mut next = 0u64;
            for _ in 0..m {
                let at = next + r.varint(u32::MAX.into()).ok_or(EOF)?;
                let e = usize::try_from(at).ok().and_then(|at| base.get(at));
                edges.push(*e.ok_or("edge index past its parent's edges")?);
                next = at + 1;
            }
        } else {
            let mut e = (0, 0);
            for _ in 0..m {
                let du = r.varint(u32::MAX.into()).ok_or(EOF)? as u32;
                let dv = r.varint(u32::MAX.into()).ok_or(EOF)? as u32;
                e = edge_from(e, du, dv).ok_or("edge delta overflows u32")?;
                edges.push(e);
            }
        }
        levels.push(TrussLevel { alpha, edges });
    }
    if !r.is_empty() {
        return Err("has trailing level bytes");
    }
    Ok(levels)
}

/// Reads a tree segment fully into memory.
pub fn load_tree_segment_from_path(path: &Path) -> Result<TcTree, LoadError> {
    SegmentTcTree::open(path)?.to_tree()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_core::DatabaseNetworkBuilder;
    use tc_index::TcTreeBuilder;

    fn sample_tree() -> TcTree {
        let mut b = DatabaseNetworkBuilder::new();
        let x = b.intern_item("x");
        let y = b.intern_item("y");
        let z = b.intern_item("z");
        for v in 0..4u32 {
            for _ in 0..3 {
                b.add_transaction(v, &[x, y]);
            }
            b.add_transaction(v, &[x, z]);
        }
        for (u, v) in [(0, 1), (1, 2), (0, 2), (0, 3), (1, 3), (2, 3)] {
            b.add_edge(u, v);
        }
        TcTreeBuilder::default().build(&b.build().unwrap())
    }

    fn segment_bytes(tree: &TcTree) -> Vec<u8> {
        let mut buf = Vec::new();
        save_tree_segment(tree, &mut buf).unwrap();
        buf
    }

    #[test]
    fn full_materialisation_equals_source() {
        let tree = sample_tree();
        let seg = SegmentTcTree::from_bytes(segment_bytes(&tree)).unwrap();
        let loaded = seg.to_tree().unwrap();
        assert_eq!(loaded.num_nodes(), tree.num_nodes());
        for (a, b) in tree.nodes().iter().zip(loaded.nodes()) {
            assert_eq!(a.pattern(), b.pattern());
            assert_eq!(a.parent, b.parent);
            assert_eq!(a.children, b.children);
            assert_eq!(a.truss.levels, b.truss.levels);
        }
    }

    #[test]
    fn queries_agree_with_in_memory_tree() {
        let tree = sample_tree();
        let seg = SegmentTcTree::from_bytes(segment_bytes(&tree)).unwrap();
        for alpha in [0.0, 0.25, 0.5, 1.0] {
            let a = tree.query_by_alpha(alpha);
            let b = seg.query_by_alpha(alpha).unwrap();
            assert_eq!(a.retrieved_nodes, b.retrieved_nodes, "α = {alpha}");
            let mut got: Vec<_> = b
                .trusses
                .iter()
                .map(|t| (t.pattern.clone(), t.edges.clone()))
                .collect();
            got.sort();
            let mut want: Vec<_> = a
                .trusses
                .iter()
                .map(|t| (t.pattern.clone(), t.edges.clone()))
                .collect();
            want.sort();
            assert_eq!(got, want, "α = {alpha}");
        }
        for id in 1..tree.nodes().len() as u32 {
            let q = tree.node(id).pattern().clone();
            let a = tree.query_by_pattern(&q);
            let b = seg.query_by_pattern(&q).unwrap();
            assert_eq!(a.retrieved_nodes, b.retrieved_nodes, "q = {q}");
        }
    }

    #[test]
    fn open_is_lazy_and_queries_materialize_on_demand() {
        let tree = sample_tree();
        let seg = SegmentTcTree::from_bytes(segment_bytes(&tree)).unwrap();
        assert_eq!(seg.materialized_nodes(), 0, "open must not parse trusses");
        assert!(
            seg.alpha_upper_bound() > 0.0,
            "bound comes from the directory"
        );

        // A singleton QBP touches only the nodes on that item's path.
        let item = tree.node(tree.node(0).children[0]).item;
        let r = seg.query_by_pattern(&Pattern::singleton(item)).unwrap();
        assert!(r.retrieved_nodes >= 1);
        assert!(
            seg.materialized_nodes() < seg.num_nodes(),
            "QBP on one item must not materialise the whole tree ({} of {})",
            seg.materialized_nodes(),
            seg.num_nodes()
        );

        // An α above the bound retrieves nothing and reads nothing.
        let before = seg.materialized_nodes();
        let r = seg.query_by_alpha(seg.alpha_upper_bound() + 1.0).unwrap();
        assert_eq!(r.retrieved_nodes, 0);
        assert_eq!(
            seg.materialized_nodes(),
            before,
            "pruned walk reads no pages"
        );
    }

    #[test]
    fn to_tree_leaves_the_cache_empty() {
        let tree = sample_tree();
        let seg = SegmentTcTree::from_bytes(segment_bytes(&tree)).unwrap();
        let loaded = seg.to_tree().unwrap();
        assert_eq!(loaded.num_nodes(), tree.num_nodes());
        assert_eq!(seg.materialized_nodes(), 0);
        assert_eq!(seg.materialized_total(), 0);
        assert_eq!(seg.cache_stats().bytes_used, 0);
        assert_eq!(seg.cache_stats().misses, 0);
    }

    #[test]
    fn resave_is_byte_identical() {
        let tree = sample_tree();
        let first = segment_bytes(&tree);
        let loaded = SegmentTcTree::from_bytes(first.clone())
            .unwrap()
            .to_tree()
            .unwrap();
        let second = segment_bytes(&loaded);
        assert_eq!(first, second);
    }

    #[test]
    fn file_roundtrip() {
        let tree = sample_tree();
        let dir = std::env::temp_dir().join("tc_store_tree_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tree.seg");
        save_tree_segment_to_path(&tree, &path).unwrap();
        let seg = SegmentTcTree::open(&path).unwrap();
        assert_eq!(seg.num_nodes(), tree.num_nodes());
        let loaded = load_tree_segment_from_path(&path).unwrap();
        assert_eq!(loaded.num_nodes(), tree.num_nodes());
        std::fs::remove_file(&path).ok();
    }

    /// Appends one NODES record of an absolute blob, `parent` as its
    /// difference from the previous record's.
    fn put_record(dir: &mut Vec<u8>, parent: i64, item: u32, levels: u32, alpha: f64, len: u64) {
        put_varint(dir, zigzag(parent));
        put_varint(dir, item.into());
        put_varint(dir, u64::from(levels) << 1);
        put_f64(dir, alpha);
        put_varint(dir, len);
    }

    #[test]
    fn crafted_counts_error_without_huge_allocations() {
        // A directory claiming u64::MAX nodes must be rejected up front.
        let mut nodes = Vec::new();
        put_varint(&mut nodes, u64::MAX);
        let mut buf = Vec::new();
        write_segment(
            &mut buf,
            SegmentKind::TcTree,
            &[(1, nodes), (2, Vec::new())],
        )
        .unwrap();
        let err = SegmentTcTree::from_bytes(buf).unwrap_err();
        assert!(err.is_corruption(), "{err}");

        // Valid checksums, but a node blob claiming the most levels the
        // directory can count and u32::MAX edges: materialisation must
        // report corruption, not abort trying to reserve gigabytes.
        let mut blob = Vec::new();
        put_f64(&mut blob, 0.25);
        put_varint(&mut blob, u32::MAX.into());
        let mut nodes = Vec::new();
        put_varint(&mut nodes, 2);
        put_record(&mut nodes, 0, 0, 0, 0.0, 0);
        put_record(&mut nodes, 0, 7, u32::MAX >> 1, 0.5, blob.len() as u64);
        let mut buf = Vec::new();
        write_segment(&mut buf, SegmentKind::TcTree, &[(1, nodes), (2, blob)]).unwrap();
        let seg = SegmentTcTree::from_bytes(buf).unwrap();
        let err = seg.truss(1).unwrap_err();
        assert!(err.is_corruption(), "{err}");
    }

    /// A root plus one child on item 7 whose decomposition is `levels`.
    fn one_node_tree(levels: &[(f64, &[(u32, u32)])]) -> TcTree {
        let node = |item, pattern, children, levels| TcNode {
            item: Item(item),
            parent: 0,
            children,
            truss: TrussDecomposition { pattern, levels },
        };
        let levels = levels
            .iter()
            .map(|&(alpha, edges)| TrussLevel {
                alpha,
                edges: edges.to_vec(),
            })
            .collect();
        TcTree::from_nodes(vec![
            node(0, Pattern::new(Vec::new()), vec![1], Vec::new()),
            node(7, Pattern::singleton(Item(7)), Vec::new(), levels),
        ])
    }

    /// [`one_node_tree`], saved and opened.
    fn crafted_one_node_segment(levels: &[(f64, &[(u32, u32)])]) -> SegmentTcTree {
        SegmentTcTree::from_bytes(segment_bytes(&one_node_tree(levels))).unwrap()
    }

    #[test]
    fn crafted_vertex_ids_count_without_huge_allocations() {
        // The twin of `crafted_counts_error_without_huge_allocations` for
        // the counting walk: what it holds must follow the vertices it
        // counts, so an edge reaching the top of the id range counts as
        // any other instead of sizing a table by its endpoint.
        let seg = crafted_one_node_segment(&[(0.5, &[(0, u32::MAX - 1)])]);
        let s = seg.summarize(seg.all_items(), 0.0).unwrap();
        assert_eq!(
            s.trusses,
            [TrussCount {
                node: 1,
                vertices: 2,
                edges: 1
            }]
        );
        let full = seg.query_by_alpha(0.0).unwrap();
        assert_eq!(full.trusses[0].num_vertices(), 2);
        assert_eq!(full.trusses[0].num_edges(), 1);
    }

    #[test]
    fn unsorted_or_repeated_level_edges_are_corrupt() {
        // Every writer emits a level sorted; a reader that counted or
        // concatenated an unsorted or repeating one would answer wrongly
        // without noticing. The delta code cannot spell one — a decoded
        // edge strictly follows the one before it — so such a level is
        // refused when written, and never reaches a reader.
        for edges in [
            &[(1, 2), (0, 3)][..],
            &[(0, 3), (0, 2)],
            &[(0, 1), (0, 1)],
            &[(2, 1)],
        ] {
            let err =
                save_tree_segment(&one_node_tree(&[(0.5, edges)]), &mut Vec::new()).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{edges:?}");
            assert!(
                err.to_string().contains("must be canonical and ascend"),
                "{err}"
            );
        }
        // Ascending within each level is all that is asked: levels are
        // independent lists.
        let ok = crafted_one_node_segment(&[(0.25, &[(4, 5)]), (0.5, &[(0, 1), (0, 2)])]);
        assert_eq!(ok.truss(1).unwrap().num_edges(), 3);
    }

    #[test]
    fn level_alphas_the_reader_refuses_are_refused_when_written() {
        // The reader takes a level alpha only if it is finite, ≥ 0 and
        // above the one before; the writer refuses anything else instead of
        // writing a segment no reader opens.
        for levels in [
            &[(f64::INFINITY, &[(0, 1)][..])][..],
            &[(f64::NAN, &[(0, 1)])],
            &[(-0.5, &[(0, 1)])],
            &[(0.5, &[(0, 1)]), (0.5, &[(1, 2)])],
            &[(0.5, &[(0, 1)]), (0.25, &[(1, 2)])],
        ] {
            let err = save_tree_segment(&one_node_tree(levels), &mut Vec::new()).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{levels:?}");
            assert!(err.to_string().contains("finite, ≥ 0 and ascend"), "{err}");
        }
    }

    #[test]
    fn interleaved_children_open_like_the_in_memory_tree() {
        // Siblings need not be contiguous in the directory: node 3's parent
        // is 1, node 4's is 2, node 5's is 1. The children CSR must still
        // list each parent's children ascending, as `TcTree` does.
        use tc_core::TrussLevel;
        let node = |id: u32, parent: u32, item: u32, pattern: &[u32], children: Vec<u32>| {
            let pattern: Pattern = pattern.iter().map(|&i| Item(i)).collect();
            let levels = if id == 0 {
                Vec::new()
            } else {
                vec![
                    TrussLevel {
                        alpha: 0.25 * f64::from(id),
                        edges: vec![(0, id), (1, id + 1)],
                    },
                    TrussLevel {
                        alpha: 0.25 * f64::from(id) + 0.5,
                        edges: vec![(0, 1), (0, 2), (1, 2)],
                    },
                ]
            };
            TcNode {
                item: Item(item),
                parent,
                children,
                truss: TrussDecomposition { pattern, levels },
            }
        };
        let tree = TcTree::from_nodes(vec![
            node(0, 0, 0, &[], vec![1, 2]),
            node(1, 0, 1, &[1], vec![3, 5]),
            node(2, 0, 2, &[2], vec![4]),
            node(3, 1, 2, &[1, 2], vec![]),
            node(4, 2, 3, &[2, 3], vec![]),
            node(5, 1, 3, &[1, 3], vec![]),
        ]);
        let seg = SegmentTcTree::from_bytes(segment_bytes(&tree)).unwrap();
        let loaded = seg.to_tree().unwrap();
        for id in 0..tree.nodes().len() as u32 {
            let (want, got) = (tree.node(id), loaded.node(id));
            assert_eq!(got.children, want.children, "node {id}");
            assert_eq!(got.parent, want.parent, "node {id}");
            assert_eq!(&seg.pattern(id), want.pattern(), "node {id}");
            assert_eq!(got.truss, want.truss, "node {id}");
        }
        let key = |r: &QueryResult| {
            let trusses: Vec<_> = r
                .trusses
                .iter()
                .map(|t| (t.pattern.clone(), t.edges.clone()))
                .collect();
            (r.retrieved_nodes, r.visited_nodes, trusses)
        };
        for alpha in [0.0, 0.3, 0.6, 1.0, 1.4, 2.0] {
            let want = tree.query_by_alpha(alpha);
            assert_eq!(
                key(&seg.query_by_alpha(alpha).unwrap()),
                key(&want),
                "α = {alpha}"
            );
        }
        for id in 1..tree.nodes().len() as u32 {
            let q = tree.node(id).pattern().clone();
            let want = tree.query_by_pattern(&q);
            assert_eq!(
                key(&seg.query_by_pattern(&q).unwrap()),
                key(&want),
                "q = {q}"
            );
        }
    }

    #[test]
    fn nested_and_non_nested_siblings_round_trip() {
        // Node 1's children: node 2's edges lie inside node 1's, across
        // two levels, so its blob is relative; node 3 holds (2, 3), outside
        // them, so its blob stays absolute. Node 4's edge lies in node 2's
        // second level, so it is coded against node 2's two.
        let level = |alpha, edges: &[(u32, u32)]| TrussLevel {
            alpha,
            edges: edges.to_vec(),
        };
        let node = |items: &[u32], parent, children, levels| TcNode {
            item: Item(items.last().copied().unwrap_or(0)),
            parent,
            children,
            truss: TrussDecomposition {
                pattern: items.iter().map(|&i| Item(i)).collect(),
                levels,
            },
        };
        let tree = TcTree::from_nodes(vec![
            node(&[], 0, vec![1], Vec::new()),
            node(
                &[1],
                0,
                vec![2, 3],
                vec![level(0.5, &[(0, 1), (0, 2), (0, 3), (1, 2)])],
            ),
            node(
                &[1, 2],
                1,
                vec![4],
                vec![level(0.25, &[(0, 1), (0, 3)]), level(0.5, &[(1, 2)])],
            ),
            node(&[1, 3], 1, Vec::new(), vec![level(0.5, &[(0, 1), (2, 3)])]),
            node(&[1, 2, 4], 2, Vec::new(), vec![level(0.25, &[(1, 2)])]),
        ]);
        let bytes = segment_bytes(&tree);
        let seg = SegmentTcTree::from_bytes(bytes.clone()).unwrap();
        let relative: Vec<bool> = seg.level_counts.iter().map(|c| c & RELATIVE != 0).collect();
        assert_eq!(relative, [false, false, true, false, true]);
        for id in 1..5 {
            let flat = seg.truss(id).unwrap();
            assert_eq!(flat.to_decomposition(), tree.node(id).truss, "node {id}");
        }
        let loaded = seg.to_tree().unwrap();
        for id in 0..5 {
            assert_eq!(loaded.node(id).truss, tree.node(id).truss, "node {id}");
        }
        assert_eq!(segment_bytes(&loaded), bytes);
        for alpha in [0.0, 0.3] {
            let (want, got) = (
                tree.query_by_alpha(alpha),
                seg.query_by_alpha(alpha).unwrap(),
            );
            assert_eq!(got.retrieved_nodes, want.retrieved_nodes, "α = {alpha}");
            for (g, w) in got.trusses.iter().zip(&want.trusses) {
                assert_eq!(g.edges, w.edges, "α = {alpha}");
            }
        }
    }

    #[test]
    fn open_reads_the_header_and_each_directory_page_once() {
        // 1 500 leaves under the root: a NODES directory of five pages of
        // 12- and 13-byte records, several of which straddle a page edge.
        let leaf = |item: u32| {
            let pattern = Pattern::singleton(Item(item));
            let levels = vec![TrussLevel {
                alpha: 0.5,
                edges: vec![(0, 1)],
            }];
            TcNode {
                item: Item(item),
                parent: 0,
                children: Vec::new(),
                truss: TrussDecomposition { pattern, levels },
            }
        };
        let root = TcNode {
            item: Item(0),
            parent: 0,
            children: (1..=1500).collect(),
            truss: TrussDecomposition {
                pattern: Pattern::empty(),
                levels: Vec::new(),
            },
        };
        let nodes = std::iter::once(root).chain((1..=1500).map(leaf)).collect();
        let (pages, reads) = crate::page::tests::counted(segment_bytes(&TcTree::from_nodes(nodes)));
        let dir = pages.header().section(SEC_NODES).unwrap();
        assert!(dir.page_count >= 3, "{} NODES pages", dir.page_count);
        let seg = SegmentTcTree::from_pages(pages, StoreOptions::default()).unwrap();
        assert_eq!(seg.num_nodes(), 1500);
        // The header page, then each NODES page once, in order; LEVELS
        // pages follow NODES, and none is read.
        let want: Vec<u64> = (0..dir.first_page + dir.page_count).collect();
        assert_eq!(*reads.lock().unwrap(), want);
    }

    #[test]
    fn network_segment_is_rejected_as_tree() {
        let mut b = DatabaseNetworkBuilder::new();
        let x = b.intern_item("x");
        b.add_transaction(0, &[x]);
        b.add_edge(0, 1);
        let net = b.build().unwrap();
        let mut buf = Vec::new();
        crate::network::save_network_segment(&net, &mut buf).unwrap();
        let err = SegmentTcTree::from_bytes(buf).unwrap_err();
        assert!(err.to_string().contains("network"), "{err}");
    }
}
