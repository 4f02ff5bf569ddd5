//! Equation 1 against its definition.
//!
//! `E*_p(α) = ∪_{α_k > α} R_p(α_k)`: the definition keeps every level whose
//! `α_k` is above `α` (under [`float::gt_eps`]), concatenates their edges
//! and sorts them. [`TrussDecomposition::edges_at`] instead takes the
//! levels above `α` as a suffix found by binary search and merges their
//! sorted runs; [`TrussDecomposition::truss_at`] then reads the vertices
//! off the merged list, through a bitmap when the ids are dense. Here both
//! are held to the definition on random decompositions of 1 to 12 levels —
//! ids packed into a small range or spread over all of `u32` — at `α = 0`,
//! at each level's `α_k` and `α_k ± 1e-4`, and above `α*`, so a suffix
//! that starts one level early or late fails by name.
//!
//! [`CountLadder::at`], which answers every served request, is held to
//! `truss_at(α)`'s `(num_vertices, num_edges)` the same way, on
//! decompositions of 0 to 12 levels and at `α_k ± COHESION_EPS` besides,
//! where `gt_eps` itself decides.
//!
//! [`FlatDecomposition`], the form a segment reader keeps for a node whose
//! edges it holds, is held to `truss_at` (edges, vertices, pattern and
//! `α`) and to `CountLadder` at the same thresholds, on 0 to 12 levels in
//! both vertex regimes and on decompositions of 257 to 296 levels, whose
//! tags no longer fit a byte; its heap size pins a tag to one byte up to
//! 256 levels and four past them.
//!
//! CI re-runs this suite by name in release (see
//! `.github/workflows/ci.yml`, the Equation 1 guard).

use proptest::prelude::*;
use tc_core::{CountLadder, FlatDecomposition, TrussDecomposition, TrussLevel};
use tc_graph::{EdgeKey, VertexId};
use tc_txdb::{Item, Pattern};
use tc_util::{float, HeapSize};

/// The definition: the levels with `α_k > α`, concatenated and sorted.
fn edges_by_definition(d: &TrussDecomposition, alpha: f64) -> Vec<EdgeKey> {
    let mut out: Vec<EdgeKey> = d
        .levels
        .iter()
        .filter(|l| float::gt_eps(l.alpha, alpha))
        .flat_map(|l| l.edges.iter().copied())
        .collect();
    out.sort_unstable();
    out
}

/// The endpoints of `edges`, sorted and deduplicated.
fn vertices_by_definition(edges: &[EdgeKey]) -> Vec<VertexId> {
    let mut vs: Vec<VertexId> = edges.iter().flat_map(|&(u, v)| [u, v]).collect();
    vs.sort_unstable();
    vs.dedup();
    vs
}

/// A decomposition of `levels` levels (at least one edge each when there
/// are enough edges) over the canonical edges drawn from `pairs`. `wide`
/// spreads vertex ids over all of `u32` (the vertices' sort regime);
/// otherwise they stay below 48 (the bitmap regime). Levels ascend by
/// `steps`, each above the cohesion tolerance, as a peel's `β`s do.
fn decomposition(
    pairs: &[(u32, u32)],
    wide: bool,
    levels: usize,
    picks: &[usize],
    steps: &[f64],
) -> TrussDecomposition {
    let scale = if wide { 89_000_000 } else { 1 };
    let edges: std::collections::BTreeSet<EdgeKey> = pairs
        .iter()
        .filter(|(a, b)| a != b)
        .map(|&(a, b)| (a.min(b) * scale, a.max(b) * scale))
        .collect();
    let mut runs = vec![Vec::new(); levels];
    // No level holds no edge.
    let edges = edges
        .into_iter()
        .take(if levels == 0 { 0 } else { usize::MAX });
    for (i, e) in edges.enumerate() {
        // The first `levels` edges open one level each; the rest land at
        // random, so levels differ in length.
        let level = if i < levels {
            i
        } else {
            picks[i % picks.len()] % levels
        };
        runs[level].push(e);
    }
    let mut alpha = 0.0;
    let levels = runs
        .into_iter()
        .zip(steps)
        .map(|(edges, step)| {
            alpha += step;
            TrussLevel { alpha, edges }
        })
        .collect();
    TrussDecomposition {
        pattern: Pattern::empty(),
        levels,
    }
}

/// A decomposition of `levels` levels, level `k` holding the one edge
/// `(k·scale, (k + 1)·scale)`, so vertex `k + 1`'s highest level is `k + 1`
/// (the last, `k`) and tags run as high as the levels do. A `scale` of 1
/// packs the ids (vertex array), a large one spreads them (sort).
fn deep_decomposition(levels: u32, scale: u32, steps: &[f64]) -> TrussDecomposition {
    let mut alpha = 0.0;
    let levels = (0..levels)
        .map(|k| {
            alpha += steps[k as usize % steps.len()];
            TrussLevel {
                alpha,
                edges: vec![(k * scale, (k + 1) * scale)],
            }
        })
        .collect();
    TrussDecomposition {
        pattern: Pattern::singleton(Item(3)),
        levels,
    }
}

/// `0`, each `α_k` and `α_k ± 1e-4`, and past `α*`.
fn probes(d: &TrussDecomposition) -> Vec<f64> {
    let mut probes = vec![0.0, d.max_alpha().unwrap_or(0.0) + 1.0];
    for level in &d.levels {
        probes.extend([level.alpha - 1e-4, level.alpha, level.alpha + 1e-4]);
    }
    probes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn equation_1_is_the_sorted_union_of_the_levels_above_alpha(
        pairs in prop::collection::vec((0..48u32, 0..48u32), 0..300),
        wide in 0..2u32,
        levels in 1..=12usize,
        picks in prop::collection::vec(0..12usize, 1..40),
        steps in prop::collection::vec(1e-6..0.3, 12)
    ) {
        let d = decomposition(&pairs, wide == 1, levels, &picks, &steps);
        for alpha in probes(&d) {
            let want = edges_by_definition(&d, alpha);
            prop_assert_eq!(d.edges_at(alpha), want.clone(), "edges at {}", alpha);
            let truss = d.truss_at(alpha);
            prop_assert_eq!(&truss.edges, &want, "truss edges at {}", alpha);
            let vertices = vertices_by_definition(&want);
            prop_assert_eq!(&truss.vertices, &vertices, "vertices at {}", alpha);
        }
    }

    #[test]
    fn count_ladder_is_equation_1_at_every_threshold(
        pairs in prop::collection::vec((0..48u32, 0..48u32), 0..300),
        wide in 0..2u32,
        levels in 0..=12usize,
        picks in prop::collection::vec(0..12usize, 1..40),
        steps in prop::collection::vec(1e-6..0.3, 12)
    ) {
        // `wide` puts ids up to 89 000 000 · 47, past any 2^20-entry table.
        let d = decomposition(&pairs, wide == 1, levels, &picks, &steps);
        let ladder = CountLadder::of(&d);
        let mut at = probes(&d);
        for level in &d.levels {
            at.extend([level.alpha - float::COHESION_EPS, level.alpha + float::COHESION_EPS]);
        }
        for alpha in at {
            let truss = d.truss_at(alpha);
            prop_assert_eq!(
                ladder.at(alpha),
                (truss.num_vertices(), truss.num_edges()),
                "counts at {}",
                alpha
            );
        }
    }
}

/// Holds `FlatDecomposition::of(d)` to `d` at `0`, each `α_k`,
/// `α_k ± 1e-4`, `α_k ± COHESION_EPS`, `α*` and above it, and its heap to
/// 8 bytes an edge, 4 a vertex, a tag each (1 byte up to 256 levels, else
/// 4) and 16 bytes a level: `Err` names the first difference.
fn flat_is_equation_1(d: &TrussDecomposition) -> Result<(), String> {
    let flat = FlatDecomposition::of(d);
    let ladder = CountLadder::of(d);
    if flat.ladder() != &ladder {
        return Err("the ladder differs from CountLadder::of".into());
    }
    if flat.to_decomposition() != *d {
        return Err("to_decomposition is not the decomposition".into());
    }
    let mut at = probes(d);
    for level in &d.levels {
        at.extend([
            level.alpha - float::COHESION_EPS,
            level.alpha + float::COHESION_EPS,
        ]);
    }
    for alpha in at {
        let (got, want) = (flat.truss_at(alpha), d.truss_at(alpha));
        if got != want {
            return Err(format!("truss at {alpha}: {got:?} != {want:?}"));
        }
        if got.edges.capacity() != got.edges.len() || got.vertices.capacity() != got.vertices.len()
        {
            return Err(format!("truss at {alpha} is not sized exactly"));
        }
        if flat.ladder().at(alpha) != ladder.at(alpha) {
            return Err(format!("counts at {alpha}"));
        }
    }
    let (edges, vertices) = (d.num_edges(), d.truss_at(0.0).num_vertices());
    let tag = if d.num_levels() <= 256 { 1 } else { 4 };
    let heap = d.pattern.heap_size()
        + 8 * edges
        + 4 * vertices
        + tag * (edges + vertices)
        + 16 * d.num_levels();
    if flat.heap_size() != heap {
        return Err(format!("heap {} B, want {heap} B", flat.heap_size()));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn flat_decomposition_is_equation_1_at_every_threshold(
        pairs in prop::collection::vec((0..48u32, 0..48u32), 0..300),
        wide in 0..2u32,
        levels in 0..=13usize,
        picks in prop::collection::vec(0..12usize, 1..40),
        steps in prop::collection::vec(1e-6..0.3, 12)
    ) {
        // 13 draws a deep decomposition, of 257 to 296 levels.
        let d = if levels == 13 {
            let scale = if wide == 1 { 14_000_000 } else { 1 };
            deep_decomposition(256 + picks.len() as u32, scale, &steps)
        } else {
            decomposition(&pairs, wide == 1, levels, &picks, &steps)
        };
        prop_assert_eq!(flat_is_equation_1(&d), Ok(()), "{} levels", d.num_levels());
    }
}
