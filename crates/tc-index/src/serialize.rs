//! TC-Tree persistence — the "data warehouse of maximal pattern trusses"
//! story of §6.
//!
//! A small line-oriented text format, versioned and self-describing:
//!
//! ```text
//! tctree v1
//! nodes <count-including-root>
//! node <id> <parent> <item>
//! levels <h>
//! level <alpha> <edge-count> <u1> <v1> <u2> <v2> …
//! …
//! end
//! ```
//!
//! Patterns are not stored — they are re-spelled from root paths at load
//! time, exactly as the in-memory SE-tree defines them.

use crate::tree::{TcNode, TcTree};
use std::io::{BufRead, Write};
use tc_core::{TrussDecomposition, TrussLevel};
use tc_txdb::{Item, Pattern};

/// Errors raised while reading a persisted TC-Tree — the shared
/// [`tc_util::LoadError`], re-exported so existing call sites keep
/// compiling unchanged.
pub use tc_util::LoadError;

fn corrupt(msg: impl Into<String>) -> LoadError {
    LoadError::Corrupt(format!("tctree: {}", msg.into()))
}

/// The most any node or level count read from a file reserves up front:
/// a count is only a claim about lines that may not follow, so vectors
/// sized by one grow by `push` past this.
const RESERVE_CAP: usize = 1 << 12;

impl TcTree {
    /// Writes the tree to `w` in the v1 text format.
    pub fn save<W: Write>(&self, w: &mut W) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(w);
        writeln!(w, "tctree v1")?;
        writeln!(w, "nodes {}", self.nodes().len())?;
        for (id, node) in self.nodes().iter().enumerate() {
            writeln!(w, "node {} {} {}", id, node.parent, node.item.0)?;
            writeln!(w, "levels {}", node.truss.levels.len())?;
            for level in &node.truss.levels {
                write!(w, "level {} {}", level.alpha, level.edges.len())?;
                for &(u, v) in &level.edges {
                    write!(w, " {u} {v}")?;
                }
                writeln!(w)?;
            }
        }
        writeln!(w, "end")?;
        w.flush()
    }

    /// Writes to a file path.
    pub fn save_to_path(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        self.save(&mut f)
    }

    /// Reads a tree in the v1 text format.
    pub fn load<R: BufRead>(r: R) -> Result<TcTree, LoadError> {
        let mut lines = r.lines();
        let mut next_line = || -> Result<String, LoadError> {
            lines
                .next()
                .ok_or_else(|| corrupt("unexpected end of file"))?
                .map_err(LoadError::Io)
        };

        if next_line()?.trim() != "tctree v1" {
            return Err(corrupt("missing 'tctree v1' header"));
        }
        let nodes_line = next_line()?;
        let count: usize = nodes_line
            .strip_prefix("nodes ")
            .ok_or_else(|| corrupt("expected 'nodes <n>'"))?
            .trim()
            .parse()
            .map_err(|_| corrupt("bad node count"))?;
        if count == 0 {
            return Err(corrupt("a tree has at least the root node"));
        }

        let mut raw: Vec<(u32, Item, Vec<TrussLevel>)> = Vec::with_capacity(count.min(RESERVE_CAP));
        for expect_id in 0..count {
            let header = next_line()?;
            let mut parts = header.split_whitespace();
            if parts.next() != Some("node") {
                return Err(corrupt(format!("expected 'node' line, got '{header}'")));
            }
            let id: usize = parts
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| corrupt("bad node id"))?;
            if id != expect_id {
                return Err(corrupt(format!(
                    "node ids must be dense: got {id}, want {expect_id}"
                )));
            }
            let parent: u32 = parts
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| corrupt("bad parent id"))?;
            if parent as usize >= count || (expect_id > 0 && parent as usize >= expect_id) {
                return Err(corrupt("parent must precede child"));
            }
            let item: u32 = parts
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| corrupt("bad item id"))?;

            let levels_line = next_line()?;
            let h: usize = levels_line
                .strip_prefix("levels ")
                .ok_or_else(|| corrupt("expected 'levels <h>'"))?
                .trim()
                .parse()
                .map_err(|_| corrupt("bad level count"))?;
            let mut levels = Vec::with_capacity(h.min(RESERVE_CAP));
            let mut prev_alpha = f64::NEG_INFINITY;
            for _ in 0..h {
                let line = next_line()?;
                let mut p = line.split_whitespace();
                if p.next() != Some("level") {
                    return Err(corrupt("expected 'level' line"));
                }
                let alpha: f64 = p
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| corrupt("bad level alpha"))?;
                // The segment reader's rule: finite, ≥ 0, strictly ascending
                // (a NaN would also void the check for the next level).
                if !alpha.is_finite() || alpha < 0.0 {
                    return Err(corrupt(format!(
                        "level alpha {alpha} is not finite and ≥ 0"
                    )));
                }
                if alpha <= prev_alpha {
                    return Err(corrupt("level alphas must strictly ascend"));
                }
                prev_alpha = alpha;
                let m: usize = p
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| corrupt("bad edge count"))?;
                // An edge takes at least four bytes of its line (" u v").
                let mut edges: Vec<(u32, u32)> = Vec::with_capacity(m.min(line.len() / 4));
                for _ in 0..m {
                    let u: u32 = p
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| corrupt("missing edge endpoint"))?;
                    let v: u32 = p
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| corrupt("missing edge endpoint"))?;
                    if u >= v {
                        return Err(corrupt("edges must be canonical (u < v)"));
                    }
                    // Equation 1 is answered by concatenating and by
                    // counting levels; both take a level as sorted and
                    // duplicate-free, as every writer emits it.
                    if edges.last().is_some_and(|&prev| prev >= (u, v)) {
                        return Err(corrupt("level edges must strictly ascend"));
                    }
                    edges.push((u, v));
                }
                if p.next().is_some() {
                    return Err(corrupt("trailing tokens on level line"));
                }
                levels.push(TrussLevel { alpha, edges });
            }
            raw.push((parent, Item(item), levels));
        }
        if next_line()?.trim() != "end" {
            return Err(corrupt("missing 'end' terminator"));
        }

        // Reassemble: patterns from root paths, children from parents.
        let mut nodes: Vec<TcNode> = Vec::with_capacity(raw.len());
        for (id, (parent, item, levels)) in raw.into_iter().enumerate() {
            let pattern = if id == 0 {
                Pattern::empty()
            } else {
                nodes[parent as usize].pattern().with_item(item)
            };
            nodes.push(TcNode {
                item,
                parent,
                children: Vec::new(),
                truss: TrussDecomposition { pattern, levels },
            });
            if id > 0 {
                nodes[parent as usize].children.push(id as u32);
            }
        }
        Ok(TcTree::from_nodes(nodes))
    }

    /// Reads from a file path.
    pub fn load_from_path(path: &std::path::Path) -> Result<TcTree, LoadError> {
        let f = std::fs::File::open(path)?;
        TcTree::load(std::io::BufReader::new(f))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::TcTreeBuilder;
    use tc_core::DatabaseNetworkBuilder;

    fn sample_tree() -> TcTree {
        let mut b = DatabaseNetworkBuilder::new();
        let x = b.intern_item("x");
        let y = b.intern_item("y");
        for v in 0..4u32 {
            for _ in 0..3 {
                b.add_transaction(v, &[x, y]);
            }
            b.add_transaction(v, &[x]);
        }
        for (u, v) in [(0, 1), (1, 2), (0, 2), (0, 3), (1, 3), (2, 3)] {
            b.add_edge(u, v);
        }
        TcTreeBuilder::default().build(&b.build().unwrap())
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let tree = sample_tree();
        let mut buf = Vec::new();
        tree.save(&mut buf).unwrap();
        let loaded = TcTree::load(std::io::Cursor::new(&buf)).unwrap();

        assert_eq!(loaded.num_nodes(), tree.num_nodes());
        assert_eq!(loaded.max_depth(), tree.max_depth());
        for (a, b) in tree.nodes().iter().zip(loaded.nodes()) {
            assert_eq!(a.pattern(), b.pattern());
            assert_eq!(a.parent, b.parent);
            assert_eq!(a.children, b.children);
            assert_eq!(a.truss.levels, b.truss.levels);
        }
    }

    #[test]
    fn roundtrip_queries_agree() {
        let tree = sample_tree();
        let mut buf = Vec::new();
        tree.save(&mut buf).unwrap();
        let loaded = TcTree::load(std::io::Cursor::new(&buf)).unwrap();
        for alpha in [0.0, 0.5, 1.0] {
            let a = tree.query_by_alpha(alpha);
            let b = loaded.query_by_alpha(alpha);
            assert_eq!(a.retrieved_nodes, b.retrieved_nodes);
        }
    }

    #[test]
    fn file_roundtrip() {
        let tree = sample_tree();
        let dir = std::env::temp_dir().join("tc_index_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tree.tct");
        tree.save_to_path(&path).unwrap();
        let loaded = TcTree::load_from_path(&path).unwrap();
        assert_eq!(loaded.num_nodes(), tree.num_nodes());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_bad_header() {
        let err = TcTree::load(std::io::Cursor::new(b"nottctree\n")).unwrap_err();
        assert!(matches!(err, LoadError::Corrupt(_)));
    }

    #[test]
    fn rejects_truncated_file() {
        let tree = sample_tree();
        let mut buf = Vec::new();
        tree.save(&mut buf).unwrap();
        let cut = buf.len() / 2;
        let err = TcTree::load(std::io::Cursor::new(&buf[..cut])).unwrap_err();
        assert!(matches!(err, LoadError::Corrupt(_) | LoadError::Io(_)));
    }

    #[test]
    fn rejects_non_canonical_edges() {
        let text = "tctree v1\nnodes 2\nnode 0 0 0\nlevels 0\nnode 1 0 5\nlevels 1\nlevel 0.5 1 3 2\nend\n";
        let err = TcTree::load(std::io::Cursor::new(text.as_bytes())).unwrap_err();
        assert!(matches!(err, LoadError::Corrupt(_)));
    }

    #[test]
    fn rejects_unsorted_or_repeated_level_edges() {
        for edges in ["2 1 2 0 3", "2 0 3 0 2", "2 0 1 0 1"] {
            let text = format!(
                "tctree v1\nnodes 2\nnode 0 0 0\nlevels 0\nnode 1 0 5\nlevels 1\nlevel 0.5 {edges}\nend\n"
            );
            let err = TcTree::load(std::io::Cursor::new(text.as_bytes())).unwrap_err();
            assert!(matches!(err, LoadError::Corrupt(_)), "{edges}: {err}");
            assert!(err.to_string().contains("strictly ascend"), "{err}");
        }
        // Each level is its own list: a later level may start lower.
        let text = "tctree v1\nnodes 2\nnode 0 0 0\nlevels 0\nnode 1 0 5\nlevels 2\nlevel 0.25 1 4 5\nlevel 0.5 2 0 1 0 2\nend\n";
        let tree = TcTree::load(std::io::Cursor::new(text.as_bytes())).unwrap();
        assert_eq!(tree.node(1).truss.num_edges(), 3);
    }

    #[test]
    fn crafted_counts_error_without_huge_reservations() {
        // Each count promises far more than the file holds; the loader must
        // run out of lines into a typed error, not abort reserving for them.
        for text in [
            "tctree v1\nnodes 18446744073709551615\nnode 0 0 0\nlevels 0\nend\n",
            "tctree v1\nnodes 2\nnode 0 0 0\nlevels 4294967295\nend\n",
            "tctree v1\nnodes 2\nnode 0 0 0\nlevels 0\nnode 1 0 5\nlevels 1\nlevel 0.5 1000000000000 0 1\nend\n",
        ] {
            let err = TcTree::load(std::io::Cursor::new(text.as_bytes())).unwrap_err();
            assert!(matches!(err, LoadError::Corrupt(_)), "{text:?}: {err}");
        }
    }

    #[test]
    fn rejects_descending_alphas() {
        let text = "tctree v1\nnodes 2\nnode 0 0 0\nlevels 0\nnode 1 0 5\nlevels 2\nlevel 0.5 1 1 2\nlevel 0.3 1 2 3\nend\n";
        let err = TcTree::load(std::io::Cursor::new(text.as_bytes())).unwrap_err();
        assert!(matches!(err, LoadError::Corrupt(_)));
    }

    #[test]
    fn rejects_alphas_no_segment_reader_accepts() {
        // A level alpha must be finite and ≥ 0, as the segment reader
        // demands; a NaN would also void the ascent check of the next level.
        for alpha in ["inf", "NaN", "-0.5"] {
            let text = format!(
                "tctree v1\nnodes 2\nnode 0 0 0\nlevels 0\nnode 1 0 5\nlevels 1\nlevel {alpha} 1 1 2\nend\n"
            );
            let err = TcTree::load(std::io::Cursor::new(text.as_bytes())).unwrap_err();
            assert!(matches!(err, LoadError::Corrupt(_)), "{alpha}: {err}");
            assert!(err.to_string().contains("finite"), "{alpha}: {err}");
        }
    }
}
