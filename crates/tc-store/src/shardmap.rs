//! The `TCMAP01` shard map: how a TC-Tree is split across N segment
//! shards, and how a router finds them.
//!
//! `tc shard` partitions a TC-Tree **by root-child subtree**: every
//! level-1 node (one per frequent item) owns its full subtree, and the
//! owning shard is `crc32(item_le_bytes) % shard_count`. Each shard is a
//! self-contained `TCSEG01` tree segment (root plus its owned subtrees,
//! arena order preserved), so any `tc serve` daemon can serve it
//! unmodified. The shard map is the small sidecar file that records the
//! partitioning — hash scheme, shard count, the full tree's level-1 item
//! universe, and each shard's serving address and segment path — framed
//! with the same CRC-32 discipline as the WAL and segment formats.
//!
//! The level-1 item universe is what makes scatter-gather **exact**: a
//! shard daemon's own `query_by_alpha` sees only its local root children,
//! so the router rewrites `QBA(α)` into `QUERY(universe, α)` before
//! fanning out. With that rewrite every per-shard pruning decision equals
//! the unsharded walk's, and per-shard answers are disjoint unions of the
//! unsharded answer. See `docs/SHARDING.md` for the byte-level spec, a
//! worked hexdump, and the exactness argument.

use std::io::Write;
use std::path::Path;
use tc_index::{TcNode, TcTree};
use tc_util::bytes::{checked_len_u32, put_u32, ByteReader};
use tc_util::{crc32, LoadError};

/// Magic bytes opening every shard-map file.
pub const MAP_MAGIC: &[u8; 8] = b"TCMAP01\n";
/// The only shard-map payload version this build reads and writes.
pub const MAP_VERSION: u32 = 1;
/// Upper bound on `shard_count` (and an allocation cap while parsing).
pub const MAX_SHARDS: usize = 4096;
/// Allocation cap for one serving address, in bytes.
const MAX_ADDR_BYTES: usize = 512;
/// Allocation cap for one segment path, in bytes.
const MAX_PATH_BYTES: usize = 4096;

fn corrupt(msg: impl Into<String>) -> LoadError {
    LoadError::Corrupt(format!("shardmap: {}", msg.into()))
}

/// How items are assigned to shards.
///
/// One scheme exists today; the map records a scheme code so a reader
/// can refuse a map written under a scheme it does not implement
/// instead of silently mis-routing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HashScheme {
    /// Shard of a level-1 subtree = `crc32(item.to_le_bytes()) % shard_count`.
    Crc32Item,
}

impl HashScheme {
    /// The wire code stored in the map payload.
    pub fn code(self) -> u32 {
        match self {
            HashScheme::Crc32Item => 1,
        }
    }

    /// Inverse of [`HashScheme::code`].
    pub fn from_code(code: u32) -> Option<HashScheme> {
        match code {
            1 => Some(HashScheme::Crc32Item),
            _ => None,
        }
    }

    /// Human-readable name, used in CLI output and docs.
    pub fn name(self) -> &'static str {
        match self {
            HashScheme::Crc32Item => "crc32-item",
        }
    }

    /// The shard owning the level-1 subtree rooted at `item`.
    pub fn shard_of(self, item: u32, shard_count: u32) -> u32 {
        match self {
            HashScheme::Crc32Item => crc32(&item.to_le_bytes()) % shard_count.max(1),
        }
    }
}

/// One shard's serving address and segment path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardEntry {
    /// `host:port` the shard daemon listens on.
    pub addr: String,
    /// Path of the shard's `TCSEG01` segment, as written by `tc shard`.
    pub path: String,
}

/// A parsed `TCMAP01` shard map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    /// The item→shard assignment scheme.
    pub scheme: HashScheme,
    /// The **full** tree's level-1 items, ascending. The router queries
    /// each shard with this universe so QBA answers stay exact.
    pub items: Vec<u32>,
    /// Per-shard address and segment path; `shards.len()` is the shard
    /// count and a shard's index is its id.
    pub shards: Vec<ShardEntry>,
}

impl ShardMap {
    /// The shard owning the level-1 subtree rooted at `item`.
    pub fn shard_of(&self, item: u32) -> u32 {
        self.scheme.shard_of(item, self.shards.len() as u32)
    }

    /// Serialises the map (magic, framed payload).
    pub fn save<W: Write>(&self, w: &mut W) -> std::io::Result<()> {
        let mut payload = Vec::new();
        put_u32(&mut payload, MAP_VERSION);
        put_u32(&mut payload, self.scheme.code());
        put_u32(
            &mut payload,
            checked_len_u32(self.shards.len(), "shard count")?,
        );
        put_u32(&mut payload, checked_len_u32(self.items.len(), "items")?);
        for &item in &self.items {
            put_u32(&mut payload, item);
        }
        for (id, shard) in self.shards.iter().enumerate() {
            put_u32(&mut payload, id as u32);
            put_u32(
                &mut payload,
                checked_len_u32(shard.addr.len(), "shard addr")?,
            );
            payload.extend_from_slice(shard.addr.as_bytes());
            put_u32(
                &mut payload,
                checked_len_u32(shard.path.len(), "shard path")?,
            );
            payload.extend_from_slice(shard.path.as_bytes());
        }
        w.write_all(MAP_MAGIC)?;
        let mut head = Vec::with_capacity(8);
        put_u32(&mut head, checked_len_u32(payload.len(), "map payload")?);
        put_u32(&mut head, crc32(&payload));
        w.write_all(&head)?;
        w.write_all(&payload)
    }

    /// Serialises the map to a byte vector.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.save(&mut buf).expect("Vec write is infallible");
        buf
    }

    /// Writes the map to `path`.
    pub fn save_to_path(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_bytes())
    }

    /// Parses a shard map, verifying magic, framing, checksum, version,
    /// and every structural invariant. Corruption always surfaces as a
    /// typed [`LoadError`], never a panic or a silently wrong map.
    pub fn from_bytes(bytes: &[u8]) -> Result<ShardMap, LoadError> {
        if bytes.len() < MAP_MAGIC.len() + 8 {
            return Err(corrupt("file too short for header"));
        }
        let (magic, rest) = bytes.split_at(MAP_MAGIC.len());
        if magic != MAP_MAGIC {
            return Err(corrupt("bad magic (not a TCMAP01 file)"));
        }
        let eof = || corrupt("unexpected end of payload");
        let mut head = ByteReader::new(&rest[..8]);
        let payload_len = head.u32().ok_or_else(eof)? as usize;
        let want_crc = head.u32().ok_or_else(eof)?;
        let payload = &rest[8..];
        if payload.len() != payload_len {
            return Err(corrupt(format!(
                "payload length {} disagrees with framed {payload_len}",
                payload.len()
            )));
        }
        if crc32(payload) != want_crc {
            return Err(LoadError::Checksum(
                "shardmap: payload checksum mismatch".into(),
            ));
        }
        let mut r = ByteReader::new(payload);
        let version = r.u32().ok_or_else(eof)?;
        if version != MAP_VERSION {
            return Err(corrupt(format!(
                "version skew: file is v{version}, this build reads v{MAP_VERSION}"
            )));
        }
        let scheme_code = r.u32().ok_or_else(eof)?;
        let scheme = HashScheme::from_code(scheme_code)
            .ok_or_else(|| corrupt(format!("unknown hash scheme code {scheme_code}")))?;
        let shard_count = r.u32().ok_or_else(eof)? as usize;
        if shard_count == 0 || shard_count > MAX_SHARDS {
            return Err(corrupt(format!(
                "shard count {shard_count} outside 1..={MAX_SHARDS}"
            )));
        }
        let item_count = r.u32().ok_or_else(eof)? as usize;
        if item_count > r.remaining() / 4 {
            return Err(corrupt(format!(
                "item count {item_count} exceeds remaining payload"
            )));
        }
        let mut items = Vec::with_capacity(item_count);
        for _ in 0..item_count {
            let item = r.u32().ok_or_else(eof)?;
            if let Some(&prev) = items.last() {
                if item <= prev {
                    return Err(corrupt("item universe not strictly ascending"));
                }
            }
            items.push(item);
        }
        let mut shards = Vec::with_capacity(shard_count);
        for id in 0..shard_count {
            let got = r.u32().ok_or_else(eof)? as usize;
            if got != id {
                return Err(corrupt(format!("shard entry {id} carries id {got}")));
            }
            let addr = read_string(&mut r, MAX_ADDR_BYTES, "addr")?;
            let path = read_string(&mut r, MAX_PATH_BYTES, "path")?;
            shards.push(ShardEntry { addr, path });
        }
        if !r.is_empty() {
            return Err(corrupt(format!("{} trailing payload bytes", r.remaining())));
        }
        Ok(ShardMap {
            scheme,
            items,
            shards,
        })
    }

    /// Reads and parses a shard map from `path`.
    pub fn load_from_path(path: &Path) -> Result<ShardMap, LoadError> {
        let bytes = std::fs::read(path)
            .map_err(|e| LoadError::Corrupt(format!("shardmap: read {}: {e}", path.display())))?;
        ShardMap::from_bytes(&bytes)
    }
}

fn read_string(r: &mut ByteReader<'_>, cap: usize, what: &str) -> Result<String, LoadError> {
    let eof = || corrupt("unexpected end of payload");
    let len = r.u32().ok_or_else(eof)? as usize;
    if len > cap {
        return Err(corrupt(format!("{what} length {len} exceeds cap {cap}")));
    }
    let bytes = r.take(len).ok_or_else(eof)?;
    String::from_utf8(bytes.to_vec()).map_err(|_| corrupt(format!("{what} is not UTF-8")))
}

/// The full tree's level-1 item universe, ascending (root children are
/// built in ascending item order, so this is a direct read-off).
pub fn level1_items(tree: &TcTree) -> Vec<u32> {
    let nodes = tree.nodes();
    nodes[0]
        .children
        .iter()
        .map(|&c| nodes[c as usize].item.0)
        .collect()
}

/// Partitions `tree` into `shard_count` self-contained trees by
/// root-child subtree: shard `s` keeps the root plus every level-1
/// subtree whose item hashes to `s` under `scheme`.
///
/// Arena order is preserved within each shard, which keeps both segment
/// invariants intact (parents precede children; root children stay
/// ascending by item) and — because within-level arena order equals
/// pattern lexicographic order — makes the router's `(len, lex)` merge
/// reproduce the unsharded answer ordering exactly. Splitting into one
/// shard is the identity: the arena comes back unchanged.
pub fn split_tree(tree: &TcTree, scheme: HashScheme, shard_count: u32) -> Vec<TcTree> {
    let n = shard_count.max(1);
    let nodes = tree.nodes();
    // owner[id]: the shard owning node `id`'s level-1 ancestor.
    let mut owner = vec![0u32; nodes.len()];
    for (id, node) in nodes.iter().enumerate().skip(1) {
        owner[id] = if node.parent == 0 {
            scheme.shard_of(node.item.0, n)
        } else {
            owner[node.parent as usize]
        };
    }
    (0..n)
        .map(|s| {
            let mut remap = vec![u32::MAX; nodes.len()];
            remap[0] = 0;
            let mut out = vec![TcNode {
                item: nodes[0].item,
                parent: 0,
                children: Vec::new(),
                truss: nodes[0].truss.clone(),
            }];
            for (id, node) in nodes.iter().enumerate().skip(1) {
                if owner[id] != s {
                    continue;
                }
                let new_id = out.len() as u32;
                remap[id] = new_id;
                let new_parent = remap[node.parent as usize];
                debug_assert_ne!(new_parent, u32::MAX, "parents precede children");
                out.push(TcNode {
                    item: node.item,
                    parent: new_parent,
                    children: Vec::new(),
                    truss: node.truss.clone(),
                });
                out[new_parent as usize].children.push(new_id);
            }
            TcTree::from_nodes(out)
        })
        .collect()
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

    fn sample_map() -> ShardMap {
        ShardMap {
            scheme: HashScheme::Crc32Item,
            items: vec![0, 1, 2],
            shards: vec![
                ShardEntry {
                    addr: "127.0.0.1:7701".into(),
                    path: "shards/shard-000.seg".into(),
                },
                ShardEntry {
                    addr: "127.0.0.1:7702".into(),
                    path: "shards/shard-001.seg".into(),
                },
            ],
        }
    }

    #[test]
    fn map_roundtrips() {
        let map = sample_map();
        let back = ShardMap::from_bytes(&map.to_bytes()).unwrap();
        assert_eq!(back, map);
    }

    #[test]
    fn map_rejects_bad_magic() {
        let mut bytes = sample_map().to_bytes();
        bytes[0] ^= 0x40;
        let err = ShardMap::from_bytes(&bytes).unwrap_err();
        assert!(matches!(err, LoadError::Corrupt(_)), "{err}");
    }

    #[test]
    fn map_rejects_version_skew_with_typed_error() {
        let mut map_bytes = Vec::new();
        let map = sample_map();
        // Re-frame a payload whose version field claims v9.
        let bytes = map.to_bytes();
        let payload = &bytes[16..];
        let mut doctored = payload.to_vec();
        doctored[0] = 9;
        map_bytes.extend_from_slice(MAP_MAGIC);
        put_u32(&mut map_bytes, doctored.len() as u32);
        put_u32(&mut map_bytes, crc32(&doctored));
        map_bytes.extend_from_slice(&doctored);
        let err = ShardMap::from_bytes(&map_bytes).unwrap_err();
        assert!(err.to_string().contains("version skew"), "{err}");
    }

    #[test]
    fn shard_assignment_is_stable() {
        // The on-disk contract: crc32(le_bytes) % n. A change here silently
        // orphans every existing shard layout, so pin concrete values.
        let s = HashScheme::Crc32Item;
        for item in 0..64u32 {
            assert_eq!(s.shard_of(item, 3), crc32(&item.to_le_bytes()) % 3);
        }
        assert_eq!(s.shard_of(7, 1), 0);
    }

    #[test]
    fn split_into_one_shard_is_identity() {
        let tree = sample_tree();
        let split = split_tree(&tree, HashScheme::Crc32Item, 1);
        assert_eq!(split.len(), 1);
        let mut a = Vec::new();
        let mut b = Vec::new();
        crate::save_tree_segment(&tree, &mut a).unwrap();
        crate::save_tree_segment(&split[0], &mut b).unwrap();
        assert_eq!(a, b, "1-way split must serialise byte-identically");
    }

    #[test]
    fn split_partitions_every_node_exactly_once() {
        let tree = sample_tree();
        for n in [2u32, 3, 5] {
            let split = split_tree(&tree, HashScheme::Crc32Item, n);
            assert_eq!(split.len(), n as usize);
            let total: usize = split.iter().map(TcTree::num_nodes).sum();
            assert_eq!(total, tree.num_nodes());
            for shard in &split {
                // Every shard tree must survive the segment writer/reader.
                let mut buf = Vec::new();
                crate::save_tree_segment(shard, &mut buf).unwrap();
                let seg = crate::SegmentTcTree::from_bytes(buf).unwrap();
                assert_eq!(seg.num_nodes(), shard.num_nodes());
            }
        }
    }

    #[test]
    fn level1_universe_is_ascending() {
        let items = level1_items(&sample_tree());
        assert!(!items.is_empty());
        assert!(items.windows(2).all(|w| w[0] < w[1]));
    }
}
