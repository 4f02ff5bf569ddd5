//! The TC-Tree segment format guard: the version 3 encoding decodes
//! exactly what was written, and nothing else gets past the decoder.
//!
//! * a deterministic mutation sweep over a small tree — every truncation
//!   of the NODES and LEVELS streams and a one-byte XOR at every offset,
//!   resealed with valid page CRCs — where each input either opens and
//!   materialises every node (and then re-saves byte-identically, which
//!   the canonical varints and the canonical choice of relative or
//!   absolute blob guarantee) or is a typed `Corrupt`, and none panics or
//!   allocates more than its streams could describe;
//! * crafted streams for each decoder check, hand-built version 1 and 2
//!   tree segments, and pinned network segment bytes (networks stay
//!   version 1);
//! * the nesting guard: every node a builder makes below depth 1 under a
//!   parent whose blob is 1 to 512 bytes is coded against the parent's
//!   edges (Theorem 5.1), on a co-author network.
//!
//! CI re-runs this suite by name (see `.github/workflows/ci.yml`, the
//! segment-format step); locally it runs with `cargo test`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tc_core::{DatabaseNetwork, DatabaseNetworkBuilder};
use tc_index::{TcTree, TcTreeBuilder};
use tc_store::page::{write_segment, PageFile};
use tc_store::{LoadError, SegmentKind, SegmentTcTree, PAGE_SIZE};
use tc_util::bytes::{put_f64, put_u32, put_u64, put_varint, unzigzag, zigzag, ByteReader};

thread_local! {
    /// The largest single allocation this thread has asked for.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, recording each thread's largest request.
struct LargestAlloc;

impl LargestAlloc {
    fn note(size: usize) {
        // `try_with`: the slot may already be gone on a thread tearing down.
        let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
    }
}

// SAFETY: every method delegates verbatim to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a thread-local `Cell`
// update, which neither allocates (const-initialised, no destructor) nor
// unwinds.
unsafe impl GlobalAlloc for LargestAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        // SAFETY: forwarded under the caller's own contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        // SAFETY: forwarded under the caller's own contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note(new_size);
        // SAFETY: forwarded under the caller's own contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: LargestAlloc = LargestAlloc;

fn sample_network() -> DatabaseNetwork {
    let mut b = DatabaseNetworkBuilder::new();
    let items: Vec<_> = (0..6)
        .map(|i| b.intern_item(&format!("item-{i}")))
        .collect();
    for v in 0..8u32 {
        for t in 0..4usize {
            let a = items[(v as usize + t) % items.len()];
            let c = items[(v as usize + t + 1) % items.len()];
            b.add_transaction(v, &[a, c]);
        }
    }
    for u in 0..8u32 {
        for v in (u + 1)..8u32 {
            if (u + v) % 3 != 0 {
                b.add_edge(u, v);
            }
        }
    }
    b.build().unwrap()
}

fn tree_bytes(tree: &TcTree) -> Vec<u8> {
    let mut buf = Vec::new();
    tc_store::save_tree_segment(tree, &mut buf).unwrap();
    buf
}

/// A tree segment around the given NODES and LEVELS streams.
fn sealed(nodes: &[u8], levels: &[u8]) -> Vec<u8> {
    let mut buf = Vec::new();
    write_segment(
        &mut buf,
        SegmentKind::TcTree,
        &[(1, nodes.to_vec()), (2, levels.to_vec())],
    )
    .unwrap();
    buf
}

/// The NODES and LEVELS streams of a tree segment.
fn streams(segment: &[u8]) -> (Vec<u8>, Vec<u8>) {
    let pages = PageFile::from_bytes(segment.to_vec()).unwrap();
    let section = |id| pages.read_section(&pages.header().section(id).unwrap());
    (section(1).unwrap(), section(2).unwrap())
}

/// `(parent, blob length, relative)` of each NODES record of a tree
/// segment, parsed by the grammar of `docs/SEGMENT_FORMAT.md`.
fn directory(segment: &[u8]) -> Vec<(u32, u64, bool)> {
    let (nodes, _) = streams(segment);
    let mut r = ByteReader::new(&nodes);
    let count = r.varint(u64::MAX).unwrap();
    let mut parent = 0i64;
    let records = (0..count)
        .map(|_| {
            parent += unzigzag(r.varint(u64::MAX).unwrap());
            r.varint(u32::MAX.into()).unwrap(); // item
            let levels = r.varint(u32::MAX.into()).unwrap();
            r.f64().unwrap(); // max_alpha
            let blob_len = r.varint(u64::MAX).unwrap();
            (parent as u32, blob_len, levels & 1 == 1)
        })
        .collect();
    assert!(r.is_empty(), "trailing NODES bytes");
    records
}

/// Opens `bytes` and materialises every node; the rebuilt tree's segment
/// on success.
fn decode(bytes: Vec<u8>) -> Result<Vec<u8>, LoadError> {
    let seg = SegmentTcTree::from_bytes(bytes)?;
    seg.summarize(seg.all_items(), 0.0)?;
    Ok(tree_bytes(&seg.to_tree()?))
}

#[test]
fn streams_round_trip_and_carry_version_3() {
    let tree = TcTreeBuilder {
        threads: 1,
        max_len: usize::MAX,
    }
    .build(&sample_network());
    let bytes = tree_bytes(&tree);
    // Page 0's payload (at byte 8): the magic, then the version.
    assert_eq!(bytes[16..18], 3u16.to_le_bytes());
    assert_eq!(decode(bytes.clone()).unwrap(), bytes);
}

#[test]
fn every_node_under_a_base_parent_is_coded_against_it() {
    // Theorem 5.1: a node's truss lies inside its parent's, so a builder
    // tree codes every node below depth 1 whose parent's blob is 1 to
    // 512 bytes relative, and only those. A builder change that breaks the
    // theorem, or a writer that silently falls back to absolute blobs,
    // fails here by name.
    let net = tc_data::generate_coauthor(&tc_data::CoauthorConfig {
        groups: 3,
        authors_per_group: 16,
        interdisciplinary_authors: 4,
        papers_per_author: 10,
        keywords_per_paper: 4,
        collab_prob: 0.7,
        cross_group_edges: 12,
        generic_keyword_prob: 0.4,
        seed: 0xD5,
    })
    .network;
    let tree = TcTreeBuilder {
        threads: 1,
        max_len: usize::MAX,
    }
    .build(&net);
    let records = directory(&tree_bytes(&tree));
    assert!(tree.max_depth() >= 3, "depth {}", tree.max_depth());
    let mut relative_count = 0;
    for (id, &(parent, _, relative)) in records.iter().enumerate() {
        let based = parent != 0 && (1..=512).contains(&records[parent as usize].1);
        assert_eq!(relative, based, "node {id} (parent {parent})");
        relative_count += usize::from(relative);
    }
    assert!(relative_count >= 400, "{relative_count} relative blobs");
}

#[test]
fn every_truncation_and_byte_flip_is_typed_or_decodes_canonically() {
    let tree = TcTreeBuilder {
        threads: 1,
        max_len: usize::MAX,
    }
    .build(&sample_network());
    let clean = tree_bytes(&tree);
    let (nodes, levels) = streams(&clean);
    assert!(
        tree.num_nodes() > 8 && levels.len() > 64,
        "a tree worth sweeping"
    );
    let relative = directory(&clean).iter().filter(|r| r.2).count();
    assert!(relative >= 2, "{relative} relative blobs to damage");
    let mut inputs: Vec<(String, Vec<u8>, Vec<u8>)> = Vec::new();
    for cut in 0..nodes.len() {
        inputs.push((
            format!("NODES cut at {cut}"),
            nodes[..cut].to_vec(),
            levels.clone(),
        ));
    }
    for cut in 0..levels.len() {
        inputs.push((
            format!("LEVELS cut at {cut}"),
            nodes.clone(),
            levels[..cut].to_vec(),
        ));
    }
    for mask in [0x01u8, 0x80, 0xff] {
        for at in 0..nodes.len() {
            let mut bad = nodes.clone();
            bad[at] ^= mask;
            inputs.push((format!("NODES[{at}] ^ {mask:#04x}"), bad, levels.clone()));
        }
        for at in 0..levels.len() {
            let mut bad = levels.clone();
            bad[at] ^= mask;
            inputs.push((format!("LEVELS[{at}] ^ {mask:#04x}"), nodes.clone(), bad));
        }
    }
    let mut decoded = 0;
    for (what, nodes, levels) in inputs {
        let bytes = sealed(&nodes, &levels);
        // Whatever the damage, nothing reserved may outgrow a fixed
        // multiple of the streams: decoded records, cache slots and levels
        // are a few dozen bytes for each byte that describes them.
        let bound = 64 * (nodes.len() + levels.len()) + 64 * 1024;
        LARGEST.with(|l| l.set(0));
        let outcome = std::panic::catch_unwind(|| decode(bytes.clone()))
            .unwrap_or_else(|_| panic!("{what}: the decoder panicked"));
        let largest = LARGEST.with(Cell::get);
        assert!(
            largest <= bound,
            "{what}: allocated {largest} B, over {bound} B"
        );
        match outcome {
            Ok(resaved) => {
                assert_eq!(resaved, bytes, "{what}: decoded but re-saves differently");
                decoded += 1;
            }
            Err(err) => assert!(matches!(err, LoadError::Corrupt(_)), "{what}: {err}"),
        }
    }
    // The clean streams are not among the inputs, but some damage (an
    // alpha's low mantissa bit, an item id) still describes a valid tree.
    assert!(
        decoded > 0,
        "no mutant decoded: the sweep proves nothing about re-saving"
    );
}

/// Appends one NODES record, `parent` as its difference from the previous
/// record's and `levels` as the raw field, `level count << 1 | relative`.
fn put_record(dir: &mut Vec<u8>, parent: i64, item: u32, levels: u64, alpha: f64, len: u64) {
    put_varint(dir, zigzag(parent));
    put_varint(dir, item.into());
    put_varint(dir, levels);
    put_f64(dir, alpha);
    put_varint(dir, len);
}

/// A root and one child on item 7 with one level at α = 0.5: a directory
/// for `levels`, with the child's parent stored as `parent` and its blob
/// length as `blob_len`.
fn one_child(parent: i64, blob_len: u64, levels: &[u8]) -> Result<SegmentTcTree, LoadError> {
    let mut nodes = Vec::new();
    put_varint(&mut nodes, 2);
    put_record(&mut nodes, 0, 0, 0, 0.0, 0);
    put_record(&mut nodes, parent, 7, 1 << 1, 0.5, blob_len);
    SegmentTcTree::from_bytes(sealed(&nodes, levels))
}

/// A root, node 1 on item 7 with the one level [`level`]`(&[(1, 0), (0,
/// 1)])` — edges (1, 2) and (1, 4) at α = 0.5 — and its child node 2 on
/// item 8 at α = 0.25, whose levels field is `child_levels` and whose
/// blob is `child_blob`.
fn parent_and_child(child_levels: u64, child_blob: &[u8]) -> Result<SegmentTcTree, LoadError> {
    let parent_blob = level(&[(1, 0), (0, 1)]);
    let mut nodes = Vec::new();
    put_varint(&mut nodes, 3);
    put_record(&mut nodes, 0, 0, 0, 0.0, 0);
    put_record(&mut nodes, 0, 7, 1 << 1, 0.5, parent_blob.len() as u64);
    put_record(
        &mut nodes,
        1,
        8,
        child_levels,
        0.25,
        child_blob.len() as u64,
    );
    SegmentTcTree::from_bytes(sealed(&nodes, &[parent_blob, child_blob.to_vec()].concat()))
}

/// One relative level's LEVELS bytes: the edge count, then index gaps.
fn relative_level(gaps: &[u64]) -> Vec<u8> {
    let mut blob = Vec::new();
    put_varint(&mut blob, gaps.len() as u64);
    for &gap in gaps {
        put_varint(&mut blob, gap);
    }
    blob
}

/// One level's LEVELS bytes: the edge count, then `(du, dv)` pairs.
fn level(pairs: &[(u64, u64)]) -> Vec<u8> {
    let mut blob = Vec::new();
    put_varint(&mut blob, pairs.len() as u64);
    for &(du, dv) in pairs {
        put_varint(&mut blob, du);
        put_varint(&mut blob, dv);
    }
    blob
}

fn assert_corrupt<T>(what: &str, r: Result<T, LoadError>, needle: &str) {
    match r {
        Err(LoadError::Corrupt(msg)) => assert!(msg.contains(needle), "{what}: {msg}"),
        Err(e) => panic!("{what}: {e} is not Corrupt"),
        Ok(_) => panic!("{what}: accepted"),
    }
}

#[test]
fn crafted_streams_fail_each_check_as_corrupt() {
    // The well-formed baseline: edges (1, 2) and (1, 4).
    let good = level(&[(1, 0), (0, 1)]);
    let seg = one_child(0, good.len() as u64, &good).unwrap();
    assert_eq!(
        seg.truss(1).unwrap().to_decomposition().levels[0].edges,
        [(1, 2), (1, 4)]
    );

    // An overlong varint: the node count, then an edge delta.
    let mut nodes = vec![0x82, 0x00];
    put_record(&mut nodes, 0, 0, 0, 0.0, 0);
    put_record(&mut nodes, 0, 7, 1 << 1, 0.5, good.len() as u64);
    let r = SegmentTcTree::from_bytes(sealed(&nodes, &good));
    assert_corrupt("overlong count", r, "malformed");
    let overlong = [0x02, 0x81, 0x00, 0x00, 0x00, 0x01];
    let seg = one_child(0, overlong.len() as u64, &overlong).unwrap();
    assert_corrupt("overlong du", seg.truss(1), "malformed");

    // A parent delta landing on the node itself, or past it.
    for delta in [1, 2, -1] {
        let r = one_child(delta, good.len() as u64, &good);
        assert_corrupt(
            &format!("parent delta {delta}"),
            r,
            "parent must precede child",
        );
    }

    // Blob lengths that do not sum to the LEVELS length.
    for len in [good.len() as u64 - 1, good.len() as u64 + 1] {
        assert_corrupt(
            &format!("blob_len {len}"),
            one_child(0, len, &good),
            "LEVELS length",
        );
    }

    // Deltas that carry an endpoint past u32::MAX.
    let max = u64::from(u32::MAX);
    for pairs in [
        &[(max, 0)][..],           // first edge: v = u32::MAX + 1
        &[(max - 1, 0), (0, 0)],   // du = 0: v = prev v + 1
        &[(max - 2, 0), (5, 0)],   // du: u past u32::MAX
        &[(0, max - 1), (1, max)], // dv alone
    ] {
        let blob = level(pairs);
        let seg = one_child(0, blob.len() as u64, &blob).unwrap();
        assert_corrupt(&format!("{pairs:?}"), seg.truss(1), "overflows u32");
    }
    // A delta too wide for u32 at all is a malformed varint.
    let blob = level(&[(max + 1, 0)]);
    let seg = one_child(0, blob.len() as u64, &blob).unwrap();
    assert_corrupt("du = 2^32", seg.truss(1), "malformed");
}

#[test]
fn crafted_relative_streams_fail_each_check_as_corrupt() {
    // The well-formed baseline: node 2 holds its parent's edge 1, (1, 4),
    // and re-saves byte-identically.
    let good = relative_level(&[1]);
    let bytes = {
        let seg = parent_and_child(1 << 1 | 1, &good).unwrap();
        assert_eq!(
            seg.truss(2).unwrap().to_decomposition().levels[0].edges,
            [(1, 4)]
        );
        seg.to_tree().map(|tree| tree_bytes(&tree)).unwrap()
    };
    assert_eq!(decode(bytes.clone()).unwrap(), bytes);

    // An index past the parent's two edges, first or after a gap; and a
    // gap that carries the index past u32::MAX.
    let max = u64::from(u32::MAX);
    for gaps in [&[2][..], &[0, 1], &[0, max]] {
        let seg = parent_and_child(2 + 1, &relative_level(gaps)).unwrap();
        assert_corrupt(
            &format!("gaps {gaps:?}"),
            seg.truss(2),
            "past its parent's edges",
        );
    }
    // A gap too wide for u32 at all is a malformed varint.
    let seg = parent_and_child(2 + 1, &relative_level(&[max + 1])).unwrap();
    assert_corrupt("gap = 2^32", seg.truss(2), "malformed");

    // The relative bit on a depth-1 node: it has no parent's edges.
    let mut nodes = Vec::new();
    put_varint(&mut nodes, 2);
    put_record(&mut nodes, 0, 0, 0, 0.0, 0);
    put_record(&mut nodes, 0, 7, 1 << 1 | 1, 0.5, good.len() as u64);
    let r = SegmentTcTree::from_bytes(sealed(&nodes, &good));
    assert_corrupt("relative depth-1 node", r, "coded against the root");

    // The relative bit under a parent whose blob is 514 bytes — one level
    // of 256 edges (0, 1) … (0, 256), two bytes each after the edge
    // count's two — is no base.
    let parent_blob = level(&[(0, 0); 256]);
    assert_eq!(parent_blob.len(), 514);
    let mut nodes = Vec::new();
    put_varint(&mut nodes, 3);
    put_record(&mut nodes, 0, 0, 0, 0.0, 0);
    put_record(&mut nodes, 0, 7, 1 << 1, 0.75, parent_blob.len() as u64);
    put_record(&mut nodes, 1, 8, 1 << 1 | 1, 0.25, good.len() as u64);
    let seg = SegmentTcTree::from_bytes(sealed(&nodes, &[parent_blob, good.clone()].concat()));
    assert_corrupt("relative under a large parent", seg, "over 512 bytes");

    // A node inside its parent's edges coded absolute: the writer codes it
    // relative, so accepting it would break re-save identity.
    let absolute = level(&[(1, 2)]);
    let seg = parent_and_child(1 << 1, &absolute).unwrap();
    assert_corrupt("absolute nested node", seg.truss(2), "coded absolute");
    // Outside them, it is the absolute blob the writer makes.
    let outside = level(&[(2, 0)]);
    let seg = parent_and_child(1 << 1, &outside).unwrap();
    assert_eq!(
        seg.truss(2).unwrap().to_decomposition().levels[0].edges,
        [(2, 3)]
    );
}

/// `bytes` with `version` stamped into the header, page 0's CRC resealed
/// over the length field and everything after the CRC field.
fn stamped(mut bytes: Vec<u8>, version: u16) -> Vec<u8> {
    bytes[16..18].copy_from_slice(&version.to_le_bytes());
    let mut crc = tc_util::Crc32::new();
    crc.update(&bytes[..4]);
    crc.update(&bytes[8..PAGE_SIZE]);
    bytes[4..8].copy_from_slice(&crc.finish().to_le_bytes());
    bytes
}

/// Opens `bytes` as an image and as a file, and requires each to be
/// refused with the version skew error naming `version`.
fn assert_refused_as(version: u16, bytes: Vec<u8>) {
    let path = std::env::temp_dir().join(format!("tc_store_v{version}_{}.seg", std::process::id()));
    std::fs::write(&path, &bytes).unwrap();
    for (source, r) in [
        ("image", SegmentTcTree::from_bytes(bytes)),
        ("file", SegmentTcTree::open(&path)),
    ] {
        let Err(LoadError::Corrupt(msg)) = r else {
            panic!("{source}: a v{version} tree segment was not refused as Corrupt");
        };
        assert_eq!(
            msg,
            format!(
                "segment: version skew: TC-Tree segment is v{version}, this build reads v3; \
                 re-index from text with `tc index`"
            ),
            "{source}"
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn a_version_1_tree_segment_is_refused_with_the_skew_error() {
    // The version 1 layout of a root and one child: 36-byte records with
    // explicit blob offsets, and one level of fixed-width (u, v) pairs.
    let mut levels = Vec::new();
    put_f64(&mut levels, 0.5);
    put_u32(&mut levels, 1);
    put_u32(&mut levels, 0);
    put_u32(&mut levels, 1);
    let mut nodes = Vec::new();
    put_u64(&mut nodes, 2);
    for (item, level_count, max_alpha, len) in [(0, 0, 0.0, 0), (7, 1, 0.5, levels.len() as u64)] {
        put_u32(&mut nodes, 0);
        put_u32(&mut nodes, item);
        put_u32(&mut nodes, level_count);
        put_f64(&mut nodes, max_alpha);
        put_u64(&mut nodes, 0);
        put_u64(&mut nodes, len);
    }
    assert_refused_as(1, stamped(sealed(&nodes, &levels), 1));
}

#[test]
fn a_version_2_tree_segment_is_refused_with_the_skew_error() {
    // The version 2 layout of a root, a child and a grandchild: the level
    // count unshifted, and every blob absolute — the grandchild's too,
    // though its one edge lies in its parent's.
    let (parent, child) = (level(&[(1, 0), (0, 1)]), level(&[(1, 2)]));
    let mut nodes = Vec::new();
    put_varint(&mut nodes, 3);
    put_record(&mut nodes, 0, 0, 0, 0.0, 0);
    put_record(&mut nodes, 0, 7, 1, 0.5, parent.len() as u64);
    put_record(&mut nodes, 1, 8, 1, 0.25, child.len() as u64);
    assert_refused_as(2, stamped(sealed(&nodes, &[parent, child].concat()), 2));
}

#[test]
fn network_segments_keep_their_version_1_bytes() {
    // Length and CRC-32 of each whole file as the version 1 writer wrote
    // it before TC-Tree segments moved to version 2.
    let planted = tc_data::generate_planted(&tc_data::PlantedConfig::default()).network;
    for (what, net, len, crc) in [
        ("sample", sample_network(), 16_384, 0xc9f3_e2d9),
        ("planted", planted, 32_768, 0x6314_ec47),
    ] {
        let mut buf = Vec::new();
        tc_store::save_network_segment(&net, &mut buf).unwrap();
        assert_eq!(buf[16..18], 1u16.to_le_bytes(), "{what}");
        assert_eq!((buf.len(), tc_util::crc32(&buf)), (len, crc), "{what}");
    }
}
