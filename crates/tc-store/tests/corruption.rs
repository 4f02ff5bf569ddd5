//! The corruption guard: damaged files must fail with `Corrupt`/`Checksum`
//! errors — never a panic, never silently wrong data.
//!
//! CI runs this suite as an explicit gate (see `.github/workflows/ci.yml`,
//! the corruption-guard step); locally it runs with `cargo test`.
//!
//! Segment files carry per-page CRC-32, so **every** bit flip and
//! truncation must be detected. The text formats have no checksums — a
//! flip inside free-form content (an item name, a digit) can legitimately
//! produce a different valid file — so for them the guarantee tested is
//! weaker: loaders never panic, and structural damage is reported.

use tc_core::{DatabaseNetwork, DatabaseNetworkBuilder};
use tc_index::{TcTree, TcTreeBuilder};
use tc_store::wal::{encode_wal, scan_wal, WalRecord, FRAME_HEADER_LEN, WAL_HEADER_LEN};
use tc_store::{LoadError, SegmentTcTree};

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

fn sample_tree() -> TcTree {
    TcTreeBuilder {
        threads: 1,
        max_len: usize::MAX,
    }
    .build(&sample_network())
}

fn network_segment_bytes() -> Vec<u8> {
    let mut buf = Vec::new();
    tc_store::save_network_segment(&sample_network(), &mut buf).unwrap();
    buf
}

fn tree_segment_bytes() -> Vec<u8> {
    let mut buf = Vec::new();
    tc_store::save_tree_segment(&sample_tree(), &mut buf).unwrap();
    buf
}

/// Exercises a damaged tree segment end to end: open, then (if the damage
/// sat in a lazily-read region) a full-materialisation query.
fn load_damaged_tree(bytes: Vec<u8>) -> Result<(), LoadError> {
    let seg = SegmentTcTree::from_bytes(bytes)?;
    seg.query_by_alpha(0.0)?;
    seg.to_tree()?;
    Ok(())
}

#[test]
fn network_segment_detects_every_bit_flip() {
    let clean = network_segment_bytes();
    assert!(tc_store::load_network_segment_from_bytes(&clean).is_ok());
    let step = (clean.len() / 211).max(1);
    for pos in (0..clean.len()).step_by(step) {
        for bit in [0, 4, 7] {
            let mut bad = clean.clone();
            bad[pos] ^= 1 << bit;
            let err = tc_store::load_network_segment_from_bytes(&bad);
            assert!(
                matches!(err, Err(e) if e.is_corruption()),
                "flip at {pos}:{bit} not reported as corruption"
            );
        }
    }
}

#[test]
fn tree_segment_detects_every_bit_flip() {
    let clean = tree_segment_bytes();
    load_damaged_tree(clean.clone()).unwrap();
    let step = (clean.len() / 211).max(1);
    for pos in (0..clean.len()).step_by(step) {
        let mut bad = clean.clone();
        bad[pos] ^= 0x20;
        let err = load_damaged_tree(bad);
        assert!(
            matches!(err, Err(e) if e.is_corruption()),
            "flip at byte {pos} not reported as corruption"
        );
    }
}

#[test]
fn segment_truncations_fail_at_open() {
    for bytes in [network_segment_bytes(), tree_segment_bytes()] {
        for cut in [
            0,
            1,
            7,
            tc_store::PAGE_SIZE - 1,
            tc_store::PAGE_SIZE,
            bytes.len() / 2,
            bytes.len() - 1,
        ] {
            let truncated = bytes[..cut.min(bytes.len())].to_vec();
            let net_err = tc_store::load_network_segment_from_bytes(&truncated);
            assert!(
                matches!(net_err, Err(e) if e.is_corruption()),
                "network truncation to {cut} bytes accepted"
            );
            let tree_err = load_damaged_tree(truncated);
            assert!(
                matches!(tree_err, Err(e) if e.is_corruption()),
                "tree truncation to {cut} bytes accepted"
            );
        }
    }
}

/// Page reads are checksum-verified above the `PageSource`: a bit flip in
/// a lazily-read page surfaces as the **same** typed
/// `LoadError::Checksum` (same message, even) whether the bytes came from
/// a file or from an in-memory image.
#[test]
fn lazy_bit_flip_reports_the_same_checksum_error_from_file_and_image() {
    let clean = tree_segment_bytes();
    let dir = std::env::temp_dir().join("tc_store_lazy_corruption");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("tree.seg");
    // Flip a payload byte in the file's last page: that page belongs to
    // the LEVELS section, which open() never touches — the damage is only
    // reachable through lazy materialisation.
    let mut bad = clean.clone();
    let pos = bad.len() - tc_store::PAGE_SIZE + 12;
    bad[pos] ^= 0x40;
    std::fs::write(&path, &bad).unwrap();

    let mut messages = Vec::new();
    for (source, seg) in [
        ("file", SegmentTcTree::open(&path)),
        ("image", SegmentTcTree::from_bytes(bad)),
    ] {
        let seg = seg.expect("damage sits in a lazy region");
        let err = (|| {
            seg.query_by_alpha(0.0)?;
            seg.to_tree()?;
            Ok::<(), LoadError>(())
        })()
        .expect_err("flip undetected");
        assert!(
            matches!(err, LoadError::Checksum(_)),
            "{source} path: wrong error type {err}"
        );
        messages.push(err.to_string());
    }
    assert_eq!(messages[0], messages[1], "both paths report identically");
    std::fs::remove_file(&path).ok();
}

/// The daemon's counting walk reads pages through the same verified read
/// as the full-truss walk: the same flipped bit in a lazily-read LEVELS
/// page is the same `LoadError::Checksum` from either.
#[test]
fn lazy_bit_flip_reports_the_same_checksum_error_from_the_summary_walk() {
    let mut bad = tree_segment_bytes();
    let pos = bad.len() - tc_store::PAGE_SIZE + 12;
    bad[pos] ^= 0x40;
    // A fresh tree per walk, so neither answers from what the other cached.
    let open = || SegmentTcTree::from_bytes(bad.clone()).expect("damage sits in a lazy region");
    let from_query = open().query_by_alpha(0.0).expect_err("flip undetected");
    let seg = open();
    let from_summary = seg
        .summarize(seg.all_items(), 0.0)
        .expect_err("flip undetected");
    assert!(
        matches!(from_summary, LoadError::Checksum(_)),
        "wrong error type {from_summary}"
    );
    assert_eq!(from_summary.to_string(), from_query.to_string());
}

/// Open streams the NODES directory page by page, and still verifies
/// every one of its pages before it returns: a bit flipped anywhere in
/// any of them — the last, and those a record straddles, included — fails
/// `open` itself with `Checksum`, not some later query.
#[test]
fn every_directory_page_is_verified_at_open() {
    use tc_util::bytes::{put_f64, put_varint, zigzag};
    // 1 200 records of a chain, 12 bytes each for the first 128 items and
    // 13 after: four pages, with a record straddling each boundary between
    // them.
    let count = 1_200u32;
    let mut nodes = Vec::new();
    put_varint(&mut nodes, u64::from(count));
    for id in 0..count {
        put_varint(&mut nodes, zigzag(i64::from(id > 1)));
        put_varint(&mut nodes, id.into());
        put_varint(&mut nodes, 0);
        put_f64(&mut nodes, 0.0);
        put_varint(&mut nodes, 0);
    }
    let dir_pages = nodes.len().div_ceil(tc_store::page::PAGE_CAP);
    assert_eq!(dir_pages, 4);
    let mut clean = Vec::new();
    tc_store::page::write_segment(
        &mut clean,
        tc_store::SegmentKind::TcTree,
        &[(1, nodes), (2, Vec::new())],
    )
    .unwrap();
    assert_eq!(
        SegmentTcTree::from_bytes(clean.clone())
            .unwrap()
            .num_nodes(),
        count as usize - 1
    );
    let page = tc_store::PAGE_SIZE;
    for p in 1..=dir_pages {
        for within in [0, 5, 8, 9, page / 2, page - 1] {
            let pos = p * page + within;
            let mut bad = clean.clone();
            bad[pos] ^= 0x08;
            let err = SegmentTcTree::from_bytes(bad).expect_err("flip accepted at open");
            assert!(
                matches!(err, LoadError::Checksum(_)),
                "flip in NODES page {p} at byte {pos}: {err}"
            );
        }
    }
}

#[test]
fn segment_extension_fails_at_open() {
    // Appended garbage breaks the header's length promise.
    let mut bytes = tree_segment_bytes();
    bytes.extend_from_slice(&[0u8; 100]);
    assert!(matches!(
        SegmentTcTree::from_bytes(bytes),
        Err(e) if e.is_corruption()
    ));
}

fn shard_map_bytes() -> Vec<u8> {
    use tc_store::shardmap::{HashScheme, ShardEntry, ShardMap};
    ShardMap {
        scheme: HashScheme::Crc32Item,
        items: vec![0, 1, 2, 5, 9],
        shards: vec![
            ShardEntry {
                addr: "127.0.0.1:7701".into(),
                path: "shards/shard-000.seg".into(),
            },
            ShardEntry {
                addr: "127.0.0.1:7702".into(),
                path: "shards/shard-001.seg".into(),
            },
            ShardEntry {
                addr: "tc-shard-2.internal:7641".into(),
                path: "/var/lib/tc/shard-002.seg".into(),
            },
        ],
    }
    .to_bytes()
}

/// The shard map's payload is CRC-framed like everything else: every
/// single-bit flip anywhere in the file must surface as a typed error —
/// a silently mis-parsed map would scatter queries to the wrong fleet.
#[test]
fn shard_map_detects_every_bit_flip() {
    use tc_store::shardmap::ShardMap;
    let clean = shard_map_bytes();
    assert!(ShardMap::from_bytes(&clean).is_ok());
    for pos in 0..clean.len() {
        for bit in [0, 3, 7] {
            let mut bad = clean.clone();
            bad[pos] ^= 1 << bit;
            let err = ShardMap::from_bytes(&bad);
            assert!(
                matches!(err, Err(e) if e.is_corruption()),
                "flip at {pos}:{bit} not reported as corruption"
            );
        }
    }
}

#[test]
fn shard_map_truncations_and_extensions_fail() {
    use tc_store::shardmap::ShardMap;
    let clean = shard_map_bytes();
    for cut in 0..clean.len() {
        let err = ShardMap::from_bytes(&clean[..cut]);
        assert!(
            matches!(err, Err(e) if e.is_corruption()),
            "truncation to {cut} bytes accepted"
        );
    }
    let mut extended = clean;
    extended.extend_from_slice(&[0u8; 16]);
    assert!(matches!(
        ShardMap::from_bytes(&extended),
        Err(e) if e.is_corruption()
    ));
}

/// Version skew is its own failure mode (a newer tool wrote the map),
/// distinct from random damage: the error must say so.
#[test]
fn shard_map_version_skew_is_reported_as_such() {
    use tc_store::shardmap::{ShardMap, MAP_MAGIC};
    let clean = shard_map_bytes();
    let mut payload = clean[16..].to_vec();
    payload[0] = 2; // version u32 LE: v2
    let mut skewed = Vec::new();
    skewed.extend_from_slice(MAP_MAGIC);
    skewed.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    skewed.extend_from_slice(&tc_util::crc32(&payload).to_le_bytes());
    skewed.extend_from_slice(&payload);
    let err = ShardMap::from_bytes(&skewed).unwrap_err();
    assert!(err.is_corruption());
    assert!(err.to_string().contains("version skew"), "{err}");
}

fn wal_records() -> Vec<WalRecord> {
    vec![
        WalRecord::AddItem {
            name: "item-0".into(),
        },
        WalRecord::AddEdge { u: 0, v: 1 },
        WalRecord::AddTransaction {
            vertex: 0,
            items: vec![0],
        },
        WalRecord::AddDatabase { vertex: 3 },
    ]
}

fn wal_image() -> Vec<u8> {
    encode_wal(&wal_records(), 1).unwrap()
}

/// Bit-flips each field class of a *mid-log* record (valid records follow
/// it, so the damage cannot be mistaken for a torn tail) and asserts the
/// typed error per class. A CRC-protected frame reports `Checksum` no
/// matter which covered field was hit; the length field gets a dedicated
/// low-bit flip so the frame boundary shifts while staying in-file.
#[test]
fn wal_field_class_flips_report_typed_errors() {
    let clean = wal_image();
    let first = WAL_HEADER_LEN; // offset of record 1's frame
    let classes = [
        ("length", first, 0x01u8),
        ("seqno", first + 4, 0x01),
        ("crc", first + 12, 0x01),
        ("payload", first + FRAME_HEADER_LEN, 0x01),
    ];
    for (class, pos, mask) in classes {
        let mut bad = clean.clone();
        bad[pos] ^= mask;
        let err = scan_wal(&bad).expect_err(&format!("{class} flip accepted"));
        assert!(err.is_corruption(), "{class} flip: untyped error {err}");
    }
    // Flips in the file header: magic → Corrupt, the rest → Checksum.
    for pos in 0..WAL_HEADER_LEN {
        let mut bad = clean.clone();
        bad[pos] ^= 0x10;
        let err = scan_wal(&bad).expect_err("header flip accepted");
        assert!(err.is_corruption(), "header flip at {pos}: {err}");
    }
}

/// Every single-bit flip anywhere in the log either reports a typed error
/// or truncates to a clean **strict** prefix (the torn-tail path: damage
/// in the final frame, or a length flip that pushes a frame past
/// end-of-file, is indistinguishable from a crash mid-append). Either way
/// the flip is detected — never a panic, never damaged bytes returned as
/// records.
#[test]
fn wal_every_bit_flip_is_typed_or_a_clean_prefix() {
    let records = wal_records();
    let clean = wal_image();
    for pos in 0..clean.len() {
        for bit in [0, 3, 7] {
            let mut bad = clean.clone();
            bad[pos] ^= 1 << bit;
            match scan_wal(&bad) {
                Err(e) => assert!(e.is_corruption(), "flip {pos}:{bit}: {e}"),
                Ok(scan) => {
                    let got: Vec<WalRecord> = scan.records.into_iter().map(|(_, r)| r).collect();
                    assert!(got.len() < records.len(), "flip {pos}:{bit} undetected");
                    assert_eq!(got, records[..got.len()], "flip {pos}:{bit}");
                }
            }
        }
    }
}

/// Tail truncation at every offset yields the committed prefix — the same
/// sweep the fault-injection suite runs via `Wal`, here asserted at the
/// raw scan layer alongside the other formats' truncation guards.
#[test]
fn wal_truncation_at_every_offset_is_a_committed_prefix() {
    let records = wal_records();
    let clean = wal_image();
    let mut prev = 0usize;
    for cut in 0..=clean.len() {
        let scan = scan_wal(&clean[..cut]).unwrap();
        let got: Vec<WalRecord> = scan.records.into_iter().map(|(_, r)| r).collect();
        assert_eq!(got, records[..got.len()], "cut at {cut}");
        assert!(got.len() >= prev, "prefix shrank at cut {cut}");
        prev = got.len();
    }
    assert_eq!(prev, records.len());
}

#[test]
fn text_network_damage_never_panics() {
    let mut clean = Vec::new();
    tc_data::save_network(&sample_network(), &mut clean).unwrap();
    // Truncations anywhere before the trailing "end" must error.
    for cut in [0, 1, clean.len() / 3, clean.len() / 2, clean.len() - 5] {
        let r = tc_data::load_network(std::io::Cursor::new(&clean[..cut]));
        assert!(r.is_err(), "network text truncated to {cut} bytes accepted");
    }
    // Bit flips: the format is unchecksummed free-form text, so some flips
    // remain valid — the guard is "no panic, and a definite answer".
    let step = (clean.len() / 173).max(1);
    for pos in (0..clean.len()).step_by(step) {
        let mut bad = clean.clone();
        bad[pos] ^= 0x02;
        let _ = tc_data::load_network(std::io::Cursor::new(&bad[..]));
    }
}

#[test]
fn text_tree_damage_never_panics() {
    let tree = sample_tree();
    let mut clean = Vec::new();
    tree.save(&mut clean).unwrap();
    for cut in [0, 1, clean.len() / 3, clean.len() / 2, clean.len() - 5] {
        let r = TcTree::load(std::io::Cursor::new(&clean[..cut]));
        assert!(r.is_err(), "tree text truncated to {cut} bytes accepted");
    }
    let step = (clean.len() / 173).max(1);
    for pos in (0..clean.len()).step_by(step) {
        let mut bad = clean.clone();
        bad[pos] ^= 0x02;
        let _ = TcTree::load(std::io::Cursor::new(&bad[..]));
    }
}
