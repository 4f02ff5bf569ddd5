//! The worked example of `docs/SEGMENT_FORMAT.md` is real: its TC-Tree
//! hexdumps are exactly the segment the writer produces for the
//! example's `tiny.dbnet`, and those bytes open and answer as the text
//! says.
//!
//! CI re-runs this test by name (see `.github/workflows/ci.yml`, the
//! segment-format step), so a format change that leaves the document
//! behind fails by name.

use theme_communities::data::load_network;
use theme_communities::index::TcTreeBuilder;
use theme_communities::store::{save_tree_segment, SegmentTcTree, PAGE_SIZE};

fn doc() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/docs/SEGMENT_FORMAT.md");
    std::fs::read_to_string(path).expect("docs/SEGMENT_FORMAT.md is readable")
}

/// The text between the first `from` and the next `to` after it.
fn between<'a>(text: &'a str, from: &str, to: &str) -> &'a str {
    let start = text.find(from).unwrap_or_else(|| panic!("no {from:?}")) + from.len();
    let len = text[start..]
        .find(to)
        .unwrap_or_else(|| panic!("no {to:?}"));
    &text[start..start + len]
}

/// The `xxd` lines of `text` as `(offset, bytes)`: `OOOOOOOO: ` then up
/// to eight groups of four hex digits, then the ASCII column.
fn hexdump_lines(text: &str) -> Vec<(usize, Vec<u8>)> {
    text.lines()
        .filter_map(|line| {
            let (offset, rest) = line.split_once(": ")?;
            if offset.len() != 8 {
                return None;
            }
            let offset = usize::from_str_radix(offset, 16).ok()?;
            // The hex column is 8 groups of 4 digits, space-separated.
            let hex: String = rest.get(..39)?.split(' ').collect();
            let bytes = (0..hex.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&hex[i..i + 2], 16))
                .collect::<Result<Vec<u8>, _>>()
                .unwrap_or_else(|e| panic!("bad hexdump line {line:?}: {e}"));
            Some((offset, bytes))
        })
        .collect()
}

#[test]
fn worked_example_hexdumps_are_the_written_segment_and_open() {
    let doc = doc();
    let example = between(&doc, "## Worked example", "### A three-record WAL");
    let dbnet = between(example, "cat > tiny.dbnet <<'EOF'\n", "EOF\n");
    let net = load_network(std::io::Cursor::new(dbnet)).expect("tiny.dbnet parses");
    let tree = TcTreeBuilder::default().build(&net);
    let mut written = Vec::new();
    save_tree_segment(&tree, &mut written).unwrap();
    assert_eq!(
        written.len(),
        3 * PAGE_SIZE,
        "the text promises 12,288 bytes"
    );

    let lines = hexdump_lines(example);
    for page in 0..3 {
        assert!(
            lines.iter().any(|(off, _)| off / PAGE_SIZE == page),
            "no hexdump of page {page}"
        );
    }
    // The document shows each page up to the end of its payload and
    // leaves out the zero padding after it.
    let mut image = vec![0u8; written.len()];
    for (offset, bytes) in &lines {
        let end = offset + bytes.len();
        assert_eq!(
            &written[*offset..end],
            &bytes[..],
            "hexdump line {offset:08x}"
        );
        image[*offset..end].copy_from_slice(bytes);
    }
    assert_eq!(
        image, written,
        "a payload byte is missing from the hexdumps"
    );

    let seg = SegmentTcTree::from_bytes(image).expect("the documented bytes open");
    assert_eq!(seg.num_nodes(), 3);
    let x = seg.all_items().items()[0];
    let patterns: Vec<_> = (1..=3u32)
        .map(|id| (seg.pattern(id).len(), seg.truss(id).unwrap().max_alpha()))
        .collect();
    assert_eq!(
        patterns,
        [(1, Some(1.0)), (1, Some(0.5)), (2, Some(0.5))],
        "{{x}} at 1.0, {{y}} and {{x,y}} at 0.5"
    );
    assert!(seg.pattern(1).contains(x));
    let answer = seg.query_by_alpha(0.0).unwrap();
    assert_eq!(answer.retrieved_nodes, 3);
    for truss in &answer.trusses {
        assert_eq!((truss.num_vertices(), truss.num_edges()), (4, 5));
    }
}
