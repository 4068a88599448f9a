//! The design's structural claims, checked on the source in tier-1.
//!
//! Each test reads source files and asserts what the CI step of the same
//! name in `.github/workflows/ci.yml` asserts, so a plain `cargo test`
//! sees the claim as well.

use std::path::Path;

/// The text of `path` (relative to the repository root) above its in-file
/// tests: every line before the first that starts with `#[cfg(test)]`.
fn above_tests(path: &str) -> String {
    let full = Path::new(env!("CARGO_MANIFEST_DIR")).join(path);
    let text = std::fs::read_to_string(&full).unwrap_or_else(|e| panic!("{}: {e}", full.display()));
    text.lines().take_while(|line| !line.starts_with("#[cfg(test)]")).map(|line| format!("{line}\n")).collect()
}

/// The lines of `text` that contain any of `needles`, numbered from 1.
fn lines_with(text: &str, needles: &[&str]) -> Vec<String> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| needles.iter().any(|needle| line.contains(needle)))
        .map(|(i, line)| format!("{}: {line}", i + 1))
        .collect()
}

/// B-tree pages are checked once (DESIGN.md §13). A read checks a page
/// when its bytes enter or change in the pager's cache and then picks each
/// child by bisection: the linear `step` is only the tests' oracle. Writes
/// descend the same way and carry a split up one path, not through a
/// recursive `insert_rec` or loops indexing `children[idx]`. A page has one
/// form in production, its bytes, so the owned `Node`, its `decode`, the
/// per-cell `TableCell` and `decode_leaf` are only the tests' model. And a
/// page has one size, its bytes in use: a reckoned `Layout::size` or a
/// `sep_size` carried beside an encoded entry is a second size notion.
#[test]
fn b_tree_pages_are_checked_once() {
    let top = above_tests("crates/sqldb/src/btree.rs");
    let needles = [
        "fn step(",
        "fn insert_rec(",
        "children[idx]",
        "enum Node",
        "Node::decode",
        "fn decode_leaf(",
        "TableCell",
        "sep_size",
        "lay.size",
    ];
    let found = lines_with(&top, &needles);
    assert!(found.is_empty(), "btree.rs above its tests:\n{}", found.join("\n"));
}
