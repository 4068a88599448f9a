//! Every option has a customer (ROADMAP north star: "each abstraction must
//! be defended by a test or a bench that fails without it").
//!
//! An independently settable value nobody sets is a configuration no
//! differential covers and a branch on a path every caller pays for. This
//! guard reads the two places options are declared — the `pub` fields of
//! `ControlPlane` and the `TwineBuilder` setters — and fails, listing the
//! orphans, unless each one is set by some test, bench, example or
//! benchmark source in the repository. The way to keep an option the paper
//! needs is to give it a customer, not to exempt it here.

use std::fs;
use std::path::{Path, PathBuf};

const CONTROL_RS: &str = include_str!("../src/control.rs");
const RUNTIME_RS: &str = include_str!("../src/runtime.rs");

/// The lines of `src` between the one starting with `header` and the next
/// closing brace in column 0.
fn block(src: &'static str, header: &'static str) -> impl Iterator<Item = &'static str> {
    let mut lines = src.lines().skip_while(move |l| !l.starts_with(header));
    assert!(lines.next().is_some(), "no `{header}` to read options from");
    lines.take_while(|l| !l.starts_with('}'))
}

fn ident_prefix(s: &str) -> &str {
    let end = s
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .unwrap_or(s.len());
    &s[..end]
}

/// `pub name: …` fields of `ControlPlane`.
fn control_plane_fields() -> Vec<&'static str> {
    block(CONTROL_RS, "pub struct ControlPlane {")
        .filter_map(|l| l.trim_start().strip_prefix("pub "))
        .map(ident_prefix)
        .collect()
}

/// `pub fn name(mut self, …) -> Self` methods of `impl TwineBuilder`.
fn builder_setters() -> Vec<&'static str> {
    block(RUNTIME_RS, "impl TwineBuilder {")
        .filter(|l| l.contains("(mut self") && l.contains("-> Self"))
        .filter_map(|l| l.trim_start().strip_prefix("pub fn "))
        .map(ident_prefix)
        .collect()
}

fn rust_files(path: &Path, out: &mut Vec<PathBuf>) {
    if path.is_dir() {
        if path.file_name().is_some_and(|n| n == "target") {
            return;
        }
        for entry in fs::read_dir(path).expect("readable directory") {
            rust_files(&entry.expect("directory entry").path(), out);
        }
    } else if path.extension().is_some_and(|e| e == "rs") {
        out.push(path.to_path_buf());
    }
}

/// The text of every source file that could be a customer: tests, benches,
/// examples and the benchmark package, kept only when it names the type an
/// option is set on (so `Command::args` in the benchmark's `main.rs` does
/// not count as `TwineBuilder::args`).
fn customers() -> Vec<String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut files = Vec::new();
    for krate in fs::read_dir(root.join("crates")).expect("crates/") {
        rust_files(&krate.expect("directory entry").path().join("tests"), &mut files);
    }
    for place in [
        "tests",
        "examples",
        "crates/bench",
        "crates/core/src/sharded/tests.rs",
        "twine_bench/src",
    ] {
        rust_files(&root.join(place), &mut files);
    }
    files
        .iter()
        .map(|f| fs::read_to_string(f).expect("readable source file"))
        .filter(|text| text.contains("TwineBuilder") || text.contains("ControlPlane"))
        .collect()
}

/// Whether `text` contains `needle` not preceded by an identifier
/// character (`deadline:` must not be found inside `soft_deadline:`).
fn mentions(text: &str, needle: &str) -> bool {
    text.match_indices(needle).any(|(at, _)| {
        !text[..at]
            .chars()
            .next_back()
            .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_')
    })
}

#[test]
fn every_option_is_set_by_a_test_bench_or_example() {
    let fields = control_plane_fields();
    let setters = builder_setters();
    assert!(fields.contains(&"max_live_sessions"), "field parser broke: {fields:?}");
    assert!(setters.contains(&"fs"), "setter parser broke: {setters:?}");

    let customers = customers();
    assert!(customers.len() >= 20, "customer walk broke: {} files", customers.len());
    let unused = |needle: String| !customers.iter().any(|text| mentions(text, &needle));

    let orphan_fields: Vec<_> = fields
        .into_iter()
        .filter(|f| unused(format!("{f}:")))
        .collect();
    let orphan_setters: Vec<_> = setters
        .into_iter()
        .filter(|s| unused(format!(".{s}(")))
        .collect();
    assert!(
        orphan_fields.is_empty() && orphan_setters.is_empty(),
        "options no test, bench, example or twine_bench source sets — give each a \
         customer or delete it:\n  ControlPlane fields: {orphan_fields:?}\n  \
         TwineBuilder setters: {orphan_setters:?}"
    );
}
