//! One encoding per type: a configuration is its words, a tensor its
//! container section, and JSON is only printed — parsed into nothing but
//! `serde_json::Value`. No crate under `crates/*/src` may derive or
//! implement `Deserialize` again. Reads files only.

use std::fs;
use std::path::{Path, PathBuf};

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

/// The item headers of `text` — what precedes each `{` or `;` — with
/// whitespace collapsed, so a derive or an `impl` split over lines is one
/// string.
fn headers(text: &str) -> impl Iterator<Item = String> + '_ {
    text.split(['{', ';'])
        .map(|h| h.split_whitespace().collect::<Vec<_>>().join(" "))
}

fn derives_or_implements_deserialize(header: &str) -> bool {
    let derives = header.split("derive(").skip(1).any(|rest| {
        let list = rest.split(')').next().unwrap_or(rest);
        list.contains("Deserialize")
    });
    let implements = header.contains("impl") && header.contains("Deserialize for");
    derives || implements
}

#[test]
fn the_guard_sees_a_derive_and_an_impl() {
    let src = "#[derive(Debug,\n    serde::Deserialize)]\npub struct A { x: u8 }\n\
               impl<'de> Deserialize for B {}\n#[derive(Debug, Serialize)] struct C;";
    let hits: Vec<String> = headers(src)
        .filter(|h| derives_or_implements_deserialize(h))
        .collect();
    assert_eq!(hits.len(), 2, "{hits:?}");
}

#[test]
fn no_crate_derives_or_implements_deserialize() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut files = Vec::new();
    for krate in fs::read_dir(&crates).expect("crates/") {
        rust_files(
            &krate.expect("crate directory").path().join("src"),
            &mut files,
        );
    }
    assert!(
        files.len() > 50,
        "the scan found only {} files",
        files.len()
    );
    let offenders: Vec<String> = files
        .iter()
        .flat_map(|file| {
            let text = fs::read_to_string(file).expect("source file");
            headers(&text)
                .filter(|h| derives_or_implements_deserialize(h))
                .map(|h| format!("{}: {h}", file.display()))
                .collect::<Vec<_>>()
        })
        .collect();
    assert!(offenders.is_empty(), "{}", offenders.join("\n"));
}
