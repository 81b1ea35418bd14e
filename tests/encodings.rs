//! One encoding per type: a configuration is its words, a tensor its
//! container section, and JSON is only printed — parsed into nothing but
//! `serde_json::Value`, and built by hand-written `ToJson` impls. No crate
//! under `crates/*/src` may derive `Serialize` or `Deserialize`, implement
//! `Deserialize`, or name a `serde::` path again, and every `[dependencies]`
//! edge of a crate is named by that crate's non-test source. Reads files
//! only.

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

/// Each crate directory under `crates/`.
fn crate_dirs() -> Vec<PathBuf> {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut dirs: Vec<PathBuf> = fs::read_dir(&crates)
        .expect("crates/")
        .map(|krate| krate.expect("crate directory").path())
        .collect();
    dirs.sort();
    dirs
}

/// The item headers of `text` — what precedes each `{` or `;` — with
/// whitespace collapsed, so a derive or an `impl` split over lines is one
/// string.
fn headers(text: &str) -> impl Iterator<Item = String> + '_ {
    text.split(['{', ';'])
        .map(|h| h.split_whitespace().collect::<Vec<_>>().join(" "))
}

/// Whether `text` names `path` (e.g. `serde::`) with no identifier
/// character before it, so `serde::` is not found inside `my_serde::`.
fn names_path(text: &str, path: &str) -> bool {
    text.match_indices(path).any(|(at, _)| {
        !text[..at]
            .chars()
            .next_back()
            .is_some_and(|c| c.is_alphanumeric() || c == '_')
    })
}

fn derives_or_implements_serde(header: &str) -> bool {
    let derives = header.split("derive(").skip(1).any(|rest| {
        let list = rest.split(')').next().unwrap_or(rest);
        list.contains("Serialize") || list.contains("Deserialize")
    });
    let implements = header.contains("impl") && header.contains("Deserialize for");
    derives || implements
}

/// What `text` does that the guard refuses, one entry per offence.
fn serde_offences(text: &str) -> Vec<String> {
    let mut hits: Vec<String> = headers(text)
        .filter(|h| derives_or_implements_serde(h))
        .collect();
    hits.extend(
        text.lines()
            .filter(|line| names_path(line, "serde::"))
            .map(|line| line.trim().to_string()),
    );
    hits
}

#[test]
fn the_guard_sees_a_derive_and_an_impl() {
    let src = "#[derive(Debug,\n    serde::Deserialize)]\npub struct A { x: u8 }\n\
               impl<'de> Deserialize for B {}\n#[derive(Debug, Serialize)] struct C;\n\
               use serde::Map;\n#[derive(Debug)] struct D;\n\
               fn f() { serde_json::to_string(&json!(D)); }";
    let hits = serde_offences(src);
    // Three headers (two derives, one impl) and two `serde::` lines.
    assert_eq!(hits.len(), 5, "{hits:?}");
}

#[test]
fn no_crate_derives_or_implements_deserialize() {
    let mut files = Vec::new();
    for krate in crate_dirs() {
        rust_files(&krate.join("src"), &mut files);
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
            serde_offences(&text)
                .into_iter()
                .map(|h| format!("{}: {h}", file.display()))
                .collect::<Vec<_>>()
        })
        .collect();
    assert!(offenders.is_empty(), "{}", offenders.join("\n"));
}

/// The names listed under `[dependencies]` in a `Cargo.toml`.
fn dependencies(manifest: &str) -> Vec<String> {
    let mut in_section = false;
    let mut names = Vec::new();
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_section = line == "[dependencies]";
        } else if in_section && !line.is_empty() && !line.starts_with('#') {
            let name = line.split(['.', '=', ' ']).next().unwrap_or(line);
            names.push(name.to_string());
        }
    }
    names
}

/// A source file's text before its first `#[cfg(test)]` module.
fn non_test(text: &str) -> &str {
    let mut at = 0;
    for line in text.split_inclusive('\n') {
        let next = text[at + line.len()..].trim_start();
        if line.trim() == "#[cfg(test)]"
            && (next.starts_with("mod ") || next.starts_with("pub mod "))
        {
            return &text[..at];
        }
        at += line.len();
    }
    text
}

#[test]
fn every_dependency_edge_is_named_by_its_crate() {
    let mut checked = 0;
    let mut dead = Vec::new();
    for krate in crate_dirs() {
        let manifest = fs::read_to_string(krate.join("Cargo.toml")).expect("Cargo.toml");
        let mut files = Vec::new();
        rust_files(&krate.join("src"), &mut files);
        let sources: Vec<String> = files
            .iter()
            .map(|f| non_test(&fs::read_to_string(f).expect("source file")).to_string())
            .collect();
        for name in dependencies(&manifest) {
            let ident = name.replace('-', "_");
            let named = sources.iter().any(|text| {
                names_path(text, &format!("{ident}::")) || text.contains(&format!("use {ident}"))
            });
            checked += 1;
            if !named {
                dead.push(format!("{}: {name}", krate.display()));
            }
        }
    }
    assert!(checked > 20, "the scan found only {checked} edges");
    assert!(
        dead.is_empty(),
        "edges no non-test source names:\n{}",
        dead.join("\n")
    );
}

#[test]
fn the_edge_scan_reads_the_dependencies_table_and_skips_test_modules() {
    let manifest = "[package]\nname = \"x\"\n\n[dependencies]\nplp-linalg.workspace = true\n\
                    rand = { path = \"r\" }\n# a note\n\n[dev-dependencies]\nproptest.workspace = true\n";
    assert_eq!(dependencies(manifest), ["plp-linalg", "rand"]);
    let src = "use rand::Rng;\nfn f() {}\n\n#[cfg(test)]\nmod tests {\n    use proptest::x;\n}\n";
    assert_eq!(non_test(src), "use rand::Rng;\nfn f() {}\n\n");
}
