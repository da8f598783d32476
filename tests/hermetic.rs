//! The hermetic-build guard: every manifest in the workspace may only
//! declare in-tree `path` dependencies. A registry dependency would make
//! the tier-1 gate (`cargo build --release && cargo test -q`) die at
//! dependency resolution in offline environments, which is exactly the
//! bug this workspace once had.
//!
//! Parsing is deliberately minimal (line/section based) because a TOML
//! parser would itself be a registry dependency.

use std::path::{Path, PathBuf};

/// A single `name = ...` entry under a dependency-ish section.
#[derive(Debug)]
struct DepEntry {
    manifest: PathBuf,
    section: String,
    line_no: usize,
    line: String,
}

impl DepEntry {
    /// Hermetic entries either point into the tree (`path = "..."`) or
    /// defer to `[workspace.dependencies]` (`workspace = true`), which
    /// this test checks separately.
    fn is_hermetic(&self) -> bool {
        let v = self.line.split_once('=').map_or("", |(_, v)| v).trim();
        v.contains("path =") || v.contains("path=") || v.contains("workspace = true")
    }
}

fn dependency_sections(manifest: &Path) -> Vec<DepEntry> {
    let text = std::fs::read_to_string(manifest)
        .unwrap_or_else(|e| panic!("read {}: {e}", manifest.display()));
    let mut entries = Vec::new();
    let mut section = String::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.starts_with('[') {
            section = line.trim_matches(['[', ']']).to_string();
            continue;
        }
        let in_dep_section = section == "dependencies"
            || section == "dev-dependencies"
            || section == "build-dependencies"
            || section == "workspace.dependencies"
            || section.starts_with("target.") && section.ends_with("dependencies");
        if !in_dep_section || line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line.contains('=') {
            entries.push(DepEntry {
                manifest: manifest.to_path_buf(),
                section: section.clone(),
                line_no: i + 1,
                line: line.to_string(),
            });
        }
    }
    entries
}

fn workspace_manifests() -> Vec<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut manifests = vec![root.join("Cargo.toml")];
    let crates_dir = root.join("crates");
    for entry in std::fs::read_dir(&crates_dir).expect("crates/ exists") {
        let path = entry.expect("readable dir entry").path();
        let manifest = path.join("Cargo.toml");
        if manifest.is_file() {
            manifests.push(manifest);
        }
    }
    manifests
}

#[test]
fn every_dependency_is_a_path_dependency() {
    let mut violations = Vec::new();
    let mut total = 0;
    for manifest in workspace_manifests() {
        for entry in dependency_sections(&manifest) {
            total += 1;
            if !entry.is_hermetic() {
                violations.push(format!(
                    "{}:{} [{}] {}",
                    entry.manifest.display(),
                    entry.line_no,
                    entry.section,
                    entry.line
                ));
            }
        }
    }
    assert!(total >= 10, "manifest scan looks broken: only {total} dependency entries found");
    assert!(
        violations.is_empty(),
        "non-path dependencies reintroduced (breaks the hermetic/offline build):\n{}",
        violations.join("\n")
    );
}

#[test]
fn workspace_dependency_table_is_path_only() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("Cargo.toml");
    let entries = dependency_sections(&root);
    let ws: Vec<_> = entries.iter().filter(|e| e.section == "workspace.dependencies").collect();
    assert!(!ws.is_empty(), "workspace.dependencies section not found in root manifest");
    for entry in ws {
        assert!(
            entry.line.contains("path"),
            "workspace dependency without a path (registry dep?): {} (line {})",
            entry.line,
            entry.line_no
        );
    }
}

/// The crates whose manifests are most tempting to grow a registry
/// dependency stay in the scan and stay hermetic: the serving plane
/// (real sockets come from `std`, not tokio/socket2, and it must keep
/// declaring its in-tree deps — proto/zone/server plus resolver/netsim/
/// detrand for the chaos plane), the telemetry capture plane (no
/// hdrhistogram / crossbeam rings on the hot path) and the metrics
/// plane (a scrape endpoint needs no prometheus/hyper/axum).
#[test]
fn plane_manifests_are_scanned_and_hermetic() {
    for (krate, min_deps) in [("netio", 6), ("telemetry", 0), ("metrics", 0)] {
        let manifest =
            Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("crates/{krate}/Cargo.toml"));
        assert!(manifest.is_file(), "crates/{krate}/Cargo.toml missing");
        assert!(
            workspace_manifests().contains(&manifest),
            "{krate} manifest not picked up by the workspace scan"
        );
        let entries = dependency_sections(&manifest);
        assert!(
            entries.len() >= min_deps,
            "{krate} should declare its in-tree deps, found {}",
            entries.len()
        );
        for entry in entries {
            assert!(
                entry.is_hermetic(),
                "{krate} gained a non-path dependency: {} (line {})",
                entry.line,
                entry.line_no
            );
        }
    }
}

/// The syscall shim is the one crate allowed to hold `unsafe` FFI, and
/// the classic way to write it is `libc = "0.2"` — which would break
/// the offline build. Pin down that it stays *dependency-free*: its
/// `extern "C"` declarations bind the symbols std already links.
#[test]
fn mmsg_shim_is_dependency_free() {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/mmsg/Cargo.toml");
    assert!(manifest.is_file(), "crates/mmsg/Cargo.toml missing");
    assert!(
        workspace_manifests().contains(&manifest),
        "mmsg manifest not picked up by the workspace scan"
    );
    let entries = dependency_sections(&manifest);
    assert!(
        entries.is_empty(),
        "the mmsg shim must stay dependency-free (no libc crate — hand-declared \
         extern \"C\" symbols only), found:\n{}",
        entries.iter().map(|e| e.line.clone()).collect::<Vec<_>>().join("\n")
    );
}

/// The ledger crate sits under every crate that owns a counter set —
/// the cache, the telemetry plane, the metrics plane — so it must
/// depend on none of them, nor on anything else, and stay safe code.
#[test]
fn ledger_crate_is_dependency_free_and_safe() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/ledger");
    let manifest = root.join("Cargo.toml");
    assert!(
        workspace_manifests().contains(&manifest),
        "ledger manifest not picked up by the workspace scan"
    );
    let entries = dependency_sections(&manifest);
    assert!(
        entries.is_empty(),
        "the ledger crate must stay dependency-free, found:\n{}",
        entries.iter().map(|e| e.line.clone()).collect::<Vec<_>>().join("\n")
    );
    let lib = std::fs::read_to_string(root.join("src/lib.rs")).expect("ledger lib.rs is readable");
    assert!(
        lib.lines().any(|l| l.trim() == "#![forbid(unsafe_code)]"),
        "crates/ledger/src/lib.rs does not carry #![forbid(unsafe_code)]"
    );
}

/// The answer engine answers; the trace crate records. An engine that
/// reached into the collector's books once served a second copy of
/// counters its owners already keep, so the server crate must not list
/// the trace crate at all.
#[test]
fn the_answer_engine_does_not_depend_on_the_trace_crate() {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/server/Cargo.toml");
    assert!(
        workspace_manifests().contains(&manifest),
        "server manifest not picked up by the workspace scan"
    );
    let trace_deps: Vec<String> = dependency_sections(&manifest)
        .into_iter()
        .filter(|e| e.line.split_once('=').is_some_and(|(name, _)| name.trim() == "dnswild-telemetry"))
        .map(|e| format!("[{}] line {}: {}", e.section, e.line_no, e.line))
        .collect();
    assert!(trace_deps.is_empty(), "crates/server lists the trace crate:\n{}", trace_deps.join("\n"));
}

#[test]
fn known_banned_crates_are_absent() {
    // The crates this workspace once pulled from the registry, plus
    // `libc` (the obvious shortcut for the mmsg syscall shim). Name
    // checks catch a reintroduction even via a creative spelling of the
    // dependency value.
    const BANNED: [&str; 6] = ["rand", "proptest", "criterion", "crossbeam", "parking_lot", "libc"];
    let mut violations = Vec::new();
    for manifest in workspace_manifests() {
        for entry in dependency_sections(&manifest) {
            let name = entry.line.split('=').next().unwrap_or("").trim();
            if BANNED.contains(&name) {
                violations.push(format!("{}:{} {}", entry.manifest.display(), entry.line_no, name));
            }
        }
    }
    assert!(violations.is_empty(), "banned registry crates found:\n{}", violations.join("\n"));
}

/// Every product crate but the syscall shim is safe code, and says so
/// where the compiler enforces it. (A flat `Name` or a look-back
/// compressor tempts `transmute`, `MaybeUninit` and
/// `from_utf8_unchecked`; none is needed.)
#[test]
fn every_crate_but_the_mmsg_shim_forbids_unsafe_code() {
    let mut checked = 0;
    for manifest in workspace_manifests() {
        let lib = manifest.with_file_name("src").join("lib.rs");
        if !lib.is_file() || lib.components().any(|c| c.as_os_str() == "mmsg") {
            continue;
        }
        let text = std::fs::read_to_string(&lib).expect("lib.rs is readable");
        assert!(
            text.lines().any(|l| l.trim() == "#![forbid(unsafe_code)]"),
            "{} does not carry #![forbid(unsafe_code)]",
            lib.display()
        );
        checked += 1;
    }
    assert!(checked >= 13, "crate scan looks broken: only {checked} lib.rs files checked");
}

/// The workspace has one build configuration: no manifest declares a
/// cargo feature, so no compile-time switch can fork the code into a
/// second configuration that one `cargo test` never builds.
#[test]
fn no_manifest_declares_a_cargo_feature() {
    let declaring: Vec<String> = workspace_manifests()
        .into_iter()
        .filter(|manifest| {
            let text = std::fs::read_to_string(manifest)
                .unwrap_or_else(|e| panic!("read {}: {e}", manifest.display()));
            text.lines().any(|l| l.trim() == "[features]")
        })
        .map(|manifest| manifest.display().to_string())
        .collect();
    assert!(declaring.is_empty(), "[features] tables found in:\n{}", declaring.join("\n"));
}
