//! The manifest graph is std-only: every package cargo resolves into the
//! lockfile is one of this workspace's own `meshfree-*` crates. Adding an
//! external crate is a design change (DESIGN.md §3), and this test makes it
//! a visible one.

#[test]
fn lockfile_lists_only_meshfree_packages() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.lock");
    let lock = std::fs::read_to_string(path).expect("Cargo.lock sits at the workspace root");
    let mut names = Vec::new();
    let mut lines = lock.lines();
    while let Some(line) = lines.next() {
        if line.trim() == "[[package]]" {
            let name = lines
                .next()
                .and_then(|l| l.strip_prefix("name = \""))
                .and_then(|l| l.strip_suffix('"'))
                .expect("every [[package]] entry starts with its name");
            names.push(name);
        }
    }
    assert!(
        names.contains(&"meshfree-oc"),
        "no packages parsed from {path}"
    );
    let foreign: Vec<&str> = names
        .into_iter()
        .filter(|n| !n.starts_with("meshfree-"))
        .collect();
    assert!(
        foreign.is_empty(),
        "Cargo.lock lists packages outside the workspace: {foreign:?}"
    );
}
