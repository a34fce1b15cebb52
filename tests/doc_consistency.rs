//! The inflated tenant's construction is named in prose in two places;
//! this keeps the prose from drifting when the construction changes.

use counting_networks::runtime::{CentralCounter, EliminationCounter, SharedCounter};

#[test]
fn readme_and_architecture_name_the_default_topology() {
    // What `TenantCounter::describe` reports for an inflated tenant.
    let inflated = EliminationCounter::new(CentralCounter::new()).describe();
    for doc in ["README.md", "ARCHITECTURE.md"] {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(doc);
        let text = std::fs::read_to_string(&path).expect("the document is in the repository root");
        assert!(
            text.contains(&inflated),
            "{doc} never mentions `{inflated}`, what an inflated tenant now describes itself as"
        );
    }
}
