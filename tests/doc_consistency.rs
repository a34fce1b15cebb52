//! The default topology is named in prose in two places; this keeps the
//! prose from drifting when the default changes.

use counting_networks::service::ServiceConfig;

#[test]
fn readme_and_architecture_name_the_default_topology() {
    let label = ServiceConfig::default().label();
    for doc in ["README.md", "ARCHITECTURE.md"] {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(doc);
        let text = std::fs::read_to_string(&path).expect("the document is in the repository root");
        assert!(
            text.contains(&label),
            "{doc} never mentions `{label}`, what `ServiceConfig::default().label()` now says"
        );
    }
}
