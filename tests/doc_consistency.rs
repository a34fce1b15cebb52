//! The inflated tenant's construction and the crossover `n*` are stated
//! in prose in two places; this keeps the prose from drifting when the
//! code changes.

use counting_networks::runtime::{CentralCounter, EliminationCounter, SharedCounter};
use counting_networks::service::INFLATE_CONTENDERS;

const DOCS: [&str; 2] = ["README.md", "ARCHITECTURE.md"];

fn read(doc: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(doc);
    std::fs::read_to_string(&path).expect("the document is in the repository root")
}

#[test]
fn readme_and_architecture_name_the_default_topology() {
    // What `TenantCounter::describe` reports for an inflated tenant.
    let inflated = EliminationCounter::new(CentralCounter::new()).describe();
    for doc in DOCS {
        assert!(
            read(doc).contains(&inflated),
            "{doc} never mentions `{inflated}`, what an inflated tenant now describes itself as"
        );
    }
}

#[test]
fn readme_and_architecture_state_the_crossover_the_registry_uses() {
    for doc in DOCS {
        let text = read(doc);
        let stated: Vec<&str> = text
            .match_indices("n* = ")
            .map(|(at, _)| {
                let digits = &text[at + 5..];
                &digits[..digits.find(|c: char| !c.is_ascii_digit()).unwrap_or(digits.len())]
            })
            .filter(|digits| !digits.is_empty())
            .collect();
        assert!(!stated.is_empty(), "{doc} never states `n* = {INFLATE_CONTENDERS}`");
        for n in stated {
            assert_eq!(n, INFLATE_CONTENDERS.to_string(), "{doc} states n* = {n}");
        }
    }
}
