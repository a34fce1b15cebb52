//! The standard comparison suite: the networks the paper evaluates
//! against each other.

use balnet::Network;
use baselines::{bitonic_counting_network, diffracting_tree, periodic_counting_network};
use counting::counting_network;
use counting_service::ServiceConfig;

/// A network together with the name used in result tables.
#[derive(Debug, Clone)]
pub struct NamedNetwork {
    /// Display name, e.g. `"C(16,64)"`.
    pub name: String,
    /// The topology.
    pub network: Network,
}

impl NamedNetwork {
    fn new(name: String, network: Network) -> Self {
        Self { name, network }
    }
}

/// Builds the comparison suite for input width `w`:
/// `C(w, w)`, `C(w, w·lgw)`, `Bitonic[w]`, `Periodic[w]` and
/// `DiffTree[w]`.
///
/// # Panics
///
/// Panics if `w` is not a power of two `>= 2`.
#[must_use]
pub fn comparison_suite(w: usize) -> Vec<NamedNetwork> {
    assert!(w >= 2 && w.is_power_of_two(), "w must be a power of two >= 2");
    let lgw = (w.trailing_zeros() as usize).max(1);
    vec![
        NamedNetwork::new(format!("C({w},{w})"), counting_network(w, w).expect("valid")),
        NamedNetwork::new(
            format!("C({w},{})", w * lgw),
            counting_network(w, w * lgw).expect("valid"),
        ),
        NamedNetwork::new(format!("Bitonic[{w}]"), bitonic_counting_network(w).expect("valid")),
        NamedNetwork::new(format!("Periodic[{w}]"), periodic_counting_network(w).expect("valid")),
        NamedNetwork::new(format!("DiffTree[{w}]"), diffracting_tree(w).expect("valid")),
    ]
}

/// The `(w, t)` sweep of the service experiments (E15, E17) at a fixed
/// `t = 16`: tenants inflating to the elimination arena over `C(2,16)`,
/// `C(4,16)` and `C(16,16)` — the paper's "depth depends on `w` only",
/// as rows on the product path.
#[must_use]
pub fn service_width_sweep() -> Vec<ServiceConfig> {
    [2, 4, 16].map(|width| ServiceConfig { width, ..ServiceConfig::default() }).into()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_contains_the_five_comparison_networks() {
        let suite = comparison_suite(8);
        assert_eq!(suite.len(), 5);
        assert_eq!(suite[0].name, "C(8,8)");
        assert_eq!(suite[1].name, "C(8,24)");
        assert!(suite.iter().all(|n| n.network.output_width() >= 8));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_bad_width() {
        let _ = comparison_suite(6);
    }
}
