//! Balancing-network topologies.
//!
//! A balancing network is an acyclic network of balancers in which every
//! output wire of a balancer is either linked to an input wire of another
//! balancer or is one of the network's output wires (Section 1.1). We
//! represent the topology explicitly as a DAG: each balancer records, for
//! each of its output ports, where the wire leads.

use crate::error::BuildError;

/// An opaque identifier of a balancer inside a [`Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BalancerId(pub usize);

impl BalancerId {
    /// The underlying index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

/// The destination of a wire: either an input port of another balancer, or
/// one of the network's output wires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Port {
    /// The wire feeds input port `port` of balancer `balancer`.
    Balancer {
        /// Index of the downstream balancer.
        balancer: usize,
        /// Input port within the downstream balancer.
        port: usize,
    },
    /// The wire is network output wire with this index.
    Output(usize),
}

/// A single balancer inside a network: its fan-in, fan-out, and where each
/// of its output wires leads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BalancerNode {
    /// Input width `p` of the balancer.
    pub fan_in: usize,
    /// Output width `q` of the balancer.
    pub fan_out: usize,
    /// Destination of each output wire; `outputs.len() == fan_out`.
    pub outputs: Vec<Port>,
}

impl BalancerNode {
    /// Returns `true` if this is a regular balancer (`p == q`).
    #[must_use]
    pub fn is_regular(&self) -> bool {
        self.fan_in == self.fan_out
    }
}

/// An immutable, validated balancing-network topology.
///
/// Construct one with [`crate::NetworkBuilder`]. The network knows its input
/// and output widths, the routing of every wire, and the depth of every
/// balancer (computed at build time).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Network {
    pub(crate) input_width: usize,
    pub(crate) output_width: usize,
    /// Destination of each network input wire; `inputs.len() == input_width`.
    pub(crate) inputs: Vec<Port>,
    pub(crate) balancers: Vec<BalancerNode>,
    /// 1-based depth of each balancer (maximum number of balancers on any
    /// path from a network input up to and including this balancer).
    pub(crate) depths: Vec<usize>,
    pub(crate) depth: usize,
}

impl Network {
    /// The network's input width `w` (number of input wires).
    #[must_use]
    pub fn input_width(&self) -> usize {
        self.input_width
    }

    /// The network's output width `t` (number of output wires).
    #[must_use]
    pub fn output_width(&self) -> usize {
        self.output_width
    }

    /// The destination of each network input wire.
    #[must_use]
    pub fn inputs(&self) -> &[Port] {
        &self.inputs
    }

    /// All balancers in the network, indexed by [`BalancerId`].
    #[must_use]
    pub fn balancers(&self) -> &[BalancerNode] {
        &self.balancers
    }

    /// The balancer with the given id.
    #[must_use]
    pub fn balancer(&self, id: BalancerId) -> &BalancerNode {
        &self.balancers[id.0]
    }

    /// The number of balancers in the network.
    #[must_use]
    pub fn num_balancers(&self) -> usize {
        self.balancers.len()
    }

    /// The depth of the network: the maximum number of balancers any token
    /// traverses from an input wire to an output wire. A network with no
    /// balancers (pure wires) has depth 0.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// The 1-based depth of a specific balancer.
    #[must_use]
    pub fn balancer_depth(&self, id: BalancerId) -> usize {
        self.depths[id.0]
    }

    /// Decomposes the network into layers `ℓ_1, ..., ℓ_d`, where layer `i`
    /// contains the ids of all balancers of depth `i` (Section 2.2).
    #[must_use]
    pub fn layers(&self) -> Vec<Vec<BalancerId>> {
        let mut layers = vec![Vec::new(); self.depth];
        for (idx, &d) in self.depths.iter().enumerate() {
            layers[d - 1].push(BalancerId(idx));
        }
        layers
    }

    /// Returns `true` if every balancer in the network is regular
    /// (`p == q`). Regular networks have `input_width == output_width`.
    #[must_use]
    pub fn is_regular(&self) -> bool {
        self.balancers.iter().all(BalancerNode::is_regular)
    }

    /// Returns the ids of balancers in topological order (by depth, then by
    /// id). Evaluators rely on the fact that a balancer's inputs are fully
    /// determined by balancers of strictly smaller depth and by network
    /// inputs.
    #[must_use]
    pub fn topological_order(&self) -> Vec<BalancerId> {
        let mut order: Vec<BalancerId> = (0..self.balancers.len()).map(BalancerId).collect();
        order.sort_by_key(|id| (self.depths[id.0], id.0));
        order
    }

    /// Counts balancers grouped by `(fan_in, fan_out)` shape, sorted by
    /// shape. Useful for structural assertions about constructions (e.g.
    /// `C(w, t)` uses only `(2,2)`- and `(2,2p)`-balancers).
    #[must_use]
    pub fn balancer_census(&self) -> Vec<((usize, usize), usize)> {
        let mut census: std::collections::BTreeMap<(usize, usize), usize> =
            std::collections::BTreeMap::new();
        for b in &self.balancers {
            *census.entry((b.fan_in, b.fan_out)).or_insert(0) += 1;
        }
        census.into_iter().collect()
    }

    /// Cascades `self` with `other`: the output wires of `self` are
    /// connected one-to-one (wire `i` to wire `i`) to the input wires of
    /// `other`. Requires `self.output_width() == other.input_width()`.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::WidthMismatch`] if the widths do not agree.
    pub fn cascade(&self, other: &Network) -> Result<Network, BuildError> {
        if self.output_width != other.input_width {
            return Err(BuildError::WidthMismatch {
                upstream_outputs: self.output_width,
                downstream_inputs: other.input_width,
            });
        }
        let offset = self.balancers.len();
        // Re-target a port of `other` into the combined id space.
        let shift = |p: &Port| -> Port {
            match *p {
                Port::Balancer { balancer, port } => {
                    Port::Balancer { balancer: balancer + offset, port }
                }
                Port::Output(o) => Port::Output(o),
            }
        };
        // Re-target a port of `self`: outputs of `self` become the
        // destinations that `other` assigns to the corresponding input wire.
        let splice = |p: &Port| -> Port {
            match *p {
                Port::Balancer { balancer, port } => Port::Balancer { balancer, port },
                Port::Output(o) => shift(&other.inputs[o]),
            }
        };

        let mut balancers = Vec::with_capacity(self.balancers.len() + other.balancers.len());
        for b in &self.balancers {
            balancers.push(BalancerNode {
                fan_in: b.fan_in,
                fan_out: b.fan_out,
                outputs: b.outputs.iter().map(splice).collect(),
            });
        }
        for b in &other.balancers {
            balancers.push(BalancerNode {
                fan_in: b.fan_in,
                fan_out: b.fan_out,
                outputs: b.outputs.iter().map(shift).collect(),
            });
        }
        let inputs: Vec<Port> = self.inputs.iter().map(splice).collect();

        let (depths, depth) = compute_depths(self.input_width, &inputs, &balancers)
            .expect("cascade of two acyclic networks is acyclic");
        Ok(Network {
            input_width: self.input_width,
            output_width: other.output_width,
            inputs,
            balancers,
            depths,
            depth,
        })
    }
}

/// Computes the 1-based depth of every balancer and the overall network
/// depth, or `Err(())` if the wiring is cyclic.
pub(crate) fn compute_depths(
    _input_width: usize,
    inputs: &[Port],
    balancers: &[BalancerNode],
) -> Result<(Vec<usize>, usize), ()> {
    let n = balancers.len();
    // indegree in terms of *wires* feeding each balancer from other balancers.
    let mut pending_preds = vec![0usize; n];
    for b in balancers {
        for out in &b.outputs {
            if let Port::Balancer { balancer, .. } = *out {
                pending_preds[balancer] += 1;
            }
        }
    }
    let mut depths = vec![0usize; n];
    // Balancers fed exclusively by network inputs start at depth 1; we seed
    // every balancer's depth at 1 and raise it as predecessors finalize.
    for d in depths.iter_mut() {
        *d = 1;
    }
    // Kahn's algorithm over balancer-to-balancer wires.
    let mut queue: Vec<usize> = (0..n).filter(|&i| pending_preds[i] == 0).collect();
    // Network inputs do not affect depth beyond the seed of 1.
    let _ = inputs;
    let mut visited = 0usize;
    let mut head = 0usize;
    while head < queue.len() {
        let b = queue[head];
        head += 1;
        visited += 1;
        for out in &balancers[b].outputs {
            if let Port::Balancer { balancer, .. } = *out {
                if depths[balancer] < depths[b] + 1 {
                    depths[balancer] = depths[b] + 1;
                }
                pending_preds[balancer] -= 1;
                if pending_preds[balancer] == 0 {
                    queue.push(balancer);
                }
            }
        }
    }
    if visited != n {
        return Err(());
    }
    let depth = depths.iter().copied().max().unwrap_or(0);
    Ok((depths, depth))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetworkBuilder;

    /// A single (2,2)-balancer network.
    fn single_balancer() -> Network {
        let mut b = NetworkBuilder::new(2, 2);
        let bal = b.add_balancer(2, 2);
        b.connect_input(0, bal, 0);
        b.connect_input(1, bal, 1);
        b.connect_to_output(bal, 0, 0);
        b.connect_to_output(bal, 1, 1);
        b.build().expect("valid")
    }

    #[test]
    fn single_balancer_shape() {
        let net = single_balancer();
        assert_eq!(net.input_width(), 2);
        assert_eq!(net.output_width(), 2);
        assert_eq!(net.depth(), 1);
        assert_eq!(net.num_balancers(), 1);
        assert!(net.is_regular());
        assert_eq!(net.balancer_census(), vec![((2, 2), 1)]);
        assert_eq!(net.layers(), vec![vec![BalancerId(0)]]);
    }

    #[test]
    fn cascade_of_two_single_balancers() {
        let a = single_balancer();
        let b = single_balancer();
        let c = a.cascade(&b).expect("widths match");
        assert_eq!(c.input_width(), 2);
        assert_eq!(c.output_width(), 2);
        assert_eq!(c.depth(), 2);
        assert_eq!(c.num_balancers(), 2);
        assert_eq!(c.layers().len(), 2);
    }

    #[test]
    fn cascade_rejects_width_mismatch() {
        let a = single_balancer();
        let mut builder = NetworkBuilder::new(1, 2);
        let bal = builder.add_balancer(1, 2);
        builder.connect_input(0, bal, 0);
        builder.connect_to_output(bal, 0, 0);
        builder.connect_to_output(bal, 1, 1);
        let tree = builder.build().expect("valid");
        assert!(matches!(tree.cascade(&a).map(|_| ()), Ok(())));
        assert!(matches!(
            a.cascade(&tree),
            Err(BuildError::WidthMismatch { upstream_outputs: 2, downstream_inputs: 1 })
        ));
    }

    #[test]
    fn topological_order_respects_depth() {
        let a = single_balancer();
        let b = single_balancer();
        let c = a.cascade(&b).expect("widths match");
        let order = c.topological_order();
        let depths: Vec<usize> = order.iter().map(|&id| c.balancer_depth(id)).collect();
        let mut sorted = depths.clone();
        sorted.sort_unstable();
        assert_eq!(depths, sorted);
    }
}
