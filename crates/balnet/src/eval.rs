//! Quiescent-state evaluation of balancing networks.
//!
//! Two evaluation strategies are provided and must agree (this is one of the
//! central invariants property-tested across the workspace):
//!
//! * [`quiescent_output`] — the closed-form evaluation: each balancer's
//!   output distribution is the canonical step sequence of its total input
//!   count (Section 2.2), propagated through the DAG in topological order.
//! * [`TokenExecutor`] — an explicit token-by-token executor that maintains
//!   per-balancer states and routes individual tokens, in any interleaving.
//!   In a quiescent state the per-wire counts it produces must equal the
//!   closed-form output, because the quiescent output of a balancing
//!   network depends only on the number of tokens entering each input wire.

use crate::balancer::BalancerState;
use crate::seq::balancer_step_output;
use crate::topology::{Network, Port};

/// Computes the quiescent output sequence `y^(t)` of `network` when `x_i`
/// tokens enter on input wire `i`.
///
/// # Panics
///
/// Panics if `input.len() != network.input_width()`.
#[must_use]
pub fn quiescent_output(network: &Network, input: &[u64]) -> Vec<u64> {
    assert_eq!(
        input.len(),
        network.input_width(),
        "input sequence length must equal the network input width"
    );
    let mut balancer_in = vec![0u64; network.num_balancers()];
    let mut output = vec![0u64; network.output_width()];

    let route = |port: &Port, amount: u64, balancer_in: &mut [u64], output: &mut [u64]| match *port
    {
        Port::Balancer { balancer, .. } => balancer_in[balancer] += amount,
        Port::Output(o) => output[o] += amount,
    };

    for (wire, &count) in input.iter().enumerate() {
        route(&network.inputs()[wire], count, &mut balancer_in, &mut output);
    }
    for id in network.topological_order() {
        let node = network.balancer(id);
        let total = balancer_in[id.index()];
        let outs = balancer_step_output(total, node.fan_out);
        for (port, amount) in node.outputs.iter().zip(outs) {
            if amount > 0 {
                route(port, amount, &mut balancer_in, &mut output);
            }
        }
    }
    output
}

/// Assigns Fetch&Increment counter values to the tokens exiting a counting
/// network (Section 1.1): output wire `i` hands out values
/// `i, i + t, i + 2t, ...` where `t` is the output width.
///
/// Given the quiescent output sequence, returns for each output wire the
/// list of counter values its tokens received. If the network is a counting
/// network, the union of all values is exactly `0..m-1` where `m` is the
/// total number of tokens.
#[must_use]
pub fn assign_counter_values(output: &[u64]) -> Vec<Vec<u64>> {
    let t = output.len() as u64;
    output
        .iter()
        .enumerate()
        .map(|(i, &count)| (0..count).map(|k| i as u64 + k * t).collect())
        .collect()
}

/// An explicit token-by-token executor over a network topology.
///
/// The executor maintains the state of every balancer. Tokens are injected
/// on input wires and traverse the network immediately (one balancer at a
/// time, atomically), which models a *sequential* execution; arbitrary
/// interleavings of token injections are supported and all lead to the same
/// quiescent per-wire counts.
#[derive(Debug, Clone)]
pub struct TokenExecutor<'a> {
    network: &'a Network,
    states: Vec<BalancerState>,
    /// Tokens that have exited on each output wire, in exit order.
    exits: Vec<Vec<u64>>,
    /// Number of tokens injected so far (used as token ids).
    injected: u64,
    /// Per-input-wire injection counts.
    input_counts: Vec<u64>,
}

impl<'a> TokenExecutor<'a> {
    /// Creates an executor with every balancer in its initial state.
    #[must_use]
    pub fn new(network: &'a Network) -> Self {
        let states = network.balancers().iter().map(|b| BalancerState::new(b.fan_out)).collect();
        Self {
            network,
            states,
            exits: vec![Vec::new(); network.output_width()],
            injected: 0,
            input_counts: vec![0; network.input_width()],
        }
    }

    /// Injects a single token on `input_wire` and traverses it to an output
    /// wire. Returns `(output_wire, token_id)`.
    ///
    /// # Panics
    ///
    /// Panics if `input_wire` is out of range.
    pub fn inject(&mut self, input_wire: usize) -> (usize, u64) {
        assert!(input_wire < self.network.input_width(), "input wire {input_wire} out of range");
        let token = self.injected;
        self.injected += 1;
        self.input_counts[input_wire] += 1;
        let mut port = self.network.inputs()[input_wire];
        loop {
            match port {
                Port::Balancer { balancer, .. } => {
                    let out_port = self.states[balancer].traverse();
                    port = self.network.balancers()[balancer].outputs[out_port];
                }
                Port::Output(o) => {
                    self.exits[o].push(token);
                    return (o, token);
                }
            }
        }
    }

    /// Injects `count` tokens on every input wire according to `input`,
    /// round-robin across wires (wire order `0, 1, ..., w-1, 0, 1, ...`),
    /// which mimics tokens from processes `p_l` entering on wire
    /// `l mod w`.
    pub fn inject_sequence(&mut self, input: &[u64]) {
        assert_eq!(input.len(), self.network.input_width());
        let mut remaining: Vec<u64> = input.to_vec();
        let mut any = true;
        while any {
            any = false;
            for (wire, rem) in remaining.iter_mut().enumerate() {
                if *rem > 0 {
                    *rem -= 1;
                    any = true;
                    self.inject(wire);
                }
            }
        }
    }

    /// The number of tokens that have exited on each output wire so far.
    #[must_use]
    pub fn output_counts(&self) -> Vec<u64> {
        self.exits.iter().map(|v| v.len() as u64).collect()
    }

    /// The tokens (by id, in exit order) that exited on each output wire.
    #[must_use]
    pub fn exits(&self) -> &[Vec<u64>] {
        &self.exits
    }

    /// The number of tokens injected on each input wire so far.
    #[must_use]
    pub fn input_counts(&self) -> &[u64] {
        &self.input_counts
    }

    /// The current state (next-output index) of every balancer.
    #[must_use]
    pub fn balancer_states(&self) -> &[BalancerState] {
        &self.states
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetworkBuilder;
    use crate::seq::{is_step, sum};

    /// The (4,6)-balancer of Fig. 1 (left), as a one-balancer network.
    fn fig1_balancer() -> Network {
        let mut b = NetworkBuilder::new(4, 6);
        let bal = b.add_balancer(4, 6);
        for i in 0..4 {
            b.connect_input(i, bal, i);
        }
        for o in 0..6 {
            b.connect_to_output(bal, o, o);
        }
        b.build().expect("valid")
    }

    #[test]
    fn fig1_left_distribution() {
        // 2, 3, 1, 1 tokens on the four inputs => 2,1,1,1,1,1 on the outputs.
        let net = fig1_balancer();
        let out = quiescent_output(&net, &[2, 3, 1, 1]);
        assert_eq!(out, vec![2, 1, 1, 1, 1, 1]);
        assert!(is_step(&out));
        assert_eq!(sum(&out), 7);
    }

    #[test]
    fn token_executor_agrees_with_closed_form() {
        let net = fig1_balancer();
        let input = [2u64, 3, 1, 1];
        let mut exec = TokenExecutor::new(&net);
        exec.inject_sequence(&input);
        assert_eq!(exec.output_counts(), quiescent_output(&net, &input));
        assert_eq!(exec.input_counts(), &input);
    }

    #[test]
    fn counter_values_partition_the_range() {
        // Fig. 1 (left): the (4,6)-balancer's exiting tokens get values
        // 0..6 via v_i = i, i+6, ...
        let out = vec![2u64, 1, 1, 1, 1, 1];
        let values = assign_counter_values(&out);
        assert_eq!(values[0], vec![0, 6]);
        assert_eq!(values[1], vec![1]);
        let mut all: Vec<u64> = values.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..7).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input_produces_empty_output() {
        let net = fig1_balancer();
        assert_eq!(quiescent_output(&net, &[0, 0, 0, 0]), vec![0; 6]);
    }

    #[test]
    #[should_panic(expected = "input sequence length")]
    fn wrong_input_length_panics() {
        let net = fig1_balancer();
        let _ = quiescent_output(&net, &[1, 2]);
    }
}
