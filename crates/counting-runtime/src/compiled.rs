//! Compilation of a network topology into a lock-free shared data
//! structure.
//!
//! A [`balnet::Network`] is a validated DAG description. For concurrent
//! execution we flatten it: each balancer becomes one cache-padded atomic
//! word holding the number of tokens it has processed (its state is that
//! count modulo its fan-out), and each wire becomes a pre-resolved route
//! to either another balancer or an output wire. A token traversal is then
//! a short loop of `fetch_add` operations with no locks and no allocation.
//!
//! ## Flat route layout
//!
//! [`CompiledNetwork`] stores **all** balancer output routes in one
//! contiguous route table. Each balancer owns a single packed `u64` word
//! carrying its slice offset into that table, its fan-out, and a
//! power-of-two flag; a traversal step is then `meta word → fetch_add →
//! mask-or-modulo → route table index`, touching two flat arrays instead
//! of chasing a per-balancer allocation. It is the only compiled form;
//! its oracle is the sequential reference walker
//! [`balnet::TokenExecutor`], checked token for token on every
//! comparison-suite family in
//! `crates/bench/tests/flat_route_equivalence.rs`.

use std::sync::atomic::{AtomicU64, Ordering};

use balnet::{Network, Port};
use crossbeam::utils::CachePadded;

/// Routes pack a wire target into one `u32`: the low 31 bits hold a
/// balancer or output-wire index, the top bit marks an output wire.
const OUTPUT_BIT: u32 = 1 << 31;

/// Converts a topology index into the 31-bit route encoding, panicking
/// with a clear message instead of silently truncating (`as u32` would
/// wrap on a pathological topology and compile a wrong network).
fn route_index(index: usize, what: &str) -> u32 {
    match u32::try_from(index) {
        Ok(v) if v < OUTPUT_BIT => v,
        _ => panic!(
            "{what} {index} exceeds the compiled route limit of {} (indices must fit in 31 bits)",
            OUTPUT_BIT - 1
        ),
    }
}

/// Where a wire leads in the compiled form (packed, see [`OUTPUT_BIT`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Route(u32);

impl Route {
    fn balancer(index: usize) -> Self {
        Self(route_index(index, "balancer index"))
    }

    fn output(index: usize) -> Self {
        Self(route_index(index, "output wire index") | OUTPUT_BIT)
    }

    /// `Some(balancer index)` if the route feeds a balancer.
    #[inline]
    fn balancer_index(self) -> Option<usize> {
        (self.0 & OUTPUT_BIT == 0).then_some(self.0 as usize)
    }

    /// `Some(output wire index)` if the route exits the network.
    #[inline]
    fn output_wire(self) -> Option<usize> {
        (self.0 & OUTPUT_BIT != 0).then_some((self.0 & !OUTPUT_BIT) as usize)
    }
}

fn compile_port(port: Port) -> Route {
    match port {
        Port::Balancer { balancer, .. } => Route::balancer(balancer),
        Port::Output(o) => Route::output(o),
    }
}

// Packed per-balancer metadata word: `offset << 32 | pow2 << 31 | fan_out`.
// The offset points into the shared route table; the pow2 flag selects the
// bitmask fast path over `%` in `traverse`.
const META_OFFSET_SHIFT: u32 = 32;
const META_POW2_FLAG: u64 = 1 << 31;
const META_FAN_OUT_MASK: u64 = META_POW2_FLAG - 1;

fn pack_meta(offset: usize, fan_out: usize) -> u64 {
    let offset = route_index(offset, "route-table offset");
    let fan_out_bits = route_index(fan_out, "balancer fan-out");
    let pow2 = if fan_out.is_power_of_two() { META_POW2_FLAG } else { 0 };
    (u64::from(offset) << META_OFFSET_SHIFT) | pow2 | u64::from(fan_out_bits)
}

/// A lock-free compiled balancing network, shareable across threads.
///
/// The compiled network only captures topology and balancer state; value
/// dispensing (Fetch&Increment) is layered on top by
/// [`crate::NetworkCounter`]. All balancer output routes live in one
/// contiguous table (see the module docs); per-balancer state is one
/// cache-padded atomic so concurrent tokens on different balancers never
/// share a line.
#[derive(Debug)]
pub struct CompiledNetwork {
    input_width: usize,
    output_width: usize,
    inputs: Box<[Route]>,
    /// All balancer output routes, contiguous: balancer `i`'s routes are
    /// `routes[offset_i .. offset_i + fan_out_i]` as packed in `meta[i]`.
    routes: Box<[Route]>,
    /// One packed word per balancer (`pack_meta`), read once per step.
    meta: Box<[u64]>,
    /// Tokens processed per balancer; state is `processed % fan_out`.
    processed: Box<[CachePadded<AtomicU64>]>,
}

impl CompiledNetwork {
    /// Compiles a validated topology.
    ///
    /// # Panics
    ///
    /// Panics if any balancer, output-wire, or route-table index does not
    /// fit in the 31-bit route encoding (never the case for realistic
    /// topologies; checked rather than truncated).
    #[must_use]
    pub fn new(network: &Network) -> Self {
        let balancers = network.balancers();
        let mut routes = Vec::new();
        let mut meta = Vec::with_capacity(balancers.len());
        for b in balancers {
            meta.push(pack_meta(routes.len(), b.fan_out));
            routes.extend(b.outputs.iter().map(|&p| compile_port(p)));
        }
        Self {
            input_width: network.input_width(),
            output_width: network.output_width(),
            inputs: network.inputs().iter().map(|&p| compile_port(p)).collect(),
            routes: routes.into_boxed_slice(),
            meta: meta.into_boxed_slice(),
            processed: (0..balancers.len()).map(|_| CachePadded::new(AtomicU64::new(0))).collect(),
        }
    }

    /// The network's input width.
    #[must_use]
    pub fn input_width(&self) -> usize {
        self.input_width
    }

    /// The network's output width.
    #[must_use]
    pub fn output_width(&self) -> usize {
        self.output_width
    }

    /// Shepherds one token from `input_wire` to an output wire and returns
    /// the output wire index. Lock-free: one `fetch_add` per traversed
    /// balancer, plus one packed-word and one route-table read — no
    /// per-balancer pointer chase. Power-of-two fan-outs take a bitmask
    /// instead of `%`.
    ///
    /// # Panics
    ///
    /// Panics if `input_wire >= input_width()`.
    #[must_use]
    pub fn traverse(&self, input_wire: usize) -> usize {
        assert!(input_wire < self.input_width, "input wire {input_wire} out of range");
        let mut route = self.inputs[input_wire];
        loop {
            match route.balancer_index() {
                Some(idx) => {
                    let meta = self.meta[idx];
                    // Relaxed suffices: correctness relies only on the
                    // atomicity (per-location total order) of the RMW.
                    let ticket = self.processed[idx].fetch_add(1, Ordering::Relaxed);
                    let fan_out = meta & META_FAN_OUT_MASK;
                    let out = if meta & META_POW2_FLAG != 0 {
                        ticket & (fan_out - 1)
                    } else {
                        ticket % fan_out
                    };
                    route = self.routes[(meta >> META_OFFSET_SHIFT) as usize + out as usize];
                }
                None => return route.output_wire().expect("non-balancer route is an output"),
            }
        }
    }

    /// The number of tokens each balancer has processed so far (a snapshot;
    /// exact only in a quiescent state).
    #[must_use]
    pub fn balancer_loads(&self) -> Vec<u64> {
        // Relaxed: reporting-only snapshot, exact at quiescence.
        self.processed.iter().map(|p| p.load(Ordering::Relaxed)).collect()
    }

    /// The number of tokens that have exited on each output wire so far,
    /// reconstructed from the balancer states feeding the outputs. Exact
    /// only in a quiescent state (no token mid-traversal); intended for
    /// post-run verification in tests and benches.
    #[must_use]
    pub fn quiescent_output_counts(&self) -> Vec<u64> {
        let mut out = vec![0u64; self.output_width];
        // Each balancer records its own total, so we can directly add its
        // per-output step distribution.
        for (idx, &meta) in self.meta.iter().enumerate() {
            // Relaxed: reporting-only snapshot, exact at quiescence.
            let total = self.processed[idx].load(Ordering::Relaxed);
            let fan_out = (meta & META_FAN_OUT_MASK) as usize;
            let offset = (meta >> META_OFFSET_SHIFT) as usize;
            for (i, route) in self.routes[offset..offset + fan_out].iter().enumerate() {
                if let Some(o) = route.output_wire() {
                    out[o] += balnet::seq::step_value(total, i, fan_out);
                }
            }
        }
        // Plus tokens that went straight from an input wire to an output
        // wire (no balancer): those are not tracked here — compiled
        // networks with balancer-free paths should be verified via
        // `NetworkCounter` value sets instead.
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use balnet::quiescent_output;
    use counting::counting_network;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn sequential_traversal_matches_quiescent_evaluation() {
        let net = counting_network(8, 16).expect("valid");
        let compiled = CompiledNetwork::new(&net);
        let input = [5u64, 3, 0, 7, 2, 2, 9, 1];
        let mut counts = vec![0u64; 16];
        for (wire, &tokens) in input.iter().enumerate() {
            for _ in 0..tokens {
                counts[compiled.traverse(wire)] += 1;
            }
        }
        assert_eq!(counts, quiescent_output(&net, &input));
        assert_eq!(compiled.quiescent_output_counts(), counts);
    }

    #[test]
    fn concurrent_traversal_preserves_token_count_and_step_property() {
        let w = 8;
        let net = counting_network(w, 2 * w).expect("valid");
        let compiled = CompiledNetwork::new(&net);
        let threads = 8;
        let per_thread = 2_000u64;
        let exit_counts: Vec<AtomicUsize> =
            (0..compiled.output_width()).map(|_| AtomicUsize::new(0)).collect();
        std::thread::scope(|scope| {
            for tid in 0..threads {
                let compiled = &compiled;
                let exit_counts = &exit_counts;
                scope.spawn(move || {
                    for _ in 0..per_thread {
                        let o = compiled.traverse(tid % w);
                        exit_counts[o].fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        let counts: Vec<u64> =
            exit_counts.iter().map(|c| c.load(Ordering::Relaxed) as u64).collect();
        let total: u64 = counts.iter().sum();
        assert_eq!(total, threads as u64 * per_thread);
        // In the quiescent state after all threads joined, the output must
        // satisfy the step property (Theorem 4.2 under real concurrency).
        assert!(balnet::is_step(&counts), "concurrent output not step: {counts:?}");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn traverse_checks_bounds() {
        let net = counting_network(4, 4).expect("valid");
        let compiled = CompiledNetwork::new(&net);
        let _ = compiled.traverse(4);
    }

    #[test]
    #[should_panic(expected = "balancer index 2147483648 exceeds the compiled route limit")]
    fn oversized_balancer_index_rejected_not_truncated() {
        let _ = Route::balancer(1 << 31);
    }

    #[test]
    #[should_panic(expected = "output wire index 4294967296 exceeds the compiled route limit")]
    fn oversized_output_index_rejected_not_truncated() {
        // Above u32::MAX entirely: the old `as u32` silently wrapped this
        // to 0; the checked conversion refuses.
        let _ = Route::output(1 << 32);
    }

    #[test]
    fn meta_packing_round_trips_and_flags_powers_of_two() {
        for (offset, fan_out) in [(0usize, 2usize), (7, 3), (1024, 16), (5, 6), (99, 1)] {
            let meta = pack_meta(offset, fan_out);
            assert_eq!((meta >> META_OFFSET_SHIFT) as usize, offset);
            assert_eq!((meta & META_FAN_OUT_MASK) as usize, fan_out);
            assert_eq!(meta & META_POW2_FLAG != 0, fan_out.is_power_of_two());
            // The mask fast path must agree with `%` whenever the flag is
            // set.
            if fan_out.is_power_of_two() {
                for ticket in [0u64, 1, 2, 13, 1 << 40, u64::MAX] {
                    assert_eq!(ticket & (fan_out as u64 - 1), ticket % fan_out as u64);
                }
            }
        }
    }
}
