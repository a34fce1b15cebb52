//! Ablation constructions: what happens when the two key design choices of
//! `C(w, t)` are removed.
//!
//! Section 3.3 and Section 4 attribute the network's properties to two
//! decisions:
//!
//! 1. **Merging with `M(t, δ)`** whose depth is `lg δ` rather than the
//!    bitonic merger whose depth is `lg t`. [`counting_network_bitonic_merger`]
//!    builds the same recursive counting network but merges with a
//!    bitonic-style merger; it still counts, but its depth grows with the
//!    output width `t` (`Θ(lg² t)` when `t ≫ w`), destroying the paper's
//!    headline property that depth depends only on `w`.
//! 2. **The ladder `L(w)` in front of the recursive halves**, which bounds
//!    the difference of the halves' token counts by `w/2` — exactly the
//!    contract `M(t, w/2)` requires. [`counting_network_no_ladder`] omits
//!    the ladder; the result is *not* a counting network, and the unit
//!    tests of this module exhibit concrete counterexamples.
//!
//! These constructions exist for the ablation experiment (the root test
//! `ablation_a_each_stage_is_needed`) and for tests; production users
//! should use [`crate::counting_network`].

use balnet::{BuildError, Network, NetworkBuilder};

use crate::ladder::ladder_into;
use crate::merger::merger_into;
use crate::params::validate_counting_params;
use crate::wiring::{evens, feed_balancer, feed_outputs, input_sources, odds, Src};

/// Adds a bitonic-style merger over two step sequences `x` and `y` of equal
/// length, returning the `2·|x|` output sources. Unlike `M(t, δ)`, its
/// depth is `lg(2·|x|)` — it does not exploit any bound on the difference
/// of the input sums.
fn bitonic_merger_into(b: &mut NetworkBuilder, x: &[Src], y: &[Src]) -> Vec<Src> {
    assert_eq!(x.len(), y.len());
    let k = x.len();
    if k == 1 {
        let bal = b.add_balancer(2, 2);
        feed_balancer(b, x[0], bal, 0);
        feed_balancer(b, y[0], bal, 1);
        return vec![Src::Bal(bal, 0), Src::Bal(bal, 1)];
    }
    let a = bitonic_merger_into(b, &evens(x), &odds(y));
    let c = bitonic_merger_into(b, &odds(x), &evens(y));
    let mut out = Vec::with_capacity(2 * k);
    for i in 0..k {
        let bal = b.add_balancer(2, 2);
        feed_balancer(b, a[i], bal, 0);
        feed_balancer(b, c[i], bal, 1);
        out.push(Src::Bal(bal, 0));
        out.push(Src::Bal(bal, 1));
    }
    out
}

fn counting_bitonic_into(b: &mut NetworkBuilder, x: &[Src], t: usize) -> Vec<Src> {
    let w = x.len();
    if w == 2 {
        let bal = b.add_balancer(2, t);
        feed_balancer(b, x[0], bal, 0);
        feed_balancer(b, x[1], bal, 1);
        return (0..t).map(|o| Src::Bal(bal, o)).collect();
    }
    let lad = ladder_into(b, x);
    let (e, f) = lad.split_at(w / 2);
    let g = counting_bitonic_into(b, e, t / 2);
    let h = counting_bitonic_into(b, f, t / 2);
    bitonic_merger_into(b, &g, &h)
}

fn counting_no_ladder_into(b: &mut NetworkBuilder, x: &[Src], t: usize) -> Vec<Src> {
    let w = x.len();
    if w == 2 {
        let bal = b.add_balancer(2, t);
        feed_balancer(b, x[0], bal, 0);
        feed_balancer(b, x[1], bal, 1);
        return (0..t).map(|o| Src::Bal(bal, o)).collect();
    }
    // Ablation: skip the ladder, split the raw input wires.
    let (e, f) = x.split_at(w / 2);
    let g = counting_no_ladder_into(b, e, t / 2);
    let h = counting_no_ladder_into(b, f, t / 2);
    merger_into(b, &g, &h, w / 2)
}

/// The ablation variant of `C(w, t)` that merges with a bitonic merger of
/// width `t` instead of `M(t, w/2)`. Still a counting network, but its
/// depth grows with `t` (see [`bitonic_variant_depth`]).
///
/// # Errors
///
/// Same parameter requirements as [`crate::counting_network`].
pub fn counting_network_bitonic_merger(w: usize, t: usize) -> Result<Network, BuildError> {
    validate_counting_params(w, t)?;
    let mut b = NetworkBuilder::new(w, t);
    let srcs = input_sources(w);
    let out = counting_bitonic_into(&mut b, &srcs, t);
    feed_outputs(&mut b, &out);
    Ok(b.build_expect("bitonic-merger ablation of C(w, t)"))
}

/// The ablation variant of `C(w, t)` without the ladder layer in front of
/// the recursive halves. **Not a counting network** — provided to
/// demonstrate that the ladder's `δ ≤ w/2` guarantee is essential for the
/// shallow merger to be correct.
///
/// # Errors
///
/// Same parameter requirements as [`crate::counting_network`].
pub fn counting_network_no_ladder(w: usize, t: usize) -> Result<Network, BuildError> {
    validate_counting_params(w, t)?;
    let mut b = NetworkBuilder::new(w, t);
    let srcs = input_sources(w);
    let out = counting_no_ladder_into(&mut b, &srcs, t);
    feed_outputs(&mut b, &out);
    Ok(b.build_expect("no-ladder ablation of C(w, t)"))
}

/// The depth of the bitonic-merger ablation, from the recurrence
/// `D(2, t) = 1`, `D(w, t) = 1 + D(w/2, t/2) + lg t`.
#[must_use]
pub fn bitonic_variant_depth(w: usize, t: usize) -> usize {
    if w == 2 {
        return 1;
    }
    1 + bitonic_variant_depth(w / 2, t / 2) + (t.trailing_zeros() as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::depth::counting_depth;
    use crate::network::counting_network;
    use balnet::properties::{
        counting_counterexample_exhaustive, counting_counterexample_randomized,
    };
    use balnet::{is_counting_network_randomized, output_is_step};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn bitonic_variant_still_counts() {
        let mut rng = StdRng::seed_from_u64(61);
        for (w, t) in [(4usize, 4usize), (4, 8), (8, 8), (8, 16), (16, 16), (16, 64)] {
            let net = counting_network_bitonic_merger(w, t).expect("valid");
            assert!(
                is_counting_network_randomized(&net, 120, 64, &mut rng),
                "bitonic-merger variant of C({w},{t})"
            );
        }
    }

    #[test]
    fn bitonic_variant_depth_matches_recurrence_and_grows_with_t() {
        for (w, t) in [(4usize, 4usize), (4, 8), (8, 8), (8, 16), (8, 32), (16, 16), (16, 64)] {
            let net = counting_network_bitonic_merger(w, t).expect("valid");
            assert_eq!(net.depth(), bitonic_variant_depth(w, t), "depth of variant C({w},{t})");
        }
        // The bitonic merger is one layer deeper than M(t', w'/2) at every
        // recursion level, so the variant is strictly deeper for w >= 4 ...
        assert!(bitonic_variant_depth(8, 8) > counting_depth(8));
        // ... and, unlike C(w, t), its depth keeps growing with t.
        assert!(bitonic_variant_depth(8, 32) > bitonic_variant_depth(8, 8));
        assert!(bitonic_variant_depth(16, 256) > bitonic_variant_depth(16, 64));
        assert_eq!(counting_network(16, 256).expect("valid").depth(), counting_depth(16));
    }

    #[test]
    fn no_ladder_variant_is_not_a_counting_network() {
        // Without the ladder the two recursive halves can differ by far
        // more than w/2, violating the merger's contract; an exhaustive
        // search over small inputs finds violating inputs, and the real
        // construction (with the ladder) passes the same search.
        let w = 8usize;
        let without = counting_network_no_ladder(w, w).expect("builds fine, counts wrong");
        let cex = counting_counterexample_exhaustive(&without, 2);
        assert!(cex.is_some(), "without the ladder some input must break the step property");
        let with_ladder = counting_network(w, w).expect("valid");
        assert!(output_is_step(&with_ladder, &cex.expect("just checked")));
        // A randomized search over a larger instance finds counterexamples
        // quickly too.
        let mut rng = StdRng::seed_from_u64(62);
        let wide = counting_network_no_ladder(16, 16).expect("builds");
        assert!(counting_counterexample_randomized(&wide, 500, 16, &mut rng).is_some());
    }

    #[test]
    fn no_ladder_variant_is_shallower_but_wrong() {
        let (w, t) = (8usize, 16usize);
        let with_ladder = counting_network(w, t).expect("valid");
        let without = counting_network_no_ladder(w, t).expect("valid");
        assert_eq!(without.depth() + (w.trailing_zeros() as usize - 1), with_ladder.depth());
    }
}
