//! The Fetch&Increment contract, checked on everything the benchmark
//! observed: per stream, the ids handed out are exactly `0..n` — unique,
//! no gap — whatever mix of block sizes produced them.
//!
//! The check is a multiset fingerprint, not a bitmap: a stream keeps the
//! number of ids it saw and the wrapping sum of a 64-bit mix of each id,
//! and at the end both must equal those of `0..n`. A duplicate, a gap or
//! an out-of-range id changes the sum unless two 64-bit mixes collide.
//! It costs a few nanoseconds per id, touches no shared memory inside
//! the timed loop, and holds 16 bytes per stream however many ids pass.

/// splitmix64 finaliser: a bijection on `u64` with good avalanche.
fn mix(id: u64) -> u64 {
    let mut z = id.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fingerprint of the multiset of ids one stream handed out.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub count: u64,
    sum: u64,
}

impl Tally {
    /// Records the block `base..base + k`.
    #[inline]
    pub fn add_block(&mut self, base: u64, k: u64) {
        for i in 0..k {
            self.sum = self.sum.wrapping_add(mix(base.wrapping_add(i)));
        }
        self.count += k;
    }

    pub fn merge(&mut self, other: Tally) {
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
    }
}

/// Checks many streams against `0..count` in one pass over the id
/// space: the expected sum for every prefix length is built once, up to
/// the longest stream.
pub fn dense_violations<'a>(
    streams: impl Iterator<Item = (&'a str, Tally)> + Clone,
    violations: &mut Vec<String>,
) {
    let longest = streams.clone().map(|(_, t)| t.count).max().unwrap_or(0);
    let mut by_len: Vec<(u64, &str, Tally)> = streams.map(|(n, t)| (t.count, n, t)).collect();
    by_len.sort_unstable_by_key(|&(count, name, _)| (count, name));
    let mut pending = by_len.into_iter().peekable();
    let mut sum = 0u64;
    for n in 0..=longest {
        while let Some(&(count, name, tally)) = pending.peek() {
            if count != n {
                break;
            }
            if tally.sum != sum {
                violations.push(format!(
                    "stream {name}: {n} ids handed out are not exactly 0..{n} (duplicate or gap)"
                ));
            }
            pending.next();
        }
        sum = sum.wrapping_add(mix(n));
    }
}

/// `/rate` admissions per (tenant, window): never more than the limit.
#[derive(Debug, Default)]
pub struct RateWindows {
    admitted: std::collections::BTreeMap<(u16, u64), u64>,
}

impl RateWindows {
    pub fn admit(&mut self, tenant: u16, window: u64) {
        *self.admitted.entry((tenant, window)).or_insert(0) += 1;
    }

    pub fn merge(&mut self, other: RateWindows) {
        for (key, n) in other.admitted {
            *self.admitted.entry(key).or_insert(0) += n;
        }
    }

    pub fn violations(&self, limit: u64, violations: &mut Vec<String>) {
        for (&(tenant, window), &n) in &self.admitted {
            if n > limit {
                violations.push(format!(
                    "rate tenant {tenant} window {window}: {n} admitted, limit {limit}"
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(streams: &[(&str, Tally)]) -> Vec<String> {
        let mut violations = Vec::new();
        dense_violations(streams.iter().copied(), &mut violations);
        violations
    }

    #[test]
    fn any_tiling_of_a_prefix_passes() {
        let mut a = Tally::default();
        for (base, k) in [(4, 3), (0, 1), (7, 1), (1, 3)] {
            a.add_block(base, k);
        }
        let mut halves = (Tally::default(), Tally::default());
        halves.0.add_block(0, 5);
        halves.1.add_block(5, 5);
        halves.0.merge(halves.1);
        assert!(check(&[("a", a), ("b", halves.0), ("empty", Tally::default())]).is_empty());
    }

    #[test]
    fn one_corrupted_value_is_reported() {
        let ids: Vec<u64> = (0..1000).collect();
        for (what, corrupt) in [
            ("duplicate", Box::new(|v: &mut Vec<u64>| v[500] = 499) as Box<dyn Fn(&mut Vec<u64>)>),
            ("gap", Box::new(|v: &mut Vec<u64>| v[999] = 1000)),
            ("far out of range", Box::new(|v: &mut Vec<u64>| v[3] = u64::MAX - 1)),
        ] {
            let mut observed = ids.clone();
            corrupt(&mut observed);
            let mut tally = Tally::default();
            for id in observed {
                tally.add_block(id, 1);
            }
            let violations = check(&[("good", Tally::default()), ("bad", tally)]);
            assert_eq!(violations.len(), 1, "{what}: {violations:?}");
            assert!(violations[0].contains("stream bad"), "{what}: {violations:?}");
        }
    }

    #[test]
    fn over_admission_is_reported_per_window() {
        let mut windows = RateWindows::default();
        for _ in 0..64 {
            windows.admit(3, 7);
        }
        let mut violations = Vec::new();
        windows.violations(64, &mut violations);
        assert!(violations.is_empty());
        let mut more = RateWindows::default();
        more.admit(3, 7);
        windows.merge(more);
        windows.violations(64, &mut violations);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("window 7"), "{violations:?}");
    }
}
