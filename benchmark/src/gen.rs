//! Seeded input generation. Everything a workload feeds the program is
//! drawn here, from `--seed`, before any clock starts: the same seed
//! gives the same inputs on every run and every commit.

/// xorshift64* — small, fast, and good enough to draw workload shapes.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`; `stream` separates the independent
    /// streams (per thread, per purpose) one seed fans out into.
    pub fn new(seed: u64, stream: u64) -> Self {
        // splitmix64 over the pair, so nearby seeds give unrelated
        // states and the state is never zero.
        let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Self((z ^ (z >> 31)) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// Zipf(`s`) over ranks `0..n` by inverse-CDF lookup.
#[derive(Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += (rank as f64).powf(-s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Self { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }
}

/// `len` Zipf(1.0) ranks over `0..n`.
pub fn zipf_ranks(rng: &mut Rng, n: usize, len: usize) -> Vec<u16> {
    assert!(n <= usize::from(u16::MAX) + 1, "ranks are stored as u16");
    let zipf = Zipf::new(n, 1.0);
    (0..len).map(|_| zipf.sample(rng) as u16).collect()
}

/// `len` block sizes in `1..=4`, skewed toward single ids (half are 1,
/// a quarter 2, an eighth each 3 and 4) — the mixed-size stream the
/// elimination arena exists to keep gap-free.
pub fn batch_sizes(rng: &mut Rng, len: usize) -> Vec<u8> {
    (0..len)
        .map(|_| match rng.below(8) {
            0..=3 => 1,
            4..=5 => 2,
            6 => 3,
            _ => 4,
        })
        .collect()
}

/// Poisson arrival times at `rate_per_s`, as nanoseconds from the start
/// of a window, covering `window_ns`.
pub fn poisson_arrivals(rng: &mut Rng, rate_per_s: f64, window_ns: u64) -> Vec<u64> {
    let mean_gap_ns = 1e9 / rate_per_s;
    let mut due = Vec::with_capacity((window_ns as f64 / mean_gap_ns * 1.1) as usize + 16);
    let mut t = 0.0f64;
    loop {
        // Inverse-CDF exponential gap; 1 - u is in (0, 1], so ln is finite.
        t += -(1.0 - rng.unit()).ln() * mean_gap_ns;
        if t >= window_ns as f64 {
            return due;
        }
        due.push(t as u64);
    }
}

/// `len` simulation sub-seeds.
pub fn sub_seeds(rng: &mut Rng, len: usize) -> Vec<u64> {
    (0..len).map(|_| rng.next_u64()).collect()
}

/// One request of the HTTP mix, before it is rendered to bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `/lease/{t}?k=` with `k` in {1, 8, 64}.
    Lease(u16),
    Ticket,
    Rate,
    Status,
    Admit,
}

/// Tenants the HTTP mix spreads over.
pub const HTTP_TENANTS: usize = 64;

/// `len` requests of the serving mix: 40 % lease, 30 % ticket, 20 %
/// rate, 9 % status, 1 % admit, over [`HTTP_TENANTS`] Zipf(1.0) tenants.
pub fn http_mix(rng: &mut Rng, len: usize) -> Vec<(Endpoint, u16)> {
    let zipf = Zipf::new(HTTP_TENANTS, 1.0);
    (0..len)
        .map(|_| {
            let endpoint = match rng.below(100) {
                0..=39 => Endpoint::Lease([1, 8, 64][rng.below(3) as usize]),
                40..=69 => Endpoint::Ticket,
                70..=89 => Endpoint::Rate,
                90..=98 => Endpoint::Status,
                _ => Endpoint::Admit,
            };
            (endpoint, zipf.sample(rng) as u16)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_generator_is_a_function_of_the_seed() {
        let draw = |seed| {
            let mut rng = Rng::new(seed, 3);
            (
                zipf_ranks(&mut rng, 8192, 1000),
                batch_sizes(&mut rng, 1000),
                poisson_arrivals(&mut rng, 10_000.0, 50_000_000),
                sub_seeds(&mut rng, 40),
                http_mix(&mut rng, 1000),
            )
        };
        assert_eq!(draw(7), draw(7), "same seed, same inputs");
        assert_ne!(draw(7), draw(8), "another seed, other inputs");
        assert_ne!(Rng::new(7, 0).next_u64(), Rng::new(7, 1).next_u64(), "streams differ");
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let mut rng = Rng::new(1, 0);
        let ranks = zipf_ranks(&mut rng, 8192, 100_000);
        assert!(ranks.iter().all(|&r| usize::from(r) < 8192));
        let top = ranks.iter().filter(|&&r| r == 0).count() as f64 / ranks.len() as f64;
        // H(8192) is about 9.59, so rank 0 carries about 10.4 % of the mass.
        assert!((0.09..0.12).contains(&top), "rank-0 share {top}");
        let distinct = ranks.iter().collect::<std::collections::HashSet<_>>().len();
        assert!(distinct > 4000, "the tail is reached: {distinct} distinct ranks");
    }

    #[test]
    fn batch_sizes_stay_within_one_to_four() {
        let sizes = batch_sizes(&mut Rng::new(2, 0), 10_000);
        assert!(sizes.iter().all(|k| (1..=4).contains(k)));
        let ones = sizes.iter().filter(|&&k| k == 1).count();
        assert!((4500..5500).contains(&ones), "about half are single ids: {ones}");
    }

    #[test]
    fn poisson_arrivals_are_sorted_and_hit_the_rate() {
        let due = poisson_arrivals(&mut Rng::new(3, 0), 20_000.0, 1_000_000_000);
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        assert!(due.last().is_some_and(|&t| t < 1_000_000_000));
        let n = due.len() as f64;
        assert!((n - 20_000.0).abs() < 600.0, "count {n} within 4 sigma of the rate");
    }

    #[test]
    fn http_mix_matches_its_shares() {
        let mix = http_mix(&mut Rng::new(4, 0), 100_000);
        let share = |is: fn(Endpoint) -> bool| {
            mix.iter().filter(|(e, _)| is(*e)).count() as f64 / mix.len() as f64
        };
        let shares = [
            share(|e| matches!(e, Endpoint::Lease(1 | 8 | 64))),
            share(|e| e == Endpoint::Ticket),
            share(|e| e == Endpoint::Rate),
            share(|e| e == Endpoint::Status),
            share(|e| e == Endpoint::Admit),
        ];
        for (got, want) in shares.into_iter().zip([0.40, 0.30, 0.20, 0.09, 0.01]) {
            assert!((got - want).abs() < 0.01, "{shares:?}");
        }
        assert!(mix.iter().all(|&(_, t)| usize::from(t) < HTTP_TENANTS));
    }
}
