//! Seeded generators for schedules and key draws (splitmix64): the same
//! seed gives the same inputs on every host.

#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }

    /// Exponential gap with the given mean (Poisson arrivals).
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }
}

/// Zipf(s) over `n` keys by inverse CDF.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn draw(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Poisson arrival offsets (seconds) at `rate` per second over `secs`.
pub fn poisson(rng: &mut Rng, rate: f64, secs: f64) -> Vec<f64> {
    let mut out = Vec::with_capacity((rate * secs * 1.1) as usize + 8);
    let mut t = rng.exp(1.0 / rate);
    while t < secs {
        out.push(t);
        t += rng.exp(1.0 / rate);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let draw = |seed| {
            let mut r = Rng::new(seed);
            (0..5).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let z = Zipf::new(256, 1.0);
        let mut r = Rng::new(1);
        let mut counts = vec![0usize; 256];
        for _ in 0..20_000 {
            counts[z.draw(&mut r)] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[10]);
        // P(rank 1) = 1 / H_256 ~= 0.163
        let p0 = counts[0] as f64 / 20_000.0;
        assert!((p0 - 0.163).abs() < 0.02, "p0 = {p0}");
    }

    #[test]
    fn poisson_rate_is_close() {
        let mut r = Rng::new(3);
        let arrivals = poisson(&mut r, 1000.0, 5.0);
        assert!((arrivals.len() as f64 - 5000.0).abs() < 300.0);
        assert!(arrivals.windows(2).all(|w| w[0] <= w[1]));
    }
}
