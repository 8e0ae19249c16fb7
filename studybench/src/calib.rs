//! Same-run machine-speed calibration for the end-to-end timings.
//!
//! On the shared reference host the speed of one vCPU drifts in phases
//! of one to two minutes: the same Herman N=15 study took 1.0–1.3 s in
//! one phase and 1.8–2.0 s in the next, so medians over 20-second
//! windows spread by 28 % (quartile distance over median) with nothing
//! in the program changing. A fixed probe kernel, owned by the benchmark
//! and independent of the program, is timed right after every measured
//! interval; each interval is rescaled by the geometric mean of the
//! probes on either side of it, relative to the probe's nominal time.
//! On the same trace this brought the window spread down to 6 %.
//!
//! The kernel mixes the two kinds of work the studies do — branchy
//! byte-stream decoding in cache (the compressed tiers, the solver) and
//! dependent random reads over 8 MiB (hash tables, reverse CSR) —
//! because either alone tracks the phases only partly.

use std::time::Instant;

/// The probe's time on the reference host in an uncontended phase; the
/// rescaled timings read as milliseconds at that speed.
pub const NOMINAL_PROBE_MS: f64 = 25.0;

/// Words in the random-read table (8 MiB).
const TABLE_WORDS: usize = 1 << 20;

/// Decoding passes over the byte stream per probe.
const DECODE_PASSES: usize = 300;

/// Dependent random reads per probe.
const RANDOM_READS: usize = 3_000_000;

/// The probe kernel's buffers (built once) and the last probe time.
#[derive(Debug)]
pub struct Calibrator {
    stream: Vec<u8>,
    xs: Vec<f64>,
    table: Vec<u64>,
    last_ms: f64,
}

/// xorshift64: the kernel's fixed pseudo-random inputs.
fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

impl Calibrator {
    /// Builds the buffers and takes a first probe.
    pub fn new() -> Self {
        let mut x = 0x2545_F491_4F6C_DD1D;
        let mut stream = Vec::with_capacity(32 << 10);
        while stream.len() < 32 << 10 {
            // LEB128 varints of values below 5000: one or two bytes.
            let mut v = xorshift(&mut x) % 5000;
            loop {
                let b = (v & 0x7f) as u8;
                v >>= 7;
                if v == 0 {
                    stream.push(b);
                    break;
                }
                stream.push(b | 0x80);
            }
        }
        let mut c = Calibrator {
            stream,
            xs: (0..4096).map(|i| f64::from(i) * 1e-3).collect(),
            table: (0..TABLE_WORDS as u64).collect(),
            last_ms: 0.0,
        };
        c.last_ms = c.probe();
        c
    }

    fn kernel(&mut self) -> u64 {
        let mut acc = 0.0f64;
        for _ in 0..DECODE_PASSES {
            let (mut i, mut col) = (0, 0usize);
            while i < self.stream.len() {
                let (mut v, mut shift) = (0u64, 0);
                loop {
                    let b = self.stream[i];
                    i += 1;
                    v |= u64::from(b & 0x7f) << shift;
                    if b & 0x80 == 0 {
                        break;
                    }
                    shift += 7;
                }
                col = (col + v as usize) & (self.xs.len() - 1);
                acc += self.xs[col] * 0.5;
            }
        }
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut sum = 0u64;
        for _ in 0..RANDOM_READS {
            let i = (xorshift(&mut x) >> 40) as usize & (TABLE_WORDS - 1);
            self.table[i] = self.table[i].wrapping_add(x);
            sum = sum.wrapping_add(self.table[(i * 7) & (TABLE_WORDS - 1)]);
        }
        sum ^ acc.to_bits()
    }

    /// Runs the probe kernel once and returns its wall time in ms. The
    /// table is first read through sequentially, untimed, so that the
    /// probe does not also measure how much of it the preceding work
    /// evicted from the caches.
    pub fn probe(&mut self) -> f64 {
        std::hint::black_box(self.table.iter().fold(0u64, |a, &w| a.wrapping_add(w)));
        let start = Instant::now();
        std::hint::black_box(self.kernel());
        start.elapsed().as_secs_f64() * 1e3
    }

    /// Times `f`, probes right after it, and returns `f`'s result with
    /// its raw wall time and its time rescaled to the nominal probe
    /// speed (both in ms).
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64, f64) {
        let start = Instant::now();
        let out = f();
        let raw = start.elapsed().as_secs_f64() * 1e3;
        let before = self.last_ms;
        self.last_ms = self.probe();
        (out, raw, rescale(raw, before, self.last_ms))
    }
}

/// `raw` at the nominal probe speed, given the probes taken just before
/// and just after it.
pub fn rescale(raw: f64, before_ms: f64, after_ms: f64) -> f64 {
    raw * NOMINAL_PROBE_MS / (before_ms * after_ms).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rescaling_divides_out_the_probe_slowdown() {
        assert_eq!(rescale(100.0, NOMINAL_PROBE_MS, NOMINAL_PROBE_MS), 100.0);
        // A phase twice as slow on both sides halves the reading.
        let slow = 2.0 * NOMINAL_PROBE_MS;
        assert!((rescale(200.0, slow, slow) - 100.0).abs() < 1e-12);
        // Unequal neighbours count by their geometric mean.
        assert!((rescale(100.0, NOMINAL_PROBE_MS, 4.0 * NOMINAL_PROBE_MS) - 50.0).abs() < 1e-12);
    }

    #[test]
    fn kernel_is_deterministic_and_timed() {
        let mut a = Calibrator::new();
        let mut b = Calibrator::new();
        assert_eq!(a.kernel(), b.kernel());
        let (v, raw, scaled) = a.time(|| 7);
        assert_eq!(v, 7);
        assert!(raw >= 0.0 && scaled >= 0.0);
        assert!(a.probe() > 0.0);
    }
}
