//! Seeded input generation.  The benchmark derives every input of a
//! workload from `--seed` through this module; the simulated programs
//! receive only the generated inputs.

/// SplitMix64: small, fast and fully determined by its seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
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

    /// Uniform in `[lo, hi]`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }
}

/// The byte at `off` of the stream identified by `key`: every payload in
/// the benchmark is this pattern, so every receiver can check every byte
/// without keeping a copy of what was sent.
pub fn pattern_byte(key: u64, off: u64) -> u8 {
    let word = ((off >> 3) ^ key).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (word >> (8 * (off & 7))) as u8
}

/// Fills `buf` with the pattern of `key` starting at stream offset `off`.
pub fn fill_pattern(key: u64, off: u64, buf: &mut [u8]) {
    for (i, b) in buf.iter_mut().enumerate() {
        *b = pattern_byte(key, off + i as u64);
    }
}

/// Whether `buf` holds the pattern of `key` starting at offset `off`.
pub fn check_pattern(key: u64, off: u64, buf: &[u8]) -> bool {
    buf.iter()
        .enumerate()
        .all(|(i, &b)| b == pattern_byte(key, off + i as u64))
}

// Where each constant comes from is listed in NOTES.md ("Inputs"):
// a sourced mix constant, an assumption, or the run length.

/// Bytes one `stream` round sends (run length).
pub const STREAM_BYTES: usize = 24 << 20;
/// The write size the paper's ttcp runs use (Table 1: 4096 B blocks),
/// and the half-width of the uniform range around it (an assumption).
pub const STREAM_WRITE: usize = 4096;
pub const STREAM_SPREAD: usize = 3072;
/// Round trips in one `rpc` round (run length).
pub const RPC_ROUND_TRIPS: usize = 20_000;
/// Largest `rpc` response: one TCP segment on Ethernet (1500 B MTU less
/// 40 B of IP and TCP header).
pub const RPC_MAX_RESPONSE: usize = 1460;
/// Share of `rpc` responses that are 1 B, as in Table 2's one-byte
/// rtcp (an assumption; the rest are uniform up to one segment).
pub const RPC_ONE_BYTE_SHARE: f64 = 0.3;
/// SPECweb96 file set: four size classes of nine files each; file `k`
/// (1..=9) of class `c` is `k` tenths of a KiB times `10^c`.
pub const SPEC_CLASSES: usize = 4;
pub const SPEC_FILES_PER_CLASS: usize = 9;
/// SPECweb96's share of requests per class: 35%, 50%, 14%, 1%.
pub const SPEC_CLASS_SHARE: [f64; SPEC_CLASSES] = [0.35, 0.50, 0.14, 0.01];
/// SPECweb96 directories on the volume (an assumption: SPECweb96 scales
/// the count with the target load; two make the set about ten times
/// the 1 MiB buffer cache).
pub const FS_DIRS: usize = 2;
/// Files on the `fileserve` volume.
pub const FS_FILES: usize = FS_DIRS * SPEC_CLASSES * SPEC_FILES_PER_CLASS;
/// Requests in one `fileserve` round (run length).
pub const FS_REQUESTS: usize = 4_800;
/// Share of `fileserve` requests that are `PUT`s (an assumption:
/// SPECweb96 is read-only).
pub const FS_PUT_SHARE: f64 = 0.1;

/// Nominal SPECweb96 size of file `k` (1..=9) of class `c`, bytes.
pub fn spec_size(class: usize, k: usize) -> f64 {
    k as f64 * 102.4 * 10f64.powi(class as i32)
}

/// `stream`: application write sizes uniform around ttcp's 4 KiB,
/// summing to exactly `total` bytes.
pub fn stream_writes(seed: u64, total: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed ^ 0x5354_5245_414d);
    let mut out = Vec::new();
    let mut left = total;
    while left > 0 {
        let n = rng
            .range(STREAM_WRITE - STREAM_SPREAD, STREAM_WRITE + STREAM_SPREAD)
            .min(left);
        out.push(n);
        left -= n;
    }
    out
}

/// `rpc`: response sizes from 1 B up to one segment, weighted toward
/// 1 B: three in ten are 1 B, the rest uniform.  Response time grows by
/// about 240 ns of virtual time per byte, so the seed moves the median
/// response, and with it the p50, a little.
pub fn rpc_responses(seed: u64, n: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed ^ 0x0052_5043);
    (0..n)
        .map(|_| {
            if rng.unit() < RPC_ONE_BYTE_SHARE {
                1
            } else {
                rng.range(2, RPC_MAX_RESPONSE)
            }
        })
        .collect()
}

/// One `fileserve` request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Req {
    /// Fetch a whole file.
    Get(usize),
    /// Overwrite a whole file with its next version.
    Put(usize),
}

/// `fileserve` inputs: file sizes and the request sequence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FileServeInput {
    pub sizes: Vec<usize>,
    pub requests: Vec<Req>,
}

fn shuffle<T>(rng: &mut Rng, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.range(0, i));
    }
}

/// Splits `total` over `weights` in proportion, rounding by largest
/// remainder, so the parts sum to `total` exactly.
fn apportion(weights: &[f64], total: usize) -> Vec<usize> {
    let sum: f64 = weights.iter().sum();
    let quota: Vec<f64> = weights.iter().map(|w| w / sum * total as f64).collect();
    let mut counts: Vec<usize> = quota.iter().map(|q| q.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..weights.len()).collect();
    by_remainder
        .sort_by(|&a, &b| (quota[b] - quota[b].floor()).total_cmp(&(quota[a] - quota[a].floor())));
    let short = total - counts.iter().sum::<usize>();
    for &i in &by_remainder[..short] {
        counts[i] += 1;
    }
    counts
}

/// `fileserve`: the SPECweb96 file set and class mix, plus a share of
/// `PUT`s.
///
/// - File `k` of class `c` in each directory is sized uniformly within
///   half a step of its SPECweb96 size `k * 102.4 * 10^c` B, so the sizes
///   fill each class's range with no gaps.
/// - Each class takes its SPECweb96 share of requests, split evenly over
///   the directories; within a class, file `k` is requested in
///   proportion to `1/k`.
/// - Each file is requested its expected number of times, rounded, so
///   the seed changes which bytes are served only through the size
///   jitter.  The seed also picks the request order and which requests
///   are `PUT`s.
pub fn fileserve_input(seed: u64, requests: usize) -> FileServeInput {
    let mut rng = Rng::new(seed ^ 0x4649_4c45);
    let mut sizes = Vec::with_capacity(FS_FILES);
    let mut weights = Vec::with_capacity(FS_FILES);
    let harmonic: f64 = (1..=SPEC_FILES_PER_CLASS).map(|k| 1.0 / k as f64).sum();
    for _dir in 0..FS_DIRS {
        for (class, share) in SPEC_CLASS_SHARE.iter().enumerate() {
            for k in 1..=SPEC_FILES_PER_CLASS {
                let jitter = rng.unit() - 0.5;
                sizes.push((spec_size(class, k) + jitter * spec_size(class, 1)).round() as usize);
                weights.push(share / FS_DIRS as f64 / (k as f64 * harmonic));
            }
        }
    }
    let counts = apportion(&weights, requests);
    let mut order: Vec<usize> = (0..FS_FILES)
        .flat_map(|f| std::iter::repeat_n(f, counts[f]))
        .collect();
    shuffle(&mut rng, &mut order);
    let puts = (requests as f64 * FS_PUT_SHARE).round() as usize;
    let mut put: Vec<bool> = (0..requests).map(|i| i < puts).collect();
    shuffle(&mut rng, &mut put);
    let requests = order
        .into_iter()
        .zip(put)
        .map(|(id, p)| if p { Req::Put(id) } else { Req::Get(id) })
        .collect();
    FileServeInput { sizes, requests }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(stream_writes(7, 1 << 20), stream_writes(7, 1 << 20));
        assert_ne!(stream_writes(7, 1 << 20), stream_writes(8, 1 << 20));
        assert_eq!(rpc_responses(7, 500), rpc_responses(7, 500));
        assert_ne!(rpc_responses(7, 500), rpc_responses(8, 500));
        assert_eq!(fileserve_input(7, 300), fileserve_input(7, 300));
        let (a, b) = (fileserve_input(7, 300), fileserve_input(8, 300));
        assert_ne!(a.sizes, b.sizes);
        assert_ne!(a.requests, b.requests);
    }

    #[test]
    fn inputs_stay_in_their_ranges() {
        let w = stream_writes(3, 1 << 20);
        assert_eq!(w.iter().sum::<usize>(), 1 << 20);
        assert!(w[..w.len() - 1].iter().all(|&n| (1024..=7168).contains(&n)));
        let r = rpc_responses(3, 2000);
        assert!(r.iter().all(|&n| (1..=RPC_MAX_RESPONSE).contains(&n)));
        let ones = r.iter().filter(|&&n| n == 1).count();
        assert!((450..750).contains(&ones), "1 B share off: {ones}");
    }

    #[test]
    fn fileserve_follows_the_specweb96_mix() {
        let f = fileserve_input(3, 2400);
        assert_eq!(f.sizes.len(), FS_FILES);
        assert_eq!(f.requests.len(), 2400);
        let id = |r: &Req| match *r {
            Req::Get(i) | Req::Put(i) => i,
        };
        let class = |file: usize| file / SPEC_FILES_PER_CLASS % SPEC_CLASSES;
        // Sizes: within half a step of the SPECweb96 size.
        for (file, &n) in f.sizes.iter().enumerate() {
            let (c, k) = (class(file), file % SPEC_FILES_PER_CLASS + 1);
            let step = spec_size(c, 1);
            assert!((n as f64 - spec_size(c, k)).abs() <= step / 2.0 + 1.0);
        }
        // Requests per class: 35%, 50%, 14%, 1% of 2400.
        let mut per_class = [0; SPEC_CLASSES];
        for r in &f.requests {
            per_class[class(id(r))] += 1;
        }
        assert_eq!(per_class, [840, 1200, 336, 24]);
        // Within a class, file 1 is asked for about twice as often as 2.
        let count = |file| f.requests.iter().filter(|r| id(r) == file).count();
        let (one, two) = (count(SPEC_FILES_PER_CLASS), count(SPEC_FILES_PER_CLASS + 1));
        assert!(one.abs_diff(2 * two) <= 2, "{one} vs {two}");
        let puts = f
            .requests
            .iter()
            .filter(|r| matches!(r, Req::Put(_)))
            .count();
        assert_eq!(puts, 240);
        // The file set is several times the 1 MiB cache.
        assert!(f.sizes.iter().sum::<usize>() > 8 << 20);
        // Another seed serves nearly the same bytes.
        let bytes =
            |f: &FileServeInput| -> usize { f.requests.iter().map(|r| f.sizes[id(r)]).sum() };
        let (a, b) = (bytes(&f), bytes(&fileserve_input(4, 2400)));
        assert!(a.abs_diff(b) * 50 < a, "{a} vs {b}");
    }

    #[test]
    fn pattern_checks_catch_a_flipped_byte() {
        let mut buf = vec![0u8; 100];
        fill_pattern(42, 13, &mut buf);
        assert!(check_pattern(42, 13, &buf));
        assert!(!check_pattern(42, 14, &buf));
        assert!(!check_pattern(43, 13, &buf));
        buf[57] ^= 1;
        assert!(!check_pattern(42, 13, &buf));
    }
}
