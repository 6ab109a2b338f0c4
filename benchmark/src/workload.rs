//! The four workloads: what each one is, the inputs it draws from a
//! seed, the request stream, and the check every response must pass.
//!
//! Sizes and popularity ranks are properties of the workload and do not
//! change with the seed (two seeds must load the server alike, or their
//! runs could not be compared); the seed draws file contents, published
//! values and the order of requests.

use std::collections::VecDeque;

/// One workload's fixed description.
pub struct Spec {
    pub name: &'static str,
    /// Arrival rate of the open phase, frozen: half the closed-loop
    /// throughput at `C = 2` connections first measured on the commit
    /// that added the benchmark (9200, 2100, 460 and 5500 a second), two
    /// significant digits. That first measurement fell in one of the
    /// reference box's slow periods; against the medians of the
    /// calibration sets the rates are 0.40 to 0.42, which leaves the open
    /// phase room when the box slows down again.
    pub rate_rps: f64,
    /// Four times the open-phase p99 on that commit (median of ten runs),
    /// two significant digits; the run prints whether `latency_p99_us`
    /// stays under it.
    pub limit_us: f64,
}

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "web_small",
        rate_rps: 4600.0,
        limit_us: 6300.0,
    },
    Spec {
        name: "web_large",
        rate_rps: 1000.0,
        limit_us: 8600.0,
    },
    Spec {
        name: "image_zipf",
        rate_rps: 230.0,
        limit_us: 82000.0,
    },
    Spec {
        name: "pubsub_fanout",
        rate_rps: 2800.0,
        limit_us: 5700.0,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// Subscribers per topic in `pubsub_fanout`: the fan-out degree.
pub const SUBSCRIBERS: usize = 16;
/// The pub/sub server's default sliding window and top-k, which the
/// reference model below mirrors.
const WINDOW: usize = 64;
const TOPK: usize = 3;
/// Distinct published values; few enough that the top-k is contested.
const VALUES: usize = 8;

const IMAGE_COUNT: usize = 16;
const IMAGE_WIDTH: usize = 256;
const IMAGE_QUALITY: u8 = 75;
/// Holds the most popular tags only: measured hit share near 0.65.
const IMAGE_CACHE_BYTES: usize = 112 * 1024;

/// What the server is built from: plain data, turned into a server spec
/// by the adapter.
pub enum ServerInputs {
    Web {
        files: Vec<(String, Vec<u8>)>,
    },
    Image {
        images: usize,
        width: usize,
        quality: u8,
        cache_bytes: usize,
    },
    PubSub,
}

/// SplitMix64: small, seedable, and the same on every platform.
#[derive(Clone)]
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
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn fill(&mut self, buf: &mut [u8]) {
        let mut chunks = buf.chunks_exact_mut(8);
        for c in &mut chunks {
            c.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rest = chunks.into_remainder();
        let last = self.next_u64().to_le_bytes();
        rest.copy_from_slice(&last[..rest.len()]);
    }
}

/// Draws ranks `0..n` with probability proportional to `1/(rank+1)^s`;
/// `s = 0` is uniform.
#[derive(Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 1..=n {
            total += 1.0 / (rank as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }
}

/// The base-2 van der Corput sequence: `i` → a point of `[0, 1)` such
/// that any prefix covers the interval evenly. Spreads sizes over
/// popularity ranks without tying size to rank.
fn van_der_corput(mut i: usize) -> f64 {
    let mut q = 0.0;
    let mut step = 0.5;
    while i > 0 {
        if i & 1 == 1 {
            q += step;
        }
        step /= 2.0;
        i >>= 1;
    }
    q
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a of `data`, taken over 8-byte words on four independent lanes
/// that are folded together at the end (byte-wise FNV is a serial
/// multiply per byte: a millisecond per `web_large` body, which would
/// make the generator the bottleneck). Any flipped, missing or extra
/// byte changes the result.
pub fn fnv1a(data: &[u8]) -> u64 {
    let mut lanes = [FNV_OFFSET, FNV_OFFSET ^ 1, FNV_OFFSET ^ 2, FNV_OFFSET ^ 3];
    let mut blocks = data.chunks_exact(32);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            let w = u64::from_le_bytes(word.try_into().expect("chunk of 8"));
            *lane = (*lane ^ w).wrapping_mul(FNV_PRIME);
        }
    }
    let mut h = lanes[0];
    for &b in blocks.remainder() {
        h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    for lane in &lanes[1..] {
        h = (h ^ lane).wrapping_mul(FNV_PRIME);
    }
    (h ^ data.len() as u64).wrapping_mul(FNV_PRIME)
}

pub struct WebFile {
    pub path: String,
    pub body: Vec<u8>,
    /// [`fnv1a`] of `body`: the generator's own copy of what a response
    /// must hash to.
    pub hash: u64,
}

/// One request the generator sends and what must come back.
pub struct HttpRequest {
    pub wire: Vec<u8>,
    /// Index into the workload's files or tags.
    pub target: usize,
}

/// Inputs of the two web workloads and of `image_zipf`: a set of
/// targets, a popularity law over them, and the seeded request order.
pub struct HttpInputs {
    kind: HttpKind,
    popularity: Zipf,
    order: Rng,
}

enum HttpKind {
    Web {
        files: Vec<WebFile>,
    },
    Image {
        /// `(image, scale in eighths)` by popularity rank.
        tags: Vec<(u32, u32)>,
        /// `jpeg_encode(scale_eighths(..))` of each tag, computed at
        /// set-up by the generator (empty in the server child, which
        /// checks nothing).
        expected: Vec<Vec<u8>>,
    },
}

impl HttpInputs {
    #[cfg(test)]
    pub fn targets(&self) -> usize {
        match &self.kind {
            HttpKind::Web { files } => files.len(),
            HttpKind::Image { tags, .. } => tags.len(),
        }
    }

    pub fn path(&self, target: usize) -> String {
        match &self.kind {
            HttpKind::Web { files } => files[target].path.clone(),
            HttpKind::Image { tags, .. } => format!("/img{}-{}.jpg", tags[target].0, tags[target].1),
        }
    }

    pub fn request_for(&self, target: usize) -> HttpRequest {
        HttpRequest {
            wire: format!("GET {} HTTP/1.1\r\nHost: bench\r\n\r\n", self.path(target)).into_bytes(),
            target,
        }
    }

    /// The next request of the seeded stream.
    pub fn next_request(&mut self) -> HttpRequest {
        let target = self.popularity.sample(&mut self.order);
        self.request_for(target)
    }

    /// Targets to request, in this order, before the seeded stream
    /// begins. The image server's LFU cache keeps what it saw first when
    /// frequencies tie, so its contents, and with them the cost of every
    /// later miss, would depend on the order of the first requests: one
    /// pass over every tag, least popular first, leaves the same cache on
    /// every seed. The web workloads need none.
    pub fn warm_pass(&self) -> Vec<usize> {
        match &self.kind {
            HttpKind::Web { .. } => Vec::new(),
            HttpKind::Image { tags, .. } => (0..tags.len()).rev().collect(),
        }
    }

    /// Checks one response against the generator's own copy.
    pub fn check(&self, target: usize, status: u16, body: &[u8]) -> Result<(), &'static str> {
        if status != 200 {
            return Err("status is not 200");
        }
        match &self.kind {
            HttpKind::Web { files } => {
                let file = &files[target];
                if body.len() != file.body.len() {
                    return Err("body length differs");
                }
                if fnv1a(body) != file.hash {
                    return Err("body hash differs");
                }
            }
            HttpKind::Image { expected, .. } => {
                if !body.starts_with(&[0xFF, 0xD8]) || !body.ends_with(&[0xFF, 0xD9]) {
                    return Err("JPEG markers missing");
                }
                // Byte equality with the encoding of this very tag: a
                // cache that answered with another tag's image fails.
                if body != expected[target].as_slice() {
                    return Err("JPEG differs from the tag's own encoding");
                }
            }
        }
        Ok(())
    }

    #[cfg(test)]
    pub fn web_files(&self) -> &[WebFile] {
        match &self.kind {
            HttpKind::Web { files } => files,
            HttpKind::Image { .. } => &[],
        }
    }
}

/// The reference model of one topic: what the server's `MSG` line for
/// each publish must be.
pub struct TopicModel {
    pub topic: String,
    values: Rng,
    popularity: Zipf,
    window: VecDeque<usize>,
    counts: [u32; VALUES],
    pub seq: u64,
}

impl TopicModel {
    fn new(topic: String, seed: u64) -> TopicModel {
        TopicModel {
            topic,
            values: Rng::new(seed),
            popularity: Zipf::new(VALUES, 1.0),
            window: VecDeque::with_capacity(WINDOW + 1),
            counts: [0; VALUES],
            seq: 0,
        }
    }

    /// Draws the topic's next value; returns the `PUB` line to send and
    /// the `MSG` line every subscriber must then receive.
    pub fn publish(&mut self) -> (Vec<u8>, Vec<u8>) {
        let v = self.popularity.sample(&mut self.values);
        self.seq += 1;
        self.counts[v] += 1;
        self.window.push_back(v);
        if self.window.len() > WINDOW {
            let old = self.window.pop_front().expect("window is not empty");
            self.counts[old] -= 1;
        }
        // Most frequent first, ties by value; value names sort like
        // their indices.
        let mut ranked: Vec<usize> = (0..VALUES).filter(|&i| self.counts[i] > 0).collect();
        ranked.sort_by(|&a, &b| self.counts[b].cmp(&self.counts[a]).then(a.cmp(&b)));
        let topk: Vec<String> = ranked
            .iter()
            .take(TOPK)
            .map(|&i| format!("v{i}:{}", self.counts[i]))
            .collect();
        let publish = format!("PUB {} v{v}\n", self.topic);
        let message = format!(
            "MSG {} {} {} {} v{v}\n",
            self.topic,
            self.seq,
            self.window.len(),
            topk.join(",")
        );
        (publish.into_bytes(), message.into_bytes())
    }
}

/// What one `MSG` line carries, for the checks that need no model.
pub struct Message<'a> {
    pub topic: &'a str,
    pub seq: u64,
}

/// Parses `MSG <topic> <seq> <count> <top-k> <last>` (no newline) and
/// checks what holds for any message: `count` within the window.
pub fn parse_message(line: &[u8]) -> Result<Message<'_>, &'static str> {
    let line = std::str::from_utf8(line).map_err(|_| "message is not UTF-8")?;
    let mut words = line.split(' ');
    if words.next() != Some("MSG") {
        return Err("not a MSG line");
    }
    let topic = words.next().ok_or("MSG without topic")?;
    let seq = words
        .next()
        .and_then(|w| w.parse().ok())
        .ok_or("MSG without seq")?;
    let count: usize = words
        .next()
        .and_then(|w| w.parse().ok())
        .ok_or("MSG without count")?;
    if count > WINDOW {
        return Err("count exceeds the window");
    }
    Ok(Message { topic, seq })
}

pub enum Inputs {
    Http(HttpInputs),
    /// One model per topic; topic `i` belongs to publisher connection `i`.
    PubSub(Vec<TopicModel>),
}

impl Inputs {
    /// Plain server inputs for the adapter.
    pub fn server(&self) -> ServerInputs {
        match self {
            Inputs::Http(HttpInputs {
                kind: HttpKind::Web { files },
                ..
            }) => ServerInputs::Web {
                files: files.iter().map(|f| (f.path.clone(), f.body.clone())).collect(),
            },
            Inputs::Http(_) => image_server(),
            Inputs::PubSub(_) => ServerInputs::PubSub,
        }
    }
}

fn image_server() -> ServerInputs {
    ServerInputs::Image {
        images: IMAGE_COUNT,
        width: IMAGE_WIDTH,
        quality: IMAGE_QUALITY,
        cache_bytes: IMAGE_CACHE_BYTES,
    }
}

fn web_inputs(seed: u64, count: usize, min: usize, max: usize, log_sizes: bool, s: f64) -> Inputs {
    let mut content = Rng::new(seed ^ 0x5EED_F11E);
    let files = (0..count)
        .map(|rank| {
            let q = van_der_corput(rank);
            let size = if log_sizes {
                (min as f64 * (max as f64 / min as f64).powf(q)).round() as usize
            } else {
                min + ((max - min) as f64 * q).round() as usize
            };
            let mut body = vec![0u8; size];
            content.fill(&mut body);
            WebFile {
                path: format!("/f{rank:04}.html"),
                hash: fnv1a(&body),
                body,
            }
        })
        .collect();
    Inputs::Http(HttpInputs {
        kind: HttpKind::Web { files },
        popularity: Zipf::new(count, s),
        order: Rng::new(seed),
    })
}

/// Computes the JPEG a correct image server returns for each
/// `(image, scale)` tag.
pub type Encoder<'a> = &'a dyn Fn(&ServerInputs, &[(u32, u32)]) -> Vec<Vec<u8>>;

/// Generates a workload's inputs from `seed` for `conns` request-issuing
/// connections (`pubsub_fanout` has one topic for each). `encode`
/// computes the expected JPEG of every `(image, scale)` tag of
/// `image_zipf`; the server child, which checks nothing, passes `None`.
pub fn generate(name: &str, seed: u64, conns: usize, encode: Option<Encoder>) -> Option<Inputs> {
    Some(match name {
        "web_small" => web_inputs(seed, 1000, 128, 4096, true, 1.0),
        "web_large" => web_inputs(seed, 32, 256 * 1024, 1024 * 1024, false, 0.0),
        "image_zipf" => {
            let count = IMAGE_COUNT * 8;
            // Rank → tag: consecutive ranks differ in scale and image,
            // so neither is tied to popularity.
            let tags: Vec<(u32, u32)> = (0..count)
                .map(|rank| {
                    let slot = (van_der_corput(rank) * count as f64).round() as usize;
                    ((slot / 8) as u32, (slot % 8) as u32 + 1)
                })
                .collect();
            let expected = encode.map_or_else(Vec::new, |e| e(&image_server(), &tags));
            let inputs = HttpInputs {
                kind: HttpKind::Image { tags, expected },
                popularity: Zipf::new(count, 0.8),
                order: Rng::new(seed),
            };
            Inputs::Http(inputs)
        }
        "pubsub_fanout" => Inputs::PubSub(
            (0..conns)
                .map(|i| TopicModel::new(format!("t{i}"), seed.wrapping_add(i as u64 * 0x9E37)))
                .collect(),
        ),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_a_byte_identical_request_stream() {
        for spec in &SPECS {
            let stream = |seed| -> Vec<u8> {
                let mut out = Vec::new();
                match generate(spec.name, seed, 2, None).unwrap() {
                    Inputs::Http(mut http) => {
                        for _ in 0..2000 {
                            out.extend(http.next_request().wire);
                        }
                    }
                    Inputs::PubSub(mut topics) => {
                        for _ in 0..500 {
                            for t in &mut topics {
                                out.extend(t.publish().0);
                            }
                        }
                    }
                }
                out
            };
            assert_eq!(stream(7), stream(7), "{}", spec.name);
            assert_ne!(stream(7), stream(8), "{}", spec.name);
        }
    }

    #[test]
    fn sizes_do_not_depend_on_the_seed() {
        let sizes = |seed| match generate("web_small", seed, 2, None).unwrap() {
            Inputs::Http(h) => h.web_files().iter().map(|f| f.body.len()).collect::<Vec<_>>(),
            _ => unreachable!(),
        };
        let a = sizes(1);
        assert_eq!(a, sizes(2));
        assert_eq!(a.len(), 1000);
        assert!(a.iter().all(|&s| (128..=4096).contains(&s)));
        // Log-uniform: about half the files are below the geometric mean.
        let small = a.iter().filter(|&&s| s < 724).count();
        assert!((450..=550).contains(&small), "{small}");
    }

    #[test]
    fn image_tags_cover_every_image_and_scale_once() {
        let Inputs::Http(h) = generate("image_zipf", 1, 2, None).unwrap() else {
            unreachable!()
        };
        let mut seen = std::collections::HashSet::new();
        for t in 0..h.targets() {
            assert!(seen.insert(h.path(t)));
        }
        assert_eq!(seen.len(), 128);
        assert!(seen.contains("/img0-1.jpg") && seen.contains("/img15-8.jpg"));
    }

    #[test]
    fn zipf_prefers_low_ranks_and_uniform_does_not() {
        let mut rng = Rng::new(3);
        let zipf = Zipf::new(100, 1.0);
        let uniform = Zipf::new(100, 0.0);
        let (mut z0, mut u0) = (0, 0);
        for _ in 0..10_000 {
            z0 += (zipf.sample(&mut rng) == 0) as u32;
            u0 += (uniform.sample(&mut rng) == 0) as u32;
        }
        assert!((1700..2200).contains(&z0), "{z0}"); // 1/H(100) = 0.193
        assert!((50..160).contains(&u0), "{u0}");
    }

    fn web_fixture() -> HttpInputs {
        match web_inputs(1, 4, 100, 200, false, 0.0) {
            Inputs::Http(h) => h,
            _ => unreachable!(),
        }
    }

    #[test]
    fn checker_rejects_a_flipped_byte_a_short_body_and_a_non_200() {
        let h = web_fixture();
        let good = h.web_files()[2].body.clone();
        assert_eq!(h.check(2, 200, &good), Ok(()));
        let mut flipped = good.clone();
        flipped[57] ^= 0x10;
        assert_eq!(h.check(2, 200, &flipped), Err("body hash differs"));
        assert_eq!(
            h.check(2, 200, &good[..good.len() - 1]),
            Err("body length differs")
        );
        assert_eq!(h.check(2, 404, &good), Err("status is not 200"));
        // Another file's body under this target is wrong too.
        let other = h.web_files()[1].body.clone();
        assert!(h.check(2, 200, &other).is_err());
    }

    #[test]
    fn image_checker_rejects_another_tags_bytes() {
        let fake = |_: &ServerInputs, tags: &[(u32, u32)]| -> Vec<Vec<u8>> {
            tags.iter()
                .map(|&(i, s)| vec![0xFF, 0xD8, i as u8, s as u8, 0xFF, 0xD9])
                .collect()
        };
        let Inputs::Http(h) = generate("image_zipf", 1, 2, Some(&fake)).unwrap() else {
            unreachable!()
        };
        let right = [0xFF, 0xD8, 0, 1, 0xFF, 0xD9];
        let target = (0..h.targets()).find(|&t| h.path(t) == "/img0-1.jpg").unwrap();
        assert_eq!(h.check(target, 200, &right), Ok(()));
        assert!(h.check(target + 1, 200, &right).is_err());
        assert_eq!(h.check(target, 200, &right[..4]), Err("JPEG markers missing"));
    }

    #[test]
    fn fnv_sees_every_byte_position() {
        let base: Vec<u8> = (0..100u8).collect();
        let h = fnv1a(&base);
        for i in 0..base.len() {
            let mut m = base.clone();
            m[i] ^= 1;
            assert_ne!(fnv1a(&m), h, "byte {i}");
        }
        assert_ne!(fnv1a(&base[..99]), h);
        let mut padded = base.clone();
        padded.push(0);
        assert_ne!(fnv1a(&padded), h);
    }

    #[test]
    fn topic_model_follows_the_window() {
        let mut t = TopicModel::new("t0".into(), 9);
        let mut last = Vec::new();
        for _ in 0..200 {
            last = t.publish().1;
        }
        let line = &last[..last.len() - 1];
        let m = parse_message(line).unwrap();
        assert_eq!((m.topic, m.seq), ("t0", 200));
        assert_eq!(std::str::from_utf8(line).unwrap().split(' ').nth(3), Some("64"));
        let text = std::str::from_utf8(line).unwrap();
        let topk = text.split(' ').nth(4).unwrap();
        let counts: Vec<u32> = topk
            .split(',')
            .map(|p| p.split_once(':').unwrap().1.parse().unwrap())
            .collect();
        assert_eq!(counts.len(), TOPK);
        assert!(counts.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn message_parser_rejects_an_oversized_count() {
        assert!(parse_message(b"MSG t0 5 64 v0:3 v1").is_ok());
        assert_eq!(
            parse_message(b"MSG t0 5 65 v0:3 v1").err(),
            Some("count exceeds the window")
        );
        assert!(parse_message(b"+OK t0").is_err());
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for s in &SPECS {
            assert!(crate::metrics::well_formed(s.name));
            assert!(seen.insert(s.name));
        }
    }
}
