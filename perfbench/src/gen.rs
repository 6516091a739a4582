//! Seeded inputs for every workload.
//!
//! All data comes from `pdb_data::generators::bipartite`; the benchmark only
//! renames relations and turns tuples into protocol lines. The same seed
//! gives the same data set and the same operation streams, so the
//! end-to-end run, the answer checks and the traced replay all see the same
//! inputs.

use pdb_data::{generators, TupleDb};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What an operation is, and which engine its generator intends.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Kind {
    /// A safe `query` with constants: the lifted engine answers it.
    Lifted,
    /// A #P-hard `R,S,T` query small enough for exact DPLL.
    Grounded,
    /// A #P-hard query far beyond the deadline: it degrades to
    /// Karp–Luby sampling with plan bounds.
    Approximate,
    /// A non-Boolean `answers` query.
    Answers,
    /// A `classify` query.
    Classify,
    /// A `view show`.
    ViewShow,
    /// An `update` of an existing tuple's probability.
    Update,
    /// An `insert` (a new tuple, or a new probability for an existing one).
    Insert,
}

impl Kind {
    /// Mutations: their latency is a write latency.
    pub fn is_write(self) -> bool {
        matches!(self, Kind::Update | Kind::Insert)
    }

    /// #P-hard queries: their latency is a hard-query latency.
    pub fn is_hard(self) -> bool {
        matches!(self, Kind::Grounded | Kind::Approximate)
    }

    /// The engine the server must report for a `query` of this kind.
    pub fn engine(self) -> Option<&'static str> {
        match self {
            Kind::Lifted => Some("Lifted"),
            Kind::Grounded => Some("Grounded"),
            Kind::Approximate => Some("Approximate"),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::Lifted => "lifted",
            Kind::Grounded => "grounded",
            Kind::Approximate => "approximate",
            Kind::Answers => "answers",
            Kind::Classify => "classify",
            Kind::ViewShow => "view_show",
            Kind::Update => "update",
            Kind::Insert => "insert",
        }
    }
}

/// One client operation: a protocol line and its kind.
#[derive(Clone, Debug)]
pub struct Op {
    pub line: String,
    pub kind: Kind,
}

impl Op {
    fn new(kind: Kind, line: String) -> Op {
        Op { line, kind }
    }
}

/// Small bipartite groups per data set (`R{g}`, `S{g}`, `T{g}`).
pub const SMALL_GROUPS: u64 = 40;
/// Smallest and largest size `n` of a small group (both sides); the sizes
/// cycle through this range, so every seed has the same size mix.
pub const SMALL_N: (u64, u64) = (5, 9);
/// Edge density of the small groups. Complete bipartite groups make the
/// cost of an exact count depend on the group sizes only, not on which
/// edges a seed happened to draw.
pub const SMALL_DENSITY: f64 = 1.0;
/// Large groups of `hard_deadline` (`HR{g}`, `HS{g}`, `HT{g}`).
pub const HARD_GROUPS: u64 = 4;
/// Size of a large group. An exact count over three of them takes about
/// 0.9 s on a 2-thread pool, 3.6 times the deadline, and ends before the
/// next #P-hard query is due.
pub const HARD_N: u64 = 13;
/// Edge density of the large groups: complete, like the small groups.
pub const HARD_DENSITY: f64 = 1.0;
/// Seconds between two #P-hard queries of `hard_deadline`: longer than
/// the helper thread of a timed-out query computes on, so helpers do not
/// pile up.
pub const HARD_INTERVAL_S: f64 = 2.5;
/// The `--timeout-ms` of `hard_deadline`.
pub const HARD_TIMEOUT_MS: u64 = 250;
/// Distinct keys in the Zipf-repeated share of `read_cascade`.
pub const POPULAR_KEYS: usize = 48;
/// Tuple probabilities are drawn uniformly from this range.
const PROB_RANGE: (f64, f64) = (0.05, 0.95);

/// One workload's inputs: the load script, the probe whose first correct
/// answer ends set-up, and a generator per client connection.
pub struct Inputs {
    pub load: Vec<String>,
    /// Protocol lines run after the load (view definitions).
    pub define: Vec<String>,
    pub probe: String,
    pub seed: u64,
    pub workload: Workload,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ReadCascade,
    IngestViews,
    HardDeadline,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ReadCascade,
        Workload::IngestViews,
        Workload::HardDeadline,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ReadCascade => "read_cascade",
            Workload::IngestViews => "ingest_views",
            Workload::HardDeadline => "hard_deadline",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

fn rng_for(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Appends `insert` lines for every tuple of `db`, renaming each relation
/// `X` to `X{suffix}`. Probabilities print in shortest round-trip form, so
/// the server parses back exactly the generated `f64`.
fn push_inserts(lines: &mut Vec<String>, db: &TupleDb, suffix: &str) {
    for rel in db.relations() {
        for (tuple, p) in rel.iter() {
            let consts: Vec<String> = tuple.values().iter().map(u64::to_string).collect();
            lines.push(format!(
                "insert {}{suffix} {} {p}",
                rel.name(),
                consts.join(" ")
            ));
        }
    }
}

/// Appends the inserts of the small groups.
fn small_groups(rng: &mut StdRng, lines: &mut Vec<String>) {
    for g in 0..SMALL_GROUPS {
        let n = SMALL_N.0 + g % (SMALL_N.1 - SMALL_N.0 + 1);
        let db = generators::bipartite(n, SMALL_DENSITY, PROB_RANGE, rng);
        push_inserts(lines, &db, &g.to_string());
    }
}

impl Inputs {
    pub fn new(workload: Workload, seed: u64) -> Inputs {
        let mut rng = rng_for(seed, 0);
        let mut load = Vec::new();
        let mut define = Vec::new();
        let probe;
        match workload {
            Workload::ReadCascade => {
                small_groups(&mut rng, &mut load);
                probe = "query exists y. S0(0,y) & T0(y)".to_string();
            }
            Workload::HardDeadline => {
                small_groups(&mut rng, &mut load);
                for g in 0..HARD_GROUPS {
                    let db = generators::bipartite(HARD_N, HARD_DENSITY, PROB_RANGE, &mut rng);
                    push_inserts(&mut load, &db, "");
                    // `bipartite` names its relations R, S, T.
                    let n = load.len();
                    for line in load[n - db.tuple_count()..].iter_mut() {
                        *line = line.replacen("insert ", &format!("insert H{g}"), 1);
                    }
                }
                probe = "query exists y. S0(0,y) & T0(y)".to_string();
            }
            Workload::IngestViews => {
                // V* and W* sit under the views and take the updates; L*
                // takes the inserts; C* is never written.
                for (prefix, n) in [("V", 6), ("W", 12), ("L", 6), ("C", 6)] {
                    let db = generators::bipartite(n, SMALL_DENSITY, PROB_RANGE, &mut rng);
                    let start = load.len();
                    push_inserts(&mut load, &db, "");
                    for line in load[start..].iter_mut() {
                        *line = line.replacen("insert ", &format!("insert {prefix}"), 1);
                    }
                }
                define = INGEST_VIEWS
                    .iter()
                    .map(|(name, def)| format!("view create {name} {def}"))
                    .collect();
                probe = "view show v1".to_string();
            }
        }
        Inputs {
            load,
            define,
            probe,
            seed,
            workload,
        }
    }

    /// The operation stream of client connection `conn` (0 or 1).
    pub fn stream(&self, conn: u64) -> OpStream {
        OpStream::new(self, conn)
    }

    /// The first `count` #P-hard queries of `hard_deadline`, in send order.
    pub fn hard_queries(&self, count: usize) -> Vec<Op> {
        let mut rng = rng_for(self.seed, 7);
        let mut triples: Vec<(u64, u64, u64)> = Vec::new();
        while triples.len() < count.min(HARD_GROUPS.pow(3) as usize) {
            let t = (
                rng.gen_range(0..HARD_GROUPS),
                rng.gen_range(0..HARD_GROUPS),
                rng.gen_range(0..HARD_GROUPS),
            );
            if !triples.contains(&t) {
                triples.push(t);
            }
        }
        triples
            .into_iter()
            .map(|(g, h, k)| {
                Op::new(
                    Kind::Approximate,
                    format!("query exists x. exists y. H{g}R(x) & H{h}S(x,y) & H{k}T(y)"),
                )
            })
            .collect()
    }
}

/// The materialized views of `ingest_views`: two Boolean, two `answers`.
pub const INGEST_VIEWS: [(&str, &str); 4] = [
    ("v1", "query exists x. exists y. VR(x) & VS(x,y) & VT(y)"),
    ("v2", "query exists x. exists y. WR(x) & WS(x,y)"),
    ("v3", "answers x : VR(x), VS(x,y)"),
    ("v4", "answers y : WS(x,y), WT(y)"),
];

/// A Zipf(s) sampler over ranks `0..n`.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Zipf {
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

    fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// An endless, seeded stream of operations for one client connection.
pub struct OpStream {
    rng: StdRng,
    workload: Workload,
    conn: u64,
    popular: Vec<Op>,
    zipf: Zipf,
    /// `ingest_views`: the tuples updates pick from, hottest first.
    update_keys: Vec<(String, Vec<u64>)>,
    /// `ingest_views`: the hot read set.
    hot: Vec<Op>,
}

impl OpStream {
    fn new(inputs: &Inputs, conn: u64) -> OpStream {
        let rng = rng_for(inputs.seed, 1 + conn);
        let mut stream = OpStream {
            rng: rng_for(inputs.seed, 100),
            workload: inputs.workload,
            conn,
            popular: Vec::new(),
            zipf: Zipf::new(POPULAR_KEYS, 1.1),
            update_keys: Vec::new(),
            hot: Vec::new(),
        };
        match inputs.workload {
            Workload::ReadCascade => {
                // The popular keys are shared by both connections.
                // Same mix as the cold reads, in a fixed order of kinds, so
                // the share of cache hits per kind is the same for every seed.
                stream.popular = (0..POPULAR_KEYS)
                    .map(|i| stream.read_of_mix(((i % 10) as f64 + 0.5) / 10.0))
                    .collect();
            }
            Workload::IngestViews => {
                for line in &inputs.load {
                    let parts: Vec<&str> = line.split_whitespace().collect();
                    let rel = parts[1];
                    if rel.starts_with('V') || rel.starts_with('W') {
                        let consts = parts[2..parts.len() - 1]
                            .iter()
                            .map(|c| c.parse().expect("generated constant"))
                            .collect();
                        stream.update_keys.push((rel.to_string(), consts));
                    }
                }
                // Shuffle so the Zipf head is spread over the relations.
                for i in (1..stream.update_keys.len()).rev() {
                    let j = stream.rng.gen_range(0..=i as u64) as usize;
                    stream.update_keys.swap(i, j);
                }
                stream.zipf = Zipf::new(stream.update_keys.len(), 0.9);
                stream.hot = ingest_hot_set();
            }
            Workload::HardDeadline => {}
        }
        stream.rng = rng;
        stream
    }

    fn group(&mut self) -> u64 {
        self.rng.gen_range(0..SMALL_GROUPS)
    }

    /// A read over the small groups whose key is almost never repeated.
    fn cold_read(&mut self) -> Op {
        let r: f64 = self.rng.gen();
        self.read_of_mix(r)
    }

    /// The read at point `r` in [0, 1) of the `read_cascade` mix: 30 %
    /// grounded, 40 % lifted, 18 % `answers`, 12 % `classify`.
    fn read_of_mix(&mut self, r: f64) -> Op {
        let (g, h, k) = (self.group(), self.group(), self.group());
        let c = self.rng.gen_range(0..2 * SMALL_N.1);
        if r < 0.30 {
            Op::new(
                Kind::Grounded,
                format!("query exists x. exists y. R{g}(x) & S{h}(x,y) & T{k}(y)"),
            )
        } else if r < 0.45 {
            Op::new(
                Kind::Lifted,
                format!("query exists y. S{h}({c},y) & T{k}(y)"),
            )
        } else if r < 0.60 {
            Op::new(
                Kind::Lifted,
                format!("query exists x. R{g}(x) & S{h}(x,{c})"),
            )
        } else if r < 0.70 {
            Op::new(
                Kind::Lifted,
                format!("query R{g}({c}) & exists y. S{h}({c},y)"),
            )
        } else if r < 0.80 {
            Op::new(Kind::Answers, format!("answers x : R{g}(x), S{h}(x,y)"))
        } else if r < 0.88 {
            Op::new(Kind::Answers, format!("answers y : S{h}(x,y), T{k}(y)"))
        } else if r < 0.94 {
            Op::new(
                Kind::Classify,
                format!("classify R{g}(x), S{h}(x,y), T{k}(y)"),
            )
        } else {
            Op::new(Kind::Classify, format!("classify R{g}(x), S{h}(x,y)"))
        }
    }

    /// A cheap read whose key is almost never repeated: the lifted and
    /// `answers` part of the mix (69 % lifted, 31 % `answers`).
    fn cheap_read(&mut self) -> Op {
        let r: f64 = self.rng.gen_range(0.30..0.88);
        self.read_of_mix(r)
    }

    fn write(&mut self) -> Op {
        if self.rng.gen_bool(0.15) {
            let x = self.rng.gen_range(0..6u64);
            let y = self.rng.gen_range(6..12u64);
            let p: f64 = self.rng.gen_range(PROB_RANGE.0..PROB_RANGE.1);
            Op::new(Kind::Insert, format!("insert LS {x} {y} {p}"))
        } else {
            let (rel, consts) = &self.update_keys[self.zipf.sample(&mut self.rng)];
            let consts: Vec<String> = consts.iter().map(u64::to_string).collect();
            let p: f64 = self.rng.gen_range(PROB_RANGE.0..PROB_RANGE.1);
            Op::new(
                Kind::Update,
                format!("update {rel} {} {p}", consts.join(" ")),
            )
        }
    }
}

/// The hot read set of `ingest_views`: two view shows, two reads of the
/// never-written `C*` relations (cache hits), and seven reads of written
/// relations (`answers` are never cached; the queries are invalidated by
/// the write stream). Most reads compute something, so their latency is not
/// just a loopback round trip.
pub fn ingest_hot_set() -> Vec<Op> {
    let mut hot = Vec::new();
    for (kind, line) in [
        (Kind::ViewShow, "view show v1"),
        (Kind::ViewShow, "view show v4"),
        (Kind::Lifted, "query exists x. exists y. CR(x) & CS(x,y)"),
        (Kind::Classify, "classify CR(x), CS(x,y), CT(y)"),
        (Kind::Answers, "answers x : WR(x), WS(x,y)"),
        (Kind::Answers, "answers y : WS(x,y), WT(y)"),
        (Kind::Answers, "answers x : VR(x), VS(x,y)"),
        (Kind::Answers, "answers x : LR(x), LS(x,y)"),
        (Kind::Lifted, "query exists x. exists y. WR(x) & WS(x,y)"),
        (
            Kind::Grounded,
            "query exists x. exists y. LR(x) & LS(x,y) & LT(y)",
        ),
        (
            Kind::Grounded,
            "query exists x. exists y. VR(x) & VS(x,y) & VT(y)",
        ),
    ] {
        hot.push(Op::new(kind, line.to_string()));
    }
    hot
}

impl Iterator for OpStream {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        Some(match (self.workload, self.conn) {
            (Workload::ReadCascade, _) => {
                if self.rng.gen_bool(0.25) {
                    let rank = self.zipf.sample(&mut self.rng);
                    self.popular[rank].clone()
                } else {
                    self.cold_read()
                }
            }
            (Workload::IngestViews, 0) => self.write(),
            (Workload::IngestViews, _) => {
                let i = self.rng.gen_range(0..self.hot.len() as u64) as usize;
                self.hot[i].clone()
            }
            (Workload::HardDeadline, _) => self.cheap_read(),
        })
    }
}
