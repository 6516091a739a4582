//! The traced run's per-layer metrics.
//!
//! After the end-to-end run (whose server is scraped with `metrics`), the
//! same seeded operations are replayed in-process:
//!
//! - once through `Service::handle_line`, for the front-end cost;
//! - twice through each layer's public functions, with spans recorded by
//!   this module around every call (once with spans on, once off, for the
//!   tracing overhead).
//!
//! The replay covers the workload's own operations (in the order the
//! clients sent them) and a short slice of each other workload's inputs,
//! so every layer is reached in every traced run. A span-based metric uses
//! the workload's own operations when they reach the layer, else the
//! slices. Unit costs run on fixed seeded inputs, the same for every
//! workload.

use crate::check;
use crate::e2e::RunOutput;
use crate::gen::{Inputs, Kind, Op, Workload, HARD_DENSITY, HARD_N, INGEST_VIEWS};
use crate::spans::{self, Recorder, Span};
use crate::stats::{mean, median};
use pdb_core::{ProbDb, QueryOptions};
use pdb_data::Tuple;
use pdb_lineage::{BoolExpr, Cnf};
use pdb_replica::{ReplicaFeed, ReplicaHub, ReplicaStatus};
use pdb_server::protocol::{format_view_show, parse_command, Command, ViewCommand, ViewQueryText};
use pdb_server::{Service, ServiceOptions};
use pdb_store::{FsyncPolicy, RealFs, Store, StoreOptions, WalOp};
use pdb_views::{ViewDefState, ViewManager};
use pdb_wmc::{DpllOptions, DpllStats};
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The workload's own operations replayed per pass, at most.
const OWN_OPS: usize = 1000;
/// Operations of each other workload replayed per pass.
const SLICE_OPS: usize = 200;
const OWN: u8 = 0;
const SLICE: u8 = 1;
/// The crates whose non-blank, non-comment lines are counted.
const CRATES: [&str; 25] = [
    "analyze",
    "bench",
    "bid",
    "compile",
    "core",
    "criterion",
    "data",
    "datalog",
    "kernel",
    "lifted",
    "lineage",
    "logic",
    "mln",
    "num",
    "obs",
    "par",
    "plans",
    "proptest",
    "rand",
    "replica",
    "server",
    "store",
    "symmetric",
    "views",
    "wmc",
];

/// Counts the replay gathers besides spans, each tagged with its source.
#[derive(Default)]
struct Counts {
    dpll: Vec<(DpllStats, u8)>,
    lineage: Vec<(usize, usize, u8)>,
    lifted: Vec<(bool, u8)>,
    views: Vec<(usize, usize, u8)>,
    bound_widths: Vec<(f64, u8)>,
}

/// One input set replayed against in-process engine state.
struct Replayer<'r> {
    rec: &'r Recorder,
    source: u8,
    db: ProbDb,
    views: ViewManager,
    store: Option<Store>,
    hub: Option<(Arc<ReplicaHub>, ReplicaFeed)>,
    replica: Option<Service>,
    pool: pdb_par::Pool,
}

fn open_store(dir: &Path) -> Result<Store, String> {
    let _ = std::fs::remove_dir_all(dir);
    let opts = StoreOptions {
        fsync: FsyncPolicy::Always,
        ..StoreOptions::default()
    };
    Store::open(Arc::new(RealFs), dir, opts)
        .map(|(store, _)| store)
        .map_err(|e| format!("{}: {e}", dir.display()))
}

impl<'r> Replayer<'r> {
    fn new(rec: &'r Recorder, source: u8, inputs: &Inputs, dir: &Path) -> Result<Self, String> {
        let db = check::load(&inputs.load)?;
        let mut replayer = Replayer {
            rec,
            source,
            db,
            views: ViewManager::new(),
            store: None,
            hub: None,
            replica: None,
            pool: pdb_par::global().clone(),
        };
        if inputs.workload != Workload::IngestViews {
            return Ok(replayer);
        }
        rec.set_source(source);
        let replica = Service::new_replica(
            "replay",
            Arc::new(ReplicaStatus::new()),
            ServiceOptions::default(),
        );
        for line in &inputs.load {
            if let Command::Insert {
                relation,
                tuple,
                prob,
            } = parse_command(line)?
            {
                replica.apply_replicated(&WalOp::Insert {
                    relation,
                    tuple,
                    prob,
                })?;
            }
        }
        for (name, def) in INGEST_VIEWS {
            let view_def = check::view_def(def)?;
            let def_state = match check::view_query(def)? {
                ViewQueryText::Boolean(q) => ViewDefState::Boolean(q),
                ViewQueryText::Answers { head, cq } => ViewDefState::Answers { head, body: cq },
            };
            let _root = rec.span("op.view_create");
            rec.time("views.compile", || {
                replayer
                    .views
                    .create(name, view_def, &replayer.db)
                    .map(|_| ())
            })
            .map_err(|e| e.to_string())?;
            replica.apply_replicated(&WalOp::ViewCreate {
                name: name.to_string(),
                def: def_state,
            })?;
        }
        let store = open_store(dir)?;
        let hub = Arc::new(ReplicaHub::new(store.next_lsn(), Duration::from_secs(3600)));
        let feed = hub.register();
        replayer.store = Some(store);
        replayer.hub = Some((hub, feed));
        replayer.replica = Some(replica);
        Ok(replayer)
    }

    fn op(&mut self, op: &Op, counts: &mut Counts) -> Result<(), String> {
        let rec = self.rec;
        rec.set_source(self.source);
        let root = rec.span(root_name(op.kind));
        let cmd = rec.time("server.parse_command", || parse_command(&op.line))?;
        let tdb = self.db.tuple_db();
        match cmd {
            Command::Query(text) => {
                let fo = rec
                    .time("logic.parse_fo", || pdb_logic::parse_fo(&text))
                    .map_err(|e| e.to_string())?;
                let lifted = rec.time("lifted.probability_fo", || {
                    pdb_lifted::probability_fo(&fo, tdb)
                });
                counts.lifted.push((lifted.is_ok(), self.source));
                if lifted.is_ok() {
                    return Ok(());
                }
                let index = rec.time("data.index", || tdb.index());
                let (lineage, probs) = rec.time("lineage.build", || {
                    let lineage = pdb_lineage::lineage(&fo, tdb, &index);
                    let probs: Vec<f64> = index.iter().map(|(_, r)| r.prob).collect();
                    (lineage, probs)
                });
                let Some((cnf, cnf_probs)) =
                    rec.time("lineage.cnf", || exact_cnf(&lineage, &probs))
                else {
                    return Ok(());
                };
                counts
                    .lineage
                    .push((lineage.vars().len(), cnf.clauses.len(), self.source));
                // A query that timed out is answered by the server's
                // post-deadline path: the cascade with one exact decision.
                let opts = if op.kind == Kind::Approximate {
                    QueryOptions {
                        exact_budget: 1,
                        samples: check::DEGRADED_SAMPLES,
                        ..QueryOptions::default()
                    }
                } else {
                    QueryOptions::default()
                };
                let options = DpllOptions {
                    max_decisions: opts.exact_budget,
                    ..DpllOptions::default()
                };
                let result = rec.time("wmc.dpll", || {
                    pdb_wmc::run_parallel(&cnf, &cnf_probs, options, &self.pool)
                });
                counts.dpll.push((result.stats, self.source));
                if !result.aborted {
                    return Ok(());
                }
                let ucq = fo.to_ucq().ok_or("a timed-out query must be a UCQ")?;
                let dnf = rec.time("lineage.dnf_build", || {
                    pdb_lineage::ucq_dnf_lineage(&ucq, tdb, &index)
                });
                rec.time("wmc.karp_luby", || {
                    pdb_wmc::karp_luby::estimate_chunked(
                        &dnf,
                        &probs,
                        opts.samples,
                        opts.seed,
                        &self.pool,
                    )
                });
                // Plan bounds under the same conditions as `ProbDb::query_fo`.
                match ucq.disjuncts() {
                    [cq] if !cq.has_self_join() && cq.atoms().len() <= 6 => {
                        let b = rec.time("plans.bounds", || pdb_plans::bounds::bounds(cq, tdb));
                        counts.bound_widths.push((b.upper - b.lower, self.source));
                    }
                    _ => {}
                }
            }
            Command::Answers { head, cq } => {
                let parsed = rec
                    .time("logic.parse_cq", || pdb_logic::parse_cq(&cq))
                    .map_err(|e| e.to_string())?;
                let vars: Vec<pdb_logic::Var> =
                    head.iter().map(|v| pdb_logic::Var::new(v)).collect();
                let candidates = rec.time("lineage.answer_bindings", || {
                    pdb_lineage::cq_answer_bindings(&parsed, &vars, tdb)
                });
                for values in candidates {
                    let mut bound = parsed.clone();
                    for (v, &c) in vars.iter().zip(&values) {
                        bound = bound.substitute(v, &pdb_logic::Term::Const(c));
                    }
                    let fo = bound.to_fo();
                    let lifted = rec.time("lifted.probability_fo", || {
                        pdb_lifted::probability_fo(&fo, tdb)
                    });
                    counts.lifted.push((lifted.is_ok(), self.source));
                }
            }
            Command::Classify(text) => {
                let ucq = rec
                    .time("logic.parse_ucq", || pdb_logic::parse_ucq(&text))
                    .map_err(|e| e.to_string())?;
                rec.time("lifted.classify", || pdb_core::classify_ucq(&ucq));
            }
            Command::View(ViewCommand::Show { name }) => {
                rec.time("views.show", || self.views.get(&name).map(format_view_show));
            }
            Command::Update {
                relation,
                tuple,
                prob,
            } => {
                let t = Tuple::new(tuple.clone());
                let version = rec
                    .time("core.update_prob", || {
                        self.db.update_prob(&relation, &t, prob)
                    })
                    .ok_or("update of a missing tuple")?;
                let touching = self
                    .views
                    .iter()
                    .filter(|v| v.relations().contains(&relation))
                    .count();
                let absorbed = rec.time("views.on_update", || {
                    self.views.on_update_prob(&relation, &t, prob, version)
                });
                counts.views.push((absorbed, touching, self.source));
                let wal = WalOp::UpdateProb {
                    relation,
                    tuple,
                    prob,
                };
                self.log(&wal)?;
                drop(root);
                self.apply_on_replica(&wal)?;
            }
            Command::Insert {
                relation,
                tuple,
                prob,
            } => {
                let version = rec.time("core.insert", || {
                    self.db.insert(&relation, tuple.clone(), prob);
                    self.db.relation_version(&relation)
                });
                rec.time("views.on_insert", || {
                    self.views.on_insert(&relation, version)
                });
                let wal = WalOp::Insert {
                    relation,
                    tuple,
                    prob,
                };
                self.log(&wal)?;
                drop(root);
                self.apply_on_replica(&wal)?;
            }
            other => return Err(format!("cannot replay {other:?}")),
        }
        Ok(())
    }

    /// WAL append, replication fan-out, and a checkpoint when one is due.
    fn log(&mut self, wal: &WalOp) -> Result<(), String> {
        let rec = self.rec;
        let store = self.store.as_mut().ok_or("a write needs a store")?;
        let lsn = rec
            .time("store.append", || store.append(wal))
            .map_err(|e| e.to_string())?;
        if let Some((hub, feed)) = &self.hub {
            rec.time("replica.publish", || hub.publish(lsn, wal));
            while let Ok(Some(_)) = feed.try_recv() {}
        }
        if store.should_checkpoint() {
            let states = self.views.export_states();
            rec.time("store.checkpoint", || store.checkpoint(&self.db, &states))
                .map_err(|e| e.to_string())?;
        }
        Ok(())
    }

    fn apply_on_replica(&mut self, wal: &WalOp) -> Result<(), String> {
        if let Some(replica) = &self.replica {
            let _root = self.rec.span("op.replica_apply");
            self.rec
                .time("replica.apply", || replica.apply_replicated(wal))?;
        }
        Ok(())
    }
}

fn root_name(kind: Kind) -> &'static str {
    match kind {
        Kind::Lifted => "op.lifted",
        Kind::Grounded => "op.grounded",
        Kind::Approximate => "op.approximate",
        Kind::Answers => "op.answers",
        Kind::Classify => "op.classify",
        Kind::ViewShow => "op.view_show",
        Kind::Update => "op.update",
        Kind::Insert => "op.insert",
    }
}

/// The workload's own operations in the order the clients sent them,
/// with their client-side latencies.
fn own_ops(out: &RunOutput) -> Vec<(Op, f64)> {
    let mut all: Vec<_> = out.records.iter().flatten().collect();
    all.sort_by(|a, b| a.sent.total_cmp(&b.sent));
    all.into_iter()
        .take(OWN_OPS)
        .map(|r| (r.op.clone(), r.latency_ms))
        .collect()
}

/// The first operations of another workload's streams, interleaved as
/// its clients would send them.
fn slice_ops(inputs: &Inputs) -> Vec<Op> {
    match inputs.workload {
        Workload::ReadCascade => inputs.stream(0).take(SLICE_OPS).collect(),
        Workload::IngestViews => {
            let mut writes = inputs.stream(0);
            let mut reads = inputs.stream(1);
            (0..SLICE_OPS)
                .map(|i| {
                    if i % 7 == 6 {
                        reads.next()
                    } else {
                        writes.next()
                    }
                    .expect("endless stream")
                })
                .collect()
        }
        Workload::HardDeadline => {
            let mut ops: Vec<Op> = inputs.hard_queries(2);
            ops.extend(inputs.stream(1).take(SLICE_OPS - ops.len()));
            ops
        }
    }
}

/// Replays the own operations and the slices; returns the wall time.
fn replay_all(
    rec: &Recorder,
    inputs: &Inputs,
    own: &[(Op, f64)],
    slices: &[(Inputs, Vec<Op>)],
    work: &Path,
    counts: &mut Counts,
) -> Result<f64, String> {
    let start = Instant::now();
    let mut replayer = Replayer::new(rec, OWN, inputs, &work.join("replay-own"))?;
    for (op, _) in own {
        replayer.op(op, counts)?;
    }
    drop(replayer);
    for (i, (slice_inputs, ops)) in slices.iter().enumerate() {
        let dir = work.join(format!("replay-slice-{i}"));
        let mut replayer = Replayer::new(rec, SLICE, slice_inputs, &dir)?;
        for op in ops {
            replayer.op(op, counts)?;
        }
    }
    Ok(start.elapsed().as_secs_f64())
}

/// `Service::handle_line` on the own operations, as the server would run
/// them; returns each operation's in-process latency and the service.
fn front_end_pass(
    inputs: &Inputs,
    own: &[(Op, f64)],
    work: &Path,
) -> Result<(Vec<f64>, Service), String> {
    let opts = ServiceOptions {
        query_timeout: if inputs.workload == Workload::HardDeadline {
            Duration::from_millis(crate::gen::HARD_TIMEOUT_MS)
        } else {
            ServiceOptions::default().query_timeout
        },
        ..ServiceOptions::default()
    };
    let service = if inputs.workload == Workload::IngestViews {
        let store = open_store(&work.join("front-end-store"))?;
        Service::with_store(ProbDb::new(), ViewManager::new(), store, opts)
    } else {
        Service::new(ProbDb::new(), opts)
    };
    for line in inputs.load.iter().chain(&inputs.define) {
        service.handle_line(line);
    }
    let mut latencies = Vec::new();
    for (op, _) in own {
        // A timed-out query would leave a helper thread computing for
        // minutes in this process; those are replayed by layer only.
        if op.kind == Kind::Approximate {
            continue;
        }
        let start = Instant::now();
        service.handle_line(&op.line);
        latencies.push(start.elapsed().as_secs_f64() * 1e3);
    }
    Ok((latencies, service))
}

/// Unit costs on fixed seeded inputs, the same for every workload.
struct UnitCosts {
    us_per_decision: f64,
    kl_ns_per_sample: f64,
    ns_per_gate: f64,
    ns_per_gate_batch: f64,
    append_us: f64,
}

/// The CNF `try_exact` in pdb-core counts for `lineage`, with one
/// probability per variable (Tseitin auxiliaries at 1/2); `None` for a
/// constant lineage, which needs no count.
fn exact_cnf(lineage: &BoolExpr, probs: &[f64]) -> Option<(Cnf, Vec<f64>)> {
    let n = probs.len() as u32;
    let cnf = match lineage {
        BoolExpr::Const(_) => return None,
        _ if lineage.is_monotone_dnf() => Cnf::from_negated_dnf(lineage, n),
        _ => Cnf::from_expr_direct(lineage, n).unwrap_or_else(|| Cnf::tseitin(lineage, n)),
    };
    let mut all = probs.to_vec();
    all.resize(cnf.num_vars as usize, 0.5);
    Some((cnf, all))
}

fn unit_costs(seed: u64, work: &Path) -> Result<UnitCosts, String> {
    let pool = pdb_par::global().clone();
    let h0 = pdb_logic::parse_fo("exists x. exists y. R(x) & S(x,y) & T(y)")
        .map_err(|e| e.to_string())?;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);

    // DPLL and Karp–Luby on a hard instance.
    let hard = pdb_data::generators::bipartite(HARD_N, HARD_DENSITY, (0.05, 0.95), &mut rng);
    let index = hard.index();
    let probs: Vec<f64> = index.iter().map(|(_, r)| r.prob).collect();
    let cnf = Cnf::from_negated_dnf(
        &pdb_lineage::lineage(&h0, &hard, &index),
        probs.len() as u32,
    );
    let options = DpllOptions {
        max_decisions: 20_000,
        ..DpllOptions::default()
    };
    let start = Instant::now();
    let result = std::hint::black_box(pdb_wmc::run_parallel(&cnf, &probs, options, &pool));
    let us_per_decision =
        start.elapsed().as_secs_f64() * 1e6 / result.stats.decisions.max(1) as f64;
    let ucq = h0.to_ucq().ok_or("H0 is a UCQ")?;
    let dnf = pdb_lineage::ucq_dnf_lineage(&ucq, &hard, &index);
    let samples = 200_000;
    let start = Instant::now();
    std::hint::black_box(pdb_wmc::karp_luby::estimate_chunked(
        &dnf, &probs, samples, seed, &pool,
    ));
    let kl_ns_per_sample = start.elapsed().as_secs_f64() * 1e9 / samples as f64;

    // The flat kernel on the circuit of a view-sized instance.
    let small = pdb_data::generators::bipartite(6, 1.0, (0.05, 0.95), &mut rng);
    let index = small.index();
    let probs: Vec<f64> = index.iter().map(|(_, r)| r.prob).collect();
    let cnf = Cnf::from_negated_dnf(
        &pdb_lineage::lineage(&h0, &small, &index),
        probs.len() as u32,
    );
    let traced = pdb_wmc::Dpll::new(
        &cnf,
        probs.clone(),
        DpllOptions {
            record_trace: true,
            ..DpllOptions::default()
        },
    )
    .run();
    let trace = traced.trace.ok_or("DPLL recorded no trace")?;
    let program = pdb_compile::DecisionDnnf::from_trace(&trace).flatten();
    let evals = 20_000;
    let start = Instant::now();
    for _ in 0..evals {
        std::hint::black_box(program.eval(std::hint::black_box(&probs)));
    }
    let ns_per_gate = start.elapsed().as_secs_f64() * 1e9 / (evals * program.len()) as f64;
    let lanes = 64;
    let stacked: Vec<f64> = (0..lanes).flat_map(|_| probs.iter().copied()).collect();
    let batches = evals / lanes;
    let start = Instant::now();
    for _ in 0..batches {
        std::hint::black_box(program.eval_batch(std::hint::black_box(&stacked), probs.len()));
    }
    let ns_per_gate_batch =
        start.elapsed().as_secs_f64() * 1e9 / (batches * lanes * program.len()) as f64;

    // WAL append + fsync, same policy as `ingest_views`.
    let mut store = open_store(&work.join("unit-store"))?;
    let mut append = Vec::new();
    for i in 0..300u64 {
        let op = WalOp::UpdateProb {
            relation: "R".into(),
            tuple: vec![i % 16],
            prob: 0.5,
        };
        let start = Instant::now();
        store.append(&op).map_err(|e| e.to_string())?;
        append.push(start.elapsed().as_secs_f64() * 1e6);
    }
    // One checkpoint of the hard instance, so `store.checkpoint_ms` has a
    // sample on workloads whose server never checkpoints.
    store
        .checkpoint(&ProbDb::from_tuple_db(hard), &[])
        .map_err(|e| e.to_string())?;
    Ok(UnitCosts {
        us_per_decision,
        kl_ns_per_sample,
        ns_per_gate,
        ns_per_gate_batch,
        append_us: median(&append).unwrap_or(f64::NAN),
    })
}

/// Samples of a `metrics` scrape: series (name plus labels) → value.
fn parse_scrape(text: &str) -> Result<BTreeMap<String, f64>, String> {
    pdb_obs::expo::validate(text).map_err(|e| format!("metrics scrape: {e}"))?;
    Ok(text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .filter_map(|l| {
            let (series, value) = l.rsplit_once(' ')?;
            Some((series.to_string(), value.parse().ok()?))
        })
        .collect())
}

/// The median of a histogram family from its cumulative buckets, by
/// linear interpolation inside the bucket holding the middle sample.
fn histogram_median(samples: &BTreeMap<String, f64>, family: &str) -> Option<f64> {
    let prefix = format!("{family}_bucket{{le=\"");
    let mut buckets: Vec<(f64, f64)> = samples
        .iter()
        .filter_map(|(k, v)| {
            let le = k.strip_prefix(&prefix)?.strip_suffix("\"}")?;
            let le = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse().ok()?
            };
            Some((le, *v))
        })
        .collect();
    buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total = buckets.last()?.1;
    if total == 0.0 {
        return None;
    }
    let half = total / 2.0;
    let (mut lo, mut below) = (0.0, 0.0);
    for (le, count) in buckets {
        if count >= half {
            if le.is_infinite() {
                return Some(lo);
            }
            let share = (half - below) / (count - below).max(1.0);
            return Some(lo + (le - lo) * share);
        }
        lo = le;
        below = count;
    }
    None
}

/// Non-blank lines outside comments under `crates/<name>/src`.
fn loc(name: &str) -> f64 {
    fn walk(dir: &Path, total: &mut usize) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, total);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let text = std::fs::read_to_string(&path).unwrap_or_default();
                let mut in_block = false;
                for line in text.lines().map(str::trim) {
                    if in_block || line.starts_with("/*") {
                        in_block = !line.contains("*/");
                    } else if !line.is_empty() && !line.starts_with("//") {
                        *total += 1;
                    }
                }
            }
        }
    }
    let mut total = 0;
    walk(&Path::new("crates").join(name).join("src"), &mut total);
    total as f64
}

/// Span samples for a metric: the workload's own spans when it has any,
/// else the slices'.
fn pick<'a>(spans: &'a [Span], name: &str) -> Vec<&'a Span> {
    let own: Vec<&Span> = spans
        .iter()
        .filter(|s| s.name == name && s.source == OWN)
        .collect();
    if !own.is_empty() {
        return own;
    }
    spans.iter().filter(|s| s.name == name).collect()
}

fn span_median_us(spans: &[Span], name: &str) -> f64 {
    let us: Vec<f64> = pick(spans, name)
        .iter()
        .map(|s| s.duration() as f64 / 1e3)
        .collect();
    median(&us).unwrap_or(f64::NAN)
}

/// Own samples when there are any, else all of them.
fn own_else_all<T: Copy>(items: &[(T, u8)]) -> Vec<T> {
    let own: Vec<T> = items
        .iter()
        .filter(|(_, s)| *s == OWN)
        .map(|(t, _)| *t)
        .collect();
    if own.is_empty() {
        items.iter().map(|(t, _)| *t).collect()
    } else {
        own
    }
}

/// Self-time share of each layer within the operations rooted at `roots`
/// (own operations when there are any, else the slices').
fn layer_shares(spans: &[Span], root_names: &[&str]) -> BTreeMap<&'static str, f64> {
    let selfs = spans::self_times(spans);
    let root_of = spans::roots(spans);
    let is_root = |i: usize, source: Option<u8>| {
        let r = &spans[root_of[i]];
        root_names.contains(&r.name) && source.is_none_or(|s| r.source == s)
    };
    let source = if (0..spans.len()).any(|i| is_root(i, Some(OWN))) {
        Some(OWN)
    } else {
        None
    };
    let mut by_layer: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut total = 0.0;
    for (i, s) in spans.iter().enumerate() {
        if is_root(i, source) {
            // A root's own time is the replay's glue between layer calls.
            let layer = if s.parent.is_none() {
                "other"
            } else {
                s.layer()
            };
            *by_layer.entry(layer).or_default() += selfs[i] as f64;
            total += selfs[i] as f64;
        }
    }
    for v in by_layer.values_mut() {
        *v /= total.max(1.0);
    }
    by_layer
}

pub fn run(
    inputs: &Inputs,
    out: &RunOutput,
    work: &Path,
) -> Result<Vec<(String, f64, String)>, String> {
    let server = parse_scrape(&out.scrape)?;
    let own = own_ops(out);
    let slices: Vec<(Inputs, Vec<Op>)> = Workload::ALL
        .into_iter()
        .filter(|w| *w != inputs.workload)
        .map(|w| {
            let other = Inputs::new(w, inputs.seed);
            let ops = slice_ops(&other);
            (other, ops)
        })
        .collect();

    let (in_process_ms, service) = front_end_pass(inputs, &own, work)?;
    // Spans off and on, twice each in turn; the overhead compares the
    // faster pass of each, the metrics use the last traced pass.
    let mut best = [f64::INFINITY; 2];
    let mut counts = Counts::default();
    let mut traced = Recorder::new(true);
    for round in 0..4 {
        let on = round % 2 == 1;
        let recorder = Recorder::new(on);
        let mut round_counts = Counts::default();
        let t = replay_all(&recorder, inputs, &own, &slices, work, &mut round_counts)?;
        best[usize::from(on)] = best[usize::from(on)].min(t);
        if on {
            traced = recorder;
            counts = round_counts;
        }
    }
    let (t_off, t_on) = (best[0], best[1]);
    let unit = unit_costs(inputs.seed, work)?;
    // The bench process's registry now holds the replay's and the unit
    // costs' store counters.
    let local = parse_scrape(&service_free_scrape(&service.metrics_text()))?;

    let spans = traced.spans();
    let trace_file = work.join(format!(
        "trace-{}-{}.json",
        inputs.workload.name(),
        inputs.seed
    ));
    std::fs::write(&trace_file, spans::chrome_json(&spans))
        .map_err(|e| format!("{}: {e}", trace_file.display()))?;
    println!(
        "span file: {} ({} spans)",
        trace_file.display(),
        spans.len()
    );
    for (label, roots) in [
        ("grounded reads", &["op.grounded"][..]),
        ("writes", &["op.update", "op.insert"][..]),
        ("timed-out queries", &["op.approximate"][..]),
    ] {
        let shares: Vec<String> = layer_shares(&spans, roots)
            .into_iter()
            .map(|(layer, share)| format!("{layer} {:.1}%", share * 100.0))
            .collect();
        println!("self time of {label}: {}", shares.join(", "));
    }

    let get = |m: &BTreeMap<String, f64>, k: &str| m.get(k).copied().unwrap_or(0.0);
    let both = |k: &str| get(&server, k) + get(&local, k);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    // Client-side against in-process latency on the same replayed reads.
    let is_read = |k: Kind| !k.is_write() && k != Kind::Approximate;
    let client_ms: Vec<f64> = own
        .iter()
        .filter(|(op, _)| is_read(op.kind))
        .map(|(_, ms)| *ms)
        .collect();
    let in_process_reads: Vec<f64> = own
        .iter()
        .filter(|(op, _)| op.kind != Kind::Approximate)
        .zip(&in_process_ms)
        .filter(|((op, _), _)| is_read(op.kind))
        .map(|(_, ms)| *ms)
        .collect();
    let frontend_us = (median(&client_ms).unwrap_or(f64::NAN)
        - median(&in_process_reads).unwrap_or(f64::NAN))
        * 1e3;

    let query_fo_us = |kind: Kind| span_median_us(&spans, root_name(kind));
    let lifted = own_else_all(&counts.lifted);
    let lineage = own_else_all(
        &counts
            .lineage
            .iter()
            .map(|&(v, c, s)| ((v as f64, c as f64), s))
            .collect::<Vec<_>>(),
    );
    let dpll = own_else_all(&counts.dpll);
    let views = own_else_all(
        &counts
            .views
            .iter()
            .map(|&(a, t, s)| ((a as f64, t as f64), s))
            .collect::<Vec<_>>(),
    );
    let widths = own_else_all(&counts.bound_widths);
    let dpll_sum = |f: fn(&DpllStats) -> u64| dpll.iter().map(|s| f(s) as f64).sum::<f64>();
    let grounded_shares = layer_shares(&spans, &["op.grounded"]);
    let write_shares = layer_shares(&spans, &["op.update", "op.insert"]);
    let late: Vec<f64> = out.records[0].iter().map(|r| r.late_ms).collect();
    let checkpoint_count = both("pdb_store_checkpoint_us_count");

    let mut m: Vec<(String, f64, &str)> = vec![
        ("server.frontend_us".into(), frontend_us, "us"),
        (
            "server.parse_command_ns".into(),
            span_median_us(&spans, "server.parse_command") * 1e3,
            "ns",
        ),
        (
            "server.cache_hit_ratio".into(),
            ratio(
                get(&server, "pdb_server_cache_lookups_total{outcome=\"hit\"}"),
                get(&server, "pdb_server_cache_lookups_total{outcome=\"hit\"}")
                    + get(&server, "pdb_server_cache_lookups_total{outcome=\"miss\"}"),
            ),
            "ratio",
        ),
        (
            "server.timeouts".into(),
            get(&server, "pdb_server_timeouts_total"),
            "count",
        ),
        (
            "server.threads_after_drain".into(),
            out.threads_after_drain,
            "count",
        ),
        (
            "core.query_fo_us.lifted".into(),
            query_fo_us(Kind::Lifted),
            "us",
        ),
        (
            "core.query_fo_us.grounded".into(),
            query_fo_us(Kind::Grounded),
            "us",
        ),
        (
            "core.query_fo_us.approximate".into(),
            query_fo_us(Kind::Approximate),
            "us",
        ),
    ];
    for engine in ["lifted", "grounded", "approximate"] {
        m.push((
            format!("core.engine_count.{engine}"),
            get(
                &server,
                &format!("pdb_server_queries_total{{engine=\"{engine}\"}}"),
            ),
            "count",
        ));
    }
    m.extend([
        (
            "data.index_us".into(),
            span_median_us(&spans, "data.index"),
            "us",
        ),
        (
            "logic.parse_fo_us".into(),
            span_median_us(&spans, "logic.parse_fo"),
            "us",
        ),
        (
            "lifted.probability_fo_us".into(),
            span_median_us(&spans, "lifted.probability_fo"),
            "us",
        ),
        (
            "lifted.success_ratio".into(),
            ratio(
                lifted.iter().filter(|ok| **ok).count() as f64,
                lifted.len() as f64,
            ),
            "ratio",
        ),
        (
            "lineage.build_us".into(),
            span_median_us(&spans, "lineage.build"),
            "us",
        ),
        (
            "lineage.vars".into(),
            mean(&lineage.iter().map(|l| l.0).collect::<Vec<_>>()).unwrap_or(f64::NAN),
            "count",
        ),
        (
            "lineage.clauses".into(),
            mean(&lineage.iter().map(|l| l.1).collect::<Vec<_>>()).unwrap_or(f64::NAN),
            "count",
        ),
        (
            "lineage.dnf_build_us".into(),
            span_median_us(&spans, "lineage.dnf_build"),
            "us",
        ),
        (
            "wmc.dpll_us".into(),
            span_median_us(&spans, "wmc.dpll"),
            "us",
        ),
        (
            "wmc.decisions".into(),
            dpll_sum(|s| s.decisions) / dpll.len().max(1) as f64,
            "count",
        ),
        ("wmc.us_per_decision".into(), unit.us_per_decision, "us"),
        (
            "wmc.cache_hit_ratio".into(),
            ratio(
                dpll_sum(|s| s.cache_hits),
                dpll_sum(|s| s.cache_hits) + dpll_sum(|s| s.cache_misses),
            ),
            "ratio",
        ),
        (
            "wmc.component_splits".into(),
            dpll_sum(|s| s.component_splits) / dpll.len().max(1) as f64,
            "count",
        ),
        ("wmc.kl_ns_per_sample".into(), unit.kl_ns_per_sample, "ns"),
        (
            "wmc.grounded_self_share".into(),
            grounded_shares.get("wmc").copied().unwrap_or(0.0),
            "ratio",
        ),
        (
            "plans.bounds_us".into(),
            span_median_us(&spans, "plans.bounds"),
            "us",
        ),
        (
            "plans.bound_width".into(),
            mean(&widths).unwrap_or(f64::NAN),
            "p",
        ),
        ("kernel.ns_per_gate".into(), unit.ns_per_gate, "ns"),
        (
            "kernel.ns_per_gate_batch".into(),
            unit.ns_per_gate_batch,
            "ns",
        ),
        (
            "kernel.evals".into(),
            get(&server, "pdb_kernel_evals_total"),
            "count",
        ),
        (
            "views.on_update_us".into(),
            span_median_us(&spans, "views.on_update"),
            "us",
        ),
        (
            "views.incremental_ratio".into(),
            ratio(
                views.iter().map(|v| v.0).sum::<f64>(),
                views.iter().map(|v| v.1).sum::<f64>(),
            ),
            "ratio",
        ),
        (
            "views.compile_ms".into(),
            span_median_us(&spans, "views.compile") / 1e3,
            "ms",
        ),
        (
            "views.write_self_share".into(),
            write_shares.get("views").copied().unwrap_or(0.0),
            "ratio",
        ),
        ("store.append_us".into(), unit.append_us, "us"),
        (
            "store.fsyncs_per_write".into(),
            ratio(
                both("pdb_store_wal_syncs_total"),
                both("pdb_store_wal_appends_total"),
            ),
            "ratio",
        ),
        (
            "store.checkpoint_ms".into(),
            ratio(both("pdb_store_checkpoint_us_sum"), checkpoint_count) / 1e3,
            "ms",
        ),
        (
            "store.fsync_p50_us".into(),
            histogram_median(&server, "pdb_store_fsync_us")
                .or_else(|| histogram_median(&local, "pdb_store_fsync_us"))
                .unwrap_or(f64::NAN),
            "us",
        ),
        (
            "store.write_self_share".into(),
            write_shares.get("store").copied().unwrap_or(0.0),
            "ratio",
        ),
        (
            "replica.apply_us".into(),
            span_median_us(&spans, "replica.apply"),
            "us",
        ),
        (
            "replica.publish_ns".into(),
            span_median_us(&spans, "replica.publish") * 1e3,
            "ns",
        ),
        (
            "par.jobs".into(),
            get(&server, "pdb_par_jobs_total"),
            "count",
        ),
        (
            "par.steals".into(),
            get(&server, "pdb_par_steals_total"),
            "count",
        ),
        (
            "par.utilization".into(),
            get(&server, "pdb_par_utilization"),
            "ratio",
        ),
        (
            "bench.generator_late_ms".into(),
            mean(&late).unwrap_or(f64::NAN),
            "ms",
        ),
        (
            "bench.trace_overhead_pct".into(),
            (t_on - t_off) / t_off * 100.0,
            "%",
        ),
    ]);
    let mut total = 0.0;
    for name in CRATES {
        let lines = loc(name);
        total += lines;
        m.push((format!("loc.{name}"), lines, "lines"));
    }
    m.push(("loc.total".into(), total, "lines"));
    Ok(m.into_iter()
        .map(|(n, v, u)| (n, v, u.to_string()))
        .collect())
}

/// The in-process scrape without its `pdb_server_*` families: those
/// belong to the replay's own service, not to the measured server.
fn service_free_scrape(text: &str) -> String {
    text.lines()
        .filter(|l| !l.contains("pdb_server_"))
        .map(|l| format!("{l}\n"))
        .collect()
}
