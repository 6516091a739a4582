//! Golden answers for the DPLL counter.
//!
//! Every case of a seeded corpus — H0 bipartite lineages, random 3-CNFs,
//! implication chains and disjoint blocks — is counted under five option
//! variants, and the probability's bit pattern plus the run statistics are
//! compared against values recorded from the previous solver. Any change to
//! the branching rule, the component order, the cache semantics or the
//! floating-point combination order shows up here as a changed bit or
//! count. On pools of 2, 4 and 8 threads the bits must stay the same.

use pdb_lineage::{Clause, Cnf, Lit};
use pdb_wmc::{run_parallel, Dpll, DpllOptions, DpllResult};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One counting problem of the corpus.
struct Case {
    name: String,
    cnf: Cnf,
    probs: Vec<f64>,
}

fn probs(n: u32, rng: &mut StdRng) -> Vec<f64> {
    (0..n).map(|_| rng.gen_range(0.05..0.95)).collect()
}

/// The negated lineage of `∃x∃y R(x)∧S(x,y)∧T(y)` on a bipartite TID.
fn h0(n: u64, density: f64, seed: u64) -> Case {
    let mut rng = StdRng::seed_from_u64(seed);
    let db = pdb_data::generators::bipartite(n, density, (0.05, 0.95), &mut rng);
    let index = db.index();
    let fo = pdb_logic::parse_fo("exists x. exists y. R(x) & S(x,y) & T(y)").unwrap();
    let lineage = pdb_lineage::lineage(&fo, &db, &index);
    let probs: Vec<f64> = index.iter().map(|(_, r)| r.prob).collect();
    Case {
        name: format!("h0_n{n}_d{density}"),
        cnf: Cnf::from_negated_dnf(&lineage, probs.len() as u32),
        probs,
    }
}

fn random_3cnf(vars: u32, clauses: usize, seed: u64) -> Case {
    let mut rng = StdRng::seed_from_u64(seed);
    let cnf = Cnf::new(
        (0..clauses)
            .map(|_| {
                Clause::new(
                    (0..3)
                        .map(|_| {
                            let v = rng.gen_range(0..vars);
                            if rng.gen_bool(0.5) {
                                Lit::pos(v)
                            } else {
                                Lit::neg(v)
                            }
                        })
                        .collect(),
                )
            })
            .collect(),
        vars,
    );
    Case {
        name: format!("rand3_v{vars}_c{clauses}_s{seed}"),
        cnf,
        probs: probs(vars, &mut rng),
    }
}

/// `x0 → x1 → … → x_len`, with a unit clause forcing `x0` when `forced`.
fn chain(len: u32, forced: bool) -> Case {
    let mut clauses: Vec<Clause> = (0..len)
        .map(|i| Clause::new(vec![Lit::neg(i), Lit::pos(i + 1)]))
        .collect();
    if forced {
        clauses.push(Clause::new(vec![Lit::pos(0)]));
    }
    let mut rng = StdRng::seed_from_u64(u64::from(len));
    Case {
        name: format!("chain_{len}_forced{forced}"),
        cnf: Cnf::new(clauses, len + 1),
        probs: probs(len + 1, &mut rng),
    }
}

/// `blocks` variable-disjoint copies of a small mixed-sign block.
fn blocks(blocks: u32) -> Case {
    let mut clauses = Vec::new();
    for b in 0..blocks {
        let x = b * 4;
        clauses.push(Clause::new(vec![Lit::pos(x), Lit::pos(x + 1)]));
        clauses.push(Clause::new(vec![Lit::neg(x + 1), Lit::pos(x + 2)]));
        clauses.push(Clause::new(vec![
            Lit::neg(x),
            Lit::neg(x + 2),
            Lit::pos(x + 3),
        ]));
    }
    let mut rng = StdRng::seed_from_u64(7 + u64::from(blocks));
    Case {
        name: format!("blocks_{blocks}"),
        cnf: Cnf::new(clauses, blocks * 4),
        probs: probs(blocks * 4, &mut rng),
    }
}

fn corpus() -> Vec<Case> {
    let mut cases: Vec<Case> = (3..=7).map(|n| h0(n, 1.0, 11 + n)).collect();
    cases.push(h0(6, 0.6, 5));
    cases.push(h0(7, 0.7, 6));
    for (vars, clauses, seed) in [(12, 30, 1), (16, 40, 2), (20, 60, 3), (24, 70, 4)] {
        cases.push(random_3cnf(vars, clauses, seed));
    }
    cases.push(chain(12, false));
    cases.push(chain(9, true));
    cases.push(blocks(3));
    cases.push(blocks(6));
    // Large enough (300 literals) for the solver to fork on a pool.
    cases.push(h0(10, 1.0, 21));
    cases.push(chain(150, false));
    cases.push(blocks(40));
    cases
}

/// The option variants every case is counted under. Some variants of the
/// largest case exhaust the budget; their aborted runs are pinned too.
fn variants(num_vars: u32) -> Vec<(&'static str, DpllOptions)> {
    let base = DpllOptions {
        max_decisions: 50_000,
        ..DpllOptions::default()
    };
    vec![
        ("default", base.clone()),
        (
            "no_components",
            DpllOptions {
                components: false,
                ..base.clone()
            },
        ),
        (
            "no_caching",
            DpllOptions {
                caching: false,
                ..base.clone()
            },
        ),
        (
            "order_rev",
            DpllOptions {
                components: false,
                var_order: Some((0..num_vars).rev().collect()),
                ..base.clone()
            },
        ),
        (
            "order_rev_components",
            DpllOptions {
                var_order: Some((0..num_vars).rev().collect()),
                ..base
            },
        ),
    ]
}

/// `(case, variant, probability bits, decisions, cache hits, cache misses,
/// component splits, max depth)` as recorded from the previous solver.
type Row = (&'static str, &'static str, u64, u64, u64, u64, u64, u64);

fn row_of(r: &DpllResult) -> (u64, u64, u64, u64, u64, u64) {
    (
        r.probability.to_bits(),
        r.stats.decisions,
        r.stats.cache_hits,
        r.stats.cache_misses,
        r.stats.component_splits,
        r.stats.max_depth,
    )
}

#[test]
fn serial_answers_and_stats_match_the_golden_table() {
    let mut golden = GOLDEN.iter();
    for case in corpus() {
        for (variant, opts) in variants(case.cnf.num_vars) {
            let expected = golden.next().expect("golden table covers the corpus");
            assert_eq!((expected.0, expected.1), (case.name.as_str(), variant));
            let want = (
                expected.2, expected.3, expected.4, expected.5, expected.6, expected.7,
            );
            let seq = Dpll::new(&case.cnf, case.probs.clone(), opts.clone()).run();
            assert_eq!(row_of(&seq), want, "{} {variant} (Dpll::run)", case.name);
            let pool = pdb_par::Pool::new(1);
            let serial = run_parallel(&case.cnf, &case.probs, opts, &pool);
            assert_eq!(row_of(&serial), want, "{} {variant} (pool 1)", case.name);
            assert_eq!(seq.stats.clauses_interned, case.cnf.clauses.len() as u64);
        }
    }
    assert!(golden.next().is_none(), "golden table has extra rows");
}

#[test]
fn parallel_pools_reproduce_the_golden_bits() {
    let mut golden = GOLDEN.iter();
    let mut forked = 0;
    for case in corpus() {
        for (variant, opts) in variants(case.cnf.num_vars) {
            let expected = golden.next().expect("golden table covers the corpus");
            // Near the budget, forked tasks may spend a few more decisions
            // than one thread would (they race to the cache) and abort.
            if expected.3 > opts.max_decisions / 2 {
                continue;
            }
            for threads in [2, 4, 8] {
                let pool = pdb_par::Pool::new(threads);
                let par = run_parallel(&case.cnf, &case.probs, opts.clone(), &pool);
                forked += usize::from(pool.stats().jobs > 0);
                assert!(!par.aborted, "{} {variant} threads={threads}", case.name);
                assert_eq!(
                    par.probability.to_bits(),
                    expected.2,
                    "{} {variant} threads={threads}",
                    case.name
                );
            }
        }
    }
    assert!(forked > 0, "some pool runs fork");
}

#[test]
fn recorded_trace_keeps_its_size() {
    let case = h0(5, 1.0, 16);
    let opts = DpllOptions {
        record_trace: true,
        ..DpllOptions::default()
    };
    let r = Dpll::new(&case.cnf, case.probs.clone(), opts.clone()).run();
    let trace = r.trace.as_ref().expect("trace requested");
    assert_eq!(
        (
            r.probability.to_bits(),
            trace.reachable_size(),
            trace.decision_count()
        ),
        TRACE_GOLDEN
    );
    // Tracing never forks, whatever the pool.
    let pool = pdb_par::Pool::new(4);
    let par = run_parallel(&case.cnf, &case.probs, opts, &pool);
    assert_eq!(row_of(&par), row_of(&r));
    assert_eq!(par.trace.map(|t| t.reachable_size()), Some(TRACE_GOLDEN.1));
}

/// `(probability bits, reachable size, decision count)` of the traced run.
const TRACE_GOLDEN: (u64, usize, usize) = (0x3f9e025d04cfa6ba, 379, 216);

#[rustfmt::skip]
const GOLDEN: &[Row] = &[
    ("h0_n3_d1", "default", 0x3fb193203972ebe1, 40, 24, 59, 19, 7),
    ("h0_n3_d1", "no_components", 0x3fb193203972ebe2, 59, 18, 59, 0, 15),
    ("h0_n3_d1", "no_caching", 0x3fb193203972ebe1, 64, 0, 0, 19, 7),
    ("h0_n3_d1", "order_rev", 0x3fb193203972ebe1, 66, 31, 66, 0, 11),
    ("h0_n3_d1", "order_rev_components", 0x3fb193203972ebe0, 40, 21, 47, 7, 8),
    ("h0_n4_d1", "default", 0x3fcc57e5bcacfed4, 95, 108, 154, 59, 8),
    ("h0_n4_d1", "no_components", 0x3fcc57e5bcacfed5, 186, 56, 186, 0, 24),
    ("h0_n4_d1", "no_caching", 0x3fcc57e5bcacfed4, 203, 0, 0, 59, 8),
    ("h0_n4_d1", "order_rev", 0x3fcc57e5bcacfed4, 230, 114, 230, 0, 15),
    ("h0_n4_d1", "order_rev_components", 0x3fcc57e5bcacfed5, 107, 72, 122, 15, 10),
    ("h0_n5_d1", "default", 0x3f9e025d04cfa6ba, 216, 370, 377, 161, 9),
    ("h0_n5_d1", "no_components", 0x3f9e025d04cfa6b8, 537, 150, 537, 0, 35),
    ("h0_n5_d1", "no_caching", 0x3f9e025d04cfa6ba, 586, 0, 0, 161, 9),
    ("h0_n5_d1", "order_rev", 0x3f9e025d04cfa6b9, 718, 361, 718, 0, 19),
    ("h0_n5_d1", "order_rev_components", 0x3f9e025d04cfa6ba, 266, 205, 297, 31, 12),
    ("h0_n6_d1", "default", 0x3f584804894d5ab3, 483, 1110, 888, 405, 10),
    ("h0_n6_d1", "no_components", 0x3f584804894d5ab3, 1464, 372, 1464, 0, 48),
    ("h0_n6_d1", "no_caching", 0x3f584804894d5ab3, 1593, 0, 0, 405, 10),
    ("h0_n6_d1", "order_rev", 0x3f584804894d5ab4, 2078, 1048, 2078, 0, 23),
    ("h0_n6_d1", "order_rev_components", 0x3f584804894d5ab4, 633, 528, 696, 63, 14),
    ("h0_n7_d1", "default", 0x3f537a4ef5851d00, 1072, 3080, 2039, 967, 11),
    ("h0_n7_d1", "no_components", 0x3f537a4ef5851d00, 3831, 882, 3831, 0, 63),
    ("h0_n7_d1", "no_caching", 0x3f537a4ef5851d00, 4152, 0, 0, 967, 11),
    ("h0_n7_d1", "order_rev", 0x3f537a4ef5851d00, 5694, 2871, 5694, 0, 27),
    ("h0_n7_d1", "order_rev_components", 0x3f537a4ef5851cfe, 1464, 1281, 1591, 127, 16),
    ("h0_n6_d0.6", "default", 0x3f9d2fb3a3f93235, 270, 522, 522, 252, 19),
    ("h0_n6_d0.6", "no_components", 0x3f9d2fb3a3f93234, 1729, 604, 1729, 0, 37),
    ("h0_n6_d0.6", "no_caching", 0x3f9d2fb3a3f93235, 1147, 0, 0, 372, 20),
    ("h0_n6_d0.6", "order_rev", 0x3f9d2fb3a3f93234, 1222, 646, 1222, 0, 21),
    ("h0_n6_d0.6", "order_rev_components", 0x3f9d2fb3a3f93234, 249, 391, 312, 63, 13),
    ("h0_n7_d0.7", "default", 0x3f90163b98047546, 329, 680, 625, 296, 16),
    ("h0_n7_d0.7", "no_components", 0x3f90163b98047546, 3908, 1208, 3908, 0, 47),
    ("h0_n7_d0.7", "no_caching", 0x3f90163b98047546, 1538, 0, 0, 442, 18),
    ("h0_n7_d0.7", "order_rev", 0x3f90163b98047547, 3616, 1878, 3616, 0, 26),
    ("h0_n7_d0.7", "order_rev_components", 0x3f90163b98047546, 636, 826, 825, 189, 17),
    ("rand3_v12_c30_s1", "default", 0x3f9802f09ac374dc, 38, 2, 44, 6, 11),
    ("rand3_v12_c30_s1", "no_components", 0x3f9802f09ac374dc, 36, 1, 36, 0, 12),
    ("rand3_v12_c30_s1", "no_caching", 0x3f9802f09ac374dc, 41, 0, 0, 6, 11),
    ("rand3_v12_c30_s1", "order_rev", 0x3f9802f09ac374de, 54, 5, 54, 0, 12),
    ("rand3_v12_c30_s1", "order_rev_components", 0x3f9802f09ac374de, 54, 5, 56, 2, 11),
    ("rand3_v16_c40_s2", "default", 0x3f3f21296e7fc4e1, 106, 4, 117, 11, 15),
    ("rand3_v16_c40_s2", "no_components", 0x3f3f21296e7fc4e1, 99, 0, 99, 0, 15),
    ("rand3_v16_c40_s2", "no_caching", 0x3f3f21296e7fc4e1, 110, 0, 0, 11, 16),
    ("rand3_v16_c40_s2", "order_rev", 0x3f3f21296e7fc4df, 111, 13, 111, 0, 16),
    ("rand3_v16_c40_s2", "order_rev_components", 0x3f3f21296e7fc4df, 108, 19, 116, 8, 16),
    ("rand3_v20_c60_s3", "default", 0x3f387757ae6255be, 241, 84, 290, 49, 20),
    ("rand3_v20_c60_s3", "no_components", 0x3f387757ae6255be, 298, 38, 298, 0, 20),
    ("rand3_v20_c60_s3", "no_caching", 0x3f387757ae6255be, 342, 0, 0, 50, 20),
    ("rand3_v20_c60_s3", "order_rev", 0x3f387757ae6255be, 549, 114, 549, 0, 20),
    ("rand3_v20_c60_s3", "order_rev_components", 0x3f387757ae6255be, 491, 166, 552, 61, 20),
    ("rand3_v24_c70_s4", "default", 0x3f535fb4fa96b794, 337, 119, 416, 79, 23),
    ("rand3_v24_c70_s4", "no_components", 0x3f535fb4fa96b794, 453, 73, 453, 0, 24),
    ("rand3_v24_c70_s4", "no_caching", 0x3f535fb4fa96b794, 528, 0, 0, 84, 24),
    ("rand3_v24_c70_s4", "order_rev", 0x3f535fb4fa96b794, 807, 99, 807, 0, 23),
    ("rand3_v24_c70_s4", "order_rev_components", 0x3f535fb4fa96b794, 693, 207, 795, 102, 23),
    ("chain_12_forcedfalse", "default", 0x3f5a2ab8e4b5c108, 23, 5, 28, 5, 12),
    ("chain_12_forcedfalse", "no_components", 0x3f5a2ab8e4b5c108, 23, 5, 23, 0, 12),
    ("chain_12_forcedfalse", "no_caching", 0x3f5a2ab8e4b5c108, 48, 0, 0, 5, 12),
    ("chain_12_forcedfalse", "order_rev", 0x3f5a2ab8e4b5c105, 24, 11, 24, 0, 13),
    ("chain_12_forcedfalse", "order_rev_components", 0x3f5a2ab8e4b5c105, 24, 11, 24, 0, 13),
    ("chain_9_forcedtrue", "default", 0x3f004b65789a8921, 10, 0, 10, 0, 10),
    ("chain_9_forcedtrue", "no_components", 0x3f004b65789a8921, 10, 0, 10, 0, 10),
    ("chain_9_forcedtrue", "no_caching", 0x3f004b65789a8921, 10, 0, 0, 0, 10),
    ("chain_9_forcedtrue", "order_rev", 0x3f004b65789a8921, 10, 0, 10, 0, 10),
    ("chain_9_forcedtrue", "order_rev_components", 0x3f004b65789a8921, 10, 0, 10, 0, 10),
    ("blocks_3", "default", 0x3fa0e60df9c2222e, 18, 0, 19, 1, 4),
    ("blocks_3", "no_components", 0x3fa0e60df9c2222e, 18, 4, 18, 0, 9),
    ("blocks_3", "no_caching", 0x3fa0e60df9c2222e, 18, 0, 0, 1, 4),
    ("blocks_3", "order_rev", 0x3fa0e60df9c2222c, 24, 10, 24, 0, 10),
    ("blocks_3", "order_rev_components", 0x3fa0e60df9c2222e, 24, 6, 25, 1, 5),
    ("blocks_6", "default", 0x3f7933c9a2fa1493, 36, 0, 37, 1, 4),
    ("blocks_6", "no_components", 0x3f7933c9a2fa1493, 36, 10, 36, 0, 18),
    ("blocks_6", "no_caching", 0x3f7933c9a2fa1493, 36, 0, 0, 1, 4),
    ("blocks_6", "order_rev", 0x3f7933c9a2fa1495, 48, 22, 48, 0, 19),
    ("blocks_6", "order_rev_components", 0x3f7933c9a2fa1494, 48, 12, 49, 1, 5),
    ("h0_n10_d1", "default", 0x3f4875529e4ecc5b, 11363, 51090, 22516, 11153, 14),
    ("h0_n10_d1", "no_components", 0x7ff8000000000000, 50001, 8320, 50000, 0, 120),
    ("h0_n10_d1", "no_caching", 0x7ff8000000000000, 50001, 0, 0, 8513, 14),
    ("h0_n10_d1", "order_rev", 0x7ff8000000000000, 50001, 24945, 50000, 0, 39),
    ("h0_n10_d1", "order_rev_components", 0x3f4875529e4ecc5c, 16373, 15240, 17396, 1023, 22),
    ("chain_150_forcedfalse", "default", 0x349c1abc0b790806, 299, 74, 373, 74, 150),
    ("chain_150_forcedfalse", "no_components", 0x349c1abc0b790806, 299, 74, 299, 0, 150),
    ("chain_150_forcedfalse", "no_caching", 0x349c1abc0b790806, 5775, 0, 0, 74, 150),
    ("chain_150_forcedfalse", "order_rev", 0x349c1abc0b790800, 300, 149, 300, 0, 151),
    ("chain_150_forcedfalse", "order_rev_components", 0x349c1abc0b790800, 300, 149, 300, 0, 151),
    ("blocks_40", "default", 0x3c4ba8468d636da8, 240, 0, 241, 1, 4),
    ("blocks_40", "no_components", 0x3c4ba8468d636da2, 240, 78, 240, 0, 120),
    ("blocks_40", "no_caching", 0x3c4ba8468d636da8, 240, 0, 0, 1, 4),
    ("blocks_40", "order_rev", 0x3c4ba8468d636dac, 320, 158, 320, 0, 121),
    ("blocks_40", "order_rev_components", 0x3c4ba8468d636da4, 320, 80, 321, 1, 5),
];
