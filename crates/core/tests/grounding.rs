//! `ProbDb` caches the tuple index and probabilities grounded inference
//! works over, once per database version. Every mutation must drop the
//! cache: these tests query, mutate, and query again, checking each answer
//! against brute force over the mutated database.

use pdb_core::{Method, ProbDb, QueryOptions};
use pdb_data::Tuple;
use pdb_num::assert_close;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Answers H0 (grounded: it is #P-hard) and checks it against brute force.
fn grounded_h0(db: &ProbDb) -> f64 {
    let h0 = pdb_logic::parse_fo("exists x. exists y. R(x) & S(x,y) & T(y)").unwrap();
    let a = db.query_fo(&h0, &QueryOptions::default()).unwrap();
    assert_eq!(a.method, Method::Grounded);
    let truth = pdb_lineage::eval::brute_force_probability(&h0, db.tuple_db());
    assert_close(a.probability, truth, 1e-10);
    a.probability
}

#[test]
fn grounding_is_rebuilt_after_every_mutation() {
    let mut rng = StdRng::seed_from_u64(17);
    let mut db = ProbDb::from_tuple_db(pdb_data::generators::bipartite(
        2,
        1.0,
        (0.2, 0.8),
        &mut rng,
    ));
    let before = grounded_h0(&db);
    // New tuples are new lineage variables: a stale index would miss them.
    db.insert("R", [7], 0.5);
    db.insert("S", [7, 2], 0.5);
    let inserted = grounded_h0(&db);
    assert!(inserted > before);
    // A changed probability must reach the cached per-tuple weights.
    assert!(db.update_prob("R", &Tuple::from([7]), 0.9).is_some());
    assert!(grounded_h0(&db) > inserted);
    db.extend_domain([100]);
    grounded_h0(&db);
}

#[test]
fn clones_share_the_grounding_until_one_mutates() {
    let mut rng = StdRng::seed_from_u64(18);
    let db = ProbDb::from_tuple_db(pdb_data::generators::bipartite(
        2,
        1.0,
        (0.2, 0.8),
        &mut rng,
    ));
    let first = grounded_h0(&db);
    let mut copy = db.clone();
    assert_eq!(grounded_h0(&copy).to_bits(), first.to_bits());
    copy.insert("T", [9], 0.5);
    copy.insert("S", [0, 9], 0.5);
    assert!(grounded_h0(&copy) > first);
    assert_eq!(grounded_h0(&db).to_bits(), first.to_bits());
}
