//! Front-end: exact probability of an arbitrary lineage formula.
//!
//! [`count_exact`] is the one place a lineage formula is encoded for the
//! counter. It dispatches to the cheapest sound encoding:
//! 1. monotone DNF → count the negation (pure CNF), return `1 − p`;
//! 2. already CNF-shaped → count directly;
//! 3. anything else → Tseitin with neutral auxiliaries (`p = 1/2`, result
//!    corrected by `2^aux` thanks to the unique-extension property).
//!
//! The engine's grounded stage, view compilation and the convenience
//! wrappers below all go through it.

use crate::dpll::{run_parallel, DpllOptions, DpllResult, DpllStats};
use pdb_data::TupleDb;
use pdb_lineage::{BoolExpr, Cnf};
use pdb_logic::Fo;
use pdb_par::Pool;

/// One exact count of a lineage formula.
#[derive(Clone, Debug)]
pub struct ExactCount {
    /// The DPLL run over the encoded CNF: stats, trace, abort flag.
    pub run: DpllResult,
    /// True when the CNF encodes `¬expr` (a monotone DNF): `p = 1 − count`.
    pub negated: bool,
    /// Tseitin auxiliaries appended after the input variables (each with
    /// probability 1/2); the count is corrected by `2^aux`.
    pub aux: u32,
}

impl ExactCount {
    /// The factor correcting the count for the auxiliaries.
    pub fn scale(&self) -> f64 {
        2f64.powi(self.aux as i32)
    }

    /// `p(expr)`, or `None` when the decision budget aborted the run.
    pub fn probability(&self) -> Option<f64> {
        if self.run.aborted {
            None
        } else if self.negated {
            Some(1.0 - self.run.probability)
        } else {
            Some(self.run.probability * self.scale())
        }
    }
}

/// Counts `expr` exactly on `pool`, where `probs[i] = p(Xᵢ)`, choosing the
/// encoding as the module docs describe. Every pool size combines values
/// in the one-thread order (see [`run_parallel`]).
pub fn count_exact(
    expr: &BoolExpr,
    probs: &[f64],
    options: DpllOptions,
    pool: &Pool,
) -> ExactCount {
    let n = probs.len() as u32;
    let negated = expr.is_monotone_dnf();
    let cnf = if negated {
        Cnf::from_negated_dnf(expr, n)
    } else {
        Cnf::from_expr_direct(expr, n).unwrap_or_else(|| Cnf::tseitin(expr, n))
    };
    let run = if cnf.aux_vars() == 0 {
        run_parallel(&cnf, probs, options, pool)
    } else {
        let mut all = probs.to_vec();
        all.resize(cnf.num_vars as usize, 0.5);
        run_parallel(&cnf, &all, options, pool)
    };
    ExactCount {
        run,
        negated,
        aux: cnf.aux_vars(),
    }
}

/// Exact probability of `expr` where `probs[i] = p(Xᵢ)`, via the DPLL
/// counter on the calling thread. Returns the probability and the run
/// statistics; panics if `options.max_decisions` aborts the count.
pub fn probability_of_expr(
    expr: &BoolExpr,
    probs: &[f64],
    options: DpllOptions,
) -> (f64, DpllStats) {
    let count = count_exact(expr, probs, options, &Pool::new(1));
    let p = count
        .probability()
        .expect("exact counting aborted by decision budget");
    (p, count.run.stats)
}

/// Grounded inference end-to-end: builds the lineage of `fo` over `db` and
/// counts it. This is the `PQE` path the paper calls *grounded* / intensional
/// (§7), correct for **every** FO sentence but potentially exponential.
pub fn probability_of_query(fo: &Fo, db: &TupleDb) -> f64 {
    let index = db.index();
    let lineage = pdb_lineage::lineage(fo, db, &index);
    let probs: Vec<f64> = index.iter().map(|(_, r)| r.prob).collect();
    probability_of_expr(&lineage, &probs, DpllOptions::default()).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute;
    use pdb_data::{generators, TupleId};
    use pdb_logic::parse_fo;
    use pdb_num::assert_close;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn v(i: u32) -> BoolExpr {
        BoolExpr::var(TupleId(i))
    }

    #[test]
    fn dispatches_dnf() {
        let f = BoolExpr::or_all([BoolExpr::and_all([v(0), v(1)]), v(2)]);
        let probs = [0.3, 0.6, 0.2];
        let (p, _) = probability_of_expr(&f, &probs, DpllOptions::default());
        assert_close(p, brute::expr_probability(&f, &probs), 1e-12);
    }

    #[test]
    fn dispatches_cnf() {
        let f = BoolExpr::and_all([BoolExpr::or_all([v(0), v(1)]), v(2).negate()]);
        let probs = [0.3, 0.6, 0.2];
        let (p, _) = probability_of_expr(&f, &probs, DpllOptions::default());
        assert_close(p, brute::expr_probability(&f, &probs), 1e-12);
    }

    #[test]
    fn dispatches_tseitin_for_mixed_shapes() {
        // (x0 | (x1 & x2)) & (!x0 | x3) — neither DNF nor CNF.
        let f = BoolExpr::and_all([
            BoolExpr::or_all([v(0), BoolExpr::and_all([v(1), v(2)])]),
            BoolExpr::or_all([v(0).negate(), v(3)]),
        ]);
        let probs = [0.3, 0.6, 0.2, 0.8];
        let (p, _) = probability_of_expr(&f, &probs, DpllOptions::default());
        assert_close(p, brute::expr_probability(&f, &probs), 1e-10);
    }

    #[test]
    fn constants() {
        let (p, _) = probability_of_expr(&BoolExpr::TRUE, &[], DpllOptions::default());
        assert_close(p, 1.0, 1e-12);
        let (q, _) = probability_of_expr(&BoolExpr::FALSE, &[0.5], DpllOptions::default());
        assert_close(q, 0.0, 1e-12);
    }

    #[test]
    fn end_to_end_query_matches_brute_force() {
        let mut rng = StdRng::seed_from_u64(21);
        let db = generators::bipartite(2, 0.9, (0.2, 0.8), &mut rng);
        for q in [
            "exists x. exists y. R(x) & S(x,y) & T(y)",
            "forall x. forall y. (R(x) | S(x,y) | T(y))",
            "forall x. forall y. (S(x,y) -> R(x))",
            "exists x. R(x) & !T(x)",
        ] {
            let fo = parse_fo(q).unwrap();
            let expected = pdb_lineage::eval::brute_force_probability(&fo, &db);
            assert_close(probability_of_query(&fo, &db), expected, 1e-10);
        }
    }

    #[test]
    fn example_2_1_via_grounded_inference() {
        let p = [0.1, 0.2, 0.3];
        let q = [0.4, 0.5, 0.6, 0.7, 0.8, 0.9];
        let (db, _) = generators::fig1(p, q);
        let sentence = parse_fo("forall x. forall y. (S(x,y) -> R(x))").unwrap();
        let expected = (p[0] + (1.0 - p[0]) * (1.0 - q[0]) * (1.0 - q[1]))
            * (p[1] + (1.0 - p[1]) * (1.0 - q[2]) * (1.0 - q[3]) * (1.0 - q[4]))
            * (1.0 - q[5]);
        assert_close(probability_of_query(&sentence, &db), expected, 1e-10);
    }
}
