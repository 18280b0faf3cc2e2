//! Reusing one data distribution for a workload of queries.
//!
//! Section 4 of the paper motivates *transferability*: when several queries
//! are evaluated in sequence, reshuffling the data for each of them is
//! wasteful; if parallel-correctness transfers from `Q` to `Q'`, any
//! distribution that is parallel-correct for `Q` can be reused for `Q'`.
//!
//! This example takes a small analytical workload over a social-network-like
//! schema, computes the full transfer matrix, reports which queries are
//! strongly minimal (so that the cheaper NP check of Theorem 4.7 applies),
//! and then demonstrates the reuse concretely: the workload is evaluated in
//! one round under a single Hypercube distribution chosen for the "anchor"
//! query, and the answers are compared with the centralized results.
//!
//! Run with: `cargo run --release --example multi_query_workload`

use pcq::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

struct WorkloadQuery {
    name: &'static str,
    query: ConjunctiveQuery,
}

fn workload() -> Vec<WorkloadQuery> {
    let q = |text: &str| ConjunctiveQuery::parse(text).unwrap();
    vec![
        WorkloadQuery {
            name: "friends-of-friends",
            query: q("FoF(x, z) :- Knows(x, y), Knows(y, z)."),
        },
        WorkloadQuery {
            name: "mutual-follow",
            query: q("Mutual(x, y) :- Knows(x, y), Knows(y, x)."),
        },
        WorkloadQuery {
            name: "self-follower",
            query: q("Selfie(x) :- Knows(x, x)."),
        },
        WorkloadQuery {
            name: "triangle",
            query: q("Tri(x, y, z) :- Knows(x, y), Knows(y, z), Knows(z, x)."),
        },
        WorkloadQuery {
            name: "fof-with-loop",
            query: q("Anchored(x, z) :- Knows(x, y), Knows(y, z), Knows(x, x)."),
        },
    ]
}

fn main() {
    let queries = workload();

    println!("workload queries:");
    for wq in &queries {
        println!(
            "  {:<20} {}  [strongly minimal: {}]",
            wq.name,
            wq.query,
            is_strongly_minimal(&wq.query)
        );
    }

    // ------------------------------------------------------ transfer matrix
    // transfer[i][j] = does parallel-correctness transfer from query i to j?
    println!("\ntransfer matrix (row = from, column = to):");
    print!("{:<20}", "");
    for wq in &queries {
        print!("{:<20}", wq.name);
    }
    println!();
    let mut matrix = vec![vec![false; queries.len()]; queries.len()];
    for (i, from) in queries.iter().enumerate() {
        print!("{:<20}", from.name);
        for (j, to) in queries.iter().enumerate() {
            // The decider takes the NP procedure (C3) itself where the
            // source passes Lemma 4.8, the general (C2) search otherwise.
            let transfers = check_transfer(&from.query, &to.query).transfers();
            matrix[i][j] = transfers;
            print!("{:<20}", if transfers { "yes" } else { "-" });
        }
        println!();
    }

    // Pick the anchor query that covers the largest part of the workload.
    let (anchor_idx, covered) = (0..queries.len())
        .map(|i| (i, matrix[i].iter().filter(|&&t| t).count()))
        .max_by_key(|&(_, c)| c)
        .unwrap();
    let anchor = &queries[anchor_idx];
    println!(
        "\nanchor query: {} (its distributions can be reused for {} of {} queries)",
        anchor.name,
        covered,
        queries.len()
    );

    // --------------------------------------------- one distribution, reused
    let mut rng = StdRng::seed_from_u64(7);
    let data = workloads::random_instance(
        &mut rng,
        &Schema::from_relations([("Knows", 2)]),
        InstanceParams {
            domain_size: 25,
            facts_per_relation: 250,
        },
    );
    let policy = HypercubePolicy::uniform(&anchor.query, 3).expect("policy");
    println!(
        "\nevaluating the workload under the {}-node Hypercube distribution of '{}':",
        policy.network().len(),
        anchor.name
    );
    let engine = OneRoundEngine::new(&policy).workers(4);
    for (j, wq) in queries.iter().enumerate() {
        let outcome = engine.evaluate(&wq.query, &data);
        let expected = evaluate(&wq.query, &data);
        let correct = *outcome.result == expected;
        println!(
            "  {:<20} answers={:<6} one-round correct: {:<5} (transfer predicted: {})",
            wq.name,
            expected.len(),
            correct,
            matrix[anchor_idx][j]
        );
        // Transferability is sound: whenever it predicts reuse, the one-round
        // result must be correct (the converse need not hold on a particular
        // instance).
        if matrix[anchor_idx][j] {
            assert!(correct, "transferability must guarantee correctness");
        }
    }

    // ------------------------------------------------------ family analysis
    println!("\nqueries parallel-correct for the anchor's whole Hypercube family (C3):");
    for wq in &queries {
        let ok = hypercube_parallel_correct(&anchor.query, &wq.query).parallel_correct;
        println!("  {:<20} {}", wq.name, ok);
    }
}
