//! Hypercube join evaluation on a simulated cluster.
//!
//! The motivating scenario of the paper's introduction: evaluate a multiway
//! join in a single communication round by reshuffling the data according to
//! a Hypercube distribution and evaluating the query locally at every node.
//!
//! The example evaluates the triangle query over random and skewed edge
//! relations for several cluster sizes, reports communication volume, maximum
//! node load and replication, and verifies parallel-correctness against the
//! centralized evaluation (Lemma 5.7 / Corollary 5.8 guarantee it).
//!
//! Run with: `cargo run --release --example hypercube_cluster`

use pcq::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn edge_schema() -> Schema {
    Schema::from_relations([("E", 2)])
}

fn print_header() {
    println!(
        "{:<10} {:>8} {:>8} {:>12} {:>10} {:>12} {:>10}",
        "workload", "buckets", "nodes", "comm(facts)", "max load", "replication", "correct"
    );
}

fn run(workload: &str, instance: &Instance, query: &ConjunctiveQuery, buckets: usize) {
    let policy = HypercubePolicy::uniform(query, buckets).expect("policy");
    let engine = OneRoundEngine::new(&policy).workers(4);
    let outcome = engine.evaluate(query, instance);
    let correct = *outcome.result == evaluate(query, instance);
    println!(
        "{:<10} {:>8} {:>8} {:>12} {:>10} {:>12.2} {:>10}",
        workload,
        buckets,
        policy.network().len(),
        outcome.stats.total_assigned,
        outcome.stats.max_load,
        outcome.stats.replication_factor,
        correct
    );
}

fn main() {
    let query = triangle_query();
    println!("query: {query}\n");

    let mut rng = StdRng::seed_from_u64(20150531);
    let uniform = workloads::random_instance(
        &mut rng,
        &edge_schema(),
        InstanceParams {
            domain_size: 40,
            facts_per_relation: 600,
        },
    );
    let skewed = workloads::zipf_instance(
        &mut rng,
        &edge_schema(),
        InstanceParams {
            domain_size: 40,
            facts_per_relation: 600,
        },
        1.2,
    );

    println!(
        "uniform instance: {} facts over {} values",
        uniform.len(),
        uniform.adom().len()
    );
    println!(
        "skewed instance:  {} facts over {} values (Zipf exponent 1.2)\n",
        skewed.len(),
        skewed.adom().len()
    );

    print_header();
    for buckets in [1usize, 2, 3, 4] {
        run("uniform", &uniform, &query, buckets);
    }
    for buckets in [1usize, 2, 3, 4] {
        run("skewed", &skewed, &query, buckets);
    }

    // The family-level statement (Corollary 5.8): the triangle query is
    // parallel-correct for every member of its own Hypercube family, and the
    // structural validation of Lemma 5.7 passes on a concrete instance.
    let small =
        parse_instance("E(a, b). E(b, c). E(c, a). E(a, d). E(d, a). E(b, d). E(d, c). E(c, c).")
            .unwrap();
    let validation = validate_hypercube_family(&query, &small, 3);
    println!("\nLemma 5.7 validation on a small instance:");
    println!("  members checked:         {}", validation.members_checked);
    println!("  Q-generous:              {}", validation.generous);
    println!("  Q-scattered:             {}", validation.scattered);
    println!(
        "  self parallel-correct:   {}",
        validation.self_parallel_correct
    );

    // Reusing the triangle distribution for other queries: which ones are
    // parallel-correct for the whole family?
    let candidates = [
        ("edge projection", "U(x, y) :- E(x, y)."),
        ("wedge", "U(x, z) :- E(x, y), E(y, z)."),
        ("self-loop", "U(x) :- E(x, x)."),
    ];
    println!("\nqueries parallel-correct for the triangle Hypercube family (C3):");
    for (name, text) in candidates {
        let q_prime = ConjunctiveQuery::parse(text).unwrap();
        let ok = hypercube_parallel_correct(&query, &q_prime).parallel_correct;
        println!("  {:<16} {:<40} -> {}", name, text, ok);
    }
}
