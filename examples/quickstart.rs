//! Quickstart: parallel-correctness of a conjunctive query under a
//! distribution policy.
//!
//! This example walks through the core notions of the paper on the query and
//! policy of Example 3.5:
//!
//! 1. define a conjunctive query and a finite distribution policy,
//! 2. check the sufficient condition (C0) and the exact characterization (C1),
//! 3. decide parallel-correctness and inspect the witness/counterexample,
//! 4. run the one-round evaluation on a concrete instance.
//!
//! Run with: `cargo run --example quickstart`

use pcq::prelude::*;

fn main() {
    // ---------------------------------------------------------------- query
    // Example 3.5 of the paper: T(x, z) :- R(x, y), R(y, z), R(x, x).
    let query = example_3_5_query();
    println!("query Q:            {query}");
    println!("  full:             {}", query.is_full());
    println!("  self-joins:       {}", query.has_self_joins());
    println!("  minimal:          {}", cq::is_minimal(&query));
    println!("  strongly minimal: {}", is_strongly_minimal(&query));

    // --------------------------------------------------------------- policy
    // Facts over the domain {a, b}. The policy of Example 3.5: node n0
    // receives every fact except R(a,b); node n1 every fact except R(b,a).
    let universe = workloads::complete_binary_relation("R", &["a", "b"]);
    let r_ab = Fact::from_names("R", &["a", "b"]);
    let r_ba = Fact::from_names("R", &["b", "a"]);

    let mut policy = ExplicitPolicy::new(Network::with_size(2));
    for fact in universe.facts() {
        let mut nodes = Vec::new();
        if *fact != r_ab {
            nodes.push(Node::numbered(0));
        }
        if *fact != r_ba {
            nodes.push(Node::numbered(1));
        }
        policy.assign(fact.clone(), nodes);
    }
    println!("\npolicy P over network {}", policy.network());
    for fact in universe.facts() {
        let nodes: Vec<String> = policy
            .nodes_for(fact)
            .iter()
            .map(|n| n.to_string())
            .collect();
        println!("  P({fact}) = {{{}}}", nodes.join(", "));
    }

    // ----------------------------------------------------- conditions C0/C1
    println!(
        "\ncondition (C0) holds: {}",
        holds_c0(&query, &policy, &universe)
    );
    println!(
        "condition (C1) holds: {}",
        check_parallel_correctness_bounded(&query, &policy, &universe).is_correct()
    );

    // -------------------------------------------------- parallel-correctness
    let report = check_parallel_correctness(&query, &policy);
    println!("\nQ parallel-correct under P: {}", report.is_correct());

    // Compare with the plain path query, which is NOT parallel-correct under
    // the same policy: the valuation {x↦a, y↦b, z↦a} is minimal for it and
    // needs R(a,b) and R(b,a) at the same node.
    let path = ConjunctiveQuery::parse("T(x, z) :- R(x, y), R(y, z).").unwrap();
    let path_report = check_parallel_correctness(&path, &policy);
    println!(
        "path query parallel-correct under P: {}",
        path_report.is_correct()
    );
    if let Some(violation) = &path_report.violation {
        println!("  violating minimal valuation: {}", violation.valuation);
        println!(
            "  counterexample instance:     {}",
            violation.counterexample_instance
        );
        println!("  lost fact:                   {}", violation.lost_fact);
    }

    // ------------------------------------------------- one-round evaluation
    let instance = parse_instance("R(a, a). R(a, b). R(b, a). R(b, b).").unwrap();
    let engine = OneRoundEngine::new(&policy);
    let outcome = engine.evaluate(&query, &instance);
    println!("\none-round evaluation of Q on {instance}");
    println!("  distributed result: {}", outcome.result);
    println!("  centralized result: {}", evaluate(&query, &instance));
    println!("  reshuffle stats:    {}", outcome.stats);
    assert_eq!(*outcome.result, evaluate(&query, &instance));

    // ------------------------------------------------------- transferability
    // Can the distribution used for Q be reused for the path query?
    let transfer = check_transfer(&query, &path);
    println!(
        "\nparallel-correctness transfers from Q to the path query: {}",
        transfer.transfers()
    );
    let transfer_back = check_transfer(&path, &query);
    println!(
        "parallel-correctness transfers from the path query to Q: {}",
        transfer_back.transfers()
    );
}
