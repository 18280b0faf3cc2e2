//! Scenario files end to end: author a scenario as text, round-trip it
//! through the pretty-printer and the binary codec, then run it through
//! the multi-round engine — over the in-memory transport here; hand
//! `evaluate_via` a `wire::WireTransport` (or run `pcq-analyze run
//! --scenario file.pcq --transport process`) for genuinely cross-process
//! rounds.
//!
//! Run with: `cargo run --example scenario_file`

use pcq::prelude::*;

fn main() {
    // A scenario file: the transitive closure of a 5-edge chain by
    // repeated squaring, hash-partitioned in round 0, on a hypercube in
    // every later round.
    let text = "
        % transitive closure by repeated squaring
        query T(x, z) :- R(x, y), R(y, z).
        instance {
          R(v0, v1). R(v1, v2). R(v2, v3). R(v3, v4). R(v4, v5).
        }
        schedule hash(3), hypercube(2)
        rounds 8
        feedback R
    ";
    let scenario = Scenario::parse(text).expect("scenario parses");

    // The pretty-printer is the parser's exact inverse …
    let printed = scenario.to_string();
    assert_eq!(Scenario::parse(&printed).unwrap(), scenario);
    println!("--- canonical form ---\n{printed}");

    // … and the binary codec round-trips the same value inside one frame.
    let frame = pcq::wire::encode_frame(&scenario);
    assert_eq!(
        pcq::wire::decode_frame::<Scenario>(&frame).unwrap(),
        scenario
    );
    println!(
        "binary frame: {} bytes (text form: {} bytes)\n",
        frame.len(),
        printed.len()
    );

    // Build the schedule and run the scenario.
    let policies = scenario.build_schedule().expect("schedule builds");
    let refs: Vec<&dyn DistributionPolicy> = policies.iter().map(Box::as_ref).collect();
    let mut engine = MultiRoundEngine::new(RoundSchedule::of(refs)).rounds(scenario.rounds);
    if let Some(feedback) = scenario.feedback {
        engine = engine.feedback_into(feedback.as_str());
    }
    let outcome = engine.evaluate(scenario.query(), &scenario.instance);

    println!(
        "rounds run:  {} (converged: {})",
        outcome.rounds_run(),
        outcome.converged
    );
    println!("result size: {}", outcome.result.len());
    assert_eq!(
        outcome.result,
        engine
            .reference_fixpoint(scenario.query(), &scenario.instance)
            .result,
        "the distributed run matches the centralized fixpoint"
    );
    println!("matches the centralized global fixpoint ✓");
}
