//! The sorted-order cache of one shared instance under threads: eight
//! threads evaluate seeded random queries — whose atoms list their
//! variables in varied orders, so they ask for different column orders of
//! the same relations — against one `Arc<Instance>`, building its orders
//! concurrently, and every answer equals the scan oracle's on a private
//! copy. Then half of the threads grow clones by `absorb` while the other
//! half keep evaluating the original. Nothing panics and the instance's
//! lock is never poisoned.

use std::sync::{Arc, Barrier};

use cq::{evaluate, ConjunctiveQuery, Fact, Instance, Value};

const THREADS: usize = 8;
const QUERIES: usize = 200;
const RELATIONS: [&str; 3] = ["R", "S", "T"];
const VARIABLES: [&str; 4] = ["x", "y", "z", "w"];

/// xorshift64, seeded: the same queries and facts on every run.
struct Rng(u64);

impl Rng {
    fn below(&mut self, bound: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % bound as u64) as usize
    }
}

fn facts(rng: &mut Rng, per_relation: usize) -> Vec<Fact> {
    let mut facts = Vec::new();
    for relation in RELATIONS {
        for _ in 0..per_relation {
            let [a, b] = [rng.below(10), rng.below(10)].map(|i| Value::indexed("c", i));
            facts.push(Fact::new(relation, vec![a, b]));
        }
    }
    facts
}

/// A 1–3-atom query over the binary relations; each atom draws both of
/// its variables (possibly the same one twice) and the head keeps a prefix
/// of the body's variables.
fn query(rng: &mut Rng) -> ConjunctiveQuery {
    let mut body = Vec::new();
    let mut seen: Vec<&str> = Vec::new();
    for _ in 0..=rng.below(3) {
        let [a, b] = [rng.below(4), rng.below(4)].map(|i| VARIABLES[i]);
        body.push(format!("{}({a}, {b})", RELATIONS[rng.below(3)]));
        for v in [a, b] {
            if !seen.contains(&v) {
                seen.push(v);
            }
        }
    }
    let head = &seen[..=rng.below(seen.len())];
    let text = format!("Q({}) :- {}.", head.join(", "), body.join(", "));
    ConjunctiveQuery::parse(&text).unwrap_or_else(|e| panic!("{text}: {e}"))
}

/// The scan oracle's answer on a private copy of `instance`.
fn oracle(query: &ConjunctiveQuery, instance: &Instance) -> Instance {
    oracle::evaluate(query, &instance.clone())
}

#[test]
fn threads_building_orders_of_one_shared_instance_agree_with_the_scan_oracle() {
    let shared = Arc::new(Instance::from_facts(facts(&mut Rng(0x5EED), 40)));
    let barrier = Barrier::new(THREADS);
    let answered: usize = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..THREADS)
            .map(|thread| {
                let (shared, barrier) = (&shared, &barrier);
                scope.spawn(move || {
                    let mut rng = Rng(0x9E37_79B9 + thread as u64);
                    let mut answered = 0;
                    // Phase 1: every thread evaluates the shared instance.
                    barrier.wait();
                    for _ in 0..QUERIES {
                        let q = query(&mut rng);
                        let answer = evaluate(&q, shared);
                        assert_eq!(answer, oracle(&q, shared), "{q}");
                        answered += answer.len();
                    }
                    // Phase 2: odd threads grow clones while even threads
                    // keep evaluating the original.
                    barrier.wait();
                    for _ in 0..QUERIES / 4 {
                        let q = query(&mut rng);
                        if thread % 2 == 0 {
                            let answer = evaluate(&q, shared);
                            assert_eq!(answer, oracle(&q, shared), "{q}");
                            continue;
                        }
                        let mut grown = Instance::clone(shared);
                        let _ = evaluate(&q, &grown);
                        let new = grown.absorb(&Instance::from_facts(facts(&mut rng, 5)));
                        assert!(new.facts().all(|fact| !shared.contains(fact)));
                        let answer = evaluate(&q, &grown);
                        assert_eq!(answer, oracle(&q, &grown), "{q} on a grown clone");
                    }
                    answered
                })
            })
            .collect();
        threads.into_iter().map(|t| t.join().unwrap()).sum()
    });
    assert!(answered > 1000, "the queries must find answers: {answered}");
    // Both column orders of all three relations were asked for, and the
    // lock behind them still answers.
    assert_eq!(shared.cached_orders(), 2 * RELATIONS.len());
    let q = ConjunctiveQuery::parse("Q(x, z) :- R(x, y), S(z, y).").unwrap();
    assert_eq!(evaluate(&q, &shared), oracle(&q, &shared));
}
