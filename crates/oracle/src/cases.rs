//! Random cases for the join kernel's differential tests, as text.
//!
//! `cq`'s kernel test (the leaves ascend, none twice) and the scan
//! differential in [`crate::eval`] (the leaf sets are the scan's) walk the
//! same queries and instances from the same seed. `cq`'s unit tests build
//! their own copy of `cq`, whose types are not this crate's, so a case is
//! handed over as text, for each side to parse.

/// xorshift64: the seeded source of the cases.
pub struct Random(pub u64);

impl Random {
    /// The next choice in `0..bound`.
    pub fn below(&mut self, bound: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % bound as u64) as usize
    }
}

/// The relations of the random queries and instances, by arity; the binary
/// ones twice, for more cycles.
const RELATIONS: [(&str, usize); 7] = [
    ("N", 0),
    ("U", 1),
    ("R", 2),
    ("S", 2),
    ("R", 2),
    ("S", 2),
    ("W", 3),
];

/// A random safe query of 1 to 5 atoms over `N/0`, `U/1`, `R/2`, `S/2`,
/// `W/3` and 4 variables: acyclic or cyclic, variables repeated inside
/// atoms.
pub fn random_query(random: &mut Random) -> String {
    let vars = ["x", "y", "z", "w"];
    let mut used: Vec<&str> = Vec::new();
    let body: Vec<String> = (0..1 + random.below(5))
        .map(|_| {
            let (relation, arity) = RELATIONS[random.below(RELATIONS.len())];
            let args: Vec<&str> = (0..arity).map(|_| vars[random.below(4)]).collect();
            used.extend(&args);
            format!("{relation}({})", args.join(", "))
        })
        .collect();
    used.sort_unstable();
    used.dedup();
    used.retain(|_| random.below(3) > 0);
    format!("T({}) :- {}.", used.join(", "), body.join(", "))
}

/// Up to `facts` random facts over the relations of [`random_query`] and
/// the values `r0`–`r3`, one in eight of another arity than its relation's.
pub fn random_facts(random: &mut Random, facts: usize) -> String {
    let mut text = String::new();
    for _ in 0..random.below(facts + 1) {
        let (relation, arity) = RELATIONS[random.below(RELATIONS.len())];
        let arity = if random.below(8) == 0 {
            random.below(4)
        } else {
            arity
        };
        let values: Vec<String> = (0..arity)
            .map(|_| format!("r{}", random.below(4)))
            .collect();
        text += &format!("{relation}({}). ", values.join(", "));
    }
    text
}

/// Cyclic queries whose last variable closes two atoms (the triangle,
/// projected or not, and the 4-cycle) or three (the 4-clique), and a query
/// whose last variable also fills both columns of `R(w, w)`.
pub const CYCLIC_SHAPES: [&str; 5] = [
    "T(x, y, z) :- R(x, y), R(y, z), R(z, x).",
    "T(z) :- R(x, y), S(y, z), R(z, x).",
    "T(x, y, z, w) :- R(x, y), R(y, z), R(z, w), R(w, x).",
    "T(x, y, z, w) :- R(x, y), R(x, z), R(x, w), R(y, z), R(y, w), R(z, w).",
    "T(x, y, w) :- R(x, y), R(y, x), R(x, x), R(y, w), R(w, w).",
];

/// Queries whose heads hold one or two values, the heads a dense answer set
/// collects: projections of a path, a join, a cycle and a looped path, heads
/// in another order than the body binds, and heads that repeat their
/// variable. Most end in a variable read straight off one atom's run, which
/// the kernel hands to the answer set in one call; that variable is outside
/// the head, the head's first value, its second, or both of its values.
pub const NARROW_HEADS: [&str; 10] = [
    "T(x) :- R(x, y).",
    "T(z) :- R(x, y), S(y, z).",
    "T(x, z) :- R(x, y), R(y, z).",
    "T(x, z) :- R(x, y), R(y, z), R(y, y).",
    "T(z, x) :- R(x, y), S(y, z), R(z, x).",
    "T(y, y) :- R(x, y), S(y, x).",
    "T(z, x) :- R(x, y), R(y, z).",
    "T(y) :- R(x, y), R(y, z).",
    "T(x, x) :- R(x, y).",
    "T(y, y) :- R(x, y).",
];

/// `facts` random `R` and `S` facts over `r0`–`r39`, repeats allowed:
/// uniform, or skewed so that a few values carry most of the edges.
pub fn binary_facts(random: &mut Random, skewed: bool, facts: usize) -> String {
    let value = |random: &mut Random| {
        let mut at = random.below(40);
        if skewed {
            at = random.below(at + 1);
            at = random.below(at + 1);
        }
        at
    };
    let mut text = String::new();
    for _ in 0..facts {
        let relation = ["R", "S"][random.below(2)];
        let (a, b) = (value(random), value(random));
        text += &format!("{relation}(r{a}, r{b}). ");
    }
    text
}

/// A random binding of some of `variables`, each to one of the values
/// `r0`–`r4`, by name.
pub fn random_binding<V>(
    random: &mut Random,
    variables: impl IntoIterator<Item = V>,
) -> Vec<(V, String)> {
    let mut binding = Vec::new();
    for var in variables {
        if random.below(4) == 0 {
            binding.push((var, format!("r{}", random.below(5))));
        }
    }
    binding
}
