//! Computing nodes and networks.

use std::collections::BTreeSet;
use std::fmt;

use cq::Symbol;

/// A computing node (server).
///
/// The paper models nodes as values from **dom**; here they are interned
/// names, so they are `Copy` and cheap to store in sets.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Node(Symbol);

impl Node {
    /// A node with the given name.
    pub fn new(name: &str) -> Node {
        Node(Symbol::new(name))
    }

    /// The `index`-th node of the standard naming scheme (`n0`, `n1`, …).
    pub fn numbered(index: usize) -> Node {
        Node(Symbol::new(&format!("n{index}")))
    }

    /// A node named after a Hypercube address, e.g. `node(1,0,2)`.
    pub fn from_address(address: &[usize]) -> Node {
        let parts: Vec<String> = address.iter().map(|a| a.to_string()).collect();
        Node(Symbol::new(&format!("node({})", parts.join(","))))
    }

    /// The node name.
    pub fn as_str(self) -> &'static str {
        self.0.as_str()
    }

    /// The underlying interned symbol.
    pub fn symbol(self) -> Symbol {
        self.0
    }
}

impl From<Symbol> for Node {
    /// The node named by an already-interned symbol (no interner lookup).
    fn from(symbol: Symbol) -> Self {
        Node(symbol)
    }
}

impl fmt::Debug for Node {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Node({})", self.as_str())
    }
}

impl fmt::Display for Node {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for Node {
    fn from(value: &str) -> Self {
        Node::new(value)
    }
}

/// A non-empty finite set of computing nodes.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Network {
    nodes: BTreeSet<Node>,
}

impl Network {
    /// Builds a network from nodes.
    pub fn new<I: IntoIterator<Item = Node>>(nodes: I) -> Network {
        Network {
            nodes: nodes.into_iter().collect(),
        }
    }

    /// A network of `size` nodes named `n0 … n{size-1}`.
    pub fn with_size(size: usize) -> Network {
        Network {
            nodes: (0..size).map(Node::numbered).collect(),
        }
    }

    /// Adds a node.
    pub fn add(&mut self, node: Node) {
        self.nodes.insert(node);
    }

    /// The number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the network has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Whether the network contains `node`.
    pub fn contains(&self, node: Node) -> bool {
        self.nodes.contains(&node)
    }

    /// Iterates over the nodes in name order.
    pub fn nodes(&self) -> impl Iterator<Item = Node> + '_ {
        self.nodes.iter().copied()
    }

    /// The nodes as an ordered set.
    pub fn to_set(&self) -> BTreeSet<Node> {
        self.nodes.clone()
    }
}

impl FromIterator<Node> for Network {
    fn from_iter<T: IntoIterator<Item = Node>>(iter: T) -> Self {
        Network::new(iter)
    }
}

impl fmt::Display for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, n) in self.nodes.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{n}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbered_nodes_are_stable() {
        assert_eq!(Node::numbered(3), Node::new("n3"));
        assert_eq!(Node::numbered(3).as_str(), "n3");
    }

    #[test]
    fn network_with_size_has_distinct_nodes() {
        let n = Network::with_size(5);
        assert_eq!(n.len(), 5);
        assert!(n.contains(Node::numbered(0)));
        assert!(n.contains(Node::numbered(4)));
        assert!(!n.contains(Node::numbered(5)));
    }

    #[test]
    fn address_nodes_encode_their_coordinates() {
        let n = Node::from_address(&[1, 0, 2]);
        assert_eq!(n.as_str(), "node(1,0,2)");
        assert_eq!(n, Node::from_address(&[1, 0, 2]));
        assert_ne!(n, Node::from_address(&[0, 1, 2]));
    }

    #[test]
    fn network_is_a_set() {
        let n = Network::new([Node::new("a"), Node::new("a"), Node::new("b")]);
        assert_eq!(n.len(), 2);
    }

    #[test]
    fn display_formats() {
        let n = Network::new([Node::new("a"), Node::new("b")]);
        assert_eq!(n.to_string(), "{a, b}");
    }
}
