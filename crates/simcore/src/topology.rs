//! A declared machine topology: packages → NUMA nodes → cores → SMT
//! siblings.
//!
//! The flat model every earlier PR used is the degenerate one-level tree
//! (one node, one thread per core); [`Topology::is_flat`] identifies it,
//! and every consumer of topology information is required to degrade to
//! the flat model's exact behaviour on such trees. The tree is uniform
//! (every package has the same number of nodes, and so on), which keeps
//! all structural queries pure arithmetic on the CPU id — no allocation,
//! no lookup tables, and `Copy` types all the way up the stack.
//!
//! CPU numbering is hierarchical: CPU ids enumerate threads within a
//! core, cores within a node, nodes within a package, packages last. So
//! on `2N4C2T`, CPUs 0–7 are node 0 and CPUs 8–15 are node 1, with
//! `{0,1}`, `{2,3}`, … the SMT sibling pairs.

use core::fmt;
use core::str::FromStr;

/// The most CPUs a declared machine may have. Every front end that
/// reads a CPU count from text (`--cpus`, `--topology`, a spec's
/// `shape`) checks it against this one ceiling, so a count that would
/// wrap, or whose per-CPU state could not be allocated, is an error
/// naming the bad text rather than a panic or an abort. It sits well
/// above every machine the repo runs (the largest is 300 CPUs).
pub const MAX_CPUS: usize = 4096;

/// Why a topology spelling was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TopologyError {
    /// Not the `[<P>P]<N>N<C>C<T>T` grammar, or a level with no children.
    Syntax(String),
    /// More than [`MAX_CPUS`] CPUs in total (a product that overflows
    /// `usize` included).
    TooManyCpus(String),
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::Syntax(s) => {
                write!(f, "bad topology {s:?} (expected e.g. 2N4C2T or 2P2N4C2T)")
            }
            TopologyError::TooManyCpus(s) => {
                write!(f, "topology {s:?} has more than {MAX_CPUS} CPUs")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

/// The CPU count of a tree with these arities, if it is at most
/// [`MAX_CPUS`] (checked: a product that overflows is `None` too).
fn checked_nr_cpus(levels: [usize; 4]) -> Option<usize> {
    levels
        .into_iter()
        .try_fold(1usize, usize::checked_mul)
        .filter(|&n| n <= MAX_CPUS)
}

/// A uniform machine topology tree.
///
/// Parsed from / displayed as the compact grammar `[P]P<N>N<C>C<T>T`
/// (packages, NUMA nodes per package, cores per node, SMT threads per
/// core); the package level is omitted when there is a single package,
/// so the common spellings are `2N4C2T` and `1N8C1T`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Topology {
    packages: usize,
    nodes_per_package: usize,
    cores_per_node: usize,
    threads_per_core: usize,
}

impl Topology {
    /// Builds a topology tree. Every arity must be at least one, and
    /// the tree at most [`MAX_CPUS`] CPUs.
    ///
    /// # Panics
    ///
    /// Panics if any level has zero children or the tree is too large
    /// (parse untrusted text with [`str::parse`] instead).
    pub fn new(
        packages: usize,
        nodes_per_package: usize,
        cores_per_node: usize,
        threads_per_core: usize,
    ) -> Topology {
        assert!(
            packages > 0 && nodes_per_package > 0 && cores_per_node > 0 && threads_per_core > 0,
            "every topology level needs at least one child"
        );
        assert!(
            checked_nr_cpus([
                packages,
                nodes_per_package,
                cores_per_node,
                threads_per_core
            ])
            .is_some(),
            "a topology has at most {MAX_CPUS} CPUs"
        );
        Topology {
            packages,
            nodes_per_package,
            cores_per_node,
            threads_per_core,
        }
    }

    /// The one-level tree matching the pre-topology flat model: a single
    /// node of `nr_cpus` independent cores.
    pub fn flat(nr_cpus: usize) -> Topology {
        Topology::new(1, 1, nr_cpus, 1)
    }

    /// Total CPUs (threads) in the machine. Cannot overflow: [`new`]
    /// admits only trees of at most [`MAX_CPUS`].
    ///
    /// [`new`]: Topology::new
    pub fn nr_cpus(&self) -> usize {
        self.packages * self.nodes_per_package * self.cores_per_node * self.threads_per_core
    }

    /// Total NUMA nodes across all packages.
    pub fn nr_nodes(&self) -> usize {
        self.packages * self.nodes_per_package
    }

    /// Number of packages (sockets).
    pub fn packages(&self) -> usize {
        self.packages
    }

    /// SMT threads per physical core.
    pub fn threads_per_core(&self) -> usize {
        self.threads_per_core
    }

    /// CPUs per NUMA node (cores × threads).
    pub fn cpus_per_node(&self) -> usize {
        self.cores_per_node * self.threads_per_core
    }

    /// True for one-level trees: a single node with no SMT, i.e. exactly
    /// the flat per-CPU model of the original paper reproduction. All
    /// topology-aware code paths must be byte-identical to the flat
    /// model on such trees.
    pub fn is_flat(&self) -> bool {
        self.nr_nodes() == 1 && self.threads_per_core == 1
    }

    /// The global NUMA node index of `cpu`.
    pub fn node_of(&self, cpu: usize) -> usize {
        cpu / self.cpus_per_node()
    }

    /// The global physical core index of `cpu`.
    pub fn core_of(&self, cpu: usize) -> usize {
        cpu / self.threads_per_core
    }

    /// The package (socket) index of `cpu`.
    pub fn package_of(&self, cpu: usize) -> usize {
        self.node_of(cpu) / self.nodes_per_package
    }

    /// Whether two CPUs are SMT siblings on one physical core.
    pub fn same_core(&self, a: usize, b: usize) -> bool {
        self.core_of(a) == self.core_of(b)
    }

    /// Whether two CPUs share a NUMA node (and with it the LLC in this
    /// model).
    pub fn same_node(&self, a: usize, b: usize) -> bool {
        self.node_of(a) == self.node_of(b)
    }

    /// Whether two CPUs sit in the same package.
    pub fn same_package(&self, a: usize, b: usize) -> bool {
        self.package_of(a) == self.package_of(b)
    }

    /// Scales a migration cost for a `from → to` task migration as a
    /// `(numerator, denominator)` pair. A level only discounts or
    /// inflates the cost when it is *informative* — shared by some but
    /// not all CPUs — so one-level (flat) trees always scale by `(1, 1)`
    /// and stay byte-identical to the pre-topology model:
    ///
    /// * SMT siblings share L1/L2: quarter cost.
    /// * Same NUMA node (shared LLC): half cost.
    /// * Cross-node within a package: 1.5×.
    /// * Cross-node across packages (or any cross-node move when there
    ///   is no intermediate package level): double cost.
    pub fn migration_scale(&self, from: usize, to: usize) -> (u64, u64) {
        if from == to {
            return (1, 1);
        }
        if self.threads_per_core > 1 && self.same_core(from, to) {
            return (1, 4);
        }
        if self.nr_nodes() > 1 {
            if self.same_node(from, to) {
                return (1, 2);
            }
            if self.nodes_per_package > 1 && self.packages > 1 && self.same_package(from, to) {
                return (3, 2);
            }
            return (2, 1);
        }
        (1, 1)
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.packages > 1 {
            write!(f, "{}P", self.packages)?;
        }
        write!(
            f,
            "{}N{}C{}T",
            self.nodes_per_package, self.cores_per_node, self.threads_per_core
        )
    }
}

impl FromStr for Topology {
    type Err = TopologyError;

    /// Parses `[<packages>P]<nodes>N<cores>C<threads>T`, e.g. `2N4C2T`
    /// or `2P2N4C2T`.
    fn from_str(s: &str) -> Result<Topology, TopologyError> {
        let err = || TopologyError::Syntax(s.to_string());
        let rest = s.strip_suffix('T').ok_or_else(err)?;
        let (rest, threads) = split_trailing_number(rest).ok_or_else(err)?;
        let rest = rest.strip_suffix('C').ok_or_else(err)?;
        let (rest, cores) = split_trailing_number(rest).ok_or_else(err)?;
        let rest = rest.strip_suffix('N').ok_or_else(err)?;
        let (rest, nodes) = split_trailing_number(rest).ok_or_else(err)?;
        let packages = if rest.is_empty() {
            1
        } else {
            let rest = rest.strip_suffix('P').ok_or_else(err)?;
            let (rest, p) = split_trailing_number(rest).ok_or_else(err)?;
            if !rest.is_empty() {
                return Err(err());
            }
            p
        };
        if packages == 0 || nodes == 0 || cores == 0 || threads == 0 {
            return Err(err());
        }
        if checked_nr_cpus([packages, nodes, cores, threads]).is_none() {
            return Err(TopologyError::TooManyCpus(s.to_string()));
        }
        Ok(Topology::new(packages, nodes, cores, threads))
    }
}

/// Splits a trailing decimal number off `s`, returning the prefix and
/// the parsed value. `None` when `s` does not end in a digit.
fn split_trailing_number(s: &str) -> Option<(&str, usize)> {
    let digits = s.len() - s.bytes().rev().take_while(u8::is_ascii_digit).count();
    if digits == s.len() {
        return None;
    }
    let n = s[digits..].parse().ok()?;
    Some((&s[..digits], n))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_is_flat() {
        let t = Topology::flat(4);
        assert!(t.is_flat());
        assert_eq!(t.nr_cpus(), 4);
        assert_eq!(t.nr_nodes(), 1);
        for cpu in 0..4 {
            assert_eq!(t.node_of(cpu), 0);
            assert_eq!(t.core_of(cpu), cpu);
        }
    }

    #[test]
    fn numa_smt_layout() {
        let t: Topology = "2N4C2T".parse().unwrap();
        assert!(!t.is_flat());
        assert_eq!(t.nr_cpus(), 16);
        assert_eq!(t.nr_nodes(), 2);
        assert_eq!(t.cpus_per_node(), 8);
        assert_eq!(t.node_of(0), 0);
        assert_eq!(t.node_of(7), 0);
        assert_eq!(t.node_of(8), 1);
        assert!(t.same_core(0, 1), "SMT siblings");
        assert!(!t.same_core(1, 2));
        assert!(t.same_node(1, 2));
        assert!(!t.same_node(7, 8));
    }

    #[test]
    fn packages_parse_and_round_trip() {
        let t: Topology = "2P2N4C2T".parse().unwrap();
        assert_eq!(t.packages(), 2);
        assert_eq!(t.nr_cpus(), 32);
        assert_eq!(t.nr_nodes(), 4);
        assert_eq!(t.package_of(0), 0);
        assert_eq!(t.package_of(15), 0);
        assert_eq!(t.package_of(16), 1);
        assert!(t.same_package(8, 15));
        assert!(!t.same_package(15, 16));
        assert_eq!(t.to_string(), "2P2N4C2T");
        assert_eq!("2N4C2T".parse::<Topology>().unwrap().to_string(), "2N4C2T");
        assert_eq!(Topology::flat(8).to_string(), "1N8C1T");
        assert_eq!("1N8C1T".parse::<Topology>().unwrap(), Topology::flat(8));
    }

    #[test]
    fn bad_spellings_are_rejected() {
        for bad in [
            "", "2N4C", "4C2T", "2X4C2T", "N4C2T", "0N4C2T", "2N4C0T", "x2N4C2T",
        ] {
            assert!(bad.parse::<Topology>().is_err(), "{bad:?} must not parse");
        }
    }

    /// A CPU count that wraps `usize` (4294967296² on 64 bits is 0) or
    /// that no machine could allocate is a `TooManyCpus` error, never a
    /// tree whose `nr_cpus` lies; `MAX_CPUS` itself still parses.
    #[test]
    fn oversized_and_overflowing_trees_are_rejected() {
        for big in [
            "4294967296N4294967296C1T",
            "1000N1000C1000T",
            "18446744073709551615N1C1T",
            "2P2049N1C1T",
            "1N4097C1T",
        ] {
            assert_eq!(
                big.parse::<Topology>(),
                Err(TopologyError::TooManyCpus(big.to_string()))
            );
        }
        let err = "1000N1000C1000T".parse::<Topology>().unwrap_err();
        assert_eq!(
            err.to_string(),
            "topology \"1000N1000C1000T\" has more than 4096 CPUs"
        );
        assert_eq!(
            "2P2N1024C1T".parse::<Topology>().unwrap().nr_cpus(),
            MAX_CPUS
        );
    }

    #[test]
    #[should_panic(expected = "at most 4096 CPUs")]
    fn new_refuses_a_tree_past_the_ceiling() {
        Topology::flat(MAX_CPUS + 1);
    }

    #[test]
    fn migration_scale_is_identity_on_flat_trees() {
        let t = Topology::flat(8);
        for from in 0..8 {
            for to in 0..8 {
                assert_eq!(t.migration_scale(from, to), (1, 1));
            }
        }
    }

    #[test]
    fn migration_scale_grades_by_distance() {
        let t: Topology = "2N4C2T".parse().unwrap();
        assert_eq!(t.migration_scale(0, 1), (1, 4), "SMT sibling");
        assert_eq!(t.migration_scale(0, 2), (1, 2), "same node");
        assert_eq!(t.migration_scale(0, 8), (2, 1), "cross node");
        let p: Topology = "2P2N4C2T".parse().unwrap();
        assert_eq!(p.migration_scale(0, 8), (3, 2), "cross node, same package");
        assert_eq!(p.migration_scale(0, 16), (2, 1), "cross package");
        // SMT-only trees leave non-sibling moves at the flat cost: the
        // single node is shared by everyone, hence uninformative.
        let s: Topology = "1N4C2T".parse().unwrap();
        assert_eq!(s.migration_scale(0, 1), (1, 4));
        assert_eq!(s.migration_scale(0, 2), (1, 1));
    }
}
