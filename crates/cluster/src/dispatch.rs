//! The cluster dispatcher: the upper tier of the two-level scheduler.
//!
//! The paper's scheduler decides *which task runs next on one box*; a
//! chat service of the era scaled past one box with a connection router
//! in front — a dispatcher deciding *which box a room and each of its
//! connections lands on*. Placement is made once, at admission (rooms
//! and clients are long-lived), so the dispatcher is pure bookkeeping:
//! no simulated cycles are charged for it, exactly like the lab's other
//! out-of-band machinery.
//!
//! Placement quality then feeds back through the *lower* tier: a node
//! that receives more connections runs more threads, and under the O(n)
//! baseline every extra thread makes every `schedule()` call on that
//! node slower. The cluster sweep measures exactly that interaction.

use std::fmt;
use std::str::FromStr;

use elsc_simcore::splitmix64;

/// The placement policies the dispatcher tier ships with.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DispatcherId {
    /// Rooms and clients dealt to nodes in strict rotation.
    RoundRobin,
    /// Each placement goes to the node with the fewest threads so far
    /// (ties to the lowest node id). The classic connection router.
    LeastLoaded,
    /// Placements hashed onto a virtual-node ring: stable under
    /// membership change, but load balance is only as good as the hash.
    ConsistentHash,
    /// Clients co-located with their room's server side: zero
    /// cross-node traffic, load balance entirely up to room placement.
    Locality,
}

impl DispatcherId {
    /// Every policy, in presentation order.
    pub const ALL: [DispatcherId; 4] = [
        DispatcherId::RoundRobin,
        DispatcherId::LeastLoaded,
        DispatcherId::ConsistentHash,
        DispatcherId::Locality,
    ];

    /// The CLI/report token for this policy.
    pub fn label(&self) -> &'static str {
        match self {
            DispatcherId::RoundRobin => "round-robin",
            DispatcherId::LeastLoaded => "least-loaded",
            DispatcherId::ConsistentHash => "consistent-hash",
            DispatcherId::Locality => "locality",
        }
    }

    /// One-line description for `elsc-sim ls`.
    pub fn describe(&self) -> &'static str {
        match self {
            DispatcherId::RoundRobin => "deal rooms and clients to nodes in rotation",
            DispatcherId::LeastLoaded => {
                "place on the node with the fewest threads (ties: lowest id)"
            }
            DispatcherId::ConsistentHash => "hash placements onto a 16-vnode-per-node ring",
            DispatcherId::Locality => "co-locate every client with its room's server",
        }
    }
}

impl fmt::Display for DispatcherId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for DispatcherId {
    type Err = String;

    fn from_str(s: &str) -> Result<DispatcherId, String> {
        DispatcherId::ALL
            .iter()
            .copied()
            .find(|d| d.label() == s.trim())
            .ok_or_else(|| {
                let known: Vec<&str> = DispatcherId::ALL.iter().map(|d| d.label()).collect();
                format!("unknown dispatcher '{s}' (known: {})", known.join(", "))
            })
    }
}

/// Virtual nodes per physical node on the consistent-hash ring.
const VNODES: usize = 16;

/// The dispatcher's mutable placement state. One instance drives one
/// cluster build; placements are a pure function of the call sequence,
/// so the same workload shape always shards the same way.
#[derive(Debug)]
pub struct Dispatcher {
    id: DispatcherId,
    nodes: usize,
    /// Round-robin rotation cursor.
    next: usize,
    /// Thread-count estimate per node (least-loaded).
    load: Vec<u64>,
    /// `(hash, node)` ring, sorted by hash (consistent-hash).
    ring: Vec<(u64, usize)>,
    /// Locality's room rotation cursor.
    room_next: usize,
}

impl Dispatcher {
    /// A fresh dispatcher for a cluster of `nodes` machines.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn new(id: DispatcherId, nodes: usize) -> Dispatcher {
        assert!(nodes > 0, "cluster needs at least one node");
        let mut ring: Vec<(u64, usize)> = (0..nodes)
            .flat_map(|n| {
                (0..VNODES).map(move |v| (splitmix64(&mut ((n as u64) << 32 | v as u64)), n))
            })
            .collect();
        ring.sort_unstable();
        Dispatcher {
            id,
            nodes,
            next: 0,
            load: vec![0; nodes],
            ring,
            room_next: 0,
        }
    }

    /// The policy this dispatcher runs.
    pub fn id(&self) -> DispatcherId {
        self.id
    }

    fn ring_lookup(&self, hash: u64) -> usize {
        let i = self.ring.partition_point(|&(h, _)| h < hash);
        self.ring[i % self.ring.len()].1
    }

    fn least_loaded(&self) -> usize {
        let mut best = 0;
        for n in 1..self.nodes {
            if self.load[n] < self.load[best] {
                best = n;
            }
        }
        best
    }

    /// Places a room's server side: returns the home node. `weight` is
    /// the thread count this placement adds there (VolanoMark: two
    /// server threads per member).
    pub fn place_room(&mut self, room: usize, weight: u64) -> usize {
        let node = match self.id {
            DispatcherId::RoundRobin => {
                let n = self.next % self.nodes;
                self.next += 1;
                n
            }
            DispatcherId::LeastLoaded => self.least_loaded(),
            DispatcherId::ConsistentHash => {
                self.ring_lookup(splitmix64(&mut (0x500D ^ (room as u64) << 8)))
            }
            DispatcherId::Locality => {
                let n = self.room_next % self.nodes;
                self.room_next += 1;
                n
            }
        };
        self.load[node] += weight;
        node
    }

    /// Places one client connection of `room` (whose server side lives
    /// on `room_node`): returns the client's node. `weight` is the
    /// thread count added there (VolanoMark: two client threads).
    pub fn place_client(
        &mut self,
        room: usize,
        user: usize,
        room_node: usize,
        weight: u64,
    ) -> usize {
        let node = match self.id {
            DispatcherId::RoundRobin => {
                let n = self.next % self.nodes;
                self.next += 1;
                n
            }
            DispatcherId::LeastLoaded => self.least_loaded(),
            DispatcherId::ConsistentHash => self.ring_lookup(splitmix64(
                &mut (0xC11E ^ ((room as u64) << 20 | user as u64)),
            )),
            DispatcherId::Locality => room_node,
        };
        self.load[node] += weight;
        node
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip() {
        for d in DispatcherId::ALL {
            assert_eq!(d.label().parse::<DispatcherId>().unwrap(), d);
        }
        assert!("warp-drive".parse::<DispatcherId>().is_err());
    }

    #[test]
    fn round_robin_rotates_over_all_placements() {
        let mut d = Dispatcher::new(DispatcherId::RoundRobin, 3);
        let h = d.place_room(0, 8);
        assert_eq!(h, 0);
        assert_eq!(d.place_client(0, 0, h, 2), 1);
        assert_eq!(d.place_client(0, 1, h, 2), 2);
        assert_eq!(d.place_client(0, 2, h, 2), 0);
    }

    #[test]
    fn least_loaded_balances_threads_and_breaks_ties_low() {
        let mut d = Dispatcher::new(DispatcherId::LeastLoaded, 2);
        // Empty cluster: tie, so the room lands on node 0 with weight 8.
        assert_eq!(d.place_room(0, 8), 0);
        // Clients now pile onto node 1 until it catches up.
        for user in 0..4 {
            assert_eq!(d.place_client(0, user, 0, 2), 1);
        }
        // 8 vs 8: tie again, back to node 0.
        assert_eq!(d.place_client(0, 4, 0, 2), 0);
    }

    #[test]
    fn consistent_hash_is_stable_and_spreads() {
        let placements = |nodes| {
            let mut d = Dispatcher::new(DispatcherId::ConsistentHash, nodes);
            (0..64).map(|r| d.place_room(r, 1)).collect::<Vec<_>>()
        };
        assert_eq!(placements(4), placements(4), "pure function of inputs");
        let p = placements(4);
        for n in 0..4 {
            assert!(p.contains(&n), "node {n} got no rooms out of 64");
        }
        // Ring stability: adding a node moves some placements but leaves
        // most where they were (the property the policy exists for).
        let p5 = placements(5);
        let moved = p.iter().zip(&p5).filter(|(a, b)| a != b).count();
        assert!(moved < 40, "{moved}/64 placements moved on grow");
    }

    #[test]
    fn locality_pins_clients_to_the_room_home() {
        let mut d = Dispatcher::new(DispatcherId::Locality, 4);
        for room in 0..8 {
            let home = d.place_room(room, 8);
            assert_eq!(home, room % 4, "rooms rotate across nodes");
            for user in 0..5 {
                assert_eq!(d.place_client(room, user, home, 2), home);
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_node_cluster_is_rejected() {
        Dispatcher::new(DispatcherId::RoundRobin, 0);
    }
}
