//! The one static-goodness order: sorted sets of run-queue members keyed
//! by (goodness or static part, tie stamp). reg's goodness index
//! (`elsc-sched-linux`) and the `heap` and `aheap` designs
//! (`elsc-sched-ext`) each keep their own partition into sets, stamp rule
//! and selection; the order and its near-head search live here once.

use elsc_ktask::MmId;

/// A set member: a goodness (or static part), a tie stamp, the slot and
/// its address space, in 24 bytes. The better task is the greater
/// [`Rank`]: higher goodness, then lower stamp.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Member {
    /// The stamp turned around, so that an earlier one is greater, and
    /// the goodness with its sign bit flipped, to compare as unsigned.
    early: u64,
    goodness: u32,
    /// The task's slab slot.
    pub slot: u32,
    /// The address space the member was filed with.
    pub mm: MmId,
}

/// A member's sort key, both halves compared at once.
pub type Rank = u128;

/// The rank of a member filed under `goodness` and `stamp`.
#[inline]
pub fn rank(goodness: i32, stamp: i64) -> Rank {
    Member::new(goodness, stamp, 0, MmId::KERNEL).rank()
}

impl Member {
    /// The member for slot `slot` filed under `goodness` and `stamp`.
    #[inline]
    pub fn new(goodness: i32, stamp: i64, slot: usize, mm: MmId) -> Member {
        Member {
            early: !((stamp as u64) ^ 1 << 63),
            goodness: goodness as u32 ^ 1 << 31,
            slot: slot as u32,
            mm,
        }
    }

    /// The member's sort key.
    #[inline]
    pub fn rank(&self) -> Rank {
        (self.goodness as u128) << 64 | self.early as u128
    }

    /// The goodness (or static part) the member is filed under.
    #[inline]
    pub fn goodness(&self) -> i32 {
        (self.goodness ^ 1 << 31) as i32
    }

    /// The tie stamp the member is filed under.
    #[inline]
    pub fn stamp(&self) -> i64 {
        (!self.early ^ 1 << 63) as i64
    }

    /// The same task `by` goodness higher.
    #[inline]
    pub fn lifted(&self, by: i32) -> Member {
        Member {
            goodness: (self.goodness() + by) as u32 ^ 1 << 31,
            ..*self
        }
    }
}

/// A sorted set of members, worst first: the head is the last element,
/// where picks and most inserts happen. Whoever fills the `Vec` directly
/// sorts it by [`Member::rank`] afterwards.
#[derive(Debug, Default)]
pub struct Members(pub Vec<Member>);

impl Members {
    /// Where `rank` goes: the number of members below it. Picks and
    /// wake-ups happen near the head, so the search starts there.
    #[inline]
    pub fn position(&self, rank: Rank) -> usize {
        const NEAR: usize = 8;
        let v = &self.0;
        let near = v.len().saturating_sub(NEAR);
        match v[near..].iter().rposition(|x| x.rank() < rank) {
            Some(i) => near + i + 1,
            None => v[..near].partition_point(|x| x.rank() < rank),
        }
    }

    /// Files `m` in order.
    #[inline]
    pub fn insert(&mut self, m: Member) {
        let at = self.position(m.rank());
        self.0.insert(at, m);
    }

    /// Removes the member ranked `rank`, which must be in the set.
    #[inline]
    pub fn remove(&mut self, rank: Rank) {
        let at = self.position(rank);
        debug_assert!(
            self.0.get(at).is_some_and(|x| x.rank() == rank),
            "index set out of step"
        );
        self.0.remove(at);
    }

    /// Best first, without slot `skip`.
    #[inline]
    pub fn best_first(&self, skip: u32) -> impl Iterator<Item = &Member> {
        self.0.iter().rev().filter(move |m| m.slot != skip)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn members_order_by_goodness_then_stamp_and_round_trip() {
        let worst_first = [
            (i32::MIN, 0),
            (-3, 4),
            (0, i64::MAX),
            (41, 9),
            (41, 0),
            (41, -1),
            (1099, -5),
            (i32::MAX, i64::MIN),
        ];
        let members: Vec<Member> = worst_first
            .iter()
            .enumerate()
            .map(|(slot, &(g, stamp))| Member::new(g, stamp, slot, MmId(7)))
            .collect();
        assert!(
            members.windows(2).all(|w| w[0].rank() < w[1].rank()),
            "better is greater"
        );
        for (m, &case) in members.iter().zip(&worst_first) {
            assert_eq!((m.goodness(), m.stamp()), case);
        }
        assert_eq!(members[4].lifted(1).rank(), rank(42, 0));
    }
}
