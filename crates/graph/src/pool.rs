//! The fixed-size result pool `R` of the joint search (Algorithm 2), and
//! the one bounded top-`k` of the tree.
//!
//! A sorted (descending similarity) array of at most `l` entries with a
//! visited flag per entry — the classic proximity-graph search pool.  The
//! pool's worst similarity once full is the pruning threshold fed to
//! [`crate::QueryScorer::score_pruned`] (Lemma 4).  The exact scans and
//! the weight learner's mining fill the same pool with ids in ascending
//! order, so their pool order is already [`answer_order`].
//!
//! A routing entry (a tombstoned vertex, Section IX) is expanded while it
//! sits above the `l`-th live entry, but takes no capacity and never ranks.

use std::cmp::Ordering;

/// The one answer order: similarity descending (by `total_cmp`), then id
/// ascending.  A total order, so an answer is a pure function of the
/// query, not of the order its members were met in.
#[inline]
#[must_use]
pub fn answer_order(a: &(u32, f32), b: &(u32, f32)) -> Ordering {
    b.1.total_cmp(&a.1).then(a.0.cmp(&b.0))
}

/// One pool entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoolEntry {
    /// Similarity to the query (higher = better).
    pub sim: f32,
    /// Object id.
    pub id: u32,
    /// Whether the search already expanded this vertex.
    pub visited: bool,
    /// Whether the entry may rank; `false` for a routing entry.
    pub live: bool,
}

/// Fixed-capacity result pool, sorted by descending similarity.
#[derive(Debug, Clone)]
pub struct Pool {
    entries: Vec<PoolEntry>,
    capacity: usize,
    /// Live entries; once it reaches `capacity` the tail entry is live.
    live: usize,
    /// Index of the first unvisited entry (`entries.len()` when none):
    /// every entry before it is visited.  Lowered by an insert in front of
    /// it, advanced by [`Pool::visit`].
    cursor: usize,
}

impl Default for Pool {
    /// An empty pool of capacity 1; callers reusing a pool as search
    /// scratch size it per query with [`Pool::reset`].
    fn default() -> Self {
        Self::new(1, 1)
    }
}

impl Pool {
    /// Creates a pool of capacity `l` for ids drawn from `0..n`.
    #[must_use]
    pub fn new(l: usize, n: usize) -> Self {
        let mut pool = Self { entries: Vec::new(), capacity: l, live: 0, cursor: 0 };
        pool.reset(l, n);
        pool
    }

    /// Clears the pool and re-sizes it to capacity `l` for ids drawn from
    /// `0..n`, keeping the entry allocation — the steady state of a query
    /// batch allocates nothing.
    pub fn reset(&mut self, l: usize, n: usize) {
        assert!(l > 0, "pool capacity must be positive");
        self.entries.clear();
        // `reserve` is relative to the (now zero) length.  At most `n`
        // distinct ids arrive, plus the transient l+1-th entry `insert`
        // holds before evicting: no growth inside the search loop, and no
        // reservation of a huge `l` the allocator cannot satisfy.
        self.entries.reserve(l.min(n) + 1);
        self.capacity = l;
        self.live = 0;
        self.cursor = 0;
    }

    /// Current number of entries, routing ones included.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the pool holds no entries.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether the pool holds `l` live entries.
    #[inline]
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.live == self.capacity
    }

    /// The similarity of the worst (the `l`-th live) entry when full, else
    /// `-inf`: the safe discard threshold for new candidates.
    #[inline]
    #[must_use]
    pub fn threshold(&self) -> f32 {
        if self.is_full() {
            self.entries[self.entries.len() - 1].sim
        } else {
            f32::NEG_INFINITY
        }
    }

    /// [`Pool::admit`] of a live entry.
    pub fn insert(&mut self, id: u32, sim: f32) -> bool {
        self.admit(id, sim, true)
    }

    /// Inserts `(id, sim)` keeping the pool sorted; over `l` live entries
    /// evicts the worst, then every routing entry below the `l`-th live
    /// one.  Returns `true` if the entry was kept.
    ///
    /// The caller is responsible for not inserting the same id twice (the
    /// search's visited set guarantees this).
    pub fn admit(&mut self, id: u32, sim: f32, live: bool) -> bool {
        if self.is_full() && sim <= self.threshold() {
            return false;
        }
        let pos = self
            .entries
            .partition_point(|e| e.sim >= sim);
        self.entries.insert(pos, PoolEntry { sim, id, visited: false, live });
        self.live += usize::from(live);
        if self.live > self.capacity {
            self.entries.pop();
            self.live -= 1;
        }
        while self.is_full() && self.entries.last().is_some_and(|e| !e.live) {
            self.entries.pop();
        }
        // The new entry is unvisited; at `pos >= cursor` the visited
        // prefix is untouched.
        self.cursor = self.cursor.min(pos);
        true
    }

    /// Index of the best unvisited entry, if any (Line 5 of Algorithm 2).
    #[inline]
    #[must_use]
    pub fn best_unvisited(&self) -> Option<usize> {
        (self.cursor < self.entries.len()).then_some(self.cursor)
    }

    /// Marks entry `idx` as visited and returns its id.
    pub fn visit(&mut self, idx: usize) -> u32 {
        self.entries[idx].visited = true;
        while self.entries.get(self.cursor).is_some_and(|e| e.visited) {
            self.cursor += 1;
        }
        self.entries[idx].id
    }

    /// Entry access (tests, diagnostics).
    #[must_use]
    pub fn entries(&self) -> &[PoolEntry] {
        &self.entries
    }

    /// The best `k` live `(id, sim)` pairs, descending, in pool order: equal
    /// similarities in the order the walk met them (what construction's
    /// candidate lists are pinned to).
    #[must_use]
    pub fn top_k(&self, k: usize) -> Vec<(u32, f32)> {
        self.entries.iter().filter(|e| e.live).take(k).map(|e| (e.id, e.sim)).collect()
    }

    /// The best `k` live `(id, sim)` pairs in [`answer_order`], so an answer
    /// is a pure function of the query and not of the order the walk met its
    /// members.  A tied run across the `k`-th place joins the sort.
    /// Without ties this is [`Pool::top_k`], and the sort of the already
    /// sorted head is one pass.
    #[must_use]
    pub fn ranked(&self, k: usize) -> Vec<(u32, f32)> {
        let mut out: Vec<(u32, f32)> = Vec::with_capacity(k.min(self.live));
        for e in self.entries.iter().filter(|e| e.live) {
            if out.len() >= k && out.last().is_none_or(|l| l.1 != e.sim) {
                break;
            }
            out.push((e.id, e.sim));
        }
        out.sort_by(answer_order);
        out.truncate(k);
        out
    }

    /// Sum of all pool similarities — the monotone function `f(eta)` of
    /// Lemma 3, exposed for the property test that pins the lemma.
    #[must_use]
    pub fn sim_sum(&self) -> f64 {
        self.entries.iter().map(|e| e.sim as f64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_keeps_descending_order() {
        let mut p = Pool::new(3, 16);
        for (id, sim) in [(1, 0.5), (2, 0.9), (3, 0.1), (4, 0.7)] {
            p.insert(id, sim);
        }
        let sims: Vec<f32> = p.entries().iter().map(|e| e.sim).collect();
        assert_eq!(sims, vec![0.9, 0.7, 0.5]);
        assert!(p.is_full());
    }

    #[test]
    fn ranked_breaks_ties_by_id_across_the_cut() {
        let mut p = Pool::new(6, 16);
        for (id, sim) in [(9, 0.5), (2, 0.9), (7, 0.5), (3, 0.5), (8, 0.1)] {
            p.insert(id, sim);
        }
        assert_eq!(p.top_k(3), vec![(2, 0.9), (9, 0.5), (7, 0.5)], "pool order: as met");
        assert_eq!(p.ranked(3), vec![(2, 0.9), (3, 0.5), (7, 0.5)]);
        assert_eq!(p.ranked(9), vec![(2, 0.9), (3, 0.5), (7, 0.5), (9, 0.5), (8, 0.1)]);
        assert_eq!(p.ranked(0), vec![]);
    }

    #[test]
    fn a_routing_entry_is_expanded_but_takes_no_capacity_and_never_ranks() {
        let mut p = Pool::new(2, 16);
        assert!(p.admit(1, 0.9, false));
        p.insert(2, 0.5);
        assert!(!p.is_full(), "one live entry of two");
        assert_eq!(p.threshold(), f32::NEG_INFINITY);
        let i = p.best_unvisited().unwrap();
        assert_eq!(p.visit(i), 1, "the routing entry is expanded first");
        p.insert(3, 0.4);
        assert!(p.is_full());
        assert_eq!(p.threshold(), 0.4);
        assert_eq!(p.len(), 3, "the routing entry above the 2nd live one stays");
        assert_eq!(p.ranked(3), vec![(2, 0.5), (3, 0.4)]);
        assert_eq!(p.top_k(3), vec![(2, 0.5), (3, 0.4)]);
    }

    #[test]
    fn a_full_pool_ends_on_a_live_entry() {
        let ids = |p: &Pool| p.entries().iter().map(|e| e.id).collect::<Vec<_>>();
        let mut p = Pool::new(2, 16);
        p.insert(1, 0.9);
        p.admit(2, 0.5, false);
        p.admit(3, 0.3, false);
        assert_eq!(ids(&p), [1, 2, 3], "room left: every routing entry stays");
        p.insert(4, 0.6);
        assert_eq!(ids(&p), [1, 4], "full: the routing entries below the 2nd live one go");
        assert!(p.admit(5, 0.7, false), "a routing entry above the threshold is kept");
        assert!(!p.admit(6, 0.6, false), "one at the threshold is not");
        p.insert(7, 0.8);
        assert_eq!(ids(&p), [1, 7], "evicting the worst live entry drops the routing tail");
        assert!(p.is_full() && p.entries().last().unwrap().live);
        assert_eq!(p.threshold(), 0.8);
    }

    #[test]
    fn full_pool_rejects_worse_candidates() {
        let mut p = Pool::new(2, 16);
        assert!(p.insert(1, 0.5));
        assert!(p.insert(2, 0.8));
        assert!(!p.insert(3, 0.4), "worse than threshold must be rejected");
        assert!((p.threshold() - 0.5).abs() < 1e-9);
        assert!(p.insert(4, 0.6));
        assert!((p.threshold() - 0.6).abs() < 1e-9);
    }

    #[test]
    fn threshold_is_neg_inf_until_full() {
        let mut p = Pool::new(4, 16);
        assert_eq!(p.threshold(), f32::NEG_INFINITY);
        p.insert(0, 0.1);
        assert_eq!(p.threshold(), f32::NEG_INFINITY);
    }

    #[test]
    fn visiting_walks_best_first() {
        let mut p = Pool::new(3, 16);
        p.insert(10, 0.2);
        p.insert(20, 0.9);
        p.insert(30, 0.5);
        let i = p.best_unvisited().unwrap();
        assert_eq!(p.visit(i), 20);
        let i = p.best_unvisited().unwrap();
        assert_eq!(p.visit(i), 30);
        let i = p.best_unvisited().unwrap();
        assert_eq!(p.visit(i), 10);
        assert!(p.best_unvisited().is_none());
    }

    #[test]
    fn eviction_never_drops_visited_invariant() {
        // A visited entry evicted by better candidates must not resurface.
        let mut p = Pool::new(2, 16);
        p.insert(1, 0.1);
        let i = p.best_unvisited().unwrap();
        p.visit(i);
        p.insert(2, 0.5);
        p.insert(3, 0.6); // evicts id 1 (visited)
        assert_eq!(p.len(), 2);
        assert!(p.entries().iter().all(|e| e.id != 1));
    }

    #[test]
    fn sim_sum_monotone_under_replacement() {
        // Lemma 3 core step: replacing the worst with a better candidate
        // cannot decrease the pool's similarity sum.
        let mut p = Pool::new(3, 16);
        p.insert(1, 0.1);
        p.insert(2, 0.2);
        p.insert(3, 0.3);
        let before = p.sim_sum();
        p.insert(4, 0.25);
        assert!(p.sim_sum() >= before);
    }

    #[test]
    fn reset_reserves_for_the_transient_overflow_entry() {
        // A fresh default pool re-sized up must already have room for the
        // l+1-th entry `insert` briefly holds — no growth mid-search.
        let mut p = Pool::default();
        p.reset(100, 150);
        assert!(p.entries.capacity() >= 101, "capacity {}", p.entries.capacity());
        for id in 0..150u32 {
            p.insert(id, id as f32);
        }
        assert_eq!(p.len(), 100);
        assert!(p.entries.capacity() >= 101);
        // At most `n` distinct ids arrive: a huge `l` reserves for them
        // alone.
        p.reset(1 << 40, 64);
        assert!(p.entries.capacity() < 1 << 10, "capacity {}", p.entries.capacity());
    }

    #[test]
    fn top_k_truncates() {
        let mut p = Pool::new(5, 16);
        for id in 0..4 {
            p.insert(id, id as f32);
        }
        let top = p.top_k(2);
        assert_eq!(top, vec![(3, 3.0), (2, 2.0)]);
    }
}
