//! The fixed-size result pool `R` of the joint search (Algorithm 2).
//!
//! A sorted (descending similarity) array of at most `l` entries with a
//! visited flag per entry — the classic proximity-graph search pool.  The
//! pool's worst similarity once full is the pruning threshold fed to
//! [`crate::QueryScorer::score_pruned`] (Lemma 4).

/// One pool entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoolEntry {
    /// Similarity to the query (higher = better).
    pub sim: f32,
    /// Object id.
    pub id: u32,
    /// Whether the search already expanded this vertex.
    pub visited: bool,
}

/// Fixed-capacity result pool, sorted by descending similarity.
#[derive(Debug, Clone)]
pub struct Pool {
    entries: Vec<PoolEntry>,
    capacity: usize,
    /// Index of the first unvisited entry (`entries.len()` when none):
    /// every entry before it is visited.  Lowered by an insert in front of
    /// it, advanced by [`Pool::visit`].
    cursor: usize,
}

impl Default for Pool {
    /// An empty pool of capacity 1; callers reusing a pool as search
    /// scratch size it per query with [`Pool::reset`].
    fn default() -> Self {
        Self::new(1)
    }
}

impl Pool {
    /// Creates a pool of capacity `l`.
    #[must_use]
    pub fn new(l: usize) -> Self {
        assert!(l > 0, "pool capacity must be positive");
        Self { entries: Vec::with_capacity(l + 1), capacity: l, cursor: 0 }
    }

    /// Clears the pool and re-sizes it to capacity `l`, keeping the entry
    /// allocation — the steady state of a query batch allocates nothing.
    pub fn reset(&mut self, l: usize) {
        assert!(l > 0, "pool capacity must be positive");
        self.entries.clear();
        // `reserve` is relative to the (now zero) length, so this
        // guarantees room for the transient l+1-th entry `insert` holds
        // before evicting — no growth inside the search loop.
        self.entries.reserve(l + 1);
        self.capacity = l;
        self.cursor = 0;
    }

    /// Capacity `l`.
    #[inline]
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of entries.
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

    /// Whether the pool is at capacity.
    #[inline]
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.entries.len() == self.capacity
    }

    /// The similarity of the worst entry when full, else `-inf`:
    /// the safe discard threshold for new candidates.
    #[inline]
    #[must_use]
    pub fn threshold(&self) -> f32 {
        if self.is_full() {
            self.entries[self.entries.len() - 1].sim
        } else {
            f32::NEG_INFINITY
        }
    }

    /// Inserts `(id, sim)` keeping the pool sorted; evicts the worst entry
    /// when over capacity.  Returns `true` if the entry was kept.
    ///
    /// The caller is responsible for not inserting the same id twice (the
    /// search's visited set guarantees this).
    pub fn insert(&mut self, id: u32, sim: f32) -> bool {
        if self.is_full() && sim <= self.threshold() {
            return false;
        }
        let pos = self
            .entries
            .partition_point(|e| e.sim >= sim);
        self.entries.insert(pos, PoolEntry { sim, id, visited: false });
        if self.entries.len() > self.capacity {
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

    /// The best `k` `(id, sim)` pairs, descending, in pool order: equal
    /// similarities in the order the walk met them (what construction's
    /// candidate lists are pinned to).
    #[must_use]
    pub fn top_k(&self, k: usize) -> Vec<(u32, f32)> {
        self.entries.iter().take(k).map(|e| (e.id, e.sim)).collect()
    }

    /// The best `k` `(id, sim)` pairs ranked by (similarity desc, id asc),
    /// the total order a search answers in, so an answer is a pure
    /// function of the query and not of the order the walk met its
    /// members.  A tie across the `k`-th place takes part too.  Without
    /// ties this is [`Pool::top_k`].
    #[must_use]
    pub fn ranked(&self, k: usize) -> Vec<(u32, f32)> {
        let head = &self.entries[..k.saturating_add(1).min(self.entries.len())];
        if head.windows(2).any(|w| w[0].sim == w[1].sim) {
            self.ranked_with_ties(k)
        } else {
            self.top_k(k)
        }
    }

    /// [`Pool::ranked`] when two of its entries tie: the tied run across
    /// the `k`-th place joins the sort.
    #[cold]
    #[inline(never)]
    fn ranked_with_ties(&self, k: usize) -> Vec<(u32, f32)> {
        let mut end = k.min(self.entries.len());
        while end > 0 && self.entries.get(end).is_some_and(|e| e.sim == self.entries[end - 1].sim) {
            end += 1;
        }
        let mut out: Vec<(u32, f32)> = self.entries[..end].iter().map(|e| (e.id, e.sim)).collect();
        out.sort_by(|a, b| {
            b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal).then(a.0.cmp(&b.0))
        });
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
        let mut p = Pool::new(3);
        for (id, sim) in [(1, 0.5), (2, 0.9), (3, 0.1), (4, 0.7)] {
            p.insert(id, sim);
        }
        let sims: Vec<f32> = p.entries().iter().map(|e| e.sim).collect();
        assert_eq!(sims, vec![0.9, 0.7, 0.5]);
        assert!(p.is_full());
    }

    #[test]
    fn ranked_breaks_ties_by_id_across_the_cut() {
        let mut p = Pool::new(6);
        for (id, sim) in [(9, 0.5), (2, 0.9), (7, 0.5), (3, 0.5), (8, 0.1)] {
            p.insert(id, sim);
        }
        assert_eq!(p.top_k(3), vec![(2, 0.9), (9, 0.5), (7, 0.5)], "pool order: as met");
        assert_eq!(p.ranked(3), vec![(2, 0.9), (3, 0.5), (7, 0.5)]);
        assert_eq!(p.ranked(9), vec![(2, 0.9), (3, 0.5), (7, 0.5), (9, 0.5), (8, 0.1)]);
        assert_eq!(p.ranked(0), vec![]);
    }

    #[test]
    fn full_pool_rejects_worse_candidates() {
        let mut p = Pool::new(2);
        assert!(p.insert(1, 0.5));
        assert!(p.insert(2, 0.8));
        assert!(!p.insert(3, 0.4), "worse than threshold must be rejected");
        assert!((p.threshold() - 0.5).abs() < 1e-9);
        assert!(p.insert(4, 0.6));
        assert!((p.threshold() - 0.6).abs() < 1e-9);
    }

    #[test]
    fn threshold_is_neg_inf_until_full() {
        let mut p = Pool::new(4);
        assert_eq!(p.threshold(), f32::NEG_INFINITY);
        p.insert(0, 0.1);
        assert_eq!(p.threshold(), f32::NEG_INFINITY);
    }

    #[test]
    fn visiting_walks_best_first() {
        let mut p = Pool::new(3);
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
        let mut p = Pool::new(2);
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
        let mut p = Pool::new(3);
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
        p.reset(100);
        assert!(p.entries.capacity() >= 101, "capacity {}", p.entries.capacity());
        for id in 0..150u32 {
            p.insert(id, id as f32);
        }
        assert_eq!(p.len(), 100);
        assert!(p.entries.capacity() >= 101);
    }

    #[test]
    fn top_k_truncates() {
        let mut p = Pool::new(5);
        for id in 0..4 {
            p.insert(id, id as f32);
        }
        let top = p.top_k(2);
        assert_eq!(top, vec![(3, 3.0), (2, 2.0)]);
    }
}
