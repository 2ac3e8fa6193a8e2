//! [`Memo`]: the one bounded memo behind every host-side cache in the
//! workspace (DESIGN.md §11 lists each instantiation and its budget).
//!
//! Entries live in two generations of half the budget each. Inserts and
//! hits land in the young one; when that is full the old one is dropped
//! whole and the young one takes its place. So resident cost never exceeds
//! the budget, and an entry touched since the last sweep survives it (which
//! the server's repeat submissions need and flush-on-full cannot promise).

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Key → (value, admitted cost); the determinism lints ban `HashMap`.
struct State<K, V> {
    young: BTreeMap<K, (Arc<V>, u64)>,
    old: BTreeMap<K, (Arc<V>, u64)>,
    young_cost: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<K: Ord, V> State<K, V> {
    /// Into the young generation (`cost <= half`); if full, the old one goes.
    fn admit(&mut self, key: K, value: Arc<V>, cost: u64, half: u64) {
        if self.young_cost + cost > half {
            self.evictions += self.old.len() as u64;
            self.old = std::mem::take(&mut self.young);
            self.young_cost = 0;
        }
        self.young_cost += cost;
        self.young.insert(key, (value, cost));
    }

    /// The resident value of `key`, promoted to the young generation.
    fn touch(&mut self, key: &K, half: u64) -> Option<Arc<V>> {
        if let Some((value, _)) = self.young.get(key) {
            return Some(Arc::clone(value));
        }
        let (key, (value, cost)) = self.old.remove_entry(key)?;
        self.admit(key, Arc::clone(&value), cost, half);
        Some(value)
    }
}

/// A thread-safe map from `K` to shared `V` whose resident cost — in the
/// caller's unit: entries, bytes — never exceeds the budget it was built with.
pub struct Memo<K, V> {
    budget: u64,
    state: Mutex<State<K, V>>,
}

impl<K: Ord, V> Memo<K, V> {
    /// An empty memo; `const`, so it can be a plain `static`.
    pub const fn new(budget: u64) -> Self {
        let state = Mutex::new(State {
            young: BTreeMap::new(),
            old: BTreeMap::new(),
            young_cost: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        });
        Memo { budget, state }
    }

    /// Look `key` up, counting a hit or a miss.
    pub fn get(&self, key: &K) -> Option<Arc<V>> {
        let mut st = self.state.lock().expect("memo lock poisoned");
        let found = st.touch(key, self.budget / 2);
        st.hits += u64::from(found.is_some());
        st.misses += u64::from(found.is_none());
        found
    }

    /// Keep `value` under `key` unless the key is resident, and return the
    /// resident value: racing inserts agree on the first. Counts neither hit
    /// nor miss. An entry costing over half the budget is returned, not kept.
    pub fn insert(&self, key: K, value: Arc<V>, cost: u64) -> Arc<V> {
        let half = self.budget / 2;
        let mut st = self.state.lock().expect("memo lock poisoned");
        if let Some(first) = st.touch(&key, half) {
            return first;
        }
        if cost <= half {
            st.admit(key, Arc::clone(&value), cost, half);
        }
        value
    }

    /// [`Memo::get`], or on a miss compute the value with `f` — outside the
    /// lock, so racing callers may each compute and each count a miss — and
    /// [`Memo::insert`] it. An `Err` from `f` is returned, never memoised.
    pub fn get_or_try_insert_with<E>(
        &self,
        key: K,
        cost: u64,
        f: impl FnOnce() -> Result<V, E>,
    ) -> Result<Arc<V>, E> {
        match self.get(&key) {
            Some(hit) => Ok(hit),
            None => Ok(self.insert(key, Arc::new(f()?), cost)),
        }
    }

    /// Process-lifetime counters and resident size, read under one lock and
    /// named as the metric suffixes they are exported with.
    pub fn stats(&self) -> [(&'static str, u64); 5] {
        let st = self.state.lock().expect("memo lock poisoned");
        let old_cost: u64 = st.old.values().map(|(_, cost)| cost).sum();
        [
            ("hits", st.hits),
            ("misses", st.misses),
            ("evictions", st.evictions),
            ("entries", (st.young.len() + st.old.len()) as u64),
            ("cost", st.young_cost + old_cost),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::convert::Infallible;
    use std::sync::Barrier;

    fn stat(memo: &Memo<u32, u32>, name: &str) -> u64 {
        let stats = memo.stats();
        stats.iter().find(|(n, _)| *n == name).expect("a stat").1
    }

    #[test]
    fn an_entry_costlier_than_the_budget_is_returned_but_not_kept() {
        let memo: Memo<u32, u32> = Memo::new(8);
        let v = memo
            .get_or_try_insert_with(1, 9, || Ok::<_, Infallible>(10))
            .unwrap();
        assert_eq!(*v, 10);
        assert!(memo.get(&1).is_none());
        assert_eq!((stat(&memo, "entries"), stat(&memo, "cost")), (0, 0));
        // Half the budget is the most one entry may cost.
        memo.insert(2, Arc::new(20), 5);
        assert!(memo.get(&2).is_none());
        memo.insert(3, Arc::new(30), 4);
        assert_eq!(memo.get(&3).as_deref(), Some(&30));
    }

    #[test]
    fn an_error_is_not_memoised_and_counts_a_miss() {
        let memo: Memo<u32, u32> = Memo::new(8);
        assert_eq!(memo.get_or_try_insert_with(1, 1, || Err("no")), Err("no"));
        assert_eq!(
            memo.get_or_try_insert_with(1, 1, || Ok::<_, &str>(7)),
            Ok(Arc::new(7))
        );
        assert_eq!((stat(&memo, "hits"), stat(&memo, "misses")), (0, 2));
    }

    #[test]
    fn a_hit_since_the_last_sweep_survives_the_next() {
        // Generations of four: key 0 is touched once per generation and
        // outlives forty cold keys; flush-on-full would drop it.
        let memo: Memo<u32, u32> = Memo::new(8);
        let hot = memo.insert(0, Arc::new(0), 1);
        for k in 1..=40 {
            memo.insert(k, Arc::new(k), 1);
            if k % 3 == 0 {
                assert!(Arc::ptr_eq(&memo.get(&0).expect("hot key resident"), &hot));
            }
            assert!(stat(&memo, "cost") <= 8);
        }
        assert!(memo.get(&1).is_none());
        assert!(stat(&memo, "evictions") >= 32);
    }

    #[test]
    fn racing_threads_agree_on_the_first_value() {
        static MEMO: Memo<u32, u32> = Memo::new(64);
        let barrier = Barrier::new(8);
        let seen: Vec<Vec<Arc<u32>>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|t| {
                    let barrier = &barrier;
                    s.spawn(move || {
                        barrier.wait();
                        (0..16)
                            .map(|k| {
                                MEMO.get_or_try_insert_with(k, 1, || Ok::<_, Infallible>(t))
                                    .unwrap()
                            })
                            .collect()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for per_thread in &seen[1..] {
            for (a, b) in per_thread.iter().zip(&seen[0]) {
                assert!(Arc::ptr_eq(a, b));
            }
        }
        // Conservation: every lookup is a hit or a miss, and at least one
        // thread missed on each key.
        let (hits, misses) = (stat(&MEMO, "hits"), stat(&MEMO, "misses"));
        assert_eq!(hits + misses, 8 * 16);
        assert!((16..=8 * 16).contains(&misses));
        assert_eq!(stat(&MEMO, "entries"), 16);
    }
}
