//! `Memo` in lock step with a plain model — one map of resident entries
//! and the list of keys touched since the last sweep — through random
//! lookups, inserts and failing computations with random costs.

use std::collections::BTreeMap;
use std::sync::Arc;

use isrf_core::Memo;
use proptest::prelude::*;

#[derive(Default)]
struct Model {
    half: u64,
    resident: BTreeMap<u8, (Arc<u32>, u64)>,
    /// Keys touched since the last sweep, oldest first.
    recent: Vec<u8>,
    lookups: u64,
    evictions: u64,
}

impl Model {
    /// Note a touch of `key` at `cost`; when the touched entries would
    /// outgrow half the budget, everything not touched since the last
    /// sweep goes first.
    fn touched(&mut self, key: u8, cost: u64) {
        let recent_cost: u64 = self.recent.iter().map(|k| self.resident[k].1).sum();
        if recent_cost + cost > self.half {
            let keep = std::mem::take(&mut self.recent);
            let before = self.resident.len();
            self.resident.retain(|k, _| keep.contains(k) || *k == key);
            self.evictions += (before - self.resident.len()) as u64;
        }
        self.recent.push(key);
    }

    fn find(&mut self, key: u8) -> Option<Arc<u32>> {
        let (value, cost) = self.resident.get(&key).cloned()?;
        if !self.recent.contains(&key) {
            self.touched(key, cost);
        }
        Some(value)
    }

    fn get(&mut self, key: u8) -> Option<Arc<u32>> {
        self.lookups += 1;
        self.find(key)
    }

    fn insert(&mut self, key: u8, value: Arc<u32>, cost: u64) -> Arc<u32> {
        if let Some(first) = self.find(key) {
            return first;
        }
        if cost <= self.half {
            self.touched(key, cost);
            self.resident.insert(key, (Arc::clone(&value), cost));
        }
        value
    }
}

fn same(a: &Option<Arc<u32>>, b: &Option<Arc<u32>>) -> bool {
    match (a, b) {
        (Some(a), Some(b)) => Arc::ptr_eq(a, b),
        (None, None) => true,
        _ => false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 4 } else { 256 }))]

    #[test]
    fn memo_matches_the_model(
        budget in 0u64..20,
        ops in prop::collection::vec((0u8..4, 0u8..12, 0u64..8), 1..200),
    ) {
        let memo: Memo<u8, u32> = Memo::new(budget);
        let mut model = Model { half: budget / 2, ..Model::default() };
        for (serial, &(op, key, cost)) in ops.iter().enumerate() {
            let fresh = serial as u32;
            match op {
                0 => prop_assert!(same(&memo.get(&key), &model.get(key))),
                1 => {
                    // One value offered to both: the answer is it, or the
                    // first one kept under the key.
                    let value = Arc::new(fresh);
                    let got = memo.insert(key, Arc::clone(&value), cost);
                    prop_assert!(Arc::ptr_eq(&got, &model.insert(key, value, cost)));
                }
                2 => {
                    let got = memo.get_or_try_insert_with(key, cost, || Ok::<_, ()>(fresh));
                    let got = got.expect("the closure does not fail");
                    let want = match model.get(key) {
                        Some(first) => first,
                        None => model.insert(key, Arc::clone(&got), cost),
                    };
                    prop_assert!(Arc::ptr_eq(&got, &want));
                }
                _ => {
                    // A failing computation: an error on a miss, the
                    // resident value on a hit, never an entry.
                    let got = memo.get_or_try_insert_with(key, cost, || Err::<u32, _>(()));
                    prop_assert!(same(&got.ok(), &model.get(key)));
                }
            }
            // Whatever was touched since the last sweep is resident.
            for key in model.recent.clone() {
                prop_assert!(same(&memo.get(&key), &model.get(key)));
            }
            let stats: BTreeMap<_, _> = memo.stats().into_iter().collect();
            prop_assert!(stats["cost"] <= budget);
            prop_assert_eq!(stats["hits"] + stats["misses"], model.lookups);
            prop_assert_eq!(stats["evictions"], model.evictions);
            prop_assert_eq!(stats["entries"], model.resident.len() as u64);
            let cost: u64 = model.resident.values().map(|(_, cost)| cost).sum();
            prop_assert_eq!(stats["cost"], cost);
        }
    }
}
