//! Negative fixture for `unordered-iter` in `rtc-txn`: the hashed key
//! directory is read by point lookup, and its one walk is sorted before
//! anything sees it and says so. Not compiled — scanned by
//! `fixtures.rs`.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

pub struct Store {
    keys: Arc<HashMap<Arc<str>, u32>>,
    values: Vec<i64>,
}

impl Store {
    pub fn get(&self, key: &str) -> i64 {
        self.keys
            .get(key)
            .map_or(0, |slot| self.values[*slot as usize])
    }

    pub fn entries(&self) -> BTreeMap<&str, i64> {
        // rtc-allow(unordered-iter): sorted before use
        self.keys
            .iter()
            .map(|(key, slot)| (&**key, self.values[*slot as usize]))
            .collect()
    }
}
