//! Positive fixture for `unordered-iter` in `rtc-txn`: a hashed key
//! directory behind an `Arc`, walked in table order into what `==` and
//! `Debug` read — once on one line, once in a chain rustfmt split over
//! three. Not compiled — scanned by `fixtures.rs`.

use std::collections::HashMap;
use std::sync::Arc;

pub struct Store {
    keys: Arc<HashMap<Arc<str>, u32>>,
    values: Vec<i64>,
}

impl Store {
    pub fn entries(&self) -> Vec<(&str, i64)> {
        let mut entries = Vec::new();
        for (key, slot) in self.keys.iter() {
            entries.push((&**key, self.values[*slot as usize]));
        }
        entries
    }

    pub fn keys(&self) -> Vec<&str> {
        self
            .keys
            .iter()
            .map(|(key, _)| &**key)
            .collect()
    }
}
