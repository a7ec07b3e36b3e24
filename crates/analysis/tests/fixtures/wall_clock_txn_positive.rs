//! Positive fixture for `wall-clock` in `rtc-txn`: a key directory
//! under std's default hasher state, which is seeded from process
//! entropy. Not compiled — scanned by `fixtures.rs`.

use std::collections::HashMap;
use std::hash::RandomState;

pub fn directory() -> HashMap<String, u32, RandomState> {
    HashMap::with_hasher(RandomState::new())
}
