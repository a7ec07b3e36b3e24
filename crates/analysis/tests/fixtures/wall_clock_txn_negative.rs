//! Negative fixture for `wall-clock` in `rtc-txn`: the key directory's
//! hasher has constant keys, the same in every process. Not compiled —
//! scanned by `fixtures.rs`.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher};

type FixedHasher = BuildHasherDefault<DefaultHasher>;

pub fn directory() -> HashMap<String, u32, FixedHasher> {
    HashMap::with_hasher(FixedHasher::default())
}
