//! Fixture: nested acquisition contradicting the DbWriter → Shard →
//! DiskCounters → Epoch hierarchy. Lines marked BAD must be flagged; OK
//! lines must not. Not compiled — cargo only builds `tests/*.rs` files.

use std::sync::Mutex;

pub struct Pool {
    state: Mutex<u64>,
    shards: Vec<Mutex<Vec<u8>>>,
}

impl Pool {
    /// Counters (rank 2) taken first, then a blocking shard (rank 1)
    /// acquisition underneath it — the inverted order that deadlocks
    /// against the flush path.
    pub fn drain_backwards(&self) {
        let counters = self.state.lock().unwrap();
        let shard = self.shards[0].lock().unwrap(); // BAD: lock-order
        drop(shard);
        drop(counters);
    }

    /// The declared order: shard before counters.
    pub fn drain_forwards(&self) {
        let shard = self.shards[0].lock().unwrap();
        let counters = self.state.lock().unwrap(); // OK: descends the hierarchy
        drop(counters);
        drop(shard);
    }
}
