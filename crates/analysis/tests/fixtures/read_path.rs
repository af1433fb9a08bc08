//! Fixture: a store that reads a cluster unit around the pool's one
//! unit read. Lines marked BAD must be flagged; OK lines must not.
//! Not compiled — cargo only builds top-level `tests/*.rs` files.

impl Store {
    pub fn optimum(&self, unit: PageRun, wanted: u64) {
        let cost = self.disk().params().optimum_ms(wanted);
        self.disk().charge_raw(IoKind::Read, wanted, cost, true); // BAD: read-path
    }

    pub fn resident(&self, unit: PageRun) -> bool {
        unit.pages().all(|p| self.pool.contains_page(&p)) // BAD: read-path
    }

    pub fn through_the_pool(&self, unit: PageRun, wanted: &[u64]) {
        // The pool decides; charge_raw and contains_page stay inside it.
        let mut session = self.pool.session();
        session.read_extent(unit, wanted, TransferTechnique::Optimum); // OK: the one unit read
        let label = "charge_raw / contains_page"; // OK: a string
    }

    pub fn audited(&self, page: PageId) -> bool {
        // lint: read-path-audited — fixture demonstrating the waiver.
        self.pool.contains_page(&page) // OK: waived
    }
}
