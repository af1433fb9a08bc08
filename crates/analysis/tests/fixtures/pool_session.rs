//! Fixture: a store whose reads bypass the pool session. Lines marked
//! BAD must be flagged; OK lines must not.
//! Not compiled — cargo only builds top-level `tests/*.rs` files.

impl Store {
    fn window_query_into(&self, window: &Rect, out: &mut Vec<LeafEntry>) -> u64 {
        self.tree.window_entries_into(window, &mut self.pool.as_ref(), out); // BAD: pool-session
        for e in out.iter() {
            self.pool.read_run(self.run_of(e), SeekPolicy::PerRequest); // BAD: pool-session
        }
        self.pool()
            .read_page(self.root_page()); // BAD: pool-session (a wrapped chain)
        0
    }

    fn fetch_for_join(&self, oid: ObjectId, session: &mut PoolSession<'_>) {
        if self.pool.touch_if_resident(self.run(oid).pages()) { // BAD: pool-session
            return;
        }
        self.pool.update_page(self.page(oid)); // BAD: pool-session
        session.read_extent(self.unit(oid), &[0], TransferTechnique::Read); // OK: the caller's session
    }

    fn through_a_session(&self, window: &Rect, out: &mut Vec<LeafEntry>) -> u64 {
        let mut session = self.pool.session(); // OK: opening the session
        self.tree.window_entries_into(window, &mut session, out); // OK: the session is the NodeIo
        session.read_runs(out.iter().map(|e| self.run_of(e)), SeekPolicy::PerRequest); // OK
        let capacity = self.pool.capacity(); // OK: no page access
        let label = "self.pool.read_run(run, seek)"; // OK: a string
        0
    }

    fn audited(&self, page: PageId) -> bool {
        // lint: pool-session-audited — fixture demonstrating the waiver.
        self.pool.read_page(page) // OK: waived
    }
}
