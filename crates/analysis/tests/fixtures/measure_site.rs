//! Fixture: an experiment driver that measures its queries itself.
//! Lines marked BAD must be flagged; OK lines must not.
//! Not compiled — cargo only builds top-level `tests/*.rs` files.

fn window_set(db: &mut SpatialDatabase, windows: &[Rect]) -> QueryStats {
    let store = db.store_mut();
    let mut total = QueryStats::default();
    for w in windows {
        total.accumulate(&store.window_query(w, WindowTechnique::Slm)); // BAD: measure-site
    }
    total
}

fn capture(ws: &Workspace, db: &SpatialDatabase, w: &Rect, p: &Point) {
    let disk = ws.disk();
    let before = disk.local_stats(); // BAD: measure-site
    let (stats, trace) = db.store().window_query_traced(w, WindowTechnique::Slm); // BAD: measure-site
    let (stats, trace) = db.store().point_query_traced(p); // BAD: measure-site
    let stats = db.store().point_query(p); // BAD: measure-site
    let _ = (before, stats, trace);
}

fn through_the_engine(ws: &Workspace, db: &SpatialDatabase, w: &Rect, p: &Point) {
    let (io, trace) = ws.disk().traced(|| db.query().window(*w).run().io_stats()); // OK: Query::run measures
    let stats = db.query().point(*p).run().stats(); // OK: the cursor's stats
    let mut out = Vec::new();
    let bytes = db.store().window_query_into(w, WindowTechnique::Slm, &mut out); // OK: the store's read, unmeasured
    let label = "store.window_query(w, t)"; // OK: a string
    let _ = (io, trace, stats, bytes, label);
}

fn audited(db: &SpatialDatabase, w: &Rect) -> QueryStats {
    // lint: measure-site-audited — fixture demonstrating the waiver.
    db.store().window_query(w, WindowTechnique::Slm) // OK: waived
}
