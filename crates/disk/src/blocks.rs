//! The one ordered work queue every fan-out of the engine runs on
//! ([`run`]): the MBR join's leaf-pair sweeps, the stream executor's
//! refinement jobs, and the contiguous chunks of [`map_chunks`] — a
//! join cursor's `pairs()`, a bulk load's records, sort and tile. (A
//! query cursor's `ids()` refines on the calling thread.)
//!
//! The calling thread *produces* items — the MBR join's traversal, the
//! leaf pairs it reaches — into blocks of a given weight. Up to `k − 1`
//! worker threads, one spawned as each of the first full blocks is
//! published, *sweep* published blocks, oldest first. Then the calling
//! thread *consumes* the swept blocks strictly in block order, appending
//! each to one output. When the block it needs next is not swept yet, it
//! sweeps the oldest unclaimed block itself rather than wait. So one
//! thread, or work that fits in one block, spawns nothing and sweeps
//! every block on the calling thread.
//!
//! Producing and consuming are the caller's, in their order; only the
//! sweeps move. Whatever the caller does while producing and consuming
//! (the join's page reads, a stream's commits) happens exactly as it
//! would with no workers, and the output is the sweeps' results
//! concatenated in block order.
//!
//! What a run allocates does not depend on which thread swept what:
//! block `i` always fills and sweeps into the buffers of slot `i`, which
//! the next run reuses ([`Spares`]), and every sweeping thread makes its
//! scratch once, when it starts.
//!
//! # Panics
//!
//! A sweep's panic is caught, on whichever thread swept the block, and
//! stored in its block; the calling thread raises it when it consumes
//! that block in order. So a run always ends with the payload of the
//! lowest-numbered block whose sweep panicked, at every thread count.
//! Once a sweep has panicked, no further block is taken up. A sweep's
//! panic never interrupts the producer: it pushes every item, and does
//! what it does — a join traversal's charges, a stream's commits — as it
//! would at any other thread count. A panic of the caller itself, while
//! producing or consuming, propagates as it is; it halts the queue as
//! it unwinds, so every worker finishes its block and exits before the
//! run's thread scope returns. No thread waits for a block nobody will
//! sweep.
//!
//! # Locks
//!
//! The queue is one [`DepMutex`] of the leaf class [`LockClass::Blocks`]
//! with two condition variables. The caller waits on it while a pool
//! session holds a shard lock, which the class ranks before it. Nothing
//! is acquired while it is held, and no code that can panic runs under
//! it, so it is never poisoned.

use crate::{DepGuard, DepMutex, LockClass};
use std::any::Any;
use std::fmt;
use std::num::NonZeroUsize;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Condvar;
use std::thread::Scope;

/// How a block is swept.
pub trait Sweep<T, R>: Sync {
    /// A sweeping thread's scratch, made once per thread and run.
    type Scratch;

    /// Fresh scratch for a thread about to sweep.
    fn scratch(&self) -> Self::Scratch;

    /// Sweep `items` into `out`, which arrives empty.
    fn sweep(&self, items: &[T], out: &mut R, scratch: &mut Self::Scratch);
}

/// What a sweep produces, appended to the run's output in block order.
pub trait Swept: Default + Send {
    /// Move `later`'s contents to the end of `self`, leaving `later`
    /// empty with its capacity, for the next run.
    fn append(&mut self, later: &mut Self);
}

impl<T: Send> Swept for Vec<T> {
    fn append(&mut self, later: &mut Self) {
        Vec::append(self, later);
    }
}

/// A block's buffers.
#[derive(Debug)]
struct Slot<T, R> {
    items: Vec<T>,
    result: R,
    /// The block is swept and its result waits in `result`.
    swept: bool,
    /// The block's sweep panicked with this payload; the consumer
    /// raises it when it reaches the block.
    panic: Option<Box<dyn Any + Send>>,
}

/// The slots a run leaves behind, emptied, for the calling thread's
/// next run: a run allocates block buffers only past the last one's
/// block count, or where one of its blocks holds more than the same
/// block of the last one.
#[derive(Debug)]
pub struct Spares<T, R>(Vec<Slot<T, R>>);

impl<T, R> Default for Spares<T, R> {
    fn default() -> Self {
        Spares(Vec::new())
    }
}

/// The queue's state, behind the one lock.
struct State<T, R> {
    /// Slot `i` is block `i`'s: the published blocks (`..published`),
    /// then spares.
    slots: Vec<Slot<T, R>>,
    published: usize,
    /// Blocks a thread has taken up to sweep: `..claimed`.
    claimed: usize,
    /// Blocks appended to the output: `..appended`.
    appended: usize,
    /// No block will be published any more: the producer is done.
    closed: bool,
    /// No block will be taken up any more: a sweep panicked, or the run
    /// is over (also when the caller unwinds).
    halted: bool,
}

impl<T, R: Swept> State<T, R> {
    /// Take up the oldest unclaimed block, if any: its number, its
    /// items and its (empty) result buffer.
    fn claim(&mut self) -> Option<(usize, Vec<T>, R)> {
        if self.halted || self.claimed == self.published {
            return None;
        }
        let number = self.claimed;
        self.claimed += 1;
        let slot = &mut self.slots[number];
        let items = std::mem::take(&mut slot.items);
        Some((number, items, std::mem::take(&mut slot.result)))
    }
}

struct Shared<T, R> {
    blocks: DepMutex<State<T, R>>,
    /// Signalled when a block is published or the queue closes: the
    /// workers wait on it.
    published: Condvar,
    /// Signalled when a worker has swept a block: the caller waits on
    /// it.
    swept: Condvar,
}

impl<T, R: Swept> Shared<T, R> {
    /// Sweep a claimed block outside the lock, catching its panic, and
    /// give its buffers back: swept, or holding the payload and halting
    /// the queue. Returns the lock, held.
    fn sweep<S>(
        &self,
        sweep: &dyn Sweep<T, R, Scratch = S>,
        scratch: &mut S,
        (number, mut items, mut result): (usize, Vec<T>, R),
    ) -> DepGuard<'_, State<T, R>> {
        let swept = panic::catch_unwind(AssertUnwindSafe(|| {
            sweep.sweep(&items, &mut result, scratch)
        }));
        items.clear();
        let mut state = self.blocks.acquire();
        let slot = &mut state.slots[number];
        slot.items = items;
        slot.result = result;
        match swept {
            Ok(()) => slot.swept = true,
            Err(payload) => {
                slot.panic = Some(payload);
                state.halted = true;
            }
        }
        state
    }
}

/// The calling thread's end of a running queue: it publishes blocks
/// with [`push`](Blocks::push) while producing, and appends swept blocks
/// to the output with [`next_block`](Blocks::next_block) while consuming.
pub struct Blocks<'scope, 'env, T, R, S> {
    shared: &'env Shared<T, R>,
    sweep: &'env (dyn Sweep<T, R, Scratch = S> + 'env),
    scope: &'scope Scope<'scope, 'env>,
    /// The calling thread's sweep scratch.
    scratch: S,
    /// Workers the run may still spawn.
    unspawned: usize,
    /// Weight at which a block is full.
    block_weight: usize,
    /// The block being filled, and its weight.
    block: Vec<T>,
    weight: usize,
    out: R,
}

impl<T, R, S> fmt::Debug for Blocks<'_, '_, T, R, S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Blocks").finish_non_exhaustive()
    }
}

impl<'scope, 'env, T: Send, R: Swept, S> Blocks<'scope, 'env, T, R, S> {
    /// Add `item`, of `weight`, to the current block. A full block is
    /// published first — and a worker spawned, while there are fewer
    /// than `k − 1` — so a block goes out only once the next item shows
    /// that more work follows it.
    pub fn push(&mut self, item: T, weight: usize) {
        if self.weight >= self.block_weight {
            self.publish();
            if self.unspawned > 0 {
                self.unspawned -= 1;
                let (shared, sweep) = (self.shared, self.sweep);
                self.scope.spawn(move || work(shared, sweep));
            }
        }
        self.block.push(item);
        self.weight += weight;
    }

    /// Hand the current block to the sweepers and start the next one in
    /// its slot's buffer.
    fn publish(&mut self) {
        let mut state = self.shared.blocks.acquire();
        let items = std::mem::take(&mut self.block);
        let number = state.published;
        match state.slots.get_mut(number) {
            Some(slot) => slot.items = items,
            None => state.slots.push(Slot {
                items,
                result: R::default(),
                swept: false,
                panic: None,
            }),
        }
        state.published += 1;
        if let Some(next) = state.slots.get_mut(number + 1) {
            self.block = std::mem::take(&mut next.items);
        }
        drop(state);
        self.weight = 0;
        self.shared.published.notify_one();
    }

    /// The producer is done: publish the last block, if it holds
    /// anything, and let idle workers exit once every block is claimed.
    fn close(&mut self) {
        if !self.block.is_empty() {
            self.publish();
        }
        self.shared.blocks.acquire().closed = true;
        self.shared.published.notify_all();
    }

    /// Append the next block's result to the output. While it is not
    /// swept, the calling thread sweeps the oldest unclaimed block — that
    /// one, or a later one while a worker sweeps it — rather than wait.
    /// `false` once every block is appended. Raises the block's panic if
    /// its sweep panicked.
    pub fn next_block(&mut self) -> bool {
        let mut state = self.shared.blocks.acquire();
        loop {
            let number = state.appended;
            if number == state.published {
                return false;
            }
            let slot = &mut state.slots[number];
            if let Some(payload) = slot.panic.take() {
                drop(state);
                panic::resume_unwind(payload);
            }
            if slot.swept {
                slot.swept = false;
                self.out.append(&mut slot.result);
                state.appended += 1;
                return true;
            }
            state = match state.claim() {
                Some(block) => {
                    drop(state);
                    self.shared.sweep(self.sweep, &mut self.scratch, block)
                }
                None => state.wait(&self.shared.swept),
            };
        }
    }

    /// The output: the results of the blocks appended so far, in block
    /// order.
    pub fn out(&self) -> &R {
        &self.out
    }
}

impl<T, R, S> Drop for Blocks<'_, '_, T, R, S> {
    /// Halt the queue, leaving what nobody claimed unswept, so every
    /// worker exits — also when the caller unwinds — and give the
    /// current block's buffer back to its slot.
    fn drop(&mut self) {
        let mut state = self.shared.blocks.acquire_unpoisoned();
        state.halted = true;
        self.block.clear();
        let number = state.published;
        if let Some(slot) = state.slots.get_mut(number) {
            slot.items = std::mem::take(&mut self.block);
        }
        drop(state);
        self.shared.published.notify_all();
    }
}

/// A worker: sweep the oldest unclaimed block until the queue is closed
/// and every block claimed, or it halts.
fn work<T: Send, R: Swept, S>(shared: &Shared<T, R>, sweep: &dyn Sweep<T, R, Scratch = S>) {
    let mut scratch = sweep.scratch();
    let mut state = shared.blocks.acquire();
    loop {
        if let Some(block) = state.claim() {
            drop(state);
            state = shared.sweep(sweep, &mut scratch, block);
            shared.swept.notify_one();
        } else if state.closed || state.halted {
            return;
        } else {
            state = state.wait(&shared.published);
        }
    }
}

/// Run a queue on `threads` threads (one when 0): `produce` pushes
/// items into blocks of `block_weight`, then, once it has returned,
/// `consume` takes the swept blocks in order. Returns the output —
/// `out` with every block's result appended, in block order, whether
/// or not `consume` asked for them all — and what `consume` returned.
/// The run's emptied buffers go to `spares`.
pub fn run<T: Send, R: Swept, S, O>(
    threads: usize,
    block_weight: usize,
    spares: &mut Spares<T, R>,
    out: R,
    sweep: &(dyn Sweep<T, R, Scratch = S> + '_),
    produce: impl FnOnce(&mut Blocks<'_, '_, T, R, S>),
    consume: impl FnOnce(&mut Blocks<'_, '_, T, R, S>) -> O,
) -> (R, O) {
    let mut slots = std::mem::take(&mut spares.0);
    let first = slots
        .first_mut()
        .map(|slot| std::mem::take(&mut slot.items));
    let mut shared = Shared {
        blocks: DepMutex::new(
            LockClass::Blocks,
            State {
                slots,
                published: 0,
                claimed: 0,
                appended: 0,
                closed: false,
                halted: false,
            },
        ),
        published: Condvar::new(),
        swept: Condvar::new(),
    };
    let done = std::thread::scope(|scope| {
        let mut blocks = Blocks {
            shared: &shared,
            sweep,
            scope,
            scratch: sweep.scratch(),
            unspawned: threads.max(1) - 1,
            block_weight,
            block: first.unwrap_or_default(),
            weight: 0,
            out,
        };
        produce(&mut blocks);
        blocks.close();
        let value = consume(&mut blocks);
        while blocks.next_block() {}
        (std::mem::take(&mut blocks.out), value)
    });
    spares.0 = std::mem::take(&mut shared.blocks.get_mut().slots);
    done
}

/// The sweep of [`map_chunks`]: each block is the range of one chunk
/// of `items`, mapped.
struct MapChunks<'a, T, F> {
    items: &'a [T],
    map: F,
}

impl<T: Sync, R: Swept, F: Fn(&[T]) -> R + Sync> Sweep<Range<usize>, R> for MapChunks<'_, T, F> {
    type Scratch = ();

    fn scratch(&self) {}

    fn sweep(&self, chunks: &[Range<usize>], out: &mut R, _: &mut ()) {
        // `out` arrives empty: the first chunk's result replaces it
        // rather than being copied in.
        let mut chunks = chunks.iter().map(|range| &self.items[range.clone()]);
        if let Some(first) = chunks.next() {
            *out = (self.map)(first);
        }
        for chunk in chunks {
            out.append(&mut (self.map)(chunk));
        }
    }
}

/// Split `items` into at most `threads` contiguous chunks of equal
/// length (the last one shorter), map each, and concatenate the results
/// in chunk order — on the queue, one block a chunk, so the calling
/// thread and up to `threads − 1` workers map them. A single chunk —
/// one thread, or a single item — is mapped on the calling thread,
/// which spawns and allocates nothing for it. A panicking map ends the
/// call with the payload of the lowest chunk that panicked.
///
/// The blocks hold chunk ranges, not slices, so a caller can keep
/// `spares`, the queue's block buffers, between calls — in a
/// thread-local, as the MBR join keeps its own — and a warm call makes
/// no block buffer.
pub fn map_chunks<T: Sync, R: Swept>(
    items: &[T],
    threads: usize,
    spares: &mut Spares<Range<usize>, R>,
    map: impl Fn(&[T]) -> R + Sync,
) -> R {
    let per = items.len().div_ceil(threads.max(1)).max(1);
    if items.len() <= per {
        return map(items);
    }
    let produce = |blocks: &mut Blocks<'_, '_, Range<usize>, R, ()>| {
        for start in (0..items.len()).step_by(per) {
            blocks.push(start..items.len().min(start + per), 1);
        }
    };
    let sweep = MapChunks { items, map };
    let out = run(threads, 1, spares, R::default(), &sweep, produce, |_| ()).0;
    // A map makes each chunk's result afresh, so a result buffer left in
    // a slot would only be held until the next call dropped it.
    for slot in &mut spares.0 {
        slot.result = R::default();
    }
    out
}

/// How many threads an operation's fan-out runs on.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Threads {
    /// The machine's cores (`available_parallelism`), but no more than
    /// the work pays for: a thread only for every `min_per_thread` items
    /// (see [`Threads::for_items`]), so a small operation stays on the
    /// calling thread.
    Machine,
    /// Exactly this many (one when 0), fewer only when there are fewer
    /// items — the count a caller forces, as `run_par(k)` does.
    Exactly(usize),
}

impl Threads {
    /// The threads to map `items` items on. [`Threads::Machine`] gives
    /// every thread at least `min_per_thread` items, and is one thread
    /// on a one-core machine, whatever the item count.
    pub fn for_items(self, items: usize, min_per_thread: usize) -> usize {
        self.on(available_threads(), items, min_per_thread)
    }

    /// The most threads an operation may take, however much work it
    /// has: the machine's cores, or the forced count (one when 0).
    pub fn limit(self) -> usize {
        self.for_items(usize::MAX, 1)
    }

    /// [`for_items`](Threads::for_items) on a machine of `cores` cores.
    fn on(self, cores: usize, items: usize, min_per_thread: usize) -> usize {
        match self {
            Threads::Machine => cores.min(items / min_per_thread.max(1)),
            Threads::Exactly(threads) => threads,
        }
        .max(1)
    }
}

/// The threads the machine offers the process
/// (`std::thread::available_parallelism`, one when it cannot tell).
pub fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::sync::{mpsc, OnceLock};
    use std::thread::ThreadId;
    use std::time::Duration;

    /// Items `0..n` of weight 1 in blocks of `per` items; a block sweeps
    /// to `(3 × item, sweeping thread)` and panics with its item if that
    /// is in `panic_at`.
    struct Triple {
        panic_at: Vec<u32>,
    }

    impl Sweep<u32, Vec<(u32, ThreadId)>> for Triple {
        type Scratch = ();

        fn scratch(&self) {}

        fn sweep(&self, items: &[u32], out: &mut Vec<(u32, ThreadId)>, _: &mut ()) {
            let here = std::thread::current().id();
            for &item in items {
                if self.panic_at.contains(&item) {
                    panic::panic_any(item);
                }
                out.push((item * 3, here));
            }
        }
    }

    /// Run the queue over `n` items in blocks of `per`: the output, and
    /// the block boundaries `consume` saw.
    fn triple(
        threads: usize,
        n: u32,
        per: usize,
        sweep: &Triple,
    ) -> (Vec<(u32, ThreadId)>, Vec<usize>) {
        let produce = |blocks: &mut Blocks<'_, '_, u32, _, ()>| {
            for item in 0..n {
                blocks.push(item, 1);
            }
        };
        let consume = |blocks: &mut Blocks<'_, '_, u32, Vec<_>, ()>| {
            let mut ends = Vec::new();
            while blocks.next_block() {
                ends.push(blocks.out().len());
            }
            ends
        };
        let mut spares = Spares::default();
        run(
            threads,
            per,
            &mut spares,
            Vec::new(),
            sweep,
            produce,
            consume,
        )
    }

    const THREADS: [usize; 5] = [0, 1, 2, 3, 8];

    #[test]
    fn blocks_are_appended_in_block_order_at_any_thread_count() {
        let sweep = Triple {
            panic_at: Vec::new(),
        };
        for threads in THREADS {
            for (n, per) in [(0, 4), (1, 4), (4, 4), (5, 4), (1000, 7), (1000, 1)] {
                let (out, ends) = triple(threads, n, per, &sweep);
                let got: Vec<u32> = out.iter().map(|(x, _)| *x).collect();
                let want: Vec<u32> = (0..n).map(|x| x * 3).collect();
                assert_eq!(got, want, "{threads} threads, {n} items in blocks of {per}");
                let blocks = (n as usize).div_ceil(per);
                let want_ends: Vec<usize> =
                    (1..=blocks).map(|b| (b * per).min(n as usize)).collect();
                assert_eq!(ends, want_ends, "{threads} threads: one block a step");
            }
        }
    }

    #[test]
    fn one_block_or_one_thread_sweeps_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let sweep = Triple {
            panic_at: Vec::new(),
        };
        // Work that fits in one block, however many threads.
        for threads in THREADS {
            let (out, ends) = triple(threads, 64, 64, &sweep);
            assert_eq!(ends.len(), 1);
            assert!(out.iter().all(|(_, t)| *t == caller), "{threads} threads");
        }
        // One thread, however many blocks.
        for threads in [0, 1] {
            let (out, ends) = triple(threads, 1000, 8, &sweep);
            assert_eq!(ends.len(), 125);
            assert!(out.iter().all(|(_, t)| *t == caller), "{threads} threads");
        }
    }

    #[test]
    fn a_second_run_reuses_the_first_runs_buffers() {
        let sweep = Triple {
            panic_at: Vec::new(),
        };
        let mut spares = Spares::default();
        let produce = |blocks: &mut Blocks<'_, '_, u32, _, ()>| {
            for item in 0..100 {
                blocks.push(item, 1);
            }
        };
        for _ in 0..2 {
            let (out, ()) = run(1, 10, &mut spares, Vec::new(), &sweep, produce, |_| ());
            assert_eq!(out.len(), 100);
            assert_eq!(spares.0.len(), 10, "one slot a block");
            for slot in &spares.0 {
                assert!(slot.items.is_empty() && slot.items.capacity() >= 10);
                assert!(slot.result.is_empty() && slot.result.capacity() >= 10);
                assert!(!slot.swept);
            }
        }
    }

    /// Where panics strike: in the sweeps of the listed blocks, in the
    /// producer before it pushes a block's item 3, or in the consumer
    /// after it appends a block.
    #[derive(Clone, Debug)]
    enum Site {
        Sweep(Vec<u32>),
        Produce(u32),
        Consume(u32),
    }

    const PER: usize = 25;
    const N: u32 = 40 * PER as u32;

    /// Item 3 of `block`, the item that panics there: the payload.
    fn item(block: u32) -> u32 {
        block * PER as u32 + 3
    }

    /// Run 40 blocks of [`PER`] items on `threads` threads, panicking
    /// at `site`, on a helper thread: the payload that ends the run and
    /// how many items the producer pushed. Fails if the run returns
    /// instead, or does not end within 10 s — a thread left waiting for
    /// a block hangs it.
    fn panicking_run(threads: usize, site: Site) -> (u32, u32) {
        let at = format!("{site:?}, {threads} threads");
        let (done, ended) = mpsc::channel();
        std::thread::spawn(move || {
            let panic_at = match &site {
                Site::Sweep(blocks) => blocks.iter().map(|&b| item(b)).collect(),
                _ => Vec::new(),
            };
            let sweep = Triple { panic_at };
            let pushed = Cell::new(0);
            let produce = |blocks: &mut Blocks<'_, '_, u32, _, ()>| {
                for i in 0..N {
                    if matches!(site, Site::Produce(b) if item(b) == i) {
                        panic::panic_any(i);
                    }
                    blocks.push(i, 1);
                    pushed.set(i + 1);
                }
            };
            let consume = |blocks: &mut Blocks<'_, '_, u32, Vec<_>, ()>| {
                let mut appended = 0;
                while blocks.next_block() {
                    if let Site::Consume(b) = site {
                        if appended == b {
                            panic::panic_any(item(b));
                        }
                    }
                    appended += 1;
                }
            };
            let caught = panic::catch_unwind(AssertUnwindSafe(|| {
                let mut spares = Spares::default();
                run(
                    threads,
                    PER,
                    &mut spares,
                    Vec::new(),
                    &sweep,
                    produce,
                    consume,
                )
            }));
            let payload = caught.err().and_then(|p| p.downcast_ref::<u32>().copied());
            let _ = done.send((payload, pushed.get()));
        });
        match ended.recv_timeout(Duration::from_secs(10)) {
            Ok((Some(payload), pushed)) => (payload, pushed),
            Ok((None, _)) => panic!("{at}: returned, or panicked with another payload"),
            Err(_) => panic!("{at}: hung"),
        }
    }

    /// A panic in the first, a middle or the last of 40 blocks — in a
    /// sweep, on whichever thread took it up, in the producer or in the
    /// consumer — ends the run on the calling thread with its own
    /// payload, at 1, 2, 3 and 8 threads. Sweeps that panic in two
    /// blocks, or in every block, end it with the lower block's payload.
    /// A sweep's panic never stops the producer, and no run hangs.
    #[test]
    fn a_panic_anywhere_ends_the_run_with_its_payload() {
        for threads in [1, 2, 3, 8] {
            for block in [0, 19, 39] {
                let sites = [
                    Site::Sweep(vec![block]),
                    Site::Produce(block),
                    Site::Consume(block),
                ];
                for site in sites {
                    let at = format!("{site:?}, {threads} threads");
                    let (payload, pushed) = panicking_run(threads, site.clone());
                    assert_eq!(payload, item(block), "{at}");
                    if let Site::Sweep(_) = site {
                        assert_eq!(pushed, N, "{at}: the producer pushed every item");
                    }
                }
            }
            for (blocks, lowest) in [(vec![19, 39], 19), ((0..40).collect(), 0)] {
                let at = format!("sweeps panic in {blocks:?}, {threads} threads");
                let (payload, pushed) = panicking_run(threads, Site::Sweep(blocks));
                assert_eq!(payload, item(lowest), "{at}: the lower block's payload");
                assert_eq!(pushed, N, "{at}: the producer pushed every item");
            }
        }
    }

    /// The sweeps of a run with workers happen beside production: with
    /// the producer parked until a worker has swept the first block,
    /// the run still ends, and a worker swept it.
    #[test]
    fn workers_sweep_while_the_producer_runs() {
        let caller = std::thread::current().id();
        let seen: OnceLock<ThreadId> = OnceLock::new();
        struct Signal<'a>(&'a OnceLock<ThreadId>);
        impl Sweep<u32, Vec<(u32, ThreadId)>> for Signal<'_> {
            type Scratch = ();
            fn scratch(&self) {}
            fn sweep(&self, items: &[u32], out: &mut Vec<(u32, ThreadId)>, _: &mut ()) {
                let here = std::thread::current().id();
                let _ = self.0.set(here);
                out.extend(items.iter().map(|&i| (i, here)));
            }
        }
        let sweep = Signal(&seen);
        let produce = |blocks: &mut Blocks<'_, '_, u32, _, ()>| {
            for item in 0..8 {
                blocks.push(item, 1);
            }
            // Block 0 is published and a worker spawned; wait for it.
            while seen.get().is_none() {
                std::thread::yield_now();
            }
        };
        let mut spares = Spares::default();
        let (out, ()) = run(2, 4, &mut spares, Vec::new(), &sweep, produce, |_| ());
        assert_eq!(out.len(), 8);
        assert_ne!(out[0].1, caller, "a worker swept block 0");
    }

    #[test]
    fn chunks_concatenate_in_order_at_any_thread_count() {
        let items: Vec<u32> = (0..1000).collect();
        let want: Vec<u32> = items.iter().map(|x| x * 3).collect();
        // One spare list for every call: a call reuses the block buffers
        // the last one left, however many chunks each had.
        let mut spares = Spares::default();
        for threads in [0, 1, 2, 3, 7, 8, 999, 1000, 1001, 5000, 3] {
            let got = map_chunks(&items, threads, &mut spares, |chunk| {
                chunk.iter().map(|x| x * 3).collect::<Vec<_>>()
            });
            assert_eq!(got, want, "{threads} threads");
        }
        let none: Vec<u32> = map_chunks(&[], 4, &mut Spares::default(), |chunk: &[u32]| {
            chunk.to_vec()
        });
        assert!(none.is_empty());
    }

    #[test]
    fn one_chunk_maps_on_the_calling_thread() {
        let caller = std::thread::current().id();
        for (items, threads) in [(10, 1), (10, 0), (1, 8), (0, 8)] {
            let list = vec![0u8; items];
            let ran_on = map_chunks(&list, threads, &mut Spares::default(), |_| {
                vec![std::thread::current().id()]
            });
            assert_eq!(ran_on, [caller], "{items} items, {threads} threads");
        }
        // More chunks: one a block, on the caller and at most two
        // workers.
        let ran_on = map_chunks(&[0u8; 9], 3, &mut Spares::default(), |_| {
            vec![std::thread::current().id()]
        });
        assert_eq!(ran_on.len(), 3);
        let threads: std::collections::HashSet<_> = ran_on.iter().collect();
        assert!(threads.len() <= 3, "{threads:?}");
    }

    #[test]
    fn a_worker_panic_reaches_the_caller_with_its_payload() {
        let items: Vec<u32> = (0..10).collect();
        let caught = panic::catch_unwind(|| {
            map_chunks(&items, 2, &mut Spares::default(), |chunk| {
                if chunk.contains(&7) {
                    panic::panic_any(7u32);
                }
                chunk.to_vec()
            })
        });
        let payload = caught.expect_err("the piece holding 7 panics");
        assert_eq!(payload.downcast_ref::<u32>(), Some(&7));
    }

    #[test]
    fn the_machine_gives_every_thread_its_minimum() {
        let cores = available_threads();
        assert_eq!(Threads::Machine.for_items(0, 64), 1);
        assert_eq!(Threads::Machine.for_items(127, 64), 1);
        assert_eq!(Threads::Machine.for_items(128, 64), cores.min(2));
        assert_eq!(Threads::Machine.for_items(usize::MAX, 64), cores);
        assert_eq!(Threads::Machine.for_items(10, 0), cores.min(10));
        assert_eq!(Threads::Machine.on(8, 1000, 64), 8);
        assert_eq!(Threads::Machine.on(8, 300, 64), 4);
        assert_eq!(Threads::Exactly(3).for_items(0, 64), 3);
        assert_eq!(Threads::Exactly(0).for_items(100, 1), 1);
        assert_eq!(Threads::Machine.limit(), cores);
        assert_eq!(Threads::Exactly(3).limit(), 3);
        assert_eq!(Threads::Exactly(0).limit(), 1);
    }

    /// On a one-core machine nothing fans out, however much work there
    /// is: one thread, which [`map_chunks`] runs on the caller.
    #[test]
    fn one_core_is_one_thread() {
        for items in [0, 1, 1000, usize::MAX] {
            for min_per_thread in [0, 1, 64] {
                assert_eq!(Threads::Machine.on(1, items, min_per_thread), 1);
            }
        }
    }
}
