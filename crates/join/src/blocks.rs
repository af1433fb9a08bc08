//! The ordered block pipeline the MBR join runs on ([`run`]).
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
//! (the join's page reads) happens exactly as it would with no workers,
//! and the output is the sweeps' results concatenated in block order.
//!
//! What a run allocates does not depend on which thread swept what:
//! block `i` always fills and sweeps into the buffers of slot `i`, which
//! the next run reuses ([`Spares`]), and every sweeping thread makes its
//! scratch once, when it starts.
//!
//! # Panics
//!
//! A panic anywhere ends the pipeline on the calling thread with its own
//! payload. A worker catches its sweep's panic and hands the payload to
//! the caller, which resumes it at its next publish or consume step. A
//! panic of the caller, while producing, sweeping or consuming, closes
//! the queue as it unwinds, so every worker finishes its block and exits
//! before the pipeline's thread scope returns. No thread waits for a
//! block nobody will sweep.
//!
//! # Locks
//!
//! The queue is one [`DepMutex`] of the leaf class
//! [`LockClass::JoinBlocks`] with two condition variables. The caller
//! waits on it while a pool session holds a shard lock, which the class
//! ranks before it. Nothing is acquired while it is held, and no code
//! that can panic runs under it, so it is never poisoned.

use spatialdb_disk::{DepGuard, DepMutex, LockClass};
use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Condvar;
use std::thread::Scope;

/// How a block is swept.
pub(crate) trait Sweep<T, R>: Sync {
    /// A sweeping thread's scratch, made once per thread and run.
    type Scratch;

    /// Fresh scratch for a thread about to sweep.
    fn scratch(&self) -> Self::Scratch;

    /// Sweep `items` into `out`, which arrives empty.
    fn sweep(&self, items: &[T], out: &mut R, scratch: &mut Self::Scratch);
}

/// What a sweep produces, appended to the pipeline's output in block
/// order.
pub(crate) trait Swept: Default + Send {
    /// Move `later`'s contents to the end of `self`, leaving `later`
    /// empty with its capacity, for the next run.
    fn append(&mut self, later: &mut Self);
}

/// A block's buffers.
struct Slot<T, R> {
    items: Vec<T>,
    result: R,
    /// The block is swept and its result waits in `result`.
    swept: bool,
}

/// The slots a run leaves behind, emptied, for the calling thread's
/// next run: a run allocates block buffers only past the last one's
/// block count, or where one of its blocks holds more than the same
/// block of the last one.
pub(crate) struct Spares<T, R>(Vec<Slot<T, R>>);

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
    /// No block will be published any more: the producer is done, a
    /// sweep panicked, or the caller is unwinding.
    closed: bool,
    /// A worker's sweep panicked with this payload; the caller resumes
    /// it.
    panic: Option<Box<dyn Any + Send>>,
}

impl<T, R: Swept> State<T, R> {
    /// Take up the oldest unclaimed block, if any: its number, its
    /// items and its (empty) result buffer.
    fn claim(&mut self) -> Option<(usize, Vec<T>, R)> {
        if self.claimed == self.published {
            return None;
        }
        let number = self.claimed;
        self.claimed += 1;
        let slot = &mut self.slots[number];
        let items = std::mem::take(&mut slot.items);
        Some((number, items, std::mem::take(&mut slot.result)))
    }

    /// Give block `number`'s buffers back, its result swept into.
    fn store(&mut self, number: usize, mut items: Vec<T>, result: R) {
        items.clear();
        self.slots[number] = Slot {
            items,
            result,
            swept: true,
        };
    }
}

struct Shared<T, R> {
    blocks: DepMutex<State<T, R>>,
    /// Signalled when a block is published or the queue closes: the
    /// workers wait on it.
    published: Condvar,
    /// Signalled when a block is swept or a sweep panics: the caller
    /// waits on it.
    swept: Condvar,
}

/// The calling thread's end of a running pipeline: it publishes blocks
/// with [`push`](Blocks::push) while producing, and appends swept blocks
/// to the output with [`next`](Blocks::next) while consuming.
pub(crate) struct Blocks<'scope, 'env, T, R, S> {
    shared: &'env Shared<T, R>,
    sweep: &'env (dyn Sweep<T, R, Scratch = S> + 'env),
    scope: &'scope Scope<'scope, 'env>,
    /// The calling thread's sweep scratch.
    scratch: S,
    /// Workers the pipeline may still spawn.
    unspawned: usize,
    /// Weight at which a block is full.
    block_weight: usize,
    /// The block being filled, and its weight.
    block: Vec<T>,
    weight: usize,
    out: R,
}

impl<'scope, 'env, T: Send, R: Swept, S> Blocks<'scope, 'env, T, R, S> {
    /// Add `item`, of `weight`, to the current block. A full block is
    /// published first — and a worker spawned, while there are fewer
    /// than `k − 1` — so a block goes out only once the next item shows
    /// that more work follows it.
    pub(crate) fn push(&mut self, item: T, weight: usize) {
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
    /// its slot's buffer. Resumes a worker's panic.
    fn publish(&mut self) {
        let mut state = self.acquire();
        let items = std::mem::take(&mut self.block);
        let number = state.published;
        match state.slots.get_mut(number) {
            Some(slot) => slot.items = items,
            None => state.slots.push(Slot {
                items,
                result: R::default(),
                swept: false,
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
        self.acquire().closed = true;
        self.shared.published.notify_all();
    }

    /// Append the next block's result to the output. While it is not
    /// swept, the calling thread sweeps the oldest unclaimed block — that
    /// one, or a later one while a worker sweeps it — rather than wait.
    /// `false` once every block is appended. Resumes a worker's panic.
    pub(crate) fn next(&mut self) -> bool {
        let mut state = self.acquire();
        loop {
            let number = state.appended;
            if number == state.published {
                return false;
            }
            let slot = &mut state.slots[number];
            if slot.swept {
                slot.swept = false;
                self.out.append(&mut slot.result);
                state.appended += 1;
                return true;
            }
            state = match state.claim() {
                Some((number, items, mut result)) => {
                    drop(state);
                    self.sweep.sweep(&items, &mut result, &mut self.scratch);
                    let mut state = self.acquire();
                    state.store(number, items, result);
                    state
                }
                None => self.checked(state.wait(&self.shared.swept)),
            };
        }
    }

    /// The output: the results of the blocks appended so far, in block
    /// order.
    pub(crate) fn out(&self) -> &R {
        &self.out
    }

    fn acquire(&self) -> DepGuard<'env, State<T, R>> {
        self.checked(self.shared.blocks.acquire())
    }

    /// `state`, unless a worker's sweep panicked: then its payload
    /// resumes here, on the calling thread.
    fn checked<'g>(&self, mut state: DepGuard<'g, State<T, R>>) -> DepGuard<'g, State<T, R>> {
        if let Some(payload) = state.panic.take() {
            drop(state);
            panic::resume_unwind(payload);
        }
        state
    }
}

impl<T, R, S> Drop for Blocks<'_, '_, T, R, S> {
    /// Close the queue, leaving what nobody claimed unswept, so every
    /// worker exits — also when the caller unwinds — and give the
    /// current block's buffer back to its slot.
    fn drop(&mut self) {
        let mut state = self.shared.blocks.acquire_unpoisoned();
        state.closed = true;
        state.claimed = state.published;
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
/// and every block claimed, or a sweep panics.
fn work<T: Send, R: Swept, S>(shared: &Shared<T, R>, sweep: &dyn Sweep<T, R, Scratch = S>) {
    let mut scratch = sweep.scratch();
    let mut state = shared.blocks.acquire();
    loop {
        if let Some((number, items, mut result)) = state.claim() {
            drop(state);
            let swept = panic::catch_unwind(AssertUnwindSafe(|| {
                sweep.sweep(&items, &mut result, &mut scratch)
            }));
            state = shared.blocks.acquire();
            if let Err(payload) = swept {
                state.panic.get_or_insert(payload);
                state.closed = true;
                state.claimed = state.published;
                drop(state);
                shared.published.notify_all();
                shared.swept.notify_one();
                return;
            }
            state.store(number, items, result);
            shared.swept.notify_one();
        } else if state.closed {
            return;
        } else {
            state = state.wait(&shared.published);
        }
    }
}

/// Run a pipeline on `threads` threads (one when 0): `produce` pushes
/// items into blocks of `block_weight`, then, once it has returned,
/// `consume` takes the swept blocks in order. Returns the output —
/// `out` with every block's result appended, in block order, whether
/// or not `consume` asked for them all — and what `consume` returned.
/// The run's emptied buffers go to `spares`.
pub(crate) fn run<T: Send, R: Swept, S, O>(
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
            LockClass::JoinBlocks,
            State {
                slots,
                published: 0,
                claimed: 0,
                appended: 0,
                closed: false,
                panic: None,
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
        while blocks.next() {}
        (std::mem::take(&mut blocks.out), value)
    });
    spares.0 = std::mem::take(&mut shared.blocks.get_mut().slots);
    done
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;
    use std::thread::ThreadId;

    impl Swept for Vec<(u32, ThreadId)> {
        fn append(&mut self, later: &mut Self) {
            Vec::append(self, later);
        }
    }

    /// Items `0..n` of weight 1 in blocks of `per` items; a block sweeps
    /// to `(3 × item, sweeping thread)` and panics with its item if that
    /// is `panic_at`.
    struct Triple {
        panic_at: Option<u32>,
    }

    impl Sweep<u32, Vec<(u32, ThreadId)>> for Triple {
        type Scratch = ();

        fn scratch(&self) {}

        fn sweep(&self, items: &[u32], out: &mut Vec<(u32, ThreadId)>, _: &mut ()) {
            let here = std::thread::current().id();
            for &item in items {
                if Some(item) == self.panic_at {
                    panic::panic_any(item);
                }
                out.push((item * 3, here));
            }
        }
    }

    /// Run the pipeline over `n` items in blocks of `per`: the output,
    /// and the block boundaries `consume` saw.
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
            while blocks.next() {
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
        let sweep = Triple { panic_at: None };
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
        let sweep = Triple { panic_at: None };
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
        let sweep = Triple { panic_at: None };
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

    /// Where a panic strikes: in a block's sweep, in the producer before
    /// it pushes an item, or in the consumer after a block is appended.
    #[derive(Clone, Copy, Debug)]
    enum Site {
        Sweep,
        Produce,
        Consume,
    }

    /// A panic in the first, a middle or the last of 40 blocks — in a
    /// sweep, on whichever thread took it up, in the producer or in the
    /// consumer — ends the run on the calling thread with its own
    /// payload, at 1, 2, 3 and 8 threads. A thread left waiting for a
    /// block would hang the test instead.
    #[test]
    fn a_panic_anywhere_ends_the_run_with_its_payload() {
        const PER: usize = 25;
        const N: u32 = 40 * PER as u32;
        for threads in [1, 2, 3, 8] {
            for site in [Site::Sweep, Site::Produce, Site::Consume] {
                for block in [0, 19, 39] {
                    let at = format!("{site:?} in block {block}, {threads} threads");
                    let item = block * PER as u32 + 3;
                    let sweep = Triple {
                        panic_at: matches!(site, Site::Sweep).then_some(item),
                    };
                    let produce = |blocks: &mut Blocks<'_, '_, u32, _, ()>| {
                        for i in 0..N {
                            if matches!(site, Site::Produce) && i == item {
                                panic::panic_any(item);
                            }
                            blocks.push(i, 1);
                        }
                    };
                    let consume = |blocks: &mut Blocks<'_, '_, u32, Vec<_>, ()>| {
                        let mut appended = 0;
                        while blocks.next() {
                            if matches!(site, Site::Consume) && appended == block {
                                panic::panic_any(item);
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
                    let payload = caught.expect_err(&at);
                    assert_eq!(payload.downcast_ref::<u32>(), Some(&item), "{at}");
                }
            }
        }
    }

    /// The sweeps of a run with workers happen beside production: with
    /// the producer parked until a worker has swept the first block,
    /// the run still ends, and a worker swept it.
    #[test]
    fn workers_sweep_while_the_producer_runs() {
        let caller = std::thread::current().id();
        let seen: Mutex<Option<ThreadId>> = Mutex::new(None);
        struct Signal<'a>(&'a Mutex<Option<ThreadId>>);
        impl Sweep<u32, Vec<(u32, ThreadId)>> for Signal<'_> {
            type Scratch = ();
            fn scratch(&self) {}
            fn sweep(&self, items: &[u32], out: &mut Vec<(u32, ThreadId)>, _: &mut ()) {
                let here = std::thread::current().id();
                self.0.lock().unwrap().get_or_insert(here);
                out.extend(items.iter().map(|&i| (i, here)));
            }
        }
        let sweep = Signal(&seen);
        let produce = |blocks: &mut Blocks<'_, '_, u32, _, ()>| {
            for item in 0..8 {
                blocks.push(item, 1);
            }
            // Block 0 is published and a worker spawned; wait for it.
            while seen.lock().unwrap().is_none() {
                std::thread::yield_now();
            }
        };
        let mut spares = Spares::default();
        let (out, ()) = run(2, 4, &mut spares, Vec::new(), &sweep, produce, |_| ());
        assert_eq!(out.len(), 8);
        assert_ne!(out[0].1, caller, "a worker swept block 0");
    }
}
