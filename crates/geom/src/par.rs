//! The fan-out *within* one operation — a join's exact tests, a
//! cursor's `ids()`, a bulk load's sort and tile: split a
//! slice into contiguous chunks, map each on its own thread, and
//! concatenate the results in chunk order ([`map_chunks`]). Each thread
//! returns its own chunk's results, so nothing is shared and nothing is
//! locked; the result is the one a single map over the whole slice gives
//! whenever the map is a concatenation over its items.
//!
//! The crates above share this one helper; it lives here because this
//! crate depends on nothing.

use std::num::NonZeroUsize;

/// A chunk's results, which [`map_chunks`] concatenates in chunk order.
pub trait Concat: Send {
    /// Append `later`, the results of the next chunk.
    fn concat(&mut self, later: Self);
}

impl<T: Send> Concat for Vec<T> {
    fn concat(&mut self, mut later: Self) {
        self.append(&mut later);
    }
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

/// Split `items` into at most `threads` contiguous chunks of equal
/// length (the last one shorter), map each, and concatenate the results
/// in chunk order. The first chunk maps on the calling thread, every
/// other one on a scoped thread of its own, so one thread — or a single
/// item — maps everything on the calling thread and spawns nothing. A
/// worker's panic is the caller's: it resumes here with its own payload.
pub fn map_chunks<T: Sync, R: Concat>(
    items: &[T],
    threads: usize,
    map: impl Fn(&[T]) -> R + Sync,
) -> R {
    let per = items.len().div_ceil(threads.max(1)).max(1);
    if items.len() <= per {
        return map(items);
    }
    let (first, rest) = items.split_at(per);
    std::thread::scope(|scope| {
        let map = &map;
        let workers: Vec<_> = rest
            .chunks(per)
            .map(|chunk| scope.spawn(move || map(chunk)))
            .collect();
        let mut merged = map(first);
        for worker in workers {
            match worker.join() {
                Ok(part) => merged.concat(part),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        merged
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_concatenate_in_order_at_any_thread_count() {
        let items: Vec<u32> = (0..1000).collect();
        let want: Vec<u32> = items.iter().map(|x| x * 3).collect();
        for threads in [0, 1, 2, 3, 7, 8, 999, 1000, 1001, 5000] {
            let got = map_chunks(&items, threads, |chunk| {
                chunk.iter().map(|x| x * 3).collect::<Vec<_>>()
            });
            assert_eq!(got, want, "{threads} threads");
        }
        let none: Vec<u32> = map_chunks(&[], 4, |chunk: &[u32]| chunk.to_vec());
        assert!(none.is_empty());
    }

    #[test]
    fn one_chunk_maps_on_the_calling_thread() {
        let caller = std::thread::current().id();
        for (items, threads) in [(10, 1), (10, 0), (1, 8), (0, 8)] {
            let list = vec![0u8; items];
            let ran_on = map_chunks(&list, threads, |_| vec![std::thread::current().id()]);
            assert_eq!(ran_on, [caller], "{items} items, {threads} threads");
        }
        // More chunks: the first is still the caller's, the rest are not.
        let ran_on = map_chunks(&[0u8; 9], 3, |_| vec![std::thread::current().id()]);
        assert_eq!(ran_on[0], caller);
        assert!(ran_on[1..].iter().all(|id| *id != caller));
    }

    #[test]
    fn a_worker_panic_reaches_the_caller_with_its_payload() {
        let items: Vec<u32> = (0..10).collect();
        let caught = std::panic::catch_unwind(|| {
            map_chunks(&items, 2, |chunk| {
                if chunk.contains(&7) {
                    std::panic::panic_any(7u32);
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
