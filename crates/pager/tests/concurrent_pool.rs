//! Concurrency hammer for the buffer pool.
//!
//! One pager is shared by a daemon's connection workers and by the
//! threads a router fetches a query's zones on. Here N scoped threads
//! pin, unpin, allocate and sort against one shared `Pager` while the
//! test asserts that every scan and sort still returns the right
//! records and that the frame budget is never exceeded; a second test
//! checks that racing misses on one cold page cost one read.

use netdir_pager::{external_sort_by, ExtSortConfig, PagedList, Pager};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

const THREADS: usize = 8;

#[test]
fn hammer_preserves_frame_budget_and_answers() {
    let pager = Pager::new(256, 16);
    let frames = pager.pool().capacity();

    // A shared read-mostly list, bigger than the pool.
    let shared: PagedList<u64> = PagedList::from_iter(&pager, 0..4000u64).unwrap();
    pager.flush().unwrap();
    pager.pool().clear_cache().unwrap();
    pager.reset_io();

    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        // A watchdog samples the residency invariant while the workers run.
        let watchdog = scope.spawn(|| {
            let mut max_seen = 0;
            while !stop.load(Ordering::Acquire) {
                max_seen = max_seen.max(pager.pool().resident());
                std::thread::sleep(Duration::from_micros(50));
            }
            max_seen
        });

        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let pager = &pager;
                let shared = &shared;
                scope.spawn(move || {
                    for round in 0..3 {
                        // Pin/unpin traffic: scan the shared list (each
                        // page read at most once per scan, then churned
                        // by everyone else's evictions).
                        let sum: u64 = shared.iter().map(|r| r.unwrap()).sum();
                        assert_eq!(sum, 4000 * 3999 / 2);

                        // Alloc + sort traffic: a private list, sorted
                        // under the shared frame budget.
                        let seed = (t * 31 + round) as u64;
                        let mine: Vec<u64> =
                            (0..600).map(|i| (i * 2654435761 + seed * 97) % 10_000).collect();
                        let list = PagedList::from_iter(pager, mine.clone()).unwrap();
                        let sorted =
                            external_sort_by(pager, &list, ExtSortConfig { fan_in: 3 }, |a, b| {
                                a.cmp(b)
                            })
                            .unwrap();
                        let mut expect = mine;
                        expect.sort();
                        assert_eq!(sorted.to_vec().unwrap(), expect);
                    }
                })
            })
            .collect();

        for w in workers {
            w.join().unwrap();
        }
        stop.store(true, Ordering::Release);
        let max_resident = watchdog.join().unwrap();
        assert!(
            max_resident <= frames,
            "pool held {max_resident} resident frames on a {frames}-frame budget"
        );
    });
    // The storm really went through the pool and the disk.
    assert!(pager.io().reads > 0 && pager.io().allocs > 0);

    // After the storm: no pins left behind, the pool still works.
    assert!(pager.pool().resident() <= frames);
    pager.pool().clear_cache().unwrap();
    assert_eq!(pager.pool().resident(), 0, "leaked pins prevented eviction");
}

#[test]
fn racing_fetches_of_one_cold_page_cost_one_read() {
    // The loading-frame design must dedupe concurrent misses: whoever
    // publishes the frame does the single disk read; everyone else blocks
    // on the data lock. A latency disk widens the race window enough that
    // a double-read bug would be caught essentially every run.
    let pager = Pager::with_latency(
        256,
        8,
        Duration::from_millis(2),
        Duration::ZERO,
    );
    let list: PagedList<u64> = PagedList::from_iter(&pager, 0..20u64).unwrap();
    assert_eq!(list.num_pages(), 1);
    pager.flush().unwrap();

    for _ in 0..10 {
        pager.pool().clear_cache().unwrap();
        pager.reset_io();
        std::thread::scope(|scope| {
            for _ in 0..6 {
                scope.spawn(|| {
                    let got: Vec<u64> = list.iter().map(|r| r.unwrap()).collect();
                    assert_eq!(got, (0..20).collect::<Vec<_>>());
                });
            }
        });
        assert_eq!(pager.io().reads, 1, "concurrent misses must share one read");
    }
}
