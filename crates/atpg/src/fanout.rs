//! The work-claiming fan-out shared by the fault simulator and the proof
//! campaign.

use std::sync::atomic::{AtomicUsize, Ordering};

/// How many of `requested` workers a fan-out of `len` items claimed `claim`
/// at a time can keep busy: one per claim at most, and always at least one.
/// Callers size their worker slots with it, so a huge requested count never
/// builds slots that [`fan_out`] would leave idle.
pub(crate) fn workers_for(len: usize, claim: usize, requested: usize) -> usize {
    len.div_ceil(claim).min(requested).max(1)
}

/// Runs `job` once on every item of `items` and returns the results in item
/// order.
///
/// The caller's thread is worker 0 and every further slot of `workers` gets a
/// scoped thread, up to [`workers_for`] of them. Workers claim `claim`
/// consecutive items per bump of one shared cursor, so a skewed workload
/// still balances, and each owns its `S` slot for the whole call:
/// per-worker state such as engines or scratch buffers is reused from item to
/// item and, because the slots belong to the caller, from call to call. Each
/// worker collects its own results and they are merged after the join, so
/// nothing but the cursor is shared.
///
/// A panic in `job` reaches the caller once every worker has stopped.
///
/// # Panics
///
/// If `claim` is zero or `workers` is empty.
pub(crate) fn fan_out<T, S, R, F>(items: &[T], claim: usize, workers: &mut [S], job: F) -> Vec<R>
where
    T: Sync,
    S: Send,
    R: Send,
    F: Fn(&mut S, &T) -> R + Sync,
{
    assert!(
        claim > 0 && !workers.is_empty(),
        "fan-out needs a nonzero claim and a worker slot"
    );
    let used = workers_for(items.len(), claim, workers.len());
    let (first, rest) = workers[..used].split_at_mut(1);
    let cursor = AtomicUsize::new(0);
    let run = |slot: &mut S| {
        let mut done = Vec::new();
        loop {
            let start = cursor.fetch_add(claim, Ordering::Relaxed);
            if start >= items.len() {
                return done;
            }
            let end = (start + claim).min(items.len());
            for (i, item) in (start..end).zip(&items[start..end]) {
                done.push((i, job(slot, item)));
            }
        }
    };
    let mut done = std::thread::scope(|scope| {
        let spawned: Vec<_> = rest
            .iter_mut()
            .map(|slot| scope.spawn(|| run(slot)))
            .collect();
        let mut done = run(&mut first[0]);
        for worker in spawned {
            done.extend(
                worker
                    .join()
                    .unwrap_or_else(|e| std::panic::resume_unwind(e)),
            );
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::{fan_out, workers_for};

    #[test]
    fn results_come_back_in_item_order_and_each_item_runs_once() {
        for len in [0, 1, 15, 16, 17, 127] {
            let items: Vec<usize> = (0..len).collect();
            let doubled: Vec<usize> = items.iter().map(|i| 2 * i).collect();
            for claim in [1, 16] {
                for workers in [1, 2, 5] {
                    let case = format!("{len} items, claim {claim}, {workers} workers");
                    let mut ran = vec![Vec::new(); workers];
                    let out = fan_out(&items, claim, &mut ran, |ran: &mut Vec<usize>, &i| {
                        ran.push(i);
                        2 * i
                    });
                    assert_eq!(out, doubled, "{case}");
                    let mut ran = ran.concat();
                    ran.sort_unstable();
                    assert_eq!(ran, items, "{case}");
                }
            }
        }
    }

    #[test]
    fn workers_are_clamped_to_the_claims_there_are() {
        assert_eq!(workers_for(0, 16, 5), 1);
        assert_eq!(workers_for(17, 16, 5), 2);
        assert_eq!(workers_for(17, 16, 1 << 40), 2);
        assert_eq!(workers_for(127, 1, 5), 5);
        assert_eq!(workers_for(127, 1, 0), 1);
    }
}
