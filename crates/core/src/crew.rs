//! The one thread primitive of `mimo_core`: a scoped crew.
//!
//! The paper reaches 1 Gbps with four channel pipelines running side
//! by side, each on memories it owns. Every parallel schedule of the
//! software model runs on [`crew`], the only code here that starts a
//! thread:
//!
//! * [`fan_out`] splits one burst's channel workspaces — TX channel
//!   pipelines, RX per-antenna ingest, RX per-stream decode — into
//!   contiguous runs, one per member;
//! * [`BurstPipeline`](crate::BurstPipeline) gives each member a
//!   receive state, and the members claim whole bursts.
//!
//! Each member borrows its own state mutably and shares everything
//! else read-only, so every output cell is written by exactly one
//! member and no result depends on the schedule.

use std::panic::resume_unwind;

/// Runs `work` once on every member and returns the results in member
/// order.
///
/// The caller is member 0; every other member runs on a helper started
/// by `std::thread::Builder::spawn_scoped`. A member whose helper
/// cannot be spawned runs on the caller once the helpers are joined.
/// A helper panic is re-raised on the caller with its original
/// payload. A crew of one starts no helper.
pub(crate) fn crew<M: Send, R: Send>(
    members: &mut [M],
    work: impl Fn(&mut M) -> R + Sync,
) -> Vec<R> {
    let work = &work;
    let n = members.len();
    let Some((own, rest)) = members.split_first_mut() else {
        return Vec::new();
    };
    let ran: Vec<Option<R>> = std::thread::scope(|scope| {
        let helpers: Vec<_> = rest
            .iter_mut()
            .map(|member| {
                std::thread::Builder::new()
                    .name("mimo-crew".into())
                    .spawn_scoped(scope, move || work(member))
                    .ok()
            })
            .collect();
        let mut ran = Vec::with_capacity(n);
        ran.push(Some(work(own)));
        ran.extend(helpers.into_iter().map(|helper| {
            helper.map(|h| h.join().unwrap_or_else(|payload| resume_unwind(payload)))
        }));
        ran
    });
    ran.into_iter()
        .zip(members.iter_mut())
        .map(|(result, member)| result.unwrap_or_else(|| work(member)))
        .collect()
}

/// Runs `f(i, &mut items[i])` for every item on a crew of at most
/// `width` members (at least one, never more than there are items).
/// The items are split into contiguous runs of `⌈len / width⌉` (the
/// last may be shorter), one per member. Each member visits its run in
/// index order and stops at its first error; the error returned is the
/// one with the lowest index, as in a serial loop.
pub(crate) fn fan_out<T: Send, E: Send>(
    width: usize,
    items: &mut [T],
    f: impl Fn(usize, &mut T) -> Result<(), E> + Sync,
) -> Result<(), E> {
    let run = items.len().div_ceil(width.max(1)).max(1);
    let mut members: Vec<(usize, &mut [T])> = items
        .chunks_mut(run)
        .enumerate()
        .map(|(c, chunk)| (c * run, chunk))
        .collect();
    crew(&mut members, |(start, chunk)| {
        chunk
            .iter_mut()
            .enumerate()
            .try_for_each(|(j, item)| f(*start + j, item))
    })
    .into_iter()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    const WIDTHS: [usize; 6] = [0, 1, 2, 3, 4, 8];

    #[test]
    fn fan_out_visits_every_item_once_with_its_index() {
        for width in WIDTHS {
            for count in [0, 1, 4, 5] {
                // (index seen, visits) per item.
                let mut items = vec![(usize::MAX, 0u32); count];
                let done: Result<(), ()> = fan_out(width, &mut items, |i, item| {
                    item.0 = i;
                    item.1 += 1;
                    Ok(())
                });
                assert_eq!(done, Ok(()));
                for (i, &(seen, visits)) in items.iter().enumerate() {
                    assert_eq!((seen, visits), (i, 1), "width {width}, count {count}");
                }
            }
        }
    }

    #[test]
    fn fan_out_returns_the_lowest_index_error() {
        for planted in [&[1, 2][..], &[3][..]] {
            for width in WIDTHS {
                let mut items = [0u8; 5];
                let done = fan_out(width, &mut items, |i, _| {
                    if planted.contains(&i) {
                        Err(i)
                    } else {
                        Ok(())
                    }
                });
                assert_eq!(
                    done,
                    Err(planted[0]),
                    "width {width}, errors at {planted:?}"
                );
            }
        }
    }

    #[derive(Debug, PartialEq)]
    struct Planted(usize);

    #[test]
    fn helper_panic_reaches_the_caller_with_its_payload() {
        let caller = std::thread::current().id();
        let mut items = [0u8; 4];
        // Width 2 over four items: the caller runs items 0-1, a helper
        // runs items 2-3.
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            fan_out(2, &mut items, |i, _| -> Result<(), ()> {
                if i == 3 {
                    assert_ne!(std::thread::current().id(), caller);
                    std::panic::panic_any(Planted(i));
                }
                Ok(())
            })
        }));
        let payload = unwound.expect_err("the helper panic must reach the caller");
        assert_eq!(payload.downcast_ref::<Planted>(), Some(&Planted(3)));
    }

    #[test]
    fn crew_returns_results_in_member_order() {
        let mut members: Vec<u64> = (0..8).collect();
        // Later members finish first, so completion order is reversed.
        let results = crew(&mut members, |m| {
            std::thread::sleep(std::time::Duration::from_millis(2 * (8 - *m)));
            *m *= 10;
            *m + 1
        });
        assert_eq!(results, (0..8).map(|m| m * 10 + 1).collect::<Vec<_>>());
        assert_eq!(members, (0..8).map(|m| m * 10).collect::<Vec<_>>());
    }
}
