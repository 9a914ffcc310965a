//! `merge_receipts`, the router's one receipt merge, as a table: every
//! pair of ranks of the severity ladder for insert and delete receipts,
//! and the folding of committed legs.

use bbs_server::{merge_receipts, Reply, Response};

fn insert(first_row: u64, appended: u64, epoch: u64, deduped: bool) -> Response {
    Response::Ok(Reply::Insert {
        first_row,
        appended,
        epoch,
        deduped,
    })
}

fn delete(deleted: u64, epoch: u64, deduped: bool) -> Response {
    Response::Ok(Reply::Delete {
        deleted,
        epoch,
        deduped,
    })
}

/// One response per rank of the ladder above `Committed`, ascending.
fn failures() -> Vec<Response> {
    vec![
        Response::Overloaded,
        Response::NotPrimary("10.0.0.9:7878".into()),
        Response::DiskFull,
        Response::Err("commit failed".into()),
        Response::ShardUnavailable(1, "shard 1: connection refused".into()),
    ]
}

/// Every ordered pair of ranks, for insert and for delete receipts:
/// the higher rank answers, the lower shard breaks a tie, and an `Err`
/// is tagged with the shard that raised it.
#[test]
fn worst_failure_wins_for_every_pair_of_ranks() {
    for committed in [insert(4, 2, 7, false), delete(2, 7, false)] {
        let mut ladder = vec![committed];
        ladder.extend(failures());
        for (i, a) in ladder.iter().enumerate() {
            for (j, b) in ladder.iter().enumerate() {
                let got = merge_receipts(vec![(0, a.clone()), (1, b.clone())]);
                let (shard, winner) = if j > i { (1, b) } else { (0, a) };
                match winner {
                    Response::Ok(_) => assert!(matches!(got, Response::Ok(_)), "{a:?} + {b:?}"),
                    Response::Err(msg) => {
                        assert_eq!(got, Response::Err(format!("shard {shard}: {msg}")))
                    }
                    other => assert_eq!(&got, other, "{a:?} + {b:?}"),
                }
            }
        }
    }
}

#[test]
fn committed_legs_fold_into_one_receipt() {
    let legs = |resps: Vec<Response>| resps.into_iter().enumerate().collect::<Vec<_>>();
    // Rows sum, the epoch is the highest, `first_row` the lowest
    // shard's, and `deduped` holds only when every leg deduped.
    for (flags, all) in [([true, true, true], true), ([true, false, true], false)] {
        let got = merge_receipts(legs(vec![
            insert(40, 3, 5, flags[0]),
            insert(10, 4, 9, flags[1]),
            insert(20, 5, 2, flags[2]),
        ]));
        assert_eq!(got, insert(40, 12, 9, all));
        let got = merge_receipts(legs(vec![
            delete(1, 5, flags[0]),
            delete(0, 9, flags[1]),
            delete(6, 2, flags[2]),
        ]));
        assert_eq!(got, delete(7, 9, all));
    }
    // A health report is the weakest member's.
    let report = |action_taken, width, live_rows, deleted_rows, fpr: f64| {
        Response::Ok(Reply::Maintain {
            action_taken,
            width,
            live_rows,
            deleted_rows,
            fpr_bits: fpr.to_bits(),
        })
    };
    let got = merge_receipts(legs(vec![
        report(0, 64, 10, 1, 0.01),
        report(1, 128, 20, 0, 0.30),
        report(0, 64, 5, 2, 0.02),
    ]));
    assert_eq!(got, report(1, 128, 35, 3, 0.30));
    // Bodies of different kinds never fold: that shard misbehaved.
    let got = merge_receipts(legs(vec![insert(0, 1, 1, false), delete(1, 1, false)]));
    assert!(matches!(got, Response::Err(msg) if msg.starts_with("shard 1: unexpected reply")));
    assert!(matches!(merge_receipts(Vec::new()), Response::Err(_)));
}
