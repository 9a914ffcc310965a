//! A server restarted inside a maintenance swap serves what the swap
//! decided.  After a crash at a compaction's `marker` step — the swap
//! committed, no file renamed yet — `Engine::open` must resolve the swap:
//! were it to open the old files and leave marker and staging in place,
//! the next `MAINTAIN COMPACT` would begin by finishing the stale swap and
//! roll every row acknowledged in between away.

use bbs_hash::Md5BloomHasher;
use bbs_server::{maintain_action, Engine, Reply, Request, Response, ServerConfig};
use bbs_storage::diskbbs::DiskDeployment;
use bbs_storage::{compact_deployment_hooked, maintain::swap_marker_path};
use bbs_tdb::{Itemset, Transaction};
use std::sync::Arc;
use std::time::Duration;

#[test]
fn rows_acknowledged_after_a_crash_at_marker_survive_maintain_compact() {
    let mut base = std::env::temp_dir();
    base.push(format!("bbs_swap_recovery_{}", std::process::id()));
    struct Cleanup(std::path::PathBuf);
    impl Drop for Cleanup {
        fn drop(&mut self) {
            DiskDeployment::remove_files(&self.0).ok();
        }
    }
    let _g = Cleanup(base.clone());
    let cfg = ServerConfig {
        cache_pages: 64,
        commit_window: Duration::ZERO,
        ..ServerConfig::default()
    };
    let hasher = || Arc::new(Md5BloomHasher::new(4));

    // 20 rows, 5 of them tombstoned, then a compaction that dies right
    // after its marker became durable.
    {
        let mut dep = DiskDeployment::open(&base, cfg.width, hasher(), 64).expect("open");
        let rows: Vec<Transaction> = (0..20)
            .map(|i| Transaction::new(i, Itemset::from_values(&[i as u32 % 7, 13])))
            .collect();
        dep.append_batch(&rows).expect("batch");
        dep.commit_deletes(&[1, 3, 4, 10, 17], &[]).expect("delete");
    }
    compact_deployment_hooked(
        &base,
        cfg.width,
        hasher(),
        None,
        64,
        &mut |step| match step {
            "marker" => Err(std::io::Error::other("injected crash at marker")),
            _ => Ok(()),
        },
    )
    .expect_err("the hook aborts the compaction");
    assert!(swap_marker_path(&base).exists());

    let engine = Engine::open(&base, cfg).expect("restart");
    assert!(
        !swap_marker_path(&base).exists(),
        "the open resolved the swap"
    );
    let count = |items: &[u32]| match engine.handle(&Request::CountMany {
        itemsets: vec![items.to_vec()],
    }) {
        Response::Ok(Reply::CountMany { supports, rows, .. }) => (supports[0], rows),
        other => panic!("count: {other:?}"),
    };
    assert_eq!(
        count(&[13]),
        (15, 15),
        "the compacted state is served at once"
    );

    let insert = engine.handle(&Request::Insert {
        req_id: 7,
        txns: (100..105).map(|tid| (tid, vec![40, 41])).collect(),
    });
    assert!(
        matches!(
            insert,
            Response::Ok(Reply::Insert {
                first_row: 15,
                appended: 5,
                ..
            })
        ),
        "{insert:?}"
    );
    assert_eq!(count(&[40, 41]), (5, 20));

    let compact = engine.handle(&Request::Maintain {
        action: maintain_action::COMPACT,
        arg: 0,
    });
    assert!(
        matches!(
            compact,
            Response::Ok(Reply::Maintain {
                live_rows: 20,
                deleted_rows: 0,
                ..
            })
        ),
        "{compact:?}"
    );
    assert_eq!(
        count(&[40, 41]),
        (5, 20),
        "every acknowledged row is still there"
    );
    assert_eq!(count(&[13]), (15, 20));
}
