//! One cursor, two slice sources: the same rows as a loaded [`Bbs`]
//! ([`Cursor::resident`]) and as a slice file ([`DiskCounter`]), at the same
//! width and hasher, walk the same enumeration tree — the same answer at
//! every node, under every τ the walk passes, and the same [`CursorStats`].

use bbs_core::{run_filter_source_threaded, Bbs, CountSource, Cursor, Scheme};
use bbs_hash::{ItemHasher, Md5BloomHasher};
use bbs_storage::diskbbs::DiskDeployment;
use bbs_storage::{CursorStats, CHUNK_ROWS};
use bbs_tdb::{IoStats, ItemId, Itemset, Transaction, TransactionDb};
use std::io;
use std::path::PathBuf;
use std::sync::Arc;

const CHUNK: u64 = CHUNK_ROWS as u64;
const WIDTH: usize = 64;
/// Rows of the boundary chunk.
const TAIL: u64 = 5000;
/// The dense alphabet: items `DENSE..DENSE + ALPHABET` appear in every
/// chunk, after the sparse items in the walk's order.
const DENSE: u32 = 1000;
const ALPHABET: u32 = 9;

struct Cleanup(PathBuf);
impl Drop for Cleanup {
    fn drop(&mut self) {
        DiskDeployment::remove_files(&self.0).ok();
    }
}

fn hasher() -> Arc<dyn ItemHasher> {
    Arc::new(Md5BloomHasher::new(3))
}

/// The first two items that own a slice no dense item touches, so their
/// AND-results are as sparse as their rows.
fn sparse_items() -> [u32; 2] {
    let h = hasher();
    let dense: Vec<usize> = (DENSE..DENSE + ALPHABET)
        .flat_map(|j| h.positions_vec(u64::from(j), WIDTH))
        .collect();
    let mut own = (0..DENSE).filter(|&cand| {
        h.positions_vec(u64::from(cand), WIDTH)
            .iter()
            .any(|p| !dense.contains(p))
    });
    [own.next(), own.next()].map(|item| item.expect("some item owns a slice"))
}

/// `2·CHUNK + TAIL` rows: item `j` of the dense alphabet on the rows a
/// cheap generator picks with probability `1/(2 + j % 4)`, the first
/// sparse item on every 700th row (a few words of every chunk), the
/// second on every third row of the boundary chunk only (empty before it).
fn transactions() -> Vec<Transaction> {
    let [scattered, boundary] = sparse_items();
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    (0..2 * CHUNK + TAIL)
        .map(|i| {
            let mut items = Vec::new();
            for j in 0..ALPHABET {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                if (state >> 33).is_multiple_of(u64::from(2 + j % 4)) {
                    items.push(DENSE + j);
                }
            }
            if i.is_multiple_of(700) {
                items.push(scattered);
            }
            if i >= 2 * CHUNK && i.is_multiple_of(3) {
                items.push(boundary);
            }
            Transaction::new(i, Itemset::from_values(&items))
        })
        .collect()
}

/// One call the walk made and what the source answered.
type Call = (Vec<ItemId>, Vec<ItemId>, u64, Vec<u64>);

/// A source that writes down every call and its answer.
struct Recorded<C> {
    cursor: C,
    calls: Vec<Call>,
}

impl<C: CountSource> CountSource for Recorded<C> {
    fn count_itemset(&mut self, itemset: &Itemset, tau: u64) -> io::Result<u64> {
        let got = self.cursor.count_itemset(itemset, tau)?;
        self.calls
            .push((itemset.items().to_vec(), Vec::new(), tau, vec![got]));
        Ok(got)
    }

    fn count_extensions(
        &mut self,
        prefix: &Itemset,
        extensions: &[ItemId],
        tau: u64,
    ) -> io::Result<Vec<u64>> {
        let got = self.cursor.count_extensions(prefix, extensions, tau)?;
        let call = (
            prefix.items().to_vec(),
            extensions.to_vec(),
            tau,
            got.clone(),
        );
        self.calls.push(call);
        Ok(got)
    }
}

#[test]
fn a_memory_cursor_walks_exactly_as_the_disk_cursor() {
    let base = std::env::temp_dir().join(format!("bbs_one_cursor_{}", std::process::id()));
    let _g = Cleanup(base.clone());
    let txns = transactions();
    let db = TransactionDb::from_transactions(txns.iter().cloned());
    let bbs = Bbs::build(WIDTH, hasher(), &db, &mut IoStats::new());
    let mut dep = DiskDeployment::open(&base, WIDTH, hasher(), 512).expect("open");
    for txn in &txns {
        dep.append(txn).expect("append");
    }
    dep.flush().expect("flush");
    assert_eq!(dep.deleted_rows(), 0);

    for scheme in Scheme::ALL {
        for (tau, threads) in [(40, 1), (40, 2), (3000, 1)] {
            let what = format!("{scheme:?} τ={tau} x{threads}");
            // Neither cursor probes: the disk reader cannot, so the memory
            // one is built without the rows' database.
            let memory = || {
                Ok(Recorded {
                    cursor: Cursor::resident(&bbs, None),
                    calls: Vec::new(),
                })
            };
            let disk = || {
                Ok(Recorded {
                    cursor: dep.index.counter()?,
                    calls: Vec::new(),
                })
            };
            let kind = scheme.filter();
            let (mem_out, mem_src) =
                run_filter_source_threaded(memory, bbs.item_counts(), kind, tau, threads)
                    .expect("memory walk");
            let (disk_out, disk_src) =
                run_filter_source_threaded(disk, dep.index.item_counts(), kind, tau, threads)
                    .expect("disk walk");
            assert!(
                mem_out.stats.candidates > 20,
                "{what}: the walk is not trivial"
            );
            assert_eq!(mem_src.len(), disk_src.len(), "{what}");
            assert_eq!(mem_out.stats, disk_out.stats, "{what}");
            assert_eq!(mem_out.uncertain, disk_out.uncertain, "{what}");
            let mut total = CursorStats::default();
            for (m, d) in mem_src.iter().zip(&disk_src) {
                assert_eq!(m.calls, d.calls, "{what}: every node, every answer");
                let stats = m.cursor.stats();
                assert_eq!(stats, d.cursor.cursor_stats(), "{what}");
                total.extends += stats.extends;
                total.tau_exits += stats.tau_exits;
                total.chunks_skipped += stats.chunks_skipped;
                total.sparse_ands += stats.sparse_ands;
            }
            if tau == 40 {
                assert!(
                    total.extends > 0
                        && total.tau_exits > 0
                        && total.chunks_skipped > 0
                        && total.sparse_ands > 0,
                    "{what}: every path of the walk was taken: {total:?}"
                );
            }
        }
    }
}
