//! The frame table: one row per live opcode, the one place its number and
//! field layout are written (DESIGN.md §7, "The frame table").  A row names
//! the opcode, its stats endpoint, its [`Request`] and [`Reply`] variants
//! (field order is wire order: every field goes through `proto`'s `Field`
//! codec) and, where a client call only sends the request and unpacks the
//! reply, the struct it returns and its [`Client`] method, `retry` marking
//! those [`RetryClient`] re-sends as they are.  `frames!` below and
//! `metrics` both read the rows, so an opcode joins the wire types, the
//! client and the stats document together or not at all.

use crate::client::{Client, ClientResult, RetryClient};
use crate::proto::{bad, Field, LogEntry, Reader};
use bbs_core::Scheme;
use bbs_tdb::SupportThreshold;
use std::io;

/// The rows, in the order the stats document lists their endpoints.  A
/// `Vec<u32>` field is an itemset: the one sequence counted by a `u16`
/// rather than a `u32` (`Field::ITEM`, true for `u32` alone, is that rule).
macro_rules! frame_table {
    ($then:ident) => {
        $then! {
            PING = 0, endpoint ping {
                /// Liveness check; answered with [`Reply::Pong`].
                request Ping;
                reply Pong;
                client fn ping(), retry;
            }

            INSERT = 2, endpoint insert {
                /// Append transactions `(tid, items)` through the group-commit queue.
                request Insert {
                    /// Client-supplied request ID for exactly-once ingest: a retry
                    /// carrying the ID of a batch that already committed is answered
                    /// with the original receipt instead of re-appending.  0 opts out
                    /// of deduplication.
                    req_id: u64,
                    /// The transactions to append, in order.
                    txns: Vec<(u64, Vec<u32>)>,
                };
                reply Insert {
                    /// First row the batch occupies.
                    first_row: u64,
                    /// Number of rows appended.
                    appended: u64,
                    /// Epoch whose snapshot first shows the batch.
                    epoch: u64,
                    /// True when this receipt was answered from the exactly-once
                    /// dedup window (the batch had already committed; nothing was
                    /// appended by *this* request).
                    deduped: bool,
                };
                struct InsertReply: Copy;
                client fn insert_with_id(req_id: u64, txns: &[(u64, Vec<u32>)]);
            }

            MINE = 3, endpoint mine {
                /// Mine every frequent pattern of the latest snapshot.
                request Mine {
                    /// Filter/refine scheme to run.
                    scheme: Scheme,
                    /// Minimum support.
                    threshold: SupportThreshold,
                    /// Worker threads for the filter phase (0 = server default).
                    threads: u16,
                };
                reply Mine {
                    /// Epoch of the mined snapshot.
                    epoch: u64,
                    /// Live rows the mine covered — the base its threshold resolved
                    /// against — the same on every tier for the same rows.
                    rows: u64,
                    /// `(items, support, approximate)` per frequent pattern.
                    patterns: Vec<(Vec<u32>, u64, bool)>,
                };
                struct MineReply;
                client fn mine(scheme: Scheme, threshold: SupportThreshold, threads: u16), retry;
            }

            PROBE = 4, endpoint probe {
                /// Fetch the transaction stored at `row`.
                request Probe {
                    /// Row position (0-based append order).
                    row: u64,
                };
                reply Probe {
                    /// The `(tid, items)` at the requested row, or `None` past the end.
                    txn: Option<(u64, Vec<u32>)>,
                };
                client fn probe(row: u64), retry;
            }

            STATS = 5, endpoint stats {
                /// Server metrics snapshot.
                request Stats;
                reply Stats {
                    /// The metrics document.
                    json: String,
                };
                client fn stats();
            }

            SHUTDOWN = 6 {
                /// Drain queued ingest, then stop serving.
                request Shutdown;
                /// The server is draining.
                reply ShuttingDown;
                client fn shutdown_server();
            }

            REPLICATE = 7, endpoint replicate {
                /// Pull committed replication-log entries starting at `from_row`.
                /// The row doubles as the follower's cumulative ACK: everything below
                /// it is applied and durable on the follower, so the primary can
                /// compute replication lag from the last pull it served.
                request Replicate {
                    /// First row the follower is missing (its committed row count).
                    from_row: u64,
                    /// Delete-entry cursor: how many committed delete entries the
                    /// follower has already applied.  Row and delete cursors advance
                    /// independently (deletes occupy no rows), so catching up takes
                    /// both — the server sends every entry past *either* cursor, in
                    /// log order.
                    from_dseq: u64,
                    /// Upper bound on entries per reply (the server applies its own
                    /// byte budget too, keeping replies well under
                    /// [`MAX_FRAME`](crate::proto::MAX_FRAME)).
                    max_entries: u32,
                };
                /// A run of committed log entries starting exactly at the requested
                /// row (empty = caught up).
                reply LogEntries {
                    /// Committed rows on the serving node when the pull was answered
                    /// (what the follower measures its lag against).
                    rows: u64,
                    /// Entries in log order: `(first_row, txns, receipts, deletes)`,
                    /// receipts as `(req_id, offset, len)` relative to the entry's
                    /// batch (for delete entries, `(req_id, 0, deleted_count)`).
                    entries: Vec<LogEntry>,
                };
                struct ReplicateReply;
                client fn replicate(from_row: u64, from_dseq: u64, max_entries: u32);
            }

            PROMOTE = 8, endpoint promote {
                /// Flip this follower to primary (idempotent on a primary).
                request Promote;
                /// This node now accepts writes.
                reply Promoted {
                    /// Epoch at promotion.
                    epoch: u64,
                    /// Committed rows at promotion.
                    rows: u64,
                };
                struct PromoteReply: Copy;
                client fn promote(), retry;
            }

            COUNT_MANY = 9, endpoint count_many {
                /// Exact support queries for many itemsets, answered from **one**
                /// snapshot (the latest) by one walk of the batch's prefix trie.  A
                /// single count is a batch of one.  Admission control charges the
                /// whole batch by its total item count, not as one request.
                request CountMany {
                    /// The query itemsets (item values each, unsorted is fine).
                    itemsets: Vec<Vec<u32>>,
                };
                /// One support per query itemset, in request order, all from the same
                /// snapshot.
                reply CountMany {
                    /// BBS support estimates, one per itemset (exact for singletons;
                    /// an upper bound with false positives possible for larger sets).
                    supports: Vec<u64>,
                    /// Epoch of the snapshot that answered every query.
                    epoch: u64,
                    /// Rows visible to that snapshot.
                    rows: u64,
                };
                struct CountManyReply;
            }

            DELETE = 13, endpoint delete {
                /// Tombstone-delete every live transaction holding one of `tids`.
                /// Routed and deduplicated exactly like [`Request::Insert`]: a retry
                /// carrying the ID of a delete that already committed is answered
                /// with the original receipt instead of re-resolving.
                request Delete {
                    /// Client-supplied request ID for exactly-once deletes (0 opts
                    /// out of deduplication).
                    req_id: u64,
                    /// TIDs whose live rows should be tombstoned.
                    tids: Vec<u64>,
                };
                reply Delete {
                    /// Live rows tombstoned by this request (0 when every named TID
                    /// was absent or already deleted).
                    deleted: u64,
                    /// Epoch whose snapshot first masks the deleted rows.
                    epoch: u64,
                    /// True when this receipt was answered from the exactly-once
                    /// dedup window (the delete had already committed).
                    deduped: bool,
                };
                struct DeleteReply: Copy;
                client fn delete_with_id(req_id: u64, tids: &[u64]);
            }

            MAINTAIN = 14, endpoint maintain {
                /// Index maintenance (see
                /// [`maintain_action`](crate::proto::maintain_action)): probe the
                /// measured FPR, compact tombstones away, fold the width in half, or
                /// let the server's policy decide (`AUTO`).
                request Maintain {
                    /// One of the [`maintain_action`](crate::proto::maintain_action)
                    /// values.
                    action: u8,
                    /// Action argument: FPR probe sample count (0 = default) for
                    /// `PROBE_FPR`/`AUTO`, target width for `COMPACT` (0 = keep).
                    arg: u64,
                };
                reply Maintain {
                    /// The [`maintain_action`](crate::proto::maintain_action) actually
                    /// performed (`AUTO` resolves to what the policy chose;
                    /// `PROBE_FPR` when it chose nothing).
                    action_taken: u8,
                    /// Slice width after the action.
                    width: u32,
                    /// Live rows after the action.
                    live_rows: u64,
                    /// Tombstoned rows remaining after the action.
                    deleted_rows: u64,
                    /// Measured false-positive rate (f64 bits; measured before any
                    /// fold/compact the action performed).
                    fpr_bits: u64,
                };
            }

            COUNT_MANY_AT = 11, endpoint count_many_at {
                /// Exact support queries for many itemsets against one pinned
                /// snapshot.  `epoch = None` answers from the latest snapshot and
                /// pins it in the server's bounded pin table, so later
                /// `COUNT_MANY_AT` / [`Request::Rows`] requests can name it; with no
                /// itemsets as well, the frame is just the pin.  An epoch that is no
                /// longer pinned answers with a typed `stale pin` error — the caller
                /// re-pins and retries.
                request CountManyAt {
                    /// The pinned epoch to answer from; `None` = the latest snapshot.
                    epoch: Option<u64>,
                    /// The query itemsets (item values each, unsorted is fine).
                    itemsets: Vec<Vec<u32>>,
                };
                /// One support per query itemset, in request order, all from one
                /// pinned epoch, plus the identity facts a coordinator checks against its topology before
                /// trusting cross-shard sums (same width + hasher ⇒ identical
                /// per-row signatures ⇒ per-shard sums are the unsharded estimates).
                reply CountsAt {
                    /// The pinned epoch that answered (the latest one when the request
                    /// named none).
                    epoch: u64,
                    /// Rows visible to that snapshot.
                    rows: u64,
                    /// Signature width (bits) of the serving deployment.
                    width: u32,
                    /// Identity of the item hasher (e.g. `md5/4`).
                    hasher: String,
                    /// Per-itemset supports (as in [`Reply::CountMany`]).
                    supports: Vec<u64>,
                };
                struct CountsAtReply;
            }

            // Not `rows`: that key of the stats document is the committed row count.
            ROWS = 12, endpoint rows_pull {
                /// Stream the live `(tid, items)` rows of a pinned snapshot from row
                /// `from` on — the bulk transfer a coordinator uses to rebuild a
                /// shard's transactions for distributed mining.  Tombstoned rows are
                /// examined and skipped; [`Reply::Rows`]'s `next` says where the
                /// following request resumes.
                request Rows {
                    /// The pinned epoch to read from.
                    epoch: u64,
                    /// First row to examine (0-based append order).
                    from: u64,
                    /// Upper bound on rows examined per reply (the server applies its
                    /// own row and byte budgets too, keeping replies under
                    /// [`MAX_FRAME`](crate::proto::MAX_FRAME)).
                    limit: u32,
                };
                /// The live transactions among the rows examined, `from..next`.
                reply Rows {
                    /// Total rows visible to the pinned snapshot, tombstoned ones
                    /// included (the stream is complete once `next == total`).
                    total: u64,
                    /// The row after the last one examined: where the next request
                    /// resumes.
                    next: u64,
                    /// The live `(tid, items)` rows, in append order.
                    txns: Vec<(u64, Vec<u32>)>,
                };
                struct RowsReply;
                client fn rows(epoch: u64, from: u64, limit: u32), retry;
            }
        }
    };
}
pub(crate) use frame_table;

/// The consumer that turns the rows into the wire types and client calls.
/// `@codec` writes one enum's codec.  `@client` and `@method` write one
/// row's client side: its reply struct, if it names one, and its [`Client`]
/// method, which returns that struct, or nothing when the reply has no
/// fields, or the reply's one field.
macro_rules! frames {
    (@client $req:tt $rep:tt $fields:tt [] []) => {};
    (@client $req:tt [$Rep:ident] [$($(#[$doc:meta])* $f:ident: $t:ty),*]
        [$S:ident $($derive:ident)?] $method:tt) => {
        #[doc = concat!("The fields of an ok [`Reply::", stringify!($Rep),
            "`], as a client call returns them.")]
        #[derive(Debug, Clone, PartialEq, Eq $(, $derive)?)]
        pub struct $S {
            $($(#[$doc])* pub $f: $t,)*
        }
        frames!(@method $req [$Rep] [$($f),*] $S [$S { $($f),* }] $method);
    };
    (@client $req:tt $rep:tt [] [] $method:tt) => {
        frames!(@method $req $rep [] () [()] $method);
    };
    (@client $req:tt $rep:tt [$(#[$doc:meta])* $f:ident: $t:ty] [] $method:tt) => {
        frames!(@method $req $rep [$f] $t [$f] $method);
    };
    (@method $req:tt $rep:tt $fields:tt $ret:ty [$value:expr] []) => {};
    (@method $req:tt $rep:tt $fields:tt $ret:ty [$value:expr]
        [$m:ident($($p:ident: $pt:ty),*) retry]) => {
        frames!(@method $req $rep $fields $ret [$value] [$m($($p: $pt),*)]);
        impl RetryClient {
            #[doc = concat!("[`Client::", stringify!($m), "`] with retries.")]
            pub fn $m(&mut self, $($p: $pt),*) -> ClientResult<$ret> {
                self.retry(|c| c.$m($($p),*))
            }
        }
    };
    (@method [$Req:ident] [$Rep:ident] [$($f:ident),*] $ret:ty [$value:expr]
        [$m:ident($($p:ident: $pt:ty),*)]) => {
        impl Client {
            #[doc = concat!("Sends [`Request::", stringify!($Req), "`] and unpacks its [`Reply::",
                stringify!($Rep), "`].")]
            pub fn $m(&mut self, $($p: $pt),*) -> ClientResult<$ret> {
                match self.request(&Request::$Req { $($p: $p.to_owned()),* })? {
                    Reply::$Rep { $($f),* } => Ok($value),
                    other => Client::mismatch(other),
                }
            }
        }
    };
    (@codec $Enum:ident $unknown:literal $($OP:ident $Variant:ident [$($f:ident),*])*) => {
        /// The opcode byte, then the fields in table order.
        impl Field for $Enum {
            fn put(&self, out: &mut Vec<u8>) {
                match self {
                    $($Enum::$Variant { $($f),* } => {
                        op::$OP.put(out);
                        $($f.put(out);)*
                    })*
                }
            }

            fn get(r: &mut Reader<'_>) -> io::Result<Self> {
                Ok(match u8::get(r)? {
                    $(op::$OP => $Enum::$Variant { $($f: Field::get(r)?),* },)*
                    k => return Err(bad(format!(concat!($unknown, " {}"), k))),
                })
            }
        }
    };
    ($(
        $OP:ident = $code:literal $(, endpoint $slot:ident)? {
            $(#[$req_doc:meta])*
            request $Req:ident $({ $($(#[$rf_doc:meta])* $rf:ident: $rft:ty),* $(,)? })?;
            $(#[$rep_doc:meta])*
            reply $Rep:ident $({ $($(#[$pf_doc:meta])* $pf:ident: $pft:ty),* $(,)? })?;
            $(struct $S:ident $(: $derive:ident)?;)?
            $(client fn $m:ident($($p:ident: $pt:ty),*) $(, $retry:ident)?;)?
        }
    )*) => {
        /// Opcode values (request byte 0; echoed in ok responses).  1 and 10
        /// are retired (see [`crate::proto`]) and are never reused.
        pub mod op {
            $(#[doc = concat!("Opcode of [`Request::", stringify!($Req), "`](super::Request::",
                stringify!($Req), ").")]
            pub const $OP: u8 = $code;)*
        }

        /// Every row: its opcode and its stats endpoint, if it has one.
        #[cfg(test)]
        pub(crate) const ROWS: &[(u8, &[&str])] = &[$((op::$OP, &[$(stringify!($slot))?])),*];

        /// A decoded client request.
        #[derive(Debug, Clone, PartialEq)]
        pub enum Request {
            $($(#[$req_doc])* $Req $({ $($(#[$rf_doc])* $rf: $rft,)* })?,)*
        }

        /// The body of an ok response (tagged with the opcode it answers).
        #[derive(Debug, Clone, PartialEq)]
        pub enum Reply {
            $(#[doc = concat!("Answer to [`Request::", stringify!($Req), "`].")]
            $(#[$rep_doc])* $Rep $({ $($(#[$pf_doc])* $pf: $pft,)* })?,)*
        }

        impl Request {
            /// The opcode this request carries (used for per-endpoint metrics).
            pub fn opcode(&self) -> u8 {
                match self {
                    $(Request::$Req { .. } => op::$OP,)*
                }
            }
        }

        frames!(@codec Request "unknown opcode" $($OP $Req [$($($rf),*)?])*);
        frames!(@codec Reply "unknown reply opcode" $($OP $Rep [$($($pf),*)?])*);

        $(frames!(@client [$Req] [$Rep] [$($($(#[$pf_doc])* $pf: $pft),*)?]
            [$($S $($derive)?)?] [$($m($($p: $pt),*) $($retry)?)?]);)*
    };
}

frame_table!(frames);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServerMetrics;

    /// Every opcode appears once, the retired ones not at all, every row
    /// but SHUTDOWN has one stats endpoint, and the metrics hold a slot for
    /// exactly those rows, each its own and named once in the stats
    /// document: a frame cannot join the wire and miss its counters.
    #[test]
    fn the_table_is_closed() {
        let mut ops: Vec<u8> = ROWS.iter().map(|(op, _)| *op).collect();
        ops.sort_unstable();
        ops.dedup();
        assert_eq!(ops.len(), ROWS.len(), "an opcode appears twice");
        assert!(
            !ops.contains(&1) && !ops.contains(&10),
            "a retired opcode is back"
        );

        let metrics = ServerMetrics::new();
        let json = metrics.to_json(&[]);
        let mut slots = Vec::new();
        for (code, endpoints) in ROWS {
            let counted = *code != op::SHUTDOWN;
            assert_eq!(endpoints.len(), usize::from(counted), "opcode {code}");
            let slot = metrics.endpoint(*code);
            assert_eq!(slot.is_some(), counted, "opcode {code}");
            if let (Some(slot), [name]) = (slot, endpoints) {
                assert!(
                    !slots.iter().any(|s| std::ptr::eq(*s, slot)),
                    "{name} shares a slot"
                );
                slots.push(slot);
                assert_eq!(json.matches(&format!("\"{name}\":{{")).count(), 1, "{name}");
            }
        }
        for unknown in (0..=u8::MAX).filter(|op| !ops.contains(op)) {
            assert!(metrics.endpoint(unknown).is_none(), "opcode {unknown}");
        }
    }
}
