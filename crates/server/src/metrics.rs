//! Server observability: lock-free per-endpoint counters and log2-bucketed
//! histograms, rendered as the JSON document the `stats` endpoint serves.
//!
//! Everything here is plain atomics — recording a sample on the request
//! path is a handful of relaxed fetch-adds, cheap enough to leave on
//! unconditionally.  Histograms bucket by powers of two (bucket *i* holds
//! values in `[2^(i-1), 2^i)`), which gives ~2× resolution over nine
//! orders of magnitude in 64 slots: plenty for microsecond latencies and
//! batch sizes alike.

use bbs_storage::DiskCounter;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

const BUCKETS: usize = 64;

/// Microseconds elapsed since `start`, as a histogram sample.
pub(crate) fn micros_since(start: Instant) -> u64 {
    start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64
}

/// A log2-bucketed histogram of `u64` samples (latencies in µs, batch
/// sizes, queue depths — anything positive and heavy-tailed).
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

fn bucket_of(value: u64) -> usize {
    // 0 → bucket 0; otherwise 1 + floor(log2(value)), capped at the top.
    if value == 0 {
        0
    } else {
        ((64 - value.leading_zeros()) as usize).min(BUCKETS - 1)
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one sample.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest sample seen (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Mean sample, or 0 when empty.
    pub fn mean(&self) -> u64 {
        self.sum().checked_div(self.count()).unwrap_or(0)
    }

    /// Approximate quantile `q` in `[0, 1]`: the upper bound of the bucket
    /// containing the `q`-th sample (so p99 reads as "99% of samples were
    /// at most this").  Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                // Upper bound of bucket i is 2^i - 1 (bucket 0 is just {0}).
                return if i == 0 { 0 } else { (1u64 << i) - 1 };
            }
        }
        self.max()
    }

    /// Adds every sample `other` recorded.
    fn absorb(&self, other: &Histogram) {
        for (bucket, theirs) in self.buckets.iter().zip(&other.buckets) {
            bucket.fetch_add(theirs.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        self.count.fetch_add(other.count(), Ordering::Relaxed);
        self.sum.fetch_add(other.sum(), Ordering::Relaxed);
        self.max.fetch_max(other.max(), Ordering::Relaxed);
    }

    /// Renders the summary (count/mean/p50/p99/max) as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"count\":{},\"mean\":{},\"p50\":{},\"p99\":{},\"max\":{}}}",
            self.count(),
            self.mean(),
            self.quantile(0.50),
            self.quantile(0.99),
            self.max()
        )
    }
}

/// Counters for one wire endpoint.
#[derive(Default)]
pub struct Endpoint {
    /// Requests that reached the handler.
    pub requests: AtomicU64,
    /// Requests that returned an error response.
    pub errors: AtomicU64,
    /// Handler latency in microseconds (an insert's includes its queue
    /// wait and group commit; a `count_many`'s covers the whole batch).
    pub latency_us: Histogram,
}

impl Endpoint {
    fn to_json(&self) -> String {
        format!(
            "{{\"requests\":{},\"errors\":{},\"latency_us\":{}}}",
            self.requests.load(Ordering::Relaxed),
            self.errors.load(Ordering::Relaxed),
            self.latency_us.to_json()
        )
    }
}

/// What the disk cursors of served MINE requests did, summed over every
/// reader of every request — the `"mine_cursor"` object of the stats
/// document.
#[derive(Default)]
pub struct MineCursorMetrics {
    /// AND-results materialised (one per item a cursor descended by).
    pub extends: AtomicU64,
    /// Counts answered before their last slice with a bound below τ.
    pub tau_exits: AtomicU64,
    /// Chunks never read because the parent had no ones in them.
    pub chunks_skipped: AtomicU64,
    /// Page ANDs that touched only the parent's nonzero words.
    pub sparse_ands: AtomicU64,
    /// Page-cache hits of the readers' private caches.
    pub cache_hits: AtomicU64,
    /// Page-cache misses of the readers' private caches.
    pub cache_misses: AtomicU64,
}

impl MineCursorMetrics {
    /// Adds what one reader did, now that its run is over.
    pub fn record(&self, reader: &DiskCounter) {
        let (cursor, cache) = (reader.cursor_stats(), reader.cache_stats());
        for (counter, n) in [
            (&self.extends, cursor.extends),
            (&self.tau_exits, cursor.tau_exits),
            (&self.chunks_skipped, cursor.chunks_skipped),
            (&self.sparse_ands, cursor.sparse_ands),
            (&self.cache_hits, cache.hits),
            (&self.cache_misses, cache.misses),
        ] {
            counter.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Renders the counters as a JSON object.
    pub fn to_json(&self) -> String {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        format!(
            "{{\"extends\":{},\"tau_exits\":{},\"chunks_skipped\":{},\"sparse_ands\":{},\
             \"cache_hits\":{},\"cache_misses\":{}}}",
            get(&self.extends),
            get(&self.tau_exits),
            get(&self.chunks_skipped),
            get(&self.sparse_ands),
            get(&self.cache_hits),
            get(&self.cache_misses)
        )
    }
}

/// Declares [`ServerMetrics`] around the endpoint slots the frame table
/// (`frames.rs`) names: one [`Endpoint`] per row that has one, in table
/// order, the field named as the stats document names the endpoint.
macro_rules! server_metrics {
    ($($op:ident = $code:literal $(, endpoint $slot:ident)? {
        $($row:tt)*
    })*) => {
        /// All server metrics, shared between connection handlers, the committer
        /// thread, and the `stats` endpoint.
        #[derive(Default)]
        pub struct ServerMetrics {
            $($(
                #[doc = concat!("Counters of the `", stringify!($slot), "` endpoint.")]
                pub $slot: Endpoint,
            )?)*
            /// What the cursors of the MINE requests this engine served did.
            pub mine_cursor: MineCursorMetrics,
            /// Itemsets per `count_many` batch.
            pub count_many_batch: Histogram,
            /// Requests rejected by admission control.
            pub overloaded: AtomicU64,
            /// Inserts answered from the exactly-once window instead of appending
            /// (each one is a detected client retry).
            pub dedup_hits: AtomicU64,
            /// Group commits rejected because the disk was out of space.
            pub disk_full: AtomicU64,
            /// Frames that failed to parse (torn, truncated, or corrupted).
            pub frame_errors: AtomicU64,
            /// Connections accepted over the server's lifetime.
            pub connections: AtomicU64,
            /// Current depth of the ingest queue (gauge).
            pub queue_depth: AtomicU64,
            /// Transactions per group commit.
            pub batch_size: Histogram,
            /// Group-commit latency in microseconds (append + flush + publish).
            pub commit_us: Histogram,
            /// Writes rejected on a follower with the typed `NotPrimary` status.
            pub not_primary: AtomicU64,
            /// Role transitions follower → primary (manual or automatic).
            pub promotions: AtomicU64,
            /// Rows the primary has committed beyond what this follower has
            /// applied, sampled after each replication poll (gauge; 0 on a
            /// primary).
            pub replication_lag_rows: AtomicU64,
            /// Batches a follower applied through its commit path.
            pub follower_applied_batches: AtomicU64,
            /// Latency of one follower apply (commit of one pulled batch), µs.
            pub follower_apply_us: Histogram,
            /// Rows applied per replication poll round-trip.
            pub follower_pull_rows: Histogram,
            /// Wipe-resyncs this follower performed after the primary's log could
            /// no longer serve its cursor (e.g. the primary compacted).
            pub follower_resyncs: AtomicU64,
            /// Pins dropped from the snapshot pin table — LRU overflow plus
            /// invalidation after a compaction/fold swapped the files out from
            /// under them.
            pub pin_evictions: AtomicU64,
            /// Requests that named a pinned epoch no longer in the table (the
            /// caller re-pins and retries).
            pub stale_pins: AtomicU64,
            /// Maintenance policy evaluations (manual `AUTO` requests plus the
            /// background thread's ticks).
            pub maintenance_runs: AtomicU64,
            /// Compactions performed by maintenance (policy or explicit).
            pub maintenance_compactions: AtomicU64,
            /// Folds performed by maintenance (policy or explicit).
            pub maintenance_folds: AtomicU64,
            /// The most recent measured false-positive rate, stored as `f64`
            /// bits (gauge; 0.0 until the first probe).
            pub last_measured_fpr_bits: AtomicU64,
        }

        impl ServerMetrics {
            /// Every endpoint slot: its opcode, its name in the stats
            /// document and its counters, in table order.
            fn endpoints(&self) -> impl Iterator<Item = (u8, &'static str, &Endpoint)> {
                [$($((crate::proto::op::$op, stringify!($slot), &self.$slot),)?)*].into_iter()
            }
        }
    };
}
crate::frames::frame_table!(server_metrics);

impl ServerMetrics {
    /// Creates zeroed metrics.
    pub fn new() -> Self {
        ServerMetrics::default()
    }

    /// The endpoint slot for `opcode`, if it is a tracked endpoint.
    pub fn endpoint(&self, opcode: u8) -> Option<&Endpoint> {
        self.endpoints()
            .find(|(op, ..)| *op == opcode)
            .map(|(.., ep)| ep)
    }

    /// Renders the metrics (plus caller-supplied server fields) as JSON.
    ///
    /// `extra` is a list of already-rendered `"key":value` fragments the
    /// server contributes (epoch, rows, shard table, storage counters).
    pub fn to_json(&self, extra: &[String]) -> String {
        self.to_json_with(&[self], extra)
    }

    /// [`ServerMetrics::to_json`] with the write-side counters — the ones
    /// only a node's committer, writer and maintenance record — summed
    /// over `nodes`: a router passes its nodes' metrics.
    pub(crate) fn to_json_with(&self, nodes: &[&ServerMetrics], extra: &[String]) -> String {
        let mut fields: Vec<String> = self
            .endpoints()
            .map(|(_, name, ep)| format!("\"{name}\":{}", ep.to_json()))
            .collect();
        let counter = |name: &str, c: &AtomicU64| format!("\"{name}\":{}", c.load(Ordering::Relaxed));
        let hist = |name: &str, h: &Histogram| format!("\"{name}\":{}", h.to_json());
        let writes = |name: &str, pick: fn(&ServerMetrics) -> &AtomicU64| {
            let sum: u64 = nodes.iter().map(|m| pick(m).load(Ordering::Relaxed)).sum();
            format!("\"{name}\":{sum}")
        };
        let merged = |name: &str, pick: fn(&ServerMetrics) -> &Histogram| {
            let sum = Histogram::new();
            nodes.iter().for_each(|m| sum.absorb(pick(m)));
            hist(name, &sum)
        };
        fields.extend([
            hist("count_many_batch", &self.count_many_batch),
            counter("overloaded", &self.overloaded),
            writes("dedup_hits", |m| &m.dedup_hits),
            writes("disk_full", |m| &m.disk_full),
            counter("frame_errors", &self.frame_errors),
            counter("connections", &self.connections),
            writes("queue_depth", |m| &m.queue_depth),
            merged("batch_size", |m| &m.batch_size),
            merged("commit_us", |m| &m.commit_us),
            writes("not_primary", |m| &m.not_primary),
            counter("promotions", &self.promotions),
            counter("replication_lag_rows", &self.replication_lag_rows),
            counter("follower_applied_batches", &self.follower_applied_batches),
            hist("follower_apply_us", &self.follower_apply_us),
            hist("follower_pull_rows", &self.follower_pull_rows),
            counter("follower_resyncs", &self.follower_resyncs),
            writes("pin_evictions", |m| &m.pin_evictions),
            writes("stale_pins", |m| &m.stale_pins),
            writes("maintenance_runs", |m| &m.maintenance_runs),
            writes("maintenance_compactions", |m| &m.maintenance_compactions),
            writes("maintenance_folds", |m| &m.maintenance_folds),
            format!(
                "\"last_measured_fpr\":{:.6}",
                f64::from_bits(self.last_measured_fpr_bits.load(Ordering::Relaxed))
            ),
        ]);
        fields.extend(extra.iter().cloned());
        format!("{{{}}}", fields.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn histogram_stats_are_sane() {
        let h = Histogram::new();
        assert_eq!((h.count(), h.mean(), h.quantile(0.99), h.max()), (0, 0, 0, 0));
        for v in [1u64, 2, 3, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1106);
        assert_eq!(h.mean(), 221);
        assert_eq!(h.max(), 1000);
        // p50 of {1,2,3,100,1000} lands in the bucket holding 3 → bound 3.
        assert_eq!(h.quantile(0.5), 3);
        // p99 lands in the bucket holding 1000 → bound 1023.
        assert_eq!(h.quantile(0.99), 1023);
        assert!(h.quantile(1.0) >= 1000);
    }

    #[test]
    fn json_rendering_is_well_formed() {
        let m = ServerMetrics::new();
        m.count_many.requests.fetch_add(2, Ordering::Relaxed);
        m.count_many.latency_us.record(17);
        let json = m.to_json(&[format!("\"epoch\":{}", 4)]);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"count_many\":{\"requests\":2"));
        assert!(json.contains("\"epoch\":4"));
        // Balanced braces (a cheap structural check without a parser).
        let open = json.matches('{').count();
        let close = json.matches('}').count();
        assert_eq!(open, close);
    }

    #[test]
    fn endpoint_lookup_covers_tracked_opcodes() {
        use crate::proto::op;
        let m = ServerMetrics::new();
        for opc in [
            op::PING,
            op::INSERT,
            op::MINE,
            op::PROBE,
            op::STATS,
            op::REPLICATE,
            op::PROMOTE,
            op::COUNT_MANY,
            op::DELETE,
            op::MAINTAIN,
            op::COUNT_MANY_AT,
            op::ROWS,
        ] {
            assert!(m.endpoint(opc).is_some());
        }
        assert!(m.endpoint(op::SHUTDOWN).is_none());
        // The retired COUNT and SNAPSHOT_PIN opcodes have no endpoint.
        for retired in [1, 10, 0xFF] {
            assert!(m.endpoint(retired).is_none());
        }
    }
}
