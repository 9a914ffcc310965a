//! Server observability: lock-free counters and log2-bucketed histograms,
//! and the stats registry that renders them, with what is computed at
//! read time, as the JSON document the `stats` endpoint serves.
//!
//! Everything recorded is plain atomics — recording a sample on the
//! request path is a handful of relaxed fetch-adds, cheap enough to leave
//! on unconditionally.  Histograms bucket by powers of two (bucket *i*
//! holds values in `[2^(i-1), 2^i)`), which gives ~2× resolution over nine
//! orders of magnitude in 64 slots: plenty for microsecond latencies and
//! batch sizes alike.
//!
//! Every key of the document is declared once, in document order, in the
//! table `server_metrics!` passes to `registry!`, with the rule that
//! gives a router over N nodes its value:
//!
//! * `own` — the front's own: the transport and endpoint counters, the
//!   scatter histograms, the drain flag.  Over one node the front records
//!   into that node's metrics, so a lone partition's configuration and
//!   writer state are its own too;
//! * `sum` — the sum over nodes: the write-side counters only a node's
//!   committer, writer and maintenance record, and the row totals;
//! * `worst` — the worst over nodes: the highest measured FPR (as
//!   [`crate::merge_receipts`] folds a MAINTAIN reply's) and the widest
//!   width;
//! * `column` — one cell per node, in shard order.
//!
//! A *recorded* key is a field of [`ServerMetrics`]; a *computed* one is
//! read off the front and its nodes when the document is rendered.  A key
//! whose source a kind of node lacks is left out of that server's
//! document, which is how each shape gets its key set.  Every value is
//! written through `Value`, the one JSON writer.

use crate::engine::{Engine, Role};
use crate::router::{Front, Gauge, Node};
use bbs_storage::snapshot::{Snapshot, WriterProfile};
use bbs_storage::{CacheStats, DiskCounter, PagerStats};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
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
}

/// A gauge of one `f64` (a measured false-positive rate), stored as its
/// bits; 0.0 until first set.
#[derive(Default)]
pub struct F64Gauge(AtomicU64);

impl F64Gauge {
    /// The current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    /// Replaces the value.
    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }
}

/// A value of the stats document: the one JSON writer every key is
/// rendered through.
pub(crate) trait Value {
    /// Appends the value's JSON to `out`.
    fn write(&self, out: &mut String);
}

/// Writes `{"key":value,…}` with the keys `body` puts, in call order.
fn object(out: &mut String, body: impl FnOnce(&mut Object)) {
    out.push('{');
    body(&mut Object { out, first: true });
    out.push('}');
}

/// An object being written by [`object`].
struct Object<'a> {
    out: &'a mut String,
    first: bool,
}

impl Object<'_> {
    /// Writes one `"key":value` member.
    fn put(&mut self, key: &str, value: &(impl Value + ?Sized)) {
        if !std::mem::take(&mut self.first) {
            self.out.push(',');
        }
        key.write(self.out);
        self.out.push(':');
        value.write(self.out);
    }
}

/// `s` as a JSON string literal: quoted, with `"`, `\` and every control
/// character escaped.  The one escaping rule of every document this
/// workspace writes by hand — the stats document and the topology file.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Implements [`Value`] for each type, `|v, out|` naming the value and
/// the output.
macro_rules! values {
    ($($ty:ty: |$v:ident, $out:ident| $write:expr;)*) => {$(
        impl Value for $ty {
            fn write(&self, $out: &mut String) {
                let $v = self;
                $write;
            }
        }
    )*};
}

values! {
    u32: |v, out| out.push_str(&v.to_string());
    u64: |v, out| out.push_str(&v.to_string());
    u128: |v, out| out.push_str(&v.to_string());
    usize: |v, out| out.push_str(&v.to_string());
    bool: |v, out| out.push_str(&v.to_string());
    // Six decimals, the precision an FPR is reported at.
    f64: |v, out| out.push_str(&format!("{v:.6}"));
    str: |v, out| out.push_str(&json_string(v));
    String: |v, out| v.as_str().write(out);
    AtomicU64: |v, out| v.load(Ordering::Relaxed).write(out);
    F64Gauge: |v, out| v.get().write(out);
    Histogram: |h, out| object(out, |o| {
        o.put("count", &h.count());
        o.put("mean", &h.mean());
        o.put("p50", &h.quantile(0.50));
        o.put("p99", &h.quantile(0.99));
        o.put("max", &h.max());
    });
    // The writer's page I/O: pages verified on read are a reader's figure.
    PagerStats: |p, out| object(out, |o| {
        o.put("reads", &p.reads);
        o.put("writes", &p.writes);
        o.put("checksum_reads", &p.checksum_reads);
        o.put("checksum_writes", &p.checksum_writes);
    });
    CacheStats: |c, out| object(out, |o| {
        o.put("hits", &c.hits);
        o.put("misses", &c.misses);
        o.put("evictions", &c.evictions);
    });
}

impl<T: Value + ?Sized> Value for &T {
    fn write(&self, out: &mut String) {
        (**self).write(out);
    }
}

/// A column: one cell per node.
impl<T: Value> Value for Vec<T> {
    fn write(&self, out: &mut String) {
        out.push('[');
        for (i, cell) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            cell.write(out);
        }
        out.push(']');
    }
}

/// Declares a group of recorded stats: a struct of counters or
/// histograms, rendered as an object of its fields in declaration order.
macro_rules! group {
    ($(#[$meta:meta])* $name:ident { $($(#[$doc:meta])* $field:ident: $ty:ty,)* }) => {
        $(#[$meta])*
        #[derive(Default)]
        pub struct $name {
            $($(#[$doc])* pub $field: $ty,)*
        }

        impl Value for $name {
            fn write(&self, out: &mut String) {
                object(out, |o| { $(o.put(stringify!($field), &self.$field);)* });
            }
        }
    };
}

group! {
    /// Counters for one wire endpoint.
    Endpoint {
        /// Requests that reached the handler.
        requests: AtomicU64,
        /// Requests that returned an error response.
        errors: AtomicU64,
        /// Handler latency in microseconds (an insert's includes its queue
        /// wait and group commit; a `count_many`'s covers the whole batch).
        latency_us: Histogram,
    }
}

group! {
    /// What the disk cursors of served MINE requests did, summed over every
    /// reader of every request: an engine's `mine_cursor`.
    MineCursorMetrics {
        /// AND-results materialised (one per item a cursor descended by).
        extends: AtomicU64,
        /// Counts answered before their last slice with a bound below τ.
        tau_exits: AtomicU64,
        /// Chunks never read because the parent had no ones in them.
        chunks_skipped: AtomicU64,
        /// Page ANDs that touched only the parent's nonzero words.
        sparse_ands: AtomicU64,
        /// Page-cache hits of the readers' private caches.
        cache_hits: AtomicU64,
        /// Page-cache misses of the readers' private caches.
        cache_misses: AtomicU64,
    }
}

group! {
    /// Scatter-gather latency (µs) per fan-out endpoint: the time from
    /// dispatching a request to every shard until the gathered answer is
    /// assembled — a router's `scatter_us`.
    ScatterMetrics {
        /// Insert fan-out: partition + N parallel group commits + merge.
        insert: Histogram,
        /// Single-count fan-out.
        count: Histogram,
        /// Batched-count fan-out (whole batch to every shard).
        count_many: Histogram,
        /// Mine fan-out: mining views + filter + cross-shard refinement.
        mine: Histogram,
        /// Probe routing (single-shard, but addressed globally).
        probe: Histogram,
        /// Delete fan-out: partition + N parallel tombstone commits + merge.
        delete: Histogram,
    }
}

group! {
    /// Per-shard fault counters, each a column of the stats document.  A
    /// local shard only ever bumps `scatter_errors` (there is no wire to
    /// time out on and no follower to fail over to); a remote one bumps
    /// all three.
    ShardFaults {
        /// Scatter legs that returned an error for this shard.
        scatter_errors: AtomicU64,
        /// Scatter legs that exhausted their per-request timeout waiting on
        /// this shard.
        timeouts: AtomicU64,
        /// Times this shard's handle was re-pointed at its replication
        /// follower after the primary went silent.
        failovers: AtomicU64,
    }
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
}

impl ShardFaults {
    /// Counts a failed read as a scatter error.
    pub(crate) fn noting<T>(&self, result: io::Result<T>) -> io::Result<T> {
        result.inspect_err(|_| {
            self.scatter_errors.fetch_add(1, Ordering::Relaxed);
        })
    }
}

/// A recorded value the `sum` rule adds up over nodes.
trait Summed: Value + Default {
    /// Adds every sample `other` recorded.
    fn absorb(&self, other: &Self);
}

impl Summed for AtomicU64 {
    fn absorb(&self, other: &Self) {
        self.fetch_add(other.load(Ordering::Relaxed), Ordering::Relaxed);
    }
}

impl Summed for Histogram {
    fn absorb(&self, other: &Self) {
        for (bucket, theirs) in self.buckets.iter().zip(&other.buckets) {
            bucket.fetch_add(theirs.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        self.count.fetch_add(other.count(), Ordering::Relaxed);
        self.sum.fetch_add(other.sum(), Ordering::Relaxed);
        self.max.fetch_max(other.max(), Ordering::Relaxed);
    }
}

/// The front's metrics and those of the nodes that keep any: what a
/// recorded key — a field of [`ServerMetrics`] — is read from, by its rule.
struct Recorded<'a> {
    front: &'a ServerMetrics,
    nodes: &'a [&'a ServerMetrics],
}

type Pick<T> = fn(&ServerMetrics) -> &T;

impl<'a> Recorded<'a> {
    fn own<T>(&self, pick: Pick<T>) -> &'a T {
        pick(self.front)
    }

    fn sum<T: Summed>(&self, pick: Pick<T>) -> T {
        let total = T::default();
        self.nodes.iter().for_each(|m| total.absorb(pick(m)));
        total
    }

    fn worst(&self, pick: Pick<F64Gauge>) -> f64 {
        self.nodes.iter().map(|m| pick(m).get()).fold(0.0, f64::max)
    }
}

/// What the per-node rules make of a computed key's cells, one per node.
mod cells {
    pub(super) fn sum<V: std::iter::Sum>(cells: Vec<V>) -> Option<V> {
        Some(cells.into_iter().sum())
    }

    pub(super) fn worst<V: Ord>(cells: Vec<V>) -> Option<V> {
        cells.into_iter().max()
    }

    pub(super) fn column<V>(cells: Vec<V>) -> Option<Vec<V>> {
        Some(cells)
    }
}

/// A computed key's value: `own` reads it off the [`Sources`], the other
/// rules off each [`NodeReading`].  `None` — the read found nothing, for
/// the front or for any node — leaves the key out.
macro_rules! computed {
    ($s:ident, own, $at:ident => $read:expr) => {
        $s.own(|$at| Some($read))
    };
    ($s:ident, $rule:ident, $at:ident => $read:expr) => {
        $s.cells(|$at| Some($read)).and_then(cells::$rule)
    };
}

/// Generates [`ServerMetrics`] from the recorded rows and the document
/// writers from every row, in order.  A row is `key: Type = rule;` when
/// recorded and `key = rule(x => value);` when computed, `x` naming the
/// [`Sources`] for `own` and each node's [`NodeReading`] otherwise.
macro_rules! registry {
    (
        recorded { $($(#[doc = $doc:expr])* $key:ident: $ty:ty = $rule:ident;)* }
        computed { $($(#[doc = $cdoc:expr])* $ckey:ident = $crule:ident($at:ident => $read:expr);)* }
    ) => {
        /// All server metrics, shared between connection handlers, the
        /// committer thread, and the `stats` endpoint.
        #[derive(Default)]
        pub struct ServerMetrics {
            $($(#[doc = $doc])* pub $key: $ty,)*
        }

        fn write_recorded(o: &mut Object, r: &Recorded) {
            $(o.put(stringify!($key), &r.$rule(|m| &m.$key));)*
        }

        fn write_computed(o: &mut Object, s: &Sources) {
            $(if let Some(value) = computed!(s, $crule, $at => $read) {
                o.put(stringify!($ckey), &value);
            })*
        }

        /// Every declared key, in document order.
        #[cfg(test)]
        const KEYS: &[&str] = &[$(stringify!($key),)* $(stringify!($ckey),)*];
    };
}

/// The stats registry, around the endpoint slots the frame table
/// (`frames.rs`) names: one [`Endpoint`] per row that has one, in table
/// order, the field named as the document names the endpoint.
macro_rules! server_metrics {
    ($($op:ident = $code:literal $(, endpoint $slot:ident)? {
        $($row:tt)*
    })*) => {
        registry! {
            recorded {
                $($(
                    #[doc = concat!("Counters of the `", stringify!($slot), "` endpoint.")]
                    $slot: Endpoint = own;
                )?)*
                /// Itemsets per `count_many` batch.
                count_many_batch: Histogram = own;
                /// Requests answered `Overloaded`, counted once, where the
                /// response is made for the client.
                overloaded: AtomicU64 = own;
                /// Inserts answered from the exactly-once window instead of
                /// appending (each one is a detected client retry).
                dedup_hits: AtomicU64 = sum;
                /// Group commits rejected because the disk was out of space.
                disk_full: AtomicU64 = sum;
                /// Frames that failed to parse (torn, truncated, or corrupted).
                frame_errors: AtomicU64 = own;
                /// Connections accepted over the server's lifetime.
                connections: AtomicU64 = own;
                /// Current depth of the ingest queue (gauge).
                queue_depth: AtomicU64 = sum;
                /// Transactions per group commit.
                batch_size: Histogram = sum;
                /// Group-commit latency in microseconds (append + flush + publish).
                commit_us: Histogram = sum;
                /// Writes rejected on a follower with the typed `NotPrimary` status.
                not_primary: AtomicU64 = sum;
                /// Role transitions follower → primary (manual or automatic).
                promotions: AtomicU64 = own;
                /// Rows the primary has committed beyond what this follower has
                /// applied, sampled after each replication poll (gauge; 0 on a
                /// primary).
                replication_lag_rows: AtomicU64 = own;
                /// Batches a follower applied through its commit path.
                follower_applied_batches: AtomicU64 = own;
                /// Latency of one follower apply (commit of one pulled batch), µs.
                follower_apply_us: Histogram = own;
                /// Rows applied per replication poll round-trip.
                follower_pull_rows: Histogram = own;
                /// Wipe-resyncs this follower performed after the primary's log
                /// could no longer serve its cursor (e.g. the primary compacted).
                follower_resyncs: AtomicU64 = own;
                /// Pins dropped from the snapshot pin table — LRU overflow plus
                /// invalidation after a compaction/fold swapped the files out
                /// from under them.
                pin_evictions: AtomicU64 = sum;
                /// Requests that named a pinned epoch no longer in the table
                /// (the caller re-pins and retries).
                stale_pins: AtomicU64 = sum;
                /// Maintenance policy evaluations (manual `AUTO` requests plus
                /// the background thread's ticks).
                maintenance_runs: AtomicU64 = sum;
                /// Compactions performed by maintenance (policy or explicit).
                maintenance_compactions: AtomicU64 = sum;
                /// Folds performed by maintenance (policy or explicit).
                maintenance_folds: AtomicU64 = sum;
                /// The most recent measured false-positive rate (gauge; 0.0
                /// until the first probe).
                last_measured_fpr: F64Gauge = worst;
            }
            computed {
                /// `true` on a coordinator, whose nodes are remote shards.
                coordinator = own(s => s.remote().map(|_| true)?);
                /// The version of the topology a coordinator serves.
                topology_version = own(s => s.remote()?.1);
                /// Nodes behind the front.
                shards = own(s => s.nodes.len());
                /// The widest live slice width.
                width = worst(n => n.gauge.width);
                /// Committed rows, tombstoned ones included.
                rows = sum(n => n.gauge.rows);
                /// The sum of the nodes' commit epochs (any commit bumps it).
                epoch = sum(n => n.gauge.epoch);
                shard_rows = column(n => n.gauge.rows);
                shard_width = column(n => n.gauge.width);
                shard_lag = column(n => &n.local()?.engine.metrics().replication_lag_rows);
                shard_queue_depth = column(n => &n.local()?.engine.metrics().queue_depth);
                shard_deleted_rows = column(n => n.local()?.snap.deleted_rows());
                shard_fpr = column(n => n.local()?.engine.metrics().last_measured_fpr.get());
                shard_mine_cursor = column(n => &n.local()?.engine.mine_cursor);
                /// Tombstoned rows.
                deleted_rows = sum(n => n.local()?.snap.deleted_rows());
                /// Rows not tombstoned.
                live_rows = sum(n => n.local()?.snap.live_rows());
                role = own(s => match s.lone()?.engine.role() {
                    Role::Primary => "primary",
                    Role::Follower { .. } => "follower",
                });
                primary_addr = own(s => match s.lone()?.engine.role() {
                    Role::Primary => String::new(),
                    Role::Follower { primary } => primary,
                });
                committed_seq = own(s => s.lone()?.engine.shared.committed_seq());
                queue_capacity = own(s => s.lone()?.engine.cfg.queue_capacity);
                batch_max = own(s => s.lone()?.engine.cfg.batch_max);
                commit_window_ms = own(s => s.lone()?.engine.cfg.commit_window.as_millis());
                dedup_window = own(s => s.lone()?.engine.cfg.dedup_window);
                writer_poisoned = own(s => s.lone()?.engine.shared.writer_poisoned());
                writer_heals = own(s => s.lone()?.engine.shared.writer_heals());
                /// What the cursors of the MINE requests the engine served did.
                mine_cursor = own(s => &s.lone()?.engine.mine_cursor);
                commits = own(s => s.lone()?.profile.commits);
                appended = own(s => s.lone()?.profile.appended);
                committed_rows = own(s => s.lone()?.profile.committed_rows);
                deletes = own(s => s.lone()?.profile.deletes);
                writer_pager = own(s => s.lone()?.profile.pager);
                writer_cache = own(s => s.lone()?.profile.cache);
                /// The address serving each remote shard.
                shard_addrs = column(n => n.remote()?.0);
                scatter_us = own(s => &s.front.scatter);
                draining = own(s => s.front.draining.load(Ordering::Acquire));
                scatter_errors = column(n => &n.faults.scatter_errors);
                timeouts = column(n => &n.faults.timeouts);
                failovers = column(n => &n.faults.failovers);
            }
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

    /// Renders the recorded keys as a JSON document: the front's own read
    /// off `self`, the merged ones over `nodes` (over `self` when empty).
    pub fn to_json(&self, nodes: &[&ServerMetrics]) -> String {
        let alone = [self];
        let nodes = if nodes.is_empty() { &alone[..] } else { nodes };
        let mut out = String::new();
        object(&mut out, |o| {
            write_recorded(o, &Recorded { front: self, nodes })
        });
        out
    }
}

/// What a node adds to the stats document beside its [`Gauge`].
pub enum NodeStats<'a> {
    /// A local engine, read at one snapshot and writer profile.
    Local(LocalStats<'a>),
    /// A shard across the wire: the address serving it and the version of
    /// the topology its coordinator serves.
    Remote(String, u32),
}

/// A local engine as one stats document reads it.
pub struct LocalStats<'a> {
    engine: &'a Engine,
    snap: Arc<Snapshot>,
    profile: WriterProfile,
}

impl<'a> NodeStats<'a> {
    /// Reads `engine` once for one document.
    pub(crate) fn local(engine: &'a Engine) -> Self {
        NodeStats::Local(LocalStats {
            engine,
            snap: engine.snapshot(),
            profile: engine.shared.writer_profile(),
        })
    }
}

/// One node as a document reads it: its gauge, its fault counters and
/// what its kind adds.
pub(crate) struct NodeReading<'a> {
    gauge: Gauge,
    faults: &'a ShardFaults,
    stats: NodeStats<'a>,
}

impl NodeReading<'_> {
    fn local(&self) -> Option<&LocalStats<'_>> {
        match &self.stats {
            NodeStats::Local(local) => Some(local),
            NodeStats::Remote(..) => None,
        }
    }

    fn remote(&self) -> Option<(&str, u32)> {
        match &self.stats {
            NodeStats::Remote(addr, version) => Some((addr, *version)),
            NodeStats::Local(_) => None,
        }
    }
}

/// What the computed keys are read from: the front and each node.
pub(crate) struct Sources<'a> {
    front: &'a Front,
    nodes: Vec<NodeReading<'a>>,
}

impl<'a> Sources<'a> {
    fn own<V>(&'a self, read: impl FnOnce(&'a Self) -> Option<V>) -> Option<V> {
        read(self)
    }

    fn cells<V>(&'a self, read: impl Fn(&'a NodeReading<'a>) -> Option<V>) -> Option<Vec<V>> {
        self.nodes.iter().map(read).collect()
    }

    /// The only node, when there is one and it is local.
    fn lone(&self) -> Option<&LocalStats<'_>> {
        match &self.nodes[..] {
            [node] => node.local(),
            _ => None,
        }
    }

    /// The first node's address and topology version, when it is remote.
    fn remote(&self) -> Option<(&str, u32)> {
        self.nodes.first()?.remote()
    }
}

/// Renders the stats document of `front` over `nodes`: every key that
/// applies, in registry order.
pub(crate) fn document<N: Node>(front: &Front, nodes: &[N]) -> String {
    let kept: Vec<&ServerMetrics> = nodes
        .iter()
        .filter_map(N::own_metrics)
        .map(|m| &**m)
        .collect();
    let readings = nodes.iter().zip(&front.faults);
    let nodes = readings
        .map(|(node, faults)| NodeReading {
            gauge: node.gauge(),
            faults,
            stats: node.stats(),
        })
        .collect();
    render(front, &kept, nodes)
}

/// Renders the document of `front` over the nodes read as `nodes`, the
/// metrics of those that keep any being `kept`.
fn render(front: &Front, kept: &[&ServerMetrics], nodes: Vec<NodeReading>) -> String {
    let recorded = Recorded {
        front: &front.metrics,
        nodes: kept,
    };
    let mut out = String::new();
    object(&mut out, |o| {
        write_recorded(o, &recorded);
        write_computed(o, &Sources { front, nodes });
    });
    out
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
        assert_eq!(
            (h.count(), h.mean(), h.quantile(0.99), h.max()),
            (0, 0, 0, 0)
        );
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
        let json = m.to_json(&[]);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"count_many\":{\"requests\":2"));
        // Balanced braces (a cheap structural check without a parser).
        let open = json.matches('{').count();
        let close = json.matches('}').count();
        assert_eq!(open, close);
    }

    /// The top-level keys of a stats document, in order.
    fn keys(json: &str) -> Vec<&str> {
        let (b, mut depth, mut keys, mut i) = (json.as_bytes(), 0, Vec::new(), 0);
        while i < b.len() {
            match b[i] {
                b'"' => {
                    let end = i + 1 + json[i + 1..].find('"').expect("closed string");
                    if depth == 1 && matches!(b[i - 1], b'{' | b',') {
                        keys.push(&json[i + 1..end]);
                    }
                    i = end;
                }
                b'{' | b'[' => depth += 1,
                b'}' | b']' => depth -= 1,
                _ => {}
            }
            i += 1;
        }
        keys
    }

    fn stats(handler: &dyn crate::RequestHandler) -> String {
        match handler.handle(&crate::Request::Stats) {
            crate::Response::Ok(crate::Reply::Stats { json }) => json,
            other => panic!("stats: {other:?}"),
        }
    }

    /// Every declared name is unique, and each shape of server serves
    /// every key that applies to it, once and in table order, and nothing
    /// else: a lone engine and a one-partition router all but a
    /// coordinator's, a router over two partitions none of a lone
    /// partition's own either, and a coordinator none of a local node's.
    #[test]
    fn the_registry_is_closed() {
        use crate::{Engine, RequestHandler, ServerConfig, ShardedEngine};
        use bbs_storage::Deployment;
        let mut names = KEYS.to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), KEYS.len(), "a key is declared twice");

        let lone = [
            "role",
            "primary_addr",
            "committed_seq",
            "queue_capacity",
            "batch_max",
            "commit_window_ms",
            "dedup_window",
            "writer_poisoned",
            "writer_heals",
            "mine_cursor",
            "commits",
            "appended",
            "committed_rows",
            "deletes",
            "writer_pager",
            "writer_cache",
        ];
        let local = [
            "shard_lag",
            "shard_queue_depth",
            "shard_deleted_rows",
            "shard_fpr",
            "shard_mine_cursor",
            "deleted_rows",
            "live_rows",
        ];
        let remote = ["coordinator", "topology_version", "shard_addrs"];
        let but = |left_out: &[&[&str]]| -> Vec<&str> {
            let out = |k: &&str| left_out.iter().any(|group| group.contains(k));
            KEYS.iter().filter(|k| !out(k)).copied().collect()
        };

        let dir = std::env::temp_dir().join(format!("bbs_registry_{}", std::process::id()));
        let (plain, two) = (dir.join("plain"), dir.join("two"));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let cfg = ServerConfig {
            width: 64,
            cache_pages: 64,
            ..ServerConfig::default()
        };
        let engine = Engine::open(&dir.join("lone"), cfg.clone()).expect("open");
        assert_eq!(keys(&stats(&*engine)), but(&[&remote]));
        engine.join();
        let one = ShardedEngine::open(&plain, cfg.clone()).expect("open");
        assert_eq!(keys(&stats(&*one)), but(&[&remote]));
        one.join();
        let hasher = Arc::new(bbs_hash::Md5BloomHasher::new(4));
        Deployment::create(&two, 2, 64, hasher, 64).expect("create");
        let router = ShardedEngine::open(&two, cfg).expect("open");
        assert_eq!(keys(&stats(&*router)), but(&[&remote, &lone]));
        router.join();
        std::fs::remove_dir_all(&dir).ok();

        let front = Front {
            faults: vec![Arc::default(), Arc::default()],
            ..Front::default()
        };
        let shards = front.faults.iter().map(|faults| NodeReading {
            gauge: Gauge::default(),
            faults,
            stats: NodeStats::Remote("127.0.0.1:1".into(), 1),
        });
        let coordinator = render(&front, &[], shards.collect());
        assert_eq!(keys(&coordinator), but(&[&local, &lone]));
    }

    /// Addresses are outside input: a quote or a backslash in one is
    /// escaped, not written raw into the document.
    #[test]
    fn shard_addresses_are_escaped() {
        let front = Front {
            faults: vec![Arc::default(), Arc::default()],
            ..Front::default()
        };
        let addrs = ["127.0.0.1:1\"x", "/tmp/a\\b.sock"];
        let shards = front
            .faults
            .iter()
            .zip(addrs)
            .map(|(faults, addr)| NodeReading {
                gauge: Gauge::default(),
                faults,
                stats: NodeStats::Remote(addr.into(), 1),
            });
        let doc = render(&front, &[], shards.collect());
        assert!(
            doc.contains(r#""shard_addrs":["127.0.0.1:1\"x","/tmp/a\\b.sock"]"#),
            "{doc}"
        );
        assert_eq!(json_string("a\"b\\c\u{1}\n"), r#""a\"b\\c\u0001\n""#);
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
