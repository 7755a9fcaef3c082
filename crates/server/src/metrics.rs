//! A small lock-free metrics registry — the repo's first observability
//! layer.
//!
//! Three instrument kinds, all safe to update from any thread without
//! locking:
//!
//! * [`Counter`] — a monotonically increasing `u64`;
//! * [`Gauge`] — a signed up/down value (e.g. in-flight requests);
//! * [`Histogram`] — the one latency histogram: log-linear buckets with
//!   O(1) bucket selection, a nanosecond sum and count.
//!
//! A [`Registry`] names instruments and snapshots them all at once; the
//! snapshot renders to the in-tree [`json::Value`](crate::json::Value)
//! so `tbaad`'s `stats` verb can ship it over the wire. Nothing here is
//! server-specific: the router and the load generator record into the
//! same [`Histogram`].
//!
//! Instruments are resolved by name once, when their owner is built,
//! and held as typed handles (`ServerMetrics`, `RouterMetrics`, the
//! session store's fields) — the registry is consulted only at
//! construction and snapshot time, so the hot path is a few atomic ops
//! per event.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::json::Value;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An up/down gauge.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Adds 1.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Subtracts 1.
    pub fn dec(&self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }

    /// Sets an absolute value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Linear sub-buckets per power of two, as a bit count: every bucket
/// past the first `SUB` is at most 1/16 of its lower bound wide.
const SUB_BITS: u32 = 4;
const SUB: u64 = 1 << SUB_BITS;
/// The finite buckets reach `2^TOP_BITS` µs (about 71 minutes).
const TOP_BITS: u32 = 32;
/// Finite buckets: `0..SUB` µs one apiece, then `SUB` per octave.
const FINITE: usize = (SUB * (TOP_BITS - SUB_BITS + 1) as u64) as usize;
/// The overflow bucket's bound: the longest recordable duration,
/// `u64::MAX` ns, in whole µs.
const OVERFLOW_LE: u64 = u64::MAX.div_ceil(1000);

/// The bucket holding a value of `us` whole microseconds.
fn bucket_of(us: u64) -> usize {
    if us < SUB {
        return us as usize;
    }
    let octave = 63 - us.leading_zeros(); // ≥ SUB_BITS
    if octave >= TOP_BITS {
        return FINITE;
    }
    let shift = octave - SUB_BITS;
    ((u64::from(shift) + 1) * SUB + (us >> shift) - SUB) as usize
}

/// Bucket `i`'s inclusive upper bound in µs (its `le`).
fn bucket_le(i: usize) -> u64 {
    let i = i as u64;
    if i < SUB {
        return i;
    }
    if i >= FINITE as u64 {
        return OVERFLOW_LE;
    }
    let shift = i / SUB - 1;
    ((SUB + i % SUB + 1) << shift) - 1
}

/// The one latency histogram, shared by the server, the router, the
/// journal and `tbaa-loadgen`.
///
/// A duration is bucketed by its whole microseconds, rounded up, on a
/// log-linear scale: exact below 16 µs, then 16 linear sub-buckets per
/// power of two (at most 6.25% relative width) up to `2^32` µs, and one
/// overflow bucket past that — 465 slots, found in O(1). The sum is kept
/// in nanoseconds, so the mean is exact whatever the bucket widths.
/// Every update is a relaxed atomic: record from any thread, or record
/// per thread and [`merge`](Histogram::merge) at the end.
#[derive(Debug)]
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    sum_ns: AtomicU64,
    count: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: (0..=FINITE).map(|_| AtomicU64::new(0)).collect(),
            sum_ns: AtomicU64::new(0),
            count: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one duration.
    pub fn record(&self, d: Duration) {
        let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.buckets[bucket_of(ns.div_ceil(1000))].fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        // A plain load first: a new maximum is rare, so the common case
        // makes no fourth read-modify-write.
        if ns > self.max_ns.load(Ordering::Relaxed) {
            self.max_ns.fetch_max(ns, Ordering::Relaxed);
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean observation in µs (0 when empty).
    pub fn mean_us(&self) -> f64 {
        match self.count() {
            0 => 0.0,
            n => self.sum_ns.load(Ordering::Relaxed) as f64 / n as f64 / 1000.0,
        }
    }

    /// Largest observation in µs, rounded to the nearest whole µs.
    pub fn max_us(&self) -> u64 {
        self.max_ns.load(Ordering::Relaxed).saturating_add(500) / 1000
    }

    /// The estimated `q`-quantile in µs: the `le` of the bucket where
    /// the cumulative count reaches rank `⌈q·count⌉`, capped by the
    /// maximum, so the tail is exact. 0 when empty.
    pub fn quantile_us(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0;
        for (i, slot) in self.buckets.iter().enumerate() {
            seen += slot.load(Ordering::Relaxed);
            if seen >= rank {
                return bucket_le(i).min(self.max_us());
            }
        }
        self.max_us()
    }

    /// Folds `other`'s observations into this histogram.
    pub fn merge(&self, other: &Histogram) {
        for (a, b) in self.buckets.iter().zip(other.buckets.iter()) {
            a.fetch_add(b.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        self.sum_ns
            .fetch_add(other.sum_ns.load(Ordering::Relaxed), Ordering::Relaxed);
        self.count.fetch_add(other.count(), Ordering::Relaxed);
        self.max_ns
            .fetch_max(other.max_ns.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Folds in a [`to_json`](Histogram::to_json) snapshot — how the
    /// router merges its shards' histograms. The snapshot's sum is whole
    /// µs and its maximum is known only to bucket resolution (the
    /// highest non-empty bucket's `le`).
    pub fn absorb_json(&self, snapshot: &Value<'_>) {
        // Snapshots cross a socket: a missing or negative number reads 0.
        let int = |v: Option<&Value>| {
            v.and_then(Value::as_i64)
                .and_then(|n| u64::try_from(n).ok())
        };
        self.count
            .fetch_add(int(snapshot.get("count")).unwrap_or(0), Ordering::Relaxed);
        let sum_us = int(snapshot.get("sum")).unwrap_or(0);
        self.sum_ns
            .fetch_add(sum_us.saturating_mul(1000), Ordering::Relaxed);
        for bucket in snapshot
            .get("buckets")
            .and_then(Value::as_array)
            .unwrap_or(&[])
        {
            let pair = bucket.as_array().unwrap_or(&[]);
            let (Some(le), Some(n)) = (int(pair.first()), int(pair.get(1))) else {
                continue;
            };
            self.buckets[bucket_of(le)].fetch_add(n, Ordering::Relaxed);
            self.max_ns
                .fetch_max(le.saturating_mul(1000), Ordering::Relaxed);
        }
    }

    /// The snapshot encoding of this histogram: integer `count`, `sum`
    /// (whole µs, rounded from nanoseconds), `mean` (µs, three
    /// decimals), and the non-empty `[le, n]` buckets with integer `le`
    /// in µs, ascending.
    pub fn to_json(&self) -> Value<'static> {
        let sum_us = self.sum_ns.load(Ordering::Relaxed).saturating_add(500) / 1000;
        let buckets = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| match slot.load(Ordering::Relaxed) {
                0 => None, // keep the wire format small
                n => Some(Value::Array(vec![
                    Value::Int(bucket_le(i) as i64),
                    Value::Int(n as i64),
                ])),
            })
            .collect();
        Value::object(vec![
            ("count", Value::Int(self.count() as i64)),
            ("sum", Value::Int(sum_us as i64)),
            (
                "mean",
                Value::Float((self.mean_us() * 1000.0).round() / 1000.0),
            ),
            ("buckets", Value::Array(buckets)),
        ])
    }
}

enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A named collection of instruments with one-shot JSON snapshots.
///
/// The lookups lock and scan, so they belong in constructors: resolve
/// each instrument once into a handle and update the handle.
#[derive(Default)]
pub struct Registry {
    items: Mutex<Vec<(String, Instrument)>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the counter named `name`, creating it on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut items = self.items.lock().expect("registry poisoned");
        for (n, i) in items.iter() {
            if n == name {
                if let Instrument::Counter(c) = i {
                    return c.clone();
                }
                panic!("metric `{name}` registered with a different kind");
            }
        }
        let c = Arc::new(Counter::default());
        items.push((name.to_string(), Instrument::Counter(c.clone())));
        c
    }

    /// Returns the gauge named `name`, creating it on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut items = self.items.lock().expect("registry poisoned");
        for (n, i) in items.iter() {
            if n == name {
                if let Instrument::Gauge(g) = i {
                    return g.clone();
                }
                panic!("metric `{name}` registered with a different kind");
            }
        }
        let g = Arc::new(Gauge::default());
        items.push((name.to_string(), Instrument::Gauge(g.clone())));
        g
    }

    /// Returns the histogram named `name`, creating it on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut items = self.items.lock().expect("registry poisoned");
        for (n, i) in items.iter() {
            if n == name {
                if let Instrument::Histogram(h) = i {
                    return h.clone();
                }
                panic!("metric `{name}` registered with a different kind");
            }
        }
        let h = Arc::new(Histogram::default());
        items.push((name.to_string(), Instrument::Histogram(h.clone())));
        h
    }

    /// Snapshots every instrument into one JSON object:
    /// `{"counters":{..},"gauges":{..},"histograms":{..}}`, each section
    /// in registration order.
    pub fn snapshot(&self) -> Value<'static> {
        let items = self.items.lock().expect("registry poisoned");
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut histograms = Vec::new();
        for (name, inst) in items.iter() {
            match inst {
                Instrument::Counter(c) => {
                    counters.push((name.clone().into(), Value::Int(c.get() as i64)));
                }
                Instrument::Gauge(g) => gauges.push((name.clone().into(), Value::Int(g.get()))),
                Instrument::Histogram(h) => histograms.push((name.clone().into(), h.to_json())),
            }
        }
        Value::Object(vec![
            ("counters".into(), Value::Object(counters)),
            ("gauges".into(), Value::Object(gauges)),
            ("histograms".into(), Value::Object(histograms)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges() {
        let r = Registry::new();
        let c = r.counter("reqs");
        c.inc();
        c.add(4);
        assert_eq!(r.counter("reqs").get(), 5, "same name, same instrument");
        let g = r.gauge("inflight");
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.get(), 1);
    }

    #[test]
    fn bucket_bounds_are_contiguous_and_each_bound_is_in_its_own_bucket() {
        assert_eq!(FINITE + 1, 465, "a few hundred slots per histogram");
        let mut prev = None;
        for i in 0..=FINITE {
            let le = bucket_le(i);
            assert_eq!(bucket_of(le), i, "le {le} of bucket {i}");
            if let Some(p) = prev {
                assert!(le > p, "bounds strictly increase");
                assert_eq!(bucket_of(p + 1), i, "bucket {i} starts right after {p}");
                if i > SUB as usize && i < FINITE {
                    // Relative width: (le - p) / (p + 1) ≤ 1/16.
                    assert!((le - p) * SUB <= p + 1, "bucket {i} too wide");
                }
            }
            prev = Some(le);
        }
        assert_eq!(bucket_of(u64::MAX.div_ceil(1000)), FINITE);
        assert_eq!(bucket_of(1 << TOP_BITS), FINITE);
        assert_eq!(bucket_of((1 << TOP_BITS) - 1), FINITE - 1);
    }

    #[test]
    fn histogram_sums_nanoseconds_and_renders_integer_microseconds() {
        let h = Histogram::default();
        for ns in [400, 3_700, 3_700, 50_000_000] {
            h.record(Duration::from_nanos(ns));
        }
        assert_eq!(h.count(), 4);
        let j = h.to_json();
        assert_eq!(j.get("count").unwrap().as_i64(), Some(4));
        // 50_007_800 ns rounds to 50_008 µs; whole-µs truncation would
        // have lost the 7.8 µs of the three short observations.
        assert_eq!(j.get("sum").unwrap().as_i64(), Some(50_008));
        let buckets: Vec<(i64, i64)> = j
            .get("buckets")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|b| {
                let b = b.as_array().unwrap();
                (b[0].as_i64().unwrap(), b[1].as_i64().unwrap())
            })
            .collect();
        assert_eq!(buckets[0], (1, 1), "sub-µs rounds up into le=1");
        assert_eq!(buckets[1], (4, 2), "3.7 µs lands in le=4");
        assert_eq!(buckets.len(), 3);
        assert!(buckets[2].0 >= 50_000 && buckets[2].0 <= 50_000 * 17 / 16);
    }

    #[test]
    fn quantiles_are_ordered_and_the_tail_is_exact() {
        let h = Histogram::default();
        for us in [10u64, 20, 40, 80, 5000, 100, 60, 30, 15, 9] {
            h.record(Duration::from_micros(us));
        }
        let (p50, p95, p99) = (
            h.quantile_us(0.50),
            h.quantile_us(0.95),
            h.quantile_us(0.99),
        );
        assert!(p50 <= p95 && p95 <= p99);
        assert!((30..=32).contains(&p50), "p50 {p50}");
        assert_eq!(h.quantile_us(1.0), 5000, "tail is exact via max");
        let other = Histogram::default();
        other.record(Duration::from_micros(7000));
        h.merge(&other);
        assert_eq!(h.count(), 11);
        assert_eq!(h.quantile_us(1.0), 7000);
        assert_eq!(h.max_us(), 7000);
    }

    #[test]
    fn absorbing_snapshots_merges_bucket_wise() {
        let (a, b) = (Histogram::default(), Histogram::default());
        a.record(Duration::from_micros(5));
        a.record(Duration::from_micros(900));
        b.record(Duration::from_micros(5));
        let merged = Histogram::default();
        merged.absorb_json(&a.to_json());
        merged.absorb_json(&b.to_json());
        let j = merged.to_json();
        assert_eq!(j.get("count").unwrap().as_i64(), Some(3));
        assert_eq!(j.get("sum").unwrap().as_i64(), Some(910));
        let buckets = j.get("buckets").unwrap().as_array().unwrap();
        assert_eq!(buckets.len(), 2);
        assert_eq!(buckets[0], Value::Array(vec![Value::Int(5), Value::Int(2)]));
        assert_eq!(merged.quantile_us(0.5), 5);
    }

    #[test]
    fn snapshot_renders_ordered_json() {
        let r = Registry::new();
        r.counter("a").inc();
        r.gauge("g").set(-2);
        r.histogram("h").record(Duration::from_micros(3));
        let s = r.snapshot().encode();
        assert!(s.contains("\"counters\":{\"a\":1}"), "{s}");
        assert!(s.contains("\"gauges\":{\"g\":-2}"), "{s}");
        assert!(
            s.contains("\"h\":{\"count\":1,\"sum\":3,\"mean\":3,\"buckets\":[[3,1]]}"),
            "{s}"
        );
    }

    #[test]
    fn concurrent_updates_do_not_lose_counts() {
        let r = Registry::new();
        let c = r.counter("n");
        let h = r.histogram("h");
        std::thread::scope(|s| {
            for _ in 0..8 {
                let (c, h) = (c.clone(), h.clone());
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                        h.record(Duration::from_micros(2));
                    }
                });
            }
        });
        assert_eq!(c.get(), 8000);
        assert_eq!(h.count(), 8000);
    }
}
