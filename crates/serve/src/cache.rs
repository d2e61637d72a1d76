//! Result cache keyed by job fingerprint, with single-flight dedup.
//!
//! Identical jobs (same kind, parameters, and deck — budgets and ids
//! excluded) hit a bounded FIFO cache of rendered result bodies. A
//! miss makes the first caller the **leader**; concurrent callers with
//! the same fingerprint **join** and block until the leader publishes,
//! instead of redundantly re-running the same simulation. Only
//! complete `ok` results are published: a partial produced under a
//! small budget must never be served to a request that brought a
//! larger one, and failures should re-run (the failure may have been
//! a budget or chaos artifact).
//!
//! Fingerprints are FNV-1a 64 — the same scheme the bench config
//! fingerprint and the supervisor's retry jitter use.

use crate::protocol::{JobKind, JobRequest};
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

/// FNV-1a 64 over the job's identity: kind, parameters, deck.
pub fn job_fingerprint(job: &JobRequest) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h ^= 0xff;
        h = h.wrapping_mul(0x100_0000_01b3);
    };
    mix(job.kind.name().as_bytes());
    match &job.kind {
        JobKind::Op => {}
        JobKind::DcSweep {
            source,
            start,
            stop,
            points,
        } => {
            mix(source.as_bytes());
            mix(&start.to_bits().to_le_bytes());
            mix(&stop.to_bits().to_le_bytes());
            mix(&(*points as u64).to_le_bytes());
        }
        JobKind::Tran { t_stop, dt } => {
            mix(&t_stop.to_bits().to_le_bytes());
            mix(&dt.to_bits().to_le_bytes());
        }
    }
    mix(job.deck.as_bytes());
    h
}

/// What a lookup decided.
pub enum Lookup {
    /// Cached body, served immediately.
    Hit(String),
    /// This caller computes; it MUST call
    /// [`ResultCache::publish`] or [`ResultCache::abandon`] when done.
    Lead(FlightGuard),
    /// A leader finished while we waited: its published body.
    Joined(String),
    /// The leader abandoned (failed / partial / panicked) or the wait
    /// timed out; the caller should run the job itself without
    /// publishing.
    JoinFailed,
}

struct Flight {
    done: Mutex<Option<Option<String>>>,
    cv: Condvar,
}

/// RAII claim on a single-flight slot. Dropping without
/// [`ResultCache::publish`] counts as abandonment, so a panicking
/// leader never wedges its joiners.
pub struct FlightGuard {
    cache: Arc<CacheInner>,
    key: u64,
    flight: Arc<Flight>,
    published: bool,
}

impl Drop for FlightGuard {
    fn drop(&mut self) {
        if !self.published {
            self.cache.finish(self.key, &self.flight, None);
        }
    }
}

struct CacheInner {
    map: Mutex<CacheMap>,
}

struct CacheMap {
    ready: HashMap<u64, String>,
    order: VecDeque<u64>,
    inflight: HashMap<u64, Arc<Flight>>,
    capacity: usize,
}

impl CacheInner {
    fn finish(&self, key: u64, flight: &Arc<Flight>, body: Option<String>) {
        {
            let mut map = self.map.lock().unwrap_or_else(PoisonError::into_inner);
            map.inflight.remove(&key);
            if let Some(body) = body.clone() {
                if map.ready.len() >= map.capacity {
                    if let Some(evict) = map.order.pop_front() {
                        map.ready.remove(&evict);
                    }
                }
                if map.ready.insert(key, body).is_none() {
                    map.order.push_back(key);
                }
            }
        }
        let mut done = flight.done.lock().unwrap_or_else(PoisonError::into_inner);
        *done = Some(body);
        flight.cv.notify_all();
    }
}

/// Bounded single-flight result cache. See the module docs.
pub struct ResultCache {
    inner: Arc<CacheInner>,
    join_timeout: Duration,
}

impl ResultCache {
    /// New cache holding up to `capacity` rendered results; joiners
    /// wait at most `join_timeout` for a leader before going solo.
    pub fn new(capacity: usize, join_timeout: Duration) -> Self {
        ResultCache {
            inner: Arc::new(CacheInner {
                map: Mutex::new(CacheMap {
                    ready: HashMap::new(),
                    order: VecDeque::new(),
                    inflight: HashMap::new(),
                    capacity: capacity.max(1),
                }),
            }),
            join_timeout,
        }
    }

    /// Looks up `key`; counts hits / misses / joins on the serve
    /// metric names.
    pub fn lookup(&self, key: u64) -> Lookup {
        let flight = {
            let mut map = self
                .inner
                .map
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            if let Some(body) = map.ready.get(&key) {
                remix_telemetry::counter_add(remix_telemetry::names::SERVE_CACHE_HITS, 1);
                return Lookup::Hit(body.clone());
            }
            if let Some(flight) = map.inflight.get(&key) {
                remix_telemetry::counter_add(remix_telemetry::names::SERVE_CACHE_JOINS, 1);
                Arc::clone(flight)
            } else {
                remix_telemetry::counter_add(remix_telemetry::names::SERVE_CACHE_MISSES, 1);
                let flight = Arc::new(Flight {
                    done: Mutex::new(None),
                    cv: Condvar::new(),
                });
                map.inflight.insert(key, Arc::clone(&flight));
                return Lookup::Lead(FlightGuard {
                    cache: Arc::clone(&self.inner),
                    key,
                    flight,
                    published: false,
                });
            }
        };
        // Joiner: wait for the leader to publish or abandon.
        let mut done = flight.done.lock().unwrap_or_else(PoisonError::into_inner);
        let deadline = std::time::Instant::now() + self.join_timeout;
        loop {
            if let Some(outcome) = done.clone() {
                return match outcome {
                    Some(body) => Lookup::Joined(body),
                    None => Lookup::JoinFailed,
                };
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return Lookup::JoinFailed;
            }
            let (guard, _) = flight
                .cv
                .wait_timeout(done, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            done = guard;
        }
    }

    /// Publishes the leader's complete `ok` body to cache and joiners.
    pub fn publish(&self, mut guard: FlightGuard, body: String) {
        guard.published = true;
        self.inner.finish(guard.key, &guard.flight, Some(body));
    }

    /// Explicitly abandons the flight (failure / partial): joiners
    /// unblock and re-run solo, nothing is cached. Dropping the guard
    /// does the same — this form just documents intent at call sites.
    pub fn abandon(&self, guard: FlightGuard) {
        drop(guard);
    }

    /// Ready entries in eviction (FIFO) order, oldest first — the
    /// persistence snapshot.
    pub fn entries(&self) -> Vec<(u64, String)> {
        let map = self
            .inner
            .map
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        map.order
            .iter()
            .filter_map(|key| map.ready.get(key).map(|body| (*key, body.clone())))
            .collect()
    }

    /// Inserts a ready entry directly (no single-flight), respecting
    /// capacity FIFO eviction. Used to reload a persisted snapshot on
    /// startup; later duplicates of a key are ignored.
    pub fn seed(&self, key: u64, body: String) {
        let mut map = self
            .inner
            .map
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if map.ready.contains_key(&key) {
            return;
        }
        if map.ready.len() >= map.capacity {
            if let Some(evict) = map.order.pop_front() {
                map.ready.remove(&evict);
            }
        }
        map.ready.insert(key, body);
        map.order.push_back(key);
    }

    /// Number of ready entries (for stats).
    pub fn len(&self) -> usize {
        self.inner
            .map
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .ready
            .len()
    }

    /// `true` when no results are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Version tag of the persisted-cache document.
pub const PERSIST_VERSION: u64 = 1;

/// Fingerprint a persisted cache must match to be reloaded: FNV-1a 64
/// (hex) over the crate version plus a result-schema tag. Bodies
/// rendered by a different build may differ byte-for-byte for the same
/// job, and a stale body replayed as a hit would be silently wrong —
/// so a mismatched snapshot is rejected wholesale, never merged.
pub fn persist_fingerprint() -> String {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in concat!(env!("CARGO_PKG_VERSION"), "|result-schema-v1").bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    format!("{h:016x}")
}

impl ResultCache {
    /// Renders the ready entries as a version-1 persistence document
    /// (see [`PERSIST_VERSION`]); written via the crash-safe
    /// `remix_exec::atomic_write` on graceful shutdown.
    pub fn render_persist(&self, fingerprint: &str) -> String {
        let mut entries = String::new();
        for (key, body) in self.entries() {
            if !entries.is_empty() {
                entries.push(',');
            }
            entries.push_str(&format!("[{key},{}]", remix_telemetry::json_str(&body)));
        }
        format!(
            "{{\"version\":{PERSIST_VERSION},\"fingerprint\":{},\"entries\":[{entries}]}}",
            remix_telemetry::json_str(fingerprint),
        )
    }

    /// Restores a persisted snapshot into the (empty) cache, oldest
    /// entry first so FIFO eviction order survives the round trip.
    /// Returns the number of entries seeded.
    ///
    /// # Errors
    ///
    /// A description of the defect when the document is malformed, a
    /// different version, or fingerprinted by a different build —
    /// rejection is wholesale; nothing is seeded.
    pub fn load_persist(&self, text: &str, fingerprint: &str) -> Result<usize, String> {
        let doc = remix_telemetry::parse_json(text).map_err(|e| e.to_string())?;
        match doc
            .get("version")
            .and_then(remix_telemetry::JsonValue::as_u64)
        {
            Some(PERSIST_VERSION) => {}
            other => return Err(format!("unsupported cache version {other:?}")),
        }
        match doc
            .get("fingerprint")
            .and_then(remix_telemetry::JsonValue::as_str)
        {
            Some(found) if found == fingerprint => {}
            Some(found) => {
                return Err(format!(
                    "fingerprint mismatch: snapshot {found}, this build {fingerprint}"
                ))
            }
            None => return Err("missing fingerprint".to_string()),
        }
        let entries = doc
            .get("entries")
            .and_then(remix_telemetry::JsonValue::as_arr)
            .ok_or("missing entries array")?;
        let mut parsed = Vec::with_capacity(entries.len());
        for (i, entry) in entries.iter().enumerate() {
            let pair = entry
                .as_arr()
                .ok_or_else(|| format!("entry {i} not a pair"))?;
            match pair {
                [key, body] => {
                    let key = key
                        .as_u64()
                        .ok_or_else(|| format!("entry {i} key not a u64"))?;
                    let body = body
                        .as_str()
                        .ok_or_else(|| format!("entry {i} body not a string"))?;
                    parsed.push((key, body.to_string()));
                }
                _ => return Err(format!("entry {i} not a [key, body] pair")),
            }
        }
        let n = parsed.len();
        for (key, body) in parsed {
            self.seed(key, body);
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::JobRequest;

    fn job(deck: &str, kind: JobKind) -> JobRequest {
        JobRequest {
            id: "x".to_string(),
            kind,
            deck: deck.to_string(),
            deadline_ms: None,
            newton_budget: None,
            timestep_budget: None,
            events: false,
        }
    }

    #[test]
    fn fingerprint_ignores_id_and_budgets_but_not_identity() {
        let a = job("v1 a 0 1\n.end\n", JobKind::Op);
        let mut b = a.clone();
        b.id = "different".to_string();
        b.deadline_ms = Some(5);
        b.newton_budget = Some(10);
        b.events = true;
        assert_eq!(job_fingerprint(&a), job_fingerprint(&b));
        let c = job("v1 a 0 2\n.end\n", JobKind::Op);
        assert_ne!(job_fingerprint(&a), job_fingerprint(&c));
        let d = job(
            "v1 a 0 1\n.end\n",
            JobKind::Tran {
                t_stop: 1e-6,
                dt: 1e-9,
            },
        );
        assert_ne!(job_fingerprint(&a), job_fingerprint(&d));
    }

    #[test]
    fn lead_publish_hit_cycle() {
        let cache = ResultCache::new(8, Duration::from_millis(100));
        let guard = match cache.lookup(42) {
            Lookup::Lead(g) => g,
            _ => panic!("first lookup must lead"),
        };
        cache.publish(guard, "{\"x\":1}".to_string());
        match cache.lookup(42) {
            Lookup::Hit(body) => assert_eq!(body, "{\"x\":1}"),
            _ => panic!("second lookup must hit"),
        }
    }

    #[test]
    fn joiner_receives_leaders_body() {
        let cache = Arc::new(ResultCache::new(8, Duration::from_secs(2)));
        let guard = match cache.lookup(7) {
            Lookup::Lead(g) => g,
            _ => panic!("must lead"),
        };
        let cache2 = Arc::clone(&cache);
        let joiner = std::thread::spawn(move || match cache2.lookup(7) {
            Lookup::Joined(body) => body,
            other => panic!(
                "joiner must join, got {}",
                match other {
                    Lookup::Hit(_) => "hit",
                    Lookup::Lead(_) => "lead",
                    Lookup::JoinFailed => "join-failed",
                    Lookup::Joined(_) => unreachable!(),
                }
            ),
        });
        std::thread::sleep(Duration::from_millis(20));
        cache.publish(guard, "{\"y\":2}".to_string());
        assert_eq!(joiner.join().expect("join"), "{\"y\":2}");
    }

    #[test]
    fn abandoned_flight_unblocks_joiners_without_caching() {
        let cache = Arc::new(ResultCache::new(8, Duration::from_secs(2)));
        let guard = match cache.lookup(9) {
            Lookup::Lead(g) => g,
            _ => panic!("must lead"),
        };
        let cache2 = Arc::clone(&cache);
        let joiner = std::thread::spawn(move || matches!(cache2.lookup(9), Lookup::JoinFailed));
        std::thread::sleep(Duration::from_millis(20));
        cache.abandon(guard);
        assert!(joiner.join().expect("join"), "joiner must see failure");
        assert!(cache.is_empty());
        // The key is claimable again.
        assert!(matches!(cache.lookup(9), Lookup::Lead(_)));
    }

    #[test]
    fn dropped_guard_counts_as_abandonment() {
        let cache = ResultCache::new(8, Duration::from_millis(50));
        {
            let _guard = match cache.lookup(1) {
                Lookup::Lead(g) => g,
                _ => panic!("must lead"),
            };
            // Simulated leader panic: guard dropped unpublished.
        }
        assert!(matches!(cache.lookup(1), Lookup::Lead(_)));
    }

    #[test]
    fn capacity_evicts_oldest_first() {
        let cache = ResultCache::new(2, Duration::from_millis(50));
        for key in [1u64, 2, 3] {
            match cache.lookup(key) {
                Lookup::Lead(g) => cache.publish(g, format!("{{\"k\":{key}}}")),
                _ => panic!("must lead"),
            }
        }
        assert_eq!(cache.len(), 2);
        assert!(matches!(cache.lookup(1), Lookup::Lead(_))); // evicted
        assert!(matches!(cache.lookup(3), Lookup::Hit(_)));
    }

    #[test]
    fn persist_round_trips_entries_in_eviction_order() {
        let cache = ResultCache::new(8, Duration::from_millis(50));
        for key in [5u64, u64::MAX, 1] {
            match cache.lookup(key) {
                Lookup::Lead(g) => cache.publish(g, format!("{{\"k\":\"{key}\",\"s\":\"a\\nb\"}}")),
                _ => panic!("must lead"),
            }
        }
        let fp = persist_fingerprint();
        let doc = cache.render_persist(&fp);
        let restored = ResultCache::new(8, Duration::from_millis(50));
        assert_eq!(restored.load_persist(&doc, &fp), Ok(3));
        assert_eq!(restored.entries(), cache.entries());
        // u64::MAX survives bit-exact (the parser keeps large ints).
        match restored.lookup(u64::MAX) {
            Lookup::Hit(body) => assert!(body.contains(&u64::MAX.to_string())),
            _ => panic!("persisted entry must hit"),
        }
    }

    #[test]
    fn persist_rejects_mismatched_fingerprint_version_and_garbage() {
        let cache = ResultCache::new(8, Duration::from_millis(50));
        match cache.lookup(3) {
            Lookup::Lead(g) => cache.publish(g, "{}".to_string()),
            _ => panic!("must lead"),
        }
        let fp = persist_fingerprint();
        let doc = cache.render_persist(&fp);
        let restored = ResultCache::new(8, Duration::from_millis(50));
        let err = restored.load_persist(&doc, "other-build").unwrap_err();
        assert!(err.contains("fingerprint mismatch"), "{err}");
        let wrong_version = doc.replace("\"version\":1", "\"version\":9");
        let err = restored.load_persist(&wrong_version, &fp).unwrap_err();
        assert!(err.contains("version"), "{err}");
        assert!(restored.load_persist("{not json", &fp).is_err());
        // A torn write (truncated document) must also reject.
        assert!(restored.load_persist(&doc[..doc.len() / 2], &fp).is_err());
        // Wholesale rejection: nothing seeded by any failed load.
        assert!(restored.is_empty());
    }

    #[test]
    fn seed_ignores_duplicates_and_respects_capacity() {
        let cache = ResultCache::new(2, Duration::from_millis(50));
        cache.seed(1, "a".to_string());
        cache.seed(1, "b".to_string()); // ignored: first seed wins
        cache.seed(2, "c".to_string());
        cache.seed(3, "d".to_string()); // evicts 1
        assert_eq!(
            cache.entries(),
            vec![(2, "c".to_string()), (3, "d".to_string())]
        );
        match cache.lookup(2) {
            Lookup::Hit(body) => assert_eq!(body, "c"),
            _ => panic!("seeded entry must hit"),
        }
    }
}
