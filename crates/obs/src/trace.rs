//! Structured event trace: a bounded ring buffer of typed events.
//!
//! Gated independently of metrics via `FROTE_TRACE=1` (or
//! [`set_trace_enabled`]); when disabled, [`emit`] is a single relaxed
//! atomic load. Events carry a static label plus a small set of
//! numeric fields under static names. Until the ring fills, an event
//! allocates only its field list; after that it reuses the evicted
//! event's list, so the buffer stays bounded and allocation-free however
//! long the run.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};

/// Maximum events retained; older events are dropped FIFO.
pub const TRACE_CAPACITY: usize = 4096;

const FORCE_UNSET: u8 = 0;
const FORCE_OFF: u8 = 1;
const FORCE_ON: u8 = 2;

static TRACE_FORCE: AtomicU8 = AtomicU8::new(FORCE_UNSET);

fn trace_env() -> bool {
    static CACHE: OnceLock<bool> = OnceLock::new();
    *CACHE.get_or_init(|| crate::env_flag("FROTE_TRACE"))
}

/// Whether trace recording is currently on ([`set_trace_enabled`]
/// override first, then the `FROTE_TRACE` environment variable).
#[inline]
pub fn trace_enabled() -> bool {
    match TRACE_FORCE.load(Ordering::Relaxed) {
        FORCE_ON => true,
        FORCE_OFF => false,
        _ => trace_env(),
    }
}

/// Process-default override for trace recording, taking precedence
/// over `FROTE_TRACE`.
pub fn set_trace_enabled(on: bool) {
    TRACE_FORCE.store(if on { FORCE_ON } else { FORCE_OFF }, Ordering::Relaxed);
}

/// Drop any [`set_trace_enabled`] override. Primarily for tests.
pub fn clear_trace_override() {
    TRACE_FORCE.store(FORCE_UNSET, Ordering::Relaxed);
}

/// One named numeric field on a trace event.
#[derive(Debug, Clone)]
pub struct TraceField {
    /// Field name.
    pub name: &'static str,
    /// Field value (counts and objective values are all representable).
    pub value: f64,
}

/// One structured event.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Monotonic sequence number (1-based, survives ring eviction).
    pub seq: u64,
    /// Static event label, e.g. `"frote.iteration"`.
    pub label: &'static str,
    /// Named numeric payload.
    pub fields: Vec<TraceField>,
}

#[derive(Default)]
struct Ring {
    events: VecDeque<TraceEvent>,
    seq: u64,
    dropped: u64,
}

fn ring() -> &'static Mutex<Ring> {
    static RING: OnceLock<Mutex<Ring>> = OnceLock::new();
    RING.get_or_init(Mutex::default)
}

fn lock_ring() -> std::sync::MutexGuard<'static, Ring> {
    ring().lock().unwrap_or_else(|e| e.into_inner())
}

/// Record one event; a no-op while tracing is disabled.
pub fn emit(label: &'static str, fields: &[(&'static str, f64)]) {
    if !trace_enabled() {
        return;
    }
    let mut ring = lock_ring();
    ring.seq += 1;
    let seq = ring.seq;
    // A full ring hands its evicted event's field list to the new event.
    let mut list = Vec::new();
    if ring.events.len() == TRACE_CAPACITY {
        list = ring.events.pop_front().map(|e| e.fields).unwrap_or_default();
        ring.dropped += 1;
    }
    list.clear();
    list.extend(fields.iter().map(|&(name, value)| TraceField { name, value }));
    ring.events.push_back(TraceEvent { seq, label, fields: list });
}

/// Copy of the retained events, oldest first.
pub fn snapshot() -> Vec<TraceEvent> {
    lock_ring().events.iter().cloned().collect()
}

/// Events evicted so far because the ring was full.
pub fn dropped() -> u64 {
    lock_ring().dropped
}

/// Drop all retained events and reset the sequence/dropped counters.
pub fn clear() {
    let mut ring = lock_ring();
    ring.events.clear();
    ring.seq = 0;
    ring.dropped = 0;
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::MutexGuard;

    fn test_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn emit_is_inert_when_disabled() {
        let _guard = test_lock();
        clear();
        set_trace_enabled(false);
        emit("test.noop", &[]);
        assert!(snapshot().is_empty());
        clear_trace_override();
    }

    #[test]
    fn emit_records_labels_fields_and_sequence() {
        let _guard = test_lock();
        clear();
        set_trace_enabled(true);
        emit("test.alpha", &[("rows", 3.0), ("j", 0.5)]);
        emit("test.beta", &[]);
        let events = snapshot();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].seq, 1);
        assert_eq!(events[0].label, "test.alpha");
        assert_eq!(events[0].fields[0].name, "rows");
        assert_eq!(events[0].fields[1].value, 0.5);
        assert_eq!(events[1].seq, 2);
        set_trace_enabled(false);
        clear_trace_override();
        clear();
    }

    #[test]
    fn ring_evicts_oldest_beyond_capacity() {
        let _guard = test_lock();
        clear();
        set_trace_enabled(true);
        for _ in 0..(TRACE_CAPACITY + 10) {
            emit("test.fill", &[]);
        }
        let events = snapshot();
        assert_eq!(events.len(), TRACE_CAPACITY);
        assert_eq!(dropped(), 10);
        assert_eq!(events.first().map(|e| e.seq), Some(11), "oldest 10 events evicted");
        set_trace_enabled(false);
        clear_trace_override();
        clear();
    }
}
