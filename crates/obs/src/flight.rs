//! Bounded flight recorder: a fixed-capacity ring of recent structured
//! events, dumped on panic so a failed multi-minute run leaves a
//! diagnosable trace instead of nothing.
//!
//! Counters tell you *how much*; the flight recorder tells you *what just
//! happened*. Hot paths call [`note`] with a static event kind and a lazy
//! detail closure (never evaluated when obs is off), the ring keeps the
//! last `capacity` events and counts what it dropped, and
//! [`install_panic_hook`] chains a hook that writes
//! `target/repro_output/flight.json` (schema below) before the process
//! dies. `repro` also writes the file on normal exit so CI can validate
//! the schema on every run.
//!
//! Flight events are diagnostics, not metrics: they carry wall-clock
//! timestamps and may be scheduling-dependent (e.g. fleet reorder-buffer
//! depth), so they never feed the deterministic recorder sections.
//!
//! # `flight.json` schema (v1)
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "capacity": 256,
//!   "dropped": 0,
//!   "events": [ {"seq": 0, "at_ns": 12345, "kind": "...", "detail": "..."} ]
//! }
//! ```

use crate::recorder::escape_json;
use std::collections::VecDeque;
use std::sync::{Mutex, Once, OnceLock};
use std::time::Instant;

/// Version stamped into `flight.json`.
pub const FLIGHT_SCHEMA_VERSION: u64 = 1;

/// Default ring capacity; override with [`set_capacity`].
pub const DEFAULT_CAPACITY: usize = 256;

/// One recorded event.
#[derive(Debug, Clone)]
pub struct FlightEvent {
    /// Monotonic sequence number (never reused, survives drops).
    pub seq: u64,
    /// Nanoseconds since the first flight-recorder touch in this process.
    pub at_ns: u64,
    /// Static event kind, e.g. `"vm.fault.decrypt"`.
    pub kind: &'static str,
    /// Free-form detail rendered by the caller's closure.
    pub detail: String,
}

#[derive(Debug)]
struct Ring {
    capacity: usize,
    next_seq: u64,
    dropped: u64,
    events: VecDeque<FlightEvent>,
}

fn ring() -> &'static Mutex<Ring> {
    static RING: OnceLock<Mutex<Ring>> = OnceLock::new();
    RING.get_or_init(|| {
        Mutex::new(Ring {
            capacity: DEFAULT_CAPACITY,
            next_seq: 0,
            dropped: 0,
            events: VecDeque::with_capacity(DEFAULT_CAPACITY),
        })
    })
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Records an event. `detail` is only rendered when obs is enabled, so an
/// `off` run pays one atomic load and nothing else.
pub fn note(kind: &'static str, detail: impl FnOnce() -> String) {
    if !crate::enabled() {
        return;
    }
    let detail = detail();
    let mut ring = ring().lock().unwrap_or_else(|e| e.into_inner());
    // Stamp under the lock so `at_ns` rises with `seq` across threads.
    let at_ns = epoch().elapsed().as_nanos() as u64;
    let seq = ring.next_seq;
    ring.next_seq += 1;
    if ring.events.len() >= ring.capacity {
        ring.events.pop_front();
        ring.dropped += 1;
    }
    ring.events.push_back(FlightEvent {
        seq,
        at_ns,
        kind,
        detail,
    });
}

/// Resizes the ring, evicting oldest events if shrinking. Capacity `0` is
/// clamped to 1 (a ring that can hold nothing is useless for diagnosis).
pub fn set_capacity(capacity: usize) {
    let capacity = capacity.max(1);
    let mut ring = ring().lock().unwrap_or_else(|e| e.into_inner());
    while ring.events.len() > capacity {
        ring.events.pop_front();
        ring.dropped += 1;
    }
    ring.capacity = capacity;
}

/// Empties the ring and resets the drop counter (sequence numbers keep
/// climbing). For tests.
pub fn clear() {
    let mut ring = ring().lock().unwrap_or_else(|e| e.into_inner());
    ring.events.clear();
    ring.dropped = 0;
}

/// Events currently held, oldest first.
pub fn snapshot() -> Vec<FlightEvent> {
    ring()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .events
        .iter()
        .cloned()
        .collect()
}

/// How many events were evicted to make room.
pub fn dropped() -> u64 {
    ring().lock().unwrap_or_else(|e| e.into_inner()).dropped
}

/// Current ring capacity.
pub fn capacity() -> usize {
    ring().lock().unwrap_or_else(|e| e.into_inner()).capacity
}

/// Serializes the ring as schema-versioned JSON.
pub fn to_json() -> String {
    let ring = ring().lock().unwrap_or_else(|e| e.into_inner());
    let mut out = String::with_capacity(256 + ring.events.len() * 96);
    out.push_str("{\n");
    out.push_str(&format!(
        "  \"schema_version\": {FLIGHT_SCHEMA_VERSION},\n  \"capacity\": {},\n  \"dropped\": {},\n  \"events\": [",
        ring.capacity, ring.dropped
    ));
    for (i, ev) in ring.events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"seq\": {}, \"at_ns\": {}, \"kind\": \"{}\", \"detail\": \"{}\"}}",
            ev.seq,
            ev.at_ns,
            escape_json(ev.kind),
            escape_json(&ev.detail)
        ));
    }
    if !ring.events.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

/// Writes the ring to `path`, creating parent directories.
pub fn dump(path: &std::path::Path) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, to_json())
}

/// The conventional dump location, shared by the panic hook and `repro`.
pub fn default_dump_path() -> std::path::PathBuf {
    std::path::PathBuf::from("target/repro_output/flight.json")
}

/// Installs a panic hook (once per process) that dumps the ring to
/// [`default_dump_path`] and then runs the previously installed hook, so
/// the usual backtrace still prints.
pub fn install_panic_hook() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            note("panic", || info.to_string());
            let path = default_dump_path();
            if dump(&path).is_ok() {
                eprintln!("[obs] flight recorder dumped to {}", path.display());
            }
            previous(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    // The ring is process-global, so exercise everything in one test to
    // avoid cross-test interference under the parallel test runner.
    #[test]
    fn ring_bounds_capacity_and_serializes() {
        if !crate::enabled() {
            return; // BOMBDROID_OBS=off turns note() into a no-op.
        }
        clear();
        set_capacity(4);
        for i in 0..10 {
            note("test.event", || format!("payload {i}"));
        }
        let events = snapshot();
        assert_eq!(events.len(), 4, "ring must hold exactly `capacity` events");
        assert_eq!(dropped(), 6);
        // Oldest evicted first: the survivors are the 4 most recent.
        assert!(events[0].seq < events[3].seq);
        assert_eq!(events[3].detail, "payload 9");
        // Timestamps are monotone within the ring.
        assert!(events.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));

        let json = to_json();
        assert!(json.contains("\"schema_version\": 1"));
        assert!(json.contains("\"dropped\": 6"));
        assert!(json.contains("payload 9"));
        crate::schema::validate_flight(&json).expect("self-produced flight.json must validate");

        // Detail strings with JSON-hostile characters survive a round trip.
        clear();
        note("test.escape", || {
            "quote \" backslash \\ newline \n".to_string()
        });
        crate::schema::validate_flight(&to_json()).expect("escaped payload must validate");
        clear();
        set_capacity(DEFAULT_CAPACITY);
    }
}
