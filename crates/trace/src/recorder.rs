//! The flight recorder: always-on, crash-surviving event rings.
//!
//! Every thread that passes through a span site owns one fixed-capacity
//! ring of compact event records ([`RING_CAPACITY`] slots). The write
//! path is a single relaxed enabled-check plus a seqlocked slot write —
//! no lock, no allocation in steady state (the ring itself is allocated
//! once, the first time a thread records). Unlike the span collector
//! (off by default, drained post-hoc), the recorder is **on by
//! default** and never drained: it always holds the last-N events per
//! thread, so a panic, a `dse.fault` or a fuzz crash can [`dump`] the
//! immediate history of every lane post-mortem.
//!
//! Records are deliberately lossy where the span collector is exact:
//! there are no timestamps, only a per-lane order stamp, and a dump
//! truncates names to [`NAME_BYTES`] bytes — the recorder answers "what
//! was this thread doing just now", not "how long did it take".
//!
//! Event names are `&'static str`s. A slot stores a name's id in a
//! process-wide name table, not its bytes; each thread finds a name's id
//! in its own cache, keyed on the name's address and length, and takes
//! the table's lock only the first time it records a name.
//!
//! Concurrency: each ring has exactly one writer (its owning thread);
//! [`dump`] may race it from any thread. Every slot is a seqlock over
//! plain atomics — the writer brackets its field stores with an
//! odd/even sequence, and a reader that observes an odd or changed
//! sequence discards the slot. A torn record is therefore impossible
//! by construction; at worst a dump misses the slot being overwritten
//! at that instant.

use std::cell::RefCell;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, Once, PoisonError};

/// Events retained per thread lane (a power of two).
pub const RING_CAPACITY: usize = 256;

/// Name bytes a dump keeps per event (longer names are truncated).
pub const NAME_BYTES: usize = 24;

/// Recorder master switch. On by default; [`set_enabled`] exists for
/// overhead A/B measurements and the `TYTRA_FLIGHT_RECORDER=0` escape
/// hatch, not for normal operation.
static RECORDER_ON: AtomicBool = AtomicBool::new(true);

/// Every lane ever registered. Threads never unregister (a dead
/// thread's last events are exactly what a post-mortem wants), so a lane
/// lives as long as the process and is leaked on registration.
static LANES: Mutex<Vec<&'static Lane>> = Mutex::new(Vec::new());

/// Every event name recorded so far; a slot holds its name's index.
static NAMES: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());

/// Entries in a thread's name-id cache (a power of two, above the
/// workspace's few dozen event names).
const NAME_CACHE: usize = 128;

/// A thread's recording state: its lane (registered on first use) and
/// its name-id cache, open-addressed on `(address, length, id)` with
/// address 0 marking a free entry (no `&str` points at 0).
struct Local {
    lane: Option<&'static Lane>,
    names: [(usize, usize, u32); NAME_CACHE],
}

impl Local {
    fn name_id(&mut self, name: &'static str) -> u32 {
        let key = (name.as_ptr() as usize, name.len());
        // Fibonacci hashing of the address picks the first probe.
        let home = ((key.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            >> (u64::BITS - NAME_CACHE.trailing_zeros())) as usize;
        for probe in 0..NAME_CACHE {
            let entry = &mut self.names[(home + probe) & (NAME_CACHE - 1)];
            if (entry.0, entry.1) == key {
                return entry.2;
            }
            if entry.0 == 0 {
                let id = intern(name);
                *entry = (key.0, key.1, id);
                return id;
            }
        }
        intern(name)
    }
}

thread_local! {
    static LOCAL: RefCell<Local> =
        const { RefCell::new(Local { lane: None, names: [(0, 0, 0); NAME_CACHE] }) };
}

/// The id of `name` in [`NAMES`], added on first sight. Equal names
/// share an id, whatever their address. A poisoned lock is recovered:
/// the table's one update is a push, which leaves it valid.
fn intern(name: &'static str) -> u32 {
    let mut names = NAMES.lock().unwrap_or_else(PoisonError::into_inner);
    match names.iter().position(|&n| n == name) {
        Some(i) => i as u32,
        None => {
            names.push(name);
            (names.len() - 1) as u32
        }
    }
}

/// What kind of history entry an event is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened (`span()` was called).
    Open,
    /// A traced span closed (guard drop; recorder-only spans log opens).
    Close,
    /// A point event from [`mark`].
    Mark,
}

impl EventKind {
    fn code(self) -> u64 {
        match self {
            EventKind::Open => 0,
            EventKind::Close => 1,
            EventKind::Mark => 2,
        }
    }

    fn from_code(c: u64) -> Option<EventKind> {
        match c {
            0 => Some(EventKind::Open),
            1 => Some(EventKind::Close),
            2 => Some(EventKind::Mark),
            _ => None,
        }
    }

    /// Fixed-width label for the text dump.
    pub fn label(self) -> &'static str {
        match self {
            EventKind::Open => "open ",
            EventKind::Close => "close",
            EventKind::Mark => "mark ",
        }
    }
}

/// One slot: a seqlock over plain atomics. `seq` is odd while the
/// writer is mid-update; `order` repeats the event number so a reader
/// can tell which generation of the ring it is looking at.
struct Slot {
    seq: AtomicU64,
    /// `kind (8 bits) | name id << 8`.
    meta: AtomicU64,
    /// Lane-local event number (the ring cursor at write time).
    order: AtomicU64,
    /// Free `u64` payload (variant index, case id, …).
    detail: AtomicU64,
}

impl Slot {
    fn empty() -> Slot {
        Slot {
            seq: AtomicU64::new(0),
            meta: AtomicU64::new(0),
            order: AtomicU64::new(0),
            detail: AtomicU64::new(0),
        }
    }
}

/// An event as read from a slot, before its name id is resolved.
struct RawEvent {
    order: u64,
    kind: EventKind,
    name: usize,
    detail: u64,
}

struct Lane {
    /// The span collector's dense thread id, for cross-referencing
    /// dumps with trace lanes and `thread_labels()`.
    tid: u64,
    /// Events written so far; the next write goes to
    /// `slots[cursor % RING_CAPACITY]`.
    cursor: AtomicU64,
    slots: [Slot; RING_CAPACITY],
}

impl Lane {
    fn register() -> &'static Lane {
        let lane: &'static Lane = Box::leak(Box::new(Lane {
            tid: crate::current_thread_id(),
            cursor: AtomicU64::new(0),
            slots: std::array::from_fn(|_| Slot::empty()),
        }));
        if let Ok(mut lanes) = LANES.lock() {
            lanes.push(lane);
        }
        lane
    }

    fn write(&self, kind: EventKind, name: u32, detail: u64) {
        let cur = self.cursor.load(Ordering::Relaxed);
        let slot = &self.slots[(cur as usize) & (RING_CAPACITY - 1)];
        let seq0 = slot.seq.load(Ordering::Relaxed);
        slot.seq.store(seq0 | 1, Ordering::Relaxed);
        // Pairs with the reader's Acquire fence in `read_slot`: a reader
        // that sees any of the data stores below also sees the odd `seq`.
        fence(Ordering::Release);
        slot.meta.store(kind.code() | (u64::from(name) << 8), Ordering::Relaxed);
        slot.order.store(cur, Ordering::Relaxed);
        slot.detail.store(detail, Ordering::Relaxed);
        // The cursor is published before the slot closes, so a dump that
        // reads this record (Acquire on the even `seq`) and then loads the
        // cursor sees `written > order`.
        self.cursor.store(cur + 1, Ordering::Release);
        slot.seq.store((seq0 | 1).wrapping_add(1), Ordering::Release);
    }

    fn read_slot(&self, index: usize) -> Option<RawEvent> {
        let slot = &self.slots[index];
        let s1 = slot.seq.load(Ordering::Acquire);
        if s1 == 0 || s1 & 1 == 1 {
            return None; // never written, or mid-write
        }
        let meta = slot.meta.load(Ordering::Relaxed);
        let order = slot.order.load(Ordering::Relaxed);
        let detail = slot.detail.load(Ordering::Relaxed);
        // Pairs with the writer's Release fence in `write`: if any load
        // above saw a newer write's data, the re-check sees its odd `seq`.
        fence(Ordering::Acquire);
        if slot.seq.load(Ordering::Relaxed) != s1 {
            return None; // overwritten while reading
        }
        let kind = EventKind::from_code(meta & 0xFF)?;
        Some(RawEvent { order, kind, name: (meta >> 8) as usize, detail })
    }

    /// Scan the slots first, then load the cursor: every recovered
    /// event's `order` is then below `written`, however the owning thread
    /// races the dump. Names resolve after the scan, so every id a slot
    /// holds is already in the table (the writer interned it before
    /// writing the slot).
    fn dump(&self, labels: &[(u64, String)]) -> LaneDump {
        let mut raw: Vec<RawEvent> = (0..RING_CAPACITY).filter_map(|i| self.read_slot(i)).collect();
        let written = self.cursor.load(Ordering::Acquire);
        raw.sort_by_key(|e| e.order);
        let names = NAMES.lock().unwrap_or_else(PoisonError::into_inner).clone();
        let events = raw
            .into_iter()
            .filter_map(|e| {
                let name = names.get(e.name)?.as_bytes();
                let name = &name[..name.len().min(NAME_BYTES)];
                let name = String::from_utf8_lossy(name).into_owned();
                Some(FlightEvent { order: e.order, kind: e.kind, name, detail: e.detail })
            })
            .collect();
        LaneDump {
            tid: self.tid,
            label: labels.iter().find(|(t, _)| *t == self.tid).map(|(_, l)| l.clone()),
            written,
            events,
        }
    }
}

/// One recovered event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightEvent {
    /// Lane-local event number (monotone per thread; gaps mean the
    /// ring wrapped past the slot while it was being dumped).
    pub order: u64,
    /// Open, close or mark.
    pub kind: EventKind,
    /// Event name, truncated to [`NAME_BYTES`] bytes.
    pub name: String,
    /// Free payload (variant index, case id, 0 when unused).
    pub detail: u64,
}

/// Everything recovered from one thread's ring.
#[derive(Debug, Clone)]
pub struct LaneDump {
    /// The span collector's dense thread id for this lane.
    pub tid: u64,
    /// Label from [`crate::set_thread_label`], when one was registered.
    pub label: Option<String>,
    /// Total events ever written to this lane.
    pub written: u64,
    /// The recovered tail, in write order.
    pub events: Vec<FlightEvent>,
}

#[inline]
fn record(kind: EventKind, name: &'static str, detail: u64) {
    if !RECORDER_ON.load(Ordering::Relaxed) {
        return;
    }
    let _ = LOCAL.try_with(|local| {
        if let Ok(mut local) = local.try_borrow_mut() {
            let lane = *local.lane.get_or_insert_with(Lane::register);
            let name = local.name_id(name);
            lane.write(kind, name, detail);
        }
    });
}

/// Span sites call this on open (always, traced or not).
#[inline]
pub(crate) fn record_open(name: &'static str) {
    record(EventKind::Open, name, 0);
}

/// Traced span guards call this on drop.
#[inline]
pub(crate) fn record_close(name: &'static str) {
    record(EventKind::Close, name, 0);
}

/// Log a point event with a numeric payload. This is the hot-path
/// breadcrumb API: no allocation, no formatting — hand it a static
/// name and an index and it costs a ring write.
#[inline]
pub fn mark(name: &'static str, detail: u64) {
    record(EventKind::Mark, name, detail);
}

/// Turn the recorder off/on. Intended for overhead measurements and
/// the `TYTRA_FLIGHT_RECORDER=0` environment override only.
pub fn set_enabled(on: bool) {
    RECORDER_ON.store(on, Ordering::Relaxed);
}

/// Whether the recorder is on (it is, unless something turned it off).
pub fn enabled() -> bool {
    RECORDER_ON.load(Ordering::Relaxed)
}

/// Snapshot every lane's retained tail. Safe to call from any thread at
/// any time, including from a panic hook while other threads still
/// write: slots caught mid-update are skipped, never torn.
pub fn dump() -> Vec<LaneDump> {
    let lanes: Vec<&'static Lane> = match LANES.lock() {
        Ok(l) => l.clone(),
        Err(_) => return Vec::new(),
    };
    let labels = crate::thread_labels();
    lanes.iter().map(|lane| lane.dump(&labels)).collect()
}

/// [`dump`], restricted to the calling thread's lane. `None` if this
/// thread never recorded anything.
pub fn dump_current_thread() -> Option<LaneDump> {
    let lane = LOCAL.try_with(|l| l.try_borrow().ok().and_then(|l| l.lane)).ok().flatten()?;
    Some(lane.dump(&crate::thread_labels()))
}

/// Render lane dumps as the post-mortem text format: one header line
/// per lane, one `#order kind name detail` line per event.
pub fn render_dump(dumps: &[LaneDump]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("== flight recorder ==\n");
    for lane in dumps {
        let label = lane.label.as_deref().map(|l| format!(" ({l})")).unwrap_or_default();
        let _ = writeln!(
            out,
            "lane {}{label}: {} event(s) retained of {} written",
            lane.tid,
            lane.events.len(),
            lane.written
        );
        for e in &lane.events {
            let _ = write!(out, "  #{:<8} {} {}", e.order, e.kind.label(), e.name);
            if e.detail != 0 {
                let _ = write!(out, "  detail={}", e.detail);
            }
            out.push('\n');
        }
    }
    out
}

static HOOK_INSTALLED: Once = Once::new();

/// Install a process panic hook that prints the flight-recorder dump to
/// stderr (and to the file named by `TYTRA_FLIGHT_DUMP`, when set)
/// after the previous hook has reported the panic itself. Idempotent;
/// chains whatever hook was installed before.
pub fn install_panic_hook() {
    HOOK_INSTALLED.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            prev(info);
            let rendered = render_dump(&dump());
            eprintln!("{rendered}");
            if let Ok(path) = std::env::var("TYTRA_FLIGHT_DUMP") {
                if !path.is_empty() {
                    let _ = std::fs::write(&path, &rendered);
                }
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marks_land_in_the_current_lane_in_order() {
        let _guard = crate::tests::GLOBAL_TEST_LOCK.lock().unwrap();
        let (tid, dump) = std::thread::spawn(|| {
            mark("rec.alpha", 1);
            mark("rec.beta", 2);
            mark("rec.gamma", 0);
            (crate::current_thread_id(), dump_current_thread().expect("lane exists"))
        })
        .join()
        .unwrap();
        assert_eq!(dump.tid, tid);
        assert_eq!(dump.written, 3);
        let names: Vec<&str> = dump.events.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["rec.alpha", "rec.beta", "rec.gamma"]);
        assert_eq!(dump.events[0].detail, 1);
        assert_eq!(dump.events[2].detail, 0);
        assert!(dump.events.windows(2).all(|w| w[0].order < w[1].order));
        assert!(dump.events.iter().all(|e| e.kind == EventKind::Mark));
    }

    #[test]
    fn the_ring_keeps_only_the_tail() {
        let _guard = crate::tests::GLOBAL_TEST_LOCK.lock().unwrap();
        let dump = std::thread::spawn(|| {
            for i in 0..(RING_CAPACITY as u64 * 3 + 7) {
                mark("rec.wrap", i);
            }
            dump_current_thread().expect("lane exists")
        })
        .join()
        .unwrap();
        let total = RING_CAPACITY as u64 * 3 + 7;
        assert_eq!(dump.written, total);
        assert_eq!(dump.events.len(), RING_CAPACITY);
        // The retained window is exactly the last RING_CAPACITY events.
        assert_eq!(dump.events.first().unwrap().order, total - RING_CAPACITY as u64);
        assert_eq!(dump.events.last().unwrap().order, total - 1);
        assert!(dump.events.iter().all(|e| e.detail == e.order));
    }

    #[test]
    fn long_names_truncate_and_dump_renders() {
        let _guard = crate::tests::GLOBAL_TEST_LOCK.lock().unwrap();
        let rendered = std::thread::spawn(|| {
            mark("this.name.is.much.longer.than.the.slot", 9);
            let d = dump_current_thread().unwrap();
            let tail = d.events.last().unwrap().clone();
            assert_eq!(tail.name.len(), NAME_BYTES);
            assert_eq!(tail.name, "this.name.is.much.longer");
            render_dump(&[d])
        })
        .join()
        .unwrap();
        assert!(rendered.starts_with("== flight recorder ==\n"), "{rendered}");
        assert!(rendered.contains("detail=9"), "{rendered}");
    }

    #[test]
    fn names_resolve_past_a_full_cache_and_by_content() {
        let _guard = crate::tests::GLOBAL_TEST_LOCK.lock().unwrap();
        let names: Vec<&'static str> =
            (0..2 * NAME_CACHE).map(|i| &*String::leak(format!("rec.many.{i}"))).collect();
        let dump = std::thread::spawn(move || {
            for (i, name) in names.iter().enumerate() {
                mark(name, i as u64);
            }
            // An equal name at another address shares the first one's id.
            mark(String::leak(String::from("rec.many.0")), 0);
            dump_current_thread().expect("lane exists")
        })
        .join()
        .unwrap();
        assert_eq!(dump.events.len(), RING_CAPACITY);
        for e in &dump.events {
            assert_eq!(e.name, format!("rec.many.{}", e.detail), "{e:?}");
        }
        assert_eq!(dump.events.last().map(|e| e.name.as_str()), Some("rec.many.0"));
    }

    #[test]
    fn disabling_stops_recording() {
        let _guard = crate::tests::GLOBAL_TEST_LOCK.lock().unwrap();
        std::thread::spawn(|| {
            mark("rec.before", 0);
            set_enabled(false);
            mark("rec.hidden", 0);
            set_enabled(true);
            mark("rec.after", 0);
            let d = dump_current_thread().unwrap();
            let names: Vec<&str> = d.events.iter().map(|e| e.name.as_str()).collect();
            assert!(names.contains(&"rec.before"));
            assert!(names.contains(&"rec.after"));
            assert!(!names.contains(&"rec.hidden"), "{names:?}");
        })
        .join()
        .unwrap();
    }

    #[test]
    fn global_dump_sees_every_thread_lane() {
        let _guard = crate::tests::GLOBAL_TEST_LOCK.lock().unwrap();
        let tids: Vec<u64> = (0..3)
            .map(|w| {
                std::thread::spawn(move || {
                    mark("rec.global", w);
                    crate::current_thread_id()
                })
                .join()
                .unwrap()
            })
            .collect();
        let dumps = dump();
        for tid in tids {
            let lane = dumps.iter().find(|d| d.tid == tid).expect("lane dumped");
            assert!(lane.events.iter().any(|e| e.name == "rec.global"));
        }
    }
}
