//! Event-stream semantics: the trace must tell the story of a shared
//! heap's life in order (freeze → attach → detach-on-kill → orphan), carry
//! monotonic sequence numbers and clocks, and — like every observability
//! plane — record *nothing* when it is off.

use kaffeos::trace::{
    export_chrome, Event, HeapProfStore, MetricsSnapshot, Payload, ProfileStore, TraceBuffer,
};
use kaffeos::{KaffeOs, KaffeOsConfig};

fn build_os(trace: bool) -> KaffeOs {
    let mut os = KaffeOs::new(KaffeOsConfig {
        trace,
        ..KaffeOsConfig::default()
    });
    os.load_shared_source("class Cell { int value; }").unwrap();
    os.register_image(
        "creator",
        r#"class Main {
               static int main() {
                   Shm.create("box", "Cell", 4);
                   while (true) { }
                   return 0;
               }
           }"#,
    )
    .unwrap();
    os.register_image(
        "sharer",
        r#"class Main {
               static int main() {
                   Shm.lookup("box");
                   while (true) { }
                   return 0;
               }
           }"#,
    )
    .unwrap();
    os
}

/// Freeze, attach (creator then sharer), kill-while-attached (the reap
/// detaches), and finally the orphan merge by the kernel collector — the
/// trace must contain exactly this sequence for the heap, in this order.
#[test]
fn shm_lifecycle_events_appear_in_order() {
    let mut os = build_os(true);
    let creator = os.spawn("creator", "", Some(1 << 20)).unwrap();
    os.run(Some(os.clock() + 5_000_000));
    assert!(os.shm_registry().contains("box"), "creator froze the heap");

    let sharer = os.spawn("sharer", "", Some(1 << 20)).unwrap();
    os.run(Some(os.clock() + 5_000_000));

    // Kill the sharer while it is attached: its reap credits the charge
    // and must record the detach.
    os.kill(sharer).unwrap();
    os.run(Some(os.clock() + 5_000_000));
    assert!(!os.is_alive(sharer), "sharer dies at a safe point");

    os.kill(creator).unwrap();
    os.run(Some(os.clock() + 5_000_000));
    assert!(!os.is_alive(creator));

    // Last sharer gone: the kernel collector merges the orphan.
    os.kernel_gc();
    os.audit().expect("lifecycle run audits clean");
    assert_eq!(os.shm_registry().len(), 0, "orphan was merged");

    let lifecycle: Vec<(u32, String)> = os.obs().trace.read(|t| {
        t.events()
            .filter_map(|e| match &e.payload {
                Payload::ShmFrozen { name, bytes } => {
                    assert!(*bytes > 0, "frozen heap has a size");
                    Some((e.pid, format!("frozen:{name}")))
                }
                Payload::ShmAttached { name } => Some((e.pid, format!("attached:{name}"))),
                Payload::ShmDetached { name } => Some((e.pid, format!("detached:{name}"))),
                Payload::ShmOrphaned { name } => Some((e.pid, format!("orphaned:{name}"))),
                _ => None,
            })
            .collect()
    });
    assert_eq!(
        lifecycle,
        vec![
            (creator.0, "frozen:box".to_string()),
            (creator.0, "attached:box".to_string()),
            (sharer.0, "attached:box".to_string()),
            (sharer.0, "detached:box".to_string()),
            (creator.0, "detached:box".to_string()),
            (0, "orphaned:box".to_string()),
        ],
        "shared-heap lifecycle out of order"
    );
}

/// Sequence numbers are gapless from zero and timestamps never go
/// backwards — the ordering contract every consumer of the trace relies on.
#[test]
fn sequence_numbers_are_gapless_and_clocks_monotonic() {
    let mut os = build_os(true);
    let creator = os.spawn("creator", "", Some(1 << 20)).unwrap();
    os.run(Some(os.clock() + 5_000_000));
    os.kill(creator).unwrap();
    os.run(Some(os.clock() + 5_000_000));
    os.kernel_gc();

    let events: Vec<Event> = os.obs().trace.read(|t| t.events().cloned().collect());
    assert!(events.len() > 20, "expected a substantial stream");
    let mut last_at = 0u64;
    for (i, e) in events.iter().enumerate() {
        assert_eq!(e.seq, i as u64, "sequence numbers must be gapless");
        assert!(
            e.at >= last_at,
            "event {i} at clock {} after clock {last_at}",
            e.at
        );
        last_at = e.at;
    }
}

/// With every plane off (the default), the kernel records nothing at all:
/// no events, metrics, samples, sites or timeline, and every export of all
/// three planes reads empty. The heap dump, a function of the virtual state
/// rather than a plane, keeps working.
#[test]
fn disabled_planes_record_nothing() {
    let mut os = build_os(false);
    let creator = os.spawn("creator", "", Some(1 << 20)).unwrap();
    os.run(Some(os.clock() + 5_000_000));
    os.kill(creator).unwrap();
    os.run(Some(os.clock() + 5_000_000));
    os.kernel_gc();
    os.audit().expect("unobserved run audits clean");

    let obs = os.obs();
    assert!(!obs.trace.is_on() && !obs.profile.is_on() && !obs.heap.is_on());
    let class = |tag| os.class_tag_name(tag);
    for export in [
        obs.trace.read(TraceBuffer::jsonl),
        obs.profile.read(ProfileStore::folded),
        obs.profile.read(ProfileStore::flamegraph_svg),
        obs.profile.read(ProfileStore::histograms_text),
        obs.profile.read(|p| p.summary(creator.0)),
        obs.heap.read(|h| h.folded_bytes(&class)),
        obs.heap.read(|h| h.folded_objects(&class)),
        obs.heap.read(|h| h.flamegraph_svg(&class)),
        obs.heap.read(|h| h.survival_text(&class)),
        obs.heap.read(HeapProfStore::timeline_jsonl),
        obs.heap.read(HeapProfStore::heap_hists_text),
    ] {
        assert_eq!(export, "");
    }
    assert_eq!(
        obs.trace.read(|t| t.metrics().clone()),
        MetricsSnapshot::default()
    );
    assert!(obs.profile.read(|p| p.totals().clone()).is_empty());
    assert!(obs.heap.read(HeapProfStore::census).is_empty());
    // The Chrome exporter renders no events as its empty document.
    let events: Vec<Event> = obs.trace.read(|t| t.events().cloned().collect());
    assert_eq!(
        export_chrome(events.iter()),
        "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}\n"
    );
    assert!(os.heap_dump().contains("\"type\":\"recount\""), "the dump needs no plane");
}
