//! Host state of a long-lived kernel follows its live processes: after
//! warm-up, spawning and reaping more processes must not grow the heap
//! space's tables. Asserts counters, not RSS.

use kaffeos::{ExitStatus, KaffeOs, KaffeOsConfig};

/// Builds a 300-node list, so each process fills more than one page of
/// object slots, and exits with a known code.
const GUEST: &str = r#"
    class Node { Node next; int v; }
    class Main {
        static int main() {
            Node head = null;
            for (int i = 0; i < 300; i = i + 1) {
                Node n = new Node();
                n.v = i;
                n.next = head;
                head = n;
            }
            return 7;
        }
    }
"#;

const CYCLES: usize = 2_000;
const WARM_UP: usize = 200;

#[test]
fn a_long_lived_kernels_slot_table_stops_growing() {
    let mut os = KaffeOs::new(KaffeOsConfig {
        kernel_gc_period: 500_000,
        ..KaffeOsConfig::default()
    });
    os.register_image("list", GUEST).unwrap();
    let kernel = os.space().kernel_heap();
    // (pages in the space, the kernel heap's recycled free slots)
    let sizes = |os: &KaffeOs| {
        let space = os.space();
        (space.page_count(), space.free_slot_count(kernel).unwrap())
    };
    let mut warm = (0, 0);
    for cycle in 0..CYCLES {
        let pid = os.spawn("list", "", None).unwrap();
        os.run(None);
        assert_eq!(os.status(pid), Some(ExitStatus::Exited(7)), "cycle {cycle}");
        if let Err(v) = os.audit() {
            panic!("cycle {cycle}: audit: {v}");
        }
        let (pages, free_slots) = sizes(&os);
        if cycle < WARM_UP {
            warm = (warm.0.max(pages), warm.1.max(free_slots));
            continue;
        }
        assert!(
            pages <= warm.0,
            "cycle {cycle}: the space grew to {pages} pages (warm-up peak {})",
            warm.0
        );
        assert!(
            free_slots <= warm.1,
            "cycle {cycle}: the kernel holds {free_slots} free slots (warm-up peak {})",
            warm.1
        );
    }
    // The kernel collected many times after warm-up, so the bound above
    // was tested against merged pages coming and going, not one snapshot.
    let kernel_gcs = os.space().snapshot(kernel).unwrap().gc_count;
    assert!(kernel_gcs > 100, "only {kernel_gcs} kernel collections ran");
}
