//! Policy tests for the tenant engine: admission caps reject
//! deterministically, queued spawns launch FIFO, supervised restarts
//! follow the exact backoff ladder across fault seeds, the kill-storm
//! circuit breaker opens and closes at its documented thresholds, and
//! graceful degradation sheds by priority and restores on relief.

use kaffeos::{
    Admission, ExitCause, FaultPlan, KaffeOs, KaffeOsConfig, KernelError, OverloadPolicy,
    RestartPolicy, SpawnOpts, TenantId, TenantPolicy,
};

const CRASH_SOURCE: &str = r#"
class Main {
    static int main() {
        int[] a = new int[2];
        return a[5];
    }
}
"#;

const BRIEF_SOURCE: &str = "class Main { static int main() { return 7; } }";

const SPIN_SOURCE: &str = "class Spin { static int main() { while (true) { } return 0; } }";

fn build_os() -> KaffeOs {
    let mut os = KaffeOs::new(KaffeOsConfig::default());
    os.register_image("crash", CRASH_SOURCE).unwrap();
    os.register_image("brief", BRIEF_SOURCE).unwrap();
    os.register_image("spin", SPIN_SOURCE).unwrap();
    os
}

/// Runs one cap-overflow episode and returns what the third spawn said.
fn cap_episode() -> (TenantId, Result<Admission, KernelError>, String) {
    let mut os = build_os();
    let t = os.create_tenant(TenantPolicy {
        max_procs: 2,
        queue_capacity: 0,
        ..TenantPolicy::default()
    });
    for _ in 0..2 {
        match os.spawn_for_tenant(t, "spin", "", SpawnOpts::default()) {
            Ok(Admission::Admitted(_)) => {}
            other => panic!("below the cap must admit, got {other:?}"),
        }
    }
    let third = os.spawn_for_tenant(t, "spin", "", SpawnOpts::default());
    let stats = format!("{:?}", os.tenant_stats(t).unwrap());
    (t, third, stats)
}

#[test]
fn cap_rejects_with_typed_error_and_exact_fields() {
    let (t, third, _) = cap_episode();
    match third {
        Err(KernelError::AdmissionRejected { tenant, live, cap }) => {
            assert_eq!(tenant, t);
            assert_eq!(live, 2);
            assert_eq!(cap, 2);
        }
        other => panic!("expected AdmissionRejected, got {other:?}"),
    }
}

#[test]
fn cap_rejection_is_deterministic_across_fresh_kernels() {
    let (_, a, sa) = cap_episode();
    let (_, b, sb) = cap_episode();
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
    assert_eq!(sa, sb, "stats snapshots must match byte for byte");
}

#[test]
fn queued_admissions_launch_fifo_in_ticket_order() {
    let run = || {
        let mut os = build_os();
        let t = os.create_tenant(TenantPolicy {
            max_procs: 1,
            queue_capacity: 2,
            ..TenantPolicy::default()
        });
        match os.spawn_for_tenant(t, "brief", "", SpawnOpts::default()) {
            Ok(Admission::Admitted(_)) => {}
            other => panic!("first spawn must admit, got {other:?}"),
        }
        let mut tickets = Vec::new();
        for _ in 0..2 {
            match os.spawn_for_tenant(t, "brief", "", SpawnOpts::default()) {
                Ok(Admission::Queued { ticket }) => tickets.push(ticket),
                other => panic!("at the cap with queue room must queue, got {other:?}"),
            }
        }
        assert_eq!(tickets, vec![0, 1]);
        // A third queued spawn overflows the bounded queue.
        match os.spawn_for_tenant(t, "brief", "", SpawnOpts::default()) {
            Err(KernelError::AdmissionRejected { .. }) => {}
            other => panic!("queue overflow must reject, got {other:?}"),
        }
        os.run(Some(200_000_000));
        let launches = os.drain_tenant_launches();
        let stats = *os.tenant_stats(t).unwrap();
        (launches, stats)
    };
    let (launches, stats) = run();
    assert_eq!(
        launches.iter().map(|l| l.ticket).collect::<Vec<_>>(),
        vec![Some(0), Some(1)],
        "queued spawns launch in ticket order"
    );
    assert!(
        launches.windows(2).all(|w| w[0].at <= w[1].at),
        "launch times are monotonic"
    );
    assert_eq!(stats.admitted, 3);
    assert_eq!(stats.queued, 2);
    assert_eq!(stats.rejected_cap, 1);
    assert_eq!(stats.exits.get(ExitCause::Exited), 3);

    let (launches2, stats2) = run();
    assert_eq!(launches, launches2, "launches replay exactly");
    assert_eq!(stats, stats2);
}

#[test]
fn restart_backoff_is_exact_across_fault_seeds() {
    for seed in [1u64, 2, 3, 5, 8, 13, 21, 42] {
        let policy = TenantPolicy {
            max_procs: 1,
            queue_capacity: 0,
            restart: RestartPolicy {
                restart_on_failure: true,
                max_restarts: 6,
                backoff_base: 1_000_000,
                backoff_cap: 64_000_000,
                breaker_threshold: 0, // isolate the backoff ladder
                ..RestartPolicy::default()
            },
            ..TenantPolicy::default()
        };
        let mut os = build_os();
        os.install_faults(FaultPlan::from_seed(seed));
        let t = os.create_tenant(policy);
        match os.spawn_for_tenant(t, "crash", "", SpawnOpts::default()) {
            Ok(Admission::Admitted(_)) => {}
            other => panic!("seed {seed}: initial spawn must admit, got {other:?}"),
        }
        os.run(Some(1_000_000_000));

        let stats = *os.tenant_stats(t).unwrap();
        let log = os.tenant_restart_log(t);
        assert_eq!(
            log.len(),
            6,
            "seed {seed}: exactly max_restarts restarts are scheduled"
        );
        for (i, rec) in log.iter().enumerate() {
            assert_eq!(
                rec.attempt,
                i as u32 + 1,
                "seed {seed}: attempts count consecutive failures"
            );
            assert_eq!(
                rec.due - rec.scheduled_at,
                policy.restart.backoff_delay(rec.attempt),
                "seed {seed}: attempt {} waits exactly its backoff",
                rec.attempt
            );
            assert!(
                rec.launched_at.is_some_and(|at| at >= rec.due),
                "seed {seed}: attempt {} launched no earlier than due",
                rec.attempt
            );
        }
        assert_eq!(stats.restarts, 6, "seed {seed}: every scheduled restart ran");
        assert_eq!(
            stats.restarts_abandoned, 1,
            "seed {seed}: supervision gives up past max_restarts"
        );
        assert_eq!(
            stats.exits.failures(),
            stats.exits.total(),
            "seed {seed}: the crasher never exits cleanly"
        );
    }
}

#[test]
fn breaker_opens_at_threshold_and_closes_after_cooldown() {
    let policy = TenantPolicy {
        max_procs: 8,
        queue_capacity: 0,
        restart: RestartPolicy {
            restart_on_failure: false,
            breaker_threshold: 3,
            breaker_window: 1_000_000_000,
            breaker_cooldown: 50_000_000,
            ..RestartPolicy::default()
        },
        ..TenantPolicy::default()
    };
    let mut os = build_os();
    let t = os.create_tenant(policy);
    for _ in 0..2 {
        os.spawn_for_tenant(t, "crash", "", SpawnOpts::default())
            .unwrap();
    }
    os.run(Some(500_000_000));
    assert_eq!(os.tenant_stats(t).unwrap().exits.get(ExitCause::Exception), 2);
    assert!(
        os.tenant_breaker_open_until(t).is_none(),
        "two failures sit below the threshold"
    );

    os.spawn_for_tenant(t, "crash", "", SpawnOpts::default())
        .unwrap();
    os.run(Some(os.clock() + 500_000_000));
    let until = os
        .tenant_breaker_open_until(t)
        .expect("third failure in the window opens the breaker");
    assert_eq!(os.tenant_stats(t).unwrap().breaker_opens, 1);

    // While open: admissions rejected with the typed error.
    match os.spawn_for_tenant(t, "brief", "", SpawnOpts::default()) {
        Err(KernelError::AdmissionBreakerOpen { tenant, until: u }) => {
            assert_eq!(tenant, t);
            assert_eq!(u, until);
        }
        other => panic!("open breaker must reject, got {other:?}"),
    }
    assert_eq!(os.tenant_stats(t).unwrap().rejected_breaker, 1);

    // After the cooldown: the breaker closes and admissions resume.
    os.advance_clock_to(until);
    match os.spawn_for_tenant(t, "brief", "", SpawnOpts::default()) {
        Ok(Admission::Admitted(_)) => {}
        other => panic!("cooled-down breaker must admit, got {other:?}"),
    }
    assert!(os.tenant_breaker_open_until(t).is_none());
}

#[test]
fn overload_sheds_lowest_priority_and_restores_on_relief() {
    let mut os = build_os();
    os.set_overload_policy(Some(OverloadPolicy {
        shed_high_bytes: 3 << 20,
        shed_low_bytes: 1 << 20,
    }));
    let low = os.create_tenant(TenantPolicy {
        priority: 10,
        ..TenantPolicy::default()
    });
    let high = os.create_tenant(TenantPolicy {
        priority: 100,
        ..TenantPolicy::default()
    });
    let hard2mb = SpawnOpts {
        mem_limit: Some(2 << 20),
        mem_hard: true,
        ..SpawnOpts::default()
    };
    os.spawn_for_tenant(low, "spin", "", hard2mb).unwrap();
    let high_pid = match os.spawn_for_tenant(high, "spin", "", hard2mb).unwrap() {
        Admission::Admitted(pid) => pid,
        other => panic!("expected admit, got {other:?}"),
    };
    // Two hard 2 MB reservations cross the 3 MB high watermark: the
    // lowest-priority tenant is shed; the premium tenant keeps running.
    os.run(Some(os.clock() + 50_000_000));
    assert!(os.tenant_is_shed(low), "best-effort tenant is shed");
    assert!(!os.tenant_is_shed(high), "premium tenant survives");
    assert!(os.tenant_live_pids(low).is_empty(), "shed kills its procs");
    assert!(os.is_alive(high_pid));
    let low_stats = *os.tenant_stats(low).unwrap();
    assert_eq!(low_stats.sheds, 1);
    assert_eq!(low_stats.exits.get(ExitCause::Killed), 1);
    match os.spawn_for_tenant(low, "brief", "", SpawnOpts::default()) {
        Err(KernelError::AdmissionShed { tenant }) => assert_eq!(tenant, low),
        other => panic!("shed tenant must reject, got {other:?}"),
    }

    // Relief: the premium process exits, pressure falls under the low
    // watermark, the shed tenant is restored and admits again.
    os.kill(high_pid).unwrap();
    os.run(Some(os.clock() + 50_000_000));
    os.run(Some(os.clock() + 1_000_000));
    assert!(!os.tenant_is_shed(low), "relief restores the shed tenant");
    match os.spawn_for_tenant(low, "brief", "", SpawnOpts::default()) {
        Ok(Admission::Admitted(_)) => {}
        other => panic!("restored tenant must admit, got {other:?}"),
    }
}

#[test]
fn unknown_tenant_is_a_typed_error() {
    let mut os = build_os();
    match os.spawn_for_tenant(TenantId(9), "brief", "", SpawnOpts::default()) {
        Err(KernelError::UnknownTenant(t)) => assert_eq!(t, TenantId(9)),
        other => panic!("expected UnknownTenant, got {other:?}"),
    }
}
