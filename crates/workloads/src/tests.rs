//! Workload smoke tests: every benchmark compiles, runs, and computes the
//! same checksum on every platform; the servlet experiment produces the
//! Figure 4 shape at miniature scale.

use crate::machine::MachineModel;
use crate::runner::{platforms, run_spec};
use crate::servlet::{run_servlet_experiment, Deployment, ServletParams};
use crate::spec::{all_benchmarks, by_name};

#[test]
fn every_benchmark_runs_on_the_reference_platform() {
    let reference = platforms()[5]; // KaffeOS, No Heap Pointer
    for bench in all_benchmarks() {
        let result = run_spec(&bench, &reference, bench.test_n);
        assert!(
            result.checksum > 0,
            "{} produced checksum {}",
            bench.name,
            result.checksum
        );
        assert!(result.virtual_seconds > 0.0);
    }
}

#[test]
fn checksums_agree_across_all_platforms() {
    for bench in all_benchmarks() {
        let mut checksums = Vec::new();
        for platform in platforms() {
            let result = run_spec(&bench, &platform, bench.test_n);
            checksums.push((platform.name, result.checksum));
        }
        let first = checksums[0].1;
        for (name, checksum) in &checksums {
            assert_eq!(
                *checksum, first,
                "{} differs on {name}: {checksum} vs {first}",
                bench.name
            );
        }
    }
}

#[test]
fn platform_virtual_times_are_ordered_like_the_paper() {
    // IBM < Kaffe00 < KaffeOS variants < Kaffe99... Figure 3 actually has
    // the KaffeOS variants slightly *faster* than Kaffe99 and slower than
    // Kaffe00; check those orderings per benchmark.
    let p = platforms();
    for bench in [by_name("db").unwrap(), by_name("jess").unwrap()] {
        let ibm = run_spec(&bench, &p[0], bench.test_n).virtual_seconds;
        let k00 = run_spec(&bench, &p[1], bench.test_n).virtual_seconds;
        let k99 = run_spec(&bench, &p[2], bench.test_n).virtual_seconds;
        let kos_nwb = run_spec(&bench, &p[3], bench.test_n).virtual_seconds;
        let kos_nhp = run_spec(&bench, &p[5], bench.test_n).virtual_seconds;
        assert!(ibm < k00, "{}: IBM {ibm} < Kaffe00 {k00}", bench.name);
        assert!(
            k00 < kos_nwb,
            "{}: Kaffe00 {k00} < KaffeOS {kos_nwb}",
            bench.name
        );
        assert!(
            kos_nwb < k99,
            "{}: KaffeOS-NoWB {kos_nwb} < Kaffe99 {k99} (back-ported features)",
            bench.name
        );
        assert!(
            kos_nhp > kos_nwb,
            "{}: barriers cost something ({kos_nhp} vs {kos_nwb})",
            bench.name
        );
    }
}

/// The observability planes — tracing, the profiler and the heap plane —
/// have no cycle model, so the Figure 3 numbers — virtual seconds
/// (bit-for-bit), the clock, every barrier counter and the checksum — are
/// identical with each plane off and on. Only what the plane records may
/// differ: nothing when off, something when on.
#[test]
fn observability_planes_never_perturb_figure3_numbers() {
    use kaffeos::{ExitStatus, KaffeOs, KaffeOsConfig};

    /// Name, the config switch, and one count per thing the plane records.
    type Plane = (
        &'static str,
        fn(&mut KaffeOsConfig),
        fn(&KaffeOs) -> Vec<usize>,
    );
    let planes: [Plane; 3] = [
        (
            "trace",
            |c| c.trace = true,
            |os| vec![os.obs().trace.read(|t| t.events().count())],
        ),
        (
            "profile",
            |c| c.profile = true,
            |os| vec![os.obs().profile.read(|p| p.folded().lines().count())],
        ),
        (
            "heapprof",
            |c| c.heapprof = true,
            |os| {
                let class = |tag| os.class_tag_name(tag);
                os.obs()
                    .heap
                    .read(|h| vec![h.folded_bytes(&class).lines().count(), h.timeline_len()])
            },
        ),
    ];
    let bench = by_name("compress").unwrap();
    let reference = platforms()[5]; // KaffeOS, No Heap Pointer
    for (plane, enable, recorded) in planes {
        let run = |on: bool| {
            let mut config = reference.config();
            if on {
                enable(&mut config);
            }
            let mut os = KaffeOs::new(config);
            os.register_image(bench.name, bench.source).unwrap();
            let pid = os.spawn(bench.name, "1", None).unwrap();
            let report = os.run(None);
            let checksum = match os.status(pid) {
                Some(ExitStatus::Exited(v)) => v,
                other => panic!("compress ended with {other:?}"),
            };
            let figure3 = (
                report.virtual_seconds.to_bits(),
                report.barrier,
                os.clock(),
                checksum,
            );
            (figure3, recorded(&os))
        };
        let (off, recorded_off) = run(false);
        let (on, recorded_on) = run(true);
        assert_eq!(
            off, on,
            "{plane}: (virtual seconds, barrier stats, clock, checksum) moved"
        );
        assert!(
            recorded_off.iter().all(|&n| n == 0),
            "{plane}: disabled plane recorded {recorded_off:?}"
        );
        assert!(
            recorded_on.iter().all(|&n| n > 0),
            "{plane}: enabled plane recorded {recorded_on:?}"
        );
    }
}

#[test]
fn compress_executes_far_fewer_barriers_than_db() {
    let reference = platforms()[5];
    let compress = run_spec(&by_name("compress").unwrap(), &reference, 1);
    let db = run_spec(&by_name("db").unwrap(), &reference, 1);
    assert!(
        db.barriers_executed > 20 * compress.barriers_executed.max(1),
        "db {} vs compress {}",
        db.barriers_executed,
        compress.barriers_executed
    );
}

#[test]
fn jack_is_disproportionately_slow_on_kaffe99() {
    // The slow-exception-dispatch story: jack's Kaffe99/KaffeOS gap is
    // larger than compress's.
    let p = platforms();
    let jack = by_name("jack").unwrap();
    let compress = by_name("compress").unwrap();
    let jack_gap =
        run_spec(&jack, &p[2], 2).virtual_seconds / run_spec(&jack, &p[3], 2).virtual_seconds;
    let compress_gap = run_spec(&compress, &p[2], 1).virtual_seconds
        / run_spec(&compress, &p[3], 1).virtual_seconds;
    assert!(
        jack_gap > compress_gap * 1.2,
        "jack gap {jack_gap:.2} vs compress gap {compress_gap:.2}"
    );
}

mod servlet_shape {
    use super::*;
    use kaffeos::ExitCause;

    fn params(deployment: Deployment, servlets: usize, with_memhog: bool) -> ServletParams {
        ServletParams {
            deployment,
            servlets,
            with_memhog,
            // Enough service work that the hog fills the (small) shared
            // heap several times before the servlets can finish.
            total_requests: 300,
            mono_heap_bytes: 2 << 20,
            machine: MachineModel::default(),
        }
    }

    #[test]
    fn kaffeos_serves_all_requests_with_and_without_memhog() {
        let clean = run_servlet_experiment(params(Deployment::KaffeOsProcs, 3, false));
        assert_eq!(clean.requests_served, 300);
        let attacked = run_servlet_experiment(params(Deployment::KaffeOsProcs, 3, true));
        assert_eq!(attacked.requests_served, 300);
        assert!(attacked.memhog_restarts > 0, "hog was killed and restarted");
        assert_eq!(attacked.vm_restarts, 0, "no whole-VM crash under KaffeOS");
        assert_eq!(
            attacked.restart_causes.get(ExitCause::Oom),
            u64::from(attacked.memhog_restarts),
            "every hog restart is a typed OOM, not an ad-hoc string"
        );
        assert_eq!(clean.restart_causes.total(), 0);
        // Consistent performance: the attack costs something, but not an
        // order of magnitude.
        assert!(
            attacked.virtual_seconds < clean.virtual_seconds * 10.0,
            "KaffeOS stays consistent: {} vs {}",
            attacked.virtual_seconds,
            clean.virtual_seconds
        );
    }

    #[test]
    fn monolithic_crashes_under_memhog_but_finishes() {
        let attacked = run_servlet_experiment(params(Deployment::MonolithicShared, 3, true));
        assert_eq!(attacked.requests_served, 300, "requests eventually served");
        assert!(attacked.vm_restarts > 0, "whole VM crashed at least once");
        assert_eq!(
            attacked.restart_causes.get(ExitCause::Oom),
            u64::from(attacked.vm_restarts),
            "every whole-VM reboot traces to a typed OOM cause"
        );
        let clean = run_servlet_experiment(params(Deployment::MonolithicShared, 3, false));
        assert_eq!(clean.vm_restarts, 0);
        assert_eq!(clean.restart_causes.total(), 0);
        assert!(
            attacked.virtual_seconds > 2.0 * clean.virtual_seconds,
            "attack devastates the shared VM: {} vs {}",
            attacked.virtual_seconds,
            clean.virtual_seconds
        );
    }

    #[test]
    fn monolithic_is_fastest_when_everyone_behaves() {
        let mono = run_servlet_experiment(params(Deployment::MonolithicShared, 3, false));
        let kos = run_servlet_experiment(params(Deployment::KaffeOsProcs, 3, false));
        assert!(
            mono.virtual_seconds < kos.virtual_seconds,
            "IBM/n beats KaffeOS absent an attacker: {} vs {}",
            mono.virtual_seconds,
            kos.virtual_seconds
        );
    }

    #[test]
    fn vm_per_servlet_isolates_but_pays_startup() {
        let one = run_servlet_experiment(params(Deployment::VmPerServlet, 2, false));
        assert_eq!(one.requests_served, 300);
        let attacked = run_servlet_experiment(params(Deployment::VmPerServlet, 2, true));
        assert_eq!(attacked.requests_served, 300);
        assert_eq!(attacked.vm_restarts, 0, "only the hog's own JVM dies");
        assert_eq!(
            attacked.restart_causes.get(ExitCause::Oom),
            u64::from(attacked.memhog_restarts),
            "hog JVM reboots carry the typed OOM cause"
        );
    }
}

mod scenarios {
    use crate::scenario::{run_scenario, SCENARIOS};
    use kaffeos::ExitCause;

    #[test]
    fn every_scenario_is_deterministic_on_seed_one() {
        for name in SCENARIOS {
            let a = run_scenario(name, 1).expect("known scenario");
            let b = run_scenario(name, 1).expect("known scenario");
            assert_eq!(a.text, b.text, "{name} must replay byte-identically");
            assert!(
                a.tenants.iter().any(|t| t.stats.offered > 0),
                "{name} must offer load"
            );
        }
        assert!(run_scenario("no-such-scenario", 1).is_none());
    }

    #[test]
    fn noisy_neighbour_preserves_the_frontend_slo() {
        let r = run_scenario("noisy-neighbour", 1).unwrap();
        let fe = r.tenants.iter().find(|t| t.name == "frontend").unwrap();
        assert!(
            fe.goodput_permille >= 950,
            "frontend goodput {} ‰ under attack",
            fe.goodput_permille
        );
        assert!(
            fe.latency.p99() < 20_000_000,
            "frontend p99 {} cycles bounded despite the spinner",
            fe.latency.p99()
        );
        let abuser = r.tenants.iter().find(|t| t.name == "abuser").unwrap();
        assert!(
            abuser.stats.exits.get(ExitCause::CpuLimit) > 0,
            "the spinner is repeatedly stopped by its CPU limit"
        );
        assert!(abuser.stats.restarts > 0, "supervision restarts the abuser");
    }

    #[test]
    fn memhog_scenario_confines_the_hog_to_its_limit() {
        let r = run_scenario("memhog", 1).unwrap();
        let fe = r.tenants.iter().find(|t| t.name == "frontend").unwrap();
        assert!(
            fe.goodput_permille >= 950,
            "frontend goodput {} ‰ despite the hog",
            fe.goodput_permille
        );
        assert!(
            fe.latency.p99() < 40_000_000,
            "frontend p99 {} cycles bounded",
            fe.latency.p99()
        );
        assert_eq!(fe.stats.exits.get(ExitCause::Oom), 0, "hog OOM never leaks");
        let hog = r.tenants.iter().find(|t| t.name == "hog").unwrap();
        assert!(hog.stats.exits.get(ExitCause::Oom) > 0, "hog dies of OOM");
        assert!(hog.stats.restarts > 0, "supervision keeps restarting it");
    }

    #[test]
    fn exception_storm_trips_the_breaker_but_spares_the_neighbour() {
        let r = run_scenario("exception-storm", 1).unwrap();
        let flaky = r.tenants.iter().find(|t| t.name == "flaky").unwrap();
        assert!(flaky.stats.breaker_opens > 0, "storm opens the breaker");
        assert!(
            flaky.stats.rejected_breaker > 0,
            "open breaker sheds arrivals"
        );
        assert!(
            flaky.stats.exits.get(ExitCause::Exception) > 0,
            "the storm is made of typed exception exits"
        );
        let fe = r.tenants.iter().find(|t| t.name == "frontend").unwrap();
        assert!(
            fe.goodput_permille >= 990,
            "frontend goodput {} ‰ untouched by the storm",
            fe.goodput_permille
        );
    }

    #[test]
    fn shm_fanout_beats_private_copies_on_latency() {
        let r = run_scenario("shm-fanout", 1).unwrap();
        let fan = r.tenants.iter().find(|t| t.name == "fanout").unwrap();
        let copy = r.tenants.iter().find(|t| t.name == "copier").unwrap();
        assert!(fan.goodput_permille >= 990, "fan-out serves its load");
        assert!(copy.goodput_permille >= 990, "copier serves its load");
        assert!(
            fan.latency.p50() < copy.latency.p50(),
            "reading the shared table (p50 {}) beats rebuilding it (p50 {})",
            fan.latency.p50(),
            copy.latency.p50()
        );
    }

    #[test]
    fn kill_storm_restart_work_is_bounded_across_seeds() {
        for seed in [1u64, 2, 3, 5] {
            let r = run_scenario("kill-storm", seed).unwrap();
            let v = r.tenants.iter().find(|t| t.name == "victims").unwrap();
            // The spinners never exit cleanly, so the consecutive-failure
            // ladder is never reset: supervision performs at most
            // max_restarts (8) respawns no matter how hard the sweep kills.
            assert!(
                v.stats.restarts <= 8,
                "seed {seed}: {} restarts exceed the backoff budget",
                v.stats.restarts
            );
            assert!(
                v.stats.restarts_abandoned > 0 || v.stats.breaker_opens > 0,
                "seed {seed}: the storm must hit a policy bound"
            );
            assert!(
                v.stats.exits.get(ExitCause::Killed) > 0,
                "seed {seed}: the sweep kills victims"
            );
        }
    }

    #[test]
    fn admission_overload_rejects_the_flood_not_the_steady_tenant() {
        let r = run_scenario("admission-overload", 1).unwrap();
        let flood = r.tenants.iter().find(|t| t.name == "flood").unwrap();
        assert!(
            flood.stats.rejected_cap > 0,
            "the DoS ramp is clipped at the admission cap"
        );
        assert!(
            flood.goodput_permille < 800,
            "the flood cannot buy goodput past its cap"
        );
        let steady = r.tenants.iter().find(|t| t.name == "steady").unwrap();
        assert!(
            steady.goodput_permille >= 990,
            "steady tenant goodput {} ‰ unharmed by the flood",
            steady.goodput_permille
        );
        assert_eq!(steady.stats.rejected_cap, 0);
    }
}

/// The whole-program analysis of the bundled guests is pinned: escape
/// classes, virtual-site and store-elision counts, and no lock lint. The
/// lint keys themselves are pinned by `ci/lint-allowlist.txt`.
#[test]
fn bundled_guests_keep_their_escape_classes_and_lock_lints() {
    let report = crate::lint::lint_bundled();
    assert_eq!(
        report.verdicts,
        "verdicts: stores 32/82 elidable; virtual sites 52 monomorphic, 0 polymorphic; \
         alloc sites 10 frame-local, 3 process-local, 55 may-cross"
    );
    let lock_lint =
        |l: &String| l.starts_with("deadlock-candidate") || l.starts_with("lock-held-across-syscall");
    assert!(!report.lines.iter().any(lock_lint), "{:#?}", report.lines);
}
