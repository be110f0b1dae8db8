//! Multi-tenant SLO scenarios: open-loop arrival curves driven against
//! the kernel's admission controller, restart engine, and circuit
//! breaker, producing a per-tenant SLO report (latency percentiles,
//! goodput, kills, rejections, restarts) that is a **pure function of
//! (scenario, seed)** — byte-identical across runs and platforms.
//!
//! The driver is open-loop: requests arrive on a virtual-time schedule
//! whether or not the system keeps up, which is what makes overload
//! visible (queues fill, admissions reject, latency tails grow) instead
//! of the load generator politely backing off. Each request is one
//! process spawned through `spawn_for_tenant`; its SLO latency is the
//! span from its *scheduled arrival* to its exit, so queueing delay
//! counts against the tenant exactly as a client would experience it.

use kaffeos::{
    Admission, ExitStatus, FaultPlan, KaffeOs, KaffeOsConfig, OverloadPolicy, Pid, SpawnOpts,
    TenantId, TenantPolicy, TenantStats,
};
use kaffeos_trace::hist::LogHistogram;

use crate::servlet::MEMHOG_SOURCE;

/// Open-loop arrival schedule: the inter-arrival interval as a pure
/// function of virtual time, so every curve replays exactly.
#[derive(Debug, Clone, Copy)]
pub enum ArrivalCurve {
    /// Constant inter-arrival interval.
    Steady {
        /// Cycles between arrivals.
        interval: u64,
    },
    /// Triangle-wave load: the interval sweeps from `max_interval`
    /// (off-peak) down to `min_interval` (peak) and back over `period`.
    Diurnal {
        /// Peak-load inter-arrival interval.
        min_interval: u64,
        /// Off-peak inter-arrival interval.
        max_interval: u64,
        /// Full wave period in cycles.
        period: u64,
    },
    /// Periodic bursts: `burst_interval` for the first `burst_len`
    /// cycles of every `period`, `base_interval` otherwise.
    Burst {
        /// Quiet-phase inter-arrival interval.
        base_interval: u64,
        /// Burst-phase inter-arrival interval.
        burst_interval: u64,
        /// Burst duration per period, in cycles.
        burst_len: u64,
        /// Period in cycles.
        period: u64,
    },
    /// Denial-of-service ramp: the interval starts at `start_interval`
    /// and halves every `halve_every` cycles down to `floor_interval`.
    Dos {
        /// Initial inter-arrival interval.
        start_interval: u64,
        /// Terminal (fastest) inter-arrival interval.
        floor_interval: u64,
        /// Cycles per halving step.
        halve_every: u64,
    },
}

impl ArrivalCurve {
    /// Inter-arrival interval in effect at virtual time `t` (never 0).
    pub fn interval_at(&self, t: u64) -> u64 {
        match *self {
            ArrivalCurve::Steady { interval } => interval.max(1),
            ArrivalCurve::Diurnal {
                min_interval,
                max_interval,
                period,
            } => {
                let period = period.max(2);
                let half = period / 2;
                let pos = t % period;
                let toward_peak = if pos < half { pos } else { period - pos };
                let span = max_interval.saturating_sub(min_interval);
                (max_interval - span * toward_peak / half).max(1)
            }
            ArrivalCurve::Burst {
                base_interval,
                burst_interval,
                burst_len,
                period,
            } => {
                if t % period.max(1) < burst_len {
                    burst_interval.max(1)
                } else {
                    base_interval.max(1)
                }
            }
            ArrivalCurve::Dos {
                start_interval,
                floor_interval,
                halve_every,
            } => {
                let steps = (t / halve_every.max(1)).min(63) as u32;
                (start_interval >> steps).max(floor_interval).max(1)
            }
        }
    }
}

/// How a request tenant derives each spawn's argument string.
#[derive(Debug, Clone, Copy)]
enum ArgMode {
    /// Same argument for every request.
    Fixed(&'static str),
    /// The request's 0-based issue index.
    Index,
}

/// A tenant whose load is a stream of request processes on a curve.
struct RequestTenantSpec {
    name: &'static str,
    policy: TenantPolicy,
    image: &'static str,
    args: ArgMode,
    opts: SpawnOpts,
    curve: ArrivalCurve,
}

/// A tenant whose load is long-running supervised replicas.
struct ServiceTenantSpec {
    name: &'static str,
    policy: TenantPolicy,
    image: &'static str,
    args: &'static str,
    opts: SpawnOpts,
    replicas: u32,
}

/// One scenario definition: kernel setup plus tenant population.
struct Setup {
    images: Vec<(&'static str, &'static str)>,
    shared_sources: Vec<&'static str>,
    faults: Option<FaultPlan>,
    overload: Option<OverloadPolicy>,
    services: Vec<ServiceTenantSpec>,
    requests: Vec<RequestTenantSpec>,
    /// Virtual cycle at which arrivals stop.
    end: u64,
}

/// Per-tenant SLO summary, the structured form of one report block.
#[derive(Debug, Clone)]
pub struct TenantSummary {
    /// Tenant name.
    pub name: String,
    /// Kernel-side counters (admissions, rejections, restarts, exits).
    pub stats: TenantStats,
    /// Requests that ran to completion (any cause).
    pub completed: u64,
    /// Requests that completed successfully (clean exit, code ≥ 0).
    pub good: u64,
    /// `good * 1000 / offered` (0 when nothing was offered).
    pub goodput_permille: u64,
    /// Arrival→exit latency of completed requests, in cycles.
    pub latency: LogHistogram,
}

/// One scenario run: the golden report text plus structured summaries.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// Scenario name.
    pub name: &'static str,
    /// Seed the run derived from.
    pub seed: u64,
    /// Deterministic key=value report (byte-identical per (name, seed)).
    pub text: String,
    /// Per-tenant summaries, in tenant-creation order.
    pub tenants: Vec<TenantSummary>,
}

/// Names of every scenario, in running order.
pub const SCENARIOS: &[&str] = &[
    "noisy-neighbour",
    "memhog",
    "exception-storm",
    "shm-fanout",
    "kill-storm",
    "admission-overload",
];

/// Idle grace after `end` for in-flight requests to finish.
const DRAIN_CYCLES: u64 = 100_000_000;

/// One-request servlet: bounded dynamic-content work, clean exit.
const PAGE_SOURCE: &str = r#"
class Main {
    static int main(int i) {
        int[] rows = new int[64];
        for (int j = 0; j < rows.len(); j = j + 1) {
            rows[j] = (i * 37 + j * 101) % 997;
        }
        for (int a = 1; a < rows.len(); a = a + 1) {
            int key = rows[a];
            int b = a - 1;
            while (b >= 0 && rows[b] > key) {
                rows[b + 1] = rows[b];
                b = b - 1;
            }
            rows[b + 1] = key;
        }
        StringBuilder b = new StringBuilder();
        b.add("<html><body><h1>page ");
        b.add("" + i);
        b.add("</h1>");
        for (int j = 0; j < 16; j = j + 1) {
            b.add("<p>row " + rows[j] + "</p>");
        }
        b.add("</body></html>");
        String page = b.build();
        if (page.len() < 20) { return 1 / 0; }
        return 0;
    }
}
"#;

/// CPU abuser: spins forever; only a CPU limit stops it.
const SPIN_SOURCE: &str = "class Spin { static int main() { while (true) { } return 0; } }";

/// Request that throws an uncaught exception on every third index.
const FLAKY_SOURCE: &str = r#"
class Main {
    static int main(int i) {
        if (i % 3 == 2) {
            int[] a = new int[1];
            return a[9];
        }
        int acc = 0;
        for (int j = 0; j < 400; j = j + 1) {
            acc = acc + (i + j) * 7 % 31;
        }
        return 0;
    }
}
"#;

/// Shared-heap feeder: publishes a 64-slot `Cell` table, then idles on a
/// paced NIC so it stays alive without burning CPU or deadlocking the
/// scheduler (timed parks feed the idle fast-forward).
const FEEDER_SOURCE: &str = r#"
class Main {
    static int main() {
        Shm.create("feed", "Cell", 64);
        for (int i = 0; i < 64; i = i + 1) {
            Cell c = Shm.get("feed", i) as Cell;
            c.value = i * 17;
        }
        while (true) {
            Net.send(1000);
        }
        return 0;
    }
}
"#;

/// Fan-out reader: attaches to the shared table and consumes it in place.
const FAN_SOURCE: &str = r#"
class Main {
    static int main() {
        if (Shm.lookup("feed") < 0) { return 1 / 0; }
        int acc = 0;
        for (int i = 0; i < 64; i = i + 1) {
            Cell c = Shm.get("feed", i) as Cell;
            acc = acc + c.value;
        }
        if (acc < 0) { return 1 / 0; }
        return 0;
    }
}
"#;

/// Copy baseline: rebuilds the same table privately on every request.
const COPY_SOURCE: &str = r#"
class Main {
    static int main() {
        int acc = 0;
        for (int r = 0; r < 8; r = r + 1) {
            int[] local = new int[64];
            for (int i = 0; i < 64; i = i + 1) {
                local[i] = i * 17;
            }
            for (int i = 0; i < 64; i = i + 1) {
                acc = acc + local[i];
            }
        }
        if (acc < 0) { return 1 / 0; }
        return 0;
    }
}
"#;

fn base_policy() -> TenantPolicy {
    TenantPolicy {
        max_procs: 8,
        queue_capacity: 16,
        ..TenantPolicy::default()
    }
}

fn steady(interval: u64) -> ArrivalCurve {
    ArrivalCurve::Steady { interval }
}

fn page_tenant(name: &'static str, curve: ArrivalCurve) -> RequestTenantSpec {
    RequestTenantSpec {
        name,
        policy: base_policy(),
        image: "page",
        args: ArgMode::Index,
        opts: SpawnOpts {
            mem_limit: Some(2 << 20),
            ..SpawnOpts::default()
        },
        curve,
    }
}

fn setup_for(name: &str, seed: u64) -> Option<Setup> {
    let page = ("page", PAGE_SOURCE);
    match name {
        "noisy-neighbour" => Some(Setup {
            images: vec![page, ("spin", SPIN_SOURCE)],
            shared_sources: vec![],
            faults: None,
            overload: None,
            services: vec![ServiceTenantSpec {
                name: "abuser",
                policy: TenantPolicy {
                    max_procs: 2,
                    restart: kaffeos::RestartPolicy {
                        restart_on_failure: true,
                        max_restarts: 32,
                        backoff_base: 4_000_000,
                        backoff_cap: 32_000_000,
                        breaker_threshold: 0,
                        ..kaffeos::RestartPolicy::default()
                    },
                    ..base_policy()
                },
                image: "spin",
                args: "",
                opts: SpawnOpts {
                    cpu_limit: Some(8_000_000),
                    cpu_share: 50,
                    mem_limit: Some(1 << 20),
                    ..SpawnOpts::default()
                },
                replicas: 2,
            }],
            requests: vec![page_tenant("frontend", steady(2_500_000))],
            end: 250_000_000,
        }),
        "memhog" => Some(Setup {
            images: vec![page, ("memhog", MEMHOG_SOURCE)],
            shared_sources: vec![],
            faults: None,
            overload: None,
            services: vec![ServiceTenantSpec {
                name: "hog",
                policy: TenantPolicy {
                    max_procs: 1,
                    restart: kaffeos::RestartPolicy {
                        restart_on_failure: true,
                        max_restarts: 64,
                        backoff_base: 2_000_000,
                        backoff_cap: 16_000_000,
                        breaker_threshold: 0,
                        ..kaffeos::RestartPolicy::default()
                    },
                    ..base_policy()
                },
                image: "memhog",
                args: "",
                opts: SpawnOpts {
                    mem_limit: Some(4 << 20),
                    ..SpawnOpts::default()
                },
                replicas: 1,
            }],
            requests: vec![page_tenant("frontend", steady(2_500_000))],
            end: 250_000_000,
        }),
        "exception-storm" => Some(Setup {
            images: vec![page, ("flaky", FLAKY_SOURCE)],
            shared_sources: vec![],
            faults: None,
            overload: None,
            services: vec![],
            requests: vec![
                page_tenant("frontend", steady(3_000_000)),
                RequestTenantSpec {
                    name: "flaky",
                    policy: TenantPolicy {
                        restart: kaffeos::RestartPolicy {
                            breaker_threshold: 6,
                            breaker_window: 40_000_000,
                            breaker_cooldown: 30_000_000,
                            ..kaffeos::RestartPolicy::default()
                        },
                        ..base_policy()
                    },
                    image: "flaky",
                    args: ArgMode::Index,
                    opts: SpawnOpts {
                        mem_limit: Some(2 << 20),
                        ..SpawnOpts::default()
                    },
                    curve: steady(1_500_000),
                },
            ],
            end: 250_000_000,
        }),
        "shm-fanout" => Some(Setup {
            images: vec![
                ("feeder", FEEDER_SOURCE),
                ("fan", FAN_SOURCE),
                ("copy", COPY_SOURCE),
            ],
            shared_sources: vec!["class Cell { int value; }"],
            faults: None,
            overload: None,
            services: vec![ServiceTenantSpec {
                name: "feeder",
                policy: base_policy(),
                image: "feeder",
                args: "",
                opts: SpawnOpts {
                    net_bps: Some(10_000),
                    mem_limit: Some(2 << 20),
                    ..SpawnOpts::default()
                },
                replicas: 1,
            }],
            requests: vec![
                RequestTenantSpec {
                    name: "fanout",
                    policy: base_policy(),
                    image: "fan",
                    args: ArgMode::Fixed(""),
                    opts: SpawnOpts {
                        mem_limit: Some(2 << 20),
                        ..SpawnOpts::default()
                    },
                    curve: steady(2_500_000),
                },
                RequestTenantSpec {
                    name: "copier",
                    policy: base_policy(),
                    image: "copy",
                    args: ArgMode::Fixed(""),
                    opts: SpawnOpts {
                        mem_limit: Some(2 << 20),
                        ..SpawnOpts::default()
                    },
                    curve: steady(2_500_000),
                },
            ],
            end: 250_000_000,
        }),
        "kill-storm" => {
            let mut plan = FaultPlan::quiet(seed);
            plan.kill_sweep = true;
            Some(Setup {
                images: vec![page, ("spin", SPIN_SOURCE)],
                shared_sources: vec![],
                faults: Some(plan),
                overload: None,
                services: vec![ServiceTenantSpec {
                    name: "victims",
                    policy: TenantPolicy {
                        max_procs: 3,
                        restart: kaffeos::RestartPolicy {
                            restart_on_failure: true,
                            max_restarts: 8,
                            backoff_base: 2_000_000,
                            backoff_cap: 32_000_000,
                            breaker_threshold: 4,
                            breaker_window: 50_000_000,
                            breaker_cooldown: 60_000_000,
                        },
                        ..base_policy()
                    },
                    image: "spin",
                    args: "",
                    opts: SpawnOpts {
                        cpu_limit: Some(50_000_000),
                        mem_limit: Some(1 << 20),
                        ..SpawnOpts::default()
                    },
                    replicas: 3,
                }],
                requests: vec![page_tenant("frontend", steady(4_000_000))],
                end: 200_000_000,
            })
        }
        "admission-overload" => Some(Setup {
            images: vec![page],
            shared_sources: vec![],
            faults: None,
            overload: None,
            services: vec![],
            requests: vec![
                page_tenant("steady", steady(3_000_000)),
                RequestTenantSpec {
                    name: "flood",
                    policy: TenantPolicy {
                        max_procs: 2,
                        queue_capacity: 4,
                        ..base_policy()
                    },
                    image: "page",
                    args: ArgMode::Index,
                    opts: SpawnOpts {
                        mem_limit: Some(2 << 20),
                        ..SpawnOpts::default()
                    },
                    curve: ArrivalCurve::Dos {
                        start_interval: 4_000_000,
                        floor_interval: 150_000,
                        halve_every: 40_000_000,
                    },
                },
            ],
            end: 250_000_000,
        }),
        _ => None,
    }
}

/// An in-flight request tenant while the driver runs.
struct LiveRequestTenant {
    tenant: TenantId,
    image: &'static str,
    args: ArgMode,
    opts: SpawnOpts,
    curve: ArrivalCurve,
    next: u64,
    issued: u64,
}

/// Per-tenant SLO accumulator.
#[derive(Default)]
struct Acc {
    completed: u64,
    good: u64,
    latency: LogHistogram,
}

/// Runs one named scenario for one seed; `None` for unknown names.
pub fn run_scenario(name: &str, seed: u64) -> Option<ScenarioReport> {
    let canonical = SCENARIOS.iter().find(|&&s| s == name)?;
    let setup = setup_for(canonical, seed)?;
    Some(drive(canonical, seed, setup))
}

fn drive(name: &'static str, seed: u64, setup: Setup) -> ScenarioReport {
    let mut os = KaffeOs::new(KaffeOsConfig::default());
    for src in &setup.shared_sources {
        os.load_shared_source(src).expect("shared source compiles");
    }
    for (img, src) in &setup.images {
        os.register_image(img, src).expect("scenario image compiles");
    }
    if let Some(plan) = setup.faults {
        os.install_faults(plan);
    }
    os.set_overload_policy(setup.overload);

    let mut names: Vec<&'static str> = Vec::new();
    let mut service_tenants: Vec<TenantId> = Vec::new();
    for svc in &setup.services {
        let t = os.create_tenant(svc.policy);
        names.push(svc.name);
        service_tenants.push(t);
        for _ in 0..svc.replicas {
            // Service replicas go through admission like everyone else;
            // a failed boot surfaces in the tenant's stats.
            let _ = os.spawn_for_tenant(t, svc.image, svc.args, svc.opts);
        }
    }
    // Seed-derived phase offset: different seeds shift every arrival
    // schedule, giving each seed a genuinely different interleaving.
    let phase = (seed % 7) * 100_000;
    let mut reqs: Vec<LiveRequestTenant> = Vec::new();
    for (i, spec) in setup.requests.iter().enumerate() {
        let t = os.create_tenant(spec.policy);
        names.push(spec.name);
        reqs.push(LiveRequestTenant {
            tenant: t,
            image: spec.image,
            args: spec.args,
            opts: spec.opts,
            curve: spec.curve,
            next: 5_000_000 + phase + i as u64 * 333_333,
            issued: 0,
        });
    }
    let tenant_count = names.len();
    let mut accs: Vec<Acc> = (0..tenant_count).map(|_| Acc::default()).collect();
    // (pid, tenant, scheduled arrival) of every in-flight request.
    let mut outstanding: Vec<(Pid, TenantId, u64)> = Vec::new();
    // (tenant, ticket, scheduled arrival) of queued admissions.
    let mut ticketed: Vec<(TenantId, u64, u64)> = Vec::new();

    // Arrival loop: issue due arrivals, run to the next event, harvest.
    loop {
        let now = os.clock();
        if now >= setup.end {
            break;
        }
        for rt in &mut reqs {
            while rt.next <= now && rt.next < setup.end {
                let arrival = rt.next;
                let args = match rt.args {
                    ArgMode::Fixed(s) => s.to_string(),
                    ArgMode::Index => rt.issued.to_string(),
                };
                rt.issued += 1;
                rt.next += rt.curve.interval_at(rt.next);
                match os.spawn_for_tenant(rt.tenant, rt.image, &args, rt.opts) {
                    Ok(Admission::Admitted(pid)) => {
                        outstanding.push((pid, rt.tenant, arrival));
                    }
                    Ok(Admission::Queued { ticket }) => {
                        ticketed.push((rt.tenant, ticket, arrival));
                    }
                    Err(_) => {} // typed and tallied in TenantStats
                }
            }
        }
        let next_arrival = reqs
            .iter()
            .map(|rt| rt.next)
            .filter(|&t| t < setup.end)
            .min()
            .unwrap_or(setup.end)
            .min(setup.end);
        os.run_until_exit(Some(next_arrival));
        harvest(&mut os, &mut outstanding, &mut ticketed, &mut accs, true);
        // Idle stall (nothing runnable, nothing timed): jump to the next
        // arrival so the open-loop schedule keeps its promises.
        if os.clock() < next_arrival {
            os.advance_clock_to(next_arrival);
        }
    }

    // Drain: no new arrivals; let in-flight requests finish.
    let drain_deadline = setup.end + DRAIN_CYCLES;
    while !outstanding.is_empty() || !ticketed.is_empty() {
        let before_clock = os.clock();
        if before_clock >= drain_deadline {
            break;
        }
        let before_work = outstanding.len() + ticketed.len();
        os.run_until_exit(Some(drain_deadline));
        harvest(&mut os, &mut outstanding, &mut ticketed, &mut accs, true);
        if os.clock() == before_clock && outstanding.len() + ticketed.len() == before_work {
            break; // wedged on something non-clock-driven
        }
    }

    // Teardown: kill services and whatever outlived the drain; their
    // exits are tallied (as kills) but record no latency.
    for &t in &service_tenants {
        for pid in os.tenant_live_pids(t) {
            let _ = os.kill(pid);
        }
    }
    for &(pid, _, _) in &outstanding {
        let _ = os.kill(pid);
    }
    os.run(Some(os.clock() + 50_000_000));
    harvest(&mut os, &mut outstanding, &mut ticketed, &mut accs, false);

    // Report: all-integer key=value text, tenants in creation order.
    use std::fmt::Write as _;
    let mut text = String::new();
    let _ = writeln!(text, "scenario={name} seed={seed}");
    let _ = writeln!(text, "end={} clock={}", setup.end, os.clock());
    let mut tenants = Vec::new();
    for (i, &tname) in names.iter().enumerate() {
        let t = TenantId(i as u32);
        let stats = *os.tenant_stats(t).expect("tenant exists");
        let acc = &accs[i];
        let goodput = (acc.good * 1000).checked_div(stats.offered).unwrap_or(0);
        let _ = writeln!(text, "tenant={tname}");
        let _ = writeln!(
            text,
            "  offered={} admitted={} queued={} rejected_cap={} rejected_breaker={} \
             rejected_shed={} spawn_failures={} restarts={} restarts_abandoned={} \
             breaker_opens={} sheds={}",
            stats.offered,
            stats.admitted,
            stats.queued,
            stats.rejected_cap,
            stats.rejected_breaker,
            stats.rejected_shed,
            stats.spawn_failures,
            stats.restarts,
            stats.restarts_abandoned,
            stats.breaker_opens,
            stats.sheds,
        );
        let _ = writeln!(text, "  exits {}", stats.exits.render());
        // `minor_gcs=0` stays because the e2e digest pins report bytes.
        let _ = writeln!(
            text,
            "  heap bytes_reaped={} objects_reaped={} gcs={} minor_gcs=0",
            stats.heap_bytes_reaped, stats.heap_objects_reaped, stats.heap_gcs,
        );
        let _ = writeln!(
            text,
            "  completed={} good={} goodput_permille={goodput}",
            acc.completed, acc.good
        );
        let _ = writeln!(
            text,
            "  latency count={} min={} p50={} p99={} p999={} max={}",
            acc.latency.count(),
            acc.latency.min(),
            acc.latency.p50(),
            acc.latency.p99(),
            acc.latency.p999(),
            acc.latency.max(),
        );
        tenants.push(TenantSummary {
            name: tname.to_string(),
            stats,
            completed: acc.completed,
            good: acc.good,
            goodput_permille: goodput,
            latency: acc.latency.clone(),
        });
    }
    ScenarioReport {
        name,
        seed,
        text,
        tenants,
    }
}

/// Resolves queued-admission launches to their arrival times and folds
/// finished requests into the per-tenant accumulators.
fn harvest(
    os: &mut KaffeOs,
    outstanding: &mut Vec<(Pid, TenantId, u64)>,
    ticketed: &mut Vec<(TenantId, u64, u64)>,
    accs: &mut [Acc],
    record_latency: bool,
) {
    for launch in os.drain_tenant_launches() {
        let Some(ticket) = launch.ticket else {
            continue; // supervised restart, not a request
        };
        if let Some(pos) = ticketed
            .iter()
            .position(|&(t, k, _)| t == launch.tenant && k == ticket)
        {
            let (_, _, arrival) = ticketed.remove(pos);
            outstanding.push((launch.pid, launch.tenant, arrival));
        }
    }
    let now = os.clock();
    let mut still = Vec::with_capacity(outstanding.len());
    for (pid, tenant, arrival) in outstanding.drain(..) {
        if os.is_alive(pid) {
            still.push((pid, tenant, arrival));
            continue;
        }
        let acc = &mut accs[tenant.0 as usize];
        acc.completed += 1;
        if matches!(os.status(pid), Some(ExitStatus::Exited(code)) if code >= 0) {
            acc.good += 1;
        }
        if record_latency {
            acc.latency.record(now.saturating_sub(arrival));
        }
    }
    *outstanding = still;
}
