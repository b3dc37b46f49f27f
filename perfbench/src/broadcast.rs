//! `broadcast-closed` and `broadcast-lossy`: the threaded runtime (nodes,
//! perfect link, collector) running `EagerReliable::uniform()` with n = 3,
//! k = 1.
//!
//! A run is a sequence of rounds. Each round starts a fleet, pushes a fixed
//! volume of broadcasts through it, waits until every broadcast was
//! delivered at all n processes, and shuts the fleet down under a watchdog.
//! The seed picks the broadcast contents, the senders' order and, on the
//! lossy workload, the fault plan's coin.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use camp_broadcast::EagerReliable;
use camp_faults::FaultPlan;
use camp_obs::Counters;
use camp_runtime::RuntimeError;
use camp_trace::{Action, ProcessId, Value};

use crate::layers;
use crate::spans;
use crate::{median, pass_percentile, percentile, Args, Report, SeedRng};

const N: usize = 3;
const K: usize = 1;
/// Closed loop: broadcasts each process keeps outstanding.
const OUTSTANDING_PER_PROCESS: usize = 16;
/// Closed loop: broadcasts per round.
const CLOSED_VOLUME: usize = 1_500;
/// Open loop: broadcasts per second and per round.
const LOSSY_RATE: f64 = 1_000.0;
const LOSSY_VOLUME: usize = 1_000;
/// Open loop: the fault plan drops this many frames per mille.
const LOSSY_DROP_PERMILLE: u16 = 100;
/// A broadcast not delivered everywhere this long after it was due fails.
const DEADLINE: Duration = Duration::from_secs(2);
/// A shutdown still running after this long fails the round.
const SHUTDOWN_LIMIT: Duration = Duration::from_secs(30);
/// Flight-recorder capacity of the traced run: far above what one round
/// records, so that nothing is evicted.
const RECORDER_CAPACITY: usize = 1 << 22;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Loop {
    /// `OUTSTANDING_PER_PROCESS` per process; the next broadcast of a
    /// process goes out when one of its own completes.
    Closed,
    /// Broadcast `i` is due at `i / LOSSY_RATE` seconds, whatever the
    /// fleet's state.
    Open,
}

/// What one round measured.
#[derive(Default)]
struct Round {
    setup_s: f64,
    wall_s: f64,
    shutdown_ms: f64,
    completed: usize,
    latencies_ms: Vec<f64>,
    enqueue_us: Vec<f64>,
    wait_s: f64,
    late_ms: Vec<f64>,
    counters: Counters,
    recorder_events: [u64; 3],
    recorder_dropped: u64,
    /// False when the round could not shut its fleet down.
    fleet_stopped: bool,
}

pub fn run_closed(args: &Args, report: &mut Report) -> Result<(), String> {
    run(args, report, Loop::Closed)
}

pub fn run_lossy(args: &Args, report: &mut Report) -> Result<(), String> {
    run(args, report, Loop::Open)
}

fn run(args: &Args, report: &mut Report, mode: Loop) -> Result<(), String> {
    let mut rng = SeedRng::new(args.seed);
    let started = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    let mut round_s = Vec::new();
    while crate::another_pass(started, &round_s, args.seconds) {
        report.host.sample(8);
        let t = Instant::now();
        let round = spans::span("bench", "bench.round", || {
            one_round(args, &mut rng, mode, rounds.len() as u64, report)
        });
        let stopped = round.fleet_stopped;
        rounds.push(round);
        round_s.push(t.elapsed().as_secs_f64());
        if !stopped {
            break;
        }
    }

    let all = |f: fn(&Round) -> &Vec<f64>| rounds.iter().flat_map(f).copied().collect::<Vec<_>>();
    let per = |f: fn(&Round) -> f64| rounds.iter().map(f).collect::<Vec<_>>();
    let enqueue = all(|r| &r.enqueue_us);
    let late = all(|r| &r.late_ms);
    report.set("setup_s", median(&per(|r| r.setup_s)), "s");
    report.set("wall_s", median(&per(|r| r.wall_s)), "s");
    report.set(
        "bcast_per_s",
        median(&per(|r| r.completed as f64 / r.wall_s)),
        "1/s",
    );
    report.set("shutdown_ms", median(&per(|r| r.shutdown_ms)), "ms");
    // Each round's percentiles, then their median: a round that stalls
    // would otherwise set the tail of the whole run.
    let latencies: Vec<Vec<f64>> = rounds.iter().map(|r| r.latencies_ms.clone()).collect();
    let samples: usize = latencies.iter().map(Vec::len).sum();
    if samples == 0 {
        return Err("no broadcast completed".into());
    }
    report.set("latency_p50_ms", pass_percentile(&latencies, 0.50), "ms");
    report.set("latency_p99_ms", pass_percentile(&latencies, 0.99), "ms");
    report.set("bench.latency_samples", samples as f64, "count");
    report.set("runtime.start_ms", median(&per(|r| r.setup_s)) * 1e3, "ms");
    report.set("runtime.broadcast_us_p99", percentile(&enqueue, 0.99), "us");
    report.set(
        "runtime.wait_share",
        median(&per(|r| r.wait_s / r.wall_s)),
        "ratio",
    );
    if mode == Loop::Open {
        let max_late = late.iter().copied().fold(0.0, f64::max);
        report.set("bench.generator_late_ms", max_late, "ms");
    }

    let mut total = Counters::new();
    for r in &rounds {
        total.merge(&r.counters);
    }
    // Link counts are per round (one fixed volume), so that they do not
    // depend on how many rounds fit in the measuring time.
    let per_round = rounds.len() as f64;
    let c = |k: &str| total.count(k) as f64 / per_round;
    report.set(
        "runtime.collector_deferred_max",
        total.gauge("runtime.collector_deferred_max") as f64,
        "count",
    );
    for key in [
        "perflink.transmissions",
        "perflink.retransmits",
        "perflink.acks_sent",
        "perflink.acks_received",
        "perflink.dup_suppressed",
        "perflink.backoff_ceiling_hits",
        "faults.drops_injected",
    ] {
        report.set(key, c(key), "count");
    }
    report.set(
        "perflink.retransmit_ratio",
        c("perflink.retransmits") / c("perflink.transmissions").max(1.0),
        "ratio",
    );
    let completed = rounds.iter().map(|r| r.completed).sum::<usize>() as f64 / per_round;
    report.set(
        "perflink.frames_per_bcast",
        (c("perflink.transmissions") + c("perflink.acks_sent")) / completed.max(1.0),
        "count",
    );
    if args.trace {
        for (i, layer) in ["node", "perflink", "collector"].iter().enumerate() {
            let events: u64 = rounds.iter().map(|r| r.recorder_events[i]).sum();
            report.set(
                format!("recorder.{layer}_events"),
                events as f64 / per_round,
                "count",
            );
        }
        let dropped: u64 = rounds.iter().map(|r| r.recorder_dropped).sum();
        report.set("recorder.dropped", dropped as f64, "count");
    }
    Ok(())
}

/// Per-broadcast bookkeeping of one round.
struct Ledger {
    base: u64,
    volume: usize,
    due: Vec<Option<Instant>>,
    delivered_at: Vec<[bool; N]>,
    deliveries: Vec<u8>,
    done: Vec<bool>,
    /// Issued broadcasts in issue order; completed ones are skipped lazily.
    outstanding: VecDeque<usize>,
}

impl Ledger {
    fn oldest_outstanding(&mut self) -> Option<Instant> {
        while let Some(&i) = self.outstanding.front() {
            if self.done[i] {
                self.outstanding.pop_front();
            } else {
                return self.due[i];
            }
        }
        None
    }
}

fn one_round(args: &Args, rng: &mut SeedRng, mode: Loop, round: u64, report: &mut Report) -> Round {
    let mut out = Round::default();
    let (plan, volume) = match mode {
        Loop::Closed => (FaultPlan::healthy(), CLOSED_VOLUME),
        Loop::Open => (
            FaultPlan::lossy(
                args.seed.wrapping_mul(1000).wrapping_add(round),
                LOSSY_DROP_PERMILLE,
            ),
            LOSSY_VOLUME,
        ),
    };
    // Senders: the closed loop gives each process an equal quota; the open
    // loop draws each broadcast's sender.
    let senders: Vec<ProcessId> = (0..volume)
        .map(|i| match mode {
            Loop::Closed => ProcessId::new(i % N + 1),
            Loop::Open => ProcessId::new(rng.below(N) + 1),
        })
        .collect();
    let mut ledger = Ledger {
        base: (rng.next_u64() >> 24) << 20,
        volume,
        due: vec![None; volume],
        delivered_at: vec![[false; N]; volume],
        deliveries: vec![0; volume],
        done: vec![false; volume],
        outstanding: VecDeque::new(),
    };

    let t = Instant::now();
    let mut rt = layers::runtime_start(
        EagerReliable::uniform(),
        N,
        K,
        plan,
        args.trace.then_some(RECORDER_CAPACITY),
    );
    out.setup_s = t.elapsed().as_secs_f64();
    let recorder = rt.recorder().cloned();

    // Closed loop: per-process queues of the broadcasts still to issue.
    let mut queues: Vec<VecDeque<usize>> = vec![VecDeque::new(); N];
    for (i, p) in senders.iter().enumerate() {
        queues[p.index()].push_back(i);
    }
    let mut issue_order: Vec<usize> = Vec::new();
    for _ in 0..OUTSTANDING_PER_PROCESS {
        let mut ps: Vec<usize> = (0..N).collect();
        rng.shuffle(&mut ps);
        issue_order.extend(ps);
    }

    let start = Instant::now();
    let mut failed = false;
    let issue = |rt: &camp_runtime::ThreadedRuntime,
                 i: usize,
                 due: Instant,
                 ledger: &mut Ledger,
                 out: &mut Round|
     -> bool {
        let t = Instant::now();
        let ok =
            layers::runtime_broadcast(rt, senders[i], Value::new(ledger.base + i as u64)).is_ok();
        out.enqueue_us.push(t.elapsed().as_secs_f64() * 1e6);
        if mode == Loop::Open {
            out.late_ms
                .push(t.saturating_duration_since(due).as_secs_f64() * 1e3);
        }
        ledger.due[i] = Some(due);
        ledger.outstanding.push_back(i);
        ok
    };
    let mut next_open = 0usize;
    if mode == Loop::Closed {
        for p in issue_order {
            if let Some(i) = queues[p].pop_front() {
                let now = Instant::now();
                if !issue(&rt, i, now, &mut ledger, &mut out) {
                    failed = true;
                }
            }
        }
    }
    let open_due = |i: usize| start + Duration::from_secs_f64(i as f64 / LOSSY_RATE);
    let mut last_completion = start;

    while !failed && out.completed < volume {
        let now = Instant::now();
        if mode == Loop::Open && next_open < volume && now >= open_due(next_open) {
            let due = open_due(next_open);
            if !issue(&rt, next_open, due, &mut ledger, &mut out) {
                failed = true;
            }
            next_open += 1;
            continue;
        }
        let deadline = ledger.oldest_outstanding().map(|d| d + DEADLINE);
        if deadline.is_some_and(|d| now >= d) {
            break;
        }
        let mut wake = deadline.unwrap_or(now + DEADLINE);
        if mode == Loop::Open && next_open < volume {
            wake = wake.min(open_due(next_open));
        }
        let t = Instant::now();
        let got = layers::runtime_wait(&mut rt, 1, wake.saturating_duration_since(now));
        out.wait_s += t.elapsed().as_secs_f64();
        let batch = match got {
            Ok(batch) => batch,
            Err(RuntimeError::Timeout { .. }) => continue,
            Err(e) => {
                report.check(false, || format!("delivery stream: {e}"));
                break;
            }
        };
        let at = Instant::now();
        for d in batch {
            let i = d.msg.content.raw().wrapping_sub(ledger.base) as usize;
            let p = d.process.index();
            if i >= ledger.volume || ledger.due[i].is_none() || ledger.delivered_at[i][p] {
                report.check(false, || format!("unexpected or duplicate delivery {d:?}"));
                failed = true;
                continue;
            }
            ledger.delivered_at[i][p] = true;
            ledger.deliveries[i] += 1;
            if usize::from(ledger.deliveries[i]) == N {
                ledger.done[i] = true;
                out.completed += 1;
                last_completion = at;
                let due = ledger.due[i].expect("checked above");
                out.latencies_ms
                    .push(at.duration_since(due).as_secs_f64() * 1e3);
                if mode == Loop::Closed {
                    if let Some(next) = queues[senders[i].index()].pop_front() {
                        if !issue(&rt, next, Instant::now(), &mut ledger, &mut out) {
                            failed = true;
                        }
                    }
                }
            }
        }
    }
    out.wall_s = last_completion
        .duration_since(start)
        .as_secs_f64()
        .max(1e-9);
    // Every broadcast of the round is one attempted operation; those not
    // delivered exactly once everywhere before their deadline failed.
    let missing = volume - out.completed;
    report.attempted += out.completed as u64;
    for _ in 0..missing {
        report.check(false, || "broadcast missed its delivery deadline".into());
    }

    let t = Instant::now();
    let Some((exec, counters, _timeline)) = layers::runtime_shutdown(rt, SHUTDOWN_LIMIT) else {
        report.check(false, || {
            format!("shutdown still running after {SHUTDOWN_LIMIT:?}")
        });
        out.shutdown_ms = t.elapsed().as_secs_f64() * 1e3;
        return out;
    };
    out.shutdown_ms = t.elapsed().as_secs_f64() * 1e3;
    out.fleet_stopped = true;
    out.counters = counters;

    // Outside the timed regions: the recorded trace must be safe, and must
    // hold exactly n deliveries of every broadcast.
    let safety = layers::specs_runtime_safety(&exec);
    report.check(safety.is_ok(), || format!("trace safety: {safety:?}"));
    let delivers = exec
        .steps()
        .iter()
        .filter(|s| matches!(s.action, Action::Deliver { .. }))
        .count();
    report.check(delivers == volume * N, || {
        format!("trace holds {delivers} deliveries, want {}", volume * N)
    });
    if let Some(rec) = recorder {
        out.recorder_dropped = rec.dropped();
        report.check(rec.dropped() == 0, || {
            format!("flight recorder dropped {} events", rec.dropped())
        });
        for ev in rec.events() {
            let slot = if ev.name.starts_with("node.") {
                0
            } else if ev.name.starts_with("perflink.") {
                1
            } else {
                2
            };
            out.recorder_events[slot] += 1;
        }
    }
    out
}
