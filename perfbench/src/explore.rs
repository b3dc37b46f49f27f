//! `explore`: exhaustive, untruncated verification of the four committed
//! model-checker scopes through the sequential engine, plus (traced run) the
//! sim-layer operations timed on a seeded sample of reachable states of the
//! same scopes.
//!
//! The scopes are fixed; the seed orders them within each pass and picks
//! the sampled states.

use std::cell::RefCell;
use std::time::{Duration, Instant};

use camp_broadcast::{AgreedBroadcast, CausalBroadcast, EagerReliable, FifoBroadcast};
use camp_modelcheck::crashsweep::SweepOutcome;
use camp_modelcheck::{ExploreOutcome, Sensitivity};
use camp_obs::Counters;
use camp_sim::canonical::CertStore;
use camp_sim::scheduler::Workload;
use camp_sim::{BroadcastAlgorithm, FirstProposalRule, KsaOracle, OwnValueRule, Simulation};
use camp_specs::{base, BroadcastSpec, CausalSpec, FifoSpec, SpecResult, TotalOrderSpec};
use camp_trace::{Execution, ProcessId, Value};

use crate::layers::{self, SimEvent};
use crate::spans;
use crate::{fastest, fastest_each, median, percentile, Args, HostSpeed, Report, SeedRng};

/// Sampled reachable states per scope for the sim-layer timings.
const SAMPLE_PER_SCOPE: usize = 256;

/// Calibration kernel calls before every scope.
const HOST_SAMPLES_PER_SCOPE: usize = 8;

/// Inside a scope, one calibration kernel call at the first checked
/// execution after this long, so that every part of a pass has kernel
/// timings from the same second of the run (about 4 % of a pass).
const HOST_SAMPLE_EVERY: Duration = Duration::from_millis(25);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scope {
    Fifo2x2,
    CausalN3,
    AgreedN2,
    CrashsweepN3,
}

const SCOPES: [Scope; 4] = [
    Scope::Fifo2x2,
    Scope::CausalN3,
    Scope::AgreedN2,
    Scope::CrashsweepN3,
];

impl Scope {
    fn name(self) -> &'static str {
        match self {
            Scope::Fifo2x2 => "fifo_2x2",
            Scope::CausalN3 => "causal_n3",
            Scope::AgreedN2 => "agreed_n2",
            Scope::CrashsweepN3 => "crashsweep_n3",
        }
    }

    fn n(self) -> usize {
        match self {
            Scope::Fifo2x2 | Scope::AgreedN2 => 2,
            Scope::CausalN3 | Scope::CrashsweepN3 => 3,
        }
    }
}

/// What set-up builds: certificates and the scope templates and workloads.
struct Setup {
    certs: CertStore,
    fifo: Simulation<FifoBroadcast>,
    causal: Simulation<CausalBroadcast>,
    agreed: Simulation<AgreedBroadcast>,
    reliable: Simulation<EagerReliable>,
    fifo_wl: Workload,
    causal_wl: Workload,
    agreed_wl: Workload,
    sweep_wl: Workload,
}

/// Seeded reachable states of each scope, for the sim-layer timings.
struct Samples {
    fifo: Vec<Simulation<FifoBroadcast>>,
    causal: Vec<Simulation<CausalBroadcast>>,
    agreed: Vec<Simulation<AgreedBroadcast>>,
    reliable: Vec<Simulation<EagerReliable>>,
}

fn first_rule(k: usize) -> KsaOracle {
    KsaOracle::new(k, Box::new(FirstProposalRule))
}

fn setup(args: &Args) -> Result<(Setup, f64), String> {
    let t = Instant::now();
    let certs = layers::lint_certs(&args.root)?;
    let lint_s = t.elapsed().as_secs_f64();
    if certs.is_empty() || certs.independence_len() == 0 {
        return Err("certificate issuance returned an empty store".into());
    }
    let fifo = layers::sim_new(FifoBroadcast::new(), 2, first_rule(1));
    let causal = layers::sim_new(CausalBroadcast::new(), 3, first_rule(1));
    let agreed = layers::sim_new(
        AgreedBroadcast::new(),
        2,
        KsaOracle::new(1, Box::new(OwnValueRule)),
    );
    let reliable = layers::sim_new(EagerReliable::uniform(), 3, first_rule(1));
    let fifo_wl = Workload::uniform(2, 2);
    let mut causal_wl = Workload::new(3);
    causal_wl.push(ProcessId::new(1), Value::new(1));
    causal_wl.push(ProcessId::new(2), Value::new(2));
    let agreed_wl = Workload::uniform(2, 1);
    let sweep_wl = Workload::uniform(3, 1);
    Ok((
        Setup {
            certs,
            fifo,
            causal,
            agreed,
            reliable,
            fifo_wl,
            causal_wl,
            agreed_wl,
            sweep_wl,
        },
        lint_s,
    ))
}

/// The sampled states of every scope. They depend on the seed alone, not on
/// how many passes ran before.
fn samples(s: &Setup, seed: u64) -> Result<Samples, String> {
    let mut rng = SeedRng::new(seed);
    Ok(Samples {
        fifo: sample_states(&s.fifo, &s.fifo_wl, &mut rng)?,
        causal: sample_states(&s.causal, &s.causal_wl, &mut rng)?,
        agreed: sample_states(&s.agreed, &s.agreed_wl, &mut rng)?,
        reliable: sample_states(&s.reliable, &s.sweep_wl, &mut rng)?,
    })
}

/// Seeded random walks from the scope's initial state; each walk stops at a
/// random depth and keeps the state it reached.
fn sample_states<B>(
    template: &Simulation<B>,
    workload: &Workload,
    rng: &mut SeedRng,
) -> Result<Vec<Simulation<B>>, String>
where
    B: BroadcastAlgorithm + Clone,
    B::Msg: Clone,
{
    let n = template.n();
    let mut out = Vec::with_capacity(SAMPLE_PER_SCOPE);
    for _ in 0..SAMPLE_PER_SCOPE {
        let mut sim = layers::sim_clone(template);
        let mut issued = vec![0usize; n];
        let depth = 1 + rng.below(24);
        for _ in 0..depth {
            let mut choices = Vec::new();
            for p in ProcessId::all(n) {
                if sim.pending_broadcast(p).is_none() {
                    if let Some(v) = workload.get(p, issued[p.index()]) {
                        choices.push(SimEvent::Invoke(p, v));
                    }
                }
                if sim.has_local_step(p) {
                    choices.push(SimEvent::Step(p));
                }
                if sim.oracle().pending_of(p).is_some() {
                    choices.push(SimEvent::Respond(p));
                }
            }
            choices.extend((0..sim.network().in_flight().len()).map(SimEvent::Receive));
            if choices.is_empty() {
                break;
            }
            let ev = choices[rng.below(choices.len())];
            if let SimEvent::Invoke(p, _) = ev {
                issued[p.index()] += 1;
            }
            layers::sim_apply(&mut sim, ev)?;
        }
        out.push(sim);
    }
    Ok(out)
}

/// One scope verification: its duration in parts, the counters from the
/// engine's sink, the executions it checked, and its failure, if any.
struct ScopeRun {
    /// Time from the scope's start, or from the previous checked
    /// execution, to each checked execution; the last part runs from the
    /// last checked execution to the verdict. They sum to the scope's time,
    /// less the kernel calls between them. With each part, the
    /// [`HostSpeed::calls`] at its end.
    parts: Vec<(f64, usize)>,
    sink: Counters,
    executions: u64,
    broadcasts_per_execution: u64,
    failure: Option<String>,
}

fn explore_verdict(out: &ExploreOutcome) -> Option<String> {
    match out {
        ExploreOutcome::Verified {
            truncated: false, ..
        } => None,
        other => Some(format!("{other:?}")),
    }
}

/// A scope's parts so far, and when the current one started. It holds the
/// run's [`HostSpeed`] while the scope runs.
struct PartLog {
    host: HostSpeed,
    start: Instant,
    parts: Vec<(f64, usize)>,
}

impl PartLog {
    /// Ends the current part now; starts the next one after a kernel call,
    /// if one is due.
    fn cut(&mut self) {
        let now = Instant::now();
        let ms = now.duration_since(self.start).as_secs_f64() * 1e3;
        self.parts.push((ms, self.host.calls()));
        self.start = if self.host.sample_if_due(HOST_SAMPLE_EVERY) {
            Instant::now()
        } else {
            now
        };
    }
}

/// `check` as the scope's property, ending a part at every call.
fn stamped<'a>(
    log: &'a RefCell<PartLog>,
    check: impl Fn(&Execution) -> SpecResult + 'a,
) -> impl Fn(&Execution) -> SpecResult + 'a {
    let check = layers::specs_property(check);
    move |e| {
        log.borrow_mut().cut();
        check(e)
    }
}

fn run_scope(s: &Setup, scope: Scope, host: &mut HostSpeed) -> ScopeRun {
    let mut sink = Counters::new();
    let log = RefCell::new(PartLog {
        host: std::mem::take(host),
        start: Instant::now(),
        parts: Vec::with_capacity(1024),
    });
    let verdict = match scope {
        Scope::Fifo2x2 => {
            let prop = stamped(&log, |e| {
                base::check_all(e)?;
                FifoSpec::new().admits(e)
            });
            let (out, _) = layers::modelcheck_explore(
                "modelcheck.fifo_2x2",
                layers::sim_clone(&s.fifo),
                &s.fifo_wl,
                &prop,
                &s.certs,
                Sensitivity::PerSender,
                &mut sink,
            );
            explore_verdict(&out)
        }
        Scope::CausalN3 => {
            let prop = stamped(&log, |e| {
                base::check_all(e)?;
                CausalSpec::new().admits(e)
            });
            let (out, _) = layers::modelcheck_explore(
                "modelcheck.causal_n3",
                layers::sim_clone(&s.causal),
                &s.causal_wl,
                &prop,
                &s.certs,
                Sensitivity::FullOrder,
                &mut sink,
            );
            explore_verdict(&out)
        }
        Scope::AgreedN2 => {
            let prop = stamped(&log, |e| {
                base::check_all(e)?;
                TotalOrderSpec::new().admits(e)
            });
            let (out, _) = layers::modelcheck_explore(
                "modelcheck.agreed_n2",
                layers::sim_clone(&s.agreed),
                &s.agreed_wl,
                &prop,
                &s.certs,
                Sensitivity::FullOrder,
                &mut sink,
            );
            explore_verdict(&out)
        }
        Scope::CrashsweepN3 => {
            let prop = stamped(&log, base::bc_uniform_agreement);
            let make = || layers::sim_clone(&s.reliable);
            match layers::modelcheck_sweep(
                "modelcheck.crashsweep_n3",
                &make,
                &s.sweep_wl,
                &[ProcessId::new(1), ProcessId::new(2)],
                &prop,
                &s.certs,
                &mut sink,
            ) {
                SweepOutcome::Verified { .. } => None,
                other => Some(format!("{other:?}")),
            }
        }
    };
    let mut log = log.into_inner();
    log.cut();
    *host = log.host;
    let (executions, wl) = match scope {
        Scope::Fifo2x2 => (sink.count("modelcheck.executions"), &s.fifo_wl),
        Scope::CausalN3 => (sink.count("modelcheck.executions"), &s.causal_wl),
        Scope::AgreedN2 => (sink.count("modelcheck.executions"), &s.agreed_wl),
        Scope::CrashsweepN3 => (sink.count("crashsweep.runs"), &s.sweep_wl),
    };
    // Outside the timed region: the certificates must have been loaded, or
    // the engine ran a different (unreduced) program.
    let certs_ok = match scope {
        Scope::Fifo2x2 => {
            sink.count("modelcheck.cert_loaded") > 0
                && sink.count("modelcheck.independence_cert_loaded") > 0
        }
        Scope::CausalN3 | Scope::AgreedN2 => sink.count("modelcheck.cert_loaded") > 0,
        Scope::CrashsweepN3 => sink.count("crashsweep.cert_loaded") > 0,
    };
    let failure = match verdict {
        Some(v) => Some(format!("{}: {v}", scope.name())),
        None if !certs_ok => Some(format!("{}: certificates not loaded", scope.name())),
        None if executions == 0 => Some(format!("{}: no execution checked", scope.name())),
        None => None,
    };
    ScopeRun {
        parts: log.parts,
        sink,
        executions,
        broadcasts_per_execution: wl.total() as u64,
        failure,
    }
}

/// The deterministic per-scope counts, read from the engine's sink. The
/// crash sweep has no search tree: its nodes are its fair runs (probe and
/// checked), as in `BENCH_explore.json`, and it records no dedup, sleep-set
/// or canonical-fingerprint counts.
fn scope_counts(scope: Scope, sink: &Counters) -> Vec<(&'static str, u64)> {
    let mc = |k: &str| sink.count(k);
    if scope == Scope::CrashsweepN3 {
        vec![
            ("nodes", mc("crashsweep.runs") + mc("crashsweep.probe_runs")),
            ("executions", mc("crashsweep.runs")),
            ("canonical_hits", mc("crashsweep.canonical_hits")),
            ("steps_replayed", mc("crashsweep.steps_replayed")),
        ]
    } else {
        [
            "nodes",
            "executions",
            "dedup_hits",
            "canonical_fingerprints",
            "canonical_hits",
            "sleep_set_prunes",
            "independence_prunes",
            "steps_replayed",
        ]
        .into_iter()
        .map(|k| (k, mc(&format!("modelcheck.{k}"))))
        .collect()
    }
}

/// One count of [`scope_counts`]; 0 when the scope records none.
fn count_of(counts: &[(&str, u64)], key: &str) -> u64 {
    counts.iter().find(|(k, _)| *k == key).map_or(0, |c| c.1)
}

/// Mean ns per call of clone, fingerprint and canonical fingerprint over
/// the sampled states.
fn time_sim_ops<B>(states: &[Simulation<B>], reps: usize) -> (f64, f64, f64)
where
    B: BroadcastAlgorithm + Clone,
    B::Msg: Clone,
{
    let calls = (states.len() * reps) as f64;
    let t = Instant::now();
    for _ in 0..reps {
        for s in states {
            std::hint::black_box(layers::sim_clone(std::hint::black_box(s)));
        }
    }
    let clone = t.elapsed().as_nanos() as f64 / calls;
    let t = Instant::now();
    for _ in 0..reps {
        for s in states {
            std::hint::black_box(layers::sim_fingerprint(std::hint::black_box(s)));
        }
    }
    let fp = t.elapsed().as_nanos() as f64 / calls;
    let t = Instant::now();
    for _ in 0..reps {
        for s in states {
            std::hint::black_box(layers::sim_fingerprint_canonical(std::hint::black_box(s)));
        }
    }
    let canon = t.elapsed().as_nanos() as f64 / calls;
    (clone, fp, canon)
}

/// Set-ups before every pass; each replaces and tears down the one before,
/// and the pass uses the last. A pass's set-up time is the fastest of them,
/// and `setup_s` is its median over the run's passes.
const SETUPS_PER_PASS: usize = 5;

/// One scope's measurements over the run's passes.
struct PerScope {
    scope: Scope,
    /// Each pass's [`ScopeRun::parts`].
    parts: Vec<Vec<(f64, usize)>>,
    /// The first pass's sink; every later pass must repeat its counts.
    sink: Option<Counters>,
}

pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    report.host_corrected = true;
    let mut rng = SeedRng::new(args.seed);
    // Set-up, certificate and teardown times, each with the
    // [`HostSpeed::calls`] at the time it was taken.
    let mut setup_s = Vec::new();
    let mut lint_s = Vec::new();
    let mut teardown_ms = Vec::new();
    let mut tear_down = |old: Setup, at: usize| {
        let t = Instant::now();
        drop(old);
        teardown_ms.push((t.elapsed().as_secs_f64() * 1e3, at));
    };
    let mut current: Option<Setup> = None;
    let started = Instant::now();
    let mut pass_s = Vec::new();
    // Broadcasts in the checked executions of one pass; the same in every
    // pass, since the counts are.
    let mut pass_bcasts = 0;
    let mut per_scope: Vec<PerScope> = SCOPES
        .iter()
        .map(|&scope| PerScope {
            scope,
            parts: Vec::new(),
            sink: None,
        })
        .collect();
    while crate::another_pass(started, &pass_s, args.seconds) {
        let pass_started = Instant::now();
        report.host.sample(HOST_SAMPLES_PER_SCOPE);
        let at = report.host.calls();
        let mut tries = Vec::with_capacity(SETUPS_PER_PASS);
        let mut lint_tries = Vec::with_capacity(SETUPS_PER_PASS);
        for _ in 0..SETUPS_PER_PASS {
            if let Some(old) = current.take() {
                tear_down(old, at);
            }
            let t = Instant::now();
            let (built, lint) = setup(args)?;
            tries.push(t.elapsed().as_secs_f64());
            lint_tries.push(lint);
            current = Some(built);
        }
        setup_s.push((fastest(&tries), at));
        lint_s.push((fastest(&lint_tries), at));
        let s = current.as_ref().expect("set up above");
        let mut order = SCOPES.to_vec();
        rng.shuffle(&mut order);
        let runs: Vec<(Scope, ScopeRun)> = order
            .into_iter()
            .map(|sc| {
                report.host.sample(HOST_SAMPLES_PER_SCOPE);
                let host = &mut report.host;
                (
                    sc,
                    spans::span("bench", "bench.scope", || run_scope(s, sc, host)),
                )
            })
            .collect();
        pass_s.push(pass_started.elapsed().as_secs_f64());
        pass_bcasts = runs
            .iter()
            .map(|(_, r)| r.executions * r.broadcasts_per_execution)
            .sum::<u64>();
        for (sc, r) in runs {
            report.check(r.failure.is_none(), || {
                r.failure.clone().unwrap_or_default()
            });
            let slot = per_scope
                .iter_mut()
                .find(|p| p.scope == sc)
                .expect("known scope");
            slot.parts.push(r.parts);
            match &slot.sink {
                None => slot.sink = Some(r.sink),
                Some(first) if scope_counts(sc, first) != scope_counts(sc, &r.sink) => {
                    report.check(false, || {
                        format!("{}: counts differ between passes", sc.name())
                    });
                }
                Some(_) => {}
            }
        }
    }

    let s = current.take().expect("set up above");
    // Outside the passes and only when tracing: the sim-layer timings on a
    // sample of reachable states fixed by the seed.
    let samples = if spans::enabled() {
        let states = samples(&s, args.seed)?;
        Some((
            time_sim_ops(&states.fifo, 20),
            time_sim_ops(&states.agreed, 20),
            time_sim_ops(&states.causal, 4),
            time_sim_ops(&states.reliable, 4),
        ))
    } else {
        None
    };
    tear_down(s, report.host.calls());

    // Every pass checks the same executions in the same order (the counts
    // repeat), so each part of a scope is timed once per pass. Each timing
    // is first scaled by the run's kernel time over the kernel's time around
    // it, which takes out the host's slow phases of a second or more; the
    // run-wide correction then applies as to every figure. A scope's time is
    // the sum of its parts' fastest scaled times, and `wall_s` the sum over
    // the scopes: a pass with the host's load taken out.
    let run_ms = report.host.run_ms();
    let host = &report.host;
    let scale = |(v, at): (f64, usize)| v * run_ms / host.local_ms(at);
    let scaled: Vec<Vec<Vec<f64>>> = per_scope
        .iter()
        .map(|p| {
            p.parts
                .iter()
                .map(|pass| pass.iter().copied().map(scale).collect())
                .collect()
        })
        .collect();
    let fastest_parts: Vec<Vec<f64>> = scaled.iter().map(|passes| fastest_each(passes)).collect();
    let scope_s: Vec<f64> = fastest_parts
        .iter()
        .map(|parts| parts.iter().sum::<f64>() / 1e3)
        .collect();
    let exec_ms: Vec<f64> = fastest_parts
        .iter()
        .flat_map(|parts| &parts[..parts.len() - 1])
        .copied()
        .collect();
    let wall_s: f64 = scope_s.iter().sum();
    let scaled_median =
        |v: &[(f64, usize)]| median(&v.iter().copied().map(scale).collect::<Vec<_>>());
    // A set-up drops in about 10 µs. Unlike a pass's parts, its fastest
    // drop over a run varied more between runs than its median did.
    let (setup, teardown, lint) = (
        scaled_median(&setup_s),
        scaled_median(&teardown_ms),
        scaled_median(&lint_s),
    );
    report.set("setup_s", setup, "s");
    report.set("wall_s", wall_s, "s");
    report.set("bcast_per_s", pass_bcasts as f64 / wall_s, "1/s");
    report.set("latency_p50_ms", percentile(&exec_ms, 0.50), "ms");
    report.set("latency_p99_ms", percentile(&exec_ms, 0.99), "ms");
    report.set("bench.latency_samples", exec_ms.len() as f64, "count");
    report.set("shutdown_ms", teardown, "ms");
    report.set("lint.certs_ms", lint * 1e3, "ms");

    // The crash sweep's canonical digests are of whole executions, not of
    // simulation states, so it adds nothing to the canonical share.
    let mut canonical_ns = 0.0;
    let n2 = samples.map(|(f, a, _, _)| (f.2 + a.2) / 2.0);
    let n3 = samples.map(|(_, _, c, r)| (c.2 + r.2) / 2.0);
    for (p, &t) in per_scope.iter().zip(&scope_s) {
        let (sc, sink) = (p.scope, p.sink.as_ref().expect("at least one pass"));
        let name = sc.name();
        report.set(format!("modelcheck.{name}_ms"), t * 1e3, "ms");
        let counts = scope_counts(sc, sink);
        for &(key, v) in &counts {
            report.set(format!("modelcheck.{name}.{key}"), v as f64, "count");
        }
        let nodes = count_of(&counts, "nodes").max(1) as f64;
        report.set(
            format!("modelcheck.{name}.ns_per_node"),
            t * 1e9 / nodes,
            "ns",
        );
        let per_canon = if sc.n() == 2 { n2 } else { n3 };
        canonical_ns +=
            count_of(&counts, "canonical_fingerprints") as f64 * per_canon.unwrap_or(0.0);
    }
    if let Some((fifo, agreed, causal, reliable)) = samples {
        let mean = |xs: [f64; 4]| xs.iter().sum::<f64>() / 4.0;
        report.set(
            "sim.clone_ns",
            mean([fifo.0, agreed.0, causal.0, reliable.0]),
            "ns",
        );
        report.set(
            "sim.fingerprint_ns",
            mean([fifo.1, agreed.1, causal.1, reliable.1]),
            "ns",
        );
        report.set("sim.canonical_n2_ns", n2.unwrap_or(0.0), "ns");
        report.set("sim.canonical_n3_ns", n3.unwrap_or(0.0), "ns");
        report.set(
            "modelcheck.canonical_share",
            canonical_ns / (wall_s * 1e9),
            "ratio",
        );
        let (calls, ns) = spans::total("specs.property");
        let passes = pass_s.len() as f64;
        report.set("specs.property_calls", calls as f64 / passes, "count");
        report.set("specs.property_ns", ns as f64 / calls.max(1) as f64, "ns");
    }
    Ok(())
}
