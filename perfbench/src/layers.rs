//! One adapter per campkit layer entry point. Every call the workloads make
//! into the program goes through this file, wrapped in a span named after
//! the layer, so that a change to a layer's public entry points changes one
//! function here.

use std::path::Path;
use std::time::Duration;

use camp_faults::FaultPlan;
use camp_impossibility::{
    adversarial_scheduler, theorem1, verify_lemmas, AdversarialRun, AdversaryError, Contradiction,
    LemmaReport, NSolo, TheoremError,
};
use camp_modelcheck::crashsweep::{crash_point_sweep_certs, SweepOutcome};
use camp_modelcheck::{
    explore_with_independence, EngineConfig, EngineStats, ExploreOutcome, Sensitivity,
};
use camp_obs::{Counters, Timeline};
use camp_runtime::{Delivery, RuntimeError, ThreadedRuntime};
use camp_sim::canonical::CertStore;
use camp_sim::scheduler::Workload;
use camp_sim::{AgreementAlgorithm, BroadcastAlgorithm, KsaOracle, Simulation};
use camp_specs::SpecResult;
use camp_trace::{Execution, ProcessId, Value};

use crate::spans::span;

// ---- lint -------------------------------------------------------------

/// Issues the symmetry and independence certificates for every registered
/// algorithm by running the `camp-lint` symmetry and dataflow engines over
/// the sources under `root`. Unlike the table generators, a read failure is
/// an error here: an empty store would measure a different program.
pub fn lint_certs(root: &Path) -> Result<CertStore, String> {
    span("lint", "lint.certs", || {
        let mut store = camp_lint::symmetry_check(root, false)
            .map_err(|e| format!("symmetry engine: {e}"))?
            .cert_store();
        for cert in camp_lint::dataflow_check(root, false)
            .map_err(|e| format!("dataflow engine: {e}"))?
            .certs
        {
            store.insert_independence(cert);
        }
        Ok(store)
    })
}

// ---- modelcheck ---------------------------------------------------------

/// Exhaustive sequential exploration with the default reduction stack,
/// certificate-gated canonicalization and, for per-sender properties,
/// certificate-widened sleep sets.
pub fn modelcheck_explore<B>(
    name: &'static str,
    sim: Simulation<B>,
    workload: &Workload,
    property: &dyn Fn(&Execution) -> SpecResult,
    certs: &CertStore,
    sensitivity: Sensitivity,
    sink: &mut Counters,
) -> (ExploreOutcome, EngineStats)
where
    B: BroadcastAlgorithm + Clone,
    B::Msg: Clone,
{
    span("modelcheck", name, || {
        explore_with_independence(
            sim,
            workload,
            property,
            EngineConfig::default(),
            certs,
            sensitivity,
            sink,
        )
    })
}

/// The certificate-gated crash-point sweep.
pub fn modelcheck_sweep<B: BroadcastAlgorithm>(
    name: &'static str,
    make_sim: &dyn Fn() -> Simulation<B>,
    workload: &Workload,
    victims: &[ProcessId],
    property: &dyn Fn(&Execution) -> SpecResult,
    certs: &CertStore,
    sink: &mut Counters,
) -> SweepOutcome {
    span("modelcheck", name, || {
        crash_point_sweep_certs(make_sim, workload, victims, &property, 100_000, certs, sink)
    })
}

// ---- sim ----------------------------------------------------------------

pub fn sim_new<B: BroadcastAlgorithm>(algo: B, n: usize, oracle: KsaOracle) -> Simulation<B> {
    span("sim", "sim.new", || Simulation::new(algo, n, oracle))
}

pub fn sim_clone<B>(sim: &Simulation<B>) -> Simulation<B>
where
    B: BroadcastAlgorithm + Clone,
    B::Msg: Clone,
{
    span("sim", "sim.clone", || sim.clone())
}

pub fn sim_fingerprint<B: BroadcastAlgorithm>(sim: &Simulation<B>) -> u128 {
    span("sim", "sim.fingerprint", || sim.fingerprint())
}

pub fn sim_fingerprint_canonical<B: BroadcastAlgorithm>(sim: &Simulation<B>) -> u128 {
    span("sim", "sim.canonical", || sim.fingerprint_canonical())
}

/// One environment event chosen by the sampler.
#[derive(Debug, Clone, Copy)]
pub enum SimEvent {
    Invoke(ProcessId, Value),
    Step(ProcessId),
    Receive(usize),
    Respond(ProcessId),
}

/// Applies one environment event through the simulation's public calls.
pub fn sim_apply<B: BroadcastAlgorithm>(
    sim: &mut Simulation<B>,
    ev: SimEvent,
) -> Result<(), String> {
    span("sim", "sim.step", || match ev {
        SimEvent::Invoke(p, v) => sim.invoke_broadcast(p, v).map(drop),
        SimEvent::Step(p) => sim.step_process(p).map(drop),
        SimEvent::Receive(slot) => sim.receive(slot).map(drop),
        SimEvent::Respond(p) => {
            let obj = sim
                .oracle()
                .pending_of(p)
                .expect("chosen only when pending");
            sim.respond_ksa(obj, p).map(drop)
        }
    })
    .map_err(|e| format!("{e:?}"))
}

// ---- specs --------------------------------------------------------------

/// A property closure the benchmark owns; every call is one span.
pub fn specs_property<'a>(
    check: impl Fn(&Execution) -> SpecResult + 'a,
) -> impl Fn(&Execution) -> SpecResult + 'a {
    move |e| span("specs", "specs.property", || check(e))
}

pub fn specs_runtime_safety(exec: &Execution) -> SpecResult {
    span("specs", "specs.runtime_safety", || {
        camp_specs::base::check_safety(exec)?;
        camp_specs::channel::check_safety(exec)
    })
}

// ---- impossibility / trace ------------------------------------------------

pub fn impossibility_adversary<B: BroadcastAlgorithm>(
    k: usize,
    n_solo: usize,
    algo: B,
) -> Result<AdversarialRun, AdversaryError> {
    span("impossibility", "impossibility.adversary", || {
        adversarial_scheduler(k, n_solo, algo, 50_000_000)
    })
}

pub fn impossibility_lemmas(run: &AdversarialRun) -> LemmaReport {
    span("impossibility", "impossibility.lemmas", || {
        verify_lemmas(run)
    })
}

/// Lemma 10: `β` is N-solo for the designated messages.
pub fn impossibility_nsolo(run: &AdversarialRun) -> SpecResult {
    span("impossibility", "impossibility.nsolo", || {
        NSolo::new(run.n_solo).check(&run.beta(), &run.designated)
    })
}

pub fn impossibility_theorem1<A: AgreementAlgorithm, B: BroadcastAlgorithm>(
    k: usize,
    agreement: &A,
    broadcast: B,
) -> Result<Contradiction, TheoremError> {
    span("impossibility", "impossibility.theorem1", || {
        theorem1(k, agreement, broadcast, 50_000_000)
    })
}

// ---- runtime (node, perflink, collector) -----------------------------------

/// Starts `n` nodes over the plan's links; with `recorder_capacity` the
/// flight recorder rides along.
pub fn runtime_start<B>(
    algo: B,
    n: usize,
    k: usize,
    plan: FaultPlan,
    recorder_capacity: Option<usize>,
) -> ThreadedRuntime
where
    B: BroadcastAlgorithm + Clone + Send + 'static,
    B::State: Send,
    B::Msg: Send,
{
    span("runtime", "runtime.start", || match recorder_capacity {
        Some(cap) => ThreadedRuntime::start_recorded(algo, n, k, plan, cap),
        None => ThreadedRuntime::start_with_plan(algo, n, k, plan),
    })
}

pub fn runtime_broadcast(
    rt: &ThreadedRuntime,
    pid: ProcessId,
    content: Value,
) -> Result<(), RuntimeError> {
    span("runtime", "runtime.broadcast", || {
        rt.broadcast(pid, content)
    })
}

pub fn runtime_wait(
    rt: &mut ThreadedRuntime,
    count: usize,
    timeout: Duration,
) -> Result<Vec<Delivery>, RuntimeError> {
    span("runtime", "runtime.wait", || {
        rt.wait_deliveries(count, timeout)
    })
}

/// `shutdown_full` under a watchdog: `None` when it has not returned
/// within `limit`. The stalled fleet is then left to the process exit.
pub fn runtime_shutdown(
    rt: ThreadedRuntime,
    limit: Duration,
) -> Option<(Execution, Counters, Timeline)> {
    span("runtime", "runtime.shutdown", || {
        let (tx, rx) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            let _ = tx.send(rt.shutdown_full());
        });
        let out = rx.recv_timeout(limit).ok();
        if out.is_some() {
            worker.join().expect("shutdown thread panicked");
        }
        out
    })
}
