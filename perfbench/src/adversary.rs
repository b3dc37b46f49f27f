//! `adversary`: the paper's own pipeline. Algorithm 1's adversarial
//! execution α_{k,N,B,ℬ} at k = 5, N = 256 for four candidate broadcasts,
//! the Lemma 1–10 verifiers and the N-solo check on each, then Theorem 1 on
//! the E-T1 candidate pairs. The inputs are fixed; the seed orders the
//! operations within each pass.

use std::time::Instant;

use camp_agreement::{FirstDelivered, TrivialNsa};
use camp_broadcast::{AgreedBroadcast, EagerReliable, SendToAll, SteppedBroadcast};
use camp_impossibility::{AdversarialRun, Contradiction, TheoremError};
use camp_sim::BroadcastAlgorithm;
use camp_trace::Action;

use crate::layers;
use crate::spans;
use crate::{fastest, median, percentile, Args, Report, SeedRng};

const K: usize = 5;
const N_SOLO: usize = 256;

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Algorithm 1 + lemmas + N-solo for one candidate broadcast.
    Alpha(Candidate),
    /// Theorem 1 for one E-T1 pair at one k.
    Theorem(usize, Pair),
}

#[derive(Debug, Clone, Copy)]
enum Candidate {
    SendToAll,
    EagerReliable,
    Agreed,
    Stepped,
}

#[derive(Debug, Clone, Copy)]
enum Pair {
    FirstDeliveredSendToAll,
    FirstDeliveredAgreed,
    FirstDeliveredStepped,
    TrivialNsaAgreed,
}

fn ops() -> Vec<Op> {
    let mut ops: Vec<Op> = [
        Candidate::SendToAll,
        Candidate::EagerReliable,
        Candidate::Agreed,
        Candidate::Stepped,
    ]
    .into_iter()
    .map(Op::Alpha)
    .collect();
    for k in [2, 3, 4] {
        for pair in [
            Pair::FirstDeliveredSendToAll,
            Pair::FirstDeliveredAgreed,
            Pair::FirstDeliveredStepped,
            Pair::TrivialNsaAgreed,
        ] {
            ops.push(Op::Theorem(k, pair));
        }
    }
    ops
}

/// What one operation left behind for the output checks and the teardown.
enum Output {
    Alpha {
        run: Box<AdversarialRun>,
        lemmas_ok: bool,
        nsolo: Result<(), String>,
    },
    Theorem(usize, Result<Box<Contradiction>, TheoremError>),
    Failed(String),
}

/// Per-stage seconds of one operation, for the traced breakdown.
#[derive(Default, Clone, Copy)]
struct Stages {
    adversary: f64,
    lemmas: f64,
    nsolo: f64,
    theorem1: f64,
}

fn alpha<B: BroadcastAlgorithm>(k: usize, n_solo: usize, algo: B, st: &mut Stages) -> Output {
    let t = Instant::now();
    let run = match layers::impossibility_adversary(k, n_solo, algo) {
        Ok(run) => run,
        Err(e) => return Output::Failed(format!("adversarial_scheduler: {e}")),
    };
    st.adversary += t.elapsed().as_secs_f64();
    let t = Instant::now();
    let lemmas_ok = layers::impossibility_lemmas(&run).all_passed();
    st.lemmas += t.elapsed().as_secs_f64();
    let t = Instant::now();
    let nsolo = layers::impossibility_nsolo(&run).map_err(|v| format!("{v:?}"));
    st.nsolo += t.elapsed().as_secs_f64();
    Output::Alpha {
        run: Box::new(run),
        lemmas_ok,
        nsolo,
    }
}

fn run_op(op: Op, k_alpha: usize, n_solo: usize, st: &mut Stages) -> Output {
    match op {
        Op::Alpha(Candidate::SendToAll) => alpha(k_alpha, n_solo, SendToAll::new(), st),
        Op::Alpha(Candidate::EagerReliable) => alpha(k_alpha, n_solo, EagerReliable::uniform(), st),
        Op::Alpha(Candidate::Agreed) => alpha(k_alpha, n_solo, AgreedBroadcast::new(), st),
        Op::Alpha(Candidate::Stepped) => alpha(k_alpha, n_solo, SteppedBroadcast::new(), st),
        Op::Theorem(k, pair) => {
            let t = Instant::now();
            let out = match pair {
                Pair::FirstDeliveredSendToAll => {
                    layers::impossibility_theorem1(k, &FirstDelivered::new(), SendToAll::new())
                }
                Pair::FirstDeliveredAgreed => layers::impossibility_theorem1(
                    k,
                    &FirstDelivered::new(),
                    AgreedBroadcast::new(),
                ),
                Pair::FirstDeliveredStepped => layers::impossibility_theorem1(
                    k,
                    &FirstDelivered::new(),
                    SteppedBroadcast::new(),
                ),
                Pair::TrivialNsaAgreed => {
                    layers::impossibility_theorem1(k, &TrivialNsa::new(), AgreedBroadcast::new())
                }
            };
            st.theorem1 += t.elapsed().as_secs_f64();
            Output::Theorem(k, out.map(Box::new))
        }
    }
}

/// Checks one output; returns the α steps and the broadcasts of the
/// executions it holds.
fn check(op: Op, out: &Output, report: &mut Report) -> (u64, u64) {
    match out {
        Output::Failed(e) => {
            report.check(false, || format!("{op:?}: {e}"));
            (0, 0)
        }
        Output::Alpha {
            run,
            lemmas_ok,
            nsolo,
        } => {
            report.check(*lemmas_ok, || format!("{op:?}: a lemma failed"));
            report.check(nsolo.is_ok(), || format!("{op:?}: N-solo check: {nsolo:?}"));
            (run.execution.len() as u64, broadcasts(run))
        }
        Output::Theorem(k, res) => match res {
            Ok(c) => {
                let d = c.distinct_decisions();
                report.check(d == k + 1, || {
                    format!("{op:?}: {d} distinct decisions, want {}", k + 1)
                });
                (0, broadcasts(&c.run))
            }
            Err(e) => {
                report.check(false, || format!("{op:?}: {e}"));
                (0, 0)
            }
        },
    }
}

/// Broadcasts invoked in α.
fn broadcasts(run: &AdversarialRun) -> u64 {
    run.execution
        .steps()
        .iter()
        .filter(|s| matches!(s.action, Action::Broadcast { .. }))
        .count() as u64
}

/// Set-up: builds the operation list and runs the whole pipeline once at a
/// small size (k = 3, N = 4), so that one-time costs are paid before the
/// timed passes.
fn set_up() -> Result<Vec<Op>, String> {
    let plan = ops();
    for &op in &plan {
        let small = match op {
            Op::Theorem(_, pair) => Op::Theorem(3, pair),
            alpha => alpha,
        };
        if let Output::Failed(e) = run_op(small, 3, 4, &mut Stages::default()) {
            return Err(format!("warm-up {op:?}: {e}"));
        }
    }
    Ok(plan)
}

/// Back-to-back repetitions of a `theorem1` call in every pass. One call
/// takes about 0.1 ms, and a single call after an α pipeline starts with
/// cold caches: its fastest time over the passes of a run followed the
/// host's load more than the rest of the pass did, and more than the
/// calibration kernel does. Only the first repetition counts toward the
/// pass's broadcasts and the traced stage times.
const THEOREM_REPS: usize = 8;

fn reps(op: Op) -> usize {
    match op {
        Op::Alpha(_) => 1,
        Op::Theorem(..) => THEOREM_REPS,
    }
}

/// Set-ups before every pass. A pass's set-up time is the fastest of them,
/// and `setup_s` is its median over the run's passes.
const SETUPS_PER_PASS: usize = 5;

pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    report.host_corrected = true;
    let mut rng = SeedRng::new(args.seed);
    let mut setup_s = Vec::new();
    let started = Instant::now();
    let mut pass_s = Vec::new();
    // Broadcasts in the executions of one pass; the same in every pass.
    let mut pass_bcasts = 0;
    // The teardown of a pass releases the executions and reports it built.
    let mut teardown_ms = Vec::new();
    // Each operation's times, indexed as in `ops()`.
    let mut op_ms: Vec<Vec<f64>> = Vec::new();
    let mut stages = Vec::new();
    let mut alpha_steps: Option<u64> = None;
    while crate::another_pass(started, &pass_s, args.seconds) {
        let mut plan = Vec::new();
        let mut tries = Vec::with_capacity(SETUPS_PER_PASS);
        for _ in 0..SETUPS_PER_PASS {
            let t = Instant::now();
            plan = set_up()?;
            tries.push(t.elapsed().as_secs_f64());
        }
        setup_s.push(fastest(&tries));
        op_ms.resize(plan.len(), Vec::new());
        let mut order: Vec<usize> = (0..plan.len()).collect();
        rng.shuffle(&mut order);
        let mut st = Stages::default();
        let mut outs = Vec::with_capacity(order.len());
        let mut wall = 0.0;
        spans::span("bench", "bench.pass", || {
            for &i in &order {
                report.host.sample(1);
                for rep in 0..reps(plan[i]) {
                    let mut extra = Stages::default();
                    let stages = if rep == 0 { &mut st } else { &mut extra };
                    let t = Instant::now();
                    let out = run_op(plan[i], K, N_SOLO, stages);
                    let secs = t.elapsed().as_secs_f64();
                    wall += secs;
                    op_ms[i].push(secs * 1e3);
                    outs.push((plan[i], rep, out));
                }
            }
        });
        let mut steps = 0;
        let mut bcasts = 0;
        for (op, rep, out) in &outs {
            let (s, b) = check(*op, out, report);
            if *rep == 0 {
                steps += s;
                bcasts += b;
            }
        }
        match alpha_steps {
            None => alpha_steps = Some(steps),
            Some(first) => report.check(first == steps, || {
                format!("alpha steps differ between passes: {first} vs {steps}")
            }),
        }
        let t = Instant::now();
        drop(outs);
        teardown_ms.push(t.elapsed().as_secs_f64() * 1e3);
        pass_s.push(wall);
        pass_bcasts = bcasts;
        stages.push(st);
    }

    // An operation's latency is its fastest time over the run's passes (and
    // repetitions), so that host load on some passes moves no percentile. A
    // pass's time is the sum of its operations' times, so `wall_s` is the
    // sum of their fastest times.
    let op_fastest: Vec<f64> = op_ms.iter().map(|v| fastest(v)).collect();
    let wall_s = op_fastest.iter().sum::<f64>() / 1e3;
    report.set("setup_s", median(&setup_s), "s");
    report.set("wall_s", wall_s, "s");
    report.set("bcast_per_s", pass_bcasts as f64 / wall_s, "1/s");
    report.set("latency_p50_ms", percentile(&op_fastest, 0.50), "ms");
    report.set("latency_p99_ms", percentile(&op_fastest, 0.99), "ms");
    report.set(
        "bench.latency_samples",
        op_ms.iter().map(Vec::len).sum::<usize>() as f64,
        "count",
    );
    report.set("shutdown_ms", fastest(&teardown_ms), "ms");

    let steps = alpha_steps.unwrap_or(0);
    let stage = |f: fn(&Stages) -> f64| fastest(&stages.iter().map(f).collect::<Vec<_>>());
    let lemmas = stage(|s| s.lemmas);
    report.set(
        "impossibility.adversary_ms",
        stage(|s| s.adversary) * 1e3,
        "ms",
    );
    report.set("impossibility.lemmas_ms", lemmas * 1e3, "ms");
    report.set("impossibility.nsolo_ms", stage(|s| s.nsolo) * 1e3, "ms");
    report.set(
        "impossibility.theorem1_ms",
        stage(|s| s.theorem1) * 1e3,
        "ms",
    );
    report.set("trace.alpha_steps", steps as f64, "count");
    report.set(
        "impossibility.lemmas_ns_per_step",
        lemmas * 1e9 / steps.max(1) as f64,
        "ns",
    );
    Ok(())
}
