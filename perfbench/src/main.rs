//! Benchmark generator for campkit: runs one workload in this process and
//! prints its measurements as one JSON line on standard output.
//!
//! ```text
//! perfbench --workload <explore|adversary|broadcast-closed|broadcast-lossy>
//!           --seed <n> --seconds <s> --trace <0|1> --root <repo> --out-dir <dir>
//! ```
//!
//! The generator itself is single-threaded; only the threaded runtime under
//! test spawns threads. `perfbench/run.py` builds this binary, runs it, and
//! turns its line into the benchmark's result. See `perfbench/README.md`
//! for why each workload exists.

mod adversary;
mod broadcast;
mod explore;
mod layers;
mod spans;

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::hash::BuildHasherDefault;
use std::path::PathBuf;
use std::time::Instant;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub root: PathBuf,
    pub out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut map = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag}"))?
            .to_string();
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        map.insert(key, value);
    }
    let get = |k: &str| map.get(k).cloned().ok_or_else(|| format!("missing --{k}"));
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} out of range"));
    }
    Ok(Args {
        workload: get("workload")?,
        seed: get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}")),
        },
        root: PathBuf::from(get("root")?),
        out_dir: PathBuf::from(get("out-dir")?),
    })
}

/// Everything one run measured: operations attempted and failed (with the
/// reason for each failure) and named metrics with their units.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failures: Vec<String>,
    pub metrics: BTreeMap<String, (f64, &'static str)>,
    /// The host's speed, sampled by the workload between its passes.
    pub host: HostSpeed,
    /// Whether the run's durations and rates are corrected for the host's
    /// speed: set by the single-threaded workloads, whose figures follow
    /// the calibration kernel (see README.md).
    pub host_corrected: bool,
}

impl Report {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.insert(name.into(), (value, unit));
    }

    /// Records one attempted operation and whether it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// Divides every duration by the host factor (and multiplies every
    /// rate by it), so that the figures read as on an unloaded host.
    fn correct_for_host(&mut self, factor: f64) {
        for (value, unit) in self.metrics.values_mut() {
            match *unit {
                "s" | "ms" | "us" | "ns" => *value /= factor,
                "1/s" => *value *= factor,
                _ => {}
            }
        }
    }

    fn to_json(&self, args: &Args) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"workload\":{},\"seed\":{},\"trace\":{},\"attempted\":{},\"failed\":{},\"failures\":[",
            json_str(&args.workload),
            args.seed,
            u8::from(args.trace),
            self.attempted,
            self.failures.len()
        );
        for (i, f) in self.failures.iter().take(20).enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&json_str(f));
        }
        out.push_str("],\"metrics\":{");
        for (i, (name, (value, unit))) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            // A value that is not a number is left out, so that the
            // result is refused rather than read as a measurement.
            let value = if value.is_finite() {
                format!("{value:e}")
            } else {
                "null".to_string()
            };
            let _ = write!(
                out,
                "{}:{{\"value\":{value},\"unit\":{}}}",
                json_str(name),
                json_str(unit)
            );
        }
        out.push_str("}}");
        out
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Nearest-rank percentile of unsorted samples (`q` in `[0, 1]`).
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median of unsorted samples (mean of the middle two for an even count).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// The fastest of repeated timings of the same work. The host's load only
/// ever adds time, in bursts of milliseconds to seconds: the fastest
/// repetition follows the program, the median follows the bursts.
pub fn fastest(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "fastest of no samples");
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Element-wise [`fastest`] over passes that each timed the same parts in
/// the same order: the fastest time of each part.
pub fn fastest_each(passes: &[Vec<f64>]) -> Vec<f64> {
    let mut out = passes.first().cloned().unwrap_or_default();
    for pass in passes.iter().skip(1) {
        for (o, &x) in out.iter_mut().zip(pass) {
            *o = o.min(x);
        }
    }
    out
}

/// A latency percentile of a run: the median over passes of each pass's
/// nearest-rank percentile, so that one slow pass moves it little.
pub fn pass_percentile(passes: &[Vec<f64>], q: f64) -> f64 {
    let per_pass: Vec<f64> = passes
        .iter()
        .filter(|p| !p.is_empty())
        .map(|p| percentile(p, q))
        .collect();
    median(&per_pass)
}

/// What one calibration kernel call takes, in ms, on an unloaded 2-vCPU
/// Xeon host of the kind the benchmark was written on (the fastest call of
/// a run read 0.76 to 0.91 ms in its quiet phases).
const CALIBRATION_REF_MS: f64 = 0.8;

/// The host's speed during a run, from a fixed calibration kernel timed
/// between the workload's passes.
///
/// The benchmark's host shares its cores: for minutes at a time the same
/// deterministic work runs up to twice as slow, and no run is long enough
/// to outlast such a phase. The kernel (hash-map inserts and lookups and a
/// sort, under 1 MiB) is benchmark code and does the same work on every
/// commit, so its slowdown is the host's alone.
#[derive(Default)]
pub struct HostSpeed {
    samples_ms: Vec<f64>,
    last: Option<Instant>,
}

/// Kernel calls on each side of a point of the run in [`HostSpeed::local_ms`].
const LOCAL_HALF_WINDOW: usize = 4;

impl HostSpeed {
    /// Times `reps` calls of the calibration kernel.
    pub fn sample(&mut self, reps: usize) {
        for _ in 0..reps {
            let t = Instant::now();
            std::hint::black_box(calibration_kernel());
            self.samples_ms.push(t.elapsed().as_secs_f64() * 1e3);
            self.last = Some(Instant::now());
        }
    }

    /// Times one kernel call if the last one ended at least `every` ago;
    /// returns whether it did.
    pub fn sample_if_due(&mut self, every: std::time::Duration) -> bool {
        let due = self.last.is_none_or(|at| at.elapsed() >= every);
        if due {
            self.sample(1);
        }
        due
    }

    /// Kernel calls timed so far: a point in the run for [`Self::local_ms`].
    pub fn calls(&self) -> usize {
        self.samples_ms.len()
    }

    /// The kernel's median time over the calls around a point of the run
    /// (the calls timed just before it and just after it), in ms.
    pub fn local_ms(&self, at: usize) -> f64 {
        let n = self.samples_ms.len();
        let lo = at
            .saturating_sub(LOCAL_HALF_WINDOW)
            .min(n.saturating_sub(1));
        let hi = (at + LOCAL_HALF_WINDOW).clamp(lo + 1, n);
        median(&self.samples_ms[lo..hi])
    }

    /// The kernel's time behind [`Self::factor`], in ms.
    pub fn run_ms(&self) -> f64 {
        percentile(&self.samples_ms, 0.10)
    }

    /// The run's slowdown against [`CALIBRATION_REF_MS`]: the kernel's 10th
    /// percentile time over the reference. Of the kernel's fastest time, its
    /// 10th and 25th percentiles and its median, the 10th percentile followed
    /// both the `explore` and the `adversary` figures closely over runs
    /// taken in slow and fast phases of the host (see README.md).
    pub fn factor(&self) -> f64 {
        self.run_ms() / CALIBRATION_REF_MS
    }
}

fn calibration_kernel() -> usize {
    let mut m: HashMap<u64, Vec<u32>, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut x: u64 = 7;
    for i in 0..16_384u32 {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        m.entry((x >> 33) % 4_096).or_default().push(i);
    }
    let mut v: Vec<u64> = (0..8_192u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 7)
        .collect();
    v.sort_unstable();
    (0..4_096u64)
        .filter_map(|k| m.get(&k))
        .map(Vec::len)
        .sum::<usize>()
        + v[100] as usize
}

/// splitmix64: the seeded generator every workload draws its inputs from.
pub struct SeedRng(u64);

impl SeedRng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x5EED_CA3B_0000_0001)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Whether a workload starts another pass: always the first one, then only
/// while one more pass, as long as the last one, still fits in the
/// measuring time.
pub fn another_pass(started: Instant, pass_s: &[f64], seconds: f64) -> bool {
    match pass_s.last() {
        None => true,
        Some(last) => started.elapsed().as_secs_f64() + last <= seconds,
    }
}

/// Peak resident set size of this process, in MiB.
fn peak_rss_mb() -> Option<f64> {
    std::fs::read_to_string("/proc/self/status")
        .ok()?
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse::<f64>()
        .ok()
        .map(|kb| kb / 1024.0)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.trace {
        spans::enable();
    }
    let mut report = Report::default();
    let outcome = match args.workload.as_str() {
        "explore" => explore::run(&args, &mut report),
        "adversary" => adversary::run(&args, &mut report),
        "broadcast-closed" => broadcast::run_closed(&args, &mut report),
        "broadcast-lossy" => broadcast::run_lossy(&args, &mut report),
        other => Err(format!("unknown workload {other}")),
    };
    if let Err(e) = outcome {
        eprintln!("perfbench: {}: {e}", args.workload);
        std::process::exit(1);
    }
    report.set("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN), "MiB");
    report.set("bench.seed", args.seed as f64, "count");
    if args.trace {
        let spans = spans::take();
        for (layer, ns) in spans::self_ns_by_layer(&spans) {
            report.set(format!("self.{layer}_ms"), ns as f64 / 1e6, "ms");
        }
        let _ = std::fs::create_dir_all(&args.out_dir);
        let path = args.out_dir.join(format!("spans-{}.json", args.workload));
        if let Err(e) = std::fs::write(&path, spans::to_chrome_json(&spans)) {
            eprintln!("perfbench: writing {}: {e}", path.display());
        }
    }
    let factor = report.host.factor();
    if report.host_corrected {
        report.correct_for_host(factor);
    }
    report.set("bench.host_factor", factor, "ratio");
    println!("{}", report.to_json(&args));
    // The runtime workloads may leave a stalled fleet behind a failed
    // shutdown; exiting ends its threads.
    std::process::exit(0);
}
