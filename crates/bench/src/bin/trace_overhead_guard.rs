//! Guards the tentpole performance promise: with tracing disabled the
//! DSA hot loop must run at the same speed as before the observability
//! layer existed, and even the cheapest attached sink must stay within
//! a small envelope.
//!
//! Two configurations are compared on the same workload:
//!
//! * **off** — `Tracer::Off`, the default; every `emit` is a dead
//!   branch the optimizer removes from the monomorphized driver loop.
//! * **null** — a [`NullSink`] attached; events are built and dropped.
//!
//! Both runs must produce *identical cycle counts and checksums* (the
//! tracer is observation only), and in `--check` mode the off-vs-null
//! gap must stay under the threshold (default 2%). The same off-vs-null
//! comparison is then repeated on a run **resumed from a mid-run
//! snapshot** — the restore path must not tax the hot loop either, and
//! restored runs must stay observation-only too — on the scalar
//! **superblock fast path** (a `NullHook` run with traced run
//! brackets), and on the **sampled serve path**. Every run is driven in
//! `run_bounded` slices, which share `run_with_hook`'s driver loop.
//!
//! Timing is built to resolve 2% on a shared host, where one and the same
//! 50 ms run reads anywhere from 30 to 70 ms as the host's load and
//! clock speed drift:
//!
//! * every slice is timed in the thread's CPU time, so intervals in
//!   which the host ran something else do not count;
//! * a rep runs both configurations side by side in lockstep, one
//!   [`SLICE`]-commit slice of each in turn, the order flipping every
//!   round (off, on, on, off, ...), so both see the same host
//!   conditions;
//! * the overhead is the median over reps of the rep's on/off ratio of
//!   summed CPU times.
//!
//! ```text
//! cargo run --release -p dsa-bench --bin trace_overhead_guard -- --check
//! ```

use dsa_bench::cpu_clock::time_cpu;
use dsa_core::{Dsa, Snapshot};
use dsa_cpu::{BoundedOutcome, CpuConfig, Machine, NullHook, RunOutcome, Simulator};
use dsa_trace::{NullSink, SamplingSink};
use dsa_workloads::{build, BuiltWorkload, Scale, WorkloadId};

const USAGE: &str = "usage: trace_overhead_guard [--check] [--reps N] [--threshold PCT]";

/// Instruction budget — same as the harness.
const FUEL: u64 = 2_000_000_000;

/// Commits before the snapshot in the restored-path measurement.
const SPLIT: u64 = 40_000;

/// Commits per lockstep slice, about a quarter of a millisecond. The
/// finer the slices, the closer in time the two configurations run:
/// with 20 000-commit slices the per-rep ratio scattered by 3–4 %, with
/// 2 000 by about 1 %. The sampled serve path is sliced the same way,
/// ten times finer than the service's `checkpoint_every` default, so
/// its per-slice costs weigh more here than in a shard.
const SLICE: u64 = 2_000;

/// Seed and rate for the sampled-path measurement (the serve defaults).
const SAMPLE_SEED: u64 = 0xD5A7_0ACE_05EE_D001;
const SAMPLE_RATE: u32 = 8;

fn usage_error(msg: &str) -> ! {
    eprintln!("trace_overhead_guard: {msg}\n{USAGE}");
    std::process::exit(2);
}

fn fail(msg: &str) -> ! {
    dsa_bench::fail(&format!("trace_overhead_guard: {msg}"));
}

/// A simulator of the workload, inputs in place and L2-warm; on
/// `machine` when resuming.
fn prepared(w: &BuiltWorkload, machine: Option<Machine>) -> Simulator {
    let Some(m) = machine else {
        return w.simulator(CpuConfig::default());
    };
    let mut sim = Simulator::with_machine(w.kernel.program.clone(), CpuConfig::default(), m);
    for buf in w.kernel.layout.bufs() {
        sim.warm_region(buf.base, buf.size_bytes());
    }
    sim
}

/// The measured paths.
#[derive(Debug, Clone, Copy)]
enum Path {
    /// A full-DSA run; on = a [`NullSink`] attached to the engine.
    Live,
    /// The rest of a run restored from a [`SPLIT`]-commit snapshot; on
    /// as for `Live`.
    Restored,
    /// A scalar `NullHook` run on the superblock fast path; on = run
    /// brackets traced into a [`NullSink`].
    Block,
    /// The serve path's sampled slices; on = the always-on sampler,
    /// attached exactly as a shard attaches it: a seed-derived
    /// [`SamplingSink`] on the engine plus sampled run brackets.
    Sampled,
}

/// One simulation advanced a slice at a time.
struct Lane {
    sim: Simulator,
    slice: Box<dyn FnMut(&mut Simulator) -> BoundedOutcome>,
}

fn lane(w: &BuiltWorkload, image: &[u8], path: Path, on: bool) -> Lane {
    let cfg = dsa_core::DsaConfig::full();
    let ran = move |r: Result<BoundedOutcome, dsa_cpu::SimError>| {
        r.unwrap_or_else(|e| fail(&format!("{path:?} simulation failed: {e}")))
    };
    let engine = |mut dsa: Dsa| -> Box<dyn FnMut(&mut Simulator) -> BoundedOutcome> {
        if on {
            dsa.attach_sink(NullSink);
        }
        Box::new(move |sim| ran(sim.run_bounded(SLICE, &mut dsa)))
    };
    match path {
        Path::Live => Lane { sim: prepared(w, None), slice: engine(Dsa::new(cfg)) },
        Path::Restored => {
            let (dsa, machine) = Dsa::restore(image, cfg)
                .unwrap_or_else(|e| fail(&format!("snapshot restore failed: {e}")));
            Lane { sim: prepared(w, Some(machine)), slice: engine(dsa) }
        }
        Path::Block => Lane {
            sim: prepared(w, None),
            slice: Box::new(move |sim| {
                ran(if on {
                    sim.run_bounded_traced(SLICE, &mut NullHook, &mut NullSink)
                } else {
                    sim.run_bounded(SLICE, &mut NullHook)
                })
            }),
        },
        Path::Sampled => {
            let mut dsa = Dsa::new(cfg);
            if on {
                dsa.attach_sink(SamplingSink::new(NullSink, SAMPLE_SEED, SAMPLE_RATE));
            }
            Lane {
                sim: prepared(w, None),
                slice: Box::new(move |sim| {
                    ran(if on {
                        let mut bracket = SamplingSink::new(NullSink, SAMPLE_SEED, SAMPLE_RATE);
                        sim.run_bounded_traced(SLICE, &mut dsa, &mut bracket)
                    } else {
                        sim.run_bounded(SLICE, &mut dsa)
                    })
                }),
            }
        }
    }
}

/// A mid-run snapshot image of `w` at [`SPLIT`] commits.
fn snapshot_image(w: &BuiltWorkload) -> Vec<u8> {
    let mut sim = prepared(w, None);
    let mut dsa = Dsa::new(dsa_core::DsaConfig::full());
    match sim.run_bounded(SPLIT, &mut dsa) {
        Ok(BoundedOutcome::Paused) => {}
        Ok(BoundedOutcome::Halted(_)) => fail("workload halted before the snapshot split"),
        Err(e) => fail(&format!("snapshot-prep run failed: {e}")),
    }
    Snapshot::capture(&dsa, sim.machine()).to_bytes()
}

/// The off-vs-on comparison of one path.
struct Pair {
    /// Median per-rep CPU seconds with the observation layer off and on.
    off_secs: f64,
    on_secs: f64,
    /// Median over reps of `on / off - 1`, in percent.
    overhead_pct: f64,
    /// Cycles and output checksum of the off and on runs.
    off: (u64, u64),
    on: (u64, u64),
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Runs `reps` lockstep reps of the off and on lanes of `path` (after
/// one untimed warm-up rep) and checks that every run halts with the
/// right result and repeats its cycles and checksum.
fn measure(w: &BuiltWorkload, image: &[u8], path: Path, reps: u32) -> Pair {
    let (mut offs, mut ons, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    let mut facts: Option<[(u64, u64); 2]> = None;
    for rep in 0..=reps {
        let mut lanes = [lane(w, image, path, false), lane(w, image, path, true)];
        let mut secs = [0.0f64; 2];
        let mut done: [Option<RunOutcome>; 2] = [None, None];
        let mut round = 0;
        while done.iter().any(Option::is_none) {
            let order = if round % 2 == 0 { [0, 1] } else { [1, 0] };
            for i in order {
                if done[i].is_some() {
                    continue;
                }
                let Lane { sim, slice } = &mut lanes[i];
                let (bounded, t) = time_cpu(|| slice(sim));
                secs[i] += t;
                match bounded {
                    BoundedOutcome::Halted(out) => done[i] = Some(out),
                    BoundedOutcome::Paused if sim.committed() >= FUEL => {
                        fail(&format!("{path:?}: the run did not halt within {FUEL} commits"))
                    }
                    BoundedOutcome::Paused => {}
                }
            }
            round += 1;
        }
        let rep_facts = [0, 1].map(|i| {
            let m = lanes[i].sim.machine();
            if !w.check(m) {
                fail(&format!("{path:?}: wrong result (on={})", i == 1));
            }
            (done[i].map_or(0, |o| o.cycles), w.actual(m))
        });
        if facts.is_some_and(|f| f != rep_facts) {
            fail(&format!("{path:?}: a run did not repeat its cycles and checksum"));
        }
        facts = Some(rep_facts);
        if rep > 0 {
            offs.push(secs[0]);
            ons.push(secs[1]);
            ratios.push(secs[1] / secs[0]);
        }
    }
    let [off, on] = facts.expect("at least the warm-up rep ran");
    Pair {
        off_secs: median(offs),
        on_secs: median(ons),
        overhead_pct: 100.0 * (median(ratios) - 1.0),
        off,
        on,
    }
}

/// Prints one path's pair and enforces that observation changed
/// nothing, that the path computed the uninterrupted run's checksum,
/// and (under `--check`) the overhead threshold.
fn report(path: &str, labels: (&str, &str), p: &Pair, reference: u64, check: bool, threshold: f64) {
    println!("{path}:");
    println!("{:<13} {:.3} ms ({} simulated cycles)", labels.0, p.off_secs * 1e3, p.off.0);
    println!("{:<13} {:.3} ms ({} simulated cycles)", labels.1, p.on_secs * 1e3, p.on.0);
    println!("overhead:     {:+.2}% (threshold {threshold:.1}%)", p.overhead_pct);
    if p.off != p.on {
        fail(&format!(
            "{path}: observation changed the simulation! cycles {} vs {}, checksum {:#x} vs {:#x}",
            p.off.0, p.on.0, p.off.1, p.on.1
        ));
    }
    if p.off.1 != reference {
        fail(&format!(
            "{path}: diverged from the uninterrupted run: checksum {:#x} vs {reference:#x}",
            p.off.1
        ));
    }
    if check && p.overhead_pct > threshold {
        fail(&format!("{path}: overhead {:+.2}% exceeds {threshold:.1}%", p.overhead_pct));
    }
}

fn main() {
    let mut check = false;
    let mut reps: u32 = 9;
    let mut threshold: f64 = 2.0;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let take = |it: &mut dyn Iterator<Item = String>, flag: &str| -> String {
            it.next().unwrap_or_else(|| usage_error(&format!("{flag} needs a value")))
        };
        match arg.as_str() {
            "--check" => check = true,
            "--reps" => {
                reps = take(&mut it, "--reps")
                    .parse()
                    .unwrap_or_else(|_| usage_error("--reps needs an integer"));
            }
            "--threshold" => {
                threshold = take(&mut it, "--threshold")
                    .parse()
                    .unwrap_or_else(|_| usage_error("--threshold needs a number"));
            }
            "--help" => {
                println!("{USAGE}");
                return;
            }
            other => usage_error(&format!("unknown argument `{other}`")),
        }
    }
    if reps == 0 {
        usage_error("--reps must be at least 1");
    }

    let w = build(WorkloadId::BitCounts, dsa_compiler::Variant::Scalar, Scale::Paper);
    let image = snapshot_image(&w);
    println!(
        "workload: bitcounts (paper scale), {reps} lockstep reps per path in {SLICE}-commit \
         slices, median thread CPU time"
    );
    let tracing = ("tracer off:", "null sink:");

    let live = measure(&w, &image, Path::Live, reps);
    let reference = live.off.1;
    report("DSA run", tracing, &live, reference, check, threshold);

    // The restored-from-snapshot path: resume the same workload from a
    // mid-run image with tracer off vs null sink.
    let restored = measure(&w, &image, Path::Restored, reps);
    let path = format!("restored path (snapshot at {SPLIT} commits, {} byte image)", image.len());
    report(&path, tracing, &restored, reference, check, threshold);

    // The superblock fast path: a scalar `NullHook` run takes every
    // block; tracing its run brackets must leave it engaged and
    // untouched.
    let block = measure(&w, &image, Path::Block, reps);
    report("block fast path (scalar NullHook run)", tracing, &block, reference, check, threshold);

    // The sampled serve path: bare vs with the always-on sampler, what
    // every shard pays when `sample_rate > 0` (in finer slices).
    let sampled = measure(&w, &image, Path::Sampled, reps);
    let path = format!("sampled serve path ({SLICE}-commit slices, 1/{SAMPLE_RATE} loop sampling)");
    report(&path, ("sampling off:", "sampled:"), &sampled, reference, check, threshold);

    if check {
        println!(
            "OK: observation layer is within budget and observation-only \
             (incl. restore, block fast path, and sampled slices)"
        );
    }
}
