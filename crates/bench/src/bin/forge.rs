//! `dsa-forge` — corpus-scale generative differential fuzzing of the
//! DSA detector.
//!
//! ```text
//! forge --budget 256 --seed 1 --seed 2        # two campaigns, 256 programs each
//! forge --inject-bug corrupt-restore --out corpus/regressions
//! forge --replay corpus/regressions/forge-repro-corrupt-restore-seed1.json
//! ```
//!
//! A campaign generates a seed-deterministic, structurally-deduplicated
//! corpus of small loop programs spanning all eight paper loop classes,
//! runs each through three differential oracle phases (clean, faulted,
//! kill→restore→resume), and prints a per-class coverage table
//! (generated × detected × vectorized). It also sweeps the eight fixed
//! workloads through a clean check, every fault site (all at once, then
//! one at a time) and a kill→restore→resume check, and prints a
//! per-site table (checks × fired × degradations × poisoned); a site
//! that never fires fails the campaign. A failing program is
//! ddmin-shrunk to a minimal reproducer, a failing workload check is
//! already minimal, and either is written as a replayable
//! `dsa-forge/v1` JSON artifact.
//!
//! With `--inject-bug <name>` the campaign arms a planted test-only
//! bug and *must* catch it: exit 0 means caught-and-shrunk, exit 1
//! means the harness let a known bug through.
//!
//! Replay exit codes (CI contract, pinned by `tests/replay_exit_codes.rs`):
//!
//! | code | meaning |
//! |------|---------|
//! | 0    | artifact behaves as recorded (failure reproduces under its recorded bug, or a clean artifact stays clean) |
//! | 1    | unexpected live divergence (clean artifact now fails, or a failure reproduces with no planted bug recorded) |
//! | 2    | usage error |
//! | 3    | stale reproducer (recorded failure no longer reproduces) |
//! | 4    | artifact unreadable or malformed |

use std::io::Write as _;

use dsa_bench::forge::campaign::observe;
use dsa_bench::forge::{shrink_program, Campaign, ForgeFailure, SiteTable, Subject};
use dsa_core::{DsaConfig, TestBug};

/// Campaign seeds CI runs when none are given (see
/// `.github/workflows/ci.yml`, job `campaigns`).
const CI_SEEDS: [u64; 8] = [1, 2, 3, 5, 8, 13, 21, 34];

struct Args {
    budget: usize,
    seeds: Vec<u64>,
    jobs: Option<usize>,
    inject_bug: Option<TestBug>,
    out_dir: Option<String>,
    replay: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        budget: 128,
        seeds: Vec::new(),
        jobs: None,
        inject_bug: None,
        out_dir: None,
        replay: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |what: &str| {
            it.next().unwrap_or_else(|| usage(&format!("{a} needs a {what} argument")))
        };
        match a.as_str() {
            "--budget" => {
                let v = value("count");
                args.budget = v
                    .parse()
                    .unwrap_or_else(|_| usage(&format!("bad budget `{v}` (want a count)")));
            }
            "--seed" => {
                let v = value("u64");
                args.seeds.push(
                    v.parse().unwrap_or_else(|_| usage(&format!("seed `{v}` is not a u64"))),
                );
            }
            "--jobs" => {
                let v = value("count");
                args.jobs = Some(
                    v.parse().unwrap_or_else(|_| usage(&format!("bad jobs `{v}`"))),
                );
            }
            "--inject-bug" => {
                let v = value("bug name");
                args.inject_bug = Some(
                    TestBug::by_name(&v)
                        .unwrap_or_else(|| usage(&format!("unknown test bug `{v}`"))),
                );
            }
            "--out" => args.out_dir = Some(value("directory")),
            "--replay" => args.replay = Some(value("file")),
            other => usage(&format!("unknown argument `{other}`")),
        }
    }
    if args.seeds.is_empty() {
        args.seeds = CI_SEEDS.to_vec();
    }
    args
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "error: {msg}\nusage: forge [--budget <programs>] [--seed <u64>]... [--jobs <n>] \
         [--inject-bug <name>] [--out <dir>] [--replay <file>]"
    );
    std::process::exit(2);
}

fn exit(code: i32) -> ! {
    let _ = std::io::stdout().flush();
    let _ = std::io::stderr().flush();
    std::process::exit(code);
}

/// One line naming a subject for logs.
fn describe(subject: &Subject) -> String {
    match subject {
        Subject::Program(spec) => format!("seed {} ({} loop(s))", spec.seed, spec.loops.len()),
        Subject::Workload(case) => format!(
            "seed {} (workload {}, phase {}, site {})",
            case.seed,
            case.workload.describe(),
            case.phase.name(),
            case.phase.site_name().unwrap_or("none")
        ),
    }
}

/// Replays one `dsa-forge/v1` artifact and grades it against what it
/// recorded. See the module docs for the exit-code contract.
fn replay(path: &str) -> ! {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("forge: reading {path}: {e}");
            exit(4);
        }
    };
    let (subject, bug, recorded) = match Subject::from_json(&text) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("forge: parsing {path}: {e}");
            exit(4);
        }
    };
    println!("replaying {}, bug={}", describe(&subject), bug.map(|b| b.name()).unwrap_or("none"));
    let live = subject.observe(bug);
    let live_kind = live.map(|f| f.kind()).unwrap_or("none");
    println!(
        "outcome: recorded={} live={live_kind}",
        recorded.as_deref().unwrap_or("none")
    );
    match (recorded, live) {
        // Clean artifact stays clean: as recorded.
        (None, None) => exit(0),
        // Clean artifact now diverges: a live detector bug.
        (None, Some(f)) => {
            eprintln!("forge: clean artifact {path} now fails: {}", f.kind());
            exit(1);
        }
        // Recorded failure reproduces. With a planted bug recorded
        // that is the expected, healthy state of a committed
        // regression artifact. Without one, the artifact pins a real
        // open detector bug — surface it loudly.
        (Some(_), Some(f)) => {
            if bug.is_some() {
                println!("reproduced under planted bug: {}", f.kind());
                exit(0);
            }
            eprintln!("forge: reproducer {path} still fails live: {}", f.kind());
            exit(1);
        }
        // Recorded failure no longer reproduces: stale.
        (Some(was), None) => {
            eprintln!(
                "forge: STALE reproducer: {path} recorded failure `{was}` at capture \
                 time, but the replay now passes.\n  Delete the artifact, or re-record \
                 it with a current build if the bug is still open."
            );
            exit(3);
        }
    }
}

/// Writes (or prints) the reproducer artifact of a campaign's first
/// failure, shrinking it first if it is a program.
fn write_reproducer(
    seed: u64,
    subject: &Subject,
    failure: ForgeFailure,
    bug: Option<TestBug>,
    out_dir: Option<&str>,
) {
    let min = match subject {
        Subject::Program(spec) => {
            println!(
                "seed {seed}: program {:#018x} FAILED ({}); shrinking...",
                spec.structural_hash(),
                failure.kind()
            );
            let (min, tried) = shrink_program(spec, |p| observe(p, bug) == Some(failure));
            println!(
                "shrunk to {} loop(s), trips {:?} after {tried} candidate programs",
                min.loops.len(),
                min.loops.iter().map(|l| l.trip).collect::<Vec<_>>()
            );
            Subject::Program(min)
        }
        Subject::Workload(_) => {
            println!("{} FAILED ({})", describe(subject), failure.kind());
            subject.clone()
        }
    };
    let artifact = min.to_json(Some(failure.kind()), bug);
    let stem = match bug {
        Some(b) => format!("forge-repro-{}-seed{seed}.json", b.name()),
        None => format!("forge-repro-seed{seed}.json"),
    };
    match out_dir {
        Some(dir) => {
            let path = format!("{dir}/{stem}");
            if let Err(e) =
                std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, &artifact))
            {
                eprintln!("forge: writing reproducer {path}: {e}");
                exit(1);
            }
            println!("reproducer: {path}");
        }
        None => println!("reproducer: {artifact}"),
    }
}

fn main() {
    let args = parse_args();
    if let Some(path) = &args.replay {
        replay(path);
    }

    let mut config = DsaConfig::full();
    if let Some(bug) = args.inject_bug {
        config = config.with_test_bug(bug);
        println!("injecting planted bug `{}` — the campaign MUST catch it", bug.name());
    }

    let mut caught = 0usize;
    let mut total_programs = 0usize;
    let mut sites = SiteTable::default();
    for &seed in &args.seeds {
        let mut campaign = Campaign::new(seed, args.budget, config);
        if let Some(jobs) = args.jobs {
            campaign.jobs = jobs.max(1);
        }
        let report = campaign.run();
        total_programs += report.programs;
        println!(
            "campaign seed {seed}: {} programs ({} generated, {} duplicates), \
             {} jobs, {} inconclusive, {} infra failure(s), {} divergence(s)",
            report.programs,
            report.generated,
            report.duplicates,
            campaign.jobs,
            report.inconclusive,
            report.infra_failures,
            report.failures.len()
        );
        print!("{}", report.coverage.render());
        if !report.coverage.complete() {
            println!("note: seed {seed} alone does not cover all eight classes");
        }
        print!("{}", report.sites.render());
        sites.add(&report.sites);
        if report.infra_failures > 0 {
            eprintln!("forge: campaign seed {seed} hit supervisor-level failures");
            exit(1);
        }
        if let Some((subject, failure)) = report.failures.first() {
            caught += 1;
            write_reproducer(seed, subject, *failure, args.inject_bug, args.out_dir.as_deref());
            if args.inject_bug.is_none() {
                eprintln!("forge: campaign seed {seed} diverged: {}", failure.kind());
                exit(1);
            }
        }
        let silent = report.sites.silent();
        if !silent.is_empty() {
            eprintln!("forge: campaign seed {seed}: fault site(s) never fired: {silent:?}");
            exit(1);
        }
    }
    if args.seeds.len() > 1 {
        println!("fault sites across {} campaigns:", args.seeds.len());
        print!("{}", sites.render());
    }

    match args.inject_bug {
        Some(bug) if caught == 0 => {
            eprintln!(
                "forge: planted bug `{}` was NOT caught over {total_programs} programs — \
                 the harness has lost its teeth",
                bug.name()
            );
            exit(1);
        }
        Some(bug) => {
            println!(
                "planted bug `{}` caught in {caught}/{} campaign(s); harness self-test ok",
                bug.name(),
                args.seeds.len()
            );
            exit(0);
        }
        None => {
            println!(
                "forge: {total_programs} programs across {} campaign(s), 0 divergences",
                args.seeds.len()
            );
            exit(0);
        }
    }
}
