//! `powerburst` — command-line front end for the reproduction.
//!
//! ```text
//! powerburst run [--clients N] [--pattern P] [--policy P] [--interval MS]
//!                [--secs S] [--seed K] [--threads N] [--web N]
//!                [--ftp BYTES] [--live] [--admission]
//!                [--trace-out FILE] [--metrics-out FILE]
//!                [--trace-events FILE] [--fail-on-invariants]
//! powerburst experiment <name>|all [--secs S] [--seed K]
//! powerburst list
//! ```
//!
//! Argument parsing is hand-rolled (the workspace's dependency budget is
//! deliberately small); every flag has a sane paper-default. A usage
//! error — an unknown flag, a missing or malformed value (a fault
//! probability outside [0, 1], a duration that overflows the simulator's
//! microsecond clock, an interval under 1 ms or a clock skew of 100 000 ppm
//! or more is malformed) — prints a message naming the flag and exits
//! with code 2.

use std::num::NonZeroUsize;
use std::process::ExitCode;

use powerburst::prelude::*;
use powerburst::scenario::experiments as exp;
use powerburst::scenario::report::{fmt_summary, Table};
use powerburst::scenario::{collect, postmortem, MAX_CELLS};
use powerburst::trace::to_jsonl;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let rest = &args[1..];
    let outcome = match cmd.as_str() {
        "run" => cmd_run(rest),
        "experiment" => cmd_experiment(rest),
        "list" => {
            println!("experiments:");
            for e in exp::EXPERIMENTS {
                println!("  {:<24} {}", e.name, e.about);
            }
            Ok(ExitCode::SUCCESS)
        }
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        other => Err(Usage(format!("unknown command `{other}`\n{USAGE}"))),
    };
    outcome.unwrap_or_else(|Usage(msg)| {
        eprintln!("{msg}");
        ExitCode::from(2)
    })
}

const USAGE: &str = "powerburst — ICPP 2004 transparent power-aware proxy reproduction

USAGE:
  powerburst run [--clients N] [--pattern 56k|256k|512k|split|mix]
                 [--policy fixed|variable|channel|buffer|static|psm]
                 [--interval MS] [--secs S] [--seed K]
                 [--cells N] [--threads N] [--coord-pool PERMILLE]
                 [--stagger-ms M]
                 [--web N] [--ftp BYTES] [--live]
                 [--admission] [--trace-out FILE]
                 [--metrics-out FILE] [--trace-events FILE]
                 [--fail-on-invariants]
                 [--fault-loss P] [--fault-dup P] [--fault-reorder P]
                 [--fault-reorder-ms M] [--fault-sched-drop P]
                 [--fault-jitter-ms M] [--fault-jitter-prob P]
                 [--fault-skew-ppm X]
  powerburst experiment <name>|all [--secs S] [--seed K]
  powerburst list";

/// A usage error: its message names the offending flag, and the process
/// exits with code 2.
struct Usage(String);

/// Tiny flag parser: `--key value` pairs and boolean `--key` switches,
/// each from the command's declared set.
struct Flags<'a> {
    given: Vec<(&'a str, Option<&'a str>)>,
}

impl<'a> Flags<'a> {
    /// Split `args` into flags, rejecting any flag outside `valued` and
    /// `switches` and any valued flag without a value.
    fn new(args: &'a [String], valued: &[&str], switches: &[&str]) -> Result<Flags<'a>, Usage> {
        let mut given = Vec::new();
        let mut it = args.iter().map(String::as_str);
        while let Some(key) = it.next() {
            if valued.contains(&key) {
                let value = it.next().ok_or_else(|| Usage(format!("{key} needs a value")))?;
                given.push((key, Some(value)));
            } else if switches.contains(&key) {
                given.push((key, None));
            } else {
                return Err(Usage(format!("unknown flag `{key}`")));
            }
        }
        Ok(Flags { given })
    }

    fn get(&self, key: &str) -> Option<&'a str> {
        self.given.iter().find(|(k, _)| *k == key).and_then(|&(_, v)| v)
    }

    fn has(&self, key: &str) -> bool {
        self.given.iter().any(|(k, _)| *k == key)
    }

    /// The value of `key`, parsed, if the flag was given.
    fn opt<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, Usage> {
        self.opt_if(key, |_| true)
    }

    /// The value of `key`, parsed and accepted by `ok`, if the flag was
    /// given.
    fn opt_if<T: std::str::FromStr>(
        &self,
        key: &str,
        ok: impl Fn(&T) -> bool,
    ) -> Result<Option<T>, Usage> {
        self.get(key)
            .map(|v| v.parse().ok().filter(|x| ok(x)).ok_or_else(|| invalid(v, key)))
            .transpose()
    }

    fn parse<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, Usage> {
        Ok(self.opt(key)?.unwrap_or(default))
    }

    /// The value of probability flag `key`, which must lie in [0, 1].
    fn prob(&self, key: &str, default: f64) -> Result<f64, Usage> {
        Ok(self.opt_if(key, |p| (0.0..=1.0).contains(p))?.unwrap_or(default))
    }

    /// The value of duration flag `key`, a whole number of `unit`s (1 ms or
    /// 1 s) that must fit the simulator's u64 microsecond clock.
    fn duration(&self, key: &str, default: u64, unit: SimDuration) -> Result<SimDuration, Usage> {
        let n = self.opt_if(key, |n: &u64| n.checked_mul(unit.as_us()).is_some())?;
        Ok(unit.times(n.unwrap_or(default)))
    }
}

/// The usage error for a malformed `value` of flag `key`.
fn invalid(value: &str, key: &str) -> Usage {
    Usage(format!("invalid value `{value}` for {key}"))
}

/// The valued flags of `run`.
const RUN_VALUED: &[&str] = &[
    "--clients",
    "--pattern",
    "--interval",
    "--secs",
    "--seed",
    "--policy",
    "--cells",
    "--threads",
    "--coord-pool",
    "--stagger-ms",
    "--web",
    "--ftp",
    "--trace-out",
    "--metrics-out",
    "--trace-events",
    "--fault-loss",
    "--fault-dup",
    "--fault-reorder",
    "--fault-reorder-ms",
    "--fault-sched-drop",
    "--fault-jitter-ms",
    "--fault-jitter-prob",
    "--fault-skew-ppm",
];

/// The switches of `run`.
const RUN_SWITCHES: &[&str] = &["--live", "--admission", "--fail-on-invariants"];

/// One simulated millisecond and second, the units of duration flags.
const MS: SimDuration = SimDuration::from_ms(1);
const SECS: SimDuration = SimDuration::from_secs(1);

/// The worker count of `run` without `--threads` and of `experiment`'s
/// sweeps: the available parallelism, capped so runs don't oversubscribe
/// small CI machines. Thread count never changes any output.
fn default_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(16)
}

fn pattern(name: &str) -> Option<VideoPattern> {
    Some(match name {
        "56k" | "56K" => VideoPattern::All56,
        "256k" | "256K" => VideoPattern::All256,
        "512k" | "512K" => VideoPattern::All512,
        "split" => VideoPattern::Half56Half512,
        "mix" | "all" => VideoPattern::Mixed,
        _ => return None,
    })
}

fn cmd_run(args: &[String]) -> Result<ExitCode, Usage> {
    let f = Flags::new(args, RUN_VALUED, RUN_SWITCHES)?;
    let n_video: usize = f.parse("--clients", 10)?;
    let n_web: usize = f.parse("--web", 0)?;
    let ftp: u64 = f.parse("--ftp", 0)?;
    let duration = f.duration("--secs", 119, SECS)?;
    let seed: u64 = f.parse("--seed", 7)?;
    let pat = pattern(f.get("--pattern").unwrap_or("56k"))
        .ok_or_else(|| Usage("unknown --pattern (use 56k|256k|512k|split|mix)".into()))?;
    // `--policy` picks the slot allocator; `--interval` sets the SRP
    // cadence of every policy but `variable`, whose interval adapts.
    if f.get("--interval").is_some_and(|v| v.parse::<u64>().is_err()) {
        return Err(Usage("unknown --interval (use milliseconds)".into()));
    }
    let interval =
        f.opt_if("--interval", |ms: &u64| *ms >= 1 && ms.checked_mul(MS.as_us()).is_some())?;
    let every = MS.times(interval.unwrap_or(100));
    let policy = match f.get("--policy").unwrap_or("fixed") {
        "fixed" => PolicyKind::DynamicFixed { interval: every },
        "variable" if interval.is_some() => {
            return Err(Usage(
                "--interval does not apply to --policy variable (its interval adapts)".into(),
            ))
        }
        "variable" => PolicyKind::DynamicVariable { min: MS.times(100), max: MS.times(500) },
        "channel" => PolicyKind::ChannelAware { interval: every },
        "buffer" => PolicyKind::BufferAware {
            interval: every,
            target_buffer: powerburst::core::DEFAULT_TARGET_BUFFER,
        },
        "static" => PolicyKind::StaticEqual { interval: every },
        "psm" => PolicyKind::PsmBeacon { interval: every },
        _ => {
            return Err(Usage(
                "unknown --policy (use fixed|variable|channel|buffer|static|psm)".into(),
            ))
        }
    };

    let mut clients: Vec<ClientSpec> = pat
        .fidelities(n_video)
        .into_iter()
        .map(|fi| ClientSpec::new(ClientKind::Video { fidelity: fi }))
        .collect();
    for _ in 0..n_web {
        clients.push(ClientSpec::new(ClientKind::Web { script: WebScriptConfig::default() }));
    }
    if ftp > 0 {
        clients.push(ClientSpec::new(ClientKind::Ftp { size: ftp }));
    }

    let mut cfg = ScenarioConfig::new(seed, policy, clients).with_duration(duration);
    // Multi-cell: N cells round-robin over the client list, one AP +
    // proxy shard per occupied cell, coordinator tier when more than one
    // cell is occupied.
    if let Some(cells) = f.opt::<NonZeroUsize>("--cells")? {
        cfg = cfg.with_cells(cells.get());
        let occupied = cfg.occupied_cells();
        if occupied > MAX_CELLS {
            return Err(Usage(format!(
                "--cells {cells} puts {} clients in {occupied} cells; at most {MAX_CELLS} fit",
                cfg.clients.len()
            )));
        }
    }
    // Worker threads for the sharded event core. Outputs are
    // byte-identical at every value; single-cell worlds always run
    // sequentially regardless.
    let threads = f.opt::<NonZeroUsize>("--threads")?;
    cfg = cfg.with_threads(threads.map_or_else(default_threads, NonZeroUsize::get));
    if let Some(pool) = f.opt("--coord-pool")? {
        cfg = cfg.with_coord_pool(pool);
    }
    cfg.stagger = f.duration("--stagger-ms", cfg.stagger.as_ms(), MS)?;
    if f.has("--live") {
        cfg.radio = RadioMode::Live;
    }
    if f.has("--admission") {
        cfg.admission = true;
    }
    cfg.faults = FaultPlan {
        loss_prob: f.prob("--fault-loss", 0.0)?,
        dup_prob: f.prob("--fault-dup", 0.0)?,
        reorder_prob: f.prob("--fault-reorder", 0.0)?,
        reorder_max: f.duration("--fault-reorder-ms", 5, MS)?,
        sched_drop_prob: f.prob("--fault-sched-drop", 0.0)?,
        ap_jitter_prob: f.prob(
            "--fault-jitter-prob",
            if f.get("--fault-jitter-ms").is_some() { 0.2 } else { 0.0 },
        )?,
        ap_jitter_max: f.duration("--fault-jitter-ms", 0, MS)?,
        // Below 100 000 ppm every client clock still runs forward.
        clock_skew_ppm: f
            .opt_if("--fault-skew-ppm", |x: &f64| x.is_finite() && x.abs() < 100_000.0)?
            .unwrap_or(0.0),
    };
    let metrics_out = f.get("--metrics-out");
    let events_out = f.get("--trace-events");
    if metrics_out.is_some() || events_out.is_some() {
        cfg.obs = ObsConfig { metrics: true, events: events_out.is_some() };
    }

    eprintln!(
        "running {} clients for {}s (seed {seed}, {} radio)...",
        cfg.clients.len(),
        duration.as_secs_f64(),
        if cfg.radio == RadioMode::Live { "live" } else { "monitor" }
    );

    // `run_scenario`'s stages, so the raw trace `--trace-out` writes and
    // the report below come from one run.
    let mut a = assemble(&cfg);
    a.world.run_until(SimTime::ZERO + cfg.duration);
    let trace = a.world.take_trace();
    if let Some(path) = f.get("--trace-out") {
        if let Err(e) = std::fs::write(path, to_jsonl(&trace)) {
            eprintln!("cannot write {path}: {e}");
            return Ok(ExitCode::FAILURE);
        }
        eprintln!("trace: {} frames -> {path}", trace.len());
    }
    let posts = postmortem(&cfg, &trace);
    let r = collect(&cfg, &mut a, posts, &trace);
    let mut t = Table::new(vec!["client", "saved %", "loss %", "sleep (s)", "delivered"]);
    for c in &r.clients {
        t.row(vec![
            format!("{} ({})", c.host, c.label),
            format!("{:.1}", c.saved_pct()),
            format!("{:.2}", c.loss_pct()),
            format!("{:.1}", c.post.sleep.as_secs_f64()),
            c.post.delivered.to_string(),
        ]);
    }
    println!("{}", t.render());
    let s = r.saved_all();
    println!(
        "overall: saved {} | loss {:.2}% | utilization {:.2} | schedules {} | downshifts {}",
        fmt_summary(&s),
        r.loss_summary(|_| true).mean,
        r.utilization,
        r.proxy.schedules_sent,
        r.downshifts,
    );
    if let Some(a) = r.admission {
        println!(
            "admission: {} admitted, {} rejected, {} packets refused",
            a.admitted, a.rejected, a.packets_refused
        );
    }
    if !cfg.faults.is_none() {
        let fs = r.faults;
        println!(
            "faults: {} lost, {} SRP dropped, {} duplicated, {} reordered, {} AP spikes",
            fs.frames_lost,
            fs.schedules_dropped,
            fs.frames_duplicated,
            fs.frames_reordered,
            fs.ap_spikes,
        );
    }
    if r.invariants.is_clean() {
        println!("invariants: clean");
    } else {
        println!("invariants: {} violation(s)", r.invariants.total());
        for v in r.invariants.violations().iter().take(5) {
            println!("  {v}");
        }
    }
    if let Err(code) = write_obs_exports(&r, metrics_out, events_out) {
        return Ok(code);
    }
    if f.has("--fail-on-invariants") && !r.invariants.is_clean() {
        eprintln!("failing: {} invariant violation(s)", r.invariants.total());
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

/// Write the metrics (JSON, or CSV when the path ends in `.csv`) and the
/// event stream (JSON-lines) exports of an instrumented run.
fn write_obs_exports(
    r: &ScenarioResult,
    metrics_out: Option<&str>,
    events_out: Option<&str>,
) -> Result<(), ExitCode> {
    let Some(rep) = r.obs.as_ref() else {
        if metrics_out.is_some() || events_out.is_some() {
            eprintln!("no observability export (collection was not enabled)");
            return Err(ExitCode::FAILURE);
        }
        return Ok(());
    };
    if let Some(path) = metrics_out {
        let body = if path.ends_with(".csv") { rep.metrics_csv() } else { rep.metrics_json() };
        if let Err(e) = std::fs::write(path, body) {
            eprintln!("cannot write {path}: {e}");
            return Err(ExitCode::FAILURE);
        }
        eprintln!("metrics -> {path}");
    }
    if let Some(path) = events_out {
        if let Err(e) = std::fs::write(path, rep.events_jsonl()) {
            eprintln!("cannot write {path}: {e}");
            return Err(ExitCode::FAILURE);
        }
        eprintln!("events: {} ({} dropped) -> {path}", rep.events.len(), rep.events_dropped);
    }
    Ok(())
}

fn cmd_experiment(args: &[String]) -> Result<ExitCode, Usage> {
    let Some(name) = args.first() else {
        return Err(Usage("experiment name required; see `powerburst list`".into()));
    };
    let f = Flags::new(&args[1..], &["--secs", "--seed"], &[])?;
    let opt = exp::ExpOptions {
        duration: f.duration("--secs", 119, SECS)?,
        seed: f.parse("--seed", 7)?,
        threads: default_threads(),
    };

    let out = match name.as_str() {
        "all" => exp::run_all(&opt),
        name => match exp::EXPERIMENTS.iter().find(|e| e.name == name) {
            Some(e) => (e.run)(&opt),
            None => {
                return Err(Usage(format!("unknown experiment `{name}`; see `powerburst list`")))
            }
        },
    };
    println!("{out}");
    Ok(ExitCode::SUCCESS)
}
