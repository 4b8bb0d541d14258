//! `ladm-perfbench`: the repository benchmark. Runs one named workload
//! from a single process on one thread as a closed loop — the next
//! (workload, policy) cell starts only after the previous one finished —
//! checks every cell's simulated output, and prints every metric by name
//! with its unit and sample count. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//!
//! ```text
//! ladm-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                [--root <repo>] [--out-dir <dir>]
//! ladm-perfbench --workload <name> --record-digests [--root <repo>]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off.
//! `--trace 1` is the separate traced run: spans around the calls into
//! each layer, the simulator's `prof` work counters, and a layer-by-layer
//! replay of one representative cell; it prints the per-layer metrics
//! and writes the spans to `<out-dir>/spans-<workload>-seed<n>.jsonl`.

mod calib;
mod cells;
mod check;
mod replay;
mod stats;
mod trace;

use calib::Probe;
use cells::{cells, replay_cell, run_cell, shuffle, Cell, Inputs, WorkloadId, DEFAULT_SEED};
use check::{References, Tally};
use ladm_core::rng::SplitMix64;
use ladm_obs::prof;
use ladm_sim::GpuSystem;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Mixed into the seed for the cell-order stream.
const ORDER_SALT: u64 = 0x05EE_D0FC_E115;

#[derive(Debug)]
struct Args {
    workload: WorkloadId,
    seed: u64,
    seconds: f64,
    trace: bool,
    root: PathBuf,
    out_dir: PathBuf,
    record_digests: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut root = PathBuf::from(".");
    let mut out_dir = None;
    let mut record_digests = false;
    while let Some(flag) = args.next() {
        if flag == "--record-digests" {
            record_digests = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => {
                workload = Some(WorkloadId::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = WorkloadId::ALL.iter().map(|w| w.name()).collect();
                    bad(&format!("expected one of {}", names.join(", ")))
                })?);
            }
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|_| bad("expected an unsigned integer"))?
            }
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad("expected a number"))?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err(bad("expected a positive number"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--root" => root = PathBuf::from(&value),
            "--out-dir" => out_dir = Some(PathBuf::from(&value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        out_dir: out_dir.unwrap_or_else(|| root.clone()),
        root,
        record_digests,
    })
}

/// What set-up prepares: the seed's inputs, the cells and the digests.
struct Setup {
    inputs: Inputs,
    cells: Vec<Cell>,
    refs: Option<References>,
}

fn setup(args: &Args) -> Result<Setup, String> {
    let inputs = Inputs::new(args.workload, args.seed);
    let cells = cells(args.workload);
    let refs = References::load(&args.root, args.workload, args.seed)?;
    // Warm-up: every distinct workload built once and one machine, so
    // the first timed cell does not pay for first use of the heap.
    let mut built = Vec::new();
    for cell in &cells {
        if !built.contains(&cell.subject) {
            built.push(cell.subject);
            drop(inputs.kernels(cell.subject));
        }
    }
    drop(GpuSystem::new(inputs.cfg.clone()));
    Ok(Setup {
        inputs,
        cells,
        refs,
    })
}

/// Work counts of one round, from `KernelStats` and the `prof` counters.
#[derive(Debug, Default, Clone, PartialEq)]
struct Counts {
    l1_hits: u64,
    l1_misses: u64,
    offnode: u64,
    l2_hits: u64,
    l2_accesses: u64,
    page_faults: u64,
    replaced_pages: u64,
    bw_claims: u64,
    l1_probes: u64,
    l2_probes: u64,
    remote_serves: u64,
    heap_ops: u64,
}

impl Counts {
    fn sectors(&self) -> u64 {
        self.l1_hits + self.l1_misses
    }

    fn take_prof(&mut self) {
        let p = prof::take();
        let c = |name: &str| p.counters.get(name).copied().unwrap_or(0);
        self.bw_claims = c("bw.claims");
        self.l1_probes = c("shard.l1_probes");
        self.l2_probes = c("shard.l2_probes");
        self.remote_serves = c("shard.remote_serves");
        self.heap_ops = c("engine.heap_pop") + c("engine.heap_push");
    }
}

/// One cell that passed its check.
#[derive(Debug, Clone, Copy, Default)]
struct Sample {
    /// Index of the cell in canonical order.
    idx: usize,
    /// Simulated L1 sector requests.
    sectors: u64,
    /// Wall time, ms.
    ms: f64,
    /// Wall time at the host's nominal speed ([`calib`]), ms; set once
    /// the run's probes are all taken.
    ref_ms: f64,
    /// The probe taken right after the cell.
    probe_after: usize,
    /// Simulated cycles.
    cycles: f64,
    /// Bytes that left a chiplet.
    offnode_bytes: u64,
}

/// One pass over every cell.
#[derive(Debug, Default)]
struct Round {
    samples: Vec<Sample>,
    /// Wall time of the whole round, s.
    wall_s: f64,
    counts: Counts,
}

impl Round {
    /// Simulated cycles and off-node bytes of the LADM cells, summed in
    /// canonical cell order so the total does not depend on the seed's
    /// cell order.
    fn ladm_totals(&self, cells: &[Cell]) -> (f64, u64) {
        let mut ladm: Vec<&Sample> = self
            .samples
            .iter()
            .filter(|s| cells[s.idx].is_ladm())
            .collect();
        ladm.sort_by_key(|s| s.idx);
        ladm.iter().fold((0.0, 0), |(cy, by), s| {
            (cy + s.cycles, by + s.offnode_bytes)
        })
    }
}

/// Sets every sample's time at nominal speed, once the run's last
/// probe is taken.
fn scale_samples(rounds: &mut [Round], probe: &Probe) {
    for s in rounds.iter_mut().flat_map(|r| &mut r.samples) {
        s.ref_ms = s.ms * probe.scale(s.probe_after);
    }
}

/// Sectors of one round over the sum of every cell's median time: a
/// round's throughput with each cell at its typical speed.
fn sector_rate(rounds: &[Round], time: fn(&Sample) -> f64) -> f64 {
    let mut by_cell: BTreeMap<usize, (u64, Vec<f64>)> = BTreeMap::new();
    for s in rounds.iter().flat_map(|r| &r.samples) {
        by_cell
            .entry(s.idx)
            .or_insert((s.sectors, Vec::new()))
            .1
            .push(time(s));
    }
    let sectors: u64 = by_cell.values().map(|c| c.0).sum();
    let ms: f64 = by_cell.values().map(|c| stats::median(&c.1)).sum();
    sectors as f64 * 1e3 / ms.max(1e-9)
}

fn run_round(
    setup: &Setup,
    order: &[Cell],
    tr: &mut Tracer,
    tally: &mut Tally,
    probe: &mut Probe,
) -> Round {
    let mut round = Round::default();
    let start = Instant::now();
    for &cell in order {
        let label = cell.label();
        tr.begin_cell(label.clone());
        let mut ms = 0.0;
        let passed = tally.attempt(&label, setup.refs.as_ref(), || {
            let span = tr.open("cell");
            let t = Instant::now();
            let out = run_cell(&setup.inputs, cell, tr);
            ms = t.elapsed().as_secs_f64() * 1e3;
            tr.close(span);
            out
        });
        let probe_after = probe.mark();
        let Some(out) = passed else { continue };
        let s = &out.stats;
        round.samples.push(Sample {
            idx: setup
                .cells
                .iter()
                .position(|&c| c == cell)
                .expect("known cell"),
            sectors: s.l1_hits + s.l1_misses,
            ms,
            ref_ms: 0.0,
            probe_after,
            cycles: s.cycles,
            offnode_bytes: s.inter_chiplet_bytes + s.inter_gpu_bytes,
        });
        let c = &mut round.counts;
        c.l1_hits += s.l1_hits;
        c.l1_misses += s.l1_misses;
        c.offnode += s.sectors_offnode;
        for class in [s.l2_local_local, s.l2_local_remote, s.l2_remote_local] {
            c.l2_hits += class.hits;
            c.l2_accesses += class.accesses;
        }
        c.page_faults += s.page_faults;
        c.replaced_pages += out.replaced_pages;
    }
    round.wall_s = start.elapsed().as_secs_f64();
    round
}

/// Rounds that fit `seconds`, given the first round took `first_s`.
fn planned_rounds(seconds: f64, first_s: f64) -> usize {
    ((seconds / first_s.max(1e-9)).round() as usize).max(1)
}

/// The process's peak resident set, MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Metrics in print order: `(name, value, unit, samples)`.
type Metrics = Vec<(&'static str, f64, &'static str, usize)>;

fn result_json(correct: bool, tally: Tally, metrics: &Metrics) -> String {
    let mut body = String::new();
    for (i, (name, value, unit, _)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            r#"{sep}"{name}": {{"value": {value}, "unit": "{unit}"}}"#
        );
    }
    format!(
        r#"{{"correct": {correct}, "attempted": {}, "failed": {}, "metrics": {{{body}}}}}"#,
        tally.attempted, tally.failed
    )
}

fn print_metrics(metrics: &Metrics) {
    for (name, value, unit, n) in metrics {
        println!("metric {name:<32} {value:>16.6} {unit:<12} n={n}");
    }
}

/// Runs whole rounds until about `seconds` have passed.
fn run_rounds(
    seconds: f64,
    setup: &Setup,
    rng: &mut SplitMix64,
    tr: &mut Tracer,
    tally: &mut Tally,
    probe: &mut Probe,
) -> Vec<Round> {
    let mut rounds: Vec<Round> = Vec::new();
    let mut planned = 1;
    while rounds.len() < planned {
        let mut order = setup.cells.clone();
        shuffle(&mut order, rng);
        rounds.push(run_round(setup, &order, tr, tally, probe));
        planned = planned_rounds(seconds, rounds[0].wall_s);
    }
    rounds
}

/// The untraced run: end-to-end metrics.
fn measure(
    args: &Args,
    setup: &Setup,
    setups: &[(f64, usize)],
    probe: &mut Probe,
) -> (bool, Tally, Metrics) {
    let mut tally = Tally::default();
    let mut rng = SplitMix64::new(args.seed ^ ORDER_SALT);
    let mut rounds = run_rounds(
        args.seconds,
        setup,
        &mut rng,
        &mut Tracer::off(),
        &mut tally,
        probe,
    );
    scale_samples(&mut rounds, probe);
    let samples: Vec<&Sample> = rounds.iter().flat_map(|r| &r.samples).collect();
    let cell_ms: Vec<f64> = samples.iter().map(|s| s.ms).collect();
    let ref_ms: Vec<f64> = samples.iter().map(|s| s.ref_ms).collect();
    let setup_raw: Vec<f64> = setups.iter().map(|s| s.0).collect();
    let setup_ref: Vec<f64> = setups.iter().map(|s| s.0 * probe.scale(s.1)).collect();
    let n = samples.len();
    let median = |xs: &[f64]| {
        if xs.is_empty() {
            0.0
        } else {
            stats::median(xs)
        }
    };
    println!(
        "{} seed {}: {} round(s), {n} timed cells, {:.2} s in cells",
        args.workload.name(),
        args.seed,
        rounds.len(),
        cell_ms.iter().sum::<f64>() / 1e3
    );
    println!(
        "raw wall time: sectors_per_s {:.0}, cell_ms_p50 {:.3}, setup_s {:.6}; probe median {:.3} ms, nominal {} ms",
        sector_rate(&rounds, |s| s.ms),
        median(&cell_ms),
        median(&setup_raw),
        probe.median_ms(),
        calib::NOMINAL_MS
    );
    let (cycles, offnode_bytes) = rounds[0].ladm_totals(&setup.cells);
    let exact = rounds
        .iter()
        .all(|r| r.ladm_totals(&setup.cells) == (cycles, offnode_bytes));
    if !exact {
        eprintln!("simulated LADM totals differ between rounds");
    }
    let ladm_cells = setup.cells.iter().filter(|c| c.is_ladm()).count();
    let metrics: Metrics = vec![
        (
            "sectors_per_s",
            sector_rate(&rounds, |s| s.ref_ms),
            "1/s",
            n,
        ),
        ("cell_ms_p50", median(&ref_ms), "ms", n),
        ("setup_s", median(&setup_ref), "s", SETUP_REPS),
        ("peak_rss_mb", peak_rss_mb(), "MB", 1),
        ("sim_cycles_ladm", cycles, "cycles", ladm_cells),
        (
            "offnode_bytes_ladm",
            offnode_bytes as f64,
            "bytes",
            ladm_cells,
        ),
    ];
    print_metrics(&metrics);
    match stats::tail_permille(n) {
        Some(pm) => println!(
            "tail   cell_ms_p{:<4} {:>27.6} ms           n={n}",
            f64::from(pm) / 10.0,
            stats::percentile(&ref_ms, pm)
        ),
        None => println!("tail   none: {n} cell samples leave fewer than 10 beyond p90"),
    }
    (tally.failed == 0 && n > 0 && exact, tally, metrics)
}

/// The traced run: per-layer metrics.
fn measure_traced(args: &Args, setup: &Setup, probe: &mut Probe) -> (bool, Tally, Metrics) {
    let mut tally = Tally::default();
    let mut rng = SplitMix64::new(args.seed ^ ORDER_SALT);
    let mut order = setup.cells.clone();
    shuffle(&mut order, &mut rng);
    let mut untraced = [run_round(
        setup,
        &order,
        &mut Tracer::off(),
        &mut tally,
        probe,
    )];

    let mut tr = Tracer::on();
    prof::reset();
    prof::enable();
    let mut rounds: Vec<Round> = Vec::new();
    let planned = planned_rounds(args.seconds, untraced[0].wall_s).max(2) - 1;
    while rounds.len() < planned {
        let mut order = setup.cells.clone();
        shuffle(&mut order, &mut rng);
        let mut round = run_round(setup, &order, &mut tr, &mut tally, probe);
        round.counts.take_prof();
        rounds.push(round);
    }
    prof::disable();
    scale_samples(&mut untraced, probe);
    scale_samples(&mut rounds, probe);
    let counts = rounds[0].counts.clone();
    let repeatable = rounds.iter().all(|r| r.counts == counts);
    if !repeatable {
        eprintln!("work counts differ between traced rounds");
    }

    let spans = tr.to_jsonl();
    let path = args.out_dir.join(format!(
        "spans-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    if let Err(e) =
        std::fs::create_dir_all(&args.out_dir).and_then(|()| std::fs::write(&path, spans))
    {
        eprintln!("cannot write {}: {e}", path.display());
    }

    let rc = replay_cell(args.workload);
    let costs = replay::replay(
        &setup.inputs.kernels(rc.subject),
        setup.inputs.policy(rc.policy),
        &setup.inputs.cfg,
    );
    println!(
        "{} seed {}: 1 untraced + {} traced round(s); replayed {}; spans in {}",
        args.workload.name(),
        args.seed,
        rounds.len(),
        rc.label(),
        path.display()
    );

    let traced_sectors: u64 = rounds.iter().map(|r| r.counts.sectors()).sum();
    let sectors = counts.sectors().max(1) as f64;
    let per_sector = |x: u64| x as f64 / sectors;
    let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;
    let calls = |name: &str| tr.totals(name).0 as usize;
    let ref_s = |r: &Round| r.samples.iter().map(|s| s.ref_ms).sum::<f64>();
    let traced = stats::median(&rounds.iter().map(ref_s).collect::<Vec<_>>());
    let metrics: Metrics = vec![
        (
            "workloads.build_ms",
            tr.mean_ns("workloads.build") / 1e6,
            "ms",
            calls("workloads.build"),
        ),
        (
            "workloads.gen_ns_per_access",
            costs.gen_ns_per_access,
            "ns",
            1,
        ),
        (
            "core.plan_us",
            tr.mean_ns("core.plan") / 1e3,
            "us",
            calls("core.plan"),
        ),
        (
            "core.session_plan_us",
            tr.mean_ns("core.session_plan") / 1e3,
            "us",
            calls("core.session_plan"),
        ),
        (
            "sim.new_ms",
            tr.mean_ns("sim.new") / 1e6,
            "ms",
            calls("sim.new"),
        ),
        (
            "sim.flush_us",
            tr.mean_ns("sim.flush") / 1e3,
            "us",
            calls("sim.flush"),
        ),
        (
            "sim.run_ns_per_sector",
            tr.totals("sim.run").1 as f64 / traced_sectors.max(1) as f64,
            "ns",
            calls("sim.run"),
        ),
        ("sim.cache.access_ns", costs.cache_access_ns, "ns", 1),
        (
            "sim.l1_hit_rate",
            ratio(counts.l1_hits, counts.sectors()),
            "ratio",
            1,
        ),
        (
            "sim.l2_hit_rate",
            ratio(counts.l2_hits, counts.l2_accesses),
            "ratio",
            1,
        ),
        ("sim.bw.claim_ns", costs.claim_ns, "ns", 1),
        (
            "sim.bw.claims_per_sector",
            per_sector(counts.bw_claims),
            "count/sector",
            1,
        ),
        ("sim.fabric.route_ns", costs.route_ns, "ns", 1),
        (
            "sim.fabric.offnode_share",
            ratio(counts.offnode, counts.l1_misses),
            "ratio",
            1,
        ),
        ("sim.mem.resolve_ns", costs.resolve_ns, "ns", 1),
        ("sim.mem.page_faults", counts.page_faults as f64, "count", 1),
        (
            "sim.l1_probes_per_sector",
            per_sector(counts.l1_probes),
            "count/sector",
            1,
        ),
        (
            "sim.l2_probes_per_sector",
            per_sector(counts.l2_probes),
            "count/sector",
            1,
        ),
        (
            "sim.remote_serves_per_sector",
            per_sector(counts.remote_serves),
            "count/sector",
            1,
        ),
        (
            "sim.heap_ops_per_sector",
            per_sector(counts.heap_ops),
            "count/sector",
            1,
        ),
        (
            "sim.session.replaced_pages",
            counts.replaced_pages as f64,
            "count",
            1,
        ),
        (
            "obs.trace_overhead",
            traced / ref_s(&untraced[0]).max(1e-9),
            "ratio",
            rounds.len(),
        ),
    ];
    print_metrics(&metrics);
    (tally.failed == 0 && repeatable, tally, metrics)
}

/// Runs every cell once in canonical order at the default seed and
/// writes the digests the repository fixture does not already hold.
fn record_digests(args: &Args) -> Result<(), String> {
    if args.seed != DEFAULT_SEED {
        return Err(format!(
            "digests are recorded at the default seed {DEFAULT_SEED}"
        ));
    }
    let inputs = Inputs::new(args.workload, args.seed);
    let mut fixture = References::default();
    if args.workload == WorkloadId::SuiteTest {
        let path = args.root.join(check::SUITE_FIXTURE);
        fixture.add_text(
            &std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?,
        );
    }
    let mut text = String::new();
    for cell in cells(args.workload) {
        for (key, line) in run_cell(&inputs, cell, &mut Tracer::off()).lines {
            if !fixture.contains(&key) {
                text.push_str(&line);
                text.push('\n');
            }
        }
    }
    let path = check::own_digest_path(&args.root, args.workload);
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

fn run(start: Instant) -> Result<(), (u8, String)> {
    if std::env::var_os("LADM_SIM_THREADS").is_some() {
        return Err((
            2,
            "LADM_SIM_THREADS is set: the benchmark measures the serial engine only; unset it"
                .into(),
        ));
    }
    let args = parse_args().map_err(|e| (2, e))?;
    if args.record_digests {
        return record_digests(&args).map_err(|e| (1, e));
    }
    // Set-up is timed from process start, then repeated; the probe
    // after each repetition scales it like a cell.
    let mut probe = Probe::new();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut prepared = None;
    for rep in 0..SETUP_REPS {
        let t = if rep == 0 { start } else { Instant::now() };
        prepared = Some(setup(&args).map_err(|e| (1, e))?);
        setups.push((t.elapsed().as_secs_f64(), probe.mark()));
    }
    let setup_state = prepared.expect("at least one set-up");
    let (correct, tally, metrics) = if args.trace {
        measure_traced(&args, &setup_state, &mut probe)
    } else {
        measure(&args, &setup_state, &setups, &mut probe)
    };
    println!(
        "{} seed {}: {} of {} cells failed",
        args.workload.name(),
        args.seed,
        tally.failed,
        tally.attempted
    );
    println!("{}", result_json(correct, tally, &metrics));
    Ok(())
}

fn main() -> ExitCode {
    let start = Instant::now();
    match run(start) {
        Ok(()) => ExitCode::SUCCESS,
        Err((code, msg)) => {
            eprintln!("ladm-perfbench: {msg}");
            ExitCode::from(code)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let tally = Tally {
            attempted: 3,
            failed: 1,
        };
        let metrics: Metrics = vec![("a", 1.5, "ms", 2), ("b", f64::NAN, "s", 1)];
        assert_eq!(
            result_json(false, tally, &metrics),
            r#"{"correct": false, "attempted": 3, "failed": 1, "metrics": {"a": {"value": 1.5, "unit": "ms"}, "b": {"value": 0, "unit": "s"}}}"#
        );
    }

    #[test]
    fn rounds_fill_the_requested_time() {
        assert_eq!(planned_rounds(20.0, 10.1), 2);
        assert_eq!(planned_rounds(20.0, 3.2), 6);
        assert_eq!(planned_rounds(1.0, 30.0), 1);
    }

    fn sample(idx: usize, cycles: f64, ms: f64) -> Sample {
        Sample {
            idx,
            sectors: 100,
            ms,
            ref_ms: ms,
            probe_after: 0,
            cycles,
            offnode_bytes: 1,
        }
    }

    #[test]
    fn ladm_totals_do_not_depend_on_cell_order() {
        let cells = cells::cells(WorkloadId::GemmBench);
        let ladm: Vec<usize> = (0..cells.len()).filter(|&i| cells[i].is_ladm()).collect();
        let round = |order: &[usize]| Round {
            samples: order
                .iter()
                .map(|&i| sample(i, 0.1 * (i + 1) as f64, 1.0))
                .collect(),
            ..Round::default()
        };
        let mut reversed = ladm.clone();
        reversed.reverse();
        assert_eq!(
            round(&ladm).ladm_totals(&cells),
            round(&reversed).ladm_totals(&cells)
        );
        assert_eq!(round(&ladm).ladm_totals(&cells).1, ladm.len() as u64);
        // Cells of other policies do not count.
        assert_eq!(round(&[0]).ladm_totals(&cells), (0.0, 0));
    }

    #[test]
    fn sector_rate_uses_each_cells_median_time() {
        // Cell 0 ran at 10, 20 and 1000 ms (median 20), cell 1 at 30 ms.
        let rounds: Vec<Round> = [10.0, 1000.0, 20.0]
            .iter()
            .map(|&ms| Round {
                samples: vec![sample(0, 0.0, ms), sample(1, 0.0, 30.0)],
                ..Round::default()
            })
            .collect();
        assert_eq!(sector_rate(&rounds, |s| s.ms), 200.0 * 1e3 / 50.0);
    }

    #[test]
    fn repo_root_is_the_parent_of_the_benchmark() {
        // The digests live under the root the binary is pointed at.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        assert!(root.join(check::SUITE_FIXTURE).is_file());
    }
}
