//! The experiment grid engine: expand a parameter sweep into independent
//! cells, execute them across a thread pool, and aggregate the results
//! back — in declaration order — into the [`Table`] the experiment prints.
//!
//! Every cell owns its whole simulation (scheduler, RNG streams, storage
//! server, observer), so a cell's [`RunResult`] is bit-identical whether
//! the grid runs serially or on N workers: parallelism only changes
//! *which OS thread* a cell runs on, never what it computes. That is the
//! property the `--jobs 1` vs `--jobs N` byte-identity tests pin.
//!
//! Replicates: a cell declared with `replicates = R > 1` (via
//! [`GridOptions`]) is executed R times with derived seeds (replicate 0
//! keeps the configured seed; replicate `k` uses
//! `derive_seed(seed, GRID_REPLICATE_STREAM + k)`), and each metric column
//! expands into `mean`/`min`/`max`/`sd` columns over the replicates.
//!
//! The pool is hand-rolled on `std::thread::scope` (no external
//! thread-pool dependency is available offline) with a work-stealing
//! queue: each worker starts with a contiguous chunk of the job list held
//! in a packed-atomic `[lo, hi)` range, pops from the bottom of its own
//! chunk, and — once empty — steals the top half of the fullest victim's
//! range. Long cells therefore never strand a worker idle behind a
//! statically unlucky partition, and because each job writes only its own
//! result slot, the schedule has no effect on the aggregated output.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

use ocpt_metrics::{f2, f3, Table};
use ocpt_sim::derive_seed;

use crate::algo::{run_checked, Algo};
use crate::runner::{RunConfig, RunResult};

/// Stream tag separating replicate seeds from every other derived stream.
const GRID_REPLICATE_STREAM: u64 = 0x6772_6964; // "grid"

/// How a metric column renders into table cells.
///
/// `NaN` renders as `"-"` under every format — experiments use it for
/// metrics that do not apply to a cell (e.g. E7's `restored_verified`
/// column for the uncoordinated baseline).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ColFmt {
    /// Integer count (rendered without decimals).
    Int,
    /// Two decimal places.
    F2,
    /// Three decimal places.
    F3,
}

impl ColFmt {
    fn render(self, v: f64) -> String {
        if v.is_nan() {
            return "-".into();
        }
        match self {
            ColFmt::Int => format!("{v:.0}"),
            ColFmt::F2 => f2(v),
            ColFmt::F3 => f3(v),
        }
    }

    /// Render a mean/sd (fractional even for integer columns).
    fn render_frac(self, v: f64) -> String {
        if self == ColFmt::Int { ColFmt::F2 } else { self }.render(v)
    }
}

/// Execution options for a grid: worker count and replicates per cell.
#[derive(Clone, Copy, Debug)]
pub struct GridOptions {
    /// Worker threads (1 = run on the calling thread).
    pub jobs: usize,
    /// Seed-replicates per cell (1 = single run, plain columns).
    pub replicates: usize,
}

impl Default for GridOptions {
    fn default() -> Self {
        GridOptions { jobs: 1, replicates: 1 }
    }
}

impl GridOptions {
    /// Serial, single-replicate execution (the pre-grid behaviour).
    pub fn serial() -> Self {
        Self::default()
    }
}

/// Where a grid writes per-run flight-recorder artifacts (`--trace-out`).
///
/// When a sink is attached, every `(cell, replicate)` job runs with
/// tracing forced on and writes two files into `dir`:
///
/// * `{prefix}_c{cell:03}_r{rep}.trace.jsonl` — the `ocpt-trace` JSONL
///   event stream ([`RunResult::trace_jsonl`]);
/// * `{prefix}_c{cell:03}_r{rep}.metrics.json` — the `ocpt-metrics`
///   snapshot ([`RunResult::metrics_json`]).
///
/// Filenames depend only on the job's grid coordinates, and file bytes
/// only on `(config, seed)` — so the artifact set is byte-identical
/// whichever worker thread runs the job.
#[derive(Clone, Debug)]
pub struct TraceSink {
    dir: PathBuf,
    prefix: String,
}

impl TraceSink {
    /// A sink writing into `dir` with filenames starting `prefix`
    /// (conventionally the experiment name, e.g. `"e1"`). Creates the
    /// directory if needed.
    pub fn new(dir: impl Into<PathBuf>, prefix: impl Into<String>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(TraceSink { dir, prefix: prefix.into() })
    }

    /// The `(trace, metrics)` artifact paths for one `(cell, replicate)`
    /// job.
    pub fn paths(&self, cell: usize, rep: usize) -> (PathBuf, PathBuf) {
        let stem = format!("{}_c{cell:03}_r{rep}", self.prefix);
        (
            self.dir.join(format!("{stem}.trace.jsonl")),
            self.dir.join(format!("{stem}.metrics.json")),
        )
    }

    fn write(&self, cell: usize, rep: usize, result: &RunResult) {
        let (trace_path, metrics_path) = self.paths(cell, rep);
        std::fs::write(&trace_path, result.trace_jsonl())
            .unwrap_or_else(|e| panic!("writing {}: {e}", trace_path.display()));
        std::fs::write(&metrics_path, result.metrics_json())
            .unwrap_or_else(|e| panic!("writing {}: {e}", metrics_path.display()));
    }
}

type MetricFn = Box<dyn Fn(&RunResult) -> Vec<f64> + Send + Sync>;

/// What one `(cell, replicate)` job hands back to the aggregation.
#[derive(Debug)]
struct JobResult {
    vals: Vec<f64>,
    sim_events: u64,
    wall_secs: f64,
}

/// One independent run of the grid: fixed labels, an algorithm, a full
/// run configuration and the metric extractor.
struct GridCell {
    labels: Vec<String>,
    algo: Algo,
    cfg: RunConfig,
    metrics: MetricFn,
}

/// One table row before rounding: what [`GridOutcome::report_jsonl`]
/// writes for it.
#[derive(Clone, Debug)]
pub struct GridRow {
    /// The cell's label columns.
    pub labels: Vec<String>,
    /// Raw metric values, one per metric column of the table (with
    /// replicates: the `mean`/`min`/`max`/`sd` aggregates, in header
    /// order). `NaN` marks a metric that does not apply to the cell.
    pub values: Vec<f64>,
    /// Simulator events dispatched by this cell's runs.
    pub sim_events: u64,
    /// Wall-clock seconds inside this cell's runs
    /// ([`RunResult::wall_secs`], summed over replicates).
    pub wall_secs: f64,
}

/// What executing a grid produces: the rendered table, the raw rows
/// behind it, and the engine's self-measurement (wall-clock, total runs,
/// simulator throughput).
#[derive(Debug)]
pub struct GridOutcome {
    /// The aggregated result table, rows in cell-declaration order.
    pub table: Table,
    /// The table's rows unrounded, plus each cell's own event count and
    /// wall-clock.
    pub rows: Vec<GridRow>,
    /// Wall-clock seconds for the whole grid.
    pub wall_secs: f64,
    /// Total simulation runs executed (cells × replicates).
    pub runs: usize,
    /// Simulator events dispatched, summed over all runs.
    pub sim_events: u64,
    /// The options the grid ran with.
    pub opts: GridOptions,
    /// Table headers: label columns, then metric columns.
    headers: Vec<String>,
}

impl GridOutcome {
    /// The grid as a versioned `ocpt-report`: JSON Lines like
    /// `ocpt-trace`, the grid-level sibling of
    /// [`RunResult::metrics_json`] — a header line (what ran, on what, the
    /// grid totals), then one flat object per table row: its labels, its
    /// metric columns as the raw values the table rounds (`null` where
    /// the table prints `-`) and that cell's own `sim_events`, `wall_secs`
    /// and `events_per_sec`. The field-by-field reference is `DESIGN.md`
    /// §5. Unlike a trace the report is not byte-deterministic: the
    /// `wall_secs` fields and the host stamp measure this execution.
    pub fn report_jsonl(&self, experiment: &str, scale: &str, seed: u64) -> String {
        use ocpt_telemetry::json::Obj;
        let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
        let mut out = Obj::new()
            .str("schema", "ocpt-report")
            .u64("version", 1)
            .str("experiment", experiment)
            .str("scale", scale)
            .u64("seed", seed)
            .u64("host_cores", cores as u64)
            .str("host_os", std::env::consts::OS)
            .u64("jobs", self.opts.jobs as u64)
            .u64("replicates", self.opts.replicates as u64)
            .u64("runs", self.runs as u64)
            .u64("sim_events", self.sim_events)
            .f64("wall_secs", self.wall_secs)
            .finish();
        out.push('\n');
        for row in &self.rows {
            let (label_names, metric_names) = self.headers.split_at(row.labels.len());
            let mut o = Obj::new();
            for (name, label) in label_names.iter().zip(&row.labels) {
                o = o.str(name, label);
            }
            for (name, v) in metric_names.iter().zip(&row.values) {
                o = o.f64(name, *v);
            }
            out.push_str(
                &o.u64("sim_events", row.sim_events)
                    .f64("wall_secs", row.wall_secs)
                    .f64("events_per_sec", row.sim_events as f64 / row.wall_secs)
                    .finish(),
            );
            out.push('\n');
        }
        out
    }
}

/// A declared experiment grid: title, label columns, metric columns and
/// the cells to run.
pub struct RunGrid {
    title: String,
    label_headers: Vec<String>,
    cols: Vec<(String, ColFmt)>,
    cells: Vec<GridCell>,
}

impl RunGrid {
    /// Declare a grid: table title, leading label columns (parameters)
    /// and metric columns with their formats.
    pub fn new(title: impl Into<String>, label_headers: &[&str], cols: &[(&str, ColFmt)]) -> Self {
        RunGrid {
            title: title.into(),
            label_headers: label_headers.iter().map(|s| s.to_string()).collect(),
            cols: cols.iter().map(|(n, f)| (n.to_string(), *f)).collect(),
            cells: Vec::new(),
        }
    }

    /// Declare one cell. `labels` must match the label headers; `metrics`
    /// must return one value per metric column.
    pub fn cell(
        &mut self,
        labels: &[String],
        algo: Algo,
        cfg: RunConfig,
        metrics: impl Fn(&RunResult) -> Vec<f64> + Send + Sync + 'static,
    ) {
        assert_eq!(labels.len(), self.label_headers.len(), "label arity mismatch");
        self.cells.push(GridCell {
            labels: labels.to_vec(),
            algo,
            cfg,
            metrics: Box::new(metrics),
        });
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Number of declared cells (= table rows).
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Rebind every declared cell to the given scheduler implementation
    /// (used by the byte-identity regression tests to run the same grid on
    /// the timing wheel and on the reference heap).
    pub fn with_scheduler(mut self, kind: ocpt_sim::SchedulerKind) -> Self {
        for cell in &mut self.cells {
            cell.cfg.scheduler = kind;
        }
        self
    }

    /// The configuration a given `(cell, replicate)` actually runs —
    /// exposed so tests can reproduce any grid run directly.
    pub fn replicate_config(&self, cell: usize, rep: usize) -> RunConfig {
        let mut cfg = self.cells[cell].cfg.clone();
        if rep > 0 {
            cfg.sim.seed = derive_seed(cfg.sim.seed, GRID_REPLICATE_STREAM + rep as u64);
        }
        cfg
    }

    /// Execute every `(cell, replicate)` job and return the raw metric
    /// vectors, indexed `[cell][replicate][metric]`, plus the total
    /// simulator events — exposed so tests can compare any grid run
    /// against a direct one.
    pub fn cell_metrics(&self, opts: &GridOptions) -> (Vec<Vec<Vec<f64>>>, u64) {
        let per_cell = self.execute(opts, None);
        let events = per_cell.iter().flatten().map(|j| j.sim_events).sum();
        (per_cell.into_iter().map(|c| c.into_iter().map(|j| j.vals).collect()).collect(), events)
    }

    /// The engine core: run every `(cell, replicate)` job exactly once
    /// and return what each produced, indexed `[cell][replicate]`. With a
    /// sink attached each job runs with tracing forced on and writes its
    /// trace + metrics artifacts from whichever worker executes it
    /// (distinct jobs write distinct files, so the on-disk result is
    /// identical for any `jobs` count).
    fn execute(&self, opts: &GridOptions, sink: Option<&TraceSink>) -> Vec<Vec<JobResult>> {
        let reps = opts.replicates.max(1);
        let jobs: Vec<(usize, usize)> =
            (0..self.cells.len()).flat_map(|c| (0..reps).map(move |r| (c, r))).collect();
        // One slot per job; each worker fills only its own slots, so the
        // aggregation below is race-free and order-independent.
        let slots: Vec<OnceLock<JobResult>> = jobs.iter().map(|_| OnceLock::new()).collect();
        let run_job = |job: usize| {
            let (c, r) = jobs[job];
            let cell = &self.cells[c];
            let mut cfg = self.replicate_config(c, r);
            if sink.is_some() {
                cfg.trace = true;
            }
            let result = run_checked(&cell.algo, cfg);
            if let Some(sink) = sink {
                sink.write(c, r, &result);
            }
            let vals = (cell.metrics)(&result);
            assert_eq!(vals.len(), self.cols.len(), "metric arity mismatch in {}", self.title);
            let done =
                JobResult { vals, sim_events: result.sim_events, wall_secs: result.wall_secs };
            slots[job].set(done).expect("job executed twice");
        };
        let workers = opts.jobs.max(1).min(jobs.len().max(1));
        if workers <= 1 {
            for job in 0..jobs.len() {
                run_job(job);
            }
        } else {
            // Work-stealing pool. Worker `w` owns the contiguous chunk
            // `[w·J/W, (w+1)·J/W)` of the job list, held as a packed
            // `(lo, hi)` pair in one atomic word so both claim and steal
            // are single CAS operations. Owners pop from the bottom of
            // their chunk; a worker whose chunk drains steals the top
            // half of the fullest victim's range and installs it as its
            // own, so a handful of slow cells cannot strand the rest of
            // the pool idle. `remaining` counts *completed* jobs — an
            // empty-looking pool may still have work in flight that a
            // thief will re-expose, so workers only exit on zero.
            let total = jobs.len();
            let ranges: Vec<AtomicU64> = (0..workers)
                .map(|w| {
                    AtomicU64::new(pack(
                        (w * total / workers) as u32,
                        ((w + 1) * total / workers) as u32,
                    ))
                })
                .collect();
            let remaining = AtomicUsize::new(total);
            std::thread::scope(|scope| {
                for w in 0..workers {
                    let (ranges, remaining, run_job) = (&ranges, &remaining, &run_job);
                    scope.spawn(move || loop {
                        if let Some(job) = pop_own(&ranges[w]) {
                            run_job(job);
                            remaining.fetch_sub(1, Ordering::AcqRel);
                            continue;
                        }
                        if remaining.load(Ordering::Acquire) == 0 {
                            break;
                        }
                        if let Some(stolen) = steal(ranges, w) {
                            // A plain store is race-free here: thieves
                            // only CAS ranges they observed non-empty,
                            // and ours is empty until this install.
                            ranges[w].store(stolen, Ordering::Release);
                            continue;
                        }
                        // Work is in flight but nothing is stealable yet;
                        // an install by another thief may change that.
                        std::thread::yield_now();
                    });
                }
            });
        }
        let mut out: Vec<Vec<JobResult>> = (0..self.cells.len()).map(|_| Vec::new()).collect();
        for (job, slot) in jobs.iter().zip(slots) {
            out[job.0].push(slot.into_inner().expect("job not executed"));
        }
        out
    }

    /// Execute the grid and aggregate into the result table.
    pub fn run(&self, opts: &GridOptions) -> GridOutcome {
        self.run_with_sink(opts, None)
    }

    /// [`Self::run`], optionally recording flight data (see
    /// [`TraceSink`]).
    pub fn run_with_sink(&self, opts: &GridOptions, sink: Option<&TraceSink>) -> GridOutcome {
        // simlint: allow(wall-clock, "wall-clock self-measurement of the grid driver; never feeds simulation state")
        let wall_start = std::time::Instant::now();
        let reps = opts.replicates.max(1);
        let per_cell = self.execute(opts, sink);
        let mut headers = self.label_headers.clone();
        for (name, _) in &self.cols {
            if reps > 1 {
                headers.extend(["mean", "min", "max", "sd"].iter().map(|s| format!("{name}_{s}")));
            } else {
                headers.push(name.clone());
            }
        }
        let mut table =
            Table::new(self.title.clone(), &headers.iter().map(String::as_str).collect::<Vec<_>>());
        let mut rows = Vec::with_capacity(self.cells.len());
        for (cell, jobs) in self.cells.iter().zip(&per_cell) {
            let mut rendered = cell.labels.clone();
            let mut values = Vec::with_capacity(headers.len() - cell.labels.len());
            for (m, (_, fmt)) in self.cols.iter().enumerate() {
                let vals: Vec<f64> = jobs.iter().map(|j| j.vals[m]).collect();
                if reps > 1 {
                    let (mean, min, max, sd) = aggregate(&vals);
                    rendered.push(fmt.render_frac(mean));
                    rendered.push(fmt.render(min));
                    rendered.push(fmt.render(max));
                    rendered.push(fmt.render_frac(sd));
                    values.extend([mean, min, max, sd]);
                } else {
                    rendered.push(fmt.render(vals[0]));
                    values.push(vals[0]);
                }
            }
            table.row(&rendered);
            rows.push(GridRow {
                labels: cell.labels.clone(),
                values,
                sim_events: jobs.iter().map(|j| j.sim_events).sum(),
                wall_secs: jobs.iter().map(|j| j.wall_secs).sum(),
            });
        }
        GridOutcome {
            table,
            sim_events: rows.iter().map(|r| r.sim_events).sum(),
            rows,
            wall_secs: wall_start.elapsed().as_secs_f64(),
            runs: self.cells.len() * reps,
            opts: GridOptions { jobs: opts.jobs.max(1), replicates: reps },
            headers,
        }
    }

    /// Convenience: execute and return only the table.
    pub fn table(&self, opts: &GridOptions) -> Table {
        self.run(opts).table
    }
}

/// Pack a half-open job range `[lo, hi)` into one atomic word.
fn pack(lo: u32, hi: u32) -> u64 {
    (u64::from(lo) << 32) | u64::from(hi)
}

/// Inverse of [`pack`].
fn unpack(v: u64) -> (u32, u32) {
    ((v >> 32) as u32, v as u32)
}

/// Claim the bottom job of a worker's own range, or `None` if drained.
///
/// The packed CAS is ABA-safe without tags: every job index lives in at
/// most one range at any instant (chunks start disjoint; steals move a
/// sub-range, never duplicate it), so a range value containing
/// already-claimed indices can never be re-installed — the bytes a
/// pending CAS compares against cannot recur with different meaning.
fn pop_own(range: &AtomicU64) -> Option<usize> {
    let mut cur = range.load(Ordering::Acquire);
    loop {
        let (lo, hi) = unpack(cur);
        if lo >= hi {
            return None;
        }
        match range.compare_exchange_weak(
            cur,
            pack(lo + 1, hi),
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => return Some(lo as usize),
            Err(seen) => cur = seen,
        }
    }
}

/// Steal the top half (rounded down, minimum one job) of the fullest
/// victim's range. Returns the stolen range packed, ready to install.
fn steal(ranges: &[AtomicU64], me: usize) -> Option<u64> {
    let mut best = None;
    let mut best_size = 0u32;
    for (i, r) in ranges.iter().enumerate() {
        let (lo, hi) = unpack(r.load(Ordering::Acquire));
        let size = hi.saturating_sub(lo);
        if i != me && size > best_size {
            best_size = size;
            best = Some(i);
        }
    }
    let victim = &ranges[best?];
    let mut cur = victim.load(Ordering::Acquire);
    loop {
        let (lo, hi) = unpack(cur);
        if lo >= hi {
            return None;
        }
        // Take from the top so the owner keeps popping its cache-warm
        // bottom; leave the larger half with the owner.
        let k = ((hi - lo) / 2).max(1);
        match victim.compare_exchange_weak(
            cur,
            pack(lo, hi - k),
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => return Some(pack(hi - k, hi)),
            Err(seen) => cur = seen,
        }
    }
}

/// Mean/min/max/population-sd over replicate values. Any NaN poisons the
/// whole aggregate (the column renders `"-"`), which is what a metric
/// that "does not apply" should do.
fn aggregate(vals: &[f64]) -> (f64, f64, f64, f64) {
    if vals.iter().any(|v| v.is_nan()) {
        return (f64::NAN, f64::NAN, f64::NAN, f64::NAN);
    }
    let n = vals.len() as f64;
    let mean = vals.iter().sum::<f64>() / n;
    let min = vals.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let var = vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
    (mean, min, max, var.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkloadSpec;
    use ocpt_sim::SimDuration;

    fn tiny_cfg(n: usize, seed: u64) -> RunConfig {
        let mut cfg = RunConfig::new(n, seed);
        cfg.workload = WorkloadSpec::uniform_mesh(SimDuration::from_millis(4));
        cfg.checkpoint_interval = SimDuration::from_millis(250);
        cfg.workload_duration = SimDuration::from_millis(600);
        cfg.state_bytes = 128 * 1024;
        cfg
    }

    fn demo_grid() -> RunGrid {
        let mut g = RunGrid::new(
            "demo",
            &["algo", "n"],
            &[("msgs", ColFmt::Int), ("rounds", ColFmt::Int), ("piggy_b", ColFmt::F2)],
        );
        for n in [3usize, 4] {
            for algo in [Algo::ocpt(), Algo::KooToueg] {
                g.cell(
                    &[algo.name().to_string(), n.to_string()],
                    algo.clone(),
                    tiny_cfg(n, 7),
                    |r| {
                        vec![
                            r.app_messages as f64,
                            r.complete_rounds as f64,
                            r.piggyback_bytes as f64,
                        ]
                    },
                );
            }
        }
        g
    }

    #[test]
    fn declaration_order_is_row_order() {
        let g = demo_grid();
        let t = g.table(&GridOptions::serial());
        assert_eq!(t.len(), 4);
        let csv = t.to_csv();
        let rows: Vec<&str> = csv.lines().skip(1).collect();
        assert!(rows[0].starts_with("ocpt,3"));
        assert!(rows[1].starts_with("koo-toueg,3"));
        assert!(rows[2].starts_with("ocpt,4"));
        assert!(rows[3].starts_with("koo-toueg,4"));
    }

    #[test]
    fn parallel_output_is_byte_identical_to_serial() {
        let g = demo_grid();
        let serial = g.run(&GridOptions { jobs: 1, replicates: 1 });
        let parallel = g.run(&GridOptions { jobs: 8, replicates: 1 });
        assert_eq!(serial.table.render(), parallel.table.render());
        assert_eq!(serial.table.to_csv(), parallel.table.to_csv());
        assert_eq!(serial.sim_events, parallel.sim_events);
        assert_eq!(serial.runs, 4);
    }

    #[test]
    fn cell_runs_match_direct_execution() {
        let g = demo_grid();
        let (metrics, _) = g.cell_metrics(&GridOptions { jobs: 4, replicates: 2 });
        // Every (cell, replicate) must equal a direct run_checked of the
        // same derived configuration.
        for (c, reps) in metrics.iter().enumerate() {
            assert_eq!(reps.len(), 2);
            for (r, vals) in reps.iter().enumerate() {
                let direct = run_checked(&g.cells[c].algo, g.replicate_config(c, r));
                let expect = (g.cells[c].metrics)(&direct);
                assert_eq!(vals, &expect, "cell {c} replicate {r} diverged");
            }
        }
    }

    #[test]
    fn replicates_expand_columns_and_derive_seeds() {
        let g = demo_grid();
        let t = g.table(&GridOptions { jobs: 2, replicates: 3 });
        let header = t.to_csv().lines().next().unwrap().to_string();
        assert!(header.contains("msgs_mean"));
        assert!(header.contains("msgs_min"));
        assert!(header.contains("msgs_max"));
        assert!(header.contains("msgs_sd"));
        // Replicate 0 keeps the configured seed; later replicates differ.
        assert_eq!(g.replicate_config(0, 0).sim.seed, 7);
        assert_ne!(g.replicate_config(0, 1).sim.seed, 7);
        assert_ne!(g.replicate_config(0, 1).sim.seed, g.replicate_config(0, 2).sim.seed);
    }

    #[test]
    fn nan_renders_as_dash() {
        assert_eq!(ColFmt::Int.render(f64::NAN), "-");
        assert_eq!(ColFmt::F2.render_frac(f64::NAN), "-");
        let (m, lo, hi, sd) = aggregate(&[1.0, f64::NAN]);
        assert!(m.is_nan() && lo.is_nan() && hi.is_nan() && sd.is_nan());
    }

    #[test]
    fn sink_writes_parseable_artifacts_identically_across_jobs() {
        let dir = std::env::temp_dir().join(format!("ocpt_grid_sink_{}", std::process::id()));
        let g = demo_grid();
        let serial = TraceSink::new(dir.join("serial"), "demo").unwrap();
        let parallel = TraceSink::new(dir.join("parallel"), "demo").unwrap();
        g.run_with_sink(&GridOptions { jobs: 1, replicates: 1 }, Some(&serial));
        g.run_with_sink(&GridOptions { jobs: 8, replicates: 1 }, Some(&parallel));
        for c in 0..g.cell_count() {
            let (t1, m1) = serial.paths(c, 0);
            let (t8, m8) = parallel.paths(c, 0);
            let trace = std::fs::read_to_string(&t1).unwrap();
            // Schema-valid, and byte-identical whichever thread ran the job.
            let parsed = ocpt_telemetry::parse_jsonl(&trace).unwrap();
            assert!(!parsed.recs.is_empty(), "cell {c} traced no events");
            assert_eq!(trace, std::fs::read_to_string(&t8).unwrap(), "cell {c} trace");
            let metrics = std::fs::read_to_string(&m1).unwrap();
            assert!(metrics.starts_with("{\"schema\":\"ocpt-metrics\""));
            assert_eq!(metrics, std::fs::read_to_string(&m8).unwrap(), "cell {c} metrics");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Report lines are read back with the parser the traces use, so a
    /// label survives whatever JSON-special characters it holds. (What
    /// the lines carry is checked against the CSV by the `ocpt exp`
    /// tests.)
    #[test]
    fn report_escapes_labels() {
        use ocpt_telemetry::json::{parse_object, Value};
        let nasty = "a \"quoted\" back\\slash";
        let mut g = RunGrid::new("demo", &["label"], &[("msgs", ColFmt::Int)]);
        g.cell(&[nasty.to_string()], Algo::ocpt(), tiny_cfg(3, 7), |r| vec![r.app_messages as f64]);
        let report = g.run(&GridOptions::serial()).report_jsonl("demo", "quick", 7);
        let row = parse_object(report.lines().nth(1).expect("header, then a row"));
        assert_eq!(row.expect("row parses")[0], ("label".into(), Value::Str(nasty.into())));
    }

    #[test]
    fn packed_range_roundtrips() {
        for (lo, hi) in [(0u32, 0u32), (0, 7), (3, 3), (100, u32::MAX)] {
            assert_eq!(unpack(pack(lo, hi)), (lo, hi));
        }
    }

    #[test]
    fn pop_own_drains_bottom_up() {
        let r = AtomicU64::new(pack(2, 5));
        assert_eq!(pop_own(&r), Some(2));
        assert_eq!(pop_own(&r), Some(3));
        assert_eq!(pop_own(&r), Some(4));
        assert_eq!(pop_own(&r), None);
        assert_eq!(pop_own(&r), None, "empty range stays empty");
    }

    #[test]
    fn steal_takes_top_half_of_fullest_victim() {
        let ranges = vec![
            AtomicU64::new(pack(0, 0)),   // me (empty)
            AtomicU64::new(pack(0, 2)),   // small victim
            AtomicU64::new(pack(10, 20)), // fullest victim
        ];
        let stolen = steal(&ranges, 0).expect("work available");
        assert_eq!(unpack(stolen), (15, 20), "top half of the fullest range");
        assert_eq!(unpack(ranges[2].load(Ordering::Relaxed)), (10, 15), "owner keeps the bottom");
        // A single-job victim is still stealable (k is at least one).
        ranges[2].store(pack(0, 0), Ordering::Relaxed);
        ranges[1].store(pack(4, 5), Ordering::Relaxed);
        assert_eq!(unpack(steal(&ranges, 0).expect("one job left")), (4, 5));
        assert_eq!(steal(&ranges, 0), None, "nothing left anywhere");
    }

    #[test]
    fn stealing_pool_runs_every_job_exactly_once() {
        // Skewed per-job cost so static chunking alone would leave
        // workers idle — the schedule must still cover each job once.
        let total = 97usize;
        let hits: Vec<AtomicUsize> = (0..total).map(|_| AtomicUsize::new(0)).collect();
        let workers = 7usize;
        let ranges: Vec<AtomicU64> = (0..workers)
            .map(|w| {
                AtomicU64::new(pack(
                    (w * total / workers) as u32,
                    ((w + 1) * total / workers) as u32,
                ))
            })
            .collect();
        let remaining = AtomicUsize::new(total);
        std::thread::scope(|scope| {
            for w in 0..workers {
                let (ranges, remaining, hits) = (&ranges, &remaining, &hits);
                scope.spawn(move || loop {
                    if let Some(job) = pop_own(&ranges[w]) {
                        if job % 13 == 0 {
                            std::thread::sleep(std::time::Duration::from_millis(2));
                        }
                        hits[job].fetch_add(1, Ordering::Relaxed);
                        remaining.fetch_sub(1, Ordering::AcqRel);
                        continue;
                    }
                    if remaining.load(Ordering::Acquire) == 0 {
                        break;
                    }
                    if let Some(stolen) = steal(ranges, w) {
                        ranges[w].store(stolen, Ordering::Release);
                        continue;
                    }
                    std::thread::yield_now();
                });
            }
        });
        for (job, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "job {job} ran a wrong number of times");
        }
    }

    #[test]
    fn outcome_reports_throughput() {
        let g = demo_grid();
        let out = g.run(&GridOptions::serial());
        assert!(out.sim_events > 0);
        assert!(out.wall_secs > 0.0);
        assert_eq!(out.sim_events, out.rows.iter().map(|r| r.sim_events).sum::<u64>());
    }
}
