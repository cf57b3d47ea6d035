//! The paper-shape oracle: one table of rows, each an experiment that
//! measures named values, and predicates `value op bound` over them.
//!
//! [`reproduce`] runs every row at [`REPLICATIONS`] seeds — replication
//! `r` adds `r` to each of the row's seed constants, so `r = 0` is the
//! row's reference run — and reports per predicate how many replications
//! pass, with the median and range of the value. A predicate whose value
//! is NaN (a run that never reached its condition) fails; nothing panics.
//! [`Reproduction::to_json`] is a pure function of the tree: no wall
//! time, host or version data.

use std::fmt::Write as _;

use cs_sim::SimTime;
use serde::Serialize;

use super::{fig6_startup, fig9_point, LogView};
use crate::scenario::{par_map, RunArtifacts, Scenario};

/// Seeds per row.
pub const REPLICATIONS: u64 = 8;

/// Schema tag of [`Reproduction::to_json`].
const EXPERIMENTS_SCHEMA: &str = "cs-experiments/1";

/// A predicate's comparison.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// `value < bound`
    Lt,
    /// `value <= bound`
    Le,
    /// `value > bound`
    Gt,
    /// `value >= bound`
    Ge,
}

impl Op {
    /// Whether `value op bound` holds; false whenever `value` is NaN.
    pub fn holds(self, value: f64, bound: f64) -> bool {
        match self {
            Op::Lt => value < bound,
            Op::Le => value <= bound,
            Op::Gt => value > bound,
            Op::Ge => value >= bound,
        }
    }

    /// The operator as written in reports.
    pub fn symbol(self) -> &'static str {
        match self {
            Op::Lt => "<",
            Op::Le => "<=",
            Op::Gt => ">",
            Op::Ge => ">=",
        }
    }
}

/// One predicate of a row: `value op bound`.
#[derive(Clone, Copy, Debug)]
pub struct Check {
    /// The EXPERIMENTS.md id this predicate backs.
    pub id: &'static str,
    /// What the predicate claims, in words.
    pub text: &'static str,
    /// Name of the measured value it reads.
    pub value: &'static str,
    /// The comparison.
    pub op: Op,
    /// The bound the value is compared with.
    pub bound: f64,
    /// The paper's (or its closed form's) number for this value, where
    /// it gives one.
    pub paper: Option<f64>,
}

impl Check {
    /// A predicate without a paper number.
    pub fn new(
        id: &'static str,
        value: &'static str,
        op: Op,
        bound: f64,
        text: &'static str,
    ) -> Self {
        Check {
            id,
            text,
            value,
            op,
            bound,
            paper: None,
        }
    }

    /// Attach the paper's number.
    pub fn paper(mut self, paper: f64) -> Self {
        self.paper = Some(paper);
        self
    }
}

/// What one replication of a row measured.
#[derive(Debug, Default)]
pub(crate) struct Measured {
    /// Named values, in the order they were set.
    pub values: Vec<(&'static str, f64)>,
    /// The row's table, as printed by `coolstream reproduce`.
    pub table: String,
}

impl Measured {
    /// No values yet, and `table`.
    pub fn new(table: String) -> Self {
        Measured {
            values: Vec::new(),
            table,
        }
    }

    /// Record a value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value));
    }

    /// A recorded value; NaN if the run never produced it.
    pub fn get(&self, name: &str) -> f64 {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(f64::NAN, |&(_, v)| v)
    }
}

/// One experiment of the oracle.
pub struct Row {
    /// Experiment name.
    pub name: &'static str,
    /// The EXPERIMENTS.md ids it backs.
    pub ids: &'static [&'static str],
    /// Run replication `r`.
    pub(crate) run: fn(u64) -> Measured,
    /// Its predicates.
    pub checks: Vec<Check>,
}

/// Every row of the oracle, in report order.
pub fn rows() -> Vec<Row> {
    let mut rows = super::paper::rows();
    rows.extend(super::ablations::rows());
    rows
}

/// A predicate's values across the replications.
#[derive(Clone, Debug)]
pub struct Verdict {
    /// The predicate.
    pub check: Check,
    /// Its value at each replication, `r = 0` first.
    pub values: Vec<f64>,
}

impl Verdict {
    /// Replications at which the predicate holds.
    pub fn passes(&self) -> usize {
        let c = &self.check;
        self.values
            .iter()
            .filter(|&&v| c.op.holds(v, c.bound))
            .count()
    }

    /// The values that are numbers, ascending.
    fn sorted(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .values
            .iter()
            .copied()
            .filter(|v| !v.is_nan())
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Median of the non-NaN values (mean of the middle two for an even
    /// count); NaN if there are none.
    pub fn median(&self) -> f64 {
        let v = self.sorted();
        match v.len() {
            0 => f64::NAN,
            n if n % 2 == 1 => v[n / 2],
            n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
        }
    }

    /// Smallest non-NaN value; NaN if there is none.
    pub fn min(&self) -> f64 {
        self.sorted().first().copied().unwrap_or(f64::NAN)
    }

    /// Largest non-NaN value; NaN if there is none.
    pub fn max(&self) -> f64 {
        self.sorted().last().copied().unwrap_or(f64::NAN)
    }
}

/// A row's outcome.
pub struct RowResult {
    /// Experiment name.
    pub name: &'static str,
    /// The EXPERIMENTS.md ids it backs.
    pub ids: &'static [&'static str],
    /// The table of replication 0.
    pub table: String,
    /// One verdict per predicate.
    pub verdicts: Vec<Verdict>,
}

/// The outcome of every row.
pub struct Reproduction {
    /// Rows in report order.
    pub rows: Vec<RowResult>,
}

/// Run every row at every replication: one parallel map over
/// `(row, r)`, each row's own sweep sequential inside it.
pub fn reproduce() -> Reproduction {
    let rows = rows();
    let jobs: Vec<(usize, u64)> = (0..rows.len())
        .flat_map(|i| (0..REPLICATIONS).map(move |r| (i, r)))
        .collect();
    let mut runs = par_map(jobs, |_, (i, r)| (rows[i].run)(r)).into_iter();
    let rows = rows
        .into_iter()
        .map(|row| {
            let measured: Vec<Measured> = runs.by_ref().take(REPLICATIONS as usize).collect();
            RowResult {
                name: row.name,
                ids: row.ids,
                table: measured
                    .first()
                    .map(|m| m.table.clone())
                    .unwrap_or_default(),
                verdicts: row
                    .checks
                    .iter()
                    .map(|&check| Verdict {
                        check,
                        values: measured.iter().map(|m| m.get(check.value)).collect(),
                    })
                    .collect(),
            }
        })
        .collect();
    Reproduction { rows }
}

/// `x` to three decimals (small magnitudes in exponent form), `NaN`
/// spelled out.
fn num(x: f64) -> String {
    if x.is_nan() {
        "NaN".into()
    } else if x.abs() > 0.0 && x.abs() < 0.01 {
        format!("{x:.2e}")
    } else {
        format!("{x:.3}")
    }
}

impl Reproduction {
    /// Every row's replication-0 table, then one line per predicate:
    /// pass count, `value op bound`, median [min, max], paper number.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for row in &self.rows {
            let _ = writeln!(out, "== {} ({})", row.name, row.ids.join(", "));
            out.push_str(&row.table);
            for v in &row.verdicts {
                let c = &v.check;
                let _ = writeln!(
                    out,
                    "  {}/{} {:<13} {} {} {}  median {} [{}, {}]{}  {}",
                    v.passes(),
                    v.values.len(),
                    c.id,
                    c.value,
                    c.op.symbol(),
                    num(c.bound),
                    num(v.median()),
                    num(v.min()),
                    num(v.max()),
                    c.paper
                        .map_or(String::new(), |p| format!("  paper {}", num(p))),
                    c.text,
                );
            }
            out.push('\n');
        }
        out
    }

    /// `EXPERIMENTS.json`: per predicate its id, text, value name, op,
    /// bound, paper number, the values of every replication and the pass
    /// count.
    pub fn to_json(&self) -> String {
        let rows = self.rows.iter().map(|row| JsonRow {
            name: row.name,
            ids: row.ids,
            checks: row.verdicts.iter().map(JsonCheck::new).collect(),
        });
        let doc = JsonDoc {
            schema: EXPERIMENTS_SCHEMA,
            replications: REPLICATIONS,
            rows: rows.collect(),
        };
        let mut json = serde_json::to_string_pretty(&doc).unwrap_or_default();
        json.push('\n');
        json
    }
}

/// `EXPERIMENTS.json`.
#[derive(Serialize)]
struct JsonDoc {
    schema: &'static str,
    replications: u64,
    rows: Vec<JsonRow>,
}

/// One row of `EXPERIMENTS.json`.
#[derive(Serialize)]
struct JsonRow {
    name: &'static str,
    ids: &'static [&'static str],
    checks: Vec<JsonCheck>,
}

/// One predicate of `EXPERIMENTS.json`, with its values and pass count.
#[derive(Serialize)]
struct JsonCheck {
    id: &'static str,
    text: &'static str,
    value: &'static str,
    op: &'static str,
    bound: f64,
    paper: Option<f64>,
    values: Vec<f64>,
    passes: usize,
}

impl JsonCheck {
    fn new(v: &Verdict) -> Self {
        let c = &v.check;
        JsonCheck {
            id: c.id,
            text: c.text,
            value: c.value,
            op: c.op.symbol(),
            bound: c.bound,
            paper: c.paper,
            values: v.values.clone(),
            passes: v.passes(),
        }
    }
}

// ------------------------------------------------------------- helpers --

/// A steady-state run: `rate` joins/s for `minutes` from an empty system.
pub(super) fn steady(rate: f64, minutes: u64, seed: u64) -> RunArtifacts {
    steady_scenario(rate, minutes, seed).run()
}

/// The scenario [`steady`] runs.
pub(super) fn steady_scenario(rate: f64, minutes: u64, seed: u64) -> Scenario {
    Scenario::steady(rate)
        .with_seed(seed)
        .with_window(SimTime::ZERO, SimTime::from_mins(minutes))
}

/// One point of a [`sweep`], read off its run.
pub(super) struct Reading {
    /// Mean concurrent population from minute 5 to the horizon.
    pub population: f64,
    /// Log-view continuity over every QoS report.
    pub continuity: f64,
    /// Fraction of joiners that reached media-ready.
    pub ready_fraction: f64,
    /// Median media-ready time (s) over every join; NaN without one.
    pub ready_median: f64,
    /// 90th-percentile media-ready time (s); NaN without one.
    pub ready_p90: f64,
    /// One value per probe, in probe order.
    pub probed: Vec<f64>,
}

/// A named extra column of a [`sweep`]: a value read off a point's run
/// at the horizon.
pub(super) type Probe = (&'static str, fn(&RunArtifacts, SimTime) -> f64);

/// A knob row's sweep: run each `(label, run)` point in order — one at a
/// time, its world dropped before the next point runs — and read its
/// [`fig9_point`] from minute 5 to `horizon`, its media-ready median and
/// p90 over every join, and `probes`. Returns the readings in input
/// order, and a [`Measured`] with no values yet whose table is a header
/// and then one line per point.
pub(super) fn sweep<F: FnOnce() -> RunArtifacts>(
    axis: &str,
    points: impl IntoIterator<Item = (String, F)>,
    horizon: SimTime,
    probes: &[Probe],
) -> (Measured, Vec<Reading>) {
    let mut t = format!("  {axis:<18}  mean-pop  continuity  ready-frac  ready-median  ready-p90");
    for (name, _) in probes {
        let _ = write!(t, "  {name:>10}");
    }
    let readings = points
        .into_iter()
        .map(|(label, run)| {
            let artifacts = run();
            let view = LogView::build(&artifacts);
            let p = fig9_point(&view, SimTime::from_mins(5), horizon);
            let ready = fig6_startup(&view, SimTime::ZERO, SimTime::MAX).ready;
            let r = Reading {
                population: p.mean_population,
                continuity: p.mean_continuity,
                ready_fraction: p.ready_fraction,
                ready_median: ready.median().unwrap_or(f64::NAN),
                ready_p90: ready.quantile(0.9).unwrap_or(f64::NAN),
                probed: probes.iter().map(|(_, f)| f(&artifacts, horizon)).collect(),
            };
            let (ci, ready) = (pct(r.continuity), pct(r.ready_fraction));
            let (pop, median, p90) = (r.population, r.ready_median, r.ready_p90);
            let _ = write!(
                t,
                "\n  {label:<18}  {pop:>8.0}  {ci:>10}  {ready:>10}  {median:>11.1}s  {p90:>8.1}s"
            );
            for v in &r.probed {
                let _ = write!(t, "  {v:>10.1}");
            }
            r
        })
        .collect();
    t.push('\n');
    (Measured::new(t), readings)
}

/// Percent with two decimals, for tables.
pub(super) fn pct(x: f64) -> String {
    format!("{:.2}%", 100.0 * x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn verdict(op: Op, bound: f64, values: &[f64]) -> Verdict {
        Verdict {
            check: Check::new("X", "x", op, bound, "test"),
            values: values.to_vec(),
        }
    }

    #[test]
    fn ops_handle_equality_and_nan() {
        assert!(!Op::Lt.holds(1.0, 1.0) && Op::Lt.holds(0.5, 1.0));
        assert!(Op::Le.holds(1.0, 1.0) && !Op::Le.holds(1.5, 1.0));
        assert!(!Op::Gt.holds(1.0, 1.0) && Op::Gt.holds(1.5, 1.0));
        assert!(Op::Ge.holds(1.0, 1.0) && !Op::Ge.holds(0.5, 1.0));
        for op in [Op::Lt, Op::Le, Op::Gt, Op::Ge] {
            assert!(!op.holds(f64::NAN, 1.0), "{op:?} must fail on NaN");
        }
    }

    #[test]
    fn verdicts_count_passes_and_summarize_the_numbers() {
        let v = verdict(Op::Le, 2.0, &[3.0, 1.0, f64::NAN, 2.0, 0.5]);
        assert_eq!(v.passes(), 3, "1.0, 2.0 and 0.5 hold; NaN and 3.0 fail");
        assert_eq!((v.min(), v.max()), (0.5, 3.0));
        assert_eq!(v.median(), 1.5, "even count: mean of the middle two");
        let odd = verdict(Op::Gt, 0.0, &[5.0, -1.0, 2.0]);
        assert_eq!((odd.passes(), odd.median()), (2, 2.0));
        let none = verdict(Op::Gt, 0.0, &[f64::NAN, f64::NAN]);
        assert_eq!(none.passes(), 0);
        assert!(none.median().is_nan() && none.min().is_nan() && none.max().is_nan());
    }

    /// The sweep's table has a header and one line per point in input
    /// order, each reading equals the extractors run on that point's run
    /// directly, and no points give no readings.
    #[test]
    fn sweep_reads_each_point_as_the_extractors_do() {
        let horizon = SimTime::from_mins(6);
        let run = |rate: f64| steady(rate, 6, 7);
        let points = [0.6, 0.3].map(|rate| (format!("rate {rate}"), move || run(rate)));
        let probes: [Probe; 1] = [("skipped", |a, _| a.world.stats.blocks_skipped as f64)];
        let (m, readings) = sweep("join-rate", points, horizon, &probes);
        let lines: Vec<&str> = m.table.lines().collect();
        assert_eq!(lines.len(), 3, "{}", m.table);
        assert!(lines[0].contains("join-rate") && lines[0].ends_with("skipped"));
        assert!(m.values.is_empty());
        for ((line, reading), rate) in lines[1..].iter().zip(&readings).zip([0.6, 0.3]) {
            assert!(line.starts_with(&format!("  rate {rate} ")), "{line}");
            let artifacts = run(rate);
            let view = LogView::build(&artifacts);
            let p = fig9_point(&view, SimTime::from_mins(5), horizon);
            let ready = fig6_startup(&view, SimTime::ZERO, SimTime::MAX).ready;
            let want = [
                p.mean_population,
                p.mean_continuity,
                p.ready_fraction,
                ready.median().unwrap_or(f64::NAN),
                ready.quantile(0.9).unwrap_or(f64::NAN),
                artifacts.world.stats.blocks_skipped as f64,
            ];
            let got = [
                reading.population,
                reading.continuity,
                reading.ready_fraction,
                reading.ready_median,
                reading.ready_p90,
                reading.probed[0],
            ];
            assert!(want.iter().all(|v| v.is_finite() && *v >= 0.0), "{want:?}");
            assert!(
                p.mean_population > 0.0 && !ready.is_empty(),
                "an empty point"
            );
            assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits), "rate {rate}");
        }
        let none: [(String, fn() -> RunArtifacts); 0] = [];
        let (m, readings) = sweep("join-rate", none, horizon, &[]);
        assert!(readings.is_empty());
        assert_eq!(m.table.lines().count(), 1, "{}", m.table);
    }

    #[test]
    fn every_check_backs_one_of_its_rows_ids() {
        for row in rows() {
            assert!(!row.checks.is_empty(), "{}", row.name);
            for c in &row.checks {
                assert!(
                    row.ids.contains(&c.id),
                    "{}: {} not in {:?}",
                    row.name,
                    c.id,
                    row.ids
                );
            }
        }
    }
}
