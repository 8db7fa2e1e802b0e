//! # netdir-bench — the experiment harness
//!
//! One binary per experiment of DESIGN.md §4 (E4–E13), plus
//! `exp_overload`; each prints the table recorded in `EXPERIMENTS.md`.
//! Shared machinery lives here:
//!
//! * [`table`] — fixed-width table printing.
//! * [`setup`] — sorted paged operand lists from the workload generators.
//! * [`baseline`] — *paged* naive operators: the quadratic strawman of
//!   Section 5.3 measured in the same currency (page I/Os) as the real
//!   algorithms, by re-scanning `L2` once per `L1` entry.
//! * [`measure`] — cold-cache I/O measurement around a closure.

use netdir_model::Entry;
use netdir_pager::{IoSnapshot, ListWriter, Operand, PagedList, Pager, PagerResult};

/// Fixed-width table printing for experiment output.
pub mod table {
    /// Print a header row followed by a rule.
    pub fn header(cols: &[&str]) {
        let line: Vec<String> = cols.iter().map(|c| format!("{c:>14}")).collect();
        println!("{}", line.join(" "));
        println!("{}", "-".repeat(15 * cols.len()));
    }

    /// Print one data row.
    pub fn row(cells: &[String]) {
        let line: Vec<String> = cells.iter().map(|c| format!("{c:>14}")).collect();
        println!("{}", line.join(" "));
    }

    /// Shorthand for building rows.
    #[macro_export]
    macro_rules! cells {
        ($($x:expr),* $(,)?) => {
            &[$(format!("{}", $x)),*]
        };
    }
}

/// Experiment setup helpers.
pub mod setup {
    use super::*;
    use netdir_workloads::{synth_forest, SynthParams};

    /// Build the standard two operand lists (`kind=red` → L1,
    /// `kind=blue` → L2) of a synthetic forest with `n` entries.
    pub fn red_blue_lists(
        pager: &Pager,
        n: usize,
        seed: u64,
    ) -> (Operand<Entry>, Operand<Entry>) {
        let dir = synth_forest(
            SynthParams {
                entries: n,
                max_depth: 10,
                red_fraction: 0.5,
                blue_fraction: 0.5,
            },
            seed,
        );
        let red = dir
            .iter_sorted()
            .filter(|e| e.values(&"kind".into()).any(|v| v.as_str() == Some("red")))
            .cloned();
        let blue = dir
            .iter_sorted()
            .filter(|e| e.values(&"kind".into()).any(|v| v.as_str() == Some("blue")))
            .cloned();
        (
            PagedList::from_iter(pager, red).expect("write L1").into(),
            PagedList::from_iter(pager, blue).expect("write L2").into(),
        )
    }

    /// Standard experiment pager: 4 KiB pages, a deliberately small
    /// frame budget so that "constant memory" is enforced, not assumed.
    pub fn pager() -> Pager {
        Pager::new(4096, 24)
    }
}

/// Paged quadratic baselines (the strawman of Section 5.3).
pub mod baseline {
    use super::*;
    use netdir_query::agg::CompiledAggFilter;
    use netdir_query::hs_stack::HsOp;
    use netdir_query::naive;

    /// Hierarchical selection by re-scanning `L2` for every `L1` entry —
    /// `O(|L1| · |L2| / B)` page I/Os.
    pub fn paged_naive_hs(
        pager: &Pager,
        op: HsOp,
        l1: &Operand<Entry>,
        l2: &Operand<Entry>,
    ) -> PagerResult<PagedList<Entry>> {
        let filter = CompiledAggFilter::exists_witness();
        let mut out = ListWriter::new(pager);
        for r1 in l1.iter() {
            let r1 = r1?;
            let mut hit = false;
            for r2 in l2.iter() {
                let r2 = r2?;
                let selected = naive::naive_hs_select(
                    op,
                    std::slice::from_ref(&r1),
                    std::slice::from_ref(&r2),
                    &[],
                    &filter,
                );
                if !selected.is_empty() {
                    hit = true;
                    break;
                }
            }
            if hit {
                out.push(&r1)?;
            }
        }
        out.finish()
    }

    /// Embedded-reference selection by re-scanning `L2` per `L1` entry.
    pub fn paged_naive_er(
        pager: &Pager,
        op: netdir_query::RefOp,
        l1: &Operand<Entry>,
        l2: &Operand<Entry>,
        attr: &netdir_model::AttrName,
    ) -> PagerResult<PagedList<Entry>> {
        let filter = CompiledAggFilter::exists_witness();
        let mut out = ListWriter::new(pager);
        for r1 in l1.iter() {
            let r1 = r1?;
            let mut hit = false;
            for r2 in l2.iter() {
                let r2 = r2?;
                let selected = naive::naive_er_select(
                    op,
                    std::slice::from_ref(&r1),
                    std::slice::from_ref(&r2),
                    attr,
                    &filter,
                );
                if !selected.is_empty() {
                    hit = true;
                    break;
                }
            }
            if hit {
                out.push(&r1)?;
            }
        }
        out.finish()
    }
}

/// Run `f` against a cold cache and return its I/O cost (including the
/// flush of whatever it wrote).
pub fn measure<T>(pager: &Pager, f: impl FnOnce() -> PagerResult<T>) -> (T, IoSnapshot) {
    pager.flush().expect("flush before measurement");
    pager.pool().clear_cache().expect("cold cache");
    pager.reset_io();
    let out = f().expect("measured operation");
    pager.flush().expect("flush after measurement");
    (out, pager.io())
}

/// Least-squares slope of y against x — used to report how measured I/O
/// scales with input size (≈ constant ratio for linear algorithms).
pub fn ratio_trend(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    let sx: f64 = points.iter().map(|p| p.0).sum();
    let sy: f64 = points.iter().map(|p| p.1).sum();
    let sxx: f64 = points.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = points.iter().map(|p| p.0 * p.1).sum();
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netdir_query::agg::CompiledAggFilter;
    use netdir_query::hs_stack::{hs_select, HsOp};

    #[test]
    fn paged_naive_agrees_with_stack_algorithm() {
        let pager = setup::pager();
        let (l1, l2) = setup::red_blue_lists(&pager, 120, 3);
        for op in [HsOp::Parents, HsOp::Children, HsOp::Ancestors, HsOp::Descendants] {
            let fast = hs_select(
                &pager,
                op,
                &l1,
                &l2,
                None,
                &CompiledAggFilter::exists_witness(),
            )
            .unwrap()
            .to_vec()
            .unwrap();
            let slow = baseline::paged_naive_hs(&pager, op, &l1, &l2)
                .unwrap()
                .to_vec()
                .unwrap();
            assert_eq!(fast, slow, "{op:?}");
        }
    }

    #[test]
    fn measure_reports_cold_costs() {
        let pager = setup::pager();
        let (l1, _) = setup::red_blue_lists(&pager, 200, 4);
        let (n, io) = measure(&pager, || {
            let mut count = 0u64;
            for e in l1.iter() {
                e?;
                count += 1;
            }
            Ok(count)
        });
        assert_eq!(n, l1.len());
        assert_eq!(io.reads, l1.num_pages());
    }

    #[test]
    fn trend_of_linear_data_is_flat_ratio() {
        let slope = ratio_trend(&[(1.0, 2.0), (2.0, 4.0), (3.0, 6.0)]);
        assert!((slope - 2.0).abs() < 1e-9);
    }
}
