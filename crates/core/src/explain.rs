//! Query plans, human-readable — and measurable.
//!
//! [`explain`] renders a query tree with per-node operator, language
//! level, and the evaluation algorithm that will run — the paper's §8.2
//! bottom-up plan made visible. [`explain_traced`] additionally runs the
//! query and annotates each node with its measured cardinality and I/O.
//! [`analyze`] is the structured upgrade: it runs the query and returns
//! a [`QueryTrace`] with one [`netdir_obs::OperatorSpan`] per node —
//! elapsed time, pages, entries in/out, and the Theorem 8.3/8.4
//! *predicted* I/O next to the observed ledger — rendered by
//! [`QueryTrace::render`].

use crate::ast::Query;
use crate::cost::{predicted_node_io, CostInputs};
use crate::error::QueryResult;
use crate::eval::{AtomicSource, Evaluator, NodeTrace};
use crate::lang::classify;
use netdir_model::Entry;
use netdir_obs::{OperatorSpan, QueryTrace};
use netdir_pager::{Operand, Pager};
use std::fmt::Write as _;

/// Render the static plan for `q`.
pub fn explain(q: &Query) -> String {
    let mut out = String::new();
    writeln!(out, "plan ({}, {} nodes):", classify(q), q.num_nodes())
        .expect("writing to a String cannot fail");
    render(q, 0, &mut out).expect("writing to a String cannot fail");
    out
}

fn render(q: &Query, depth: usize, out: &mut impl std::fmt::Write) -> std::fmt::Result {
    let pad = "  ".repeat(depth + 1);
    match q {
        Query::Atomic {
            base,
            scope,
            filter,
        } => {
            writeln!(out, "{pad}atomic [index probe/scope scan] ({base} ? {scope} ? {filter})")?;
        }
        Query::And(a, b) | Query::Or(a, b) | Query::Diff(a, b) => {
            let sym = match q {
                Query::And(..) => "&",
                Query::Or(..) => "|",
                _ => "-",
            };
            writeln!(out, "{pad}({sym}) [sorted-list merge, linear]")?;
            render(a, depth + 1, out)?;
            render(b, depth + 1, out)?;
        }
        Query::Hier { op, q1, q2, agg } => {
            let algo = match op {
                crate::ast::HierOp::Parents | crate::ast::HierOp::Children => {
                    "ComputeHSPC (Fig 2)"
                }
                _ => "ComputeHSAD (Fig 4)",
            };
            let filt = agg
                .as_ref()
                .map(|f| format!(" agg: {f}"))
                .unwrap_or_default();
            writeln!(out, "{pad}({}) [{algo}, linear]{filt}", op.symbol())?;
            render(q1, depth + 1, out)?;
            render(q2, depth + 1, out)?;
        }
        Query::HierPath {
            op,
            q1,
            q2,
            q3,
            agg,
        } => {
            let filt = agg
                .as_ref()
                .map(|f| format!(" agg: {f}"))
                .unwrap_or_default();
            writeln!(
                out,
                "{pad}({}) [ComputeHSADc (Fig 5), linear]{filt}",
                op.symbol()
            )?;
            render(q1, depth + 1, out)?;
            render(q2, depth + 1, out)?;
            render(q3, depth + 1, out)?;
        }
        Query::AggSelect { query, filter } => {
            writeln!(out, "{pad}(g) [≤2 scans, Thm 6.1] agg: {filter}")?;
            render(query, depth + 1, out)?;
        }
        Query::EmbedRef {
            op,
            q1,
            q2,
            attr,
            agg,
        } => {
            let filt = agg
                .as_ref()
                .map(|f| format!(" agg: {f}"))
                .unwrap_or_default();
            writeln!(
                out,
                "{pad}({}) [ComputeERAgg (Fig 3), sort-merge N log N] on {attr}{filt}",
                op.symbol()
            )?;
            render(q1, depth + 1, out)?;
            render(q2, depth + 1, out)?;
        }
    }
    Ok(())
}

/// Run `q` and render the plan annotated with measured cardinalities and
/// I/O per node (post-order trace mapped back onto the tree).
pub fn explain_traced<S: AtomicSource>(
    source: &S,
    pager: &Pager,
    q: &Query,
) -> QueryResult<(Operand<Entry>, String)> {
    let (out, traces) = Evaluator::new(source, pager).evaluate_traced(q)?;
    let mut text = explain(q);
    writeln!(text, "measured (post-order):").expect("writing to a String cannot fail");
    for t in &traces {
        writeln!(
            text,
            "  {:<40} → {} entries, {} pages, {} I/Os",
            t.node,
            t.output_len,
            t.output_pages,
            t.io.total()
        )
        .expect("writing to a String cannot fail");
    }
    Ok((out, text))
}

/// Run `q` and return its result plus a structured per-operator
/// [`QueryTrace`] — `EXPLAIN ANALYZE` for network directories.
pub fn analyze<S: AtomicSource>(
    source: &S,
    pager: &Pager,
    q: &Query,
) -> QueryResult<(Operand<Entry>, QueryTrace)> {
    let started = std::time::Instant::now();
    let (out, traces) = Evaluator::new(source, pager).evaluate_traced(q)?;
    let elapsed = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    Ok((out, build_trace(q, &traces, pager, elapsed)))
}

/// Assemble a [`QueryTrace`] from the post-order [`NodeTrace`] list of
/// [`Evaluator::evaluate_traced`].
///
/// The evaluator emits traces in post-order (children before parent,
/// memoization off), so a post-order tree walk re-aligns each trace
/// with its node; spans come out in pre-order for display. Per-node
/// predictions use [`predicted_node_io`] over the pages flowing into
/// each operator, with `pager`'s pool as the memory budget, and the
/// whole-query prediction is their *sum* — so
/// the top line always agrees with the per-node rows it prints. (The
/// whole-tree Theorem 8.3/8.4 formula, [`predicted_io`], charges every
/// node the full `|L|/B` even when inner operators see far smaller
/// lists; it remains the right instrument for the asymptotic-shape
/// experiments, not for EXPLAIN's reconciliation.)
pub fn build_trace(
    q: &Query,
    traces: &[NodeTrace],
    pager: &Pager,
    elapsed_nanos: u64,
) -> QueryTrace {
    struct Walk<'t> {
        traces: &'t [NodeTrace],
        next: usize,
        inputs: CostInputs,
    }

    impl Walk<'_> {
        /// Returns this subtree's spans in pre-order (`spans[0]` is the
        /// subtree root) and the root's output size in pages.
        fn walk(&mut self, q: &Query, depth: u32) -> (Vec<OperatorSpan>, u64) {
            let kids: Vec<(Vec<OperatorSpan>, u64)> = q
                .children()
                .into_iter()
                .map(|c| self.walk(c, depth + 1))
                .collect();
            let t = self
                .traces
                .get(self.next)
                .expect("one post-order trace per query node");
            self.next += 1;
            let (read_pages, size_pages) = if kids.is_empty() {
                (t.output_pages, t.output_size)
            } else {
                let sum = |f: fn(&(Vec<OperatorSpan>, u64)) -> u64| kids.iter().map(f).sum();
                (sum(|k| k.0[0].pages_out), sum(|k| k.1))
            };
            let mut spans = vec![OperatorSpan {
                node: t.node.clone(),
                depth,
                entries_in: t.input_len,
                entries_out: t.output_len,
                pages_out: t.output_pages,
                reads: t.io.reads,
                writes: t.io.writes,
                elapsed_nanos: t.elapsed_nanos,
                predicted_io: predicted_node_io(q, read_pages, size_pages, self.inputs),
            }];
            spans.extend(kids.into_iter().flat_map(|k| k.0));
            (spans, t.output_size)
        }
    }

    let mut walk = Walk {
        traces,
        next: 0,
        inputs: CostInputs {
            atomic_pages: 0,
            max_values_per_attr: 1,
            budget_pages: (pager.run_budget() / pager.page_size()) as u64,
        },
    };
    let (spans, _) = walk.walk(q, 0);
    debug_assert_eq!(walk.next, traces.len(), "trace list misaligned with tree");
    QueryTrace {
        query: q.to_string(),
        observed_io: spans.iter().map(|s| s.observed_io()).sum(),
        predicted_io: spans.iter().map(|s| s.predicted_io).sum(),
        spans,
        elapsed_nanos,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use netdir_index::IndexedDirectory;
    use netdir_model::{Directory, Dn, Entry};
    use netdir_obs::TimeDisplay;
    use netdir_pager::tiny_pager;

    #[test]
    fn static_plan_names_the_algorithms() {
        let q = parse_query(
            "(dc (dc=att, dc=com ? sub ? objectClass=dcObject) \
                 (g (dc=att, dc=com ? sub ? sourcePort=25) count(x) > 1) \
                 (dc=att, dc=com ? sub ? objectClass=dcObject))",
        )
        .unwrap();
        let plan = explain(&q);
        assert!(plan.contains("plan (L2, 5 nodes)"), "{plan}");
        assert!(plan.contains("ComputeHSADc"));
        assert!(plan.contains("≤2 scans"));
        assert!(plan.contains("atomic"));
        // Indentation reflects nesting.
        assert!(plan.lines().any(|l| l.starts_with("      ")));
    }

    #[test]
    fn l3_plan_mentions_sort_merge() {
        let q = parse_query(
            "(vd (dc=com ? sub ? a=*) (dc=com ? sub ? b=*) refAttr)",
        )
        .unwrap();
        let plan = explain(&q);
        assert!(plan.contains("plan (L3"));
        assert!(plan.contains("sort-merge"));
        assert!(plan.contains("refAttr"));
    }

    fn dn(s: &str) -> Dn {
        Dn::parse(s).unwrap()
    }

    /// The loopback-test directory: three zones under `dc=com` plus
    /// `dc=org`, a traffic profile, and an SLA policy referencing it.
    fn dir() -> Directory {
        let mut d = Directory::new();
        let mut add = |e: Entry| d.insert(e).unwrap();
        let plain = |s: &str| Entry::builder(dn(s)).class("thing").build().unwrap();
        let person = |s: &str, sn: &str| {
            Entry::builder(dn(s))
                .class("thing")
                .attr("surName", sn)
                .build()
                .unwrap()
        };
        add(plain("dc=com"));
        add(plain("dc=att, dc=com"));
        add(plain("ou=people, dc=att, dc=com"));
        add(person("uid=jag, ou=people, dc=att, dc=com", "jagadish"));
        add(plain("dc=research, dc=att, dc=com"));
        add(plain("ou=people, dc=research, dc=att, dc=com"));
        add(person("uid=jag2, ou=people, dc=research, dc=att, dc=com", "jagadish"));
        add(plain("dc=org"));
        add(plain("ou=tp, dc=att, dc=com"));
        add(
            Entry::builder(dn("TPName=mail, ou=tp, dc=att, dc=com"))
                .class("trafficProfile")
                .attr("sourcePort", 25i64)
                .build()
                .unwrap(),
        );
        add(
            Entry::builder(dn("SLAPolicyName=mail, dc=research, dc=att, dc=com"))
                .class("SLAPolicyRules")
                .attr("SLATPRef", dn("TPName=mail, ou=tp, dc=att, dc=com"))
                .build()
                .unwrap(),
        );
        d
    }

    /// One query per language level, all nonempty against `dir()`.
    fn level_queries() -> Vec<(&'static str, &'static str)> {
        vec![
            (
                "L0",
                "(- (dc=att, dc=com ? sub ? surName=jagadish) \
                    (dc=research, dc=att, dc=com ? sub ? surName=jagadish))",
            ),
            (
                "L1",
                "(c (dc=com ? sub ? objectClass=thing) \
                    (dc=research, dc=att, dc=com ? base ? objectClass=thing))",
            ),
            (
                "L2",
                "(c (dc=com ? sub ? objectClass=thing) \
                    (dc=com ? sub ? objectClass=thing) \
                    count($2) > 1)",
            ),
            (
                "L3",
                "(vd (dc=research, dc=att, dc=com ? sub ? objectClass=SLAPolicyRules) \
                     (dc=att, dc=com ? sub ? sourcePort=25) \
                     SLATPRef)",
            ),
        ]
    }

    /// Golden plans: the `explain` text for one query per level is
    /// pinned verbatim — a change here is a deliberate plan change.
    #[test]
    fn golden_static_plans_per_level() {
        let golden = [
            (
                "L0",
                "plan (L0, 3 nodes):\n\
                 \x20 (-) [sorted-list merge, linear]\n\
                 \x20   atomic [index probe/scope scan] (dc=att, dc=com ? sub ? surName=jagadish)\n\
                 \x20   atomic [index probe/scope scan] (dc=research, dc=att, dc=com ? sub ? surName=jagadish)\n",
            ),
            (
                "L1",
                "plan (L1, 3 nodes):\n\
                 \x20 (c) [ComputeHSPC (Fig 2), linear]\n\
                 \x20   atomic [index probe/scope scan] (dc=com ? sub ? objectClass=thing)\n\
                 \x20   atomic [index probe/scope scan] (dc=research, dc=att, dc=com ? base ? objectClass=thing)\n",
            ),
            (
                "L2",
                "plan (L2, 3 nodes):\n\
                 \x20 (c) [ComputeHSPC (Fig 2), linear] agg: count($2) > 1\n\
                 \x20   atomic [index probe/scope scan] (dc=com ? sub ? objectClass=thing)\n\
                 \x20   atomic [index probe/scope scan] (dc=com ? sub ? objectClass=thing)\n",
            ),
            (
                "L3",
                "plan (L3, 3 nodes):\n\
                 \x20 (vd) [ComputeERAgg (Fig 3), sort-merge N log N] on SLATPRef\n\
                 \x20   atomic [index probe/scope scan] (dc=research, dc=att, dc=com ? sub ? objectClass=SLAPolicyRules)\n\
                 \x20   atomic [index probe/scope scan] (dc=att, dc=com ? sub ? sourcePort=25)\n",
            ),
        ];
        for ((level, text), (glevel, want)) in level_queries().iter().zip(golden.iter()) {
            assert_eq!(level, glevel);
            let q = parse_query(text).unwrap();
            let got = explain(&q);
            // Filter values render canonically (case-folded), so compare
            // case-insensitively.
            assert_eq!(
                got.to_lowercase(),
                want.to_lowercase(),
                "{level} plan drifted:\n{got}"
            );
        }
    }

    /// `analyze` over one query per level: spans align with the tree,
    /// observed I/O reconciles with the per-span ledger, and the
    /// redacted rendering is deterministic.
    #[test]
    fn analyze_reports_per_operator_spans_per_level() {
        for (level, text) in level_queries() {
            // A fresh pager per level: buffer-pool state is part of the
            // observed I/O, so determinism only holds run-for-run.
            let pager = tiny_pager();
            let idx = IndexedDirectory::build(&pager, &dir()).unwrap();
            let q = parse_query(text).unwrap();
            let (out, trace) = analyze(&idx, &pager, &q).unwrap();
            assert!(!out.is_empty(), "{level}: dead test query");
            assert_eq!(trace.spans.len(), q.num_nodes(), "{level}: span per node");
            assert_eq!(trace.root_entries(), out.len(), "{level}");
            // Root is depth 0; both leaves are depth 1.
            assert_eq!(trace.spans[0].depth, 0, "{level}");
            assert!(trace.spans[1..].iter().all(|s| s.depth == 1), "{level}");
            // Entries flowed into the root from its children.
            let child_out: u64 = trace.spans[1..].iter().map(|s| s.entries_out).sum();
            assert_eq!(trace.spans[0].entries_in, child_out, "{level}");
            // The totals reconcile with the spans.
            let span_io: u64 = trace.spans.iter().map(|s| s.observed_io()).sum();
            assert_eq!(trace.observed_io, span_io, "{level}");
            assert!(trace.predicted_io > 0.0, "{level}: no prediction");
            assert!(
                trace.spans.iter().all(|s| s.predicted_io > 0.0),
                "{level}: node without prediction"
            );

            // Determinism: two runs render identically once timing is
            // redacted (same directory, same pager geometry).
            let pager2 = tiny_pager();
            let idx2 = IndexedDirectory::build(&pager2, &dir()).unwrap();
            let (_, trace2) = analyze(&idx2, &pager2, &q).unwrap();
            assert_eq!(
                trace.render(TimeDisplay::Redact),
                trace2.render(TimeDisplay::Redact),
                "{level}: analyze output not deterministic"
            );
        }
    }

    /// The top-line prediction is the sum of the per-node rows (so
    /// EXPLAIN reconciles with itself), it never exceeds the coarse
    /// whole-tree Theorem 8.3/8.4 bound, and the L3 root still carries
    /// the sort-merge log factor.
    #[test]
    fn analyze_predictions_follow_the_theorems() {
        use crate::cost::predicted_io;
        let pager = tiny_pager();
        let idx = IndexedDirectory::build(&pager, &dir()).unwrap();
        let queries = level_queries();
        let l1 = parse_query(queries[1].1).unwrap();
        let l3 = parse_query(queries[3].1).unwrap();
        let (_, t1) = analyze(&idx, &pager, &l1).unwrap();
        let (_, t3) = analyze(&idx, &pager, &l3).unwrap();
        for (t, q, level) in [(&t1, &l1, "L1"), (&t3, &l3, "L3")] {
            // Top line = sum of the rows it prints.
            let span_sum: f64 = t.spans.iter().map(|s| s.predicted_io).sum();
            assert!(
                (t.predicted_io - span_sum).abs() < 1e-9,
                "{level}: top-line prediction disagrees with its rows"
            );
            // …and never exceeds the whole-tree formula, which charges
            // every node the full |L|/B. (Both queries are root + two
            // atomic leaves, so spans[1..] are exactly the leaves.)
            let atomic_pages: u64 = t.spans[1..].iter().map(|s| s.pages_out).sum();
            let bound = predicted_io(
                q,
                CostInputs {
                    atomic_pages,
                    max_values_per_attr: 1,
                    budget_pages: 0,
                },
            );
            assert!(
                t.predicted_io <= bound + 1e-9,
                "{level}: per-node sum {} above whole-tree bound {bound}",
                t.predicted_io
            );
        }
        // L3's root span predicts at least the linear cost of its input.
        let l3_inputs: u64 = t3.spans[1..].iter().map(|s| s.pages_out).sum();
        assert!(t3.spans[0].predicted_io >= l3_inputs.max(1) as f64);
    }
}
