//! Regenerate the figures of the paper's evaluation section as text tables.
//!
//! Usage:
//!
//! ```text
//! figures [--paper | --smoke] [fig2] [fig5] … [fig14] [corpus] [claims] [all]
//! figures --check BENCH_<fig>.json [BENCH_<fig>.json ...]
//! ```
//!
//! Without a figure name every figure in `FIGURES` runs, at the quick
//! scale; `--paper` switches to the run counts used in the paper (much
//! slower), `--smoke` to tiny sizes (CI uses this to keep every experiment
//! path exercised). `fig2` prints the tables of Figures 2, 3 and 4.
//!
//! A figure is one registry entry: a function that runs the experiment and
//! returns its record, printing each table from the points it pushes. Every
//! run writes the record as `BENCH_<figure>.json` at the repository root —
//! the committed perf trajectory. `--check` re-runs each named file's figure
//! at the file's *recorded* scale and diffs the fresh points against it
//! (seeded counts/fractions/bytes exactly, timing fields presence-only; see
//! `mapcomp_bench::trajectory`), exiting non-zero on any drift. It never
//! overwrites the files it checks.
//!
//! In both modes a figure's invariants (`BenchDoc::invariant_failures`:
//! the generic ones, plus the `violations` the figure found on its own
//! results) run on
//! its fresh record after the experiment, and after the diff under
//! `--check`, so a regression they catch still shows which fields moved. A
//! record that fails them is not written, and the run exits 1.

use std::path::Path;
use std::time::Instant;

use mapcomp_bench::{
    chain_cache_experiment, chase_scaling_experiment, concurrent_sessions_experiment,
    connection_sweep_experiment, corpus_report, differential_update_experiment,
    differential_violations, edit_count_sweep, editing_experiment, inclusion_sweep,
    long_chain_experiment, long_chain_violations, persistence_experiment, persistence_violations,
    provenance_violations, replication_catchup_experiment, replication_read_experiment,
    residual_chain_point, schema_size_sweep, service_throughput_experiment,
    trajectory::{format_row, parse_scale, BenchDoc, BenchValue},
    ChainCachePoint, Configuration, Scale, ThroughputPoint, FIGURE5_PRIMITIVES,
    RESIDUAL_CHAIN_SEED, SWEEP_CPU_WORKERS,
};
use mapcomp_compose::ComposeConfig;
use mapcomp_evolution::{run_editing, PrimitiveKind, ScenarioConfig};

/// A figure's experiment: runs at a scale, prints its tables and returns
/// its record.
type Figure = fn(Scale) -> BenchDoc;

/// Every figure, in run order, by keyword.
const FIGURES: &[(&str, Figure)] = &[
    ("fig2", figures_2_3_4),
    ("fig5", figure_5),
    ("fig6", figure_6),
    ("fig7", figure_7),
    ("fig8", figure_8),
    ("fig9", figure_9),
    ("fig10", figure_10),
    ("fig11", figure_11),
    ("fig12", figure_12),
    ("fig13", figure_13),
    ("fig14", figure_14),
    ("corpus", corpus_table),
    ("claims", claims),
];

/// The registered experiment behind a figure keyword.
fn figure(name: &str) -> Option<Figure> {
    FIGURES.iter().find(|(figure, _)| *figure == name).map(|(_, run)| *run)
}

/// The figures a command line names, in registry order: all of them when
/// it names none or `all`.
fn selected(requested: &[&str]) -> Result<Vec<(&'static str, Figure)>, String> {
    if let Some(unknown) = requested.iter().find(|name| **name != "all" && figure(name).is_none()) {
        return Err(format!("unknown figure `{unknown}`"));
    }
    let all = requested.is_empty() || requested.contains(&"all");
    Ok(FIGURES.iter().filter(|(name, _)| all || requested.contains(name)).copied().collect())
}

/// `--check` one committed record against a fresh one: the field diff,
/// then the fresh record's invariants. Returns every problem, in that
/// order; empty = the trajectory holds.
fn check_record(baseline: &BenchDoc, fresh: &BenchDoc) -> Vec<String> {
    let mut problems = baseline.diff(fresh);
    problems.extend(
        fresh.invariant_failures().into_iter().map(|failure| format!("invariant: {failure}")),
    );
    problems
}

/// `--check` mode: re-run each file's figure at its recorded scale and
/// check it. Returns process-exit success.
fn check_trajectories(files: &[&str]) -> bool {
    let mut ok = true;
    for file in files {
        let baseline = std::fs::read_to_string(file)
            .map_err(|error| format!("cannot read: {error}"))
            .and_then(|text| BenchDoc::parse(&text));
        let baseline = match baseline {
            Ok(doc) => doc,
            Err(error) => {
                eprintln!("check {file}: {error}");
                ok = false;
                continue;
            }
        };
        let (Some(scale), Some(run)) = (parse_scale(&baseline.scale), figure(&baseline.figure))
        else {
            eprintln!(
                "check {file}: unknown figure `{}` or scale `{}`",
                baseline.figure, baseline.scale
            );
            ok = false;
            continue;
        };
        println!("\n--- checking {file} ({} at {} scale) ---", baseline.figure, baseline.scale);
        let problems = check_record(&baseline, &run(scale));
        if problems.is_empty() {
            println!("check {file}: OK ({} points)", baseline.points.len());
        } else {
            ok = false;
            eprintln!("check {file}: {} problems", problems.len());
            for problem in problems {
                eprintln!("  {problem}");
            }
        }
    }
    ok
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "--check") {
        let files: Vec<&str> = args[1..].iter().map(String::as_str).collect();
        if files.is_empty() {
            eprintln!("usage: figures --check BENCH_<fig>.json [...]");
            std::process::exit(2);
        }
        if !check_trajectories(&files) {
            std::process::exit(1);
        }
        return;
    }
    let scale = if args.iter().any(|a| a == "--paper") {
        Scale::Paper
    } else if args.iter().any(|a| a == "--smoke") {
        Scale::Smoke
    } else {
        Scale::Quick
    };
    let requested: Vec<&str> =
        args.iter().map(String::as_str).filter(|a| *a != "--paper" && *a != "--smoke").collect();
    let figures = selected(&requested).unwrap_or_else(|error| {
        let known: Vec<&str> = FIGURES.iter().map(|(name, _)| *name).collect();
        eprintln!("{error}; known: {}", known.join(" "));
        std::process::exit(2);
    });

    println!("mapping-composition experiment harness (scale: {scale:?})");
    println!("=========================================================");

    // The committed trajectory lives at the repository root, two levels up
    // from this crate.
    let repo_root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let started = Instant::now();
    let mut ok = true;
    for (name, run) in figures {
        let doc = run(scale);
        let failures = doc.invariant_failures();
        if !failures.is_empty() {
            ok = false;
            eprintln!(
                "{name}: {} invariant failures; BENCH_{name}.json not written",
                failures.len()
            );
            for failure in failures {
                eprintln!("  {failure}");
            }
            continue;
        }
        match doc.write_to(&repo_root) {
            Ok(path) => println!("trajectory  : wrote {}", path.display()),
            Err(error) => eprintln!("warning: cannot write BENCH_{name}.json: {error}"),
        }
    }
    println!("\ntotal harness time: {:.1}s", started.elapsed().as_secs_f64());
    if !ok {
        std::process::exit(1);
    }
}

fn figures_2_3_4(scale: Scale) -> BenchDoc {
    println!("\nFigure 2: fraction of symbols eliminated per primitive");
    println!("Figure 3: composition time per edit (ms) per primitive");
    let configurations = Configuration::ALL;
    let aggregates: Vec<_> = configurations
        .iter()
        .map(|configuration| (configuration, editing_experiment(*configuration, scale, 1000)))
        .collect();

    let primitives: Vec<PrimitiveKind> =
        PrimitiveKind::ALL.iter().copied().filter(|kind| kind.consumes_input()).collect();

    // Figure 2 table.
    let widths = vec![6, 10, 10, 14, 18];
    let mut header = vec!["prim".to_string()];
    header.extend(configurations.iter().map(|c| c.label().to_string()));
    println!("\n[Figure 2] fraction of symbols eliminated");
    println!("{}", format_row(&header, &widths));
    for kind in &primitives {
        let mut row = vec![kind.label().to_string()];
        for (_, aggregate) in &aggregates {
            row.push(match aggregate.fraction(*kind) {
                Some(fraction) => format!("{fraction:.2}"),
                None => "-".to_string(),
            });
        }
        println!("{}", format_row(&row, &widths));
    }
    let mut total_row = vec!["TOTAL".to_string()];
    for (_, aggregate) in &aggregates {
        total_row.push(format!("{:.2}", aggregate.overall_fraction));
    }
    println!("{}", format_row(&total_row, &widths));

    // The trajectory records the seeded elimination fractions (Figure 2);
    // the per-edit times of Figures 3/4 are machine noise, not trajectory.
    let mut doc = BenchDoc::new("fig2", scale);
    for (configuration, aggregate) in &aggregates {
        for kind in &primitives {
            let Some(fraction) = aggregate.fraction(*kind) else { continue };
            doc.push_point(vec![
                ("configuration", configuration.label().into()),
                ("primitive", kind.label().into()),
                ("fraction", fraction.into()),
            ]);
        }
        doc.push_point(vec![
            ("configuration", configuration.label().into()),
            ("primitive", "TOTAL".into()),
            ("fraction", aggregate.overall_fraction.into()),
        ]);
    }

    // Figure 3 table.
    println!("\n[Figure 3] time per edit (ms)");
    println!("{}", format_row(&header, &widths));
    for kind in &primitives {
        let mut row = vec![kind.label().to_string()];
        for (_, aggregate) in &aggregates {
            row.push(match aggregate.mean_millis(*kind) {
                Some(ms) => format!("{ms:.2}"),
                None => "-".to_string(),
            });
        }
        println!("{}", format_row(&row, &widths));
    }
    let mut median_row = vec!["median/run(s)".to_string()];
    for (_, aggregate) in &aggregates {
        median_row.push(format!("{:.3}", aggregate.median_run_seconds()));
    }
    println!("{}", format_row(&median_row, &[14, 10, 10, 14, 18]));

    // Figure 4: sorted per-run times for the `no keys` configuration.
    println!("\n[Figure 4] sorted per-run composition time (s), configuration `no keys`");
    let mut times: Vec<f64> = aggregates
        .iter()
        .find(|(c, _)| **c == Configuration::NoKeys)
        .map(|(_, a)| a.run_times.iter().map(std::time::Duration::as_secs_f64).collect())
        .unwrap_or_default();
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    for (index, time) in times.iter().enumerate() {
        println!("  run {:>3}: {:.4}s", index + 1, time);
    }
    doc
}

fn figure_5(scale: Scale) -> BenchDoc {
    let mut doc = BenchDoc::new("fig5", scale);
    doc.push_table(
        "[Figure 5] increasing proportion of inclusion (Sub/Sup) edits",
        inclusion_sweep(scale, 3000).into_iter().map(|point| {
            let mut fields = vec![
                ("proportion", point.proportion.into()),
                ("total_fraction", point.total_fraction.into()),
            ];
            for kind in FIGURE5_PRIMITIVES {
                if let Some(&fraction) = point.per_primitive.get(&kind) {
                    fields.push((kind.label(), fraction.into()));
                }
            }
            fields.push(("mean_time_seconds", point.mean_time_seconds.into()));
            fields
        }),
    );
    doc
}

fn figure_6(scale: Scale) -> BenchDoc {
    let mut doc = BenchDoc::new("fig6", scale);
    let series = schema_size_sweep(scale, 6000);
    let sizes: Vec<usize> = series
        .values()
        .next()
        .map(|points| points.iter().map(|p| p.x).collect())
        .unwrap_or_default();
    doc.push_table(
        "[Figure 6] reconciliation: fraction eliminated vs. intermediate schema size",
        sizes.into_iter().enumerate().map(|(index, size)| {
            let mut fields = vec![("size", size.into())];
            fields.extend(
                series.iter().map(|(label, points)| (*label, points[index].fraction.into())),
            );
            fields
        }),
    );
    doc
}

fn figure_7(scale: Scale) -> BenchDoc {
    let mut doc = BenchDoc::new("fig7", scale);
    doc.push_table(
        "[Figure 7] reconciliation: varying the number of edits",
        edit_count_sweep(scale, 7000).into_iter().map(|point| {
            vec![
                ("edits", point.x.into()),
                ("fraction", point.fraction.into()),
                ("time_seconds", point.time_seconds.into()),
            ]
        }),
    );
    doc
}

fn figure_8(scale: Scale) -> BenchDoc {
    let mut doc = BenchDoc::new("fig8", scale);
    let memo = |point: &ChainCachePoint| {
        [
            ("memo_tree_nodes", point.memo_tree_nodes.into()),
            ("memo_nodes", point.memo_nodes.into()),
            ("memo_sidecar_bytes", point.memo_sidecar_bytes.into()),
            ("memo_token_parts", point.memo_token_parts.into()),
            ("memo_name_allocs", point.memo_name_allocs.into()),
            ("memo_index_refs", point.memo_index_refs.into()),
            ("memo_path_refs", point.memo_path_refs.into()),
        ]
    };
    let points = chain_cache_experiment(scale, 8000);
    let point = residual_chain_point();
    doc.violations = provenance_violations(points.iter().chain([&point]).map(|point| {
        (point.chain_len, point.memo_entries, point.memo_index_refs, point.memo_path_refs)
    }));
    doc.push_table(
        "[Figure 8] catalog chains: incremental vs. cold recomposition after one edit",
        points.iter().map(|point| {
            let mut fields = vec![
                ("links", point.chain_len.into()),
                ("cold_calls", point.cold_calls.into()),
                ("incremental_calls", point.incremental_calls.into()),
                ("cold_ms", BenchValue::millis(point.cold_time)),
                ("incremental_ms", BenchValue::millis(point.incremental_time)),
                ("warm_links", point.warm_links.into()),
                ("incremental_links", point.incremental_links.into()),
            ];
            fields.extend(memo(point));
            fields
        }),
    );
    let mut fields = vec![
        ("links", point.chain_len.into()),
        ("residual_symbols", point.residual_symbols.into()),
        ("cold_calls", point.cold_calls.into()),
        ("cold_attempts", point.cold_attempts.into()),
        ("cold_skips", point.cold_skips.into()),
        ("incremental_calls", point.incremental_calls.into()),
        ("incremental_attempts", point.incremental_attempts.into()),
        ("incremental_skips", point.incremental_skips.into()),
    ];
    fields.extend(memo(&point));
    doc.push_table(
        &format!(
            "residual chain (seed {RESIDUAL_CHAIN_SEED}): ELIMINATE runs and unchanged-residual skips"
        ),
        [fields],
    );
    let long = long_chain_experiment(scale);
    doc.violations.extend(long_chain_violations(&long));
    doc.push_table(
        "long chains of copy links: provenance cost per memo entry, and dropping every prefix",
        long.iter().map(|point| {
            vec![
                ("links", point.links.into()),
                ("cold_calls", point.cold_calls.into()),
                ("cold_ms", BenchValue::millis(point.cold_time)),
                ("memo_index_refs", point.memo_index_refs.into()),
                ("memo_path_refs", point.memo_path_refs.into()),
                ("memo_sidecar_bytes", point.memo_sidecar_bytes.into()),
                ("memo_token_parts", point.memo_token_parts.into()),
                ("invalidated", point.invalidated.into()),
                ("invalidate_ms", BenchValue::millis(point.invalidate_time)),
            ]
        }),
    );
    doc
}

fn figure_9(scale: Scale) -> BenchDoc {
    let mut doc = BenchDoc::new("fig9", scale);
    doc.push_table(
        "[Figure 9] chase scaling: textbook naive reference vs. the chase core",
        chase_scaling_experiment(scale).into_iter().map(|point| {
            vec![
                ("tuples", point.size.into()),
                ("depth", point.depth.into()),
                ("rounds", point.rounds.into()),
                ("frontier_rows", point.frontier_rows.into()),
                ("nulls", point.nulls.into()),
                ("naive_ms", BenchValue::millis(point.naive_time)),
                ("semi_ms", BenchValue::millis(point.semi_time)),
                ("results_agree", point.results_agree.into()),
            ]
        }),
    );
    doc
}

fn figure_10(scale: Scale) -> BenchDoc {
    let mut doc = BenchDoc::new("fig10", scale);
    doc.push_table(
        "[Figure 10] concurrent sessions: batch-composition throughput vs. worker count",
        concurrent_sessions_experiment(scale).iter().map(|point| point.record("workers")),
    );
    doc
}

/// Pairs of instrumented/uninstrumented passes behind fig11's telemetry
/// overhead figure.
const OVERHEAD_ROUNDS: usize = 5;

/// The median of a non-empty sample (the upper middle for even counts).
fn median(mut sample: Vec<f64>) -> f64 {
    sample.sort_by(f64::total_cmp);
    sample[sample.len() / 2]
}

fn figure_11(scale: Scale) -> BenchDoc {
    let mut doc = BenchDoc::new("fig11", scale);
    doc.push_table(
        "[Figure 11] service layer: request throughput over loopback TCP vs. server workers",
        service_throughput_experiment(scale).iter().map(|point| point.record("workers")),
    );

    // Telemetry overhead: the same experiment with every metric and span
    // update short-circuited by the kill switch — instrumentation on the
    // request hot path must stay within noise (~5%) of the uninstrumented
    // baseline. The table run above is the untimed warm-up; then
    // `OVERHEAD_ROUNDS` pairs of passes alternate which side goes first,
    // and each side reports its median (of the summed request rates of
    // every worker count), so neither side is favoured by running first or
    // cold. Run in this binary, not the bench lib, so lib tests never race
    // on the global switch.
    let mut enabled = Vec::with_capacity(OVERHEAD_ROUNDS);
    let mut disabled = Vec::with_capacity(OVERHEAD_ROUNDS);
    for round in 0..OVERHEAD_ROUNDS {
        let order = if round % 2 == 0 { [true, false] } else { [false, true] };
        for instrumented in order {
            mapcomp_telemetry::metrics::set_enabled(instrumented);
            let total: f64 =
                service_throughput_experiment(scale).iter().map(ThroughputPoint::throughput).sum();
            if instrumented { &mut enabled } else { &mut disabled }.push(total);
        }
    }
    mapcomp_telemetry::metrics::set_enabled(true);
    let (enabled_total, disabled_total) = (median(enabled), median(disabled));
    let overhead_pct = if disabled_total > 0.0 {
        (disabled_total - enabled_total) / disabled_total * 100.0
    } else {
        0.0
    };
    doc.push_table(
        &format!(
            "telemetry overhead: instrumented vs. the kill switch (medians of {OVERHEAD_ROUNDS} \
             passes each; acceptance bound 5%)"
        ),
        [vec![
            ("comparison", "telemetry-overhead".into()),
            ("enabled_req_per_s", enabled_total.into()),
            ("disabled_req_per_s", disabled_total.into()),
            ("overhead_pct", overhead_pct.into()),
        ]],
    );

    // Connection sweep: concurrent connections vs. tail latency. The event
    // loop must hold every swept connection count open with a fixed
    // 4-thread CPU pool.
    doc.push_table(
        &format!(
            "connection sweep: concurrent connections vs. compose tail latency \
             ({SWEEP_CPU_WORKERS} CPU workers)"
        ),
        connection_sweep_experiment(scale).into_iter().map(|point| {
            vec![
                ("connections", point.connections.into()),
                ("cpu_workers", point.cpu_workers.into()),
                ("requests", point.requests.into()),
                ("failures", point.failures.into()),
                ("elapsed_ms", BenchValue::millis(point.elapsed)),
                ("p50_us", (point.p50.as_secs_f64() * 1e6).into()),
                ("p99_us", (point.p99.as_secs_f64() * 1e6).into()),
            ]
        }),
    );
    doc
}

fn figure_12(scale: Scale) -> BenchDoc {
    let mut doc = BenchDoc::new("fig12", scale);
    let points = persistence_experiment(scale);
    doc.push_table(
        "[Figure 12] persistence: bytes written per state-changing request vs. catalog size",
        points.iter().map(|point| {
            vec![
                ("mappings", point.mappings.into()),
                ("incremental_bytes", point.incremental_bytes.into()),
                ("rewrite_bytes", point.rewrite_bytes.into()),
                ("incremental_ms", BenchValue::millis(point.incremental_time)),
                ("read_bytes", point.read_bytes.into()),
                ("recovered", point.recovered_identical.into()),
                ("migrate_snapshot_tokens", point.migrate_snapshot_tokens.into()),
            ]
        }),
    );
    doc.violations = persistence_violations(&points);
    doc
}

fn figure_13(scale: Scale) -> BenchDoc {
    let mut doc = BenchDoc::new("fig13", scale);
    // Catch-up: a follower that sat out N leader writes restarts and
    // streams the missed chunks; time-to-convergence vs log length.
    doc.push_table(
        "[Figure 13] replication catch-up: a restarted follower streams the delta chunks it missed",
        replication_catchup_experiment(scale).into_iter().map(|point| {
            vec![
                ("phase", "catchup".into()),
                ("writes", point.writes.into()),
                ("log_records", point.log_records.into()),
                ("catchup_ms", BenchValue::millis(point.catchup)),
                ("converged", point.converged.into()),
            ]
        }),
    );
    // Read scaling: the same read corpus against the leader alone and
    // against the leader plus N converged followers.
    doc.push_table(
        "read throughput: a fixed compose corpus over one leader + N followers",
        replication_read_experiment(scale).iter().map(|point| {
            let mut fields = vec![("phase", "reads".into())];
            fields.extend(point.record("followers"));
            fields
        }),
    );
    doc
}

fn figure_14(scale: Scale) -> BenchDoc {
    let points = differential_update_experiment(scale);
    let mut doc = BenchDoc::new("fig14", scale);
    doc.push_table(
        "[Figure 14] differential chase: constant-size update batch vs. full re-chase",
        points.iter().map(|point| {
            vec![
                ("tuples", point.size.into()),
                ("depth", point.depth.into()),
                ("batch", point.batch.into()),
                ("delta_work", point.delta_work.into()),
                ("rechase_work", point.rebuild_work.into()),
                ("render_rows", point.render_rows.into()),
                ("render_bytes", point.render_bytes.into()),
                ("row_allocs", point.row_allocs.into()),
                ("delta_ms", BenchValue::millis(point.delta_time)),
                ("rechase_ms", BenchValue::millis(point.rebuild_time)),
                ("results_identical", point.results_identical.into()),
            ]
        }),
    );
    doc.violations = differential_violations(&points);
    doc
}

fn corpus_table(scale: Scale) -> BenchDoc {
    let mut doc = BenchDoc::new("corpus", scale);
    doc.push_table(
        "[Literature suite] the 22 composition problems of §4",
        corpus_report().into_iter().map(|outcome| {
            vec![
                ("problem", outcome.id.into()),
                ("eliminated", outcome.eliminated.into()),
                ("total", outcome.total.into()),
                ("expectation_met", outcome.expectation_met.into()),
                ("time_ms", BenchValue::millis(outcome.time)),
            ]
        }),
    );
    doc
}

/// The paper's remaining claims: symbols a blow-up leaves pending at their
/// own edit and later compositions recover, and order invariance.
fn claims(scale: Scale) -> BenchDoc {
    let mut doc = BenchDoc::new("claims", scale);
    // Blow-up aborts and leftover recovery over one batch of editing runs.
    let (mut edits, mut pending, mut recovered) = (0usize, 0usize, 0usize);
    for seed in 0..scale.editing_runs() as u64 {
        let run = run_editing(&ScenarioConfig {
            schema_size: 30,
            edits: scale.edits_per_run(),
            seed: 9000 + seed,
            ..ScenarioConfig::default()
        });
        edits += run.records.len();
        recovered += run.records.iter().map(|r| r.leftover_eliminated).sum::<usize>();
        pending +=
            run.records.iter().filter(|r| r.consumed_intermediate && !r.eliminated_now).count();
    }
    doc.push_table(
        "[Key claims] edits simulated, symbols left pending at their own edit, and pending \
         symbols recovered by later compositions",
        [vec![
            ("edits", edits.into()),
            ("pending", pending.into()),
            ("recovered", recovered.into()),
        ]],
    );

    // Order invariance on the literature suite: eliminate the σ2 symbols in
    // the default order and in the reversed order and compare how many go
    // (the paper reports the algorithm appears order-invariant on its data
    // sets; the corpus contains one deliberate counterexample).
    let registry = mapcomp_compose::Registry::standard();
    let (mut same, mut different) = (0usize, 0usize);
    for problem in mapcomp_corpus::problems() {
        let task = problem.task().expect("parses");
        let forward = mapcomp_compose::compose(&task, &registry, &ComposeConfig::default())
            .expect("composes");
        let mut reversed_order = task.elimination_order();
        reversed_order.reverse();
        let reversed = mapcomp_compose::compose(
            &task,
            &registry,
            &ComposeConfig { symbol_order: Some(reversed_order), ..ComposeConfig::default() },
        )
        .expect("composes");
        if forward.eliminated.len() == reversed.eliminated.len() {
            same += 1;
        } else {
            different += 1;
        }
    }
    doc.push_table(
        "order invariance on the literature suite: problems eliminating the same number of \
         symbols under both orders, and those that differ",
        [vec![("order_same", same.into()), ("order_different", different.into())]],
    );
    doc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn committed(figure: &str) -> BenchDoc {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("../../BENCH_{figure}.json"));
        BenchDoc::parse(&std::fs::read_to_string(path).expect("committed record")).unwrap()
    }

    #[test]
    fn every_committed_record_names_a_registered_figure() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut names = Vec::new();
        for entry in std::fs::read_dir(root).unwrap() {
            let file = entry.unwrap().file_name().into_string().unwrap();
            if let Some(name) = file.strip_prefix("BENCH_").and_then(|f| f.strip_suffix(".json")) {
                assert_eq!(committed(name).figure, name, "{file}");
                assert!(figure(name).is_some(), "{file} names no registered figure");
                names.push(name.to_string());
            }
        }
        assert!(!names.is_empty());
    }

    #[test]
    fn all_runs_exactly_the_registry() {
        let registry: Vec<&str> = FIGURES.iter().map(|(name, _)| *name).collect();
        for request in [&[][..], &["all"], &["fig9", "all"]] {
            let names: Vec<&str> = selected(request).unwrap().iter().map(|(n, _)| *n).collect();
            assert_eq!(names, registry);
        }
        let names: Vec<&str> =
            selected(&["corpus", "fig8"]).unwrap().iter().map(|(n, _)| *n).collect();
        assert_eq!(names, ["fig8", "corpus"]);
        assert!(selected(&["fig99"]).unwrap_err().contains("fig99"));
    }

    /// A fresh record whose correctness field broke: the check lists the
    /// field diff, then the invariant it breaks, and does not panic.
    fn assert_diff_then_invariant(figure: &str, field: &str, broken: BenchValue) {
        let baseline = committed(figure);
        let mut fresh = baseline.clone();
        let (index, value) = fresh
            .points
            .iter_mut()
            .enumerate()
            .find_map(|(index, point)| {
                point.iter_mut().find(|(key, _)| key == field).map(|(_, value)| (index, value))
            })
            .expect("the record has the field");
        *value = broken;
        let problems = check_record(&baseline, &fresh);
        assert_eq!(problems.len(), 2, "{problems:?}");
        assert!(
            problems[0].starts_with(&format!("point {index}: `{field}` recorded")),
            "{problems:?}"
        );
        assert!(problems[1].starts_with(&format!("invariant: point {index}: ")), "{problems:?}");
    }

    #[test]
    fn check_reports_the_diff_then_the_broken_invariant() {
        assert_diff_then_invariant("fig12", "recovered", BenchValue::Bool(false));
        assert_diff_then_invariant("fig13", "failures", BenchValue::U64(1));
        assert_diff_then_invariant("fig10", "results_consistent", BenchValue::Bool(false));
    }

    #[test]
    fn fig14_reports_a_fallback_and_non_flat_rendering_after_the_diff() {
        let mut points = differential_update_experiment(Scale::Smoke);
        assert!(differential_violations(&points).is_empty());
        points[0].fallback = true;
        points[1].render_rows += 1;
        assert_eq!(differential_violations(&points).len(), 2);

        let baseline = committed("fig14");
        let mut fresh = baseline.clone();
        fresh.violations = differential_violations(&points);
        let last = fresh.points.last_mut().unwrap();
        last.iter_mut().find(|(key, _)| key == "render_rows").unwrap().1 = BenchValue::U64(10_000);
        let problems = check_record(&baseline, &fresh);
        assert_eq!(problems.len(), 3, "{problems:?}");
        assert!(problems[0].contains("`render_rows` recorded"), "{problems:?}");
        assert_eq!(problems[1], "invariant: point 0: the batch fell back to a full re-chase");
        assert!(problems[2].starts_with("invariant: reply rendering"), "{problems:?}");
    }
}
