//! Regenerate the figures of the paper's evaluation section as text tables.
//!
//! Usage:
//!
//! ```text
//! figures [--paper | --smoke] [fig2] [fig3] [fig4] [fig5] [fig6] [fig7] [fig8] [fig9]
//!         [fig10] [fig11] [fig12] [fig13] [fig14] [corpus] [claims] [all]
//! figures --check BENCH_<fig>.json [BENCH_<fig>.json ...]
//! ```
//!
//! Without arguments every figure is produced at the quick scale; `--paper`
//! switches to the run counts used in the paper (much slower), `--smoke` to
//! tiny sizes (CI uses this to keep every experiment path exercised).
//!
//! Every figure run also writes its points as `BENCH_<figure>.json` at the
//! repository root — the committed perf trajectory. `--check` re-runs each
//! named file's figure at the file's *recorded* scale and diffs the fresh
//! points against it (seeded counts/fractions/bytes exactly, timing fields
//! presence-only; see `mapcomp_bench::trajectory`), exiting non-zero on any
//! drift. It never overwrites the files it checks.

use std::path::Path;
use std::time::Instant;

use mapcomp_bench::{
    chain_cache_experiment, chase_scaling_experiment, concurrent_sessions_experiment,
    connection_sweep_experiment, corpus_report, differential_update_experiment, edit_count_sweep,
    editing_experiment, format_row, inclusion_sweep, persistence_experiment,
    replication_catchup_experiment, replication_read_experiment, residual_chain_point,
    schema_size_sweep, service_throughput_experiment,
    trajectory::{parse_scale, BenchDoc, BenchValue},
    Configuration, DifferentialUpdatePoint, ReplicationReadPoint, Scale, FIGURE5_PRIMITIVES,
    RESIDUAL_CHAIN_SEED,
};
use mapcomp_compose::ComposeConfig;
use mapcomp_evolution::{run_editing, PrimitiveKind, ScenarioConfig};

/// A figure's own invariant checks, which panic on a violation. They are
/// kept apart from the measurement so that `--check` can print the field
/// diff first.
type Invariants = Box<dyn FnOnce()>;

/// Run one figure's experiment, printing its table and returning its
/// trajectory document and invariant checks (`None` for `claims`, which
/// asserts instead of measuring).
fn run_figure(name: &str, scale: Scale) -> Option<(BenchDoc, Invariants)> {
    if name == "fig14" {
        let (doc, points) = figure_14(scale);
        return Some((doc, Box::new(move || assert_figure_14(&points))));
    }
    let doc = match name {
        "fig2" | "fig3" | "fig4" => Some(figures_2_3_4(scale)),
        "fig5" => Some(figure_5(scale)),
        "fig6" => Some(figure_6(scale)),
        "fig7" => Some(figure_7(scale)),
        "fig8" => Some(figure_8(scale)),
        "fig9" => Some(figure_9(scale)),
        "fig10" => Some(figure_10(scale)),
        "fig11" => Some(figure_11(scale)),
        "fig12" => Some(figure_12(scale)),
        "fig13" => Some(figure_13(scale)),
        "corpus" => Some(corpus_table(scale)),
        _ => None,
    }?;
    Some((doc, Box::new(|| ())))
}

/// `--check` mode: re-run each file's figure at its recorded scale and
/// diff. Returns process-exit success.
fn check_trajectories(files: &[&str]) -> bool {
    let mut ok = true;
    for file in files {
        let text = match std::fs::read_to_string(file) {
            Ok(text) => text,
            Err(error) => {
                eprintln!("check {file}: cannot read: {error}");
                ok = false;
                continue;
            }
        };
        let baseline = match BenchDoc::parse(&text) {
            Ok(doc) => doc,
            Err(error) => {
                eprintln!("check {file}: cannot parse: {error}");
                ok = false;
                continue;
            }
        };
        let Some(scale) = parse_scale(&baseline.scale) else {
            eprintln!("check {file}: unknown scale `{}`", baseline.scale);
            ok = false;
            continue;
        };
        println!("\n--- checking {file} ({} at {} scale) ---", baseline.figure, baseline.scale);
        let Some((fresh, invariants)) = run_figure(&baseline.figure, scale) else {
            eprintln!("check {file}: unknown figure `{}`", baseline.figure);
            ok = false;
            continue;
        };
        let problems = baseline.diff(&fresh);
        if problems.is_empty() {
            println!("check {file}: OK ({} points)", baseline.points.len());
        } else {
            ok = false;
            eprintln!("check {file}: {} mismatches", problems.len());
            for problem in problems {
                eprintln!("  {problem}");
            }
        }
        // The figure's own assertions run after the diff, so a regression
        // they catch still shows which fields moved.
        if std::panic::catch_unwind(std::panic::AssertUnwindSafe(invariants)).is_err() {
            eprintln!("check {file}: the figure's own invariants failed");
            ok = false;
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
    let want = |name: &str| {
        requested.is_empty() || requested.contains(&name) || requested.contains(&"all")
    };

    println!("mapping-composition experiment harness (scale: {scale:?})");
    println!("=========================================================");

    // The committed trajectory lives at the repository root, two levels up
    // from this crate.
    let repo_root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut written = Vec::new();
    let mut emit = |doc: BenchDoc| match doc.write_to(&repo_root) {
        Ok(path) => written.push(path),
        Err(error) => eprintln!("warning: cannot write BENCH_{}.json: {error}", doc.figure),
    };

    let started = Instant::now();
    if want("fig2") || want("fig3") || want("fig4") {
        emit(figures_2_3_4(scale));
    }
    if want("fig5") {
        emit(figure_5(scale));
    }
    if want("fig6") {
        emit(figure_6(scale));
    }
    if want("fig7") {
        emit(figure_7(scale));
    }
    if want("fig8") {
        emit(figure_8(scale));
    }
    if want("fig9") {
        emit(figure_9(scale));
    }
    if want("fig10") {
        emit(figure_10(scale));
    }
    if want("fig11") {
        emit(figure_11(scale));
    }
    if want("fig12") {
        emit(figure_12(scale));
    }
    if want("fig13") {
        emit(figure_13(scale));
    }
    if want("fig14") {
        let (doc, points) = figure_14(scale);
        assert_figure_14(&points);
        emit(doc);
    }
    if want("corpus") {
        emit(corpus_table(scale));
    }
    if want("claims") {
        claims(scale);
    }
    for path in &written {
        println!("trajectory  : wrote {}", path.display());
    }
    println!("\ntotal harness time: {:.1}s", started.elapsed().as_secs_f64());
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
                ("configuration", BenchValue::Str(configuration.label().to_string())),
                ("primitive", BenchValue::Str(kind.label().to_string())),
                ("fraction", BenchValue::F64(fraction)),
            ]);
        }
        doc.push_point(vec![
            ("configuration", BenchValue::Str(configuration.label().to_string())),
            ("primitive", BenchValue::Str("TOTAL".to_string())),
            ("fraction", BenchValue::F64(aggregate.overall_fraction)),
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
    println!("\n[Figure 5] increasing proportion of inclusion (Sub/Sup) edits");
    let mut doc = BenchDoc::new("fig5", scale);
    let points = inclusion_sweep(scale, 3000);
    let mut header = vec!["prop".to_string(), "total".to_string()];
    header.extend(FIGURE5_PRIMITIVES.iter().map(|k| k.label().to_string()));
    header.push("time(s)".to_string());
    let widths = vec![6, 7, 7, 7, 7, 7, 9];
    println!("{}", format_row(&header, &widths));
    for point in points {
        let mut row =
            vec![format!("{:.2}", point.proportion), format!("{:.2}", point.total_fraction)];
        for kind in FIGURE5_PRIMITIVES {
            row.push(
                point
                    .per_primitive
                    .get(&kind)
                    .map_or_else(|| "-".to_string(), |f| format!("{f:.2}")),
            );
        }
        row.push(format!("{:.3}", point.mean_time_seconds));
        println!("{}", format_row(&row, &widths));
        let mut fields = vec![
            ("proportion", BenchValue::F64(point.proportion)),
            ("total_fraction", BenchValue::F64(point.total_fraction)),
        ];
        for kind in FIGURE5_PRIMITIVES {
            if let Some(&fraction) = point.per_primitive.get(&kind) {
                fields.push((kind.label(), BenchValue::F64(fraction)));
            }
        }
        fields.push(("mean_time_seconds", BenchValue::F64(point.mean_time_seconds)));
        doc.push_point(fields);
    }
    doc
}

fn figure_6(scale: Scale) -> BenchDoc {
    println!("\n[Figure 6] reconciliation: fraction eliminated vs. intermediate schema size");
    let mut doc = BenchDoc::new("fig6", scale);
    let series = schema_size_sweep(scale, 6000);
    let labels: Vec<&str> = series.keys().copied().collect();
    let mut header = vec!["size".to_string()];
    header.extend(labels.iter().map(std::string::ToString::to_string));
    let widths = vec![6, 10, 20, 18];
    println!("{}", format_row(&header, &widths));
    if let Some(first) = series.values().next() {
        for (index, point) in first.iter().enumerate() {
            let mut row = vec![point.x.to_string()];
            for label in &labels {
                row.push(format!("{:.2}", series[label][index].fraction));
            }
            println!("{}", format_row(&row, &widths));
            let mut fields = vec![("size", BenchValue::U64(point.x as u64))];
            for label in &labels {
                fields.push((*label, BenchValue::F64(series[label][index].fraction)));
            }
            doc.push_point(fields);
        }
    }
    doc
}

fn figure_7(scale: Scale) -> BenchDoc {
    println!("\n[Figure 7] reconciliation: varying the number of edits");
    let mut doc = BenchDoc::new("fig7", scale);
    let points = edit_count_sweep(scale, 7000);
    let widths = vec![7, 10, 10];
    println!(
        "{}",
        format_row(&["edits".to_string(), "fraction".to_string(), "time(s)".to_string()], &widths)
    );
    for point in points {
        println!(
            "{}",
            format_row(
                &[
                    point.x.to_string(),
                    format!("{:.2}", point.fraction),
                    format!("{:.3}", point.time_seconds)
                ],
                &widths
            )
        );
        doc.push_point(vec![
            ("edits", BenchValue::U64(point.x as u64)),
            ("fraction", BenchValue::F64(point.fraction)),
            ("time_seconds", BenchValue::F64(point.time_seconds)),
        ]);
    }
    doc
}

fn figure_8(scale: Scale) -> BenchDoc {
    println!("\n[Figure 8] catalog chains: incremental vs. cold recomposition after one edit");
    let mut doc = BenchDoc::new("fig8", scale);
    let points = chain_cache_experiment(scale, 8000);
    let widths = vec![7, 11, 11, 12, 12, 9];
    println!(
        "{}",
        format_row(
            &[
                "links".to_string(),
                "cold calls".to_string(),
                "incr calls".to_string(),
                "cold (ms)".to_string(),
                "incr (ms)".to_string(),
                "speedup".to_string(),
            ],
            &widths
        )
    );
    for point in points {
        let cold_ms = point.cold_time.as_secs_f64() * 1000.0;
        let incr_ms = point.incremental_time.as_secs_f64() * 1000.0;
        let speedup =
            if incr_ms > 0.0 { format!("{:.1}x", cold_ms / incr_ms) } else { "-".to_string() };
        println!(
            "{}",
            format_row(
                &[
                    point.chain_len.to_string(),
                    point.cold_calls.to_string(),
                    point.incremental_calls.to_string(),
                    format!("{cold_ms:.2}"),
                    format!("{incr_ms:.2}"),
                    speedup,
                ],
                &widths
            )
        );
        doc.push_point(vec![
            ("links", BenchValue::U64(point.chain_len as u64)),
            ("cold_calls", BenchValue::U64(point.cold_calls as u64)),
            ("incremental_calls", BenchValue::U64(point.incremental_calls as u64)),
            ("cold_ms", BenchValue::F64(cold_ms)),
            ("incremental_ms", BenchValue::F64(incr_ms)),
            ("warm_links", BenchValue::U64(point.warm_links as u64)),
            ("incremental_links", BenchValue::U64(point.incremental_links as u64)),
            ("memo_tree_nodes", BenchValue::U64(point.memo_tree_nodes as u64)),
            ("memo_nodes", BenchValue::U64(point.memo_nodes as u64)),
            ("memo_sidecar_bytes", BenchValue::U64(point.memo_sidecar_bytes as u64)),
        ]);
    }
    let point = residual_chain_point();
    println!(
        "residual chain (seed {RESIDUAL_CHAIN_SEED}): {} links, {} residual; ELIMINATE runs / \
         unchanged skips: cold {} / {}, incremental {} / {}",
        point.chain_len,
        point.residual_symbols,
        point.cold_attempts,
        point.cold_skips,
        point.incremental_attempts,
        point.incremental_skips
    );
    doc.push_point(vec![
        ("links", BenchValue::U64(point.chain_len as u64)),
        ("residual_symbols", BenchValue::U64(point.residual_symbols as u64)),
        ("cold_calls", BenchValue::U64(point.cold_calls as u64)),
        ("cold_attempts", BenchValue::U64(point.cold_attempts as u64)),
        ("cold_skips", BenchValue::U64(point.cold_skips as u64)),
        ("incremental_calls", BenchValue::U64(point.incremental_calls as u64)),
        ("incremental_attempts", BenchValue::U64(point.incremental_attempts as u64)),
        ("incremental_skips", BenchValue::U64(point.incremental_skips as u64)),
        ("memo_tree_nodes", BenchValue::U64(point.memo_tree_nodes as u64)),
        ("memo_nodes", BenchValue::U64(point.memo_nodes as u64)),
        ("memo_sidecar_bytes", BenchValue::U64(point.memo_sidecar_bytes as u64)),
    ]);
    doc
}

fn figure_9(scale: Scale) -> BenchDoc {
    println!("\n[Figure 9] chase scaling: textbook naive reference vs. the chase core");
    let mut doc = BenchDoc::new("fig9", scale);
    let points = chase_scaling_experiment(scale);
    let widths = vec![7, 7, 8, 10, 7, 12, 12, 9, 7];
    println!(
        "{}",
        format_row(
            &[
                "tuples".to_string(),
                "depth".to_string(),
                "rounds".to_string(),
                "frontier".to_string(),
                "nulls".to_string(),
                "naive (ms)".to_string(),
                "core (ms)".to_string(),
                "speedup".to_string(),
                "equal".to_string(),
            ],
            &widths
        )
    );
    for point in points {
        println!(
            "{}",
            format_row(
                &[
                    point.size.to_string(),
                    point.depth.to_string(),
                    point.rounds.to_string(),
                    point.frontier_rows.to_string(),
                    point.nulls.to_string(),
                    format!("{:.2}", point.naive_time.as_secs_f64() * 1000.0),
                    format!("{:.2}", point.semi_time.as_secs_f64() * 1000.0),
                    format!("{:.1}x", point.speedup()),
                    if point.results_agree { "yes" } else { "NO" }.to_string(),
                ],
                &widths
            )
        );
        doc.push_point(vec![
            ("tuples", BenchValue::U64(point.size as u64)),
            ("depth", BenchValue::U64(point.depth as u64)),
            ("rounds", BenchValue::U64(point.rounds as u64)),
            ("frontier_rows", BenchValue::U64(point.frontier_rows as u64)),
            ("nulls", BenchValue::U64(point.nulls as u64)),
            ("naive_ms", BenchValue::F64(point.naive_time.as_secs_f64() * 1000.0)),
            ("semi_ms", BenchValue::F64(point.semi_time.as_secs_f64() * 1000.0)),
            ("results_agree", BenchValue::Bool(point.results_agree)),
        ]);
    }
    doc
}

fn figure_10(scale: Scale) -> BenchDoc {
    println!("\n[Figure 10] concurrent sessions: batch-composition throughput vs. worker count");
    let mut doc = BenchDoc::new("fig10", scale);
    let points = concurrent_sessions_experiment(scale);
    let baseline = points.first().map(mapcomp_bench::ConcurrentSessionsPoint::throughput);
    let widths = vec![8, 9, 10, 11, 9, 7];
    println!(
        "{}",
        format_row(
            &[
                "workers".to_string(),
                "requests".to_string(),
                "time (ms)".to_string(),
                "req/s".to_string(),
                "speedup".to_string(),
                "equal".to_string(),
            ],
            &widths
        )
    );
    for point in points {
        assert_eq!(point.failures, 0, "fig10 batch requests must all succeed");
        let speedup = baseline
            .map_or_else(|| "-".to_string(), |base| format!("{:.1}x", point.throughput() / base));
        println!(
            "{}",
            format_row(
                &[
                    point.workers.to_string(),
                    point.requests.to_string(),
                    format!("{:.2}", point.elapsed.as_secs_f64() * 1000.0),
                    format!("{:.0}", point.throughput()),
                    speedup,
                    if point.results_consistent { "yes" } else { "NO" }.to_string(),
                ],
                &widths
            )
        );
        doc.push_point(vec![
            ("workers", BenchValue::U64(point.workers as u64)),
            ("requests", BenchValue::U64(point.requests as u64)),
            ("failures", BenchValue::U64(point.failures as u64)),
            ("elapsed_ms", BenchValue::F64(point.elapsed.as_secs_f64() * 1000.0)),
            ("req_per_s", BenchValue::F64(point.throughput())),
            ("results_consistent", BenchValue::Bool(point.results_consistent)),
        ]);
    }
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
    println!(
        "\n[Figure 11] service layer: request throughput over loopback TCP vs. server workers"
    );
    let mut doc = BenchDoc::new("fig11", scale);
    let points = service_throughput_experiment(scale);
    let baseline = points.first().map(mapcomp_bench::ServiceThroughputPoint::throughput);
    let widths = vec![8, 9, 10, 11, 9, 7];
    println!(
        "{}",
        format_row(
            &[
                "workers".to_string(),
                "requests".to_string(),
                "time (ms)".to_string(),
                "req/s".to_string(),
                "speedup".to_string(),
                "equal".to_string(),
            ],
            &widths
        )
    );
    for point in &points {
        assert_eq!(point.failures, 0, "fig11 service requests must all succeed");
        let speedup = baseline
            .map_or_else(|| "-".to_string(), |base| format!("{:.1}x", point.throughput() / base));
        println!(
            "{}",
            format_row(
                &[
                    point.workers.to_string(),
                    point.requests.to_string(),
                    format!("{:.2}", point.elapsed.as_secs_f64() * 1000.0),
                    format!("{:.0}", point.throughput()),
                    speedup,
                    if point.results_consistent { "yes" } else { "NO" }.to_string(),
                ],
                &widths
            )
        );
        doc.push_point(vec![
            ("workers", BenchValue::U64(point.workers as u64)),
            ("requests", BenchValue::U64(point.requests as u64)),
            ("failures", BenchValue::U64(point.failures as u64)),
            ("elapsed_ms", BenchValue::F64(point.elapsed.as_secs_f64() * 1000.0)),
            ("req_per_s", BenchValue::F64(point.throughput())),
            ("results_consistent", BenchValue::Bool(point.results_consistent)),
        ]);
    }

    // Telemetry overhead: the same experiment with every metric and span
    // update short-circuited by the kill switch — instrumentation on the
    // request hot path must stay within noise (~5%) of the uninstrumented
    // baseline. The table run above is the untimed warm-up; then
    // `OVERHEAD_ROUNDS` pairs of passes alternate which side goes first,
    // and each side reports its median, so neither side is favoured by
    // running first or cold. Run in this binary, not the bench lib, so lib
    // tests never race on the global switch.
    let mut enabled = Vec::with_capacity(OVERHEAD_ROUNDS);
    let mut disabled = Vec::with_capacity(OVERHEAD_ROUNDS);
    for round in 0..OVERHEAD_ROUNDS {
        let order = if round % 2 == 0 { [true, false] } else { [false, true] };
        for instrumented in order {
            mapcomp_telemetry::metrics::set_enabled(instrumented);
            let total: f64 = service_throughput_experiment(scale)
                .iter()
                .map(mapcomp_bench::ServiceThroughputPoint::throughput)
                .sum();
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
    println!(
        "telemetry overhead: {:.0} req/s instrumented vs {:.0} req/s with the kill switch \
         (medians of {OVERHEAD_ROUNDS} passes each; {overhead_pct:+.1}% overhead; \
         acceptance bound 5%)",
        enabled_total / points.len().max(1) as f64,
        disabled_total / points.len().max(1) as f64,
    );
    doc.push_point(vec![
        ("comparison", BenchValue::Str("telemetry-overhead".to_string())),
        ("enabled_req_per_s", BenchValue::F64(enabled_total)),
        ("disabled_req_per_s", BenchValue::F64(disabled_total)),
        ("overhead_pct", BenchValue::F64(overhead_pct)),
    ]);

    // Connection sweep: concurrent connections vs. tail latency. The event
    // loop must hold every swept connection count open with a fixed
    // 4-thread CPU pool.
    println!(
        "\nconnection sweep: concurrent connections vs. compose tail latency \
         ({} CPU workers)",
        mapcomp_bench::SWEEP_CPU_WORKERS
    );
    let sweep = connection_sweep_experiment(scale);
    let widths = vec![12, 9, 10, 9, 9, 9];
    println!(
        "{}",
        format_row(
            &[
                "connections".to_string(),
                "requests".to_string(),
                "time (ms)".to_string(),
                "p50 (us)".to_string(),
                "p99 (us)".to_string(),
                "failed".to_string(),
            ],
            &widths
        )
    );
    for point in &sweep {
        assert_eq!(point.failures, 0, "fig11 sweep requests must all succeed");
        println!(
            "{}",
            format_row(
                &[
                    point.connections.to_string(),
                    point.requests.to_string(),
                    format!("{:.2}", point.elapsed.as_secs_f64() * 1000.0),
                    format!("{:.0}", point.p50.as_secs_f64() * 1e6),
                    format!("{:.0}", point.p99.as_secs_f64() * 1e6),
                    point.failures.to_string(),
                ],
                &widths
            )
        );
        doc.push_point(vec![
            ("connections", BenchValue::U64(point.connections as u64)),
            ("cpu_workers", BenchValue::U64(point.cpu_workers as u64)),
            ("requests", BenchValue::U64(point.requests as u64)),
            ("failures", BenchValue::U64(point.failures as u64)),
            ("elapsed_ms", BenchValue::F64(point.elapsed.as_secs_f64() * 1000.0)),
            ("p50_us", BenchValue::F64(point.p50.as_secs_f64() * 1e6)),
            ("p99_us", BenchValue::F64(point.p99.as_secs_f64() * 1e6)),
        ]);
    }
    doc
}

fn figure_12(scale: Scale) -> BenchDoc {
    println!(
        "\n[Figure 12] persistence: bytes written per state-changing request vs. catalog size"
    );
    let mut doc = BenchDoc::new("fig12", scale);
    let points = persistence_experiment(scale);
    let widths = vec![9, 12, 14, 11, 12, 10];
    println!(
        "{}",
        format_row(
            &[
                "mappings".to_string(),
                "incr B/req".to_string(),
                "rewrite B/req".to_string(),
                "incr (ms)".to_string(),
                "read B/req".to_string(),
                "recovered".to_string(),
            ],
            &widths
        )
    );
    for point in points {
        assert!(point.recovered_identical, "fig12 kill-and-restart recovery must round-trip");
        println!(
            "{}",
            format_row(
                &[
                    point.mappings.to_string(),
                    point.incremental_bytes.to_string(),
                    point.rewrite_bytes.to_string(),
                    format!("{:.3}", point.incremental_time.as_secs_f64() * 1000.0),
                    point.read_bytes.to_string(),
                    "yes".to_string(),
                ],
                &widths
            )
        );
        doc.push_point(vec![
            ("mappings", BenchValue::U64(point.mappings as u64)),
            ("incremental_bytes", BenchValue::U64(point.incremental_bytes)),
            ("rewrite_bytes", BenchValue::U64(point.rewrite_bytes)),
            ("incremental_ms", BenchValue::F64(point.incremental_time.as_secs_f64() * 1000.0)),
            ("read_bytes", BenchValue::U64(point.read_bytes)),
            ("recovered", BenchValue::Bool(point.recovered_identical)),
        ]);
    }
    doc
}

fn figure_13(scale: Scale) -> BenchDoc {
    println!("\n[Figure 13] replication: follower catch-up and horizontal read scaling");
    let mut doc = BenchDoc::new("fig13", scale);

    // Catch-up: a follower that sat out N leader writes restarts and
    // streams the missed chunks; time-to-convergence vs log length.
    println!("\ncatch-up: a restarted follower streams the delta chunks it missed");
    let widths = vec![7, 9, 14, 10];
    println!(
        "{}",
        format_row(
            &[
                "writes".to_string(),
                "records".to_string(),
                "catch-up (ms)".to_string(),
                "converged".to_string(),
            ],
            &widths
        )
    );
    for point in replication_catchup_experiment(scale) {
        assert!(point.converged, "fig13 follower must converge byte-identically");
        println!(
            "{}",
            format_row(
                &[
                    point.writes.to_string(),
                    point.log_records.to_string(),
                    format!("{:.2}", point.catchup.as_secs_f64() * 1000.0),
                    "yes".to_string(),
                ],
                &widths
            )
        );
        doc.push_point(vec![
            ("phase", BenchValue::Str("catchup".to_string())),
            ("writes", BenchValue::U64(point.writes as u64)),
            ("log_records", BenchValue::U64(point.log_records)),
            ("catchup_ms", BenchValue::F64(point.catchup.as_secs_f64() * 1000.0)),
            ("converged", BenchValue::Bool(point.converged)),
        ]);
    }

    // Read scaling: the same read corpus against the leader alone and
    // against the leader plus N converged followers.
    println!("\nread throughput: a fixed compose corpus over one leader + N followers");
    let points = replication_read_experiment(scale);
    let baseline = points.first().map(ReplicationReadPoint::throughput);
    let widths = vec![10, 9, 10, 11, 9, 7];
    println!(
        "{}",
        format_row(
            &[
                "followers".to_string(),
                "requests".to_string(),
                "time (ms)".to_string(),
                "req/s".to_string(),
                "speedup".to_string(),
                "equal".to_string(),
            ],
            &widths
        )
    );
    for point in &points {
        assert_eq!(point.failures, 0, "fig13 read requests must all succeed");
        let speedup = baseline
            .map_or_else(|| "-".to_string(), |base| format!("{:.1}x", point.throughput() / base));
        println!(
            "{}",
            format_row(
                &[
                    point.followers.to_string(),
                    point.requests.to_string(),
                    format!("{:.2}", point.elapsed.as_secs_f64() * 1000.0),
                    format!("{:.0}", point.throughput()),
                    speedup,
                    if point.results_consistent { "yes" } else { "NO" }.to_string(),
                ],
                &widths
            )
        );
        doc.push_point(vec![
            ("phase", BenchValue::Str("reads".to_string())),
            ("followers", BenchValue::U64(point.followers as u64)),
            ("requests", BenchValue::U64(point.requests as u64)),
            ("failures", BenchValue::U64(point.failures as u64)),
            ("elapsed_ms", BenchValue::F64(point.elapsed.as_secs_f64() * 1000.0)),
            ("req_per_s", BenchValue::F64(point.throughput())),
            ("results_consistent", BenchValue::Bool(point.results_consistent)),
        ]);
    }
    doc
}

/// Figure 14's table and document, plus its points for
/// [`assert_figure_14`].
fn figure_14(scale: Scale) -> (BenchDoc, Vec<DifferentialUpdatePoint>) {
    println!("\n[Figure 14] differential chase: constant-size update batch vs. full re-chase");
    let mut doc = BenchDoc::new("fig14", scale);
    let points = differential_update_experiment(scale);
    let widths = vec![7, 7, 7, 11, 13, 8, 12, 12, 11, 13, 10];
    println!(
        "{}",
        format_row(
            &[
                "tuples".to_string(),
                "depth".to_string(),
                "batch".to_string(),
                "delta work".to_string(),
                "rechase work".to_string(),
                "ratio".to_string(),
                "render rows".to_string(),
                "render bytes".to_string(),
                "delta (ms)".to_string(),
                "rechase (ms)".to_string(),
                "identical".to_string(),
            ],
            &widths
        )
    );
    for point in &points {
        println!(
            "{}",
            format_row(
                &[
                    point.size.to_string(),
                    point.depth.to_string(),
                    point.batch.to_string(),
                    point.delta_work.to_string(),
                    point.rebuild_work.to_string(),
                    format!("{:.1}x", point.work_ratio()),
                    point.render_rows.to_string(),
                    point.render_bytes.to_string(),
                    format!("{:.3}", point.delta_time.as_secs_f64() * 1000.0),
                    format!("{:.3}", point.rebuild_time.as_secs_f64() * 1000.0),
                    if point.results_identical { "yes" } else { "NO" }.to_string(),
                ],
                &widths
            )
        );
        doc.push_point(vec![
            ("tuples", BenchValue::U64(point.size as u64)),
            ("depth", BenchValue::U64(point.depth as u64)),
            ("batch", BenchValue::U64(point.batch as u64)),
            ("delta_work", BenchValue::U64(point.delta_work as u64)),
            ("rechase_work", BenchValue::U64(point.rebuild_work as u64)),
            ("render_rows", BenchValue::U64(point.render_rows as u64)),
            ("render_bytes", BenchValue::U64(point.render_bytes as u64)),
            ("delta_ms", BenchValue::F64(point.delta_time.as_secs_f64() * 1000.0)),
            ("rechase_ms", BenchValue::F64(point.rebuild_time.as_secs_f64() * 1000.0)),
            ("results_identical", BenchValue::Bool(point.results_identical)),
        ]);
    }
    (doc, points)
}

/// Figure 14's invariants: reply rendering flat in instance size, every
/// batch on the incremental path, the maintained target equal to the
/// re-chase.
fn assert_figure_14(points: &[DifferentialUpdatePoint]) {
    assert!(
        points.windows(2).all(|pair| pair[0].render_rows == pair[1].render_rows),
        "fig14 reply rendering must be flat in instance size"
    );
    for point in points {
        assert!(!point.fallback, "fig14 batches must stay on the incremental path");
        assert!(point.results_identical, "fig14 maintained target must equal the re-chase");
    }
}

fn corpus_table(scale: Scale) -> BenchDoc {
    println!("\n[Literature suite] the 22 composition problems of §4");
    let mut doc = BenchDoc::new("corpus", scale);
    let widths = vec![32, 12, 8, 10];
    println!(
        "{}",
        format_row(
            &[
                "problem".to_string(),
                "eliminated".to_string(),
                "ok".to_string(),
                "time(ms)".to_string()
            ],
            &widths
        )
    );
    for outcome in corpus_report() {
        println!(
            "{}",
            format_row(
                &[
                    outcome.id.to_string(),
                    format!("{}/{}", outcome.eliminated, outcome.total),
                    if outcome.expectation_met { "yes" } else { "NO" }.to_string(),
                    format!("{:.2}", outcome.time.as_secs_f64() * 1000.0)
                ],
                &widths
            )
        );
        doc.push_point(vec![
            ("problem", BenchValue::Str(outcome.id.to_string())),
            ("eliminated", BenchValue::U64(outcome.eliminated as u64)),
            ("total", BenchValue::U64(outcome.total as u64)),
            ("expectation_met", BenchValue::Bool(outcome.expectation_met)),
            ("time_ms", BenchValue::F64(outcome.time.as_secs_f64() * 1000.0)),
        ]);
    }
    doc
}

fn claims(scale: Scale) {
    println!("\n[Key claims] blow-up aborts, leftover recovery, order invariance");
    // Blow-up aborts and leftover recovery over one batch of editing runs.
    let mut edits_total = 0usize;
    let mut leftovers_recovered = 0usize;
    let mut pending_created = 0usize;
    for seed in 0..scale.editing_runs() as u64 {
        let run = run_editing(&ScenarioConfig {
            schema_size: 30,
            edits: scale.edits_per_run(),
            seed: 9000 + seed,
            ..ScenarioConfig::default()
        });
        edits_total += run.records.len();
        leftovers_recovered += run.records.iter().map(|r| r.leftover_eliminated).sum::<usize>();
        pending_created +=
            run.records.iter().filter(|r| r.consumed_intermediate && !r.eliminated_now).count();
    }
    println!("  edits simulated: {edits_total}");
    println!("  symbols left pending at their own edit: {pending_created}");
    println!("  pending symbols recovered by later compositions: {leftovers_recovered}");

    // Order invariance on the literature suite: eliminate the σ2 symbols in
    // the default order and in the reversed order and compare how many go
    // (the paper reports the algorithm appears order-invariant on its data
    // sets; the corpus contains one deliberate counterexample).
    let registry = mapcomp_compose::Registry::standard();
    let mut same = 0usize;
    let mut different = 0usize;
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
    println!(
        "  order invariance on the literature suite: {same} problems eliminate the same number of symbols under both orders, {different} differ"
    );
}
