//! `mapcomp` — command-line front end for the composition component.
//!
//! Three modes:
//!
//! **Task mode** (the original paper workflow): read a composition task
//! written in the plain-text format (paper §4), run the best-effort COMPOSE
//! algorithm, and print the resulting mapping.
//!
//! ```text
//! mapcomp <task-file> [<first-mapping> <second-mapping>]
//!         [--no-unfolding] [--no-left-compose] [--no-right-compose]
//!         [--minimize] [--blowup N] [--stats]
//! ```
//!
//! When the mapping names are omitted, `m12` and `m23` are assumed. Example
//! task files live under `examples/tasks/`.
//!
//! **Catalog mode**: maintain a persistent catalog of schemas and mappings
//! (a plain-text document on disk, with a `<file>.memo` sidecar holding the
//! memo cache) and compose multi-hop chains incrementally. Every catalog
//! subcommand is a typed service request executed against an in-process
//! backend — the *same* requests `mapcomp client` sends over TCP, so local
//! and remote traffic share one code path:
//!
//! ```text
//! mapcomp catalog add           --catalog <file> <document-file>...
//! mapcomp catalog compose-path  --catalog <file> <from-schema> <to-schema>
//!                               [--require-complete] [--stats] [compose flags]
//! mapcomp catalog compose-names --catalog <file> <mapping>...
//! mapcomp catalog compose-batch --catalog <file> [--workers N]
//!                               <from> <to> [<from> <to> ...]
//! mapcomp catalog migrate-delta --catalog <file> <from> <to> <±rel(v,...)>...
//! mapcomp catalog invalidate    --catalog <file> <mapping-name>
//! mapcomp catalog lint          --catalog <file> [<mapping-name>]
//! mapcomp catalog stats         --catalog <file>
//! mapcomp catalog cache-info    --catalog <file>
//! mapcomp catalog compact       --catalog <file>
//! ```
//!
//! `lint` runs the static analyzer over every mapping (or just the named
//! one): a chase-termination verdict per mapping — `proven` with a concrete
//! polynomial evaluation budget, or `unknown` with the existential cycle
//! that blocks the proof — plus style diagnostics with stable codes
//! (unbound head variables, cartesian-product joins, duplicate rules, …).
//! Output is deterministic byte-for-byte; the report grammar is specified
//! in `docs/ANALYSIS.md`. `migrate-delta` consults the verdict: an
//! `unknown` chain chases under a lowered null cap, and a batch whose chase
//! does not reach a fixpoint is refused (`nonterminating`) and not applied.
//! `--eval-budget N` overrides the engine's evaluation budget (0 is
//! rejected).
//!
//! Catalog commands also accept `--cache-capacity N` (bound the memo cache;
//! 0 = unbounded), `--path-cost hops|op-count` (fewest-hops vs.
//! cheapest-estimated-growth path resolution), and the compaction policy.
//! Each state-changing command appends delta records, so it costs I/O
//! proportional to the change; a read served from the memo cache appends
//! nothing of its own, and each invocation flushes the cache hit counters
//! it moved once, as it exits. `--compact-appends N` / `--compact-bytes N`
//! bound how much delta log accumulates before it is folded back into
//! snapshot form (0 = never; an explicit `compact` always folds). The
//! on-disk grammar is specified in `docs/PERSISTENCE.md`.
//!
//! **Service mode**: serve the same catalog over TCP, and drive a server
//! from the command line:
//!
//! ```text
//! mapcomp serve  --catalog <file> [--addr 127.0.0.1:0] [--workers N]
//!                [--queue-limit N] [--auth-token-file <path>]
//!                [--cache-capacity N] [--path-cost hops|op-count]
//!                [--require-complete] [--idle-timeout SECONDS]
//!                [--slow-ms N] [--log-format text|json]
//!                [--compact-appends N] [--compact-bytes N] [compose flags]
//!                [--replicate | --follow <host:port>]
//! mapcomp client --addr <host:port> [--auth-token-file <path>] ping
//! mapcomp client --addr <host:port> add <document-file>...
//! mapcomp client --addr <host:port> compose-path <from> <to> [--stats]
//! mapcomp client --addr <host:port> compose-names <mapping>...
//! mapcomp client --addr <host:port> compose-batch [--workers N] <from> <to> ...
//! mapcomp client --addr <host:port> migrate-delta <from> <to> <±rel(v,...)>...
//! mapcomp client --addr <host:port> invalidate <mapping>
//! mapcomp client --addr <host:port> lint [<mapping>]
//! mapcomp client --addr <host:port> stats
//! mapcomp client --addr <host:port> cache-info
//! mapcomp client --addr <host:port> metrics
//! mapcomp client --addr <host:port> compact
//! mapcomp client --addr <host:port> shutdown
//! ```
//!
//! `serve` runs a readiness-driven event engine: one event loop owns every
//! socket, connections pipeline freely, and `--workers N` bounds the CPU
//! pool that actually composes (`--queue-limit N` bounds how many decoded
//! requests may wait for it before the server sheds with the `busy` error
//! code). With
//! `--auth-token-file <path>` the server refuses requests until a
//! connection presents the file's first-line token in an `auth` frame
//! field; the client-side flag makes `mapcomp client` present it.
//!
//! `metrics` prints the serving side's metrics registry as Prometheus-style
//! text exposition on stdout; `serve --log-format json` emits one JSON
//! object per connection event and request on stderr, and `--slow-ms N`
//! logs any request slower than N milliseconds even when general logging
//! is off. The metric catalog, log-line shape, and the wire-level `trace`
//! field are specified in `docs/OBSERVABILITY.md`.
//!
//! `serve --replicate` makes the process a replication *leader*: every
//! sidecar append is published to subscribers, and `subscribe`/`snapshot`
//! requests are answered. `serve --follow <host:port>`
//! makes it a read-only *follower* of the leader at that address: reads
//! are served from a local replica fed by the leader's delta stream, and
//! writes fail with the `readonly` error code naming the leader. See
//! `docs/REPLICATION.md` for the stream grammar and follower lifecycle.
//!
//! `serve` prints `listening on <addr>` once the socket is bound (bind port
//! 0 for an ephemeral port and read it off that line), then blocks until a
//! client sends `shutdown`. Composition policy (compose flags, path cost,
//! strictness) is fixed server-side at `serve` time; clients only name
//! schemas and mappings.
//!
//! `compose-path` prints the composed mapping as a plain-text document
//! (schemas + mapping), so its output can be fed back to `catalog add` or
//! any other consumer of the format.
//!
//! The document format carries content only; entry version counters, hash
//! history and cumulative cache statistics are persisted in the `<file>.memo`
//! sidecar and re-applied on load, so versions survive across invocations
//! (an out-of-session edit to the document is detected by content hash and
//! advances the recorded version by one). Sidecar writes take a sibling
//! `.lock` file, so concurrent invocations — or a server and a stray CLI —
//! never tear each other's state.

use std::process::ExitCode;

use mapping_composition::algebra::parse_document;
use mapping_composition::catalog::{Catalog, ChainOptions, PathCost, SessionConfig};
use mapping_composition::compose::{compose, minimize_mapping, ComposeConfig, Registry};
use mapping_composition::service::{
    Client, EventServer, Follower, LocalService, MapcompService, PersistPolicy, Request, Response,
};
use mapping_composition::telemetry::log::LogFormat;

struct Options {
    file: String,
    first: String,
    second: String,
    config: ComposeConfig,
    minimize: bool,
    stats: bool,
}

/// Handle a compose-configuration flag shared by all CLI modes, consuming
/// the flag's value from `iter` when it carries one. Returns `Ok(false)`
/// when the argument is not a compose flag.
fn parse_compose_flag<'a>(
    arg: &str,
    iter: &mut std::iter::Peekable<impl Iterator<Item = &'a String>>,
    config: &mut ComposeConfig,
) -> Result<bool, String> {
    match arg {
        "--no-unfolding" => config.enable_view_unfolding = false,
        "--no-left-compose" => config.enable_left_compose = false,
        "--no-right-compose" => config.enable_right_compose = false,
        "--blowup" => {
            let value = iter.next().ok_or("--blowup requires a factor")?;
            let factor: usize =
                value.parse().map_err(|_| format!("invalid blow-up factor `{value}`"))?;
            config.blowup_factor = if factor == 0 { None } else { Some(factor) };
        }
        _ => return Ok(false),
    }
    Ok(true)
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut positional: Vec<String> = Vec::new();
    let mut config = ComposeConfig::default();
    let mut minimize = false;
    let mut stats = false;
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        if parse_compose_flag(arg, &mut iter, &mut config)? {
            continue;
        }
        match arg.as_str() {
            "--minimize" => minimize = true,
            "--stats" => stats = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            other => positional.push(other.to_string()),
        }
    }
    let file = positional.first().cloned().ok_or("missing task file")?;
    let first = positional.get(1).cloned().unwrap_or_else(|| "m12".to_string());
    let second = positional.get(2).cloned().unwrap_or_else(|| "m23".to_string());
    Ok(Options { file, first, second, config, minimize, stats })
}

fn run(options: &Options) -> Result<(), String> {
    let text = std::fs::read_to_string(&options.file)
        .map_err(|e| format!("cannot read {}: {e}", options.file))?;
    let document = parse_document(&text).map_err(|e| format!("parse error: {e}"))?;
    let task = document.task(&options.first, &options.second).map_err(|e| {
        format!("cannot build task from `{}` and `{}`: {e}", options.first, options.second)
    })?;
    let registry = Registry::standard();
    task.validate(registry.operators()).map_err(|e| format!("task does not type-check: {e}"))?;

    let result = compose(&task, &registry, &options.config).map_err(|e| e.to_string())?;
    let full_signature = task.full_signature().map_err(|e| e.to_string())?;

    let constraints = if options.minimize {
        minimize_mapping(result.constraints.clone().into_vec(), &full_signature, &registry)
    } else {
        result.constraints.clone().into_vec()
    };

    println!("// composed mapping over {}", result.signature);
    for constraint in &constraints {
        println!("{constraint};");
    }
    eprintln!();
    eprintln!("eliminated : {:?}", result.eliminated);
    eprintln!("remaining  : {:?}", result.remaining);
    if options.stats {
        let (unfold, left, right) = result.stats.eliminations_by_step();
        eprintln!("steps      : unfolding {unfold}, left compose {left}, right compose {right}");
        eprintln!(
            "size       : {} -> {} constraints, {} -> {} operators",
            result.stats.input_constraints,
            constraints.len(),
            result.stats.input_op_count,
            constraints
                .iter()
                .map(mapping_composition::prelude::Constraint::op_count)
                .sum::<usize>()
        );
        eprintln!("time       : {:?}", result.stats.total_time);
        if result.stats.blowup_aborts > 0 {
            eprintln!(
                "aborted    : {} eliminations hit the blow-up budget",
                result.stats.blowup_aborts
            );
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Service-mode argument parsing (catalog / serve / client)
// ---------------------------------------------------------------------------

/// Arguments shared by the three service-mode entry points: the subcommand
/// keyword, its positional arguments, and the session policy flags (which
/// only the *serving* side applies — locally for `catalog`, at bind time for
/// `serve`, and not at all for `client`).
struct ServiceArgs {
    command: String,
    positional: Vec<String>,
    catalog_file: Option<String>,
    addr: Option<String>,
    config: ComposeConfig,
    require_complete: bool,
    stats: bool,
    cache_capacity: Option<usize>,
    path_cost: PathCost,
    /// `--eval-budget N`: operator override for the engine's chase
    /// evaluation budget; 0 is rejected at parse time.
    eval_budget: Option<usize>,
    /// `--workers N`; `None` when the flag was not given — the serving side
    /// then uses its own default (1 locally, the `serve`-time count
    /// remotely).
    workers: Option<usize>,
    /// `--compact-appends N` (0 = never compact on append count).
    compact_appends: Option<usize>,
    /// `--compact-bytes N` (0 = never compact on sidecar size).
    compact_bytes: Option<u64>,
    /// `--idle-timeout SECONDS` (0 = keep idle connections forever, the
    /// default).
    idle_timeout: Option<f64>,
    /// `--slow-ms N`: log any request slower than N milliseconds (0 = off,
    /// the default). Serve mode only.
    slow_ms: Option<u64>,
    /// `--log-format text|json`: structured connection/request logging on
    /// stderr. Serve mode only; `None` = silent, the default.
    log_format: Option<LogFormat>,
    /// `--queue-limit N`: bound on decoded requests waiting for a CPU
    /// worker before the server sheds with `busy`. Serve mode only.
    queue_limit: Option<usize>,
    /// `--auth-token-file <path>`: file whose first line is the shared
    /// auth token (serve requires it, client presents it).
    auth_token_file: Option<String>,
    /// `--replicate`: serve as a replication leader — publish every sidecar
    /// append to subscribers and answer `subscribe`/`snapshot`. Serve mode
    /// only.
    replicate: bool,
    /// `--follow <host:port>`: serve as a read-only follower of the leader
    /// at that address. Serve mode only.
    follow: Option<String>,
    /// Session-policy flags seen while parsing (compose flags,
    /// `--require-complete`, `--cache-capacity`, `--path-cost`). They only
    /// take effect on the serving side, so client mode rejects them instead
    /// of silently ignoring them.
    policy_flags: Vec<String>,
}

impl ServiceArgs {
    fn session_config(&self) -> SessionConfig {
        SessionConfig {
            compose: self.config.clone(),
            chain: ChainOptions { require_complete: self.require_complete },
            cache_capacity: self.cache_capacity,
            path_cost: self.path_cost,
            eval_budget: self.eval_budget,
        }
    }

    fn persist_policy(&self) -> PersistPolicy {
        let mut policy = PersistPolicy::default();
        if let Some(appends) = self.compact_appends {
            policy.compact_appends = if appends == 0 { None } else { Some(appends) };
        }
        if let Some(bytes) = self.compact_bytes {
            policy.compact_bytes = if bytes == 0 { None } else { Some(bytes) };
        }
        policy
    }
}

fn parse_service_args(command: Option<&String>, args: &[String]) -> Result<ServiceArgs, String> {
    let command = command.cloned().unwrap_or_default();
    let mut parsed = ServiceArgs {
        command,
        positional: Vec::new(),
        catalog_file: None,
        addr: None,
        config: ComposeConfig::default(),
        require_complete: false,
        stats: false,
        cache_capacity: None,
        path_cost: PathCost::Hops,
        eval_budget: None,
        workers: None,
        compact_appends: None,
        compact_bytes: None,
        idle_timeout: None,
        slow_ms: None,
        log_format: None,
        queue_limit: None,
        auth_token_file: None,
        replicate: false,
        follow: None,
        policy_flags: Vec::new(),
    };
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        if parse_compose_flag(arg, &mut iter, &mut parsed.config)? {
            parsed.policy_flags.push(arg.clone());
            continue;
        }
        match arg.as_str() {
            "--catalog" => {
                let value = iter.next().ok_or("--catalog requires a file path")?;
                parsed.catalog_file = Some(value.clone());
            }
            "--addr" => {
                let value = iter.next().ok_or("--addr requires a host:port address")?;
                parsed.addr = Some(value.clone());
            }
            "--require-complete" => {
                parsed.require_complete = true;
                parsed.policy_flags.push(arg.clone());
            }
            "--stats" => parsed.stats = true,
            "--cache-capacity" => {
                let value = iter.next().ok_or("--cache-capacity requires a count")?;
                let entries: usize =
                    value.parse().map_err(|_| format!("invalid cache capacity `{value}`"))?;
                parsed.cache_capacity = if entries == 0 { None } else { Some(entries) };
                parsed.policy_flags.push(arg.clone());
            }
            "--path-cost" => {
                let value = iter.next().ok_or("--path-cost requires `hops` or `op-count`")?;
                parsed.path_cost = match value.as_str() {
                    "hops" => PathCost::Hops,
                    "op-count" => PathCost::OpCount,
                    other => return Err(format!("invalid path cost `{other}`")),
                };
                parsed.policy_flags.push(arg.clone());
            }
            "--eval-budget" => {
                let value = iter.next().ok_or("--eval-budget requires a step count")?;
                let budget: usize =
                    value.parse().map_err(|_| format!("invalid eval budget `{value}`"))?;
                if budget == 0 {
                    return Err(
                        "--eval-budget must be positive: a zero budget would reject every \
                         chase before its first step (omit the flag to use the analyzer's \
                         proven bound or the engine default)"
                            .to_string(),
                    );
                }
                parsed.eval_budget = Some(budget);
                parsed.policy_flags.push(arg.clone());
            }
            "--workers" => {
                let value = iter.next().ok_or("--workers requires a count")?;
                parsed.workers = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or_else(|| format!("invalid worker count `{value}`"))?,
                );
            }
            "--compact-appends" => {
                let value = iter.next().ok_or("--compact-appends requires a count")?;
                parsed.compact_appends =
                    Some(value.parse().map_err(|_| format!("invalid append threshold `{value}`"))?);
                parsed.policy_flags.push(arg.clone());
            }
            "--compact-bytes" => {
                let value = iter.next().ok_or("--compact-bytes requires a byte count")?;
                parsed.compact_bytes =
                    Some(value.parse().map_err(|_| format!("invalid byte threshold `{value}`"))?);
                parsed.policy_flags.push(arg.clone());
            }
            "--idle-timeout" => {
                let value = iter.next().ok_or("--idle-timeout requires seconds")?;
                // Bounded so `Duration::from_secs_f64` can never panic
                // (anything past a year is "never reap" in practice).
                const MAX_IDLE_SECONDS: f64 = 366.0 * 24.0 * 3600.0;
                parsed.idle_timeout = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|&s: &f64| s.is_finite() && (0.0..=MAX_IDLE_SECONDS).contains(&s))
                        .ok_or_else(|| format!("invalid idle timeout `{value}`"))?,
                );
                parsed.policy_flags.push(arg.clone());
            }
            "--slow-ms" => {
                let value = iter.next().ok_or("--slow-ms requires milliseconds")?;
                parsed.slow_ms =
                    Some(value.parse().map_err(|_| format!("invalid slow threshold `{value}`"))?);
                parsed.policy_flags.push(arg.clone());
            }
            "--log-format" => {
                let value = iter.next().ok_or("--log-format requires `text` or `json`")?;
                parsed.log_format = Some(value.parse()?);
                parsed.policy_flags.push(arg.clone());
            }
            "--queue-limit" => {
                let value = iter.next().ok_or("--queue-limit requires a count")?;
                parsed.queue_limit = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or_else(|| format!("invalid queue limit `{value}`"))?,
                );
            }
            "--auth-token-file" => {
                let value = iter.next().ok_or("--auth-token-file requires a file path")?;
                parsed.auth_token_file = Some(value.clone());
            }
            "--replicate" => parsed.replicate = true,
            "--follow" => {
                let value = iter.next().ok_or("--follow requires the leader's host:port")?;
                parsed.follow = Some(value.clone());
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            other => parsed.positional.push(other.to_string()),
        }
    }
    Ok(parsed)
}

// ---------------------------------------------------------------------------
// One command path for local and remote service backends
// ---------------------------------------------------------------------------

const COMMANDS: &str =
    "`add`, `compose-path`, `compose-names`, `compose-batch`, `migrate-delta`, `invalidate`, \
     `lint`, `stats`, `cache-info`, `metrics`, `compact`, `ping`, or `shutdown`";

/// Execute one service-mode subcommand against any backend and print the
/// reply. This is the single dispatch path: `mapcomp catalog` hands in a
/// [`LocalService`], `mapcomp client` a TCP [`Client`].
fn run_command(service: &dyn MapcompService, args: &ServiceArgs) -> Result<(), String> {
    match args.command.as_str() {
        "ping" => {
            match service.call(Request::Ping).map_err(|e| e.to_string())? {
                Response::Pong => eprintln!("pong"),
                other => return Err(format!("unexpected reply `{}`", other.kind())),
            }
            Ok(())
        }
        "add" => {
            if args.positional.is_empty() {
                return Err("add requires at least one document file".to_string());
            }
            // Read and pre-parse every file before sending anything, so the
            // common failure (a malformed file anywhere in the list) commits
            // nothing and names the offending file. The files are then
            // ingested in order as separate requests — a later file
            // redefining an earlier file's mapping is an *edit* (version
            // bump + history), exactly as if the files were added in
            // separate invocations.
            let mut texts = Vec::new();
            for file in &args.positional {
                let text = std::fs::read_to_string(file)
                    .map_err(|e| format!("cannot read {file}: {e}"))?;
                parse_document(&text).map_err(|e| format!("{file}: parse error: {e}"))?;
                texts.push(text);
            }
            let mut touched = Vec::new();
            let mut counts = (0, 0);
            for text in texts {
                match service.call(Request::AddDocument { text }).map_err(|e| e.to_string())? {
                    Response::Added { touched: t, schemas, mappings } => {
                        touched.extend(t);
                        counts = (schemas, mappings);
                    }
                    other => return Err(format!("unexpected reply `{}`", other.kind())),
                }
            }
            touched.sort();
            touched.dedup();
            eprintln!("catalog    : {} schemas, {} mappings", counts.0, counts.1);
            eprintln!("updated    : {touched:?}");
            Ok(())
        }
        "compose-path" | "compose-names" => {
            let request = if args.command == "compose-path" {
                let [from, to] = args.positional.as_slice() else {
                    return Err("compose-path requires <from-schema> <to-schema>".to_string());
                };
                Request::ComposePath { from: from.clone(), to: to.clone() }
            } else {
                if args.positional.is_empty() {
                    return Err("compose-names requires at least one mapping name".to_string());
                }
                Request::ComposeNames { names: args.positional.clone() }
            };
            let payload = match service.call(request).map_err(|e| e.to_string())? {
                Response::Composed(payload) => payload,
                other => return Err(format!("unexpected reply `{}`", other.kind())),
            };
            let chain = payload.to_chain().map_err(|e| e.to_string())?;

            // Print the composed mapping as a document that re-parses: the
            // endpoint schemas (target extended by any residual symbols, per
            // §3.1 the output signature may keep σ2 leftovers) + mapping.
            let mut printed = Catalog::new();
            printed.add_schema(&*chain.source, chain.mapping.input.clone());
            let mut target_sig = chain.mapping.output.clone();
            for (name, info) in chain.residual.iter() {
                target_sig.add(name.to_string(), info.clone());
            }
            printed.add_schema(&*chain.target, target_sig);
            printed
                .add_mapping(
                    "composed",
                    &chain.source,
                    &chain.target,
                    chain.mapping.constraints.clone(),
                )
                .map_err(|e| e.to_string())?;
            println!("// composed {} -> {} via {:?}", chain.source, chain.target, chain.path);
            if !chain.residual.is_empty() {
                println!("// residual (uneliminated) symbols: {:?}", chain.residual.names());
            }
            print!("{}", printed.to_document_string());

            eprintln!();
            eprintln!("path        : {:?}", chain.path);
            eprintln!("residual    : {:?}", chain.residual.names());
            if args.stats {
                eprintln!("plan        : {:?} (run lengths; >1 = served from cache)", payload.plan);
                eprintln!("compose     : {} pairwise calls this request", payload.compose_calls);
                eprintln!("cache hits  : {} this request", payload.cache_hits);
                let stats = fetch_stats(service)?;
                eprintln!(
                    "cache       : {} entries ({} hits / {} misses lifetime)",
                    stats.session.cache_entries,
                    stats.session.cache.hits,
                    stats.session.cache.misses
                );
            }
            Ok(())
        }
        "compose-batch" => {
            if args.positional.is_empty() || !args.positional.len().is_multiple_of(2) {
                return Err(
                    "compose-batch requires <from> <to> pairs (an even number of schema names)"
                        .to_string(),
                );
            }
            let requests: Vec<(String, String)> =
                args.positional.chunks(2).map(|pair| (pair[0].clone(), pair[1].clone())).collect();
            let started = std::time::Instant::now();
            // `workers: 0` on the wire means "the serving side's configured
            // default" — locally that is 1, remotely the `serve`-time count.
            let reply = service
                .call(Request::ComposeBatch {
                    requests: requests.clone(),
                    workers: args.workers.unwrap_or(0),
                })
                .map_err(|e| e.to_string())?;
            let elapsed = started.elapsed();
            let Response::Batch(results) = reply else {
                return Err(format!("unexpected reply `{}`", reply.kind()));
            };
            let mut failures = 0usize;
            for ((from, to), result) in requests.iter().zip(&results) {
                match result {
                    Ok(payload) => {
                        let chain = payload.to_chain().map_err(|e| e.to_string())?;
                        let residual = if chain.residual.is_empty() {
                            String::new()
                        } else {
                            format!(" residual {:?}", chain.residual.names())
                        };
                        eprintln!(
                            "ok   : {from} -> {to} via {:?} ({} compose calls, {} cache hits{residual})",
                            payload.path, payload.compose_calls, payload.cache_hits
                        );
                    }
                    Err(error) => {
                        failures += 1;
                        eprintln!("fail : {from} -> {to} : {error}");
                    }
                }
            }
            eprintln!(
                "batch       : {} requests, {} failed, {} workers, {:.1} ms",
                requests.len(),
                failures,
                args.workers.map_or_else(|| "default".to_string(), |w| w.to_string()),
                elapsed.as_secs_f64() * 1000.0
            );
            if args.stats {
                let stats = fetch_stats(service)?;
                eprintln!(
                    "compose     : {} pairwise calls lifetime; cache {} entries ({} hits / {} misses)",
                    stats.session.compose_calls,
                    stats.session.cache_entries,
                    stats.session.cache.hits,
                    stats.session.cache.misses
                );
            }
            if failures > 0 {
                return Err(format!("{failures} of {} batch requests failed", requests.len()));
            }
            Ok(())
        }
        "migrate-delta" => {
            let [from, to, updates @ ..] = args.positional.as_slice() else {
                return Err("migrate-delta requires <from-schema> <to-schema> [±rel(v,...) ...]"
                    .to_string());
            };
            if updates.is_empty() {
                return Err(
                    "migrate-delta requires at least one signed update, e.g. +R(1,'a') or -R(1,'a')"
                        .to_string(),
                );
            }
            let reply = service
                .call(Request::MigrateDelta {
                    from: from.clone(),
                    to: to.clone(),
                    updates: updates.to_vec(),
                })
                .map_err(|e| e.to_string())?;
            let Response::Migrated(payload) = reply else {
                return Err(format!("unexpected reply `{}`", reply.kind()));
            };
            // The maintained target instance goes to stdout (pipeable, like
            // the composed document of `compose-path`); statistics to stderr.
            print!("{}", payload.target);
            eprintln!(
                "batch       : {} effective of {} requested (+{} / -{})",
                payload.applied,
                updates.len(),
                payload.inserted,
                payload.deleted
            );
            eprintln!(
                "maintenance : {} firings retracted, {} rederived, {}",
                payload.retracted,
                payload.rederived,
                if payload.fallback { "full re-chase fallback" } else { "incremental" }
            );
            eprintln!(
                "instance    : {} source rows -> {} target rows ({} support entries)",
                payload.source_rows, payload.target_rows, payload.support_entries
            );
            Ok(())
        }
        "invalidate" => {
            let [mapping] = args.positional.as_slice() else {
                return Err("invalidate requires <mapping-name>".to_string());
            };
            match service
                .call(Request::Invalidate { mapping: mapping.clone() })
                .map_err(|e| e.to_string())?
            {
                Response::Invalidated { dropped } => {
                    eprintln!(
                        "invalidated : {dropped} cached compositions depending on `{mapping}`"
                    );
                    Ok(())
                }
                other => Err(format!("unexpected reply `{}`", other.kind())),
            }
        }
        "lint" => {
            let mapping = match args.positional.as_slice() {
                [] => None,
                [name] => Some(name.clone()),
                _ => return Err("lint takes at most one mapping name".to_string()),
            };
            match service.call(Request::Analyze { mapping }).map_err(|e| e.to_string())? {
                // The report goes to stdout byte-for-byte as the server
                // rendered it — it is the machine-checkable artifact — with
                // the one-line tally on stderr.
                Response::Analysis(payload) => {
                    print!("{}", payload.text);
                    eprintln!(
                        "analysis    : {} proven, {} unknown, {} diagnostics",
                        payload.proven, payload.unknown, payload.diagnostics
                    );
                    Ok(())
                }
                other => Err(format!("unexpected reply `{}`", other.kind())),
            }
        }
        "stats" => {
            let stats = fetch_stats(service)?;
            eprintln!("schemas     : {}", stats.schemas);
            eprintln!("mappings    : {}", stats.mappings);
            for entry in &stats.entries {
                eprintln!(
                    "  {} : {} -> {} (v{}, hash {:016x}, {} constraints)",
                    entry.name,
                    entry.source,
                    entry.target,
                    entry.version,
                    entry.hash,
                    entry.constraints
                );
                if entry.history.len() > 1 {
                    let history: Vec<String> =
                        entry.history.iter().map(|(v, h)| format!("v{v}={h:016x}")).collect();
                    eprintln!("      history: {}", history.join(", "));
                }
            }
            let session = &stats.session;
            eprintln!(
                "session     : {} compose calls, {} paths resolved, {} chains composed",
                session.compose_calls, session.paths_resolved, session.chains_composed
            );
            eprintln!(
                "memo cache  : {} entries (capacity {})",
                session.cache_entries,
                stats.cache_capacity.map_or_else(|| "unbounded".to_string(), |c| c.to_string())
            );
            eprintln!(
                "  lifetime  : {} hits, {} misses, {} insertions, {} invalidated, {} evicted",
                session.cache.hits,
                session.cache.misses,
                session.cache.insertions,
                session.cache.invalidated,
                session.cache.evictions
            );
            if let Some(replication) = &stats.replication {
                eprintln!(
                    "replication : {} ({}) at position {}, lag {}",
                    replication.role, replication.state, replication.position, replication.lag
                );
            }
            // Connectivity summary, computed client-side from the entry
            // edges: for each schema with outgoing mappings, what it can
            // compose to (fewest hops).
            let mut adjacency: std::collections::BTreeMap<&str, Vec<&str>> = Default::default();
            for entry in &stats.entries {
                adjacency.entry(&entry.source).or_default().push(&entry.target);
            }
            for from in adjacency.keys().copied().collect::<Vec<_>>() {
                let mut distance: std::collections::BTreeMap<&str, usize> = Default::default();
                let mut queue = std::collections::VecDeque::from([(from, 0usize)]);
                while let Some((node, hops)) = queue.pop_front() {
                    for next in adjacency.get(node).into_iter().flatten() {
                        if *next != from && !distance.contains_key(*next) {
                            distance.insert(next, hops + 1);
                            queue.push_back((next, hops + 1));
                        }
                    }
                }
                if !distance.is_empty() {
                    let targets: Vec<String> =
                        distance.iter().map(|(name, hops)| format!("{name}({hops})")).collect();
                    eprintln!("reachable   : {} -> {}", from, targets.join(", "));
                }
            }
            Ok(())
        }
        "cache-info" => {
            let payload = match service.call(Request::CacheInfo).map_err(|e| e.to_string())? {
                Response::CacheInfo(payload) => payload,
                other => return Err(format!("unexpected reply `{}`", other.kind())),
            };
            let (mut entries, mut hits, mut misses) = (0usize, 0usize, 0usize);
            for segment in &payload.segments {
                entries += segment.entries;
                hits += segment.hits;
                misses += segment.misses;
                eprintln!(
                    "segment {:>3} : {} entries (capacity {}), {} hits, {} misses, \
                     {} insertions, {} invalidated, {} evicted",
                    segment.segment,
                    segment.entries,
                    segment.capacity.map_or_else(|| "unbounded".to_string(), |c| c.to_string()),
                    segment.hits,
                    segment.misses,
                    segment.insertions,
                    segment.invalidated,
                    segment.evictions
                );
            }
            eprintln!(
                "memo cache  : {} segments, {entries} entries, {hits} hits, {misses} misses",
                payload.segments.len()
            );
            Ok(())
        }
        "metrics" => match service.call(Request::Metrics).map_err(|e| e.to_string())? {
            // The exposition goes to stdout — it is the machine-readable
            // output a scraper redirects, like compose-path's document.
            Response::Metrics { text } => {
                print!("{text}");
                Ok(())
            }
            other => Err(format!("unexpected reply `{}`", other.kind())),
        },
        "compact" => match service.call(Request::Compact).map_err(|e| e.to_string())? {
            Response::Compacted { bytes_before, bytes_after } => {
                eprintln!("compacted   : sidecar {bytes_before} -> {bytes_after} bytes");
                Ok(())
            }
            other => Err(format!("unexpected reply `{}`", other.kind())),
        },
        "shutdown" => {
            match service.call(Request::Shutdown).map_err(|e| e.to_string())? {
                Response::ShuttingDown => eprintln!("server shutting down"),
                other => return Err(format!("unexpected reply `{}`", other.kind())),
            }
            Ok(())
        }
        "" => Err(format!("missing command: expected {COMMANDS}")),
        other => Err(format!("unknown command `{other}`: expected {COMMANDS}")),
    }
}

fn fetch_stats(
    service: &dyn MapcompService,
) -> Result<mapping_composition::service::StatsPayload, String> {
    match service.call(Request::Stats).map_err(|e| e.to_string())? {
        Response::Stats(stats) => Ok(stats),
        other => Err(format!("unexpected reply `{}`", other.kind())),
    }
}

// ---------------------------------------------------------------------------
// Mode entry points
// ---------------------------------------------------------------------------

fn run_catalog(args: &ServiceArgs) -> Result<(), String> {
    let catalog_file =
        args.catalog_file.as_ref().ok_or("catalog commands require --catalog <file>")?;
    // Connection policy has no meaning without a server; silently accepting
    // it would let a user believe a timeout took effect.
    if args.idle_timeout.is_some() {
        return Err("--idle-timeout applies to `mapcomp serve`, not catalog mode".to_string());
    }
    // Likewise the serve-loop observability flags: catalog mode has no
    // connection loop to log.
    if args.slow_ms.is_some() || args.log_format.is_some() {
        return Err("--slow-ms/--log-format apply to `mapcomp serve`, not catalog mode".to_string());
    }
    if args.queue_limit.is_some() {
        return Err("--queue-limit applies to `mapcomp serve`, not catalog mode".to_string());
    }
    if args.replicate || args.follow.is_some() {
        return Err("--replicate/--follow apply to `mapcomp serve`, not catalog mode".to_string());
    }
    if args.auth_token_file.is_some() {
        return Err(
            "--auth-token-file applies to `mapcomp serve` and `mapcomp client`, not catalog mode"
                .to_string(),
        );
    }
    // Only `add` may start from a missing catalog file.
    let allow_missing = args.command == "add";
    let service = LocalService::open_with_policy(
        catalog_file,
        Registry::standard(),
        args.session_config(),
        args.workers.unwrap_or(1),
        allow_missing,
        args.persist_policy(),
    )
    .map_err(|e| e.to_string())?;
    let outcome = run_command(&service, args);
    // Reads leave their hit counters in memory; one flush at exit keeps
    // them accumulating across invocations, even when the command failed.
    let flushed = service.flush_counters().map_err(|e| e.to_string());
    outcome.and(flushed)
}

/// Read the shared auth token from `path`: the file's content with any
/// trailing newline stripped (so `echo secret > token` works as expected).
fn read_auth_token(path: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read auth token file {path}: {e}"))?;
    let token = text.trim_end_matches(['\n', '\r']);
    if token.is_empty() {
        return Err(format!("auth token file {path} is empty"));
    }
    Ok(token.to_string())
}

fn run_serve(args: &ServiceArgs) -> Result<(), String> {
    let catalog_file = args.catalog_file.as_ref().ok_or("serve requires --catalog <file>")?;
    let addr = args.addr.clone().unwrap_or_else(|| "127.0.0.1:0".to_string());
    let workers = args.workers.unwrap_or(1);
    let auth_token = args.auth_token_file.as_deref().map(read_auth_token).transpose()?;
    if args.replicate && args.follow.is_some() {
        return Err("--replicate and --follow are mutually exclusive: a process is a \
                    leader or a follower, not both"
            .to_string());
    }
    if let Some(leader) = &args.follow {
        return run_follower(args, catalog_file, leader, &addr, workers, auth_token);
    }
    let service = LocalService::open_with_policy(
        catalog_file,
        Registry::standard(),
        args.session_config(),
        workers,
        true,
        args.persist_policy(),
    )
    .map_err(|e| e.to_string())?;
    if args.replicate {
        service.enable_replication().map_err(|e| e.to_string())?;
        eprintln!("replicating : leader mode, publishing the delta log to subscribers");
    }
    serve_on(args, &service, &addr, workers, auth_token, || {
        eprintln!(
            "serving     : catalog {catalog_file} with {workers} workers \
             (send `shutdown` to stop)"
        );
    })?;
    eprintln!("stopped     : catalog persisted to {catalog_file}");
    Ok(())
}

/// Bind an [`EventServer`] on `addr`, apply the serve-loop flags (idle
/// timeout, slow-request threshold, log format, auth, queue limit), print
/// the `listening on <addr>` line, let `announce` print its stderr banner,
/// and serve `service` until shutdown.
fn serve_on<S: MapcompService + Sync>(
    args: &ServiceArgs,
    service: &S,
    addr: &str,
    workers: usize,
    auth_token: Option<String>,
    announce: impl FnOnce(),
) -> Result<(), String> {
    let mut server = EventServer::bind(addr).map_err(|e| format!("cannot bind {addr}: {e}"))?;
    server.set_idle_timeout(
        args.idle_timeout.filter(|&s| s > 0.0).map(std::time::Duration::from_secs_f64),
    );
    server.set_slow_threshold(args.slow_ms.filter(|&ms| ms > 0).map(|ms| {
        // Keep the in-process slow-span ring on the same threshold, so
        // slow wire requests are retained by the tracer too.
        mapping_composition::telemetry::trace::set_slow_threshold_ms(ms);
        std::time::Duration::from_millis(ms)
    }));
    server.set_log_format(args.log_format);
    server.set_auth_token(auth_token);
    if let Some(limit) = args.queue_limit {
        server.set_queue_limit(limit);
    }
    let bound = server.local_addr().map_err(|e| e.to_string())?;
    // The one stdout line automation depends on: parse the ephemeral port
    // off it before connecting.
    println!("listening on {bound}");
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    announce();
    server.run(service, workers).map_err(|e| e.to_string())
}

/// Serve as a read-only follower: open the local replica, put its
/// read-only service surface behind the event server, and drive the
/// replication apply loop (subscribe → bootstrap → stream) on a dedicated
/// thread. The auth token, when given, is presented to the leader *and*
/// required of the follower's own clients.
fn run_follower(
    args: &ServiceArgs,
    catalog_file: &str,
    leader: &str,
    addr: &str,
    workers: usize,
    auth_token: Option<String>,
) -> Result<(), String> {
    // Compaction policy configures a leader's delta log; the follower's
    // sidecar mirrors the leader's log verbatim, so the flags would be
    // silently meaningless here.
    if args.compact_appends.is_some() || args.compact_bytes.is_some() {
        return Err("--compact-appends/--compact-bytes configure a leader's log; \
                    a follower mirrors the leader's log verbatim"
            .to_string());
    }
    let follower = Follower::open(
        catalog_file,
        leader,
        Registry::standard(),
        args.session_config(),
        workers,
        auth_token.clone(),
    )
    .map_err(|e| e.to_string())?;
    let service = follower.service();
    std::thread::scope(|scope| -> Result<(), String> {
        let apply = scope.spawn(|| follower.run());
        let served = serve_on(args, &service, addr, workers, auth_token, || {
            eprintln!(
                "following   : leader {leader} -> catalog {catalog_file} \
                 (read-only; send `shutdown` to stop)"
            );
        });
        follower.stop();
        let streamed = apply.join().map_err(|_| "replication apply thread panicked".to_string())?;
        served?;
        streamed.map_err(|error| format!("replication stream failed: {error}"))
    })?;
    eprintln!("stopped     : follower catalog persisted to {catalog_file}");
    Ok(())
}

fn run_client(args: &ServiceArgs) -> Result<(), String> {
    let addr = args.addr.as_ref().ok_or("client requires --addr <host:port>")?;
    // Composition policy is fixed server-side at `serve` time; silently
    // dropping these flags would let a user believe e.g. --require-complete
    // was enforced when it was not.
    if !args.policy_flags.is_empty() {
        return Err(format!(
            "{flags:?} configure the serving side: set them on `mapcomp serve` (or `mapcomp \
             catalog`); client requests carry only schema and mapping names",
            flags = args.policy_flags
        ));
    }
    if args.catalog_file.is_some() {
        return Err("client mode talks to a server: use --addr, not --catalog".to_string());
    }
    if args.queue_limit.is_some() {
        return Err("--queue-limit applies to `mapcomp serve`, not client mode".to_string());
    }
    if args.replicate || args.follow.is_some() {
        return Err("--replicate/--follow apply to `mapcomp serve`, not client mode".to_string());
    }
    let auth_token = args.auth_token_file.as_deref().map(read_auth_token).transpose()?;
    let client = Client::connect(addr).map_err(|e| e.to_string())?.with_auth_token(auth_token);
    run_command(&client, args)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!(
            "usage: mapcomp <task-file> [<first-mapping> <second-mapping>] \
             [--no-unfolding] [--no-left-compose] [--no-right-compose] \
             [--minimize] [--blowup N] [--stats]\n\
             \n\
             \x20      mapcomp catalog add           --catalog <file> <document-file>...\n\
             \x20      mapcomp catalog compose-path  --catalog <file> <from> <to> \
             [--require-complete] [--stats]\n\
             \x20      mapcomp catalog compose-names --catalog <file> <mapping>...\n\
             \x20      mapcomp catalog compose-batch --catalog <file> [--workers N] \
             <from> <to> [<from> <to> ...]\n\
             \x20      mapcomp catalog migrate-delta --catalog <file> <from> <to> \
             <±rel(v,...)>...\n\
             \x20      mapcomp catalog invalidate    --catalog <file> <mapping>\n\
             \x20      mapcomp catalog lint          --catalog <file> [<mapping>]\n\
             \x20      mapcomp catalog stats         --catalog <file>\n\
             \x20      mapcomp catalog cache-info    --catalog <file>\n\
             \x20      mapcomp catalog metrics       --catalog <file>\n\
             \x20      mapcomp catalog compact       --catalog <file>\n\
             \n\
             \x20      mapcomp serve  --catalog <file> [--addr HOST:PORT] [--workers N]\n\
             \x20                     [--queue-limit N] [--auth-token-file FILE]\n\
             \x20                     [--idle-timeout SECONDS] [--slow-ms N]\n\
             \x20                     [--log-format text|json]\n\
             \x20                     [--replicate | --follow HOST:PORT]\n\
             \x20      mapcomp client --addr HOST:PORT [--auth-token-file FILE] \
             <ping|add|compose-path|compose-names|compose-batch|migrate-delta|invalidate|\
             lint|stats|cache-info|metrics|compact|shutdown> [args...]\n\
             \n\
             \x20      catalog/serve also accept --cache-capacity N (0 = unbounded),\n\
             \x20      --path-cost hops|op-count, --eval-budget N (chase step budget;\n\
             \x20      must be positive, overrides the engine default),\n\
             \x20      the compose flags, and the compaction policy: state-changing\n\
             \x20      commands append delta records, folded into a snapshot at\n\
             \x20      shutdown, on `compact`, and past --compact-appends N or\n\
             \x20      --compact-bytes N (0 = never). `serve` prints `listening on\n\
             \x20      <addr>` (use port 0 for an ephemeral port), reaps connections\n\
             \x20      idle past --idle-timeout (0/off = keep forever), and stops when a\n\
             \x20      client sends `shutdown`. It pipelines requests through one\n\
             \x20      readiness loop and bounds compose work with a --workers CPU pool\n\
             \x20      (--queue-limit N sheds excess load with the `busy` error).\n\
             \x20      --auth-token-file FILE requires clients to present the file's\n\
             \x20      token in an `auth` frame field."
        );
        return if args.is_empty() { ExitCode::FAILURE } else { ExitCode::SUCCESS };
    }
    let outcome = match args[0].as_str() {
        "catalog" => parse_service_args(args.get(1), args.get(2..).unwrap_or_default())
            .and_then(|args| run_catalog(&args)),
        "serve" => {
            // `serve` has no subcommand keyword: everything after it is flags.
            parse_service_args(None, &args[1..]).and_then(|mut args| {
                args.command = "serve".to_string();
                run_serve(&args)
            })
        }
        "client" => {
            // The subcommand may appear before or after --addr; take the
            // first positional as the command.
            parse_service_args(None, &args[1..]).and_then(|mut args| {
                if args.positional.is_empty() {
                    return Err(format!("client requires a command: expected {COMMANDS}"));
                }
                args.command = args.positional.remove(0);
                run_client(&args)
            })
        }
        _ => parse_args(&args).and_then(|options| run(&options)),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}
