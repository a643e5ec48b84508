//! The end-to-end side: set up a fresh server, drive it over the wire as a
//! closed loop for the measured window, check every reply, and collect the
//! server's own counters.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use mapcomp_algebra::{parse_document, Instance};
use mapcomp_catalog::{render_chain_document, Catalog, ComposedChain, Session, SessionConfig};
use mapcomp_compose::{DifferentialChase, Registry};
use mapcomp_service::{PersistPolicy, Request, Response};

use crate::calibrate::{Placement, Yardstick};
use crate::server::{metrics, scrape, CallError, Conn, ServerProcess};
use crate::workload::{
    migrate_document, EditCatalog, Expect, Generator, MigrateSession, Op, Shape, Workload,
};

/// Loopback connections the generator drives: one closed loop.
///
/// Two connections deadlock the event engine within a few hundred
/// thousand requests: `Poller::drain_notifications` in the polling shim
/// clears its pending flag before it reads the eventfd, so a `notify` from
/// a CPU worker landing between the two leaves the flag set over an empty
/// eventfd. Every later completion then waits for socket readiness, and
/// with both clients waiting for a reply none comes. With one request in
/// flight no two completions overlap, so the benchmark uses one connection
/// until that is fixed.
pub const CONNECTIONS: usize = 1;

/// How long a reply may take before the run fails as stalled.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// Where and how one run happens.
pub struct Env {
    pub server_bin: PathBuf,
    pub work_dir: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    pub shape: Shape,
    /// Set-ups per run; the last one's server is the one measured.
    pub setup_reps: usize,
    /// The server's and the generator's CPUs; `None` leaves both unpinned.
    pub placement: Option<Placement>,
}

/// What the connection saw in the measured window.
#[derive(Default)]
pub struct Tally {
    /// Client-side latency in ms per operation class: `read`, `edit_cycle`,
    /// `add-document`, `analyze`, `recompose`, `migrate`.
    pub latencies_ms: BTreeMap<&'static str, Vec<f64>>,
    /// When each of those samples started, in seconds into the window.
    pub started_s: BTreeMap<&'static str, Vec<f64>>,
    pub attempted: u64,
    pub completed: u64,
    /// Failed, refused or wrong requests.
    pub failed: u64,
    pub busy: u64,
    pub wrong: u64,
    /// `compose_calls` and `cache_hits` summed over composed replies.
    pub compose_calls: u64,
    pub cache_hits: u64,
    pub errors: Vec<String>,
}

impl Tally {
    fn sample(&mut self, class: &'static str, window: Instant, sent: Instant) {
        self.started_s.entry(class).or_default().push((sent - window).as_secs_f64());
        self.latencies_ms.entry(class).or_default().push(sent.elapsed().as_secs_f64() * 1e3);
    }

    /// `class`'s samples as (seconds into the window, latency in ms).
    pub fn timed(&self, class: &str) -> Vec<(f64, f64)> {
        match (self.started_s.get(class), self.latencies_ms.get(class)) {
            (Some(at), Some(ms)) => at.iter().copied().zip(ms.iter().copied()).collect(),
            _ => Vec::new(),
        }
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(what);
        }
    }

    fn wrong(&mut self, what: String) {
        self.wrong += 1;
        self.fail(format!("wrong output: {what}"));
    }
}

/// Server counters scraped from `Request::Metrics`.
#[derive(Debug, Default, Clone, Copy)]
pub struct ServerCounters {
    pub appends: f64,
    pub append_bytes: f64,
    pub compactions: f64,
    pub compaction_bytes: f64,
    pub busy_rejected: f64,
}

impl ServerCounters {
    fn scrape(conn: &mut Conn) -> Result<ServerCounters, String> {
        let text = metrics(conn)?;
        Ok(ServerCounters {
            appends: scrape(&text, "persist_appends_total"),
            append_bytes: scrape(&text, "persist_append_bytes_total"),
            compactions: scrape(&text, "persist_compactions_total"),
            compaction_bytes: scrape(&text, "persist_compaction_bytes_total"),
            busy_rejected: scrape(&text, "server_busy_rejected_total"),
        })
    }

    fn since(self, before: ServerCounters) -> ServerCounters {
        ServerCounters {
            appends: self.appends - before.appends,
            append_bytes: self.append_bytes - before.append_bytes,
            compactions: self.compactions - before.compactions,
            compaction_bytes: self.compaction_bytes - before.compaction_bytes,
            busy_rejected: self.busy_rejected - before.busy_rejected,
        }
    }
}

/// Everything one end-to-end run measured.
pub struct E2e {
    pub setup_s: Vec<f64>,
    pub window_s: f64,
    pub tally: Tally,
    /// Yardstick runs between requests over the window, as (seconds into
    /// the window, ms).
    pub yardstick: Vec<(f64, f64)>,
    /// Server counter deltas over the measured window.
    pub server: ServerCounters,
    /// Server counter deltas over the window's first `disk_requests`
    /// requests.
    pub disk: ServerCounters,
    pub disk_requests: u64,
    /// The server's resident set at the end of each set-up: the memory the
    /// loaded catalog and warm caches hold.
    pub rss_mb: Vec<f64>,
    /// Its peak (`VmHWM`) at the end of the run.
    pub peak_rss_mb: f64,
    /// One timed `compact` request at the end of set-up, and the bytes it
    /// wrote.
    pub compact_ms: f64,
    pub compaction_size: f64,
    pub mapping_count: usize,
    pub source_rows: usize,
}

impl E2e {
    /// The latency class that is each workload's operation.
    pub fn primary_class(workload: Workload) -> &'static str {
        match workload {
            Workload::ReadWarm => "read",
            Workload::Evolve => "edit_cycle",
            Workload::Migrate => "migrate",
        }
    }

    /// Sidecar bytes written per request: the bytes appended over the
    /// window's first [`disk_sample`] requests, plus for each append its
    /// share of the compaction the server's append threshold triggers (the
    /// size of the compaction at the end of set-up over the threshold). The
    /// one connection sends a seeded stream, so for a seed this repeats
    /// exactly however fast the server is; a raw window total would swing by
    /// a whole compaction with where the window falls in the cycle.
    pub fn disk_bytes_per_op(&self) -> f64 {
        let threshold = PersistPolicy::default().compact_appends.unwrap_or(usize::MAX) as f64;
        let bytes = self.disk.append_bytes + self.disk.appends * self.compaction_size / threshold;
        bytes / (self.disk_requests as f64).max(1.0)
    }
}

/// Requests over which `disk_bytes_per_op` is counted: well under what the
/// slowest window completes.
fn disk_sample(workload: Workload) -> u64 {
    match workload {
        Workload::ReadWarm => 2_000,
        Workload::Evolve => 1_000,
        Workload::Migrate => 400,
    }
}

/// Set up a fresh server `env.setup_reps` times, keep the last one running
/// and return it, connected, with every set-up time and the resident set
/// after each. Set-up runs from the server's spawn until it is ready for
/// the first timed request. (The resident set is read before any
/// compaction: a compaction's transient copy leaves it 80 or 170 MB
/// higher depending on how the allocator reuses its arenas.)
fn repeated_setup(
    env: &Env,
    generator: &Generator,
) -> Result<(ServerProcess, Conn, Vec<f64>, Vec<f64>), String> {
    let setup = generator.setup();
    let mut times = Vec::new();
    let mut rss_mb = Vec::new();
    let reps = env.setup_reps.max(1);
    for rep in 0..reps {
        let started = Instant::now();
        let dir = env.work_dir.join(format!("srv{rep}"));
        let server = match env.placement {
            Some(place) => place.on_server_cpu(|| ServerProcess::start(&env.server_bin, dir))?,
            None => ServerProcess::start(&env.server_bin, dir)?,
        };
        let mut conn = server.connect(REPLY_TIMEOUT)?;
        for request in &setup {
            match conn.call(request) {
                Ok(Response::Added { .. } | Response::Composed(_) | Response::Migrated(_)) => {}
                other => return Err(format!("set-up {} failed: {other:?}", request.kind())),
            }
        }
        times.push(started.elapsed().as_secs_f64());
        rss_mb.push(server.rss_mb()?);
        if rep + 1 == reps {
            return Ok((server, conn, times, rss_mb));
        }
        drop(conn);
        server.shutdown()?;
    }
    unreachable!("the loop returns on its last repetition")
}

/// Run one workload end to end.
pub fn run(workload: Workload, env: &Env) -> Result<E2e, String> {
    let mut generator = Generator::new(workload, env.seed, env.shape);
    let (mut server, mut conn, setup_s, rss_mb) = repeated_setup(env, &generator)?;
    // Target rows per distinct source tuple, from the initial loads.
    let factor = match workload {
        Workload::Migrate => migrate_factor(&mut conn, &generator)?,
        _ => 0,
    };
    // One timed compaction folds the set-up's log, so every window starts
    // at the beginning of a compaction cycle, and gives the snapshot size.
    let before = ServerCounters::scrape(&mut conn)?;
    let compacting = Instant::now();
    match conn.call(&Request::Compact) {
        Ok(Response::Compacted { .. }) => {}
        other => return Err(format!("compact failed: {other:?}")),
    }
    let compact_ms = compacting.elapsed().as_secs_f64() * 1e3;
    let compaction_size = ServerCounters::scrape(&mut conn)?.since(before).compaction_bytes;
    let before = ServerCounters::scrape(&mut conn)?;
    let mut disk = None;

    let mut tally = Tally::default();
    // A `migrate-delta` reply is 251 KB that the kernel copies on both
    // CPUs and the generator decodes: that operation is measured against
    // the yardstick on both. The others do nearly all their work in the
    // server.
    let mut yardstick = Yardstick::new(env.placement, workload == Workload::Migrate);
    let mut last_targets: Vec<Option<String>> = vec![None; generator.sessions().len()];
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(env.seconds);
    'window: while Instant::now() < deadline {
        yardstick.tick(started)?;
        let mut cycle = None;
        for op in generator.next_op() {
            if op.class == "add-document" {
                cycle = Some(Instant::now());
            }
            let sent = Instant::now();
            tally.attempted += 1;
            let response = match conn.call(&op.request) {
                Ok(response) => response,
                Err(error) => {
                    if matches!(error, CallError::Busy(_)) {
                        tally.busy += 1;
                    }
                    tally.fail(format!("{}: {error}", op.request.kind()));
                    // Busy replies, broken connections and service errors
                    // fail the run loudly; the generator's state is no
                    // longer the server's either.
                    break 'window;
                }
            };
            tally.completed += 1;
            tally.sample(op.class, started, sent);
            if let (Some(cycle), "recompose") = (cycle, op.class) {
                tally.sample("edit_cycle", started, cycle);
            }
            check(&op, response, &generator, factor, &mut tally, &mut last_targets);
            if tally.completed == disk_sample(workload) {
                disk = Some((ServerCounters::scrape(&mut conn)?.since(before), tally.completed));
            }
        }
    }
    let window_s = started.elapsed().as_secs_f64();
    let yardstick = yardstick.finish()?;
    server.check_alive()?;
    let server_counters = ServerCounters::scrape(&mut conn)?.since(before);
    let (disk, disk_requests) = disk.unwrap_or((server_counters, tally.completed));

    match workload {
        Workload::Migrate => {
            // Each session's final target must be byte-equal to a cold
            // chase over the net source the generator tracked.
            for (session, last) in generator.sessions().iter().zip(&last_targets) {
                if last.as_deref() != Some(cold_migration_target(session)?.as_str()) {
                    tally.wrong(format!(
                        "session {}: final target is not a cold chase's",
                        session.from
                    ));
                }
            }
        }
        _ => {
            // Chains must recompose cold to what a cold in-process
            // composition gives: in evolve every chain (an edit whose link
            // toggled back still invalidated the chain), in read-warm a
            // fixed sample.
            let catalog = generator.catalog().expect("editing workloads have a catalog");
            let checked = match workload {
                Workload::Evolve => catalog.chains.len(),
                _ => READ_WARM_CHECKED_CHAINS,
            };
            let cold_server = workload == Workload::Evolve;
            for (chain, forms) in generator.forms().iter().enumerate().take(checked) {
                check_cold_chain(&mut conn, catalog, chain, forms, cold_server, &mut tally)?;
            }
        }
    }

    server.check_alive()?;
    let peak_rss_mb = server.peak_rss_mb()?;
    drop(conn);
    server.shutdown()?;
    Ok(E2e {
        setup_s,
        window_s,
        tally,
        yardstick,
        server: server_counters,
        disk,
        disk_requests,
        rss_mb,
        peak_rss_mb,
        compact_ms,
        compaction_size,
        mapping_count: generator.mapping_count(),
        source_rows: if workload == Workload::Migrate { env.shape.source_rows } else { 0 },
    })
}

/// Check one reply against what the generator expects of it.
fn check(
    op: &Op,
    response: Response,
    generator: &Generator,
    factor: usize,
    tally: &mut Tally,
    last_targets: &mut [Option<String>],
) {
    match (&op.expect, response) {
        (Expect::Chain { chain, a, len, forms }, Response::Composed(payload)) => {
            tally.compose_calls += payload.compose_calls as u64;
            tally.cache_hits += payload.cache_hits as u64;
            let catalog = generator.catalog().expect("chains come from the editing catalog");
            let expected = (payload.path.len() == *len
                && payload.plan.iter().sum::<usize>() == *len)
                .then(|| catalog.plan_hash(*chain, *a, &payload.plan, forms))
                .flatten();
            if expected != Some(payload.hash) {
                tally.wrong(format!(
                    "chain {chain} from link {a} over {len} links: served {:016x} plan {:?}",
                    payload.hash, payload.plan
                ));
            }
        }
        (Expect::Added { mapping }, Response::Added { touched, .. }) => {
            if !touched.contains(mapping) {
                tally.wrong(format!("the edit of {mapping} touched {touched:?}"));
            }
        }
        (Expect::Analysis, Response::Analysis(payload)) => {
            if payload.proven + payload.unknown != 1 {
                tally.wrong(format!(
                    "analysis covered {} mappings",
                    payload.proven + payload.unknown
                ));
            }
        }
        (Expect::Batch { session, source_rows, distinct_rows }, Response::Migrated(payload)) => {
            if payload.applied != 1
                || payload.fallback
                || payload.source_rows != *source_rows
                || payload.target_rows != factor * distinct_rows
            {
                tally.wrong(format!(
                    "batch on {}: applied {} fallback {} source {} target {}",
                    payload.from,
                    payload.applied,
                    payload.fallback,
                    payload.source_rows,
                    payload.target_rows
                ));
            }
            last_targets[*session] = Some(payload.target);
        }
        (expect, other) => {
            tally.wrong(format!("expected {expect:?}, got a {} reply", other.kind()))
        }
    }
}

/// Chains `read-warm` cross-checks against a cold in-process composition
/// after its window.
const READ_WARM_CHECKED_CHAINS: usize = 8;

/// Compare chain `chain` as the server serves it now with the chain
/// composed cold, in process, from the same link contents: the content
/// hash and the rendered document must be identical. With `cold_server`
/// every link is invalidated first, so the server composes it cold too
/// (after edits its memo holds differently associated segments, whose
/// content address differs).
fn check_cold_chain(
    conn: &mut Conn,
    catalog: &EditCatalog,
    chain: usize,
    forms: &[u8],
    cold_server: bool,
    tally: &mut Tally,
) -> Result<(), String> {
    if cold_server {
        for link in &catalog.chains[chain].links {
            match conn.call(&Request::Invalidate { mapping: link.name.clone() }) {
                Ok(Response::Invalidated { .. }) => {}
                other => return Err(format!("invalidate {} failed: {other:?}", link.name)),
            }
        }
    }
    let schemas = &catalog.chains[chain].schemas;
    let (from, to) = (&schemas[0].0, &schemas[schemas.len() - 1].0);
    let served = match conn.call(&Request::ComposePath { from: from.clone(), to: to.clone() }) {
        Ok(Response::Composed(payload)) => payload,
        other => return Err(format!("final compose of chain {chain} failed: {other:?}")),
    };
    let document = parse_document(&catalog.chain_document(chain, forms))
        .map_err(|e| format!("chain document does not parse: {e}"))?;
    let mut store = Catalog::new();
    store.from_document(&document).map_err(|e| e.to_string())?;
    let cold = Session::new(store).compose_path(from, to).map_err(|e| e.to_string())?.chain;
    if served.hash != cold.hash || served.document != render_chain_document(&cold) {
        tally.wrong(format!(
            "chain {chain}: served {:016x}, cold in process {:016x}",
            served.hash, cold.hash
        ));
    }
    Ok(())
}

/// Target rows per distinct source tuple: the sessions' current targets
/// (fetched with an empty batch) over the generator's distinct tuples.
fn migrate_factor(conn: &mut Conn, generator: &Generator) -> Result<usize, String> {
    let mut factors = Vec::new();
    for session in generator.sessions() {
        let request = Request::MigrateDelta {
            from: session.from.clone(),
            to: session.to.clone(),
            updates: Vec::new(),
        };
        match conn.call(&request) {
            Ok(Response::Migrated(payload))
                if payload.source_rows == session.source_rows()
                    && payload.target_rows % session.distinct_rows() == 0 =>
            {
                factors.push(payload.target_rows / session.distinct_rows());
            }
            other => return Err(format!("session {} after its load: {other:?}", session.from)),
        }
    }
    factors.dedup();
    match factors.as_slice() {
        [factor] if *factor > 0 => Ok(*factor),
        _ => Err(format!("sessions disagree on target rows per source tuple: {factors:?}")),
    }
}

/// A differential engine over `source` for a composed chain, built the way
/// the service builds its migration sessions: residual symbols are chased
/// as auxiliary target relations.
pub fn migration_engine(
    chain: &ComposedChain,
    source: Instance,
    registry: &Registry,
) -> Result<DifferentialChase, String> {
    let full = chain
        .mapping
        .input
        .union(&chain.mapping.output)
        .and_then(|sig| sig.union(&chain.residual))
        .map_err(|e| e.to_string())?;
    let mut target = chain.mapping.output.clone();
    for (name, info) in chain.residual.iter() {
        target.add(name.to_string(), info.clone());
    }
    let config = SessionConfig::default().chase_config(None);
    Ok(DifferentialChase::new(
        chain.mapping.constraints.as_slice(),
        &full,
        &target,
        source,
        registry,
        &config,
    ))
}

/// The target a cold `DifferentialChase::new` builds over the session's net
/// source, through the chain composed in process.
fn cold_migration_target(session: &MigrateSession) -> Result<String, String> {
    let document =
        parse_document(&migrate_document()).map_err(|e| format!("migrate document: {e}"))?;
    let mut store = Catalog::new();
    store.from_document(&document).map_err(|e| e.to_string())?;
    let mut local = Session::new(store);
    let chain = local.compose_path(&session.from, &session.to).map_err(|e| e.to_string())?.chain;
    Ok(migration_engine(&chain, session.net_source(), local.registry())?.rendered_target())
}
