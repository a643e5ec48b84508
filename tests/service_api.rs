//! Transport-equivalence suite for the service layer (the PR's acceptance
//! criterion): a seeded mixed workload — document adds, mapping edits,
//! invalidations, and batch composes — produces byte-identical composed
//! chains and consistent session statistics whether it is driven through
//! the in-process [`LocalService`] backend or over a loopback TCP server
//! with four concurrent client connections against the readiness-driven
//! [`EventServer`].
//!
//! Determinism boundary: mutations are applied by one client between
//! compose phases (a barrier separates phases), so both runs compose over
//! identical catalog states. Within a phase the remote run is genuinely
//! concurrent, which may change *scheduling-dependent counters* (per-request
//! compose calls, cache hits, fold plans, invalidation drop counts) but must
//! never change *content* — source, target, resolved path, the rendered
//! chain document, residuals, or which requests fail with which errors.

// Integration-test crates are built without `cfg(test)`, so the
// `allow-unwrap-in-tests` exemption in clippy.toml cannot reach them;
// panicking on a surprise is exactly what a test should do.
#![allow(clippy::unwrap_used)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mapping_composition::catalog::Position;
use mapping_composition::prelude::*;
use mapping_composition::service::{EventServer, PersistPolicy, StatsPayload};

const CHAINS: usize = 3;
const HOPS: usize = 6;
const THREADS: usize = 4;
const PHASES: usize = 4;

fn schema_name(chain: usize, i: usize) -> String {
    format!("c{chain}v{i}")
}

fn mapping_name(chain: usize, i: usize) -> String {
    format!("c{chain}m{i}")
}

/// The base catalog: `CHAINS` independent evolution-style chains of `HOPS`
/// copy mappings, two relations per schema.
fn base_document() -> String {
    let mut text = String::new();
    for chain in 0..CHAINS {
        for i in 0..=HOPS {
            text.push_str(&format!(
                "schema {} {{ A{chain}_{i}/2; B{chain}_{i}/1; }}\n",
                schema_name(chain, i)
            ));
        }
        for i in 0..HOPS {
            text.push_str(&format!(
                "mapping {} : {} -> {} {{ A{chain}_{i} <= A{chain}_{j}; B{chain}_{i} <= B{chain}_{j}; }}\n",
                mapping_name(chain, i),
                schema_name(chain, i),
                schema_name(chain, i + 1),
                j = i + 1
            ));
        }
    }
    text
}

/// An edit of one link: new constraints (the `variant` keeps successive
/// edits of the same link distinct, so content hashes really change),
/// shipped as a self-contained document.
fn edit_document(chain: usize, i: usize, variant: usize) -> String {
    let j = i + 1;
    let constraints = match variant % 3 {
        0 => format!("project[0,1](A{chain}_{i}) <= A{chain}_{j}; B{chain}_{i} <= B{chain}_{j};"),
        1 => format!(
            "A{chain}_{i} <= A{chain}_{j}; project[0](B{chain}_{i} * B{chain}_{i}) <= B{chain}_{j};"
        ),
        _ => format!("A{chain}_{i} <= project[0,1](A{chain}_{j}); B{chain}_{i} <= B{chain}_{j};"),
    };
    format!(
        "schema {from} {{ A{chain}_{i}/2; B{chain}_{i}/1; }}\n\
         schema {to} {{ A{chain}_{j}/2; B{chain}_{j}/1; }}\n\
         mapping {name} : {from} -> {to} {{ {constraints} }}\n",
        from = schema_name(chain, i),
        to = schema_name(chain, j),
        name = mapping_name(chain, i),
    )
}

/// One phase: mutations applied serially by one client, then per-thread
/// request lists executed concurrently (remote) or in thread order (local).
struct Phase {
    mutations: Vec<Request>,
    per_thread: Vec<Vec<Request>>,
}

/// Build the whole seeded workload once; both runs execute the same value.
fn build_workload(seed: u64) -> Vec<Phase> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..PHASES)
        .map(|phase| {
            let mut mutations = Vec::new();
            if phase == 0 {
                mutations.push(Request::AddDocument { text: base_document() });
            } else {
                for edit in 0..2 {
                    let chain = rng.gen_range(0..CHAINS);
                    let i = rng.gen_range(0..HOPS);
                    match rng.gen_range(0..3u32) {
                        0 => {
                            mutations.push(Request::Invalidate { mapping: mapping_name(chain, i) });
                        }
                        _ => mutations.push(Request::AddDocument {
                            text: edit_document(chain, i, phase * 2 + edit),
                        }),
                    }
                }
            }
            let per_thread = (0..THREADS)
                .map(|_| {
                    let mut requests = Vec::new();
                    // One parallel batch per thread (batches within batches:
                    // the server fans these across its own workers)…
                    let pairs: Vec<(String, String)> = (0..6)
                        .map(|_| {
                            let chain = rng.gen_range(0..CHAINS);
                            let i = rng.gen_range(0..HOPS);
                            let j = rng.gen_range(i + 1..=HOPS);
                            (schema_name(chain, i), schema_name(chain, j))
                        })
                        .collect();
                    requests.push(Request::ComposeBatch { requests: pairs, workers: 2 });
                    // …plus individual composes, including deliberate
                    // failures (same-schema and backwards requests).
                    for _ in 0..4 {
                        let chain = rng.gen_range(0..CHAINS);
                        let i = rng.gen_range(0..=HOPS);
                        let j = rng.gen_range(0..=HOPS);
                        requests.push(Request::ComposePath {
                            from: schema_name(chain, i),
                            to: schema_name(chain, j),
                        });
                    }
                    requests
                })
                .collect();
            Phase { mutations, per_thread }
        })
        .collect()
}

/// The scheduling-independent fingerprint of a reply: chain *content* and
/// error identity, never counters.
fn fingerprint(reply: &Result<Response, ServiceError>) -> String {
    fn chain(payload: &mapping_composition::service::ChainPayload) -> String {
        format!(
            "composed {} -> {} via {:?}\n{}",
            payload.source, payload.target, payload.path, payload.document
        )
    }
    match reply {
        Ok(Response::Composed(payload)) => chain(payload),
        Ok(Response::Batch(items)) => items
            .iter()
            .map(|item| match item {
                Ok(payload) => chain(payload),
                Err(error) => format!("err {error}"),
            })
            .collect::<Vec<_>>()
            .join("\n--\n"),
        Ok(Response::Added { touched, schemas, mappings }) => {
            format!("added {touched:?} {schemas} {mappings}")
        }
        // Invalidation drop counts depend on which fold segments happen to
        // be cached, which is scheduling-dependent — compare the kind only.
        Ok(other) => other.kind().to_string(),
        Err(error) => format!("err {error}"),
    }
}

/// Execute the workload sequentially against an in-process backend.
fn run_local(workload: &[Phase]) -> (Vec<String>, StatsPayload) {
    let service = LocalService::new(Catalog::new(), THREADS);
    let mut outcomes = Vec::new();
    for phase in workload {
        for mutation in &phase.mutations {
            outcomes.push(fingerprint(&service.call(mutation.clone())));
        }
        for requests in &phase.per_thread {
            for request in requests {
                outcomes.push(fingerprint(&service.call(request.clone())));
            }
        }
    }
    let Ok(Response::Stats(stats)) = service.call(Request::Stats) else {
        panic!("stats request failed");
    };
    (outcomes, stats)
}

/// Drive the workload through `THREADS` concurrent client connections
/// against an already-listening server (mutations through one client,
/// compose phases genuinely parallel), finishing with stats + shutdown.
fn drive_clients(addr: &str, workload: &[Phase]) -> (Vec<String>, StatsPayload) {
    let mut outcomes = Vec::new();
    let clients: Vec<Client> =
        (0..THREADS).map(|_| Client::connect(addr).expect("connect")).collect();
    for phase in workload {
        for mutation in &phase.mutations {
            outcomes.push(fingerprint(&clients[0].call(mutation.clone())));
        }
        // The compose phase: all four connections in flight at once; the
        // scope end is the inter-phase barrier.
        let mut per_thread: Vec<Vec<String>> = Vec::new();
        std::thread::scope(|compose_scope| {
            let handles: Vec<_> = clients
                .iter()
                .zip(&phase.per_thread)
                .map(|(client, requests)| {
                    compose_scope.spawn(move || {
                        requests
                            .iter()
                            .map(|request| fingerprint(&client.call(request.clone())))
                            .collect::<Vec<String>>()
                    })
                })
                .collect();
            for handle in handles {
                per_thread.push(handle.join().expect("client thread panicked"));
            }
        });
        outcomes.extend(per_thread.into_iter().flatten());
    }
    let stats = match clients[0].call(Request::Stats) {
        Ok(Response::Stats(payload)) => payload,
        other => panic!("stats request failed: {other:?}"),
    };
    clients[0].call(Request::Shutdown).expect("shutdown accepted");
    (outcomes, stats)
}

/// Execute the workload over a loopback TCP server running the
/// readiness-driven event-loop engine.
fn run_remote_event(workload: &[Phase]) -> (Vec<String>, StatsPayload) {
    let backend = LocalService::new(Catalog::new(), THREADS);
    let server = EventServer::bind("127.0.0.1:0").expect("bind a loopback port");
    let addr = server.local_addr().expect("bound address").to_string();
    let mut result = None;
    std::thread::scope(|scope| {
        let (server_ref, backend_ref) = (&server, &backend);
        scope.spawn(move || {
            server_ref.run(backend_ref, THREADS).expect("server run");
        });
        result = Some(drive_clients(&addr, workload));
    });
    result.expect("clients drove the workload")
}

#[test]
fn mixed_workload_is_transport_equivalent() {
    let workload = build_workload(0x5EEDA21);
    let (local_outcomes, local_stats) = run_local(&workload);
    let (remote_outcomes, remote_stats) = run_remote_event(&workload);

    assert_eq!(local_outcomes.len(), remote_outcomes.len());
    for (index, (local, remote)) in local_outcomes.iter().zip(&remote_outcomes).enumerate() {
        assert_eq!(local, remote, "outcome {index} diverged between in-process and TCP transports");
    }

    // Catalog state is identical: counts, names, versions, content hashes.
    assert_eq!(local_stats.schemas, remote_stats.schemas);
    assert_eq!(local_stats.mappings, remote_stats.mappings);
    assert_eq!(local_stats.entries, remote_stats.entries);

    // Deterministic session counters agree; scheduling-dependent cache
    // counters must still be coherent.
    assert_eq!(local_stats.session.chains_composed, remote_stats.session.chains_composed);
    assert_eq!(local_stats.session.paths_resolved, remote_stats.session.paths_resolved);
    for stats in [&local_stats, &remote_stats] {
        assert!(stats.session.compose_calls > 0);
        assert!(stats.session.cache.insertions > 0);
        assert!(stats.session.cache.hits + stats.session.cache.misses > 0);
        assert!(stats.session.cache_entries <= stats.session.cache.insertions);
    }
}

#[test]
fn workload_construction_is_deterministic() {
    // The equivalence above is only meaningful if both runs really executed
    // the same requests.
    let first = build_workload(7);
    let second = build_workload(7);
    assert_eq!(first.len(), second.len());
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(a.mutations, b.mutations);
        assert_eq!(a.per_thread, b.per_thread);
    }
    assert_eq!(first.len(), PHASES);
    assert!(first.iter().all(|phase| phase.per_thread.len() == THREADS));
}

/// A single-link existential cycle: every `T` row's second column starts a
/// new `T` row whose second column is a fresh null, so chasing any `R` row
/// never reaches a fixpoint. `Q <= U` is independent of the cycle, so
/// batches of `Q` rows converge on the same (`unknown`) chain.
const CYCLE_DOCUMENT: &str = "schema src { R/1; Q/1; } schema dst { T/2; U/1; } \
     mapping m : src -> dst { R <= project[0](T); project[1](T) <= project[0](T); Q <= U; }";

fn migrate(
    service: &LocalService,
    from: &str,
    to: &str,
    updates: &[&str],
) -> Result<mapping_composition::service::MigratePayload, ServiceError> {
    let updates = updates.iter().map(ToString::to_string).collect();
    match service.call(Request::MigrateDelta { from: from.into(), to: to.into(), updates })? {
        Response::Migrated(payload) => Ok(payload),
        other => panic!("expected a migrated reply: {other:?}"),
    }
}

#[test]
fn truncated_migration_is_never_served_as_complete() {
    use mapping_composition::compose::DifferentialChase;
    use mapping_composition::service::{decode_reply, encode_reply, ErrorCode};

    let service = LocalService::new(Catalog::new(), 2);
    service.call(Request::AddDocument { text: CYCLE_DOCUMENT.into() }).unwrap();
    let Ok(Response::Analysis(analysis)) =
        service.call(Request::Analyze { mapping: Some("m".into()) })
    else {
        panic!("analyze failed");
    };
    assert_eq!(analysis.unknown, 1, "{}", analysis.text);
    assert!(analysis.text.contains("unknown cycle: T.1 ->* T.1"), "{}", analysis.text);

    // An `unknown` chain whose chase converges is served.
    let before = migrate(&service, "src", "dst", &["+Q(5)"]).unwrap();
    assert_eq!(before.target, "U(5);\n");

    // A batch whose chase diverges is refused with the witness...
    let error = migrate(&service, "src", "dst", &["+R(1)"]).unwrap_err();
    assert_eq!(error.code, ErrorCode::Nonterminating, "{error}");
    assert!(error.message.contains("unknown cycle"), "{error}");
    let frame = encode_reply(&Err(error.clone()));
    assert_eq!(decode_reply(&frame).unwrap(), Err(error));
    // ...and nothing of it was applied.
    let after = migrate(&service, "src", "dst", &[]).unwrap();
    assert_eq!(after.target, before.target);
    assert_eq!(after.source_rows, 1);

    // The next valid batch builds on the source without the refused tuple:
    // its target, and the `migrate` line the next compaction writes, are
    // those of a cold chase over that net source.
    let next = migrate(&service, "src", "dst", &["+Q(6)"]).unwrap();
    let chain = service.session().compose_path("src", "dst").unwrap().chain;
    let (full, target) = chain.chase_signatures().unwrap();
    let analysis = mapping_composition::catalog::analyze_exchange(
        chain.mapping.constraints.as_slice(),
        &full,
        &target,
    );
    let mut net = Instance::new();
    net.insert("Q", vec![Value::Int(5)]);
    net.insert("Q", vec![Value::Int(6)]);
    let cold = DifferentialChase::new(
        chain.mapping.constraints.as_slice(),
        &full,
        &target,
        net,
        service.session().registry(),
        &SessionConfig::default().chase_config(Some(&analysis)),
    );
    assert!(cold.converged());
    assert_eq!(next.target, cold.rendered_target());
    assert_eq!(next.source_rows, 2);
    let (_, sidecar, _, _) = service.render_snapshot(Position::new(1, 0));
    let lines: Vec<&str> = sidecar.lines().filter(|line| line.starts_with("migrate ")).collect();
    assert_eq!(lines, ["migrate src dst +Q(5) +Q(6)"], "{sidecar}");

    // A terminating chain is served byte-identically to a cold engine
    // under the served configuration.
    let document = "schema a { A/1; } schema b { B/2; } mapping n : a -> b { A <= project[0](B); }";
    service.call(Request::AddDocument { text: document.into() }).unwrap();
    let served = migrate(&service, "a", "b", &["+A(1)", "+A(2)"]).unwrap();
    let chain = service.session().compose_path("a", "b").unwrap().chain;
    let (full, target) = chain.chase_signatures().unwrap();
    let mut source = Instance::new();
    source.insert("A", vec![Value::Int(1)]);
    source.insert("A", vec![Value::Int(2)]);
    let cold = DifferentialChase::new(
        chain.mapping.constraints.as_slice(),
        &full,
        &target,
        source,
        service.session().registry(),
        &SessionConfig::default().chase_config(None),
    );
    assert!(cold.converged());
    assert_eq!(served.target, cold.rendered_target());
}

#[test]
fn refused_migration_reaches_neither_the_sidecar_nor_replication() {
    let file =
        std::env::temp_dir().join(format!("mapcomp_service_refused_{}.doc", std::process::id()));
    let sidecar = mapping_composition::service::sidecar_path(&file);
    let cleanup = || {
        for path in [&file, &sidecar] {
            let _ = std::fs::remove_file(path);
        }
    };
    cleanup();
    let open = || {
        LocalService::open_with_policy(
            &file,
            Registry::standard(),
            SessionConfig::default(),
            1,
            true,
            PersistPolicy::default(),
        )
        .unwrap()
    };
    let service = open();
    service.call(Request::AddDocument { text: CYCLE_DOCUMENT.into() }).unwrap();
    migrate(&service, "src", "dst", &["+Q(5)"]).unwrap();
    let hub = service.enable_replication().unwrap();
    let position = hub.position();
    let bytes = std::fs::read(&sidecar).unwrap();

    migrate(&service, "src", "dst", &["+R(1)"]).unwrap_err();
    assert_eq!(std::fs::read(&sidecar).unwrap(), bytes, "a refused batch must not append");
    assert_eq!(hub.position(), position, "a refused batch must not be published");
    drop(service);

    // After a restart the session holds exactly the acknowledged history.
    let text = std::fs::read_to_string(&sidecar).unwrap();
    assert!(text.contains("+Q(5)") && !text.contains("+R(1)"), "{text}");
    let restarted = migrate(&open(), "src", "dst", &[]).unwrap();
    assert_eq!(restarted.target, "U(5);\n");
    cleanup();
}
