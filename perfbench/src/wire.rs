//! The two wire workloads: closed-loop clients over loopback TCP against an
//! in-process `ncql_serve::Server`.
//!
//! * `wire_small`: tiny closed queries, half repeated corpus texts (plan
//!   cache hits) and half seeded texts never sent before (cache misses that
//!   run the whole front end and churn the LRU).
//! * `wire_bulk`: `execute_with_bindings` over seeded flat relations of
//!   several thousand rows; texts repeat, so cost scales with data volume
//!   (decode, canonicalization, row kernels, encode) rather than the front
//!   end.

use crate::common::{
    emit_layers, finish_trace, median, peak_rss_mb, Counters, Expected, Layers, Oracle, RunResult,
    Segments, Tracer,
};
use crate::Args;
use ncql_core::{analyze_query, kernel, rewrite, typecheck, CostStats};
use ncql_engine::{ExecOptions, OptLevel, PreparedQuery, Session, SessionBuilder};
use ncql_object::{Type, Value};
use ncql_serve::json::{self, Json};
use ncql_serve::protocol::{self, Request};
use ncql_serve::{Client, ServeConfig, Server, ServerHandle};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Concurrent client connections of both wire workloads.
const CLIENTS: usize = 2;
/// Busy answers retried before a request counts as refused.
const MAX_BUSY_RETRIES: u32 = 3;
/// Timed segments per run, each on a freshly set-up server and fresh
/// connections; the run pools their samples, and `setup_s` is the median of
/// their set-ups.
const SEGMENTS: usize = 10;
/// The request line limit pinned on the server.
const MAX_LINE_BYTES: usize = 1 << 20;
/// Fresh `wire_small` texts generated per client per second of a segment,
/// comfortably above the rate one client reaches. Should a segment outpace
/// it, the sequence wraps; by then every earlier fresh text has long left
/// the 256-entry plan cache, so it still misses.
const FRESH_PER_CLIENT_SECOND: f64 = 6000.0;

/// Rows generated per bound relation of `wire_bulk`; atoms are drawn from a
/// universe large enough that duplicates are rare.
const BULK_ROWS: usize = 5000;
const BULK_ATOMS: u64 = 50_000;
const BULK_NATS: u64 = 1000;
/// Distinct binding sets of `wire_bulk` (each query class runs over all).
const BULK_BINDINGS: usize = 4;
/// Rows of the small relation the `wire_bulk` difference query subtracts.
const BULK_SMALL_ROWS: usize = 6;

/// The `wire_bulk` query classes, (text, schema variables): a kernel-liftable
/// filter/map, a projection, a count (large input, tiny result), a union of
/// two bound relations, and a difference whose nested `ext` captures `p` and
/// so runs in the interpreter (quadratic, hence the small `k`).
const BULK_QUERIES: &[(&str, &[&str])] = &[
    (
        "ext(\\p: (atom * nat). if nat_leq(pi2 p, 499) then {(pi1 p, nat_add(pi2 p, 1))} \
         else empty[(atom * nat)], r)",
        &["r"],
    ),
    ("ext(\\p: (atom * nat). {pi1 p}, r)", &["r"]),
    ("card(r)", &["r"]),
    ("r union s", &["r", "s"]),
    (
        "ext(\\p: (atom * nat). if isempty(ext(\\q: (atom * nat). \
         if p = q then {q} else empty[(atom * nat)], k)) then {p} else empty[(atom * nat)], r)",
        &["r", "k"],
    ),
];

/// One request of the pool: its pre-encoded line and what the replay and
/// the oracle need to know about it.
struct WireRequest {
    id: u64,
    line: String,
    text: String,
    schema: Vec<(String, Type)>,
    /// Canonical binding values, for the oracle.
    bindings: Vec<(String, Value)>,
    /// Each binding's elements in wire order, for the canonicalization replay.
    wire_elements: Vec<Vec<Value>>,
}

/// The seeded inputs of one wire run: the request pool and each client's
/// sequence of indices into it.
struct Inputs {
    pool: Vec<WireRequest>,
    sequences: Vec<Vec<u32>>,
    /// Pool entries sent once during set-up to warm the server.
    warm: Vec<u32>,
}

/// The session every measured server runs: the defaults, pinned explicitly
/// so no environment variable can change what is measured.
fn measured_session() -> Session {
    SessionBuilder::new()
        .parallelism(None)
        .row_kernels(true)
        .opt_level(OptLevel::Default)
        .cache_capacity(ncql_engine::DEFAULT_CACHE_CAPACITY)
        .build()
}

/// The server defaults, pinned explicitly. Fields are set one by one so a
/// field added later keeps its default.
#[allow(clippy::field_reassign_with_default)]
fn serve_config() -> ServeConfig {
    let mut config = ServeConfig::default();
    config.addr = "127.0.0.1:0".to_string();
    config.max_inflight = 64;
    config.admission_timeout_ms = 100;
    config.default_deadline_ms = 10_000;
    config.max_deadline_ms = 60_000;
    config.max_line_bytes = MAX_LINE_BYTES;
    config
}

pub fn describe_config() -> String {
    let session = measured_session();
    format!(
        "backend={} kernels={} opt={} parallelism={:?} clients={CLIENTS} max_inflight={} cache={}",
        session.backend(),
        session.config().kernels,
        session.opt_level(),
        session.config().parallelism,
        serve_config().max_inflight,
        ncql_engine::DEFAULT_CACHE_CAPACITY,
    )
}

fn request_line(id: u64, text: &str, schema: &[(String, Type)], wire: &[Vec<Value>]) -> String {
    let mut fields = vec![
        (
            "op".to_string(),
            Json::str(if schema.is_empty() {
                "execute"
            } else {
                "execute_with_bindings"
            }),
        ),
        ("id".to_string(), Json::num(id)),
        ("text".to_string(), Json::str(text)),
    ];
    if !schema.is_empty() {
        let entry = |name: &str, key: &str, value: Json| {
            Json::Obj(vec![
                ("name".to_string(), Json::str(name)),
                (key.to_string(), value),
            ])
        };
        fields.push((
            "schema".to_string(),
            Json::Arr(
                schema
                    .iter()
                    .map(|(name, ty)| entry(name, "type", Json::str(ty.to_string())))
                    .collect(),
            ),
        ));
        // Elements go out in generation order, duplicates included, so the
        // server's canonicalization does its real work.
        fields.push((
            "bindings".to_string(),
            Json::Arr(
                schema
                    .iter()
                    .zip(wire)
                    .map(|((name, _), elements)| {
                        let set = elements.iter().map(protocol::value_to_json).collect();
                        entry(
                            name,
                            "value",
                            Json::Obj(vec![("set".to_string(), Json::Arr(set))]),
                        )
                    })
                    .collect(),
            ),
        ));
    }
    Json::Obj(fields).to_string()
}

fn wire_request(
    id: u64,
    text: String,
    schema: Vec<(String, Type)>,
    wire: Vec<Vec<Value>>,
) -> WireRequest {
    let line = request_line(id, &text, &schema, &wire);
    let bindings = schema
        .iter()
        .zip(&wire)
        .map(|((name, _), elements)| (name.clone(), Value::set_from(elements.iter().cloned())))
        .collect();
    WireRequest {
        id,
        line,
        text,
        schema,
        bindings,
        wire_elements: wire,
    }
}

/// A well-typed closed query never sent before: `unique` appears as a
/// literal, and the template rotates so the mix of shapes is the same for
/// every seed.
fn fresh_text(rng: &mut StdRng, unique: u64, template: usize) -> String {
    let a = rng.gen_range(1u64..1000);
    let b = rng.gen_range(1u64..1000);
    let c = rng.gen_range(1u64..1000);
    match template % 8 {
        0 => format!("nat_add({unique}, {a})"),
        1 => format!("card({{@{unique}}} union {{@{a}}} union {{@{b}}})"),
        2 => format!("ext(\\x: atom. {{(x, @{unique})}}, {{@{a}}} union {{@{b}}} union {{@{c}}})"),
        3 => format!("if nat_leq({unique}, {a}) then {{@{b}}} else empty[atom]"),
        4 => format!("let s = {{@{unique}}} union {{@{a}}} in (s, card(s))"),
        5 => format!(
            "dcr(0, \\y: atom. 1, \\p: (nat * nat). nat_add(pi1 p, pi2 p), \
             {{@{unique}}} union {{@{a}}} union {{@{b}}})"
        ),
        6 => format!("pi1 (nat_mul({unique}, {a}), @{b})"),
        _ => format!(
            "dcr(false, \\y: atom. true, \
             \\p: (bool * bool). if pi1 p then (if pi2 p then false else true) else pi2 p, \
             {{@{unique}}} union {{@{a}}})"
        ),
    }
}

fn small_inputs(seed: u64, seconds: f64) -> Inputs {
    let corpus = ncql_serve::corpus::CORPUS;
    let mut pool: Vec<WireRequest> = corpus
        .iter()
        .enumerate()
        .map(|(j, q)| wire_request(j as u64 + 1, q.text.to_string(), vec![], vec![]))
        .collect();
    let warm = (0..pool.len() as u32).collect();
    let per_client = ((seconds * FRESH_PER_CLIENT_SECOND) as usize).max(1024);
    let mut sequences = Vec::new();
    for client in 0..CLIENTS {
        let mut rng = StdRng::seed_from_u64(seed ^ (0x5EED_0000 + client as u64));
        let mut sequence = Vec::with_capacity(2 * per_client);
        for i in 0..per_client {
            let unique = 1_000_000 + (client * per_client + i) as u64;
            let index = pool.len() as u32;
            let text = fresh_text(&mut rng, unique, i);
            pool.push(wire_request(1_000 + index as u64, text, vec![], vec![]));
            let repeat = rng.gen_range(0..corpus.len()) as u32;
            if rng.gen_bool(0.5) {
                sequence.extend([repeat, index]);
            } else {
                sequence.extend([index, repeat]);
            }
        }
        sequences.push(sequence);
    }
    Inputs {
        pool,
        sequences,
        warm,
    }
}

/// `n` rows of `{(atom * nat)}` in generation order.
fn relation_rows(rng: &mut StdRng, n: usize) -> Vec<Value> {
    (0..n)
        .map(|_| {
            Value::pair(
                Value::Atom(rng.gen_range(0..BULK_ATOMS)),
                Value::Nat(rng.gen_range(0..BULK_NATS)),
            )
        })
        .collect()
}

fn bulk_inputs(seed: u64) -> Inputs {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xB0_1C);
    let rel = Type::set(Type::prod(Type::Base, Type::Nat));
    let mut pool = Vec::new();
    for _ in 0..BULK_BINDINGS {
        let r = relation_rows(&mut rng, BULK_ROWS);
        let s = relation_rows(&mut rng, BULK_ROWS);
        // The subtracted relation shares rows with `r`, so the difference
        // removes something.
        let k: Vec<Value> = r[..BULK_SMALL_ROWS / 2]
            .iter()
            .cloned()
            .chain(relation_rows(&mut rng, BULK_SMALL_ROWS / 2))
            .collect();
        for (text, vars) in BULK_QUERIES {
            let schema = vars.iter().map(|v| (v.to_string(), rel.clone())).collect();
            let wire = vars
                .iter()
                .map(|v| match *v {
                    "r" => r.clone(),
                    "s" => s.clone(),
                    _ => k.clone(),
                })
                .collect();
            let id = pool.len() as u64 + 1;
            pool.push(wire_request(id, text.to_string(), schema, wire));
        }
    }
    // Clients walk the query classes round robin, so every seed sends the
    // same mix; the binding set advances with each full round.
    let classes = BULK_QUERIES.len();
    let sequences = (0..CLIENTS)
        .map(|client| {
            (0..classes * BULK_BINDINGS)
                .map(|i| {
                    let binding = (i / classes + client) % BULK_BINDINGS;
                    (binding * classes + i % classes) as u32
                })
                .collect()
        })
        .collect();
    // One request per query class fills the plan cache.
    let warm = (0..classes as u32).collect();
    Inputs {
        pool,
        sequences,
        warm,
    }
}

fn inputs(args: &Args, seconds: f64) -> Inputs {
    match args.workload.as_str() {
        "wire_small" => small_inputs(args.seed, seconds),
        _ => bulk_inputs(args.seed),
    }
}

/// Whether `response` is the `ok` answer to request `id`, read from its
/// envelope prefix without parsing the body.
fn is_ok(response: &str, id: u64) -> bool {
    let Some(rest) = response.strip_prefix("{\"id\":") else {
        return false;
    };
    let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
    rest[..digits].parse() == Ok(id) && rest[digits..].starts_with(",\"ok\":")
}

/// Send `req` until it is answered with something other than `busy` or the
/// retries run out. Returns the response and the busy answers seen.
fn send(client: &mut Client, req: &WireRequest) -> Result<(String, u32), String> {
    let mut retries = 0;
    loop {
        let response = client
            .round_trip_raw(&req.line)
            .map_err(|e| format!("request {}: {e}", req.id))?;
        if is_ok(&response, req.id) {
            return Ok((response, retries));
        }
        if retries < MAX_BUSY_RETRIES && response.contains("\"code\":\"busy\"") {
            retries += 1;
            continue;
        }
        return Err(response);
    }
}

/// A started server with its connected clients, warmed up.
struct Rig {
    server: ServerHandle,
    clients: Vec<Client>,
}

fn start_rig(inputs: &Inputs, clients: usize) -> Result<Rig, String> {
    let server = Server::bind(serve_config(), measured_session())
        .and_then(Server::spawn)
        .map_err(|e| format!("cannot start the server: {e}"))?;
    let mut connected = (0..clients)
        .map(|_| Client::connect(server.addr()))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("cannot connect: {e}"))?;
    for &index in &inputs.warm {
        send(&mut connected[0], &inputs.pool[index as usize])?;
    }
    Ok(Rig {
        server,
        clients: connected,
    })
}

fn stop_rig(rig: Rig) {
    for client in rig.clients {
        let _ = client.close();
    }
    rig.server.shutdown();
}

/// What one closed-loop client saw.
#[derive(Default)]
struct ClientLog {
    latencies_ns: Vec<u64>,
    /// Responses kept for verification: the first per request plus any that
    /// differ from it byte for byte, each with the number of requests that
    /// returned exactly these bytes.
    kept: Vec<(u32, String, u64)>,
    failures: Vec<(u32, String)>,
    busy_retries: u64,
    attempted: u64,
    request_bytes: u64,
    response_bytes: u64,
}

fn closed_loop(
    client: &mut Client,
    inputs: &Inputs,
    sequence: &[u32],
    deadline: Instant,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut first: HashMap<u32, usize> = HashMap::new();
    let mut next = 0;
    while Instant::now() < deadline {
        let index = sequence[next % sequence.len()];
        next += 1;
        let req = &inputs.pool[index as usize];
        log.attempted += 1;
        let start = Instant::now();
        let sent = send(client, req);
        let elapsed = start.elapsed().as_nanos() as u64;
        match sent {
            Ok((response, retries)) => {
                log.latencies_ns.push(elapsed);
                log.busy_retries += retries as u64;
                log.request_bytes += req.line.len() as u64 + 1;
                log.response_bytes += response.len() as u64 + 1;
                match first.get(&index) {
                    Some(&at) if log.kept[at].1 == response => log.kept[at].2 += 1,
                    _ => {
                        first.entry(index).or_insert(log.kept.len());
                        log.kept.push((index, response, 1));
                    }
                }
            }
            Err(response) => log.failures.push((index, response)),
        }
    }
    log
}

/// The `stats` object of an `ok` response, field by field.
fn stats_fields(s: &CostStats) -> [(&'static str, u64); 7] {
    [
        ("work", s.work),
        ("span", s.span),
        ("combiner_calls", s.combiner_calls),
        ("step_calls", s.step_calls),
        ("ext_calls", s.ext_calls),
        ("sequential_rounds", s.sequential_rounds),
        ("max_set_size", s.max_set_size as u64),
    ]
}

/// Check one response line against the oracle's expectation.
fn verify(response: &str, id: u64, expected: &Expected) -> Result<(), String> {
    let json = json::parse(response).map_err(|e| format!("unparsable response: {e}"))?;
    if json.get("id").and_then(Json::as_u64) != Some(id) {
        return Err("wrong id echoed".to_string());
    }
    let ok = json.get("ok").ok_or("not an ok response")?;
    let value = ok
        .get("value")
        .ok_or("missing value")
        .map(protocol::value_from_json)?
        .map_err(|e| format!("undecodable value: {e}"))?;
    if value != expected.value {
        return Err(format!("value {value} != expected {}", expected.value));
    }
    if ok.get("printed").and_then(Json::as_str) != Some(expected.value.to_string().as_str()) {
        return Err("printed form differs".to_string());
    }
    if ok.get("type").and_then(Json::as_str) != Some(expected.ty.as_str()) {
        return Err("type differs".to_string());
    }
    let stats = ok.get("stats").ok_or("missing stats")?;
    for (field, want) in stats_fields(&expected.stats) {
        let got = stats.get(field).and_then(Json::as_u64);
        if got != Some(want) {
            return Err(format!("stats.{field} {got:?} != expected {want}"));
        }
    }
    Ok(())
}

/// The oracle's answer for every request of the pool, computed on two
/// threads. A generated text that fails to prepare or run stops the run, so
/// no run ever measures an error path.
fn expectations(oracle: &Oracle, inputs: &Inputs) -> Result<Vec<Expected>, String> {
    let chunk = inputs.pool.len().div_ceil(2).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = inputs
            .pool
            .chunks(chunk)
            .map(|reqs| {
                scope.spawn(move || {
                    reqs.iter()
                        .map(|r| oracle.expect_text(&r.text, &r.schema, &r.bindings))
                        .collect::<Result<Vec<_>, _>>()
                })
            })
            .collect();
        let mut all = Vec::with_capacity(inputs.pool.len());
        for handle in handles {
            all.extend(handle.join().expect("oracle thread panicked")?);
        }
        Ok(all)
    })
}

/// What the timed segments of one run add up to.
#[derive(Default)]
struct Pooled {
    segments: Segments,
    verified: usize,
    busy_retries: u64,
    request_bytes: u64,
    response_bytes: u64,
    cache_hits: u64,
    cache_probes: u64,
    cache_evictions: u64,
}

/// One timed segment: `CLIENTS` threads in a closed loop for `seconds`,
/// then a `stats` round trip. Responses are verified after the clock stops.
fn measure(
    rig: &mut Rig,
    inputs: &Inputs,
    expected: &[Expected],
    seconds: f64,
    result: &mut RunResult,
    pooled: &mut Pooled,
) -> Result<(), String> {
    let before = rig.clients[0].stats().map_err(|e| e.to_string())?;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = rig
            .clients
            .iter_mut()
            .zip(&inputs.sequences)
            .map(|(client, sequence)| {
                scope.spawn(move || closed_loop(client, inputs, sequence, deadline))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed = start.elapsed().as_secs_f64();
    let after = rig.clients[0].stats().map_err(|e| e.to_string())?;

    let mut latencies = Vec::new();
    for log in &logs {
        latencies.extend_from_slice(&log.latencies_ns);
        result.attempted += log.attempted;
        for (index, response) in &log.failures {
            let req = &inputs.pool[*index as usize];
            result.mismatch(1, format!("request {} failed: {response}", req.id));
        }
        for (index, response, count) in &log.kept {
            let req = &inputs.pool[*index as usize];
            pooled.verified += 1;
            if let Err(why) = verify(response, req.id, &expected[*index as usize]) {
                let what = format!("{count} x request {} (`{}`): {why}", req.id, req.text);
                result.mismatch(*count, what);
            }
        }
        pooled.busy_retries += log.busy_retries;
        pooled.request_bytes += log.request_bytes;
        pooled.response_bytes += log.response_bytes;
    }
    pooled.cache_hits += after.cache_hits - before.cache_hits;
    pooled.cache_probes +=
        (after.cache_hits + after.cache_misses) - (before.cache_hits + before.cache_misses);
    pooled.cache_evictions += after.cache_evictions - before.cache_evictions;
    pooled.segments.push(latencies, elapsed);
    Ok(())
}

pub fn run(args: &Args) -> Result<RunResult, String> {
    let mut result = RunResult::default();
    let mut layers = Layers::default();
    // A traced run spends half its time on one untraced segment.
    let (segments, seconds) = if args.trace {
        (1, args.seconds / 2.0)
    } else {
        (SEGMENTS, args.seconds)
    };
    let segment_s = seconds / segments as f64;
    let oracle = Oracle::new();
    let mut expected = Vec::new();
    let mut setup_times = Vec::new();
    let mut pooled = Pooled::default();
    let mut inputs = None;
    for _ in 0..segments {
        drop(inputs.take());
        let start = Instant::now();
        let built = self::inputs(args, segment_s);
        let mut rig = start_rig(&built, CLIENTS)?;
        setup_times.push(start.elapsed().as_secs_f64());
        if expected.is_empty() {
            if let Some(req) = built.pool.iter().find(|r| r.line.len() >= MAX_LINE_BYTES) {
                return Err(format!("request {} exceeds the line limit", req.id));
            }
            expected = expectations(&oracle, &built)?;
        }
        let measured = measure(
            &mut rig,
            &built,
            &expected,
            segment_s,
            &mut result,
            &mut pooled,
        );
        stop_rig(rig);
        measured?;
        inputs = Some(built);
    }
    let inputs = inputs.expect("at least one segment");

    let ok = pooled.segments.requests();
    let rate = pooled.segments.rate();
    let per_request = |total: u64| total as f64 / ok.max(1) as f64;
    layers.add("serve.busy_retries", pooled.busy_retries as f64);
    layers.add("serve.request_bytes", per_request(pooled.request_bytes));
    layers.add("serve.response_bytes", per_request(pooled.response_bytes));
    layers.add(
        "engine.cache_hit_ratio",
        pooled.cache_hits as f64 / pooled.cache_probes.max(1) as f64,
    );
    layers.add("engine.cache_evictions", pooled.cache_evictions as f64);
    pooled.segments.report(&mut result, 0.99);
    result.note(format!(
        "verified {} distinct responses against the oracle; {ok} requests in {} segments of {segment_s:.2} s",
        pooled.verified, segments
    ));

    if args.trace {
        traced(
            args,
            &inputs,
            &expected,
            seconds,
            rate,
            &mut result,
            &mut layers,
        )?;
        emit_layers(&mut result, &mut layers);
    } else {
        result.metric("setup_s", median(&setup_times), "s");
        result.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    }
    Ok(result)
}

/// Mirror of the server's response body, built from the replayed outcome.
fn response_body(outcome: &ncql_engine::Outcome, ty: &Type, printed: String) -> Json {
    let stats = stats_fields(&outcome.stats)
        .iter()
        .map(|&(k, v)| (k.to_string(), Json::num(v)))
        .collect();
    Json::Obj(vec![
        ("value".to_string(), protocol::value_to_json(&outcome.value)),
        ("printed".to_string(), Json::Str(printed)),
        ("type".to_string(), Json::str(ty.to_string())),
        ("stats".to_string(), Json::Obj(stats)),
        (
            "backend".to_string(),
            Json::str(outcome.backend.to_string()),
        ),
    ])
}

/// Replay the front end of `text` one public call at a time.
fn replay_front_end(
    tracer: &mut Tracer,
    layers: &mut Layers,
    session: &Session,
    text: &str,
    schema: &[(String, Type)],
) -> Result<(), String> {
    let registry = &session.config().registry;
    let front = tracer.enter("front_end");
    let (expr, ns) = tracer.span("surface.parse", || ncql_surface::parse(text));
    layers.add("surface.parse_us", ns as f64 / 1e3);
    let expr = expr.map_err(|e| e.to_string())?;
    let mut env = typecheck::TypeEnv::new();
    for (name, ty) in schema {
        env = env.extend(name.clone(), ty.clone());
    }
    let (ty, ns) = tracer.span("core.typecheck", || typecheck::infer(&env, registry, &expr));
    layers.add("core.typecheck_us", ns as f64 / 1e3);
    ty.map_err(|e| e.to_string())?;
    let (analysis, ns) = tracer.span("core.analyze", || analyze_query(&expr, schema, registry));
    layers.add("core.analyze_us", ns as f64 / 1e3);
    let (_, print_raw) = tracer.span("surface.print", || ncql_surface::print_expr(&expr));
    let (optimized, ns) = tracer.span("core.rewrite", || {
        rewrite::optimize_analyzed(&expr, schema, session.config(), analysis)
    });
    layers.add("core.rewrite_us", ns as f64 / 1e3);
    let (_, print_opt) = tracer.span("surface.print", || {
        ncql_surface::print_expr(&optimized.expr)
    });
    layers.add("surface.print_us", (print_raw + print_opt) as f64 / 1e3);
    let (_, ns) = tracer.span("core.kernel_sites", || {
        kernel::analyze_sites(&optimized.expr, registry)
    });
    layers.add("core.kernel_sites_us", ns as f64 / 1e3);
    tracer.exit(front);
    Ok(())
}

/// The traced pass: a fresh server and one connection. Each request makes a
/// real round trip, then its server-side phases are replayed in process on
/// a mirror session (same configuration, same cache history), one public
/// call per span.
fn traced(
    args: &Args,
    inputs: &Inputs,
    expected: &[Expected],
    seconds: f64,
    untraced_rate: f64,
    result: &mut RunResult,
    layers: &mut Layers,
) -> Result<(), String> {
    let mut rig = start_rig(inputs, 1)?;
    let mirror = measured_session();
    let sequential = measured_session();
    for &index in &inputs.warm {
        let req = &inputs.pool[index as usize];
        mirror
            .prepare_with_schema(&req.text, &req.schema)
            .map_err(|e| e.to_string())?;
    }
    let mut tracer = Tracer::new();
    let mut identical = 0u64;
    let mut done = 0u64;
    let options = ExecOptions::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let sequence = &inputs.sequences[0];
    while Instant::now() < deadline {
        let index = sequence[done as usize % sequence.len()];
        let req = &inputs.pool[index as usize];
        tracer.set_request(done);
        done += 1;
        result.attempted += 1;
        let root = tracer.enter("request");
        let (sent, rtt) = tracer.span("client.round_trip", || send(&mut rig.clients[0], req));
        let (response, _) = match sent {
            Ok(ok) => ok,
            Err(response) => {
                tracer.exit(root);
                result.mismatch(1, format!("traced request {} failed: {response}", req.id));
                continue;
            }
        };

        let counters = Counters::snapshot();
        let (decoded, decode) = tracer.span("serve.decode", || protocol::parse_request(&req.line));
        let Ok(Request::Execute {
            id,
            text,
            schema,
            bindings,
            ..
        }) = decoded
        else {
            return Err(format!("request {} does not decode as an execute", req.id));
        };
        let misses = mirror.cache_metrics().misses;
        let (plan, prepare) = tracer.span("engine.prepare", || {
            mirror.prepare_with_schema(&text, &schema)
        });
        let plan: PreparedQuery = plan.map_err(|e| e.to_string())?;
        let missed = mirror.cache_metrics().misses > misses;
        let (outcome, execute) = tracer.span("engine.execute", || {
            mirror.execute_with_options(&plan, &bindings, &options)
        });
        let outcome = outcome.map_err(|e| e.to_string())?;
        let (printed, print) = tracer.span("serve.print", || outcome.value.to_string());
        let (replayed, encode) = tracer.span("serve.encode", || {
            protocol::ok_response(id, response_body(&outcome, plan.ty(), printed))
        });
        counters.record(layers, &outcome);
        identical += (replayed == response) as u64;

        // Single public calls outside the server's path, one span each.
        let isolated = tracer.enter("isolated");
        let (_, ns) = tracer.span("serve.json_parse", || json::parse(&req.line));
        layers.add("serve.json_parse_us", ns as f64 / 1e3);
        if !req.wire_elements.is_empty() {
            let mut canon = 0;
            for elements in &req.wire_elements {
                let elements = elements.clone();
                canon += tracer.span("object.canon", || Value::set_from(elements)).1;
            }
            layers.add("object.canon_us", canon as f64 / 1e3);
        }
        if missed {
            replay_front_end(&mut tracer, layers, &mirror, &text, &schema)?;
        }
        let seq_plan = sequential
            .prepare_with_schema(&text, &schema)
            .map_err(|e| e.to_string())?;
        let (_, exec_seq) = tracer.span("pram.exec_seq", || {
            sequential.execute_with_options(&seq_plan, &bindings, &options)
        });
        tracer.exit(isolated);
        tracer.exit(root);

        let us = |ns: u64| ns as f64 / 1e3;
        layers.add("serve.round_trip_us", us(rtt));
        layers.add("serve.decode_us", us(decode));
        layers.add(
            if missed {
                "engine.prepare_miss_us"
            } else {
                "engine.prepare_hit_us"
            },
            us(prepare),
        );
        layers.add("engine.prepare_us", us(prepare));
        layers.add("engine.execute_us", us(execute));
        layers.add("serve.print_us", us(print));
        layers.add("serve.encode_us", us(encode));
        layers.add(
            "serve.remainder_us",
            us(rtt) - us(decode + prepare + execute + print + encode),
        );
        layers.add("pram.exec_seq_us", us(exec_seq));
        if let Err(why) = verify(&response, req.id, &expected[index as usize]) {
            result.mismatch(1, format!("traced request {}: {why}", req.id));
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    stop_rig(rig);
    result.note(format!(
        "traced replay rebuilt {identical} of {done} responses byte for byte"
    ));
    let rtt = layers.mean("serve.round_trip_us");
    let share = |name: &str| 100.0 * layers.mean(name) / rtt;
    result.note(format!(
        "client latency {rtt:.1} us = decode {:.1}% + prepare {:.1}% + execute {:.1}% \
         + print {:.1}% + encode {:.1}% + remainder {:.1}%",
        share("serve.decode_us"),
        share("engine.prepare_us"),
        share("engine.execute_us"),
        share("serve.print_us"),
        share("serve.encode_us"),
        share("serve.remainder_us"),
    ));
    finish_trace(
        args,
        &tracer,
        done as f64 / elapsed,
        untraced_rate,
        result,
        layers,
    )
}
