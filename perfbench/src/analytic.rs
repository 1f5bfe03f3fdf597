//! The `analytic` workload: one in-process caller drives a `Session` on the
//! parallel backend. Schema queries from `ncql_queries` are prepared once
//! during set-up and executed repeatedly over seeded graphs and relations,
//! so the cost sits in core evaluation (interpreter, `dcr` combining rounds,
//! parallel regions, canonical merge) and in object set algebra.

use crate::common::{
    emit_layers, finish_trace, median, peak_rss_mb, Counters, Expected, Layers, Oracle, RunResult,
    Segments, Tracer,
};
use crate::Args;
use ncql_core::Expr;
use ncql_engine::{ExecOptions, OptLevel, Outcome, PreparedQuery, Session, SessionBuilder};
use ncql_object::{Type, Value};
use ncql_queries::{datagen, graph, parity, relalg};
use std::time::{Duration, Instant};

/// Worker threads of the measured session; matches a 2-CPU machine.
const PARALLELISM: usize = 2;
/// Timed segments per run, each on a freshly set-up session (and so a
/// fresh worker pool); the run pools their samples, and `setup_s` is the
/// median of their set-ups.
const SEGMENTS: usize = 10;
/// Seeded inputs per query class.
const INPUTS: usize = 16;
/// Transitive-closure graphs: vertices and edges. Dense enough that almost
/// every graph is strongly connected, so the closure's size (and the cost)
/// hardly depends on the seed.
const TC_NODES: u64 = 10;
const TC_EDGES: usize = 30;
/// Join inputs: universe and tuples per relation.
const JOIN_UNIVERSE: u64 = 120;
const JOIN_TUPLES: usize = 120;
/// Parity input: atoms in the set.
const PARITY_ATOMS: usize = 20_000;

/// Bindings of one request.
type Bindings = Vec<(String, Value)>;

/// One query class: its name, schema, builder, and seeded input generator.
struct Class {
    name: &'static str,
    schema: Vec<(String, Type)>,
    build: fn() -> Expr,
    input: fn(u64) -> Bindings,
}

fn relation(n: u64, tuples: usize, seed: u64) -> Value {
    datagen::random_relation(n, tuples, seed).to_value()
}

fn graph_input(seed: u64) -> Bindings {
    vec![("r".to_string(), relation(TC_NODES, TC_EDGES, seed))]
}

fn join_input(seed: u64) -> Bindings {
    vec![
        ("r".to_string(), relation(JOIN_UNIVERSE, JOIN_TUPLES, seed)),
        (
            "s".to_string(),
            relation(JOIN_UNIVERSE, JOIN_TUPLES, seed ^ 0x5EED),
        ),
    ]
}

fn parity_input(seed: u64) -> Bindings {
    let atoms = datagen::random_atom_set(1 << 40, PARITY_ATOMS, seed);
    vec![("a".to_string(), atoms)]
}

fn classes() -> Vec<Class> {
    let rel = || ("r".to_string(), graph::rel_type());
    let rel_s = || ("s".to_string(), graph::rel_type());
    vec![
        Class {
            name: "tc_dcr",
            schema: vec![rel()],
            build: || graph::tc_dcr(Expr::var("r")),
            input: graph_input,
        },
        Class {
            name: "tc_log_loop",
            schema: vec![rel()],
            build: || graph::tc_log_loop(Expr::var("r")),
            input: graph_input,
        },
        Class {
            name: "join",
            schema: vec![rel(), rel_s()],
            build: || relalg::join(Expr::var("r"), Expr::var("s")),
            input: join_input,
        },
        Class {
            name: "semijoin",
            schema: vec![rel(), rel_s()],
            build: || relalg::semijoin(Expr::var("r"), Expr::var("s")),
            input: join_input,
        },
        Class {
            name: "parity_dcr",
            schema: vec![("a".to_string(), Type::set(Type::Base))],
            build: || parity::parity_dcr(Expr::var("a")),
            input: parity_input,
        },
    ]
}

/// Seeded bindings: `INPUTS` per class, in class order.
fn inputs(seed: u64, classes: &[Class]) -> Vec<Vec<Bindings>> {
    classes
        .iter()
        .enumerate()
        .map(|(c, class)| {
            (0..INPUTS)
                .map(|i| {
                    (class.input)(seed.wrapping_mul(1_000_003) ^ ((c as u64) << 32) ^ i as u64)
                })
                .collect()
        })
        .collect()
}

fn parallel_session() -> Session {
    SessionBuilder::new()
        .parallelism(Some(PARALLELISM))
        .pool_threads(None)
        .row_kernels(true)
        .opt_level(OptLevel::Default)
        .build()
}

fn sequential_session() -> Session {
    SessionBuilder::new()
        .parallelism(None)
        .row_kernels(true)
        .opt_level(OptLevel::Default)
        .build()
}

pub fn describe_config() -> String {
    let session = parallel_session();
    format!(
        "backend={} kernels={} opt={} parallelism={:?} pool_threads={:?} parallel_cutoff={}",
        session.backend(),
        session.config().kernels,
        session.opt_level(),
        session.config().parallelism,
        session.config().pool_threads,
        session.config().parallel_cutoff,
    )
}

fn prepare_all(session: &Session, classes: &[Class]) -> Result<Vec<PreparedQuery>, String> {
    classes
        .iter()
        .map(|c| {
            session
                .prepare_expr_with_schema((c.build)(), &c.schema)
                .map_err(|e| format!("{} does not prepare: {e}", c.name))
        })
        .collect()
}

/// The request sequence walks the classes round robin, so every seed runs
/// the same mix; the input advances with each full round.
fn request(i: usize, classes: usize) -> (usize, usize) {
    (i % classes, (i / classes) % INPUTS)
}

struct Rig {
    session: Session,
    plans: Vec<PreparedQuery>,
    inputs: Vec<Vec<Bindings>>,
}

/// Seed of the inputs that warm a fresh session, the same for every run.
const WARM_SEED: u64 = 0;

/// Set up a session: generate the inputs, prepare every query, and run
/// each once on a fixed input so the lazily spawned pool workers exist
/// before the clock starts.
fn start_rig(seed: u64, classes: &[Class]) -> Result<Rig, String> {
    let inputs = inputs(seed, classes);
    let session = parallel_session();
    let plans = prepare_all(&session, classes)?;
    for (plan, class) in plans.iter().zip(classes) {
        session
            .execute_with_bindings(plan, &(class.input)(WARM_SEED))
            .map_err(|e| e.to_string())?;
    }
    Ok(Rig {
        session,
        plans,
        inputs,
    })
}

fn check(outcome: &Outcome, expected: &Expected) -> Result<(), String> {
    if outcome.value != expected.value {
        return Err(format!(
            "value {} != expected {}",
            outcome.value, expected.value
        ));
    }
    if outcome.stats != expected.stats {
        return Err(format!(
            "stats {:?} != expected {:?}",
            outcome.stats, expected.stats
        ));
    }
    Ok(())
}

fn expectations(
    oracle: &Oracle,
    classes: &[Class],
    rig: &Rig,
) -> Result<Vec<Vec<Expected>>, String> {
    classes
        .iter()
        .zip(&rig.inputs)
        .map(|(class, class_inputs)| {
            class_inputs
                .iter()
                .map(|bindings| {
                    oracle
                        .expect(
                            |s| s.prepare_expr_with_schema((class.build)(), &class.schema),
                            bindings,
                        )
                        .map_err(|e| format!("{}: {e}", class.name))
                })
                .collect::<Result<Vec<_>, _>>()
        })
        .collect()
}

/// One timed segment: one caller in a closed loop for `seconds`. Outcomes
/// are checked after the clock stops; the latencies of correct ones are
/// recorded in `segments`.
fn measure(
    rig: &Rig,
    classes: &[Class],
    expected: &[Vec<Expected>],
    seconds: f64,
    result: &mut RunResult,
    segments: &mut Segments,
) {
    let mut timed = Vec::new();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    while Instant::now() < deadline {
        let (class, input) = request(timed.len(), classes.len());
        let t0 = Instant::now();
        let outcome = rig
            .session
            .execute_with_bindings(&rig.plans[class], &rig.inputs[class][input]);
        timed.push((t0.elapsed().as_nanos() as u64, outcome));
    }
    let elapsed = start.elapsed().as_secs_f64();
    result.attempted += timed.len() as u64;
    let mut latencies = Vec::new();
    for (i, (ns, outcome)) in timed.iter().enumerate() {
        let (class, input) = request(i, classes.len());
        match outcome
            .as_ref()
            .map_err(|e| e.to_string())
            .and_then(|o| check(o, &expected[class][input]))
        {
            Ok(()) => latencies.push(*ns),
            Err(why) => result.mismatch(1, format!("{} input {input}: {why}", classes[class].name)),
        }
    }
    segments.push(latencies, elapsed);
}

pub fn run(args: &Args) -> Result<RunResult, String> {
    let mut result = RunResult::default();
    let classes = classes();
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
    let mut measured = Segments::default();
    for _ in 0..segments {
        let start = Instant::now();
        let rig = start_rig(args.seed, &classes)?;
        setup_times.push(start.elapsed().as_secs_f64());
        if expected.is_empty() {
            expected = expectations(&oracle, &classes, &rig)?;
        }
        measure(
            &rig,
            &classes,
            &expected,
            segment_s,
            &mut result,
            &mut measured,
        );
    }
    let rate = measured.rate();
    measured.report(&mut result, 0.9);

    if args.trace {
        let mut layers = Layers::default();
        traced(
            args,
            &classes,
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

/// The traced pass: the same request sequence, each execution wrapped in a
/// span, plus the same prepared query on a sequential session for the
/// parallel speed-up.
fn traced(
    args: &Args,
    classes: &[Class],
    expected: &[Vec<Expected>],
    seconds: f64,
    untraced_rate: f64,
    result: &mut RunResult,
    layers: &mut Layers,
) -> Result<(), String> {
    let rig = start_rig(args.seed, classes)?;
    let sequential = sequential_session();
    let seq_plans = prepare_all(&sequential, classes)?;
    let options = ExecOptions::new();
    let mut tracer = Tracer::new();
    let mut done = 0usize;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    while Instant::now() < deadline {
        let (class, input) = request(done, classes.len());
        let bindings = &rig.inputs[class][input];
        tracer.set_request(done as u64);
        done += 1;
        result.attempted += 1;
        let root = tracer.enter("request");
        let counters = Counters::snapshot();
        let (outcome, execute) = tracer.span("engine.execute", || {
            rig.session
                .execute_with_options(&rig.plans[class], bindings, &options)
        });
        if let Ok(outcome) = &outcome {
            counters.record(layers, outcome);
        }
        let isolated = tracer.enter("isolated");
        let (seq_outcome, exec_seq) = tracer.span("pram.exec_seq", || {
            sequential.execute_with_options(&seq_plans[class], bindings, &options)
        });
        tracer.exit(isolated);
        tracer.exit(root);

        let name = classes[class].name;
        let outcome = match outcome {
            Ok(outcome) => outcome,
            Err(e) => {
                result.mismatch(1, format!("traced {name} input {input}: {e}"));
                continue;
            }
        };
        for (what, got) in [
            ("parallel", Ok(&outcome)),
            ("sequential", seq_outcome.as_ref()),
        ] {
            let verdict = got
                .map_err(|e| e.to_string())
                .and_then(|o| check(o, &expected[class][input]));
            if let Err(why) = verdict {
                result.mismatch(1, format!("traced {what} {name} input {input}: {why}"));
            }
        }
        layers.add("engine.execute_us", execute as f64 / 1e3);
        layers.add("pram.exec_seq_us", exec_seq as f64 / 1e3);
    }
    let traced_rate = done as f64 / start.elapsed().as_secs_f64();
    finish_trace(args, &tracer, traced_rate, untraced_rate, result, layers)
}
