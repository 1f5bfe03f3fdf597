//! The parallel evaluation backend: how
//! [`Evaluator`](crate::eval::Evaluator) forks regions onto a pool, and the
//! helpers that normalize the parallelism knob.
//!
//! There is one evaluator and one entry point: an `Evaluator` built from an
//! [`EvalConfig`](crate::eval::EvalConfig) whose `parallelism` is `Some(n)`
//! with `n ≥ 2` runs on the parallel backend; `None`, `Some(0)` and
//! `Some(1)` run sequentially. Most
//! callers go through the engine's `Session`, which builds that evaluator
//! per execution and shares one pool across executions.
//!
//! The paper's Theorem 6.2 places the `bdcr` language in NC because `ext`
//! applies its function to all elements *independently* and the `dcr`
//! combining tree has depth `⌈log₂ m⌉`. The evaluator's cost model scores
//! queries that way on both backends; on the parallel backend the same
//! constructs are actually forked. There are four region kinds: the
//! interpreted `ext` element map, the row-kernel `ext` map, the
//! `dcr`/`sru`/`bdcr` leaf map, and one combining round. Each has a single
//! per-element body, which the evaluator either calls directly or runs once
//! per shard on a persistent work-stealing pool
//! ([`ncql_pram::WorkStealingPool`]): one lazily-spawned worker set per
//! evaluator (or per engine `Session`), a chunk deque per worker with
//! stealing at region boundaries, so a region costs a queue push rather than
//! a thread spawn and uneven leaf costs rebalance. The NC bound is a span
//! claim, and span only survives into wall-clock when regions don't pay
//! thread start-up latency per combining round.
//!
//! The backends are *observationally identical*: values, work, span and
//! every per-construct counter agree bit-for-bit under every pool size and
//! steal schedule, and a resource-limit error (`SetTooLarge` /
//! `WorkLimitExceeded`) fires in a parallel run exactly when one fires
//! sequentially — though when both limits are crossed by the same
//! evaluation, which of the two is reported may differ, since shards
//! discover their budget overruns concurrently. The differential suite and
//! `tests/pool_scheduling_stress.rs` pin all of this down.
//!
//! Cutover: forking a region only pays when there is enough work to amortize
//! region dispatch, so a region is forked only when
//! `applications × per-application cost` (the closure body's static work
//! bound from [`crate::analyze`] when finite, else `1 + body size`) reaches
//! `EvalConfig::parallel_cutoff`; smaller regions — and the top of every
//! combining tree — run sequentially on the calling thread. The
//! per-application cost, like the row-kernel decision, is computed once per
//! lambda site per evaluation: every closure a `Lam` node builds — one per
//! outer element when the lambda sits inside an `ext` body — shares that
//! site's cached estimate, on every worker thread. Forked regions
//! additionally borrow workers from the pool's thread-budget semaphore, which
//! is what lets a *nested* `dcr` (one inside another's leaf map) borrow
//! whatever workers the outer region left idle instead of being forced
//! sequential; an inner region that gets no permit stays inline.

/// Normalize a requested parallelism knob to its canonical form: `Some(0)` and
/// `Some(1)` mean "no parallelism", exactly like `None`, and are mapped to
/// `None` here — in one place — so a configuration never records a degenerate
/// thread count. Every front door that accepts a parallelism override
/// (`ncql_queries::eval_query_with`, the engine's `SessionBuilder`) routes the
/// request through this function before storing it in an
/// [`crate::eval::EvalConfig`]; without the normalization a caller
/// passing `Some(1)` would silently overwrite a base configuration's knob with
/// a value that *looks* parallel but evaluates sequentially.
pub fn normalize_parallelism(requested: Option<usize>) -> Option<usize> {
    match requested {
        Some(n) if n >= 2 => Some(n),
        _ => None,
    }
}

/// The parallelism requested through the *test* environment knob
/// `NCQL_TEST_PARALLELISM`: `None` when unset, empty, or unparseable. The CI
/// matrix sets it so the differential suite and the bench parallel variants
/// exercise both backends on every push. User-facing surfaces (the REPL
/// example) read their own `NCQL_PARALLELISM` knob instead, so the test
/// variable never silently overrides an explicit user request.
pub fn parallelism_from_env() -> Option<usize> {
    let raw = std::env::var("NCQL_TEST_PARALLELISM").ok()?;
    raw.trim().parse::<usize>().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::EvalError;
    use crate::eval::{eval_with_stats, EvalConfig, Evaluator};
    use crate::expr::Expr;
    use crate::externs::ExternRegistry;
    use ncql_object::{Type, VSet, Value};

    fn parity(n: u64) -> Expr {
        let xor = Expr::lam2(
            "a",
            "b",
            Type::prod(Type::Bool, Type::Bool),
            Expr::ite(
                Expr::var("a"),
                Expr::ite(Expr::var("b"), Expr::bool_val(false), Expr::bool_val(true)),
                Expr::var("b"),
            ),
        );
        Expr::dcr(
            Expr::bool_val(false),
            Expr::lam("y", Type::Base, Expr::bool_val(true)),
            xor,
            Expr::constant(Value::atom_set(0..n)),
        )
    }

    #[test]
    fn parallel_backend_matches_sequential_values_and_stats() {
        for n in [0u64, 1, 2, 63, 64, 257] {
            let e = parity(n);
            let (seq_v, seq_stats) = eval_with_stats(&e).unwrap();
            for threads in [1usize, 2, 4, 8] {
                let mut ev = Evaluator::new(EvalConfig {
                    parallelism: Some(threads),
                    parallel_cutoff: 1,
                    ..EvalConfig::default()
                });
                let par_v = ev.eval_closed(&e).unwrap();
                assert_eq!(par_v, seq_v, "value n={n} threads={threads}");
                assert_eq!(ev.stats(), seq_stats, "stats n={n} threads={threads}");
            }
        }
    }

    #[test]
    fn ext_forks_and_matches() {
        let f = Expr::lam(
            "x",
            Type::Base,
            Expr::union(
                Expr::singleton(Expr::var("x")),
                Expr::singleton(Expr::atom(100_000)),
            ),
        );
        let e = Expr::ext(f, Expr::constant(Value::atom_set(0..500)));
        let (seq_v, seq_stats) = eval_with_stats(&e).unwrap();
        let mut ev = Evaluator::new(EvalConfig {
            parallelism: Some(4),
            parallel_cutoff: 1,
            ..EvalConfig::default()
        });
        assert_eq!(ev.eval_closed(&e).unwrap(), seq_v);
        assert_eq!(ev.stats(), seq_stats);
    }

    /// A kernel-liftable `ext` over a columnar set: `{(pi2 x, pi1 x)}` over 64
    /// atom pairs, so a parallel run takes the row-kernel shard path.
    fn swap_pairs() -> Expr {
        let x = || Expr::var("x");
        let body = Expr::singleton(Expr::pair(Expr::proj2(x()), Expr::proj1(x())));
        let set: VSet = (0..64u64)
            .map(|i| Value::pair(Value::Atom(i), Value::Atom(2 * i)))
            .collect();
        assert!(set.is_columnar(), "the input must take the kernel path");
        let shape = set.columnar_rows().unwrap().0.clone();
        assert!(
            crate::kernel::compile("x", &body, &shape, &ExternRegistry::standard()).is_ok(),
            "the body must compile to a row kernel"
        );
        Expr::ext(
            Expr::lam("x", Type::prod(Type::Base, Type::Base), body),
            Expr::constant(Value::Set(set)),
        )
    }

    #[test]
    fn work_limit_fires_identically_across_backends() {
        for e in [parity(128), swap_pairs()] {
            let (_, full) = eval_with_stats(&e).unwrap();
            for limit in [full.work, full.work - 1, full.work / 2, 10] {
                let mut seq = Evaluator::new(EvalConfig {
                    max_work: limit,
                    ..EvalConfig::default()
                });
                let mut par = Evaluator::new(EvalConfig {
                    max_work: limit,
                    parallelism: Some(4),
                    parallel_cutoff: 1,
                    ..EvalConfig::default()
                });
                let seq_out = seq.eval_closed(&e);
                let par_out = par.eval_closed(&e);
                match (seq_out, par_out) {
                    (Ok(a), Ok(b)) => assert_eq!(a, b, "limit={limit}"),
                    (
                        Err(EvalError::WorkLimitExceeded { limit: a, .. }),
                        Err(EvalError::WorkLimitExceeded { limit: b, .. }),
                    ) => assert_eq!(a, b, "limit={limit}"),
                    (s, p) => panic!("backends disagree at limit {limit}: seq={s:?} par={p:?}"),
                }
            }
        }
    }

    /// Regression test for the panic-propagation contract at the language
    /// level: an extern that panics inside one shard must surface as
    /// `EvalError::WorkerPanicked` — not abort the process — and the payload
    /// message must survive.
    #[test]
    fn panicking_extern_surfaces_as_eval_error() {
        let mut registry = ExternRegistry::standard();
        registry.register("explode", vec![Type::Base], Type::Base, |args| {
            if args.first().and_then(Value::as_atom) == Some(13) {
                panic!("extern exploded on atom 13");
            }
            Ok(args[0].clone())
        });
        let f = Expr::lam(
            "x",
            Type::Base,
            Expr::singleton(Expr::extern_call("explode", vec![Expr::var("x")])),
        );
        let e = Expr::ext(f, Expr::constant(Value::atom_set(0..64)));
        let mut ev = Evaluator::new(EvalConfig {
            registry,
            parallelism: Some(4),
            parallel_cutoff: 1,
            ..EvalConfig::default()
        });
        match ev.eval_closed(&e) {
            Err(EvalError::WorkerPanicked { message: msg, .. }) => {
                assert!(msg.contains("extern exploded on atom 13"), "got: {msg}")
            }
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
        // The evaluator is still usable after the caught panic.
        assert_eq!(ev.eval_closed(&parity(8)).unwrap(), Value::Bool(false));
    }

    #[test]
    fn cutover_keeps_small_regions_sequential_with_identical_results() {
        // A cutoff so high nothing forks: the parallel configuration must
        // still be correct (it *is* the sequential path then).
        let e = parity(100);
        let mut ev = Evaluator::new(EvalConfig {
            parallelism: Some(8),
            parallel_cutoff: u64::MAX,
            ..EvalConfig::default()
        });
        let (seq_v, seq_stats) = eval_with_stats(&e).unwrap();
        assert_eq!(ev.eval_closed(&e).unwrap(), seq_v);
        assert_eq!(ev.stats(), seq_stats);
    }

    #[test]
    fn one_pool_persists_across_evaluations() {
        let mut ev = Evaluator::new(EvalConfig {
            parallelism: Some(4),
            parallel_cutoff: 1,
            ..EvalConfig::default()
        });
        assert!(
            ev.pool().is_none(),
            "the pool is created lazily, not at construction"
        );
        ev.eval_closed(&parity(64)).unwrap();
        let first = ev
            .pool()
            .cloned()
            .expect("first evaluation creates the pool");
        assert_eq!(first.threads(), 4);
        ev.eval_closed(&parity(130)).unwrap();
        let second = ev.pool().cloned().expect("pool survives");
        assert!(
            std::sync::Arc::ptr_eq(&first, &second),
            "evaluations share one persistent pool instead of re-creating it"
        );
    }

    #[test]
    fn pool_threads_knob_oversubscribes_the_worker_set() {
        // The pool may be wider than the parallelism knob; results and stats
        // must not notice.
        let e = parity(130);
        let (seq_v, seq_stats) = eval_with_stats(&e).unwrap();
        let mut ev = Evaluator::new(EvalConfig {
            parallelism: Some(2),
            pool_threads: Some(8),
            parallel_cutoff: 1,
            ..EvalConfig::default()
        });
        assert_eq!(ev.eval_closed(&e).unwrap(), seq_v);
        assert_eq!(ev.stats(), seq_stats);
        assert_eq!(ev.pool().unwrap().threads(), 8);
    }

    #[test]
    fn degenerate_parallelism_normalizes_to_none() {
        assert_eq!(normalize_parallelism(None), None);
        assert_eq!(normalize_parallelism(Some(0)), None);
        assert_eq!(normalize_parallelism(Some(1)), None);
        assert_eq!(normalize_parallelism(Some(2)), Some(2));
        assert_eq!(normalize_parallelism(Some(64)), Some(64));
    }

    #[test]
    fn env_knob_parses() {
        // Not set in the test environment by default; just exercise the parser
        // logic via the public API shape.
        let _ = parallelism_from_env();
    }
}
