//! Pieces every workload shares: run results, latency percentiles, the
//! oracle sessions, peak memory, and the span recorder of the traced run.

use crate::Args;
use ncql_core::CostStats;
use ncql_engine::{OptLevel, Outcome, PreparedQuery, Session, SessionBuilder};
use ncql_object::{Type, Value};
use std::time::Instant;

/// One named measurement with its unit.
#[derive(Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run reports: the counts of the contract's result line, the
/// metrics, and human-readable notes printed above the result line.
#[derive(Debug, Default)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: Vec<String>,
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
}

impl RunResult {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Record `count` requests that returned the same wrong result (or
    /// failed). The first few are kept verbatim for the report.
    pub fn mismatch(&mut self, count: u64, what: String) {
        self.failed += count;
        if self.mismatches.len() < 8 {
            self.mismatches.push(what);
        }
    }
}

/// The nearest-rank percentile `p` (0 < p < 1) of sorted samples, and the
/// number of samples strictly beyond it.
pub fn percentile(sorted: &[u64], p: f64) -> (u64, usize) {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    (sorted[rank - 1], sorted.len() - rank)
}

/// The timed segments of a run: each segment's throughput and median
/// latency, and every successful request's latency (nanoseconds) pooled.
#[derive(Debug, Default)]
pub struct Segments {
    rates: Vec<f64>,
    p50s_ns: Vec<f64>,
    pooled_ns: Vec<u64>,
    elapsed_s: f64,
}

impl Segments {
    pub fn push(&mut self, mut latencies_ns: Vec<u64>, elapsed_s: f64) {
        latencies_ns.sort_unstable();
        self.rates.push(latencies_ns.len() as f64 / elapsed_s);
        if !latencies_ns.is_empty() {
            self.p50s_ns.push(percentile(&latencies_ns, 0.5).0 as f64);
        }
        self.pooled_ns.extend_from_slice(&latencies_ns);
        self.elapsed_s += elapsed_s;
    }

    pub fn requests(&self) -> usize {
        self.pooled_ns.len()
    }

    /// Successful requests per second over all segments.
    pub fn rate(&self) -> f64 {
        self.requests() as f64 / self.elapsed_s
    }

    /// The end-to-end latency metrics. Throughput and the median latency
    /// are medians over segments, so one disturbed segment cannot move
    /// them; the tail percentile `tail` is taken over all samples, the
    /// highest that keeps at least ten samples beyond it.
    pub fn report(&mut self, result: &mut RunResult, tail: f64) {
        result.metric("req_per_s", median(&self.rates), "1/s");
        if self.pooled_ns.is_empty() {
            result.note("no request succeeded: latency metrics omitted");
            return;
        }
        self.pooled_ns.sort_unstable();
        let (tail_ns, beyond) = percentile(&self.pooled_ns, tail);
        result.metric("latency_p50_ms", median(&self.p50s_ns) / 1e6, "ms");
        result.metric("latency_tail_ms", tail_ns as f64 / 1e6, "ms");
        let rates: Vec<String> = self.rates.iter().map(|r| format!("{r:.1}")).collect();
        result.note(format!("segment req/s: {}", rates.join(" ")));
        result.note(format!(
            "latency_tail_ms is p{} over {} samples ({beyond} beyond it)",
            tail * 100.0,
            self.pooled_ns.len()
        ));
    }
}

/// The median of a non-empty list of measurements.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What a request must return: its value, its printed type, and its cost.
#[derive(Debug, Clone)]
pub struct Expected {
    pub value: Value,
    pub ty: String,
    pub stats: CostStats,
}

/// The independent correctness oracle: the sequential interpreter with row
/// kernels off. `semantics` runs without the optimizer and is the value of
/// record. The optimizer may legitimately lower `CostStats`, so the expected
/// cost comes from `cost`, the same interpreter at the measured opt level.
pub struct Oracle {
    pub semantics: Session,
    pub cost: Session,
}

impl Oracle {
    pub fn new() -> Oracle {
        let reference = || SessionBuilder::new().parallelism(None).row_kernels(false);
        Oracle {
            semantics: reference().opt_level(OptLevel::None).build(),
            cost: reference().opt_level(OptLevel::Default).build(),
        }
    }

    /// Prepare and run surface `text` with `bindings` on both oracle
    /// sessions.
    pub fn expect_text(
        &self,
        text: &str,
        schema: &[(String, Type)],
        bindings: &[(String, Value)],
    ) -> Result<Expected, String> {
        self.expect(
            |session| session.prepare_with_schema(text, schema),
            bindings,
        )
        .map_err(|e| format!("`{text}`: {e}"))
    }

    /// Prepare a query on both oracle sessions with `prepare` and run it
    /// with `bindings`; the two must agree on the value.
    pub fn expect(
        &self,
        prepare: impl Fn(&Session) -> Result<PreparedQuery, ncql_engine::Error>,
        bindings: &[(String, Value)],
    ) -> Result<Expected, String> {
        let run = |session: &Session| {
            let plan = prepare(session).map_err(|e| format!("oracle cannot prepare: {e}"))?;
            let outcome = session
                .execute_with_bindings(&plan, bindings)
                .map_err(|e| format!("oracle cannot execute: {e}"))?;
            Ok::<_, String>((plan.ty().to_string(), outcome))
        };
        let (ty, of_record) = run(&self.semantics)?;
        let (_, costed) = run(&self.cost)?;
        if costed.value != of_record.value {
            return Err("the optimized oracle disagrees on the value".to_string());
        }
        Ok(Expected {
            value: of_record.value,
            ty,
            stats: costed.stats,
        })
    }
}

/// Requests whose spans a traced run writes out; a fast workload records
/// tens of thousands, and the file would grow to tens of megabytes.
const WRITTEN_REQUESTS: u64 = 10_000;

/// One recorded span of the traced run.
#[derive(Debug)]
struct Span {
    name: &'static str,
    request: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// An in-memory span recorder. Spans nest through an explicit stack; all
/// spans of one request share its id. Nothing is written until the run ends.
pub struct Tracer {
    origin: Instant,
    request: u64,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            request: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn set_request(&mut self, request: u64) {
        assert!(self.stack.is_empty(), "request switched inside a span");
        self.request = request;
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) -> usize {
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            request: self.request,
            parent: self.stack.last().copied(),
            start_ns: self.now(),
            end_ns: 0,
        });
        self.stack.push(index);
        index
    }

    pub fn exit(&mut self, index: usize) -> u64 {
        let top = self.stack.pop();
        assert_eq!(top, Some(index), "spans must close in nesting order");
        let end = self.now();
        let span = &mut self.spans[index];
        span.end_ns = end;
        end - span.start_ns
    }

    /// Run `f` inside a span named `name`; returns its result and the
    /// span's duration in nanoseconds.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
        let index = self.enter(name);
        let out = std::hint::black_box(f());
        let ns = self.exit(index);
        (out, ns)
    }

    /// Per span name: (count, total ns, self ns), where self time is a span's
    /// duration minus that of its children. Sorted by name.
    pub fn summary(&self) -> Vec<(&'static str, u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut by_name: std::collections::BTreeMap<&'static str, (u64, u64, u64)> =
            Default::default();
        for (i, span) in self.spans.iter().enumerate() {
            let total = span.end_ns - span.start_ns;
            let entry = by_name.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += total;
            entry.2 += total.saturating_sub(child_ns[i]);
        }
        by_name
            .into_iter()
            .map(|(name, (count, total, own))| (name, count, total, own))
            .collect()
    }

    /// Write the spans of the first `WRITTEN_REQUESTS` requests, one JSON
    /// line each, to `path`. The summary covers every span.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let written = self
            .spans
            .iter()
            .take_while(|s| s.request < WRITTEN_REQUESTS);
        for (i, s) in written.enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"request\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.request, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Running sums of per-request layer measurements, keyed by metric name.
#[derive(Debug, Default)]
pub struct Layers {
    sums: std::collections::BTreeMap<&'static str, (f64, u64)>,
}

impl Layers {
    pub fn add(&mut self, name: &'static str, value: f64) {
        let entry = self.sums.entry(name).or_default();
        entry.0 += value;
        entry.1 += 1;
    }

    /// Mean over the requests that recorded `name`; 0 when none did.
    pub fn mean(&self, name: &str) -> f64 {
        self.sums
            .get(name)
            .map_or(0.0, |&(sum, n)| if n == 0 { 0.0 } else { sum / n as f64 })
    }

    pub fn total(&self, name: &str) -> f64 {
        self.sums.get(name).map_or(0.0, |&(sum, _)| sum)
    }
}

/// A snapshot of the process-wide kernel and columnar counters, taken
/// before a traced request so the request can record its own deltas.
pub struct Counters {
    kernels: ncql_engine::KernelStats,
    columnar: ncql_engine::ColumnarStats,
}

impl Counters {
    pub fn snapshot() -> Counters {
        Counters {
            kernels: ncql_engine::kernel_stats(),
            columnar: ncql_engine::columnar_stats(),
        }
    }

    /// Record the counter deltas since the snapshot, and the outcome's cost
    /// and result size.
    pub fn record(&self, layers: &mut Layers, outcome: &Outcome) {
        let (kernels, columnar) = (ncql_engine::kernel_stats(), ncql_engine::columnar_stats());
        let delta = |after: u64, before: u64| (after - before) as f64;
        layers.add("core.work", outcome.stats.work as f64);
        layers.add("core.span", outcome.stats.span as f64);
        layers.add(
            "core.kernel_ext_hits",
            delta(kernels.ext_hits, self.kernels.ext_hits),
        );
        layers.add("core.kernel_rows", delta(kernels.rows, self.kernels.rows));
        layers.add(
            "core.kernel_fallbacks",
            delta(kernels.fallbacks, self.kernels.fallbacks),
        );
        layers.add(
            "object.columnar_promotions",
            delta(columnar.promotions, self.columnar.promotions),
        );
        layers.add(
            "object.columnar_demotions",
            delta(columnar.demotions, self.columnar.demotions),
        );
        let rows = outcome.value.as_set().map_or(0, |set| set.len());
        layers.add("object.result_rows", rows as f64);
    }
}

/// Close a traced run: the tracing-overhead metrics, the span summary, and
/// the spans written to `.bench_out/`.
pub fn finish_trace(
    args: &Args,
    tracer: &Tracer,
    traced_rate: f64,
    untraced_rate: f64,
    result: &mut RunResult,
    layers: &mut Layers,
) -> Result<(), String> {
    layers.add("trace.req_per_s", traced_rate);
    layers.add("trace.untraced_req_per_s", untraced_rate);
    layers.add("trace.overhead_ratio", untraced_rate / traced_rate);
    layers.add("pram.live_workers", ncql_pram::live_pool_workers() as f64);
    result.note("span summary (name, count, mean us, mean self us):");
    for (name, count, total, own) in tracer.summary() {
        result.note(format!(
            "  {name:<22} {count:>8} {:>12.2} {:>12.2}",
            total as f64 / count as f64 / 1e3,
            own as f64 / count as f64 / 1e3
        ));
    }
    let path = std::path::PathBuf::from(".bench_out")
        .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
    tracer
        .write(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    result.note(format!(
        "spans of the first {WRITTEN_REQUESTS} requests written to {}",
        path.display()
    ));
    Ok(())
}

/// Every per-layer metric of a traced run with its unit, as listed in
/// BENCHMARK.json. A metric a workload does not exercise reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("serve.round_trip_us", "us"),
    ("serve.json_parse_us", "us"),
    ("serve.decode_us", "us"),
    ("serve.encode_us", "us"),
    ("serve.print_us", "us"),
    ("serve.remainder_us", "us"),
    ("serve.decode_share", "ratio"),
    ("serve.encode_share", "ratio"),
    ("serve.execute_share", "ratio"),
    ("serve.request_bytes", "bytes"),
    ("serve.response_bytes", "bytes"),
    ("serve.busy_retries", "count"),
    ("engine.prepare_miss_us", "us"),
    ("engine.prepare_hit_us", "us"),
    ("engine.cache_hit_ratio", "ratio"),
    ("engine.cache_evictions", "count"),
    ("engine.execute_us", "us"),
    ("surface.parse_us", "us"),
    ("surface.print_us", "us"),
    ("core.typecheck_us", "us"),
    ("core.analyze_us", "us"),
    ("core.rewrite_us", "us"),
    ("core.kernel_sites_us", "us"),
    ("core.work", "count"),
    ("core.span", "count"),
    ("core.kernel_ext_hits", "count"),
    ("core.kernel_rows", "count"),
    ("core.kernel_fallbacks", "count"),
    ("core.kernel_hit_ratio", "ratio"),
    ("object.canon_us", "us"),
    ("object.columnar_promotions", "count"),
    ("object.columnar_demotions", "count"),
    ("object.result_rows", "count"),
    ("pram.exec_seq_us", "us"),
    ("pram.par_speedup", "ratio"),
    ("pram.live_workers", "count"),
    ("trace.req_per_s", "1/s"),
    ("trace.untraced_req_per_s", "1/s"),
    ("trace.overhead_ratio", "ratio"),
];

/// Report every per-layer metric: the per-request means the traced run
/// recorded, plus the ratios derived from them.
pub fn emit_layers(result: &mut RunResult, layers: &mut Layers) {
    let ratio = |part: f64, whole: f64| if whole > 0.0 { part / whole } else { 0.0 };
    let rtt = layers.mean("serve.round_trip_us");
    let decode = layers.mean("serve.decode_us");
    let encode = layers.mean("serve.encode_us") + layers.mean("serve.print_us");
    let execute = layers.mean("engine.execute_us");
    let hits = layers.total("core.kernel_ext_hits");
    let attempts = hits + layers.total("core.kernel_fallbacks");
    let sequential = layers.mean("pram.exec_seq_us");
    layers.add("serve.decode_share", ratio(decode, rtt));
    layers.add("serve.encode_share", ratio(encode, rtt));
    layers.add("serve.execute_share", ratio(execute, rtt));
    layers.add("core.kernel_hit_ratio", ratio(hits, attempts));
    layers.add("pram.par_speedup", ratio(sequential, execute));
    for &(name, unit) in PER_LAYER {
        result.metric(name, layers.mean(name), unit);
    }
}
