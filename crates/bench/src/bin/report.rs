//! Print every experiment table (the series the repository reproduces in place
//! of the paper's — nonexistent — empirical tables).
//!
//! Usage: `cargo run -p ncql-bench --bin report [--full]`
//!
//! The default run uses small, laptop-friendly parameter sweeps; `--full` uses
//! larger sweeps. The expected shapes are encoded in `ncql_bench::check_shapes`.

use ncql_bench as bench;

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    println!("NCQL experiment report — reproducing Suciu & Breazu-Tannen, \"A Query Language for NC\" (1994)");
    println!("mode: {}\n", if full { "full" } else { "quick" });

    let tables = if full {
        vec![
            bench::e1_parity(&[16, 64, 256, 1024, 4096]),
            bench::e2_transitive_closure(&[8, 16, 32, 64, 96]),
            bench::e3_recursion_translations(&[16, 64, 128, 256]),
            bench::e4_bounded_dcr(&[4, 8, 16, 24]),
            bench::e5_dcr_logloop(&[1, 4, 9, 33, 100, 513, 2048]),
            bench::e6_circuit_depth(&[1, 2, 3], &[4, 8, 16, 32]),
            bench::e7_ptime_vs_nc(&[16, 32, 48], 8),
            bench::e8_bounded_vs_unbounded(&[4, 8, 12, 16, 20], 1 << 14),
            bench::e8b_arithmetic_blowup(&[8, 16, 32, 48]),
            bench::e9_encoding_gadgets(&[2, 4, 8, 16]),
            bench::e10_uniformity(&[2, 3, 4, 5, 6]),
            bench::e11_iteration_nesting(&[3, 7, 16, 33, 100]),
            bench::e12_wellformedness(),
        ]
    } else {
        bench::run_all_quick()
    };

    for table in &tables {
        println!("{table}");
    }

    // E14 (serving latency) runs outside `check_shapes`: wall-clock numbers
    // are machine-dependent, so the gate is only "zero errors" (asserted
    // inside e14_serve_latency). The largest run's summary is persisted to
    // BENCH_serve.json, the same payload the ncql-loadgen binary writes.
    let (serve_table, serve_payload) = if full {
        bench::e14_serve_latency(&[2, 8, 32], 25)
    } else {
        bench::e14_serve_latency(&[2, 8], 10)
    };
    println!("{serve_table}");
    match std::fs::write("BENCH_serve.json", &serve_payload) {
        Ok(()) => println!("wrote BENCH_serve.json\n"),
        Err(e) => eprintln!("could not write BENCH_serve.json: {e}\n"),
    }

    // E15 (columnar set representation) also runs outside `check_shapes`:
    // the ratios are machine-dependent, while the hard invariant — all
    // canonicalization and merge paths produce the identical set — is
    // asserted inside e15_columnar. The measured numbers are persisted to
    // BENCH_columnar.json.
    let (columnar_table, columnar_payload) = if full {
        bench::e15_columnar(&[50_000, 200_000], 16)
    } else {
        bench::e15_columnar(&[20_000, 80_000], 16)
    };
    println!("{columnar_table}");
    match std::fs::write("BENCH_columnar.json", &columnar_payload) {
        Ok(()) => println!("wrote BENCH_columnar.json\n"),
        Err(e) => eprintln!("could not write BENCH_columnar.json: {e}\n"),
    }

    // E16 (compiled row kernels) is wall-clock too: the hard invariant — the
    // kernel and interpreted arms are bit-identical in value and statistics —
    // is asserted inside e16_kernels; the measured speedups are persisted to
    // BENCH_kernel.json.
    let (kernel_table, kernel_payload) = if full {
        bench::e16_kernels(&[50_000, 200_000], 8)
    } else {
        bench::e16_kernels(&[20_000, 80_000], 4)
    };
    println!("{kernel_table}");
    match std::fs::write("BENCH_kernel.json", &kernel_payload) {
        Ok(()) => println!("wrote BENCH_kernel.json\n"),
        Err(e) => eprintln!("could not write BENCH_kernel.json: {e}\n"),
    }

    match bench::check_shapes(&tables) {
        Ok(()) => {
            println!("All qualitative shapes hold (see ncql_bench::check_shapes for the expected shapes).")
        }
        Err(e) => {
            eprintln!("SHAPE CHECK FAILED: {e}");
            std::process::exit(1);
        }
    }
}
