//! **Decode bench** — throughput of the runtime-dispatched decode engine:
//! the active SIMD tier vs the batched-scalar engine vs the old
//! per-element getter, the fused FOR add vs a decode-then-add second pass,
//! and the fused decode+filter sweep vs unpack-then-compare. Prints
//! values/sec and decoded GB/s per width and seeds the repo's decode perf
//! trajectory: CI's `perf-smoke` job runs it in quick mode, gates the
//! 8/12/16-bit speedups (and the SIMD tier's at 11/13/17/25 bits), and
//! uploads `BENCH_decode.json` as a workflow artifact. The resolved kernel
//! tier lands in the JSON (`"kernel"`), so breadcrumbs are attributable
//! across machines.
//!
//! ```sh
//! cargo run --release -p corra-bench --bin decode_bench               # full
//! cargo run --release -p corra-bench --bin decode_bench -- --quick --json
//! cargo run --release -p corra-bench --bin decode_bench -- --quick \
//!     --min-speedup 2.0 --min-simd-speedup 1.5
//! CORRA_DECODE_VALUES=8000000 cargo run --release -p corra-bench --bin decode_bench
//! CORRA_DECODE_KERNEL=scalar cargo run --release -p corra-bench --bin decode_bench
//! ```

use corra_bench::{scalar_unpack_into, width_payload};
use corra_columnar::bitpack::BitPackedVec;
use corra_columnar::simd;
use std::time::Instant;

/// Best-of-`reps` wall time. Throughput kernels only ever measure *slower*
/// under interference (scheduler steal, SMT neighbors), so the minimum is
/// the robust estimator on shared CI runners — medians still carry
/// millisecond-scale steal spikes.
fn best_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Bit widths measured; 8/12/16 are the acceptance-gated hot widths (dict
/// codes, dates, IDs), 11/13/17/25 the taxi table's odd widths (`tip_amount`,
/// `fare_amount`, the `dropoff` diffs, `pickup`), the rest cover dividing,
/// straddling and full widths.
const WIDTHS: &[u8] = &[1, 2, 4, 8, 11, 12, 13, 16, 17, 20, 24, 25, 32, 48, 64];

/// Widths the `--min-speedup` gate applies to: the hot widths, where the
/// batched engine beats the per-element getter on every tier.
const GATED_WIDTHS: &[u8] = &[8, 12, 16];

/// Widths the `--min-simd-speedup` gates apply to: the hot widths plus
/// taxi's odd widths, which only the SIMD tier decodes faster than the
/// getter (the scalar engine runs them at about getter speed).
const SIMD_GATED_WIDTHS: &[u8] = &[8, 11, 12, 13, 16, 17, 25];

struct DecodeRow {
    bits: u8,
    /// Old scalar path (per-element getter), seconds.
    old_secs: f64,
    /// Active-tier batched kernel (SIMD when available), seconds.
    new_secs: f64,
    /// Batched-scalar engine forced via the kernel table, seconds.
    scalar_batched_secs: f64,
    /// Fused unpack+add, seconds (vs `old_add_secs` two-pass).
    fused_secs: f64,
    old_add_secs: f64,
    /// Fused decode+filter sweep, seconds (vs `two_pass_filter_secs`).
    fused_filter_secs: f64,
    two_pass_filter_secs: f64,
    values: usize,
}

impl DecodeRow {
    fn old_vps(&self) -> f64 {
        self.values as f64 / self.old_secs.max(f64::MIN_POSITIVE)
    }

    fn new_vps(&self) -> f64 {
        self.values as f64 / self.new_secs.max(f64::MIN_POSITIVE)
    }

    /// Decoded output bytes per second (8 bytes per value) of the active
    /// tier — the GB/s series.
    fn decoded_bps(&self) -> f64 {
        self.values as f64 * 8.0 / self.new_secs.max(f64::MIN_POSITIVE)
    }

    fn speedup(&self) -> f64 {
        self.old_secs / self.new_secs.max(f64::MIN_POSITIVE)
    }

    /// Active tier vs the batched-scalar engine (1.0 when scalar is active).
    fn simd_speedup(&self) -> f64 {
        self.scalar_batched_secs / self.new_secs.max(f64::MIN_POSITIVE)
    }

    fn fused_speedup(&self) -> f64 {
        self.old_add_secs / self.fused_secs.max(f64::MIN_POSITIVE)
    }

    fn fused_filter_speedup(&self) -> f64 {
        self.two_pass_filter_secs / self.fused_filter_secs.max(f64::MIN_POSITIVE)
    }
}

impl serde::Serialize for DecodeRow {
    fn to_value(&self) -> serde::Value {
        serde_json::json!({
            "bits": self.bits as u64,
            "values": self.values,
            "old_secs": self.old_secs,
            "new_secs": self.new_secs,
            "old_values_per_sec": self.old_vps(),
            "new_values_per_sec": self.new_vps(),
            "decoded_bytes_per_sec": self.decoded_bps(),
            "speedup": self.speedup(),
            "scalar_batched_secs": self.scalar_batched_secs,
            "simd_speedup": self.simd_speedup(),
            "fused_add_secs": self.fused_secs,
            "two_pass_add_secs": self.old_add_secs,
            "fused_add_speedup": self.fused_speedup(),
            "fused_filter_secs": self.fused_filter_secs,
            "two_pass_filter_secs": self.two_pass_filter_secs,
            "filtered_values_per_sec":
                self.values as f64 / self.fused_filter_secs.max(f64::MIN_POSITIVE),
            "fused_filter_speedup": self.fused_filter_speedup(),
        })
    }
}

fn bench_width(bits: u8, n: usize, reps: usize, iters: usize) -> DecodeRow {
    let scale = 1.0 / iters as f64;
    let values = width_payload(bits, n);
    let packed = BitPackedVec::pack(&values, bits).expect("pack");
    let base = 8_035i64;
    // Mid-selectivity interval inside the packed domain for the filter legs.
    let mask = if bits == 0 {
        0
    } else {
        u64::MAX >> (64 - bits as u32)
    };
    let (f_lo, f_hi) = (mask / 4, mask / 2);

    // Parity safety net: the bench never times a wrong kernel.
    let mut new_out = Vec::new();
    packed.unpack_into(&mut new_out);
    let mut old_out = Vec::new();
    scalar_unpack_into(&packed, &mut old_out);
    assert_eq!(new_out, old_out, "batched kernel diverged at width {bits}");
    let mut fused_sel = Vec::new();
    packed.filter_range_into(f_lo, f_hi, false, &mut fused_sel);
    let naive_sel: Vec<u32> = old_out
        .iter()
        .enumerate()
        .filter(|&(_, &v)| v >= f_lo && v <= f_hi)
        .map(|(i, _)| i as u32)
        .collect();
    assert_eq!(
        fused_sel, naive_sel,
        "fused filter diverged at width {bits}"
    );

    let old_secs = scale
        * best_secs(reps, || {
            for _ in 0..iters {
                scalar_unpack_into(&packed, &mut old_out);
                std::hint::black_box(&old_out);
            }
        });
    let new_secs = scale
        * best_secs(reps, || {
            for _ in 0..iters {
                packed.unpack_into(&mut new_out);
                std::hint::black_box(&new_out);
            }
        });
    let mut scalar_out = Vec::new();
    let scalar_batched_secs = scale
        * best_secs(reps, || {
            for _ in 0..iters {
                packed.unpack_into_with(simd::scalar(), &mut scalar_out);
                std::hint::black_box(&scalar_out);
            }
        });
    // FOR decode: fused single pass vs unpack then add (the old shape).
    let mut fused = Vec::new();
    let fused_secs = scale
        * best_secs(reps, || {
            for _ in 0..iters {
                packed.unpack_add_into(base, &mut fused);
                std::hint::black_box(&fused);
            }
        });
    let mut scratch = Vec::new();
    let mut added = Vec::new();
    let old_add_secs = scale
        * best_secs(reps, || {
            for _ in 0..iters {
                scalar_unpack_into(&packed, &mut scratch);
                added.clear();
                added.extend(scratch.iter().map(|&v| base.wrapping_add(v as i64)));
                std::hint::black_box(&added);
            }
        });
    // Cold-scan filter: one fused decode+compare sweep vs materializing the
    // column (batched, active tier) and comparing in a second pass.
    let fused_filter_secs = scale
        * best_secs(reps, || {
            for _ in 0..iters {
                fused_sel.clear();
                packed.filter_range_into(f_lo, f_hi, false, &mut fused_sel);
                std::hint::black_box(&fused_sel);
            }
        });
    let mut mat = Vec::new();
    let mut two_pass_sel = Vec::new();
    let two_pass_filter_secs = scale
        * best_secs(reps, || {
            for _ in 0..iters {
                packed.unpack_into(&mut mat);
                two_pass_sel.clear();
                for (i, &v) in mat.iter().enumerate() {
                    if v >= f_lo && v <= f_hi {
                        two_pass_sel.push(i as u32);
                    }
                }
                std::hint::black_box(&two_pass_sel);
            }
        });

    DecodeRow {
        bits,
        old_secs,
        new_secs,
        scalar_batched_secs,
        fused_secs,
        old_add_secs,
        fused_filter_secs,
        two_pass_filter_secs,
        values: n,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let json = args.iter().any(|a| a == "--json");
    let flag = |name: &str| -> Option<f64> {
        args.iter()
            .position(|a| a == name)
            .and_then(|k| args.get(k + 1))
            .and_then(|s| s.parse().ok())
    };
    let min_speedup = flag("--min-speedup");
    let min_simd_speedup = flag("--min-simd-speedup");
    // Quick mode stays cache-resident (the gate measures kernel
    // throughput, not the machine's store bandwidth): a small L1-sized
    // working set looped enough times that each timed rep is far above
    // clock granularity. Full mode keeps one big streaming pass — the
    // memory-bound trajectory.
    let n: usize = std::env::var("CORRA_DECODE_VALUES")
        .ok()
        .and_then(|s| s.replace('_', "").parse().ok())
        .unwrap_or(if quick { 4_096 } else { 4_000_000 });
    let iters = if quick {
        (2_097_152 / n.max(1)).max(1)
    } else {
        1
    };
    let reps = 9;
    let kernel = simd::active().tier.as_str();
    println!(
        "Decode bench at {n} values/width x {iters} iters, {reps} reps (quick={quick}, kernel={kernel})"
    );

    let rows: Vec<DecodeRow> = WIDTHS
        .iter()
        .map(|&b| bench_width(b, n, reps, iters))
        .collect();

    println!(
        "\n{:>5} {:>12} {:>12} {:>12} {:>8} {:>8} {:>9} {:>10} {:>10}",
        "bits",
        "old v/s",
        "scalar v/s",
        "simd v/s",
        "GB/s",
        "simd x",
        "fused x",
        "filt v/s",
        "filt x"
    );
    for r in &rows {
        println!(
            "{:>5} {:>11.1}M {:>11.1}M {:>11.1}M {:>7.2} {:>7.2}x {:>8.2}x {:>9.1}M {:>9.2}x",
            r.bits,
            r.old_vps() / 1e6,
            r.values as f64 / r.scalar_batched_secs.max(f64::MIN_POSITIVE) / 1e6,
            r.new_vps() / 1e6,
            r.decoded_bps() / 1e9,
            r.simd_speedup(),
            r.fused_speedup(),
            r.values as f64 / r.fused_filter_secs.max(f64::MIN_POSITIVE) / 1e6,
            r.fused_filter_speedup(),
        );
    }

    if json {
        let doc = serde_json::json!({
            "bench": "decode",
            "kernel": kernel,
            "values_per_width": n,
            "iters": iters,
            "reps": reps,
            "quick": quick,
            "series": serde::Value::Array(
                rows.iter().map(serde::Serialize::to_value).collect()
            ),
        });
        let path = "BENCH_decode.json";
        let body = serde_json::to_string(&doc).expect("serialize");
        std::fs::write(path, &body).expect("write BENCH_decode.json");
        println!("\nwrote {path} ({} bytes)", body.len());
    }

    let mut failed = false;
    if let Some(min) = min_speedup {
        for r in rows.iter().filter(|r| GATED_WIDTHS.contains(&r.bits)) {
            let ok = r.speedup() >= min;
            println!(
                "gate: {}-bit unpack speedup {:.2}x (>= {min:.2}x) {}",
                r.bits,
                r.speedup(),
                if ok { "OK" } else { "FAIL" }
            );
            failed |= !ok;
        }
    }
    // The SIMD gates only bind when a SIMD tier resolved: on scalar-only
    // hosts (or under CORRA_DECODE_KERNEL=scalar) they are informational,
    // so the fallback path keeps CI green everywhere.
    if let Some(min) = min_simd_speedup {
        let binding = kernel != "scalar";
        for r in rows.iter().filter(|r| SIMD_GATED_WIDTHS.contains(&r.bits)) {
            let ok = !binding || r.simd_speedup() >= min;
            println!(
                "gate: {}-bit simd-vs-batched-scalar {:.2}x (>= {min:.2}x, kernel={kernel}) {}",
                r.bits,
                r.simd_speedup(),
                if ok { "OK" } else { "FAIL" }
            );
            failed |= !ok;
            // 5% jitter allowance: at mid selectivity both sides are
            // dominated by the same position-emit loop, so the ratio sits
            // near its floor of 1 and wobbles with scheduler noise.
            let fok = !binding || r.fused_filter_speedup() >= 0.95;
            println!(
                "gate: {}-bit fused-filter-vs-two-pass {:.2}x (>= 0.95x, kernel={kernel}) {}",
                r.bits,
                r.fused_filter_speedup(),
                if fok { "OK" } else { "FAIL" }
            );
            failed |= !fok;
        }
    }
    if failed {
        eprintln!("decode speedup gate failed");
        std::process::exit(1);
    }
}
