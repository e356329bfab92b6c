//! Criterion micro-benchmarks for the encoding kernels: bit-packing,
//! vertical schemes, and Corra's horizontal schemes (encode + full decode
//! throughput at block scale).

use corra_columnar::bitpack::BitPackedVec;
use corra_core::{HierInt, MultiRefInt, NonHierInt};
use corra_datagen::{LineitemDates, TaxiParams, TaxiTable};
use corra_encodings::{DeltaInt, DictInt, ForInt, IntAccess, RleInt};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

const N: usize = 1_000_000;

fn bitpack_benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("bitpack");
    group.throughput(Throughput::Elements(N as u64));
    for bits in [5u8, 12, 27] {
        let mask = (1u64 << bits) - 1;
        let values: Vec<u64> = (0..N as u64)
            .map(|i| i.wrapping_mul(0x9E3779B97F4A7C15) & mask)
            .collect();
        group.bench_with_input(BenchmarkId::new("pack", bits), &values, |b, v| {
            b.iter(|| BitPackedVec::pack(v, bits).unwrap());
        });
        let packed = BitPackedVec::pack(&values, bits).unwrap();
        group.bench_with_input(BenchmarkId::new("unpack", bits), &packed, |b, p| {
            let mut out = Vec::with_capacity(N);
            b.iter(|| p.unpack_into(&mut out));
        });
        group.bench_with_input(BenchmarkId::new("random_get", bits), &packed, |b, p| {
            let mut i = 0usize;
            b.iter(|| {
                i = (i.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1)) % N;
                std::hint::black_box(p.get(i))
            });
        });
    }
    group.finish();
}

fn vertical_benches(c: &mut Criterion) {
    let dates = LineitemDates::generate(N, 42);
    let mut group = c.benchmark_group("vertical_encode");
    group.throughput(Throughput::Elements(N as u64));
    group.bench_function("for", |b| b.iter(|| ForInt::encode(&dates.shipdate)));
    group.bench_function("dict", |b| b.iter(|| DictInt::encode(&dates.shipdate)));
    group.bench_function("rle", |b| b.iter(|| RleInt::encode(&dates.shipdate)));
    group.bench_function("delta", |b| b.iter(|| DeltaInt::encode(&dates.shipdate)));
    group.finish();

    let mut group = c.benchmark_group("vertical_decode");
    group.throughput(Throughput::Elements(N as u64));
    let ffor = ForInt::encode(&dates.shipdate);
    let dict = DictInt::encode(&dates.shipdate);
    let mut out = Vec::with_capacity(N);
    group.bench_function("for", |b| b.iter(|| ffor.decode_into(&mut out)));
    group.bench_function("dict", |b| b.iter(|| dict.decode_into(&mut out)));
    group.finish();
}

fn corra_benches(c: &mut Criterion) {
    let dates = LineitemDates::generate(N, 42);
    let taxi = TaxiTable::generate(
        TaxiParams {
            rows: N,
            ..Default::default()
        },
        23,
    );
    let group_sums: Vec<Vec<i64>> = taxi.group_sums().into_iter().collect();

    let mut group = c.benchmark_group("corra_encode");
    group.throughput(Throughput::Elements(N as u64));
    group.bench_function("nonhier", |b| {
        b.iter(|| NonHierInt::encode(&dates.receiptdate, &dates.shipdate).unwrap());
    });
    let parent_codes: Vec<u32> = taxi.total_amount.iter().map(|&t| (t % 97) as u32).collect();
    group.bench_function("hier", |b| {
        b.iter(|| HierInt::encode(&taxi.fare_amount, &parent_codes, 97).unwrap());
    });
    group.bench_function("multiref", |b| {
        b.iter(|| MultiRefInt::encode(&taxi.total_amount, &group_sums, 2).unwrap());
    });
    group.finish();

    let mut group = c.benchmark_group("corra_decode");
    group.throughput(Throughput::Elements(N as u64));
    let nonhier = NonHierInt::encode(&dates.receiptdate, &dates.shipdate).unwrap();
    let hier = HierInt::encode(&taxi.fare_amount, &parent_codes, 97).unwrap();
    let multiref = MultiRefInt::encode(&taxi.total_amount, &group_sums, 2).unwrap();
    let mut out = vec![0; N];
    group.bench_function("nonhier", |b| {
        b.iter(|| nonhier.decode_into(&dates.shipdate, &mut out).unwrap());
    });
    group.bench_function("hier", |b| {
        b.iter(|| hier.decode_into(&parent_codes, &mut out).unwrap());
    });
    group.bench_function("multiref", |b| {
        b.iter(|| multiref.decode_into(&group_sums, &mut out).unwrap());
    });
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bitpack_benches, vertical_benches, corra_benches
);
criterion_main!(benches);
