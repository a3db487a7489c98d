//! Microbenchmarks for the RPC stack: the wire codec (the code whose
//! cycles Fig. 20's serialization tax measures) and the cost model.

use bytes::Bytes;
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rpclens_rpcstack::codec::{crc32, decode_frame, encode_frame, Flags, RpcFrame, RpcHeader};
use rpclens_rpcstack::cost::{MessageClass, StackCostConfig, StackCostModel};

fn frame(payload_len: usize) -> RpcFrame {
    RpcFrame {
        header: RpcHeader {
            method_id: 1234,
            trace_id: 0xDEAD_BEEF,
            span_id: 7,
            parent_span_id: 3,
            deadline_ns: 5_000_000_000,
            flags: Flags::default().with(Flags::COMPRESSED),
        },
        payload: Bytes::from(vec![0xA5u8; payload_len]),
    }
}

fn bench_codec(c: &mut Criterion) {
    let mut g = c.benchmark_group("codec");
    for size in [64usize, 1500, 32 * 1024] {
        g.throughput(Throughput::Bytes(size as u64));
        let f = frame(size);
        g.bench_with_input(BenchmarkId::new("encode", size), &f, |b, f| {
            b.iter(|| black_box(encode_frame(f)))
        });
        let encoded = encode_frame(&f);
        g.bench_with_input(BenchmarkId::new("decode", size), &encoded, |b, e| {
            b.iter(|| black_box(decode_frame(e).expect("valid frame")))
        });
    }
    g.finish();
}

fn bench_crc(c: &mut Criterion) {
    let mut g = c.benchmark_group("crc32");
    for size in [64usize, 4096, 65_536] {
        g.throughput(Throughput::Bytes(size as u64));
        let data = vec![0x5Au8; size];
        g.bench_with_input(BenchmarkId::from_parameter(size), &data, |b, d| {
            b.iter(|| black_box(crc32(d)))
        });
    }
    g.finish();
}

fn bench_cost_model(c: &mut Criterion) {
    let model = StackCostModel::new(StackCostConfig::default());
    let mut g = c.benchmark_group("cost_model");
    g.throughput(Throughput::Elements(1));
    g.bench_function("message_cost_32k", |b| {
        b.iter(|| black_box(model.message_cost(32 * 1024, true, true)))
    });
    g.bench_function("stack_latency_1k", |b| {
        b.iter(|| black_box(model.stack_latency(1024, MessageClass::structured(), 1.0)))
    });
    g.finish();
}

criterion_group!(benches, bench_codec, bench_crc, bench_cost_model);
criterion_main!(benches);
