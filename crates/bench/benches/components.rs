//! Component throughput benches: the data structures every experiment
//! rests on.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};

use tifs_bench::{bench_symbols, bench_symbols_large, bench_workload};
use tifs_core::iml::{Iml, ENTRIES_PER_L2_BLOCK};
use tifs_core::{FunctionalTifs, TifsConfig};
use tifs_experiments::harness::walk_core;
use tifs_sequitur::{LceIndex, Sequitur};
use tifs_sim::bpred::HybridPredictor;
use tifs_sim::cache::SetAssocCache;
use tifs_trace::codec::{read_symbol_sections, write_symbol_sections};
use tifs_trace::store::{TraceKey, TraceStore};
use tifs_trace::{Addr, BlockAddr};

fn bench_sequitur(c: &mut Criterion) {
    let symbols = bench_symbols(1_000_000);
    let mut g = c.benchmark_group("sequitur");
    g.throughput(Throughput::Elements(symbols.len() as u64));
    g.sample_size(10);
    g.bench_function("build_grammar", |b| {
        b.iter(|| {
            let mut s = Sequitur::with_capacity(symbols.len());
            s.extend(symbols.iter().copied());
            s.into_grammar().num_rules()
        })
    });
    // A grammar-scale stream (hundreds of ms per build): large enough to
    // sit above the perf gate's 100 ms floor, so regressions in the
    // grammar engine fail `compare_baselines` instead of drowning in
    // timer noise.
    let large = bench_symbols_large(600_000);
    g.throughput(Throughput::Elements(large.len() as u64));
    g.bench_function("build_grammar_large", |b| {
        b.iter(|| {
            let mut s = Sequitur::with_capacity(large.len());
            s.extend(large.iter().copied());
            s.into_grammar().num_rules()
        })
    });
    g.finish();
}

fn bench_suffix(c: &mut Criterion) {
    let symbols = bench_symbols(1_000_000);
    let mut g = c.benchmark_group("suffix");
    g.throughput(Throughput::Elements(symbols.len() as u64));
    g.sample_size(10);
    g.bench_function("lce_index_build", |b| {
        b.iter(|| LceIndex::new(&symbols).len())
    });
    let idx = LceIndex::new(&symbols);
    g.throughput(Throughput::Elements(1));
    g.bench_function("lce_query", |b| {
        let n = symbols.len();
        let mut i = 0usize;
        b.iter(|| {
            i = (i * 31 + 7) % n;
            idx.lce(i, (i * 17 + 3) % n)
        })
    });
    g.finish();
}

fn bench_cache(c: &mut Criterion) {
    let mut g = c.benchmark_group("cache");
    g.throughput(Throughput::Elements(1));
    g.bench_function("l1i_access_insert", |b| {
        let mut cache = SetAssocCache::new(64 * 1024, 2);
        let mut x = 1u64;
        b.iter(|| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let blk = BlockAddr(x % 4096);
            if !cache.access(blk) {
                cache.insert(blk);
            }
        })
    });
    g.finish();
}

fn bench_l2_directory(c: &mut Criterion) {
    // The shared L2 instruction directory at its real geometry (8 MB,
    // 16-way): the structure every instruction-side L2 request probes.
    let mut g = c.benchmark_group("l2dir");
    g.throughput(Throughput::Elements(1));
    g.bench_function("probe_insert", |b| {
        let mut dir = SetAssocCache::new(8 * 1024 * 1024, 16);
        let mut x = 1u64;
        b.iter(|| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            // ~2x the capacity in live blocks: every set stays full, so
            // misses evict — the steady state of a warmed-up run.
            let blk = BlockAddr(x % (256 * 1024));
            if !dir.access(blk) {
                dir.insert(blk);
            }
        })
    });
    g.finish();
}

fn bench_iml(c: &mut Criterion) {
    let mut g = c.benchmark_group("iml");
    g.throughput(Throughput::Elements(1));
    g.bench_function("append_wrapping", |b| {
        // Bounded at the paper's 8K entries/core; appends wrap from the
        // start, exercising the ring's overwrite path.
        let mut iml = Iml::new(Some(8192));
        let mut x = 1u64;
        b.iter(|| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            iml.append(BlockAddr(x % 4096), x & 1 == 0)
        })
    });
    g.bench_function("read_group", |b| {
        let mut iml = Iml::new(Some(8192));
        for i in 0..16_384u64 {
            iml.append(BlockAddr(i % 4096), false);
        }
        let mut x = 1u64;
        b.iter(|| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            // A valid position in the retained window, any alignment.
            let pos = iml.next_pos() - 1 - (x % 8191);
            iml.read_group(pos, ENTRIES_PER_L2_BLOCK).len()
        })
    });
    g.bench_function("append_evict_oldest", |b| {
        // The shared-pool steady state: every append is paired with a
        // globally-triggered eviction.
        let mut iml = Iml::new(None);
        for i in 0..8192u64 {
            iml.append(BlockAddr(i % 4096), false);
        }
        let mut x = 1u64;
        b.iter(|| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            iml.append(BlockAddr(x % 4096), false);
            iml.evict_oldest()
        })
    });
    g.finish();
}

fn bench_bpred(c: &mut Criterion) {
    let mut g = c.benchmark_group("bpred");
    g.throughput(Throughput::Elements(1));
    g.bench_function("hybrid_predict_update", |b| {
        let mut bp = HybridPredictor::table2();
        let mut x = 1u64;
        b.iter(|| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let pc = Addr((x % 16384) << 2);
            let taken = x & 8 != 0;
            let p = bp.predict(pc);
            bp.update(pc, taken);
            p
        })
    });
    g.finish();
}

fn bench_walker(c: &mut Criterion) {
    let w = bench_workload();
    let mut g = c.benchmark_group("walker");
    g.throughput(Throughput::Elements(100_000));
    g.sample_size(20);
    g.bench_function("instructions_100k", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            w.walker(seed as usize % 4).take(100_000).count()
        })
    });
    // The trace analyses' functional pass: runs of plain ops through the
    // Table II L1-I model, with Figure 10's marks.
    g.bench_function("functional_walk_100k", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            walk_core(&w, seed as usize % 4, 100_000).misses.len()
        })
    });
    g.finish();
}

fn bench_functional_tifs(c: &mut Criterion) {
    let trace = bench_miss_trace_local();
    let mut g = c.benchmark_group("tifs");
    g.throughput(Throughput::Elements(trace.len() as u64));
    g.sample_size(20);
    g.bench_function("functional_per_miss", |b| {
        b.iter(|| {
            let mut f = FunctionalTifs::new(1, Some(TifsConfig::DEFAULT_ENTRIES_PER_CORE));
            for &blk in &trace {
                f.process(0, blk);
            }
            f.report().covered
        })
    });
    g.finish();
}

fn bench_trace_store(c: &mut Criterion) {
    // The warm-start path: encode/decode a 1M-instruction miss trace
    // through the store codec, and round-trip it through the filesystem.
    let sections: Vec<Vec<u64>> = vec![bench_miss_trace_local().iter().map(|b| b.0).collect()];
    let mut g = c.benchmark_group("trace_store");
    g.throughput(Throughput::Elements(sections[0].len() as u64));
    g.sample_size(10);
    g.bench_function("encode_miss_trace", |b| {
        b.iter_batched(
            Vec::new,
            |mut buf| {
                write_symbol_sections(&mut buf, 1, &sections).expect("encode");
                buf.len()
            },
            BatchSize::LargeInput,
        )
    });
    let mut encoded = Vec::new();
    write_symbol_sections(&mut encoded, 1, &sections).expect("encode");
    g.bench_function("decode_miss_trace", |b| {
        b.iter(|| {
            read_symbol_sections(&mut encoded.as_slice(), Some(1))
                .expect("decode")
                .len()
        })
    });
    let dir = std::env::temp_dir().join(format!("tifs-bench-store-{}", std::process::id()));
    let store = TraceStore::new(&dir).expect("store dir");
    let key = TraceKey(0xBE7C);
    // Seed the entry unconditionally so store_load works even when a
    // bench filter skips store_save.
    store.save(&key, &sections).expect("seed entry");
    g.bench_function("store_save", |b| {
        b.iter(|| store.save(&key, &sections).expect("save"))
    });
    g.bench_function("store_load", |b| {
        b.iter(|| store.load(&key).expect("load").len())
    });
    let _ = std::fs::remove_dir_all(&dir);
    g.finish();
}

fn bench_miss_trace_local() -> Vec<BlockAddr> {
    tifs_bench::bench_miss_trace(1_000_000)
}

criterion_group!(
    benches,
    bench_sequitur,
    bench_suffix,
    bench_cache,
    bench_l2_directory,
    bench_iml,
    bench_bpred,
    bench_walker,
    bench_trace_store,
    bench_functional_tifs
);
criterion_main!(benches);
