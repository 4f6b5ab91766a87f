//! Property-based tests for the simulator substrate: cache invariants and
//! L2 timing monotonicity.

use proptest::prelude::*;
use tifs_sim::cache::SetAssocCache;
use tifs_sim::config::SystemConfig;
use tifs_sim::l2::{L2ReqKind, L2Stats, L2};
use tifs_sim::stats::{CoreStats, ReportCodecError, SimReport};
use tifs_trace::BlockAddr;

proptest! {
    #[test]
    fn cache_capacity_and_membership(ops in prop::collection::vec((0u64..256, any::<bool>()), 0..500)) {
        // 16 blocks, 2-way.
        let mut cache = SetAssocCache::new(1024, 2);
        let mut inserted = std::collections::HashSet::new();
        for (b, is_insert) in ops {
            let block = BlockAddr(b);
            if is_insert {
                cache.insert(block);
                inserted.insert(b);
            } else if cache.access(block) {
                // A hit must be a block we actually inserted.
                prop_assert!(inserted.contains(&b), "phantom block {b}");
            }
            prop_assert!(cache.len() <= 16);
        }
        let (ins, ev) = cache.churn();
        prop_assert_eq!(ins - ev, cache.len() as u64);
    }

    #[test]
    fn cache_insert_makes_resident(blocks in prop::collection::vec(0u64..1024, 1..100)) {
        let mut cache = SetAssocCache::new(64 * 1024, 2);
        for &b in &blocks {
            cache.insert(BlockAddr(b));
            prop_assert!(cache.peek(BlockAddr(b)), "freshly inserted block must be resident");
        }
    }

    #[test]
    fn l2_ready_times_never_precede_latency(
        reqs in prop::collection::vec((0u64..4096, 0u64..8), 1..200),
    ) {
        let cfg = SystemConfig::table2();
        let mut l2 = L2::new(&cfg);
        let mut now = 0u64;
        for (block, gap) in reqs {
            now += gap;
            if let Some(resp) = l2.request(now, BlockAddr(block), L2ReqKind::IFetch, None) {
                prop_assert!(
                    resp.ready >= now + cfg.l2_latency,
                    "ready {} before minimum latency at {}",
                    resp.ready,
                    now
                );
                if !resp.hit {
                    prop_assert!(resp.ready >= now + cfg.l2_latency + cfg.mem_latency);
                }
            }
        }
    }

    #[test]
    fn l2_second_touch_hits(block in 0u64..100_000) {
        let mut l2 = L2::new(&SystemConfig::table2());
        let first = l2.request(0, BlockAddr(block), L2ReqKind::IFetch, None).unwrap();
        prop_assert!(!first.hit);
        let second = l2.request(10_000, BlockAddr(block), L2ReqKind::IFetch, None).unwrap();
        prop_assert!(second.hit);
        prop_assert!(second.ready < first.ready + 10_000);
    }

    #[test]
    fn l2_traffic_accounting_sums(kinds in prop::collection::vec(0usize..6, 0..100)) {
        let mut l2 = L2::new(&SystemConfig::table2());
        let mut now = 0;
        for (i, k) in kinds.iter().enumerate() {
            let kind = L2ReqKind::ALL[*k];
            let forced = matches!(kind, L2ReqKind::Data).then_some(true);
            let _ = l2.request(now, BlockAddr(i as u64), kind, forced);
            now += 100; // avoid MSHR exhaustion
        }
        let total: u64 = L2ReqKind::ALL.iter().map(|&k| l2.stats().of(k)).sum();
        prop_assert_eq!(total, kinds.len() as u64);
        prop_assert!(l2.stats().base_traffic() + l2.stats().iml_traffic() == total);
    }

    #[test]
    fn report_codec_roundtrips_arbitrary_reports(
        core_words in prop::collection::vec(
            prop::collection::vec(any::<u64>(), 13..14),
            0..5,
        ),
        l2_words in prop::collection::vec(any::<u64>(), 13..14),
        cycles in any::<u64>(),
        counters in prop::collection::vec(
            (prop::collection::vec(any::<u8>(), 0..12), any::<u64>()),
            0..5,
        ),
    ) {
        let report = arbitrary_report(&core_words, &l2_words, cycles, &counters);
        let bytes = report.to_canonical_bytes();
        let back = SimReport::from_canonical_bytes(&bytes).expect("decode");
        // Byte-level comparison survives NaN counter values (a float's
        // exact bit pattern round-trips even where `==` cannot see it).
        prop_assert_eq!(back.to_canonical_bytes(), bytes);
        prop_assert_eq!(back.cores.len(), report.cores.len());
        prop_assert_eq!(back.cores, report.cores);
        prop_assert_eq!(back.l2, report.l2);
    }

    #[test]
    fn report_codec_rejects_any_truncation(
        core_words in prop::collection::vec(
            prop::collection::vec(any::<u64>(), 13..14),
            0..5,
        ),
        l2_words in prop::collection::vec(any::<u64>(), 13..14),
        cycles in any::<u64>(),
        counters in prop::collection::vec(
            (prop::collection::vec(any::<u8>(), 0..12), any::<u64>()),
            0..5,
        ),
        cut_seed in any::<u64>(),
        trailing in 1usize..5,
    ) {
        let report = arbitrary_report(&core_words, &l2_words, cycles, &counters);
        let bytes = report.to_canonical_bytes();
        let cut = (cut_seed % bytes.len() as u64) as usize;
        prop_assert_eq!(
            SimReport::from_canonical_bytes(&bytes[..cut]),
            Err(ReportCodecError::Truncated),
            "prefix of {} / {} bytes must not decode",
            cut,
            bytes.len()
        );
        let mut padded = bytes.clone();
        padded.resize(bytes.len() + trailing, 0);
        prop_assert!(SimReport::from_canonical_bytes(&padded).is_err());
    }
}

/// Builds a report from drawn words: counters get printable ASCII names
/// and arbitrary f64 bit patterns (NaNs included — the codec must carry
/// them bit-exactly).
fn arbitrary_report(
    core_words: &[Vec<u64>],
    l2_words: &[u64],
    cycles: u64,
    counters: &[(Vec<u8>, u64)],
) -> SimReport {
    let cores = core_words
        .iter()
        .map(|w| CoreStats {
            retired: w[0],
            cycles: w[1],
            fetch_blocks: w[2],
            l1i_hits: w[3],
            next_line_hits: w[4],
            prefetch_hits: w[5],
            demand_misses: w[6],
            fetch_stall_cycles: w[7],
            mispredicts: w[8],
            cond_branches: w[9],
            flushes: w[10],
            refill_cycles: w[11],
            refill_misses: w[12],
        })
        .collect();
    let l2 = L2Stats {
        accesses: [
            l2_words[0],
            l2_words[1],
            l2_words[2],
            l2_words[3],
            l2_words[4],
            l2_words[5],
        ],
        inst_hits: l2_words[6],
        inst_misses: l2_words[7],
        mshr_rejects: l2_words[8],
        mem_transfers: l2_words[9],
        tag_updates: l2_words[10],
        tag_update_drops: l2_words[11],
        queue_delay: l2_words[12],
    };
    let prefetcher = counters
        .iter()
        .map(|(name, bits)| {
            let name: String = name.iter().map(|b| (b'a' + b % 26) as char).collect();
            (name, f64::from_bits(*bits))
        })
        .collect();
    SimReport {
        cores,
        l2,
        cycles,
        prefetcher,
    }
}
