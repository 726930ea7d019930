//! Property tests over the plan artifacts: serialization is lossless and
//! derived allocations are monotone in table size.

use proptest::prelude::*;
use secemb::hybrid::{
    AllocationPlan, Crossovers, PlannedTable, Profiler, ThresholdEntry, ThresholdTable,
};
use secemb::Technique;

/// JSON numbers travel as f64, so integers are exact only below 2^53;
/// real versions/thresholds are tiny, the bound just keeps the property
/// honest.
const MAX_EXACT: u64 = 1 << 50;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn allocation_plan_json_round_trips(
        header in (0u64..MAX_EXACT, 1usize..512, 1usize..256, 1usize..64),
        threshold in 0u64..MAX_EXACT,
        oram_to in 0u64..MAX_EXACT,
        tables in prop::collection::vec(
            (1u64..MAX_EXACT, 0usize..5, 0u32..2_000_000, 0u32..1_000_000),
            0..12,
        ),
    ) {
        let (version, dim, batch, threads) = header;
        let tables: Vec<PlannedTable> = tables
            .into_iter()
            .map(|(rows, tech, whole, frac)| PlannedTable {
                rows,
                technique: Technique::ALL[tech],
                per_query_ns: whole as f64 + frac as f64 / 1e6,
            })
            .collect();
        let plan = AllocationPlan { version, dim, batch, threads, threshold, oram_to, tables };
        let parsed = AllocationPlan::from_json(&plan.to_json()).unwrap();
        prop_assert_eq!(parsed, plan);
    }

    #[test]
    fn threshold_table_json_round_trips(
        dim in 1usize..512,
        entries in prop::collection::vec(
            (1usize..512, 1usize..64, 0u64..MAX_EXACT),
            0..10,
        ),
    ) {
        let table = ThresholdTable {
            dim,
            entries: entries
                .into_iter()
                .map(|(batch, threads, threshold)| ThresholdEntry { batch, threads, threshold })
                .collect(),
        };
        let parsed = ThresholdTable::from_json(&table.to_json()).unwrap();
        prop_assert_eq!(parsed, table);
    }

    #[test]
    fn derived_plans_are_monotone_with_a_single_crossover(
        version in 0u64..MAX_EXACT,
        threshold in 0u64..10_000_000,
        sizes in prop::collection::vec(1u64..20_000_000, 1..16),
    ) {
        let costs = vec![-1.0; sizes.len()];
        let plan = AllocationPlan::derive_three_way(
            version,
            64,
            Crossovers::two_way(threshold),
            &sizes,
            &costs,
            8,
            2,
        );
        prop_assert!(plan.is_monotone());
        // Algorithm 3 exactly: scan strictly below the threshold, DHE at
        // or above it — one crossover in size order, nothing else.
        for (table, &rows) in plan.tables.iter().zip(&sizes) {
            let expect = if rows < threshold {
                Technique::LinearScan
            } else {
                Technique::Dhe
            };
            prop_assert_eq!(table.technique, expect);
        }
    }

    #[test]
    fn three_way_plans_are_monotone_for_any_crossover_pair(
        version in 0u64..MAX_EXACT,
        scan_to in 0u64..10_000_000,
        band in 0u64..10_000_000,
        sizes in prop::collection::vec(1u64..40_000_000, 1..16),
    ) {
        let costs = vec![-1.0; sizes.len()];
        let crossovers = Crossovers { scan_to, oram_to: scan_to.saturating_add(band) };
        let plan = AllocationPlan::derive_three_way(
            version, 64, crossovers, &sizes, &costs, 8, 2,
        );
        prop_assert!(plan.is_monotone());
        prop_assert_eq!(plan.crossovers(), crossovers.normalized());
        for (table, &rows) in plan.tables.iter().zip(&sizes) {
            prop_assert_eq!(table.technique, crossovers.choose(rows));
        }
        // A collapsed band is exactly the paper's two-way split.
        if crossovers.is_two_way() {
            for table in &plan.tables {
                prop_assert!(table.technique != Technique::CircuitOram);
            }
        }
    }

    #[test]
    fn refined_grids_are_sorted_and_bracket_the_old_threshold(
        old in 2u64..50_000_000,
        factor_milli in 1_100u64..8_000,
        points in 2usize..12,
    ) {
        let factor = factor_milli as f64 / 1000.0;
        let sizes = Profiler::refine_sizes(old, factor, points);
        prop_assert!(!sizes.is_empty());
        prop_assert!(sizes.windows(2).all(|w| w[0] <= w[1]), "grid must ascend");
        prop_assert!(*sizes.first().unwrap() <= old);
        prop_assert!(*sizes.last().unwrap() >= old);
        // The window is bounded: a re-profile can't wander arbitrarily.
        prop_assert!(*sizes.first().unwrap() >= ((old as f64 / factor) as u64).max(2).saturating_sub(1));
        prop_assert!(*sizes.last().unwrap() <= (old as f64 * factor) as u64 + 2);
    }
}
