//! Huge-page witness: a Circuit ORAM tree over the GPT-2 vocabulary
//! (50 257 blocks of 64 words, a 30 MiB slot arena) is built with its
//! payload array advised for transparent huge pages, so filling it costs
//! hundreds of minor page faults, not one per 4 KiB page (≈ 6 000).
//!
//! One test in a binary of its own: the fault counter is the process's,
//! and no other test may add to it while the build runs.

use rand::rngs::StdRng;
use rand::SeedableRng;
use secemb_oram::{CircuitOram, Oram, OramConfig};

/// This process's minor page faults so far (`minflt`, the tenth field of
/// `/proc/self/stat`, the seventh after the parenthesised command name).
fn minor_faults() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat");
    let after_comm = &stat[stat.rfind(')').expect("comm") + 1..];
    after_comm
        .split_whitespace()
        .nth(7)
        .expect("minflt field")
        .parse()
        .expect("minflt is a number")
}

#[test]
fn circuit_build_faults_its_arena_in_huge_pages() {
    let thp =
        std::fs::read_to_string("/sys/kernel/mm/transparent_hugepage/enabled").unwrap_or_default();
    if !thp.contains("[always]") && !thp.contains("[madvise]") {
        eprintln!("skipped: transparent huge pages are not available (enabled: {thp:?})");
        return;
    }
    let before = minor_faults();
    let oram = CircuitOram::from_fn(
        50_257,
        OramConfig::circuit(64),
        StdRng::seed_from_u64(1),
        &mut |id, payload| payload.fill(id as u32 ^ 0x9e37_79b9),
    );
    let faults = minor_faults() - before;
    eprintln!(
        "{faults} minor faults building {} blocks ({:.1} MiB)",
        oram.len(),
        oram.memory_bytes() as f64 / (1 << 20) as f64
    );
    assert!(
        faults < 2_000,
        "{faults} minor faults: the payload arena was faulted in 4 KiB pages"
    );
}
