//! Consistent, capacity-balanced table → host placement.
//!
//! Pure rendezvous (highest-random-weight) hashing moves few tables on
//! membership change but only bounds per-host load *in expectation*.
//! The router needs a hard bound — a host that owns far more than its
//! share of tables becomes the latency floor for every fanned-out
//! request — so placement here is **quota'd rendezvous**: each host
//! gets an exact quota (⌊T/N⌋ or ⌈T/N⌉, summing to T), hosts are
//! ranked per table by a deterministic score, and each table takes the
//! highest-scoring host with quota left. Every placement is therefore
//! *perfectly* balanced, not merely capped.
//!
//! On membership change, [`Placement::rebalanced`] keeps every table
//! whose host survived and fits its new quota; only evicted overflow
//! and orphaned tables move. The ⌈T/N⌉ quotas go to the hosts that
//! kept the most tables, which bounds movement at ⌈T/max(N, N′)⌉
//! tables for a single host join or leave (the property
//! `tests/placement_props.rs` checks):
//!
//! - **join** (N → N+1): survivors keep quotas of at least ⌊T/(N+1)⌋,
//!   so the evicted overflow — everything that moves — is at most the
//!   newcomer's quota, ≤ ⌈T/(N+1)⌉.
//! - **leave** (N → N−1): quotas only grow (and the largest quotas go
//!   to the fullest hosts), so nothing is evicted and exactly the
//!   departed host's ≤ ⌈T/N⌉ tables move.
//!
//! Perfect balance is what makes the join bound compositional: an
//! uneven-but-capped placement can be forced to shed more than one
//! quota of overflow when the cap shrinks, so the bound would not
//! survive a second membership change.

use secemb_wire::json::{self, Value};
use std::fmt;

/// A table → host assignment, total over `0..tables` and perfectly
/// balanced: every host holds exactly ⌊tables/hosts⌋ or
/// ⌈tables/hosts⌉ tables.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Placement {
    hosts: Vec<String>,
    /// `assignment[table]` indexes into `hosts`.
    assignment: Vec<usize>,
}

/// Error parsing a serialized placement.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlacementError(String);

impl fmt::Display for PlacementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad placement: {}", self.0)
    }
}

impl std::error::Error for PlacementError {}

/// The deterministic rendezvous score of `(host, table)`: an FNV-1a
/// walk over the host name, mixed with the table id through a 64-bit
/// finalizer. No seed, no state — every router derives the same
/// placement from the same membership.
fn score(host: &str, table: usize) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in host.as_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^= table as u64;
    h = h.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h
}

/// Exact per-host quotas summing to `tables`: every host gets ⌊T/N⌋,
/// and the first `T mod N` hosts in `order` get one more.
fn quotas(n_hosts: usize, tables: usize, order: &[usize]) -> Vec<usize> {
    let mut quota = vec![tables / n_hosts; n_hosts];
    for &host in order.iter().take(tables % n_hosts) {
        quota[host] += 1;
    }
    quota
}

fn assert_valid_hosts(hosts: &[String]) {
    assert!(!hosts.is_empty(), "placement needs at least one host");
    let mut unique: Vec<&String> = hosts.iter().collect();
    unique.sort();
    unique.dedup();
    assert_eq!(unique.len(), hosts.len(), "duplicate host names");
}

impl Placement {
    /// Places `tables` tables on `hosts`, every host holding exactly
    /// its quota (⌊T/N⌋ or ⌈T/N⌉): each table takes its highest-scoring
    /// host with quota left. Deterministic in `(hosts, tables)`.
    ///
    /// # Panics
    ///
    /// Panics if `hosts` is empty or contains duplicate names.
    pub fn balanced(hosts: &[String], tables: usize) -> Placement {
        assert_valid_hosts(hosts);
        // Fresh placement: the spare ⌈T/N⌉ quotas go by name order, so
        // reordering the host list cannot move a table.
        let mut order: Vec<usize> = (0..hosts.len()).collect();
        order.sort_by(|&a, &b| hosts[a].cmp(&hosts[b]));
        let quota = quotas(hosts.len(), tables, &order);
        let mut load = vec![0usize; hosts.len()];
        let mut assignment = Vec::with_capacity(tables);
        for table in 0..tables {
            let host = Self::preferred(hosts, table, |h| load[h] < quota[h])
                .expect("quotas sum to the table count, so some host has room");
            load[host] += 1;
            assignment.push(host);
        }
        Placement {
            hosts: hosts.to_vec(),
            assignment,
        }
    }

    /// The highest-scoring host for `table` among those `admit`s, ties
    /// broken by name so equal scores cannot diverge across routers.
    fn preferred(hosts: &[String], table: usize, admit: impl Fn(usize) -> bool) -> Option<usize> {
        hosts
            .iter()
            .enumerate()
            .filter(|(h, _)| admit(*h))
            .max_by_key(|(_, name)| (score(name, table), std::cmp::Reverse(name.as_str())))
            .map(|(h, _)| h)
    }

    /// Re-derives the placement for a new membership, moving as few
    /// tables as possible: a table keeps its host if the host survived
    /// and fits its new quota (the larger ⌈T/N⌉ quotas go to the hosts
    /// that kept the most tables, and lowest-scoring overflow is
    /// evicted first); orphaned and evicted tables take their
    /// highest-scoring host with quota left. A single host join or
    /// leave moves at most ⌈T/max(N, N′)⌉ tables.
    ///
    /// # Panics
    ///
    /// Panics if `new_hosts` is empty or contains duplicates.
    pub fn rebalanced(&self, new_hosts: &[String]) -> Placement {
        assert_valid_hosts(new_hosts);
        let tables = self.assignment.len();
        // Tables whose old host survives, grouped under its new index.
        let mut keep: Vec<Vec<usize>> = vec![Vec::new(); new_hosts.len()];
        let mut orphans: Vec<usize> = Vec::new();
        for (table, &old_host) in self.assignment.iter().enumerate() {
            match new_hosts.iter().position(|n| *n == self.hosts[old_host]) {
                Some(new_idx) => keep[new_idx].push(table),
                None => orphans.push(table),
            }
        }
        // Load-aware quota assignment: the spare ⌈T/N⌉ quotas go to the
        // fullest hosts (names break ties), so a full host is never
        // forced to shed tables just because a name-ordered quota
        // landed elsewhere.
        let mut order: Vec<usize> = (0..new_hosts.len()).collect();
        order.sort_by(|&a, &b| {
            keep[b]
                .len()
                .cmp(&keep[a].len())
                .then_with(|| new_hosts[a].cmp(&new_hosts[b]))
        });
        let quota = quotas(new_hosts.len(), tables, &order);
        // Evict the lowest-scoring overflow from any host over quota.
        for (host, kept) in keep.iter_mut().enumerate() {
            if kept.len() > quota[host] {
                kept.sort_by_key(|&t| std::cmp::Reverse(score(&new_hosts[host], t)));
                orphans.extend(kept.drain(quota[host]..));
            }
        }
        let mut load: Vec<usize> = keep.iter().map(Vec::len).collect();
        let mut assignment = vec![usize::MAX; tables];
        for (host, kept) in keep.iter().enumerate() {
            for &table in kept {
                assignment[table] = host;
            }
        }
        orphans.sort_unstable();
        for table in orphans {
            let host = Self::preferred(new_hosts, table, |h| load[h] < quota[h])
                .expect("quotas sum to the table count, so some host has room");
            load[host] += 1;
            assignment[table] = host;
        }
        Placement {
            hosts: new_hosts.to_vec(),
            assignment,
        }
    }

    /// The host names, in index order.
    pub fn hosts(&self) -> &[String] {
        &self.hosts
    }

    /// Number of placed tables.
    pub fn tables(&self) -> usize {
        self.assignment.len()
    }

    /// The host index serving `table`, if the table exists.
    pub fn host_index(&self, table: usize) -> Option<usize> {
        self.assignment.get(table).copied()
    }

    /// The host name serving `table`, if the table exists.
    pub fn host_of(&self, table: usize) -> Option<&str> {
        self.host_index(table).map(|h| self.hosts[h].as_str())
    }

    /// The ordered failover candidates for `table`: a permutation of
    /// all host indices with the assigned host first (rank 0), then
    /// every other host by descending rendezvous score with the same
    /// name tiebreak `Placement::preferred` uses. A router forwarding
    /// to the highest-ranked *live* candidate therefore (a) agrees with
    /// the placement whenever the assigned host is up, and (b) fails
    /// over deterministically — every router derives the same ranking
    /// from the same membership, with no coordination.
    pub fn candidates(&self, table: usize) -> Option<Vec<usize>> {
        let primary = self.host_index(table)?;
        let mut rest: Vec<usize> = (0..self.hosts.len()).filter(|&h| h != primary).collect();
        rest.sort_by_key(|&h| {
            (
                std::cmp::Reverse(score(&self.hosts[h], table)),
                self.hosts[h].as_str(),
            )
        });
        let mut ranked = Vec::with_capacity(self.hosts.len());
        ranked.push(primary);
        ranked.extend(rest);
        Some(ranked)
    }

    /// The tables assigned to host index `host`, ascending.
    pub fn tables_of(&self, host: usize) -> Vec<usize> {
        self.assignment
            .iter()
            .enumerate()
            .filter(|(_, &h)| h == host)
            .map(|(t, _)| t)
            .collect()
    }

    /// How many tables are served by a *differently named* host in
    /// `other` (tables only one side places count as moved).
    pub fn moved_from(&self, other: &Placement) -> usize {
        let common = self.assignment.len().min(other.assignment.len());
        let diff = self.assignment.len().max(other.assignment.len()) - common;
        diff + (0..common)
            .filter(|&t| self.host_of(t) != other.host_of(t))
            .count()
    }

    /// Serializes the placement (hosts + assignment) as JSON.
    pub fn to_json(&self) -> String {
        self.to_value().to_pretty()
    }

    /// The placement as a JSON value, for embedding in larger
    /// documents (e.g. the router's merged stats snapshot).
    pub fn to_value(&self) -> Value {
        Value::obj([
            (
                "hosts",
                Value::Arr(self.hosts.iter().map(|h| Value::Str(h.clone())).collect()),
            ),
            (
                "assignment",
                Value::Arr(
                    self.assignment
                        .iter()
                        .map(|&h| Value::Num(h as f64))
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses a placement serialized by [`Placement::to_json`].
    ///
    /// # Errors
    ///
    /// Returns [`PlacementError`] on malformed JSON, missing fields, or
    /// an assignment referencing a host that does not exist.
    pub fn from_json(s: &str) -> Result<Placement, PlacementError> {
        let v = json::parse(s).map_err(|e| PlacementError(e.to_string()))?;
        let hosts: Vec<String> = v
            .get("hosts")
            .and_then(Value::as_arr)
            .ok_or_else(|| PlacementError("missing hosts".into()))?
            .iter()
            .map(|h| {
                h.as_str()
                    .map(str::to_owned)
                    .ok_or_else(|| PlacementError("non-string host".into()))
            })
            .collect::<Result<_, _>>()?;
        let assignment: Vec<usize> = v
            .get("assignment")
            .and_then(Value::as_arr)
            .ok_or_else(|| PlacementError("missing assignment".into()))?
            .iter()
            .map(|a| {
                a.as_usize()
                    .ok_or_else(|| PlacementError("non-integer assignment".into()))
            })
            .collect::<Result<_, _>>()?;
        if hosts.is_empty() {
            return Err(PlacementError("no hosts".into()));
        }
        if let Some(&bad) = assignment.iter().find(|&&h| h >= hosts.len()) {
            return Err(PlacementError(format!(
                "assignment references host {bad} of {}",
                hosts.len()
            )));
        }
        Ok(Placement { hosts, assignment })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hosts(names: &[&str]) -> Vec<String> {
        names.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn balanced_respects_the_cap_and_is_total() {
        for (n_hosts, tables) in [(1, 5), (2, 8), (3, 7), (4, 2), (5, 23)] {
            let names: Vec<String> = (0..n_hosts).map(|i| format!("h{i}")).collect();
            let p = Placement::balanced(&names, tables);
            assert_eq!(p.tables(), tables);
            let cap = tables.div_ceil(n_hosts);
            for host in 0..n_hosts {
                assert!(
                    p.tables_of(host).len() <= cap,
                    "host {host} over cap {cap} for T={tables} N={n_hosts}"
                );
            }
            for t in 0..tables {
                assert!(p.host_index(t).unwrap() < n_hosts);
            }
        }
    }

    #[test]
    fn placement_is_deterministic_and_name_keyed() {
        let a = Placement::balanced(&hosts(&["alpha", "beta"]), 10);
        let b = Placement::balanced(&hosts(&["alpha", "beta"]), 10);
        assert_eq!(a, b);
        // The same names in a different order place every table on the
        // same *named* host.
        let c = Placement::balanced(&hosts(&["beta", "alpha"]), 10);
        for t in 0..10 {
            assert_eq!(a.host_of(t), c.host_of(t), "table {t} moved with reorder");
        }
    }

    #[test]
    fn join_and_leave_move_few_tables() {
        let two = hosts(&["h0", "h1"]);
        let three = hosts(&["h0", "h1", "h2"]);
        let tables = 12;
        let p2 = Placement::balanced(&two, tables);
        let p3 = p2.rebalanced(&three);
        let bound = tables.div_ceil(3);
        assert!(
            p3.moved_from(&p2) <= bound,
            "join moved {} > {bound}",
            p3.moved_from(&p2)
        );
        // Leaving again restores a 2-host placement within the bound.
        let back = p3.rebalanced(&two);
        assert!(back.moved_from(&p3) <= tables.div_ceil(3));
        for host in 0..2 {
            assert!(back.tables_of(host).len() <= tables.div_ceil(2));
        }
    }

    #[test]
    fn candidates_are_a_permutation_led_by_the_assignment() {
        let names = hosts(&["h0", "h1", "h2", "h3"]);
        let p = Placement::balanced(&names, 16);
        for t in 0..16 {
            let ranked = p.candidates(t).unwrap();
            assert_eq!(ranked[0], p.host_index(t).unwrap(), "rank 0 != assignment");
            let mut sorted = ranked.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3], "not a permutation: {ranked:?}");
            // Deterministic: recomputing yields the identical ranking.
            assert_eq!(p.candidates(t).unwrap(), ranked);
        }
        assert_eq!(p.candidates(16), None, "out-of-range table has no ranking");
    }

    #[test]
    fn candidates_are_name_keyed_like_the_assignment() {
        // The same membership listed in a different order ranks every
        // table over the same *named* hosts.
        let a = Placement::balanced(&hosts(&["alpha", "beta", "gamma"]), 9);
        let b = Placement::balanced(&hosts(&["gamma", "alpha", "beta"]), 9);
        for t in 0..9 {
            let named = |p: &Placement, ranked: Vec<usize>| -> Vec<String> {
                ranked.iter().map(|&h| p.hosts()[h].clone()).collect()
            };
            assert_eq!(
                named(&a, a.candidates(t).unwrap()),
                named(&b, b.candidates(t).unwrap()),
                "table {t} ranking moved with host-list reorder"
            );
        }
    }

    #[test]
    fn single_host_candidates_are_trivial() {
        let p = Placement::balanced(&hosts(&["only"]), 5);
        for t in 0..5 {
            assert_eq!(p.candidates(t).unwrap(), vec![0]);
        }
    }

    #[test]
    fn json_round_trips_and_rejects_garbage() {
        let p = Placement::balanced(&hosts(&["a", "b", "c"]), 9);
        assert_eq!(Placement::from_json(&p.to_json()).unwrap(), p);
        assert!(Placement::from_json("{}").is_err());
        assert!(Placement::from_json("{\"hosts\":[\"a\"],\"assignment\":[4]}").is_err());
        assert!(Placement::from_json("not json").is_err());
    }

    #[test]
    #[should_panic(expected = "duplicate host names")]
    fn duplicate_hosts_are_rejected() {
        let _ = Placement::balanced(&hosts(&["a", "a"]), 4);
    }
}
