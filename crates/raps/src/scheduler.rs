//! Node pool and scheduling policies.
//!
//! §III-B4 of the paper: "Jobs are scheduled according to a given policy,
//! such as Shortest Job First (SJF) or First Come First Served (FCFS),
//! with plans to soon implement more sophisticated algorithms". We provide
//! both paper policies, the literal Algorithm 1 semantics (first-fit in
//! queue order), and EASY backfill as the promised sophisticated variant.
//! Multi-partition allocation (§V, Setonix-style) is supported by giving
//! every partition its own free pool.

use crate::config::SystemConfig;
use crate::job::Job;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum Policy {
    /// First come, first served with head-of-line blocking (per partition).
    Fcfs,
    /// Shortest (requested wall time) job first.
    Sjf,
    /// The literal Algorithm 1 loop: walk the queue in order, start
    /// whatever fits ("else add to pending queue").
    #[default]
    FirstFit,
    /// EASY backfill: FCFS order with a reservation for the head job;
    /// later jobs may jump ahead only if they cannot delay it.
    EasyBackfill,
}

/// Range of node ids belonging to one partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PartitionRange {
    start: u32,
    len: u32,
}

/// Free-node bookkeeping for every partition.
///
/// Free ids are stored as a canonical interval map (`start → length`;
/// disjoint, sorted, never adjacent), so allocating or releasing a
/// 4,000-node job costs O(fragments) tree operations instead of 4,000
/// per-id set operations — the difference between a day replay spending
/// its time in the scheduler's bookkeeping and in the simulation itself.
/// Allocation still hands out the lowest free ids first, in ascending
/// order, exactly as the per-id implementation did.
///
/// Equality compares the full free-list state — what the event-kernel
/// equivalence tests pin (the canonical form makes set equality and map
/// equality coincide).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodePool {
    ranges: Vec<PartitionRange>,
    free: Vec<BTreeMap<u32, u32>>,
    free_count: Vec<usize>,
}

impl NodePool {
    /// Pool covering all partitions of `cfg`, all nodes free. Node ids are
    /// global and contiguous across partitions in declaration order.
    pub fn new(cfg: &SystemConfig) -> Self {
        let mut ranges = Vec::with_capacity(cfg.partitions.len());
        let mut free = Vec::with_capacity(cfg.partitions.len());
        let mut free_count = Vec::with_capacity(cfg.partitions.len());
        let mut next = 0u32;
        for p in &cfg.partitions {
            let len = p.nodes as u32;
            ranges.push(PartitionRange { start: next, len });
            let mut intervals = BTreeMap::new();
            if len > 0 {
                intervals.insert(next, len);
            }
            free.push(intervals);
            free_count.push(p.nodes);
            next += len;
        }
        NodePool { ranges, free, free_count }
    }

    /// The pool of `cfg`'s machine with the node ids running jobs hold,
    /// given as `(partition, ids)` pairs, taken: each partition's free
    /// intervals are the gaps its held ids leave. Allocation and release
    /// keep the free intervals canonical (maximal runs), so this is the
    /// pool the kernel held beside those jobs. Fails when a partition does
    /// not exist, or an id lies outside its partition or is held twice.
    /// Needs a machine of at most `u32::MAX` nodes. O(partitions + held
    /// ids + k log k) for k runs of consecutive held ids.
    pub(crate) fn from_held<'a>(
        cfg: &SystemConfig,
        held: impl IntoIterator<Item = (usize, &'a [u32])>,
    ) -> Result<Self, String> {
        let mut pool = NodePool::new(cfg);
        // Per partition: runs of consecutive held ids as (start, len).
        let mut held_runs: Vec<Vec<(u32, u32)>> = vec![Vec::new(); pool.ranges.len()];
        for (p, ids) in held {
            let (Some(runs), Some(range)) = (held_runs.get_mut(p), pool.ranges.get(p)) else {
                return Err(format!("a running job's partition {p} does not exist"));
            };
            let end = u64::from(range.start) + u64::from(range.len);
            let mut rest = ids;
            while let Some(&first) = rest.first() {
                let consecutive = |w: &[u32]| w[1].checked_sub(w[0]) == Some(1);
                let len = 1 + rest.windows(2).take_while(|w| consecutive(w)).count();
                if first < range.start || u64::from(first) + len as u64 > end {
                    // The run's first id outside the partition.
                    let id = if first < range.start { first.into() } else { end.max(first.into()) };
                    return Err(format!(
                        "pool partition {p}: a running job holds node {id}, outside it"
                    ));
                }
                runs.push((first, len as u32));
                rest = &rest[len..];
            }
        }
        for (p, runs) in held_runs.iter_mut().enumerate() {
            runs.sort_unstable();
            let range = pool.ranges[p];
            let (free, mut next) = (&mut pool.free[p], range.start);
            free.clear();
            for &(at, len) in runs.iter().chain([&(range.start + range.len, 0)]) {
                if at < next {
                    return Err(format!("pool partition {p}: node {at} is held twice"));
                }
                if at > next {
                    free.insert(next, at - next);
                }
                next = at + len;
            }
            pool.free_count[p] = free.values().map(|&len| len as usize).sum();
        }
        Ok(pool)
    }

    /// Number of partitions.
    pub fn partitions(&self) -> usize {
        self.ranges.len()
    }

    /// Total nodes in a partition.
    pub fn capacity(&self, partition: usize) -> usize {
        self.ranges[partition].len as usize
    }

    /// Free nodes in a partition.
    pub fn available(&self, partition: usize) -> usize {
        self.free_count[partition]
    }

    /// Allocate `n` nodes from a partition (lowest ids first, ascending).
    /// Returns `None` without side effects when not enough nodes are free.
    pub fn allocate(&mut self, partition: usize, n: usize) -> Option<Vec<u32>> {
        if self.free_count[partition] < n {
            return None;
        }
        let free = &mut self.free[partition];
        let mut out = Vec::with_capacity(n);
        let mut remaining = n as u32;
        while remaining > 0 {
            let (start, len) = free.pop_first().expect("count said enough nodes are free");
            let take = len.min(remaining);
            out.extend(start..start + take);
            if take < len {
                free.insert(start + take, len - take);
            }
            remaining -= take;
        }
        self.free_count[partition] -= n;
        Some(out)
    }

    /// Free node ids of a partition in ascending order (diagnostics and
    /// equivalence tests).
    pub fn free_nodes(&self, partition: usize) -> Vec<u32> {
        self.free[partition]
            .iter()
            .flat_map(|(&start, &len)| start..start + len)
            .collect()
    }

    /// Release nodes back to their partition. Panics on double-free (a
    /// scheduler invariant violation we want loudly).
    pub fn release(&mut self, partition: usize, nodes: &[u32]) {
        if nodes.is_empty() {
            return;
        }
        let range = self.ranges[partition];
        for &id in nodes {
            assert!(
                id >= range.start && id < range.start + range.len,
                "node {id} not in partition {partition}"
            );
        }
        // Job allocations come back in ascending order; sorting here is
        // near-free for that case and keeps arbitrary-order calls legal.
        let mut ids = nodes.to_vec();
        ids.sort_unstable();
        let mut i = 0;
        while i < ids.len() {
            let run_start = ids[i];
            let mut run_end = run_start; // inclusive
            i += 1;
            while i < ids.len() && ids[i] == run_end + 1 {
                run_end = ids[i];
                i += 1;
            }
            assert!(
                i >= ids.len() || ids[i] > run_end,
                "double release of node {}",
                ids[i]
            );
            self.insert_free_run(partition, run_start, run_end);
        }
        self.free_count[partition] += ids.len();
    }

    /// Insert the inclusive run `[run_start, run_end]` into a partition's
    /// free intervals, merging with adjacent intervals to keep the map
    /// canonical. Panics if any id in the run is already free.
    fn insert_free_run(&mut self, partition: usize, mut run_start: u32, run_end: u32) {
        let free = &mut self.free[partition];
        let mut run_len = run_end - run_start + 1;
        // Predecessor interval: must not overlap; merge when adjacent.
        if let Some((&prev_start, &prev_len)) = free.range(..=run_start).next_back() {
            assert!(
                prev_start + prev_len <= run_start,
                "double release of node {run_start}"
            );
            if prev_start + prev_len == run_start {
                free.remove(&prev_start);
                run_start = prev_start;
                run_len += prev_len;
            }
        }
        // Successor interval: must start past the run; merge when adjacent.
        if let Some((&next_start, &next_len)) = free.range(run_start..).next() {
            assert!(next_start > run_end, "double release of node {next_start}");
            if next_start == run_end + 1 {
                free.remove(&next_start);
                run_len += next_len;
            }
        }
        free.insert(run_start, run_len);
    }
}

/// A job start decision: which pending job (by index) got which nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleDecision {
    /// Index into the pending slice handed to [`schedule_jobs`].
    pub job_index: usize,
    /// Allocated node ids.
    pub nodes: Vec<u32>,
}

/// Expected release of a running job, used for backfill reservations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunningRelease {
    /// Expected end time, seconds.
    pub end_time_s: u64,
    /// Partition the nodes return to.
    pub partition: usize,
    /// Node count released.
    pub nodes: usize,
}

/// Run one scheduling pass over `pending` (in queue order) against the
/// pool. Decisions allocate immediately; the caller starts the selected
/// jobs and removes them from its queue.
pub fn schedule_jobs(
    policy: Policy,
    pending: &[Job],
    pool: &mut NodePool,
    now_s: u64,
    running: &[RunningRelease],
) -> Vec<ScheduleDecision> {
    match policy {
        Policy::FirstFit => first_fit(pending, pool),
        Policy::Fcfs => fcfs(pending, pool),
        Policy::Sjf => sjf(pending, pool),
        Policy::EasyBackfill => easy_backfill(pending, pool, now_s, running),
    }
}

fn first_fit(pending: &[Job], pool: &mut NodePool) -> Vec<ScheduleDecision> {
    let mut out = Vec::new();
    for (i, job) in pending.iter().enumerate() {
        if let Some(nodes) = pool.allocate(job.partition, job.nodes) {
            out.push(ScheduleDecision { job_index: i, nodes });
        }
    }
    out
}

fn fcfs(pending: &[Job], pool: &mut NodePool) -> Vec<ScheduleDecision> {
    let mut out = Vec::new();
    let mut blocked = vec![false; pool.partitions()];
    for (i, job) in pending.iter().enumerate() {
        if blocked[job.partition] {
            continue;
        }
        match pool.allocate(job.partition, job.nodes) {
            Some(nodes) => out.push(ScheduleDecision { job_index: i, nodes }),
            None => blocked[job.partition] = true,
        }
    }
    out
}

fn sjf(pending: &[Job], pool: &mut NodePool) -> Vec<ScheduleDecision> {
    let mut order: Vec<usize> = (0..pending.len()).collect();
    // Shortest requested wall time first; ties broken by queue order so
    // the sort stays deterministic.
    order.sort_by_key(|&i| (pending[i].wall_time_s, i));
    let mut out = Vec::new();
    for i in order {
        let job = &pending[i];
        if let Some(nodes) = pool.allocate(job.partition, job.nodes) {
            out.push(ScheduleDecision { job_index: i, nodes });
        }
    }
    out.sort_by_key(|d| d.job_index);
    out
}

fn easy_backfill(
    pending: &[Job],
    pool: &mut NodePool,
    now_s: u64,
    running: &[RunningRelease],
) -> Vec<ScheduleDecision> {
    let mut out = Vec::new();
    // Per-partition head state: None until a job fails to fit.
    // shadow[p] = (reservation start time, spare nodes usable by backfill).
    let mut shadow: Vec<Option<(u64, usize)>> = vec![None; pool.partitions()];

    // Pre-sort expected releases per partition by end time.
    let mut releases: Vec<Vec<RunningRelease>> = vec![Vec::new(); pool.partitions()];
    for r in running {
        releases[r.partition].push(*r);
    }
    for rel in &mut releases {
        rel.sort_by_key(|r| r.end_time_s);
    }

    for (i, job) in pending.iter().enumerate() {
        let p = job.partition;
        match shadow[p] {
            None => {
                if let Some(nodes) = pool.allocate(p, job.nodes) {
                    out.push(ScheduleDecision { job_index: i, nodes });
                } else {
                    // Head job can't start: compute its reservation.
                    let mut free = pool.available(p);
                    let mut shadow_time = u64::MAX;
                    for r in &releases[p] {
                        free += r.nodes;
                        if free >= job.nodes {
                            shadow_time = r.end_time_s;
                            break;
                        }
                    }
                    // Spare nodes at the shadow time: what remains after the
                    // head job takes its share of the accumulated frees.
                    let spare = free.saturating_sub(job.nodes);
                    shadow[p] = Some((shadow_time, spare));
                }
            }
            Some((shadow_time, spare)) => {
                // Backfill rule: start only if it finishes before the
                // reservation, or if it is small enough to never collide
                // with the head job's allocation.
                let fits_now = pool.available(p) >= job.nodes;
                if !fits_now {
                    continue;
                }
                let ends_before = now_s + job.wall_time_s <= shadow_time;
                let within_spare = job.nodes <= spare;
                if ends_before || within_spare {
                    if let Some(nodes) = pool.allocate(p, job.nodes) {
                        out.push(ScheduleDecision { job_index: i, nodes });
                        if !ends_before {
                            // Consumed part of the spare pool.
                            shadow[p] = Some((shadow_time, spare - job.nodes));
                        }
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PartitionConfig, SystemConfig};

    fn small_config(nodes: usize) -> SystemConfig {
        let mut cfg = SystemConfig::frontier();
        cfg.partitions =
            vec![PartitionConfig { name: "batch".into(), nodes, gpus_per_node: 4 }];
        cfg
    }

    fn job(id: u64, nodes: usize, wall: u64) -> Job {
        Job::new(id, format!("j{id}"), nodes, wall, 0, 0.5, 0.5)
    }

    #[test]
    fn pool_allocates_ascending_and_releases() {
        let cfg = small_config(16);
        let mut pool = NodePool::new(&cfg);
        let a = pool.allocate(0, 4).unwrap();
        assert_eq!(a, vec![0, 1, 2, 3]);
        assert_eq!(pool.available(0), 12);
        pool.release(0, &a);
        assert_eq!(pool.available(0), 16);
    }

    /// A pool rebuilt from the ids running jobs hold is the pool their
    /// allocations left; an id outside its partition or held twice, or a
    /// partition that does not exist, is refused.
    #[test]
    fn from_held_refuses_ids_unlike_the_machine() {
        let cfg = small_config(16);
        let mut pool = NodePool::new(&cfg);
        let (a, b) = (pool.allocate(0, 3).unwrap(), pool.allocate(0, 2).unwrap());
        assert_eq!(NodePool::from_held(&cfg, [(0, &b[..]), (0, &a[..])]), Ok(pool));
        type Holds<'a> = &'a [(usize, &'a [u32])];
        let wrong_holds: [(Holds, &str); 4] = [
            (&[(0, &[0, 1, 2]), (0, &[3, 20])], "node 20, outside it"),
            (&[(0, &[0, 1, 2]), (0, &[15, 16])], "node 16, outside it"),
            (&[(0, &[0, 1, 2]), (0, &[2, 3])], "node 2 is held twice"),
            (&[(0, &[0, 1, 2]), (1, &[3, 4])], "partition 1 does not exist"),
        ];
        for (holds, expect) in wrong_holds {
            let err = NodePool::from_held(&cfg, holds.iter().copied()).expect_err(expect);
            assert!(err.contains(expect), "{expect}: {err}");
        }
        let two = SystemConfig::setonix_like();
        let mut pool = NodePool::new(&two);
        let (cpu, gpu) = (pool.allocate(0, 10).unwrap(), pool.allocate(1, 4).unwrap());
        assert_eq!(NodePool::from_held(&two, [(0, &cpu[..]), (1, &gpu[..])]), Ok(pool));
        assert!(NodePool::from_held(&two, [(1, &cpu[..]), (0, &gpu[..])]).is_err());
    }

    proptest::proptest! {
        /// Allocation and release keep the free intervals canonical, so
        /// any sequence of them leaves the pool `from_held` rebuilds from
        /// the ids still held, on one partition and on several.
        #[test]
        fn any_allocation_history_is_the_pool_its_held_ids_rebuild(
            multi in proptest::prelude::any::<bool>(),
            ops in proptest::collection::vec((0usize..3, 1usize..40, 0usize..64), 1..80),
        ) {
            let cfg = if multi {
                let mut cfg = SystemConfig::frontier();
                cfg.partitions = vec![
                    PartitionConfig { name: "cpu".into(), nodes: 50, gpus_per_node: 0 },
                    PartitionConfig { name: "gpu".into(), nodes: 30, gpus_per_node: 4 },
                    PartitionConfig { name: "big".into(), nodes: 70, gpus_per_node: 8 },
                ];
                cfg
            } else {
                small_config(100)
            };
            let mut pool = NodePool::new(&cfg);
            let mut held: Vec<(usize, Vec<u32>)> = Vec::new();
            for (part, n, pick) in ops {
                let part = part % cfg.partitions.len();
                if pick % 3 != 0 || held.is_empty() {
                    if let Some(ids) = pool.allocate(part, n) {
                        held.push((part, ids));
                    }
                } else {
                    let (part, ids) = held.swap_remove(pick % held.len());
                    pool.release(part, &ids);
                }
                let rebuilt = NodePool::from_held(&cfg, held.iter().map(|(p, ids)| (*p, &ids[..])));
                proptest::prop_assert_eq!(rebuilt, Ok(pool.clone()));
            }
        }
    }

    #[test]
    fn pool_refuses_oversubscription() {
        let cfg = small_config(8);
        let mut pool = NodePool::new(&cfg);
        assert!(pool.allocate(0, 9).is_none());
        assert_eq!(pool.available(0), 8, "failed alloc must not leak");
    }

    #[test]
    #[should_panic(expected = "double release")]
    fn pool_panics_on_double_free() {
        let cfg = small_config(8);
        let mut pool = NodePool::new(&cfg);
        let a = pool.allocate(0, 2).unwrap();
        pool.release(0, &a);
        pool.release(0, &a);
    }

    #[test]
    #[should_panic(expected = "double release")]
    fn pool_panics_on_duplicate_within_release() {
        let cfg = small_config(8);
        let mut pool = NodePool::new(&cfg);
        let _a = pool.allocate(0, 4).unwrap();
        pool.release(0, &[1, 1]);
    }

    #[test]
    #[should_panic(expected = "double release")]
    fn pool_panics_when_run_overlaps_free_interval() {
        let cfg = small_config(8);
        let mut pool = NodePool::new(&cfg);
        let _a = pool.allocate(0, 3).unwrap(); // 0,1,2 busy; 3..8 free
        pool.release(0, &[2, 3]); // 3 is already free
    }

    #[test]
    fn pool_allocates_across_fragments_and_remerges() {
        let cfg = small_config(16);
        let mut pool = NodePool::new(&cfg);
        let a = pool.allocate(0, 4).unwrap(); // 0..4
        let b = pool.allocate(0, 4).unwrap(); // 4..8
        let c = pool.allocate(0, 4).unwrap(); // 8..12
        // Free the outer two: free set {0..4, 8..12, 12..16}, merged to
        // {0..4, 8..16} — releases must coalesce adjacent intervals.
        pool.release(0, &a);
        pool.release(0, &c);
        assert_eq!(pool.available(0), 12);
        // A 10-node allocation spans both fragments, lowest ids first.
        let d = pool.allocate(0, 10).unwrap();
        assert_eq!(d, vec![0, 1, 2, 3, 8, 9, 10, 11, 12, 13]);
        assert_eq!(pool.free_nodes(0), vec![14, 15]);
        // Out-of-order release still canonicalises: everything merges
        // back into one interval equal to a fresh pool's.
        pool.release(0, &b);
        let mut shuffled = d.clone();
        shuffled.reverse();
        pool.release(0, &shuffled);
        assert_eq!(pool, NodePool::new(&cfg));
        assert_eq!(pool.free_nodes(0).len(), 16);
    }

    #[test]
    fn fcfs_blocks_behind_big_head() {
        let cfg = small_config(10);
        let mut pool = NodePool::new(&cfg);
        // Head job wants 20 (> capacity free after the first), second fits.
        let pending = vec![job(1, 8, 100), job(2, 20, 100), job(3, 2, 100)];
        let d = schedule_jobs(Policy::Fcfs, &pending, &mut pool, 0, &[]);
        // Job 1 starts; job 2 blocks; job 3 must NOT start under FCFS.
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].job_index, 0);
    }

    #[test]
    fn first_fit_skips_blocked_jobs() {
        let cfg = small_config(10);
        let mut pool = NodePool::new(&cfg);
        let pending = vec![job(1, 8, 100), job(2, 20, 100), job(3, 2, 100)];
        let d = schedule_jobs(Policy::FirstFit, &pending, &mut pool, 0, &[]);
        let idx: Vec<usize> = d.iter().map(|x| x.job_index).collect();
        assert_eq!(idx, vec![0, 2]);
    }

    #[test]
    fn sjf_prefers_short_jobs() {
        let cfg = small_config(8);
        let mut pool = NodePool::new(&cfg);
        // Only one can fit at a time: the shortest wall time wins.
        let pending = vec![job(1, 8, 500), job(2, 8, 100)];
        let d = schedule_jobs(Policy::Sjf, &pending, &mut pool, 0, &[]);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].job_index, 1);
    }

    #[test]
    fn backfill_starts_small_job_that_ends_before_reservation() {
        let cfg = small_config(10);
        let mut pool = NodePool::new(&cfg);
        // 6 nodes busy until t=1000; 4 free.
        let busy = pool.allocate(0, 6).unwrap();
        assert_eq!(busy.len(), 6);
        let running = [RunningRelease { end_time_s: 1000, partition: 0, nodes: 6 }];
        // Head wants 8 (must wait until t=1000); backfill candidate wants
        // 4 for 500 s (ends at 500 < 1000): allowed.
        let pending = vec![job(1, 8, 400), job(2, 4, 500)];
        let d = schedule_jobs(Policy::EasyBackfill, &pending, &mut pool, 0, &running);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].job_index, 1);
    }

    #[test]
    fn backfill_refuses_job_that_would_delay_head() {
        let cfg = small_config(10);
        let mut pool = NodePool::new(&cfg);
        let _busy = pool.allocate(0, 6).unwrap();
        let running = [RunningRelease { end_time_s: 1000, partition: 0, nodes: 6 }];
        // Backfill candidate runs 2000 s (past the reservation) and needs
        // 4 nodes; spare at shadow = (4 free + 6 released) - 8 = 2 < 4:
        // must NOT start.
        let pending = vec![job(1, 8, 400), job(2, 4, 2000)];
        let d = schedule_jobs(Policy::EasyBackfill, &pending, &mut pool, 0, &running);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn backfill_allows_long_job_within_spare() {
        let cfg = small_config(10);
        let mut pool = NodePool::new(&cfg);
        let _busy = pool.allocate(0, 6).unwrap();
        let running = [RunningRelease { end_time_s: 1000, partition: 0, nodes: 6 }];
        // Spare at shadow = 10 - 8 = 2: a 2-node job may run arbitrarily
        // long without delaying the head.
        let pending = vec![job(1, 8, 400), job(2, 2, 100_000)];
        let d = schedule_jobs(Policy::EasyBackfill, &pending, &mut pool, 0, &running);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].job_index, 1);
    }

    #[test]
    fn multi_partition_pools_are_independent() {
        let mut cfg = SystemConfig::frontier();
        cfg.partitions = vec![
            PartitionConfig { name: "work".into(), nodes: 4, gpus_per_node: 0 },
            PartitionConfig { name: "gpu".into(), nodes: 4, gpus_per_node: 8 },
        ];
        let mut pool = NodePool::new(&cfg);
        let a = pool.allocate(0, 4).unwrap();
        assert_eq!(pool.available(0), 0);
        assert_eq!(pool.available(1), 4);
        // Node ids are globally unique across partitions.
        let b = pool.allocate(1, 4).unwrap();
        assert!(a.iter().all(|id| !b.contains(id)));
        // FCFS blocking in partition 0 must not block partition 1.
        let mut j0 = job(1, 1, 100);
        j0.partition = 0;
        let mut j1 = job(2, 2, 100);
        j1.partition = 1;
        pool.release(1, &b);
        let d = schedule_jobs(Policy::Fcfs, &[j0, j1], &mut pool, 0, &[]);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].job_index, 1);
    }

    #[test]
    fn no_node_double_allocated_across_many_ops() {
        let cfg = small_config(64);
        let mut pool = NodePool::new(&cfg);
        let mut rng = exadigit_sim::Rng::new(99);
        let mut held: Vec<Vec<u32>> = Vec::new();
        for _ in 0..500 {
            if rng.chance(0.6) {
                let n = 1 + rng.uniform_usize(16);
                if let Some(nodes) = pool.allocate(0, n) {
                    held.push(nodes);
                }
            } else if !held.is_empty() {
                let i = rng.uniform_usize(held.len());
                let nodes = held.swap_remove(i);
                pool.release(0, &nodes);
            }
            // Invariant: held + free = capacity, no overlaps.
            let held_count: usize = held.iter().map(|h| h.len()).sum();
            assert_eq!(held_count + pool.available(0), 64);
            let mut seen = std::collections::HashSet::new();
            for h in &held {
                for &id in h {
                    assert!(seen.insert(id), "node {id} double-allocated");
                }
            }
        }
    }
}
