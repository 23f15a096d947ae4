//! Component replays: a point's own generated streams fed, from outside,
//! into the public hardware-model types, to time each component per
//! operation. These give per-layer host costs only; no end-to-end metric
//! depends on them.

use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;

use netsparse::ClusterConfig;
use netsparse_desim::{EventQueue, SimTime, SplitMix64};
use netsparse_snic::protocol::partial_contrib_value;
use netsparse_snic::{IdxFilter, IdxOutcome, Pr, RigClient};
use netsparse_sparse::CommWorkload;
use netsparse_switch::{PropertyCache, ReduceTable};

use crate::trace::Recorder;

/// Host cost per operation of each replayed component, in ns.
#[derive(Debug, Clone, Copy)]
pub struct ReplayCosts {
    pub scan_ns_per_idx: f64,
    pub cache_ns_per_probe: f64,
    pub reduce_ns_per_fold: f64,
    pub queue_ns_per_op: f64,
}

/// One read PR the RIG replay issued: requesting node and idx.
#[derive(Debug, Clone, Copy)]
struct Issued {
    node: u32,
    idx: u32,
}

/// An issued read as its rack's edge switch sees it, with what the
/// switch models derive from it precomputed, so the timed replays cost
/// the models alone.
#[derive(Debug, Clone, Copy)]
struct RackRead {
    node: u32,
    idx: u32,
    /// Owner of `idx`: where the read goes and its Partial is reduced to.
    root: u32,
    /// Whether the owner sits under another edge switch (only those reads
    /// reach the Property Cache).
    inter_rack: bool,
}

/// Runs every replay once inside spans of `rec`, checking each one's own
/// invariants. `events` sizes the event-queue replay (the point's event
/// count).
pub fn run(
    rec: &mut Recorder,
    cfg: &ClusterConfig,
    wl: &CommWorkload,
    events: u64,
) -> Result<ReplayCosts, String> {
    let (issued, scan_s) = rec.span("snic", "rig_scan_replay", |_| rig_scan(cfg, wl));
    let (issued, idxs) = issued?;
    let racks = rack_streams(cfg, wl, &issued);
    let cache_reads: Vec<Vec<u32>> = racks
        .iter()
        .map(|r| r.iter().filter(|x| x.inter_rack).map(|x| x.idx).collect())
        .collect();
    let (probes, cache_s) = rec.span("switch", "cache_replay", |_| cache_probe(cfg, &cache_reads));
    let (folds, reduce_s) = rec.span("switch", "reduce_replay", |_| reduce_fold(&racks));
    let folds = folds?;
    let (ops, queue_s) = rec.span("desim", "queue_replay", |_| queue_hold(events));
    let ops = ops?;
    let per = |s: f64, n: u64| s * 1e9 / n.max(1) as f64;
    Ok(ReplayCosts {
        scan_ns_per_idx: per(scan_s, idxs),
        cache_ns_per_probe: per(cache_s, probes),
        reduce_ns_per_fold: per(reduce_s, folds),
        queue_ns_per_op: per(queue_s, ops),
    })
}

/// Every node's stream through one `RigClient` sharing the node's Idx
/// Filter. Responses are modelled as landing in issue order once half
/// the Pending table is outstanding (or at once when it fills), so
/// coalescing, filtering and stalls all occur. Returns the issued PRs and
/// the idx count.
fn rig_scan(cfg: &ClusterConfig, wl: &CommWorkload) -> Result<(Vec<Issued>, u64), String> {
    let entries = cfg.snic.pending_entries;
    let lag = (entries / 2).max(1);
    let mut issued = Vec::new();
    let mut idxs = 0u64;
    for node in 0..wl.nodes() {
        let local = wl.partition().range(node);
        let mut filter = IdxFilter::new(wl.n_cols());
        let mut unit = RigClient::with_idx_domain(node, 0, entries, wl.n_cols());
        let mut outstanding: VecDeque<u32> = VecDeque::with_capacity(entries);
        for &idx in wl.stream(node) {
            idxs += 1;
            let is_local = local.contains(&idx);
            loop {
                match unit.process_idx(idx, is_local, true, true, &mut filter) {
                    IdxOutcome::Issued(pr) => {
                        issued.push(Issued { node, idx: pr.idx });
                        outstanding.push_back(pr.idx);
                        if outstanding.len() > lag {
                            let done = outstanding.pop_front().expect("non-empty");
                            unit.complete(done, &mut filter);
                        }
                    }
                    IdxOutcome::Stalled => {
                        let done = outstanding
                            .pop_front()
                            .ok_or("rig replay: stalled with nothing outstanding")?;
                        unit.complete(done, &mut filter);
                        continue;
                    }
                    _ => {}
                }
                break;
            }
        }
        for done in outstanding.drain(..) {
            unit.complete(done, &mut filter);
        }
        let st = unit.stats();
        if st.local + st.filtered + st.coalesced + st.issued != wl.stream(node).len() as u64 {
            return Err(format!(
                "rig replay: node {node} outcome counts do not cover its stream"
            ));
        }
    }
    Ok((black_box(issued), idxs))
}

/// Each rack's issued PRs (a rack is the nodes under one edge switch) in
/// the order its nodes would interleave them: round-robin over the rack's
/// nodes, 256 PRs at a time.
fn rack_streams(cfg: &ClusterConfig, wl: &CommWorkload, issued: &[Issued]) -> Vec<Vec<RackRead>> {
    let rack_of = |node: u32| cfg.topology.edge_switch_of(node);
    let mut per_node: Vec<Vec<RackRead>> = vec![Vec::new(); wl.nodes() as usize];
    for &Issued { node, idx } in issued {
        let root = wl.owner(idx);
        per_node[node as usize].push(RackRead {
            node,
            idx,
            root,
            inter_rack: rack_of(root) != rack_of(node),
        });
    }
    let mut racks: BTreeMap<u32, Vec<&[RackRead]>> = BTreeMap::new();
    for (node, reads) in per_node.iter().enumerate() {
        let rack = rack_of(node as u32).0;
        racks.entry(rack).or_default().push(reads);
    }
    racks
        .into_values()
        .map(|nodes| {
            let mut rack = Vec::new();
            let longest = nodes.iter().map(|n| n.len()).max().unwrap_or(0);
            for pos in (0..longest).step_by(256) {
                for n in &nodes {
                    rack.extend_from_slice(&n[pos.min(n.len())..(pos + 256).min(n.len())]);
                }
            }
            rack
        })
        .collect()
}

/// One Property Cache per rack probed with the rack's inter-rack reads;
/// a miss fills the line, as the response passing back would.
fn cache_probe(cfg: &ClusterConfig, racks: &[Vec<u32>]) -> u64 {
    let mut probes = 0u64;
    let mut hits = 0u64;
    for reads in racks {
        let mut cache = PropertyCache::new(cfg.switch.cache, cfg.payload_bytes());
        for &idx in reads {
            probes += 1;
            if cache.lookup(idx) {
                hits += 1;
            } else {
                cache.insert(idx);
            }
        }
    }
    black_box(hits);
    probes
}

/// One reduce table per rack folding a Partial contribution for every
/// issued read, as the scatter phase sends them; the simulated clock
/// advances 1 ns per contribution so aggregation windows close. Checks
/// that contributions and their wrapping value sum are conserved.
fn reduce_fold(racks: &[Vec<RackRead>]) -> Result<u64, String> {
    let rc = netsparse::ReduceConfig::in_network();
    let mut folds = 0u64;
    for reads in racks {
        let mut table = ReduceTable::new(rc.table_entries, SimTime::from_ns(rc.flush_ns));
        let (mut n_in, mut v_in) = (0u64, 0u32);
        let (mut n_out, mut v_out) = (0u64, 0u32);
        let mut sink = |_root: u32, pr: Pr| {
            n_out += pr.partial_contribs();
            v_out = v_out.wrapping_add(pr.partial_value());
        };
        for (t, i) in reads.iter().enumerate() {
            let now = SimTime::from_ns(t as u64);
            table.flush_expired_with(now, &mut sink);
            let v = partial_contrib_value(i.node, i.idx);
            n_in += 1;
            v_in = v_in.wrapping_add(v);
            if let Some(pr) = table.absorb(now, i.root, Pr::partial(i.node, i.idx, 1, v)) {
                sink(i.root, pr);
            }
            folds += 1;
        }
        table.flush_all_with(&mut sink);
        if (n_in, v_in) != (n_out, v_out) {
            return Err(format!(
                "reduce replay: {n_in} contributions in, {n_out} out"
            ));
        }
    }
    Ok(folds)
}

/// The classic hold model on the engine's queue: `events` pop + push
/// pairs over a queue kept at 1024 pending events, delays drawn from a
/// fixed seed. Checks that pops come out in time order.
fn queue_hold(events: u64) -> Result<u64, String> {
    let mut rng = SplitMix64::new(0x5EED);
    let mut q: EventQueue<u64> = EventQueue::new();
    for i in 0..1024u64 {
        q.push(SimTime::from_ns(rng.next_u64() % 10_000), i);
    }
    let mut last = SimTime::ZERO;
    for i in 0..events {
        let (t, e) = q.pop().ok_or("queue replay: queue ran empty")?;
        if t < last {
            return Err("queue replay: pop out of time order".into());
        }
        last = t;
        black_box(e);
        let delay = SimTime::from_ns(1 + rng.next_u64() % 10_000);
        q.push(
            t.checked_add(delay).ok_or("queue replay: time overflow")?,
            i,
        );
    }
    Ok(2 * events)
}
