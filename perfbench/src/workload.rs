//! The four benchmark workloads and one checked point of each.
//!
//! Every workload runs on the paper's 128-node cluster in its scaled
//! (`mini`) profile: leaf-spine 8 racks x 16 nodes with 16 spines, K=16.
//! Why each one is in the set is recorded in `BENCHMARK.json` and
//! `perfbench/README.md`; in short, each loads a different layer:
//!
//! - `uk_gather`: event loop and the reuse mechanisms (filter, coalescing,
//!   Property Cache);
//! - `europe_dense`: set-up and memory (its column count sits just under
//!   the dense-bitset limit, so every client unit allocates dense state),
//!   concatenation and links, with near-zero reuse;
//! - `arabic_scatter`: in-network reduction sharing the switch pipeline
//!   with the gather reads;
//! - `stokes_loss1`: the loss / watchdog / retry / backoff path.

use std::panic::{catch_unwind, AssertUnwindSafe};

use netsparse::config::FaultConfig;
use netsparse::{try_simulate, ClusterConfig, ReduceConfig, SimReport};
use netsparse_desim::{SimTime, SplitMix64};
use netsparse_netsim::{Network, Topology};
use netsparse_sparse::{CommWorkload, SuiteMatrix};

use crate::trace::Recorder;

/// What distinguishes a workload's cluster configuration from the
/// lossless all-mechanism gather.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// All mechanisms, lossless, reduction off.
    Gather,
    /// Gather plus SpMM Partial contributions merged in the switches.
    InNetworkReduce,
    /// 512-idx commands under 1% Bernoulli loss per hop with a 50 us
    /// watchdog (the `ext_faults` recipe, fault seed 13), Property Cache
    /// off. Under loss any shift in packet timing redraws which packets
    /// drop; with the cache on, the relabeling moves cache set placement
    /// and comm time swings 544-1723 us between `--seed`s. Without it the
    /// relabeling is invisible to the simulation, so the run measures
    /// the recovery path, not that chaos.
    Loss1,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub matrix: SuiteMatrix,
    pub scale: f64,
    pub variant: Variant,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "uk_gather",
        matrix: SuiteMatrix::Uk,
        scale: 1.0,
        variant: Variant::Gather,
    },
    Workload {
        name: "europe_dense",
        matrix: SuiteMatrix::Europe,
        scale: 0.5,
        variant: Variant::Gather,
    },
    Workload {
        name: "arabic_scatter",
        matrix: SuiteMatrix::Arabic,
        scale: 1.0,
        variant: Variant::InNetworkReduce,
    },
    Workload {
        name: "stokes_loss1",
        matrix: SuiteMatrix::Stokes,
        scale: 0.5,
        variant: Variant::Loss1,
    },
];

/// Fault seed of the lossy workload; fixed, so the loss pattern is part of
/// the workload definition like the matrix.
const FAULT_SEED: u64 = 13;

fn loss_faults(rate: f64) -> FaultConfig {
    FaultConfig::builder()
        .bernoulli_loss(rate)
        .watchdog_ns(50_000)
        .seed(FAULT_SEED)
        .build()
        .expect("static fault recipe is valid")
}

impl Workload {
    pub fn find(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    pub fn config(&self) -> ClusterConfig {
        let mut cfg = ClusterConfig::mini(Topology::leaf_spine_128(), 16);
        match self.variant {
            Variant::Gather => {}
            Variant::InNetworkReduce => cfg.reduce = ReduceConfig::in_network(),
            Variant::Loss1 => {
                cfg.batch_size = 512;
                cfg.faults = loss_faults(0.01);
                cfg.mechanisms.property_cache = false;
            }
        }
        cfg
    }

    /// The same configuration without loss (watchdog still armed), the
    /// base of `fault.recovery_slowdown`; `None` for lossless workloads.
    pub fn lossless_twin(&self) -> Option<ClusterConfig> {
        (self.variant == Variant::Loss1).then(|| {
            let mut cfg = self.config();
            cfg.faults = loss_faults(0.0);
            cfg
        })
    }

    pub fn generate(&self, matrix_seed: u64) -> CommWorkload {
        self.matrix.workload(self.scale, matrix_seed)
    }
}

/// The input of one run: `wl` with the columns of every owner's range
/// rotated by an offset drawn from `seed`.
///
/// Ownership, every node's stream order, all reuse and the locality of
/// the generator's column ids are unchanged, so the simulated
/// communication has the same structure on every seed while the idx
/// values the simulator handles differ. A fresh generator seed would
/// instead redraw the matrix: its per-node skew and hub placement alone
/// move simulated time by 20-60% between draws, which would drown any
/// change a program version makes. Other draws are run with
/// `--matrix-seed`.
pub fn relabel(wl: &CommWorkload, seed: u64) -> CommWorkload {
    let part = wl.partition();
    let mut rng = SplitMix64::new(seed);
    let shift: Vec<u32> = (0..part.parts())
        .map(|p| rng.next_range(part.part_len(p).max(1) as u64) as u32)
        .collect();
    let rotate = |idx: u32, owner: u32| {
        let r = part.range(owner);
        // Both terms are below the range length: one subtraction wraps.
        let off = idx - r.start + shift[owner as usize];
        r.start
            + if off >= r.end - r.start {
                off - (r.end - r.start)
            } else {
                off
            }
    };
    let streams = (0..wl.nodes())
        .map(|p| {
            let local = part.range(p);
            wl.stream(p)
                .iter()
                .map(|&idx| {
                    // Most idxs are local; skip the owner search for them.
                    let owner = if local.contains(&idx) {
                        p
                    } else {
                        part.owner(idx)
                    };
                    rotate(idx, owner)
                })
                .collect()
        })
        .collect();
    CommWorkload::from_streams(
        part.clone(),
        (0..wl.nodes()).map(|p| wl.rows_of(p)).collect(),
        streams,
    )
}

/// Everything that must repeat exactly between points of one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    events: u64,
    comm_time: SimTime,
    total_link_bytes: u64,
    per_node: Vec<(u64, u64)>,
    audit_digest: Option<u64>,
}

impl Fingerprint {
    pub fn of(r: &SimReport) -> Self {
        Fingerprint {
            events: r.events,
            comm_time: r.comm_time,
            total_link_bytes: r.total_link_bytes,
            per_node: r.nodes.iter().map(|n| (n.issued, n.responses)).collect(),
            audit_digest: r.audit_digest,
        }
    }
}

/// Output checks of one report, independent of other points.
pub fn check_report(w: &Workload, r: &SimReport) -> Result<(), String> {
    if !r.functional_check_passed {
        return Err("functional check failed".into());
    }
    if w.variant == Variant::InNetworkReduce {
        match &r.reduce {
            Some(rr) if rr.conserved() => {}
            Some(rr) => return Err(format!("reduction not conserved: {rr:?}")),
            None => return Err("reduction report missing".into()),
        }
    }
    if w.variant == Variant::Loss1 {
        let abandoned = r.faults.as_ref().map_or(0, |f| f.abandoned_commands);
        if abandoned > 0 {
            return Err(format!("{abandoned} commands abandoned"));
        }
    }
    Ok(())
}

/// Runs `try_simulate`, turning a panic into an error.
pub fn simulate_caught(cfg: &ClusterConfig, wl: &CommWorkload) -> Result<SimReport, String> {
    match catch_unwind(AssertUnwindSafe(|| try_simulate(cfg, wl))) {
        Ok(Ok(r)) => Ok(r),
        Ok(Err(e)) => Err(format!("simulate error: {e}")),
        Err(_) => Err("simulate panicked".into()),
    }
}

/// The same partition and row counts with every stream empty: simulating
/// it costs the world build and nothing else.
fn empty_twin(wl: &CommWorkload) -> CommWorkload {
    let n = wl.nodes();
    CommWorkload::from_streams(
        wl.partition().clone(),
        (0..n).map(|p| wl.rows_of(p)).collect(),
        vec![Vec::new(); n as usize],
    )
}

/// Host times of one point, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct PointTimes {
    pub gen_s: f64,
    pub route_s: f64,
    pub sim_s: f64,
    /// generate + relabel + route + simulate + check.
    pub point_s: f64,
    /// `simulate` on the empty twin (outside `point_s`).
    pub build_s: f64,
}

impl PointTimes {
    pub fn setup_s(&self) -> f64 {
        self.gen_s + self.route_s + self.build_s
    }
}

pub struct Point {
    pub times: PointTimes,
    /// The report when simulation succeeded (checked or not).
    pub report: Option<SimReport>,
    pub failure: Option<String>,
}

/// The seeds that make a run's input.
#[derive(Debug, Clone, Copy)]
pub struct Seeds {
    /// Generator seed: which draw of the matrix.
    pub matrix: u64,
    /// Relabeling seed (`--seed`).
    pub relabel: u64,
}

impl Seeds {
    pub fn input(&self, w: &Workload) -> CommWorkload {
        relabel(&w.generate(self.matrix), self.relabel)
    }
}

/// Generates, relabels, routes, simulates and checks one point, then
/// times the world build on the empty twin. `reference` is the
/// fingerprint every point of the run must reproduce; the first point
/// sets it.
pub fn run_point(
    w: &Workload,
    cfg: &ClusterConfig,
    seeds: Seeds,
    rec: &mut Recorder,
    reference: &mut Option<Fingerprint>,
) -> Point {
    let mut t = PointTimes::default();
    rec.next_point();
    let ((wl, report, failure), point_s) = rec.span("bench", "point", |rec| {
        let (wl, gen_s) = rec.span("sparse", "generate", |_| w.generate(seeds.matrix));
        // `move`: the generated workload is freed before simulating.
        let (wl, _) = rec.span("bench", "relabel", move |_| relabel(&wl, seeds.relabel));
        let (net, route_s) = rec.span("netsim", "route", |_| Network::try_new(cfg.topology));
        let (sim, sim_s) = rec.span("sim", "simulate", |_| simulate_caught(cfg, &wl));
        let ((report, failure), _) = rec.span("bench", "check", |_| {
            let failure = match (&net, &sim) {
                (Err(e), _) => Some(format!("route error: {e}")),
                (_, Err(e)) => Some(e.clone()),
                (Ok(_), Ok(r)) => check_report(w, r).err().or_else(|| {
                    let fp = Fingerprint::of(r);
                    match reference {
                        Some(first) if *first != fp => {
                            Some("fingerprint differs from the run's first point".into())
                        }
                        Some(_) => None,
                        None => {
                            *reference = Some(fp);
                            None
                        }
                    }
                }),
            };
            (sim.ok(), failure)
        });
        t.gen_s = gen_s;
        t.route_s = route_s;
        t.sim_s = sim_s;
        (wl, report, failure)
    });
    t.point_s = point_s;
    let twin = empty_twin(&wl);
    let (built, build_s) = rec.span("sim", "build", |_| simulate_caught(cfg, &twin));
    t.build_s = build_s;
    let failure = failure.or_else(|| built.err().map(|e| format!("empty twin: {e}")));
    Point {
        times: t,
        report,
        failure,
    }
}
