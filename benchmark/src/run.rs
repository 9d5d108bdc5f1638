//! Executes one repetition of a workload: set-up, the event loop, and the
//! extraction of what it committed. The untraced path calls the program
//! exactly as a user would (`build_tribe`, `Simulator::run_until`); the
//! traced path additionally records telemetry, runs the profiler in
//! timing-only mode and times every handler through [`Timed`]. Both run
//! the event loop in slices of simulated time and sample the host's speed
//! between slices ([`crate::calibrate`]).

use crate::adapter::{HostTime, Timed};
use crate::calibrate::Calibrator;
use crate::outcome::{dedup_batches, Batch, Commit, Observation, Restarted};
use crate::workload::{plan, Plan, Workload};
use clanbft_adversary::AdversaryNode;
use clanbft_consensus::{ConsensusMsg, NodeConfig, SailfishNode};
use clanbft_crypto::{Authenticator, Registry, Scheme};
use clanbft_profiler as prof;
use clanbft_sim::{build_tribe, BuiltTribe, TribeNode};
use clanbft_simnet::net::{NetStats, Simulator};
use clanbft_simnet::protocol::Protocol;
use clanbft_telemetry::{MemRecorder, Telemetry};
use clanbft_types::{Micros, PartyId, Round};
use std::collections::BTreeMap;
use std::ops::Deref;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Event-log capacity of a traced run: large enough that no n = 50
/// workload drops an event (a drop is reported as a failure).
const TRACE_EVENT_CAP: usize = 16_000_000;

/// Simulated time one `run_until` call advances the event loop by.
const SLICE: Micros = Micros(20_000);

/// Event-loop host time between two samples of the host's speed.
const SAMPLE_EVERY: Duration = Duration::from_millis(50);

/// What one repetition produced.
pub struct Rep {
    /// Host seconds inside `Simulator::run_until`.
    pub wall_s: f64,
    /// `wall_s` normalized to the reference host's speed.
    pub ref_s: f64,
    /// Host-speed kernel samples taken during the event loop.
    pub speed_samples: usize,
    /// What the run committed.
    pub obs: Observation,
    /// The simulator's traffic statistics.
    pub net: NetStats,
    /// The traced run's raw ledger inputs (`None` when untraced).
    pub trace: Option<Trace>,
}

/// Raw per-layer inputs a traced repetition collects.
pub struct Trace {
    /// Every counter, histogram and protocol event of the run.
    pub rec: Arc<MemRecorder>,
    /// The profiler's timing-only scope tree of the event loop.
    pub profile: prof::Report,
    /// Handler host time per message kind, summed over all nodes.
    pub handlers: BTreeMap<&'static str, HostTime>,
}

/// Times set-up alone: the seeded plan (clan election included) and
/// `build_tribe` (keys, topology, storage open, node construction). A run
/// needs `root` empty; set-up alone may open a store a previous set-up
/// created.
pub fn setup(workload: Workload, seed: u64, root: &Path) -> (Plan, BuiltTribe, f64) {
    let started = Instant::now();
    let plan = plan(workload, seed, root);
    let built = build_tribe(&plan.spec);
    (plan, built, started.elapsed().as_secs_f64())
}

/// One untraced repetition; `root` must not exist yet.
pub fn untraced(workload: Workload, seed: u64, root: &Path) -> Rep {
    let (plan, mut built, _) = setup(workload, seed, root);
    let (clock, before) = drive(&mut built.sim, &plan);
    let obs = observe(&built.sim, &built.honest, &plan, before);
    let net = built.sim.stats().clone();
    Rep {
        wall_s: clock.wall.as_secs_f64(),
        ref_s: clock.ref_s(),
        speed_samples: clock.cal.calls(),
        obs,
        net,
        trace: None,
    }
}

/// Runs `plan` untimed and untraced and returns what it committed (for
/// tests on small tribes).
pub fn observe_plan(plan: &Plan) -> Observation {
    let mut built = build_tribe(&plan.spec);
    let (_, before) = drive(&mut built.sim, plan);
    observe(&built.sim, &built.honest, plan, before)
}

/// One traced repetition; `root` must not exist yet.
pub fn traced(workload: Workload, seed: u64, root: &Path) -> Rep {
    let mut plan = plan(workload, seed, root);
    let (telemetry, rec) = Telemetry::mem_with_capacity(TRACE_EVENT_CAP);
    plan.spec.telemetry = telemetry;
    let (mut sim, honest) = rewrap(build_tribe(&plan.spec));
    prof::reset();
    prof::enable_timing_only();
    let (clock, before) = drive(&mut sim, &plan);
    prof::disable();
    let profile = prof::take_report();
    let mut handlers: BTreeMap<&'static str, HostTime> = BTreeMap::new();
    for node in sim.nodes() {
        for (kind, t) in node.by_kind() {
            let e = handlers.entry(kind).or_default();
            e.calls += t.calls;
            e.ns += t.ns;
        }
    }
    let obs = observe(&sim, &honest, &plan, before);
    let net = sim.stats().clone();
    Rep {
        wall_s: clock.wall.as_secs_f64(),
        ref_s: clock.ref_s(),
        speed_samples: clock.cal.calls(),
        obs,
        net,
        trace: Some(Trace {
            rec,
            profile,
            handlers,
        }),
    }
}

/// Moves the nodes `build_tribe` made into a fresh simulator of
/// [`Timed`] wrappers with the identical configuration. The simulator is
/// deterministic in its configuration and nodes, so the traced run
/// replays the untraced one exactly (the caller checks that it does).
fn rewrap(built: BuiltTribe) -> (Simulator<ConsensusMsg, Timed<TribeNode>>, Vec<PartyId>) {
    let BuiltTribe {
        mut sim,
        topology,
        honest,
    } = built;
    let n = sim.config().n();
    let (registry, mut keys) = Registry::generate(Scheme::Keyed, 1, 0);
    let auth = Arc::new(Authenticator::new(0, keys.remove(0), registry));
    let nodes = (0..n as u32)
        .map(|i| {
            let mut cfg = NodeConfig::new(PartyId(0), Arc::clone(&topology));
            cfg.txs_per_proposal = 0;
            let stand_in = AdversaryNode::honest(SailfishNode::new(cfg, Arc::clone(&auth)));
            Timed::new(std::mem::replace(sim.node_mut(PartyId(i)), stand_in))
        })
        .collect();
    (Simulator::new(sim.config().clone(), nodes), honest)
}

/// A party's view while it is alive: its commits and its proposals.
struct Incarnation {
    commits: Vec<Commit>,
    batches: Vec<Batch>,
    offered: u64,
    rejected: u64,
}

fn incarnation(node: &SailfishNode) -> Incarnation {
    let (offered, rejected) = node.ingress().map_or((0, 0), |i| {
        let s = i.pool().stats();
        (s.admitted + s.rejected(), s.rejected())
    });
    Incarnation {
        commits: node
            .committed_log
            .iter()
            .map(|c| Commit {
                seq: c.sequence,
                vertex: c.vertex,
                at: c.committed_at,
            })
            .collect(),
        batches: node
            .proposed_batches
            .iter()
            .map(|b| Batch {
                vertex: b.vertex,
                created_at: b.created_at,
                count: u64::from(b.count),
            })
            .collect(),
        offered,
        rejected,
    }
}

/// Event-loop host time, with the host's speed sampled between slices.
struct Clock {
    cal: Calibrator,
    wall: Duration,
    since_sample: Duration,
}

impl Clock {
    fn new() -> Clock {
        let mut cal = Calibrator::new();
        cal.sample();
        Clock {
            cal,
            wall: Duration::ZERO,
            since_sample: Duration::ZERO,
        }
    }

    /// Runs `sim` to `until` in [`SLICE`]s, timing only `run_until` and
    /// sampling the host's speed every [`SAMPLE_EVERY`] of it. The
    /// simulator processes the same events in the same order as in one
    /// `run_until(until)` call.
    fn run<P>(&mut self, sim: &mut Simulator<ConsensusMsg, P>, until: Micros)
    where
        P: Protocol<ConsensusMsg>,
    {
        loop {
            let to = Micros(sim.now().0.saturating_add(SLICE.0).min(until.0));
            let t = Instant::now();
            sim.run_until(to);
            let spent = t.elapsed();
            self.wall += spent;
            self.since_sample += spent;
            if self.since_sample >= SAMPLE_EVERY {
                self.since_sample = Duration::ZERO;
                self.cal.sample();
            }
            if to >= until {
                return;
            }
        }
    }

    fn ref_s(&self) -> f64 {
        self.cal.normalize(self.wall.as_secs_f64())
    }
}

/// Runs the event loop to the plan's horizon. With a crash scheduled the
/// loop pauses at the crash instant (untimed) to record the doomed
/// incarnation, which the restart discards.
fn drive<P>(sim: &mut Simulator<ConsensusMsg, P>, plan: &Plan) -> (Clock, Option<Incarnation>)
where
    P: Protocol<ConsensusMsg> + Deref<Target = SailfishNode>,
{
    let mut clock = Clock::new();
    let mut before = None;
    if let Some((party, crash_at, _)) = plan.crash {
        clock.run(sim, crash_at);
        before = Some(incarnation(sim.node(party)));
    }
    clock.run(sim, plan.horizon);
    (clock, before)
}

fn observe<P>(
    sim: &Simulator<ConsensusMsg, P>,
    honest: &[PartyId],
    plan: &Plan,
    before: Option<Incarnation>,
) -> Observation
where
    P: Protocol<ConsensusMsg> + Deref<Target = SailfishNode>,
{
    let n = sim.config().n() as u32;
    let schedule = sim.node(honest[0]).schedule();
    let mut obs = Observation {
        wire_bytes: sim.stats().total_bytes(),
        leaders: (0..=plan.rounds + 2)
            .map(|r| schedule.leader(Round(r)))
            .collect(),
        warmup_rounds: plan.warmup_rounds,
        last_round: plan.last_round,
        rounds: plan.rounds,
        ..Observation::default()
    };
    let mut incarnations = Vec::new();
    for p in (0..n).map(PartyId) {
        let node: &SailfishNode = sim.node(p);
        let now = incarnation(node);
        match (plan.crash, &before) {
            (Some((party, crash_at, restart_at)), Some(pre)) if party == p => {
                obs.offered += pre.offered;
                obs.rejected += pre.rejected;
                incarnations.push(pre.batches.clone());
                obs.offered += now.offered;
                obs.rejected += now.rejected;
                incarnations.push(now.batches);
                obs.restarted = Some(Restarted {
                    party,
                    crash_at,
                    restart_at,
                    before: pre.commits.clone(),
                    after: now.commits,
                    resumed_seq: node.commit_seq_base(),
                    recovered: node.recovered(),
                });
            }
            _ => {
                obs.offered += now.offered;
                obs.rejected += now.rejected;
                incarnations.push(now.batches);
                if !honest.contains(&p) {
                    continue;
                }
                if plan.audit_exactly_once {
                    obs.own_ranges.push((p, own_ranges(node, p)));
                }
                obs.logs.push((p, now.commits));
            }
        }
    }
    obs.batches = dedup_batches(&incarnations);
    obs
}

/// `(first_seq, count)` of every client batch in `p`'s own committed
/// blocks.
fn own_ranges(node: &SailfishNode, p: PartyId) -> Vec<(u64, u64)> {
    node.committed_log
        .iter()
        .filter(|c| c.vertex.source == p)
        .filter_map(|c| node.held_block(&c.vertex))
        .flat_map(|b| b.batches.iter().map(|t| (t.first_seq, u64::from(t.count))))
        .collect()
}
