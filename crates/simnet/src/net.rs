//! The discrete-event simulator core.
//!
//! Each node runs a [`Protocol`] state machine. Outgoing messages pass
//! through the sender's uplink queue (serialization at the fan-out-aware
//! effective bandwidth), then propagate with Table 1 one-way delay plus
//! jitter, then wait in the receiver's single-threaded CPU queue where the
//! handler's charged cost is accounted. Before GST an adversary may add
//! arbitrary (bounded, seeded) extra delay; link partitions hold messages
//! until they heal (TCP retransmission semantics — messages are delayed,
//! never lost, matching the paper's reliable-link assumption).

use crate::bandwidth::BandwidthModel;
use crate::cost::CostModel;
use crate::event::EventQueue;
use crate::protocol::{Ctx, Message, Protocol};
use crate::regions::LatencyMatrix;
use clanbft_crypto::ClanRng;
use clanbft_profiler as prof;
use clanbft_telemetry::{Event, Telemetry};
use clanbft_types::{Micros, PartyId};
use std::collections::BTreeMap;

/// Messages at or below this size ride the control lane (their own TCP
/// streams); larger ones are bulk block data sharing the uplink's bulk
/// capacity.
const CONTROL_LANE_MAX_BYTES: usize = 8 * 1024;

/// A temporary bidirectional link cut.
#[derive(Clone, Copy, Debug)]
pub struct Partition {
    /// One endpoint.
    pub a: PartyId,
    /// Other endpoint.
    pub b: PartyId,
    /// Cut start (inclusive).
    pub from: Micros,
    /// Cut end (exclusive); messages in flight are delivered after this.
    pub until: Micros,
}

/// Simulator configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Node placement and propagation delays.
    pub latency: LatencyMatrix,
    /// Uplink bandwidth model.
    pub bandwidth: BandwidthModel,
    /// Host CPU cost model.
    pub cost: CostModel,
    /// Multiplicative latency jitter fraction (delay is scaled by a seeded
    /// uniform factor in `[1−j, 1+j]`).
    pub jitter_frac: f64,
    /// RNG seed for jitter and the pre-GST adversary.
    pub seed: u64,
    /// Global stabilization time; before it the adversary adds extra delay.
    pub gst: Micros,
    /// Maximum extra delay the pre-GST adversary may add per message.
    pub pre_gst_extra_max: Micros,
    /// Per-node bulk fan-out degree, the `k` of the bandwidth model. Set by
    /// the harness from the protocol's dissemination topology.
    pub bulk_fanout: Vec<usize>,
    /// Per-node crash times (`None` = never crashes). A crashed node sends
    /// and processes nothing from its crash time onward — until a scheduled
    /// restart, if any.
    pub crash_at: Vec<Option<Micros>>,
    /// Per-node restart times (`None` = stays down). At its restart time a
    /// crashed node gets [`Protocol::on_restart`]: volatile state is *not*
    /// reset by the simulator — the protocol implementation must rebuild
    /// itself from durable storage there (a real process would boot with an
    /// empty heap). Must be strictly after the node's crash time.
    pub restart_at: Vec<Option<Micros>>,
    /// Temporary link cuts.
    pub partitions: Vec<Partition>,
    /// Telemetry sink for network-level events (drops, partition holds).
    /// Defaults to the disabled handle: one branch per event site.
    pub telemetry: Telemetry,
}

impl SimConfig {
    /// A benign configuration: `n` nodes spread across the paper's five
    /// regions, default bandwidth/cost models, GST at time zero, no faults,
    /// bulk fan-out `n − 1` (full-mesh dissemination).
    pub fn benign(n: usize, seed: u64) -> SimConfig {
        SimConfig {
            latency: LatencyMatrix::evenly_distributed(n),
            bandwidth: BandwidthModel::default(),
            cost: CostModel::default(),
            jitter_frac: 0.03,
            seed,
            gst: Micros::ZERO,
            pre_gst_extra_max: Micros::ZERO,
            bulk_fanout: vec![n.saturating_sub(1).max(1); n],
            crash_at: vec![None; n],
            restart_at: vec![None; n],
            partitions: Vec::new(),
            telemetry: Telemetry::null(),
        }
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.latency.n()
    }
}

// Events are boxed so the binary heap sifts a pointer-sized entry instead
// of copying the full message on every swap — a ~4x win at 150-node scale.
enum SimEvent<M> {
    Deliver { src: PartyId, dst: PartyId, msg: M },
    Timer { node: PartyId, token: u64 },
    Restart { node: PartyId },
}

/// Aggregate traffic statistics, per node and total.
#[derive(Clone, Debug, Default)]
pub struct NetStats {
    /// Bytes placed on the wire by each node (loopback excluded).
    pub sent_bytes: Vec<u64>,
    /// Messages placed on the wire by each node (loopback excluded).
    pub sent_msgs: Vec<u64>,
    /// Messages delivered to handlers.
    pub delivered_msgs: u64,
    /// Messages lost to a crashed endpoint (sender crashed before the wire,
    /// or receiver crashed before delivery).
    pub dropped_msgs: u64,
    /// Wire bytes of the dropped messages.
    pub dropped_bytes: u64,
    /// Messages held by a partition (delivered late after healing — this
    /// sim's partitions delay, they never lose).
    pub partitioned_msgs: u64,
    /// Wire bytes per [`Message::kind`] label, across all senders.
    pub bytes_by_kind: BTreeMap<&'static str, u64>,
    /// Events popped off the queue (deliveries + timers, dropped ones
    /// included). The numerator of the `sim_events_per_sec` host metric.
    pub handled_events: u64,
    /// Simulated timestamp of the last popped event. `run_until` clamps
    /// `now` to its deadline even when the queue drained long before, so
    /// rate metrics divide by this actually-busy span instead.
    pub last_event_at: Micros,
}

impl NetStats {
    /// Total bytes sent across all nodes.
    pub fn total_bytes(&self) -> u64 {
        self.sent_bytes.iter().sum()
    }

    /// Bytes sent under one kind label (0 if never seen).
    pub fn kind_bytes(&self, kind: &str) -> u64 {
        *self.bytes_by_kind.get(kind).unwrap_or(&0)
    }
}

/// The discrete-event simulator over a homogeneous node type `P`.
///
/// Heterogeneous tribes (Byzantine nodes, crash dummies) are modelled by
/// making `P` an enum dispatching to the variant behaviours.
pub struct Simulator<M: Message, P: Protocol<M>> {
    cfg: SimConfig,
    nodes: Vec<P>,
    queue: EventQueue<Box<SimEvent<M>>>,
    now: Micros,
    /// Bulk-lane uplink availability per node (block-sized messages).
    uplink_free: Vec<Micros>,
    /// Control-lane uplink availability per node. Small messages (echoes,
    /// votes, certificates, vertex metadata) ride separate TCP streams in
    /// real deployments and are not head-of-line blocked behind megabytes
    /// of block data; modelling them through the same FIFO would overstate
    /// round times for block-heavy senders.
    ctrl_free: Vec<Micros>,
    /// Precomputed effective uplink bytes/sec per node (the bulk fan-out is
    /// static, so the power law is evaluated once).
    uplink_bps: Vec<f64>,
    busy_until: Vec<Micros>,
    rng: ClanRng,
    stats: NetStats,
    started: bool,
}

impl<M: Message, P: Protocol<M>> Simulator<M, P> {
    /// Creates a simulator over `nodes` (indexed by party id).
    ///
    /// # Panics
    ///
    /// Panics if the node count disagrees with the config.
    pub fn new(cfg: SimConfig, nodes: Vec<P>) -> Simulator<M, P> {
        let n = cfg.n();
        assert_eq!(nodes.len(), n, "node count must match config");
        assert_eq!(
            cfg.bulk_fanout.len(),
            n,
            "bulk_fanout table must cover all nodes"
        );
        assert_eq!(cfg.crash_at.len(), n, "crash table must cover all nodes");
        assert_eq!(
            cfg.restart_at.len(),
            n,
            "restart table must cover all nodes"
        );
        for i in 0..n {
            if let Some(r) = cfg.restart_at[i] {
                let c = cfg.crash_at[i].expect("restart scheduled without a crash");
                assert!(r > c, "node {i}: restart {r} must be after crash {c}");
            }
        }
        Simulator {
            rng: ClanRng::seed_from_u64(cfg.seed),
            stats: NetStats {
                sent_bytes: vec![0; n],
                sent_msgs: vec![0; n],
                ..NetStats::default()
            },
            uplink_free: vec![Micros::ZERO; n],
            ctrl_free: vec![Micros::ZERO; n],
            uplink_bps: cfg
                .bulk_fanout
                .iter()
                .map(|&k| cfg.bandwidth.effective(k))
                .collect(),
            busy_until: vec![Micros::ZERO; n],
            queue: EventQueue::new(),
            now: Micros::ZERO,
            nodes,
            cfg,
            started: false,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> Micros {
        self.now
    }

    /// Traffic statistics so far.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Immutable access to a node's state machine.
    pub fn node(&self, p: PartyId) -> &P {
        &self.nodes[p.idx()]
    }

    /// Mutable access to a node's state machine (harness injection points).
    pub fn node_mut(&mut self, p: PartyId) -> &mut P {
        &mut self.nodes[p.idx()]
    }

    /// Iterates over all node state machines.
    pub fn nodes(&self) -> impl Iterator<Item = &P> {
        self.nodes.iter()
    }

    /// The simulator configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    fn crashed(&self, p: PartyId, at: Micros) -> bool {
        let down_since = match self.cfg.crash_at[p.idx()] {
            None => return false,
            Some(t) => t,
        };
        if at < down_since {
            return false;
        }
        // Inside the crash window unless a restart has already happened.
        match self.cfg.restart_at[p.idx()] {
            Some(r) => at < r,
            None => true,
        }
    }

    /// Runs `on_start` on every live node at time zero and schedules the
    /// configured restarts.
    pub fn start(&mut self) {
        assert!(!self.started, "start may only be called once");
        self.started = true;
        for i in 0..self.nodes.len() {
            if let Some(r) = self.cfg.restart_at[i] {
                self.queue.push(
                    r,
                    Box::new(SimEvent::Restart {
                        node: PartyId(i as u32),
                    }),
                );
            }
        }
        for i in 0..self.nodes.len() {
            let p = PartyId(i as u32);
            if self.crashed(p, Micros::ZERO) {
                continue;
            }
            let cost = self.cfg.cost;
            let mut ctx = Ctx::new(p, Micros::ZERO, &cost);
            self.nodes[i].on_start(&mut ctx);
            self.absorb(p, ctx);
        }
    }

    /// Processes one event; returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        let (at, ev) = match self.queue.pop() {
            None => return false,
            Some(e) => e,
        };
        self.now = at;
        self.stats.handled_events += 1;
        self.stats.last_event_at = at;
        match *ev {
            SimEvent::Deliver { src, dst, msg } => {
                // No per-delivery scope: delivery happens millions of times
                // per run and even a cheap scope would dominate its cost.
                // The run loop (`sim.run` in `run_until`) owns dispatch
                // time; nested stages (rbc, consensus, …) carve out theirs.
                if self.crashed(dst, at) {
                    self.drop_msg(src, dst, &msg, at);
                    return true;
                }
                let start = self.busy_until[dst.idx()].max(at);
                let cost = self.cfg.cost;
                let mut ctx = Ctx::new(dst, start, &cost);
                ctx.charge(self.cfg.cost.per_msg());
                self.stats.delivered_msgs += 1;
                self.nodes[dst.idx()].on_message(src, msg, &mut ctx);
                self.busy_until[dst.idx()] = start + ctx.charged();
                self.absorb(dst, ctx);
            }
            SimEvent::Timer { node, token } => {
                let _prof = prof::scope("sim.timer");
                if self.crashed(node, at) {
                    return true;
                }
                let start = self.busy_until[node.idx()].max(at);
                let cost = self.cfg.cost;
                let mut ctx = Ctx::new(node, start, &cost);
                self.nodes[node.idx()].on_timer(token, &mut ctx);
                self.busy_until[node.idx()] = start + ctx.charged();
                self.absorb(node, ctx);
            }
            SimEvent::Restart { node } => {
                let _prof = prof::scope("sim.restart");
                // The node was dead until this instant; whatever CPU debt it
                // carried died with the process.
                self.busy_until[node.idx()] = at;
                let cost = self.cfg.cost;
                let mut ctx = Ctx::new(node, at, &cost);
                self.nodes[node.idx()].on_restart(&mut ctx);
                self.busy_until[node.idx()] = at + ctx.charged();
                self.absorb(node, ctx);
            }
        }
        true
    }

    /// Runs until the queue drains or simulated time exceeds `deadline`.
    pub fn run_until(&mut self, deadline: Micros) {
        // One scope for the whole drive loop: every nested stage (rbc,
        // consensus, dag, …) lands under `sim.run`, and its *self* time is
        // exactly the dispatch machinery (queue pops, crash checks, message
        // fan-out) that has no finer-grained scope of its own.
        let _prof = prof::scope("sim.run");
        if !self.started {
            self.start();
        }
        while let Some(t) = self.queue.peek_time() {
            if t > deadline {
                break;
            }
            self.step();
        }
        if self.now < deadline {
            self.now = deadline;
        }
    }

    /// Runs until the event queue is fully drained (benign finite runs).
    pub fn run_to_quiescence(&mut self) {
        let _prof = prof::scope("sim.run");
        if !self.started {
            self.start();
        }
        while self.step() {}
    }

    /// Collects a handler's outputs: transmits its messages and arms its
    /// timers, all anchored at the handler's completion time.
    ///
    /// Bulk messages emitted by one handler invocation (a block multicast)
    /// are treated as *concurrent* streams sharing the uplink: they all
    /// depart when the whole burst has been serialized, like parallel TCP
    /// streams fair-sharing a NIC, rather than one-after-another. Sequential
    /// unicast semantics would spread arrivals across the full
    /// serialization window and trigger spurious block pulls at receivers
    /// whose copy is "still in flight".
    fn absorb(&mut self, from: PartyId, ctx: Ctx<'_, M>) {
        let completion = ctx.now();
        let Ctx { outbox, timers, .. } = ctx;
        for (delay, token) in timers {
            self.queue.push(
                completion + delay,
                Box::new(SimEvent::Timer { node: from, token }),
            );
        }
        // First pass: total bulk bytes in this burst.
        let mut bulk_bytes = 0usize;
        for (to, msg) in &outbox {
            if *to != from {
                let b = msg.wire_bytes();
                if b > CONTROL_LANE_MAX_BYTES {
                    bulk_bytes += b;
                }
            }
        }
        let bulk_departure = if bulk_bytes > 0 {
            let ser = Micros::from_secs_f64(bulk_bytes as f64 / self.uplink_bps[from.idx()]);
            let d = self.uplink_free[from.idx()].max(completion) + ser;
            self.uplink_free[from.idx()] = d;
            Some(d)
        } else {
            None
        };
        for (to, msg) in outbox {
            self.transmit(from, to, msg, completion, bulk_departure);
        }
    }

    fn transmit(
        &mut self,
        src: PartyId,
        dst: PartyId,
        msg: M,
        at: Micros,
        bulk_departure: Option<Micros>,
    ) {
        if self.crashed(src, at) {
            self.drop_msg(src, dst, &msg, at);
            return;
        }
        if src == dst {
            // Loopback: no wire, no uplink; deliver after a scheduling tick.
            self.queue
                .push(at, Box::new(SimEvent::Deliver { src, dst, msg }));
            return;
        }
        let bytes = msg.wire_bytes();
        self.stats.sent_bytes[src.idx()] += bytes as u64;
        self.stats.sent_msgs[src.idx()] += 1;
        *self.stats.bytes_by_kind.entry(msg.kind()).or_insert(0) += bytes as u64;

        // Bulk messages share the burst departure computed in `absorb`;
        // control messages serialize on their own lane (separate TCP
        // streams, no head-of-line blocking behind block data).
        let departure = if bytes > CONTROL_LANE_MAX_BYTES {
            bulk_departure.expect("bulk bytes were counted in absorb")
        } else {
            let ser = Micros::from_secs_f64(bytes as f64 / self.uplink_bps[src.idx()]);
            let d = self.ctrl_free[src.idx()].max(at) + ser;
            self.ctrl_free[src.idx()] = d;
            d
        };

        // Propagation with jitter.
        let base = self.cfg.latency.one_way(src, dst);
        let j = self.cfg.jitter_frac;
        let factor = if j > 0.0 {
            self.rng.gen_f64(1.0 - j, 1.0 + j)
        } else {
            1.0
        };
        let prop = Micros((base.0 as f64 * factor).round() as u64);
        let mut arrival = departure + prop;

        // Pre-GST adversary: arbitrary bounded extra delay.
        if departure < self.cfg.gst && self.cfg.pre_gst_extra_max > Micros::ZERO {
            let extra = Micros(self.rng.gen_u64_inclusive(0, self.cfg.pre_gst_extra_max.0));
            arrival += extra;
        }

        // Partitions hold messages until the link heals.
        let mut held_until = None;
        for p in &self.cfg.partitions {
            let cut = (p.a == src && p.b == dst) || (p.a == dst && p.b == src);
            if cut && departure >= p.from && departure < p.until {
                arrival = arrival.max(p.until + prop);
                held_until = Some(held_until.unwrap_or(Micros::ZERO).max(p.until));
            }
        }
        if let Some(until) = held_until {
            self.stats.partitioned_msgs += 1;
            self.cfg
                .telemetry
                .event(departure, src, Event::PartitionHeld { src, dst, until });
        }

        self.queue
            .push(arrival, Box::new(SimEvent::Deliver { src, dst, msg }));
    }

    /// Accounts a message lost to a crashed endpoint.
    fn drop_msg(&mut self, src: PartyId, dst: PartyId, msg: &M, at: Micros) {
        let bytes = msg.wire_bytes() as u64;
        self.stats.dropped_msgs += 1;
        self.stats.dropped_bytes += bytes;
        self.cfg.telemetry.event(
            at,
            src,
            Event::MsgDropped {
                src,
                dst,
                kind: msg.kind().into(),
                bytes,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial ping-pong protocol for exercising the simulator.
    #[derive(Clone, Debug)]
    enum PingMsg {
        Ping(u32),
        Pong(u32),
    }

    impl Message for PingMsg {
        fn wire_bytes(&self) -> usize {
            64
        }

        fn kind(&self) -> &'static str {
            match self {
                PingMsg::Ping(_) => "ping",
                PingMsg::Pong(_) => "pong",
            }
        }
    }

    struct PingNode {
        peer: PartyId,
        initiator: bool,
        pongs_seen: Vec<(u32, Micros)>,
        timer_fired_at: Option<Micros>,
    }

    impl Protocol<PingMsg> for PingNode {
        fn on_start(&mut self, ctx: &mut Ctx<PingMsg>) {
            if self.initiator {
                ctx.send(self.peer, PingMsg::Ping(0));
                ctx.set_timer(Micros::from_millis(500), 99);
            }
        }

        fn on_message(&mut self, from: PartyId, msg: PingMsg, ctx: &mut Ctx<PingMsg>) {
            match msg {
                PingMsg::Ping(k) => ctx.send(from, PingMsg::Pong(k)),
                PingMsg::Pong(k) => self.pongs_seen.push((k, ctx.now())),
            }
        }

        fn on_timer(&mut self, _token: u64, ctx: &mut Ctx<PingMsg>) {
            self.timer_fired_at = Some(ctx.now());
        }
    }

    fn two_nodes(cfg_mut: impl FnOnce(&mut SimConfig)) -> Simulator<PingMsg, PingNode> {
        let mut cfg = SimConfig::benign(2, 1);
        cfg.cost = CostModel::free();
        cfg.jitter_frac = 0.0;
        cfg_mut(&mut cfg);
        let nodes = vec![
            PingNode {
                peer: PartyId(1),
                initiator: true,
                pongs_seen: vec![],
                timer_fired_at: None,
            },
            PingNode {
                peer: PartyId(0),
                initiator: false,
                pongs_seen: vec![],
                timer_fired_at: None,
            },
        ];
        Simulator::new(cfg, nodes)
    }

    #[test]
    fn rtt_matches_latency_matrix() {
        let mut sim = two_nodes(|_| {});
        sim.run_to_quiescence();
        let pongs = &sim.node(PartyId(0)).pongs_seen;
        assert_eq!(pongs.len(), 1);
        // Nodes 0,1 are us-east1/us-west1: RTT ≈ 66.14 ms (plus negligible
        // serialization of two 64-byte messages).
        let rtt = pongs[0].1;
        let expect = sim.config().latency.rtt(PartyId(0), PartyId(1));
        assert!(
            rtt >= expect && rtt < expect + Micros(200),
            "rtt {rtt} vs expected {expect}"
        );
    }

    #[test]
    fn timer_fires_at_requested_time() {
        let mut sim = two_nodes(|_| {});
        sim.run_to_quiescence();
        let t = sim.node(PartyId(0)).timer_fired_at.expect("timer fired");
        assert_eq!(t, Micros::from_millis(500));
    }

    #[test]
    fn crashed_node_is_silent() {
        let mut sim = two_nodes(|cfg| {
            cfg.crash_at[1] = Some(Micros::ZERO);
        });
        sim.run_to_quiescence();
        assert!(sim.node(PartyId(0)).pongs_seen.is_empty());
    }

    /// A crash window with a scheduled restart: deliveries inside the window
    /// are dropped, `on_restart` fires exactly at the restart time, and the
    /// node processes messages again afterwards.
    #[test]
    fn restart_revives_a_crashed_node() {
        #[derive(Clone, Debug)]
        struct Tick;
        impl Message for Tick {
            fn wire_bytes(&self) -> usize {
                16
            }
        }
        struct Node {
            sent: u32,
            heard: Vec<Micros>,
            restarted_at: Option<Micros>,
        }
        impl Protocol<Tick> for Node {
            fn on_start(&mut self, ctx: &mut Ctx<Tick>) {
                if ctx.party() == PartyId(0) {
                    ctx.send(PartyId(1), Tick);
                    self.sent = 1;
                    ctx.set_timer(Micros::from_millis(100), 1);
                }
            }
            fn on_message(&mut self, _from: PartyId, _msg: Tick, ctx: &mut Ctx<Tick>) {
                self.heard.push(ctx.now());
            }
            fn on_timer(&mut self, _token: u64, ctx: &mut Ctx<Tick>) {
                if self.sent < 10 {
                    ctx.send(PartyId(1), Tick);
                    self.sent += 1;
                    ctx.set_timer(Micros::from_millis(100), 1);
                }
            }
            fn on_restart(&mut self, ctx: &mut Ctx<Tick>) {
                self.restarted_at = Some(ctx.now());
            }
        }
        let mut cfg = SimConfig::benign(2, 3);
        cfg.cost = CostModel::free();
        cfg.jitter_frac = 0.0;
        cfg.crash_at[1] = Some(Micros::from_millis(50));
        cfg.restart_at[1] = Some(Micros::from_millis(450));
        let node = |_| Node {
            sent: 0,
            heard: vec![],
            restarted_at: None,
        };
        let mut sim = Simulator::new(cfg, (0..2).map(node).collect());
        sim.run_to_quiescence();
        let receiver = sim.node(PartyId(1));
        assert_eq!(
            receiver.restarted_at,
            Some(Micros::from_millis(450)),
            "on_restart fires at the scheduled time"
        );
        // Ticks depart every 100 ms; one-way delay ≈ 33 ms. Arrivals inside
        // the [50 ms, 450 ms) window are dropped, the rest heard.
        assert!(
            !receiver.heard.is_empty(),
            "pre-crash delivery must be heard"
        );
        assert!(
            receiver
                .heard
                .iter()
                .all(|&t| t < Micros::from_millis(50) || t >= Micros::from_millis(450)),
            "no delivery may land inside the crash window: {:?}",
            receiver.heard
        );
        assert!(
            receiver
                .heard
                .iter()
                .any(|&t| t >= Micros::from_millis(450)),
            "post-restart deliveries must resume"
        );
        assert!(sim.stats().dropped_msgs > 0, "window deliveries dropped");
    }

    #[test]
    fn partition_delays_but_delivers() {
        let mut sim = two_nodes(|cfg| {
            cfg.partitions.push(Partition {
                a: PartyId(0),
                b: PartyId(1),
                from: Micros::ZERO,
                until: Micros::from_millis(300),
            });
        });
        sim.run_to_quiescence();
        let pongs = &sim.node(PartyId(0)).pongs_seen;
        assert_eq!(pongs.len(), 1, "message survives the partition");
        assert!(
            pongs[0].1 > Micros::from_millis(300),
            "delivered after healing"
        );
    }

    #[test]
    fn pre_gst_adversary_delays() {
        let mut sim = two_nodes(|cfg| {
            cfg.gst = Micros::from_secs(10);
            cfg.pre_gst_extra_max = Micros::from_secs(2);
            cfg.seed = 7;
        });
        sim.run_to_quiescence();
        let pongs = &sim.node(PartyId(0)).pongs_seen;
        let base_rtt = sim.config().latency.rtt(PartyId(0), PartyId(1));
        assert_eq!(pongs.len(), 1);
        assert!(pongs[0].1 > base_rtt, "adversary added delay");
    }

    #[test]
    fn determinism_across_runs() {
        let run = || {
            let mut sim = two_nodes(|cfg| {
                cfg.jitter_frac = 0.05;
                cfg.seed = 42;
            });
            sim.run_to_quiescence();
            sim.node(PartyId(0)).pongs_seen.clone()
        };
        assert_eq!(run(), run());
    }

    /// The jittered arrival time for seed 42 is pinned to a constant: the
    /// PRNG stream must be identical across process runs, platforms and
    /// releases, or every seeded experiment silently re-randomizes. Pinned
    /// once when `ClanRng` replaced `rand::StdRng`.
    #[test]
    fn jitter_pinned_across_processes() {
        let mut sim = two_nodes(|cfg| {
            cfg.jitter_frac = 0.05;
            cfg.seed = 42;
        });
        sim.run_to_quiescence();
        let pongs = &sim.node(PartyId(0)).pongs_seen;
        assert_eq!(pongs.len(), 1);
        assert_eq!(pongs[0].1, Micros(PINNED_JITTERED_RTT_SEED42));
    }

    const PINNED_JITTERED_RTT_SEED42: u64 = 67_630;

    #[test]
    fn stats_count_wire_traffic() {
        let mut sim = two_nodes(|_| {});
        sim.run_to_quiescence();
        let stats = sim.stats();
        assert_eq!(stats.sent_msgs[0], 1);
        assert_eq!(stats.sent_msgs[1], 1);
        assert_eq!(stats.total_bytes(), 128);
        assert_eq!(stats.delivered_msgs, 2);
        // Per-kind byte breakdown: one 64-byte ping, one 64-byte pong.
        assert_eq!(stats.kind_bytes("ping"), 64);
        assert_eq!(stats.kind_bytes("pong"), 64);
        assert_eq!(stats.kind_bytes("other"), 0);
        // Benign run: nothing dropped or partitioned.
        assert_eq!(stats.dropped_msgs, 0);
        assert_eq!(stats.dropped_bytes, 0);
        assert_eq!(stats.partitioned_msgs, 0);

        // Receiver crashed mid-flight: the ping goes on the wire (counted
        // sent) but is dropped at delivery, so the pong never happens.
        let mut sim = two_nodes(|cfg| {
            cfg.crash_at[1] = Some(Micros(1));
        });
        sim.run_to_quiescence();
        let stats = sim.stats();
        assert_eq!(stats.sent_msgs[0], 1);
        assert_eq!(stats.delivered_msgs, 0);
        assert_eq!(stats.dropped_msgs, 1);
        assert_eq!(stats.dropped_bytes, 64);
        assert_eq!(stats.kind_bytes("pong"), 0);
    }

    /// Partition holds are counted (and the messages still arrive late).
    #[test]
    fn stats_count_partition_holds() {
        let mut sim = two_nodes(|cfg| {
            cfg.partitions.push(Partition {
                a: PartyId(0),
                b: PartyId(1),
                from: Micros::ZERO,
                until: Micros::from_millis(300),
            });
        });
        sim.run_to_quiescence();
        let stats = sim.stats();
        // The ping is held; the pong departs after healing and flows free.
        assert_eq!(stats.partitioned_msgs, 1);
        assert_eq!(stats.dropped_msgs, 0);
        assert_eq!(stats.delivered_msgs, 2);
    }

    /// Network-level telemetry: drops and partition holds emit events.
    #[test]
    fn telemetry_records_drops_and_holds() {
        use clanbft_telemetry::Telemetry;
        let (tel, rec) = Telemetry::mem();
        let mut sim = two_nodes(|cfg| {
            cfg.telemetry = tel;
            cfg.crash_at[1] = Some(Micros(1));
        });
        sim.run_to_quiescence();
        let events = rec.events();
        assert_eq!(events.len(), 1);
        let nd = events[0].to_ndjson();
        assert!(
            nd.contains(r#""ev":"msg_dropped""#) && nd.contains(r#""kind":"ping""#),
            "unexpected event line: {nd}"
        );
    }

    /// Charged CPU time serializes a node's message processing.
    #[test]
    fn cpu_charges_backpressure_processing() {
        #[derive(Clone, Debug)]
        struct Work;
        impl Message for Work {
            fn wire_bytes(&self) -> usize {
                32
            }
        }
        struct Worker {
            completions: Vec<Micros>,
        }
        impl Protocol<Work> for Worker {
            fn on_start(&mut self, ctx: &mut Ctx<Work>) {
                if ctx.party() == PartyId(0) {
                    for _ in 0..4 {
                        ctx.send(PartyId(1), Work);
                    }
                }
            }
            fn on_message(&mut self, _from: PartyId, _msg: Work, ctx: &mut Ctx<Work>) {
                // Each message costs 100 ms of simulated CPU.
                ctx.charge(Micros::from_millis(100));
                self.completions.push(ctx.now());
            }
            fn on_timer(&mut self, _t: u64, _ctx: &mut Ctx<Work>) {}
        }
        let mut cfg = SimConfig::benign(2, 0);
        cfg.cost = CostModel::free();
        cfg.jitter_frac = 0.0;
        let mut sim = Simulator::new(
            cfg,
            vec![
                Worker {
                    completions: vec![],
                },
                Worker {
                    completions: vec![],
                },
            ],
        );
        sim.run_to_quiescence();
        let c = &sim.node(PartyId(1)).completions;
        assert_eq!(c.len(), 4);
        // Messages arrive nearly together but each handler observes the
        // clock after its own work plus all queued predecessors'.
        for w in c.windows(2) {
            let gap = w[1] - w[0];
            assert_eq!(gap, Micros::from_millis(100), "single-threaded queueing");
        }
    }

    /// Serialization delay under a slow flat-bandwidth link.
    #[test]
    fn uplink_serialization_queues() {
        #[derive(Clone, Debug)]
        struct Big;
        impl Message for Big {
            fn wire_bytes(&self) -> usize {
                1_000_000
            }
        }
        struct Sender {
            arrivals: Vec<Micros>,
        }
        impl Protocol<Big> for Sender {
            fn on_start(&mut self, ctx: &mut Ctx<Big>) {
                if ctx.party() == PartyId(0) {
                    // Two 1 MB messages back-to-back on a 1 MB/s uplink.
                    ctx.send(PartyId(1), Big);
                    ctx.send(PartyId(1), Big);
                }
            }
            fn on_message(&mut self, _from: PartyId, _msg: Big, ctx: &mut Ctx<Big>) {
                self.arrivals.push(ctx.now());
            }
            fn on_timer(&mut self, _t: u64, _ctx: &mut Ctx<Big>) {}
        }
        let mut cfg = SimConfig::benign(2, 0);
        cfg.bandwidth = BandwidthModel::flat(1e6);
        cfg.cost = CostModel::free();
        cfg.jitter_frac = 0.0;
        let mut sim = Simulator::new(
            cfg,
            vec![Sender { arrivals: vec![] }, Sender { arrivals: vec![] }],
        );
        sim.run_to_quiescence();
        let arr = &sim.node(PartyId(1)).arrivals;
        assert_eq!(arr.len(), 2);
        // Both messages belong to one burst (one handler invocation): they
        // share the uplink concurrently and arrive together, 2 s of
        // serialization plus propagation after the start.
        assert_eq!(arr[0], arr[1], "burst messages arrive together");
        let prop = sim.config().latency.one_way(PartyId(0), PartyId(1));
        assert_eq!(arr[0], Micros::from_secs(2) + prop);
    }

    /// Bulk sends from *separate* handler invocations queue sequentially.
    #[test]
    fn uplink_bursts_queue_behind_each_other() {
        #[derive(Clone, Debug)]
        struct Big;
        impl Message for Big {
            fn wire_bytes(&self) -> usize {
                1_000_000
            }
        }
        struct Sender {
            arrivals: Vec<Micros>,
        }
        impl Protocol<Big> for Sender {
            fn on_start(&mut self, ctx: &mut Ctx<Big>) {
                if ctx.party() == PartyId(0) {
                    ctx.send(PartyId(1), Big);
                    ctx.set_timer(Micros(1), 1);
                }
            }
            fn on_message(&mut self, _from: PartyId, _msg: Big, ctx: &mut Ctx<Big>) {
                self.arrivals.push(ctx.now());
            }
            fn on_timer(&mut self, _t: u64, ctx: &mut Ctx<Big>) {
                ctx.send(PartyId(1), Big);
            }
        }
        let mut cfg = SimConfig::benign(2, 0);
        cfg.bandwidth = BandwidthModel::flat(1e6);
        cfg.cost = CostModel::free();
        cfg.jitter_frac = 0.0;
        let mut sim = Simulator::new(
            cfg,
            vec![Sender { arrivals: vec![] }, Sender { arrivals: vec![] }],
        );
        sim.run_to_quiescence();
        let arr = &sim.node(PartyId(1)).arrivals;
        assert_eq!(arr.len(), 2);
        // The second burst waits for the first to drain: arrivals ~1 s apart.
        let gap = arr[1] - arr[0];
        assert!(
            gap >= Micros::from_millis(999),
            "second burst must queue behind the first (gap {gap})"
        );
    }
}
