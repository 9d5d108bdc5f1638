//! A bench-side wrapper that times a node's handlers from outside, per
//! message kind, without touching the node.

use clanbft_consensus::SailfishNode;
use clanbft_simnet::protocol::{Ctx, Message, Protocol};
use clanbft_types::PartyId;
use std::ops::Deref;
use std::time::Instant;

/// Host time spent in one kind of handler call.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct HostTime {
    /// Handler invocations.
    pub calls: u64,
    /// Host nanoseconds inside them.
    pub ns: u64,
}

/// Label for `on_timer` calls in the per-kind table.
const TIMER: &str = "timer";
/// Label for `on_start` calls.
const START: &str = "start";
/// Label for `on_restart` calls.
const RESTART: &str = "restart";

/// Wraps a node and accumulates the host time of every handler call, keyed
/// by [`Message::kind`] (timers, start and restart under their own labels).
pub struct Timed<P> {
    inner: P,
    by_kind: Vec<(&'static str, HostTime)>,
}

impl<P> Timed<P> {
    /// Wraps `inner`.
    pub fn new(inner: P) -> Timed<P> {
        Timed {
            inner,
            by_kind: Vec::new(),
        }
    }

    /// Per-kind handler time accumulated so far.
    pub fn by_kind(&self) -> &[(&'static str, HostTime)] {
        &self.by_kind
    }

    fn add(&mut self, kind: &'static str, started: Instant) {
        let ns = started.elapsed().as_nanos() as u64;
        let slot = match self.by_kind.iter().position(|(k, _)| *k == kind) {
            Some(i) => &mut self.by_kind[i].1,
            None => {
                self.by_kind.push((kind, HostTime::default()));
                &mut self.by_kind.last_mut().expect("just pushed").1
            }
        };
        slot.calls += 1;
        slot.ns += ns;
    }
}

impl<M: Message, P: Protocol<M>> Protocol<M> for Timed<P> {
    fn on_start(&mut self, ctx: &mut Ctx<M>) {
        let t = Instant::now();
        self.inner.on_start(ctx);
        self.add(START, t);
    }

    fn on_message(&mut self, from: PartyId, msg: M, ctx: &mut Ctx<M>) {
        let kind = msg.kind();
        let t = Instant::now();
        self.inner.on_message(from, msg, ctx);
        self.add(kind, t);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<M>) {
        let t = Instant::now();
        self.inner.on_timer(token, ctx);
        self.add(TIMER, t);
    }

    fn on_restart(&mut self, ctx: &mut Ctx<M>) {
        let t = Instant::now();
        self.inner.on_restart(ctx);
        self.add(RESTART, t);
    }
}

impl<P: Deref<Target = SailfishNode>> Deref for Timed<P> {
    type Target = SailfishNode;

    fn deref(&self) -> &SailfishNode {
        &self.inner
    }
}
