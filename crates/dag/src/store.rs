//! Vertex storage with causal-completeness buffering and path queries.

use clanbft_types::{PartyId, Round, TribeParams, Vertex, VertexRef};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::sync::Arc;

/// Result of offering a vertex to the store.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InsertOutcome {
    /// The vertex (and possibly previously-pending descendants) became live.
    /// Contains every vertex that became live, in insertion order.
    Live(Vec<VertexRef>),
    /// Parents are missing; the vertex is buffered until they arrive.
    Pending,
    /// A vertex for this `(round, source)` already exists.
    Duplicate,
}

/// The DAG of delivered vertices at one party — the party's only vertex
/// store. It holds the same `Arc`s the broadcast layer delivered, so a
/// vertex is never copied on its way in.
pub struct Dag {
    tribe: TribeParams,
    /// Live vertices, keyed by round then source.
    rounds: BTreeMap<Round, HashMap<PartyId, Arc<Vertex>>>,
    /// Vertices waiting for missing ancestors.
    pending: HashMap<VertexRef, Arc<Vertex>>,
    /// Reverse dependency index: missing ref → pending vertices waiting on it.
    waiting_on: HashMap<VertexRef, Vec<VertexRef>>,
    /// Vertices already emitted into the total order.
    ordered: HashSet<VertexRef>,
    /// Rounds below this have been garbage-collected; everything there is
    /// implicitly live and ordered.
    horizon: Round,
}

impl Dag {
    /// An empty DAG for a tribe.
    pub fn new(tribe: TribeParams) -> Dag {
        Dag {
            tribe,
            rounds: BTreeMap::new(),
            pending: HashMap::new(),
            waiting_on: HashMap::new(),
            ordered: HashSet::new(),
            horizon: Round::GENESIS,
        }
    }

    /// Tribe parameters.
    pub fn tribe(&self) -> TribeParams {
        self.tribe
    }

    /// The garbage-collection horizon (lowest retained round).
    pub fn horizon(&self) -> Round {
        self.horizon
    }

    /// Number of live vertices in `round`.
    pub fn round_count(&self, round: Round) -> usize {
        self.rounds.get(&round).map_or(0, HashMap::len)
    }

    /// The live vertex for `(round, source)`, if any.
    pub fn get(&self, r: &VertexRef) -> Option<&Vertex> {
        self.rounds
            .get(&r.round)
            .and_then(|m| m.get(&r.source))
            .map(Arc::as_ref)
    }

    /// True iff a live vertex exists for `r` (or `r` is below the horizon,
    /// where everything was pruned as already-processed).
    pub fn contains(&self, r: &VertexRef) -> bool {
        r.round < self.horizon || self.get(r).is_some()
    }

    /// True iff `r` was already offered: live, pending, or below the
    /// horizon. A known vertex needs no validation, logging or insertion.
    pub fn knows(&self, r: &VertexRef) -> bool {
        self.contains(r) || self.pending.contains_key(r)
    }

    /// Live vertices of `round`, in source order.
    pub fn round_vertices(&self, round: Round) -> Vec<&Vertex> {
        let mut vs: Vec<&Vertex> = self
            .rounds
            .get(&round)
            .map(|m| m.values().map(Arc::as_ref).collect())
            .unwrap_or_default();
        vs.sort_by_key(|v| v.source);
        vs
    }

    /// Number of vertices currently buffered as pending.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// Number of rounds currently retained (the round-window occupancy the
    /// flight recorder samples: grows when commits stall GC).
    pub fn round_span(&self) -> usize {
        self.rounds.len()
    }

    /// All live vertices from `from` on, in `(round, source)` order — the
    /// material a checkpoint or a state-transfer response ships.
    pub fn live_vertices_from(&self, from: Round) -> Vec<&Arc<Vertex>> {
        let mut out: Vec<&Arc<Vertex>> = self
            .rounds
            .range(from..)
            .flat_map(|(_, m)| m.values())
            .collect();
        out.sort_by_key(|v| (v.round, v.source));
        out
    }

    /// Marks `r` as already ordered without walking its history — used
    /// when restoring the ordered set from a checkpoint, where the causal
    /// walk already happened in a previous life of this process.
    pub fn mark_ordered(&mut self, r: VertexRef) {
        self.ordered.insert(r);
    }

    /// Offers a delivered vertex. Returns which vertices became live (the
    /// offered one plus any pending descendants it unblocked), or whether it
    /// was buffered / a duplicate.
    pub fn insert(&mut self, vertex: impl Into<Arc<Vertex>>) -> InsertOutcome {
        let _prof = clanbft_profiler::scope("dag.insert");
        let vertex = vertex.into();
        let vref = vertex.reference();
        if self.knows(&vref) {
            return InsertOutcome::Duplicate;
        }
        if let Some(missing) = self.first_missing_parent(&vertex) {
            self.waiting_on.entry(missing).or_default().push(vref);
            self.pending.insert(vref, vertex);
            return InsertOutcome::Pending;
        }
        let mut live = Vec::new();
        self.make_live(vertex, &mut live);
        // Cascade: newly live vertices may unblock pending ones.
        let mut cursor = 0;
        while cursor < live.len() {
            let just_live = live[cursor];
            cursor += 1;
            let Some(waiters) = self.waiting_on.remove(&just_live) else {
                continue;
            };
            for w in waiters {
                let Some(v) = self.pending.get(&w) else {
                    continue;
                };
                if let Some(missing) = self.first_missing_parent(v) {
                    self.waiting_on.entry(missing).or_default().push(w);
                    continue;
                }
                let v = self.pending.remove(&w).expect("checked above");
                self.make_live(v, &mut live);
            }
        }
        InsertOutcome::Live(live)
    }

    fn make_live(&mut self, vertex: Arc<Vertex>, live: &mut Vec<VertexRef>) {
        let vref = vertex.reference();
        self.rounds
            .entry(vref.round)
            .or_default()
            .insert(vref.source, vertex);
        live.push(vref);
    }

    fn first_missing_parent(&self, v: &Vertex) -> Option<VertexRef> {
        v.strong_edges
            .iter()
            .chain(v.weak_edges.iter())
            .find(|r| !self.contains(r))
            .copied()
    }

    /// True iff a strong path (following only strong edges) leads from
    /// `from` down to `to`.
    ///
    /// Returns `false` when either endpoint is not live or `to` is not in
    /// `from`'s past.
    pub fn exists_strong_path(&self, from: &VertexRef, to: &VertexRef) -> bool {
        if from == to {
            return self.contains(from);
        }
        if to.round >= from.round || self.get(from).is_none() {
            return false;
        }
        if to.round < self.horizon {
            // Below the horizon everything reachable was already processed;
            // treat as unreachable rather than guessing.
            return false;
        }
        let mut queue = VecDeque::from([*from]);
        let mut seen = HashSet::new();
        while let Some(cur) = queue.pop_front() {
            let Some(v) = self.get(&cur) else { continue };
            for e in &v.strong_edges {
                if e == to {
                    return true;
                }
                if e.round > to.round && seen.insert(*e) {
                    queue.push_back(*e);
                }
            }
        }
        false
    }

    /// Counts round-`r` vertices with a strong edge to `target` (the
    /// "support" used by commit rules).
    pub fn strong_supporters(&self, round: Round, target: &VertexRef) -> usize {
        self.rounds
            .get(&round)
            .map(|m| m.values().filter(|v| v.has_strong_edge_to(target)).count())
            .unwrap_or(0)
    }

    /// Collects the not-yet-ordered causal history of `root` (strong and
    /// weak edges), marking everything returned as ordered. The result is
    /// deterministic: ascending `(round, source)`, root last.
    ///
    /// Returns an empty vector if `root` is not live.
    pub fn take_causal_history(&mut self, root: &VertexRef) -> Vec<VertexRef> {
        if self.get(root).is_none() || self.ordered.contains(root) {
            return Vec::new();
        }
        let mut collected = Vec::new();
        let mut stack = vec![*root];
        let mut seen = HashSet::from([*root]);
        while let Some(cur) = stack.pop() {
            if self.ordered.contains(&cur) {
                continue;
            }
            collected.push(cur);
            if let Some(v) = self.get(&cur) {
                for e in v.strong_edges.iter().chain(v.weak_edges.iter()) {
                    if e.round >= self.horizon
                        && !self.ordered.contains(e)
                        && self.get(e).is_some()
                        && seen.insert(*e)
                    {
                        stack.push(*e);
                    }
                }
            }
        }
        collected.sort_by_key(|r| (r.round, r.source));
        for r in &collected {
            self.ordered.insert(*r);
        }
        collected
    }

    /// True iff `r` has been emitted into the total order.
    pub fn is_ordered(&self, r: &VertexRef) -> bool {
        self.ordered.contains(r)
    }

    /// Garbage-collects all rounds strictly below `round`.
    ///
    /// Callers must only prune below their commit frontier: everything
    /// discarded is assumed ordered (or abandoned by every honest party).
    pub fn prune_below(&mut self, round: Round) {
        if round <= self.horizon {
            return;
        }
        self.horizon = round;
        self.rounds = self.rounds.split_off(&round);
        self.pending.retain(|r, _| r.round >= round);
        self.waiting_on.retain(|_, ws| {
            ws.retain(|w| w.round >= round);
            !ws.is_empty()
        });
        self.ordered.retain(|r| r.round >= round);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clanbft_crypto::Digest;

    fn vertex(round: u64, source: u32, strong: &[(u64, u32)], weak: &[(u64, u32)]) -> Vertex {
        Vertex {
            round: Round(round),
            source: PartyId(source),
            block_digest: Digest::of(&[round as u8, source as u8]),
            block_bytes: 0,
            block_tx_count: 0,
            strong_edges: strong
                .iter()
                .map(|&(r, s)| VertexRef {
                    round: Round(r),
                    source: PartyId(s),
                })
                .collect(),
            weak_edges: weak
                .iter()
                .map(|&(r, s)| VertexRef {
                    round: Round(r),
                    source: PartyId(s),
                })
                .collect(),
            nvc: None,
            tc: None,
        }
    }

    fn vref(round: u64, source: u32) -> VertexRef {
        VertexRef {
            round: Round(round),
            source: PartyId(source),
        }
    }

    /// A fully-connected 4-party DAG over `rounds` rounds.
    fn full_dag(rounds: u64) -> Dag {
        let mut dag = Dag::new(TribeParams::new(4));
        for s in 0..4 {
            assert!(matches!(
                dag.insert(vertex(0, s, &[], &[])),
                InsertOutcome::Live(_)
            ));
        }
        for r in 1..=rounds {
            let parents: Vec<(u64, u32)> = (0..4).map(|s| (r - 1, s)).collect();
            for s in 0..4 {
                let out = dag.insert(vertex(r, s, &parents, &[]));
                assert!(matches!(out, InsertOutcome::Live(_)), "r={r} s={s}");
            }
        }
        dag
    }

    #[test]
    fn basic_insertion_and_counts() {
        let dag = full_dag(3);
        for r in 0..=3 {
            assert_eq!(dag.round_count(Round(r)), 4);
        }
        assert_eq!(dag.round_count(Round(4)), 0);
        assert!(dag.contains(&vref(2, 3)));
        assert!(!dag.contains(&vref(4, 0)));
    }

    #[test]
    fn duplicate_rejected() {
        let mut dag = full_dag(1);
        assert_eq!(
            dag.insert(vertex(1, 0, &[(0, 0)], &[])),
            InsertOutcome::Duplicate
        );
    }

    #[test]
    fn pending_until_parents_arrive() {
        let mut dag = Dag::new(TribeParams::new(4));
        // Round-1 vertex arrives before its round-0 parents.
        let v1 = vertex(1, 0, &[(0, 0), (0, 1), (0, 2)], &[]);
        assert_eq!(dag.insert(v1), InsertOutcome::Pending);
        assert_eq!(dag.pending_count(), 1);
        assert!(matches!(
            dag.insert(vertex(0, 0, &[], &[])),
            InsertOutcome::Live(_)
        ));
        assert!(matches!(
            dag.insert(vertex(0, 1, &[], &[])),
            InsertOutcome::Live(_)
        ));
        // The final parent unblocks the pending vertex in the same call.
        match dag.insert(vertex(0, 2, &[], &[])) {
            InsertOutcome::Live(live) => {
                assert_eq!(live, vec![vref(0, 2), vref(1, 0)]);
            }
            other => panic!("expected live cascade, got {other:?}"),
        }
        assert_eq!(dag.pending_count(), 0);
    }

    #[test]
    fn deep_pending_cascade() {
        let mut dag = Dag::new(TribeParams::new(4));
        // Insert a chain in reverse order; everything resolves at the end.
        for r in (1..=5).rev() {
            let parents: Vec<(u64, u32)> = (0..3).map(|s| (r - 1, s)).collect();
            for s in 0..3 {
                assert_eq!(
                    dag.insert(vertex(r, s, &parents, &[])),
                    InsertOutcome::Pending
                );
            }
        }
        assert_eq!(dag.pending_count(), 15);
        for s in 0..3 {
            dag.insert(vertex(0, s, &[], &[]));
        }
        assert_eq!(dag.pending_count(), 0);
        for r in 0..=5 {
            assert_eq!(dag.round_count(Round(r)), 3, "round {r}");
        }
    }

    #[test]
    fn strong_path_queries() {
        let mut dag = Dag::new(TribeParams::new(4));
        for s in 0..4 {
            dag.insert(vertex(0, s, &[], &[]));
        }
        // Round 1: vertex (1,0) links only to 0,1,2; vertex (1,1) to 1,2,3.
        dag.insert(vertex(1, 0, &[(0, 0), (0, 1), (0, 2)], &[]));
        dag.insert(vertex(1, 1, &[(0, 1), (0, 2), (0, 3)], &[]));
        // Round 2 vertex linking only to (1,0).
        dag.insert(vertex(2, 0, &[(1, 0)], &[]));
        assert!(dag.exists_strong_path(&vref(2, 0), &vref(1, 0)));
        assert!(dag.exists_strong_path(&vref(2, 0), &vref(0, 2)));
        assert!(
            !dag.exists_strong_path(&vref(2, 0), &vref(0, 3)),
            "0,3 only via (1,1)"
        );
        assert!(
            !dag.exists_strong_path(&vref(1, 0), &vref(2, 0)),
            "no upward paths"
        );
        assert!(
            dag.exists_strong_path(&vref(1, 1), &vref(1, 1)),
            "reflexive"
        );
    }

    #[test]
    fn weak_edges_do_not_carry_strong_paths() {
        let mut dag = Dag::new(TribeParams::new(4));
        for s in 0..4 {
            dag.insert(vertex(0, s, &[], &[]));
        }
        dag.insert(vertex(1, 0, &[(0, 0), (0, 1), (0, 2)], &[]));
        // Round-2 vertex with a weak edge to (0,3).
        dag.insert(vertex(2, 0, &[(1, 0)], &[(0, 3)]));
        assert!(!dag.exists_strong_path(&vref(2, 0), &vref(0, 3)));
        // But the weak edge does pull (0,3) into the causal history.
        let hist = dag.take_causal_history(&vref(2, 0));
        assert!(hist.contains(&vref(0, 3)));
    }

    #[test]
    fn strong_supporters_count() {
        let dag = full_dag(2);
        assert_eq!(dag.strong_supporters(Round(1), &vref(0, 0)), 4);
        assert_eq!(dag.strong_supporters(Round(2), &vref(2, 0)), 0);
    }

    #[test]
    fn causal_history_is_deterministic_and_disjoint() {
        let mut dag = full_dag(3);
        let h1 = dag.take_causal_history(&vref(2, 1));
        // Root present, sorted ascending, root included.
        assert!(h1.contains(&vref(2, 1)));
        assert!(h1
            .windows(2)
            .all(|w| (w[0].round, w[0].source) < (w[1].round, w[1].source)));
        assert_eq!(h1.len(), 4 + 4 + 1); // rounds 0,1 fully + root
                                         // Second commit takes only the delta.
        let h2 = dag.take_causal_history(&vref(3, 0));
        assert!(
            h2.iter().all(|r| !h1.contains(r)),
            "no vertex ordered twice"
        );
        assert!(h2.contains(&vref(2, 0)));
        assert!(h2.contains(&vref(3, 0)));
        // Already ordered root yields nothing.
        assert!(dag.take_causal_history(&vref(2, 1)).is_empty());
    }

    #[test]
    fn prune_below_drops_state() {
        let mut dag = full_dag(4);
        let _ = dag.take_causal_history(&vref(3, 0));
        dag.prune_below(Round(2));
        assert_eq!(dag.round_count(Round(1)), 0);
        assert_eq!(dag.round_count(Round(2)), 4);
        assert!(dag.contains(&vref(1, 0)), "below horizon counts as present");
        assert_eq!(dag.horizon(), Round(2));
        // New vertices referencing pruned rounds insert fine.
        let out = dag.insert(vertex(5, 0, &[], &[]));
        assert!(matches!(
            out,
            InsertOutcome::Live(_) | InsertOutcome::Pending
        ));
    }

    #[test]
    fn history_respects_horizon() {
        let mut dag = full_dag(4);
        dag.prune_below(Round(2));
        let hist = dag.take_causal_history(&vref(3, 0));
        assert!(hist.iter().all(|r| r.round >= Round(2)), "{hist:?}");
    }
}
