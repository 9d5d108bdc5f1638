//! The benchmark's workloads: each turns a seed into a tribe specification
//! plus the run plan (horizon, measured window, fault schedule, checks).
//!
//! Inputs are derived only from the seed: the simulator seed (keys, clan
//! election, leader rotation, link jitter, client arrivals) and, for the
//! crash workload, which party crashes and when.

use clanbft_consensus::LeaderSchedule;
use clanbft_mempool::WorkloadSpec;
use clanbft_sim::tribe::{elect_clan, partition_clans};
use clanbft_sim::TribeSpec;
use clanbft_types::{Micros, PartyId, Round};
use std::path::Path;

/// Tribe size of every workload.
pub const N: usize = 50;

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Baseline Sailfish, tribe-wide payload, 125 synthetic txs/proposal.
    SailfishCtrl,
    /// Single clan of 32, open-loop Zipf clients at 4,000 tps per proposer.
    ClanOpenLoop,
    /// Two clans, 500 txs/proposal, real WAL + fsync, one crash/restart.
    MclanDurableCrash,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::SailfishCtrl,
        Workload::ClanOpenLoop,
        Workload::MclanDurableCrash,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SailfishCtrl => "sailfish-n50-ctrl",
            Workload::ClanOpenLoop => "clan-n50-openloop",
            Workload::MclanDurableCrash => "mclan-n50-durable-crash",
        }
    }

    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's load shape, printed with every result.
    pub fn describe(self) -> &'static str {
        match self {
            Workload::SailfishCtrl => "synthetic: 125 txs per proposal, every party proposes",
            Workload::ClanOpenLoop => {
                "open loop: 4000 tps per clan proposer (128000 tps offered), 10000 Zipf-0.99 \
                 clients; txs are stamped at their due time by the simulated generator, which \
                 cannot run late"
            }
            Workload::MclanDurableCrash => {
                "synthetic: 500 txs per proposal, every party proposes; WAL + fsync on every node"
            }
        }
    }
}

/// A seeded, fully specified run of one workload.
#[derive(Clone)]
pub struct Plan {
    /// The tribe to build.
    pub spec: TribeSpec,
    /// Rounds proposed (the fixed amount of work).
    pub rounds: u64,
    /// Vertices below this round are warm-up, excluded from the window.
    pub warmup_rounds: u64,
    /// Vertices above this round are cool-down, excluded from the window.
    pub last_round: u64,
    /// Simulated-time bound of the event loop (benign runs drain earlier).
    pub horizon: Micros,
    /// The crash/restart fault, if any: `(party, crash_at, restart_at)`.
    pub crash: Option<(PartyId, Micros, Micros)>,
    /// Whether the exactly-once client audit runs (needs every own
    /// committed block held, so the plan disables garbage collection).
    pub audit_exactly_once: bool,
}

/// Rounds of a workload: proposing stops after `rounds`; the window is
/// `window` rounds from `warmup` on (a multiple of five, see
/// [`crate::outcome`]), followed by three cool-down rounds.
struct Shape {
    rounds: u64,
    warmup: u64,
    window: u64,
}

const CTRL: Shape = Shape {
    rounds: 15,
    warmup: 3,
    window: 10,
};
/// The feedback batch sizer starts at 64 txs and doubles per drained
/// proposal; at 4,000 tps per proposer the queue it builds meanwhile takes
/// until round ~11 to drain, so the window starts at round 12.
const OPENLOOP: Shape = Shape {
    rounds: 30,
    warmup: 12,
    window: 15,
};
const DURABLE: Shape = Shape {
    rounds: 15,
    warmup: 3,
    window: 10,
};

/// Outage length of the crash workload.
const OUTAGE: Micros = Micros(2_500_000);

/// SplitMix64 step: derives independent workload inputs from the seed.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A party that leads none of the rounds `0..=rounds`, chosen by the seed:
/// the crash then exercises recovery, not the round-timeout path.
fn non_leader(n: usize, seed: u64, rounds: u64) -> PartyId {
    let schedule = LeaderSchedule::new(n, seed);
    let candidates: Vec<PartyId> = (0..n as u32)
        .map(PartyId)
        .filter(|&p| (0..=rounds).all(|r| !schedule.is_leader(p, Round(r))))
        .collect();
    assert!(!candidates.is_empty(), "every party leads some round");
    candidates[(mix(seed, 1) % candidates.len() as u64) as usize]
}

/// Builds the seeded plan for `workload`. `storage_root` is where the
/// durable workload keeps each node's WAL; it must be empty.
pub fn plan(workload: Workload, seed: u64, storage_root: &Path) -> Plan {
    let mut spec = TribeSpec::new(N);
    spec.seed = seed;
    let (shape, crash, audit) = match workload {
        Workload::SailfishCtrl => {
            spec.txs_per_proposal = 125;
            (CTRL, None, false)
        }
        Workload::ClanOpenLoop => {
            spec.clans = Some(vec![elect_clan(N, 32, seed)]);
            spec.workload = Some(WorkloadSpec::OpenLoop {
                rate_tps: 4_000.0,
                clients: 10_000,
                zipf_s: 0.99,
                // Clients keep submitting through the last proposal: what
                // is still queued or in flight at the end counts as failed.
                stop_at_round: OPENLOOP.rounds + 1,
            });
            spec.gc_depth = None;
            (OPENLOOP, None, true)
        }
        Workload::MclanDurableCrash => {
            spec.clans = Some(partition_clans(N, 2, seed));
            spec.txs_per_proposal = 500;
            spec.storage_root = Some(storage_root.to_path_buf());
            let party = non_leader(N, seed, DURABLE.rounds + 2);
            // Rounds take ~0.45 s: the crash lands early in the window and
            // the restarted party rejoins while the others still propose.
            let crash_at = Micros(1_200_000 + mix(seed, 2) % 400_000);
            spec.crashes = vec![(party, crash_at)];
            spec.restarts = vec![(party, crash_at + OUTAGE)];
            (DURABLE, Some((party, crash_at, crash_at + OUTAGE)), false)
        }
    };
    spec.max_round = Some(shape.rounds);
    Plan {
        spec,
        rounds: shape.rounds,
        warmup_rounds: shape.warmup,
        last_round: shape.warmup + shape.window - 1,
        horizon: Micros::from_secs(600),
        crash,
        audit_exactly_once: audit,
    }
}
