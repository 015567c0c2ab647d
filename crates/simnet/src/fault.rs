//! Deterministic fault injection, engine-agnostic.
//!
//! The paper's churn experiments (§5.6, Fig. 6) fail nodes on a schedule
//! and measure what the query layer still delivers. This module is that
//! schedule as a first-class object: a [`FaultScript`] is a seeded,
//! time-ordered list of kill, join and message-drop-window events, and
//! [`FaultDriver::replay`] runs it against *any* [`Deployment`] — the
//! discrete-event [`crate::Sim`] (virtual clock) or the
//! [`crate::cluster::Cluster`] (wall clock). The driver's trace records
//! each fault at its *script* time, not the instant it was applied at,
//! so the same seed and script produce byte-identical traces on every
//! backend: the cross-engine determinism the test harness pins.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::app::Service;
use crate::deployment::Deployment;
use crate::time::{Dur, Time};
use crate::NodeId;

/// One fault, ready to apply to an engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Abrupt node failure: state gone, traffic to it dropped (§5.6's
    /// "ungraceful" departure — no goodbye messages).
    Kill { node: NodeId },
    /// Start of a message-drop window: everything addressed to `node`
    /// is silently discarded until the matching [`Fault::DropEnd`].
    /// Models a transient partition / lossy link, distinct from death:
    /// the node keeps its state and its timers keep firing.
    DropStart { node: NodeId },
    /// End of a message-drop window: the link heals.
    DropEnd { node: NodeId },
    /// A replacement node joins at a previously killed id — a fresh
    /// process at the same address, with none of the old state
    /// ([`Deployment::apply`] asks its caller to construct the newcomer).
    Join { node: NodeId },
}

impl Fault {
    /// The node the fault acts on.
    pub fn node(&self) -> NodeId {
        match self {
            Fault::Kill { node }
            | Fault::DropStart { node }
            | Fault::DropEnd { node }
            | Fault::Join { node } => *node,
        }
    }
}

/// A fault with its script-time offset (since script start).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Scheduled {
    pub at: Dur,
    pub fault: Fault,
}

/// A time-ordered fault schedule.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultScript {
    events: Vec<Scheduled>,
}

impl FaultScript {
    /// Build from an arbitrary event list; events are sorted by time
    /// (stable, so same-instant events keep their listed order).
    pub fn new(mut events: Vec<Scheduled>) -> Self {
        events.sort_by_key(|e| e.at);
        FaultScript { events }
    }

    /// Seeded churn: `kills` node failures over `span`, victims drawn
    /// without replacement from `candidates`. Kill instants are evenly
    /// staggered with ±20% jitter — evenly enough that each repair can
    /// finish before the next failure, jittered enough that failures
    /// never align with a maintenance-tick boundary by construction.
    /// Same seed, same candidates → same script, on any engine.
    pub fn churn(seed: u64, span: Dur, kills: usize, candidates: &[NodeId]) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut pool: Vec<NodeId> = candidates.to_vec();
        let kills = kills.min(pool.len());
        let slot = span.as_micros() / (kills as u64 + 1).max(1);
        let mut events = Vec::with_capacity(kills);
        for i in 0..kills {
            let victim = pool.swap_remove(rng.gen_range(0..pool.len()));
            let center = slot * (i as u64 + 1);
            let jitter = rng.gen_range(0..=(slot / 5).max(1) * 2);
            let at = Dur::from_micros(center - slot / 5 + jitter);
            events.push(Scheduled {
                at,
                fault: Fault::Kill { node: victim },
            });
        }
        Self::new(events)
    }

    /// Seeded churn with replacement: like [`Self::churn`], but each
    /// kill is followed `rejoin_after` later by a [`Fault::Join`] of a
    /// fresh node at the same id — the paper's steady-state churn,
    /// where departures and arrivals balance and the overlay never
    /// shrinks for long.
    pub fn churn_with_rejoin(
        seed: u64,
        span: Dur,
        kills: usize,
        candidates: &[NodeId],
        rejoin_after: Dur,
    ) -> Self {
        let mut script = Self::churn(seed, span, kills, candidates);
        let joins: Vec<Scheduled> = script
            .events
            .iter()
            .filter_map(|e| match e.fault {
                Fault::Kill { node } => Some(Scheduled {
                    at: e.at + rejoin_after,
                    fault: Fault::Join { node },
                }),
                _ => None,
            })
            .collect();
        script.events.extend(joins);
        Self::new(script.events)
    }

    /// Add a message-drop window `[from, from + len)` on one node.
    pub fn with_drop_window(mut self, node: NodeId, from: Dur, len: Dur) -> Self {
        self.events.push(Scheduled {
            at: from,
            fault: Fault::DropStart { node },
        });
        self.events.push(Scheduled {
            at: from + len,
            fault: Fault::DropEnd { node },
        });
        Self::new(self.events)
    }

    /// Add a scheduled join of a replacement node at `node`.
    pub fn with_join(mut self, node: NodeId, at: Dur) -> Self {
        self.events.push(Scheduled {
            at,
            fault: Fault::Join { node },
        });
        Self::new(self.events)
    }

    pub fn events(&self) -> &[Scheduled] {
        &self.events
    }

    /// Nodes killed anywhere in the script.
    pub fn killed(&self) -> Vec<NodeId> {
        self.events
            .iter()
            .filter_map(|e| match e.fault {
                Fault::Kill { node } => Some(node),
                _ => None,
            })
            .collect()
    }

    /// Ids rejoined by a replacement anywhere in the script.
    pub fn joined(&self) -> Vec<NodeId> {
        self.events
            .iter()
            .filter_map(|e| match e.fault {
                Fault::Join { node } => Some(node),
                _ => None,
            })
            .collect()
    }
}

/// Replays a [`FaultScript`] against an engine and records the trace.
///
/// [`FaultDriver::replay`] is the whole loop. Underneath, the driver is
/// clocked by the *caller*: [`FaultDriver::advance`] takes the time
/// elapsed since the experiment started (virtual for Sim, wall for
/// Cluster) and an apply closure that executes each due fault, for
/// harnesses that interleave their own actions with the script.
/// Polling cadence does not change the trace — only which faults have
/// fired by the end, and they fire in script order regardless.
#[derive(Debug)]
pub struct FaultDriver {
    script: FaultScript,
    next: usize,
    trace: Vec<Scheduled>,
}

impl FaultDriver {
    pub fn new(script: FaultScript) -> Self {
        FaultDriver {
            script,
            next: 0,
            trace: Vec::new(),
        }
    }

    /// Apply every not-yet-applied fault scheduled at or before
    /// `elapsed`. Returns how many fired.
    pub fn advance(&mut self, elapsed: Dur, mut apply: impl FnMut(&Fault)) -> usize {
        let mut fired = 0;
        while let Some(ev) = self.script.events.get(self.next) {
            if ev.at > elapsed {
                break;
            }
            apply(&ev.fault);
            self.trace.push(*ev);
            self.next += 1;
            fired += 1;
        }
        fired
    }

    /// Replay every remaining fault against `net`, script time counted
    /// from `t0` on `net`'s clock: settle to the next fault instant,
    /// apply what is due, repeat. `make_replacement` builds the
    /// newcomer of each [`Fault::Join`].
    pub fn replay<A: Service>(
        &mut self,
        net: &mut impl Deployment<A>,
        t0: Time,
        mut make_replacement: impl FnMut(NodeId) -> A,
    ) {
        while let Some(at) = self.next_at() {
            net.settle((t0 + at).since(net.now()));
            self.advance(net.now().since(t0), |f| net.apply(f, &mut make_replacement));
        }
    }

    /// Script time of the next pending fault, if any — callers can run
    /// the engine exactly up to it instead of polling blindly.
    pub fn next_at(&self) -> Option<Dur> {
        self.script.events.get(self.next).map(|e| e.at)
    }

    /// Everything applied so far, in script time: the cross-engine
    /// determinism artifact (same seed + script → identical traces on
    /// Sim and Cluster).
    pub fn trace(&self) -> &[Scheduled] {
        &self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_is_deterministic_and_spaced() {
        let nodes: Vec<NodeId> = (1..40).collect();
        let a = FaultScript::churn(42, Dur::from_secs(60), 5, &nodes);
        let b = FaultScript::churn(42, Dur::from_secs(60), 5, &nodes);
        assert_eq!(a, b);
        let c = FaultScript::churn(43, Dur::from_secs(60), 5, &nodes);
        assert_ne!(a, c);
        // Victims are distinct and all drawn from the candidate set.
        let mut killed = a.killed();
        assert_eq!(killed.len(), 5);
        killed.sort_unstable();
        killed.dedup();
        assert_eq!(killed.len(), 5);
        assert!(killed.iter().all(|n| nodes.contains(n)));
        // Kills are staggered: consecutive events at least 3/5 of a
        // slot apart (slot = span/6, jitter ±1/5 slot).
        let ats: Vec<u64> = a.events().iter().map(|e| e.at.as_micros()).collect();
        for w in ats.windows(2) {
            assert!(
                w[1] - w[0] >= 60_000_000 / 6 * 3 / 5,
                "kills too close: {ats:?}"
            );
        }
    }

    #[test]
    fn rejoin_schedules_a_join_per_kill() {
        let nodes: Vec<NodeId> = (0..20).collect();
        let s = FaultScript::churn_with_rejoin(9, Dur::from_secs(60), 4, &nodes, Dur::from_secs(5));
        let (killed, joined) = (s.killed(), s.joined());
        assert_eq!(killed.len(), 4);
        let mut k = killed.clone();
        let mut j = joined.clone();
        k.sort_unstable();
        j.sort_unstable();
        assert_eq!(k, j, "every kill gets a matching rejoin");
        // Each join comes exactly rejoin_after behind its kill, and the
        // merged list stays time-sorted.
        for ev in s.events() {
            if let Fault::Join { node } = ev.fault {
                let kill_at = s
                    .events()
                    .iter()
                    .find(|e| e.fault == (Fault::Kill { node }))
                    .unwrap()
                    .at;
                assert_eq!(ev.at, kill_at + Dur::from_secs(5));
            }
        }
        assert!(s.events().windows(2).all(|w| w[0].at <= w[1].at));
        // The kill-only prefix of the same seed is preserved.
        let kills_only = FaultScript::churn(9, Dur::from_secs(60), 4, &nodes);
        assert_eq!(s.killed(), kills_only.killed());
    }

    #[test]
    fn with_join_sorts_into_place() {
        let s = FaultScript::new(vec![Scheduled {
            at: Dur::from_secs(4),
            fault: Fault::Kill { node: 1 },
        }])
        .with_join(1, Dur::from_secs(6));
        assert_eq!(s.joined(), vec![1]);
        assert_eq!(s.events()[1].at, Dur::from_secs(6));
        assert_eq!(Fault::Join { node: 1 }.node(), 1);
    }

    #[test]
    fn churn_never_kills_more_than_the_pool() {
        let s = FaultScript::churn(7, Dur::from_secs(10), 99, &[3, 4]);
        assert_eq!(s.killed().len(), 2);
    }

    #[test]
    fn driver_fires_in_order_and_traces_script_time() {
        let script = FaultScript::new(vec![
            Scheduled {
                at: Dur::from_secs(5),
                fault: Fault::Kill { node: 2 },
            },
            Scheduled {
                at: Dur::from_secs(1),
                fault: Fault::Kill { node: 1 },
            },
        ])
        .with_drop_window(3, Dur::from_secs(2), Dur::from_secs(2));
        let mut drv = FaultDriver::new(script);
        assert_eq!(drv.next_at(), Some(Dur::from_secs(1)));

        let mut applied = Vec::new();
        // Coarse polling: everything due by t=3 fires in script order.
        let n = drv.advance(Dur::from_secs(3), |f| applied.push(*f));
        assert_eq!(n, 2);
        assert_eq!(
            applied,
            vec![Fault::Kill { node: 1 }, Fault::DropStart { node: 3 }]
        );
        assert!(drv.next_at().is_some());

        drv.advance(Dur::from_secs(60), |f| applied.push(*f));
        assert_eq!(drv.next_at(), None);
        assert_eq!(drv.advance(Dur::from_secs(99), |_| panic!("replayed")), 0);
        // The trace is in script time, independent of polling cadence.
        let ats: Vec<Dur> = drv.trace().iter().map(|e| e.at).collect();
        assert_eq!(
            ats,
            vec![
                Dur::from_secs(1),
                Dur::from_secs(2),
                Dur::from_secs(4),
                Dur::from_secs(5)
            ]
        );
    }
}
