//! Per-category traffic accounting.
//!
//! Figure 4 reports *query* traffic per join strategy. A live overlay also
//! generates maintenance chatter (heartbeats, stabilization), which the
//! paper's evaluation holds constant by measuring on a stabilized network.
//! We count bytes by category at send time so harnesses can separate
//! workload traffic from overlay upkeep.

use crate::msg::{CanMsg, ChordMsg, DhtMsg};
use pier_simnet::Wire;

/// Byte counters per message category (sender side).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficMeter {
    /// Overlay upkeep: heartbeats, joins, neighbor/finger maintenance.
    pub maintenance: u64,
    /// Routing-layer lookups and replies.
    pub lookup: u64,
    /// Multicast dissemination (query shipping, Bloom distribution).
    pub mcast: u64,
    /// Provider data traffic: puts, gets, replies, re-homing.
    pub data: u64,
    /// Availability overhead (`replication > 1`): replica fan-out and
    /// anti-entropy repair. Counted apart from `data` so the recall-vs-
    /// churn frontier can price what each extra copy costs.
    pub replication: u64,
}

impl TrafficMeter {
    pub fn total(&self) -> u64 {
        self.maintenance + self.lookup + self.mcast + self.data + self.replication
    }

    /// Everything attributable to running queries (excludes upkeep).
    pub fn query_traffic(&self) -> u64 {
        self.lookup + self.mcast + self.data
    }

    pub fn record<V: Wire>(&mut self, msg: &DhtMsg<V>) {
        let bytes = msg.wire_size() as u64;
        match msg {
            DhtMsg::Can(CanMsg::Lookup { .. }) | DhtMsg::LookupReply { .. } => {
                self.lookup += bytes;
            }
            DhtMsg::Can(CanMsg::Mcast { .. }) | DhtMsg::Chord(ChordMsg::Bcast { .. }) => {
                self.mcast += bytes;
            }
            DhtMsg::Chord(ChordMsg::FindSucc { purpose, .. })
            | DhtMsg::Chord(ChordMsg::FoundSucc { purpose, .. }) => {
                if matches!(purpose, crate::msg::FindPurpose::Lookup) {
                    self.lookup += bytes;
                } else {
                    self.maintenance += bytes;
                }
            }
            DhtMsg::Put { .. } | DhtMsg::Get { .. } | DhtMsg::GetReply { .. } => {
                self.data += bytes;
            }
            DhtMsg::Replicate { .. }
            | DhtMsg::RepairRequest { .. }
            | DhtMsg::RepairReply { .. } => {
                self.replication += bytes;
            }
            DhtMsg::Can(_) | DhtMsg::Chord(_) => {
                self.maintenance += bytes;
            }
        }
    }

    pub fn merge(&mut self, other: &TrafficMeter) {
        self.maintenance += other.maintenance;
        self.lookup += other.lookup;
        self.mcast += other.mcast;
        self.data += other.data;
        self.replication += other.replication;
    }

    pub fn since(&self, snapshot: &TrafficMeter) -> TrafficMeter {
        TrafficMeter {
            maintenance: self.maintenance - snapshot.maintenance,
            lookup: self.lookup - snapshot.lookup,
            mcast: self.mcast - snapshot.mcast,
            data: self.data - snapshot.data,
            replication: self.replication - snapshot.replication,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::Entry;
    use pier_simnet::time::Time;

    #[test]
    fn categorizes_by_variant() {
        let mut m = TrafficMeter::default();
        let put: DhtMsg<Vec<u8>> = DhtMsg::Put {
            entry: Entry {
                ns: 0,
                rid: 0,
                iid: 0,
                key: 0,
                expires: Time::ZERO,
                val: vec![0; 100],
            },
        };
        let lk: DhtMsg<Vec<u8>> = DhtMsg::Can(CanMsg::Lookup {
            key: 1,
            token: 1,
            origin: 0,
            ttl: 8,
        });
        let hb: DhtMsg<Vec<u8>> = DhtMsg::Can(CanMsg::Heartbeat {
            zones: vec![].into(),
            neighbors: Default::default(),
        });
        m.record(&put);
        m.record(&lk);
        m.record(&hb);
        assert!(m.data > 0 && m.lookup > 0 && m.maintenance > 0);
        assert_eq!(m.mcast, 0);
        assert_eq!(m.total(), m.data + m.lookup + m.maintenance);
        assert_eq!(m.query_traffic(), m.data + m.lookup);
    }

    #[test]
    fn merge_and_since_are_inverses() {
        let mut a = TrafficMeter {
            maintenance: 10,
            lookup: 20,
            mcast: 30,
            data: 40,
            replication: 50,
        };
        let snap = a;
        let b = TrafficMeter {
            maintenance: 1,
            lookup: 2,
            mcast: 3,
            data: 4,
            replication: 5,
        };
        a.merge(&b);
        assert_eq!(a.since(&snap), b);
    }
}
