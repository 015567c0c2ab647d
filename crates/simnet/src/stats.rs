//! Traffic accounting for the evaluation metrics of §5.
//!
//! The paper reports aggregate network traffic (Figure 4) and the maximum
//! inbound traffic at a node (§5 intro). The engine charges every
//! delivered message here; harnesses snapshot/diff around a query window.

use crate::{NodeId, Wire};

/// Cumulative network statistics maintained by an engine.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Messages delivered.
    pub messages: u64,
    /// Total bytes delivered (sum of `Wire::wire_size`).
    pub bytes: u64,
    /// Bytes delivered into each node (inbound-link usage).
    pub inbound_bytes: Vec<u64>,
    /// Messages dropped because the destination had failed.
    pub dropped_to_failed: u64,
    /// Messages discarded by an injected message-drop window
    /// ([`crate::fault::Fault::DropStart`]).
    pub dropped_in_window: u64,
}

impl NetStats {
    pub fn new(n: usize) -> Self {
        NetStats {
            inbound_bytes: vec![0; n],
            ..Default::default()
        }
    }

    pub(crate) fn ensure_nodes(&mut self, n: usize) {
        if self.inbound_bytes.len() < n {
            self.inbound_bytes.resize(n, 0);
        }
    }

    pub(crate) fn record_delivery(&mut self, to: NodeId, bytes: usize) {
        self.messages += 1;
        self.bytes += bytes as u64;
        self.ensure_nodes(to as usize + 1);
        self.inbound_bytes[to as usize] += bytes as u64;
    }

    /// The send-time half of fault classification, the same on every
    /// backend: a message into an open inbound-drop window is counted
    /// and goes no further. Returns whether it travels on.
    pub(crate) fn admit(&mut self, dropping: bool) -> bool {
        if dropping {
            self.dropped_in_window += 1;
        }
        !dropping
    }

    /// The arrival-time half: a message reaching a live node is
    /// traffic, one reaching a dead node is a drop. Returns whether
    /// there is anyone to dispatch it to. (The simulator's two halves
    /// are a link latency apart; the wall-clock backend's links have
    /// none, so it asks both at hand-off.)
    pub(crate) fn land(&mut self, to: NodeId, msg: &impl Wire, alive: bool) -> bool {
        if alive {
            self.record_delivery(to, msg.wire_size());
        } else {
            self.dropped_to_failed += 1;
        }
        alive
    }

    /// Max inbound bytes over all nodes — the paper's "maximum inbound
    /// traffic at a node" metric.
    pub fn max_inbound(&self) -> u64 {
        self.inbound_bytes.iter().copied().max().unwrap_or(0)
    }

    /// Aggregate traffic in megabytes (Figure 4's y-axis).
    pub fn aggregate_mb(&self) -> f64 {
        self.bytes as f64 / 1e6
    }

    /// Fold another engine's counters into this one. All fields are
    /// plain sums, so merging per-shard stats in any order yields the
    /// same totals a one-core run would have accumulated.
    pub fn merge(&mut self, other: &NetStats) {
        self.messages += other.messages;
        self.bytes += other.bytes;
        self.dropped_to_failed += other.dropped_to_failed;
        self.dropped_in_window += other.dropped_in_window;
        self.ensure_nodes(other.inbound_bytes.len());
        for (i, v) in other.inbound_bytes.iter().enumerate() {
            self.inbound_bytes[i] += v;
        }
    }

    /// Traffic accumulated since an earlier snapshot.
    pub fn since(&self, snapshot: &NetStats) -> NetStats {
        let mut inbound = self.inbound_bytes.clone();
        for (i, v) in inbound.iter_mut().enumerate() {
            *v -= snapshot.inbound_bytes.get(i).copied().unwrap_or(0);
        }
        NetStats {
            messages: self.messages - snapshot.messages,
            bytes: self.bytes - snapshot.bytes,
            inbound_bytes: inbound,
            dropped_to_failed: self.dropped_to_failed - snapshot.dropped_to_failed,
            dropped_in_window: self.dropped_in_window - snapshot.dropped_in_window,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivery_accounting_and_diff() {
        let mut s = NetStats::new(3);
        s.record_delivery(1, 100);
        s.record_delivery(1, 50);
        s.record_delivery(2, 500);
        assert_eq!(s.messages, 3);
        assert_eq!(s.bytes, 650);
        assert_eq!(s.max_inbound(), 500);

        let snap = s.clone();
        s.record_delivery(0, 25);
        let d = s.since(&snap);
        assert_eq!(d.messages, 1);
        assert_eq!(d.bytes, 25);
        assert_eq!(d.inbound_bytes[0], 25);
        assert_eq!(d.inbound_bytes[2], 0);
    }

    #[test]
    fn grows_for_new_nodes() {
        let mut s = NetStats::new(1);
        s.record_delivery(5, 10);
        assert_eq!(s.inbound_bytes.len(), 6);
        assert_eq!(s.inbound_bytes[5], 10);
    }

    #[test]
    fn aggregate_mb_scale() {
        let mut s = NetStats::new(1);
        s.record_delivery(0, 2_000_000);
        assert!((s.aggregate_mb() - 2.0).abs() < 1e-9);
    }
}
