//! Recorded machine charges.
//!
//! The sharded analysis driver runs visibility scans for distinct
//! `(root, field)` shards concurrently, but the simulated [`Machine`] is a
//! sequential pricing model: the order charges are applied in *is* the
//! semantics. Engines therefore record the charges they would have made into
//! a [`ChargeLog`] while scanning, and the driver replays the logs onto the
//! live machine in canonical program order (launch order; within a launch,
//! requirement order). Replaying a log performs exactly the calls the engine
//! would have made directly, so a serial drive and a sharded drive produce
//! byte-identical clocks, counters and traces.

use std::ops::Range;

use crate::cost::Op;
use crate::machine::{Machine, NodeId};

/// One deferred call into the [`Machine`] charging API.
#[derive(Clone, Debug, PartialEq, Eq)]
enum MachineCall {
    /// [`Machine::op`].
    Op(NodeId, Op),
    /// [`Machine::send`].
    Send {
        from: NodeId,
        to: NodeId,
        bytes: u64,
    },
    /// [`Machine::request`].
    Request {
        from: NodeId,
        to: NodeId,
        req_bytes: u64,
        resp_bytes: u64,
        work: Vec<Op>,
    },
    /// [`Machine::multi_request`] to `ChargeLog::targets[targets]`.
    MultiRequest { from: NodeId, targets: Range<u32> },
}

/// One round trip of a recorded multi-request: the target and byte sizes
/// [`Machine::multi_request`] takes, and the ops served there as
/// `ChargeLog::work[work]`.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Target {
    to: NodeId,
    req_bytes: u64,
    resp_bytes: u64,
    work: Range<u32>,
}

/// An append-only sequence of [`Machine`] calls, recorded during a scan or
/// commit and replayed later in canonical order. A multi-request's targets
/// and their work live in two arenas the log owns, so recording one
/// allocates nothing once the log has grown.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChargeLog {
    calls: Vec<MachineCall>,
    targets: Vec<Target>,
    work: Vec<Op>,
}

impl ChargeLog {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn is_empty(&self) -> bool {
        self.calls.is_empty()
    }

    pub fn len(&self) -> usize {
        self.calls.len()
    }

    pub fn op(&mut self, node: NodeId, op: Op) {
        self.calls.push(MachineCall::Op(node, op));
    }

    pub fn send(&mut self, from: NodeId, to: NodeId, bytes: u64) {
        self.calls.push(MachineCall::Send { from, to, bytes });
    }

    pub fn request(
        &mut self,
        from: NodeId,
        to: NodeId,
        req_bytes: u64,
        resp_bytes: u64,
        work: &[Op],
    ) {
        self.calls.push(MachineCall::Request {
            from,
            to,
            req_bytes,
            resp_bytes,
            work: work.to_vec(),
        });
    }

    /// Record one [`Machine::multi_request`]: a `((to, req_bytes,
    /// resp_bytes), ops)` batch per target, in issue order.
    pub fn multi_request<W: IntoIterator<Item = Op>>(
        &mut self,
        from: NodeId,
        batches: impl IntoIterator<Item = ((NodeId, u64, u64), W)>,
    ) {
        let first = self.targets.len() as u32;
        for ((to, req_bytes, resp_bytes), ops) in batches {
            let start = self.work.len() as u32;
            self.work.extend(ops);
            self.targets.push(Target {
                to,
                req_bytes,
                resp_bytes,
                work: start..self.work.len() as u32,
            });
        }
        self.calls.push(MachineCall::MultiRequest {
            from,
            targets: first..self.targets.len() as u32,
        });
    }

    /// Apply every recorded call to `machine`, in recording order.
    pub fn replay(&self, machine: &mut Machine) {
        for call in &self.calls {
            match call {
                MachineCall::Op(node, op) => machine.op(*node, *op),
                MachineCall::Send { from, to, bytes } => {
                    machine.send(*from, *to, *bytes);
                }
                MachineCall::Request {
                    from,
                    to,
                    req_bytes,
                    resp_bytes,
                    work,
                } => {
                    machine.request(*from, *to, *req_bytes, *resp_bytes, work);
                }
                MachineCall::MultiRequest { from, targets } => {
                    let targets = &self.targets[targets.start as usize..targets.end as usize];
                    machine.multi_request_with(
                        *from,
                        targets.iter().map(|t| {
                            let ops = &self.work[t.work.start as usize..t.work.end as usize];
                            ((t.to, t.req_bytes, t.resp_bytes), ops.iter().copied())
                        }),
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A recorded log replayed onto a fresh machine must leave it in exactly
    /// the state direct calls would have.
    #[test]
    fn replay_matches_direct_calls() {
        let mut direct = Machine::new(3);
        direct.op(0, Op::LaunchOverhead);
        direct.send(0, 1, 96);
        direct.request(0, 2, 96, 64, &[Op::EqSetCreate]);
        direct.multi_request(
            0,
            &[(1, 120, 96), (2, 120, 96)],
            &[&[Op::HistScan { entries: 3 }], &[Op::SetTouch]],
        );

        let mut log = ChargeLog::new();
        log.op(0, Op::LaunchOverhead);
        log.send(0, 1, 96);
        log.request(0, 2, 96, 64, &[Op::EqSetCreate]);
        log.multi_request(
            0,
            [
                ((1, 120, 96), vec![Op::HistScan { entries: 3 }]),
                ((2, 120, 96), vec![Op::SetTouch]),
            ],
        );
        let mut replayed = Machine::new(3);
        log.replay(&mut replayed);

        assert_eq!(replayed.clocks(), direct.clocks());
        assert_eq!(replayed.service_clocks(), direct.service_clocks());
        assert_eq!(replayed.counters(), direct.counters());
    }
}
