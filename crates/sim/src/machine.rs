//! The simulated distributed machine.

use crate::cost::{CostModel, Counters, Op};

/// Simulated time in nanoseconds.
pub type SimTime = u64;

/// A machine node (one Legion process / one GPU in the paper's setup).
pub type NodeId = usize;

/// A LogP-style simulated machine.
///
/// Each node has three logical timelines:
///
/// * a **program clock** — the analysis work a node performs for the task
///   launches it originates (Legion's application/runtime analysis thread);
/// * a **service clock** — the node's message handler, which serves
///   incoming analysis requests *in order*. Requests from many nodes to one
///   owner queue up on its service clock — this is exactly the "one machine
///   handling communication from every other node is a sequential
///   bottleneck" effect the paper observes (§8.1). Crucially, serving does
///   *not* block the node's own program clock (the handlers run on Realm
///   utility processors);
/// * a **GPU clock** — the single accelerator (Piz Daint has one GPU per
///   node; the artifact runs one rank per GPU).
#[derive(Clone, Debug)]
pub struct Machine {
    cost: CostModel,
    counters: Counters,
    clock: Vec<SimTime>,
    service: Vec<SimTime>,
    gpu_free: Vec<SimTime>,
}

impl Machine {
    /// A machine with `nodes` nodes and the default cost model.
    pub fn new(nodes: usize) -> Self {
        Self::with_cost(nodes, CostModel::default())
    }

    pub fn with_cost(nodes: usize, cost: CostModel) -> Self {
        assert!(nodes > 0, "a machine needs at least one node");
        Machine {
            cost,
            counters: Counters::default(),
            clock: vec![0; nodes],
            service: vec![0; nodes],
            gpu_free: vec![0; nodes],
        }
    }

    pub fn num_nodes(&self) -> usize {
        self.clock.len()
    }

    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    pub fn reset_counters(&mut self) {
        self.counters = Counters::default();
    }

    /// Current program-clock time on a node.
    pub fn now(&self, node: NodeId) -> SimTime {
        self.clock[node]
    }

    /// Advance a node's program clock to at least `t`.
    pub fn advance_to(&mut self, node: NodeId, t: SimTime) {
        if self.clock[node] < t {
            self.clock[node] = t;
        }
    }

    /// Execute `ns` of local analysis work on a node.
    pub fn exec_ns(&mut self, node: NodeId, ns: u64) {
        self.clock[node] += ns;
    }

    /// Charge one analysis operation to a node's program clock (and bump
    /// the corresponding counter).
    pub fn op(&mut self, node: NodeId, op: Op) {
        self.counters.record(op);
        self.clock[node] += self.cost.op_ns(op);
    }

    /// Charge a geometry operation proportional to the rectangles involved.
    pub fn geom(&mut self, node: NodeId, rects: usize) {
        self.op(node, Op::GeomOp { rects });
    }

    /// A one-way active message (e.g. a commit notification): the sender
    /// pays injection overhead; the receiver *serves* it (in order) without
    /// blocking its program clock. Returns the service-completion time. A
    /// self-send costs nothing.
    pub fn send(&mut self, from: NodeId, to: NodeId, bytes: u64) -> SimTime {
        if from == to {
            return self.clock[from];
        }
        self.counters.messages += 1;
        self.counters.bytes += bytes;
        let injected = self.clock[from];
        self.clock[from] += self.cost.msg_overhead_ns;
        let arrival = self.clock[from] + self.cost.wire_ns(bytes);
        let serve_start = self.service[to].max(arrival);
        let served = serve_start + self.cost.msg_overhead_ns;
        self.service[to] = served;
        self.trace_message(from, to, bytes, injected, arrival, serve_start, served);
        served
    }

    /// Record one message's send + in-order service on the profiler's
    /// simulated-time tracks (free when profiling is disabled).
    #[allow(clippy::too_many_arguments)]
    fn trace_message(
        &self,
        from: NodeId,
        to: NodeId,
        bytes: u64,
        injected: SimTime,
        arrival: SimTime,
        serve_start: SimTime,
        served: SimTime,
    ) {
        if !viz_profile::enabled() {
            return;
        }
        viz_profile::sim_event(
            injected,
            self.cost.msg_overhead_ns,
            viz_profile::Track::SimProgram { node: from as u32 },
            viz_profile::EventKind::MsgSend {
                from: from as u32,
                to: to as u32,
                bytes,
            },
        );
        viz_profile::sim_event(
            serve_start,
            served.saturating_sub(serve_start),
            viz_profile::Track::SimService { node: to as u32 },
            viz_profile::EventKind::MsgServe {
                from: from as u32,
                to: to as u32,
                queued_ns: serve_start.saturating_sub(arrival),
            },
        );
    }

    /// A blocking request/response: the requester sends `req_bytes`; the
    /// responder's message handler performs `work` (queued in order on its
    /// service clock); the response of `resp_bytes` returns, and the
    /// requester's program clock advances to its arrival. Returns that
    /// time. A self-request just performs the work locally.
    pub fn request(
        &mut self,
        from: NodeId,
        to: NodeId,
        req_bytes: u64,
        resp_bytes: u64,
        work: &[Op],
    ) -> SimTime {
        if from == to {
            for op in work {
                self.op(from, *op);
            }
            return self.clock[from];
        }
        self.counters.messages += 2;
        self.counters.bytes += req_bytes + resp_bytes;
        let injected = self.clock[from];
        self.clock[from] += self.cost.msg_overhead_ns;
        let arrival = self.clock[from] + self.cost.wire_ns(req_bytes);
        let serve_start = self.service[to].max(arrival);
        let mut served = serve_start;
        for op in work {
            self.counters.record(*op);
            served += self.cost.op_ns(*op);
        }
        served += self.cost.msg_overhead_ns;
        self.service[to] = served;
        self.trace_message(
            from,
            to,
            req_bytes + resp_bytes,
            injected,
            arrival,
            serve_start,
            served,
        );
        let resp_arrival = served + self.cost.wire_ns(resp_bytes);
        self.advance_to(from, resp_arrival);
        self.clock[from]
    }

    /// Several requests issued concurrently (one per target): the requester
    /// pays injection overhead per message, each responder serves in its
    /// own queue, and the requester blocks until the *last* response.
    pub fn multi_request(
        &mut self,
        from: NodeId,
        targets: &[(NodeId, u64, u64)],
        work: &[&[Op]],
    ) -> SimTime {
        debug_assert_eq!(targets.len(), work.len());
        self.multi_request_with(
            from,
            targets
                .iter()
                .zip(work)
                .map(|(target, ops)| (*target, ops.iter().copied())),
        )
    }

    /// [`Machine::multi_request`] over any sequence of
    /// `((to, req_bytes, resp_bytes), ops)` batches — what a recorded
    /// [`crate::ChargeLog`] replays from its arenas without materializing
    /// the slice-of-slices form.
    pub fn multi_request_with<W: IntoIterator<Item = Op>>(
        &mut self,
        from: NodeId,
        batches: impl IntoIterator<Item = ((NodeId, u64, u64), W)>,
    ) -> SimTime {
        let mut latest = self.clock[from];
        for ((to, req_bytes, resp_bytes), ops) in batches {
            if to == from {
                for op in ops {
                    self.op(from, op);
                }
                continue;
            }
            self.counters.messages += 2;
            self.counters.bytes += req_bytes + resp_bytes;
            let injected = self.clock[from];
            self.clock[from] += self.cost.msg_overhead_ns;
            let arrival = self.clock[from] + self.cost.wire_ns(req_bytes);
            let serve_start = self.service[to].max(arrival);
            let mut served = serve_start;
            for op in ops {
                self.counters.record(op);
                served += self.cost.op_ns(op);
            }
            served += self.cost.msg_overhead_ns;
            self.service[to] = served;
            self.trace_message(
                from,
                to,
                req_bytes + resp_bytes,
                injected,
                arrival,
                serve_start,
                served,
            );
            latest = latest.max(served + self.cost.wire_ns(resp_bytes));
        }
        self.advance_to(from, latest);
        self.clock[from]
    }

    /// Schedule a task of `duration_ns` on a node's GPU, not starting before
    /// `ready`. Returns the completion time. GPUs execute one task at a time
    /// (tasks are internally sequential; parallelism is between tasks, §8).
    pub fn gpu_task(&mut self, node: NodeId, ready: SimTime, duration_ns: u64) -> SimTime {
        let start = self.gpu_free[node].max(ready);
        let end = start + duration_ns;
        self.gpu_free[node] = end;
        end
    }

    /// An asynchronous bulk copy (DMA) of `bytes` between nodes, starting no
    /// earlier than `ready`; returns delivery time. Does not occupy the
    /// analysis clocks (Realm copies run on DMA engines). A same-node copy
    /// pays reduced bandwidth only.
    pub fn copy(&mut self, from: NodeId, to: NodeId, bytes: u64, ready: SimTime) -> SimTime {
        if from == to {
            return ready + (bytes as f64 * self.cost.ns_per_byte * 0.25) as u64;
        }
        self.counters.messages += 1;
        self.counters.bytes += bytes;
        ready + self.cost.msg_overhead_ns + self.cost.wire_ns(bytes)
    }

    /// Broadcast `bytes` from `root` to all nodes along a binomial tree;
    /// every node's program clock advances to its receipt time (broadcasts
    /// deliver analysis state the receiver then depends on).
    pub fn broadcast(&mut self, root: NodeId, bytes: u64) {
        let n = self.num_nodes();
        if n == 1 {
            return;
        }
        let hop = self.cost.msg_overhead_ns + self.cost.wire_ns(bytes);
        let t0 = self.clock[root];
        for node in 0..n {
            if node == root {
                continue;
            }
            // Distance in the binomial tree: position of the highest set bit
            // of the rank offset determines the round it is reached.
            let offset = (node + n - root) % n;
            let rounds = usize::BITS - offset.leading_zeros();
            self.counters.messages += 1;
            self.counters.bytes += bytes;
            self.advance_to(node, t0 + hop * rounds as u64);
        }
        self.clock[root] = t0 + hop; // root participates in round one
    }

    /// All-reduce of `bytes` per node: all program clocks converge to a
    /// common time `2·log2(n)` hops after the latest participant.
    pub fn allreduce(&mut self, bytes: u64) {
        let n = self.num_nodes();
        if n == 1 {
            return;
        }
        let latest = *self.clock.iter().max().unwrap();
        let hop = self.cost.msg_overhead_ns + self.cost.wire_ns(bytes);
        let rounds = 2 * (usize::BITS - (n - 1).leading_zeros()) as u64;
        self.counters.messages += 2 * (n as u64 - 1);
        self.counters.bytes += 2 * (n as u64 - 1) * bytes;
        let done = latest + hop * rounds;
        for c in &mut self.clock {
            *c = done;
        }
    }

    /// Synchronize all program clocks (an 8-byte all-reduce).
    pub fn barrier(&mut self) {
        self.allreduce(8);
    }

    /// The simulated wall-clock: the latest time any processor is busy to.
    pub fn time(&self) -> SimTime {
        let a = self.clock.iter().copied().max().unwrap_or(0);
        let s = self.service.iter().copied().max().unwrap_or(0);
        let g = self.gpu_free.iter().copied().max().unwrap_or(0);
        a.max(s).max(g)
    }

    /// Per-node program clocks (diagnostics).
    pub fn clocks(&self) -> &[SimTime] {
        &self.clock
    }

    /// Per-node service clocks (diagnostics).
    pub fn service_clocks(&self) -> &[SimTime] {
        &self.service
    }

    /// Reset all clocks to zero, keeping counters.
    pub fn reset_clocks(&mut self) {
        self.clock.fill(0);
        self.service.fill(0);
        self.gpu_free.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_work_advances_only_that_node() {
        let mut m = Machine::new(4);
        m.exec_ns(2, 1_000);
        assert_eq!(m.now(2), 1_000);
        assert_eq!(m.now(0), 0);
        assert_eq!(m.time(), 1_000);
    }

    #[test]
    fn send_does_not_block_receiver_program_clock() {
        let mut m = Machine::new(2);
        m.exec_ns(0, 10_000);
        let served = m.send(0, 1, 100);
        assert!(served > 10_000);
        assert_eq!(m.now(1), 0, "one-way messages are served, not awaited");
        assert_eq!(m.counters().messages, 1);
        assert_eq!(m.counters().bytes, 100);
        assert!(m.time() >= served, "service time counts toward makespan");
    }

    #[test]
    fn self_send_is_free() {
        let mut m = Machine::new(2);
        m.exec_ns(0, 500);
        let t = m.send(0, 0, 1_000_000);
        assert_eq!(t, 500);
        assert_eq!(m.counters().messages, 0);
    }

    #[test]
    fn request_blocks_requester_for_round_trip() {
        let mut m = Machine::new(2);
        let t = m.request(0, 1, 64, 64, &[Op::EqSetCreate]);
        // Requester waited for two wire traversals plus remote work.
        assert!(t >= 2 * m.cost().wire_ns(64));
        assert_eq!(m.now(0), t);
        assert_eq!(m.counters().messages, 2);
        assert_eq!(m.counters().eqsets_created, 1);
        assert_eq!(m.now(1), 0, "responder's program clock is untouched");
    }

    #[test]
    fn request_to_self_costs_only_work() {
        let mut m = Machine::new(2);
        let t = m.request(1, 1, 64, 64, &[Op::EqSetCreate]);
        assert_eq!(t, m.cost().op_ns(Op::EqSetCreate));
        assert_eq!(m.counters().messages, 0);
    }

    #[test]
    fn requests_to_one_owner_queue_in_order() {
        // The §8.1 bottleneck: many nodes asking one owner serialize on its
        // service clock.
        let mut m = Machine::new(9);
        let mut last = 0;
        for from in 1..9 {
            last = m.request(from, 0, 64, 64, &[Op::EqSetRefine]);
        }
        // The 8th requester waits behind seven earlier served requests.
        let min_serial = 8 * m.cost().op_ns(Op::EqSetRefine);
        assert!(
            last > min_serial,
            "service queue must serialize: {last} vs {min_serial}"
        );
        assert_eq!(m.now(0), 0, "owner's own program clock is free");
    }

    #[test]
    fn symmetric_exchange_does_not_ratchet_clocks() {
        // Two nodes exchanging requests repeatedly must accumulate only
        // their own costs — not transitively serialize the whole machine.
        let mut m = Machine::new(2);
        for _ in 0..100 {
            m.request(0, 1, 64, 64, &[]);
            m.request(1, 0, 64, 64, &[]);
        }
        let per_rtt = 2 * (m.cost().msg_overhead_ns + m.cost().wire_ns(64));
        // Each node did 100 round trips; allow generous service slack.
        assert!(m.now(0) < 100 * (per_rtt + 4 * m.cost().msg_overhead_ns));
    }

    #[test]
    fn multi_request_overlaps_round_trips() {
        let mut m1 = Machine::new(4);
        m1.multi_request(
            0,
            &[(1, 64, 64), (2, 64, 64), (3, 64, 64)],
            &[&[Op::EqSetCreate], &[Op::EqSetCreate], &[Op::EqSetCreate]],
        );
        let parallel = m1.now(0);
        let mut m2 = Machine::new(4);
        for to in 1..4 {
            m2.request(0, to, 64, 64, &[Op::EqSetCreate]);
        }
        let serial = m2.now(0);
        assert!(
            parallel < serial,
            "concurrent requests ({parallel}) must beat sequential ({serial})"
        );
        assert_eq!(m1.counters().messages, 6);
    }

    #[test]
    fn gpu_serializes_tasks() {
        let mut m = Machine::new(1);
        let e1 = m.gpu_task(0, 0, 100);
        let e2 = m.gpu_task(0, 0, 100);
        assert_eq!(e1, 100);
        assert_eq!(e2, 200, "second task queues behind the first");
        let e3 = m.gpu_task(0, 1_000, 50);
        assert_eq!(e3, 1_050, "ready time respected");
    }

    #[test]
    fn copy_is_asynchronous() {
        let mut m = Machine::new(2);
        let before = m.now(0);
        let t = m.copy(0, 1, 8_000, 500);
        assert!(t > 500);
        assert_eq!(m.now(0), before, "copies do not occupy analysis clocks");
    }

    #[test]
    fn broadcast_reaches_everyone_log_depth() {
        let mut m = Machine::new(8);
        m.exec_ns(0, 1_000);
        m.broadcast(0, 64);
        let hop = m.cost().msg_overhead_ns + m.cost().wire_ns(64);
        for node in 1..8 {
            assert!(m.now(node) > 1_000);
            assert!(m.now(node) <= 1_000 + 3 * hop, "log2(8) = 3 rounds max");
        }
        assert_eq!(m.counters().messages, 7);
    }

    #[test]
    fn allreduce_converges_clocks() {
        let mut m = Machine::new(4);
        m.exec_ns(3, 9_999);
        m.allreduce(8);
        let t = m.now(0);
        for node in 0..4 {
            assert_eq!(m.now(node), t);
        }
        assert!(t > 9_999);
    }

    #[test]
    fn single_node_collectives_are_free() {
        let mut m = Machine::new(1);
        m.exec_ns(0, 77);
        m.broadcast(0, 1024);
        m.allreduce(1024);
        m.barrier();
        assert_eq!(m.now(0), 77);
        assert_eq!(m.counters().messages, 0);
    }

    #[test]
    fn op_charging_advances_clock_and_counters() {
        let mut m = Machine::new(2);
        m.op(1, Op::HistScan { entries: 10 });
        assert_eq!(m.counters().hist_entries_scanned, 10);
        assert_eq!(m.now(1), m.cost().op_ns(Op::HistScan { entries: 10 }));
    }

    #[test]
    fn reset_clocks_keeps_counters() {
        let mut m = Machine::new(2);
        m.send(0, 1, 10);
        m.reset_clocks();
        assert_eq!(m.time(), 0);
        assert_eq!(m.counters().messages, 1);
    }
}
