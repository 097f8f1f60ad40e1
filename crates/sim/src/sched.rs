//! The hierarchical scheduler: controller-tree state machines implementing
//! the three control protocols of §3.5 (sequential, coarse-grained
//! pipelining with tokens and credits, streaming) over the shared
//! [`Resources`].

use crate::deadlock::{BlockedUnit, HeldResource, WaitCause};
use crate::model::{SimModel, TransferModel};
use crate::resources::{Resources, Standing};
use crate::trace::{WaitKind, CLASS_BUSY, CLASS_CTRL, CLASS_MEM};
use plasticine_arch::UnitId;
use plasticine_dram::lines_for_range;
use plasticine_json::Json;
use plasticine_ppir::{CtrlId, LeafWork, Schedule, TraceNode};

/// The request list a transfer leaf walks in `Xfer`: per-element accesses
/// for sparse transfers, 64-byte lines for dense ones. Deterministic in
/// `(work, model)`, so checkpoints store only the walk cursor and rebuild
/// the list on restore.
fn xfer_reqs(work: &LeafWork, tm: &TransferModel, model: &SimModel) -> Vec<(u64, bool)> {
    let mut reqs = Vec::new();
    if tm.sparse {
        for r in &work.dram {
            let base = model.dram_base[r.dram.0 as usize];
            for k in 0..r.len {
                reqs.push((base + (r.offset as u64 + k as u64) * 4, r.is_write));
            }
        }
    } else {
        for r in &work.dram {
            let base = model.dram_base[r.dram.0 as usize];
            let start = base + r.offset as u64 * 4;
            for line in lines_for_range(start, r.len as u64 * 4, 64) {
                reqs.push((line, r.is_write));
            }
        }
    }
    reqs
}

/// One node of the runtime schedule tree.
#[derive(Debug)]
pub enum Node {
    /// An outer-controller invocation. Boxed: leaves far outnumber outer
    /// nodes, and every leaf slot is as large as the largest variant.
    Outer(Box<OuterNode>),
    /// A leaf invocation.
    Leaf(LeafNode),
}

impl Node {
    /// Builds the schedule tree from a recorded trace.
    pub fn build(trace: TraceNode, model: &SimModel, next_job: &mut u64) -> Node {
        match trace {
            TraceNode::Leaf { ctrl, work } => {
                let job = *next_job;
                *next_job += 1;
                Node::Leaf(LeafNode {
                    ctrl,
                    work,
                    job,
                    state: LeafState::Idle,
                    slot_released: false,
                    started_at: 0,
                })
            }
            TraceNode::Outer { ctrl, iters } => {
                let n_children = model.outer.get(ctrl).expect("outer model").children.len();
                let first_job = *next_job;
                let iters: Vec<Vec<Option<Node>>> = iters
                    .into_iter()
                    .map(|ch| {
                        ch.into_iter()
                            .map(|t| Some(Node::build(t, model, next_job)))
                            .collect()
                    })
                    .collect();
                Node::Outer(Box::new(OuterNode {
                    ctrl,
                    in_flight: vec![0; n_children],
                    iters,
                    started: vec![0; n_children],
                    completed: vec![Vec::new(); n_children],
                    water: vec![0; n_children],
                    active: Vec::new(),
                    holds_slot: false,
                    done: false,
                    seq_cursor: (0, 0),
                    jobs: (first_job, *next_job),
                    park: Vec::new(),
                    parked: false,
                    wake_at: u64::MAX,
                    gates: Vec::new(),
                }))
            }
        }
    }

    /// Advances one cycle. Returns true when the node has fully completed.
    pub fn tick(&mut self, res: &mut Resources, model: &SimModel) -> bool {
        match self {
            Node::Leaf(l) => l.tick(res, model),
            Node::Outer(o) => o.tick(res, model),
        }
    }

    /// Whether the node still occupies its hardware (a draining pipeline
    /// has released the unit: the next invocation streams in behind it).
    fn occupying(&self) -> bool {
        match self {
            Node::Leaf(l) => !matches!(l.state, LeafState::Drain { .. } | LeafState::Done),
            Node::Outer(o) => !o.done,
        }
    }

    /// Earliest future cycle at which the tree changes state *on its own*,
    /// in the tick-time clock domain: the minimum pending pipeline-drain
    /// completion. Every other way the tree can unblock — a DRAM response,
    /// freed queue capacity, a retry expiry — is an externally generated
    /// event the run loop's event kernel tracks separately; and in a
    /// quiescent cycle no purely internal transition is pending (anything
    /// startable would have started and marked the cycle changed). An
    /// outer node keeps this minimum over its subtree as of its last
    /// visit, which nothing has changed since, so this reads one field.
    pub(crate) fn next_wake(&self) -> u64 {
        match self {
            Node::Leaf(l) => match &l.state {
                LeafState::Drain { finish, .. } => *finish,
                _ => u64::MAX,
            },
            Node::Outer(o) => {
                if o.done {
                    u64::MAX
                } else {
                    o.wake_at
                }
            }
        }
    }

    /// How the node parks after a visit (event stepping only): a draining
    /// leaf until its finish cycle; a transfer that has pushed every
    /// request until a completion is routed to its job; an outer node
    /// whose visit found every active child parked until its subtree's
    /// earliest finish or a completion routed into its job range. Until
    /// then its tick would change nothing and only repeat its notes.
    fn park(&self, model: &SimModel) -> Park {
        match self {
            Node::Leaf(l) => match &l.state {
                LeafState::Drain { finish, .. } => Park {
                    until: *finish,
                    jobs: (0, 0),
                    mem: None,
                },
                LeafState::Xfer { .. } if l.awaits_responses() => Park {
                    until: u64::MAX,
                    jobs: (l.job, l.job + 1),
                    mem: model.unit_of(l.ctrl),
                },
                _ => AWAKE,
            },
            Node::Outer(o) if o.parked => Park {
                until: o.wake_at,
                jobs: o.jobs,
                mem: None,
            },
            Node::Outer(_) => AWAKE,
        }
    }

    /// Walks the live tree and records every blocked unit with what it
    /// holds and awaits — the raw material of a
    /// [`DeadlockReport`](crate::DeadlockReport). Mirrors the start
    /// conditions of `tick` without mutating anything.
    pub fn collect_blocked(&self, res: &Resources, model: &SimModel, out: &mut Vec<BlockedUnit>) {
        match self {
            Node::Leaf(l) => l.collect_blocked(res, model, out),
            Node::Outer(o) => o.collect_blocked(res, model, out),
        }
    }

    // ---- checkpointing ----

    /// Serializes the mutable invocation state of the tree. Structure is
    /// *not* serialized: [`build`](Self::build) is deterministic in the
    /// trace and model, so a resume re-runs the functional interpreter,
    /// rebuilds an identical fresh tree, and overlays this snapshot via
    /// [`restore`](Self::restore). `active` order is preserved verbatim —
    /// the tick loop iterates it in order, so it is behaviorally
    /// significant.
    pub(crate) fn snapshot(&self) -> Json {
        match self {
            Node::Leaf(l) => {
                let state = match &l.state {
                    LeafState::Idle => Json::obj([("k", Json::from("idle"))]),
                    LeafState::Issue { remaining, beat } => Json::obj([
                        ("k", Json::from("issue")),
                        ("remaining", Json::from(*remaining)),
                        ("beat", Json::from(*beat)),
                    ]),
                    LeafState::Xfer {
                        next,
                        outstanding,
                        issued_requests,
                        ..
                    } => Json::obj([
                        ("k", Json::from("xfer")),
                        ("next", Json::from(*next as u64)),
                        ("outstanding", Json::from(*outstanding)),
                        ("issued", Json::from(*issued_requests)),
                    ]),
                    LeafState::Drain { finish, xfer } => Json::obj([
                        ("k", Json::from("drain")),
                        ("finish", Json::from(*finish)),
                        ("xfer", Json::from(*xfer)),
                    ]),
                    LeafState::Done => Json::obj([("k", Json::from("done"))]),
                };
                Json::obj([
                    ("t", Json::from("leaf")),
                    ("slot_released", Json::from(l.slot_released)),
                    ("started_at", Json::from(l.started_at)),
                    ("state", state),
                ])
            }
            Node::Outer(o) => Json::obj([
                ("t", Json::from("outer")),
                (
                    "started",
                    Json::Arr(o.started.iter().map(|&v| Json::from(v as u64)).collect()),
                ),
                (
                    "water",
                    Json::Arr(o.water.iter().map(|&v| Json::from(v as u64)).collect()),
                ),
                (
                    "completed",
                    Json::Arr(
                        o.completed
                            .iter()
                            .map(|c| {
                                Json::Arr(c.iter().map(|&b| Json::from(u64::from(b))).collect())
                            })
                            .collect(),
                    ),
                ),
                ("holds_slot", Json::from(o.holds_slot)),
                ("done", Json::from(o.done)),
                (
                    "seq",
                    Json::Arr(vec![
                        Json::from(o.seq_cursor.0 as u64),
                        Json::from(o.seq_cursor.1 as u64),
                    ]),
                ),
                (
                    "active",
                    Json::Arr(
                        o.active
                            .iter()
                            .map(|(it, ch, n)| {
                                Json::obj([
                                    ("it", Json::from(*it as u64)),
                                    ("ch", Json::from(*ch as u64)),
                                    ("node", n.snapshot()),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        }
    }

    /// Overlays a [`snapshot`](Self::snapshot) onto a freshly built tree.
    /// Started-but-unfinished invocations are re-taken from `iters` and
    /// restored recursively; completed positions are taken and dropped so
    /// they cannot restart.
    ///
    /// # Errors
    ///
    /// Fails with a message when the snapshot does not match the tree's
    /// shape (wrong program, corrupt snapshot).
    pub(crate) fn restore(&mut self, j: &Json, model: &SimModel) -> Result<(), String> {
        use plasticine_json::decode::{arr_of, bool_of, field, str_of, u64_of, usize_of};
        match self {
            Node::Leaf(l) => {
                if str_of(j, "t")? != "leaf" {
                    return Err("tree shape mismatch: expected a leaf node".to_string());
                }
                l.slot_released = bool_of(j, "slot_released")?;
                l.started_at = u64_of(j, "started_at")?;
                let s = field(j, "state")?;
                l.state = match str_of(s, "k")? {
                    "idle" => LeafState::Idle,
                    "issue" => LeafState::Issue {
                        remaining: u64_of(s, "remaining")?,
                        beat: u64_of(s, "beat")?,
                    },
                    "xfer" => {
                        let tm = model
                            .transfer
                            .get(l.ctrl)
                            .ok_or_else(|| "xfer state on a non-transfer leaf".to_string())?;
                        let reqs = xfer_reqs(&l.work, tm, model);
                        let next = usize_of(s, "next")?;
                        if next > reqs.len() {
                            return Err("xfer cursor out of range".to_string());
                        }
                        LeafState::Xfer {
                            reqs,
                            next,
                            outstanding: u64_of(s, "outstanding")?,
                            issued_requests: u64_of(s, "issued")?,
                        }
                    }
                    "drain" => LeafState::Drain {
                        finish: u64_of(s, "finish")?,
                        xfer: bool_of(s, "xfer")?,
                    },
                    "done" => LeafState::Done,
                    k => return Err(format!("unknown leaf state `{k}`")),
                };
                Ok(())
            }
            Node::Outer(o) => {
                if str_of(j, "t")? != "outer" {
                    return Err("tree shape mismatch: expected an outer node".to_string());
                }
                let started = arr_of(j, "started")?;
                let water = arr_of(j, "water")?;
                let completed = arr_of(j, "completed")?;
                if started.len() != o.n_children()
                    || water.len() != o.n_children()
                    || completed.len() != o.n_children()
                {
                    return Err("child count mismatch".to_string());
                }
                for (dst, v) in o.started.iter_mut().zip(started) {
                    *dst = v.as_usize().ok_or_else(|| "bad started".to_string())?;
                }
                for (dst, v) in o.water.iter_mut().zip(water) {
                    *dst = v.as_usize().ok_or_else(|| "bad water".to_string())?;
                }
                for (ch, cj) in completed.iter().enumerate() {
                    let flags = cj
                        .as_arr()
                        .ok_or_else(|| "completed row is not an array".to_string())?;
                    if flags.len() > o.n_iters() {
                        return Err("completed row longer than iteration count".to_string());
                    }
                    let mut row = Vec::with_capacity(flags.len());
                    for f in flags {
                        row.push(match f.as_u64() {
                            Some(0) => false,
                            Some(1) => true,
                            _ => return Err("bad completed flag".to_string()),
                        });
                    }
                    // Completed positions were started: take and drop them.
                    for (it, &done) in row.iter().enumerate() {
                        if done && o.iters[it][ch].take().is_none() {
                            return Err("completed position taken twice".to_string());
                        }
                    }
                    o.completed[ch] = row;
                }
                o.holds_slot = bool_of(j, "holds_slot")?;
                o.done = bool_of(j, "done")?;
                let seq = arr_of(j, "seq")?;
                if seq.len() != 2 {
                    return Err("bad seq cursor".to_string());
                }
                o.seq_cursor = (
                    seq[0]
                        .as_usize()
                        .ok_or_else(|| "bad seq iter".to_string())?,
                    seq[1]
                        .as_usize()
                        .ok_or_else(|| "bad seq child".to_string())?,
                );
                o.parked = false;
                o.wake_at = u64::MAX;
                o.gates.clear();
                o.active.clear();
                for aj in arr_of(j, "active")? {
                    let it = usize_of(aj, "it")?;
                    let ch = usize_of(aj, "ch")?;
                    if it >= o.n_iters() || ch >= o.n_children() {
                        return Err("active position out of range".to_string());
                    }
                    let mut node = o.iters[it][ch]
                        .take()
                        .ok_or_else(|| "active position taken twice".to_string())?;
                    node.restore(field(aj, "node")?, model)?;
                    o.active.push((it, ch, node));
                }
                o.park = vec![AWAKE; o.active.len()];
                o.in_flight.fill(0);
                for (_, ch, node) in &o.active {
                    if node.occupying() {
                        o.in_flight[*ch] += 1;
                    }
                }
                Ok(())
            }
        }
    }
}

/// What a parent keeps of an active child between visits, beside
/// `active` (same positions), so that passing over an asleep child reads
/// these few words instead of the child.
#[derive(Debug, Clone, Copy)]
struct Park {
    /// Cycle the child wakes on its own; 0 for a child that is not parked
    /// and must be visited every cycle.
    until: u64,
    /// Jobs `lo..hi` whose routed completions wake the child.
    jobs: (u64, u64),
    /// A waiting transfer's unit: its `CLASS_MEM` note stands while the
    /// transfer is parked.
    mem: Option<UnitId>,
}

/// The park entry of a child that must be visited.
const AWAKE: Park = Park {
    until: 0,
    jobs: (0, 0),
    mem: None,
};

/// Runtime state of an outer-controller invocation. What is the same for
/// every invocation of the controller (schedule, children, dependence
/// edges, width) lives in its [`OuterModel`](crate::OuterModel).
#[derive(Debug)]
pub struct OuterNode {
    ctrl: CtrlId,
    /// Per-child occupying-invocation counts over `active`, kept up to
    /// date as children start, stop occupying and retire (read by
    /// [`start_pipelined`](Self::start_pipelined); rebuilt on restore).
    in_flight: Vec<usize>,
    /// `iters[i][j]` is taken (`None`) once started.
    iters: Vec<Vec<Option<Node>>>,
    started: Vec<usize>,
    completed: Vec<Vec<bool>>,
    /// Contiguous completed-iteration prefix per child.
    water: Vec<usize>,
    active: Vec<(usize, usize, Node)>,
    holds_slot: bool,
    done: bool,
    seq_cursor: (usize, usize),
    /// Job ids `lo..hi` of the leaves in this subtree: `Node::build`
    /// numbers leaves depth first, so a subtree's jobs are contiguous.
    jobs: (u64, u64),
    // Park state: derived from the fields above by the visits, never
    // serialized, and reset (every node awake) on restore.
    /// Park entry per active child, at the child's position in `active`.
    park: Vec<Park>,
    /// Whether the last visit found every active child parked and started
    /// nothing, so the next visit would repeat it until a child wakes.
    parked: bool,
    /// Earliest pending drain finish in the subtree as of the last visit.
    wake_at: u64,
    /// The last visit's gate-blocked children. While the node is parked
    /// they stand with [`Resources::stand`], which notes them every cycle.
    gates: Vec<Standing>,
}

impl OuterNode {
    fn n_iters(&self) -> usize {
        self.iters.len()
    }

    fn n_children(&self) -> usize {
        self.started.len()
    }

    fn asleep(&self, res: &Resources) -> bool {
        self.parked && res.now < self.wake_at && !res.woken_in(self.jobs.0, self.jobs.1)
    }

    fn mark_done(&mut self, iter: usize, child: usize) {
        let c = &mut self.completed[child];
        if c.len() <= iter {
            c.resize(iter + 1, false);
        }
        c[iter] = true;
        while self.water[child] < c.len() && c[self.water[child]] {
            self.water[child] += 1;
        }
    }

    fn all_done(&self) -> bool {
        self.active.is_empty() && self.water.iter().all(|&w| w >= self.n_iters())
    }

    fn tick(&mut self, res: &mut Resources, model: &SimModel) -> bool {
        if self.done {
            return true;
        }
        if self.parked {
            if self.asleep(res) {
                return false; // the root: a parent skips asleep children itself
            }
            res.stand(&self.gates, false);
            self.parked = false;
        }
        if !self.holds_slot {
            if !res.acquire_slot(self.ctrl) {
                return false;
            }
            self.holds_slot = true;
            res.activity.ctrl_msgs += 1; // parent token
        }
        if self.n_iters() == 0 {
            self.finish(res);
            return true;
        }
        // Tick active children in `active` order and retire completed
        // ones. Asleep children are passed over: their ticks would change
        // nothing, and their notes stand.
        let event = res.event_mode();
        let mut wake = u64::MAX;
        let mut all_parked = true;
        let mut i = 0;
        while i < self.active.len() {
            let p = self.park[i];
            if res.now < p.until && !res.woken_in(p.jobs.0, p.jobs.1) {
                wake = wake.min(p.until);
                i += 1;
                continue;
            }
            if let Some(u) = p.mem {
                res.stand(&[Standing::Mem(u)], false);
            }
            let (it, ch, node) = &mut self.active[i];
            let (it, ch) = (*it, *ch);
            let occupied = node.occupying();
            if node.tick(res, model) {
                if occupied {
                    self.in_flight[ch] -= 1;
                }
                self.active.swap_remove(i);
                self.park.swap_remove(i);
                self.mark_done(it, ch);
                res.activity.ctrl_msgs += 1; // done token back to parent
                res.mark_changed(); // retirement may unblock siblings
                continue;
            }
            if occupied && !node.occupying() {
                self.in_flight[ch] -= 1; // a pipeline drains behind its unit
            }
            wake = wake.min(node.next_wake());
            let p = if event { node.park(model) } else { AWAKE };
            if let Some(u) = p.mem {
                res.stand(&[Standing::Mem(u)], true);
            }
            all_parked &= p.until > 0;
            self.park[i] = p;
            i += 1;
        }
        // Start new children under the protocol.
        let before = self.active.len();
        self.gates.clear();
        match model.outer[self.ctrl].schedule {
            Schedule::Sequential => self.start_sequential(res),
            Schedule::Pipelined | Schedule::Streaming => self.start_pipelined(res, model),
        }
        if event && all_parked && self.active.len() == before && !self.all_done() {
            // Nothing here can change until a child wakes: park, and let
            // every commit make this visit's gate notes.
            self.wake_at = wake;
            self.parked = true;
            res.stand(&self.gates, true);
            return false;
        }
        for n in &self.gates {
            if let Standing::Gate(ctrl, unit, kind) = *n {
                if let Some(u) = unit {
                    res.note(u, CLASS_CTRL);
                }
                let now = res.now;
                if let Some(t) = res.tracer.as_mut() {
                    t.wait(ctrl, kind, now);
                }
            }
        }
        if self.all_done() {
            self.finish(res);
            return true;
        }
        self.wake_at = wake; // fresh children are not draining
        false
    }

    fn finish(&mut self, res: &mut Resources) {
        if self.holds_slot {
            res.release_slot(self.ctrl);
            self.holds_slot = false;
        }
        self.done = true;
    }

    /// Sequential: one child at a time, program order, iteration by
    /// iteration ("only one data dependent child is active at any time").
    fn start_sequential(&mut self, res: &mut Resources) {
        if !self.active.is_empty() {
            return;
        }
        let (mut it, mut ch) = self.seq_cursor;
        // Skip over already-finished positions.
        while it < self.n_iters() {
            if ch >= self.n_children() {
                it += 1;
                ch = 0;
                continue;
            }
            break;
        }
        if it >= self.n_iters() {
            return;
        }
        if let Some(node) = self.iters[it][ch].take() {
            self.launch(it, ch, node, res);
        }
        self.seq_cursor = (it, ch + 1);
    }

    /// Enters a fresh invocation of child `ch`, iteration `it`, into the
    /// tree.
    fn launch(&mut self, it: usize, ch: usize, node: Node, res: &mut Resources) {
        if node.occupying() {
            self.in_flight[ch] += 1;
        }
        self.active.push((it, ch, node));
        self.park.push(AWAKE);
        self.started[ch] = self.started[ch].max(it + 1);
        res.mark_changed(); // a fresh invocation entered the tree
    }

    /// Coarse-grained pipelining: children overlap across parent
    /// iterations, gated by tokens (producers finished the same iteration),
    /// credits (consumers at most `depth-1` iterations behind), per-child
    /// hardware width, and in-order starts. Blocked gates become notes
    /// (see [`note_blocked`](Self::note_blocked)).
    fn start_pipelined(&mut self, res: &mut Resources, model: &SimModel) {
        let om = &model.outer[self.ctrl];
        for ch in 0..self.n_children() {
            loop {
                let i = self.started[ch];
                if i >= self.n_iters() {
                    break;
                }
                if self.in_flight[ch] >= om.width {
                    break;
                }
                // Tokens: all producers have finished iteration i.
                let tokens_ok = om.deps_in[ch].iter().all(|pr| self.water[*pr] > i);
                if !tokens_ok {
                    self.note_blocked(model, ch, WaitKind::Token);
                    break;
                }
                // Credits: don't run further ahead of any consumer than the
                // buffer between allows.
                let credits_ok = om.deps_out[ch]
                    .iter()
                    .all(|(co, depth)| i < self.water[*co] + *depth);
                if !credits_ok {
                    self.note_blocked(model, ch, WaitKind::Credit);
                    break;
                }
                let Some(node) = self.iters[i][ch].take() else {
                    break;
                };
                self.launch(i, ch, node, res);
            }
        }
    }

    /// Records this node's blocked units: itself (when slot-starved), its
    /// active children (recursively), and — for the pipelined protocols —
    /// every child whose next iteration fails the token or credit gate,
    /// using the exact conditions of [`start_pipelined`](Self::start_pipelined).
    fn collect_blocked(&self, res: &Resources, model: &SimModel, out: &mut Vec<BlockedUnit>) {
        if self.done {
            return;
        }
        if !self.holds_slot {
            let (in_use, cap) = res.slot_usage(self.ctrl, model);
            out.push(BlockedUnit {
                ctrl: self.ctrl,
                name: String::new(),
                waits: vec![WaitCause::Slot { in_use, cap }],
                holds: vec![],
            });
            return;
        }
        for (_, _, node) in &self.active {
            node.collect_blocked(res, model, out);
        }
        let om = &model.outer[self.ctrl];
        if matches!(om.schedule, Schedule::Sequential) {
            return;
        }
        for ch in 0..self.n_children() {
            let i = self.started[ch];
            if i >= self.n_iters() {
                continue;
            }
            let in_flight = self
                .active
                .iter()
                .filter(|(_, c, n)| *c == ch && n.occupying())
                .count();
            if in_flight >= om.width {
                continue; // width-limited, not a protocol wait
            }
            let mut waits = Vec::new();
            for (pr, _, _) in om.deps.iter().filter(|(_, c, _)| *c == ch) {
                if self.water[*pr] <= i {
                    waits.push(WaitCause::Token {
                        producer: om.children[*pr],
                        producer_name: String::new(),
                        iter: i,
                        produced: self.water[*pr],
                    });
                }
            }
            for (_, co, depth) in om.deps.iter().filter(|(pr, _, _)| *pr == ch) {
                if i >= self.water[*co] + *depth {
                    waits.push(WaitCause::Credit {
                        consumer: om.children[*co],
                        consumer_name: String::new(),
                        iter: i,
                        consumed: self.water[*co],
                        depth: *depth,
                    });
                }
            }
            if !waits.is_empty() {
                out.push(BlockedUnit {
                    ctrl: om.children[ch],
                    name: String::new(),
                    waits,
                    holds: vec![HeldResource::Tokens {
                        produced: self.water[ch],
                    }],
                });
            }
        }
    }

    /// Records a gate-blocked child: the visit then charges a control
    /// stall to its hardware unit (leaf children only; a blocked outer
    /// child shows up through its own children) and records the wait
    /// span. Units busy with an earlier iteration the same cycle stay
    /// busy: [`Resources::note`] keeps the strongest class.
    fn note_blocked(&mut self, model: &SimModel, ch: usize, kind: WaitKind) {
        let ctrl = model.outer[self.ctrl].children[ch];
        self.gates
            .push(Standing::Gate(ctrl, model.unit_of(ctrl), kind));
    }
}

/// Runtime state of a leaf invocation.
#[derive(Debug)]
pub struct LeafNode {
    ctrl: CtrlId,
    work: LeafWork,
    job: u64,
    state: LeafState,
    slot_released: bool,
    /// Cycle this invocation acquired its slot (start of its trace span).
    started_at: u64,
}

#[derive(Debug)]
enum LeafState {
    Idle,
    Issue {
        remaining: u64,
        /// Vector beats issued so far; only every `issue_factor`-th beat is
        /// useful work, the rest are bank-conflict serialization replays.
        beat: u64,
    },
    Xfer {
        /// (byte address, is_write) — lines for dense, elements for sparse.
        reqs: Vec<(u64, bool)>,
        next: usize,
        outstanding: u64,
        issued_requests: u64,
    },
    Drain {
        finish: u64,
        xfer: bool,
    },
    Done,
}

impl LeafNode {
    /// Whether this is a transfer that has pushed every request and only
    /// awaits responses: its tick changes nothing until a completion is
    /// routed to its job.
    fn awaits_responses(&self) -> bool {
        matches!(&self.state, LeafState::Xfer { reqs, next, outstanding, .. }
            if *next == reqs.len() && *outstanding > 0)
    }

    fn tick(&mut self, res: &mut Resources, model: &SimModel) -> bool {
        loop {
            match &mut self.state {
                LeafState::Idle => {
                    if !res.acquire_slot(self.ctrl) {
                        if let Some(u) = model.unit_of(self.ctrl) {
                            res.note(u, CLASS_CTRL);
                        }
                        let now = res.now;
                        if let Some(t) = res.tracer.as_mut() {
                            t.wait(self.ctrl, WaitKind::Slot, now);
                        }
                        return false;
                    }
                    self.started_at = res.now;
                    if let Some(cm) = model.compute.get(self.ctrl) {
                        let vecs = self.work.trips.div_ceil(cm.lanes as u64);
                        self.state = LeafState::Issue {
                            remaining: vecs * cm.issue_factor,
                            beat: 0,
                        };
                    } else if let Some(tm) = model.transfer.get(self.ctrl) {
                        self.state = LeafState::Xfer {
                            reqs: xfer_reqs(&self.work, tm, model),
                            next: 0,
                            outstanding: 0,
                            issued_requests: 0,
                        };
                    } else {
                        // No hardware (empty program corner): finish next cycle.
                        self.state = LeafState::Drain {
                            finish: res.now + 1,
                            xfer: false,
                        };
                        return false;
                    }
                    // Fall through to make progress in the same cycle.
                }
                LeafState::Issue { remaining, beat } => {
                    if *remaining == 0 {
                        let cm = &model.compute[self.ctrl];
                        // The pipeline drains behind the next invocation:
                        // release the unit as soon as issuing completes.
                        res.release_slot(self.ctrl);
                        self.slot_released = true;
                        self.state = LeafState::Drain {
                            finish: res.now + cm.in_hops + cm.depth as u64 + cm.out_hops,
                            xfer: false,
                        };
                        continue;
                    }
                    let cm = &model.compute[self.ctrl];
                    let mut issued_any = false;
                    let mut useful = false;
                    let mut replayed = false;
                    for _ in 0..cm.own_copies {
                        if *remaining == 0 {
                            break;
                        }
                        if res.acquire_ports(&cm.reads, &cm.writes) {
                            issued_any = true;
                            if res.roll_issue_replay(&cm.reads) {
                                // Transient fault caught in flight: the beat
                                // is squashed and reissued, so `remaining`
                                // stays and the cycle is pure recovery.
                                replayed = true;
                                continue;
                            }
                            *remaining -= 1;
                            if *beat % cm.issue_factor == 0 {
                                useful = true;
                            }
                            *beat += 1;
                        } else {
                            break;
                        }
                    }
                    if issued_any {
                        res.activity.pcu_busy_cycles +=
                            (cm.phys_pcus / cm.slots.max(1)).max(1) as u64;
                    }
                    let unit = cm.unit;
                    if replayed {
                        res.note_recovery(unit);
                    }
                    if issued_any && useful {
                        res.note(unit, CLASS_BUSY);
                    } else {
                        // Every beat this cycle was either a bank-conflict
                        // serialization replay or blocked on scratchpad
                        // ports: memory-bound either way.
                        res.note(unit, CLASS_MEM);
                        let now = res.now;
                        if let Some(t) = res.tracer.as_mut() {
                            t.conflict(self.ctrl, now);
                        }
                    }
                    return false;
                }
                LeafState::Xfer {
                    reqs,
                    next,
                    outstanding,
                    issued_requests,
                } => {
                    let tm: &TransferModel = &model.transfer[self.ctrl];
                    *outstanding = outstanding.saturating_sub(if tm.sparse {
                        res.take_elems(self.job)
                    } else {
                        res.take_lines(self.job)
                    });
                    let mut pushed = 0usize;
                    while pushed < tm.copies && *next < reqs.len() {
                        let (addr, w) = reqs[*next];
                        let ok = if tm.sparse {
                            // The job's element sequence number is the
                            // count of its requests pushed so far.
                            res.push_sparse(self.job, *issued_requests, addr, w)
                        } else {
                            res.push_dense(self.job, addr, w)
                        };
                        if !ok {
                            break;
                        }
                        *next += 1;
                        *outstanding += 1;
                        *issued_requests += 1;
                        pushed += 1;
                    }
                    if pushed > 0 {
                        res.activity.ag_busy_cycles += 1;
                        res.note(tm.unit, CLASS_BUSY);
                    } else if *next < reqs.len() || *outstanding > 0 {
                        // Blocked on a full channel queue, a busy coalescing
                        // unit, or in-flight DRAM responses.
                        res.note(tm.unit, CLASS_MEM);
                    }
                    if *next == reqs.len() && *outstanding == 0 {
                        res.release_slot(self.ctrl);
                        self.slot_released = true;
                        self.state = LeafState::Drain {
                            finish: res.now + tm.hops,
                            xfer: true,
                        };
                    }
                    return false;
                }
                LeafState::Drain { finish, xfer } => {
                    if res.now < *finish {
                        return false;
                    }
                    let xfer = *xfer;
                    self.retire(res, model, xfer);
                    self.state = LeafState::Done;
                    return true;
                }
                LeafState::Done => return true,
            }
        }
    }

    /// Records this invocation when it is blocked: slot-starved in `Idle`,
    /// port-starved in `Issue`, or awaiting DRAM in `Xfer`.
    fn collect_blocked(&self, res: &Resources, model: &SimModel, out: &mut Vec<BlockedUnit>) {
        match &self.state {
            LeafState::Idle => {
                let (in_use, cap) = res.slot_usage(self.ctrl, model);
                if cap > 0 && in_use >= cap {
                    out.push(BlockedUnit {
                        ctrl: self.ctrl,
                        name: String::new(),
                        waits: vec![WaitCause::Slot { in_use, cap }],
                        holds: vec![],
                    });
                }
            }
            LeafState::Issue { .. } => {
                out.push(BlockedUnit {
                    ctrl: self.ctrl,
                    name: String::new(),
                    waits: vec![WaitCause::Ports],
                    holds: vec![HeldResource::Slot],
                });
            }
            LeafState::Xfer { outstanding, .. } => {
                out.push(BlockedUnit {
                    ctrl: self.ctrl,
                    name: String::new(),
                    waits: vec![WaitCause::Dram {
                        outstanding: *outstanding,
                    }],
                    holds: vec![HeldResource::Slot, HeldResource::DramRequests(*outstanding)],
                });
            }
            LeafState::Drain { .. } | LeafState::Done => {}
        }
    }

    /// Books completion activity.
    fn retire(&mut self, res: &mut Resources, model: &SimModel, _xfer: bool) {
        if !self.slot_released {
            res.release_slot(self.ctrl);
        }
        let now = res.now;
        if let Some(t) = res.tracer.as_mut() {
            t.leaf(self.ctrl, self.job, self.started_at, now);
        }
        if let Some(cm) = model.compute.get(self.ctrl) {
            let a = &mut res.activity;
            a.fu_ops += self.work.trips * cm.ops_per_trip;
            a.heavy_ops += self.work.trips * cm.heavy_per_trip;
            let vecs = self.work.trips.div_ceil(cm.lanes as u64);
            a.red_ops += vecs * cm.red_ops_per_vec;
            a.fu_ops += vecs * cm.red_ops_per_vec;
            let (rd, wr) = model.sram_words.get(self.ctrl).copied().unwrap_or((0, 0));
            a.sram_reads += self.work.trips * rd;
            if self.work.emitted > 0 {
                a.sram_writes += self.work.emitted;
            } else {
                a.sram_writes += self.work.trips * wr;
            }
            a.reg_traffic += vecs * cm.depth as u64 * cm.lanes as u64;
            a.net_word_hops += vecs * cm.lanes as u64 * (cm.in_hops + cm.out_hops);
        }
        // Transfers: DRAM traffic is counted by the DRAM model itself; the
        // network share:
        if let Some(tm) = model.transfer.get(self.ctrl) {
            let words: u64 = self.work.dram.iter().map(|r| r.len as u64).sum();
            res.activity.net_word_hops += words * tm.hops;
        }
    }
}
