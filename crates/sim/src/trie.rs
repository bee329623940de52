//! Prefix-sharing batch execution: the execution trie and its
//! checkpoint/fork scheduler.
//!
//! QuTracer's cost is dominated by QSPC preparation ensembles —
//! `preps × bases` programs per subset that are identical except for a
//! short divergent stretch (the reset that injects the preparation, the
//! trailing basis rotation). Deduplicated batching (`JobInterner`)
//! collapses *equal* jobs; this module goes further and collapses equal
//! *work*: a batch's op streams are folded into a radix trie whose nodes
//! are shared op prefixes and whose leaves are jobs, and the scheduler
//! walks the trie depth-first evolving one engine state per node,
//! [`fork`](crate::backend::EngineState::fork)ing at branch points so each
//! job pays only for its divergent suffix.
//!
//! ```text
//! jobs:  [prefix · reset₀ · segment · rot_X]      trie:        ┌ rot_X
//!        [prefix · reset₀ · segment · rot_Y]   prefix ┬ reset₀ ┼ rot_Y
//!        [prefix · reset₀ · segment       ]           │segment └ (leaf)
//!        [prefix · reset₁ · segment · rot_X]          └ reset₁ ┬ rot_X
//!        ...                                           segment └ ...
//! ```
//!
//! # Soundness
//!
//! Sharing is sound exactly when the engine is a *deterministic* function
//! of the op stream: evolving the shared prefix once and bit-copying the
//! state at a branch point yields, per leaf, the same sequence of kernel
//! applications on the same intermediate values as an isolated run
//! ([`crate::StateClass::run`]), so the results are bit-identical to the
//! serial path (property-tested in `tests/trie_batch.rs`). Engines whose
//! output is sampled from one program-wide RNG stream (trajectories)
//! cannot split mid-program without changing the stream; they have no
//! state class, and the batch executor runs their streams beside the trie
//! subtrees instead.
//!
//! # Memory budget
//!
//! A depth-first walk holds one live state per pending branch point. Each
//! state is `O(4^n)` for a density matrix, so unbounded checkpointing
//! could exhaust memory on deep tries of large registers. The scheduler
//! takes a `max_live_states` budget: while under budget it forks; at the
//! budget it *drops* the checkpoint and re-simulates each child's path
//! from the (cheap, empty-state) root instead — graceful degradation that
//! trades repeated gate work for bounded memory. `max_live_states = 1`
//! never holds a checkpoint and re-simulates every branch.
//! [`crate::Executor`] derives the budget from the register size (≈ 256
//! MiB of checkpoints, between 1 and 64 states); it is not an option.

use crate::backend::EngineState;
use crate::program::{Op, Program};
use qt_dist::Distribution;

/// One node of an [`ExecutionTrie`]: a run of ops shared by every job
/// below it.
#[derive(Debug, Clone)]
pub struct TrieNode {
    /// The ops of this node, applied after every ancestor's ops.
    pub ops: Vec<Op>,
    /// Parent node (`None` for the root).
    pub parent: Option<usize>,
    /// Child nodes; each child starts with a distinct first op.
    pub children: Vec<usize>,
    /// Jobs whose op stream ends exactly at this node.
    pub jobs: Vec<usize>,
}

/// Structural statistics of a built trie — the shared-work accounting
/// surfaced in plan overhead summaries and the batch benchmarks.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TrieStats {
    /// Number of jobs folded into the trie.
    pub n_jobs: usize,
    /// Number of nodes (excluding the always-empty root).
    pub n_nodes: usize,
    /// Total gate ops across all job programs — what a per-job executor
    /// applies.
    pub request_gates: usize,
    /// Gate ops stored in the trie — what the scheduler applies once each.
    pub unique_gates: usize,
    /// Gate ops on interior nodes (nodes with children): work shared by
    /// more than one divergent continuation.
    pub interior_gates: usize,
}

impl TrieStats {
    /// Fraction of requested gate applications the trie avoids
    /// (`1 − unique/request`; 0 when nothing is shared or the batch is
    /// empty).
    pub fn shared_gate_fraction(&self) -> f64 {
        if self.request_gates == 0 {
            0.0
        } else {
            1.0 - self.unique_gates as f64 / self.request_gates as f64
        }
    }

    /// Accumulates another trie's statistics (used to sum per-register
    /// groups into one batch summary).
    pub fn absorb(&mut self, other: &TrieStats) {
        self.n_jobs += other.n_jobs;
        self.n_nodes += other.n_nodes;
        self.request_gates += other.request_gates;
        self.unique_gates += other.unique_gates;
        self.interior_gates += other.interior_gates;
    }
}

/// Execution counters of one scheduled walk, for tests and diagnostics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ExecCounters {
    /// State checkpoints taken ([`EngineState::fork`]).
    pub forks: usize,
    /// Branch children re-simulated from the root because the
    /// `max_live_states` budget was exhausted.
    pub replays: usize,
}

impl ExecCounters {
    /// Accumulates another walk's counters.
    pub fn absorb(&mut self, other: &ExecCounters) {
        self.forks += other.forks;
        self.replays += other.replays;
    }
}

/// A radix trie over the op streams of a batch of programs.
///
/// The root always has an empty op list (node 0), so the subtrees hanging
/// off [`ExecutionTrie::root_children`] are fully independent units — the
/// items the batch executor's work pool schedules.
#[derive(Debug, Clone)]
pub struct ExecutionTrie {
    nodes: Vec<TrieNode>,
    n_jobs: usize,
}

impl ExecutionTrie {
    /// Folds a batch of programs into a trie. Job `i` of the trie is
    /// `programs[i]`.
    ///
    /// Sharing state across programs is only meaningful for equal register
    /// sizes; callers group programs before building (debug-asserted).
    pub fn build(programs: &[&Program]) -> ExecutionTrie {
        debug_assert!(
            programs
                .windows(2)
                .all(|w| w[0].n_qubits() == w[1].n_qubits()),
            "trie programs must share one register size"
        );
        let mut trie = ExecutionTrie {
            nodes: vec![TrieNode {
                ops: Vec::new(),
                parent: None,
                children: Vec::new(),
                jobs: Vec::new(),
            }],
            n_jobs: programs.len(),
        };
        for (job, p) in programs.iter().enumerate() {
            trie.insert(job, p.ops());
        }
        trie
    }

    /// Inserts one job's op stream, splitting nodes at divergence points.
    fn insert(&mut self, job: usize, ops: &[Op]) {
        let mut node = 0usize;
        let mut pos = 0usize;
        loop {
            // Match the node's ops against the remaining stream.
            let node_len = self.nodes[node].ops.len();
            let mut m = 0usize;
            while m < node_len && pos + m < ops.len() && self.nodes[node].ops[m] == ops[pos + m] {
                m += 1;
            }
            if m < node_len {
                // Diverged (or stream ended) inside this node: split it.
                let tail = self.nodes[node].ops.split_off(m);
                let moved_children = std::mem::take(&mut self.nodes[node].children);
                let moved_jobs = std::mem::take(&mut self.nodes[node].jobs);
                let tail_id = self.nodes.len();
                self.nodes.push(TrieNode {
                    ops: tail,
                    parent: Some(node),
                    children: moved_children,
                    jobs: moved_jobs,
                });
                // Re-parent the moved children.
                let grandchildren = self.nodes[tail_id].children.clone();
                for c in grandchildren {
                    self.nodes[c].parent = Some(tail_id);
                }
                self.nodes[node].children.push(tail_id);
            }
            pos += m;
            if pos == ops.len() {
                self.nodes[node].jobs.push(job);
                return;
            }
            // Descend into the child starting with ops[pos], or grow one.
            let next = self.nodes[node]
                .children
                .iter()
                .copied()
                .find(|&c| self.nodes[c].ops.first() == Some(&ops[pos]));
            match next {
                Some(c) => node = c,
                None => {
                    let id = self.nodes.len();
                    self.nodes.push(TrieNode {
                        ops: ops[pos..].to_vec(),
                        parent: Some(node),
                        children: Vec::new(),
                        jobs: vec![job],
                    });
                    self.nodes[node].children.push(id);
                    return;
                }
            }
        }
    }

    /// The nodes, root first.
    pub fn nodes(&self) -> &[TrieNode] {
        &self.nodes
    }

    /// Number of jobs folded in.
    pub fn n_jobs(&self) -> usize {
        self.n_jobs
    }

    /// The root's children — the independent subtrees of the batch.
    pub fn root_children(&self) -> &[usize] {
        &self.nodes[0].children
    }

    /// Ops stored in the subtree under `node`, the node's own included:
    /// what a walk of it applies, once each, when no replay is forced.
    pub(crate) fn subtree_ops(&self, node: usize) -> usize {
        let mut ops = 0;
        let mut stack = vec![node];
        while let Some(id) = stack.pop() {
            ops += self.nodes[id].ops.len();
            stack.extend_from_slice(&self.nodes[id].children);
        }
        ops
    }

    /// Jobs whose program is empty (they end at the root).
    pub fn root_jobs(&self) -> &[usize] {
        &self.nodes[0].jobs
    }

    /// Jobs in depth-first (prefix-clustered) order: jobs sharing long
    /// prefixes are adjacent. Every job appears exactly once.
    pub fn clustered_jobs(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.n_jobs);
        let mut stack = vec![0usize];
        while let Some(node) = stack.pop() {
            out.extend_from_slice(&self.nodes[node].jobs);
            // Reverse so the first child is visited first.
            stack.extend(self.nodes[node].children.iter().rev());
        }
        out
    }

    /// Structural statistics of the built trie.
    pub fn stats(&self) -> TrieStats {
        let gate_count = |ops: &[Op]| {
            ops.iter()
                .filter(|o| matches!(o, Op::Gate(_) | Op::IdealGate(_)))
                .count()
        };
        let mut stats = TrieStats {
            n_jobs: self.n_jobs,
            n_nodes: self.nodes.len() - 1,
            ..TrieStats::default()
        };
        // Request gates: every node's gates count once per job at or below
        // it (node splits can re-parent children, so indices are not
        // topologically ordered — accumulate via explicit post-order).
        let mut jobs_below = vec![0usize; self.nodes.len()];
        let mut stack: Vec<(usize, bool)> = vec![(0, false)];
        while let Some((id, processed)) = stack.pop() {
            if processed {
                jobs_below[id] = self.nodes[id].jobs.len()
                    + self.nodes[id]
                        .children
                        .iter()
                        .map(|&c| jobs_below[c])
                        .sum::<usize>();
            } else {
                stack.push((id, true));
                stack.extend(self.nodes[id].children.iter().map(|&c| (c, false)));
            }
        }
        for (id, node) in self.nodes.iter().enumerate() {
            let g = gate_count(&node.ops);
            stats.unique_gates += g;
            stats.request_gates += g * jobs_below[id];
            if !node.children.is_empty() {
                stats.interior_gates += g;
            }
        }
        stats
    }

    /// Walks the whole trie depth-first with checkpoint/fork scheduling.
    ///
    /// `init` produces a fresh initial (|0…0⟩) engine state; `measured`
    /// gives each job's measured qubits; `max_live_states` bounds the
    /// number of simultaneously allocated states (≥ 1). Returns each job's
    /// raw outcome distribution plus the walk's counters.
    pub fn execute(
        &self,
        init: &(dyn Fn() -> Box<dyn EngineState> + Sync),
        measured: &[Vec<usize>],
        max_live_states: usize,
    ) -> (Vec<Option<Distribution>>, ExecCounters) {
        self.walk_from(0, init, measured, max_live_states)
    }

    /// Walks one root subtree (see [`ExecutionTrie::root_children`]).
    /// Jobs outside the subtree are left untouched (`None`).
    pub fn execute_subtree(
        &self,
        child: usize,
        init: &(dyn Fn() -> Box<dyn EngineState> + Sync),
        measured: &[Vec<usize>],
        max_live_states: usize,
    ) -> (Vec<Option<Distribution>>, ExecCounters) {
        assert!(
            self.nodes[0].children.contains(&child),
            "not a root subtree: node {child}"
        );
        self.walk_from(child, init, measured, max_live_states)
    }

    /// The shared scheduling entry point behind [`ExecutionTrie::execute`]
    /// and [`ExecutionTrie::execute_subtree`].
    fn walk_from(
        &self,
        start: usize,
        init: &(dyn Fn() -> Box<dyn EngineState> + Sync),
        measured: &[Vec<usize>],
        max_live_states: usize,
    ) -> (Vec<Option<Distribution>>, ExecCounters) {
        let mut out: Vec<Option<Distribution>> = vec![None; self.n_jobs];
        let mut counters = ExecCounters::default();
        let mut walker = Walker {
            trie: self,
            init,
            measured,
            // The walked state itself is always live, so a direct caller
            // passing 0 gets budget-1 replay semantics instead of a hang or
            // underflow (the executor derives a budget of at least 1).
            budget: max_live_states.max(1),
            live: 1,
            counters: &mut counters,
            out: &mut out,
        };
        walker.walk(start, init());
        (out, counters)
    }
}

/// Depth-first scheduler state (see [`ExecutionTrie::execute`]).
struct Walker<'a> {
    trie: &'a ExecutionTrie,
    init: &'a (dyn Fn() -> Box<dyn EngineState> + Sync),
    measured: &'a [Vec<usize>],
    budget: usize,
    /// States currently allocated (the walked state plus held checkpoints).
    live: usize,
    counters: &'a mut ExecCounters,
    out: &'a mut Vec<Option<Distribution>>,
}

impl Walker<'_> {
    /// Re-simulates the op path from the root through `node` on a fresh
    /// state — the degradation path when the checkpoint budget is spent.
    fn replay(&mut self, node: usize) -> Box<dyn EngineState> {
        self.counters.replays += 1;
        let mut chain = Vec::new();
        let mut cur = Some(node);
        while let Some(id) = cur {
            chain.push(id);
            cur = self.trie.nodes[id].parent;
        }
        let mut state = (self.init)();
        for &id in chain.iter().rev() {
            for op in &self.trie.nodes[id].ops {
                state.apply_op(op);
            }
        }
        state
    }

    /// Walks `node`, consuming `state` (which has every ancestor's ops —
    /// but not `node`'s own — applied). Decrements `live` when the state
    /// is dropped or transfers it to the last child.
    ///
    /// Single-child chains (nested-prefix jobs) advance iteratively, so
    /// recursion depth is bounded by the number of *branch points* on a
    /// path, not the node count.
    fn walk(&mut self, mut node: usize, mut state: Box<dyn EngineState>) {
        let n = loop {
            let n = &self.trie.nodes[node];
            for op in &n.ops {
                state.apply_op(op);
            }
            for &job in &n.jobs {
                self.out[job] = Some(state.raw_distribution(&self.measured[job]));
            }
            match n.children.as_slice() {
                [only] => node = *only,
                _ => break n,
            }
        };
        match n.children.as_slice() {
            [] => {
                drop(state);
                self.live -= 1;
            }
            children => {
                if self.live < self.budget {
                    for &c in &children[..children.len() - 1] {
                        self.counters.forks += 1;
                        self.live += 1;
                        let fork = state.fork();
                        self.walk(c, fork);
                    }
                    self.walk(children[children.len() - 1], state);
                } else {
                    // Budget spent: drop the checkpoint and re-simulate
                    // each child's path from the root instead.
                    let children = children.to_vec();
                    drop(state);
                    self.live -= 1;
                    for c in children {
                        self.live += 1;
                        let fresh = self.replay(node);
                        self.walk(c, fresh);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qt_circuit::Circuit;

    fn program(build: impl FnOnce(&mut Circuit)) -> Program {
        let mut c = Circuit::new(3);
        build(&mut c);
        Program::from_circuit(&c)
    }

    #[test]
    fn shared_prefixes_fold_into_one_node() {
        let a = program(|c| {
            c.h(0).cx(0, 1).rz(2, 0.5);
        });
        let b = program(|c| {
            c.h(0).cx(0, 1).ry(2, 0.5);
        });
        let trie = ExecutionTrie::build(&[&a, &b]);
        let stats = trie.stats();
        assert_eq!(stats.n_jobs, 2);
        assert_eq!(stats.request_gates, 6);
        // h + cx shared; one rz and one ry leaf each.
        assert_eq!(stats.unique_gates, 4);
        assert_eq!(stats.interior_gates, 2);
        assert!((stats.shared_gate_fraction() - 2.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn proper_prefix_job_ends_on_interior_node() {
        let long = program(|c| {
            c.h(0).cx(0, 1).cz(1, 2);
        });
        let short = program(|c| {
            c.h(0).cx(0, 1);
        });
        let trie = ExecutionTrie::build(&[&long, &short]);
        // The short job must end exactly where the long one diverges.
        let holder = trie
            .nodes()
            .iter()
            .find(|n| n.jobs.contains(&1))
            .expect("short job recorded");
        assert_eq!(holder.ops.len(), 2);
        assert_eq!(holder.children.len(), 1);
        assert_eq!(trie.stats().unique_gates, 3);
    }

    #[test]
    fn disjoint_programs_share_nothing() {
        let a = program(|c| {
            c.h(0).cx(0, 1);
        });
        let b = program(|c| {
            c.x(2).cz(1, 2);
        });
        let trie = ExecutionTrie::build(&[&a, &b]);
        let stats = trie.stats();
        assert_eq!(stats.unique_gates, stats.request_gates);
        assert_eq!(stats.interior_gates, 0);
        assert_eq!(trie.root_children().len(), 2);
        assert_eq!(stats.shared_gate_fraction(), 0.0);
    }

    #[test]
    fn clustered_order_is_a_permutation_grouping_prefixes() {
        let mk = |t: f64, u: f64| {
            program(|c| {
                c.h(0).ry(1, t).rz(2, u);
            })
        };
        // Interleave two prefix families.
        let programs = [
            mk(0.1, 0.1),
            mk(0.2, 0.1),
            mk(0.1, 0.2),
            mk(0.2, 0.2),
            mk(0.1, 0.3),
        ];
        let refs: Vec<&Program> = programs.iter().collect();
        let trie = ExecutionTrie::build(&refs);
        let order = trie.clustered_jobs();
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4], "permutation of all jobs");
        // The ry(0.1) family {0, 2, 4} must be contiguous in the order.
        let pos: Vec<usize> = [0usize, 2, 4]
            .iter()
            .map(|j| order.iter().position(|x| x == j).unwrap())
            .collect();
        let (lo, hi) = (*pos.iter().min().unwrap(), *pos.iter().max().unwrap());
        assert_eq!(hi - lo, 2, "shared-prefix family is clustered: {order:?}");
    }

    #[test]
    fn empty_programs_end_at_the_root() {
        let empty = Program::new(3);
        let a = program(|c| {
            c.h(0);
        });
        let trie = ExecutionTrie::build(&[&empty, &a]);
        assert_eq!(trie.root_jobs(), &[0]);
        assert_eq!(trie.root_children().len(), 1);
    }
}
