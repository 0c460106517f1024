//! Edit-local CL-tree repair under edge edits.
//!
//! [`ClTree::update`] produces the index of the post-edit graph by
//! repairing only the part of the tree an edit can reach, and returns a
//! [`TreeRepair`] record of what it did so the summary hierarchy can be
//! carried forward the same way (`Hierarchy::update`).
//!
//! ## What an edit can reach
//!
//! Let `c` be the old and `c'` the new core numbers. At level `k` an
//! edit is *relevant* through
//!
//! * an added edge whose endpoints both have `c' ≥ k`,
//! * a removed edge whose endpoints both had `c ≥ k`,
//! * a vertex whose core changed with `max(c, c') ≥ k` — it is *raised*
//!   into the k-core when `c < k ≤ c'`, *dropped* from it when
//!   `c' < k ≤ c`, and otherwise only moves between levels inside it.
//!
//! The level threshold `L` is the highest level with anything relevant;
//! every node above `L` is carried verbatim. Below, an old k-core
//! component is *dirty* when it holds an endpoint or core-changed vertex
//! relevant at `k`, or a neighbour of a raised vertex. A new k-core
//! component that meets no dirty component and holds no raised vertex is
//! an old component unchanged down to its last vertex and edge, so its
//! whole subtree is carried verbatim too. Every repaired node therefore
//! lies on the ancestor path of a touched vertex, and the work per level
//! is proportional to what the edit touches:
//!
//! * **Splits.** Removals and drops can only split a dirty component.
//!   Its *seeds* are the surviving endpoints of removed edges and the
//!   surviving neighbours of dropped vertices; every piece it falls into
//!   holds a seed. An interleaved BFS from the seed classes (inside
//!   the component, over edges that existed before the edit) stops as
//!   soon as at most one class is still growing. The exhausted classes
//!   are the split-off pieces, listed explicitly; the last class is the
//!   rest of the component, which is never enumerated. A real split thus
//!   costs its smaller sides, and seeds found connected at level `k+1`
//!   start in one class at `k` (the k-cores are nested).
//! * **Merges.** Added edges and raised vertices can only merge. A
//!   union-find over the pieces (whole old components, split-off pieces,
//!   raised vertices) unions along the added edges and the raised
//!   vertices' edges; each resulting class is one new component.
//! * **Nodes.** A new component derives its node from the old node of
//!   its largest piece: residents are patched by the vertices that moved
//!   (core changes, split-off pieces, merged nodes), children by the
//!   repaired components one level up. A component with no residents
//!   and one child is chain-compressed exactly as in the fresh build.
//! * **Keyword lists.** A patched node starts from the old node's
//!   inverted lists: merged nodes' sorted posting lists are merged in, a
//!   moved vertex is inserted or removed. Only a node made entirely of
//!   split-off pieces or raised vertices is indexed from scratch.
//! * **Signatures** are recomputed only for repaired nodes whose
//!   residents, children or children's signatures changed.
//!
//! The result is structurally identical to `ClTree::build_with_cores(g,
//! c')` — same nodes, nesting, residents, inverted lists and signatures
//! — with node ids that differ: surviving nodes keep their ids, new
//! nodes fill the slots of dissolved ones.
//!
//! ## Fallback
//!
//! When an edit changes the core number of more than
//! [`ClTree::FALLBACK_CHANGED_FRACTION`] of all vertices, or no node
//! survives above `L`, the update rebuilds with the parallel
//! [`ClTree::build_with_cores`] instead (the former bumps the
//! `cx_incremental_fallback_total` counter); the record then says
//! `rebuilt` and carries no mapping.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

use cx_graph::delta::EdgeDelta;
use cx_graph::{AttributedGraph, KeywordId, VertexId};

use crate::node::{ClTreeNode, NodeId};
use crate::signature::KeywordSignature;
use crate::unionfind::UnionFind;
use crate::ClTree;

/// A node's inverted keyword lists (see [`ClTreeNode::inverted`]).
type Inverted = HashMap<KeywordId, Arc<[VertexId]>>;

/// One node [`ClTree::update`] re-derived, with where its subtree's
/// vertices came from: the subtree is the union of the old subtrees of
/// `sources`, minus `removed`, plus `added`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepairedNode {
    /// The node's id in the new tree.
    pub id: NodeId,
    /// Old-tree nodes whose whole subtrees this subtree started from.
    pub sources: Vec<NodeId>,
    /// Vertices that joined the subtree (sorted).
    pub added: Vec<VertexId>,
    /// Vertices of the sources' subtrees that left it (sorted).
    pub removed: Vec<VertexId>,
}

/// What one [`ClTree::update`] did: the node mapping, the repaired set
/// and how much of the graph it read.
#[derive(Debug, Clone, Default)]
pub struct TreeRepair {
    /// The update rebuilt the tree from scratch; the mapping is empty.
    pub rebuilt: bool,
    /// Old node id → the new node that took over its residents
    /// wholesale (itself, carried, or the node it was merged into);
    /// `None` when every resident moved individually (see `moved`).
    pub old_to_new: Vec<Option<NodeId>>,
    /// Nodes re-derived by the repair. Every other node of the new tree
    /// is an old node carried verbatim with its whole subtree.
    pub repaired: Vec<RepairedNode>,
    /// Vertices that changed node other than through `old_to_new`.
    pub moved: Vec<VertexId>,
    /// Vertices whose core number changed.
    pub core_changed: Vec<VertexId>,
    /// Vertices whose adjacency the repair read.
    pub vertices_scanned: usize,
    /// Nodes whose keyword lists were built from scratch.
    pub nodes_indexed: usize,
}

impl ClTree {
    /// Changed-core fraction above which [`ClTree::update`] abandons the
    /// incremental path and rebuilds from scratch.
    pub const FALLBACK_CHANGED_FRACTION: f64 = 0.25;

    /// Builds the CL-tree of `g` — the graph `self` was indexed for,
    /// patched by `delta` — by repairing only the nodes the edit can
    /// reach (see the module docs), and returns it with the
    /// [`TreeRepair`] record. `new_cores` must be the core numbers of `g`
    /// (maintained by `cx_kcore::DynamicCore` in the engine).
    pub fn update(
        &self,
        g: &AttributedGraph,
        delta: &EdgeDelta,
        new_cores: &[u32],
    ) -> (ClTree, TreeRepair) {
        let _span = cx_obs::span("cltree.update");
        let n = g.vertex_count();
        assert_eq!(self.core_numbers().len(), n, "edits are edge-only: vertex set fixed");
        assert_eq!(new_cores.len(), n, "core vector must cover every vertex");

        let old_cores = self.core_numbers();
        let core_changed: Vec<VertexId> = (0..n)
            .filter(|&i| old_cores[i] != new_cores[i])
            .map(|i| VertexId(i as u32))
            .collect();
        let rebuilt = |tree: ClTree| (tree, TreeRepair { rebuilt: true, ..TreeRepair::default() });
        if n > 0 && core_changed.len() as f64 / n as f64 > Self::FALLBACK_CHANGED_FRACTION {
            cx_obs::metrics::inc("cx_incremental_fallback_total");
            return rebuilt(Self::build_with_cores(g, new_cores));
        }

        // The level threshold L (see module docs).
        let mut level = 0u32;
        for &(u, v) in &delta.removed {
            level = level.max(old_cores[u.index()].min(old_cores[v.index()]));
        }
        for &(u, v) in &delta.added {
            level = level.max(new_cores[u.index()].min(new_cores[v.index()]));
        }
        for v in &core_changed {
            level = level.max(old_cores[v.index()].max(new_cores[v.index()]));
        }
        if delta.is_empty() && core_changed.is_empty() {
            let record = TreeRepair {
                old_to_new: (0..self.node_count() as u32).map(|i| Some(NodeId(i))).collect(),
                ..TreeRepair::default()
            };
            return (self.clone(), record);
        }
        // Nothing carried above L: the parallel builder beats a repair
        // that would re-derive every node.
        if !self.iter_nodes().any(|(_, node)| node.level > level) {
            return rebuilt(Self::build_with_cores(g, new_cores));
        }

        let mut repair = Repair::new(self, g, delta, new_cores, core_changed);
        let mut prev: Option<LevelState> = None;
        for k in (1..=level).rev() {
            prev = Some(repair.level(k, prev.as_ref()));
        }
        repair.root(prev.as_ref());
        repair.finish()
    }
}

/// Sparse union-find over vertex ids: which seeds are already known to
/// be connected at a higher level (and therefore at every lower one).
#[derive(Default)]
struct SeedLinks(HashMap<VertexId, VertexId>);

impl SeedLinks {
    fn find(&mut self, v: VertexId) -> VertexId {
        let mut root = v;
        while let Some(&p) = self.0.get(&root) {
            if p == root {
                break;
            }
            root = p;
        }
        let mut cur = v;
        while cur != root {
            let next = self.0.insert(cur, root).unwrap_or(root);
            cur = next;
        }
        root
    }

    fn link(&mut self, a: VertexId, b: VertexId) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.0.insert(ra, rb);
        }
    }
}

/// One dirty old k-core component.
struct Dirty {
    /// The old node topping it at level `k`.
    top: NodeId,
    /// Vertices inside it, still in the new k-core, that made it dirty.
    reps: Vec<VertexId>,
    /// Surviving endpoints of removed edges and neighbours of dropped
    /// vertices.
    seeds: Vec<VertexId>,
    /// Its vertices dropped from the k-core.
    dropped: Vec<VertexId>,
    /// Residents of `top` (core k) whose core changed away from k.
    res_out: Vec<VertexId>,
    /// Vertices of core > k in it whose new core is k.
    res_in: Vec<VertexId>,
    /// Unit of the component's unenumerated rest, if it has one.
    rest: Option<usize>,
}

enum UnitKind {
    /// The rest of dirty component `.0` after its split-off pieces.
    Rest(usize),
    /// A split-off piece of dirty component `.1`, listed explicitly.
    Piece(Vec<VertexId>, usize),
    /// A vertex raised into the k-core.
    Raised(VertexId),
}

struct Unit {
    kind: UnitKind,
    /// A vertex of the unit (in the new k-core).
    rep: VertexId,
}

/// The new k-core component formed by one class of units.
struct Group {
    /// The node standing for it: its own node, or its only child when
    /// chain-compressed.
    top: NodeId,
    rep: VertexId,
}

/// The repair's view of one level, kept while the level below is built.
struct LevelState {
    k: u32,
    dirty: HashMap<NodeId, usize>,
    comps: Vec<Dirty>,
    explicit: HashMap<VertexId, usize>,
    raised: HashMap<VertexId, usize>,
    units: Vec<Unit>,
    unit_group: Vec<usize>,
    groups: Vec<Group>,
}

impl LevelState {
    /// The unit holding `x` (new core ≥ k), or `None` when `x` lies in a
    /// clean component.
    fn unit_of(&self, old: &ClTree, cores: &[u32], x: VertexId) -> Option<usize> {
        if cores[x.index()] < self.k {
            return Some(self.raised[&x]);
        }
        if let Some(&u) = self.explicit.get(&x) {
            return Some(u);
        }
        let top = old.subtree_root_for(x, self.k).expect("vertex in the old k-core");
        self.dirty.get(&top).map(|&c| self.comps[c].rest.expect("vertex in the rest"))
    }

    /// The new node topping `x`'s component at this level.
    fn top_of(&self, old: &ClTree, cores: &[u32], x: VertexId) -> NodeId {
        match self.unit_of(old, cores, x) {
            Some(u) => self.groups[self.unit_group[u]].top,
            None => old.subtree_root_for(x, self.k).expect("vertex in the old k-core"),
        }
    }
}

struct Repair<'a> {
    old: &'a ClTree,
    g: &'a AttributedGraph,
    delta: &'a EdgeDelta,
    cores: &'a [u32],
    new_cores: &'a [u32],
    core_changed: Vec<VertexId>,
    /// Added-edge partners per endpoint, to keep split searches on edges
    /// that existed before the edit.
    added_adj: HashMap<VertexId, Vec<VertexId>>,
    links: SeedLinks,
    /// The new arena: the old nodes, patched in place, then new ones.
    nodes: Vec<ClTreeNode>,
    node_of: Vec<NodeId>,
    dead: Vec<bool>,
    old_to_new: Vec<Option<NodeId>>,
    repaired: Vec<RepairedNode>,
    /// Built nodes whose signature must be recomputed.
    resign: HashSet<NodeId>,
    moved: Vec<VertexId>,
    root: NodeId,
    scanned: usize,
    nodes_indexed: usize,
}

impl<'a> Repair<'a> {
    fn new(
        old: &'a ClTree,
        g: &'a AttributedGraph,
        delta: &'a EdgeDelta,
        new_cores: &'a [u32],
        core_changed: Vec<VertexId>,
    ) -> Self {
        let mut added_adj: HashMap<VertexId, Vec<VertexId>> = HashMap::new();
        for &(u, v) in &delta.added {
            added_adj.entry(u).or_default().push(v);
            added_adj.entry(v).or_default().push(u);
        }
        let count = old.node_count();
        Self {
            old,
            g,
            delta,
            cores: old.core_numbers(),
            new_cores,
            core_changed,
            added_adj,
            links: SeedLinks::default(),
            nodes: old.iter_nodes().map(|(_, n)| n.clone()).collect(),
            node_of: (0..g.vertex_count()).map(|i| old.node_of(VertexId(i as u32))).collect(),
            dead: vec![false; count],
            old_to_new: (0..count as u32).map(|i| Some(NodeId(i))).collect(),
            repaired: Vec::new(),
            resign: HashSet::new(),
            moved: Vec::new(),
            root: old.root(),
            scanned: 0,
            nodes_indexed: 0,
        }
    }

    fn is_added(&self, x: VertexId, y: VertexId) -> bool {
        self.added_adj.get(&x).is_some_and(|l| l.contains(&y))
    }

    /// Repairs level `k` given the repaired level `k + 1` (`None` at L).
    fn level(&mut self, k: u32, prev: Option<&LevelState>) -> LevelState {
        let (c, cn) = (self.cores, self.new_cores);
        let old = self.old;
        let mut st = LevelState {
            k,
            dirty: HashMap::new(),
            comps: Vec::new(),
            explicit: HashMap::new(),
            raised: HashMap::new(),
            units: Vec::new(),
            unit_group: Vec::new(),
            groups: Vec::new(),
        };
        let mut memo: HashMap<NodeId, NodeId> = HashMap::new();
        let mut touch = |st: &mut LevelState, v: VertexId| -> usize {
            let start = old.node_of(v);
            let top = *memo
                .entry(start)
                .or_insert_with(|| old.subtree_root_for(v, k).expect("vertex in the old k-core"));
            *st.dirty.entry(top).or_insert_with(|| {
                st.comps.push(Dirty {
                    top,
                    reps: Vec::new(),
                    seeds: Vec::new(),
                    dropped: Vec::new(),
                    res_out: Vec::new(),
                    res_in: Vec::new(),
                    rest: None,
                });
                st.comps.len() - 1
            })
        };

        // ---- Dirty components and their seeds. ----
        let added: Vec<(VertexId, VertexId)> = self
            .delta
            .added
            .iter()
            .copied()
            .filter(|&(u, v)| cn[u.index()].min(cn[v.index()]) >= k)
            .collect();
        for &(u, v) in &added {
            for w in [u, v] {
                if c[w.index()] >= k {
                    let d = touch(&mut st, w);
                    st.comps[d].reps.push(w);
                }
            }
        }
        for &(u, v) in &self.delta.removed {
            if c[u.index()].min(c[v.index()]) < k {
                continue;
            }
            for w in [u, v] {
                let d = touch(&mut st, w);
                if cn[w.index()] >= k {
                    st.comps[d].seeds.push(w);
                    st.comps[d].reps.push(w);
                }
            }
        }
        let mut raised: Vec<VertexId> = Vec::new();
        for i in 0..self.core_changed.len() {
            let v = self.core_changed[i];
            let (cv, cnv) = (c[v.index()], cn[v.index()]);
            if cv < k {
                if cnv >= k {
                    raised.push(v);
                }
                continue;
            }
            let d = touch(&mut st, v);
            if cv == k {
                st.comps[d].res_out.push(v);
            }
            if cnv < k {
                st.comps[d].dropped.push(v);
                self.scanned += 1;
                for &x in self.g.neighbors(v) {
                    if c[x.index()] >= k && cn[x.index()] >= k && !self.is_added(v, x) {
                        st.comps[d].seeds.push(x);
                        st.comps[d].reps.push(x);
                    }
                }
            } else {
                st.comps[d].reps.push(v);
                if cv > k && cnv == k {
                    st.comps[d].res_in.push(v);
                }
            }
        }
        // Raised vertices link every component they touch.
        let mut raised_links: Vec<(VertexId, VertexId)> = Vec::new();
        for &r in &raised {
            self.scanned += 1;
            for &x in self.g.neighbors(r) {
                if cn[x.index()] < k {
                    continue;
                }
                raised_links.push((r, x));
                if c[x.index()] >= k {
                    let d = touch(&mut st, x);
                    st.comps[d].reps.push(x);
                }
            }
        }

        // ---- Splits: pieces of each dirty component. ----
        for d in 0..st.comps.len() {
            let mut seeds = std::mem::take(&mut st.comps[d].seeds);
            seeds.sort_unstable();
            seeds.dedup();
            let mut classes: HashMap<VertexId, Vec<VertexId>> = HashMap::new();
            for &s in &seeds {
                let root = self.links.find(s);
                classes.entry(root).or_default().push(s);
            }
            let mut classes: Vec<Vec<VertexId>> = classes.into_values().collect();
            classes.sort_unstable();
            let (pieces, rest_rep) = match classes.len() {
                0 => {
                    let dropped = !st.comps[d].dropped.is_empty();
                    // With no seed, a component that lost a vertex lost
                    // them all (every surviving piece would hold a seed).
                    (Vec::new(), if dropped { None } else { Some(st.comps[d].reps[0]) })
                }
                1 => (Vec::new(), Some(classes[0][0])),
                _ => self.split(k, classes),
            };
            for piece in pieces {
                let unit = st.units.len();
                for &v in &piece {
                    st.explicit.insert(v, unit);
                }
                st.units.push(Unit { rep: piece[0], kind: UnitKind::Piece(piece, d) });
            }
            if let Some(rep) = rest_rep {
                st.comps[d].rest = Some(st.units.len());
                st.units.push(Unit { rep, kind: UnitKind::Rest(d) });
            }
        }
        for &r in &raised {
            st.raised.insert(r, st.units.len());
            st.units.push(Unit { rep: r, kind: UnitKind::Raised(r) });
        }

        // ---- Merges: one class of units per new component. ----
        let mut uf = UnionFind::new(st.units.len());
        let unit = |st: &LevelState, x: VertexId| {
            st.unit_of(old, c, x).expect("edit endpoint in a dirty component") as u32
        };
        for &(u, v) in &added {
            uf.union(unit(&st, u), unit(&st, v));
        }
        for &(r, x) in &raised_links {
            uf.union(unit(&st, r), unit(&st, x));
        }
        let mut group_of_root: HashMap<u32, usize> = HashMap::new();
        let mut members: Vec<Vec<usize>> = Vec::new();
        for u in 0..st.units.len() {
            let root = uf.find(u as u32);
            let gi = *group_of_root.entry(root).or_insert_with(|| {
                members.push(Vec::new());
                members.len() - 1
            });
            members[gi].push(u);
            st.unit_group.push(gi);
        }

        // ---- Children: clean ones carried, repaired ones one level up. ----
        let mut kids: Vec<Vec<NodeId>> = vec![Vec::new(); members.len()];
        let mut in_pieces: Vec<HashSet<NodeId>> = vec![HashSet::new(); st.comps.len()];
        for u in 0..st.units.len() {
            if let UnitKind::Piece(piece, d) = &st.units[u].kind {
                let gi = st.unit_group[u];
                for &v in piece {
                    if cn[v.index()] > k {
                        let top = match prev {
                            Some(p) => p.top_of(old, c, v),
                            None => old.subtree_root_for(v, k + 1).expect("carried vertex"),
                        };
                        kids[gi].push(top);
                        in_pieces[*d].insert(top);
                    }
                }
            }
        }
        for u in 0..st.units.len() {
            if let UnitKind::Rest(d) = st.units[u].kind {
                let top = st.comps[d].top;
                let top_node = old.node(top);
                let base: &[NodeId] = if top_node.level == k {
                    &top_node.children
                } else {
                    std::slice::from_ref(&top)
                };
                let gi = st.unit_group[u];
                for &kid in base {
                    let repaired_above = prev.is_some_and(|p| p.dirty.contains_key(&kid));
                    if !repaired_above && !in_pieces[d].contains(&kid) {
                        kids[gi].push(kid);
                    }
                }
            }
        }
        if let Some(p) = prev {
            for pg in &p.groups {
                let u = st.unit_of(old, c, pg.rep).expect("repaired component sits in a dirty one");
                kids[st.unit_group[u]].push(pg.top);
            }
        }

        // ---- One node (or a compressed chain link) per new component. ----
        for (gi, group_units) in members.iter().enumerate() {
            let mut group_kids = std::mem::take(&mut kids[gi]);
            group_kids.sort_unstable();
            group_kids.dedup();
            let top = self.build_group(k, &st, group_units, group_kids);
            st.groups.push(Group { top, rep: st.units[group_units[0]].rep });
        }
        // Dirty components left without a rest lose their old level-k
        // node: its residents all moved individually.
        for comp in &st.comps {
            if comp.rest.is_none() && old.node(comp.top).level == k {
                self.kill(comp.top, None);
            }
        }
        st
    }

    /// Interleaved BFS inside the new k-core, over edges that existed
    /// before the edit, from ≥ 2 seed classes of one dirty component.
    /// Returns the exhausted classes (complete pieces, listed) and a seed
    /// of the one class still growing, if any (the unenumerated rest).
    fn split(
        &mut self,
        k: u32,
        classes: Vec<Vec<VertexId>>,
    ) -> (Vec<Vec<VertexId>>, Option<VertexId>) {
        let (c, cn, g) = (self.cores, self.new_cores, self.g);
        let count = classes.len();
        let mut owner: HashMap<VertexId, usize> = HashMap::new();
        let mut parent: Vec<usize> = (0..count).collect();
        let mut queues: Vec<VecDeque<VertexId>> = Vec::with_capacity(count);
        let mut visited: Vec<Vec<VertexId>> = Vec::with_capacity(count);
        let mut seeds: Vec<Vec<VertexId>> = Vec::with_capacity(count);
        for (i, class) in classes.into_iter().enumerate() {
            for &s in &class {
                owner.insert(s, i);
            }
            queues.push(class.iter().copied().collect());
            visited.push(class.clone());
            seeds.push(class);
        }
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        let mut active: Vec<usize> = (0..count).collect();
        let mut exhausted: Vec<usize> = Vec::new();
        while active.len() > 1 {
            // One round: every class still growing scans one vertex.
            for a in active.clone() {
                if active.len() <= 1 {
                    break;
                }
                if !active.contains(&a) {
                    continue; // folded into another class this round
                }
                let Some(x) = queues[a].pop_front() else {
                    exhausted.push(a);
                    active.retain(|&z| z != a);
                    continue;
                };
                self.scanned += 1;
                let mut me = a;
                for &y in g.neighbors(x) {
                    if c[y.index()] < k || cn[y.index()] < k || self.is_added(x, y) {
                        continue;
                    }
                    let Some(&o) = owner.get(&y) else {
                        owner.insert(y, me);
                        queues[me].push_back(y);
                        visited[me].push(y);
                        continue;
                    };
                    let other = find(&mut parent, o);
                    if other == me {
                        continue;
                    }
                    // The classes meet: fold the smaller into the larger.
                    let (keep, gone) = if visited[me].len() >= visited[other].len() {
                        (me, other)
                    } else {
                        (other, me)
                    };
                    parent[gone] = keep;
                    let q = std::mem::take(&mut queues[gone]);
                    queues[keep].extend(q);
                    let vs = std::mem::take(&mut visited[gone]);
                    visited[keep].extend(vs);
                    let ss = std::mem::take(&mut seeds[gone]);
                    seeds[keep].extend(ss);
                    active.retain(|&z| z != gone);
                    me = keep;
                }
            }
        }
        for class in exhausted.iter().chain(&active) {
            let ss = &seeds[*class];
            for w in ss.windows(2) {
                self.links.link(w[0], w[1]);
            }
        }
        let rest = active.first().map(|&a| seeds[a][0]);
        let pieces = exhausted
            .into_iter()
            .map(|a| {
                let mut vs = std::mem::take(&mut visited[a]);
                vs.sort_unstable();
                vs
            })
            .collect();
        (pieces, rest)
    }

    /// Builds (patches, creates or compresses away) the level-`k` node of
    /// the new component formed by `units`, whose children are `kids`.
    /// Returns the node standing for the component.
    fn build_group(
        &mut self,
        k: u32,
        st: &LevelState,
        units: &[usize],
        kids: Vec<NodeId>,
    ) -> NodeId {
        let (c, cn, old) = (self.cores, self.new_cores, self.old);
        // Old level-k nodes whose residents carry over wholesale.
        let mut bases: Vec<NodeId> = Vec::new();
        let mut sources: Vec<NodeId> = Vec::new();
        let mut res_out: Vec<VertexId> = Vec::new();
        let mut res_in: Vec<VertexId> = Vec::new();
        let mut sub_removed: Vec<VertexId> = Vec::new();
        let mut sub_added: Vec<VertexId> = Vec::new();
        let mut comps_here: Vec<usize> = Vec::new();
        for &u in units {
            match &st.units[u].kind {
                UnitKind::Rest(d) => {
                    let comp = &st.comps[*d];
                    comps_here.push(*d);
                    sources.push(comp.top);
                    if old.node(comp.top).level == k {
                        bases.push(comp.top);
                    }
                    res_out.extend_from_slice(&comp.res_out);
                    res_in.extend(comp.res_in.iter().filter(|v| !st.explicit.contains_key(v)));
                    sub_removed.extend_from_slice(&comp.dropped);
                }
                UnitKind::Piece(piece, _) => {
                    res_in.extend(piece.iter().filter(|v| cn[v.index()] == k));
                    sub_added.extend_from_slice(piece);
                }
                UnitKind::Raised(r) => {
                    if cn[r.index()] == k {
                        res_in.push(*r);
                    }
                    sub_added.push(*r);
                }
            }
        }
        // Split-off pieces leave their component's rest.
        for (u, unit) in st.units.iter().enumerate() {
            if let UnitKind::Piece(piece, d) = &unit.kind {
                if comps_here.contains(d) {
                    res_out.extend(piece.iter().filter(|v| c[v.index()] == k));
                    if !units.contains(&u) {
                        sub_removed.extend_from_slice(piece);
                    } else {
                        // Back in the same component: net no change.
                        let drop: HashSet<VertexId> = piece.iter().copied().collect();
                        sub_added.retain(|v| !drop.contains(v));
                    }
                }
            }
        }
        bases.sort_unstable_by_key(|&b| (std::cmp::Reverse(old.node(b).vertices.len()), b));
        res_out.sort_unstable();
        res_out.dedup();
        res_in.sort_unstable();
        res_in.dedup();
        // A vertex leaving and re-entering the same node stays put.
        let both: Vec<VertexId> = intersect(&res_out, &res_in);
        if !both.is_empty() {
            res_out = difference(&res_out, &both);
            res_in = difference(&res_in, &both);
        }

        let merged = bases.iter().fold(Vec::new(), |acc, &b| merge(&acc, &old.node(b).vertices));
        let residents = merge(&difference(&merged, &res_out), &res_in);

        if residents.is_empty() && kids.len() == 1 {
            for &b in &bases {
                self.kill(b, None);
            }
            return kids[0];
        }

        let unchanged_residents = bases.len() <= 1 && res_out.is_empty() && res_in.is_empty();
        let (id, inverted) = match bases.first() {
            Some(&primary) => {
                let node = old.node(primary);
                let inverted = if unchanged_residents {
                    Arc::clone(&node.inverted)
                } else {
                    self.patch_inverted(&node.inverted, &bases[1..], &res_out, &res_in)
                };
                (primary, inverted)
            }
            None => {
                let id = self.push_node(k, residents.clone());
                (id, Arc::clone(&self.nodes[id.index()].inverted))
            }
        };
        for &b in bases.iter().skip(1) {
            self.kill(b, Some(id));
            // Residents that moved elsewhere keep the node they got there.
            for v in difference(&old.node(b).vertices, &res_out) {
                self.node_of[v.index()] = id;
            }
        }
        for &v in &res_in {
            self.node_of[v.index()] = id;
            self.moved.push(v);
        }
        let node = &mut self.nodes[id.index()];
        let changed = !unchanged_residents || node.children != kids || bases.is_empty();
        node.level = k;
        node.vertices = residents;
        node.children = kids;
        node.inverted = inverted;
        if changed {
            self.resign.insert(id);
        }

        sources.sort_unstable();
        sub_added.sort_unstable();
        sub_added.dedup();
        sub_removed.sort_unstable();
        sub_removed.dedup();
        self.repaired.push(RepairedNode { id, sources, added: sub_added, removed: sub_removed });
        id
    }

    /// The level-0 root assembly: isolated vertices plus the tops of
    /// every connected component, exactly as in the fresh build.
    fn root(&mut self, prev: Option<&LevelState>) {
        let (c, cn, old) = (self.cores, self.new_cores, self.old);
        let old_root = old.root();
        let node = old.node(old_root);
        let base_kids: &[NodeId] =
            if node.level == 0 { &node.children } else { std::slice::from_ref(&old_root) };
        let mut kids: Vec<NodeId> = base_kids
            .iter()
            .copied()
            .filter(|kid| !prev.is_some_and(|p| p.dirty.contains_key(kid)))
            .collect();
        if let Some(p) = prev {
            kids.extend(p.groups.iter().map(|pg| pg.top));
        }
        kids.sort_unstable();
        kids.dedup();
        let res_out: Vec<VertexId> =
            self.core_changed.iter().copied().filter(|v| c[v.index()] == 0).collect();
        let res_in: Vec<VertexId> =
            self.core_changed.iter().copied().filter(|v| cn[v.index()] == 0).collect();
        let base: &[VertexId] = if node.level == 0 { &node.vertices } else { &[] };
        let residents = merge(&difference(base, &res_out), &res_in);

        if residents.is_empty() && kids.len() == 1 {
            if node.level == 0 {
                self.kill(old_root, None);
            }
            self.root = kids[0];
            return;
        }
        let unchanged = res_out.is_empty() && res_in.is_empty();
        let id = if node.level == 0 {
            let inverted = if unchanged {
                Arc::clone(&node.inverted)
            } else {
                self.patch_inverted(&node.inverted, &[], &res_out, &res_in)
            };
            self.nodes[old_root.index()].inverted = inverted;
            old_root
        } else {
            self.push_node(0, residents.clone())
        };
        for &v in &res_in {
            self.node_of[v.index()] = id;
            self.moved.push(v);
        }
        let root = &mut self.nodes[id.index()];
        if !unchanged || root.children != kids || id != old_root {
            self.resign.insert(id);
        }
        root.vertices = residents;
        root.children = kids;
        self.root = id;
        // The root's subtree is the whole vertex set, before and after.
        self.repaired.push(RepairedNode {
            id,
            sources: vec![old_root],
            added: Vec::new(),
            removed: Vec::new(),
        });
    }

    /// Marks an old node dissolved; `into` receives its residents
    /// wholesale (a merge), `None` when they all moved individually.
    fn kill(&mut self, id: NodeId, into: Option<NodeId>) {
        self.dead[id.index()] = true;
        self.old_to_new[id.index()] = into;
    }

    /// Appends a node over `residents` (sorted), its keyword lists
    /// indexed from scratch.
    fn push_node(&mut self, level: u32, residents: Vec<VertexId>) -> NodeId {
        let g = self.g;
        let mut node = ClTreeNode {
            level,
            parent: None,
            children: Vec::new(),
            vertices: residents,
            inverted: Default::default(),
            signature: KeywordSignature::EMPTY,
        };
        if !node.vertices.is_empty() {
            node.index_keywords(|v| g.keywords(v));
            self.nodes_indexed += 1;
        }
        self.nodes.push(node);
        self.dead.push(false);
        NodeId(self.nodes.len() as u32 - 1)
    }

    /// The old node's inverted lists with other nodes' lists merged in
    /// and the moved vertices' postings removed or inserted. The map is
    /// copied by reference count; only the lists of keywords a merged
    /// node or a moved vertex carries are rebuilt.
    fn patch_inverted(
        &self,
        base: &Inverted,
        merged: &[NodeId],
        out: &[VertexId],
        into: &[VertexId],
    ) -> Arc<Inverted> {
        fn list<'m>(
            edits: &'m mut HashMap<KeywordId, Vec<VertexId>>,
            base: &Inverted,
            w: KeywordId,
        ) -> &'m mut Vec<VertexId> {
            edits.entry(w).or_insert_with(|| base.get(&w).map_or_else(Vec::new, |vs| vs.to_vec()))
        }
        let mut edits: HashMap<KeywordId, Vec<VertexId>> = HashMap::new();
        for &b in merged {
            for (&w, vs) in self.old.node(b).inverted.iter() {
                let entry = list(&mut edits, base, w);
                *entry = merge(entry, vs);
            }
        }
        for &v in out {
            for &w in self.g.keywords(v) {
                let entry = list(&mut edits, base, w);
                if let Ok(i) = entry.binary_search(&v) {
                    entry.remove(i);
                }
            }
        }
        for &v in into {
            for &w in self.g.keywords(v) {
                let entry = list(&mut edits, base, w);
                if let Err(i) = entry.binary_search(&v) {
                    entry.insert(i, v);
                }
            }
        }
        let mut map = base.clone();
        for (w, vs) in edits {
            if vs.is_empty() {
                map.remove(&w);
            } else {
                map.insert(w, Arc::from(vs));
            }
        }
        Arc::new(map)
    }

    /// Parent links, signatures and slot compaction; assembles the tree.
    fn finish(mut self) -> (ClTree, TreeRepair) {
        // Parent links of every repaired node's children.
        let built: Vec<NodeId> = self.repaired.iter().map(|r| r.id).collect();
        for &id in &built {
            for i in 0..self.nodes[id.index()].children.len() {
                let kid = self.nodes[id.index()].children[i];
                self.nodes[kid.index()].parent = Some(id);
            }
        }
        self.nodes[self.root.index()].parent = None;

        // Signatures along the repaired paths, children first.
        let mut order = built;
        order.sort_unstable_by_key(|&id| std::cmp::Reverse(self.nodes[id.index()].level));
        for id in order {
            let node = &self.nodes[id.index()];
            let stale = self.resign.contains(&id)
                || node.children.iter().any(|kid| self.resign.contains(kid));
            if !stale {
                continue;
            }
            let mut sig = KeywordSignature::EMPTY;
            for &w in node.inverted.keys() {
                sig.insert(w);
            }
            for kid in &node.children {
                sig.or(&self.nodes[kid.index()].signature);
            }
            if sig != node.signature {
                self.resign.insert(id);
            }
            self.nodes[id.index()].signature = sig;
        }

        // Fill the slots of dissolved nodes from the end of the arena.
        let mut reloc: HashMap<NodeId, NodeId> = HashMap::new();
        let mut end = self.nodes.len();
        for hole in 0..self.dead.len() {
            if !self.dead[hole] {
                continue;
            }
            while end > 0 && self.dead[end - 1] {
                end -= 1;
            }
            if hole >= end {
                break;
            }
            end -= 1;
            self.nodes.swap(hole, end);
            self.dead.swap(hole, end);
            reloc.insert(NodeId(end as u32), NodeId(hole as u32));
        }
        while end > 0 && self.dead[end - 1] {
            end -= 1;
        }
        self.nodes.truncate(end);
        let fix = |id: NodeId| reloc.get(&id).copied().unwrap_or(id);
        if !reloc.is_empty() {
            for node in &mut self.nodes {
                node.parent = node.parent.map(fix);
                for kid in &mut node.children {
                    *kid = fix(*kid);
                }
                node.children.sort_unstable();
            }
            for &to in reloc.values() {
                for &v in &self.nodes[to.index()].vertices {
                    self.node_of[v.index()] = to;
                }
            }
        }
        let root = fix(self.root);
        for slot in &mut self.old_to_new {
            *slot = slot.map(fix);
        }
        for r in &mut self.repaired {
            r.id = fix(r.id);
        }
        self.moved.sort_unstable();
        self.moved.dedup();

        let max_core = self.new_cores.iter().copied().max().unwrap_or(0);
        let tree =
            ClTree::from_parts(self.nodes, root, self.node_of, self.new_cores.to_vec(), max_core);
        let record = TreeRepair {
            rebuilt: false,
            old_to_new: self.old_to_new,
            repaired: self.repaired,
            moved: self.moved,
            core_changed: self.core_changed,
            vertices_scanned: self.scanned,
            nodes_indexed: self.nodes_indexed,
        };
        (tree, record)
    }
}

/// Sorted merge of two sorted, disjoint lists.
fn merge(a: &[VertexId], b: &[VertexId]) -> Vec<VertexId> {
    if b.is_empty() {
        return a.to_vec();
    }
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i] <= b[j] {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// `a \ b` for sorted lists.
fn difference(a: &[VertexId], b: &[VertexId]) -> Vec<VertexId> {
    if b.is_empty() {
        return a.to_vec();
    }
    let mut out = Vec::with_capacity(a.len());
    let mut j = 0;
    for &x in a {
        while j < b.len() && b[j] < x {
            j += 1;
        }
        if j < b.len() && b[j] == x {
            continue;
        }
        out.push(x);
    }
    out
}

/// `a ∩ b` for sorted lists.
fn intersect(a: &[VertexId], b: &[VertexId]) -> Vec<VertexId> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}
#[cfg(test)]
mod tests {
    use super::*;
    use cx_datagen::figure5_graph;
    use cx_graph::GraphBuilder;
    use cx_kcore::CoreDecomposition;

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    /// Applies a raw edit to `g`, recomputes cores from scratch (the
    /// engine uses DynamicCore; correctness there is tested separately),
    /// and returns (new graph, incrementally updated tree, fresh tree).
    fn step(
        g: &AttributedGraph,
        tree: &ClTree,
        add: &[(VertexId, VertexId)],
        remove: &[(VertexId, VertexId)],
    ) -> (AttributedGraph, ClTree, ClTree) {
        let delta = g.edge_delta(add, remove).unwrap();
        let g2 = g.apply_delta(&delta);
        let cores = CoreDecomposition::compute(&g2).core_numbers().to_vec();
        let (updated, _) = tree.update(&g2, &delta, &cores);
        let fresh = ClTree::build(&g2);
        (g2, updated, fresh)
    }

    /// Id-independent structural equality: recursive canonical encoding of
    /// (level, vertices, inverted, children-as-multiset).
    fn canon(t: &ClTree, id: NodeId) -> String {
        let node = t.node(id);
        let mut kids: Vec<String> = node.children.iter().map(|&c| canon(t, c)).collect();
        kids.sort();
        let mut inv: Vec<_> = node.inverted.iter().map(|(w, vs)| (w.0, vs.clone())).collect();
        inv.sort();
        format!(
            "(l{} v{:?} i{:?} s{:02x?} [{}])",
            node.level,
            node.vertices.iter().map(|x| x.0).collect::<Vec<_>>(),
            inv,
            node.signature.to_bytes(),
            kids.join(",")
        )
    }

    fn assert_equivalent(updated: &ClTree, fresh: &ClTree) {
        assert_eq!(updated.core_numbers(), fresh.core_numbers());
        assert_eq!(updated.max_core(), fresh.max_core());
        assert_eq!(updated.node_count(), fresh.node_count());
        assert_eq!(canon(updated, updated.root()), canon(fresh, fresh.root()));
        // node_of is consistent with the arena.
        for vi in 0..updated.core_numbers().len() {
            let nid = updated.node_of(v(vi as u32));
            assert!(updated.node(nid).vertices.contains(&v(vi as u32)));
        }
    }

    #[test]
    fn removing_a_clique_edge_updates_figure5() {
        let g = figure5_graph();
        let tree = ClTree::build(&g);
        // Removing (A,B) collapses the 3-core: A..E all land at core 2.
        let (_, updated, fresh) = step(&g, &tree, &[], &[(v(0), v(1))]);
        assert_equivalent(&updated, &fresh);
        assert_eq!(updated.max_core(), 2);
    }

    #[test]
    fn adding_chords_updates_figure5() {
        let g = figure5_graph();
        let tree = ClTree::build(&g);
        // (G,E) and (F,C) pull F and G into the 2-core.
        let ge = (v(6), v(4));
        let fc = (v(5), v(2));
        let (g2, updated, fresh) = step(&g, &tree, &[ge, fc], &[]);
        assert_equivalent(&updated, &fresh);
        assert_eq!(updated.core(v(5)), 2);
        assert_eq!(updated.core(v(6)), 2);

        // A second incremental step on top of the updated tree.
        let (_, updated2, fresh2) = step(&g2, &updated, &[(v(9), v(7))], &[ge]);
        assert_equivalent(&updated2, &fresh2);
    }

    #[test]
    fn carried_nodes_share_inverted_lists_by_pointer() {
        let g = figure5_graph();
        let tree = ClTree::build(&g);
        // Toggling H–I only reaches level 1: the {A,B,C,D} level-3 node
        // and the {E} level-2 node must be carried with their keyword
        // indexes shared, not recomputed.
        let delta = g.edge_delta(&[], &[(v(7), v(8))]).unwrap();
        let g2 = g.apply_delta(&delta);
        let cores = CoreDecomposition::compute(&g2).core_numbers().to_vec();
        let (updated, _) = tree.update(&g2, &delta, &cores);
        assert_equivalent(&updated, &ClTree::build(&g2));
        let abcd_old = tree.node(tree.node_of(v(0)));
        let abcd_new = updated.node(updated.node_of(v(0)));
        assert!(std::sync::Arc::ptr_eq(&abcd_old.inverted, &abcd_new.inverted));
        let e_old = tree.node(tree.node_of(v(4)));
        let e_new = updated.node(updated.node_of(v(4)));
        assert!(std::sync::Arc::ptr_eq(&e_old.inverted, &e_new.inverted));
        // Carried nodes keep their subtree signature verbatim (repair only
        // re-derives the rebuilt levels).
        assert_eq!(abcd_old.signature, abcd_new.signature);
        assert_eq!(e_old.signature, e_new.signature);
        assert!(!abcd_new.signature.is_empty());
    }

    #[test]
    fn merging_two_separate_cores_without_core_changes() {
        // Two disjoint triangles: connecting them by one edge changes no
        // core number, but the level-1 tree structure must merge — the
        // threshold rule (min new core of the added edge = 2... no: the
        // bridge endpoints keep core 2, so L = 2 and both triangle nodes
        // are rebuilt correctly).
        let mut b = GraphBuilder::new();
        for i in 0..6 {
            b.add_vertex(&format!("v{i}"), &["k"]);
        }
        for (x, y) in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)] {
            b.add_edge(v(x), v(y));
        }
        let g = b.build();
        let tree = ClTree::build(&g);
        let (_, updated, fresh) = step(&g, &tree, &[(v(2), v(3))], &[]);
        assert_equivalent(&updated, &fresh);
        // And the reverse: splitting them again.
        let g2 = g.apply_delta(&g.edge_delta(&[(v(2), v(3))], &[]).unwrap());
        let cores2 = CoreDecomposition::compute(&g2).core_numbers().to_vec();
        let (t2, _) = tree.update(&g2, &g.edge_delta(&[(v(2), v(3))], &[]).unwrap(), &cores2);
        let (_, updated3, fresh3) = step(&g2, &t2, &[], &[(v(2), v(3))]);
        assert_equivalent(&updated3, &fresh3);
    }

    #[test]
    fn isolating_and_reconnecting_a_vertex() {
        let g = figure5_graph();
        let tree = ClTree::build(&g);
        // Strip H of its only edge: H and I join J at core 0.
        let (g2, updated, fresh) = step(&g, &tree, &[], &[(v(7), v(8))]);
        assert_equivalent(&updated, &fresh);
        assert_eq!(updated.core(v(7)), 0);
        // Reconnect J into the big component.
        let (_, updated2, fresh2) = step(&g2, &updated, &[(v(9), v(0))], &[]);
        assert_equivalent(&updated2, &fresh2);
    }

    #[test]
    fn fallback_rebuilds_and_counts() {
        let g = figure5_graph();
        let tree = ClTree::build(&g);
        // Deleting the whole 4-clique changes 4+ cores out of 10 → > 25%.
        let before = cx_obs::global().counter("cx_incremental_fallback_total").get();
        let clique: Vec<_> =
            [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)].map(|(a, b)| (v(a), v(b))).into();
        let (_, updated, fresh) = step(&g, &tree, &[], &clique);
        assert_equivalent(&updated, &fresh);
        let after = cx_obs::global().counter("cx_incremental_fallback_total").get();
        assert_eq!(after, before + 1, "fallback must bump the counter");
    }

    /// `n` vertices with `edges`, plus a separate K8 on `n..n+8` so a
    /// 7-core survives above every edited level.
    fn with_anchor(n: u32, edges: &[(u32, u32)]) -> AttributedGraph {
        let mut b = GraphBuilder::new();
        for i in 0..n + 8 {
            b.add_vertex(&format!("v{i}"), &[&format!("k{}", i % 3), &format!("m{}", i % 5)]);
        }
        for &(x, y) in edges {
            b.add_edge(v(x), v(y));
        }
        for i in n..n + 8 {
            for j in (i + 1)..n + 8 {
                b.add_edge(v(i), v(j));
            }
        }
        b.build()
    }

    fn clique(base: u32, size: u32) -> Vec<(u32, u32)> {
        (0..size).flat_map(|i| ((i + 1)..size).map(move |j| (base + i, base + j))).collect()
    }

    /// Runs `script` through `update`, requiring the edit-local path and
    /// canonical equality with a fresh build at every step.
    fn run_locally(mut g: AttributedGraph, script: &[(&[(u32, u32)], &[(u32, u32)])]) {
        let mut tree = ClTree::build(&g);
        for (i, &(add, remove)) in script.iter().enumerate() {
            let pairs =
                |es: &[(u32, u32)]| es.iter().map(|&(a, b)| (v(a), v(b))).collect::<Vec<_>>();
            let delta = g.edge_delta(&pairs(add), &pairs(remove)).unwrap();
            let g2 = g.apply_delta(&delta);
            let cores = CoreDecomposition::compute(&g2).core_numbers().to_vec();
            let (updated, repair) = tree.update(&g2, &delta, &cores);
            assert!(!repair.rebuilt, "step {i} fell back to a rebuild");
            assert_equivalent(&updated, &ClTree::build(&g2));
            (g, tree) = (g2, updated);
        }
    }

    #[test]
    fn bridge_removal_splits_and_merges_at_every_level() {
        // Two K6 joined by the bridge 5–6: one component at levels 1..5.
        let mut edges = clique(0, 6);
        edges.extend(clique(6, 6));
        edges.extend([(5, 6), (0, 12), (12, 13)]);
        run_locally(
            with_anchor(15, &edges),
            &[
                (&[], &[(5, 6)]),
                (&[(5, 6)], &[]),
                (&[(4, 7), (13, 14)], &[(5, 6)]),
                (&[(5, 6)], &[(4, 7), (13, 14)]),
            ],
        );
    }

    #[test]
    fn drop_cascade_disconnects_and_rise_reconnects() {
        // K4s on the cycle 3–8–9–4 … 7–10–0: cutting 8–9 drops 8, 9, 10
        // to core 1 and splits the 2-core component.
        let mut edges = clique(0, 4);
        edges.extend(clique(4, 4));
        edges.extend([(3, 8), (8, 9), (9, 4), (7, 10), (10, 0)]);
        run_locally(
            with_anchor(12, &edges),
            &[
                (&[], &[(8, 9)]),
                (&[(8, 9)], &[]),
                (&[(11, 8)], &[(10, 0)]),
                (&[(10, 0)], &[(11, 8)]),
            ],
        );
    }

    #[test]
    fn core_rise_merges_sibling_cores() {
        // 8 joins the K4s 0..3 and 4..7; a third edge raises it to core 3
        // and merges the two level-3 siblings through it.
        let mut edges = clique(0, 4);
        edges.extend(clique(4, 4));
        edges.extend([(8, 0), (8, 4), (7, 9), (9, 3)]);
        run_locally(
            with_anchor(10, &edges),
            &[
                (&[(8, 1)], &[]),
                (&[], &[(8, 1)]),
                (&[(8, 1), (8, 5)], &[]),
                (&[], &[(8, 0), (8, 4)]),
            ],
        );
    }

    #[test]
    fn triangle_closing_add_at_paper_scale_costs_the_edit() {
        // A 100k-author graph of the benchmark's shape. Closing a triangle
        // inside one component must repair without reading more than 1%
        // of the vertices and without indexing any node from scratch.
        let params =
            cx_datagen::DblpParams { authors: 100_000, ..cx_datagen::DblpParams::paper_scale(42) };
        let (g, _) = cx_datagen::dblp_like(&params);
        let tree = ClTree::build(&g);
        let cores = tree.core_numbers();
        let (u, x) = g
            .vertices()
            .filter(|&u| cores[u.index()] >= 3)
            .find_map(|u| {
                g.neighbors(u).iter().find_map(|&w| {
                    g.neighbors(w).iter().copied().find(|&x| {
                        x != u && cores[x.index()] >= 3 && !g.has_edge(u, x)
                    })
                }).map(|x| (u, x))
            })
            .expect("a friend of a friend to connect");
        let delta = g.edge_delta(&[(u, x)], &[]).unwrap();
        let g2 = g.apply_delta(&delta);
        let mut dc = cx_kcore::DynamicCore::from_graph_with_cores(&g, cores);
        dc.insert_edge(u, x);
        let (updated, repair) = tree.update(&g2, &delta, dc.core_numbers());
        assert!(!repair.rebuilt);
        assert!(
            repair.vertices_scanned * 100 < g.vertex_count(),
            "scanned {} of {} vertices",
            repair.vertices_scanned,
            g.vertex_count()
        );
        assert_eq!(repair.nodes_indexed, 0, "a node was indexed from scratch");
        assert!(!repair.repaired.is_empty());
        let fresh = ClTree::build(&g2);
        assert_eq!(updated.node_count(), fresh.node_count());
        for w in [u, x] {
            let (a, b) = (updated.node(updated.node_of(w)), fresh.node(fresh.node_of(w)));
            assert_eq!((a.level, &a.vertices), (b.level, &b.vertices));
            assert_eq!(updated.connected_k_core(w, 3), fresh.connected_k_core(w, 3));
        }
    }

    #[test]
    fn long_random_script_stays_equivalent_to_fresh_builds() {
        let mut rng = cx_par::rng::Rng64::seed_from_u64(0xC1E);
        let n = 40u32;
        let mut b = GraphBuilder::new();
        for i in 0..n {
            b.add_vertex(&format!("v{i}"), if i % 3 == 0 { &["x", "y"][..] } else { &["y"][..] });
        }
        for _ in 0..70 {
            b.add_edge(v(rng.gen_range(0..n)), v(rng.gen_range(0..n)));
        }
        let mut g = b.build();
        let mut tree = ClTree::build(&g);
        for step_no in 0..120 {
            let mut add = Vec::new();
            let mut remove = Vec::new();
            for _ in 0..rng.gen_range(1..4u32) {
                let e = (v(rng.gen_range(0..n)), v(rng.gen_range(0..n)));
                if rng.gen_bool(0.5) {
                    add.push(e);
                } else {
                    remove.push(e);
                }
            }
            let delta = g.edge_delta(&add, &remove).unwrap();
            let g2 = g.apply_delta(&delta);
            let cores = CoreDecomposition::compute(&g2).core_numbers().to_vec();
            let (updated, _) = tree.update(&g2, &delta, &cores);
            let fresh = ClTree::build(&g2);
            assert_eq!(
                canon(&updated, updated.root()),
                canon(&fresh, fresh.root()),
                "divergence at script step {step_no}"
            );
            g = g2;
            tree = updated;
        }
    }
}
