//! Multi-resolution hierarchy derived from the CL-tree.
//!
//! At paper scale (10⁶ vertices) no client can render the raw graph, and
//! even a single community can be too large for a first look. This module
//! turns the CL-tree into a browsable **summary hierarchy**: every tree
//! node doubles as a *supernode* standing for its whole subtree, carrying
//! aggregated statistics (subtree size, edge counts, degree stats, top
//! keywords), and a *level-k view* of the graph shows the connected
//! components of the k-core as at most one supernode each. Clients start
//! coarse and drill down by expanding one supernode at a time.
//!
//! ## Edge ownership
//!
//! The crucial structural fact (a direct consequence of core laminarity):
//! **two distinct supernodes of the same level never share an edge.** An
//! edge `{u, v}` with `core(u) ≤ core(v)` lies inside the
//! `core(u)`-core, so both endpoints sit in the *same* connected
//! component of it — which is exactly the CL-tree node of `u`. Hence
//! `node_of(u)` is an ancestor-or-self of `node_of(v)`, and we say the
//! edge is **owned** by the shallower node `node_of(u)`. Every owned edge
//! has at least one endpoint *resident* in its owner.
//!
//! This gives the hierarchy clean semantics with zero double counting:
//!
//! * a level-k view has no inter-supernode edges at all (components!);
//! * expanding a supernode `P` reveals its resident vertices, its child
//!   supernodes, the resident–resident edges owned by `P`, and weighted
//!   links from each resident into the child subtrees — nothing else;
//! * recursively expanding everything therefore reproduces the exact
//!   vertex set and edge multiset, which `cx-check` verifies as an
//!   oracle.

use std::collections::HashMap;

use cx_graph::{AttributedGraph, EdgeDelta, KeywordId, VertexId};

use crate::build::ClTree;
use crate::node::NodeId;
use crate::update::{RepairedNode, TreeRepair};

/// How many top keywords each supernode keeps.
pub const TOP_KEYWORDS: usize = 8;

/// Aggregated statistics for one supernode (one CL-tree node standing for
/// its whole subtree).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SupernodeStats {
    /// The CL-tree level (k of the k-core component).
    pub level: u32,
    /// Parent supernode, `None` for the root.
    pub parent: Option<NodeId>,
    /// Vertices resident in this node (core number == level).
    pub residents: u32,
    /// Total vertices in the subtree (this supernode's "size").
    pub subtree_vertices: u32,
    /// Edges owned by this node (see module docs on ownership).
    pub owned_edges: u64,
    /// Total edges with both endpoints inside the subtree.
    pub subtree_edges: u64,
    /// Sum of graph degrees over subtree vertices.
    pub sum_degree: u64,
    /// Maximum graph degree over subtree vertices.
    pub max_degree: u32,
    /// Up to [`TOP_KEYWORDS`] most frequent keywords in the subtree,
    /// `(keyword, occurrence count)`, count-descending then id-ascending.
    pub top_keywords: Vec<(KeywordId, u32)>,
}

/// The expansion of one supernode: what a client sees after clicking it.
#[derive(Debug, Clone)]
pub struct Expansion {
    /// The expanded supernode.
    pub node: NodeId,
    /// Listed resident vertices, ascending by id. When the node has more
    /// residents than the cap, the highest-degree ones are listed.
    pub residents: Vec<VertexId>,
    /// True when residents were dropped to meet the cap.
    pub truncated: bool,
    /// Child supernodes, in tree order.
    pub children: Vec<NodeId>,
    /// Resident–resident edges among *listed* residents.
    pub internal_edges: Vec<(VertexId, VertexId)>,
    /// Weighted links `(resident, child supernode, #edges)` from listed
    /// residents into child subtrees, sorted by `(resident, child)`.
    pub child_links: Vec<(VertexId, NodeId, u32)>,
}

/// The summary hierarchy: per-supernode aggregates over one `(graph,
/// CL-tree)` pair. Node ids are the tree's [`NodeId`]s, so tree queries
/// and hierarchy stats compose directly.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    stats: Vec<SupernodeStats>,
    /// Per node: `(sum, max)` of its own residents' degrees — the part of
    /// `sum_degree`/`max_degree` that [`Hierarchy::update`] moves by the
    /// edit instead of recomputing.
    own_degree: Vec<(u64, u32)>,
    max_level: u32,
}

impl Hierarchy {
    /// Builds the hierarchy for `g` and its CL-tree: one O(m) edge
    ///-ownership scan plus one post-order aggregation sweep.
    pub fn build(g: &AttributedGraph, tree: &ClTree) -> Self {
        let _span = cx_obs::span("cltree.hierarchy.build");
        let nn = tree.node_count();
        let mut stats: Vec<SupernodeStats> = tree
            .iter_nodes()
            .map(|(_, n)| SupernodeStats {
                level: n.level,
                parent: n.parent,
                residents: n.vertices.len() as u32,
                subtree_vertices: 0,
                owned_edges: 0,
                subtree_edges: 0,
                sum_degree: 0,
                max_degree: 0,
                top_keywords: Vec::new(),
            })
            .collect();

        // Edge-ownership scan: every undirected edge counted once at the
        // node of its smaller-core endpoint (see module docs).
        for v in g.vertices() {
            stats[tree.node_of(v).index()].owned_edges += owned_by(g, tree.core_numbers(), v);
        }
        let own_degree: Vec<(u64, u32)> =
            tree.iter_nodes().map(|(_, node)| resident_degrees(g, &node.vertices)).collect();

        // Post-order sweep: children before parents. An explicit stack
        // keeps us safe on adversarially deep trees.
        let mut kw: Vec<HashMap<KeywordId, u32>> = vec![HashMap::new(); nn];
        for nid in post_order(tree) {
            let node = tree.node(nid);
            let i = nid.index();
            aggregate(&mut stats, tree, nid, own_degree[i]);
            // Merge children's subtree keyword counts into this node's,
            // largest map first to bound rehashing.
            let mut acc = std::mem::take(&mut kw[i]);
            for (&w, vs) in node.inverted.iter() {
                *acc.entry(w).or_insert(0) += vs.len() as u32;
            }
            for &c in &node.children {
                let child = std::mem::take(&mut kw[c.index()]);
                let (mut big, small) = if child.len() > acc.len() { (child, acc) } else { (acc, child) };
                for (w, n) in small {
                    *big.entry(w).or_insert(0) += n;
                }
                acc = big;
            }
            stats[i].top_keywords = top_k(&acc);
            kw[i] = acc;
        }

        Self { stats, own_degree, max_level: tree.max_core() }
    }

    /// Carries the hierarchy of `prev_tree` across one [`ClTree::update`]
    /// (`tree` is its result on the post-edit graph `g`, `repair` its
    /// record, `delta` the edit). Only the repaired nodes, the nodes
    /// holding a vertex whose degree, core or node changed, and their
    /// ancestors are recomputed; every other supernode keeps its stats.
    ///
    /// * Own columns move by the edit: each node starts from the old
    ///   nodes whose residents it took over wholesale, and every vertex
    ///   that moved, lost or gained an edge, changed core or neighbours
    ///   one that did has its old contribution (edge ownership, degree)
    ///   taken out of its old node and its new one put into its new node.
    /// * Subtree columns are re-summed from the children.
    /// * Top keywords are carried when the subtree's vertex set did not
    ///   change, derived from the source's list plus the moved vertices
    ///   when that provably settles the top [`TOP_KEYWORDS`], and
    ///   recounted over the subtree otherwise.
    ///
    /// The result equals [`Hierarchy::build`] on `(g, tree)`.
    pub fn update(
        g: &AttributedGraph,
        tree: &ClTree,
        delta: &EdgeDelta,
        repair: &TreeRepair,
        prev_tree: &ClTree,
        prev: &Hierarchy,
    ) -> Self {
        if repair.rebuilt {
            return Self::build(g, tree);
        }
        let _span = cx_obs::span("cltree.hierarchy.update");
        let nn = tree.node_count();
        // Start every node from the old nodes whose residents it took
        // over wholesale; a carried node has exactly one, whose stats it
        // keeps unless it turns out dirty below.
        let mut stats = vec![SupernodeStats::default(); nn];
        let mut own_edges = vec![0i64; nn];
        let mut own_sum = vec![0i64; nn];
        let mut own_max = vec![0u32; nn];
        let mut rescan = vec![false; nn];
        for (old, slot) in repair.old_to_new.iter().enumerate() {
            let Some(new) = *slot else { continue };
            let (i, s) = (new.index(), &prev.stats[old]);
            own_edges[i] += s.owned_edges as i64;
            own_sum[i] += prev.own_degree[old].0 as i64;
            own_max[i] = own_max[i].max(prev.own_degree[old].1);
            stats[i] = SupernodeStats { parent: tree.node(new).parent, ..s.clone() };
        }

        // Vertices whose contribution may differ from the wholesale move:
        // take the old one out of the old node's heir, put the new one in.
        let mut added_adj: HashMap<VertexId, Vec<VertexId>> = HashMap::new();
        let mut removed_adj: HashMap<VertexId, Vec<VertexId>> = HashMap::new();
        for &(u, v) in &delta.added {
            added_adj.entry(u).or_default().push(v);
            added_adj.entry(v).or_default().push(u);
        }
        for &(u, v) in &delta.removed {
            removed_adj.entry(u).or_default().push(v);
            removed_adj.entry(v).or_default().push(u);
        }
        let mut touched: Vec<VertexId> = repair.moved.clone();
        touched.extend(added_adj.keys().chain(removed_adj.keys()));
        for &v in &repair.core_changed {
            touched.push(v);
            touched.extend_from_slice(g.neighbors(v));
        }
        touched.sort_unstable();
        touched.dedup();
        let (old_cores, new_cores) = (prev_tree.core_numbers(), tree.core_numbers());
        let mut dirty: Vec<NodeId> = repair.repaired.iter().map(|r| r.id).collect();
        for v in touched {
            let plus = added_adj.get(&v).map_or(&[][..], Vec::as_slice);
            let minus = removed_adj.get(&v).map_or(&[][..], Vec::as_slice);
            let old_neighbors =
                g.neighbors(v).iter().filter(|u| !plus.contains(u)).chain(minus);
            let old_owned = old_neighbors.filter(|&&u| owns(old_cores, v, u)).count() as i64;
            let old_degree = g.degree(v) - plus.len() + minus.len();
            if let Some(heir) = repair.old_to_new[prev_tree.node_of(v).index()] {
                let i = heir.index();
                own_edges[i] -= old_owned;
                own_sum[i] -= old_degree as i64;
                rescan[i] |= old_degree as u32 >= own_max[i];
                dirty.push(heir);
            }
            let new = tree.node_of(v);
            let i = new.index();
            own_edges[i] += owned_by(g, new_cores, v) as i64;
            own_sum[i] += g.degree(v) as i64;
            own_max[i] = own_max[i].max(g.degree(v) as u32);
            dirty.push(new);
        }

        // Dirty nodes and all their ancestors, children before parents.
        let mut walked = vec![false; nn];
        let mut order: Vec<NodeId> = Vec::new();
        for id in dirty {
            let mut cur = Some(id);
            while let Some(c) = cur.filter(|c| !walked[c.index()]) {
                walked[c.index()] = true;
                order.push(c);
                cur = tree.node(c).parent;
            }
        }
        order.sort_unstable_by_key(|&id| std::cmp::Reverse(tree.node(id).level));
        let by_id: HashMap<NodeId, &RepairedNode> =
            repair.repaired.iter().map(|r| (r.id, r)).collect();
        for id in order {
            let (i, node) = (id.index(), tree.node(id));
            if rescan[i] {
                own_max[i] = resident_degrees(g, &node.vertices).1;
            }
            stats[i].level = node.level;
            stats[i].parent = node.parent;
            stats[i].residents = node.vertices.len() as u32;
            stats[i].owned_edges = own_edges[i] as u64;
            aggregate(&mut stats, tree, id, (own_sum[i] as u64, own_max[i]));
            if let Some(r) = by_id.get(&id) {
                stats[i].top_keywords = repaired_top_keywords(g, tree, prev, r);
            }
        }
        let own_degree = own_sum.into_iter().map(|s| s as u64).zip(own_max).collect();
        Self { stats, own_degree, max_level: tree.max_core() }
    }

    /// The deepest level at which any supernode exists.
    #[inline]
    pub fn max_level(&self) -> u32 {
        self.max_level
    }

    /// Number of supernodes (== CL-tree nodes).
    #[inline]
    pub fn node_count(&self) -> usize {
        self.stats.len()
    }

    /// Aggregates of one supernode.
    #[inline]
    pub fn stats(&self, id: NodeId) -> &SupernodeStats {
        &self.stats[id.index()]
    }

    /// The supernodes of the level-`k` view: the maximal subtrees of
    /// level ≥ k, i.e. the connected components of the k-core (for k = 0,
    /// the single root). Ordered by subtree size descending, then id —
    /// so callers can take a prefix as "the N largest communities".
    pub fn level_nodes(&self, k: u32) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = self
            .stats
            .iter()
            .enumerate()
            .filter(|(_, s)| {
                s.level >= k
                    && match s.parent {
                        None => true,
                        Some(p) => self.stats[p.index()].level < k,
                    }
            })
            .map(|(i, _)| NodeId(i as u32))
            .collect();
        out.sort_unstable_by_key(|&id| {
            (u32::MAX - self.stats[id.index()].subtree_vertices, id.0)
        });
        out
    }

    /// Expands supernode `id`: listed residents (all of them, or the
    /// `max_residents` highest-degree ones), child supernodes, owned
    /// resident–resident edges, and weighted resident→child links. See
    /// the module docs for why this is the complete edge picture.
    pub fn expand(
        &self,
        g: &AttributedGraph,
        tree: &ClTree,
        id: NodeId,
        max_residents: usize,
    ) -> Expansion {
        let node = tree.node(id);
        let level = node.level;

        let truncated = node.vertices.len() > max_residents;
        let mut residents: Vec<VertexId> = if truncated {
            let mut by_degree: Vec<VertexId> = node.vertices.clone();
            by_degree.sort_unstable_by_key(|&v| (usize::MAX - g.degree(v), v.0));
            by_degree.truncate(max_residents);
            by_degree.sort_unstable();
            by_degree
        } else {
            node.vertices.clone()
        };
        residents.dedup();

        let listed: std::collections::HashSet<VertexId> = residents.iter().copied().collect();
        let mut internal_edges = Vec::new();
        let mut links: HashMap<(VertexId, NodeId), u32> = HashMap::new();
        for &u in &residents {
            for &v in g.neighbors(u) {
                let cv = tree.core(v);
                if cv < level {
                    continue; // owned by an ancestor's view
                }
                if tree.node_of(v) == id {
                    if u < v && listed.contains(&v) {
                        internal_edges.push((u, v));
                    }
                    continue;
                }
                // v lives strictly below: attribute the edge to the child
                // subtree containing it.
                let child = child_containing(tree, id, v);
                *links.entry((u, child)).or_insert(0) += 1;
            }
        }
        internal_edges.sort_unstable();
        let mut child_links: Vec<(VertexId, NodeId, u32)> =
            links.into_iter().map(|((u, c), w)| (u, c, w)).collect();
        child_links.sort_unstable_by_key(|&(u, c, _)| (u, c));

        Expansion {
            node: id,
            residents,
            truncated,
            children: node.children.clone(),
            internal_edges,
            child_links,
        }
    }

    /// All edges owned by supernode `id`, as explicit vertex pairs. Each
    /// graph edge is owned by exactly one node, so concatenating this
    /// over all nodes reproduces the exact edge multiset — the
    /// reconstruction oracle in `cx-check` relies on this.
    pub fn owned_edge_list(
        &self,
        g: &AttributedGraph,
        tree: &ClTree,
        id: NodeId,
    ) -> Vec<(VertexId, VertexId)> {
        let node = tree.node(id);
        let level = node.level;
        let mut out = Vec::new();
        for &u in &node.vertices {
            for &v in g.neighbors(u) {
                let cv = tree.core(v);
                if cv > level || (cv == level && u < v) {
                    out.push((u.min(v), u.max(v)));
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Approximate heap footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.stats.capacity() * size_of::<SupernodeStats>()
            + self
                .stats
                .iter()
                .map(|s| s.top_keywords.len() * size_of::<(KeywordId, u32)>())
                .sum::<usize>()
    }
}

/// The child of `p` whose subtree contains `v`. Panics if `p` is not a
/// proper ancestor of `v`'s node — callers establish that via the edge
/// -ownership argument.
fn child_containing(tree: &ClTree, p: NodeId, v: VertexId) -> NodeId {
    let mut cur = tree.node_of(v);
    loop {
        match tree.node(cur).parent {
            Some(parent) if parent == p => return cur,
            Some(parent) => cur = parent,
            None => panic!("vertex {v:?} is not below supernode {p:?}"),
        }
    }
}

/// Children-before-parents ordering of all tree nodes, iteratively.
fn post_order(tree: &ClTree) -> Vec<NodeId> {
    let mut order = Vec::with_capacity(tree.node_count());
    let mut stack = vec![tree.root()];
    // Reverse-DFS trick: pre-order with children pushed left-to-right,
    // then reversed, yields a valid post-order.
    while let Some(nid) = stack.pop() {
        order.push(nid);
        stack.extend_from_slice(&tree.node(nid).children);
    }
    order.reverse();
    order
}

/// The top-[`TOP_KEYWORDS`] entries by `(count desc, keyword id asc)`.
fn top_k(counts: &HashMap<KeywordId, u32>) -> Vec<(KeywordId, u32)> {
    let mut all: Vec<(KeywordId, u32)> = counts.iter().map(|(&w, &c)| (w, c)).collect();
    all.sort_unstable_by_key(|&(w, c)| (u32::MAX - c, w));
    all.truncate(TOP_KEYWORDS);
    all
}

/// Number of edges `v` owns: those to a neighbour of higher core, or of
/// equal core and higher id (see module docs).
fn owned_by(g: &AttributedGraph, cores: &[u32], v: VertexId) -> u64 {
    g.neighbors(v).iter().filter(|&&u| owns(cores, v, u)).count() as u64
}

/// Whether `v` owns the edge `{v, u}` under `cores`.
#[inline]
fn owns(cores: &[u32], v: VertexId, u: VertexId) -> bool {
    let (cv, cu) = (cores[v.index()], cores[u.index()]);
    cv < cu || (cv == cu && v < u)
}

/// `(sum, max)` of the degrees of `residents`.
fn resident_degrees(g: &AttributedGraph, residents: &[VertexId]) -> (u64, u32) {
    residents
        .iter()
        .map(|&v| g.degree(v))
        .fold((0, 0), |(s, m), d| (s + d as u64, m.max(d as u32)))
}

/// Fills the subtree columns of `id` from its own values and its
/// children's (already final) stats. `owned_edges` must be set.
fn aggregate(stats: &mut [SupernodeStats], tree: &ClTree, id: NodeId, own: (u64, u32)) {
    let node = tree.node(id);
    let mut sub_v = node.vertices.len() as u64;
    let mut sub_e = stats[id.index()].owned_edges;
    let (mut sum_d, mut max_d) = own;
    for &c in &node.children {
        let cs = &stats[c.index()];
        sub_v += cs.subtree_vertices as u64;
        sub_e += cs.subtree_edges;
        sum_d += cs.sum_degree;
        max_d = max_d.max(cs.max_degree);
    }
    let s = &mut stats[id.index()];
    s.subtree_vertices = sub_v as u32;
    s.subtree_edges = sub_e;
    s.sum_degree = sum_d;
    s.max_degree = max_d;
}

/// More moved vertices than this and a repaired node's top keywords are
/// recounted over its subtree instead of derived from its source.
const DERIVE_LIMIT: usize = 64;

/// Top keywords of a repaired node. Carried when its subtree is its one
/// source's; derived from the source's list when only a few vertices
/// moved and the derived eighth entry still outranks every keyword off
/// the old list (whose counts can only have fallen); recounted otherwise.
fn repaired_top_keywords(
    g: &AttributedGraph,
    tree: &ClTree,
    prev: &Hierarchy,
    r: &RepairedNode,
) -> Vec<(KeywordId, u32)> {
    if let [source] = r.sources[..] {
        let old = &prev.stats[source.index()].top_keywords;
        if r.added.is_empty() && r.removed.is_empty() {
            return old.clone();
        }
        if r.added.len() + r.removed.len() <= DERIVE_LIMIT {
            if let Some(top) = derive_top(g, tree, r, old) {
                return top;
            }
        }
    }
    recount_top(tree, r.id)
}

/// See [`repaired_top_keywords`]; `None` when the derivation cannot
/// prove its answer.
fn derive_top(
    g: &AttributedGraph,
    tree: &ClTree,
    r: &RepairedNode,
    old: &[(KeywordId, u32)],
) -> Option<Vec<(KeywordId, u32)>> {
    let mut moved: HashMap<KeywordId, i64> = HashMap::new();
    for (vs, sign) in [(&r.added, 1), (&r.removed, -1)] {
        for &v in vs {
            for &w in g.keywords(v) {
                *moved.entry(w).or_insert(0) += sign;
            }
        }
    }
    let mut counts: HashMap<KeywordId, i64> = old.iter().map(|&(w, c)| (w, c as i64)).collect();
    for (&w, &d) in &moved {
        match counts.get_mut(&w) {
            Some(c) => *c += d,
            // A keyword off the old list that gained carriers: its old
            // count is unknown, so count it in the new subtree.
            None if d > 0 => {
                counts.insert(w, subtree_support(tree, r.id, w) as i64);
            }
            None => {}
        }
    }
    let mut top: Vec<(KeywordId, u32)> =
        counts.into_iter().filter(|&(_, c)| c > 0).map(|(w, c)| (w, c as u32)).collect();
    top.sort_unstable_by_key(|&(w, c)| (u32::MAX - c, w));
    top.truncate(TOP_KEYWORDS);
    if old.len() == TOP_KEYWORDS {
        // Every keyword off the old list ranked after the old eighth and
        // lost or kept its count; the new eighth must not rank below it.
        let (w8, c8) = old[TOP_KEYWORDS - 1];
        let settled = top.len() == TOP_KEYWORDS && {
            let (w, c) = top[TOP_KEYWORDS - 1];
            c > c8 || (c == c8 && w <= w8)
        };
        if !settled {
            return None;
        }
    }
    Some(top)
}

/// Carriers of `w` in `id`'s subtree, skipping subtrees whose signature
/// excludes it.
fn subtree_support(tree: &ClTree, id: NodeId, w: KeywordId) -> usize {
    let mask = crate::KeywordSignature::mask_of(w);
    let mut total = 0;
    let mut stack = vec![id];
    while let Some(nid) = stack.pop() {
        let node = tree.node(nid);
        if node.signature.contains_all(&mask) {
            total += node.keyword_support(w);
            stack.extend_from_slice(&node.children);
        }
    }
    total
}

/// Top keywords of `id`'s subtree, counted from its inverted lists.
fn recount_top(tree: &ClTree, id: NodeId) -> Vec<(KeywordId, u32)> {
    let mut counts: HashMap<KeywordId, u32> = HashMap::new();
    let mut stack = vec![id];
    while let Some(nid) = stack.pop() {
        let node = tree.node(nid);
        for (&w, vs) in node.inverted.iter() {
            *counts.entry(w).or_insert(0) += vs.len() as u32;
        }
        stack.extend_from_slice(&node.children);
    }
    top_k(&counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cx_datagen::figure5_graph;
    use cx_graph::GraphBuilder;

    fn edge_multiset(g: &AttributedGraph) -> Vec<(VertexId, VertexId)> {
        let mut out = Vec::new();
        for v in g.vertices() {
            for &u in g.neighbors(v) {
                if v < u {
                    out.push((v, u));
                }
            }
        }
        out.sort_unstable();
        out
    }

    #[test]
    fn figure5_aggregates() {
        let g = figure5_graph();
        let t = ClTree::build(&g);
        let h = Hierarchy::build(&g, &t);
        assert_eq!(h.node_count(), t.node_count());
        assert_eq!(h.max_level(), 3);

        // Root covers everything.
        let root = h.stats(t.root());
        assert_eq!(root.subtree_vertices as usize, g.vertex_count());
        assert_eq!(root.subtree_edges as usize, g.edge_count());

        // The {A,B,C,D} node is a K4: 4 vertices, 6 owned edges.
        let a = g.vertex_by_label("A").unwrap();
        let abcd = t.node_of(a);
        let s = h.stats(abcd);
        assert_eq!(s.level, 3);
        assert_eq!(s.residents, 4);
        assert_eq!(s.subtree_vertices, 4);
        assert_eq!(s.owned_edges, 6);
        assert_eq!(s.subtree_edges, 6);
        assert!(!s.top_keywords.is_empty());
        // x is carried by A,B,C,D — the top keyword of that subtree.
        let x = g.interner().get("x").unwrap();
        assert_eq!(s.top_keywords[0], (x, 4));
    }

    #[test]
    fn ownership_partitions_the_edge_multiset() {
        let g = figure5_graph();
        let t = ClTree::build(&g);
        let h = Hierarchy::build(&g, &t);
        let mut owned = Vec::new();
        let mut owned_total = 0u64;
        for (id, _) in t.iter_nodes() {
            owned.extend(h.owned_edge_list(&g, &t, id));
            owned_total += h.stats(id).owned_edges;
        }
        owned.sort_unstable();
        assert_eq!(owned, edge_multiset(&g));
        assert_eq!(owned_total as usize, g.edge_count());
    }

    #[test]
    fn level_views_are_kcore_components() {
        let g = figure5_graph();
        let t = ClTree::build(&g);
        let h = Hierarchy::build(&g, &t);

        // Level 0: exactly the root.
        assert_eq!(h.level_nodes(0), vec![t.root()]);
        // Level 1: two components — ABCDEFG (7 vertices) and HI (2).
        let l1 = h.level_nodes(1);
        assert_eq!(l1.len(), 2);
        let sizes: Vec<u32> = l1.iter().map(|&n| h.stats(n).subtree_vertices).collect();
        assert_eq!(sizes, vec![7, 2]); // size-descending order
        // Level 3: the K4 alone.
        let l3 = h.level_nodes(3);
        assert_eq!(l3.len(), 1);
        assert_eq!(h.stats(l3[0]).subtree_vertices, 4);
        // Beyond max level: nothing.
        assert!(h.level_nodes(4).is_empty());
    }

    #[test]
    fn expansion_reveals_residents_children_and_links() {
        let g = figure5_graph();
        let t = ClTree::build(&g);
        let h = Hierarchy::build(&g, &t);
        let label = |l: &str| g.vertex_by_label(l).unwrap();

        // Expand the level-2 node {E}: one resident, one child (K4), and
        // E's two edges into the K4 (E–C, E–D per Figure 5) as one
        // weighted link.
        let e_node = t.node_of(label("E"));
        let ex = h.expand(&g, &t, e_node, 100);
        assert_eq!(ex.residents, vec![label("E")]);
        assert!(!ex.truncated);
        assert_eq!(ex.children.len(), 1);
        assert!(ex.internal_edges.is_empty());
        assert_eq!(ex.child_links.len(), 1);
        let (u, c, w) = ex.child_links[0];
        assert_eq!(u, label("E"));
        assert_eq!(c, ex.children[0]);
        assert_eq!(w as usize, {
            // E's neighbours inside the K4.
            g.neighbors(label("E")).iter().filter(|&&v| t.core(v) == 3).count()
        });
    }

    #[test]
    fn expansion_truncates_by_degree() {
        let g = figure5_graph();
        let t = ClTree::build(&g);
        let h = Hierarchy::build(&g, &t);
        let a = g.vertex_by_label("A").unwrap();
        let abcd = t.node_of(a);
        let ex = h.expand(&g, &t, abcd, 2);
        assert!(ex.truncated);
        assert_eq!(ex.residents.len(), 2);
        // Internal edges only among listed residents.
        assert!(ex.internal_edges.iter().all(|(u, v)| {
            ex.residents.contains(u) && ex.residents.contains(v)
        }));
    }

    #[test]
    fn update_with_an_empty_delta_keeps_every_supernode() {
        let g = figure5_graph();
        let t = ClTree::build(&g);
        let h = Hierarchy::build(&g, &t);
        let delta = cx_graph::EdgeDelta::default();
        let g2 = g.apply_delta(&delta);
        let (t2, repair) = t.update(&g2, &delta, t.core_numbers());
        let h2 = Hierarchy::update(&g2, &t2, &delta, &repair, &t, &h);
        assert_eq!(h2.node_count(), h.node_count());
        for (id, _) in t2.iter_nodes() {
            assert_eq!(h2.stats(id), h.stats(id));
        }
    }

    #[test]
    fn update_after_real_edit_matches_fresh_build() {
        let g = figure5_graph();
        let t = ClTree::build(&g);
        let h = Hierarchy::build(&g, &t);
        // Connect H to E: merges the H–I component into the big one at
        // level 1, and a second edit splits it off again.
        let e = g.vertex_by_label("E").unwrap();
        let hv = g.vertex_by_label("H").unwrap();
        let (mut g, mut t, mut h) = (g, t, h);
        for (add, remove) in [(vec![(e, hv)], vec![]), (vec![], vec![(e, hv)])] {
            let delta = g.edge_delta(&add, &remove).unwrap();
            let g2 = g.apply_delta(&delta);
            let cores2 = cx_kcore::CoreDecomposition::compute_par(&g2);
            let (t2, repair) = t.update(&g2, &delta, cores2.core_numbers());
            let h_inc = Hierarchy::update(&g2, &t2, &delta, &repair, &t, &h);
            let h_fresh = Hierarchy::build(&g2, &t2);
            for (id, _) in t2.iter_nodes() {
                assert_eq!(h_inc.stats(id), h_fresh.stats(id), "stats diverge at {id:?}");
            }
            (g, t, h) = (g2, t2, h_inc);
        }
    }

    #[test]
    fn isolated_vertices_live_at_the_root() {
        let mut b = GraphBuilder::new();
        for i in 0..4 {
            b.add_vertex(&format!("v{i}"), &["kw"]);
        }
        b.add_edge(VertexId(0), VertexId(1));
        // v2, v3 isolated.
        let g = b.build();
        let t = ClTree::build(&g);
        let h = Hierarchy::build(&g, &t);
        let root = h.stats(t.root());
        assert_eq!(root.subtree_vertices, 4);
        assert_eq!(root.subtree_edges, 1);
        let ex = h.expand(&g, &t, t.root(), 10);
        assert_eq!(ex.residents.len(), 2); // v2, v3 resident at level 0
        assert_eq!(h.max_level(), 1);
    }
}
