//! CL-tree construction (bottom-up, anchored union-find) and queries.
//!
//! Construction is parallel along two axes, both deterministic:
//!
//! * **components** — every connected component owns an independent
//!   subtree, so subtrees are built concurrently on the cx-par pool
//!   (components ordered by smallest vertex id; local node arenas are
//!   concatenated in that order, which fixes the node numbering at any
//!   thread count);
//! * **keyword indexing** — the per-node inverted lists only read the
//!   graph and write their own node, so the final pass runs over disjoint
//!   chunks of the node arena.

use std::collections::HashMap;

use cx_graph::traversal::ConnectedComponents;
use cx_graph::{AttributedGraph, KeywordId, VertexId};
use cx_kcore::CoreDecomposition;

use crate::node::{ClTreeNode, NodeId};
use crate::signature::{compute_signatures, KeywordSignature};
use crate::unionfind::UnionFind;

/// The CL-tree index over one attributed graph. See the crate docs for the
/// structure; build with [`ClTree::build`], query with
/// [`ClTree::connected_k_core`] and the keyword accessors.
#[derive(Debug, Clone)]
pub struct ClTree {
    nodes: Vec<ClTreeNode>,
    root: NodeId,
    /// Vertex → the node whose level equals the vertex's core number.
    node_of: Vec<NodeId>,
    /// Core number per vertex (kept so queries need no separate decomposition).
    core: Vec<u32>,
    max_core: u32,
}

impl ClTree {
    /// Builds the index for `g`: core decomposition, then one bottom-up
    /// sweep over levels `k_max … 1` with an anchored union-find, then a
    /// root assembly step for level 0 (isolated vertices). Near-linear in
    /// `n + m`.
    pub fn build(g: &AttributedGraph) -> Self {
        let cd = CoreDecomposition::compute_par(g);
        Self::build_with(g, &cd)
    }

    /// Like [`ClTree::build`] but reuses an existing core decomposition.
    ///
    /// Subtrees of independent connected components are built in parallel;
    /// see the module docs for the determinism argument.
    pub fn build_with(g: &AttributedGraph, cd: &CoreDecomposition) -> Self {
        Self::build_with_cores(g, cd.core_numbers())
    }

    /// Like [`ClTree::build_with`] but takes the bare core-number vector —
    /// the entry point for callers that maintain core numbers
    /// incrementally (see [`ClTree::update`]) and therefore have no
    /// `CoreDecomposition` to hand. `cores` must be the exact core
    /// numbers of `g`.
    pub fn build_with_cores(g: &AttributedGraph, cores: &[u32]) -> Self {
        let _span = cx_obs::span("cltree.build");
        let n = g.vertex_count();
        assert_eq!(cores.len(), n, "core vector must cover every vertex");
        let core: Vec<u32> = cores.to_vec();
        let max_core = core.iter().copied().max().unwrap_or(0);

        let cc = ConnectedComponents::compute(g);
        let comps = cc.groups();
        // Global vertex id → index within its component, shared read-only
        // by every subtree builder.
        let mut local = vec![0u32; n];
        for comp in &comps {
            for (i, &v) in comp.iter().enumerate() {
                local[v.index()] = i as u32;
            }
        }
        let subtrees: Vec<ComponentSubtree> =
            cx_par::par_map_slice(&comps, |comp| build_component_subtree(g, comp, &core, &local));

        // Concatenate the local arenas in component order, offsetting ids.
        let total: usize = subtrees.iter().map(|s| s.nodes.len()).sum();
        let mut nodes: Vec<ClTreeNode> = Vec::with_capacity(total + 1);
        let mut tops: Vec<NodeId> = Vec::new();
        for sub in subtrees {
            let offset = nodes.len() as u32;
            for mut node in sub.nodes {
                node.parent = node.parent.map(|p| NodeId(p.0 + offset));
                for c in &mut node.children {
                    *c = NodeId(c.0 + offset);
                }
                nodes.push(node);
            }
            if let Some(top) = sub.top {
                tops.push(NodeId(top.0 + offset));
            }
        }

        // Level 0: core-0 vertices are exactly the isolated ones; assemble a
        // single root holding them, with every component's top anchor as a
        // child (matching Figure 5(b), where the root contains J).
        let mut isolated: Vec<VertexId> =
            g.vertices().filter(|&v| core[v.index()] == 0).collect();
        tops.sort_unstable();
        let root = if isolated.is_empty() && tops.len() == 1 {
            tops[0]
        } else {
            let nid = NodeId(nodes.len() as u32);
            for &kid in &tops {
                nodes[kid.index()].parent = Some(nid);
            }
            isolated.sort_unstable();
            nodes.push(ClTreeNode {
                level: 0,
                parent: None,
                children: tops,
                vertices: isolated,
                inverted: Default::default(),
                signature: KeywordSignature::EMPTY,
            });
            nid
        };

        // node_of: every vertex appears in exactly one node.
        let mut node_of = vec![NodeId(u32::MAX); n];
        for (i, node) in nodes.iter().enumerate() {
            for &v in &node.vertices {
                node_of[v.index()] = NodeId(i as u32);
            }
        }

        // Inverted keyword lists: each node only reads the graph and writes
        // itself, so the pass runs over disjoint chunks of the arena.
        cx_par::par_chunks_mut(&mut nodes, 64, |_, chunk| {
            for node in chunk {
                node.index_keywords(|v| g.keywords(v));
            }
        });

        // Subtree keyword signatures, bottom-up over the finished arena.
        compute_signatures(&mut nodes);

        Self { nodes, root, node_of, core, max_core }
    }

    /// Crate-internal constructor used by snapshot loading — also the
    /// splice point the parallel builder's arena concatenation feeds.
    pub(crate) fn from_parts(
        nodes: Vec<ClTreeNode>,
        root: NodeId,
        node_of: Vec<NodeId>,
        core: Vec<u32>,
        max_core: u32,
    ) -> Self {
        Self { nodes, root, node_of, core, max_core }
    }

    /// The core number of `v`.
    #[inline]
    pub fn core(&self, v: VertexId) -> u32 {
        self.core[v.index()]
    }

    /// Core numbers of every vertex, indexed by vertex id.
    #[inline]
    pub fn core_numbers(&self) -> &[u32] {
        &self.core
    }

    /// The graph's degeneracy (largest non-empty core level).
    #[inline]
    pub fn max_core(&self) -> u32 {
        self.max_core
    }

    /// Number of tree nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The root node id.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Access a node.
    pub fn node(&self, id: NodeId) -> &ClTreeNode {
        &self.nodes[id.index()]
    }

    /// The node holding `v` (level == core(v)).
    pub fn node_of(&self, v: VertexId) -> NodeId {
        self.node_of[v.index()]
    }

    /// The root of the subtree representing the connected k-core containing
    /// `q`: walk up from q's node while the parent still has level ≥ k.
    /// `None` when `core(q) < k` (q is not in any k-core).
    pub fn subtree_root_for(&self, q: VertexId, k: u32) -> Option<NodeId> {
        if q.index() >= self.core.len() || self.core[q.index()] < k {
            return None;
        }
        let mut cur = self.node_of(q);
        while let Some(p) = self.nodes[cur.index()].parent {
            if self.nodes[p.index()].level >= k {
                cur = p;
            } else {
                break;
            }
        }
        Some(cur)
    }

    /// All vertices in the subtree rooted at `id`, sorted.
    pub fn subtree_vertices(&self, id: NodeId) -> Vec<VertexId> {
        let mut out = Vec::new();
        self.subtree_vertices_into(id, &mut Vec::new(), &mut out);
        out
    }

    /// Allocation-free variant of [`ClTree::subtree_vertices`]: the DFS
    /// `stack` and the sorted output are written into caller-provided
    /// buffers (cleared first), so the query hot path can reuse them.
    pub fn subtree_vertices_into(
        &self,
        id: NodeId,
        stack: &mut Vec<NodeId>,
        out: &mut Vec<VertexId>,
    ) {
        out.clear();
        stack.clear();
        stack.push(id);
        while let Some(nid) = stack.pop() {
            let node = &self.nodes[nid.index()];
            out.extend_from_slice(&node.vertices);
            stack.extend_from_slice(&node.children);
        }
        out.sort_unstable();
    }

    /// The connected k-core containing `q` (sorted vertices), via the index.
    pub fn connected_k_core(&self, q: VertexId, k: u32) -> Option<Vec<VertexId>> {
        self.subtree_root_for(q, k).map(|r| self.subtree_vertices(r))
    }

    /// Vertices in the subtree of `id` whose keyword set contains `w`,
    /// sorted — collected from per-node inverted lists without touching
    /// the graph.
    pub fn keyword_vertices_in_subtree(&self, id: NodeId, w: KeywordId) -> Vec<VertexId> {
        let mut out = Vec::new();
        self.keyword_vertices_in_subtree_into(id, w, &mut Vec::new(), &mut out);
        out
    }

    /// Allocation-free variant of [`ClTree::keyword_vertices_in_subtree`]
    /// over caller-provided buffers (cleared first).
    pub fn keyword_vertices_in_subtree_into(
        &self,
        id: NodeId,
        w: KeywordId,
        stack: &mut Vec<NodeId>,
        out: &mut Vec<VertexId>,
    ) {
        out.clear();
        stack.clear();
        stack.push(id);
        while let Some(nid) = stack.pop() {
            let node = &self.nodes[nid.index()];
            out.extend_from_slice(node.vertices_with(w));
            stack.extend_from_slice(&node.children);
        }
        out.sort_unstable();
    }

    /// Signature-pruned variant of
    /// [`ClTree::keyword_vertices_in_subtree_into`]: child subtrees whose
    /// keyword signature is missing either bit of `mask` provably contain
    /// no carrier of `w` and are skipped wholesale. Output is identical to
    /// the unpruned walk (signatures have no false negatives); only the
    /// traversal differs. Checks the cooperative cancel token every
    /// [`CANCEL_CHECK_INTERVAL`] visited nodes so `timeout_ms` deadlines
    /// fire mid-walk on large subtrees; on cancellation the partially
    /// collected (unsorted) output must be discarded by the caller.
    pub fn keyword_vertices_in_subtree_pruned_into(
        &self,
        id: NodeId,
        w: KeywordId,
        mask: &KeywordSignature,
        stack: &mut Vec<NodeId>,
        out: &mut Vec<VertexId>,
    ) -> KeywordWalkStats {
        out.clear();
        stack.clear();
        let mut stats = KeywordWalkStats::default();
        if !self.nodes[id.index()].signature.contains_all(mask) {
            stats.subtrees_pruned = 1;
            return stats;
        }
        stats.signature_hits = 1;
        stack.push(id);
        while let Some(nid) = stack.pop() {
            stats.nodes_visited += 1;
            if stats.nodes_visited & (CANCEL_CHECK_INTERVAL - 1) == 0 && cx_par::task::cancelled()
            {
                stats.cancelled = true;
                return stats;
            }
            let node = &self.nodes[nid.index()];
            out.extend_from_slice(node.vertices_with(w));
            for &c in &node.children {
                if self.nodes[c.index()].signature.contains_all(mask) {
                    stats.signature_hits += 1;
                    stack.push(c);
                } else {
                    stats.subtrees_pruned += 1;
                }
            }
        }
        out.sort_unstable();
        stats
    }

    /// Convenience: vertices carrying `w` within the connected k-core of `q`.
    pub fn keyword_vertices_in_k_core(
        &self,
        q: VertexId,
        k: u32,
        w: KeywordId,
    ) -> Option<Vec<VertexId>> {
        self.subtree_root_for(q, k).map(|r| self.keyword_vertices_in_subtree(r, w))
    }

    /// Occurrence counts of every keyword within the subtree of `id`.
    pub fn keyword_counts_in_subtree(&self, id: NodeId) -> HashMap<KeywordId, usize> {
        let mut counts = HashMap::new();
        let mut stack = vec![id];
        while let Some(nid) = stack.pop() {
            let node = &self.nodes[nid.index()];
            for (&w, vs) in node.inverted.iter() {
                *counts.entry(w).or_insert(0) += vs.len();
            }
            stack.extend_from_slice(&node.children);
        }
        counts
    }

    /// Height of the tree (root counts as 1; 1 for a single-node tree).
    pub fn height(&self) -> usize {
        fn depth(nodes: &[ClTreeNode], id: NodeId) -> usize {
            1 + nodes[id.index()]
                .children
                .iter()
                .map(|&c| depth(nodes, c))
                .max()
                .unwrap_or(0)
        }
        if self.nodes.is_empty() {
            0
        } else {
            depth(&self.nodes, self.root)
        }
    }

    /// Approximate heap footprint of the index in bytes — used by the
    /// linear-space experiment (E6).
    pub fn memory_bytes(&self) -> usize {
        let mut total = self.nodes.capacity() * std::mem::size_of::<ClTreeNode>()
            + self.node_of.len() * std::mem::size_of::<NodeId>()
            + self.core.len() * std::mem::size_of::<u32>();
        for n in &self.nodes {
            total += n.vertices.len() * std::mem::size_of::<VertexId>()
                + n.children.len() * std::mem::size_of::<NodeId>();
            for vs in n.inverted.values() {
                total += vs.len() * std::mem::size_of::<VertexId>()
                    + std::mem::size_of::<KeywordId>()
                    + std::mem::size_of::<usize>();
            }
        }
        total
    }

    /// Iterates all nodes with their ids.
    pub fn iter_nodes(&self) -> impl Iterator<Item = (NodeId, &ClTreeNode)> + '_ {
        self.nodes.iter().enumerate().map(|(i, n)| (NodeId(i as u32), n))
    }
}

/// How many visited nodes a pruned keyword walk processes between
/// cooperative-cancellation checks (power of two; the check is a
/// thread-local read, this just keeps it off the per-node fast path).
pub const CANCEL_CHECK_INTERVAL: u32 = 64;

/// Traversal statistics of one signature-pruned keyword walk, fed into
/// the `cx_acq_subtrees_pruned_total` / `cx_acq_signature_hits_total`
/// metric families by the ACQ verifier.
#[derive(Debug, Default, Clone, Copy)]
pub struct KeywordWalkStats {
    /// Nodes actually visited (vertices collected from).
    pub nodes_visited: u32,
    /// Subtrees skipped because their signature excluded the keyword.
    pub subtrees_pruned: u32,
    /// Signature tests that passed (the subtree was descended into).
    pub signature_hits: u32,
    /// The cooperative cancel token fired mid-walk; `out` is partial and
    /// unsorted and must be discarded.
    pub cancelled: bool,
}

/// One component's bottom-up subtree: a local node arena (ids local to the
/// arena) plus the top anchor — `None` for isolated (core-0) vertices,
/// which the level-0 root assembly picks up directly.
struct ComponentSubtree {
    nodes: Vec<ClTreeNode>,
    top: Option<NodeId>,
}

/// The anchored union-find sweep of the sequential builder, restricted to
/// one connected component. `local` maps global vertex ids to
/// component-local union-find slots. Node numbering inside the arena is
/// deterministic (levels descend; roots sorted by local representative),
/// so the caller's component-ordered concatenation is thread-count
/// independent.
fn build_component_subtree(
    g: &AttributedGraph,
    comp: &[VertexId],
    core: &[u32],
    local: &[u32],
) -> ComponentSubtree {
    let comp_max = comp.iter().map(|&v| core[v.index()]).max().unwrap_or(0);
    if comp_max == 0 {
        // A lone isolated vertex: no arena, handled by the root assembly.
        return ComponentSubtree { nodes: Vec::new(), top: None };
    }
    // Component vertices grouped by core number.
    let mut levels: Vec<Vec<VertexId>> = vec![Vec::new(); comp_max as usize + 1];
    for &v in comp {
        levels[core[v.index()] as usize].push(v);
    }

    let mut nodes: Vec<ClTreeNode> = Vec::new();
    let mut uf = UnionFind::new(comp.len());
    // Current component anchors: local union-find representative → node id.
    let mut anchors: HashMap<u32, NodeId> = HashMap::new();

    for k in (1..=comp_max).rev() {
        // Snapshot anchors before this level's unions change representatives.
        let snapshot: Vec<(u32, NodeId)> =
            anchors.iter().map(|(&rep, &nid)| (rep, nid)).collect();

        // Union every edge from a level-k vertex to a vertex of core ≥ k.
        for &v in &levels[k as usize] {
            for &u in g.neighbors(v) {
                if core[u.index()] >= k {
                    uf.union(local[v.index()], local[u.index()]);
                }
            }
        }

        // Regroup old anchors and the new level-k vertices by new root.
        let mut child_anchors: HashMap<u32, Vec<NodeId>> = HashMap::new();
        for (rep, nid) in snapshot {
            child_anchors.entry(uf.find(rep)).or_default().push(nid);
        }
        let mut new_vertices: HashMap<u32, Vec<VertexId>> = HashMap::new();
        for &v in &levels[k as usize] {
            new_vertices.entry(uf.find(local[v.index()])).or_default().push(v);
        }

        let mut next_anchors: HashMap<u32, NodeId> = HashMap::new();
        let mut roots: Vec<u32> = child_anchors.keys().copied().collect();
        for &r in new_vertices.keys() {
            if !child_anchors.contains_key(&r) {
                roots.push(r);
            }
        }
        // Deterministic node numbering regardless of hash order.
        roots.sort_unstable();
        for root in roots {
            let mut verts = new_vertices.remove(&root).unwrap_or_default();
            let mut kids = child_anchors.remove(&root).unwrap_or_default();
            if verts.is_empty() && kids.len() == 1 {
                // Component unchanged at this level: no node, carry forward.
                next_anchors.insert(root, kids[0]);
                continue;
            }
            verts.sort_unstable();
            kids.sort_unstable();
            let nid = NodeId(nodes.len() as u32);
            for &kid in &kids {
                nodes[kid.index()].parent = Some(nid);
            }
            nodes.push(ClTreeNode {
                level: k,
                parent: None,
                children: kids,
                vertices: verts,
                inverted: Default::default(),
                signature: KeywordSignature::EMPTY,
            });
            next_anchors.insert(root, nid);
        }
        anchors = next_anchors;
    }

    // A connected component with any edge is fully joined at level 1.
    debug_assert_eq!(anchors.len(), 1, "component not fully anchored");
    let top = anchors.into_values().next();
    ComponentSubtree { nodes, top }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cx_datagen::figure5_graph;
    use cx_graph::GraphBuilder;

    #[test]
    fn figure5_tree_matches_paper() {
        let g = figure5_graph();
        let t = ClTree::build(&g);
        assert_eq!(t.max_core(), 3);

        let label = |l: &str| g.vertex_by_label(l).unwrap();
        let names = |vs: &[VertexId]| -> Vec<&str> { vs.iter().map(|&v| g.label(v)).collect() };

        // Root is the level-0 node holding exactly J.
        let root = t.node(t.root());
        assert_eq!(root.level, 0);
        assert_eq!(names(&root.vertices), vec!["J"]);
        // Root has two children: the ABCDEFG component (level 1, holding F,G)
        // and the H–I pair (level 1).
        assert_eq!(root.children.len(), 2);
        let kids: Vec<&ClTreeNode> = root.children.iter().map(|&c| t.node(c)).collect();
        assert!(kids.iter().all(|n| n.level == 1));
        let mut kid_vertices: Vec<Vec<&str>> = kids.iter().map(|n| names(&n.vertices)).collect();
        kid_vertices.sort();
        assert_eq!(kid_vertices, vec![vec!["F", "G"], vec!["H", "I"]]);

        // Under {F,G}: level-2 node {E}; under it, level-3 node {A,B,C,D}.
        let fg = kids.iter().find(|n| names(&n.vertices).contains(&"F")).unwrap();
        assert_eq!(fg.children.len(), 1);
        let e_node = t.node(fg.children[0]);
        assert_eq!(e_node.level, 2);
        assert_eq!(names(&e_node.vertices), vec!["E"]);
        assert_eq!(e_node.children.len(), 1);
        let abcd = t.node(e_node.children[0]);
        assert_eq!(abcd.level, 3);
        assert_eq!(names(&abcd.vertices), vec!["A", "B", "C", "D"]);
        assert!(abcd.children.is_empty());

        // Five nodes total, height 4, exactly as in Figure 5(b).
        assert_eq!(t.node_count(), 5);
        assert_eq!(t.height(), 4);

        // Core numbers per the figure's table.
        for (l, k) in [("A", 3), ("B", 3), ("C", 3), ("D", 3), ("E", 2), ("F", 1), ("G", 1), ("H", 1), ("I", 1), ("J", 0)] {
            assert_eq!(t.core(label(l)), k, "core of {l}");
        }
    }

    #[test]
    fn figure5_connected_k_cores() {
        let g = figure5_graph();
        let t = ClTree::build(&g);
        let label = |l: &str| g.vertex_by_label(l).unwrap();
        let names = |vs: Vec<VertexId>| -> Vec<String> {
            vs.into_iter().map(|v| g.label(v).to_owned()).collect()
        };

        assert_eq!(names(t.connected_k_core(label("A"), 3).unwrap()), ["A", "B", "C", "D"]);
        assert_eq!(
            names(t.connected_k_core(label("A"), 2).unwrap()),
            ["A", "B", "C", "D", "E"]
        );
        assert_eq!(
            names(t.connected_k_core(label("A"), 1).unwrap()),
            ["A", "B", "C", "D", "E", "F", "G"]
        );
        assert_eq!(names(t.connected_k_core(label("H"), 1).unwrap()), ["H", "I"]);
        assert!(t.connected_k_core(label("E"), 3).is_none());
        assert!(t.connected_k_core(label("J"), 1).is_none());
        // k = 0 from any vertex reaches the whole graph through the root.
        assert_eq!(t.connected_k_core(label("J"), 0).unwrap().len(), 10);
    }

    #[test]
    fn figure5_inverted_lists() {
        let g = figure5_graph();
        let t = ClTree::build(&g);
        let a = g.vertex_by_label("A").unwrap();
        let x = g.interner().get("x").unwrap();
        let y = g.interner().get("y").unwrap();
        let w = g.interner().get("w").unwrap();

        // In the 2-core of A ({A,B,C,D,E}): x carried by A,B,C,D; w only by A.
        let xs = t.keyword_vertices_in_k_core(a, 2, x).unwrap();
        assert_eq!(xs.len(), 4);
        let ws = t.keyword_vertices_in_k_core(a, 2, w).unwrap();
        assert_eq!(ws, vec![a]);
        // Keyword counts over the 3-core subtree.
        let root3 = t.subtree_root_for(a, 3).unwrap();
        let counts = t.keyword_counts_in_subtree(root3);
        assert_eq!(counts.get(&x), Some(&4));
        assert_eq!(counts.get(&y), Some(&3)); // A, C, D
    }

    #[test]
    fn two_disjoint_triangles_get_empty_root() {
        let mut b = GraphBuilder::new();
        for i in 0..6 {
            b.add_vertex(&format!("v{i}"), &[]);
        }
        for (x, y) in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)] {
            b.add_edge(VertexId(x), VertexId(y));
        }
        let t = ClTree::build(&b.build());
        let root = t.node(t.root());
        assert_eq!(root.level, 0);
        assert!(root.vertices.is_empty());
        assert_eq!(root.children.len(), 2);
        assert_eq!(t.node_count(), 3);
    }

    #[test]
    fn single_component_root_is_top_anchor() {
        // A triangle alone: one node at level 2, which IS the root.
        let mut b = GraphBuilder::new();
        for i in 0..3 {
            b.add_vertex(&format!("v{i}"), &[]);
        }
        for (x, y) in [(0, 1), (1, 2), (0, 2)] {
            b.add_edge(VertexId(x), VertexId(y));
        }
        let t = ClTree::build(&b.build());
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.node(t.root()).level, 2);
        assert_eq!(t.height(), 1);
        assert_eq!(t.connected_k_core(VertexId(0), 2).unwrap().len(), 3);
        assert_eq!(t.connected_k_core(VertexId(0), 1).unwrap().len(), 3);
    }

    #[test]
    fn empty_graph_builds_a_root() {
        let t = ClTree::build(&GraphBuilder::new().build());
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.max_core(), 0);
        assert_eq!(t.height(), 1);
        assert!(t.node(t.root()).vertices.is_empty());
    }

    #[test]
    fn level_skipping_chain_is_compressed() {
        // K5 (4-core) plus a path attached: levels 4 and 1 exist, 2-3 are
        // skipped — the walk-up still answers k=2 and k=3 correctly.
        let mut b = GraphBuilder::new();
        for i in 0..8 {
            b.add_vertex(&format!("v{i}"), &[]);
        }
        for i in 0..5u32 {
            for j in (i + 1)..5 {
                b.add_edge(VertexId(i), VertexId(j));
            }
        }
        b.add_edge(VertexId(4), VertexId(5));
        b.add_edge(VertexId(5), VertexId(6));
        b.add_edge(VertexId(6), VertexId(7));
        let g = b.build();
        let t = ClTree::build(&g);
        let k5: Vec<VertexId> = (0..5).map(VertexId).collect();
        assert_eq!(t.connected_k_core(VertexId(0), 4).unwrap(), k5);
        assert_eq!(t.connected_k_core(VertexId(0), 3).unwrap(), k5);
        assert_eq!(t.connected_k_core(VertexId(0), 2).unwrap(), k5);
        assert_eq!(t.connected_k_core(VertexId(0), 1).unwrap().len(), 8);
        // No nodes exist at level 2 or 3.
        assert!(t.iter_nodes().all(|(_, n)| n.level != 2 && n.level != 3));
    }

    #[test]
    fn every_vertex_lives_in_exactly_one_node() {
        let g = figure5_graph();
        let t = ClTree::build(&g);
        let mut seen = vec![0usize; g.vertex_count()];
        for (_, n) in t.iter_nodes() {
            for &v in &n.vertices {
                seen[v.index()] += 1;
            }
        }
        assert!(seen.iter().all(|&c| c == 1), "vertex node multiplicity {seen:?}");
        // node_of agrees with the node listing.
        for v in g.vertices() {
            let nid = t.node_of(v);
            assert!(t.node(nid).vertices.contains(&v));
            assert_eq!(t.node(nid).level, t.core(v));
        }
    }

    #[test]
    fn memory_is_reported() {
        let g = figure5_graph();
        let t = ClTree::build(&g);
        assert!(t.memory_bytes() > 0);
    }

    #[test]
    fn signatures_cover_exactly_the_subtree_keywords() {
        let g = figure5_graph();
        let t = ClTree::build(&g);
        for (id, node) in t.iter_nodes() {
            let counts = t.keyword_counts_in_subtree(id);
            // Soundness: every keyword present in the subtree tests positive.
            for &w in counts.keys() {
                assert!(
                    node.signature.contains_all(&KeywordSignature::mask_of(w)),
                    "keyword {w:?} missing from signature of node {id:?}"
                );
            }
            // A leaf with no keywords has an empty signature.
            if counts.is_empty() {
                assert!(node.signature.is_empty());
            }
        }
    }

    #[test]
    fn pruned_walk_matches_plain_walk_and_prunes() {
        // Two K4s joined through a degree-2 middle vertex: the 3-core has
        // two components (the K4s), children of the level-2 {m} node.
        // Keyword "a" lives only in the left K4, so its walk must prune
        // the right subtree and still return the identical carrier list.
        let mut b = GraphBuilder::new();
        for i in 0..4 {
            b.add_vertex(&format!("l{i}"), &["a", "common"]);
        }
        for i in 0..4 {
            b.add_vertex(&format!("r{i}"), &["b", "common"]);
        }
        b.add_vertex("m", &["common"]);
        for base in [0u32, 4] {
            for x in 0..4u32 {
                for y in (x + 1)..4 {
                    b.add_edge(VertexId(base + x), VertexId(base + y));
                }
            }
        }
        b.add_edge(VertexId(0), VertexId(8));
        b.add_edge(VertexId(4), VertexId(8));
        let g = b.build();
        let t = ClTree::build(&g);
        assert_eq!(t.core(VertexId(8)), 2);
        assert_eq!(t.node(t.subtree_root_for(VertexId(0), 1).unwrap()).children.len(), 2);
        let root1 = t.subtree_root_for(VertexId(0), 1).unwrap();
        let (mut stack, mut plain, mut pruned) = (Vec::new(), Vec::new(), Vec::new());
        let mut total_pruned = 0;
        for name in ["a", "b", "common", "absent-everywhere"] {
            let Some(w) = g.interner().get(name) else {
                continue;
            };
            t.keyword_vertices_in_subtree_into(root1, w, &mut stack, &mut plain);
            let stats = t.keyword_vertices_in_subtree_pruned_into(
                root1,
                w,
                &KeywordSignature::mask_of(w),
                &mut stack,
                &mut pruned,
            );
            assert_eq!(plain, pruned, "pruned walk diverged for {name}");
            assert!(!stats.cancelled);
            total_pruned += stats.subtrees_pruned;
        }
        assert!(total_pruned >= 2, "expected the opposite triangle to be pruned");
    }
}
