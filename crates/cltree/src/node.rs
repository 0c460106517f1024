//! CL-tree node structure.

use std::collections::HashMap;
use std::sync::Arc;

use cx_graph::{KeywordId, VertexId};

use crate::signature::KeywordSignature;

/// Index of a node within its [`crate::ClTree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The id as a usize for indexing the tree's node table.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One CL-tree node: a connected component of the `level`-core, storing the
/// vertices whose core number equals `level` plus an inverted keyword list
/// over exactly those vertices.
#[derive(Debug, Clone)]
pub struct ClTreeNode {
    /// The k this node's component belongs to.
    pub level: u32,
    /// Parent node (a component of some lower-level core), `None` for the root.
    pub parent: Option<NodeId>,
    /// Child nodes (higher-level core components nested in this one).
    pub children: Vec<NodeId>,
    /// Vertices with core number == `level` in this component, sorted.
    pub vertices: Vec<VertexId>,
    /// Keyword → sorted vertices *of this node* carrying it. The map and
    /// each posting list are `Arc`-shared so that [`crate::ClTree::update`]
    /// carries an unchanged node's index into the successor tree without
    /// copying it, and patches a changed one by rebuilding only the lists
    /// of the keywords its moved vertices carry (keyword sets are
    /// immutable under edge edits, so the map is determined by the
    /// vertex list).
    pub inverted: Arc<HashMap<KeywordId, Arc<[VertexId]>>>,
    /// Bloom-style signature of every keyword in this node's *subtree*
    /// (own inverted lists ∪ all descendants). No false negatives, so a
    /// missing bit proves a keyword's absence and lets query walks skip
    /// the subtree. Computed at build and snapshot-load time, and
    /// recomputed by [`crate::ClTree::update`] only along repaired paths;
    /// carried nodes keep it by clone.
    pub signature: KeywordSignature,
}

impl ClTreeNode {
    /// Builds the node's inverted list from a keyword accessor.
    pub(crate) fn index_keywords<'a>(
        &mut self,
        keywords_of: impl Fn(VertexId) -> &'a [KeywordId],
    ) {
        let mut map: HashMap<KeywordId, Vec<VertexId>> = HashMap::new();
        for &v in &self.vertices {
            for &w in keywords_of(v) {
                map.entry(w).or_default().push(v);
            }
        }
        // Vertices were iterated in sorted order, so each list is sorted.
        self.inverted = Arc::new(map.into_iter().map(|(w, vs)| (w, Arc::from(vs))).collect());
    }

    /// Vertices of this node carrying keyword `w`.
    pub fn vertices_with(&self, w: KeywordId) -> &[VertexId] {
        self.inverted.get(&w).map_or(&[], |vs| vs)
    }

    /// Number of distinct keywords appearing in this node.
    pub fn keyword_count(&self) -> usize {
        self.inverted.len()
    }

    /// Exact number of this node's own vertices carrying `w` — the
    /// per-node keyword-count summary the verifier's short-circuit sums
    /// during a pruned walk.
    pub fn keyword_support(&self, w: KeywordId) -> usize {
        self.vertices_with(w).len()
    }
}
