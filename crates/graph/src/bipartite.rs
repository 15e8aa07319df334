//! Bipartite user–item review graph in CSR-like form.
//!
//! Nodes are users and items; edges are reviews. The graph stores, per user
//! and per item, the indices of incident reviews, plus per-edge endpoints —
//! the structure both SpEagle-style belief propagation and REV2's
//! fixed-point iterations walk.

use rrre_data::{Dataset, ItemId, UserId};

/// One edge (review) of the graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    /// Authoring user.
    pub user: UserId,
    /// Reviewed item.
    pub item: ItemId,
    /// Star rating of the review.
    pub rating: f32,
    /// Index of the review in the originating dataset.
    pub review_idx: usize,
}

/// The bipartite review graph over a subset of a dataset's reviews.
#[derive(Debug, Clone)]
pub struct ReviewGraph {
    n_users: usize,
    n_items: usize,
    edges: Vec<Edge>,
    user_edges: Vec<Vec<usize>>,
    item_edges: Vec<Vec<usize>>,
}

impl ReviewGraph {
    /// Builds the graph from the listed review indices of a dataset (e.g. a
    /// training split). Users/items keep the dataset's dense id space.
    pub fn from_dataset(ds: &Dataset, review_indices: &[usize]) -> Self {
        let mut edges = Vec::with_capacity(review_indices.len());
        let mut user_edges: Vec<Vec<usize>> = vec![Vec::new(); ds.n_users];
        let mut item_edges: Vec<Vec<usize>> = vec![Vec::new(); ds.n_items];
        for &ri in review_indices {
            let r = &ds.reviews[ri];
            let e = edges.len();
            edges.push(Edge { user: r.user, item: r.item, rating: r.rating, review_idx: ri });
            user_edges[r.user.index()].push(e);
            item_edges[r.item.index()].push(e);
        }
        Self { n_users: ds.n_users, n_items: ds.n_items, edges, user_edges, item_edges }
    }

    /// Number of user nodes.
    pub fn n_users(&self) -> usize {
        self.n_users
    }

    /// Number of item nodes.
    pub fn n_items(&self) -> usize {
        self.n_items
    }

    /// All edges.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Number of edges.
    pub fn n_edges(&self) -> usize {
        self.edges.len()
    }

    /// Edge indices incident to a user.
    pub fn user_edges(&self, user: UserId) -> &[usize] {
        &self.user_edges[user.index()]
    }

    /// Edge indices incident to an item.
    pub fn item_edges(&self, item: ItemId) -> &[usize] {
        &self.item_edges[item.index()]
    }

    /// Degree of a user node.
    pub fn user_degree(&self, user: UserId) -> usize {
        self.user_edges[user.index()].len()
    }

    /// Degree of an item node.
    pub fn item_degree(&self, item: ItemId) -> usize {
        self.item_edges[item.index()].len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrre_data::{Label, Review};

    fn dataset() -> Dataset {
        let reviews = vec![
            Review { user: UserId(0), item: ItemId(0), rating: 5.0, label: Label::Benign, timestamp: 0, text: String::new() },
            Review { user: UserId(0), item: ItemId(1), rating: 1.0, label: Label::Fake, timestamp: 1, text: String::new() },
            Review { user: UserId(1), item: ItemId(0), rating: 3.0, label: Label::Benign, timestamp: 2, text: String::new() },
        ];
        Dataset::new("t", 2, 2, reviews)
    }

    #[test]
    fn builds_adjacency() {
        let ds = dataset();
        let g = ReviewGraph::from_dataset(&ds, &[0, 1, 2]);
        assert_eq!(g.n_edges(), 3);
        assert_eq!(g.user_degree(UserId(0)), 2);
        assert_eq!(g.item_degree(ItemId(0)), 2);
        assert_eq!(g.user_edges(UserId(1)), &[2]);
    }

    #[test]
    fn subset_respected() {
        let ds = dataset();
        let g = ReviewGraph::from_dataset(&ds, &[0, 2]);
        assert_eq!(g.n_edges(), 2);
        assert_eq!(g.user_degree(UserId(0)), 1);
        assert_eq!(g.edges()[1].review_idx, 2);
    }
}
