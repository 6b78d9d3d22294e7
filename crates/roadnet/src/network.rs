//! The road network graph.

use crate::ids::{LinkId, NodeId};
use crate::link::Link;
use crate::node::Node;
use mbdr_geo::Aabb;

/// A complete road map: intersections, links and their adjacency.
///
/// Nodes and links are stored in dense `Vec`s indexed by their ids (the
/// [`crate::NetworkBuilder`] guarantees contiguous ids), so every lookup on
/// the map-matching and prediction hot paths is an array access.
#[derive(Debug, Clone, Default)]
pub struct RoadNetwork {
    nodes: Vec<Node>,
    links: Vec<Link>,
    /// For each node (by index), the ids of all incident links.
    adjacency: Vec<Vec<LinkId>>,
}

impl RoadNetwork {
    /// Creates an empty network. Use [`crate::NetworkBuilder`] for
    /// construction with validation.
    pub fn empty() -> Self {
        RoadNetwork::default()
    }

    pub(crate) fn from_parts(nodes: Vec<Node>, links: Vec<Link>) -> Self {
        let mut adjacency = vec![Vec::new(); nodes.len()];
        for link in &links {
            adjacency[link.from.index()].push(link.id);
            adjacency[link.to.index()].push(link.id);
        }
        RoadNetwork { nodes, links, adjacency }
    }

    /// Number of intersections.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of links.
    #[inline]
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Returns `true` if the network has no links.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// The node with the given id.
    ///
    /// # Panics
    /// Panics if the id is out of range (ids handed out by this crate are
    /// always valid).
    #[inline]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// The link with the given id.
    #[inline]
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.index()]
    }

    /// The node with the given id, or `None` if out of range.
    pub fn get_node(&self, id: NodeId) -> Option<&Node> {
        self.nodes.get(id.index())
    }

    /// The link with the given id, or `None` if out of range.
    pub fn get_link(&self, id: LinkId) -> Option<&Link> {
        self.links.get(id.index())
    }

    /// All nodes in id order.
    #[inline]
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// All links in id order.
    #[inline]
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Ids of all links incident to `node` (in insertion order).
    #[inline]
    pub fn incident_links(&self, node: NodeId) -> &[LinkId] {
        &self.adjacency[node.index()]
    }

    /// Ids of the links incident to `node` except `arriving`, i.e. the
    /// candidate outgoing links the paper's forward-tracking and prediction
    /// consider when the object reaches an intersection.
    pub fn outgoing_links(&self, node: NodeId, arriving: Option<LinkId>) -> Vec<LinkId> {
        self.outgoing_links_iter(node, arriving).collect()
    }

    /// Iterator form of [`RoadNetwork::outgoing_links`]: the same candidate
    /// set without allocating a `Vec` — the per-intersection step of the
    /// map-based prediction walk, which must stay allocation-free however
    /// many link hops a prediction crosses. The underlying adjacency slice
    /// is cheap to re-iterate, so multi-pass policies (main-road priority,
    /// membership checks) call this repeatedly instead of collecting.
    pub fn outgoing_links_iter(
        &self,
        node: NodeId,
        arriving: Option<LinkId>,
    ) -> impl Iterator<Item = LinkId> + Clone + '_ {
        self.adjacency[node.index()].iter().copied().filter(move |&l| Some(l) != arriving)
    }

    /// Degree (number of incident links) of a node.
    #[inline]
    pub fn degree(&self, node: NodeId) -> usize {
        self.adjacency[node.index()].len()
    }

    /// Ids of nodes adjacent to `node` (one hop over any incident link).
    pub fn neighbors(&self, node: NodeId) -> Vec<NodeId> {
        self.adjacency[node.index()].iter().filter_map(|&l| self.link(l).other_end(node)).collect()
    }

    /// Bounding box of the whole network, or `None` if it has no nodes.
    pub fn bounding_box(&self) -> Option<Aabb> {
        let mut bb = Aabb::from_points(self.nodes.iter().map(|n| n.position))?;
        for link in &self.links {
            bb = bb.union(&link.bounding_box());
        }
        Some(bb)
    }

    /// Total length of all links, metres.
    pub fn total_length(&self) -> f64 {
        self.links.iter().map(|l| l.length()).sum()
    }

    /// Checks structural invariants; returns a list of human-readable
    /// problems (empty = valid).
    ///
    /// Checked invariants:
    /// * link endpoints reference existing nodes,
    /// * link ids and node ids match their storage index,
    /// * link geometry starts/ends at its endpoints' positions,
    /// * no zero-length links.
    pub fn validate(&self) -> Vec<String> {
        let mut problems = Vec::new();
        for (i, node) in self.nodes.iter().enumerate() {
            if node.id.index() != i {
                problems.push(format!("node at index {i} has id {}", node.id));
            }
        }
        for (i, link) in self.links.iter().enumerate() {
            if link.id.index() != i {
                problems.push(format!("link at index {i} has id {}", link.id));
            }
            if link.from.index() >= self.nodes.len() || link.to.index() >= self.nodes.len() {
                problems.push(format!("link {} references a missing node", link.id));
                continue;
            }
            let from_pos = self.node(link.from).position;
            let to_pos = self.node(link.to).position;
            if link.geometry.first().distance(&from_pos) > 0.5 {
                problems.push(format!(
                    "link {} geometry does not start at node {}",
                    link.id, link.from
                ));
            }
            if link.geometry.last().distance(&to_pos) > 0.5 {
                problems
                    .push(format!("link {} geometry does not end at node {}", link.id, link.to));
            }
            if link.length() < 1e-6 {
                problems.push(format!("link {} has zero length", link.id));
            }
        }
        problems
    }

    /// Returns `true` if every node can reach every other node over the links
    /// (the trace generator requires a connected map to plan routes).
    pub fn is_connected(&self) -> bool {
        if self.nodes.is_empty() {
            return true;
        }
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![NodeId(0)];
        seen[0] = true;
        let mut count = 1usize;
        while let Some(n) = stack.pop() {
            for neigh in self.neighbors(n) {
                if !seen[neigh.index()] {
                    seen[neigh.index()] = true;
                    count += 1;
                    stack.push(neigh);
                }
            }
        }
        count == self.nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetworkBuilder;
    use crate::link::RoadClass;
    use mbdr_geo::Point;

    /// A triangle network with three nodes and three links.
    fn triangle() -> RoadNetwork {
        let mut b = NetworkBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(100.0, 0.0));
        let d = b.add_node(Point::new(50.0, 80.0));
        b.add_straight_link(a, c, RoadClass::Residential);
        b.add_straight_link(c, d, RoadClass::Residential);
        b.add_straight_link(d, a, RoadClass::Residential);
        b.build().expect("valid network")
    }

    #[test]
    fn counts_and_lookup() {
        let net = triangle();
        assert_eq!(net.node_count(), 3);
        assert_eq!(net.link_count(), 3);
        assert!(!net.is_empty());
        assert_eq!(net.node(NodeId(1)).position, Point::new(100.0, 0.0));
        assert!(net.get_node(NodeId(99)).is_none());
        assert!(net.get_link(LinkId(99)).is_none());
    }

    #[test]
    fn adjacency_and_outgoing_links() {
        let net = triangle();
        assert_eq!(net.degree(NodeId(0)), 2);
        let incident = net.incident_links(NodeId(0));
        assert_eq!(incident.len(), 2);
        // Excluding the arriving link leaves exactly one "outgoing" candidate.
        let out = net.outgoing_links(NodeId(0), Some(incident[0]));
        assert_eq!(out.len(), 1);
        assert_ne!(out[0], incident[0]);
        // Without an arriving link, all incident links are candidates.
        assert_eq!(net.outgoing_links(NodeId(0), None).len(), 2);
    }

    #[test]
    fn neighbors_of_triangle_node() {
        let net = triangle();
        let mut n = net.neighbors(NodeId(0));
        n.sort();
        assert_eq!(n, vec![NodeId(1), NodeId(2)]);
    }

    #[test]
    fn validation_passes_for_builder_output() {
        let net = triangle();
        assert!(net.validate().is_empty());
        assert!(net.is_connected());
    }

    #[test]
    fn bounding_box_and_total_length() {
        let net = triangle();
        let bb = net.bounding_box().unwrap();
        assert!(bb.contains(&Point::new(50.0, 40.0)));
        let expected = 100.0 + 2.0 * (50.0f64.powi(2) + 80.0f64.powi(2)).sqrt();
        assert!((net.total_length() - expected).abs() < 1e-6);
    }

    #[test]
    fn empty_network() {
        let net = RoadNetwork::empty();
        assert!(net.is_empty());
        assert!(net.bounding_box().is_none());
        assert!(net.is_connected());
        assert!(net.validate().is_empty());
    }

    #[test]
    fn disconnected_network_is_detected() {
        let mut b = NetworkBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(10.0, 0.0));
        let d = b.add_node(Point::new(1000.0, 0.0));
        let e = b.add_node(Point::new(1010.0, 0.0));
        b.add_straight_link(a, c, RoadClass::Residential);
        b.add_straight_link(d, e, RoadClass::Residential);
        let net = b.build().expect("structurally valid");
        assert!(!net.is_connected());
    }
}
