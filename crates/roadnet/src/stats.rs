//! Descriptive statistics of a road network.
//!
//! Used by the benchmark harness to document the synthetic maps that replace
//! the paper's commercial navigation map (number of intersections, link
//! lengths, intersection degrees — the quantities that drive how often the
//! map-based predictor has to guess at an intersection).

use crate::network::RoadNetwork;
use std::fmt;

/// Summary statistics of a [`RoadNetwork`].
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkStats {
    /// Number of intersections.
    pub nodes: usize,
    /// Number of links.
    pub links: usize,
    /// Total length of all links, metres.
    pub total_length_m: f64,
    /// Mean link length, metres (0 for an empty network).
    pub mean_link_length_m: f64,
    /// Length of the shortest link, metres.
    pub min_link_length_m: f64,
    /// Length of the longest link, metres.
    pub max_link_length_m: f64,
    /// Mean node degree.
    pub mean_degree: f64,
    /// Maximum node degree.
    pub max_degree: usize,
    /// Number of true intersections (degree ≥ 3), where the predictor must
    /// choose an outgoing link.
    pub decision_nodes: usize,
    /// Total number of shape points across all links.
    pub shape_points: usize,
}

impl NetworkStats {
    /// Computes the statistics of `network`.
    pub fn of(network: &RoadNetwork) -> Self {
        let links = network.links();
        let nodes = network.nodes();
        let total_length_m = network.total_length();
        let (mut min_l, mut max_l) = (f64::INFINITY, 0.0f64);
        let mut shape_points = 0usize;
        for l in links {
            min_l = min_l.min(l.length());
            max_l = max_l.max(l.length());
            shape_points += l.shape_point_count();
        }
        if links.is_empty() {
            min_l = 0.0;
        }
        let mut degree_sum = 0usize;
        let mut max_degree = 0usize;
        let mut decision_nodes = 0usize;
        for n in nodes {
            let d = network.degree(n.id);
            degree_sum += d;
            max_degree = max_degree.max(d);
            if d >= 3 {
                decision_nodes += 1;
            }
        }
        NetworkStats {
            nodes: nodes.len(),
            links: links.len(),
            total_length_m,
            mean_link_length_m: if links.is_empty() {
                0.0
            } else {
                total_length_m / links.len() as f64
            },
            min_link_length_m: min_l,
            max_link_length_m: max_l,
            mean_degree: if nodes.is_empty() {
                0.0
            } else {
                degree_sum as f64 / nodes.len() as f64
            },
            max_degree,
            decision_nodes,
            shape_points,
        }
    }
}

impl fmt::Display for NetworkStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "nodes:            {}", self.nodes)?;
        writeln!(f, "links:            {}", self.links)?;
        writeln!(f, "total length:     {:.1} km", self.total_length_m / 1000.0)?;
        writeln!(f, "mean link length: {:.1} m", self.mean_link_length_m)?;
        writeln!(
            f,
            "link length span: {:.1} – {:.1} m",
            self.min_link_length_m, self.max_link_length_m
        )?;
        writeln!(f, "mean degree:      {:.2}", self.mean_degree)?;
        writeln!(f, "max degree:       {}", self.max_degree)?;
        writeln!(f, "decision nodes:   {}", self.decision_nodes)?;
        write!(f, "shape points:     {}", self.shape_points)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetworkBuilder;
    use crate::link::RoadClass;
    use mbdr_geo::Point;

    #[test]
    fn stats_of_empty_network_are_zero() {
        let s = NetworkStats::of(&RoadNetwork::empty());
        assert_eq!(s.nodes, 0);
        assert_eq!(s.links, 0);
        assert_eq!(s.total_length_m, 0.0);
        assert_eq!(s.mean_link_length_m, 0.0);
        assert_eq!(s.min_link_length_m, 0.0);
    }

    #[test]
    fn stats_of_a_star_network() {
        // A hub with three 100 m spokes.
        let mut b = NetworkBuilder::new();
        let hub = b.add_node(Point::new(0.0, 0.0));
        let n1 = b.add_node(Point::new(100.0, 0.0));
        let n2 = b.add_node(Point::new(0.0, 100.0));
        let n3 = b.add_node(Point::new(-100.0, 0.0));
        b.add_straight_link(hub, n1, RoadClass::Residential);
        b.add_straight_link(hub, n2, RoadClass::Residential);
        b.add_link(hub, n3, vec![Point::new(-50.0, 10.0)], RoadClass::Residential);
        let net = b.build().unwrap();
        let s = NetworkStats::of(&net);
        assert_eq!(s.nodes, 4);
        assert_eq!(s.links, 3);
        assert_eq!(s.max_degree, 3);
        assert_eq!(s.decision_nodes, 1);
        assert_eq!(s.shape_points, 1);
        assert!(s.min_link_length_m <= s.mean_link_length_m);
        assert!(s.mean_link_length_m <= s.max_link_length_m);
        assert!((s.mean_degree - 6.0 / 4.0).abs() < 1e-9);
        let text = s.to_string();
        assert!(text.contains("decision nodes"));
    }
}
