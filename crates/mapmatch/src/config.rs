//! Map-matcher configuration.

/// Tunable parameters of the incremental map matcher.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatcherConfig {
    /// `u_m`: maximum distance (metres) between a sensed position and a link
    /// for the position to be matched to that link. "The parameter u_m
    /// determines how exact the position must be matched to a link and
    /// reflects the accuracy of the sensor system" (paper, Section 3).
    pub tolerance: f64,
    /// How many intersections backward tracking may walk back through when the
    /// current-link hypothesis turns out to be wrong.
    pub backtrack_depth: usize,
    /// Fraction of the link length (from either end) within which a clamped
    /// projection is interpreted as "the object has passed the end of the
    /// link" and forward tracking is triggered.
    pub endpoint_fraction: f64,
}

impl MatcherConfig {
    /// A configuration with the given tolerance and default tracking depths.
    pub fn with_tolerance(tolerance: f64) -> Self {
        MatcherConfig { tolerance, ..MatcherConfig::default() }
    }
}

impl Default for MatcherConfig {
    fn default() -> Self {
        MatcherConfig {
            // Generous relative to the 2–5 m DGPS accuracy: position errors
            // plus road-geometry simplification both eat into the budget.
            tolerance: 30.0,
            backtrack_depth: 2,
            endpoint_fraction: 0.02,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_sensible() {
        let c = MatcherConfig::default();
        assert!(c.tolerance > 5.0, "tolerance should exceed the sensor error");
        assert!(c.backtrack_depth >= 1);
        assert!(c.endpoint_fraction > 0.0 && c.endpoint_fraction < 0.5);
    }

    #[test]
    fn with_tolerance_overrides_only_the_tolerance() {
        let c = MatcherConfig::with_tolerance(15.0);
        assert_eq!(c.tolerance, 15.0);
        assert_eq!(c.backtrack_depth, MatcherConfig::default().backtrack_depth);
    }
}
