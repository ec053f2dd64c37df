//! Error types for hypergraph construction and netlist parsing.

use std::error::Error;
use std::fmt;

use crate::{EdgeId, VertexId};

/// Error building a [`Hypergraph`](crate::Hypergraph) through
/// [`HypergraphBuilder`](crate::HypergraphBuilder).
///
/// # Examples
///
/// ```
/// use fhp_hypergraph::{BuildHypergraphError, HypergraphBuilder};
///
/// let mut b = HypergraphBuilder::new();
/// let err = b.add_edge([]).unwrap_err();
/// assert!(matches!(err, BuildHypergraphError::EmptyEdge { .. }));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum BuildHypergraphError {
    /// An edge was added with no pins. Empty hyperedges have no geometric
    /// meaning in a netlist and would silently never contribute to any cut.
    EmptyEdge {
        /// The id the edge would have received.
        edge: EdgeId,
    },
    /// An edge referenced a vertex id that was never added to the builder.
    UnknownVertex {
        /// The id the edge would have received.
        edge: EdgeId,
        /// The out-of-range vertex.
        vertex: VertexId,
    },
    /// A vertex was given weight zero. Zero-weight modules break the
    /// engineer's-method balance rule (they could be shuffled freely without
    /// changing the balance objective), so they are rejected eagerly.
    ZeroVertexWeight {
        /// The offending vertex.
        vertex: VertexId,
    },
}

impl fmt::Display for BuildHypergraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::EmptyEdge { edge } => {
                write!(f, "hyperedge {edge} has no pins")
            }
            Self::UnknownVertex { edge, vertex } => {
                write!(f, "hyperedge {edge} references unknown vertex {vertex}")
            }
            Self::ZeroVertexWeight { vertex } => {
                write!(f, "vertex {vertex} has zero weight")
            }
        }
    }
}

impl Error for BuildHypergraphError {}

/// Error constructing a graph-level structure (a [`Graph`](crate::Graph)
/// or an [`IntersectionGraph`](crate::IntersectionGraph)) whose index
/// space overflows the `u32` vertex addressing.
///
/// These conditions used to be `expect`-panics deep inside construction
/// (`u32::try_from(kept.len()).expect("too many edges")` and friends);
/// they are typed now so servers partitioning untrusted inputs can reject
/// oversized instances instead of aborting.
///
/// # Examples
///
/// ```
/// use fhp_hypergraph::BuildGraphError;
///
/// let err = BuildGraphError::TooManyGVertices { found: usize::MAX };
/// assert!(err.to_string().contains("u32"));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum BuildGraphError {
    /// The dualization kept more hyperedges than `u32` G-vertex ids can
    /// address (one id, `u32::MAX`, is reserved as the "filtered"
    /// sentinel).
    TooManyGVertices {
        /// Number of kept hyperedges.
        found: usize,
    },
    /// A graph (or restricted vertex set) was declared over more vertices
    /// than `u32` indices can address.
    TooManyVertices {
        /// Declared vertex count.
        found: usize,
    },
    /// The kept hyperedges hold more pins than the `u32` offsets of the
    /// incidence lists can address.
    TooManyKeptPins {
        /// Number of kept pins.
        found: usize,
    },
}

impl fmt::Display for BuildGraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::TooManyGVertices { found } => {
                write!(
                    f,
                    "{found} kept hyperedges overflow the u32 G-vertex id space"
                )
            }
            Self::TooManyVertices { found } => {
                write!(f, "{found} vertices overflow the u32 vertex id space")
            }
            Self::TooManyKeptPins { found } => {
                write!(f, "{found} kept pins overflow the u32 incidence offsets")
            }
        }
    }
}

impl Error for BuildGraphError {}

/// Error parsing the line-oriented netlist text format.
///
/// See [`crate::netlist`] for the grammar. Every variant carries the
/// 1-based line number at which parsing failed.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ParseNetlistError {
    /// A signal line is missing the `name:` prefix.
    MissingColon {
        /// 1-based source line.
        line: usize,
    },
    /// A signal line declares no modules after the colon.
    EmptySignal {
        /// 1-based source line.
        line: usize,
        /// The signal's name.
        signal: String,
    },
    /// The same signal name appears on two lines.
    DuplicateSignal {
        /// 1-based source line of the second occurrence.
        line: usize,
        /// The repeated name.
        signal: String,
    },
    /// A `@weight` directive is malformed.
    MalformedWeight {
        /// 1-based source line.
        line: usize,
    },
    /// A `@weight` directive names a module that appears in no signal.
    UnknownModuleInWeight {
        /// 1-based source line.
        line: usize,
        /// The unknown module name.
        module: String,
    },
    /// A weight directive assigned weight zero.
    ZeroWeight {
        /// 1-based source line.
        line: usize,
        /// The module name.
        module: String,
    },
    /// The input declared no signals at all.
    EmptyNetlist,
}

impl ParseNetlistError {
    /// Returns the 1-based line number of the failure, if the error is tied
    /// to a specific line.
    pub fn line(&self) -> Option<usize> {
        match self {
            Self::MissingColon { line }
            | Self::EmptySignal { line, .. }
            | Self::DuplicateSignal { line, .. }
            | Self::MalformedWeight { line }
            | Self::UnknownModuleInWeight { line, .. }
            | Self::ZeroWeight { line, .. } => Some(*line),
            Self::EmptyNetlist => None,
        }
    }
}

impl fmt::Display for ParseNetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::MissingColon { line } => {
                write!(f, "line {line}: expected `signal: modules...`")
            }
            Self::EmptySignal { line, signal } => {
                write!(f, "line {line}: signal `{signal}` lists no modules")
            }
            Self::DuplicateSignal { line, signal } => {
                write!(f, "line {line}: duplicate signal `{signal}`")
            }
            Self::MalformedWeight { line } => {
                write!(f, "line {line}: expected `@weight module value`")
            }
            Self::UnknownModuleInWeight { line, module } => {
                write!(f, "line {line}: weight for unknown module `{module}`")
            }
            Self::ZeroWeight { line, module } => {
                write!(f, "line {line}: module `{module}` given zero weight")
            }
            Self::EmptyNetlist => write!(f, "netlist declares no signals"),
        }
    }
}

impl Error for ParseNetlistError {}

/// Error parsing the hMETIS `.hgr` format (see [`crate::hgr`]).
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ParseHgrError {
    /// No header line found.
    MissingHeader,
    /// A line could not be tokenized as expected.
    Malformed {
        /// 1-based source line.
        line: usize,
    },
    /// A hyperedge referenced a vertex outside `1..=num_vertices`.
    VertexOutOfRange {
        /// 1-based source line.
        line: usize,
        /// The out-of-range (1-based) vertex token.
        vertex: usize,
    },
    /// Fewer content lines than the header promised.
    TooFewLines {
        /// Hyperedge count the header declared.
        expected_edges: usize,
    },
    /// More content lines than the header promised.
    TrailingContent {
        /// 1-based source line of the first extra line.
        line: usize,
    },
    /// A hyperedge line listed no vertices.
    EmptyEdge {
        /// 1-based source line.
        line: usize,
    },
    /// An edge or vertex weight of zero.
    ZeroWeight {
        /// 1-based source line.
        line: usize,
    },
    /// The header declared more vertices than the parser accepts
    /// (see [`crate::hgr::MAX_DECLARED_VERTICES`]) — a corrupted or
    /// hostile header, caught before any allocation sized by it.
    DeclaredTooLarge {
        /// 1-based source line (the header).
        line: usize,
        /// The declared vertex count.
        declared: usize,
        /// The parser's limit.
        limit: usize,
    },
}

impl fmt::Display for ParseHgrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::MissingHeader => write!(f, "missing hgr header line"),
            Self::Malformed { line } => write!(f, "line {line}: malformed hgr content"),
            Self::VertexOutOfRange { line, vertex } => {
                write!(f, "line {line}: vertex {vertex} out of range")
            }
            Self::TooFewLines { expected_edges } => {
                write!(
                    f,
                    "fewer lines than the declared {expected_edges} hyperedges require"
                )
            }
            Self::TrailingContent { line } => {
                write!(f, "line {line}: content beyond the declared counts")
            }
            Self::EmptyEdge { line } => write!(f, "line {line}: hyperedge with no vertices"),
            Self::ZeroWeight { line } => write!(f, "line {line}: zero weight"),
            Self::DeclaredTooLarge {
                line,
                declared,
                limit,
            } => write!(
                f,
                "line {line}: header declares {declared} vertices, above the parser limit {limit}"
            ),
        }
    }
}

impl Error for ParseHgrError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_errors_display_lowercase_without_period() {
        let msgs = [
            BuildHypergraphError::EmptyEdge {
                edge: EdgeId::new(3),
            }
            .to_string(),
            BuildHypergraphError::UnknownVertex {
                edge: EdgeId::new(1),
                vertex: VertexId::new(9),
            }
            .to_string(),
            BuildHypergraphError::ZeroVertexWeight {
                vertex: VertexId::new(0),
            }
            .to_string(),
        ];
        for m in msgs {
            assert!(!m.is_empty());
            assert!(!m.ends_with('.'), "{m}");
            assert!(m.chars().next().unwrap().is_lowercase() || m.starts_with("hyperedge"));
        }
    }

    #[test]
    fn parse_errors_report_lines() {
        let e = ParseNetlistError::MissingColon { line: 12 };
        assert_eq!(e.line(), Some(12));
        assert!(e.to_string().contains("12"));
        assert_eq!(ParseNetlistError::EmptyNetlist.line(), None);
    }

    #[test]
    fn errors_are_std_errors() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<BuildHypergraphError>();
        assert_err::<ParseNetlistError>();
        assert_err::<BuildGraphError>();
    }

    #[test]
    fn build_graph_errors_name_the_overflowing_count() {
        let e = BuildGraphError::TooManyGVertices {
            found: 5_000_000_000,
        };
        assert!(e.to_string().contains("5000000000"));
        let e = BuildGraphError::TooManyVertices { found: 7 };
        assert!(e.to_string().contains('7'));
    }
}
