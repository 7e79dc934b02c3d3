//! Plain-text edge list (de)serialization.
//!
//! The format is a minimal, diff-friendly interchange format for graphs:
//!
//! ```text
//! # comment lines start with '#'
//! <num_nodes>
//! <node_a> <node_b> <weight>
//! ...
//! ```
//!
//! It is intentionally simple so real datasets (road networks, coauthorship
//! graphs) can be converted to it with a one-line script and loaded with
//! [`read_edge_list`]. It is the only serialized form of a [`Graph`].

use crate::builder::GraphBuilder;
use crate::error::GraphError;
use crate::graph::Graph;
use std::io::{BufRead, Write};

/// Reads a graph from the textual edge-list format.
pub fn read_edge_list<R: BufRead>(reader: R) -> Result<Graph, GraphError> {
    let mut builder: Option<GraphBuilder> = None;
    for (idx, line) in reader.lines().enumerate() {
        let line_no = idx + 1;
        let line = line.map_err(|e| GraphError::Io(e.to_string()))?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        match &mut builder {
            None => {
                let num_nodes: usize = trimmed.parse().map_err(|_| GraphError::Parse {
                    line: line_no,
                    message: format!("expected node count, got '{trimmed}'"),
                })?;
                builder = Some(GraphBuilder::new(num_nodes));
            }
            Some(b) => {
                let mut parts = trimmed.split_whitespace();
                let a: usize = parse_field(parts.next(), line_no, "source node")?;
                let bnode: usize = parse_field(parts.next(), line_no, "target node")?;
                let w: f64 = parse_field(parts.next(), line_no, "weight")?;
                if parts.next().is_some() {
                    return Err(GraphError::Parse {
                        line: line_no,
                        message: "trailing tokens after edge definition".into(),
                    });
                }
                b.add_edge(a, bnode, w)?;
            }
        }
    }
    match builder {
        Some(b) => b.build(),
        None => GraphBuilder::new(0).build(),
    }
}

fn parse_field<T: std::str::FromStr>(
    token: Option<&str>,
    line: usize,
    what: &str,
) -> Result<T, GraphError> {
    let token =
        token.ok_or_else(|| GraphError::Parse { line, message: format!("missing {what}") })?;
    token
        .parse()
        .map_err(|_| GraphError::Parse { line, message: format!("invalid {what}: '{token}'") })
}

/// Writes a graph in the textual edge-list format.
pub fn write_edge_list<W: Write>(graph: &Graph, mut writer: W) -> Result<(), GraphError> {
    writeln!(writer, "# nodes: {}, edges: {}", graph.num_nodes(), graph.num_edges())?;
    writeln!(writer, "{}", graph.num_nodes())?;
    for (_, lo, hi, w) in graph.edges() {
        writeln!(writer, "{} {} {}", lo.index(), hi.index(), w.value())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use std::io::BufReader;

    fn sample_graph() -> Graph {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 1.5).unwrap();
        b.add_edge(1, 2, 2.0).unwrap();
        b.add_edge(2, 3, 0.5).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn round_trip_preserves_graph() {
        let g = sample_graph();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let parsed = read_edge_list(BufReader::new(buf.as_slice())).unwrap();
        assert_eq!(parsed, g);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "# a comment\n\n3\n# another\n0 1 2.0\n1 2 1.0\n";
        let g = read_edge_list(BufReader::new(text.as_bytes())).unwrap();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn empty_input_gives_empty_graph() {
        let g = read_edge_list(BufReader::new("".as_bytes())).unwrap();
        assert_eq!(g.num_nodes(), 0);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let text = "3\n0 1 not_a_number\n";
        let err = read_edge_list(BufReader::new(text.as_bytes())).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 2, .. }));

        let text = "abc\n";
        let err = read_edge_list(BufReader::new(text.as_bytes())).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 1, .. }));

        let text = "3\n0 1\n";
        let err = read_edge_list(BufReader::new(text.as_bytes())).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 2, .. }));

        let text = "3\n0 1 1.0 extra\n";
        let err = read_edge_list(BufReader::new(text.as_bytes())).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 2, .. }));
    }

    #[test]
    fn invalid_edges_surface_builder_errors() {
        let text = "2\n0 5 1.0\n";
        let err = read_edge_list(BufReader::new(text.as_bytes())).unwrap_err();
        assert!(matches!(err, GraphError::NodeOutOfBounds { .. }));
    }
}
