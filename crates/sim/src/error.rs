//! Simulator errors.

use std::fmt;

use dima_graph::VertexId;

/// Errors surfaced by the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The protocol did not terminate within the configured round budget.
    /// For the probabilistic DiMa algorithms this has vanishing
    /// probability at the default budget; hitting it indicates either an
    /// adversarial configuration or a protocol bug.
    MaxRoundsExceeded {
        /// The configured limit that was reached.
        max_rounds: u64,
        /// How many nodes were still active.
        still_active: usize,
    },
    /// A node attempted to unicast to a non-neighbor (violates the
    /// one-hop model). Only raised when `validate_sends` is enabled.
    NotANeighbor {
        /// The sending node.
        from: VertexId,
        /// The invalid recipient.
        to: VertexId,
    },
    /// The topology has more nodes than the message plane can address
    /// (node ids share a word with a routing tag).
    TooManyNodes {
        /// The topology's node count.
        nodes: usize,
        /// The exclusive upper bound on the node count.
        limit: usize,
    },
    /// The operating system refused to start a worker thread for the
    /// engine's pool.
    WorkerSpawn {
        /// The operating system's error, as text.
        error: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::MaxRoundsExceeded { max_rounds, still_active } => write!(
                f,
                "protocol did not terminate within {max_rounds} rounds \
                 ({still_active} nodes still active)"
            ),
            SimError::NotANeighbor { from, to } => {
                write!(f, "node {from} tried to send to non-neighbor {to}")
            }
            SimError::TooManyNodes { nodes, limit } => {
                write!(f, "topology has {nodes} nodes; the engine runs fewer than {limit}")
            }
            SimError::WorkerSpawn { error } => write!(f, "could not start a pool worker: {error}"),
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = SimError::MaxRoundsExceeded { max_rounds: 10, still_active: 3 };
        assert!(e.to_string().contains("10 rounds"));
        assert!(e.to_string().contains("3 nodes"));
        let e = SimError::NotANeighbor { from: VertexId(1), to: VertexId(2) };
        assert!(e.to_string().contains("non-neighbor"));
        let e = SimError::TooManyNodes { nodes: 1 << 31, limit: 1 << 31 };
        assert!(e.to_string().contains("2147483648 nodes"));
        let e = SimError::WorkerSpawn { error: "out of threads".into() };
        assert!(e.to_string().contains("out of threads"));
    }
}
