//! Node identifiers.

use core::fmt;

/// Unique identifier of a node (peer, server, or source) in the overlay.
///
/// Ids are dense `u32` indices assigned by [`crate::Network`] and never
/// reused within a run, so a `NodeId` doubles as a stable user identity for
/// log analysis.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}
