//! Node connection classes.
//!
//! Section V.B of the paper classifies users by combining their address type
//! (public / private) with whether incoming TCP connections to them succeed:
//!
//! * **Direct-connect** — public address, accepts incoming;
//! * **UPnP** — private address behind a UPnP device, effectively public;
//! * **NAT** — private address, outgoing connections only;
//! * **Firewall** — public address, outgoing connections only.
//!
//! We add the infrastructure roles `Server` (one of the 24 dedicated
//! 100 Mbps helpers of §V.A) and `Source` (the broadcast origin).

/// Connection class of a node.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum NodeClass {
    /// Public address, accepts incoming partners.
    DirectConnect,
    /// Private address with UPnP port mapping; behaves as public.
    Upnp,
    /// Private address; can only initiate partnerships.
    Nat,
    /// Public address behind a restrictive firewall; outgoing only.
    Firewall,
    /// Dedicated helper server (always reachable, large capacity).
    Server,
    /// The broadcast source.
    Source,
}

impl NodeClass {
    /// Whether the node unconditionally accepts incoming connection
    /// attempts (the paper's direct-connect/UPnP "public" peers, plus
    /// infrastructure).
    #[inline]
    pub fn accepts_incoming(self) -> bool {
        matches!(
            self,
            NodeClass::DirectConnect | NodeClass::Upnp | NodeClass::Server | NodeClass::Source
        )
    }

    /// Whether this is a user peer (as opposed to infrastructure).
    #[inline]
    pub fn is_user(self) -> bool {
        !matches!(self, NodeClass::Server | NodeClass::Source)
    }

    /// The paper's "public" user classes (direct-connect + UPnP).
    #[inline]
    pub fn is_public_user(self) -> bool {
        matches!(self, NodeClass::DirectConnect | NodeClass::Upnp)
    }

    /// Short stable label used in log strings and report tables.
    pub fn label(self) -> &'static str {
        match self {
            NodeClass::DirectConnect => "direct",
            NodeClass::Upnp => "upnp",
            NodeClass::Nat => "nat",
            NodeClass::Firewall => "firewall",
            NodeClass::Server => "server",
            NodeClass::Source => "source",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reachability_matches_paper_definitions() {
        assert!(NodeClass::DirectConnect.accepts_incoming());
        assert!(NodeClass::Upnp.accepts_incoming());
        assert!(!NodeClass::Nat.accepts_incoming());
        assert!(!NodeClass::Firewall.accepts_incoming());
        assert!(NodeClass::Server.accepts_incoming());
        assert!(NodeClass::Source.accepts_incoming());
    }

    #[test]
    fn user_and_public_partitions() {
        for c in [
            NodeClass::DirectConnect,
            NodeClass::Upnp,
            NodeClass::Nat,
            NodeClass::Firewall,
        ] {
            assert!(c.is_user());
        }
        assert!(!NodeClass::Server.is_user());
        assert!(!NodeClass::Source.is_user());
        assert!(NodeClass::DirectConnect.is_public_user());
        assert!(NodeClass::Upnp.is_public_user());
        assert!(!NodeClass::Nat.is_public_user());
        assert!(!NodeClass::Firewall.is_public_user());
    }
}
