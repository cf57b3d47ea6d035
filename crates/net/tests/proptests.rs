//! Property tests for the network substrate.

use cs_net::{
    Bandwidth, CapacityModel, ClassCapacity, ConnectivityPolicy, Coord, LatencyModel, Network,
    NodeClass,
};
use cs_sim::rng::Xoshiro256PlusPlus;
use cs_sim::SimTime;
use proptest::prelude::*;

fn any_class() -> impl Strategy<Value = NodeClass> {
    prop_oneof![
        Just(NodeClass::DirectConnect),
        Just(NodeClass::Upnp),
        Just(NodeClass::Nat),
        Just(NodeClass::Firewall),
    ]
}

proptest! {
    /// Add/remove/revive sequences keep the live set equal to a model's
    /// (double removes included), and records stay addressable forever.
    #[test]
    fn network_alive_count_is_consistent(
        seed in any::<u64>(),
        ops in proptest::collection::vec((any_class(), any::<bool>(), 0usize..20), 1..60),
    ) {
        let mut net = Network::new(ConnectivityPolicy::default(), LatencyModel::default(), seed);
        let (mut ids, mut alive) = (Vec::new(), Vec::new());
        for (class, remove, target) in ops {
            if remove && !ids.is_empty() {
                let ix = target % ids.len();
                net.remove_node(ids[ix]);
                alive[ix] = false;
            } else {
                ids.push(net.add_node(class, Bandwidth::kbps(500), SimTime::ZERO));
                alive.push(true);
            }
            let live: Vec<_> = ids.iter().zip(&alive).filter(|(_, &a)| a).map(|(&id, _)| id).collect();
            prop_assert_eq!(net.iter_alive().count(), live.len());
            prop_assert_eq!(net.iter_alive().map(|n| n.id).collect::<Vec<_>>(), live);
            prop_assert_eq!(net.total_nodes(), ids.len());
        }
        // Revive everything; every record is live again.
        for &id in &ids {
            net.revive_node(id, SimTime::from_secs(1));
        }
        prop_assert_eq!(net.iter_alive().count(), ids.len());
    }

    /// Latency samples are bounded by the model's extremes for any pair
    /// of coordinates.
    #[test]
    fn latency_bounds(seed in any::<u64>(), x1 in 0.0f64..1.0, y1 in 0.0f64..1.0, x2 in 0.0f64..1.0, y2 in 0.0f64..1.0) {
        let m = LatencyModel::default();
        let a = Coord { x: x1, y: y1 };
        let b = Coord { x: x2, y: y2 };
        let mut rng = Xoshiro256PlusPlus::new(seed);
        let max_det = m.base.as_secs_f64() + m.per_unit.as_secs_f64() * 2f64.sqrt();
        for _ in 0..20 {
            let s = m.sample(a, b, &mut rng).as_secs_f64();
            prop_assert!(s >= 0.0);
            prop_assert!(s <= max_det * (1.0 + m.jitter) + 1e-9, "sample {s}");
        }
    }

    /// Capacity samples always respect floor and cap for any class
    /// parameters.
    #[test]
    fn capacity_respects_bounds(
        median_kbps in 8u64..10_000,
        sigma in 0.0f64..2.0,
        cap_kbps in 8u64..50_000,
        seed in any::<u64>(),
    ) {
        let c = ClassCapacity {
            median: Bandwidth::kbps(median_kbps),
            sigma,
            cap: Bandwidth::kbps(cap_kbps),
        };
        let mut rng = Xoshiro256PlusPlus::new(seed);
        for _ in 0..50 {
            let s = c.sample(&mut rng);
            prop_assert!(s.as_bps() >= 8_000);
            prop_assert!(s.as_bps() <= cap_kbps * 1000 || s.as_bps() == 8_000);
        }
    }

    /// Connection attempts are consistent per target: once a node
    /// accepts, it always accepts; once it refuses, it always refuses.
    #[test]
    fn reachability_is_stable_per_node(seed in any::<u64>(), class in any_class()) {
        let mut net = Network::new(ConnectivityPolicy::default(), LatencyModel::default(), seed);
        let a = net.add_node(NodeClass::DirectConnect, Bandwidth::mbps(1), SimTime::ZERO);
        let b = net.add_node(class, Bandwidth::kbps(300), SimTime::ZERO);
        let first = net.try_connect(a, b).is_ok();
        for _ in 0..10 {
            prop_assert_eq!(net.try_connect(a, b).is_ok(), first);
        }
        if class.accepts_incoming() {
            prop_assert!(first);
        }
    }

    /// The default capacity model keeps the paper's class ordering for
    /// any seed: public classes are faster in expectation than private
    /// ones.
    #[test]
    fn class_capacity_ordering(seed in any::<u64>()) {
        let m = CapacityModel::default();
        let mut rng = Xoshiro256PlusPlus::new(seed);
        let avg = |class: NodeClass, rng: &mut Xoshiro256PlusPlus| {
            (0..300).map(|_| m.sample(class, rng).as_bps() as f64).sum::<f64>() / 300.0
        };
        let direct = avg(NodeClass::DirectConnect, &mut rng);
        let nat = avg(NodeClass::Nat, &mut rng);
        let fw = avg(NodeClass::Firewall, &mut rng);
        prop_assert!(direct > nat && direct > fw);
    }
}
