//! Property tests for unrestricted networks: the native edge-point algorithms
//! agree with running a restricted algorithm on the transformed (edge-split)
//! graph, and the unrestricted network distance is a proper metric.

mod common;

use common::unrestricted_instance;
use proptest::prelude::*;
use rnn_core::expansion::network_distance;
use rnn_core::unrestricted::{
    transform_to_restricted, unrestricted_eager_rknn, unrestricted_lazy_rknn,
    unrestricted_naive_rknn, EdgePosition,
};
use rnn_graph::PointId;

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn native_results_match_the_transformed_restricted_instance(inst in unrestricted_instance()) {
        let Ok(view) = transform_to_restricted(&inst.graph, &inst.points) else {
            // duplicate offsets on the same edge cannot be split; the native
            // algorithms still work, but the oracle does not apply.
            return Ok(());
        };
        for qi in 0..inst.points.num_points().min(3) {
            let q = PointId::new(qi);
            let q_pos = inst.points.position(q);
            let q_node = view.node_of_point[qi];
            let on_view = rnn_core::eager::eager_rknn(&view.graph, &view.points, q_node, inst.k);
            let mut mapped: Vec<PointId> = on_view
                .points
                .iter()
                .map(|&p| view.original_point(p).expect("view point maps back"))
                .collect();
            mapped.sort_unstable();
            let naive = unrestricted_naive_rknn(&inst.graph, &inst.points, &q_pos, inst.k);
            prop_assert_eq!(&naive.points, &mapped, "naive, query point {}", qi);
            let eager = unrestricted_eager_rknn(&inst.graph, &inst.points, &q_pos, inst.k);
            prop_assert_eq!(&eager.points, &mapped, "eager, query point {}", qi);
            let lazy = unrestricted_lazy_rknn(&inst.graph, &inst.points, &q_pos, inst.k);
            prop_assert_eq!(&lazy.points, &mapped, "lazy, query point {}", qi);
        }
    }

    #[test]
    fn transformation_preserves_distances_between_points(inst in unrestricted_instance()) {
        let Ok(view) = transform_to_restricted(&inst.graph, &inst.points) else {
            return Ok(());
        };
        // distance between the first two points, measured natively (through
        // the transformed graph both points are plain nodes)
        if inst.points.num_points() < 2 {
            return Ok(());
        }
        let a = view.node_of_point[0];
        let b = view.node_of_point[1];
        let via_transform = network_distance(&view.graph, a, b);
        // and measured on the original graph through endpoint distances
        let pa = inst.points.position(PointId::new(0));
        let pb = inst.points.position(PointId::new(1));
        let mut best = f64::INFINITY;
        if let Some(direct) = pa.direct_distance(&pb) {
            best = best.min(direct.value());
        }
        for (na, da) in [(pa.lo, pa.dist_to_lo()), (pa.hi, pa.dist_to_hi())] {
            for (nb, db) in [(pb.lo, pb.dist_to_lo()), (pb.hi, pb.dist_to_hi())] {
                if let Some(d) = network_distance(&inst.graph, na, nb) {
                    best = best.min(da.value() + d.value() + db.value());
                }
            }
        }
        match via_transform {
            Some(d) => prop_assert!(
                (d.value() - best).abs() <= 1e-6 * (1.0 + best.abs()),
                "transformed distance {} vs native {}",
                d.value(),
                best
            ),
            None => prop_assert!(best.is_infinite()),
        }
    }

    #[test]
    fn point_to_query_distances_are_symmetric(inst in unrestricted_instance()) {
        // d(p, q) computed by expanding from p equals d(q, p) computed by
        // expanding from q (the metric symmetry the paper relies on).
        if inst.points.num_points() < 2 {
            return Ok(());
        }
        use rnn_core::expansion::{Event, ExpansionBuffers, PointExpansion};
        let p0 = inst.points.position(PointId::new(0));
        let p1 = inst.points.position(PointId::new(1));
        let measure = |from: &EdgePosition, to: &EdgePosition| -> Option<f64> {
            let bufs = ExpansionBuffers::new();
            let mut exp =
                PointExpansion::from_location(&inst.graph, &inst.points, from, Some(to), bufs);
            while let Some(ev) = exp.next_event() {
                if let Event::Target(d) = ev {
                    return Some(d.value());
                }
            }
            None
        };
        let forward = measure(&p0, &p1);
        let backward = measure(&p1, &p0);
        match (forward, backward) {
            (Some(f), Some(b)) => prop_assert!((f - b).abs() <= 1e-9 * (1.0 + f.abs())),
            (None, None) => {}
            other => prop_assert!(false, "asymmetric reachability: {:?}", other),
        }
    }
}
