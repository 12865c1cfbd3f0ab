//! A 2-d tree for k-nearest-neighbour queries.
//!
//! RBF-FD builds one local stencil per node from its `k` nearest neighbours;
//! with a k-d tree that is `O(n log n)` overall instead of `O(n²)`.

use crate::point::Point2;

/// A static 2-d tree over a point cloud. Indices returned by queries refer
/// to the original input slice.
#[derive(Debug, Clone)]
pub struct KdTree {
    points: Vec<Point2>,
    /// Tree stored as an in-order median layout: `order[lo..hi]` is a
    /// subtree with its median at the midpoint, split along `depth % 2`.
    order: Vec<usize>,
}

impl KdTree {
    /// Builds a tree over `points`.
    pub fn build(points: &[Point2]) -> KdTree {
        let mut order: Vec<usize> = (0..points.len()).collect();
        let n = order.len();
        build_recursive(points, &mut order, 0, n, 0);
        KdTree {
            points: points.to_vec(),
            order,
        }
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Indices of the `k` nearest points to `q` (including `q` itself if it
    /// is in the cloud), ordered closest-first.
    pub fn knn(&self, q: Point2, k: usize) -> Vec<usize> {
        let mut out = Vec::new();
        let mut scratch = Vec::new();
        self.knn_into(q, k, &mut scratch, &mut out);
        out
    }

    /// [`KdTree::knn`] into caller-owned buffers: `scratch` holds the bounded
    /// candidate list, `out` receives the neighbour indices (closest-first).
    ///
    /// Batched stencil construction (one query per node of a cloud) reuses
    /// both buffers across queries, eliminating the two per-query allocations
    /// of [`KdTree::knn`]. Results are identical.
    pub fn knn_into(
        &self,
        q: Point2,
        k: usize,
        scratch: &mut Vec<(f64, usize)>,
        out: &mut Vec<usize>,
    ) {
        out.clear();
        let k = k.min(self.len());
        if k == 0 {
            return;
        }
        // Bounded max-heap as a sorted Vec (k is small for stencils).
        scratch.clear();
        scratch.reserve(k + 1);
        self.search(0, self.order.len(), 0, q, k, scratch);
        out.extend(scratch.iter().map(|&(_, i)| i));
    }

    /// Indices of all points within `radius` of `q`.
    pub fn within_radius(&self, q: Point2, radius: f64) -> Vec<usize> {
        let mut out = Vec::new();
        self.radius_search(0, self.order.len(), 0, q, radius * radius, &mut out);
        out
    }

    fn search(
        &self,
        lo: usize,
        hi: usize,
        depth: usize,
        q: Point2,
        k: usize,
        best: &mut Vec<(f64, usize)>,
    ) {
        if lo >= hi {
            return;
        }
        let mid = (lo + hi) / 2;
        let idx = self.order[mid];
        let p = self.points[idx];
        let d2 = q.dist_sq(&p);
        // Insert into the sorted candidate list.
        if best.len() < k || d2 < best.last().unwrap().0 {
            let pos = best.partition_point(|&(bd, _)| bd < d2);
            best.insert(pos, (d2, idx));
            if best.len() > k {
                best.pop();
            }
        }
        let axis_delta = if depth.is_multiple_of(2) {
            q.x - p.x
        } else {
            q.y - p.y
        };
        let (near, far) = if axis_delta <= 0.0 {
            ((lo, mid), (mid + 1, hi))
        } else {
            ((mid + 1, hi), (lo, mid))
        };
        self.search(near.0, near.1, depth + 1, q, k, best);
        // Only descend the far side if the splitting plane is closer than
        // the current k-th best distance.
        if best.len() < k || axis_delta * axis_delta < best.last().unwrap().0 {
            self.search(far.0, far.1, depth + 1, q, k, best);
        }
    }

    fn radius_search(
        &self,
        lo: usize,
        hi: usize,
        depth: usize,
        q: Point2,
        r2: f64,
        out: &mut Vec<usize>,
    ) {
        if lo >= hi {
            return;
        }
        let mid = (lo + hi) / 2;
        let idx = self.order[mid];
        let p = self.points[idx];
        if q.dist_sq(&p) <= r2 {
            out.push(idx);
        }
        let axis_delta = if depth.is_multiple_of(2) {
            q.x - p.x
        } else {
            q.y - p.y
        };
        let (near, far) = if axis_delta <= 0.0 {
            ((lo, mid), (mid + 1, hi))
        } else {
            ((mid + 1, hi), (lo, mid))
        };
        self.radius_search(near.0, near.1, depth + 1, q, r2, out);
        if axis_delta * axis_delta <= r2 {
            self.radius_search(far.0, far.1, depth + 1, q, r2, out);
        }
    }
}

fn build_recursive(points: &[Point2], order: &mut [usize], lo: usize, hi: usize, depth: usize) {
    if hi - lo <= 1 {
        return;
    }
    let mid = (lo + hi) / 2;
    let slice = &mut order[lo..hi];
    let key = |i: &usize| -> f64 {
        if depth.is_multiple_of(2) {
            points[*i].x
        } else {
            points[*i].y
        }
    };
    slice.select_nth_unstable_by(mid - lo, |a, b| key(a).total_cmp(&key(b)));
    build_recursive(points, order, lo, mid, depth + 1);
    build_recursive(points, order, mid + 1, hi, depth + 1);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_points(n: usize) -> Vec<Point2> {
        let mut v = Vec::new();
        for i in 0..n {
            for j in 0..n {
                v.push(Point2::new(i as f64, j as f64));
            }
        }
        v
    }

    fn brute_knn(points: &[Point2], q: Point2, k: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..points.len()).collect();
        idx.sort_by(|&a, &b| q.dist_sq(&points[a]).total_cmp(&q.dist_sq(&points[b])));
        idx.truncate(k);
        idx
    }

    #[test]
    fn knn_on_grid_matches_brute_force_distances() {
        let pts = grid_points(8);
        let tree = KdTree::build(&pts);
        let q = Point2::new(3.2, 4.9);
        let got = tree.knn(q, 6);
        let want = brute_knn(&pts, q, 6);
        // Compare by distances (ties may permute indices).
        let gd: Vec<f64> = got.iter().map(|&i| q.dist(&pts[i])).collect();
        let wd: Vec<f64> = want.iter().map(|&i| q.dist(&pts[i])).collect();
        for (a, b) in gd.iter().zip(&wd) {
            assert!((a - b).abs() < 1e-12);
        }
        // Closest-first ordering.
        for w in gd.windows(2) {
            assert!(w[0] <= w[1] + 1e-12);
        }
    }

    #[test]
    fn knn_includes_self_when_query_is_a_node() {
        let pts = grid_points(4);
        let tree = KdTree::build(&pts);
        let got = tree.knn(pts[5], 1);
        assert_eq!(got, vec![5]);
    }

    #[test]
    fn k_larger_than_cloud_is_clamped() {
        let pts = grid_points(2);
        let tree = KdTree::build(&pts);
        assert_eq!(tree.knn(Point2::new(0.0, 0.0), 100).len(), 4);
    }

    #[test]
    fn within_radius_counts() {
        let pts = grid_points(5);
        let tree = KdTree::build(&pts);
        // Points within distance 1.1 of (2,2): itself + 4 axis neighbours.
        let got = tree.within_radius(Point2::new(2.0, 2.0), 1.1);
        assert_eq!(got.len(), 5);
    }

    #[test]
    fn knn_into_matches_knn_with_dirty_buffers() {
        let pts = grid_points(6);
        let tree = KdTree::build(&pts);
        let mut scratch = vec![(f64::NAN, usize::MAX); 3];
        let mut out = vec![usize::MAX; 7];
        for i in (0..pts.len()).step_by(5) {
            tree.knn_into(pts[i], 9, &mut scratch, &mut out);
            assert_eq!(out, tree.knn(pts[i], 9), "query {i} diverged");
        }
    }

    #[test]
    fn empty_tree() {
        let tree = KdTree::build(&[]);
        assert!(tree.is_empty());
        assert!(tree.knn(Point2::new(0.0, 0.0), 3).is_empty());
    }

    /// Seeded property tests: each draws its inputs from one fixed
    /// `Rng64` stream, so every `cargo test` runs the same cases.
    mod prop {
        use super::*;
        use meshfree_runtime::Rng64;

        #[test]
        fn prop_knn_matches_brute_force() {
            let mut rng = Rng64::seed_from_u64(0x81);
            for case in 0..32 {
                let seed = rng.gen_range_usize(0..10_000) as u64;
                let k = rng.gen_range_usize(1..12);
                // Deterministic pseudo-random cloud.
                let n = 60;
                let pts: Vec<Point2> = (0..n)
                    .map(|i| {
                        let a = ((seed as usize + i) * 2654435761 % 1_000_000) as f64 / 1e6;
                        let b = ((seed as usize + i) * 40503 % 1_000_000) as f64 / 1e6;
                        Point2::new(a * 3.0, b * 2.0)
                    })
                    .collect();
                let tree = KdTree::build(&pts);
                let q = Point2::new((seed % 300) as f64 / 100.0, (seed % 200) as f64 / 100.0);
                let got = tree.knn(q, k);
                let want = brute_knn(&pts, q, k);
                assert_eq!(got.len(), want.len(), "case {case}: seed = {seed}, k = {k}");
                for (g, w) in got.iter().zip(&want) {
                    assert!(
                        (q.dist(&pts[*g]) - q.dist(&pts[*w])).abs() < 1e-12,
                        "case {case}: seed = {seed}, k = {k}"
                    );
                }
            }
        }
    }
}
