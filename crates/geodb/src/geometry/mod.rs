//! Spatial data types for the geographic DBMS.
//!
//! The paper's data model stores "georeferenced data … connected to the
//! surface of the earth (e.g., vegetation and road networks)". We model
//! them with three planar types — [`Point`], [`Polyline`], [`Polygon`] —
//! unified by the [`Geometry`] enum, plus axis-aligned [`Rect`]s used by
//! the spatial indexes and window queries.

pub mod point;
pub mod polygon;
pub mod polyline;
pub mod rect;
pub mod wkt;

pub use point::Point;
pub use polygon::Polygon;
pub use polyline::Polyline;
pub use rect::Rect;

use serde::{Deserialize, Serialize};

/// Any supported spatial value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Geometry {
    Point(Point),
    Polyline(Polyline),
    Polygon(Polygon),
}

impl Geometry {
    /// Kind tag, used in presentation defaults ("points draw as dots,
    /// lines as strokes, polygons as filled shapes").
    pub fn kind(&self) -> GeometryKind {
        match self {
            Geometry::Point(_) => GeometryKind::Point,
            Geometry::Polyline(_) => GeometryKind::Polyline,
            Geometry::Polygon(_) => GeometryKind::Polygon,
        }
    }

    /// True when every coordinate is finite (JSON has no NaN or
    /// infinity, so snapshots could not hold anything else).
    pub fn is_finite(&self) -> bool {
        let points: &[Point] = match self {
            Geometry::Point(p) => std::slice::from_ref(p),
            Geometry::Polyline(l) => l.points(),
            Geometry::Polygon(p) => p.ring(),
        };
        points.iter().all(|p| p.x.is_finite() && p.y.is_finite())
    }

    /// Tight axis-aligned bounding box.
    pub fn bbox(&self) -> Rect {
        match self {
            Geometry::Point(p) => Rect::from_point(*p),
            Geometry::Polyline(l) => l.bbox(),
            Geometry::Polygon(p) => p.bbox(),
        }
    }

    /// A representative point (the point itself, arc midpoint, centroid).
    pub fn representative_point(&self) -> Point {
        match self {
            Geometry::Point(p) => *p,
            Geometry::Polyline(l) => l.point_at(0.5),
            Geometry::Polygon(p) => p.centroid(),
        }
    }

    /// Minimum distance from the geometry to a point.
    pub fn distance_to_point(&self, q: &Point) -> f64 {
        match self {
            Geometry::Point(p) => p.distance(q),
            Geometry::Polyline(l) => l.distance_to_point(q),
            Geometry::Polygon(p) => {
                if p.contains_point(q) {
                    0.0
                } else {
                    p.edges()
                        .map(|(a, b)| q.distance_to_segment(a, b))
                        .fold(f64::INFINITY, f64::min)
                }
            }
        }
    }

    /// True when the geometry lies entirely inside `r`.
    pub fn within(&self, r: &Rect) -> bool {
        r.contains_rect(&self.bbox())
    }

    /// Conservative-exact intersection with a query rectangle: exact for
    /// points and polygons-vs-rect, segment-exact for polylines.
    pub fn intersects_rect(&self, r: &Rect) -> bool {
        match self {
            Geometry::Point(p) => r.contains_point(p),
            Geometry::Polyline(l) => {
                if !l.bbox().intersects(r) {
                    return false;
                }
                let rect_poly = Polygon::from_rect(r);
                l.points().iter().any(|p| r.contains_point(p))
                    || l.segments().any(|(a, b)| {
                        rect_poly
                            .edges()
                            .any(|(c, d)| polyline::segments_intersect(a, b, c, d))
                    })
            }
            Geometry::Polygon(p) => {
                if !p.bbox().intersects(r) {
                    return false;
                }
                p.intersects(&Polygon::from_rect(r))
            }
        }
    }
}

/// The three spatial kinds, as used by presentation defaults.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GeometryKind {
    Point,
    Polyline,
    Polygon,
}

impl std::fmt::Display for GeometryKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GeometryKind::Point => write!(f, "point"),
            GeometryKind::Polyline => write!(f, "polyline"),
            GeometryKind::Polygon => write!(f, "polygon"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(pts: &[(f64, f64)]) -> Geometry {
        Geometry::Polyline(
            Polyline::new(pts.iter().map(|&(x, y)| Point::new(x, y)).collect()).unwrap(),
        )
    }

    fn square(x0: f64, y0: f64, side: f64) -> Geometry {
        Geometry::Polygon(
            Polygon::new(vec![
                Point::new(x0, y0),
                Point::new(x0 + side, y0),
                Point::new(x0 + side, y0 + side),
                Point::new(x0, y0 + side),
            ])
            .unwrap(),
        )
    }

    #[test]
    fn kind_and_bbox() {
        let p = Geometry::Point(Point::new(2.0, 3.0));
        assert_eq!(p.kind(), GeometryKind::Point);
        assert_eq!(p.bbox(), Rect::new(2.0, 3.0, 2.0, 3.0));

        let l = line(&[(0.0, 0.0), (4.0, 2.0)]);
        assert_eq!(l.kind(), GeometryKind::Polyline);
        assert_eq!(l.bbox(), Rect::new(0.0, 0.0, 4.0, 2.0));
    }

    #[test]
    fn within_rect() {
        let g = square(1.0, 1.0, 2.0);
        assert!(g.within(&Rect::new(0.0, 0.0, 5.0, 5.0)));
        assert!(!g.within(&Rect::new(0.0, 0.0, 2.0, 5.0)));
    }

    #[test]
    fn point_rect_intersection_is_containment() {
        let g = Geometry::Point(Point::new(1.0, 1.0));
        assert!(g.intersects_rect(&Rect::new(0.0, 0.0, 2.0, 2.0)));
        assert!(!g.intersects_rect(&Rect::new(2.0, 2.0, 3.0, 3.0)));
    }

    #[test]
    fn polyline_crossing_rect_without_vertices_inside() {
        // Line passes straight through the rect; no vertex inside.
        let g = line(&[(-1.0, 1.0), (3.0, 1.0)]);
        assert!(g.intersects_rect(&Rect::new(0.0, 0.0, 2.0, 2.0)));
        // Line entirely to the left.
        let g2 = line(&[(-5.0, 1.0), (-3.0, 1.0)]);
        assert!(!g2.intersects_rect(&Rect::new(0.0, 0.0, 2.0, 2.0)));
    }

    #[test]
    fn polygon_containing_rect_intersects() {
        let g = square(0.0, 0.0, 10.0);
        assert!(g.intersects_rect(&Rect::new(4.0, 4.0, 5.0, 5.0)));
    }

    #[test]
    fn representative_point_lies_sensibly() {
        assert_eq!(
            line(&[(0.0, 0.0), (10.0, 0.0)]).representative_point(),
            Point::new(5.0, 0.0)
        );
        let c = square(0.0, 0.0, 2.0).representative_point();
        assert!((c.x - 1.0).abs() < 1e-12 && (c.y - 1.0).abs() < 1e-12);
    }

    #[test]
    fn distance_inside_polygon_is_zero() {
        let g = square(0.0, 0.0, 2.0);
        assert_eq!(g.distance_to_point(&Point::new(1.0, 1.0)), 0.0);
        assert_eq!(g.distance_to_point(&Point::new(4.0, 1.0)), 2.0);
    }
}
