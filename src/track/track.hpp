// Closed driving track with arc-length indexing.
//
// A Track owns a densely sampled closed centerline plus a (possibly
// varying) lane half-width. It answers the geometric queries the rest of
// the system needs:
//   * the expert pilot looks ahead along the centerline,
//   * the camera renders the lane boundaries,
//   * the evaluator projects the car onto the track to detect off-track
//     excursions and measure lap progress.
#pragma once

#include <string>
#include <vector>

#include "track/geometry.hpp"
#include "track/path_builder.hpp"

namespace autolearn::track {

/// Result of projecting a world point onto the track.
struct Projection {
  double s = 0.0;             // arc length of the nearest centerline point
  double lateral = 0.0;       // signed offset, >0 left of travel direction
  double heading = 0.0;       // centerline heading at s
  double curvature = 0.0;     // centerline curvature at s
  Vec2 center_point;          // nearest centerline point
  bool on_track = false;      // |lateral| <= half-width at s
};

class Track {
 public:
  /// Builds from centerline samples (as produced by PathBuilder::build with
  /// close_loop) and a constant lane width (full width, meters).
  Track(std::string name, std::vector<PathSample> centerline, double width);

  const std::string& name() const { return name_; }
  /// Total centerline length in meters.
  double length() const { return length_; }
  /// Full lane width in meters.
  double width() const { return width_; }
  double half_width() const { return width_ / 2; }

  /// Wraps an arc length into [0, length).
  double wrap_s(double s) const;

  /// Centerline pose at arc length s (interpolated, s wraps around).
  Vec2 position_at(double s) const;
  double heading_at(double s) const;
  double curvature_at(double s) const;

  /// Point on the left/right lane boundary at arc length s.
  Vec2 left_boundary_at(double s) const;
  Vec2 right_boundary_at(double s) const;

  /// Nearest-centerline projection of a world point, refined along the
  /// nearest sample's tangent (sampling resolution ~1 cm for the presets).
  /// The nearest sample is found exactly, for any finite point: it is the
  /// one a brute-force scan would pick, ties going to the lowest index.
  Projection project(const Vec2& p) const;

  /// Signed forward progress from s_prev to s_now, unwrapping the lap
  /// seam: moving forward across the finish line yields a small positive
  /// delta rather than -length.
  double progress_delta(double s_prev, double s_now) const;

  const std::vector<PathSample>& centerline() const { return samples_; }

  // --- Presets -----------------------------------------------------------

  /// The paper's default track: an orange-tape stadium oval with inner line
  /// 330 in, outer line 509 in, and average width 27.59 in (SC-W'23, §3.3,
  /// Fig. 3a). Geometry derivation in the .cpp.
  static Track paper_oval();

  /// A Waveshare-style commercial track: rounded rectangle with an S-bend
  /// chicane, similar complexity to the PiRacer Pro mat (Fig. 3b).
  static Track waveshare();

  /// Simple custom layouts for "modify the shape of the track" exercises.
  static Track square_loop(double side = 3.0, double corner_radius = 0.8,
                           double width = 0.7);

  /// Generic constructor from a builder.
  static Track from_builder(std::string name, const PathBuilder& builder,
                            double width);

 private:
  std::size_t index_at(double s) const;

  std::string name_;
  std::vector<PathSample> samples_;
  double width_;
  double length_;
  // project() prunes with a bounding circle per run of kChunk consecutive
  // samples: chunk c covers samples [c * kChunk, (c + 1) * kChunk).
  static constexpr std::size_t kChunk = 32;
  struct Chunk {
    Vec2 center;
    double radius;  // largest distance from center to a member
  };
  std::vector<Chunk> chunks_;
};

}  // namespace autolearn::track
