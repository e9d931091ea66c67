#include "track/track.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/units.hpp"

namespace autolearn::track {

namespace {
// Relative slack of the chunk test in project(). It dwarfs the few ulps of
// rounding in each distance, and at track scale it is well under a
// nanometre, so it costs no pruning.
constexpr double kSlack = 1e-9;
}  // namespace

Track::Track(std::string name, std::vector<PathSample> centerline,
             double width)
    : name_(std::move(name)), samples_(std::move(centerline)), width_(width) {
  if (samples_.size() < 8) {
    throw std::invalid_argument("Track: centerline too short");
  }
  if (width_ <= 0) throw std::invalid_argument("Track: width must be > 0");
  length_ = samples_.back().s;
  if (length_ <= 0) throw std::invalid_argument("Track: zero length");
  chunks_.reserve((samples_.size() + kChunk - 1) / kChunk);
  for (std::size_t b = 0; b < samples_.size(); b += kChunk) {
    const std::size_t e = std::min(b + kChunk, samples_.size());
    Vec2 lo = samples_[b].pos, hi = lo;
    for (std::size_t k = b + 1; k < e; ++k) {
      const Vec2& q = samples_[k].pos;
      lo = {std::min(lo.x, q.x), std::min(lo.y, q.y)};
      hi = {std::max(hi.x, q.x), std::max(hi.y, q.y)};
    }
    const Vec2 center = (lo + hi) * 0.5;
    double r2 = 0;
    for (std::size_t k = b; k < e; ++k) {
      r2 = std::max(r2, (samples_[k].pos - center).norm2());
    }
    chunks_.push_back({center, std::sqrt(r2)});
  }
}

double Track::wrap_s(double s) const {
  s = std::fmod(s, length_);
  if (s < 0) s += length_;
  return s;
}

std::size_t Track::index_at(double s) const {
  // Samples are uniformly spaced to within segment rounding; binary search
  // keeps this exact.
  const auto it = std::upper_bound(
      samples_.begin(), samples_.end(), s,
      [](double v, const PathSample& smp) { return v < smp.s; });
  const std::size_t i = static_cast<std::size_t>(it - samples_.begin());
  return i == 0 ? 0 : i - 1;
}

Vec2 Track::position_at(double s) const {
  s = wrap_s(s);
  const std::size_t i = index_at(s);
  const std::size_t j = (i + 1) % samples_.size();
  const double seg = (j == 0 ? length_ : samples_[j].s) - samples_[i].s;
  const double t = seg > 0 ? (s - samples_[i].s) / seg : 0.0;
  return samples_[i].pos + (samples_[j].pos - samples_[i].pos) * t;
}

double Track::heading_at(double s) const {
  s = wrap_s(s);
  const std::size_t i = index_at(s);
  const std::size_t j = (i + 1) % samples_.size();
  const double seg = (j == 0 ? length_ : samples_[j].s) - samples_[i].s;
  const double t = seg > 0 ? (s - samples_[i].s) / seg : 0.0;
  return wrap_angle(samples_[i].heading +
                    t * angle_diff(samples_[j].heading, samples_[i].heading));
}

double Track::curvature_at(double s) const {
  return samples_[index_at(wrap_s(s))].curvature;
}

Vec2 Track::left_boundary_at(double s) const {
  return position_at(s) + heading_vec(heading_at(s)).perp() * half_width();
}

Vec2 Track::right_boundary_at(double s) const {
  return position_at(s) - heading_vec(heading_at(s)).perp() * half_width();
}

Projection Track::project(const Vec2& p) const {
  double best_d2 = std::numeric_limits<double>::infinity();
  std::size_t best = 0;
  const auto scan = [&](std::size_t c) {
    const std::size_t e = std::min((c + 1) * kChunk, samples_.size());
    for (std::size_t k = c * kChunk; k < e; ++k) {
      const double d2 = (samples_[k].pos - p).norm2();
      // Ties go to the lowest index, as in a brute-force scan.
      if (d2 < best_d2 || (d2 == best_d2 && k < best)) {
        best_d2 = d2;
        best = k;
      }
    }
  };
  // The chunk with the nearest centre first makes best_d2 tight at once.
  std::size_t first = 0;
  double first_d2 = (p - chunks_[0].center).norm2();
  for (std::size_t c = 1; c < chunks_.size(); ++c) {
    const double d2 = (p - chunks_[c].center).norm2();
    if (d2 < first_d2) {
      first_d2 = d2;
      first = c;
    }
  }
  scan(first);
  // Then, in index order, every chunk that could hold a sample as near as
  // best_d2. By the triangle inequality no sample of a chunk is nearer to
  // p than |p - center| - radius, so a chunk can be skipped only when
  // |p - center| > radius + sqrt(best_d2); the test compares the squares.
  // The kSlack factor covers the rounding of every term, so a chunk that
  // holds a sample with d2 <= best_d2 is never skipped.
  double reach = std::sqrt(best_d2);
  for (std::size_t c = 0; c < chunks_.size(); ++c) {
    const double limit = chunks_[c].radius + reach;
    if (c != first &&
        (p - chunks_[c].center).norm2() <= limit * limit * (1 + kSlack)) {
      scan(c);
      reach = std::sqrt(best_d2);
    }
  }

  const PathSample& smp = samples_[best];
  // Refine along the local tangent for sub-sample accuracy.
  const Vec2 tangent = heading_vec(smp.heading);
  const Vec2 rel = p - smp.pos;
  const double along = rel.dot(tangent);

  Projection out;
  out.s = wrap_s(smp.s + along);
  out.center_point = smp.pos + tangent * along;
  out.lateral = rel.cross(tangent) * -1.0;  // >0 when p is left of travel
  out.heading = smp.heading;
  out.curvature = smp.curvature;
  out.on_track = std::abs(out.lateral) <= half_width();
  return out;
}

double Track::progress_delta(double s_prev, double s_now) const {
  double d = wrap_s(s_now) - wrap_s(s_prev);
  if (d > length_ / 2) d -= length_;
  if (d < -length_ / 2) d += length_;
  return d;
}

Track Track::from_builder(std::string name, const PathBuilder& builder,
                          double width) {
  return Track(std::move(name), builder.build(/*close_loop=*/true), width);
}

Track Track::paper_oval() {
  // Paper (§3.3): inner line 330 in, outer line 509 in, average width
  // 27.59 in. Model the tape oval as a stadium: two straights of length L
  // and two semicircular ends of centerline radius r, lane width w.
  //   inner perimeter = 2L + 2*pi*(r - w/2) = 8.382 m   (330 in)
  //   outer perimeter = 2L + 2*pi*(r + w/2) = 12.929 m  (509 in)
  // The difference fixes 2*pi*w = 4.547 m -> w = 0.724 m, within 3% of the
  // paper's measured average width (27.59 in = 0.701 m) — the published
  // dimensions are mutually consistent with a stadium shape. We keep the
  // measured width and the implied centerline perimeter
  // (330+509)/2 in = 10.655 m, and choose a turn radius that fits a
  // classroom floor.
  const double width = util::inches_to_meters(27.59);
  const double perimeter = util::inches_to_meters((330.0 + 509.0) / 2.0);
  const double turn_radius = 1.20;
  const double straight_len = (perimeter - 2 * M_PI * turn_radius) / 2.0;
  PathBuilder b({0, 0}, 0.0, 0.01);
  b.straight(straight_len)
      .arc(turn_radius, M_PI)
      .straight(straight_len)
      .arc(turn_radius, M_PI);
  return from_builder("paper-oval", b, width);
}

Track Track::waveshare() {
  // Waveshare PiRacer Pro mat analogue: rounded rectangle with an S-bend on
  // one long side, lane width ~0.45 m. Dimensions chosen to fit the
  // commercial 3.5 x 2.5 m mat footprint.
  const double width = 0.45;
  const double r = 0.55;
  PathBuilder b({0, 0}, 0.0, 0.01);
  // The S-bend displaces the front straight by +0.9 m in both x and y; the
  // back straight covers the x offset and the left side straight is 0.9 m
  // longer than the right side to cover the y offset, closing the loop.
  b.straight(1.0)
      .arc(0.45, M_PI / 2)   // S-bend out
      .arc(0.45, -M_PI / 2)  // S-bend back
      .straight(0.6)
      .arc(r, M_PI / 2)      // corner 1
      .straight(1.1)         // right side
      .arc(r, M_PI / 2)      // corner 2
      .straight(2.5)         // back straight
      .arc(r, M_PI / 2)      // corner 3
      .straight(2.0)         // left side
      .arc(r, M_PI / 2);     // corner 4
  return from_builder("waveshare", b, width);
}

Track Track::square_loop(double side, double corner_radius, double width) {
  if (side <= 2 * corner_radius) {
    throw std::invalid_argument("square_loop: side too short for corners");
  }
  const double straight = side - 2 * corner_radius;
  PathBuilder b({0, 0}, 0.0, 0.01);
  for (int i = 0; i < 4; ++i) {
    b.straight(straight).arc(corner_radius, M_PI / 2);
  }
  return from_builder("square-loop", b, width);
}

}  // namespace autolearn::track
