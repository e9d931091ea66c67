// Track::project against a brute-force nearest-sample scan.
//
// The contract: project() picks the sample a linear scan over the whole
// centerline would pick (smallest squared distance, ties to the lowest
// index) and refines along its tangent, so `s` and `lateral` are bitwise
// equal to the reference for any point, near the track or far from it.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "camera/camera.hpp"
#include "track/track.hpp"
#include "util/rng.hpp"

namespace autolearn::track {
namespace {

Track make(const std::string& name) {
  if (name == "paper-oval") return Track::paper_oval();
  if (name == "waveshare") return Track::waveshare();
  return Track::square_loop();
}

/// The lowest-index nearest sample, refined exactly as Track::project does.
Projection brute_force(const Track& t, const Vec2& p) {
  const std::vector<PathSample>& c = t.centerline();
  std::size_t best = 0;
  double best_d2 = (c[0].pos - p).norm2();
  for (std::size_t k = 1; k < c.size(); ++k) {
    const double d2 = (c[k].pos - p).norm2();
    if (d2 < best_d2) {
      best_d2 = d2;
      best = k;
    }
  }
  const Vec2 tangent = heading_vec(c[best].heading);
  const Vec2 rel = p - c[best].pos;
  Projection out;
  out.s = t.wrap_s(c[best].s + rel.dot(tangent));
  out.lateral = rel.cross(tangent) * -1.0;
  return out;
}

/// Counts points whose projection is not bitwise the reference's; reports
/// the first few through gtest.
std::size_t mismatches(const Track& t, const std::vector<Vec2>& points) {
  std::size_t bad = 0;
  for (const Vec2& p : points) {
    const Projection got = t.project(p);
    const Projection want = brute_force(t, p);
    if (std::bit_cast<std::uint64_t>(got.s) !=
            std::bit_cast<std::uint64_t>(want.s) ||
        std::bit_cast<std::uint64_t>(got.lateral) !=
            std::bit_cast<std::uint64_t>(want.lateral)) {
      if (++bad <= 5) {
        ADD_FAILURE() << t.name() << " at (" << p.x << ", " << p.y
                      << "): s " << got.s << " vs " << want.s << ", lateral "
                      << got.lateral << " vs " << want.lateral;
      }
    }
  }
  return bad;
}

/// Ground hits of every below-horizon pixel, with Camera::render's ray
/// geometry (no pose jitter).
std::vector<Vec2> ground_hits(const camera::CameraConfig& cfg, const Vec2& pos,
                              double heading) {
  const auto W = static_cast<double>(cfg.width);
  const auto H = static_cast<double>(cfg.height);
  const double f_px = (W / 2.0) / std::tan(cfg.fov_deg * M_PI / 180.0 / 2.0);
  const double pitch = cfg.pitch_deg * M_PI / 180.0;
  const double cp = std::cos(pitch), sp = std::sin(pitch);
  const double ch = std::cos(heading), sh = std::sin(heading);
  std::vector<Vec2> hits;
  for (std::size_t py = 0; py < cfg.height; ++py) {
    for (std::size_t px = 0; px < cfg.width; ++px) {
      const double u = (static_cast<double>(px) + 0.5 - W / 2.0) / f_px;
      const double v = (static_cast<double>(py) + 0.5 - H / 2.0) / f_px;
      const double dx = cp * ch + u * sh + v * -ch * sp;
      const double dy = cp * sh + u * -ch + v * -sh * sp;
      const double dz = -sp + v * -cp;
      if (dz >= -1e-9) continue;
      const double t = cfg.mount_height / -dz;
      hits.push_back({pos.x + t * dx, pos.y + t * dy});
    }
  }
  return hits;
}

class ProjectOracle : public ::testing::TestWithParam<std::string> {};

TEST_P(ProjectOracle, RandomPointsFarBeyondTheTrack) {
  const Track t = make(GetParam());
  Vec2 lo = t.centerline()[0].pos, hi = lo;
  for (const PathSample& smp : t.centerline()) {
    lo = {std::min(lo.x, smp.pos.x), std::min(lo.y, smp.pos.y)};
    hi = {std::max(hi.x, smp.pos.x), std::max(hi.y, smp.pos.y)};
  }
  // Reach 12 m past the track on every side, plus a denser near-track box.
  util::Rng rng(20231112);
  std::vector<Vec2> points;
  for (int i = 0; i < 20000; ++i) {
    points.push_back({rng.uniform(lo.x - 12, hi.x + 12),
                      rng.uniform(lo.y - 12, hi.y + 12)});
    points.push_back({rng.uniform(lo.x - 1, hi.x + 1),
                      rng.uniform(lo.y - 1, hi.y + 1)});
  }
  EXPECT_EQ(mismatches(t, points), 0u);
}

TEST_P(ProjectOracle, PointsOnSamplesAndMidpoints) {
  const Track t = make(GetParam());
  const std::vector<PathSample>& c = t.centerline();
  std::vector<Vec2> points;
  for (std::size_t k = 0; k < c.size(); ++k) {
    const Vec2& a = c[k].pos;
    const Vec2& b = c[(k + 1) % c.size()].pos;
    points.push_back(a);
    points.push_back((a + b) * 0.5);
  }
  EXPECT_EQ(mismatches(t, points), 0u);
}

TEST_P(ProjectOracle, CameraRayHits) {
  const Track t = make(GetParam());
  camera::CameraConfig small;
  camera::CameraConfig wide;  // fine rows reach far toward the horizon
  wide.width = 64;
  wide.height = 48;
  std::vector<Vec2> points;
  for (double s = 0; s < t.length(); s += t.length() / 8) {
    const Vec2 c = t.position_at(s);
    const double h = t.heading_at(s);
    for (double lateral : {0.0, 0.25, -1.5}) {
      for (double yaw : {0.0, 0.6, M_PI}) {
        const Vec2 pos = c + heading_vec(h).perp() * lateral;
        for (const auto& cfg : {small, wide}) {
          const std::vector<Vec2> hits = ground_hits(cfg, pos, h + yaw);
          points.insert(points.end(), hits.begin(), hits.end());
        }
      }
    }
  }
  EXPECT_GT(points.size(), 20000u);
  EXPECT_EQ(mismatches(t, points), 0u);
}

INSTANTIATE_TEST_SUITE_P(Presets, ProjectOracle,
                         ::testing::Values("paper-oval", "waveshare",
                                           "square-loop"),
                         [](const ::testing::TestParamInfo<std::string>& i) {
                           std::string name = i.param;
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

// A grid ring search that stopped two rings after its first hit returned
// a sample 3.35 m off the true nearest lateral for this point, 3+ m
// outside the waveshare mat: after a first hit in ring r the nearest
// sample can lie as far out as ring floor(1 + sqrt(2) * (r + 1)).
TEST(ProjectRegression, WaveshareFarPointFindsTheNearestSample) {
  const Track t = Track::waveshare();
  const Vec2 p{11.07, -6.84};
  EXPECT_EQ(mismatches(t, {p}), 0u);
  const Projection pr = t.project(p);
  double nearest = std::numeric_limits<double>::max();
  for (const PathSample& smp : t.centerline()) {
    nearest = std::min(nearest, distance(smp.pos, p));
  }
  EXPECT_NEAR(std::abs(pr.lateral), nearest, 0.01);
  EXPECT_FALSE(pr.on_track);
}

}  // namespace
}  // namespace autolearn::track
