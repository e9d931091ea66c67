#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <tuple>

#include "camera/camera.hpp"
#include "camera/image.hpp"
#include "track/track.hpp"
#include "vehicle/car.hpp"
#include "vehicle/expert.hpp"

namespace autolearn::camera {
namespace {

vehicle::CarState state_at(const track::Track& t, double s,
                           double lateral = 0.0, double heading_off = 0.0) {
  vehicle::CarState st;
  const track::Vec2 c = t.position_at(s);
  const double h = t.heading_at(s);
  st.pos = c + track::heading_vec(h).perp() * lateral;
  st.heading = track::wrap_angle(h + heading_off);
  return st;
}

TEST(Image, ConstructionAndAccess) {
  Image img(4, 3, 0.5f);
  EXPECT_EQ(img.width(), 4u);
  EXPECT_EQ(img.height(), 3u);
  EXPECT_EQ(img.size(), 12u);
  EXPECT_FLOAT_EQ(img.at(2, 1), 0.5f);
  img.at(2, 1) = 0.9f;
  EXPECT_FLOAT_EQ(img.at_checked(2, 1), 0.9f);
  EXPECT_THROW(img.at_checked(4, 0), std::out_of_range);
  EXPECT_THROW(img.at_checked(0, 3), std::out_of_range);
  EXPECT_THROW(Image(0, 5), std::invalid_argument);
}

TEST(Image, MeanAndClamp) {
  Image img(2, 2);
  img.at(0, 0) = -1.0f;
  img.at(1, 0) = 2.0f;
  img.at(0, 1) = 0.5f;
  img.at(1, 1) = 0.5f;
  EXPECT_FLOAT_EQ(img.mean(), 0.5f);
  img.clamp();
  EXPECT_FLOAT_EQ(img.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(img.at(1, 0), 1.0f);
}

TEST(Camera, ConfigValidation) {
  CameraConfig bad;
  bad.width = 0;
  EXPECT_THROW(Camera(bad, util::Rng(1)), std::invalid_argument);
  bad = CameraConfig{};
  bad.fov_deg = 0;
  EXPECT_THROW(Camera(bad, util::Rng(1)), std::invalid_argument);
  bad = CameraConfig{};
  bad.mount_height = 0;
  EXPECT_THROW(Camera(bad, util::Rng(1)), std::invalid_argument);
}

TEST(Camera, RendersExpectedDimensions) {
  const track::Track t = track::Track::paper_oval();
  Camera cam(CameraConfig{}, util::Rng(1));
  const Image img = cam.render(t, state_at(t, 0.5));
  EXPECT_EQ(img.width(), CameraConfig{}.width);
  EXPECT_EQ(img.height(), CameraConfig{}.height);
}

TEST(Camera, TopRowsAreSky) {
  const track::Track t = track::Track::paper_oval();
  CameraConfig cfg;
  Camera cam(cfg, util::Rng(1));
  const Image img = cam.render(t, state_at(t, 0.5));
  // With an 18-degree downward pitch the top row is above the horizon.
  for (std::size_t x = 0; x < img.width(); ++x) {
    EXPECT_FLOAT_EQ(img.at(x, 0), cfg.sky);
  }
}

TEST(Camera, BottomRowSeesTrackSurfaceWhenCentered) {
  const track::Track t = track::Track::paper_oval();
  CameraConfig cfg;
  Camera cam(cfg, util::Rng(1));
  const Image img = cam.render(t, state_at(t, 0.5));
  // The pixel directly in front of a centered car looks at the surface.
  const float v = img.at(img.width() / 2, img.height() - 1);
  EXPECT_GT(v, cfg.floor);
  EXPECT_LT(v, cfg.tape);
}

TEST(Camera, SeesTapeSomewhere) {
  const track::Track t = track::Track::paper_oval();
  CameraConfig cfg;
  Camera cam(cfg, util::Rng(1));
  const Image img = cam.render(t, state_at(t, 0.5));
  float max_v = 0;
  for (float p : img.pixels()) max_v = std::max(max_v, p);
  // Tape is the brightest ground feature; near geometry is barely
  // attenuated, so some pixel should be close to the tape intensity.
  EXPECT_GT(max_v, 0.7f);
}

TEST(Camera, SimRenderIsDeterministic) {
  const track::Track t = track::Track::paper_oval();
  Camera cam1(CameraConfig{}, util::Rng(1));
  Camera cam2(CameraConfig{}, util::Rng(2));
  const Image a = cam1.render(t, state_at(t, 1.0));
  const Image b = cam2.render(t, state_at(t, 1.0));
  EXPECT_EQ(a.pixels(), b.pixels());
}

TEST(Camera, RealProfileAddsNoise) {
  const track::Track t = track::Track::paper_oval();
  CameraConfig cfg;
  cfg.noise = CameraNoise::real_car();
  Camera cam(cfg, util::Rng(3));
  const Image a = cam.render(t, state_at(t, 1.0));
  const Image b = cam.render(t, state_at(t, 1.0));
  EXPECT_NE(a.pixels(), b.pixels());
}

TEST(Camera, LateralOffsetShiftsImage) {
  // When the car sits left of center, the left tape line moves toward the
  // image center: the column-weighted brightness center shifts right.
  const track::Track t = track::Track::paper_oval();
  Camera cam(CameraConfig{}, util::Rng(1));
  auto brightness_center = [](const Image& img) {
    double num = 0, den = 0;
    for (std::size_t y = img.height() / 2; y < img.height(); ++y) {
      for (std::size_t x = 0; x < img.width(); ++x) {
        const double w = img.at(x, y);
        num += w * static_cast<double>(x);
        den += w;
      }
    }
    return num / den;
  };
  const Image centered = cam.render(t, state_at(t, 0.8, 0.0));
  const Image left = cam.render(t, state_at(t, 0.8, +0.15));
  const Image right = cam.render(t, state_at(t, 0.8, -0.15));
  EXPECT_GT(brightness_center(left), brightness_center(centered) - 5);
  // The two offset frames must differ measurably.
  double diff = 0;
  for (std::size_t i = 0; i < left.pixels().size(); ++i) {
    diff += std::abs(left.pixels()[i] - right.pixels()[i]);
  }
  EXPECT_GT(diff / static_cast<double>(left.size()), 0.01);
}

TEST(Camera, HeadingOffsetChangesView) {
  const track::Track t = track::Track::paper_oval();
  Camera cam(CameraConfig{}, util::Rng(1));
  const Image straight = cam.render(t, state_at(t, 0.8, 0.0, 0.0));
  const Image yawed = cam.render(t, state_at(t, 0.8, 0.0, 0.3));
  EXPECT_NE(straight.pixels(), yawed.pixels());
}

TEST(Camera, OffTrackViewIsMostlyFloor) {
  const track::Track t = track::Track::paper_oval();
  CameraConfig cfg;
  Camera cam(cfg, util::Rng(1));
  vehicle::CarState st;
  st.pos = {0.0, -5.0};  // well off the track
  st.heading = M_PI;     // facing away
  const Image img = cam.render(t, st);
  // Ground pixels should all be floor-valued (attenuated).
  int bright = 0;
  for (float p : img.pixels()) bright += (p > 0.3f);
  EXPECT_LT(bright, static_cast<int>(img.size() / 10));
}

TEST(Camera, CustomResolutionRespected) {
  const track::Track t = track::Track::paper_oval();
  CameraConfig cfg;
  cfg.width = 64;
  cfg.height = 48;
  Camera cam(cfg, util::Rng(1));
  const Image img = cam.render(t, state_at(t, 0.5));
  EXPECT_EQ(img.width(), 64u);
  EXPECT_EQ(img.height(), 48u);
}

// Bitwise render contract: 200 consecutive frames along an expert-driven
// lap (sim car, sim camera, clean expert, 50 ms ticks), hashed with 64-bit
// FNV-1a over the raw float bytes. The expert's own track projections steer
// the car, so the digest pins both Track::project and Camera::render: a
// change to either must leave every frame bit-for-bit the same.
std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* b = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= b[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t lap_digest(const track::Track& t) {
  vehicle::CarConfig car_cfg;
  vehicle::Car car(car_cfg, util::Rng(11));
  car.reset(t.position_at(0), t.heading_at(0));
  vehicle::ExpertPilot expert(t, vehicle::ExpertConfig{}, util::Rng(12),
                              car_cfg);
  Camera cam(CameraConfig{}, util::Rng(13));
  const double dt = 0.05;
  std::uint64_t h = 0xcbf29ce484222325ULL;
  double progress = 0.0;
  for (int i = 0; i < 200; ++i) {
    const Image frame = cam.render(t, car.state());
    h = fnv1a(h, frame.pixels().data(), frame.size() * sizeof(float));
    const double s_prev = t.project(car.state().pos).s;
    car.step(expert.decide(car.state(), dt), dt);
    const track::Projection now = t.project(car.state().pos);
    EXPECT_TRUE(now.on_track) << t.name() << " frame " << i;
    progress += t.progress_delta(s_prev, now.s);
  }
  // 10 s of driving covers a lap of the oval and the square and most of
  // the longer waveshare mat, staying on the lane throughout.
  EXPECT_GT(progress, 0.8 * t.length()) << t.name();
  return h;
}

TEST(CameraDigest, PaperOvalLapFramesAreBitwisePinned) {
  EXPECT_EQ(lap_digest(track::Track::paper_oval()), 15939779417037835272ULL);
}

TEST(CameraDigest, WaveshareLapFramesAreBitwisePinned) {
  EXPECT_EQ(lap_digest(track::Track::waveshare()), 16370430175194871341ULL);
}

TEST(CameraDigest, SquareLoopLapFramesAreBitwisePinned) {
  EXPECT_EQ(lap_digest(track::Track::square_loop()),
            16825995659391119092ULL);
}


// Property sweep: for every preset track and several poses, the rendered
// frame carries usable lane signal — some tape pixels, sky on top when the
// pitch allows, and determinism under the sim profile. The track name is a
// std::string, not a const char*: gtest prints a char pointer's address into
// the test name, which would make the name differ from build to build.
class CameraTrackSweep
    : public ::testing::TestWithParam<std::tuple<std::string, double>> {};

TEST_P(CameraTrackSweep, FrameCarriesLaneSignal) {
  const auto [name, frac] = GetParam();
  const track::Track t = name == "paper-oval"
                             ? track::Track::paper_oval()
                             : name == "waveshare"
                                   ? track::Track::waveshare()
                                   : track::Track::square_loop();
  Camera cam(CameraConfig{}, util::Rng(9));
  const double s = frac * t.length();
  const Image img = cam.render(t, state_at(t, s));
  // Ground rows contain both surface and brighter tape-ish pixels.
  float lo = 1.0f, hi = 0.0f;
  for (std::size_t y = img.height() / 2; y < img.height(); ++y) {
    for (std::size_t x = 0; x < img.width(); ++x) {
      lo = std::min(lo, img.at(x, y));
      hi = std::max(hi, img.at(x, y));
    }
  }
  EXPECT_GT(hi - lo, 0.15f) << name << " s=" << s;
  // Deterministic under the sim profile.
  Camera cam2(CameraConfig{}, util::Rng(1234));
  EXPECT_EQ(cam2.render(t, state_at(t, s)).pixels(),
            cam.render(t, state_at(t, s)).pixels());
}

INSTANTIATE_TEST_SUITE_P(
    TrackPoses, CameraTrackSweep,
    ::testing::Combine(::testing::Values("paper-oval", "waveshare",
                                         "square-loop"),
                       ::testing::Values(0.05, 0.3, 0.62, 0.9)),
    [](const ::testing::TestParamInfo<std::tuple<std::string, double>>& i) {
      std::string name = std::get<0>(i.param);
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name + "_" + std::to_string(static_cast<int>(
                               std::get<1>(i.param) * 100));
    });

}  // namespace
}  // namespace autolearn::camera
