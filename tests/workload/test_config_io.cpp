#include "labmon/workload/config_io.hpp"

#include <gtest/gtest.h>

#include "labmon/util/csv.hpp"
#include "labmon/util/ini.hpp"

namespace labmon::workload {
namespace {

TEST(IniTest, ParsesSectionsAndComments) {
  const auto ini = util::IniFile::Parse(
      "# comment\n"
      "top = 1\n"
      "[alpha]\n"
      "x = 2.5\n"
      "; another comment\n"
      "flag = yes\n"
      "[beta]\n"
      "x = hello world\n");
  ASSERT_TRUE(ini.ok()) << ini.error();
  EXPECT_EQ(ini.value().Get("top").value(), "1");
  EXPECT_DOUBLE_EQ(ini.value().GetDouble("alpha.x", 0.0), 2.5);
  EXPECT_TRUE(ini.value().GetBool("alpha.flag", false));
  EXPECT_EQ(ini.value().Get("beta.x").value(), "hello world");
  EXPECT_FALSE(ini.value().Get("missing").has_value());
}

TEST(IniTest, RejectsMalformedLines) {
  EXPECT_FALSE(util::IniFile::Parse("[unterminated\n").ok());
  EXPECT_FALSE(util::IniFile::Parse("no equals sign\n").ok());
  EXPECT_FALSE(util::IniFile::Parse("= novalue\n").ok());
}

TEST(IniTest, TypedFallbacksAndErrors) {
  const auto ini = util::IniFile::Parse("x = notanumber\n");
  ASSERT_TRUE(ini.ok());
  bool ok = true;
  EXPECT_DOUBLE_EQ(ini.value().GetDouble("x", 7.0, &ok), 7.0);
  EXPECT_FALSE(ok);
  EXPECT_DOUBLE_EQ(ini.value().GetDouble("absent", 7.0, &ok), 7.0);
  EXPECT_TRUE(ok);
  EXPECT_FALSE(ini.value().GetBool("x", false, &ok));
  EXPECT_FALSE(ok);
}

TEST(IniTest, LastAssignmentWins) {
  const auto ini = util::IniFile::Parse("[a]\nk = 1\nk = 2\n");
  ASSERT_TRUE(ini.ok());
  EXPECT_EQ(ini.value().GetInt("a.k", 0), 2);
}

TEST(ConfigIoTest, OverridesSelectedKnobs) {
  const auto config = ParseCampusConfig(
      "[experiment]\n"
      "days = 14\n"
      "seed = 777\n"
      "[power]\n"
      "sweeps_enabled = false\n"
      "sticky_fraction = 0.5\n"
      "[arrivals]\n"
      "weekday_peak_per_hour = 3.25\n");
  ASSERT_TRUE(config.ok()) << config.error();
  EXPECT_EQ(config.value().days, 14);
  EXPECT_EQ(config.value().seed, 777u);
  EXPECT_FALSE(config.value().power.sweeps_enabled);
  EXPECT_DOUBLE_EQ(config.value().power.sticky_fraction, 0.5);
  EXPECT_DOUBLE_EQ(config.value().arrivals.weekday_peak_per_hour, 3.25);
  // Untouched knobs keep the paper defaults.
  EXPECT_DOUBLE_EQ(config.value().timetable.class_occupancy,
                   CampusConfig{}.timetable.class_occupancy);
}

TEST(ConfigIoTest, UnknownKeyIsAnError) {
  const auto config = ParseCampusConfig("[power]\nsweeep_kill_floor = 0.1\n");
  ASSERT_FALSE(config.ok());
  EXPECT_NE(config.error().find("unknown scenario key"), std::string::npos);
}

TEST(ConfigIoTest, UnparsableValueIsAnError) {
  EXPECT_FALSE(ParseCampusConfig("[experiment]\ndays = soon\n").ok());
  EXPECT_FALSE(ParseCampusConfig("[power]\nsticky_fraction = lots\n").ok());
}

TEST(ConfigIoTest, OutOfRangeHorizonAndScaleAreErrors) {
  for (const char* days : {"0", "-3", "10001", "4294967297"}) {
    const auto config =
        ParseCampusConfig(std::string("[experiment]\ndays = ") + days + "\n");
    ASSERT_FALSE(config.ok()) << "days = " << days;
    EXPECT_NE(config.error().find("experiment.days"), std::string::npos)
        << config.error();
  }
  for (const char* scale : {"0", "-2", "1025"}) {
    const auto config = ParseCampusConfig(
        std::string("[experiment]\nscale_labs = ") + scale + "\n");
    ASSERT_FALSE(config.ok()) << "scale_labs = " << scale;
    EXPECT_NE(config.error().find("experiment.scale_labs"), std::string::npos)
        << config.error();
  }
  // The ends of both ranges are accepted.
  const auto edges = ParseCampusConfig(
      "[experiment]\ndays = 10000\nscale_labs = 1024\n");
  ASSERT_TRUE(edges.ok()) << edges.error();
  EXPECT_EQ(edges.value().days, kMaxDays);
  EXPECT_EQ(edges.value().scale_labs, kMaxScaleLabs);
  EXPECT_TRUE(ParseCampusConfig("[experiment]\ndays = 1\nscale_labs = 1\n")
                  .ok());
}

TEST(ConfigIoTest, LoadRejectsNegativeDaysFromFile) {
  const std::string path = ::testing::TempDir() + "/labmon_bad_days.ini";
  ASSERT_TRUE(util::WriteTextFile(path, "[experiment]\ndays = -3\n").ok());
  const auto config = LoadCampusConfig(path);
  ASSERT_FALSE(config.ok());
  EXPECT_NE(config.error().find("experiment.days"), std::string::npos);
}

TEST(ConfigIoTest, SaveParseRoundTrip) {
  CampusConfig original = CorporateCampusConfig();
  original.days = 42;
  original.seed = 123456789;
  original.activity.light_busy_hi = 0.0625;
  const std::string ini = SaveCampusConfig(original);
  const auto restored = ParseCampusConfig(ini);
  ASSERT_TRUE(restored.ok()) << restored.error();
  const CampusConfig& r = restored.value();
  EXPECT_EQ(r.days, 42);
  EXPECT_EQ(r.seed, 123456789u);
  EXPECT_EQ(r.power.sweeps_enabled, original.power.sweeps_enabled);
  EXPECT_DOUBLE_EQ(r.power.sticky_fraction, original.power.sticky_fraction);
  EXPECT_DOUBLE_EQ(r.activity.light_busy_hi, 0.0625);
  EXPECT_DOUBLE_EQ(r.arrivals.weekday_peak_per_hour,
                   original.arrivals.weekday_peak_per_hour);
  EXPECT_EQ(r.arrivals.prefer_off_machines,
            original.arrivals.prefer_off_machines);
  EXPECT_DOUBLE_EQ(r.memory.app_mb_mean, original.memory.app_mb_mean);
  EXPECT_DOUBLE_EQ(r.disk.image_gb_mini, original.disk.image_gb_mini);
  EXPECT_DOUBLE_EQ(r.network.active_recv_bps_mean,
                   original.network.active_recv_bps_mean);
  EXPECT_DOUBLE_EQ(r.forgotten.forget_prob_at_close,
                   original.forgotten.forget_prob_at_close);
  EXPECT_EQ(r.timetable.heavy_class_lab, original.timetable.heavy_class_lab);
}

TEST(ConfigIoTest, LoadFromFile) {
  const std::string path = ::testing::TempDir() + "/labmon_scenario.ini";
  ASSERT_TRUE(util::WriteTextFile(path,
                                  "[experiment]\ndays = 3\n").ok());
  const auto config = LoadCampusConfig(path);
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config.value().days, 3);
  EXPECT_FALSE(LoadCampusConfig("/nonexistent.ini").ok());
}

TEST(ConfigIoTest, ShippedCorporateScenarioMatchesPreset) {
  // examples/scenarios/corporate.ini must stay in sync with
  // CorporateCampusConfig() (they document each other).
  const auto loaded = LoadCampusConfig("examples/scenarios/corporate.ini");
  if (!loaded.ok()) {
    GTEST_SKIP() << "scenario file not reachable from test cwd: "
                 << loaded.error();
  }
  const CampusConfig preset = CorporateCampusConfig();
  const CampusConfig& file = loaded.value();
  EXPECT_EQ(file.power.sweeps_enabled, preset.power.sweeps_enabled);
  EXPECT_DOUBLE_EQ(file.power.sticky_fraction, preset.power.sticky_fraction);
  EXPECT_DOUBLE_EQ(file.arrivals.weekday_peak_per_hour,
                   preset.arrivals.weekday_peak_per_hour);
  EXPECT_EQ(file.arrivals.prefer_off_machines,
            preset.arrivals.prefer_off_machines);
  EXPECT_DOUBLE_EQ(file.activity.compute_server_fraction,
                   preset.activity.compute_server_fraction);
  EXPECT_EQ(file.timetable.heavy_class_lab, preset.timetable.heavy_class_lab);
}

}  // namespace
}  // namespace labmon::workload
