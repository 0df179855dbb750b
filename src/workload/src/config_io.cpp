#include "labmon/workload/config_io.hpp"

#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "labmon/util/csv.hpp"
#include "labmon/util/ini.hpp"
#include "labmon/util/strings.hpp"

namespace labmon::workload {

namespace {

/// A flat view over every tunable of a CampusConfig.
struct FieldMap {
  std::vector<std::pair<std::string, double*>> doubles;
  std::vector<std::pair<std::string, int*>> ints;
  std::vector<std::pair<std::string, bool*>> bools;
};

FieldMap BuildMap(CampusConfig& c) {
  FieldMap m;
  const auto d = [&](const char* key, double& field) {
    m.doubles.emplace_back(key, &field);
  };
  const auto i = [&](const char* key, int& field) {
    m.ints.emplace_back(key, &field);
  };
  const auto b = [&](const char* key, bool& field) {
    m.bools.emplace_back(key, &field);
  };

  i("experiment.days", c.days);
  i("experiment.scale_labs", c.scale_labs);

  i("hours.open_hour", c.hours.open_hour);
  i("hours.weekday_close_hour", c.hours.weekday_close_hour);
  i("hours.saturday_close_hour", c.hours.saturday_close_hour);
  b("hours.sunday_open", c.hours.sunday_open);

  d("timetable.weekday_slot_prob", c.timetable.weekday_slot_prob);
  d("timetable.saturday_slot_prob", c.timetable.saturday_slot_prob);
  d("timetable.popularity_skew", c.timetable.popularity_skew);
  d("timetable.class_occupancy", c.timetable.class_occupancy);
  d("timetable.keep_walkin_in_class", c.timetable.keep_walkin_in_class);
  d("timetable.heavy_class_occupancy", c.timetable.heavy_class_occupancy);
  i("timetable.heavy_class_lab", c.timetable.heavy_class_lab);
  i("timetable.heavy_class_start_hour", c.timetable.heavy_class_start_hour);
  i("timetable.heavy_class_hours", c.timetable.heavy_class_hours);

  d("arrivals.weekday_peak_per_hour", c.arrivals.weekday_peak_per_hour);
  d("arrivals.morning_factor", c.arrivals.morning_factor);
  d("arrivals.midday_factor", c.arrivals.midday_factor);
  d("arrivals.afternoon_factor", c.arrivals.afternoon_factor);
  d("arrivals.evening_factor", c.arrivals.evening_factor);
  d("arrivals.night_factor", c.arrivals.night_factor);
  d("arrivals.saturday_factor", c.arrivals.saturday_factor);
  d("arrivals.popularity_bias", c.arrivals.popularity_bias);
  b("arrivals.prefer_off_machines", c.arrivals.prefer_off_machines);
  d("arrivals.session_minutes_mean", c.arrivals.session_minutes_mean);
  d("arrivals.session_minutes_sigma", c.arrivals.session_minutes_sigma);
  d("arrivals.session_minutes_cap", c.arrivals.session_minutes_cap);
  d("arrivals.long_stay_prob", c.arrivals.long_stay_prob);
  d("arrivals.long_stay_hours_lo", c.arrivals.long_stay_hours_lo);
  d("arrivals.long_stay_hours_hi", c.arrivals.long_stay_hours_hi);

  d("activity.background_busy", c.activity.background_busy);
  d("activity.boot_busy", c.activity.boot_busy);
  d("activity.boot_busy_seconds", c.activity.boot_busy_seconds);
  d("activity.phase_minutes_mean", c.activity.phase_minutes_mean);
  d("activity.light_prob", c.activity.light_prob);
  d("activity.light_busy_lo", c.activity.light_busy_lo);
  d("activity.light_busy_hi", c.activity.light_busy_hi);
  d("activity.medium_prob", c.activity.medium_prob);
  d("activity.medium_busy_lo", c.activity.medium_busy_lo);
  d("activity.medium_busy_hi", c.activity.medium_busy_hi);
  d("activity.heavy_busy_lo", c.activity.heavy_busy_lo);
  d("activity.heavy_busy_hi", c.activity.heavy_busy_hi);
  d("activity.heavy_class_busy_lo", c.activity.heavy_class_busy_lo);
  d("activity.heavy_class_busy_hi", c.activity.heavy_class_busy_hi);
  d("activity.compute_server_fraction", c.activity.compute_server_fraction);
  d("activity.compute_server_busy_lo", c.activity.compute_server_busy_lo);
  d("activity.compute_server_busy_hi", c.activity.compute_server_busy_hi);

  d("memory.base_load_512mb", c.memory.base_load_512mb);
  d("memory.base_load_256mb", c.memory.base_load_256mb);
  d("memory.base_load_128mb", c.memory.base_load_128mb);
  d("memory.base_jitter", c.memory.base_jitter);
  d("memory.app_mb_mean", c.memory.app_mb_mean);
  d("memory.app_mb_sigma", c.memory.app_mb_sigma);
  d("memory.swap_base_512mb", c.memory.swap_base_512mb);
  d("memory.swap_base_256mb", c.memory.swap_base_256mb);
  d("memory.swap_base_128mb", c.memory.swap_base_128mb);
  d("memory.swap_jitter", c.memory.swap_jitter);
  d("memory.swap_app_points_mean", c.memory.swap_app_points_mean);

  d("disk.jitter_gb", c.disk.jitter_gb);
  d("disk.student_temp_mb_lo", c.disk.student_temp_mb_lo);
  d("disk.student_temp_mb_hi", c.disk.student_temp_mb_hi);
  d("disk.image_gb_large", c.disk.image_gb_large);
  d("disk.image_gb_medium", c.disk.image_gb_medium);
  d("disk.image_gb_small", c.disk.image_gb_small);
  d("disk.image_gb_tiny", c.disk.image_gb_tiny);
  d("disk.image_gb_mini", c.disk.image_gb_mini);

  d("network.background_sent_bps", c.network.background_sent_bps);
  d("network.background_recv_bps", c.network.background_recv_bps);
  d("network.background_jitter", c.network.background_jitter);
  d("network.active_recv_bps_mean", c.network.active_recv_bps_mean);
  d("network.active_recv_bps_sigma", c.network.active_recv_bps_sigma);
  d("network.active_sent_ratio_lo", c.network.active_sent_ratio_lo);
  d("network.active_sent_ratio_hi", c.network.active_sent_ratio_hi);

  b("power.sweeps_enabled", c.power.sweeps_enabled);
  d("power.off_after_walkin", c.power.off_after_walkin);
  d("power.off_after_class", c.power.off_after_class);
  d("power.off_after_evening", c.power.off_after_evening);
  i("power.evening_hour", c.power.evening_hour);
  d("power.sweep_kill_floor", c.power.sweep_kill_floor);
  d("power.sweep_kill_scale", c.power.sweep_kill_scale);
  d("power.weekend_kill_floor", c.power.weekend_kill_floor);
  d("power.weekend_kill_scale", c.power.weekend_kill_scale);
  d("power.ghost_kill_multiplier", c.power.ghost_kill_multiplier);
  d("power.sticky_fraction", c.power.sticky_fraction);
  d("power.sticky_stay_on_lo", c.power.sticky_stay_on_lo);
  d("power.sticky_stay_on_hi", c.power.sticky_stay_on_hi);
  d("power.normal_stay_on_lo", c.power.normal_stay_on_lo);
  d("power.normal_stay_on_hi", c.power.normal_stay_on_hi);
  d("power.class_start_reboot_prob", c.power.class_start_reboot_prob);
  d("power.short_cycles_per_day", c.power.short_cycles_per_day);
  d("power.short_cycle_minutes_lo", c.power.short_cycle_minutes_lo);
  d("power.short_cycle_minutes_hi", c.power.short_cycle_minutes_hi);

  d("forgotten.forget_prob_walkin", c.forgotten.forget_prob_walkin);
  d("forgotten.forget_prob_class", c.forgotten.forget_prob_class);
  d("forgotten.forget_prob_at_close", c.forgotten.forget_prob_at_close);
  d("forgotten.abandon_tail_minutes", c.forgotten.abandon_tail_minutes);

  return m;
}

}  // namespace

util::Result<CampusConfig> ParseCampusConfig(const std::string& ini_text,
                                             const CampusConfig& base) {
  using R = util::Result<CampusConfig>;
  const auto ini = util::IniFile::Parse(ini_text);
  if (!ini.ok()) return R::Err(ini.error());

  CampusConfig config = base;
  FieldMap map = BuildMap(config);

  for (const auto& key : ini.value().keys()) {
    // seed is the only 64-bit field and is handled specially.
    if (key == "experiment.seed") {
      const auto raw = ini.value().Get(key);
      const auto parsed = util::ParseInt64(*raw);
      if (!parsed) return R::Err("unparsable value for " + key);
      config.seed = static_cast<std::uint64_t>(*parsed);
      continue;
    }
    bool matched = false;
    bool ok = true;
    for (const auto& [name, field] : map.doubles) {
      if (name == key) {
        *field = ini.value().GetDouble(key, *field, &ok);
        matched = true;
        break;
      }
    }
    if (!matched) {
      for (const auto& [name, field] : map.ints) {
        if (name == key) {
          const std::int64_t value = ini.value().GetInt(key, *field, &ok);
          // A value the int field cannot hold must not wrap into range.
          if (value < std::numeric_limits<int>::min() ||
              value > std::numeric_limits<int>::max()) {
            ok = false;
          }
          *field = static_cast<int>(value);
          matched = true;
          break;
        }
      }
    }
    if (!matched) {
      for (const auto& [name, field] : map.bools) {
        if (name == key) {
          *field = ini.value().GetBool(key, *field, &ok);
          matched = true;
          break;
        }
      }
    }
    if (!matched) return R::Err("unknown scenario key: " + key);
    if (!ok) return R::Err("unparsable value for " + key);
  }
  // A negative horizon would size the trace with a huge reserve, and a
  // scale below 1 would silently run one copy of the labs.
  if (config.days < 1 || config.days > kMaxDays) {
    return R::Err("experiment.days must be in [1, " +
                  std::to_string(kMaxDays) + "], got " +
                  std::to_string(config.days));
  }
  if (config.scale_labs < 1 || config.scale_labs > kMaxScaleLabs) {
    return R::Err("experiment.scale_labs must be in [1, " +
                  std::to_string(kMaxScaleLabs) + "], got " +
                  std::to_string(config.scale_labs));
  }
  return config;
}

util::Result<CampusConfig> LoadCampusConfig(const std::string& path,
                                            const CampusConfig& base) {
  auto text = util::ReadTextFile(path);
  if (!text.ok()) return util::Result<CampusConfig>::Err(text.error());
  return ParseCampusConfig(text.value(), base);
}

std::string SaveCampusConfig(const CampusConfig& config) {
  CampusConfig copy = config;
  FieldMap map = BuildMap(copy);
  std::ostringstream out;
  out << "# labmon scenario file\n";
  out << "[experiment]\ndays = " << config.days << "\nseed = " << config.seed
      << "\n";
  // The manual header above already opened [experiment]; seed it into the
  // section tracker so map-order keys (scale_labs) land under it.
  std::string section = "experiment";
  const auto emit = [&](const std::string& key, const std::string& value) {
    const auto dot = key.find('.');
    const std::string sec = key.substr(0, dot);
    if (sec != section) {
      out << "\n[" << sec << "]\n";
      section = sec;
    }
    out << key.substr(dot + 1) << " = " << value << "\n";
  };
  // Emit in map order, which groups by section. 'experiment.days' was
  // already written explicitly above, so skip it here.
  for (const auto& [key, field] : map.ints) {
    if (key == "experiment.days") continue;
    emit(key, std::to_string(*field));
  }
  for (const auto& [key, field] : map.bools) {
    emit(key, *field ? "true" : "false");
  }
  for (const auto& [key, field] : map.doubles) {
    emit(key, util::FormatFixed(*field, 6));
  }
  return out.str();
}

}  // namespace labmon::workload
