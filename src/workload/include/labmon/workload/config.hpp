// Behavioural configuration of the simulated campus.
//
// Every stochastic behaviour the paper measures has an explicit knob here.
// `PaperCampusConfig()` returns the calibrated scenario whose emergent
// statistics reproduce the shape of the paper's results (Table 2,
// Figures 2–6); the calibration targets are listed in DESIGN.md.
#pragma once

#include <cstdint>

#include "labmon/util/time.hpp"

namespace labmon::workload {

/// Lab opening policy. The studied classrooms are open 20 h/day on
/// weekdays and Saturdays (closed 04:00–08:00), closed from Saturday 21:00
/// until Monday 08:00 (§4.2, §5.3).
struct OpeningHours {
  int open_hour = 8;            ///< doors open (each open day)
  int weekday_close_hour = 4;   ///< 04:00 *next day* close on Mon–Fri
  int saturday_close_hour = 21; ///< Saturday closes at 21:00
  bool sunday_open = false;     ///< Sundays closed
};

/// Weekly class timetable generation.
struct TimetableModel {
  /// Two-hour teaching slots start at these hours on weekdays.
  static constexpr int kWeekdaySlots[5] = {8, 10, 14, 16, 18};
  static constexpr int kSaturdaySlots[2] = {9, 11};
  /// Probability a weekday slot hosts a class in the *average* lab; actual
  /// per-lab probability is scaled by lab popularity (fast labs teach more).
  double weekday_slot_prob = 0.52;
  double saturday_slot_prob = 0.16;
  /// How strongly popularity skews class allocation (0 = uniform).
  double popularity_skew = 0.70;
  /// Fraction of a lab's seats occupied by enrolled students in a class.
  double class_occupancy = 0.72;
  /// Probability an ongoing walk-in session survives a class starting in
  /// its lab (the student is attending, or simply stays put).
  double keep_walkin_in_class = 0.85;
  /// Seat occupancy of the CPU-heavy practical (it was well attended).
  double heavy_class_occupancy = 0.80;
  /// The infamous Tuesday-afternoon CPU-heavy class (§5.3): lab index,
  /// start hour and duration. Disabled when lab index is negative.
  int heavy_class_lab = 2;        ///< L03 (fast P4 lab)
  int heavy_class_start_hour = 14;
  int heavy_class_hours = 3;      ///< 14:00–17:00 Tuesday
};

/// Walk-in (outside-class) student arrivals.
struct ArrivalModel {
  /// Fleet-wide mean arrivals per hour at the weekday peak; per-lab rates
  /// are this split by popularity weight.
  double weekday_peak_per_hour = 15.5;
  /// Multipliers shaping the day: morning ramp, lunch, afternoon peak,
  /// evening decline, late night trickle.
  double morning_factor = 0.55;    ///< 08–10
  double midday_factor = 0.85;     ///< 10–14
  double afternoon_factor = 1.0;   ///< 14–18
  double evening_factor = 0.65;    ///< 18–22
  double night_factor = 0.20;      ///< 22–04 (labs open late)
  double saturday_factor = 0.25;   ///< whole-day multiplier on Saturdays
  /// How strongly walk-ins prefer fast labs: weight = (1-bias) + bias*pop.
  /// Classrooms: students flock to the P4 rooms; corporate owners have no
  /// choice (bias 0).
  double popularity_bias = 0.85;
  /// Corporate semantics: an arriving owner goes to their *own* (usually
  /// powered-off) box rather than to any free running machine.
  bool prefer_off_machines = false;
  /// Mean/σ of walk-in session length (minutes, log-normal).
  double session_minutes_mean = 82.0;
  double session_minutes_sigma = 68.0;
  double session_minutes_cap = 480.0;
  /// Long-stay students (whole afternoon/evening in the lab): probability
  /// and uniform length range in hours. These populate the 2–9 h bins of
  /// Figure 2 with genuinely active sessions.
  double long_stay_prob = 0.20;
  double long_stay_hours_lo = 6.5;
  double long_stay_hours_hi = 10.6;
};

/// Interactive-session resource behaviour.
struct ActivityModel {
  /// Idle-machine background CPU (services, probes): 0.0025 -> 99.75% idle.
  double background_busy = 0.0025;
  /// Boot burst: CPU pegged at `boot_busy` for `boot_busy_seconds`.
  double boot_busy = 0.45;
  double boot_busy_seconds = 60.0;
  /// Interactive activity is a renewal process of phases with this mean
  /// length (minutes, exponential).
  double phase_minutes_mean = 8.0;
  /// Phase busy-fraction mixture: light (reading/typing), medium (apps),
  /// heavy (compiles/multimedia). Calibrated so an interactive session
  /// consumes ~5.5% CPU on average (Table 2's 94.2% idleness).
  double light_prob = 0.70;
  double light_busy_lo = 0.008, light_busy_hi = 0.05;
  double medium_prob = 0.27;
  double medium_busy_lo = 0.05, medium_busy_hi = 0.17;
  double heavy_busy_lo = 0.25, heavy_busy_hi = 0.60;
  /// CPU-heavy class sessions draw busy uniformly from this range.
  double heavy_class_busy_lo = 0.56, heavy_class_busy_hi = 0.82;
  /// Fraction of machines running continuous compute jobs whenever on
  /// (Bolosky et al. observed such always-100% boxes in the corporate
  /// fleet; zero in classrooms).
  double compute_server_fraction = 0.0;
  double compute_server_busy_lo = 0.90, compute_server_busy_hi = 1.0;
};

/// dwMemoryLoad model: base OS load by installed RAM plus the footprint of
/// interactive applications.
struct MemoryModel {
  double base_load_512mb = 41.5;
  double base_load_256mb = 56.0;
  double base_load_128mb = 65.5;
  double base_jitter = 3.0;        ///< per-boot N(0, σ) wobble
  double app_mb_mean = 62.0;       ///< RAM consumed by a session's apps
  double app_mb_sigma = 22.0;
  double swap_base_512mb = 19.5;
  double swap_base_256mb = 25.0;
  double swap_base_128mb = 31.0;
  double swap_jitter = 2.5;
  /// Extra page-file load while a session's apps are open (percent points,
  /// scaled like app memory by machine size).
  double swap_app_points_mean = 12.0;
};

/// Disk usage: OS + class software image per machine, plus the 100–300 MB
/// student temp area cleared at logout (§5).
struct DiskModel {
  double jitter_gb = 1.0;
  double student_temp_mb_lo = 100.0;
  double student_temp_mb_hi = 300.0;
  /// OS+software image size by disk capacity (GB); interpolated by
  /// capacity thresholds in the driver.
  double image_gb_large = 18.3;   ///< 74.5 GB disks
  double image_gb_medium = 14.6;  ///< 55–60 GB disks
  double image_gb_small = 13.5;   ///< 37 GB disks
  double image_gb_tiny = 10.2;    ///< 18.6 GB disks
  double image_gb_mini = 9.4;     ///< 14.5 GB disks
};

/// NIC traffic model (client-role machines: received >> sent).
struct NetworkModel {
  double background_sent_bps = 250.0;  ///< domain/broadcast chatter
  double background_recv_bps = 350.0;
  double background_jitter = 0.25;     ///< relative σ
  /// Active-phase traffic (log-normal, mean/σ in bytes per second).
  double active_recv_bps_mean = 36000.0;
  double active_recv_bps_sigma = 40000.0;
  double active_sent_ratio_lo = 0.18;  ///< sent = recv * U(lo, hi)
  double active_sent_ratio_hi = 0.42;
};

/// Power on/off habits — the availability engine behind Figs 3/4 and §5.2.
struct PowerModel {
  /// Closing-time sweeps happen at all (classrooms: yes; the corporate
  /// comparison scenario of §5.1 has no cleaning staff powering boxes off).
  bool sweeps_enabled = true;
  /// Probability a student powers the machine off when their session ends.
  double off_after_walkin = 0.18;
  double off_after_class = 0.18;
  /// Sessions ending late (>= `evening_hour`) are likelier to end with a
  /// shutdown — the user is leaving for the day.
  double off_after_evening = 0.72;
  int evening_hour = 19;
  /// Nightly closing sweep: P(shutdown) = floor + scale*(1 - stay_on_i).
  double sweep_kill_floor = 0.06;
  double sweep_kill_scale = 0.78;
  /// Kill-probability multiplier for machines with a live (forgotten)
  /// session on screen — staff hesitates to cut someone's "work".
  double ghost_kill_multiplier = 0.45;
  /// Saturday-close sweep is more thorough (weekend shutdown).
  double weekend_kill_floor = 0.38;
  double weekend_kill_scale = 0.45;
  /// Per-machine "left running" tendency: a bimodal population. Most
  /// machines are dutifully switched off (stay_on in the low range); a
  /// small "sticky" fraction — the server-ish boxes of Fig 4's tail — is
  /// habitually left running.
  double sticky_fraction = 0.20;
  double sticky_stay_on_lo = 0.70;
  double sticky_stay_on_hi = 0.88;
  double normal_stay_on_lo = 0.00;
  double normal_stay_on_hi = 0.15;
  /// P(classroom prep reboots an already-running machine at class start).
  double class_start_reboot_prob = 0.10;
  /// Expected short power cycles (<15 min, invisible to 15-min sampling)
  /// per machine per open day (§5.2.2's 30% cycle excess). Attempts landing
  /// on machines that are already on are dropped, so the effective rate is
  /// roughly half of this.
  double short_cycles_per_day = 1.7;
  double short_cycle_minutes_lo = 2.0;
  double short_cycle_minutes_hi = 7.0;
};

/// Forgotten-logout behaviour (§4.2, Figure 2).
struct ForgottenModel {
  /// Probability a session ends by walking away without logging out.
  double forget_prob_walkin = 0.18;
  double forget_prob_class = 0.10;
  /// Probability that a user still logged in at closing time leaves the
  /// session open (shooed out by staff) rather than logging out. Forgotten
  /// sessions on machines that survive the sweep persist across days —
  /// the source of the paper's 87,830 >= 10 h login samples.
  double forget_prob_at_close = 0.45;
  /// A forgotten session stays "active-looking" for a short tail before
  /// the machine goes fully idle (minutes, exponential).
  double abandon_tail_minutes = 12.0;
};

/// Accepted ranges of CampusConfig::days ([1, kMaxDays]) and
/// CampusConfig::scale_labs ([1, kMaxScaleLabs]); scenario files and
/// fleet_report's arguments outside them are refused.
inline constexpr int kMaxDays = 10000;
inline constexpr int kMaxScaleLabs = 1024;

/// Top-level campus scenario.
struct CampusConfig {
  int days = 77;             ///< experiment length (starts on a Monday)
  std::uint64_t seed = 20050201;  ///< master seed (paper ran Jan–Apr 2005)
  /// Lab-replication factor: the campus holds `scale_labs` copies of the 11
  /// paper labs (169·K machines). The walk-in arrival peak scales with K so
  /// every replica behaves like the paper campus; 1 = the paper itself.
  int scale_labs = 1;

  OpeningHours hours;
  TimetableModel timetable;
  ArrivalModel arrivals;
  ActivityModel activity;
  MemoryModel memory;
  DiskModel disk;
  NetworkModel network;
  PowerModel power;
  ForgottenModel forgotten;

  [[nodiscard]] util::SimTime EndTime() const noexcept {
    return util::SimTime{days} * util::kSecondsPerDay;
  }
};

/// The calibrated scenario reproducing the paper (defaults above are the
/// calibration; this exists as the single named entry point).
[[nodiscard]] CampusConfig PaperCampusConfig();

/// The corporate desktop environment the paper contrasts against (§5.1,
/// after Bolosky et al.): owner-assigned machines, no classes, no closing
/// sweeps, a daytime/24-hour split of power habits, and a minority of
/// always-busy compute boxes. Used by the corporate_comparison bench.
[[nodiscard]] CampusConfig CorporateCampusConfig();

}  // namespace labmon::workload
