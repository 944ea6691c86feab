#include "data/detour.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"

namespace start::data {
namespace {

/// The randomly selected consecutive sub-trajectory to replace.
struct Section {
  int64_t start = 0;                ///< Index of the first replaced road.
  int64_t span = 0;                 ///< Number of replaced roads.
  int64_t section_entry = 0;        ///< Entry timestamp of the section.
  double orig_time = 0.0;           ///< Original section travel time (s).
  std::vector<int64_t> original;    ///< The replaced road sequence.
};

/// Selects a section of length <= pd * n (Sec. IV-D4a). Shared verbatim by
/// the Yen and CH generators so both consume the rng identically.
std::optional<Section> SelectSection(const traj::Trajectory& t,
                                     const DetourConfig& config,
                                     common::Rng* rng) {
  START_CHECK(rng != nullptr);
  const int64_t n = t.size();
  if (n < 4) return std::nullopt;
  Section sec;
  sec.span = std::clamp<int64_t>(
      static_cast<int64_t>(config.select_proportion * n), 2, n);
  sec.start = rng->UniformInt(n - sec.span + 1);
  const int64_t origin = t.roads[static_cast<size_t>(sec.start)];
  const int64_t dest = t.roads[static_cast<size_t>(sec.start + sec.span - 1)];
  if (origin == dest) return std::nullopt;
  sec.original.assign(t.roads.begin() + sec.start,
                      t.roads.begin() + sec.start + sec.span);
  sec.section_entry = t.timestamps[static_cast<size_t>(sec.start)];
  const int64_t section_exit =
      (sec.start + sec.span < n)
          ? t.timestamps[static_cast<size_t>(sec.start + sec.span)]
          : t.end_time;
  sec.orig_time = static_cast<double>(section_exit - sec.section_entry);
  if (sec.orig_time <= 0.0) return std::nullopt;
  return sec;
}

/// Splices the first candidate whose expected travel time deviates from the
/// original section by more than `time_threshold`, re-timing from the
/// section entry with the deterministic congestion profile.
std::optional<traj::Trajectory> SpliceFirstQualifying(
    const traj::TrafficModel& traffic, const traj::Trajectory& t,
    const DetourConfig& config, const Section& sec,
    const std::vector<std::vector<int64_t>>& candidates) {
  auto expected_time = [&](const std::vector<int64_t>& path) {
    double clock = static_cast<double>(sec.section_entry);
    for (const int64_t r : path) {
      clock += traffic.ExpectedTravelTime(r, static_cast<int64_t>(clock));
    }
    return clock - static_cast<double>(sec.section_entry);
  };
  for (const auto& path : candidates) {
    if (path == sec.original) continue;
    const double cand_time = expected_time(path);
    // "If the travel time of the searched trajectory exceeds a certain
    // threshold t_d with respect to the original trajectory" (Sec. IV-D4a).
    if (std::fabs(cand_time - sec.orig_time) / sec.orig_time <=
        config.time_threshold) {
      continue;
    }
    traj::Trajectory out;
    out.driver_id = t.driver_id;
    out.occupied = t.occupied;
    out.transport_mode = t.transport_mode;
    out.roads.assign(t.roads.begin(), t.roads.begin() + sec.start);
    out.roads.insert(out.roads.end(), path.begin(), path.end());
    out.roads.insert(out.roads.end(),
                     t.roads.begin() + sec.start + sec.span, t.roads.end());
    out.timestamps.assign(t.timestamps.begin(),
                          t.timestamps.begin() + sec.start);
    double clock = static_cast<double>(sec.section_entry);
    for (size_t i = static_cast<size_t>(sec.start); i < out.roads.size();
         ++i) {
      out.timestamps.push_back(static_cast<int64_t>(clock));
      clock += std::max(
          1.0, traffic.ExpectedTravelTime(out.roads[i],
                                          static_cast<int64_t>(clock)));
    }
    out.end_time = static_cast<int64_t>(clock);
    return out;
  }
  return std::nullopt;
}

}  // namespace

std::optional<traj::Trajectory> MakeDetour(const traj::TrafficModel& traffic,
                                           const roadnet::CsrGraph& free_flow,
                                           const traj::Trajectory& t,
                                           const DetourConfig& config,
                                           common::Rng* rng) {
  START_CHECK_EQ(free_flow.num_nodes(), traffic.network().num_segments());
  const auto sec = SelectSection(t, config, rng);
  if (!sec.has_value()) return std::nullopt;
  const auto yen = roadnet::KShortestPaths(
      free_flow, free_flow.ToNode(sec->original.front()),
      free_flow.ToNode(sec->original.back()), config.top_k);
  std::vector<std::vector<int64_t>> candidates;
  candidates.reserve(yen.size());
  for (const auto& cand : yen) {
    candidates.push_back(free_flow.ToSegments(cand.nodes));
  }
  return SpliceFirstQualifying(traffic, t, config, *sec, candidates);
}

DetourGenerator::DetourGenerator(const traj::TrafficModel* traffic,
                                 const DetourConfig& config)
    : traffic_(traffic), config_(config) {
  START_CHECK(traffic != nullptr);
  graph_ = std::make_unique<roadnet::CsrGraph>(
      roadnet::CsrGraph::FromNetworkFreeFlow(traffic->network()));
  ch_ = std::make_unique<roadnet::ChEngine>(
      roadnet::ChEngine::Build(graph_.get()));
  ctx_ = ch_->MakeContext();
}

std::optional<traj::Trajectory> DetourGenerator::Generate(
    const traj::Trajectory& t, common::Rng* rng) {
  const auto sec = SelectSection(t, config_, rng);
  if (!sec.has_value()) return std::nullopt;
  const auto alts = ch_->AlternativeRoutes(
      graph_->ToNode(sec->original.front()),
      graph_->ToNode(sec->original.back()), config_.top_k, &ctx_);
  std::vector<std::vector<int64_t>> candidates;
  candidates.reserve(alts.size());
  for (const auto& alt : alts) candidates.push_back(graph_->ToSegments(alt.nodes));
  return SpliceFirstQualifying(*traffic_, t, config_, *sec, candidates);
}

}  // namespace start::data
