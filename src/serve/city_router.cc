#include "serve/city_router.h"

#include <utility>

namespace start::serve {

CityRouter::CityRouter(const roadnet::GraphRegistry* registry)
    : registry_(registry) {}

CityRouter::~CityRouter() = default;

common::Status CityRouter::OpenCity(const std::string& city,
                                    CityConfig config) {
  if (config.encoder == nullptr || config.index == nullptr) {
    return common::Status::InvalidArgument(
        "city lane needs an encoder and an index: " + city);
  }
  std::shared_ptr<const roadnet::CityGraph> graph = registry_->Get(city);
  if (graph == nullptr) {
    return common::Status::NotFound("city not in graph registry: " + city);
  }
  auto lane = std::make_shared<Lane>();
  lane->graph = graph;
  lane->config = config;
  lane->pipeline = std::make_unique<StreamPipeline>(
      EngineBundle{config.encoder, config.index, nullptr},
      graph->network.get(), config.stream);

  std::unique_lock<std::shared_mutex> lock(mu_);
  const auto [it, inserted] = lanes_.emplace(city, std::move(lane));
  if (!inserted) {
    return common::Status::AlreadyExists("city lane already open: " + city);
  }
  return common::Status::OK();
}

std::shared_ptr<CityRouter::Lane> CityRouter::GetLane(
    std::string_view city) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  const auto it = lanes_.find(city);
  if (it == lanes_.end()) return nullptr;
  return it->second;
}

common::Status CityRouter::Push(std::string_view city, StreamItem item) {
  const std::shared_ptr<Lane> lane = GetLane(city);
  if (lane == nullptr) {
    return common::Status::NotFound("no serving lane for city: " +
                                    std::string(city));
  }
  return lane->pipeline->Push(std::move(item));
}

common::Result<std::vector<Neighbor>> CityRouter::Query(
    std::string_view city, const std::vector<float>& query, int64_t k) const {
  const std::shared_ptr<Lane> lane = GetLane(city);
  if (lane == nullptr) {
    return common::Status::NotFound("no serving lane for city: " +
                                    std::string(city));
  }
  return lane->config.index->Query(query, k);
}

common::Result<double> CityRouter::TravelTimeSeconds(
    std::string_view city, int64_t from_segment, int64_t to_segment) const {
  const std::shared_ptr<Lane> lane = GetLane(city);
  if (lane == nullptr) {
    return common::Status::NotFound("no serving lane for city: " +
                                    std::string(city));
  }
  const roadnet::CsrGraph& graph = *lane->graph->graph;
  const int64_t v = graph.num_nodes();
  if (from_segment < 0 || from_segment >= v || to_segment < 0 ||
      to_segment >= v) {
    return common::Status::OutOfRange("segment id out of range for city: " +
                                      std::string(city));
  }
  roadnet::ChEngine::QueryContext ctx;
  {
    std::lock_guard<std::mutex> lock(lane->ctx_mu);
    if (!lane->contexts.empty()) {
      ctx = std::move(lane->contexts.back());
      lane->contexts.pop_back();
    }
  }
  const roadnet::Cost cost =
      lane->graph->ch->Distance(graph.ToNode(from_segment),
                                graph.ToNode(to_segment), &ctx);
  {
    std::lock_guard<std::mutex> lock(lane->ctx_mu);
    lane->contexts.push_back(std::move(ctx));
  }
  if (cost >= roadnet::kInfCost) {
    return common::Status::NotFound("no route between segments in city: " +
                                    std::string(city));
  }
  return graph.CostToSeconds(cost);
}

common::Status CityRouter::Flush(std::string_view city) {
  const std::shared_ptr<Lane> lane = GetLane(city);
  if (lane == nullptr) {
    return common::Status::NotFound("no serving lane for city: " +
                                    std::string(city));
  }
  lane->pipeline->Flush();
  return common::Status::OK();
}

common::Result<PipelineStats> CityRouter::Stats(std::string_view city) const {
  const std::shared_ptr<Lane> lane = GetLane(city);
  if (lane == nullptr) {
    return common::Status::NotFound("no serving lane for city: " +
                                    std::string(city));
  }
  return lane->pipeline->stats();
}

std::vector<std::string> CityRouter::Cities() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(lanes_.size());
  for (const auto& [city, lane] : lanes_) out.push_back(city);
  return out;
}

}  // namespace start::serve
