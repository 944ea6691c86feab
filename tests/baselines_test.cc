#include <cmath>
#include <cstring>
#include <functional>
#include <gtest/gtest.h>
#include <memory>

#include "baselines/node2vec.h"
#include "baselines/pim.h"
#include "baselines/seq2seq.h"
#include "baselines/transformer.h"
#include "data/dataset.h"
#include "roadnet/synthetic_city.h"
#include "traj/trip_generator.h"

namespace start::baselines {
namespace {

class BaselinesTest : public ::testing::Test {
 protected:
  BaselinesTest()
      : net_(roadnet::BuildSyntheticCity(
            {.grid_width = 5, .grid_height = 5})),
        traffic_(&net_, {}) {
    traj::TripGenerator::Config config;
    config.num_drivers = 4;
    config.num_days = 4;
    config.trips_per_driver_day = 4.0;
    traj::TripGenerator gen(&traffic_, config);
    auto raw = gen.Generate();
    data::DatasetConfig ds;
    ds.min_length = 5;
    ds.min_user_trajectories = 3;
    corpus_ = data::TrajDataset::FromCorpus(net_, std::move(raw), ds).All();
  }

  PretrainOptions QuickOptions() const {
    PretrainOptions options;
    options.epochs = 2;
    options.batch_size = 8;
    return options;
  }

  /// Builds one model; called twice, it must build the same model twice.
  using MakeModel = std::function<std::unique_ptr<SequenceBaseline>()>;

  void CheckEncoderContract(const MakeModel& make) {
    // Pretraining runs and returns a finite loss.
    const auto model = make();
    const double loss = model->Pretrain(corpus_, QuickOptions());
    EXPECT_TRUE(std::isfinite(loss));
    // Pretraining is a pure function of construction, corpus and options: a
    // twin built and seeded the same way ends it with the same bytes.
    const auto twin = make();
    EXPECT_EQ(twin->Pretrain(corpus_, QuickOptions()), loss);
    const auto params = model->Parameters();
    const auto twin_params = twin->Parameters();
    ASSERT_EQ(params.size(), twin_params.size());
    for (size_t p = 0; p < params.size(); ++p) {
      ASSERT_EQ(params[p].numel(), twin_params[p].numel());
      EXPECT_EQ(std::memcmp(params[p].data(), twin_params[p].data(),
                            static_cast<size_t>(params[p].numel()) *
                                sizeof(float)),
                0)
          << "parameter " << p << " differs between twin pretraining runs";
    }
    // Embeddings have the right shape and are finite and non-constant.
    std::vector<traj::Trajectory> sample(corpus_.begin(),
                                         corpus_.begin() + 6);
    const auto emb = model->EmbedAll(sample, eval::EncodeMode::kFull);
    ASSERT_EQ(static_cast<int64_t>(emb.size()), 6 * model->dim());
    double var = 0.0;
    for (int64_t j = 0; j < model->dim(); ++j) {
      double mean = 0.0;
      for (int64_t i = 0; i < 6; ++i) mean += emb[i * model->dim() + j];
      mean /= 6.0;
      for (int64_t i = 0; i < 6; ++i) {
        const double d = emb[i * model->dim() + j] - mean;
        var += d * d;
      }
    }
    EXPECT_GT(var, 1e-8);
    for (const float v : emb) EXPECT_TRUE(std::isfinite(v));
    // The inference contract (eval/encoder.h): each EmbedAll row equals that
    // trajectory encoded alone, bitwise, whatever shares its bucketed batch.
    const int64_t d = model->dim();
    for (const auto mode :
         {eval::EncodeMode::kFull, eval::EncodeMode::kDepartureOnly}) {
      const auto rows = model->EmbedAll(corpus_, mode);
      tensor::NoGradGuard no_grad;
      for (size_t i = 0; i < corpus_.size(); ++i) {
        const tensor::Tensor alone =
            model->EncodeBatch({&corpus_[i]}, mode).Contiguous();
        EXPECT_EQ(std::memcmp(rows.data() + i * d, alone.data(),
                              static_cast<size_t>(d) * sizeof(float)),
                  0)
            << "row " << i << " differs from its solo encode";
      }
    }
  }

  roadnet::RoadNetwork net_;
  traj::TrafficModel traffic_;
  std::vector<traj::Trajectory> corpus_;
};

TEST_F(BaselinesTest, Node2VecEmbedsNeighborsCloser) {
  Node2VecConfig config;
  config.dim = 16;
  config.epochs = 3;
  const auto emb = TrainNode2Vec(net_, config);
  ASSERT_EQ(static_cast<int64_t>(emb.size()), net_.num_segments() * 16);
  // Cosine similarity of connected pairs should exceed random pairs.
  auto cosine = [&](int64_t a, int64_t b) {
    double dot = 0.0, na = 0.0, nb = 0.0;
    for (int64_t j = 0; j < 16; ++j) {
      dot += emb[a * 16 + j] * emb[b * 16 + j];
      na += emb[a * 16 + j] * emb[a * 16 + j];
      nb += emb[b * 16 + j] * emb[b * 16 + j];
    }
    return dot / std::sqrt(na * nb + 1e-12);
  };
  double connected = 0.0;
  int64_t nc = 0;
  for (size_t e = 0; e < net_.edge_sources().size(); e += 3) {
    connected += cosine(net_.edge_sources()[e], net_.edge_targets()[e]);
    ++nc;
  }
  common::Rng rng(1);
  double random = 0.0;
  int64_t nr = 0;
  for (int i = 0; i < 200; ++i) {
    const int64_t a = rng.UniformInt(net_.num_segments());
    const int64_t b = rng.UniformInt(net_.num_segments());
    if (a == b) continue;
    random += cosine(a, b);
    ++nr;
  }
  EXPECT_GT(connected / nc, random / nr + 0.05);
}

TEST_F(BaselinesTest, Traj2VecContract) {
  CheckEncoderContract([&] {
    common::Rng rng(2);
    return std::make_unique<Traj2Vec>(Seq2SeqConfig{.d = 16}, &net_, &rng);
  });
}

TEST_F(BaselinesTest, T2VecContract) {
  CheckEncoderContract([&] {
    common::Rng rng(3);
    return std::make_unique<T2Vec>(Seq2SeqConfig{.d = 16}, &net_, &rng);
  });
}

TEST_F(BaselinesTest, TrembrContract) {
  CheckEncoderContract([&] {
    common::Rng rng(4);
    return std::make_unique<Trembr>(Seq2SeqConfig{.d = 16}, &net_, &rng);
  });
}

TransformerBaselineConfig SmallTransformer() {
  TransformerBaselineConfig config;
  config.d = 16;
  config.layers = 1;
  config.heads = 2;
  return config;
}

TEST_F(BaselinesTest, TransformerMlmContract) {
  CheckEncoderContract([&] {
    common::Rng rng(5);
    return std::make_unique<TransformerMlm>(SmallTransformer(), &net_, &rng);
  });
}

TEST_F(BaselinesTest, BertContract) {
  CheckEncoderContract([&] {
    common::Rng rng(6);
    return std::make_unique<Bert>(SmallTransformer(), &net_, &rng);
  });
}

TEST_F(BaselinesTest, ToastUsesNode2VecInit) {
  Node2VecConfig n2v;
  n2v.dim = 16;
  n2v.epochs = 1;
  TransformerBaselineConfig config = SmallTransformer();
  config.road_embedding_init = TrainNode2Vec(net_, n2v);
  CheckEncoderContract([&] {
    common::Rng rng(7);
    return std::make_unique<Toast>(config, &net_, &rng);
  });
}

TEST_F(BaselinesTest, PimContract) {
  CheckEncoderContract([&] {
    common::Rng rng(8);
    PimConfig config;
    config.d = 16;
    return std::make_unique<Pim>(config, &net_, &rng);
  });
}

TEST_F(BaselinesTest, PimTfContract) {
  CheckEncoderContract([&] {
    common::Rng rng(9);
    PimConfig config;
    config.d = 16;
    return std::make_unique<PimTf>(config, &net_, &rng);
  });
}

TEST_F(BaselinesTest, PretrainRefusesAOneTrajectoryCorpus) {
  // One trajectory would run no batch: an untrained model and a loss of 0.
  common::Rng rng(2);
  Traj2Vec model({.d = 16}, &net_, &rng);
  const std::vector<traj::Trajectory> one(corpus_.begin(),
                                          corpus_.begin() + 1);
  EXPECT_DEATH(model.Pretrain(one, QuickOptions()),
               "at least 2 items, got 1");
}

TEST_F(BaselinesTest, TrembrPretrainingReducesLoss) {
  common::Rng rng(10);
  Trembr model({.d = 16}, &net_, &rng);
  PretrainOptions one;
  one.epochs = 1;
  one.batch_size = 8;
  const double first = model.Pretrain(corpus_, one);
  PretrainOptions more = one;
  more.epochs = 3;
  const double later = model.Pretrain(corpus_, more);
  EXPECT_LT(later, first);
}

}  // namespace
}  // namespace start::baselines
