#include "common/config.hpp"

#include <gtest/gtest.h>

#include <string>

namespace mcsim {
namespace {

TEST(SystemConfig, PaperDefaultHas100CycleMiss) {
  SystemConfig cfg = SystemConfig::paper_default(2, ConsistencyModel::kSC);
  EXPECT_EQ(cfg.clean_miss_latency(), 100u);
  EXPECT_TRUE(cfg.core.ideal_frontend);
  EXPECT_EQ(cfg.num_procs, 2u);
  EXPECT_TRUE(cfg.validate().empty()) << cfg.validate();
}

TEST(SystemConfig, WithCleanMissLatencyHitsTargetExactly) {
  SystemConfig cfg;
  for (std::uint32_t target : {10u, 25u, 100u, 101u, 400u}) {
    cfg.with_clean_miss_latency(target);
    EXPECT_EQ(cfg.clean_miss_latency(), target) << "target " << target;
  }
}

TEST(SystemConfig, ValidateCatchesBadGeometry) {
  SystemConfig cfg = SystemConfig::paper_default(1, ConsistencyModel::kRC);
  cfg.cache.line_bytes = 12;  // not a power of two
  EXPECT_FALSE(cfg.validate().empty());

  cfg = SystemConfig::paper_default(1, ConsistencyModel::kRC);
  cfg.cache.num_sets = 3;
  EXPECT_FALSE(cfg.validate().empty());

  // A set's block number and fill count share one 32-bit word.
  cfg = SystemConfig::paper_default(1, ConsistencyModel::kRC);
  cfg.cache.ways = CacheConfig::kMaxWays + 1;
  EXPECT_NE(cfg.validate().find("cache.ways"), std::string::npos) << cfg.validate();
  cfg.cache.ways = CacheConfig::kMaxWays;
  EXPECT_TRUE(cfg.validate().empty()) << cfg.validate();

  cfg = SystemConfig::paper_default(1, ConsistencyModel::kRC);
  cfg.cache.num_sets = CacheConfig::kMaxSets * 2;
  EXPECT_NE(cfg.validate().find("cache.num_sets"), std::string::npos) << cfg.validate();

  cfg = SystemConfig::paper_default(1, ConsistencyModel::kRC);
  cfg.num_procs = 0;
  EXPECT_FALSE(cfg.validate().empty());

  cfg = SystemConfig::paper_default(1, ConsistencyModel::kRC);
  cfg.core.rob_entries = 0;
  EXPECT_FALSE(cfg.validate().empty());

  cfg = SystemConfig::paper_default(1, ConsistencyModel::kRC);
  cfg.core.num_alus = 0;  // would wedge every ALU op until max_cycles
  EXPECT_NE(cfg.validate().find("num_alus"), std::string::npos) << cfg.validate();

  cfg = SystemConfig::paper_default(2, ConsistencyModel::kRC);
  cfg.per_core.resize(2, cfg.core);
  cfg.per_core[1].num_alus = 0;  // per-core overrides are checked too
  EXPECT_NE(cfg.validate().find("num_alus"), std::string::npos) << cfg.validate();
}

TEST(SystemConfig, ValidateBoundsLineBytesByMessagePayload) {
  SystemConfig cfg = SystemConfig::paper_default(1, ConsistencyModel::kRC);
  cfg.cache.line_bytes = 128;  // a message carries at most kMaxLineBytes inline
  EXPECT_NE(cfg.validate().find("line_bytes"), std::string::npos) << cfg.validate();

  cfg.cache.line_bytes = kMaxLineBytes;
  EXPECT_EQ(cfg.validate(), "");
}

TEST(SystemConfig, EnumNames) {
  EXPECT_STREQ(to_string(ConsistencyModel::kSC), "SC");
  EXPECT_STREQ(to_string(ConsistencyModel::kPC), "PC");
  EXPECT_STREQ(to_string(ConsistencyModel::kWC), "WC");
  EXPECT_STREQ(to_string(ConsistencyModel::kRC), "RC");
  EXPECT_STREQ(to_string(CoherenceKind::kInvalidation), "invalidation");
  EXPECT_STREQ(to_string(CoherenceKind::kUpdate), "update");
  EXPECT_STREQ(to_string(PrefetchMode::kNonBinding), "non-binding");
}

TEST(SystemConfig, RealisticIsNotIdeal) {
  SystemConfig cfg = SystemConfig::realistic(4, ConsistencyModel::kWC);
  EXPECT_FALSE(cfg.core.ideal_frontend);
  EXPECT_TRUE(cfg.validate().empty());
}

}  // namespace
}  // namespace mcsim
