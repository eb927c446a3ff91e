#include "common/stats.hpp"

#include <gtest/gtest.h>

#include "common/histogram.hpp"

namespace mcsim {
namespace {

TEST(StatSet, CountersStartAtZero) {
  StatSet s("x");
  EXPECT_EQ(s.get("missing"), 0u);
}

TEST(StatSet, AddAccumulates) {
  StatSet s("x");
  s.add("hits");
  s.add("hits", 4);
  EXPECT_EQ(s.get("hits"), 5u);
}

TEST(StatSet, SamplesTrackMeanCountMax) {
  StatSet s("x");
  s.sample("lat", 10);
  s.sample("lat", 20);
  s.sample("lat", 90);
  const LogHistogram* h = s.histogram("lat");
  ASSERT_NE(h, nullptr);
  EXPECT_DOUBLE_EQ(h->mean(), 40.0);
  EXPECT_EQ(h->count(), 3u);
  EXPECT_EQ(h->max(), 90u);
  EXPECT_EQ(s.histogram("absent"), nullptr);
}

TEST(StatSet, ReportContainsPrefixAndValues) {
  StatSet s("core0");
  s.add("retired", 42);
  std::string rep = s.report();
  EXPECT_NE(rep.find("core0.retired 42"), std::string::npos);
}

TEST(StatSet, ClearRemovesEverything) {
  StatSet s("x");
  s.add("a", 7);
  s.sample("b", 1);
  s.clear();
  EXPECT_EQ(s.get("a"), 0u);
  EXPECT_EQ(s.histogram("b"), nullptr);
}

TEST(StatNames, InternIsStableAndDense) {
  StatId a1 = StatNames::intern("intern_test.alpha");
  StatId a2 = StatNames::intern("intern_test.alpha");
  StatId b = StatNames::intern("intern_test.beta");
  EXPECT_TRUE(a1.valid());
  EXPECT_EQ(a1, a2);                       // same name, same id
  EXPECT_NE(a1.value(), b.value());        // distinct names, distinct ids
  EXPECT_EQ(StatNames::name(a1), "intern_test.alpha");
  EXPECT_EQ(StatNames::name(b), "intern_test.beta");
  EXPECT_GT(StatNames::count(), a1.value());
}

TEST(StatSet, IdAndStringPathsAgree) {
  StatSet s("x");
  StatId hits = StatNames::intern("hits");
  s.add(hits);             // id path
  s.add("hits", 4);        // string path hits the same slot
  EXPECT_EQ(s.get(hits), 5u);
  EXPECT_EQ(s.get("hits"), 5u);
}

TEST(StatSet, IdAndStringSamplePathsAgree) {
  StatSet s("x");
  StatId lat = StatNames::intern("lat");
  s.sample(lat, 10);
  s.sample("lat", 20);
  s.sample(lat, 90);
  const LogHistogram* h = s.histogram(lat);
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(s.histogram("lat"), h);
  EXPECT_DOUBLE_EQ(h->mean(), 40.0);
  EXPECT_EQ(h->count(), 3u);
  EXPECT_EQ(h->max(), 90u);
}

TEST(StatSet, ReportUnchangedByInterning) {
  // The report format must be byte-identical to the string-keyed
  // original: sorted by name, "prefix.name value" then sample lines.
  StatSet s("core0");
  s.add("zeta", 1);
  s.add("alpha", 2);
  s.add("explicit_zero", 0);  // a touch makes a counter reportable even at 0
  s.sample("lat", 10);
  s.sample("lat", 30);
  EXPECT_EQ(s.report(),
            "core0.alpha 2\n"
            "core0.explicit_zero 0\n"
            "core0.zeta 1\n"
            "core0.lat.mean 20 (n=2, p50=15, p90=30, p99=30, max=30)\n");
}

TEST(StatSet, SamplesExposePercentilesAndHistogram) {
  StatSet s("x");
  s.sample("lat", 10);
  s.sample("lat", 20);
  s.sample("lat", 90);
  const LogHistogram* h = s.histogram("lat");
  ASSERT_NE(h, nullptr);
  // p50: 2nd of 3 obs lands in bucket [16,31] -> upper bound 31.
  EXPECT_EQ(h->percentile(0.50), 31u);
  // p90/p99: 3rd obs, bucket [64,127], clamped to the exact max.
  EXPECT_EQ(h->percentile(0.90), 90u);
  EXPECT_EQ(h->percentile(0.99), 90u);
  EXPECT_EQ(h->count(), 3u);
  EXPECT_EQ(s.histogram("never_sampled"), nullptr);
}

TEST(StatSet, CountersPresizedToInternedNames) {
  // Construction presizes the dense counter vector to every name
  // interned so far, so hot-path add(id) never reallocates.
  StatNames::intern("presize_probe");
  StatSet s("x");
  EXPECT_GE(s.counter_slots(), StatNames::count());
}

TEST(LogHistogram, MergeEqualsSamplingTheUnion) {
  // Campaign-level aggregation (SweepInfo agg_* and the profiler's
  // cross-core folds) relies on merge being exact: merging two
  // histograms must be indistinguishable from having recorded every
  // observation into a single one — buckets, count, sum, max, and
  // therefore every derived percentile.
  const std::uint64_t vals_a[] = {0, 1, 3, 7, 120, 120, 4096};
  const std::uint64_t vals_b[] = {2, 63, 64, 65, 9999, std::uint64_t{1} << 40};
  LogHistogram a, b, united;
  for (std::uint64_t v : vals_a) {
    a.record(v);
    united.record(v);
  }
  for (std::uint64_t v : vals_b) {
    b.record(v);
    united.record(v);
  }
  LogHistogram merged = a;
  merged.merge(b);
  EXPECT_EQ(merged.count(), united.count());
  EXPECT_EQ(merged.sum(), united.sum());
  EXPECT_EQ(merged.max(), united.max());
  EXPECT_EQ(merged.mean(), united.mean());
  for (std::size_t bk = 0; bk < LogHistogram::kBuckets; ++bk) {
    EXPECT_EQ(merged.bucket_count(bk), united.bucket_count(bk)) << "bucket " << bk;
  }
  EXPECT_EQ(merged.p50(), united.p50());
  EXPECT_EQ(merged.p90(), united.p90());
  EXPECT_EQ(merged.p99(), united.p99());
  // Merging an empty histogram is the identity.
  LogHistogram empty;
  merged.merge(empty);
  EXPECT_EQ(merged.count(), united.count());
  EXPECT_EQ(merged.p99(), united.p99());
}

TEST(StatSet, UntouchedIdsStayOutOfReports) {
  // Interning a name (even at static-init in some other component)
  // must not make it appear in every StatSet's report.
  StatNames::intern("never_touched_in_this_set");
  StatSet s("x");
  s.add("real", 1);
  EXPECT_EQ(s.counters().size(), 1u);
  EXPECT_EQ(s.report().find("never_touched"), std::string::npos);
}

}  // namespace
}  // namespace mcsim
