/// Direct tests of the multi-granularity base index (§4.5), including the
/// rare wildcard probe path where the *detail* side holds ALL (a cuboid
/// feeding another MD-join, as in Theorem 4.5 chains).

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "common/random.h"
#include "core/base_index.h"
#include "cube/base_tables.h"
#include "tests/test_util.h"

namespace mdjoin {
namespace {

using namespace mdjoin::dsl;  // NOLINT
using testutil::ALL;
using testutil::I;
using testutil::NUL;
using testutil::S;

Table MakeBase(std::vector<std::vector<Value>> rows) {
  TableBuilder b({{"prod", DataType::kInt64}, {"month", DataType::kInt64}});
  for (auto& row : rows) b.AppendRowOrDie(std::move(row));
  return std::move(b).Finish();
}

Table MakeDetail(std::vector<std::vector<Value>> rows) {
  TableBuilder b({{"prod", DataType::kInt64},
                  {"month", DataType::kInt64},
                  {"sale", DataType::kFloat64}});
  for (auto& row : rows) b.AppendRowOrDie(std::move(row));
  return std::move(b).Finish();
}

std::vector<EquiPair> DimEqui() {
  return {{BCol("prod"), RCol("prod")}, {BCol("month"), RCol("month")}};
}

std::vector<int64_t> AllRows(const Table& t) {
  std::vector<int64_t> rows(static_cast<size_t>(t.num_rows()));
  for (int64_t i = 0; i < t.num_rows(); ++i) rows[static_cast<size_t>(i)] = i;
  return rows;
}

/// One probe through `scratch`, sorted. With the default fresh scratch the
/// code-key memo is off, so the walk answers.
std::vector<int64_t> Probe(const BaseIndex& index, const Table& detail, int64_t row,
                           BaseIndex::ProbeScratch* scratch = nullptr) {
  BaseIndex::ProbeScratch fresh;
  fresh.memo_enabled = false;  // one probe can never hit the memo
  if (scratch == nullptr) scratch = &fresh;
  std::vector<int64_t> gather;
  const BaseIndex::ProbeResult r = index.ProbeSpan(detail, row, scratch, &gather);
  std::vector<int64_t> out(r.rows, r.rows + r.count);
  std::sort(out.begin(), out.end());
  return out;
}

TEST(BaseIndexTest, FlatBaseSingleBucket) {
  Table base = MakeBase({{I(1), I(1)}, {I(1), I(2)}, {I(2), I(1)}});
  Table detail = MakeDetail({{I(1), I(2), testutil::F(5)}});
  Result<BaseIndex> index = BaseIndex::Build(base, AllRows(base), DimEqui(),
                                             detail.schema());
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_EQ(index->num_masks(), 1);
  EXPECT_EQ(Probe(*index, detail, 0), (std::vector<int64_t>{1}));
}

TEST(BaseIndexTest, CubeBaseProbesEveryMask) {
  // Four granularities: (p,m), (p,ALL), (ALL,m), (ALL,ALL).
  Table base = MakeBase({{I(1), I(2)},     // row 0
                         {I(1), ALL()},    // row 1
                         {ALL(), I(2)},    // row 2
                         {ALL(), ALL()},   // row 3
                         {I(9), I(9)}});   // row 4: never matches
  Table detail = MakeDetail({{I(1), I(2), testutil::F(5)}});
  Result<BaseIndex> index = BaseIndex::Build(base, AllRows(base), DimEqui(),
                                             detail.schema());
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->num_masks(), 4);
  EXPECT_EQ(Probe(*index, detail, 0), (std::vector<int64_t>{0, 1, 2, 3}));
}

TEST(BaseIndexTest, NullBaseKeysExcluded) {
  Table base = MakeBase({{NUL(), I(2)}, {I(1), I(2)}});
  Table detail = MakeDetail({{I(1), I(2), testutil::F(5)}});
  Result<BaseIndex> index = BaseIndex::Build(base, AllRows(base), DimEqui(),
                                             detail.schema());
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(Probe(*index, detail, 0), (std::vector<int64_t>{1}));
}

TEST(BaseIndexTest, NullDetailKeyMatchesNothing) {
  Table base = MakeBase({{I(1), I(2)}, {ALL(), ALL()}});
  Table detail = MakeDetail({{NUL(), I(2), testutil::F(5)}});
  Result<BaseIndex> index = BaseIndex::Build(base, AllRows(base), DimEqui(),
                                             detail.schema());
  ASSERT_TRUE(index.ok());
  // The (1,2) row needs prod which is NULL -> no match. The (ALL,ALL) row
  // does not match either: θ-equality never matches NULL, ALL included, so
  // the index agrees with θ evaluated in full (MdJoinReference, use_index
  // off).
  EXPECT_EQ(Probe(*index, detail, 0), (std::vector<int64_t>{}));
}

TEST(BaseIndexTest, DetailSideAllTriggersWildcardWalk) {
  // Detail tuples carrying ALL happen when a finer cuboid's output feeds a
  // coarser MD-join. (ALL, 2) in the detail must match base rows at every
  // prod with month 2 (and coarser).
  Table base = MakeBase({{I(1), I(2)},    // row 0: matches (prod wildcarded)
                         {I(1), I(3)},    // row 1: month mismatch
                         {ALL(), I(2)},   // row 2: matches
                         {I(5), ALL()},   // row 3: matches (both wildcards)
                         {ALL(), ALL()}}); // row 4: matches
  Table detail = MakeDetail({{ALL(), I(2), testutil::F(1)}});
  Result<BaseIndex> index = BaseIndex::Build(base, AllRows(base), DimEqui(),
                                             detail.schema());
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(Probe(*index, detail, 0), (std::vector<int64_t>{0, 2, 3, 4}));
}

TEST(BaseIndexTest, RestrictedRowSubset) {
  Table base = MakeBase({{I(1), I(2)}, {I(1), I(2)}, {I(1), I(2)}});
  Table detail = MakeDetail({{I(1), I(2), testutil::F(5)}});
  // Only rows 0 and 2 are indexed (a Theorem 4.1 fragment / B-only filter).
  Result<BaseIndex> index =
      BaseIndex::Build(base, {0, 2}, DimEqui(), detail.schema());
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(Probe(*index, detail, 0), (std::vector<int64_t>{0, 2}));
}

TEST(BaseIndexTest, ComputedKeysOnBothSides) {
  // B.month + 1 = R.month - 1 (i.e., detail two months later).
  Table base = MakeBase({{I(1), I(2)}, {I(1), I(5)}});
  Table detail = MakeDetail({{I(1), I(4), testutil::F(5)}});
  std::vector<EquiPair> equi = {{BCol("prod"), RCol("prod")},
                                {Add(BCol("month"), Lit(1)), Sub(RCol("month"), Lit(1))}};
  Result<BaseIndex> index = BaseIndex::Build(base, AllRows(base), equi,
                                             detail.schema());
  ASSERT_TRUE(index.ok());
  // base row 0: 2+1=3 == 4-1=3 -> match. base row 1: 5+1=6 != 3.
  EXPECT_EQ(Probe(*index, detail, 0), (std::vector<int64_t>{0}));
}

TEST(BaseIndexTest, CrossTypeNumericKeysAgree) {
  // Int64 base key vs Float64 detail key with equal numeric value must
  // collide (Value::Hash is numeric-widening).
  TableBuilder bb({{"k", DataType::kInt64}});
  bb.AppendRowOrDie({I(3)});
  Table base = std::move(bb).Finish();
  TableBuilder db({{"k", DataType::kFloat64}});
  db.AppendRowOrDie({testutil::F(3.0)});
  Table detail = std::move(db).Finish();
  std::vector<EquiPair> equi = {{BCol("k"), RCol("k")}};
  Result<BaseIndex> index =
      BaseIndex::Build(base, {0}, equi, detail.schema());
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(Probe(*index, detail, 0), (std::vector<int64_t>{0}));
}

TEST(BaseIndexTest, EmptyBase) {
  Table base = MakeBase({});
  Table detail = MakeDetail({{I(1), I(2), testutil::F(5)}});
  Result<BaseIndex> index = BaseIndex::Build(base, {}, DimEqui(), detail.schema());
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->num_masks(), 0);
  EXPECT_TRUE(Probe(*index, detail, 0).empty());
}

/// A random relation over k0 (int64), k1 (float64), k2 (int64), k3
/// (float64) whose cells are drawn from {1, 2, 3} (or {1, 2, 3, 4} when
/// `wide`, so some keys miss the base) plus NULL, ALL (unless `no_all`) and
/// NaN.
Table RandomKeys(Random* rng, int64_t rows, bool wide, bool no_all = false) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  TableBuilder b({{"k0", DataType::kInt64},
                  {"k1", DataType::kFloat64},
                  {"k2", DataType::kInt64},
                  {"k3", DataType::kFloat64}});
  for (int64_t r = 0; r < rows; ++r) {
    std::vector<Value> row;
    for (int c = 0; c < 4; ++c) {
      const uint64_t pick = rng->Uniform(wide ? 14 : 13);
      if (pick == 0) {
        row.push_back(NUL());
      } else if (pick == 1 && !no_all) {
        row.push_back(ALL());
      } else if (pick == 2 && c % 2 == 1) {
        row.push_back(testutil::F(nan));
      } else {
        const int64_t v = 1 + static_cast<int64_t>(pick) % (wide ? 4 : 3);
        row.push_back(c % 2 == 1 ? testutil::F(static_cast<double>(v)) : I(v));
      }
    }
    b.AppendRowOrDie(std::move(row));
  }
  return std::move(b).Finish();
}

/// Definition 3.1 on the equi keys alone: every indexed row whose key
/// MatchesEq the detail key position by position.
std::vector<int64_t> BruteForce(const Table& base, const std::vector<int64_t>& rows,
                                const Table& detail, int64_t t, int d) {
  std::vector<int64_t> out;
  for (int64_t r : rows) {
    bool match = true;
    for (int c = 0; c < d && match; ++c) match = base.Get(r, c).MatchesEq(detail.Get(t, c));
    if (match) out.push_back(r);
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// The per-bucket walk returns exactly the rows a brute-force MatchesEq scan
/// returns, with and without the code-key memo, on random cube bases, for
/// the whole base and for Theorem 4.1 row subsets, with detail keys inside
/// and outside the finest cuboid, and NULL, ALL and NaN keys on either side.
/// Every third cube is built over a relation that itself holds ALL, so some
/// of its keys hold two rows.
TEST(BaseIndexTest, WalkEqualsBruteForce) {
  const std::vector<std::string> names = {"k0", "k1", "k2", "k3"};
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    Random rng(seed);
    const int d = 1 + static_cast<int>(seed % 4);
    const std::vector<std::string> dims(names.begin(), names.begin() + d);
    SCOPED_TRACE(::testing::Message() << "seed=" << seed << " d=" << d);
    Table base = *CubeByBase(
        RandomKeys(&rng, 30, /*wide=*/false, /*no_all=*/seed % 3 != 0), dims);
    Table detail = RandomKeys(&rng, 60, /*wide=*/true);
    std::vector<EquiPair> equi;
    for (const std::string& dim : dims) equi.push_back({BCol(dim), RCol(dim)});

    // Row subsets: all rows; the finest rows without their ancestors and the
    // reverse; a contiguous pass [lo, hi).
    std::vector<int64_t> finest, coarser;
    for (int64_t r = 0; r < base.num_rows(); ++r) {
      bool any_all = false;
      for (int c = 0; c < d; ++c) any_all = any_all || base.Get(r, c).is_all();
      (any_all ? coarser : finest).push_back(r);
    }
    const int64_t lo = base.num_rows() / 3, hi = 2 * base.num_rows() / 3;
    std::vector<int64_t> pass;
    for (int64_t r = lo; r < hi; ++r) pass.push_back(r);
    for (const std::vector<int64_t>& rows : {AllRows(base), finest, coarser, pass}) {
      Result<BaseIndex> index = BaseIndex::Build(base, rows, equi, detail.schema());
      ASSERT_TRUE(index.ok());
      BaseIndex::ProbeScratch memo;  // persistent, code-key memo on
      BaseIndex::ProbeScratch no_memo;
      no_memo.memo_enabled = false;
      for (int64_t t = 0; t < detail.num_rows(); ++t) {
        SCOPED_TRACE(::testing::Message() << "rows=" << rows.size() << " t=" << t);
        const std::vector<int64_t> want = BruteForce(base, rows, detail, t, d);
        EXPECT_EQ(Probe(*index, detail, t, &no_memo), want);
        EXPECT_EQ(Probe(*index, detail, t, &memo), want);
      }
      EXPECT_EQ(no_memo.probe_hits, 0);  // memo off: every probe walks
      // The counters see the same probes with the memo on.
      EXPECT_EQ(memo.probe_lookups, no_memo.probe_lookups);
      EXPECT_LE(memo.probe_hits, memo.probe_lookups);
    }
  }
}

TEST(BaseIndexTest, ProbeCountersSeeMemoHits) {
  Table base = MakeBase({{I(1), I(2)}, {I(1), ALL()}, {ALL(), I(2)}, {ALL(), I(3)},
                         {ALL(), ALL()}});
  // A finest key, then a key outside the finest rows; each twice.
  Table detail = MakeDetail({{I(1), I(2), testutil::F(1)}, {I(2), I(3), testutil::F(1)},
                             {I(1), I(2), testutil::F(1)}, {I(2), I(3), testutil::F(1)}});
  Result<BaseIndex> index = BaseIndex::Build(base, AllRows(base), DimEqui(),
                                             detail.schema());
  ASSERT_TRUE(index.ok());
  BaseIndex::ProbeScratch scratch;  // code-key memo on: the detail has a typed mirror
  for (int64_t t : {0, 2}) {
    EXPECT_EQ(Probe(*index, detail, t, &scratch), (std::vector<int64_t>{0, 1, 2, 4}));
  }
  for (int64_t t : {1, 3}) {
    EXPECT_EQ(Probe(*index, detail, t, &scratch), (std::vector<int64_t>{3, 4}));
  }
  EXPECT_EQ(scratch.probe_lookups, 4);
  EXPECT_EQ(scratch.memo_hits, 2);   // the repeats
  EXPECT_EQ(scratch.probe_hits, 2);  // the repeats; the first of each key walks
}

TEST(BaseIndexTest, BuildRejectsUnboundColumns) {
  Table base = MakeBase({{I(1), I(2)}});
  Table detail = MakeDetail({{I(1), I(2), testutil::F(5)}});
  std::vector<EquiPair> equi = {{BCol("nope"), RCol("prod")}};
  EXPECT_FALSE(BaseIndex::Build(base, {0}, equi, detail.schema()).ok());
}

}  // namespace
}  // namespace mdjoin
