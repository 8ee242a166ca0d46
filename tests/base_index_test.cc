/// Direct tests of the multi-granularity base index (§4.5), including the
/// rare wildcard probe path where the *detail* side holds ALL (a cuboid
/// feeding another MD-join, as in Theorem 4.5 chains).

#include <gtest/gtest.h>

#include <algorithm>

#include "core/base_index.h"
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

std::vector<int64_t> Probe(const BaseIndex& index, const Table& detail, int64_t row) {
  BaseIndex::ProbeScratch scratch;
  scratch.memo_enabled = false;  // one probe can never hit the memo
  std::vector<int64_t> gather;
  const BaseIndex::ProbeResult r = index.ProbeSpan(detail, row, &scratch, &gather);
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

TEST(BaseIndexTest, BuildRejectsUnboundColumns) {
  Table base = MakeBase({{I(1), I(2)}});
  Table detail = MakeDetail({{I(1), I(2), testutil::F(5)}});
  std::vector<EquiPair> equi = {{BCol("nope"), RCol("prod")}};
  EXPECT_FALSE(BaseIndex::Build(base, {0}, equi, detail.schema()).ok());
}

}  // namespace
}  // namespace mdjoin
