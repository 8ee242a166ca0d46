/// Death tests for programmer-error invariants: MDJ_CHECK aborts with a
/// diagnostic, Result::value() on an error dies, and out-of-contract Table
/// access is caught. These guard the boundary between recoverable errors
/// (Status/Result) and contract violations (abort). Also hosts the failpoint
/// matrix: every guardrail StatusCode injected via MDJOIN_FAILPOINTS must
/// surface as a recoverable Status with a message naming the failure — and a
/// task that throws inside the ThreadPool must abort with a diagnostic
/// rather than std::terminate mid-unwind.

#include <gtest/gtest.h>

#include <stdexcept>

#include "common/failpoint.h"
#include "common/logging.h"
#include "common/query_guard.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "core/mdjoin.h"
#include "cube/base_tables.h"
#include "table/table_builder.h"
#include "tests/test_util.h"
#include "types/value.h"

namespace mdjoin {
namespace {

using DeathTest = ::testing::Test;

TEST(DeathTest, CheckAbortsWithMessage) {
  EXPECT_DEATH({ MDJ_CHECK(1 == 2) << "custom detail " << 42; },
               "check failed.*1 == 2.*custom detail 42");
}

TEST(DeathTest, CheckComparisonMacros) {
  EXPECT_DEATH({ MDJ_CHECK_EQ(1, 2); }, "check failed");
  EXPECT_DEATH({ MDJ_CHECK_LT(5, 3); }, "check failed");
  // Passing checks do not abort.
  MDJ_CHECK_LE(1, 1);
  MDJ_CHECK_NE(1, 2);
  MDJ_CHECK_GT(2, 1);
  MDJ_CHECK_GE(2, 2);
}

TEST(DeathTest, ResultValueOnErrorDies) {
  EXPECT_DEATH(
      {
        Result<int> r = Status::NotFound("nothing here");
        (void)r.value();
      },
      "nothing here");
}

TEST(DeathTest, ValueWrongAccessorDies) {
  EXPECT_DEATH({ (void)Value::String("x").int64(); }, "not int64");
  EXPECT_DEATH({ (void)Value::Int64(1).string(); }, "not string");
  EXPECT_DEATH({ (void)Value::Null().AsDouble(); }, "not numeric");
}

TEST(DeathTest, AppendRowOrDieOnTypeError) {
  EXPECT_DEATH(
      {
        TableBuilder b({{"k", DataType::kInt64}});
        b.AppendRowOrDie({Value::String("oops")});
      },
      "Type error");
}

// --- Failpoint matrix -------------------------------------------------------
// One row per guardrail StatusCode: inject the fault through a failpoint and
// assert the recoverable error that comes back names both the condition and
// the injection point, so operators can tell injected faults from real ones.

struct FailpointCase {
  const char* failpoint;     // what to arm
  StatusCode expected_code;  // what MdJoin must return
  const char* message_part;  // substring the status message must carry
};

class FailpointMatrixTest : public ::testing::TestWithParam<FailpointCase> {
 protected:
  void SetUp() override { FailpointRegistry::Global()->Reset(); }
  void TearDown() override { FailpointRegistry::Global()->Reset(); }
};

TEST_P(FailpointMatrixTest, InjectedFaultSurfacesAsStatus) {
  const FailpointCase& c = GetParam();
  Table sales = testutil::RandomSales(77, 200);
  Table base = *GroupByBase(sales, {"cust"});
  FailpointRegistry::Global()->Enable(c.failpoint, /*count=*/1);

  QueryGuard guard;
  MdJoinOptions options;
  options.guard = &guard;
  Result<Table> result = MdJoin(base, sales, {Count("n")},
                                dsl::Eq(dsl::RCol("cust"), dsl::BCol("cust")), options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), c.expected_code) << result.status().ToString();
  EXPECT_NE(result.status().message().find(c.message_part), std::string::npos)
      << result.status().ToString();
  EXPECT_EQ(FailpointRegistry::Global()->fire_count(c.failpoint), 1);
}

INSTANTIATE_TEST_SUITE_P(
    Guardrails, FailpointMatrixTest,
    ::testing::Values(
        FailpointCase{"query_guard:cancel", StatusCode::kCancelled, "cancelled"},
        FailpointCase{"query_guard:deadline", StatusCode::kDeadlineExceeded,
                      "query_guard:deadline"},
        FailpointCase{"query_guard:reserve", StatusCode::kResourceExhausted,
                      "query_guard:reserve"}),
    [](const ::testing::TestParamInfo<FailpointCase>& info) {
      switch (info.param.expected_code) {
        case StatusCode::kCancelled: return "Cancelled";
        case StatusCode::kDeadlineExceeded: return "DeadlineExceeded";
        case StatusCode::kResourceExhausted: return "ResourceExhausted";
        default: return "Other";
      }
    });

TEST(DeathTest, ThreadPoolTrapsEscapingException) {
  // Library code is exception-free (Status/Result); an exception reaching the
  // worker loop is a contract violation. The pool aborts with the message
  // instead of letting std::terminate fire mid-unwind with no context.
  EXPECT_DEATH(
      {
        ThreadPool pool(1);
        pool.Submit([] { throw std::runtime_error("task blew up"); });
        pool.Wait();
      },
      "uncaught exception.*task blew up");
}

}  // namespace
}  // namespace mdjoin
