// The overload-safe async serving front-end (src/serve/).
//
// Contract under test: the bounded submission queue never grows past
// capacity (reject vs block-with-timeout, both typed);
// per-request deadlines produce typed timeouts whether they expire before
// or after the flush — never a silent evaluation; admission sheds past the
// overload threshold and serves everything below it exactly as a direct
// session would; shutdown drains
// deterministically with every request completing exactly once — under
// injected enqueue/flush/worker faults and an 8-producer stress race too;
// recycled request slots always answer their own request; and a server runs
// one thread per shard.
//
// All deadline behaviour runs against util::ManualClock: time moves only
// when a test calls advance(), so there is not a single sleep-and-hope in
// this file.  (The spin_until helper waits on *state*, with a very generous
// real-time cap purely as a hang breaker.)
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "bn/random_network.hpp"
#include "compile/ve_compiler.hpp"
#include "runtime/session.hpp"
#include "serve/server.hpp"
#include "util/fault_injection.hpp"
#include "util/rng.hpp"

namespace problp {
namespace {

using errormodel::QueryType;
using runtime::CompiledModel;
using runtime::InferenceSession;
using runtime::SessionOptions;
using serve::Request;
using serve::Response;
using serve::Server;
using serve::ServerOptions;
using serve::StatsSnapshot;
using serve::Status;
using util::FaultInjector;
using util::ManualClock;

using ms = std::chrono::milliseconds;

std::shared_ptr<const CompiledModel> test_model(std::uint64_t seed = 7, int num_variables = 6) {
  Rng rng(seed);
  bn::RandomNetworkSpec spec;
  spec.num_variables = num_variables;
  return CompiledModel::compile(compile::compile_network(bn::make_random_network(spec, rng)));
}

/// Random evidence over the model's variables; `keep_free` is always left
/// unobserved so the same evidence works for conditional queries.
std::vector<ac::PartialAssignment> sampled_evidence(const CompiledModel& model, std::size_t count,
                                                    std::uint64_t seed, int keep_free = 0) {
  Rng rng(seed);
  const std::vector<int>& cards = model.cardinalities();
  std::vector<ac::PartialAssignment> out;
  for (std::size_t i = 0; i < count; ++i) {
    ac::PartialAssignment a(cards.size());
    for (std::size_t v = 0; v < cards.size(); ++v) {
      if (static_cast<int>(v) == keep_free) continue;
      if (rng.coin(0.4)) a[v] = rng.uniform_int(0, cards[v] - 1);
    }
    out.push_back(std::move(a));
  }
  return out;
}

Request marginal_request(ac::PartialAssignment evidence) {
  Request r;
  r.query = QueryType::kMarginal;
  r.evidence = std::move(evidence);
  return r;
}

/// One-way latch for holding a worker inside test_worker_hook.
class Gate {
 public:
  void open() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      open_ = true;
    }
    cv_.notify_all();
  }
  void wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return open_; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool open_ = false;
};

/// Spins (yielding) until `pred` holds.  The predicate is driven by server
/// threads reacting to state we already set up, so this terminates promptly;
/// the 60 s cap only breaks an outright hang into a test failure.
bool spin_until(const std::function<bool()>& pred) {
  const auto cap = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (std::chrono::steady_clock::now() < cap) {
    if (pred()) return true;
    std::this_thread::yield();
  }
  return pred();
}

void expect_accounting_identity(const StatsSnapshot& s) {
  EXPECT_EQ(s.submitted, s.total_completed());
  EXPECT_EQ(s.double_completions, 0u);
  EXPECT_EQ(s.queue_depth, 0u);
  EXPECT_EQ(s.producers_blocked, 0u);
}

// Every test arms faults through this fixture so a failing assertion can
// never leak an armed site into the next test.
class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::instance().reset(); }
  void TearDown() override { FaultInjector::instance().reset(); }
};

// ---- answers ---------------------------------------------------------------

TEST_F(ServeTest, ServedAnswersMatchDirectSession) {
  const auto model = test_model();
  ServerOptions options;
  options.workers = 2;
  options.batch_max = 8;
  options.flush_deadline = std::chrono::microseconds(200);
  Server server(model, options);

  const auto evidence = sampled_evidence(*model, 16, 11);
  std::vector<std::future<Response>> marginals;
  std::vector<std::future<Response>> conditionals;
  std::vector<std::future<Response>> mpes;
  for (const auto& e : evidence) {
    marginals.push_back(server.submit(marginal_request(e)));
    Request c;
    c.query = QueryType::kConditional;
    c.query_var = 0;
    c.evidence = e;
    conditionals.push_back(server.submit(std::move(c)));
    Request m;
    m.query = QueryType::kMpe;
    m.evidence = e;
    mpes.push_back(server.submit(std::move(m)));
  }
  server.shutdown(true);

  InferenceSession direct(model, SessionOptions{});
  for (std::size_t i = 0; i < evidence.size(); ++i) {
    Response m = marginals[i].get();
    ASSERT_EQ(m.status, Status::kOk) << m.message;
    EXPECT_DOUBLE_EQ(m.value, direct.marginal(evidence[i]));
    EXPECT_FALSE(m.served_format.has_value());  // exact backend: no format
    EXPECT_TRUE(m.ok());

    Response c = conditionals[i].get();
    ASSERT_EQ(c.status, Status::kOk) << c.message;
    const std::vector<double> expected = direct.conditional(0, evidence[i]);
    ASSERT_EQ(c.posterior.size(), expected.size());
    for (std::size_t q = 0; q < expected.size(); ++q) {
      EXPECT_DOUBLE_EQ(c.posterior[q], expected[q]);
    }

    Response mpe = mpes[i].get();
    ASSERT_EQ(mpe.status, Status::kOk) << mpe.message;
    EXPECT_DOUBLE_EQ(mpe.value, direct.mpe(evidence[i]));
  }
  const StatsSnapshot s = server.stats();
  EXPECT_EQ(s.submitted, 48u);
  EXPECT_EQ(s.completed_ok, 48u);
  expect_accounting_identity(s);
}

TEST_F(ServeTest, CallbackFlavourCompletesExactlyOnce) {
  const auto model = test_model();
  ServerOptions options;
  options.flush_deadline = std::chrono::microseconds(200);
  Server server(model, options);

  std::mutex mutex;
  std::vector<Response> responses;
  const auto evidence = sampled_evidence(*model, 8, 3);
  for (const auto& e : evidence) {
    server.submit(marginal_request(e), [&](Response r) {
      std::lock_guard<std::mutex> lock(mutex);
      responses.push_back(std::move(r));
    });
  }
  server.shutdown(true);
  ASSERT_EQ(responses.size(), 8u);
  for (const Response& r : responses) EXPECT_EQ(r.status, Status::kOk) << r.message;
  expect_accounting_identity(server.stats());
}

// A callback that throws has still received its answer, and stats() counts
// it ok before it runs; the rest of its group completes as typed errors.
// Either way every request is counted exactly once.
TEST_F(ServeTest, ThrowingCallbackKeepsAccountingIdentity) {
  const auto model = test_model();
  ServerOptions options;
  options.batch_max = 4;
  options.workers = 1;
  options.flush_deadline = ms(100);
  options.clock = std::make_shared<ManualClock>();  // only the size cut fires
  Server server(model, options);

  std::mutex mutex;
  std::vector<Status> statuses;
  std::uint64_t ok_seen_by_thrower = 0;
  bool thrown = false;
  for (const auto& e : sampled_evidence(*model, 4, 5)) {
    server.submit(marginal_request(e), [&](Response r) {
      std::lock_guard<std::mutex> lock(mutex);
      statuses.push_back(r.status);
      if (!thrown) {
        thrown = true;
        ok_seen_by_thrower = server.stats().completed_ok;
        throw std::runtime_error("callback failed");
      }
      EXPECT_NE(r.message.find("callback failed"), std::string::npos) << r.message;
    });
  }
  server.shutdown(true);
  ASSERT_EQ(statuses.size(), 4u);
  EXPECT_EQ(statuses[0], Status::kOk);
  for (std::size_t i = 1; i < 4; ++i) EXPECT_EQ(statuses[i], Status::kError);
  EXPECT_GE(ok_seen_by_thrower, 1u);
  const StatsSnapshot s = server.stats();
  EXPECT_EQ(s.completed_ok, 1u);
  EXPECT_EQ(s.errors, 3u);
  expect_accounting_identity(s);
}

// A server runs exactly `workers` threads: each shard's worker is its own
// batcher.
TEST_F(ServeTest, RunsOneThreadPerShard) {
  const std::filesystem::path tasks = "/proc/self/task";
  if (!std::filesystem::exists(tasks)) GTEST_SKIP() << "needs " << tasks;
  const auto threads = [&] {
    std::size_t n = 0;
    for ([[maybe_unused]] const auto& entry : std::filesystem::directory_iterator(tasks)) ++n;
    return n;
  };
  const auto model = test_model();
  const std::size_t before = threads();
  ServerOptions options;
  options.workers = 3;
  Server server(model, options);
  EXPECT_EQ(threads(), before + 3);
  server.shutdown(true);
  // A joined thread can stay listed for a moment while the kernel reaps it.
  EXPECT_TRUE(spin_until([&] { return threads() == before; }));
}

TEST_F(ServeTest, MalformedRequestsThrowSynchronouslyAndNeverQueue) {
  const auto model = test_model();
  Server server(model, ServerOptions{});

  Request wrong_size;
  wrong_size.query = QueryType::kMarginal;
  wrong_size.evidence.resize(static_cast<std::size_t>(model->num_variables()) + 1);
  EXPECT_THROW(server.submit(std::move(wrong_size)), InvalidArgument);

  Request bad_var;
  bad_var.query = QueryType::kConditional;
  bad_var.query_var = model->num_variables();  // out of range
  bad_var.evidence.resize(static_cast<std::size_t>(model->num_variables()));
  EXPECT_THROW(server.submit(std::move(bad_var)), InvalidArgument);

  Request observed_var;
  observed_var.query = QueryType::kConditional;
  observed_var.query_var = 0;
  observed_var.evidence.resize(static_cast<std::size_t>(model->num_variables()));
  observed_var.evidence[0] = 0;  // conditional on an observed variable
  EXPECT_THROW(server.submit(std::move(observed_var)), InvalidArgument);

  server.shutdown(true);
  EXPECT_EQ(server.stats().submitted, 0u);  // rejected before admission
}

TEST_F(ServeTest, MisconfigurationThrowsFoundVsExpected) {
  const auto model = test_model();
  {
    ServerOptions bad;
    bad.capacity = 0;
    EXPECT_THROW(Server(model, bad), InvalidArgument);
  }
  {
    ServerOptions bad;
    bad.capacity = 4;
    bad.batch_max = 8;  // batch larger than the queue it is cut from
    EXPECT_THROW(Server(model, bad), InvalidArgument);
  }
  {
    ServerOptions bad;
    bad.workers = 0;
    EXPECT_THROW(Server(model, bad), InvalidArgument);
  }
}

// ---- backpressure ----------------------------------------------------------

// Stalls the whole pipeline deterministically: the one worker held inside
// the test hook with a cut batch of batch_max, its queue full (capacity)
// behind it.  ManualClock keeps the worker from ever cutting on a deadline.
struct StalledPipeline {
  std::shared_ptr<ManualClock> clock = std::make_shared<ManualClock>();
  Gate gate;
  std::atomic<int> arrived{0};

  ServerOptions options(ServerOptions::FullPolicy policy) {
    ServerOptions o;
    o.capacity = 4;
    o.batch_max = 4;
    o.workers = 1;
    o.full_policy = policy;
    o.block_timeout = ms(10);
    o.flush_deadline = ms(100);
    o.clock = clock;
    o.test_worker_hook = [this] {
      ++arrived;
      gate.wait();
    };
    return o;
  }

  /// 8 submissions: 4 cut and held by the worker, 4 filling the queue.
  std::vector<std::future<Response>> fill(Server& server, const CompiledModel& model) {
    std::vector<std::future<Response>> futures;
    const auto evidence = sampled_evidence(model, 8, 5);
    for (int i = 0; i < 4; ++i) futures.push_back(server.submit(marginal_request(evidence[i])));
    EXPECT_TRUE(spin_until([&] { return arrived.load() >= 1; }));
    EXPECT_TRUE(spin_until([&] {
      const StatsSnapshot s = server.stats();
      return s.flushes_by_size == 1 && s.queue_depth == 0;
    }));
    for (int i = 4; i < 8; ++i) futures.push_back(server.submit(marginal_request(evidence[i])));
    EXPECT_TRUE(spin_until([&] { return server.stats().queue_depth == 4; }));
    return futures;
  }
};

TEST_F(ServeTest, FullQueueRejectsWithTypedResponse) {
  const auto model = test_model();
  StalledPipeline pipeline;
  Server server(model, pipeline.options(ServerOptions::FullPolicy::kReject));
  auto futures = pipeline.fill(server, *model);

  // The 9th request finds the queue at capacity and is rejected
  // immediately — a typed response, not a block and not unbounded growth.
  Response rejected = server.submit(marginal_request(sampled_evidence(*model, 1, 9)[0])).get();
  EXPECT_EQ(rejected.status, Status::kRejectedQueueFull);
  EXPECT_NE(rejected.message.find("full"), std::string::npos) << rejected.message;
  EXPECT_THROW(rejected.throw_if_failed(), serve::QueueFullError);

  pipeline.gate.open();
  server.shutdown(true);
  for (auto& f : futures) EXPECT_EQ(f.get().status, Status::kOk);
  const StatsSnapshot s = server.stats();
  EXPECT_EQ(s.completed_ok, 8u);
  EXPECT_EQ(s.rejected_queue_full, 1u);
  expect_accounting_identity(s);
}

TEST_F(ServeTest, FullQueueBlocksThenTimesOutOnManualClock) {
  const auto model = test_model();
  StalledPipeline pipeline;
  Server server(model, pipeline.options(ServerOptions::FullPolicy::kBlock));
  auto futures = pipeline.fill(server, *model);

  // Blocked producer, phase 1: nothing frees space, the manual clock moves
  // past block_timeout, and the producer gets the typed timeout rejection.
  std::future<Response> blocked = std::async(std::launch::async, [&] {
    return server.submit(marginal_request(sampled_evidence(*model, 1, 9)[0])).get();
  });
  ASSERT_TRUE(spin_until([&] { return server.stats().producers_blocked == 1; }));
  pipeline.clock->advance(ms(10));
  Response timed_out = blocked.get();
  EXPECT_EQ(timed_out.status, Status::kRejectedQueueFull);
  EXPECT_NE(timed_out.message.find("block timeout"), std::string::npos) << timed_out.message;
  EXPECT_EQ(server.stats().producers_blocked, 0u);

  // Phase 2: a new blocked producer is admitted as soon as draining the
  // pipeline frees a slot — backpressure, not rejection.
  std::future<Response> admitted = std::async(std::launch::async, [&] {
    return server.submit(marginal_request(sampled_evidence(*model, 1, 10)[0])).get();
  });
  ASSERT_TRUE(spin_until([&] { return server.stats().producers_blocked == 1; }));
  pipeline.gate.open();
  ASSERT_TRUE(spin_until([&] { return server.stats().producers_blocked == 0; }));
  // The admitted request sits alone in the queue with the clock frozen; the
  // drain shutdown flushes it.
  server.shutdown(true);
  EXPECT_EQ(admitted.get().status, Status::kOk);
  for (auto& f : futures) EXPECT_EQ(f.get().status, Status::kOk);
  const StatsSnapshot s = server.stats();
  EXPECT_EQ(s.completed_ok, 9u);
  EXPECT_EQ(s.rejected_queue_full, 1u);
  expect_accounting_identity(s);
}

// ---- deadlines -------------------------------------------------------------

TEST_F(ServeTest, DeadlineExpiryInQueueIsTypedTimeoutNeverEvaluated) {
  const auto model = test_model();
  const auto clock = std::make_shared<ManualClock>();
  ServerOptions options;
  options.batch_max = 8;
  options.flush_deadline = ms(100);
  options.clock = clock;
  Server server(model, options);

  Request request = marginal_request(sampled_evidence(*model, 1, 5)[0]);
  request.timeout = ms(5);
  std::future<Response> future = server.submit(std::move(request));
  ASSERT_TRUE(spin_until([&] { return server.stats().queue_depth == 1; }));

  clock->advance(ms(5));
  Response response = future.get();  // woken by the worker's expiry sweep
  EXPECT_EQ(response.status, Status::kTimeout);
  EXPECT_NE(response.message.find("queued"), std::string::npos) << response.message;
  EXPECT_THROW(response.throw_if_failed(), serve::DeadlineExceededError);
  EXPECT_EQ(response.queue_wait, ms(5));

  server.shutdown(true);
  const StatsSnapshot s = server.stats();
  EXPECT_EQ(s.timed_out, 1u);
  EXPECT_EQ(s.timed_out_after_flush, 0u);
  EXPECT_EQ(s.batches_evaluated, 0u);  // expired requests are never evaluated
  EXPECT_EQ(s.flushes_by_size + s.flushes_by_deadline, 0u);
  expect_accounting_identity(s);
}

TEST_F(ServeTest, DeadlineExpiryAfterFlushIsTypedTimeout) {
  const auto model = test_model();
  const auto clock = std::make_shared<ManualClock>();
  Gate gate;
  std::atomic<int> arrived{0};
  ServerOptions options;
  options.batch_max = 2;  // two submissions trigger a size flush
  options.flush_deadline = ms(100);
  options.workers = 1;
  options.clock = clock;
  options.test_worker_hook = [&] {
    ++arrived;
    gate.wait();
  };
  Server server(model, options);

  const auto evidence = sampled_evidence(*model, 2, 6);
  std::vector<std::future<Response>> futures;
  for (const auto& e : evidence) {
    Request r = marginal_request(e);
    r.timeout = ms(5);
    futures.push_back(server.submit(std::move(r)));
  }
  // The batch is cut (hook entered) with deadlines still live; the clock
  // then expires them while the worker is held.
  ASSERT_TRUE(spin_until([&] { return arrived.load() >= 1; }));
  clock->advance(ms(6));
  gate.open();

  for (auto& f : futures) {
    Response r = f.get();
    EXPECT_EQ(r.status, Status::kTimeout);
    EXPECT_NE(r.message.find("after flush"), std::string::npos) << r.message;
  }
  server.shutdown(true);
  const StatsSnapshot s = server.stats();
  EXPECT_EQ(s.timed_out, 2u);
  EXPECT_EQ(s.timed_out_after_flush, 2u);
  EXPECT_EQ(s.batches_evaluated, 0u);  // the whole batch expired: no evaluation
  expect_accounting_identity(s);
}

// ---- overload shedding ----------------------------------------------------

TEST_F(ServeTest, OverloadShedsPastShedDepth) {
  const auto model = test_model();
  const auto clock = std::make_shared<ManualClock>();
  const SessionOptions session =
      SessionOptions::low_precision(Representation::of(lowprec::FloatFormat{8, 16}));
  ServerOptions options;
  options.capacity = 8;
  options.batch_max = 8;
  options.workers = 1;
  options.flush_deadline = ms(10);
  options.clock = clock;
  options.session = session;
  options.overload.shed_depth = 4;
  Server server(model, options);

  const auto evidence = sampled_evidence(*model, 6, 8);
  std::vector<std::future<Response>> futures;
  for (const auto& e : evidence) futures.push_back(server.submit(marginal_request(e)));

  // Depths 0..3 are admitted; the queue then stays at the threshold, so
  // every later submission is shed at depth 4.
  for (std::size_t i = 4; i < evidence.size(); ++i) {
    Response shed = futures[i].get();
    EXPECT_EQ(shed.status, Status::kRejectedOverload);
    EXPECT_NE(shed.message.find("queue depth 4 >= shed threshold 4"), std::string::npos)
        << shed.message;
    EXPECT_THROW(shed.throw_if_failed(), serve::OverloadShedError);
  }

  clock->advance(ms(10));  // deadline flush of the four admitted requests
  server.shutdown(true);

  InferenceSession direct(model, session);
  for (std::size_t i = 0; i < 4; ++i) {
    Response r = futures[i].get();
    ASSERT_EQ(r.status, Status::kOk) << r.message;
    ASSERT_TRUE(r.served_format.has_value());
    EXPECT_EQ(r.served_format->kind, Representation::Kind::kFloat);
    EXPECT_EQ(r.value, direct.marginal(evidence[i]));
  }
  const StatsSnapshot s = server.stats();
  EXPECT_EQ(s.rejected_overload, 2u);
  EXPECT_EQ(s.completed_ok, 4u);
  expect_accounting_identity(s);
}

// ---- shutdown --------------------------------------------------------------

TEST_F(ServeTest, DrainShutdownCompletesEverythingOnceUnderWorkerFault) {
  const auto model = test_model();
  const auto clock = std::make_shared<ManualClock>();
  Gate gate;
  std::atomic<int> arrived{0};
  ServerOptions options;
  options.batch_max = 2;
  options.workers = 1;
  options.flush_deadline = ms(100);
  options.clock = clock;
  options.test_worker_hook = [&] {
    ++arrived;
    gate.wait();
  };
  Server server(model, options);

  const auto evidence = sampled_evidence(*model, 5, 4);
  std::vector<std::future<Response>> futures;
  // Two in flight (held at the hook), three still queued.
  for (int i = 0; i < 2; ++i) futures.push_back(server.submit(marginal_request(evidence[i])));
  ASSERT_TRUE(spin_until([&] { return arrived.load() >= 1; }));
  for (int i = 2; i < 5; ++i) futures.push_back(server.submit(marginal_request(evidence[i])));

  // The in-flight batch's evaluation throws (injected), the drain still
  // completes every request exactly once.
  FaultInjector::instance().arm("serve.worker");
  gate.open();
  server.shutdown(true);

  for (int i = 0; i < 2; ++i) {
    Response r = futures[static_cast<std::size_t>(i)].get();
    EXPECT_EQ(r.status, Status::kError);
    EXPECT_NE(r.message.find("injected fault"), std::string::npos) << r.message;
  }
  for (int i = 2; i < 5; ++i) {
    EXPECT_EQ(futures[static_cast<std::size_t>(i)].get().status, Status::kOk);
  }
  EXPECT_TRUE(FaultInjector::instance().fired("serve.worker"));
  const StatsSnapshot s = server.stats();
  EXPECT_EQ(s.submitted, 5u);
  EXPECT_EQ(s.errors, 2u);
  EXPECT_EQ(s.completed_ok, 3u);
  expect_accounting_identity(s);
}

TEST_F(ServeTest, CancelShutdownRejectsUnflushedEvaluatesInFlight) {
  const auto model = test_model();
  StalledPipeline pipeline;
  Server server(model, pipeline.options(ServerOptions::FullPolicy::kReject));
  // 4 cut and held by the worker, 4 still queued.
  auto futures = pipeline.fill(server, *model);

  // Cancel-mode shutdown from another thread (it must block joining the
  // held worker); the queued-but-uncut requests complete immediately with
  // typed shutdown rejections.
  std::thread shutter([&] { server.shutdown(false); });
  for (int i = 4; i < 8; ++i) {
    Response r = futures[static_cast<std::size_t>(i)].get();
    EXPECT_EQ(r.status, Status::kRejectedShutdown);
    EXPECT_THROW(r.throw_if_failed(), serve::ShutdownError);
  }
  pipeline.gate.open();
  shutter.join();

  // The batch the worker already cut still evaluates to completion.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(futures[static_cast<std::size_t>(i)].get().status, Status::kOk);
  }
  // Admission after shutdown: immediate typed rejection.
  Response late = server.submit(marginal_request(sampled_evidence(*model, 1, 12)[0])).get();
  EXPECT_EQ(late.status, Status::kRejectedShutdown);

  const StatsSnapshot s = server.stats();
  EXPECT_EQ(s.rejected_shutdown, 5u);
  EXPECT_EQ(s.completed_ok, 4u);
  expect_accounting_identity(s);
}

// ---- fault sites -----------------------------------------------------------

TEST_F(ServeTest, EnqueueFaultForcesTypedQueueFullRejection) {
  const auto model = test_model();
  ServerOptions options;
  options.flush_deadline = std::chrono::microseconds(200);
  Server server(model, options);

  FaultInjector::instance().arm("serve.enqueue");
  const auto evidence = sampled_evidence(*model, 2, 13);
  Response rejected = server.submit(marginal_request(evidence[0])).get();
  EXPECT_EQ(rejected.status, Status::kRejectedQueueFull);
  EXPECT_NE(rejected.message.find("serve.enqueue"), std::string::npos) << rejected.message;
  EXPECT_TRUE(FaultInjector::instance().fired("serve.enqueue"));

  // Single-shot: the next submission takes the normal path.
  std::future<Response> ok = server.submit(marginal_request(evidence[1]));
  server.shutdown(true);
  EXPECT_EQ(ok.get().status, Status::kOk);
  expect_accounting_identity(server.stats());
}

TEST_F(ServeTest, FlushFaultFailsWholeBatchWithTypedErrors) {
  const auto model = test_model();
  const auto clock = std::make_shared<ManualClock>();
  ServerOptions options;
  options.batch_max = 2;
  options.workers = 1;
  options.flush_deadline = ms(100);
  options.clock = clock;
  Server server(model, options);

  FaultInjector::instance().arm("serve.flush");
  const auto evidence = sampled_evidence(*model, 4, 14);
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 2; ++i) futures.push_back(server.submit(marginal_request(evidence[i])));
  for (int i = 0; i < 2; ++i) {
    Response r = futures[static_cast<std::size_t>(i)].get();
    EXPECT_EQ(r.status, Status::kError);
    EXPECT_NE(r.message.find("serve.flush"), std::string::npos) << r.message;
  }
  EXPECT_TRUE(FaultInjector::instance().fired("serve.flush"));

  // The worker survives a failed cut: the next batch serves normally.
  for (int i = 2; i < 4; ++i) futures.push_back(server.submit(marginal_request(evidence[i])));
  server.shutdown(true);
  for (int i = 2; i < 4; ++i) {
    EXPECT_EQ(futures[static_cast<std::size_t>(i)].get().status, Status::kOk);
  }
  const StatsSnapshot s = server.stats();
  EXPECT_EQ(s.errors, 2u);
  EXPECT_EQ(s.completed_ok, 2u);
  expect_accounting_identity(s);
}

// ---- stress ----------------------------------------------------------------

// Request slots are recycled: with capacity 64 and 2 workers the pool holds
// 64 + 2 * 16 slots, so 1600 requests reuse every slot many times over.  A
// recycled slot that handed back another request's evidence or answer, kept
// a stale deadline or fired a stale callback shows up here as a mismatch
// against a direct session on the request's *own* evidence.
TEST_F(ServeTest, RecycledSlotsAnswerTheirOwnRequests) {
  const auto model = test_model(31, 7);
  ServerOptions options;
  options.capacity = 64;
  options.batch_max = 16;
  options.workers = 2;
  options.flush_deadline = std::chrono::microseconds(200);
  options.full_policy = ServerOptions::FullPolicy::kBlock;
  options.block_timeout = std::chrono::seconds(30);
  Server server(model, options);

  constexpr int kProducers = 4;
  constexpr int kPerProducer = 400;  // 4 * 400 = 25 x capacity
  std::vector<std::vector<ac::PartialAssignment>> evidence;
  for (int p = 0; p < kProducers; ++p) {
    evidence.push_back(
        sampled_evidence(*model, kPerProducer, 300 + static_cast<std::uint64_t>(p)));
  }
  // Each request writes only its own response and call count; the main
  // thread reads them after shutdown() has joined the workers.
  std::vector<std::vector<Response>> responses(kProducers, std::vector<Response>(kPerProducer));
  std::vector<std::vector<std::atomic<int>>> calls(kProducers);
  for (auto& c : calls) c = std::vector<std::atomic<int>>(kPerProducer);
  const auto query_of = [](int i) {
    return i % 3 == 0 ? QueryType::kMarginal : i % 3 == 1 ? QueryType::kConditional
                                                           : QueryType::kMpe;
  };
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      const auto pi = static_cast<std::size_t>(p);
      for (int i = 0; i < kPerProducer; ++i) {
        const auto ii = static_cast<std::size_t>(i);
        Request r;
        r.query = query_of(i);
        if (r.query == QueryType::kConditional) r.query_var = 0;
        r.evidence = evidence[pi][ii];
        // A finite deadline on some requests only: a reused slot must not
        // keep its previous request's deadline.
        if (i % 5 == 0) r.timeout = std::chrono::seconds(60);
        server.submit(std::move(r), [&, pi, ii](Response response) {
          responses[pi][ii] = std::move(response);
          ++calls[pi][ii];
        });
      }
    });
  }
  for (auto& t : producers) t.join();
  server.shutdown(true);

  InferenceSession direct(model, SessionOptions{});
  for (std::size_t p = 0; p < kProducers; ++p) {
    for (std::size_t i = 0; i < kPerProducer; ++i) {
      ASSERT_EQ(calls[p][i].load(), 1) << "producer " << p << " request " << i;
      const Response& r = responses[p][i];
      ASSERT_EQ(r.status, Status::kOk) << r.message;
      const ac::PartialAssignment& e = evidence[p][i];
      switch (query_of(static_cast<int>(i))) {
        case QueryType::kMarginal:
          EXPECT_EQ(r.value, direct.marginal(e)) << "producer " << p << " request " << i;
          break;
        case QueryType::kConditional:
          EXPECT_EQ(r.posterior, direct.conditional(0, e)) << "producer " << p << " request " << i;
          break;
        case QueryType::kMpe:
          EXPECT_EQ(r.value, direct.mpe(e)) << "producer " << p << " request " << i;
          break;
      }
    }
  }
  const StatsSnapshot s = server.stats();
  EXPECT_EQ(s.submitted, static_cast<std::uint64_t>(kProducers * kPerProducer));
  EXPECT_EQ(s.completed_ok, s.submitted);
  expect_accounting_identity(s);
}

TEST_F(ServeTest, EightProducerStressCompletesEveryRequestExactlyOnce) {
  const auto model = test_model(21, 5);
  ServerOptions options;
  options.capacity = 128;
  options.batch_max = 16;
  options.flush_deadline = std::chrono::microseconds(500);
  options.workers = 3;
  options.full_policy = ServerOptions::FullPolicy::kBlock;
  options.block_timeout = std::chrono::seconds(5);
  Server server(model, options);

  constexpr int kProducers = 8;
  constexpr int kPerProducer = 40;
  std::vector<std::vector<std::future<Response>>> futures(kProducers);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      const auto evidence =
          sampled_evidence(*model, kPerProducer, 100 + static_cast<std::uint64_t>(p));
      for (int i = 0; i < kPerProducer; ++i) {
        Request r;
        r.evidence = evidence[static_cast<std::size_t>(i)];
        switch (i % 3) {
          case 0:
            r.query = QueryType::kMarginal;
            break;
          case 1:
            r.query = QueryType::kConditional;
            r.query_var = 0;
            break;
          default:
            r.query = QueryType::kMpe;
            break;
        }
        // Every 7th request carries an already-expired deadline — it must
        // come back as a typed timeout, not a silent answer or a hang.
        if (i % 7 == 3) r.timeout = std::chrono::nanoseconds(0);
        futures[static_cast<std::size_t>(p)].push_back(server.submit(std::move(r)));
      }
    });
  }
  for (auto& t : producers) t.join();
  server.shutdown(true);

  std::uint64_t ok = 0, timed_out = 0, rejected = 0;
  for (auto& per_producer : futures) {
    for (auto& f : per_producer) {
      Response r = f.get();  // ready: shutdown drained everything
      switch (r.status) {
        case Status::kOk:
          ++ok;
          break;
        case Status::kTimeout:
          ++timed_out;
          break;
        case Status::kRejectedQueueFull:  // legitimate under saturation
          ++rejected;
          break;
        default:
          ADD_FAILURE() << "unexpected terminal status: " << serve::to_string(r.status) << " — "
                        << r.message;
      }
    }
  }
  const StatsSnapshot s = server.stats();
  EXPECT_EQ(s.submitted, static_cast<std::uint64_t>(kProducers * kPerProducer));
  EXPECT_EQ(ok + timed_out + rejected, s.submitted);
  EXPECT_EQ(s.completed_ok, ok);
  EXPECT_EQ(s.timed_out, timed_out);
  EXPECT_GE(timed_out, 1u);  // the pre-expired deadlines really do time out
  expect_accounting_identity(s);
}

}  // namespace
}  // namespace problp
