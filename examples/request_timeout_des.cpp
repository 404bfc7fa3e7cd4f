// Discrete-event simulation example: a client/server RPC with timeout and
// retransmission, driven through simulated time (the DES engine produces a
// trace whose causal structure and physical timeline are consistent by
// construction). The analysis then answers questions the causal relations
// are made for:
//   * was every reply caused by SOME attempt of its transaction? (R3')
//   * which transactions saw duplicated work (retry raced the original)?
//   * response-time profile against the client's deadline.
//
// Run: ./request_timeout_des [--transactions=N] [--timeout-us=N]
#include <cstdio>

#include <memory>
#include <string>
#include <vector>

#include "model/timestamps.hpp"
#include "relations/evaluator.hpp"
#include "sim/des.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"
#include "timing/timing_constraints.hpp"

using namespace syncon;

namespace {

constexpr std::uint64_t kRequestTag = 1;
constexpr std::uint64_t kReplyTag = 2;

class Client : public DesProcess {
 public:
  Client(int transactions, Duration timeout)
      : transactions_(transactions), timeout_(timeout) {}

  void on_start(DesContext& ctx) override { fire(ctx); }

  void on_message(DesContext& ctx, const DesMessage& m) override {
    if (m.tag != kReplyTag) return;
    const auto txn = static_cast<int>(m.value);
    ctx.mark("reply/" + std::to_string(txn), ctx.current_receive());
    if (txn != current_) return;  // stale reply of an already-done txn
    done_ = true;
    if (++current_ < transactions_) {
      fire(ctx);
    }
  }

  void on_timer(DesContext& ctx, std::uint64_t timer_txn) override {
    if (done_ || static_cast<int>(timer_txn) != current_) return;
    // Timeout: retransmit the current transaction.
    const EventId e =
        ctx.send(1, kRequestTag, current_, /*processing=*/50);
    ctx.mark("attempt/" + std::to_string(current_), e);
    ctx.set_timer(timeout_, static_cast<std::uint64_t>(current_));
  }

 private:
  void fire(DesContext& ctx) {
    done_ = false;
    const EventId e =
        ctx.send(1, kRequestTag, current_, /*processing=*/100);
    ctx.mark("attempt/" + std::to_string(current_), e);
    ctx.set_timer(timeout_, static_cast<std::uint64_t>(current_));
  }

  int transactions_;
  Duration timeout_;
  int current_ = 0;
  bool done_ = false;
};

class Server : public DesProcess {
 public:
  void on_message(DesContext& ctx, const DesMessage& m) override {
    if (m.tag != kRequestTag) return;
    const auto txn = static_cast<int>(m.value);
    ctx.mark("serve/" + std::to_string(txn), ctx.current_receive());
    // Every third transaction hits a slow path (cache miss / GC pause).
    const Duration work = txn % 3 == 2 ? 9'000 : 400;
    ctx.mark("serve/" + std::to_string(txn), ctx.execute(work));
    ctx.send(0, kReplyTag, txn, /*processing=*/100);
  }
};

int example_main(int argc, char** argv) {
  CliParser cli("request_timeout_des",
                "simulate an RPC client/server with timeout retries");
  cli.add_option("transactions", "6", "number of transactions");
  cli.add_option("timeout-us", "6000", "client retransmission timeout (µs)");
  cli.add_option("seed", "5", "latency seed");
  if (!cli.parse(argc, argv)) return 1;
  const auto transactions = static_cast<int>(cli.get_int("transactions"));
  const auto timeout = static_cast<Duration>(cli.get_int("timeout-us"));

  std::vector<std::unique_ptr<DesProcess>> procs;
  procs.push_back(std::make_unique<Client>(transactions, timeout));
  procs.push_back(std::make_unique<Server>());
  DesConfig cfg;
  cfg.min_latency = 300;
  cfg.max_latency = 2500;
  cfg.seed = cli.get_uint("seed");
  DesEngine engine(std::move(procs), cfg);
  engine.run(10'000'000);
  const DesEngine::Result result = engine.finish();

  std::printf("simulated %zu events over %lld µs of virtual time\n\n",
              result.execution->total_real_count(),
              static_cast<long long>(result.times->horizon()));

  const Timestamps ts(*result.execution);
  RelationEvaluator eval(ts);
  std::vector<std::string> labels;
  std::vector<RelationEvaluator::Handle> handles(result.intervals.size());
  auto find = [&](const std::string& label) -> int {
    for (std::size_t i = 0; i < result.intervals.size(); ++i) {
      if (result.intervals[i].label() == label) return static_cast<int>(i);
    }
    return -1;
  };
  for (std::size_t i = 0; i < result.intervals.size(); ++i) {
    handles[i] = eval.add_event(result.intervals[i]);
  }

  TextTable table({"txn", "attempts", "caused-by-attempt (R3')",
                   "duplicated work", "response (µs)", "retried"});
  LatencyProfile profile(TimingConstraint{
      "rpc", Anchor::Start, Anchor::End, 0, 4 * timeout});
  for (int t = 0; t < transactions; ++t) {
    const std::string suffix = "/" + std::to_string(t);
    const int attempt = find("attempt" + suffix);
    const int reply = find("reply" + suffix);
    const int serve = find("serve" + suffix);
    if (attempt < 0 || reply < 0 || serve < 0) continue;
    const NonatomicEvent& a = result.intervals[static_cast<std::size_t>(attempt)];
    const std::size_t attempts = a.size();
    const bool caused = eval.holds(
        {Relation::R3p, ProxyKind::Begin, ProxyKind::End},
        handles[static_cast<std::size_t>(attempt)],
        handles[static_cast<std::size_t>(reply)]);
    // Duplicated work: the server handled more than one request receive.
    const std::size_t serve_receives =
        result.intervals[static_cast<std::size_t>(serve)].size();
    const bool duplicated = serve_receives > 2;  // 1 receive + 1 work = clean
    const Duration response =
        gap(*result.times, a, Anchor::Start,
            result.intervals[static_cast<std::size_t>(reply)], Anchor::Start);
    profile.record(*result.times, a,
                   result.intervals[static_cast<std::size_t>(reply)]);
    table.new_row()
        .add_cell(std::to_string(t))
        .add_cell(attempts)
        .add_cell(caused)
        .add_cell(duplicated)
        .add_cell(static_cast<std::int64_t>(response))
        .add_cell(attempts > 1);
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("response p50 = %.0f µs, worst = %lld µs; deadline (4x "
              "timeout) violations: %zu/%zu\n",
              profile.quantile(0.5),
              static_cast<long long>(profile.worst_gap()),
              profile.violations(), profile.samples());
  std::printf("\nslow transactions (every 3rd) exceed the %lld µs timeout, "
              "so the client retries\nand the trace shows duplicated server "
              "work — visible both causally and in time.\n",
              static_cast<long long>(timeout));
  (void)labels;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return run_tool("request_timeout_des", argc, argv, example_main);
}
