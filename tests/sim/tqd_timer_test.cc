// The quote daemon as a discrete-event actor: batch windows own real heap
// timers instead of waiting for a poll, full windows flush inline and
// cancel their timer, the breaker cooldown probes itself, and a power cut
// silences everything.

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/os/tqd.h"
#include "src/sim/executor.h"
#include "src/tpm/transport.h"

namespace flicker {
namespace {

Bytes Nonce(const std::string& tag) { return BytesOf("nonce-" + tag); }

// One machine + daemon wired to a SimExecutor, mirroring the fleet's
// TimerHost binding.
class TqdTimerTest : public ::testing::Test {
 protected:
  TqdTimerTest() : executor_(7) {}

  void Bind(size_t max_batch_size = TpmQuoteDaemon::kDefaultMaxBatchSize) {
    tqd_ = std::make_unique<TpmQuoteDaemon>(&machine_, max_batch_size);
    actor_ = executor_.RegisterActor("machine", machine_.clock());
    TpmQuoteDaemon::TimerHost host;
    host.schedule = [this](uint64_t delay_ns, std::function<void()> fn) {
      return executor_.ScheduleAfterLocal(actor_, delay_ns, std::move(fn)).seq;
    };
    host.cancel = [this](uint64_t id) { executor_.Cancel(sim::EventId{id}); };
    tqd_->BindTimers(
        std::move(host),
        [this](std::vector<BatchQuoteResponse> responses) {
          for (BatchQuoteResponse& response : responses) {
            batch_out_.push_back(std::move(response));
          }
        },
        [this](std::vector<AttestationResponse> responses) {
          for (AttestationResponse& response : responses) {
            drain_out_.push_back(std::move(response));
          }
        });
  }

  Machine machine_;
  sim::SimExecutor executor_;
  sim::ActorId actor_ = sim::kNoActor;
  std::unique_ptr<TpmQuoteDaemon> tqd_;
  std::vector<BatchQuoteResponse> batch_out_;
  std::vector<AttestationResponse> drain_out_;
};

TEST_F(TqdTimerTest, WindowTimerFlushesAtDeadline) {
  Bind();

  ASSERT_TRUE(tqd_->SubmitBatched(Nonce("a"), PcrSelection({17})).ok());
  ASSERT_TRUE(tqd_->SubmitBatched(Nonce("b"), PcrSelection({17})).ok());
  EXPECT_TRUE(batch_out_.empty());  // Nobody polled; nothing flushed yet.

  executor_.Run();
  ASSERT_EQ(batch_out_.size(), 2u);
  EXPECT_EQ(batch_out_[0].nonce, Nonce("a"));
  EXPECT_EQ(tqd_->batched_pending(), 0u);
  EXPECT_EQ(tqd_->batch_quotes(), 1u);
  // The flush happened at the window deadline, not at time zero.
  EXPECT_GE(machine_.clock()->NowMillis(), TpmQuoteDaemon::kMaxBatchWaitMs);
}

TEST_F(TqdTimerTest, FullWindowFlushesInlineAndCancelsTimer) {
  Bind(/*max_batch_size=*/2);

  ASSERT_TRUE(tqd_->SubmitBatched(Nonce("a"), PcrSelection({17})).ok());
  ASSERT_TRUE(tqd_->SubmitBatched(Nonce("b"), PcrSelection({17})).ok());
  // The filling submit flushed synchronously; no timer fired first.
  ASSERT_EQ(batch_out_.size(), 2u);
  EXPECT_EQ(executor_.events_processed(), 0u);

  // The cancelled deadline timer must not produce a second flush.
  executor_.Run();
  EXPECT_EQ(batch_out_.size(), 2u);
  EXPECT_EQ(tqd_->batch_quotes(), 1u);
}

TEST_F(TqdTimerTest, SelectionsKeepSeparateWindowsAndTimers) {
  Bind();

  ASSERT_TRUE(tqd_->SubmitBatched(Nonce("p17"), PcrSelection({17})).ok());
  machine_.clock()->AdvanceMillis(2.0);
  ASSERT_TRUE(tqd_->SubmitBatched(Nonce("p18"), PcrSelection({17, 18})).ok());

  executor_.Run();
  EXPECT_EQ(batch_out_.size(), 2u);
  EXPECT_EQ(tqd_->batch_quotes(), 2u);  // One quote per selection window.
}

TEST_F(TqdTimerTest, BreakerProbeDrainsQueueAfterCooldown) {
  machine_.tpm_transport()->hardware()->ForceFailureMode();
  Bind();

  // The kBreakerThreshold-th failing challenge trips the breaker and queues.
  for (int i = 0; i < TpmQuoteDaemon::kBreakerThreshold; ++i) {
    ASSERT_FALSE(tqd_->HandleChallenge(Nonce("queued"), PcrSelection({17})).ok());
  }
  ASSERT_TRUE(tqd_->breaker_open());
  ASSERT_EQ(tqd_->queued_count(), 1u);

  // The TPM recovers while the cooldown timer is pending.
  machine_.tpm_transport()->hardware()->ClearFailureMode();
  machine_.tpm_transport()->hardware()->Init();
  ASSERT_TRUE(machine_.tpm()->Startup().ok());

  executor_.Run();
  EXPECT_FALSE(tqd_->breaker_open());
  EXPECT_EQ(tqd_->queued_count(), 0u);
  ASSERT_EQ(drain_out_.size(), 1u);
  EXPECT_GE(machine_.clock()->NowMillis(), TpmQuoteDaemon::kBreakerCooldownMs);
}

TEST_F(TqdTimerTest, PowerLossDropsWindowsAndSilencesTimers) {
  Bind();

  ASSERT_TRUE(tqd_->SubmitBatched(Nonce("doomed"), PcrSelection({17})).ok());
  tqd_->OnPowerLoss();
  EXPECT_EQ(tqd_->batched_pending(), 0u);

  executor_.Run();  // The armed deadline timer was cancelled: no flush.
  EXPECT_TRUE(batch_out_.empty());
  EXPECT_EQ(tqd_->batch_quotes(), 0u);
}

}  // namespace
}  // namespace flicker
