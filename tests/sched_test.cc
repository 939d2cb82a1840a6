// Scheduler tests: FIFO job queue and look-ahead hints.
#include <gtest/gtest.h>

#include "src/sched/job.h"
#include "src/sched/job_queue.h"

namespace ca {
namespace {

Job MakeJob(JobId id, SessionId session) {
  Job j;
  j.id = id;
  j.session = session;
  j.new_tokens = 10;
  j.history_tokens = 90;
  j.decode_tokens = 5;
  return j;
}

TEST(JobTest, FullPromptIsHistoryPlusNew) {
  const Job j = MakeJob(1, 2);
  EXPECT_EQ(j.full_prompt_tokens(), 100U);
}

TEST(JobQueueTest, FifoOrder) {
  JobQueue q;
  q.Push(MakeJob(1, 10));
  q.Push(MakeJob(2, 11));
  q.Push(MakeJob(3, 12));
  EXPECT_EQ(q.size(), 3U);
  EXPECT_EQ(q.Peek()->id, 1ULL);
  EXPECT_EQ(q.Pop()->id, 1ULL);
  EXPECT_EQ(q.Pop()->id, 2ULL);
  EXPECT_EQ(q.Pop()->id, 3ULL);
  EXPECT_FALSE(q.Pop().has_value());
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.Peek(), nullptr);
}

TEST(JobQueueTest, SessionSnapshotInOrder) {
  JobQueue q;
  q.Push(MakeJob(1, 30));
  q.Push(MakeJob(2, 20));
  q.Push(MakeJob(3, 30));
  EXPECT_EQ(q.SessionSnapshot(), (std::vector<SessionId>{30, 20, 30}));
}

TEST(JobQueueTest, HintsRespectWindowAndEarliestUse) {
  JobQueue q;
  q.Push(MakeJob(1, 5));
  q.Push(MakeJob(2, 6));
  q.Push(MakeJob(3, 5));  // session 5 again, later
  q.Push(MakeJob(4, 7));
  const SchedulerHints hints = q.HintsForWindow(3);
  EXPECT_EQ(hints.NextUse(5), 0U);
  EXPECT_EQ(hints.NextUse(6), 1U);
  EXPECT_FALSE(hints.InWindow(7));  // outside window of 3
}

TEST(JobQueueTest, PopFirstRunnableSkipsBlockedSessions) {
  JobQueue q;
  q.Push(MakeJob(1, 5));  // session 5, earliest
  q.Push(MakeJob(2, 6));
  q.Push(MakeJob(3, 5));  // session 5 again
  // Session 5 "in flight": the earliest runnable job is job 2.
  const auto not5 = [](const Job& j) { return j.session != 5; };
  auto job = q.PopFirstRunnable(not5);
  ASSERT_TRUE(job.has_value());
  EXPECT_EQ(job->id, 2ULL);
  // Remaining jobs keep queue order, so session 5's jobs pop FIFO.
  EXPECT_FALSE(q.HasRunnable(not5));
  auto j1 = q.PopFirstRunnable([](const Job&) { return true; });
  auto j3 = q.PopFirstRunnable([](const Job&) { return true; });
  ASSERT_TRUE(j1.has_value());
  ASSERT_TRUE(j3.has_value());
  EXPECT_EQ(j1->id, 1ULL);
  EXPECT_EQ(j3->id, 3ULL);
  EXPECT_FALSE(q.PopFirstRunnable([](const Job&) { return true; }).has_value());
}

TEST(JobQueueTest, WindowSnapshotTruncatesHeadFirst) {
  JobQueue q;
  q.Push(MakeJob(1, 30));
  q.Push(MakeJob(2, 20));
  q.Push(MakeJob(3, 10));
  EXPECT_EQ(q.WindowSnapshot(2), (std::vector<SessionId>{30, 20}));
  EXPECT_EQ(q.WindowSnapshot(9), (std::vector<SessionId>{30, 20, 10}));
  EXPECT_TRUE(q.WindowSnapshot(0).empty());
}

}  // namespace
}  // namespace ca
