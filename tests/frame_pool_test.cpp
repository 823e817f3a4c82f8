// The pooled Task frames: every frame lives in a FramePool block whose
// header carries the frame's generation, so liveness checks on stale
// handles are one load and a recycled address never revives a dead ref.
#include <gtest/gtest.h>

#include <array>

#include "simcore/engine.hpp"
#include "simcore/task.hpp"
#include "test_helpers.hpp"

namespace pcs::sim {
namespace {

using detail::FramePool;

Task<> idle() { co_return; }

Task<int> answer(Engine& e) {
  co_await e.sleep(1.0);
  co_return 42;
}

// Twice the largest fine size class (4 KiB): the frame lands in a
// power-of-two class.
constexpr std::size_t kBigFrameBytes = 2 * FramePool::kFineClasses * FramePool::kGranule;

Task<int> big_frame(Engine& e) {
  std::array<char, kBigFrameBytes> buffer{};
  buffer[0] = 1;
  co_await e.sleep(1.0);  // keeps the buffer in the frame across a suspension
  buffer[kBigFrameBytes - 1] = 2;
  co_return buffer[0] + buffer[kBigFrameBytes - 1];
}

TEST(FramePool, HandleAddressIsTheAllocatedPointer) {
  // The header sits in front of the pointer the promise's operator new
  // returned; frame_generation finds it from handle.address().  Popping the
  // freed block back out of its class must hand out that same address.
  void* address = nullptr;
  std::size_t cls = 0;
  {
    Task<> task = idle();
    address = task.raw_handle().address();
    cls = FramePool::header_of(address)->size_class;
    ASSERT_LT(cls, FramePool::kClasses);
  }
  void* again = FramePool::allocate(FramePool::capacity(cls) - FramePool::kHeaderBytes);
  EXPECT_EQ(again, address);
  FramePool::deallocate(again);
}

TEST(FramePool, StaleRefReadsDeadAfterDestroy) {
  FrameRef ref;
  {
    Task<> task = idle();
    ref = FrameRef::capture(task.raw_handle());
    EXPECT_NE(ref.gen, 0u);
    EXPECT_TRUE(ref.alive());
  }
  EXPECT_EQ(frame_generation(ref.handle), 0u);
  EXPECT_FALSE(ref.alive());
}

TEST(FramePool, ReusedAddressGetsANewGeneration) {
  FrameRef old_ref;
  {
    Task<> task = idle();
    old_ref = FrameRef::capture(task.raw_handle());
  }
  Task<> task = idle();
  const FrameRef new_ref = FrameRef::capture(task.raw_handle());
  ASSERT_EQ(new_ref.handle.address(), old_ref.handle.address()) << "freelists are LIFO";
  EXPECT_NE(new_ref.gen, old_ref.gen);
  EXPECT_TRUE(new_ref.alive());
  EXPECT_FALSE(old_ref.alive());
}

TEST(FramePool, FrameLargerThanTheFineClassesIsPooled) {
  Engine engine;
  FrameRef old_ref;
  {
    Task<int> task = big_frame(engine);
    old_ref = FrameRef::capture(task.raw_handle());
    EXPECT_GE(FramePool::header_of(old_ref.handle.address())->size_class,
              FramePool::kFineClasses);
  }
  // The block went back to the pool, not to the allocator: its header is
  // still readable and says the frame is dead.
  EXPECT_EQ(frame_generation(old_ref.handle), 0u);

  int result = 0;
  auto body = [](Engine& e, int& out) -> Task<> { out = co_await big_frame(e); };
  Task<> root = body(engine, result);
  Task<int> probe = big_frame(engine);
  EXPECT_EQ(probe.raw_handle().address(), old_ref.handle.address());
  EXPECT_FALSE(old_ref.alive());
  test::run_actor(engine, std::move(root));
  EXPECT_EQ(result, 3);
}

TEST(FramePool, ValueAndVoidTasksRunThroughTheEngine) {
  Engine engine;
  int value = 0;
  bool void_ran = false;
  auto void_child = [](Engine& e, bool& ran) -> Task<> {
    co_await e.sleep(0.5);
    ran = true;
  };
  auto body = [&](Engine& e) -> Task<> {
    value = co_await answer(e);
    co_await void_child(e, void_ran);
  };
  test::run_actor(engine, body(engine));
  EXPECT_EQ(value, 42);
  EXPECT_TRUE(void_ran);
  EXPECT_DOUBLE_EQ(engine.now(), 1.5);
}

TEST(FramePool, CancelledWaitersNeverResumeIntoARecycledFrame) {
  // A cancelled actor leaves its timer behind; the frame's block is reused
  // by a new actor before the timer fires, and the stale timer must not
  // resume the newcomer early.
  Engine engine;
  int woke = 0;
  auto sleeper = [](Engine& e, int& count, double dt) -> Task<> {
    co_await e.sleep(dt);
    ++count;
  };
  auto controller = [&](Engine& e) -> Task<> {
    co_await e.sleep(1.0);
    e.cancel_group("victims");
    co_await e.sleep(0.0);  // the cancellation sweep runs between resumptions
    e.spawn("newcomer", sleeper(e, woke, 10.0));
  };
  engine.spawn("victim", sleeper(engine, woke, 2.0), /*daemon=*/false, "victims");
  engine.spawn("controller", controller(engine));
  engine.run();
  EXPECT_EQ(woke, 1);
  EXPECT_DOUBLE_EQ(engine.now(), 11.0);
}

#if defined(__SANITIZE_ADDRESS__)
TEST(FramePoolDeathTest, AddressSanitizerSeesAResumeOfADestroyedFrame) {
  // A freed frame's body is poisoned while it waits on the freelist (its
  // header is not: StaleRefReadsDeadAfterDestroy reads it).
  void* address = nullptr;
  {
    Task<> task = idle();
    address = task.raw_handle().address();
  }
  EXPECT_DEATH(std::coroutine_handle<>::from_address(address).resume(), "use-after-poison");
}
#endif

}  // namespace
}  // namespace pcs::sim
