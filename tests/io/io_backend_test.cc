// The event engine on its own, without a reactor: the token scheme, conn
// arming (ADD then MOD) delivering the armed direction with its token, a
// watched listen fd reporting accept readiness until it is unwatched --
// the level-triggered semantics Reactor::Arm and the drain path rely on --
// and the doorbell that ends a wait with no timeout.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <string>
#include <thread>

#include "src/fault/sys_iface.h"
#include "src/io/io_backend.h"

namespace affinity {
namespace io {
namespace {

TEST(IoBackendTest, TokensRoundTripWithoutTagCollisions) {
  uint64_t conn = MakeConnToken(/*handle=*/0xABCDEFu, /*gen=*/0x1234);
  EXPECT_TRUE(IsConnToken(conn));
  EXPECT_EQ(HandleOfToken(conn), 0xABCDEFu);
  EXPECT_EQ(GenOfToken(conn), 0x1234);

  // Listen fds are nonnegative ints: the conn tag bit can never be set.
  uint64_t listen = MakeListenToken(/*fd=*/0x7FFFFFFF);
  EXPECT_FALSE(IsConnToken(listen));
  EXPECT_EQ(FdOfListenToken(listen), 0x7FFFFFFF);

  // The doorbell is neither.
  EXPECT_FALSE(IsConnToken(kDoorbellToken));
  EXPECT_TRUE(IsDoorbellToken(kDoorbellToken));
  EXPECT_FALSE(IsDoorbellToken(listen));
  EXPECT_FALSE(IsDoorbellToken(conn));
}

// A wait with no timeout ends when another thread writes the doorbell, and
// the doorbell stays readable until it is read back -- a ring that lands
// before the wait starts is not lost.
TEST(IoBackendTest, DoorbellEndsAWaitWithNoTimeout) {
  IoBackend io(/*core=*/0, fault::DefaultSys());
  ASSERT_TRUE(io.Init(nullptr));
  int bell = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  ASSERT_GE(bell, 0);
  ASSERT_TRUE(io.WatchDoorbell(bell));
  IoEvent events[4];
  EXPECT_EQ(io.Wait(events, 4, 0), 0);

  const uint64_t one = 1;
  std::thread waker([bell, one] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(write(bell, &one, sizeof(one)), static_cast<ssize_t>(sizeof(one)));
  });
  ASSERT_EQ(io.Wait(events, 4, -1), 1);
  waker.join();
  EXPECT_EQ(events[0].token, kDoorbellToken);
  ASSERT_EQ(io.Wait(events, 4, 0), 1);  // level-triggered until drained

  uint64_t rings = 0;
  ASSERT_EQ(read(bell, &rings, sizeof(rings)), static_cast<ssize_t>(sizeof(rings)));
  EXPECT_EQ(rings, 1u);
  EXPECT_EQ(io.Wait(events, 4, 0), 0);
  close(bell);
}

TEST(IoBackendTest, ArmedConnDeliversItsDirectionAndToken) {
  IoBackend io(/*core=*/0, fault::DefaultSys());
  std::string error;
  ASSERT_TRUE(io.Init(&error)) << error;
  int sv[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0, sv), 0);
  const uint64_t token = MakeConnToken(7, 3);
  IoEvent events[4];

  ASSERT_TRUE(io.ArmConn(sv[0], EPOLLIN, token, /*first=*/true));
  EXPECT_EQ(io.Wait(events, 4, 0), 0);  // nothing to read yet
  ASSERT_EQ(write(sv[1], "x", 1), 1);
  ASSERT_EQ(io.Wait(events, 4, 1000), 1);
  EXPECT_EQ(events[0].token, token);
  EXPECT_NE(events[0].events & EPOLLIN, 0u);

  // MOD to the write direction: an empty send buffer is writable at once.
  ASSERT_TRUE(io.ArmConn(sv[0], EPOLLOUT, token, /*first=*/false));
  ASSERT_EQ(io.Wait(events, 4, 1000), 1);
  EXPECT_EQ(events[0].token, token);
  EXPECT_EQ(events[0].events & EPOLLIN, 0u);
  EXPECT_NE(events[0].events & EPOLLOUT, 0u);

  // A second ADD of the same fd is refused: the caller must close the conn.
  EXPECT_FALSE(io.ArmConn(sv[0], EPOLLIN, token, /*first=*/true));
  close(sv[0]);
  close(sv[1]);
}

TEST(IoBackendTest, WatchedListenFdReportsAcceptReadinessUntilUnwatched) {
  IoBackend io(/*core=*/0, fault::DefaultSys());
  ASSERT_TRUE(io.Init(nullptr));
  int lfd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  ASSERT_GE(lfd, 0);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(listen(lfd, 8), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  ASSERT_TRUE(io.WatchListen(lfd));

  int cfd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(cfd, 0);
  ASSERT_EQ(connect(cfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  IoEvent events[4];
  ASSERT_EQ(io.Wait(events, 4, 1000), 1);
  EXPECT_FALSE(IsConnToken(events[0].token));
  EXPECT_EQ(FdOfListenToken(events[0].token), lfd);

  // Level-triggered: the pending connection keeps reporting until drained
  // or unwatched.
  ASSERT_EQ(io.Wait(events, 4, 0), 1);
  io.UnwatchListen(lfd);
  EXPECT_EQ(io.Wait(events, 4, 0), 0);
  close(cfd);
  close(lfd);
}

}  // namespace
}  // namespace io
}  // namespace affinity
