// Handler state-machine unit tests: a scripted SysIface drives the
// request/response handlers through every awkward socket shape -- partial
// reads, EAGAIN mid-response, resets mid-request, protocol violations --
// with no real sockets, so each assertion pins one transition of the state
// machine. The e2e half (real reactors, real fds) lives in svc_e2e_test.cc.

#include <gtest/gtest.h>

#include <sys/epoll.h>
#include <sys/uio.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "src/svc/conn_handler.h"
#include "src/svc/handlers.h"

namespace affinity {
namespace svc {
namespace {

// A SysIface whose Read/Write follow a script. Reads deliver a chunk, an
// errno, or EOF per call; once the script runs dry every further read is
// EAGAIN (the socket went quiet). Each gather write consumes one scripted
// step, which accepts at most `cap` bytes across all of the call's buffers
// (cap 0 = EAGAIN, a full send buffer); once the write script runs dry
// every write is accepted whole. Everything written lands in `written` for
// byte-exact response checks.
class ScriptedSys : public fault::SysIface {
 public:
  struct ReadStep {
    std::string data;
    int err = 0;
    bool eof = false;
  };
  struct WriteStep {
    size_t cap = 0;
    int err = 0;
  };

  static ReadStep Data(std::string s) { return ReadStep{std::move(s), 0, false}; }
  static ReadStep Err(int e) { return ReadStep{"", e, false}; }
  static ReadStep Eof() { return ReadStep{"", 0, true}; }

  ssize_t Read(int core, int fd, void* buf, size_t count) override {
    (void)core;
    (void)fd;
    ++reads_issued;
    if (read_idx >= reads.size()) {
      errno = EAGAIN;
      return -1;
    }
    ReadStep& step = reads[read_idx];
    if (step.eof) {
      ++read_idx;
      return 0;
    }
    if (step.err != 0) {
      ++read_idx;
      errno = step.err;
      return -1;
    }
    size_t n = std::min(count, step.data.size());
    std::memcpy(buf, step.data.data(), n);
    if (n < step.data.size()) {
      step.data.erase(0, n);  // the rest arrives on the next call
    } else {
      ++read_idx;
    }
    return static_cast<ssize_t>(n);
  }

  ssize_t Write(int core, int fd, const iovec* iov, int iovcnt) override {
    (void)core;
    (void)fd;
    ++writes_issued;
    size_t cap = SIZE_MAX;
    if (write_idx < writes.size()) {
      WriteStep step = writes[write_idx++];
      if (step.err != 0) {
        errno = step.err;
        return -1;
      }
      if (step.cap == 0) {
        errno = EAGAIN;
        return -1;
      }
      cap = step.cap;
    }
    size_t n = 0;
    for (int i = 0; i < iovcnt && n < cap; ++i) {
      size_t take = std::min(iov[i].iov_len, cap - n);
      written.append(static_cast<const char*>(iov[i].iov_base), take);
      n += take;
    }
    return static_cast<ssize_t>(n);
  }

  std::vector<ReadStep> reads;
  std::vector<WriteStep> writes;
  size_t read_idx = 0;
  size_t write_idx = 0;
  int reads_issued = 0;
  int writes_issued = 0;
  std::string written;
};

// A fresh connection on the scripted socket, fd is a dummy (never passed to
// the kernel by ScriptedSys).
ConnRef MakeConn(ConnState* st, ScriptedSys* sys) {
  st->Reset();
  return ConnRef{st, /*fd=*/42, /*core=*/0, sys};
}

TEST(SvcHandlerTest, EchoCompletesAWholeRoundInOnAccept) {
  ScriptedSys sys;
  sys.reads = {ScriptedSys::Data("hello\n")};
  EchoHandler handler(/*max_rounds=*/0);
  ConnState st;
  ConnRef c = MakeConn(&st, &sys);

  // The request was already in the socket buffer (normal for a connection
  // that waited in a ring): one OnAccept reads it, writes the framed echo,
  // and parks back in the reading phase waiting for the next request.
  EXPECT_EQ(handler.OnAccept(c), Verdict::kWantRead);
  EXPECT_EQ(sys.written, "5\nhello");
  // Header and payload leave in one gather write, and the completed round
  // returns without a read that could only say EAGAIN.
  EXPECT_EQ(sys.writes_issued, 1);
  EXPECT_EQ(sys.reads_issued, 1);
  EXPECT_EQ(st.rounds_done, 1u);
  EXPECT_EQ(st.phase, ConnPhase::kReading);
  EXPECT_EQ(st.req_len, 0u);
  EXPECT_GT(st.last_request_ns, 0u);
}

TEST(SvcHandlerTest, AcceptWritesOneByteAndClosesInOnAccept) {
  ScriptedSys sys;
  AcceptHandler handler;
  ConnState st;
  ConnRef c = MakeConn(&st, &sys);

  // The whole conversation is OnAccept: one byte through the write seam,
  // one round with no request to time, then the close verdict. Nothing is
  // read.
  EXPECT_EQ(handler.OnAccept(c), Verdict::kClose);
  EXPECT_EQ(sys.written, "A");
  EXPECT_EQ(sys.writes_issued, 1);
  EXPECT_EQ(sys.reads_issued, 0);
  EXPECT_EQ(st.rounds_done, 1u);
  EXPECT_EQ(st.last_request_ns, 0u);

  // A peer that already left changes nothing: still one round, still close.
  ScriptedSys gone;
  gone.writes = {ScriptedSys::WriteStep{0, EPIPE}};
  ConnState st2;
  EXPECT_EQ(handler.OnAccept(MakeConn(&st2, &gone)), Verdict::kClose);
  EXPECT_EQ(st2.rounds_done, 1u);
}

TEST(SvcHandlerTest, PartialRequestSurvivesEpollRounds) {
  ScriptedSys sys;
  sys.reads = {ScriptedSys::Data("hel")};
  EchoHandler handler(/*max_rounds=*/0);
  ConnState st;
  ConnRef c = MakeConn(&st, &sys);

  // Three bytes, no terminator, then EAGAIN: the handler must park with the
  // partial line staged and ask for EPOLLIN.
  EXPECT_EQ(handler.OnAccept(c), Verdict::kWantRead);
  EXPECT_EQ(st.req_len, 3u);
  EXPECT_EQ(st.phase, ConnPhase::kReading);
  EXPECT_TRUE(sys.written.empty());

  // The rest arrives on a later epoll wakeup; the round completes from the
  // staged state -- this is the state-outlives-the-epoll-round property.
  sys.reads.push_back(ScriptedSys::Data("lo\n"));
  EXPECT_EQ(handler.OnReadable(c), Verdict::kWantRead);
  EXPECT_EQ(sys.written, "5\nhello");
  EXPECT_EQ(st.rounds_done, 1u);
}

TEST(SvcHandlerTest, EagainMidResponseParksInWritingPhase) {
  ScriptedSys sys;
  sys.reads = {ScriptedSys::Data("abc\n")};
  // First write takes 2 bytes (half the header), second hits a full send
  // buffer. The handler must park in kWriting with the cursors mid-flight.
  sys.writes = {{2, 0}, {0, 0}};
  EchoHandler handler(/*max_rounds=*/0);
  ConnState st;
  ConnRef c = MakeConn(&st, &sys);

  EXPECT_EQ(handler.OnAccept(c), Verdict::kWantWrite);
  EXPECT_EQ(st.phase, ConnPhase::kWriting);
  EXPECT_EQ(sys.written, "3\n");
  EXPECT_EQ(st.rounds_done, 0u);

  // EPOLLOUT fires; the write script is dry so the rest flushes whole and
  // the handler goes back to reading.
  EXPECT_EQ(handler.OnWritable(c), Verdict::kWantRead);
  EXPECT_EQ(sys.written, "3\nabc");
  EXPECT_EQ(st.rounds_done, 1u);
  EXPECT_EQ(st.phase, ConnPhase::kReading);
}

TEST(SvcHandlerTest, ResetMidRequestClosesOrderly) {
  ScriptedSys sys;
  sys.reads = {ScriptedSys::Data("par"), ScriptedSys::Err(ECONNRESET)};
  EchoHandler handler(/*max_rounds=*/0);
  ConnState st;
  ConnRef c = MakeConn(&st, &sys);

  // The peer is gone; there is nobody left to RST at.
  EXPECT_EQ(handler.OnAccept(c), Verdict::kClose);
}

TEST(SvcHandlerTest, EofBetweenRequestsClosesOrderly) {
  ScriptedSys sys;
  sys.reads = {ScriptedSys::Eof()};
  EchoHandler handler(/*max_rounds=*/0);
  ConnState st;
  ConnRef c = MakeConn(&st, &sys);

  EXPECT_EQ(handler.OnAccept(c), Verdict::kClose);
}

TEST(SvcHandlerTest, EpipeMidResponseClosesOrderly) {
  ScriptedSys sys;
  sys.reads = {ScriptedSys::Data("abc\n")};
  sys.writes = {{0, EPIPE}};
  EchoHandler handler(/*max_rounds=*/0);
  ConnState st;
  ConnRef c = MakeConn(&st, &sys);

  EXPECT_EQ(handler.OnAccept(c), Verdict::kClose);
}

TEST(SvcHandlerTest, OversizedRequestIsRstClosed) {
  ScriptedSys sys;
  // A full staging buffer with no terminator in sight: protocol violation,
  // never a reallocation.
  sys.reads = {ScriptedSys::Data(std::string(kReqBufBytes, 'x'))};
  EchoHandler handler(/*max_rounds=*/0);
  ConnState st;
  ConnRef c = MakeConn(&st, &sys);

  EXPECT_EQ(handler.OnAccept(c), Verdict::kRstClose);
}

TEST(SvcHandlerTest, PipelinedBytesAreRstClosed) {
  ScriptedSys sys;
  // Bytes after the terminator in the same read: the protocol forbids
  // pipelining (echo responses alias req_buf, trailing bytes cannot stage).
  sys.reads = {ScriptedSys::Data("a\nb")};
  EchoHandler handler(/*max_rounds=*/0);
  ConnState st;
  ConnRef c = MakeConn(&st, &sys);

  EXPECT_EQ(handler.OnAccept(c), Verdict::kRstClose);
}

TEST(SvcHandlerTest, EchoNClosesAfterNthRound) {
  ScriptedSys sys;
  sys.reads = {ScriptedSys::Data("one\n"), ScriptedSys::Data("two\n")};
  EchoHandler handler(/*max_rounds=*/2);
  ConnState st;
  ConnRef c = MakeConn(&st, &sys);

  // Both requests are already buffered, but a call serves one round: the
  // second waits for the next readiness report, and the server-side close
  // lands exactly after it.
  EXPECT_EQ(handler.OnAccept(c), Verdict::kWantRead);
  EXPECT_EQ(sys.written, "3\none");
  EXPECT_EQ(sys.read_idx, 1u);
  EXPECT_EQ(handler.OnReadable(c), Verdict::kClose);
  EXPECT_EQ(sys.written, "3\none3\ntwo");
  EXPECT_EQ(st.rounds_done, 2u);
}

// max_rounds above 16 bits: the round counter and the close comparison
// must both count every round, not wrap or truncate at 65,536.
TEST(SvcHandlerTest, EchoNCountsPastSixteenBits) {
  constexpr uint32_t kRounds = 70000;
  ScriptedSys sys;
  EchoHandler handler(static_cast<int>(kRounds));
  ConnState st;
  ConnRef c = MakeConn(&st, &sys);

  sys.reads.reserve(kRounds);
  for (uint32_t round = 1; round <= kRounds; ++round) {
    sys.reads.push_back(ScriptedSys::Data("r\n"));
    Verdict want = round < kRounds ? Verdict::kWantRead : Verdict::kClose;
    ASSERT_EQ(handler.OnReadable(c), want) << "round " << round;
    ASSERT_EQ(st.rounds_done, round);
  }
  EXPECT_EQ(sys.written.size(), kRounds * std::string("1\nr").size());
}

// A short gather write can end inside the header, exactly on the
// header/payload boundary, or inside the payload; each must resume
// byte-exact on the next EPOLLOUT.
TEST(SvcHandlerTest, ShortGatherWritesResumeByteExact) {
  // "11\nhello world": a 3-byte header, an 11-byte payload.
  const std::string want = "11\nhello world";
  for (size_t cap : {size_t{1}, size_t{3}, size_t{8}}) {
    SCOPED_TRACE(cap);
    ScriptedSys sys;
    sys.reads = {ScriptedSys::Data("hello world\n")};
    sys.writes = {{cap, 0}, {0, 0}};
    EchoHandler handler(/*max_rounds=*/0);
    ConnState st;
    ConnRef c = MakeConn(&st, &sys);

    EXPECT_EQ(handler.OnAccept(c), Verdict::kWantWrite);
    EXPECT_EQ(sys.written, want.substr(0, cap));
    EXPECT_EQ(st.head_off, std::min<uint32_t>(static_cast<uint32_t>(cap), 3u));
    EXPECT_EQ(st.resp_off, cap > 3 ? cap - 3 : 0u);
    EXPECT_EQ(st.rounds_done, 0u);

    // EPOLLOUT fires and the rest goes out whole in one more write.
    EXPECT_EQ(handler.OnWritable(c), Verdict::kWantRead);
    EXPECT_EQ(sys.written, want);
    EXPECT_EQ(sys.writes_issued, 3);  // the short one, the EAGAIN, the rest
    EXPECT_EQ(st.rounds_done, 1u);
  }
}

TEST(SvcHandlerTest, StaticServesKnownKeyAndRejectsUnknown) {
  StaticHandler handler(/*num_objects=*/4, /*object_bytes=*/8);
  ASSERT_EQ(handler.num_objects(), 4);

  {
    ScriptedSys sys;
    sys.reads = {ScriptedSys::Data("obj2\n")};
    ConnState st;
    ConnRef c = MakeConn(&st, &sys);
    EXPECT_EQ(handler.OnAccept(c), Verdict::kWantRead);
    // Deterministic contents: object i is 8 bytes of 'a'+i.
    EXPECT_EQ(sys.written, "8\ncccccccc");
  }
  {
    ScriptedSys sys;
    sys.reads = {ScriptedSys::Data("obj9\n")};  // off the end of the table
    ConnState st;
    ConnRef c = MakeConn(&st, &sys);
    EXPECT_EQ(handler.OnAccept(c), Verdict::kWantRead);
    std::string body = StaticNotFoundBody();
    EXPECT_EQ(sys.written, std::to_string(body.size()) + "\n" + body);
  }
  {
    ScriptedSys sys;
    sys.reads = {ScriptedSys::Data("not-a-key\n")};
    ConnState st;
    ConnRef c = MakeConn(&st, &sys);
    EXPECT_EQ(handler.OnAccept(c), Verdict::kWantRead);
    std::string body = StaticNotFoundBody();
    EXPECT_EQ(sys.written, std::to_string(body.size()) + "\n" + body);
  }
}

TEST(SvcHandlerTest, StreamServesTheFullFramedPayloadAcrossChunks) {
  ScriptedSys sys;
  sys.reads = {ScriptedSys::Data("go\n")};
  // 4 chunks x 8 bytes: the header promises 32 up front, the cursor only
  // ever stages 8.
  StreamHandler handler(/*chunk_bytes=*/8, /*chunks=*/4, /*max_rounds=*/0);
  ASSERT_EQ(handler.total_bytes(), 32u);
  ConnState st;
  ConnRef c = MakeConn(&st, &sys);

  // Write script dry = every write accepted whole: the pump restages all
  // four chunks inside one OnAccept and the round completes.
  EXPECT_EQ(handler.OnAccept(c), Verdict::kWantRead);
  std::string chunk = "abcdefgh";
  EXPECT_EQ(sys.written, "32\n" + chunk + chunk + chunk + chunk);
  EXPECT_EQ(st.rounds_done, 1u);
  EXPECT_EQ(st.stream_remaining, 0u);
  EXPECT_EQ(st.phase, ConnPhase::kReading);
}

TEST(SvcHandlerTest, StreamParksOnWantWriteMidResponseAndResumes) {
  ScriptedSys sys;
  sys.reads = {ScriptedSys::Data("go\n")};
  // Header lands whole, then the send buffer takes 5 bytes of chunk 1 and
  // fills: the connection must park on kWantWrite MID-CHUNK with three
  // whole chunks still owed -- the multi-buffer response depth the
  // single-cursor handlers never reach.
  sys.writes = {{3, 0}, {5, 0}, {0, 0}};
  StreamHandler handler(/*chunk_bytes=*/8, /*chunks=*/4, /*max_rounds=*/0);
  ConnState st;
  ConnRef c = MakeConn(&st, &sys);

  EXPECT_EQ(handler.OnAccept(c), Verdict::kWantWrite);
  EXPECT_EQ(st.phase, ConnPhase::kWriting);
  EXPECT_EQ(sys.written, "32\nabcde");
  EXPECT_EQ(st.resp_off, 5u);
  EXPECT_EQ(st.stream_remaining, 3u);
  EXPECT_EQ(st.rounds_done, 0u);

  // EPOLLOUT fires; the script is dry so the tail of chunk 1 and the three
  // restaged chunks flush whole, byte-exact against the framed total.
  EXPECT_EQ(handler.OnWritable(c), Verdict::kWantRead);
  std::string chunk = "abcdefgh";
  EXPECT_EQ(sys.written, "32\n" + chunk + chunk + chunk + chunk);
  EXPECT_EQ(st.rounds_done, 1u);
  EXPECT_EQ(st.stream_remaining, 0u);
}

TEST(SvcHandlerTest, StreamHonorsMaxRounds) {
  ScriptedSys sys;
  sys.reads = {ScriptedSys::Data("a\n"), ScriptedSys::Data("b\n")};
  StreamHandler handler(/*chunk_bytes=*/4, /*chunks=*/2, /*max_rounds=*/2);
  ConnState st;
  ConnRef c = MakeConn(&st, &sys);

  // Both requests buffered: one full stream per call, then the server-side
  // close after the second.
  EXPECT_EQ(handler.OnAccept(c), Verdict::kWantRead);
  EXPECT_EQ(sys.written, "8\nabcdabcd");
  EXPECT_EQ(handler.OnReadable(c), Verdict::kClose);
  EXPECT_EQ(sys.written, "8\nabcdabcd8\nabcdabcd");
  EXPECT_EQ(st.rounds_done, 2u);
}

TEST(SvcHandlerTest, WorkloadNamesRoundTrip) {
  for (WorkloadKind kind : {WorkloadKind::kAccept, WorkloadKind::kEcho,
                            WorkloadKind::kStatic, WorkloadKind::kStream}) {
    WorkloadKind parsed;
    ASSERT_TRUE(ParseWorkload(WorkloadName(kind), &parsed)) << WorkloadName(kind);
    EXPECT_EQ(parsed, kind);
  }
  WorkloadKind parsed;
  EXPECT_FALSE(ParseWorkload("bogus", &parsed));
}

TEST(SvcHandlerTest, MakeHandlerMatchesWorkloads) {
  HandlerParams params;
  auto accept = MakeHandler(WorkloadKind::kAccept, params);
  ASSERT_NE(accept, nullptr);
  EXPECT_STREQ(accept->name(), "accept");
  auto echo = MakeHandler(WorkloadKind::kEcho, params);
  ASSERT_NE(echo, nullptr);
  EXPECT_STREQ(echo->name(), "echo");
  auto stat = MakeHandler(WorkloadKind::kStatic, params);
  ASSERT_NE(stat, nullptr);
  EXPECT_STREQ(stat->name(), "static");
  params.stream_chunk_bytes = 16;
  params.stream_chunks = 8;
  auto stream = MakeHandler(WorkloadKind::kStream, params);
  ASSERT_NE(stream, nullptr);
  EXPECT_STREQ(stream->name(), "stream");
  EXPECT_EQ(static_cast<StreamHandler*>(stream.get())->total_bytes(), 128u);
}

TEST(SvcHandlerTest, ResetMakesABlockConversationFresh) {
  ConnState st;
  st.phase = ConnPhase::kWriting;
  st.remote_served = true;
  st.rounds_done = 7;
  st.armed = EPOLLOUT;
  st.req_len = 99;
  st.stream_remaining = 6;
  st.resp_len = 5;
  st.open_prev = 3;
  st.Reset();
  EXPECT_EQ(st.phase, ConnPhase::kReading);
  EXPECT_FALSE(st.remote_served);
  EXPECT_EQ(st.rounds_done, 0u);
  EXPECT_EQ(st.armed, 0u);
  EXPECT_EQ(st.req_len, 0u);
  EXPECT_EQ(st.stream_remaining, 0u);
  EXPECT_EQ(st.resp_len, 0u);
  EXPECT_EQ(st.open_prev, 0xFFFFFFFFu);
}

}  // namespace
}  // namespace svc
}  // namespace affinity
