#include "src/svc/handlers.h"

#include <sys/uio.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>

namespace affinity {
namespace svc {

namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

constexpr char kNotFound[] = "no such object";

}  // namespace

const char* WorkloadName(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kAccept:
      return "accept";
    case WorkloadKind::kEcho:
      return "echo";
    case WorkloadKind::kStatic:
      return "static";
    case WorkloadKind::kStream:
      return "stream";
  }
  return "?";
}

bool ParseWorkload(const char* name, WorkloadKind* out) {
  if (std::strcmp(name, "accept") == 0) {
    *out = WorkloadKind::kAccept;
  } else if (std::strcmp(name, "echo") == 0) {
    *out = WorkloadKind::kEcho;
  } else if (std::strcmp(name, "static") == 0) {
    *out = WorkloadKind::kStatic;
  } else if (std::strcmp(name, "stream") == 0) {
    *out = WorkloadKind::kStream;
  } else {
    return false;
  }
  return true;
}

const char* StaticNotFoundBody() { return kNotFound; }

Verdict AcceptHandler::OnAccept(const ConnRef& c) {
  // One byte is enough for the client to observe end-to-end completion. The
  // close follows whatever the write returned: a peer that already left has
  // nothing more to be told.
  char byte = 'A';
  iovec iov{&byte, 1};
  (void)c.sys->Write(c.core, c.fd, &iov, 1);
  ++c.st->rounds_done;
  return Verdict::kClose;
}

Verdict AcceptHandler::OnReadable(const ConnRef& c) {
  (void)c;
  return Verdict::kClose;
}

Verdict AcceptHandler::OnWritable(const ConnRef& c) {
  (void)c;
  return Verdict::kClose;
}

void AcceptHandler::OnClose(const ConnRef& c) { (void)c; }

void RequestResponseHandler::StageHead(ConnState* st, uint32_t payload_len) {
  int n = std::snprintf(st->head_buf, sizeof(st->head_buf), "%u\n", payload_len);
  st->head_len = n > 0 ? static_cast<uint32_t>(n) : 0;
  st->head_off = 0;
}

Verdict RequestResponseHandler::OnAccept(const ConnRef& c) {
  // The request may already be sitting in the socket buffer (it usually is
  // for a connection that waited in a ring), so drive eagerly right away.
  return Pump(c);
}

Verdict RequestResponseHandler::OnReadable(const ConnRef& c) { return Pump(c); }

Verdict RequestResponseHandler::OnWritable(const ConnRef& c) { return Pump(c); }

void RequestResponseHandler::OnClose(const ConnRef& c) { (void)c; }

Verdict RequestResponseHandler::ReadPhase(const ConnRef& c) {
  ConnState* st = c.st;
  for (;;) {
    if (st->req_len >= kReqBufBytes) {
      return Verdict::kRstClose;  // request line overflows the staging buffer
    }
    ssize_t n = c.sys->Read(c.core, c.fd, st->req_buf + st->req_len,
                            kReqBufBytes - st->req_len);
    if (n == 0) {
      // Orderly EOF. Between requests this is the client being done; mid-
      // request it is an aborted conversation. Either way: orderly close.
      return Verdict::kClose;
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Verdict::kWantRead;
      }
      if (errno == EINTR) {
        continue;
      }
      // ECONNRESET and friends: the peer is gone, nothing to reset back.
      return Verdict::kClose;
    }
    if (st->req_len == 0) {
      st->req_start_ns = NowNs();
    }
    // Scan only the bytes this read delivered for the terminator.
    const char* nl = static_cast<const char*>(
        std::memchr(st->req_buf + st->req_len, '\n', static_cast<size_t>(n)));
    st->req_len += static_cast<uint32_t>(n);
    if (nl == nullptr) {
      continue;  // partial request: keep reading
    }
    uint32_t line_len = static_cast<uint32_t>(nl - st->req_buf);
    if (line_len + 1 != st->req_len) {
      // Bytes beyond the terminator: this protocol has no pipelining, and
      // echo responses alias req_buf, so trailing bytes cannot be staged.
      return Verdict::kRstClose;
    }
    BuildResponse(c, line_len);
    st->resp_off = 0;
    st->phase = ConnPhase::kWriting;
    return Verdict::kWantWrite;  // phase transition, not an EAGAIN
  }
}

Verdict RequestResponseHandler::WritePhase(const ConnRef& c) {
  ConnState* st = c.st;
  for (;;) {
    // The unsent header and the unsent payload go out in one gather write:
    // a response the socket takes whole costs exactly one syscall.
    while (st->head_off < st->head_len || st->resp_off < st->resp_len) {
      iovec iov[2];
      int iovcnt = 0;
      if (st->head_off < st->head_len) {
        iov[iovcnt++] = {st->head_buf + st->head_off, st->head_len - st->head_off};
      }
      if (st->resp_off < st->resp_len) {
        iov[iovcnt++] = {const_cast<char*>(st->resp_data) + st->resp_off,
                         st->resp_len - st->resp_off};
      }
      ssize_t n = c.sys->Write(c.core, c.fd, iov, iovcnt);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          return Verdict::kWantWrite;
        }
        if (errno == EINTR) {
          continue;
        }
        return Verdict::kClose;  // EPIPE/ECONNRESET: peer gone mid-response
      }
      // A short write may end inside the header, on its boundary, or inside
      // the payload: the header cursor takes its share first.
      uint32_t sent = static_cast<uint32_t>(n);
      uint32_t head_sent = std::min(sent, st->head_len - st->head_off);
      st->head_off += head_sent;
      st->resp_off += sent - head_sent;
    }
    if (!RestageChunk(c)) {
      break;  // the staged cursor was the whole (or last chunk of the) response
    }
  }
  // Round complete: stamp the latency, reset for the next request.
  ++st->rounds_done;
  st->last_request_ns = NowNs() - st->req_start_ns;
  st->req_len = 0;
  st->phase = ConnPhase::kReading;
  if (max_rounds_ > 0 && st->rounds_done >= max_rounds_) {
    return Verdict::kClose;
  }
  return Verdict::kWantRead;
}

Verdict RequestResponseHandler::Pump(const ConnRef& c) {
  // At most one round per call: read until a request line is whole, then
  // write its response. A completed round returns kWantRead without reading
  // again -- the next request is the readiness engine's to report (the
  // level-triggered epoll registration, or the POLL_ADD the reactor
  // re-arms), so no call ends in a read that only returns EAGAIN.
  if (c.st->phase == ConnPhase::kReading) {
    Verdict v = ReadPhase(c);
    if (v != Verdict::kWantWrite) {
      return v;  // EAGAIN (kWantRead) or a close decision
    }
    // Fall through: a response is staged, try to write it now.
  }
  return WritePhase(c);
}

void EchoHandler::BuildResponse(const ConnRef& c, uint32_t req_len) {
  ConnState* st = c.st;
  st->resp_data = st->req_buf;  // zero copy: the request IS the payload
  st->resp_len = req_len;
  StageHead(st, req_len);
}

StaticHandler::StaticHandler(int num_objects, int object_bytes)
    : RequestResponseHandler(/*max_rounds=*/0) {  // client-driven close
  if (num_objects < 1) {
    num_objects = 1;
  }
  if (object_bytes < 1) {
    object_bytes = 1;
  }
  objects_.reserve(static_cast<size_t>(num_objects));
  for (int i = 0; i < num_objects; ++i) {
    // Deterministic per-object contents so a test can verify which object
    // came back.
    objects_.push_back(
        std::string(static_cast<size_t>(object_bytes), static_cast<char>('a' + i % 26)));
  }
}

void StaticHandler::BuildResponse(const ConnRef& c, uint32_t req_len) {
  ConnState* st = c.st;
  // Key format: "obj<index>". Parsed by hand: the hot path must not
  // allocate, and atoi on a non-terminated buffer would walk off the line.
  const char* line = st->req_buf;
  long index = -1;
  if (req_len > 3 && line[0] == 'o' && line[1] == 'b' && line[2] == 'j') {
    index = 0;
    for (uint32_t i = 3; i < req_len; ++i) {
      if (line[i] < '0' || line[i] > '9') {
        index = -1;
        break;
      }
      index = index * 10 + (line[i] - '0');
      if (index >= static_cast<long>(objects_.size())) {
        index = -1;
        break;
      }
    }
  }
  if (index < 0) {
    st->resp_data = kNotFound;
    st->resp_len = static_cast<uint32_t>(sizeof(kNotFound) - 1);
  } else {
    const std::string& obj = objects_[static_cast<size_t>(index)];
    st->resp_data = obj.data();
    st->resp_len = static_cast<uint32_t>(obj.size());
  }
  StageHead(st, st->resp_len);
}

StreamHandler::StreamHandler(int chunk_bytes, int chunks, int max_rounds)
    : RequestResponseHandler(max_rounds),
      chunk_bytes_(chunk_bytes < 1 ? 1u : static_cast<uint32_t>(chunk_bytes)),
      chunks_(chunks < 1 ? 1u : static_cast<uint32_t>(chunks)) {
  // Deterministic rotating fill so a test can spot a restage that re-sent
  // stale cursor offsets (every chunk is byte-identical, offsets are not).
  chunk_.resize(chunk_bytes_);
  for (uint32_t i = 0; i < chunk_bytes_; ++i) {
    chunk_[i] = static_cast<char>('a' + i % 26);
  }
}

void StreamHandler::BuildResponse(const ConnRef& c, uint32_t req_len) {
  (void)req_len;  // any request line gets the stream
  ConnState* st = c.st;
  // The header promises the FULL payload up front; the cursor only ever
  // holds one chunk of it. stream_remaining is the restage budget.
  StageHead(st, total_bytes());
  st->resp_data = chunk_.data();
  st->resp_len = chunk_bytes_;
  st->stream_remaining = chunks_ - 1;
}

bool StreamHandler::RestageChunk(const ConnRef& c) {
  ConnState* st = c.st;
  if (st->stream_remaining == 0) {
    return false;
  }
  --st->stream_remaining;
  st->resp_off = 0;  // same immutable chunk, rewound
  return true;
}

std::unique_ptr<ConnHandler> MakeHandler(WorkloadKind kind, const HandlerParams& params) {
  switch (kind) {
    case WorkloadKind::kAccept:
      break;
    case WorkloadKind::kEcho:
      return std::unique_ptr<ConnHandler>(new EchoHandler(params.echo_rounds));
    case WorkloadKind::kStatic:
      return std::unique_ptr<ConnHandler>(
          new StaticHandler(params.num_objects, params.object_bytes));
    case WorkloadKind::kStream:
      return std::unique_ptr<ConnHandler>(new StreamHandler(
          params.stream_chunk_bytes, params.stream_chunks, params.echo_rounds));
  }
  return std::unique_ptr<ConnHandler>(new AcceptHandler());
}

}  // namespace svc
}  // namespace affinity
