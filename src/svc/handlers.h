// The built-in handlers mirroring the paper's Section 6 workload mix:
//  - AcceptHandler:  one connection per request, the paper's accept-bound
//                    load (one byte, then a close verdict from OnAccept),
//  - EchoHandler:    echo-N, the request-reuse axis of Figure 7 (N rounds
//                    per connection amortize the accept),
//  - StaticHandler:  in-memory object table keyed by the request line, the
//                    static-content file-size axis of Figure 9.
//
// Protocol of the request/response handlers (shared with rt::LoadClient): a
// request is one newline-terminated line; a response is "<payload-len>\n"
// followed by exactly payload-len bytes. Requests are not pipelined -- bytes
// after the terminator are a protocol violation (RST).
//
// The request/response handlers share one state machine
// (RequestResponseHandler::Pump) that serves at most one round per call: it
// reads until a full request line, builds the response, and sends header
// plus payload in one gather write.
// A verdict always means "the readiness engine must wake us", never "try
// again immediately": kWantRead follows EAGAIN and also a completed round,
// so the next request is reported by epoll instead of costing a read that
// returns EAGAIN.

#ifndef AFFINITY_SRC_SVC_HANDLERS_H_
#define AFFINITY_SRC_SVC_HANDLERS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/svc/conn_handler.h"

namespace affinity {
namespace svc {

// The accept workload: OnAccept writes one byte, completes one round and
// returns kClose, so the conversation ends in the call that opened it. The
// round has no request to time; it adds 0 to the service-time histogram.
class AcceptHandler : public ConnHandler {
 public:
  const char* name() const override { return "accept"; }
  Verdict OnAccept(const ConnRef& c) override;
  // OnAccept always closes, so readiness never reaches these two.
  Verdict OnReadable(const ConnRef& c) override;
  Verdict OnWritable(const ConnRef& c) override;
  void OnClose(const ConnRef& c) override;
};

class RequestResponseHandler : public ConnHandler {
 public:
  // `max_rounds` > 0: the server closes after that many responses (echo-N);
  // 0: serve until the client closes.
  explicit RequestResponseHandler(int max_rounds)
      : max_rounds_(max_rounds > 0 ? static_cast<uint32_t>(max_rounds) : 0) {}

  Verdict OnAccept(const ConnRef& c) override;
  Verdict OnReadable(const ConnRef& c) override;
  Verdict OnWritable(const ConnRef& c) override;
  void OnClose(const ConnRef& c) override;

 protected:
  // Points c.st's response cursor (head_buf/head_len + resp_data/resp_len)
  // at the reply for the request line in c.st->req_buf[0..req_len). Must
  // not allocate; resp_data must outlive the connection's write phase.
  virtual void BuildResponse(const ConnRef& c, uint32_t req_len) = 0;

  // Writes the "<len>\n" framing header into c.st->head_buf.
  static void StageHead(ConnState* st, uint32_t payload_len);

  // Called when the staged response cursor has fully drained. Return true
  // after restaging more payload bytes for the SAME response (the framed
  // total promised by the header must still be honored); false means the
  // response is complete and the round ends. Lets a handler serve a
  // response far larger than any staging buffer, one chunk at a time,
  // surviving kWantWrite parking between chunks.
  virtual bool RestageChunk(const ConnRef& c) {
    (void)c;
    return false;
  }

 private:
  // The full state machine for one round: read -> respond -> write,
  // stopping at EAGAIN, the end of the round, or a close decision.
  Verdict Pump(const ConnRef& c);
  // One phase each; kWantRead/kWantWrite mean EAGAIN or phase completion,
  // anything else is a terminal decision.
  Verdict ReadPhase(const ConnRef& c);
  Verdict WritePhase(const ConnRef& c);

  uint32_t max_rounds_;
};

class EchoHandler : public RequestResponseHandler {
 public:
  explicit EchoHandler(int max_rounds) : RequestResponseHandler(max_rounds) {}
  const char* name() const override { return "echo"; }

 protected:
  void BuildResponse(const ConnRef& c, uint32_t req_len) override;
};

class StaticHandler : public RequestResponseHandler {
 public:
  StaticHandler(int num_objects, int object_bytes);
  const char* name() const override { return "static"; }

  int num_objects() const { return static_cast<int>(objects_.size()); }

 protected:
  void BuildResponse(const ConnRef& c, uint32_t req_len) override;

 private:
  // Immutable after construction; responses point straight into these
  // strings (zero copy), so reactors share them read-only.
  std::vector<std::string> objects_;
};

// Chunked static content: every request is answered with one response of
// stream_chunks * stream_chunk_bytes payload bytes, framed with the total
// up front but staged one chunk at a time through RestageChunk. The point
// is depth in the WRITE half of the state machine: the response cannot fit
// the socket buffer, so the connection must park on kWantWrite mid-response
// -- the multi-buffer static-content shape of the paper's Figure 9 that the
// single-buffer handlers above never exercise.
class StreamHandler : public RequestResponseHandler {
 public:
  StreamHandler(int chunk_bytes, int chunks, int max_rounds);
  const char* name() const override { return "stream"; }

  uint32_t total_bytes() const { return chunk_bytes_ * chunks_; }

 protected:
  void BuildResponse(const ConnRef& c, uint32_t req_len) override;
  bool RestageChunk(const ConnRef& c) override;

 private:
  // One immutable chunk shared by every connection and every restage;
  // responses never copy payload, they re-point at this.
  std::string chunk_;
  uint32_t chunk_bytes_;
  uint32_t chunks_;
};

// The fixed not-found payload StaticHandler serves for unknown keys.
const char* StaticNotFoundBody();

}  // namespace svc
}  // namespace affinity

#endif  // AFFINITY_SRC_SVC_HANDLERS_H_
