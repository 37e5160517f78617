#ifndef LIGHTOR_E2EBENCH_LOOP_H_
#define LIGHTOR_E2EBENCH_LOOP_H_

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bench.h"
#include "net/http.h"

namespace lightor::e2e {

enum class Op : uint8_t {
  kHighlights,
  kVisit,
  kSession,
  kRefine,
  kFirstVisit,
  kIngest,
  kFinalize,
};
inline constexpr size_t kNumOps = 7;
const char* OpName(Op op);

/// One pre-generated request. Bodies are built before the timed window so
/// the loop only sends bytes.
struct Request {
  /// Open loop: seconds after the window start when it is due.
  double due_s = 0.0;
  Op op = Op::kHighlights;
  std::string target;
  std::string body;  ///< empty: GET
  uint32_t key = 0;  ///< phase-defined (video or channel index)
};

/// Latencies of one loop, in ms, per op and over the whole mix. In an open
/// loop each is timed from when the request was due, so a stall also
/// charges the requests queued behind it.
struct LoopResult {
  std::array<std::vector<double>, kNumOps> ms;
  std::vector<double> all_ms;
  /// Open loop: how late the generator sent each request, counted from
  /// when it was due or its connection became free, whichever is later.
  std::vector<double> late_ms;
  size_t completed = 0;
  double elapsed_s = 0.0;
  /// Open loop: the generator fell behind its schedule on some
  /// connection, so the system never saw the offered rate. Such a run is
  /// invalid, not slow.
  bool fell_behind = false;

  const std::vector<double>& of(Op op) const {
    return ms[static_cast<size_t>(op)];
  }
};

/// Called on the client thread after a 200 response was timed; returns an
/// error description to count the operation as failed, or "" when fine.
/// Output checks report through the Tally instead.
using OnResponse = std::function<std::string(
    size_t thread, const Request&, const net::HttpResponse&)>;

/// Open loop: thread t sends `schedules[t]` in order, each request at its
/// due time (or as soon as its connection is free, when late). One
/// keep-alive connection per thread. Every non-200 is a failed operation.
LoopResult RunOpenLoop(uint16_t port,
                       const std::vector<std::vector<Request>>& schedules,
                       Tally& tally, SpanLog& spans,
                       const OnResponse& on_response = {});

/// Closed loop: thread t sends `pools[t]` back to back until `seconds`
/// pass or its pool runs out.
LoopResult RunClosedLoop(uint16_t port,
                         const std::vector<std::vector<Request>>& pools,
                         double seconds, Tally& tally, SpanLog& spans,
                         const OnResponse& on_response = {});

/// Closed loop over one shared work list: `connections` connections each
/// take the next unsent request, until the list or `seconds` runs out.
LoopResult RunSharedClosedLoop(uint16_t port, const std::vector<Request>& work,
                               size_t connections, double seconds,
                               Tally& tally, SpanLog& spans,
                               const OnResponse& on_response = {});

/// Fills `out` with connection `thread`'s request number `i`; false when
/// that connection has no more work.
using RequestMaker =
    std::function<bool(size_t thread, size_t i, Request* out)>;

/// Closed loop whose requests are made on the client thread just before
/// they are sent, for work too large to generate up front. Runs until
/// every connection's maker says it is done.
LoopResult RunMadeClosedLoop(uint16_t port, size_t connections,
                             const RequestMaker& make, Tally& tally,
                             SpanLog& spans,
                             const OnResponse& on_response = {});

}  // namespace lightor::e2e

#endif  // LIGHTOR_E2EBENCH_LOOP_H_
